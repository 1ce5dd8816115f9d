//! Delinquent-load tracking (paper §3.1).
//!
//! Every sample carries the latest DEAR record: a data-cache load miss
//! with latency ≥ 8 cycles (L2-or-worse on Itanium 2). ADORE maps each
//! record's source address to a load instruction inside a selected loop
//! trace and keeps, per trace, the top three loads by share of total
//! sampled miss latency.

use std::collections::HashMap;

use isa::Pc;
use perfmon::UserEventBuffer;

use crate::trace::Trace;

/// A load worth prefetching for, with its sampled miss statistics.
#[derive(Debug, Clone)]
pub struct DelinquentLoad {
    /// Precise pc of the load in the original code.
    pub pc: Pc,
    /// Index of the containing trace in the selection result.
    pub trace_index: usize,
    /// Position of the load inside the trace (bundle, slot).
    pub position: (usize, u8),
    /// Number of sampled qualifying misses.
    pub count: u64,
    /// Total sampled miss latency, cycles.
    pub total_latency: u64,
    /// Mean sampled miss latency, cycles.
    pub avg_latency: f64,
    /// Share of all sampled miss latency (0–1) across the UEB.
    pub share: f64,
    /// Most recent miss address (diagnostics).
    pub last_miss_addr: u64,
}

/// Maximum delinquent loads handled per loop trace (paper: top three).
pub const MAX_LOADS_PER_TRACE: usize = 3;

/// Maps the DEAR records in the UEB onto the given traces and returns
/// the top [`MAX_LOADS_PER_TRACE`] loads per *loop* trace, ordered by
/// decreasing latency share.
pub fn find_delinquent_loads(traces: &[Trace], ueb: &UserEventBuffer) -> Vec<DelinquentLoad> {
    // Aggregate DEAR records, collapsing repeats of the same event.
    let mut stats: HashMap<Pc, (u64, u64, u64)> = HashMap::new(); // count, latency, last addr
    let mut total_latency = 0u64;
    let mut last_seen = None;
    for w in ueb.iter() {
        for s in &w.samples {
            let Some(d) = s.dear else { continue };
            // DTLB-miss events also appear in the DEAR; only cache
            // misses drive prefetching.
            if d.kind != sim::DearKind::CacheMiss {
                continue;
            }
            if last_seen == Some((d.load_pc, d.miss_addr)) {
                continue;
            }
            last_seen = Some((d.load_pc, d.miss_addr));
            let e = stats.entry(d.load_pc).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += d.latency;
            e.2 = d.miss_addr;
            total_latency += d.latency;
        }
    }
    if total_latency == 0 {
        return Vec::new();
    }

    let mut out = Vec::new();
    for (ti, trace) in traces.iter().enumerate() {
        if !trace.is_loop {
            continue; // runtime prefetching targets loop traces only
        }
        let mut in_trace: Vec<DelinquentLoad> = stats
            .iter()
            .filter_map(|(&pc, &(count, latency, addr))| {
                let position = trace.position_of(pc)?;
                Some(DelinquentLoad {
                    pc,
                    trace_index: ti,
                    position,
                    count,
                    total_latency: latency,
                    avg_latency: latency as f64 / count as f64,
                    share: latency as f64 / total_latency as f64,
                    last_miss_addr: addr,
                })
            })
            .collect();
        in_trace.sort_by(|a, b| {
            b.total_latency.cmp(&a.total_latency).then_with(|| a.pc.addr.cmp(&b.pc.addr))
        });
        in_trace.truncate(MAX_LOADS_PER_TRACE);
        out.extend(in_trace);
    }
    out
}

/// Returns the delinquent loads that map into the trace at
/// `trace_index`, in the order `find_delinquent_loads` produced them
/// (decreasing total latency within the trace).
pub fn loads_for_trace(loads: &[DelinquentLoad], trace_index: usize) -> Vec<DelinquentLoad> {
    loads.iter().filter(|l| l.trace_index == trace_index).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Addr, Bundle, Insn, SlotKind};
    use perfmon::ProfileWindow;
    use sim::{DearRecord, Sample};

    fn nop_bundle() -> Bundle {
        Bundle::pack(&[Insn::nop(SlotKind::M)]).unwrap()
    }

    fn trace_at(start: u64, n: usize, is_loop: bool) -> Trace {
        Trace {
            start: Addr(start),
            bundles: vec![nop_bundle(); n],
            origins: (0..n).map(|i| Addr(start + 16 * i as u64)).collect(),
            is_loop,
            back_edge: None,
            fall_through_exit: Addr(start + 16 * n as u64),
        }
    }

    fn ueb_with_misses(misses: &[(u64, u8, u64, u64)]) -> UserEventBuffer {
        // (pc addr, slot, miss addr, latency)
        let samples: Vec<Sample> = misses
            .iter()
            .enumerate()
            .map(|(i, &(a, s, ma, lat))| Sample {
                index: i as u64,
                pc: Pc::new(Addr(a), 0),
                cycles: 1000 * (i as u64 + 1),
                retired: 500 * (i as u64 + 1),
                dcache_misses: i as u64,
                btb: vec![],
                dear: Some(DearRecord {
                    load_pc: Pc::new(Addr(a), s),
                    miss_addr: ma,
                    latency: lat,
                    kind: sim::DearKind::CacheMiss,
                }),
            })
            .collect();
        let mut ueb = UserEventBuffer::new(4);
        ueb.push(ProfileWindow::new(0, samples, (0, 0, 0)));
        ueb
    }

    #[test]
    fn misses_map_into_loop_traces() {
        let t = trace_at(0x4000_0000, 4, true);
        let ueb = ueb_with_misses(&[
            (0x4000_0010, 0, 0x1000_0000, 160),
            (0x4000_0010, 0, 0x1000_0040, 160),
            (0x4000_0020, 1, 0x1200_0000, 13),
        ]);
        let d = find_delinquent_loads(&[t], &ueb);
        assert_eq!(d.len(), 2);
        // Sorted by total latency: the 320-cycle load first.
        assert_eq!(d[0].pc, Pc::new(Addr(0x4000_0010), 0));
        assert_eq!(d[0].count, 2);
        assert!((d[0].share - 320.0 / 333.0).abs() < 1e-9);
        assert_eq!(d[0].position, (1, 0));
        assert_eq!(d[1].avg_latency, 13.0);
    }

    #[test]
    fn non_loop_traces_are_skipped() {
        let t = trace_at(0x4000_0000, 4, false);
        let ueb = ueb_with_misses(&[(0x4000_0010, 0, 0x1000_0000, 160)]);
        assert!(find_delinquent_loads(&[t], &ueb).is_empty());
    }

    #[test]
    fn misses_outside_traces_ignored() {
        let t = trace_at(0x4000_0000, 2, true);
        let ueb = ueb_with_misses(&[(0x5000_0000, 0, 0x1000_0000, 160)]);
        assert!(find_delinquent_loads(&[t], &ueb).is_empty());
    }

    #[test]
    fn top_three_limit_applies() {
        let t = trace_at(0x4000_0000, 8, true);
        let misses: Vec<(u64, u8, u64, u64)> =
            (0..6).map(|i| (0x4000_0000 + 16 * i, 0u8, 0x1000_0000 + 64 * i, 100 + i)).collect();
        let ueb = ueb_with_misses(&misses);
        let d = find_delinquent_loads(&[t], &ueb);
        assert_eq!(d.len(), MAX_LOADS_PER_TRACE);
        // Highest-latency entries survive.
        assert!(d.iter().all(|x| x.total_latency >= 103));
    }

    #[test]
    fn duplicate_dear_records_collapse() {
        let t = trace_at(0x4000_0000, 2, true);
        // Same (pc, miss addr) repeated: only one event.
        let ueb = ueb_with_misses(&[
            (0x4000_0000, 0, 0x1000_0000, 160),
            (0x4000_0000, 0, 0x1000_0000, 160),
        ]);
        let d = find_delinquent_loads(&[t], &ueb);
        assert_eq!(d[0].count, 1);
    }

    #[test]
    fn empty_ueb_yields_nothing() {
        let t = trace_at(0x4000_0000, 2, true);
        let ueb = UserEventBuffer::new(4);
        assert!(find_delinquent_loads(&[t], &ueb).is_empty());
    }
}
