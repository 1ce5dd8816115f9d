//! Performance monitoring unit: counters, branch trace buffer, DEAR.
//!
//! Models the Itanium 2 PMU features ADORE consumes (paper §2.1): the
//! accumulative counters (CPU cycles, retired instructions, data-cache
//! load misses), the 4-entry **Branch Trace Buffer** recording the most
//! recent branch outcomes with source/target addresses, and the **Data
//! Event Address Registers** holding the most recent qualifying cache
//! miss (pc, miss address, latency ≥ 8 cycles).

use isa::{Addr, Pc};
use obs::{Json, ToJson};

use crate::cache::DEAR_LATENCY_THRESHOLD;

/// Accumulative PMU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// CPU cycles.
    pub cycles: u64,
    /// Retired instructions (all slots, including predicated-off and
    /// nops, as on Itanium).
    pub retired: u64,
    /// Loads that missed the L1D (any latency).
    pub l1d_misses: u64,
    /// Loads with latency ≥ 8 cycles (DEAR-qualifying; L2-or-worse).
    pub dear_misses: u64,
    /// Total latency of DEAR-qualifying misses.
    pub dear_latency: u64,
    /// Instruction-cache misses.
    pub l1i_misses: u64,
    /// Executed loads.
    pub loads: u64,
    /// Data TLB misses.
    pub dtlb_misses: u64,
    /// Executed branch-unit instructions.
    pub branches: u64,
    /// Cycles stalled waiting for data-memory results (stall-on-use).
    pub stall_mem: u64,
    /// Cycles stalled waiting for floating-point results.
    pub stall_fp: u64,
    /// Cycles lost to taken-branch bubbles.
    pub stall_branch: u64,
    /// Cycles lost to instruction-cache misses.
    pub stall_icache: u64,
    /// Cycles charged as runtime-system overhead (sampling handler,
    /// patch publication).
    pub overhead_cycles: u64,
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        Json::object()
            .with("cycles", self.cycles)
            .with("retired", self.retired)
            .with("l1d_misses", self.l1d_misses)
            .with("dear_misses", self.dear_misses)
            .with("dear_latency", self.dear_latency)
            .with("l1i_misses", self.l1i_misses)
            .with("loads", self.loads)
            .with("dtlb_misses", self.dtlb_misses)
            .with("branches", self.branches)
            .with("stall_mem", self.stall_mem)
            .with("stall_fp", self.stall_fp)
            .with("stall_branch", self.stall_branch)
            .with("stall_icache", self.stall_icache)
            .with("overhead_cycles", self.overhead_cycles)
    }
}

/// One Branch Trace Buffer record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    /// Address of the branch instruction.
    pub source: Pc,
    /// Branch target (the fall-through address for not-taken branches).
    pub target: Addr,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// The 4-entry circular branch trace buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchTraceBuffer {
    entries: [Option<BtbEntry>; 4],
    next: usize,
}

impl BranchTraceBuffer {
    /// Records a branch outcome.
    pub fn record(&mut self, entry: BtbEntry) {
        self.entries[self.next] = Some(entry);
        self.next = (self.next + 1) % 4;
    }

    /// Snapshot in recording order, oldest first.
    pub fn snapshot(&self) -> Vec<BtbEntry> {
        let mut out = Vec::with_capacity(4);
        for i in 0..4 {
            if let Some(e) = self.entries[(self.next + i) % 4] {
                out.push(e);
            }
        }
        out
    }
}

/// Which event class a DEAR record describes. The hardware register
/// reports data-cache misses, DTLB misses and ALAT misses (paper §2.1);
/// ADORE's prefetcher only consumes the cache-miss events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DearKind {
    /// A data-cache load miss.
    #[default]
    CacheMiss,
    /// A data TLB miss serviced by the hardware walker.
    TlbMiss,
}

/// The Data Event Address Register contents: the most recent qualifying
/// data-side event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DearRecord {
    /// Address of the load instruction that missed.
    pub load_pc: Pc,
    /// The data address that missed.
    pub miss_addr: u64,
    /// Observed load latency in cycles.
    pub latency: u64,
    /// Event class.
    pub kind: DearKind,
}

/// The complete PMU state.
///
/// The DEAR follows the IA-64 event-address-register protocol: it
/// *latches* one qualifying event and holds it until the sampling read
/// re-arms it. (A naive most-recent-overwrite model would make samples
/// observe almost exclusively the last load of each miss burst, hiding
/// the other delinquent loads from the optimizer.)
#[derive(Debug, Clone, PartialEq)]
pub struct Pmu {
    /// Accumulative counters.
    pub counters: Counters,
    /// Branch trace buffer.
    pub btb: BranchTraceBuffer,
    /// Most recently latched DEAR record, if any.
    pub dear: Option<DearRecord>,
    dear_armed: bool,
}

impl Default for Pmu {
    fn default() -> Pmu {
        Pmu {
            counters: Counters::default(),
            btb: BranchTraceBuffer::default(),
            dear: None,
            dear_armed: true,
        }
    }
}

impl Pmu {
    /// Creates a PMU with zeroed counters.
    pub fn new() -> Pmu {
        Pmu::default()
    }

    /// Records a load with its observed latency; updates miss counters,
    /// and latches the DEAR when it is armed and the latency qualifies.
    pub fn record_load(&mut self, pc: Pc, addr: u64, latency: u64, l1_hit: bool) {
        self.counters.loads += 1;
        if !l1_hit {
            self.counters.l1d_misses += 1;
        }
        if latency >= DEAR_LATENCY_THRESHOLD {
            self.counters.dear_misses += 1;
            self.counters.dear_latency += latency;
            if self.dear_armed {
                self.dear = Some(DearRecord {
                    load_pc: pc,
                    miss_addr: addr,
                    latency,
                    kind: DearKind::CacheMiss,
                });
                self.dear_armed = false;
            }
        }
    }

    /// Records a DTLB miss; latched into the DEAR (as a TLB event) when
    /// armed, exactly like cache-miss events.
    pub fn record_tlb_miss(&mut self, pc: Pc, addr: u64, latency: u64) {
        self.counters.dtlb_misses += 1;
        if self.dear_armed {
            self.dear =
                Some(DearRecord { load_pc: pc, miss_addr: addr, latency, kind: DearKind::TlbMiss });
            self.dear_armed = false;
        }
    }

    /// Re-arms the DEAR after a sample read it. The held record stays
    /// visible until the next qualifying miss replaces it.
    pub fn rearm_dear(&mut self) {
        self.dear_armed = true;
    }

    /// Records a branch outcome in the BTB.
    pub fn record_branch(&mut self, source: Pc, target: Addr, taken: bool) {
        self.counters.branches += 1;
        self.btb.record(BtbEntry { source, target, taken });
    }
}

/// One PMU sample: the n-tuple ADORE receives from perfmon
/// (paper §2.1): `<sample index, pc, cycles, d-cache miss count,
/// retired count, BTB values, DEAR values>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Monotonically increasing sample index.
    pub index: u64,
    /// Program counter at sample time.
    pub pc: Pc,
    /// Accumulative cycle counter.
    pub cycles: u64,
    /// Accumulative retired-instruction counter.
    pub retired: u64,
    /// Accumulative DEAR-qualifying miss counter.
    pub dcache_misses: u64,
    /// Branch trace buffer snapshot (up to 4 entries, oldest first).
    pub btb: Vec<BtbEntry>,
    /// DEAR contents at sample time.
    pub dear: Option<DearRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(a: u64, slot: u8) -> Pc {
        Pc::new(Addr(a), slot)
    }

    #[test]
    fn btb_keeps_last_four_in_order() {
        let mut btb = BranchTraceBuffer::default();
        for i in 0..6u64 {
            btb.record(BtbEntry {
                source: pc(0x4000_0000 + i * 16, 2),
                target: Addr(0x5000_0000),
                taken: i % 2 == 0,
            });
        }
        let snap = btb.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].source, pc(0x4000_0020, 2)); // entries 2..5 remain
        assert_eq!(snap[3].source, pc(0x4000_0050, 2));
    }

    #[test]
    fn dear_updates_only_on_qualifying_misses() {
        let mut pmu = Pmu::new();
        pmu.record_load(pc(0x4000_0000, 0), 0x1000_0000, 6, false);
        assert!(pmu.dear.is_none());
        assert_eq!(pmu.counters.l1d_misses, 1);
        assert_eq!(pmu.counters.dear_misses, 0);

        pmu.record_load(pc(0x4000_0010, 0), 0x1000_0040, 160, false);
        let d = pmu.dear.unwrap();
        assert_eq!(d.miss_addr, 0x1000_0040);
        assert_eq!(d.latency, 160);
        assert_eq!(d.kind, DearKind::CacheMiss);
        assert_eq!(pmu.counters.dear_misses, 1);
        assert_eq!(pmu.counters.dear_latency, 160);
    }

    #[test]
    fn l1_hits_do_not_count_as_misses() {
        let mut pmu = Pmu::new();
        pmu.record_load(pc(0x4000_0000, 0), 0x1000_0000, 1, true);
        assert_eq!(pmu.counters.loads, 1);
        assert_eq!(pmu.counters.l1d_misses, 0);
        assert!(pmu.dear.is_none());
    }

    #[test]
    fn dear_latches_until_rearmed() {
        let mut pmu = Pmu::new();
        pmu.record_load(pc(0x4000_0000, 0), 0x1000_0000, 160, false);
        // A second qualifying miss does NOT overwrite the latched record.
        pmu.record_load(pc(0x4000_0010, 1), 0x1000_0040, 160, false);
        assert_eq!(pmu.dear.unwrap().load_pc, pc(0x4000_0000, 0));
        assert_eq!(pmu.counters.dear_misses, 2, "counters still count everything");
        // After re-arming, the next qualifying miss is captured.
        pmu.rearm_dear();
        pmu.record_load(pc(0x4000_0020, 2), 0x1000_0080, 13, false);
        assert_eq!(pmu.dear.unwrap().load_pc, pc(0x4000_0020, 2));
    }

    #[test]
    fn tlb_events_are_latched_with_their_kind() {
        let mut pmu = Pmu::new();
        pmu.record_tlb_miss(pc(0x4000_0000, 0), 0x1000_0000, 25);
        assert_eq!(pmu.dear.unwrap().kind, DearKind::TlbMiss);
        assert_eq!(pmu.counters.dtlb_misses, 1);
        // Latched: a subsequent cache miss does not replace it.
        pmu.record_load(pc(0x4000_0010, 0), 0x1000_0040, 160, false);
        assert_eq!(pmu.dear.unwrap().kind, DearKind::TlbMiss);
    }

    #[test]
    fn branch_recording_counts() {
        let mut pmu = Pmu::new();
        pmu.record_branch(pc(0x4000_0000, 2), Addr(0x4000_0100), true);
        assert_eq!(pmu.counters.branches, 1);
        assert_eq!(pmu.btb.snapshot().len(), 1);
    }
}
