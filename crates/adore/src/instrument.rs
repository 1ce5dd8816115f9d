//! Selective runtime instrumentation — the paper's future work (§6):
//! *"we are investigating the possibility of adding selective runtime
//! instrumentation to collect information not available from HPM."*
//!
//! When dependence slicing cannot recover a stride (fp↔int conversions
//! in the address computation — the vpr/lucas failure mode of §4.3),
//! the optimizer can instead *instrument* the trace: a bounded store
//! sequence records the delinquent load's address into a profiling
//! buffer each iteration, guarded by the reserved predicate `p6`. A few
//! profile windows later the dynamic-optimization thread reads the
//! buffer back, builds a stride histogram (Wu's PLDI'02 regular-stride
//! discovery, run at runtime instead of from an offline profile), and —
//! if one stride dominates — replaces the instrumentation with an
//! ordinary prefetch stream anchored to the load's address register.

use isa::{AccessSize, Bundle, Gr, Insn, Op, Pr};
use sim::Memory;

use crate::patch::PatchedTrace;
use crate::prefetch::{pack_sequence, schedule_group, InsertionStats, OptimizedTrace};
use crate::trace::Trace;

/// Profiling-buffer capacity in recorded addresses.
pub(crate) const BUFFER_ENTRIES: u64 = 2048;
/// Minimum fraction of deltas that must agree for a stride to count as
/// dominant (Wu uses a profitability threshold; 0.55 here).
const MIN_STRIDE_SHARE: f64 = 0.55;
/// Minimum recorded addresses before analysis is meaningful.
const MIN_SAMPLES: u64 = 64;
/// Profile windows to wait between installing the instrumentation and
/// reading the buffer back.
pub(crate) const OBSERVE_WINDOWS: u64 = 2;

/// A trace instrumented to record one load's address stream.
#[derive(Debug, Clone)]
pub struct Instrumentation {
    /// The trace (with recording code), ready for patching.
    pub trace: OptimizedTrace,
    /// Profiling-buffer base address.
    pub buffer: u64,
    /// Buffer capacity in 8-byte entries.
    pub capacity: u64,
    /// The register whose value is recorded (the load's address).
    pub base_reg: Gr,
}

/// An installed instrumentation patch awaiting its observation windows
/// (the optimizer keeps one of these per instrumented trace until the
/// recorded stream is harvested by the promotion pass).
#[derive(Debug, Clone)]
pub struct PendingInstr {
    /// The live trace-pool patch carrying the recording stores.
    pub patch: PatchedTrace,
    /// The original (un-instrumented) trace, kept for promotion.
    pub trace: Trace,
    /// Position of the recorded load inside the trace (bundle, slot).
    pub load_pos: (usize, u8),
    /// Prefetch distance in iterations to use on promotion.
    pub dist_iters: u64,
    /// Recording-buffer base address.
    pub buffer: u64,
    /// Recording-buffer capacity in 8-byte entries.
    pub capacity: u64,
    /// Window index (timeline position) at installation time.
    pub installed_window: u64,
}

/// Builds an instrumented copy of `trace` recording the address of the
/// load at `load_pos` into `[buffer, buffer + 8 * capacity)`.
///
/// Returns `None` when the position holds no load or no two reserved
/// registers are free in the trace.
pub fn instrument_trace(
    trace: &Trace,
    load_pos: (usize, u8),
    buffer: u64,
    capacity: u64,
) -> Option<Instrumentation> {
    let back_edge = trace.back_edge?;
    let insn = trace.insn_at(load_pos)?;
    let base_reg = match insn.op {
        Op::Ld { base, .. } => base,
        Op::Ldf { base, .. } => base,
        _ => return None,
    };

    // Two free reserved registers: the write cursor and the limit.
    let used: std::collections::HashSet<Gr> = trace
        .bundles
        .iter()
        .flat_map(|b| b.slots.iter())
        .flat_map(|i| {
            let mut regs = i.op.gr_reads();
            regs.extend(i.op.gr_write());
            regs.extend(i.op.gr_post_inc_write().map(|(r, _)| r));
            regs
        })
        .filter(|r| r.is_reserved())
        .collect();
    let mut free = Gr::RESERVED.iter().copied().filter(|r| !used.contains(r));
    let rbuf = free.next()?;
    let rlimit = free.next()?;

    let entry = vec![
        Insn::new(Op::MovL { d: rbuf, imm: buffer as i64 }),
        Insn::new(Op::MovL { d: rlimit, imm: (buffer + 8 * capacity) as i64 }),
    ];

    let mut body = trace.bundles.clone();
    let mut back_edge = back_edge;
    // After the load's address is live: bounds check into the reserved
    // predicate, then the (predicated) recording store with
    // post-increment. The store must never run past the buffer — `p6`
    // guards it, so the inserted code cannot corrupt program state.
    let chain = [
        Insn::new(Op::Cmp { op: isa::CmpOp::Ltu, pt: Pr::RESERVED, pf: Pr(0), a: rbuf, b: rlimit }),
        Insn::predicated(
            Pr::RESERVED,
            Op::St { s: base_reg, base: rbuf, post_inc: 8, size: AccessSize::U8 },
        ),
    ];
    let ok = schedule_group(&mut body, &mut back_edge, load_pos, None, &chain, &mut []);
    debug_assert!(ok);

    Some(Instrumentation {
        trace: OptimizedTrace {
            entry: pack_sequence(&entry),
            body,
            back_edge,
            start: trace.start,
            fall_through_exit: trace.fall_through_exit,
            stats: InsertionStats::default(),
        },
        buffer,
        capacity,
        base_reg,
    })
}

/// Reads the recorded address stream back and returns the dominant
/// stride, if any: the most common successive delta, provided at least
/// 64 addresses were recorded and it covers at least 55 % of all
/// deltas.
pub fn dominant_stride(mem: &Memory, buffer: u64, capacity: u64) -> Option<i64> {
    let mut addrs = Vec::new();
    for i in 0..capacity {
        let v = mem.read_spec(buffer + 8 * i, 8);
        if v == 0 {
            break; // arena is zero-initialized: end of recording
        }
        addrs.push(v as i64);
    }
    if (addrs.len() as u64) < MIN_SAMPLES {
        return None;
    }
    let mut histogram: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
    for w in addrs.windows(2) {
        *histogram.entry(w[1].wrapping_sub(w[0])).or_default() += 1;
    }
    let total: u64 = histogram.values().sum();
    let (&stride, &count) = histogram.iter().max_by_key(|(_, c)| **c)?;
    if stride != 0 && count as f64 >= MIN_STRIDE_SHARE * total as f64 {
        Some(stride)
    } else {
        None
    }
}

/// Builds the *promoted* trace: the original (un-instrumented) body plus
/// a direct prefetch stream at the discovered stride, re-anchored to the
/// load's address register every iteration (the address computation
/// itself stays opaque — only its output is extrapolated).
pub fn promote(
    trace: &Trace,
    load_pos: (usize, u8),
    stride: i64,
    distance_iters: u64,
) -> Option<OptimizedTrace> {
    let back_edge = trace.back_edge?;
    let insn = trace.insn_at(load_pos)?;
    let base_reg = match insn.op {
        Op::Ld { base, .. } | Op::Ldf { base, .. } => base,
        _ => return None,
    };
    let used: std::collections::HashSet<Gr> = trace
        .bundles
        .iter()
        .flat_map(|b| b.slots.iter())
        .flat_map(|i| {
            let mut regs = i.op.gr_reads();
            regs.extend(i.op.gr_write());
            regs.extend(i.op.gr_post_inc_write().map(|(r, _)| r));
            regs
        })
        .filter(|r| r.is_reserved())
        .collect();
    let rp = Gr::RESERVED.iter().copied().find(|r| !used.contains(r))?;

    let mut body = trace.bundles.clone();
    let mut back_edge = back_edge;
    let dist = distance_iters as i64 * stride;
    // Re-anchor each iteration: rp = addr + dist, then prefetch. Two
    // instructions after the address is live.
    let chain = [
        Insn::new(Op::AddI { d: rp, a: base_reg, imm: dist }),
        Insn::new(Op::Lfetch { base: rp, post_inc: 0 }),
    ];
    let ok = schedule_group(&mut body, &mut back_edge, load_pos, None, &chain, &mut []);
    debug_assert!(ok);

    Some(OptimizedTrace {
        entry: Vec::new(),
        body,
        back_edge,
        start: trace.start,
        fall_through_exit: trace.fall_through_exit,
        stats: InsertionStats { direct: 1, indirect: 0, pointer: 0, jump: 0 },
    })
}

/// Convenience for tests: count recording stores in a bundle list.
pub fn count_recording_stores(bundles: &[Bundle]) -> usize {
    bundles
        .iter()
        .flat_map(|b| b.slots.iter())
        .filter(|i| i.qp == Some(Pr::RESERVED) && matches!(i.op, Op::St { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Addr, Asm, CmpOp, CODE_BASE};

    /// An fp-conversion loop trace (unanalyzable address computation).
    fn fpconv_trace() -> (Trace, (usize, u8)) {
        let mut a = Asm::new();
        a.label("loop");
        a.emit(Op::Setf { d: isa::Fr(8), s: Gr(40) });
        a.emit(Op::Getf { d: Gr(41), s: isa::Fr(8) });
        a.shladd(Gr(42), Gr(41), 3, Gr(43));
        a.ld(AccessSize::U8, Gr(44), Gr(42), 0);
        a.add(Gr(45), Gr(44), Gr(45));
        a.addi(Gr(40), Gr(40), 16);
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        let p = a.finish(CODE_BASE).unwrap();
        let bundles: Vec<Bundle> = p.bundles().to_vec();
        let n = bundles.len();
        let mut back_edge = None;
        let mut load_pos = None;
        for (bi, b) in bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::BrCond { .. }) {
                    back_edge = Some((bi, si as u8));
                }
                if matches!(s.op, Op::Ld { .. }) {
                    load_pos = Some((bi, si as u8));
                }
            }
        }
        (
            Trace {
                start: Addr(CODE_BASE),
                origins: (0..n).map(|i| p.addr_of(i)).collect(),
                fall_through_exit: Addr(CODE_BASE + 16 * n as u64),
                is_loop: true,
                back_edge,
                bundles,
            },
            load_pos.unwrap(),
        )
    }

    #[test]
    fn instrumentation_emits_guarded_store() {
        let (trace, load_pos) = fpconv_trace();
        let instr = instrument_trace(&trace, load_pos, 0x1f00_0000, 256).unwrap();
        assert_eq!(count_recording_stores(&instr.trace.body), 1);
        assert_eq!(instr.base_reg, Gr(42));
        // Entry sets up the cursor and the limit.
        let movls = instr
            .trace
            .entry
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|i| matches!(i.op, Op::MovL { .. }))
            .count();
        assert_eq!(movls, 2);
    }

    #[test]
    fn dominant_stride_detection() {
        let mut mem = Memory::new(1 << 16);
        let buf = mem.alloc(4096, 64);
        // 100 addresses, mostly stride 48 with occasional jumps.
        let mut addr = 0x2000_0000i64;
        for i in 0..100u64 {
            mem.write(buf + 8 * i, 8, addr as u64);
            addr += if i % 10 == 9 { 1000 } else { 48 };
        }
        let s = dominant_stride(&mem, buf, 512).unwrap();
        assert_eq!(s, 48);
    }

    #[test]
    fn irregular_streams_yield_no_stride() {
        let mut mem = Memory::new(1 << 16);
        let buf = mem.alloc(4096, 64);
        let mut x = 12345u64;
        for i in 0..100u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            mem.write(buf + 8 * i, 8, 0x2000_0000 + (x % 100_000));
        }
        assert_eq!(dominant_stride(&mem, buf, 512), None);
    }

    #[test]
    fn too_few_samples_yield_no_stride() {
        let mut mem = Memory::new(1 << 16);
        let buf = mem.alloc(4096, 64);
        for i in 0..10u64 {
            mem.write(buf + 8 * i, 8, 0x2000_0000 + 48 * i);
        }
        assert_eq!(dominant_stride(&mem, buf, 512), None);
    }

    #[test]
    fn promotion_inserts_anchored_prefetch() {
        let (trace, load_pos) = fpconv_trace();
        let ot = promote(&trace, load_pos, 128, 16).unwrap();
        let lfetches = ot
            .body
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|i| matches!(i.op, Op::Lfetch { .. }))
            .count();
        assert_eq!(lfetches, 1);
        assert_eq!(ot.stats.direct, 1);
        // The anchor add re-computes rp from the load's address register.
        let anchored = ot
            .body
            .iter()
            .flat_map(|b| b.slots.iter())
            .any(|i| matches!(i.op, Op::AddI { a: Gr(42), imm: 2048, d } if d.is_reserved()));
        assert!(anchored);
    }

    #[test]
    fn end_to_end_instrument_then_promote_speeds_up_fpconv_loop() {
        use sim::{Machine, MachineConfig};
        // A real fp-conversion walking loop over a big array: classify
        // fails, instrumentation discovers the stride, promotion makes
        // it fast.
        let build = || {
            let mut a = Asm::new();
            a.global("main");
            a.movl(Gr(8), 60);
            a.movl(Gr(40), 0); // index, survives reps
            a.movl(Gr(43), 0x1000_0000);
            a.label("outer");
            a.movl(Gr(9), 10_000);
            a.label("loop");
            a.emit(Op::Setf { d: isa::Fr(8), s: Gr(40) });
            a.emit(Op::Getf { d: Gr(41), s: isa::Fr(8) });
            a.shladd(Gr(42), Gr(41), 3, Gr(43));
            a.ld(AccessSize::U8, Gr(44), Gr(42), 0);
            a.add(Gr(45), Gr(44), Gr(45));
            a.addi(Gr(40), Gr(40), 16); // +128 bytes per iteration
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            // Wrap the index so the walk stays in a 16 MB window.
            a.cmpi(CmpOp::Ge, Pr(3), Pr(4), Gr(40), 2_000_000);
            a.emit(Insn::predicated(Pr(3), Op::MovL { d: Gr(40), imm: 0 }));
            a.addi(Gr(8), Gr(8), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
            a.br_cond(Pr(1), "outer");
            a.halt();
            let mut cfg = MachineConfig::default();
            cfg.mem_capacity = 32 << 20;
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), cfg.clone());
            m.mem_mut().alloc(17 << 20, 64);
            (m, cfg)
        };
        let (mut plain, _) = build();
        plain.run(u64::MAX);
        let baseline = plain.cycles();

        let mut config = crate::AdoreConfig::enabled();
        config.sampling.interval_cycles = 2_000;
        config.instrument_unanalyzable = true;
        let (m, base_cfg) = build();
        let mut m = Machine::new(m.code().clone(), config.machine_config(base_cfg));
        m.mem_mut().alloc(17 << 20, 64);
        let report = crate::run(&mut m, &config);
        assert!(
            report.instrumented >= 1,
            "the unanalyzable load should be instrumented: {report:?}"
        );
        assert!(
            report.promoted >= 1,
            "the recorded stream should reveal the 128-byte stride: {report:?}"
        );
        assert!(
            report.cycles * 10 < baseline * 95 / 10,
            "promotion should recover a speedup: {} vs {baseline}",
            report.cycles
        );
    }
}
