//! Runtime prefetch generation, optimization and scheduling.
//!
//! Implements §3.3–§3.5 of the paper for the three patterns of Fig. 6:
//!
//! - **direct array**: one reserved register is initialized on trace
//!   entry to `base + distance` and a single post-increment
//!   `lfetch [rP], stride` both prefetches and advances — the merged
//!   form the paper calls prefetch-code optimization (§3.4);
//! - **indirect array**: an advanced copy of the index stream is read
//!   with a *speculative* load (`ld.s`, so inserted code can never
//!   fault), the data address is recomputed from the slice, and both
//!   levels are prefetched, the first level further ahead;
//! - **pointer chasing**: an induction-pointer scheme — snapshot the
//!   recurrent pointer at the loop top, compute the per-iteration
//!   delta after the pointer advances, scale it by the iteration-ahead
//!   count with `shladd`, and prefetch the extrapolated address.
//!
//! Prefetch distance is `⌈average miss latency / loop-body cycles⌉`
//! (§3.3), aligned to the L1D line size for small integer strides.
//! Inserted instructions are scheduled into *free slots* of existing
//! bundles wherever possible; only when a chain does not fit are new
//! bundles inserted (§3.5).

use std::collections::HashSet;

use isa::{AccessSize, Addr, Bundle, Gr, Insn, Op, Pc, SlotKind};
use sim::cache::L1D_LINE;

use crate::delinq::DelinquentLoad;
use crate::pattern::{classify, Pattern};
use crate::reject::Rejection;
use crate::trace::Trace;

/// Prefetch-generation configuration.
#[derive(Debug, Clone)]
pub struct PrefetchConfig {
    /// Minimum prefetch distance in iterations.
    pub min_distance_iters: u64,
    /// Maximum prefetch distance in iterations.
    pub max_distance_iters: u64,
    /// Generate prefetches for direct array references (ablation knob).
    pub enable_direct: bool,
    /// Generate prefetches for indirect array references.
    pub enable_indirect: bool,
    /// Generate induction-pointer prefetches for pointer chases.
    pub enable_pointer: bool,
    /// Generate jump-pointer (dependence-based) prefetches.
    pub enable_jump: bool,
    /// Prefetch-distance multiplier in percent. 100 (the default) is
    /// the paper's §3.3 formula; the policy controller's arms scale it
    /// (50 / 200).
    pub distance_pct: u64,
    /// Model the inserted `lfetch` streams as targeting L2 rather than
    /// L1: the stream only needs to cover the memory→L2 share of the
    /// miss latency, so the distance basis shrinks to 3/4. Policy
    /// knob; the paper's static policy (default) targets L1.
    pub lfetch_l2: bool,
    /// Minimum average miss latency (cycles) a classified load must
    /// show to earn a stream. 0 (the default) accepts every classified
    /// load, exactly as the paper; the policy controller's strict
    /// acceptance tier raises it.
    pub min_stream_latency: f64,
}

impl Default for PrefetchConfig {
    fn default() -> PrefetchConfig {
        PrefetchConfig {
            min_distance_iters: 2,
            max_distance_iters: 256,
            enable_direct: true,
            enable_indirect: true,
            enable_pointer: true,
            enable_jump: true,
            distance_pct: 100,
            lfetch_l2: false,
            min_stream_latency: 0.0,
        }
    }
}

/// Counts of inserted prefetch streams by pattern (Table 2 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertionStats {
    /// Direct-array streams.
    pub direct: usize,
    /// Indirect-array streams.
    pub indirect: usize,
    /// Pointer-chasing streams.
    pub pointer: usize,
    /// Jump-pointer (dependence-based) streams.
    pub jump: usize,
}

impl InsertionStats {
    /// Total streams inserted.
    pub fn total(&self) -> usize {
        self.direct + self.indirect + self.pointer + self.jump
    }
}

impl obs::ToJson for InsertionStats {
    fn to_json(&self) -> obs::Json {
        obs::Json::object()
            .with("direct", self.direct)
            .with("indirect", self.indirect)
            .with("pointer", self.pointer)
            .with("jump", self.jump)
            .with("total", self.total())
    }
}

impl std::ops::AddAssign for InsertionStats {
    fn add_assign(&mut self, rhs: InsertionStats) {
        self.direct += rhs.direct;
        self.indirect += rhs.indirect;
        self.pointer += rhs.pointer;
        self.jump += rhs.jump;
    }
}

/// A trace with prefetch code merged in, ready for patching.
#[derive(Debug, Clone)]
pub struct OptimizedTrace {
    /// Initialization bundles executed on trace entry (Fig. 6's code
    /// "on top of the loop").
    pub entry: Vec<Bundle>,
    /// The loop body (the back edge targets its first bundle).
    pub body: Vec<Bundle>,
    /// Position of the loop back edge within `body`.
    pub back_edge: (usize, u8),
    /// Original-code address of the trace head (patch site).
    pub start: Addr,
    /// Where control continues after the loop exits.
    pub fall_through_exit: Addr,
    /// Inserted-stream statistics.
    pub stats: InsertionStats,
}

/// Classifies the delinquent loads of one loop trace up-front
/// (positions reference the unmodified body and are adjusted as bundles
/// are inserted later). This is the pattern-analysis half of the old
/// fused `optimize_trace`; the scheduling half is
/// [`schedule_streams`].
pub(crate) fn classify_loads(
    trace: &Trace,
    loads: &[DelinquentLoad],
) -> (Vec<(Pc, f64, Pattern)>, Vec<(Pc, Rejection)>) {
    if trace.back_edge.is_none() {
        return (Vec::new(), Vec::new());
    }
    let mut work = Vec::new();
    let mut rejected = Vec::new();
    for load in loads {
        match classify(trace, load.position) {
            Ok(p) => work.push((load.pc, load.avg_latency, p)),
            Err(e) => rejected.push((load.pc, e)),
        }
    }
    (work, rejected)
}

/// Result of [`schedule_streams`].
pub(crate) struct ScheduleOutcome {
    /// The optimized trace, when at least one stream was inserted.
    pub candidate: Option<OptimizedTrace>,
    /// Per classified load, in order: the prefetch distance (iterations)
    /// of the stream scheduled for it, or why none was (disabled pattern
    /// class, register pressure, duplicate stream, …).
    pub fates: Vec<(Pc, Result<u64, Rejection>)>,
}

/// Schedules prefetch code for pre-classified loads into free slots of
/// the trace body (the scheduling half of the old fused
/// `optimize_trace`).
pub(crate) fn schedule_streams(
    trace: &Trace,
    work: &[(Pc, f64, Pattern)],
    cfg: &PrefetchConfig,
) -> ScheduleOutcome {
    let Some(back_edge) = trace.back_edge else {
        return ScheduleOutcome { candidate: None, fates: Vec::new() };
    };
    let mut body = trace.bundles.clone();
    let mut back_edge = back_edge;
    let mut entry: Vec<Insn> = Vec::new();
    let mut stats = InsertionStats::default();
    let mut fates = Vec::new();

    // Incremental re-optimization: only the reserved registers an
    // earlier pass over this trace left unused are free.
    let mut free_regs = trace.free_reserved();
    let mut streams: HashSet<(Gr, i64)> = HashSet::new();
    let mut chased: HashSet<Gr> = HashSet::new();
    let mut jumped: HashSet<(Gr, i64)> = HashSet::new();

    // Loop-body cycle estimate: two bundles per cycle plus the branch.
    let body_cycles = (trace.bundles.len() as u64).div_ceil(2).max(1) + 1;

    for (pc, avg_latency, pattern) in work {
        if *avg_latency < cfg.min_stream_latency {
            fates.push((*pc, Err(Rejection::PolicyBelowTier)));
            continue;
        }
        // An L2-targeted stream leaves the final L1 fill to the demand
        // miss (a short L2 hit), so it only covers 3/4 of the measured
        // latency; the distance multiplier then scales the paper's
        // formula. Both knobs are identity under the static policy.
        let covered = if cfg.lfetch_l2 { *avg_latency * 0.75 } else { *avg_latency };
        let dist_iters = (((covered / body_cycles as f64).ceil() as u64) * cfg.distance_pct / 100)
            .clamp(cfg.min_distance_iters, cfg.max_distance_iters);
        match pattern {
            Pattern::Direct { stride, fp, base } => {
                if !cfg.enable_direct {
                    fates.push((*pc, Err(Rejection::PatternDisabled)));
                    continue;
                }
                if !streams.insert((*base, *stride)) {
                    fates.push((*pc, Err(Rejection::DuplicateStream)));
                    continue;
                }
                if free_regs.is_empty() {
                    fates.push((*pc, Err(Rejection::RegistersExhausted)));
                    continue;
                }
                let rp = free_regs.remove(0);
                let mut dist = dist_iters as i64 * *stride;
                if !*fp && stride.unsigned_abs() < L1D_LINE {
                    // Align the distance to the L1D line (integer loads
                    // only — FP bypasses L1, §3.3).
                    let line = L1D_LINE as i64;
                    dist = (dist + dist.signum() * (line - 1)) / line * line;
                }
                entry.push(Insn::new(Op::AddI { d: rp, a: *base, imm: dist }));
                let ok = schedule_group(
                    &mut body,
                    &mut back_edge,
                    (0, 0),
                    None,
                    &[Insn::new(Op::Lfetch { base: rp, post_inc: *stride })],
                    &mut [],
                );
                debug_assert!(ok);
                stats.direct += 1;
                fates.push((*pc, Ok(dist_iters)));
            }
            Pattern::Indirect {
                index_base,
                index_stride,
                index_size,
                shift,
                add_reg,
                offset,
                ..
            } => {
                if !cfg.enable_indirect {
                    fates.push((*pc, Err(Rejection::PatternDisabled)));
                    continue;
                }
                let d2 = dist_iters as i64 * *index_stride;
                let d1 = 2 * d2;
                if free_regs.len() >= 4 {
                    let ri = free_regs.remove(0);
                    let rl1 = free_regs.remove(0);
                    let s1 = free_regs.remove(0);
                    let s2 = free_regs.remove(0);
                    entry.push(Insn::new(Op::AddI { d: ri, a: *index_base, imm: d2 }));
                    entry.push(Insn::new(Op::AddI { d: rl1, a: *index_base, imm: d1 }));
                    let mut chain = vec![
                        Insn::new(Op::Ld {
                            d: s1,
                            base: ri,
                            post_inc: *index_stride,
                            size: *index_size,
                            spec: true,
                        }),
                        Insn::new(Op::Shladd {
                            d: s2,
                            a: s1,
                            count: *shift,
                            b: add_reg.unwrap_or(Gr::ZERO),
                        }),
                    ];
                    if *offset != 0 {
                        chain.push(Insn::new(Op::AddI { d: s2, a: s2, imm: *offset }));
                    }
                    chain.push(Insn::new(Op::Lfetch { base: s2, post_inc: 0 }));
                    chain.push(Insn::new(Op::Lfetch { base: rl1, post_inc: *index_stride }));
                    let ok =
                        schedule_group(&mut body, &mut back_edge, (0, 0), None, &chain, &mut []);
                    debug_assert!(ok);
                    stats.indirect += 1;
                    fates.push((*pc, Ok(dist_iters)));
                } else if !free_regs.is_empty() {
                    // Fallback: cover the index stream only.
                    if !streams.insert((*index_base, *index_stride)) {
                        fates.push((*pc, Err(Rejection::DuplicateStream)));
                        continue;
                    }
                    let rl1 = free_regs.remove(0);
                    entry.push(Insn::new(Op::AddI { d: rl1, a: *index_base, imm: d1 }));
                    let ok = schedule_group(
                        &mut body,
                        &mut back_edge,
                        (0, 0),
                        None,
                        &[Insn::new(Op::Lfetch { base: rl1, post_inc: *index_stride })],
                        &mut [],
                    );
                    debug_assert!(ok);
                    stats.indirect += 1;
                    fates.push((*pc, Ok(dist_iters)));
                } else {
                    fates.push((*pc, Err(Rejection::RegistersExhausted)));
                }
            }
            Pattern::PointerChase { recurrent, update_pos } => {
                if !cfg.enable_pointer {
                    fates.push((*pc, Err(Rejection::PatternDisabled)));
                    continue;
                }
                if chased.contains(recurrent) {
                    fates.push((*pc, Err(Rejection::DuplicateStream)));
                    continue;
                }
                if free_regs.is_empty() {
                    fates.push((*pc, Err(Rejection::RegistersExhausted)));
                    continue;
                }
                let rs = free_regs.remove(0);
                chased.insert(*recurrent);
                let k = (64 - dist_iters.leading_zeros() as u8).clamp(1, 3);
                // Snapshot before the pointer update…
                let snap = [Insn::new(Op::Mov { d: rs, s: *recurrent })];
                let mut up = *update_pos;
                let ok1 = schedule_group(
                    &mut body,
                    &mut back_edge,
                    (0, 0),
                    Some(up),
                    &snap,
                    std::slice::from_mut(&mut up),
                );
                // …extrapolate and prefetch after it (Fig. 6 C).
                let chain = [
                    Insn::new(Op::Sub { d: rs, a: *recurrent, b: rs }),
                    Insn::new(Op::Shladd { d: rs, a: rs, count: k, b: *recurrent }),
                    Insn::new(Op::Lfetch { base: rs, post_inc: 0 }),
                ];
                let after = (up.0, up.1 + 1);
                let ok2 = schedule_group(&mut body, &mut back_edge, after, None, &chain, &mut []);
                debug_assert!(ok1 && ok2);
                stats.pointer += 1;
                fates.push((*pc, Ok(dist_iters)));
            }
            Pattern::JumpPointer { recurrent, update_pos, jump_offset, payload_offset, .. } => {
                if !cfg.enable_jump {
                    fates.push((*pc, Err(Rejection::JumpPointerDisabled)));
                    continue;
                }
                if !jumped.insert((*recurrent, *jump_offset)) {
                    fates.push((*pc, Err(Rejection::DuplicateStream)));
                    continue;
                }
                if free_regs.len() < 2 {
                    fates.push((*pc, Err(Rejection::RegistersExhausted)));
                    continue;
                }
                let rs = free_regs.remove(0);
                let rj = free_regs.remove(0);
                let k = (64 - dist_iters.leading_zeros() as u8).clamp(1, 3);
                // Induction-pointer extrapolation of the recurrent
                // pointer, exactly as the chase scheme…
                let snap = [Insn::new(Op::Mov { d: rs, s: *recurrent })];
                let mut up = *update_pos;
                let ok1 = schedule_group(
                    &mut body,
                    &mut back_edge,
                    (0, 0),
                    Some(up),
                    &snap,
                    std::slice::from_mut(&mut up),
                );
                // …then speculatively dereference the extrapolated
                // node's jump field and prefetch the payload it names
                // (the ld.s can never fault, so a bad extrapolation
                // costs only a useless prefetch).
                let mut chain = vec![
                    Insn::new(Op::Sub { d: rs, a: *recurrent, b: rs }),
                    Insn::new(Op::Shladd { d: rs, a: rs, count: k, b: *recurrent }),
                ];
                if *jump_offset != 0 {
                    chain.push(Insn::new(Op::AddI { d: rs, a: rs, imm: *jump_offset }));
                }
                chain.push(Insn::new(Op::Ld {
                    d: rj,
                    base: rs,
                    post_inc: 0,
                    size: AccessSize::U8,
                    spec: true,
                }));
                if *payload_offset != 0 {
                    chain.push(Insn::new(Op::AddI { d: rj, a: rj, imm: *payload_offset }));
                }
                chain.push(Insn::new(Op::Lfetch { base: rj, post_inc: 0 }));
                let after = (up.0, up.1 + 1);
                let ok2 = schedule_group(&mut body, &mut back_edge, after, None, &chain, &mut []);
                debug_assert!(ok1 && ok2);
                stats.jump += 1;
                fates.push((*pc, Ok(dist_iters)));
            }
        }
    }

    if stats.total() == 0 {
        return ScheduleOutcome { candidate: None, fates };
    }

    let entry_bundles = pack_sequence(&entry);
    ScheduleOutcome {
        candidate: Some(OptimizedTrace {
            entry: entry_bundles,
            body,
            back_edge,
            start: trace.start,
            fall_through_exit: trace.fall_through_exit,
            stats,
        }),
        fates,
    }
}

/// Generates prefetch code for the top delinquent loads of one loop
/// trace. Returns the optimized trace (if at least one stream was
/// inserted) plus per-load rejections: classification rejections first
/// (in load order), then scheduling rejections (in stream order).
///
/// This is a convenience wrapper over the two pipeline halves,
/// `classify_loads` and `schedule_streams`; the pass pipeline calls
/// the halves separately so pattern analysis and prefetch scheduling
/// can be ablated and measured independently.
pub fn optimize_trace(
    trace: &Trace,
    loads: &[DelinquentLoad],
    cfg: &PrefetchConfig,
) -> (Option<OptimizedTrace>, Vec<(Pc, Rejection)>) {
    let (work, mut skips) = classify_loads(trace, loads);
    let out = schedule_streams(trace, &work, cfg);
    skips.extend(out.fates.into_iter().filter_map(|(pc, fate)| Some((pc, fate.err()?))));
    (out.candidate, skips)
}

/// Packs a straight-line instruction sequence into bundles.
pub(crate) fn pack_sequence(insns: &[Insn]) -> Vec<Bundle> {
    let mut out = Vec::new();
    let mut pending: Vec<Insn> = Vec::new();
    for insn in insns {
        let mut candidate = pending.clone();
        candidate.push(*insn);
        if Bundle::pack(&candidate).is_some() {
            pending = candidate;
        } else {
            if let Some(b) = Bundle::pack(&pending) {
                out.push(b);
            }
            pending = vec![*insn];
        }
    }
    if let Some(b) = Bundle::pack(&pending) {
        out.push(b);
    }
    out
}

/// Schedules an ordered instruction group into `body`.
///
/// The group must execute at positions strictly inside the window
/// `(after, before)` where `before = None` means "before the back
/// edge". Free slots of matching kinds are used first; if the whole
/// group does not fit, placed slots are rolled back and the group is
/// inserted as fresh bundles at the window end (new bundles shift the
/// back edge and any positions in `tracked`). Returns `false` only if
/// the window itself is empty (cannot happen for well-formed loops).
pub(crate) fn schedule_group(
    body: &mut Vec<Bundle>,
    back_edge: &mut (usize, u8),
    after: (usize, u8),
    before: Option<(usize, u8)>,
    insns: &[Insn],
    tracked: &mut [(usize, u8)],
) -> bool {
    let limit = before.unwrap_or(*back_edge);
    // Phase A: free-slot placement.
    let mut placements: Vec<((usize, u8), Insn)> = Vec::new();
    let mut cursor = after;
    let mut ok = true;
    for insn in insns {
        match find_free_slot(body, cursor, limit, insn.op.slot_kind()) {
            Some(pos) => {
                placements.push((pos, body[pos.0].slots[pos.1 as usize]));
                body[pos.0].slots[pos.1 as usize] = *insn;
                cursor = pos;
            }
            None => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        return true;
    }
    // Roll back and insert fresh bundles at the window end.
    for (pos, old) in placements.into_iter().rev() {
        body[pos.0].slots[pos.1 as usize] = old;
    }
    let at = limit.0.max(after.0 + usize::from(after != (0, 0)));
    let bundles = pack_sequence(insns);
    let n = bundles.len();
    for (i, b) in bundles.into_iter().enumerate() {
        body.insert(at + i, b);
    }
    if at <= back_edge.0 {
        back_edge.0 += n;
    }
    for t in tracked.iter_mut() {
        if at <= t.0 {
            t.0 += n;
        }
    }
    true
}

/// Finds the first free slot of `kind` at a position strictly greater
/// than `after` and strictly less than `before`.
fn find_free_slot(
    body: &[Bundle],
    after: (usize, u8),
    before: (usize, u8),
    kind: SlotKind,
) -> Option<(usize, u8)> {
    for bi in after.0..body.len() {
        let kinds = body[bi].template.kinds();
        for si in 0..3u8 {
            let pos = (bi, si);
            if pos <= after || pos >= before {
                continue;
            }
            if kinds[si as usize] == kind && body[bi].slots[si as usize].is_nop() {
                return Some(pos);
            }
        }
        if bi >= before.0 {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Asm, CmpOp, Pr, CODE_BASE};

    /// Builds a loop trace the way the selector would, from a simple
    /// assembled loop.
    fn loop_trace(build: impl FnOnce(&mut Asm)) -> Trace {
        let mut a = Asm::new();
        a.label("loop");
        build(&mut a);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        let p = a.finish(CODE_BASE).unwrap();
        let bundles: Vec<Bundle> = p.bundles().to_vec();
        let n = bundles.len();
        // Find the back edge (the br.cond).
        let mut back_edge = None;
        for (bi, b) in bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::BrCond { .. }) {
                    back_edge = Some((bi, si as u8));
                }
            }
        }
        Trace {
            start: Addr(CODE_BASE),
            bundles,
            origins: (0..n).map(|i| Addr(CODE_BASE + 16 * i as u64)).collect(),
            is_loop: true,
            back_edge,
            fall_through_exit: Addr(CODE_BASE + 16 * n as u64),
        }
    }

    fn delinq_at(trace: &Trace, n: usize, avg_latency: f64) -> DelinquentLoad {
        let mut count = 0;
        for (bi, b) in trace.bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::Ld { .. } | Op::Ldf { .. }) {
                    if count == n {
                        return DelinquentLoad {
                            pc: Pc::new(trace.origins[bi], si as u8),
                            trace_index: 0,
                            position: (bi, si as u8),
                            count: 10,
                            total_latency: (avg_latency * 10.0) as u64,
                            avg_latency,
                            share: 0.9,
                            last_miss_addr: 0x1000_0000,
                        };
                    }
                    count += 1;
                }
            }
        }
        panic!("load {n} not found");
    }

    fn count_op(bundles: &[Bundle], pred: impl Fn(&Op) -> bool) -> usize {
        bundles.iter().flat_map(|b| b.slots.iter()).filter(|i| pred(&i.op)).count()
    }

    #[test]
    fn direct_prefetch_is_single_merged_lfetch() {
        let t = loop_trace(|a| {
            a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 0, 160.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.expect("prefetch inserted");
        assert!(skips.is_empty());
        assert_eq!(opt.stats, InsertionStats { direct: 1, indirect: 0, pointer: 0, jump: 0 });
        // Exactly one lfetch, with the stride folded into a
        // post-increment (prefetch-code optimization, §3.4).
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Lfetch { .. })), 1);
        let has_merged = opt
            .body
            .iter()
            .flat_map(|b| b.slots.iter())
            .any(|i| matches!(i.op, Op::Lfetch { base, post_inc: 64 } if base.is_reserved()));
        assert!(has_merged, "lfetch should advance by the stride");
        // Entry initializes the prefetch pointer from the live base.
        assert_eq!(count_op(&opt.entry, |o| matches!(o, Op::AddI { a: Gr(14), .. })), 1);
    }

    #[test]
    fn small_int_strides_align_distance_to_line() {
        let t = loop_trace(|a| {
            a.ld(AccessSize::U4, Gr(20), Gr(14), 4);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 0, 160.0)];
        let (opt, _) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.unwrap();
        let imm = opt
            .entry
            .iter()
            .flat_map(|b| b.slots.iter())
            .find_map(|i| match i.op {
                Op::AddI { imm, .. } => Some(imm),
                _ => None,
            })
            .unwrap();
        assert_eq!(imm % 64, 0, "distance must be L1D-line aligned: {imm}");
        assert!(imm > 0);
    }

    #[test]
    fn duplicate_streams_are_merged() {
        // Two loads off the same base/stride: one prefetch suffices.
        let t = loop_trace(|a| {
            a.ld(AccessSize::U8, Gr(20), Gr(14), 0);
            a.ld(AccessSize::U8, Gr(22), Gr(14), 64);
            a.add(Gr(21), Gr(20), Gr(21));
            a.add(Gr(21), Gr(22), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 1, 160.0), delinq_at(&t, 0, 150.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.unwrap();
        assert_eq!(opt.stats.direct, 1);
        assert!(skips.iter().any(|(_, r)| *r == Rejection::DuplicateStream));
    }

    #[test]
    fn indirect_prefetch_emits_speculative_chain() {
        let t = loop_trace(|a| {
            a.ld(AccessSize::U4, Gr(20), Gr(16), 4);
            a.shladd(Gr(15), Gr(20), 3, Gr(25));
            a.ld(AccessSize::U8, Gr(21), Gr(15), 0);
            a.add(Gr(22), Gr(21), Gr(22));
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 1, 160.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.expect("indirect prefetch inserted");
        assert!(skips.is_empty());
        assert_eq!(opt.stats.indirect, 1);
        // Speculative index load + two lfetches (both levels).
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Ld { spec: true, .. })), 1);
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Lfetch { .. })), 2);
        // The level-1 lfetch sits further ahead than the ld.s copy.
        let imms: Vec<i64> = opt
            .entry
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter_map(|i| match i.op {
                Op::AddI { imm, .. } => Some(imm),
                _ => None,
            })
            .collect();
        assert_eq!(imms.len(), 2);
        assert!(imms[1] > imms[0]);
    }

    #[test]
    fn pointer_chase_emits_induction_pointer_code() {
        let t = loop_trace(|a| {
            a.addi(Gr(11), Gr(34), 104);
            a.ld(AccessSize::U8, Gr(11), Gr(11), 0);
            a.ld(AccessSize::U8, Gr(34), Gr(11), 0);
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 1, 200.0)];
        let (opt, _) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.expect("chase prefetch inserted");
        assert_eq!(opt.stats.pointer, 1);
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Sub { .. })), 1);
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Lfetch { .. })), 1);
        assert!(count_op(&opt.body, |o| matches!(o, Op::Mov { .. })) >= 1);
        // The snapshot precedes the update; the chain follows it.
        let mov_pos = find_pos(&opt.body, |o| matches!(o, Op::Mov { .. }));
        let sub_pos = find_pos(&opt.body, |o| matches!(o, Op::Sub { .. }));
        assert!(mov_pos < sub_pos);
    }

    /// A loop body with the jump-pointer shape:
    /// `v = [[p + 8] + 16]` while `p = [p]` advances the chase.
    fn jump_loop() -> Trace {
        loop_trace(|a| {
            a.addi(Gr(42), Gr(41), 8);
            a.ld(AccessSize::U8, Gr(43), Gr(42), 0);
            a.addi(Gr(44), Gr(43), 16);
            a.ld(AccessSize::U8, Gr(45), Gr(44), 0);
            a.add(Gr(46), Gr(45), Gr(46));
            a.ld(AccessSize::U8, Gr(41), Gr(41), 0);
            a.addi(Gr(9), Gr(9), -1);
        })
    }

    #[test]
    fn jump_pointer_emits_speculative_jump_chain() {
        let t = jump_loop();
        let loads = vec![delinq_at(&t, 1, 200.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.expect("jump prefetch inserted");
        assert!(skips.is_empty());
        assert_eq!(opt.stats, InsertionStats { direct: 0, indirect: 0, pointer: 0, jump: 1 });
        // Speculative dereference of the extrapolated node's jump field
        // plus exactly one payload lfetch.
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Ld { spec: true, .. })), 1);
        assert_eq!(count_op(&opt.body, |o| matches!(o, Op::Lfetch { .. })), 1);
        // The pointer snapshot precedes the extrapolation arithmetic.
        let mov_pos = find_pos(&opt.body, |o| matches!(o, Op::Mov { .. }));
        let sub_pos = find_pos(&opt.body, |o| matches!(o, Op::Sub { .. }));
        assert!(mov_pos < sub_pos);
    }

    #[test]
    fn disabled_jump_prefetch_is_a_labeled_rejection() {
        let t = jump_loop();
        let loads = vec![delinq_at(&t, 1, 200.0)];
        let cfg = PrefetchConfig { enable_jump: false, ..PrefetchConfig::default() };
        let (opt, skips) = optimize_trace(&t, &loads, &cfg);
        assert!(opt.is_none());
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].1, Rejection::JumpPointerDisabled);
    }

    #[test]
    fn duplicate_jump_streams_are_merged() {
        // Two payload loads through the same jump field: one stream.
        let t = loop_trace(|a| {
            a.addi(Gr(42), Gr(41), 8);
            a.ld(AccessSize::U8, Gr(43), Gr(42), 0);
            a.ld(AccessSize::U8, Gr(45), Gr(43), 0);
            a.addi(Gr(44), Gr(43), 16);
            a.ld(AccessSize::U8, Gr(46), Gr(44), 0);
            a.add(Gr(47), Gr(45), Gr(46));
            a.ld(AccessSize::U8, Gr(41), Gr(41), 0);
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 1, 200.0), delinq_at(&t, 2, 180.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.unwrap();
        assert_eq!(opt.stats.jump, 1);
        assert!(skips.iter().any(|(_, r)| *r == Rejection::DuplicateStream));
    }

    fn find_pos(bundles: &[Bundle], pred: impl Fn(&Op) -> bool) -> (usize, usize) {
        for (bi, b) in bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if pred(&s.op) {
                    return (bi, si);
                }
            }
        }
        panic!("op not found");
    }

    #[test]
    fn unanalyzable_loads_are_reported() {
        let t = loop_trace(|a| {
            a.emit(Op::Setf { d: isa::Fr(8), s: Gr(20) });
            a.emit(Op::Getf { d: Gr(21), s: isa::Fr(8) });
            a.shladd(Gr(22), Gr(21), 3, Gr(25));
            a.ld(AccessSize::U8, Gr(23), Gr(22), 0);
            a.addi(Gr(20), Gr(20), 1);
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 0, 160.0)];
        let (opt, skips) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        assert!(opt.is_none());
        assert_eq!(skips.len(), 1);
        assert!(matches!(skips[0].1, Rejection::UnanalyzableSlice));
    }

    #[test]
    fn non_loop_trace_is_not_optimized() {
        let mut t = loop_trace(|a| {
            a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
            a.addi(Gr(9), Gr(9), -1);
        });
        t.is_loop = false;
        t.back_edge = None;
        let loads = vec![delinq_at(&t, 0, 160.0)];
        let (opt, _) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        assert!(opt.is_none());
    }

    #[test]
    fn reoptimization_uses_only_remaining_reserved_registers() {
        // A trace that already contains prefetch code on r27 (a previous
        // pass): the new pass must not reuse r27.
        let t = loop_trace(|a| {
            a.lfetch(Gr(27), 64); // existing stream from pass one
            a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
            a.add(Gr(21), Gr(20), Gr(21));
            a.ld(AccessSize::U8, Gr(22), Gr(15), 128);
            a.add(Gr(21), Gr(22), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 0, 160.0), delinq_at(&t, 1, 150.0)];
        let (opt, _) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.unwrap();
        // New entry code must not initialize r27 again.
        for b in &opt.entry {
            for s in &b.slots {
                if let Op::AddI { d, .. } = s.op {
                    assert_ne!(d, Gr(27), "r27 is already owned by pass one");
                }
            }
        }
        assert_eq!(opt.stats.direct, 2);
    }

    #[test]
    fn back_edge_tracks_inserted_bundles() {
        // A dense body with no free slots forces bundle insertion; the
        // back edge must still be correct.
        let t = loop_trace(|a| {
            for i in 0..6 {
                a.ld(AccessSize::U8, Gr(40 + i), Gr(14), 8);
                a.add(Gr(21), Gr(40 + i), Gr(21));
            }
            a.addi(Gr(9), Gr(9), -1);
        });
        let loads = vec![delinq_at(&t, 0, 160.0)];
        let (opt, _) = optimize_trace(&t, &loads, &PrefetchConfig::default());
        let opt = opt.unwrap();
        let (bi, si) = opt.back_edge;
        assert!(matches!(opt.body[bi].slots[si as usize].op, Op::BrCond { .. }));
    }
}
