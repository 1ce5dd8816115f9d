//! The threaded-code compile tier behind [`ExecPath::Threaded`].
//!
//! The fast path removes per-step decode costs; this tier removes the
//! *dispatch* itself for hot code. Cold code is stepped on the fast
//! path while per-bundle entry counts accumulate; once a bundle has been
//! entered [`HOT_THRESHOLD`] times it becomes the head of a **compiled
//! region**: a contiguous run of bundles translated into chains of
//! closures (`OpFn`) executed with direct-threaded dispatch — no
//! fetch, no scoreboard walk, no per-slot decode.
//!
//! A closure does not define what its instruction does. It checks the
//! qualifying predicate and calls `Machine::exec_slot_op` (the one
//! definition of instruction semantics, shared by every tier) on the op
//! rebuilt from the fields it captured, so that the inlined call folds
//! to that one variant's body. Taken branches leave the closure as a
//! target address; the region executor maps a target inside the region
//! to a bundle index, so loop backedges stay in compiled code.
//!
//! # The tier contract
//!
//! **Architectural state is exact; timing is not modeled.** Compiled
//! bundles charge a flat cycle each (no stall-on-use, no icache, no
//! taken-branch bubble), so cycle counts and stall breakdowns are
//! meaningless on this tier — [`ExecPath::is_cycle_exact`] is the flag
//! harnesses must check. Retired-instruction counts *are* exact: the
//! region executor reproduces the interpreters' slot-accounting rules,
//! so `retired` agrees with the cycle-exact tiers bundle for bundle.
//!
//! Closures run `exec_slot_op` untimed (every write is ready at once),
//! in one of two modes chosen by whether the machine samples, which is
//! its `MEM` parameter:
//!
//! - **lean** (`MEM = false`, no sampling configured): pure
//!   architectural semantics. Loads and stores skip the cache hierarchy,
//!   TLB, and PMU entirely; this is the mode the throughput benchmark
//!   measures.
//! - **profile** (`MEM = true`, sampling configured, i.e. the machine
//!   runs under ADORE): memory ops still drive the caches, DTLB, and PMU
//!   event capture (DEAR, BTB, miss counters), and branches record
//!   outcomes, so sampling keeps observing real events and the optimizer
//!   keeps finding delinquent loads while hot code runs compiled.
//!
//! # Deopt at patch boundaries
//!
//! Every compiled region is stamped with the [`CodeStore`] generation
//! it was translated from. ADORE's patcher mutates code exclusively
//! through store-coherent operations (`install_trace`,
//! `replace_bundle`), each of which bumps the store generation — so on
//! region entry a single integer compare detects *any* intervening
//! patch. A stale region is discarded (a **deopt**, counted in
//! [`JitStats::deopts`]) and execution falls back to the fast
//! interpreter until the rewritten code re-warms. Patches can only
//! happen between `run` calls (they take `&mut Machine`), so a region
//! can never be invalidated mid-execution.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use isa::{Addr, Insn, Op, Pc};

use crate::code::CodeStore;
use crate::machine::{ExecPath, Flow, Machine};

/// Fast-path entries of a bundle address before it is compiled as a
/// region head. Low enough that loops compile early, high enough that
/// straight-line startup code never pays a translation.
pub const HOT_THRESHOLD: u32 = 32;

/// Upper bound on bundles translated into one region.
pub const REGION_MAX_BUNDLES: usize = 512;

/// Per-machine statistics of the threaded tier, exposed through
/// [`Machine::jit_stats`](crate::Machine::jit_stats). Tests and the
/// differential oracle use these to observe that compilation and
/// patch-boundary deopts actually happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Regions translated to closure chains.
    pub regions_compiled: u64,
    /// Total bundles across all translated regions.
    pub compiled_bundles: u64,
    /// Stale regions discarded because the code-store generation moved
    /// (a live patch landed since translation).
    pub deopts: u64,
    /// Times execution entered a compiled region.
    pub region_entries: u64,
}

/// Threaded-tier state carried by a machine configured with
/// [`ExecPath::Threaded`] (and only then — the other tiers carry
/// `None` and pay nothing).
///
/// Cloning is cheap and exact: compiled regions are immutable once
/// built and shared through `Arc`, so a forked machine reuses them.
#[derive(Clone)]
pub struct JitState {
    /// Compiled regions keyed by head bundle address.
    regions: HashMap<u64, Arc<CompiledRegion>>,
    /// Fast-path entry counts per bundle address (hotness).
    counts: HashMap<u64, u32>,
    pub(crate) stats: JitStats,
}

impl fmt::Debug for JitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitState")
            .field("regions", &self.regions.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Closures cannot be compared, so two regions are equal when they
/// were translated at the same head and code-store generation and
/// cover the same bundle addresses. That is exact for every region a
/// machine can still enter: a region is only entered while its
/// generation is current, and it was translated from the store as it
/// stands at that generation, which machine equality compares.
impl PartialEq for JitState {
    fn eq(&self, other: &JitState) -> bool {
        let JitState { regions, counts, stats } = self;
        *stats == other.stats
            && *counts == other.counts
            && regions.len() == other.regions.len()
            && regions.iter().all(|(head, r)| {
                other.regions.get(head).is_some_and(|o| {
                    r.start == o.start
                        && r.generation == o.generation
                        && r.bundles.len() == o.bundles.len()
                        && r.bundles.iter().zip(&o.bundles).all(|(a, b)| a.addr == b.addr)
                })
            })
    }
}

impl JitState {
    /// The jit state a machine on `path` starts with: `Some` state for
    /// the threaded tier, `None` (no memory, no per-step cost) for the
    /// cycle-exact tiers.
    pub(crate) fn for_path(path: ExecPath) -> Option<Box<JitState>> {
        (path == ExecPath::Threaded).then(|| {
            Box::new(JitState {
                regions: HashMap::new(),
                counts: HashMap::new(),
                stats: JitStats::default(),
            })
        })
    }
}

/// One translated instruction: a thin closure over
/// `Machine::exec_slot_op`.
type OpFn = Box<dyn Fn(&mut Machine) -> Flow + Send + Sync>;

/// A translated (non-nop) slot. `slot` preserves the source position
/// for exact retired-count accounting.
struct CompiledOp {
    slot: u8,
    f: OpFn,
}

/// One translated bundle: its source address plus its op chain (nops
/// compile to nothing).
struct CompiledBundle {
    addr: Addr,
    ops: Vec<CompiledOp>,
}

/// A contiguous run of bundles compiled to closure chains, valid for
/// exactly one code-store generation.
struct CompiledRegion {
    start: Addr,
    generation: u64,
    bundles: Vec<CompiledBundle>,
}

impl Machine {
    /// The threaded tier's step ([`crate::tier::Threaded`] dispatches
    /// here): enter a valid compiled region at `ip` if one exists,
    /// deopt it if a patch made it stale, compile one if `ip` just
    /// crossed the hotness threshold, and otherwise interpret one
    /// bundle on the fast path (full timing/PMU, so sampling and ADORE
    /// patching keep working while code warms up).
    ///
    /// `SAMPLING` is set exactly when sampling is configured, so it
    /// also selects the compile mode (profile or lean).
    pub(crate) fn jit_step<const SAMPLING: bool>(&mut self, cycle_limit: u64) {
        let ip = self.ip.bundle_align();
        let generation = self.store.generation();
        let mut jit = self.jit.take().expect("threaded tier requires jit state");

        let mut region: Option<Arc<CompiledRegion>> = None;
        match jit.regions.get(&ip.0) {
            Some(r) if r.generation == generation => {
                jit.stats.region_entries += 1;
                region = Some(Arc::clone(r));
            }
            Some(_) => {
                // Patch boundary: the store generation moved since this
                // region was translated. Discard and re-warm.
                jit.regions.remove(&ip.0);
                jit.stats.deopts += 1;
            }
            None => {}
        }

        if region.is_none() {
            let count = jit.counts.entry(ip.0).or_insert(0);
            *count += 1;
            if *count >= HOT_THRESHOLD {
                *count = 0;
                if let Some(r) = compile_region::<SAMPLING>(&self.store, ip, generation) {
                    jit.stats.regions_compiled += 1;
                    jit.stats.compiled_bundles += r.bundles.len() as u64;
                    jit.stats.region_entries += 1;
                    let r = Arc::new(r);
                    jit.regions.insert(ip.0, Arc::clone(&r));
                    region = Some(r);
                }
            }
        }

        self.jit = Some(jit);
        match region {
            Some(r) => self.run_region::<SAMPLING>(&r, cycle_limit),
            // Exactly one bundle on the fast path: the cycle never runs
            // backwards, so a limit equal to the current cycle is reached
            // after the first bundle, and the next step returns to the
            // region lookup.
            None => self.run_fast::<SAMPLING>(self.cycle),
        }
    }

    /// Executes a compiled region until it exits (fall-through past the
    /// end, branch to an external target, halt, fault), the cycle limit
    /// is reached, or — under sampling — the sample buffer fills.
    /// Always leaves `ip` pointing at the next bundle to execute, so a
    /// stopped machine resumes exactly where it left off on any tier.
    ///
    /// Retired accounting reproduces the interpreters' rule: every slot
    /// up to and including the exiting one counts (nops and
    /// predicated-off slots included), a fully fallen-through bundle
    /// counts all three. Timing is a flat cycle per bundle.
    fn run_region<const SAMPLING: bool>(&mut self, region: &CompiledRegion, cycle_limit: u64) {
        let len = region.bundles.len();
        let mut idx = 0usize;
        loop {
            let Some(cb) = region.bundles.get(idx) else {
                // Fell through the end of the region.
                self.ip = region.start.offset_bundles(len as i64);
                break;
            };
            if self.cycle >= cycle_limit {
                self.ip = cb.addr;
                break;
            }

            let mut flow = Flow::Next;
            let mut retired = 3;
            for op in &cb.ops {
                flow = (op.f)(self);
                if flow != Flow::Next {
                    retired = u64::from(op.slot) + 1;
                    break;
                }
            }
            self.pmu.counters.retired += retired;

            let next = match flow {
                Flow::Next => Some(idx + 1),
                Flow::Taken(target) => {
                    let target = target.bundle_align();
                    let off = target.0.wrapping_sub(region.start.0) / Addr::BUNDLE_BYTES;
                    if target.0 >= region.start.0 && (off as usize) < len {
                        Some(off as usize)
                    } else {
                        self.ip = target;
                        None
                    }
                }
                Flow::Stop if self.fault.is_some() => {
                    // Freeze at the faulting bundle, like the
                    // interpreters: no ip advance, no cycle charge, no
                    // sample.
                    self.ip = cb.addr;
                    break;
                }
                Flow::Stop => {
                    // Halted.
                    self.ip = cb.addr.offset_bundles(1);
                    None
                }
            };

            self.cycle += 1;
            self.half_bundle = false;
            if SAMPLING {
                self.take_sample(Pc::new(cb.addr, 0));
            }

            match next {
                Some(i) => {
                    idx = i;
                    if SAMPLING && self.sample_buffer_full() {
                        // Let the drive loop report the overflow; resume
                        // at the next bundle (which may be the region's
                        // fall-through when `i == len`).
                        self.ip = region.start.offset_bundles(idx as i64);
                        break;
                    }
                }
                None => break,
            }
        }
        self.pmu.counters.cycles = self.cycle;
    }
}

/// Translates the contiguous bundle run starting at `start` (bounded by
/// [`REGION_MAX_BUNDLES`], the end of the code segment, or the first
/// unconditional control transfer) into a compiled region stamped with
/// `generation`, in profile mode when `MEM`. Returns `None` when `start`
/// maps to no bundle — the cold path then raises the fetch fault.
fn compile_region<const MEM: bool>(
    store: &CodeStore,
    start: Addr,
    generation: u64,
) -> Option<CompiledRegion> {
    let start = start.bundle_align();
    store.locate(start)?;

    let mut bundles = Vec::new();
    for i in 0..REGION_MAX_BUNDLES {
        let addr = start.offset_bundles(i as i64);
        let Some(loc) = store.locate(addr) else {
            break;
        };
        let db = store.decoded(loc);
        let fall_through = addr.offset_bundles(1);
        let mut ops = Vec::new();
        let mut region_ends = false;
        for &slot in db.live() {
            let insn = db.slots[slot as usize].insn;
            if insn.qp.is_none() && matches!(insn.op, Op::Br { .. } | Op::BrRet | Op::Halt) {
                // Execution can never fall past an unconditional
                // transfer, so the region need not extend further.
                region_ends = true;
            }
            if let Some(f) = compile_op::<MEM>(insn, Pc::new(addr, slot), fall_through) {
                ops.push(CompiledOp { slot, f });
            }
        }
        bundles.push(CompiledBundle { addr, ops });
        if region_ends {
            break;
        }
    }
    Some(CompiledRegion { start, generation, bundles })
}

/// Translates one instruction into a closure that checks its qualifying
/// predicate and then runs `Machine::exec_slot_op::<false, MEM>` on the
/// op rebuilt from the captured fields. In profile mode (`MEM`), an off
/// `br.cond` also records its fall-through outcome, in slot order (the
/// interpreters record it at the end of the bundle). Returns `None` for
/// slots with no effect on this tier: nops, `alloc`, and a lean-mode
/// `lfetch` without post-increment.
fn compile_op<const MEM: bool>(insn: Insn, pc: Pc, fall_through: Addr) -> Option<OpFn> {
    // An unpredicated slot reads `p0`, which is hardwired true.
    let qp = insn.qp.map_or(0, |q| q.index());
    let record_off = MEM && matches!(insn.op, Op::BrCond { .. });
    macro_rules! thin {
        ($($op:tt)+) => {
            Box::new(move |m: &mut Machine| {
                if !m.pr[qp] {
                    if record_off {
                        m.pmu.record_branch(pc, fall_through, false);
                    }
                    return Flow::Next;
                }
                m.exec_slot_op::<false, MEM>(Op::$($op)+, pc, fall_through)
            })
        };
    }
    let f: OpFn = match insn.op {
        Op::Nop(_) | Op::Alloc => return None,
        Op::Lfetch { post_inc: 0, .. } if !MEM => return None,
        Op::Add { d, a, b } => thin!(Add { d, a, b }),
        Op::AddI { d, a, imm } => thin!(AddI { d, a, imm }),
        Op::Sub { d, a, b } => thin!(Sub { d, a, b }),
        Op::Shladd { d, a, count, b } => thin!(Shladd { d, a, count, b }),
        Op::And { d, a, b } => thin!(And { d, a, b }),
        Op::Or { d, a, b } => thin!(Or { d, a, b }),
        Op::Xor { d, a, b } => thin!(Xor { d, a, b }),
        Op::MovL { d, imm } => thin!(MovL { d, imm }),
        Op::Mov { d, s } => thin!(Mov { d, s }),
        Op::Cmp { op, pt, pf, a, b } => thin!(Cmp { op, pt, pf, a, b }),
        Op::CmpI { op, pt, pf, a, imm } => thin!(CmpI { op, pt, pf, a, imm }),
        Op::Ld { d, base, post_inc, size, spec } => thin!(Ld { d, base, post_inc, size, spec }),
        Op::St { s, base, post_inc, size } => thin!(St { s, base, post_inc, size }),
        Op::Ldf { d, base, post_inc } => thin!(Ldf { d, base, post_inc }),
        Op::Stf { s, base, post_inc } => thin!(Stf { s, base, post_inc }),
        Op::Lfetch { base, post_inc } => thin!(Lfetch { base, post_inc }),
        Op::Fma { d, a, b, c } => thin!(Fma { d, a, b, c }),
        Op::Fadd { d, a, b } => thin!(Fadd { d, a, b }),
        Op::Fmul { d, a, b } => thin!(Fmul { d, a, b }),
        Op::Getf { d, s } => thin!(Getf { d, s }),
        Op::Setf { d, s } => thin!(Setf { d, s }),
        Op::Br { target } => thin!(Br { target }),
        Op::BrCond { target } => thin!(BrCond { target }),
        Op::BrCall { target } => thin!(BrCall { target }),
        Op::BrRet => thin!(BrRet),
        Op::Halt => thin!(Halt),
    };
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Fault, MachineConfig, SamplingConfig, StopReason};
    use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};

    fn sum_loop_program(iters: i64) -> isa::Program {
        let mut a = Asm::new();
        a.movl(Gr(10), 0x1000_0000);
        a.movl(Gr(11), 0);
        a.movl(Gr(12), 0);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(13), Gr(10), 8);
        a.add(Gr(12), Gr(12), Gr(13));
        a.addi(Gr(11), Gr(11), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), iters);
        a.br_cond(Pr(1), "loop");
        a.halt();
        a.finish(CODE_BASE).unwrap()
    }

    /// Machine running the sum loop with `mapped` elements backing it;
    /// faults mid-loop when `mapped < iters`.
    fn sum_loop_machine(path: ExecPath, iters: i64, mapped: i64) -> Machine {
        let mut cfg = MachineConfig::default();
        cfg.exec_path = path;
        let mut m = Machine::new(sum_loop_program(iters), cfg);
        m.mem_mut().alloc(mapped as u64 * 8, 8);
        for i in 0..mapped {
            m.mem_mut().write(0x1000_0000 + i as u64 * 8, 8, (i * 3) as u64);
        }
        m
    }

    #[test]
    fn threaded_matches_fast_architecturally() {
        let mut fast = sum_loop_machine(ExecPath::Fast, 4000, 4004);
        let mut thr = sum_loop_machine(ExecPath::Threaded, 4000, 4004);
        assert_eq!(fast.run(u64::MAX), StopReason::Halted);
        assert_eq!(thr.run(u64::MAX), StopReason::Halted);
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.gr(Gr(12)), thr.gr(Gr(12)));
        assert_eq!(fast.gr(Gr(13)), thr.gr(Gr(13)));
        assert_eq!(fast.retired(), thr.retired(), "retired counting is exact");

        let stats = thr.jit_stats().expect("threaded machines expose stats");
        assert!(stats.regions_compiled >= 1, "hot loop must compile");
        assert!(stats.region_entries >= 1);
        assert!(stats.compiled_bundles >= 1);
        assert_eq!(stats.deopts, 0, "nothing patched, nothing deopts");
        assert_eq!(fast.jit_stats(), None, "cycle-exact tiers carry no jit");
    }

    #[test]
    fn lean_compiled_loads_bypass_the_memory_model() {
        // Lean mode runs `exec_slot_op` without its memory model: loads
        // inside compiled regions never reach the PMU, so only the
        // bundles stepped on the fast path while the loop warmed up
        // count.
        let mut fast = sum_loop_machine(ExecPath::Fast, 4000, 4004);
        let mut thr = sum_loop_machine(ExecPath::Threaded, 4000, 4004);
        fast.run(u64::MAX);
        thr.run(u64::MAX);
        assert_eq!(fast.pmu().counters.loads, 4000);
        assert!(
            thr.pmu().counters.loads < fast.pmu().counters.loads,
            "compiled loads reached the PMU: {} of {}",
            thr.pmu().counters.loads,
            fast.pmu().counters.loads
        );
        assert!(thr.jit_stats().unwrap().regions_compiled >= 1);
    }

    /// A hot loop holding every `Op` variant: predicated on and off
    /// instances (on alternate iterations), a speculative load from an
    /// unmapped address, post-incrementing memory ops and `lfetch`, the
    /// FP ops and transfers, a call and return, an unconditional branch
    /// and a halt. `alloc` and the nops come along in the bundles.
    fn every_op_program(iters: i64, data: u64) -> isa::Program {
        use isa::Fr;
        let (ints, out, fps, fout) = (data, data + 0x800, data + 0x1000, data + 0x1800);
        let pred = |q: u8, op: Op| Insn::predicated(Pr(q), op);
        let mut a = Asm::new();
        a.movl(Gr(10), ints as i64);
        a.movl(Gr(14), out as i64);
        a.movl(Gr(15), fps as i64);
        a.movl(Gr(16), 0x10); // unmapped
        a.movl(Gr(29), fout as i64);
        a.movl(Gr(31), data as i64);
        a.movl(Gr(26), 1);
        a.label("loop");
        a.emit(Op::Alloc);
        a.ld(AccessSize::U8, Gr(13), Gr(10), 8);
        a.ld_s(AccessSize::U4, Gr(17), Gr(16), 0);
        a.add(Gr(12), Gr(12), Gr(13));
        a.sub(Gr(18), Gr(12), Gr(11));
        a.shladd(Gr(19), Gr(11), 2, Gr(18));
        a.emit(Op::And { d: Gr(25), a: Gr(11), b: Gr(26) });
        a.emit(Op::Or { d: Gr(20), a: Gr(19), b: Gr(13) });
        a.emit(Op::Xor { d: Gr(21), a: Gr(20), b: Gr(12) });
        a.mov(Gr(22), Gr(21));
        a.movl(Gr(24), -7);
        a.cmp(CmpOp::Eq, Pr(3), Pr(4), Gr(25), Gr(0));
        a.emit(pred(3, Op::AddI { d: Gr(27), a: Gr(27), imm: 5 }));
        a.emit(pred(4, Op::AddI { d: Gr(28), a: Gr(28), imm: 3 }));
        a.emit(pred(3, Op::St { s: Gr(22), base: Gr(14), post_inc: 8, size: AccessSize::U8 }));
        a.emit(pred(4, Op::St { s: Gr(24), base: Gr(14), post_inc: 8, size: AccessSize::U2 }));
        a.emit(pred(
            4,
            Op::Ld { d: Gr(23), base: Gr(10), post_inc: 0, size: AccessSize::U1, spec: false },
        ));
        a.emit(Op::Setf { d: Fr(3), s: Gr(13) });
        a.ldf(Fr(4), Gr(15), 8);
        a.fma(Fr(5), Fr(3), Fr(4), Fr(5));
        a.emit(pred(3, Op::Fadd { d: Fr(6), a: Fr(5), b: Fr(3) }));
        a.emit(Op::Fmul { d: Fr(7), a: Fr(3), b: Fr(4) });
        a.stf(Gr(29), Fr(7), 8);
        a.emit(Op::Getf { d: Gr(30), s: Fr(6) });
        a.lfetch(Gr(31), 64);
        a.lfetch(Gr(10), 0);
        a.emit(pred(3, Op::Lfetch { base: Gr(32), post_inc: 8 }));
        a.br_call("bump");
        a.br_cond(Pr(3), "skip");
        a.addi(Gr(33), Gr(33), 1);
        a.label("skip");
        a.addi(Gr(11), Gr(11), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), iters);
        a.br_cond(Pr(1), "loop");
        a.br("done");
        a.halt(); // never reached
        a.label("done");
        a.halt();
        a.global("bump");
        a.addi(Gr(34), Gr(34), 3);
        a.ret();
        a.finish(CODE_BASE).unwrap()
    }

    #[test]
    fn every_op_compiled_matches_fast() {
        let sampling = SamplingConfig {
            interval_cycles: 500,
            buffer_capacity: 8,
            per_sample_cost: 0,
            ..Default::default()
        };
        for profile in [false, true] {
            let run = |path| {
                let mut cfg = MachineConfig::default();
                cfg.exec_path = path;
                cfg.sampling = profile.then(|| sampling.clone());
                let mut m = Machine::new(every_op_program(200, crate::DATA_BASE), cfg);
                let data = m.mem_mut().alloc(0x2000, 8);
                assert_eq!(data, crate::DATA_BASE);
                for i in 0..200u64 {
                    m.mem_mut().write(data + 8 * i, 8, i * 7 + 1);
                    m.mem_mut().write_f64(data + 0x1000 + 8 * i, i as f64 * 0.5);
                }
                m.run_to_halt();
                assert!(m.is_halted(), "{path:?}: {:?}", m.fault());
                m
            };
            let fast = run(ExecPath::Fast);
            let thr = run(ExecPath::Threaded);
            let stats = thr.jit_stats().unwrap();
            assert!(stats.regions_compiled >= 1, "profile={profile}: {stats:?}");

            assert_eq!(fast.gr, thr.gr, "profile={profile}");
            let bits = |m: &Machine| m.fr.map(f64::to_bits);
            assert_eq!(bits(&fast), bits(&thr), "profile={profile}");
            assert_eq!(fast.pr, thr.pr, "profile={profile}");
            let bytes = |m: &Machine| -> Vec<u64> {
                (0..0x2000 / 8).map(|w| m.mem().read(crate::DATA_BASE + 8 * w, 8)).collect()
            };
            assert_eq!(bytes(&fast), bytes(&thr), "profile={profile}");
            assert_eq!(fast.retired(), thr.retired(), "profile={profile}");
            assert_eq!(fast.ip(), thr.ip(), "profile={profile}");
            if profile {
                assert_eq!(
                    fast.pmu().counters.loads,
                    thr.pmu().counters.loads,
                    "profile-mode loads reach the PMU"
                );
            }
            // Both predicate arms ran, and so did the call.
            assert_eq!([27, 28, 33, 34].map(|r| thr.gr(Gr(r))), [5 * 100, 3 * 100, 100, 3 * 200]);
        }
    }

    #[test]
    fn chunked_threaded_run_matches_uninterrupted() {
        let mut one = sum_loop_machine(ExecPath::Threaded, 3000, 3004);
        assert_eq!(one.run(u64::MAX), StopReason::Halted);
        let mut chunked = sum_loop_machine(ExecPath::Threaded, 3000, 3004);
        let mut limit = 0;
        while !chunked.is_halted() {
            limit += 100;
            chunked.run(limit);
        }
        assert_eq!(one.gr(Gr(11)), chunked.gr(Gr(11)));
        assert_eq!(one.gr(Gr(12)), chunked.gr(Gr(12)));
        assert_eq!(one.retired(), chunked.retired());
    }

    #[test]
    fn live_patch_deopts_compiled_region() {
        let mut m = sum_loop_machine(ExecPath::Threaded, 50_000, 50_004);
        // Run in small chunks until the hot loop has compiled.
        let mut limit = 0;
        while m.jit_stats().unwrap().regions_compiled == 0 {
            limit += 50;
            assert_eq!(m.run(limit), StopReason::CycleLimit, "loop must still be running");
        }
        // Live-patch the bundle the machine is stopped at (inside the
        // compiled loop) with an identical copy: architectural no-op,
        // but the store generation moves.
        let target = m.ip().bundle_align();
        let generation = m.code_generation();
        let bundle = m.bundle_at(target).unwrap().clone();
        m.replace_bundle(target, bundle).unwrap();
        assert!(m.code_generation() > generation);

        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        let stats = m.jit_stats().unwrap();
        assert!(stats.deopts >= 1, "stale region must deopt: {stats:?}");
        assert!(stats.regions_compiled >= 2, "patched loop must re-warm and recompile: {stats:?}");
        // Architectural result unchanged by the whole episode.
        let mut fast = sum_loop_machine(ExecPath::Fast, 50_000, 50_004);
        fast.run(u64::MAX);
        assert_eq!(m.gr(Gr(12)), fast.gr(Gr(12)));
        assert_eq!(m.retired(), fast.retired());
    }

    #[test]
    fn threaded_fault_matches_fast() {
        // The arena holds 1000 elements but the loop wants 100k: both
        // tiers must fault at the same load with the same state.
        let build = |path| {
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            cfg.mem_capacity = 1000 * 8;
            let mut m = Machine::new(sum_loop_program(100_000), cfg);
            m.mem_mut().alloc(1000 * 8, 8);
            for i in 0..1000u64 {
                m.mem_mut().write(0x1000_0000 + i * 8, 8, i * 3);
            }
            m
        };
        let mut fast = build(ExecPath::Fast);
        let mut thr = build(ExecPath::Threaded);
        let rf = fast.run(u64::MAX);
        let rt = thr.run(u64::MAX);
        assert_eq!(rf, rt);
        assert!(
            matches!(rf, StopReason::Faulted(Fault::UnmappedLoad { .. })),
            "expected an unmapped-load fault, got {rf:?}"
        );
        assert_eq!(fast.fault(), thr.fault());
        assert_eq!(fast.gr(Gr(10)), thr.gr(Gr(10)), "no write on faulting load");
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.gr(Gr(12)), thr.gr(Gr(12)));
        assert_eq!(fast.retired(), thr.retired());
        assert_eq!(fast.ip(), thr.ip(), "both freeze at the faulting bundle");
    }

    #[test]
    fn calls_and_returns_cross_region_boundaries() {
        let build = |path| {
            let mut a = Asm::new();
            a.movl(Gr(11), 0);
            a.label("loop");
            a.br_call("bump");
            a.addi(Gr(11), Gr(11), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 2000);
            a.br_cond(Pr(1), "loop");
            a.halt();
            a.global("bump");
            a.addi(Gr(20), Gr(20), 3);
            a.ret();
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), cfg);
            assert_eq!(m.run(u64::MAX), StopReason::Halted);
            m
        };
        let fast = build(ExecPath::Fast);
        let thr = build(ExecPath::Threaded);
        assert_eq!(fast.gr(Gr(20)), thr.gr(Gr(20)));
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.retired(), thr.retired());
        assert!(thr.jit_stats().unwrap().regions_compiled >= 1);
    }

    #[test]
    fn profile_mode_keeps_sampling_and_pmu_alive() {
        let mut cfg = MachineConfig::default();
        cfg.exec_path = ExecPath::Threaded;
        cfg.sampling = Some(SamplingConfig {
            interval_cycles: 400,
            buffer_capacity: 32,
            per_sample_cost: 0,
            jitter: 0.3,
            ..Default::default()
        });
        let mut m = Machine::new(sum_loop_program(200_000), cfg);
        m.mem_mut().alloc(200_004 * 8, 8);
        assert_eq!(m.run(u64::MAX), StopReason::SampleBufferOverflow);
        let samples = m.drain_samples();
        assert_eq!(samples.len(), 32);
        // Compiled-mode branches and loads still feed the PMU: the BTB
        // carries entries and the miss counters move.
        assert!(!samples.last().unwrap().btb.is_empty());
        assert!(m.pmu().counters.branches > 0);
        assert!(
            m.jit_stats().unwrap().regions_compiled >= 1,
            "sampling machines still compile (profile mode)"
        );
        // And the run still finishes with the right architectural state.
        loop {
            match m.run(u64::MAX) {
                StopReason::SampleBufferOverflow => {
                    m.drain_samples();
                }
                r => {
                    assert_eq!(r, StopReason::Halted);
                    break;
                }
            }
        }
        assert_eq!(m.gr(Gr(11)), 200_000);
    }

    #[test]
    fn wild_branch_out_of_compiled_region_faults_identically() {
        // A hot loop whose exit is an unconditional branch into the
        // void: the compiled region leaves to an unmapped address and
        // the next (cold) step must raise the same fetch fault the
        // cycle-exact tiers raise.
        let wild = isa::Addr(CODE_BASE + 0x10_000);
        let build = |path| {
            let mut a = Asm::new();
            a.movl(Gr(11), 0);
            a.label("loop");
            a.addi(Gr(11), Gr(11), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 300);
            a.br_cond(Pr(1), "loop");
            a.emit(isa::Insn::new(isa::Op::Br { target: wild }));
            a.halt();
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            Machine::new(a.finish(CODE_BASE).unwrap(), cfg)
        };
        let mut fast = build(ExecPath::Fast);
        let mut thr = build(ExecPath::Threaded);
        let rf = fast.run(u64::MAX);
        assert_eq!(rf, thr.run(u64::MAX));
        assert_eq!(rf, StopReason::Faulted(Fault::UnmappedFetch(wild)));
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.retired(), thr.retired());
        assert!(thr.jit_stats().unwrap().regions_compiled >= 1);
    }
}
