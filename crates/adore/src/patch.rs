//! Trace patching: publishing optimized traces into the trace pool.
//!
//! Following §2.5 of the paper, the patcher writes the optimized trace
//! into an unused area of the trace pool, maps the back edge to the
//! trace-pool copy of the loop body, and replaces the *first bundle* of
//! the original trace with a single branch into the pool. The replaced
//! bundle is saved, so the trace can later be unpatched by writing it
//! back.

use isa::{Addr, Bundle, Insn, Op, TRACE_POOL_BASE};
use sim::{Machine, PatchError};

use crate::prefetch::{InsertionStats, OptimizedTrace};

/// Record of an installed trace, sufficient to unpatch it.
#[derive(Debug, Clone)]
pub struct PatchedTrace {
    /// Address of the trace (entry code) in the pool.
    pub pool_addr: Addr,
    /// Address of the loop body inside the trace (back-edge target).
    pub body_addr: Addr,
    /// Original code address whose bundle was replaced.
    pub original_head: Addr,
    /// The replaced bundle (written back on unpatch).
    pub saved: Bundle,
    /// Total bundles installed in the pool.
    pub len: usize,
    /// Inserted-prefetch statistics for this trace.
    pub stats: InsertionStats,
    /// The machine's code-store generation after this install. Every
    /// mutation of mapped code bumps the generation and re-decodes the
    /// affected bundles, which is what keeps the predecoded fast path
    /// coherent with patched code (see `sim::CodeStore`).
    pub code_generation: u64,
}

impl obs::ToJson for PatchedTrace {
    fn to_json(&self) -> obs::Json {
        obs::Json::object()
            .with("pool_addr", self.pool_addr.0)
            .with("original_head", self.original_head.0)
            .with("len", self.len as u64)
            .with("stats", self.stats)
    }
}

/// Installs an optimized trace and redirects the original code to it.
///
/// # Errors
///
/// Fails when the patch site does not map to a static code bundle.
pub fn install(machine: &mut Machine, ot: &OptimizedTrace) -> Result<PatchedTrace, PatchError> {
    let pool_addr = Addr(TRACE_POOL_BASE + machine.pool_len() as u64 * Addr::BUNDLE_BYTES);
    let body_addr = pool_addr.offset_bundles(ot.entry.len() as i64);

    let mut bundles = Vec::with_capacity(ot.entry.len() + ot.body.len() + 1);
    bundles.extend(ot.entry.iter().cloned());
    let mut body = ot.body.clone();
    {
        let (bi, si) = ot.back_edge;
        let slot = &mut body[bi].slots[si as usize];
        let ok = slot.op.set_branch_target(body_addr);
        debug_assert!(ok, "back edge must be a branch");
    }
    bundles.extend(body);
    // Falling off the trace end continues in the original code.
    bundles.push(Bundle::branch_only(Insn::new(Op::Br { target: ot.fall_through_exit })));
    let len = bundles.len();

    let generation_before = machine.code_generation();
    let installed_at = machine.install_trace(bundles)?;
    debug_assert_eq!(installed_at, pool_addr);

    let saved = machine
        .replace_bundle(ot.start, Bundle::branch_only(Insn::new(Op::Br { target: pool_addr })))?;

    // Publishing the trace and redirecting the head are two distinct
    // code mutations; both must have invalidated any stale predecoded
    // bundles, or the fast path could keep executing the old code.
    let code_generation = machine.code_generation();
    debug_assert!(
        code_generation >= generation_before + 2,
        "trace install must bump the code-store generation twice \
         (pool install + head redirect): {generation_before} -> {code_generation}"
    );

    Ok(PatchedTrace {
        pool_addr,
        body_addr,
        original_head: ot.start,
        saved,
        len,
        stats: ot.stats,
        code_generation,
    })
}

/// Unpatches a trace: writes the saved bundle back so execution resumes
/// in the original code (the pool copy is simply abandoned).
///
/// # Errors
///
/// Fails when the original head no longer maps to a code bundle.
pub fn unpatch(machine: &mut Machine, patched: &PatchedTrace) -> Result<(), PatchError> {
    let generation_before = machine.code_generation();
    machine.replace_bundle(patched.original_head, patched.saved.clone())?;
    debug_assert!(
        machine.code_generation() > generation_before,
        "unpatching must invalidate the predecoded head bundle"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
    use sim::{MachineConfig, StopReason};

    /// A machine running a hot strided loop, plus the positions needed
    /// to hand-build an optimized trace for it.
    fn machine_with_loop(iters: i64) -> (Machine, Addr) {
        machine_with_loop_on(sim::ExecPath::Fast, iters)
    }

    /// Same loop machine on an explicit execution tier.
    fn machine_with_loop_on(path: sim::ExecPath, iters: i64) -> (Machine, Addr) {
        let mut a = Asm::new();
        a.movl(Gr(14), 0x1000_0000);
        a.movl(Gr(9), iters);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
        a.add(Gr(21), Gr(20), Gr(21));
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let head = Addr(CODE_BASE + 2 * 16); // after the two movl bundles
        let mut config = MachineConfig::default();
        config.exec_path = path;
        let mut m = Machine::new(p, config);
        m.mem_mut().alloc((iters as u64 + 16) * 64, 64);
        (m, head)
    }

    /// Builds the optimized trace by selecting and optimizing for real.
    fn optimized_for(m: &Machine, head: Addr) -> OptimizedTrace {
        // Copy the loop bundles [head .. head+3).
        let bundles: Vec<Bundle> =
            (0..3).map(|i| m.bundle_at(head.offset_bundles(i)).unwrap().clone()).collect();
        let mut back_edge = None;
        for (bi, b) in bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::BrCond { .. }) {
                    back_edge = Some((bi, si as u8));
                }
            }
        }
        let trace = crate::trace::Trace {
            start: head,
            origins: (0..3).map(|i| head.offset_bundles(i)).collect(),
            fall_through_exit: head.offset_bundles(3),
            is_loop: true,
            back_edge,
            bundles,
        };
        let loads = vec![crate::delinq::DelinquentLoad {
            pc: isa::Pc::new(head, 0),
            trace_index: 0,
            position: (0, 0),
            count: 10,
            total_latency: 1600,
            avg_latency: 160.0,
            share: 1.0,
            last_miss_addr: 0x1000_0000,
        }];
        let (opt, _) = crate::prefetch::optimize_trace(&trace, &loads, &Default::default());
        opt.expect("prefetch applies")
    }

    #[test]
    fn patched_loop_runs_in_pool_and_is_faster() {
        let iters = 40_000i64;
        // Baseline run.
        let (mut base, _) = machine_with_loop(iters);
        base.run(u64::MAX);
        let base_cycles = base.cycles();
        let base_sum = base.gr(Gr(21));

        // Patched run.
        let (mut m, head) = machine_with_loop(iters);
        let ot = optimized_for(&m, head);
        let patched = install(&mut m, &ot).unwrap();
        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        assert_eq!(m.gr(Gr(21)), base_sum, "semantics must be preserved");
        assert!(
            m.cycles() * 10 < base_cycles * 9,
            "prefetched trace should be ≥10% faster: {} vs {base_cycles}",
            m.cycles()
        );
        assert!(patched.len >= 4);
        assert_eq!(patched.stats.direct, 1);
    }

    #[test]
    fn patched_code_is_cycle_exact_across_exec_paths() {
        // A patched machine exercises the trace pool and a rewritten
        // static bundle — exactly the code-store mutations the fast
        // path's generation tagging must survive. Both paths must agree
        // cycle for cycle on the patched program.
        let iters = 20_000i64;
        let mut results = Vec::new();
        for path in [sim::ExecPath::Reference, sim::ExecPath::Fast] {
            let mut a = Asm::new();
            a.movl(Gr(14), 0x1000_0000);
            a.movl(Gr(9), iters);
            a.label("loop");
            a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            a.halt();
            let p = a.finish(CODE_BASE).unwrap();
            let head = Addr(CODE_BASE + 2 * 16);
            let mut config = MachineConfig::default();
            config.exec_path = path;
            let mut m = Machine::new(p, config);
            m.mem_mut().alloc((iters as u64 + 16) * 64, 64);
            let ot = optimized_for(&m, head);
            let patched = install(&mut m, &ot).unwrap();
            assert!(patched.code_generation >= 2);
            assert_eq!(m.run(u64::MAX), StopReason::Halted);
            results.push((m.cycles(), m.retired(), m.gr(Gr(21))));
        }
        assert_eq!(results[0], results[1], "reference and fast paths diverged on patched code");
    }

    #[test]
    fn live_patch_deopts_threaded_regions() {
        // The threaded tier compiles the hot loop into a closure
        // region; installing an optimized trace then mutates the code
        // store (pool install + head redirect), each bumping the store
        // generation. The stale region must deopt at the patch
        // boundary — and the architectural result must be identical to
        // an unpatched cycle-exact run.
        let iters = 60_000i64;
        let (mut base, _) = machine_with_loop(iters);
        base.run(u64::MAX);
        let base_sum = base.gr(Gr(21));

        let (mut m, head) = machine_with_loop_on(sim::ExecPath::Threaded, iters);
        let mut limit = 0;
        while m.jit_stats().unwrap().regions_compiled == 0 {
            limit += 64;
            assert_eq!(m.run(limit), StopReason::CycleLimit, "loop still warming");
        }

        // Live-patch while the compiled region is resident.
        let ot = optimized_for(&m, head);
        let generation = m.code_generation();
        let patched = install(&mut m, &ot).unwrap();
        assert!(patched.code_generation >= generation + 2);

        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        let stats = m.jit_stats().unwrap();
        assert!(stats.deopts >= 1, "live patch must deopt the compiled region: {stats:?}");
        assert!(
            stats.regions_compiled >= 2,
            "redirected head and pool trace must re-warm and recompile: {stats:?}"
        );
        assert_eq!(m.gr(Gr(21)), base_sum, "semantics preserved across deopt");
    }

    #[test]
    fn unpatch_restores_original_behavior() {
        let (mut m, head) = machine_with_loop(10_000);
        let ot = optimized_for(&m, head);
        let patched = install(&mut m, &ot).unwrap();
        // Before running, unpatch again.
        unpatch(&mut m, &patched).unwrap();
        let saved_now = m.bundle_at(head).unwrap().clone();
        assert_eq!(saved_now, patched.saved);
        m.run(u64::MAX);
        assert!(m.is_halted());
    }

    #[test]
    fn install_fails_on_bad_head() {
        let (mut m, head) = machine_with_loop(100);
        let mut ot = optimized_for(&m, head);
        ot.start = Addr(0x0900_0000);
        assert!(install(&mut m, &ot).is_err());
    }

    #[test]
    fn back_edge_targets_pool_body() {
        let (mut m, head) = machine_with_loop(1000);
        let ot = optimized_for(&m, head);
        let entry_len = ot.entry.len();
        let patched = install(&mut m, &ot).unwrap();
        assert_eq!(patched.body_addr, patched.pool_addr.offset_bundles(entry_len as i64));
        // The installed back edge targets the pool body address.
        let mut found = false;
        for i in 0..patched.len {
            let b = m.bundle_at(patched.pool_addr.offset_bundles(i as i64)).unwrap();
            for s in &b.slots {
                if let Op::BrCond { target } = s.op {
                    assert_eq!(target, patched.body_addr);
                    found = true;
                }
            }
        }
        assert!(found);
    }
}
