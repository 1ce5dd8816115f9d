//! Regression test for the §2.3 nonprofitable-patch monitor as a
//! *pipeline pass*: a deliberately harmful prefetch configuration must
//! be patched, detected via the phase-CPI regression margin, and
//! unpatched — and the event ledger must record the whole episode —
//! on both simulator execution paths.

use adore::{AdoreConfig, PassKind, Policy, Rejection};
use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
use sim::{ExecPath, Machine, MachineConfig, SamplingConfig};

/// A long strided loop with heavy L2/L3 misses (the `missy_program`
/// shape from the runtime's unit tests): outer × inner iterations,
/// walking 64-byte lines.
fn missy_program(outer: i64, inner: i64) -> isa::Program {
    let mut a = Asm::new();
    a.movl(Gr(8), outer);
    a.label("outer");
    a.movl(Gr(14), 0x1000_0000);
    a.movl(Gr(9), inner);
    a.label("loop");
    a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
    a.add(Gr(21), Gr(20), Gr(21));
    a.addi(Gr(9), Gr(9), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
    a.br_cond(Pr(1), "loop");
    a.addi(Gr(8), Gr(8), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
    a.br_cond(Pr(1), "outer");
    a.halt();
    a.finish(CODE_BASE).unwrap()
}

/// Forces every inserted stream to fetch ~6 MB ahead of use: pure
/// bandwidth waste that makes the patched loop *slower*, so the
/// monitor has a real regression to catch.
fn harmful_config() -> AdoreConfig {
    let mut config = AdoreConfig::enabled();
    config.sampling = SamplingConfig {
        interval_cycles: 2_000,
        buffer_capacity: 50,
        per_sample_cost: 100,
        jitter: 0.3,
        ..Default::default()
    };
    config.prefetch.min_distance_iters = 90_000;
    config.prefetch.max_distance_iters = 100_000;
    config
}

#[test]
fn cpi_regression_is_unpatched_and_ledgered_on_both_exec_paths() {
    for exec_path in [ExecPath::Fast, ExecPath::Reference] {
        let config = harmful_config();
        let base_cfg = MachineConfig { exec_path, ..MachineConfig::default() };

        let program = missy_program(60, 40_000);
        let mut base = Machine::new(program.clone(), base_cfg.clone());
        base.mem_mut().alloc(40_016 * 64, 64);
        base.run(u64::MAX);
        let baseline = base.cycles();

        let mut m = Machine::new(program, config.machine_config(base_cfg));
        m.mem_mut().alloc(40_016 * 64, 64);
        let report = adore::run(&mut m, &config);

        assert!(
            report.traces_patched >= 1,
            "[{exec_path}] a (bad) patch should have been installed: {report:?}"
        );
        assert!(
            report.traces_unpatched >= 1,
            "[{exec_path}] the CPI regression must be detected and unpatched: {report:?}"
        );
        assert!(
            (report.cycles as f64) < baseline as f64 * 1.25,
            "[{exec_path}] unpatching should bound the damage: {} vs {baseline}",
            report.cycles
        );

        // The episode must be on the books: the unpatch_monitor pass
        // charged the unpatch, counted the rejected patches under the
        // unified taxonomy, and emitted an "unpatch" event.
        let (_, monitor) = report
            .ledger
            .entries()
            .find(|(kind, _)| *kind == PassKind::UnpatchMonitor)
            .expect("unpatch_monitor must be in the default pipeline ledger");
        let regressed =
            monitor.rejections.get(Rejection::CpiRegressed.label()).copied().unwrap_or(0);
        assert!(
            regressed >= 1,
            "[{exec_path}] ledger must count the regressed patches: {monitor:?}"
        );
        assert!(
            monitor.accepted >= 1,
            "[{exec_path}] the monitor accepted (executed) an unpatch: {monitor:?}"
        );
        let unpatch_episodes = report
            .decisions
            .iter()
            .filter(|d| matches!(d.outcome, adore::Outcome::Unpatched { .. }))
            .count();
        assert!(
            unpatch_episodes >= 1,
            "[{exec_path}] decision trace must record the unpatch episode"
        );
    }
}

/// The unpatch brake is also the policy controller's safety net: when
/// the patch installed under a *trialed* non-static arm regresses, the
/// monitor must not just unpatch — it must make the controller fall
/// back and re-commit the static policy for that phase, and the ledger
/// must count the episode under `rej:policy_regressed`.
#[test]
fn bad_trialed_policy_trips_the_brake_and_recommits_static() {
    for exec_path in [ExecPath::Fast, ExecPath::Reference] {
        // Same chase-hostile distances as above, but routed through a
        // trialed arm: the only arm is WIDE (distance ×2), so the very
        // first deploy starts a non-static trial that the monitor then
        // catches regressing.
        let mut config = harmful_config();
        config.policy.enable = true;
        config.policy.trial_windows = 2;
        config.policy.arms = vec![Policy::WIDE];
        let base_cfg = MachineConfig { exec_path, ..MachineConfig::default() };

        let program = missy_program(60, 40_000);
        let mut m = Machine::new(program, config.machine_config(base_cfg));
        m.mem_mut().alloc(40_016 * 64, 64);
        let report = adore::run(&mut m, &config);

        assert!(
            report.traces_unpatched >= 1,
            "[{exec_path}] the regressing WIDE trial must be unpatched: {report:?}"
        );

        // Ledger: the monitor charged the fallback to the policy.
        let (_, monitor) = report
            .ledger
            .entries()
            .find(|(kind, _)| *kind == PassKind::UnpatchMonitor)
            .expect("unpatch_monitor must be in the default pipeline ledger");
        let policy_regressed =
            monitor.rejections.get(Rejection::PolicyRegressed.label()).copied().unwrap_or(0);
        assert!(
            policy_regressed >= 1,
            "[{exec_path}] ledger must record the policy fallback: {monitor:?}"
        );

        // Controller: the decision log shows the fallback and the
        // phase ends re-committed to the static policy.
        assert!(report.policy.enabled, "[{exec_path}] policy section must be reported");
        assert!(
            report.policy.fallbacks >= 1,
            "[{exec_path}] controller must count the fallback: {:?}",
            report.policy
        );
        let fallback =
            report.policy.decisions.iter().find(|d| d.action == "fallback").unwrap_or_else(|| {
                panic!("[{exec_path}] no fallback decision: {:?}", report.policy)
            });
        assert_eq!(fallback.arm, "wide", "[{exec_path}] the trialed WIDE arm regressed");
        assert!(
            fallback.score < 0.0,
            "[{exec_path}] fallback records the regression magnitude: {fallback:?}"
        );
        assert!(
            report
                .policy
                .committed
                .iter()
                .any(|(phase, arm)| *phase == fallback.phase && *arm == "static"),
            "[{exec_path}] the phase must re-commit the static policy: {:?}",
            report.policy.committed
        );
    }
}
