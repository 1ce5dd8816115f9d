//! Joined ADORE legs: [`adore::run_legs`] against separate runs.
//!
//! Every leg of a joined run must report exactly what the leg reports
//! run alone under [`adore::run`] — the report's `Debug` text, host
//! wall time aside, byte for byte — and the leader's machine must end
//! in the state a solo run leaves it in. A follower must split at the first window after which
//! its machine differs from the leader's, found here by stepping the
//! two legs alone in lockstep and comparing their machines.

use adore::pipeline::OptContext;
use adore::{run_legs, AdoreConfig, Outcome, Pipeline, RunReport};
use compiler::{compile, CompileOptions};
use perfmon::Perfmon;
use sim::{Machine, MachineConfig, SamplingConfig, StopReason};

/// Large enough that mcf's phases stabilize, get optimized and
/// re-optimized under the controller, small enough for a debug-mode
/// `cargo test`.
const SCALE: f64 = 0.2;

/// The decision-replay tier's configuration (`tests/policy_replay.rs`):
/// dense sampling and two-window arm trials, controller off.
fn replay_config() -> AdoreConfig {
    let mut c = AdoreConfig::enabled();
    c.sampling = SamplingConfig {
        interval_cycles: 2_000,
        buffer_capacity: 200,
        per_sample_cost: 20,
        jitter: 0.3,
        ..Default::default()
    };
    c.policy.trial_windows = 2;
    c
}

fn mcf_machine(config: &AdoreConfig) -> Machine {
    let w = workloads::by_name("mcf", SCALE).expect("mcf workload");
    let bin = compile(&w.kernel, &CompileOptions::o2()).expect("mcf compiles");
    w.prepare(&bin, config.machine_config(MachineConfig::default()))
}

/// A report's full text, minus the ledger's host wall time (the one
/// field that differs between identical runs).
fn canonical(report: &RunReport) -> String {
    let mut report = report.clone();
    report.ledger.passes.iter_mut().for_each(|(_, l)| l.wall_ns = 0);
    format!("{report:?}")
}

/// Runs `configs` joined on one machine and checks every leg against a
/// solo run of the same config; returns each leg's split window.
fn joined_matches_solo(configs: &[AdoreConfig]) -> Vec<Option<u64>> {
    let mut joined = mcf_machine(&configs[0]);
    let legs = run_legs(&mut joined, configs, u64::MAX);
    assert_eq!(legs.len(), configs.len());
    assert_eq!(legs[0].split_window, None, "the leader never splits");
    for (i, (leg, config)) in legs.iter().zip(configs).enumerate() {
        let mut solo = mcf_machine(config);
        let report = adore::run(&mut solo, config);
        assert_eq!(
            canonical(&leg.report),
            canonical(&report),
            "leg {i}: the joined report differs from the solo run's"
        );
        if i == 0 {
            assert!(joined == solo, "the leader's machine differs from its solo run's");
        }
    }
    legs.iter().map(|l| l.split_window).collect()
}

/// One leg run alone, stepped window by window.
struct Solo<'a> {
    machine: Machine,
    perfmon: Perfmon,
    pipeline: Pipeline,
    ctx: OptContext<'a>,
}

impl<'a> Solo<'a> {
    fn new(config: &'a AdoreConfig) -> Solo<'a> {
        Solo {
            machine: mcf_machine(config),
            perfmon: Perfmon::new(config.perfmon.clone()),
            pipeline: Pipeline::from_config(&config.pipeline),
            ctx: OptContext::new(config),
        }
    }
}

/// The first window after which legs `a` and `b`, each run alone,
/// leave different machines; `None` if they never do.
fn first_divergent_window(a: &AdoreConfig, b: &AdoreConfig) -> Option<u64> {
    let (mut x, mut y) = (Solo::new(a), Solo::new(b));
    loop {
        let stop = x.machine.run(u64::MAX);
        assert_eq!(stop, y.machine.run(u64::MAX), "equal machines stop alike");
        if stop != StopReason::SampleBufferOverflow {
            return None;
        }
        for leg in [&mut x, &mut y] {
            let window = leg.perfmon.on_overflow(&mut leg.machine).clone();
            leg.pipeline.run_window(&mut leg.ctx, &mut leg.machine, &window, leg.perfmon.ueb());
        }
        if x.machine != y.machine {
            return Some(x.perfmon.windows_produced());
        }
    }
}

#[test]
fn identical_legs_never_split() {
    let config = replay_config();
    let splits = joined_matches_solo(&[config.clone(), config.clone(), config]);
    assert_eq!(splits, [None, None, None]);
}

#[test]
fn static_and_adaptive_legs_split_at_the_first_divergent_decision() {
    let static_config = replay_config();
    let mut adaptive = replay_config();
    adaptive.policy.enable = true;
    let splits = joined_matches_solo(&[static_config.clone(), adaptive.clone()]);
    let expected = first_divergent_window(&static_config, &adaptive);
    assert_eq!(splits, [None, expected]);
    // The first decision that changes a patch is the first trial of an
    // arm other than the static one.
    let mut m = mcf_machine(&adaptive);
    let report = adore::run(&mut m, &adaptive);
    let first_trial = report
        .policy
        .decisions
        .iter()
        .find(|d| d.action == "trial" && d.arm != "static")
        .map(|d| d.window);
    assert!(first_trial.is_some(), "the controller must trial a non-static arm on mcf");
    assert_eq!(expected, first_trial);
}

#[test]
fn insertion_legs_split_at_the_first_deploy() {
    let on = replay_config();
    let mut off = replay_config();
    off.insert_prefetches = false;
    let expected = first_divergent_window(&on, &off);
    // The insertion-off leg never edits the machine, so the first
    // difference is the insertion-on leg's first deploy.
    let mut m = mcf_machine(&on);
    let report = adore::run(&mut m, &on);
    let deploy_window = report
        .decisions
        .iter()
        .find(|d| matches!(d.outcome, Outcome::Deployed { .. }))
        .map(|d| d.window);
    assert!(deploy_window.is_some(), "mcf gets a deploy");
    assert_eq!(expected, deploy_window);
    // Leader deploys (the follower runs on the checkpoint) and leader
    // idle (the follower edits the shared machine and is swapped out).
    assert_eq!(joined_matches_solo(&[on.clone(), off.clone()]), [None, expected]);
    assert_eq!(joined_matches_solo(&[off, on]), [None, expected]);
}
