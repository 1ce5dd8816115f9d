//! The decision trace accounts for every delinquent load: each load the
//! `delinq_filter` pass recorded has exactly one terminal fate in its
//! selection window — a rejection label (pattern analysis, prefetch
//! scheduling, or a failed patch of its trace), or a scheduled stream
//! whose trace was then deployed.

use adore::{AdoreConfig, Decision, Outcome, PassKind, Rejection, RunReport, Site};
use compiler::{compile, CompileOptions};
use sim::{MachineConfig, SamplingConfig};

/// Small enough for a debug-mode `cargo test`, large enough that each
/// workload's phases stabilize and get optimized.
const SCALE: f64 = 0.2;

fn run(name: &str) -> RunReport {
    let mut config = AdoreConfig::enabled();
    config.sampling = SamplingConfig {
        interval_cycles: 2_000,
        buffer_capacity: 200,
        per_sample_cost: 20,
        jitter: 0.3,
        ..Default::default()
    };
    let w = workloads::by_name(name, SCALE).expect("suite workload");
    let bin = compile(&w.kernel, &CompileOptions::o2()).expect("compiles");
    let mut m = w.prepare(&bin, config.machine_config(MachineConfig::default()));
    adore::run(&mut m, &config)
}

/// Terminal fates of the delinquent load recorded at `decisions[i]`.
fn fates(decisions: &[Decision], i: usize) -> usize {
    let d = &decisions[i];
    let Outcome::Delinquent { trace, .. } = d.outcome else { unreachable!() };
    let window: Vec<&Decision> = decisions.iter().filter(|e| e.window == d.window).collect();
    let on_load = |pred: fn(&Outcome) -> bool| {
        window.iter().filter(|e| e.site == d.site && pred(&e.outcome)).count()
    };
    let rejected = on_load(|o| matches!(o, Outcome::Rejected(_)));
    let scheduled = on_load(|o| matches!(o, Outcome::Scheduled { .. }));
    let deploys = window
        .iter()
        .filter(|e| e.pass == PassKind::PatchDeploy && e.site == Site::Trace(trace))
        .filter(|e| {
            matches!(e.outcome, Outcome::Deployed { .. })
                || matches!(e.outcome, Outcome::Rejected(Rejection::PatchFailed))
        })
        .count();
    rejected + scheduled * deploys
}

#[test]
fn every_delinquent_load_has_exactly_one_fate() {
    for name in ["mcf", "art", "lucas"] {
        let report = run(name);
        let decisions = &report.decisions;
        let mut loads = 0;
        for (i, d) in decisions.iter().enumerate() {
            if let (Site::Load(pc), Outcome::Delinquent { .. }) = (d.site, &d.outcome) {
                loads += 1;
                assert_eq!(fates(decisions, i), 1, "{name}: load {pc} in window {}", d.window);
            }
        }
        assert!(loads > 0, "{name}: the delinquent-load filter recorded no load");
        let deployed = decisions.iter().any(|d| matches!(d.outcome, Outcome::Deployed { .. }));
        let unanalyzable = decisions
            .iter()
            .any(|d| matches!(d.outcome, Outcome::Rejected(Rejection::UnanalyzableSlice)));
        match name {
            "lucas" => assert!(unanalyzable, "lucas: its fp-conversion slices must be rejected"),
            _ => assert!(deployed, "{name}: no stream was deployed"),
        }
    }
}
