//! Engine-level guarantees the redesign is sold on: a parallel run's
//! report is byte-identical to a serial run's, shared baselines are
//! computed once, and a failing cell ruins only its own row. (The
//! baseline cache's own unit tests live in `src/engine.rs`.)

use bench_harness::*;
use compiler::CompileOptions;
use obs::Json;

fn cli(scale: f64, jobs: usize) -> Cli {
    let mut c = Cli::fixed(scale, jobs);
    c.report_args = vec!["--unit".into()];
    c
}

fn spec(jobs: usize) -> ExperimentSpec {
    // `baseline_dir(None)` keeps the test hermetic: no on-disk store,
    // so a previous run (or a workspace-level cache) cannot change the
    // in-memory cache arithmetic asserted below.
    ExperimentSpec::paper_defaults("unit", &cli(0.05, jobs))
        .baseline_dir(None)
        .section("comparison", &["swim", "art"], CompileOptions::o2(), Measure::Comparison)
        .section("overhead", &["swim", "art"], CompileOptions::o2(), Measure::Overhead)
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let serial = spec(1).run();
    let parallel = spec(4).run();
    assert_eq!(serial.canonical(), parallel.canonical());
    assert_eq!(serial.failed, 0);

    // Schema of a comparison row (what fig7-style consumers read).
    let row = &serial.rows("comparison")[0];
    assert_eq!(row.get("bench").and_then(Json::as_str), Some("swim"));
    assert!(row.get("speedup_pct").and_then(Json::as_f64).is_some());
    assert!(row.get("streams").and_then(|s| s.get("direct")).is_some());
    let caches = row.get("base").and_then(|b| b.get("caches")).expect("cache stats");
    assert!(caches.get("l1d").and_then(|l| l.get("misses")).is_some());

    // The overhead section reused both comparison baselines: 4 lookups,
    // 2 computes — and that arithmetic is jobs-independent.
    let engine = serial.report().json().get("engine").expect("engine section");
    let cache = engine.get("baseline_cache").expect("cache stats");
    assert_eq!(cache.get("lookups").and_then(Json::as_u64), Some(4));
    assert_eq!(cache.get("computes").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(engine.get("cells").and_then(Json::as_u64), Some(4));
}

#[test]
fn compile_failure_fails_only_its_row() {
    let suite = workloads::suite(0.05);
    let mut bad = suite.iter().find(|w| w.name == "swim").unwrap().clone();
    bad.name = "badloop";
    bad.kernel.loops[0].trip = 0;
    let result = ExperimentSpec::paper_defaults("unit_bad", &cli(0.05, 2))
        .baseline_dir(None)
        .with_workload(bad)
        .section("rows", &["swim", "badloop", "nosuch"], CompileOptions::o2(), Measure::Comparison)
        .run();
    assert_eq!(result.failed, 2);
    let rows = result.rows("rows");
    assert_eq!(rows.len(), 3, "failed cells still occupy their slots");
    assert!(je(&rows[0]).is_none(), "healthy cell unaffected");
    assert!(rows[0].get("speedup_pct").is_some());
    let msg = je(&rows[1]).expect("compile-failure row");
    assert!(msg.contains("zero trip count"), "{msg}");
    assert!(je(&rows[2]).expect("unknown-workload row").contains("unknown workload"));
}
