//! Guarantees the `lab policy` grid is sold on: the policy report —
//! including every cell's per-phase decision log — is byte-identical
//! for any worker count, and a `"policy"` request through `lab serve`
//! produces the same row bytes as the batch engine.

use bench_harness::lab::serve::serve_io;
use bench_harness::*;
use compiler::CompileOptions;
use obs::Json;

fn cli(scale: f64, jobs: usize) -> Cli {
    let mut c = Cli::fixed(scale, jobs);
    c.report_args = vec!["--unit".into()];
    c
}

/// A small policy grid: one suite kernel plus one scenario family, so
/// the jobs-invariance claim covers both workload sources.
fn spec(jobs: usize) -> ExperimentSpec {
    ExperimentSpec::paper_defaults("policy", &cli(0.05, jobs)).baseline_dir(None).section(
        "grid",
        &["mcf", "server"],
        CompileOptions::o2(),
        Measure::Policy,
    )
}

#[test]
fn policy_report_is_byte_identical_across_worker_counts() {
    let serial = spec(1).run();
    let parallel = spec(4).run();
    assert_eq!(serial.failed, 0);
    assert_eq!(serial.canonical(), parallel.canonical());

    // Schema of a policy row: the three-leg cycle columns, the verdict
    // column, and the controller section with its decision log.
    for row in serial.rows("grid") {
        assert!(row.get("base_cycles").and_then(Json::as_u64).is_some());
        assert!(row.get("static_cycles").and_then(Json::as_u64).is_some());
        assert!(row.get("adaptive_cycles").and_then(Json::as_u64).is_some());
        assert!(row.get("delta_pct").and_then(Json::as_f64).is_some());
        assert!(row.get("win").is_some());
        let policy = row.get("policy").expect("policy section");
        assert_eq!(policy.get("enabled"), Some(&Json::Bool(true)));
        assert!(policy.get("decisions").and_then(Json::as_array).is_some());
        assert!(policy.get("committed").and_then(Json::as_array).is_some());
    }
}

#[test]
fn serve_policy_rows_match_the_batch_engine() {
    let requests = concat!(
        r#"{"workload":"mcf","tool":"policy","section":"grid","measure":"policy"}"#,
        "\n",
        r#"{"workload":"server","tool":"policy","section":"grid","measure":"policy"}"#,
        "\n",
    );
    let mut served_cli = Cli::fixed(0.05, 2);
    served_cli.values.push(("no-baseline-store".into(), None));
    let mut out = Vec::new();
    let summary = serve_io(&served_cli, requests.as_bytes(), &mut out);
    assert_eq!((summary.cells, summary.errors), (2, 0));
    let served: Vec<Json> = String::from_utf8(out)
        .expect("utf8 stream")
        .lines()
        .map(|l| Json::parse(l).unwrap().get("row").expect("row").clone())
        .collect();

    let batch = spec(2).run();
    let rows = batch.rows("grid");
    assert_eq!(served.len(), rows.len());
    for (served, batch) in served.iter().zip(rows) {
        assert_eq!(served.to_string(), batch.to_string());
    }
}
