//! Conformance of the benchmark to its declaration: every workload, at
//! smoke size, prints exactly the declared metrics with their units and
//! fails no operation; the traced run also passes its cross-checks.

use std::time::Instant;

use bench_harness::{Cli, ExperimentSpec, Measure};
use compiler::CompileOptions;
use obs::Json;

use crate::workload::{Kind, Size};
use crate::{measure, Declaration, Params};

fn smoke(kind: Kind, trace: bool) -> Params {
    // One job per workload: the first always runs, and no second fits.
    Params {
        kind,
        seed: 1,
        seconds: 1e-3,
        size: Size::smoke(),
        trace,
        chrome: None,
        started: Instant::now(),
    }
}

/// The `(name, unit)` pairs of a printed metrics object, sorted.
fn printed(metrics: &Json) -> Vec<(String, String)> {
    let Json::Object(fields) = metrics else {
        panic!("metrics is an object: {metrics}")
    };
    let mut v: Vec<(String, String)> = fields
        .iter()
        .map(|(k, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{k}: {m}"
            );
            (
                k.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Runs one workload and checks both printed lines against the
/// declaration; returns the detail line.
fn conforms(kind: Kind, trace: bool) -> Json {
    let decl = Declaration::load();
    let wanted = if trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let mut declared: Vec<(String, String)> = wanted
        .iter()
        .map(|d| (d.name.clone(), d.unit.clone()))
        .collect();
    declared.sort();
    let (_, detail, result) = measure(&smoke(kind, trace));
    // Both lines must survive a print/parse round trip.
    let (detail, result) = (
        Json::parse(&detail.to_string()).unwrap(),
        Json::parse(&result.to_string()).unwrap(),
    );
    let Json::Object(keys) = &result else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        printed(result.get("metrics").unwrap()),
        declared,
        "{}: result metrics",
        kind.name()
    );
    assert_eq!(
        printed(detail.get("metrics").unwrap()),
        declared,
        "{}: detail metrics",
        kind.name()
    );
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{}: {detail}",
        kind.name()
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{}: {detail}",
        kind.name()
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        detail.get("ncpu").and_then(Json::as_u64),
        std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64)
    );
    detail
}

fn value(detail: &Json, name: &str) -> f64 {
    detail
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn declaration_names_the_benchmark_workloads() {
    let names: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(Declaration::load().workloads, names);
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    for kind in Kind::ALL {
        let detail = conforms(kind, false);
        assert!(value(&detail, "wall_s") > 0.0);
        assert!(detail
            .get("peak_rss_mb")
            .and_then(Json::as_f64)
            .is_some_and(|mb| mb > 0.0));
    }
}

#[test]
fn every_workload_prints_the_declared_per_layer_metrics() {
    for kind in Kind::ALL {
        let detail = conforms(kind, true);
        let coverage = value(&detail, "trace.coverage_pct");
        if matches!(kind, Kind::Fig7Cold | Kind::PolicyWarm | Kind::FuzzFast) {
            assert!(
                coverage >= 95.0,
                "{}: layers cover {coverage:.1}% of the traced wall",
                kind.name()
            );
        }
        if matches!(kind, Kind::Fig7Cold | Kind::PolicyWarm) {
            // Every cell was replayed and matched its engine row cycle
            // for cycle (a mismatch is a failed check above).
            let cells = Size::smoke().fig7.len() as u64;
            assert_eq!(
                detail
                    .get("detail")
                    .and_then(|d| d.get("cycle_checked_cells"))
                    .and_then(Json::as_u64),
                Some(cells)
            );
            let ratio = detail
                .get("detail")
                .and_then(|d| d.get("pass_sum_over_pipeline"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(
                (0.95..=1.05).contains(&ratio),
                "{}: passes sum to {ratio:.3} of the pipeline",
                kind.name()
            );
            assert!(
                value(&detail, "adore.pipeline.s") > 0.0 && value(&detail, "perfmon.windows") > 0.0
            );
        }
    }
}

#[test]
fn copied_cell_seed_matches_the_engine() {
    let (tool, section, name) = ("unit", "cells", "mcf");
    let result = ExperimentSpec::paper_defaults(tool, &Cli::fixed(0.05, 1))
        .baseline_dir(None)
        .section(section, &[name], CompileOptions::o2(), Measure::Comparison)
        .run();
    let row = &result.rows(section)[0];
    let w = workloads::by_name(name, 0.05).unwrap();
    let bin = bench_harness::build(&w, &CompileOptions::o2()).unwrap();
    let mut cfg = ExperimentSpec::paper_adore_config();
    cfg.sampling.seed = crate::trace::cell_seed(&[tool, section, name]);
    let report = bench_harness::run_adore(&w, &bin, &cfg);
    assert_eq!(
        Some(report.cycles),
        row.get("adore_cycles").and_then(Json::as_u64)
    );
    assert!(
        report.windows > 0,
        "the cell must sample for its seed to matter"
    );
}
