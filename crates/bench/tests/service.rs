//! Service-level guarantees the `lab` redesign is sold on: the
//! `lab serve` response stream is byte-identical for any worker count
//! and row-for-row identical to the batch engine; the persistent
//! baseline store round-trips across runs (second run recomputes
//! nothing) and recovers from corrupted entries by recomputing them.

use std::fs;
use std::path::PathBuf;

use bench_harness::lab::serve::serve_io;
use bench_harness::*;
use compiler::CompileOptions;
use obs::Json;

/// A unique per-test scratch directory (fresh on every invocation).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adore-service-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A `Cli` for `serve_io` with the persistent store disabled, so the
/// stream depends on nothing outside the request lines.
fn serve_cli(jobs: usize) -> Cli {
    let mut c = Cli::fixed(0.05, jobs);
    c.values.push(("no-baseline-store".into(), None));
    c
}

const REQUESTS: &str = concat!(
    r#"{"workload":"swim","tool":"unit","section":"comparison","measure":"comparison"}"#,
    "\n",
    r#"{"workload":"art","tool":"unit","section":"comparison","measure":"comparison"}"#,
    "\n",
);

fn serve_stream(jobs: usize, requests: &str) -> (String, usize, usize) {
    let mut out = Vec::new();
    let summary = serve_io(&serve_cli(jobs), requests.as_bytes(), &mut out);
    (String::from_utf8(out).expect("utf8 stream"), summary.cells, summary.errors)
}

#[test]
fn serve_stream_is_byte_identical_across_worker_counts() {
    let (serial, cells, errors) = serve_stream(1, REQUESTS);
    let (parallel, _, _) = serve_stream(4, REQUESTS);
    assert_eq!(serial, parallel, "stream must not depend on --jobs");
    assert_eq!((cells, errors), (2, 0));

    // Each response line is a well-formed envelope in submission order.
    for (i, line) in serial.lines().enumerate() {
        let env = Json::parse(line).expect("envelope parses");
        assert_eq!(env.get("index").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(env.get("section").and_then(Json::as_str), Some("comparison"));
        assert!(env.get("row").and_then(|r| r.get("bench")).is_some());
    }
}

#[test]
fn serve_rows_match_the_batch_engine() {
    // The same (tool, section, workload) triple must produce the same
    // bytes whether it arrives as a request line or as a grid cell —
    // the serve path derives its per-cell seed identically, and a cell
    // that fails (an unknown workload) gets the same `error` row.
    let unknown = r#"{"workload":"nosuch","tool":"unit","section":"comparison"}"#;
    let (stream, cells, errors) = serve_stream(2, &format!("{REQUESTS}{unknown}\n"));
    assert_eq!((cells, errors), (3, 1));
    let served: Vec<Json> =
        stream.lines().map(|l| Json::parse(l).unwrap().get("row").expect("row").clone()).collect();

    let batch = ExperimentSpec::paper_defaults("unit", &Cli::fixed(0.05, 2))
        .baseline_dir(None)
        .section(
            "comparison",
            &["swim", "art", "nosuch"],
            CompileOptions::o2(),
            Measure::Comparison,
        )
        .run();
    let rows = batch.rows("comparison");
    assert!(je(&rows[2]).expect("unknown-workload row").contains("unknown workload"));
    assert_eq!(served.len(), rows.len());
    for (served, batch) in served.iter().zip(rows) {
        assert_eq!(served.to_string(), batch.to_string());
    }
}

#[test]
fn a_bad_request_fails_only_its_own_row() {
    // A `coverage` outside (0, 1] once tripped an assertion that killed
    // the whole session, losing every later request; a value of the
    // wrong type was silently replaced by the default.
    let requests = concat!(
        r#"{"workload":"mcf","tool":"unit","section":"s","measure":"comparison"}"#,
        "\n",
        r#"{"workload":"mcf","tool":"unit","section":"s","measure":"guided","coverage":2}"#,
        "\n",
        r#"{"workload":"art","tool":"unit","section":"s","measure":"comparison"}"#,
        "\n",
        r#"{"workload":"mcf","tool":"unit","section":"s","measure":"guided","coverage":"0.5"}"#,
        "\n",
    );
    let (stream, cells, errors) = serve_stream(2, requests);
    assert_eq!((cells, errors), (4, 2), "{stream}");
    let rows: Vec<Json> =
        stream.lines().map(|l| Json::parse(l).unwrap().get("row").unwrap().clone()).collect();
    assert!(je(&rows[0]).is_none() && je(&rows[2]).is_none(), "{stream}");
    assert_eq!(js(&rows[2], "bench"), "art");
    for bad in [&rows[1], &rows[3]] {
        assert!(je(bad).unwrap().contains("`coverage` must be a number in (0, 1]"), "{bad}");
    }
}

#[test]
fn every_measure_name_round_trips_through_serve() {
    // Serve parses a request's `measure` from the engine's own name
    // table, so every measure (`explain` included) is servable and
    // yields the row the batch engine gives the same cell.
    let measures = Measure::all();
    let requests: String = measures
        .iter()
        .map(|m| {
            let name = m.name();
            format!(r#"{{"workload":"mcf","tool":"unit","section":"{name}","measure":"{name}"}}"#)
                + "\n"
        })
        .collect();
    let (stream, cells, errors) = serve_stream(2, &requests);
    assert_eq!((cells, errors), (measures.len(), 0), "{stream}");

    let mut spec = ExperimentSpec::paper_defaults("unit", &Cli::fixed(0.05, 2)).baseline_dir(None);
    for m in &measures {
        assert_eq!(Measure::named(m.name()).map(|n| n.name()), Some(m.name()));
        spec = spec.section(m.name(), &["mcf"], CompileOptions::o2(), m.clone());
    }
    let batch = spec.run();
    for (line, m) in stream.lines().zip(&measures) {
        let env = Json::parse(line).expect("envelope parses");
        assert_eq!(env.get("section").and_then(Json::as_str), Some(m.name()));
        let served = env.get("row").expect("row").to_string();
        assert_eq!(served, batch.rows(m.name())[0].to_string(), "measure {}", m.name());
    }
}

fn store_spec(dir: &PathBuf) -> ExperimentSpec {
    ExperimentSpec::paper_defaults("unit_store", &Cli::fixed(0.05, 2))
        .baseline_dir(Some(dir.clone()))
        .section("comparison", &["swim", "art"], CompileOptions::o2(), Measure::Comparison)
        .section("overhead", &["swim", "art"], CompileOptions::o2(), Measure::Overhead)
}

fn comparison_rows(r: &EngineResult) -> String {
    r.rows("comparison").iter().map(Json::to_string).collect::<Vec<_>>().join("\n")
}

#[test]
fn persistent_store_is_reused_on_a_second_run() {
    let dir = scratch("reuse");

    let first = store_spec(&dir).run();
    assert_eq!(first.failed, 0);
    // Cold store: both unique baselines (swim, art) were computed and
    // persisted; the overhead section reuses them in memory.
    assert_eq!((first.store_hits, first.store_misses), (0, 2));
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "one entry per baseline");

    let second = store_spec(&dir).run();
    assert_eq!(second.failed, 0);
    // Warm store: zero recomputed baselines, and the rows are the same
    // bytes the cold run produced.
    assert_eq!((second.store_hits, second.store_misses), (2, 0));
    assert_eq!(comparison_rows(&first), comparison_rows(&second));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_entry_is_recomputed_not_trusted() {
    let dir = scratch("corrupt");

    let first = store_spec(&dir).run();
    assert_eq!(first.store_misses, 2);

    // Tamper with one persisted entry. The store must treat it as a
    // miss (checksum mismatch) and recompute — never serve bad data.
    let mut entries: Vec<PathBuf> =
        fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    fs::write(&entries[0], b"{\"store_version\": 1, \"cycles\": 12345").unwrap();

    let second = store_spec(&dir).run();
    assert_eq!(second.failed, 0);
    assert_eq!(
        (second.store_hits, second.store_misses),
        (1, 1),
        "intact entry hits, corrupted entry recomputes"
    );
    assert_eq!(comparison_rows(&first), comparison_rows(&second));

    // The recompute re-persisted a good entry: a third run is all hits.
    let third = store_spec(&dir).run();
    assert_eq!((third.store_hits, third.store_misses), (2, 0));

    let _ = fs::remove_dir_all(&dir);
}
