//! `lab serve` — the resident experiment service: `ExperimentSpec`
//! cells arrive as JSON lines on stdin and result rows stream back out
//! on stdout, in submission order, as soon as each row (and all its
//! predecessors) completes.
//!
//! Request lines:
//!
//! ```text
//! {"workload":"mcf","tool":"fig7","section":"part_a","opts":"o2","measure":"comparison"}
//! ```
//!
//! * `workload` (required) — a suite or scenario-family workload name;
//! * `tool` / `section` (default `serve` / `cells`) — the identity the
//!   cell's deterministic sampling seed derives from, exactly as in
//!   the batch engine: a serve cell with the same tool/section/workload
//!   triple produces byte-identical row fields to its batch
//!   counterpart;
//! * `opts` — `o2` (default) | `o3` | `o2_original`;
//! * `measure` — `plain` | `comparison` (default) |
//!   `pipeline_comparison` | `overhead` | `streams` | `timeline` |
//!   `breakdown` | `policy` | `guided` (with optional `coverage`,
//!   default 0.9);
//! * `compare` — for `measure:"compare_compile"`, the other options
//!   preset.
//!
//! Response lines (stdout, one per request, strict submission order):
//!
//! ```text
//! {"index":0,"section":"part_a","row":{...}}
//! ```
//!
//! A malformed request still produces its response line, with an
//! `error` field inside the row. Volatile statistics (persistent-store
//! hits, steal counts) go to stderr only, so the stdout stream is
//! byte-identical for any `--jobs` value.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use compiler::CompileOptions;
use obs::Json;
use workloads::Workload;

use crate::cli::{Cli, Registry};
use crate::engine::{cell_seed, run_cell, BaselineChoice, LegStats};
use crate::{BaselineCache, Cell, ExperimentSpec, Measure};

pub(crate) const ABOUT: &str = "resident service: spec cells as JSON lines in, rows streamed out";

pub(crate) fn registry() -> Registry {
    Registry::new("serve", ABOUT)
        .value("baseline-dir", None, "persistent baseline store directory (env ADORE_BASELINE_DIR)")
        .flag("no-baseline-store", "disable the persistent baseline store")
}

/// What one `serve` session did — returned by [`serve_io`] so tests
/// and the summary line share one source.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Cells processed (rows emitted).
    pub cells: usize,
    /// Rows that carry an `error` field.
    pub errors: usize,
    /// Persistent-store hits (0 when the store is disabled).
    pub store_hits: usize,
    /// Persistent-store misses (0 when the store is disabled).
    pub store_misses: usize,
}

/// One accepted request: the section key for the response envelope and
/// either a runnable cell or the error message to embed.
struct Task {
    section: String,
    bench: String,
    cell: Result<Cell, String>,
}

fn parse_opts(name: &str) -> Result<CompileOptions, String> {
    match name {
        "o2" => Ok(CompileOptions::o2()),
        "o3" => Ok(CompileOptions::o3()),
        "o2_original" => Ok(CompileOptions::o2_original()),
        other => Err(format!("unknown opts `{other}` (expected o2 | o3 | o2_original)")),
    }
}

fn parse_measure(req: &Json) -> Result<Measure, String> {
    let name = req.get("measure").and_then(Json::as_str).unwrap_or("comparison");
    match name {
        "plain" => Ok(Measure::Plain),
        "comparison" => Ok(Measure::Comparison),
        "pipeline_comparison" => Ok(Measure::PipelineComparison),
        "overhead" => Ok(Measure::Overhead),
        "streams" => Ok(Measure::Streams),
        "timeline" => Ok(Measure::Timeline),
        "breakdown" => Ok(Measure::Breakdown),
        "policy" => Ok(Measure::Policy),
        "guided" => {
            let coverage = req.get("coverage").and_then(Json::as_f64).unwrap_or(0.9);
            Ok(Measure::GuidedPrefetch { coverage })
        }
        "compare_compile" => {
            let other = req.get("compare").and_then(Json::as_str).unwrap_or("o2_original");
            Ok(Measure::CompareCompile(Box::new(parse_opts(other)?)))
        }
        other => Err(format!("unknown measure `{other}`")),
    }
}

/// Parses one request line into a [`Task`]. The suite lookup resolves
/// the workload's `'static` name; the cell seed derives from
/// (tool, section, workload) exactly like [`ExperimentSpec`] grids.
fn parse_request(line: &str, suite: &[Workload]) -> Task {
    let parsed: Result<Json, String> = Json::parse(line).map_err(|e| format!("bad request: {e}"));
    let req = match parsed {
        Ok(req) => req,
        Err(e) => {
            return Task { section: "cells".into(), bench: "?".into(), cell: Err(e) };
        }
    };
    let section = req.get("section").and_then(Json::as_str).unwrap_or("cells").to_string();
    let tool = req.get("tool").and_then(Json::as_str).unwrap_or("serve").to_string();
    let bench = req.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
    let cell = (|| {
        let name = req
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| "request is missing `workload`".to_string())?;
        let w = suite
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let opts = parse_opts(req.get("opts").and_then(Json::as_str).unwrap_or("o2"))?;
        let measure = parse_measure(&req)?;
        let mut adore = ExperimentSpec::paper_adore_config();
        adore.sampling.seed = cell_seed(&[&tool, &section, w.name]);
        Ok(Cell {
            workload: w.name,
            opts,
            adore,
            machine: ExperimentSpec::paper_machine_config(),
            measure,
            extra: Json::object(),
        })
    })();
    Task { section, bench, cell }
}

/// The testable core: requests from `input`, response lines to `out`.
/// Requests run on the work-stealing pool while the feeder keeps
/// reading, and responses flush line-by-line so a consumer sees a
/// stable, byte-deterministic prefix even mid-stream.
pub fn serve_io(cli: &Cli, input: impl BufRead + Send, out: &mut impl Write) -> ServeSummary {
    let suite = workloads::all(cli.scale);
    let choice = match cli.flag_value("baseline-dir") {
        _ if cli.flag("no-baseline-store") => BaselineChoice::Disabled,
        Some(dir) => BaselineChoice::Dir(PathBuf::from(dir)),
        None => BaselineChoice::Default,
    };
    let store = choice.open("serve");
    let cache = BaselineCache::with_store(store.clone());
    let legs = LegStats::default();

    let mut cells = 0usize;
    let mut errors = 0usize;
    let (suite_ref, cache_ref, legs_ref) = (&suite, &cache, &legs);
    obs::pool::service_scope(
        cli.jobs.max(1),
        |_| (),
        |_: &mut (), _i, task: Task| {
            let row = match &task.cell {
                Ok(cell) => match run_cell(cell, suite_ref, cache_ref, legs_ref) {
                    Ok(row) => row,
                    Err(e) => {
                        Json::object().with("bench", task.bench.as_str()).with("error", e.to_string())
                    }
                },
                Err(e) => {
                    Json::object().with("bench", task.bench.as_str()).with("error", e.as_str())
                }
            };
            (task.section, row)
        },
        move |sub| {
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                sub.push(parse_request(&line, suite_ref));
            }
        },
        |i, (section, row): (String, Json)| {
            cells += 1;
            if row.get("error").is_some() {
                errors += 1;
            }
            let envelope = Json::object().with("index", i).with("section", section).with("row", row);
            let _ = writeln!(out, "{envelope}");
            let _ = out.flush();
        },
    );

    let (store_hits, store_misses) = store.as_ref().map(|s| s.stats()).unwrap_or((0, 0));
    ServeSummary { cells, errors, store_hits, store_misses }
}

pub(crate) fn run(cli: Cli) {
    // StdinLock is not Send (the feeder runs on its own thread), so
    // wrap the Send-able handle in a fresh BufReader instead.
    let stdin = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout();
    let s = serve_io(&cli, stdin, &mut stdout);
    // Volatile statistics stay on stderr: the stdout stream must be
    // byte-identical for any --jobs value and any prior store state.
    eprintln!(
        "[serve] {} cells ({} errors), store {} hits / {} misses",
        s.cells, s.errors, s.store_hits, s.store_misses
    );
    if s.errors > 0 {
        std::process::exit(1);
    }
}
