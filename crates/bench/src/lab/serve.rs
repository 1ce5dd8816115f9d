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
//! * `tool` / `section` (default `serve` / `cells`) — the cell identity
//!   its deterministic sampling seed derives from. Served cells run
//!   through the engine's own cell path (the same runner, seeding and
//!   `error` rows as a grid), so a serve cell with the same
//!   tool/section/workload triple produces byte-identical row fields to
//!   its batch counterpart — a failed one included;
//! * `opts` — `o2` (default) | `o3` | `o2_original`;
//! * `measure` — a [`Measure::name`]: `plain` | `compare_compile` |
//!   `comparison` (default) | `pipeline_comparison` | `overhead` |
//!   `streams` | `timeline` | `guided` | `breakdown` | `policy` |
//!   `explain`;
//! * `coverage` — for `measure:"guided"`, the fraction of sampled miss
//!   latency the kept loops must cover, a number in (0, 1] (default
//!   0.9);
//! * `compare` — for `measure:"compare_compile"`, the other options
//!   preset (default `o2_original`).
//!
//! Response lines (stdout, one per request, strict submission order):
//!
//! ```text
//! {"index":0,"section":"part_a","row":{...}}
//! ```
//!
//! A malformed request still produces its response line, with an
//! `error` field inside the row: unparsable JSON, a missing or unknown
//! workload, an unknown `opts`, `measure` or `compare` name, a field of
//! the wrong type, or a `coverage` outside (0, 1]. Volatile statistics
//! (persistent-store hits and misses) go to stderr only, so the stdout
//! stream is byte-identical for any `--jobs` value.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::engine::{error_row, BaselineChoice, CellRunner};
use crate::{Cell, Measure};

pub(crate) fn registry() -> Registry {
    Registry::new("serve", "resident service: spec cells as JSON lines in, rows streamed out")
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

/// One accepted request: the cell identity and either a runnable cell
/// or the `error` row of a request that never became one.
struct Task {
    tool: String,
    section: String,
    cell: Result<Cell, Json>,
}

fn parse_opts(name: &str) -> Result<CompileOptions, String> {
    match name {
        "o2" => Ok(CompileOptions::o2()),
        "o3" => Ok(CompileOptions::o3()),
        "o2_original" => Ok(CompileOptions::o2_original()),
        other => Err(format!("unknown opts `{other}` (expected o2 | o3 | o2_original)")),
    }
}

/// The string field `key` of `req`, if present. Present with another
/// type, it is an error, never a silent default.
fn str_field<'r>(req: &'r Json, key: &str) -> Result<Option<&'r str>, String> {
    req.get(key).map(|v| v.as_str().ok_or_else(|| format!("`{key}` must be a string"))).transpose()
}

fn parse_measure(req: &Json) -> Result<Measure, String> {
    let name = str_field(req, "measure")?.unwrap_or("comparison");
    let mut measure = Measure::named(name).ok_or_else(|| format!("unknown measure `{name}`"))?;
    match &mut measure {
        Measure::GuidedPrefetch { coverage } => {
            if let Some(c) = req.get("coverage") {
                *coverage = (c.as_f64().filter(|c| *c > 0.0 && *c <= 1.0))
                    .ok_or_else(|| format!("`coverage` must be a number in (0, 1], got {c}"))?;
            }
        }
        Measure::CompareCompile(other) => {
            if let Some(name) = str_field(req, "compare")? {
                **other = parse_opts(name)?;
            }
        }
        _ => {}
    }
    Ok(measure)
}

/// Parses one request line into a [`Task`]. The runner's suite
/// resolves the workload's `'static` name.
fn parse_request(line: &str, runner: &CellRunner) -> Task {
    let req = match Json::parse(line) {
        Ok(req) => req,
        Err(e) => {
            let cell = Err(error_row("?", format!("bad request: {e}")));
            return Task { tool: "serve".into(), section: "cells".into(), cell };
        }
    };
    let identity = |key, default| str_field(&req, key).map(|v| v.unwrap_or(default));
    let (tool, section) = (identity("tool", "serve"), identity("section", "cells"));
    let cell = (|| -> Result<Cell, String> {
        let name = str_field(&req, "workload")?.ok_or("request is missing `workload`")?;
        let workload = runner.workload(name).map_err(|e| e.to_string())?.name;
        // A bad identity field fails the cell; the task falls back to
        // the default identity for its response line.
        tool.clone()?;
        section.clone()?;
        let opts = parse_opts(str_field(&req, "opts")?.unwrap_or("o2"))?;
        Ok(Cell::new(workload, opts, parse_measure(&req)?))
    })();
    let bench = str_field(&req, "workload").ok().flatten().unwrap_or("?");
    Task {
        tool: tool.unwrap_or("serve").into(),
        section: section.unwrap_or("cells").into(),
        cell: cell.map_err(|e| error_row(bench, e)),
    }
}

/// The testable core: requests from `input`, response lines to `out`.
/// Requests run on the worker pool while the feeder keeps
/// reading, and responses flush line-by-line so a consumer sees a
/// stable, byte-deterministic prefix even mid-stream.
pub fn serve_io(cli: &Cli, input: impl BufRead + Send, out: &mut impl Write) -> ServeSummary {
    let choice = match cli.flag_value("baseline-dir") {
        _ if cli.flag("no-baseline-store") => BaselineChoice::Disabled,
        Some(dir) => BaselineChoice::Dir(PathBuf::from(dir)),
        None => BaselineChoice::Default,
    };
    // A reference, so the `move` feeder below borrows the runner.
    let runner = &CellRunner::new(cli.scale, &[], &choice, "serve");

    let mut cells = 0usize;
    let mut errors = 0usize;
    obs::pool::service_scope(
        cli.jobs.max(1),
        |_| (),
        |_: &mut (), _i, task: Task| {
            let row = match task.cell {
                Ok(cell) => runner.row(&task.tool, &task.section, cell),
                Err(row) => row,
            };
            (task.section, row)
        },
        move |sub| {
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                sub.push(parse_request(&line, runner));
            }
        },
        |i, (section, row): (String, Json)| {
            cells += 1;
            if row.get("error").is_some() {
                errors += 1;
            }
            let envelope =
                Json::object().with("index", i).with("section", section).with("row", row);
            let _ = writeln!(out, "{envelope}");
            let _ = out.flush();
        },
    );

    let (store_hits, store_misses) = runner.store_stats();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_the_wrong_type_are_errors() {
        let runner = CellRunner::new(0.05, &[], &BaselineChoice::Disabled, "unit");
        let ok = r#"{"workload":"mcf","opts":"o3","measure":"compare_compile","compare":"o2"}"#;
        assert!(parse_request(ok, &runner).cell.is_ok());
        for (field, value) in [
            ("workload", "1"),
            ("tool", "1"),
            ("section", "null"),
            ("opts", "[]"),
            ("measure", "true"),
            ("compare", "{}"),
        ] {
            let mut req = Json::parse(r#"{"workload":"mcf","measure":"compare_compile"}"#).unwrap();
            req.set(field, Json::parse(value).unwrap());
            let line = req.to_string();
            let row = parse_request(&line, &runner).cell.expect_err(&line);
            let message = row.get("error").and_then(Json::as_str).unwrap();
            assert_eq!(message, format!("`{field}` must be a string"), "{line}");
        }
        for coverage in ["0", "-0.5", "1.5", "1e999"] {
            let line = format!(r#"{{"workload":"mcf","measure":"guided","coverage":{coverage}}}"#);
            assert!(parse_request(&line, &runner).cell.is_err(), "{line}");
        }
    }
}
