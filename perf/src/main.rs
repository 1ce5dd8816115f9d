//! `perf` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--chrome=FILE]
//! perf run <workload> [--seed=N] [--seconds=S] [--smoke]
//! perf trace <workload> [--seed=N] [--seconds=S] [--smoke] [--chrome=FILE]
//! perf compare <parent.jsonl> <change.jsonl> [--claim=<metric>@<workload>]
//! ```
//!
//! A run prints two JSON lines on stdout: a detail line (workload,
//! seed, `ncpu`, `ops`, `failed`, every metric as `{value, unit, n}`,
//! plus the simulated results that must repeat exactly) and, last, the
//! result line `{correct, attempted, failed, metrics}`. An untraced run
//! (`run`, `--trace 0`) reports the end-to-end metrics declared in
//! `BENCHMARK.json`; a traced run (`trace`, `--trace 1`) reports the
//! per-layer metrics. Both refuse to print a metric set that differs
//! from the declaration. See `README.md` for the workloads and the
//! layer-to-end-to-end map.

mod compare;
#[cfg(test)]
mod conformance;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use obs::Json;

use crate::workload::{Kind, Scratch, Size};

/// The benchmark declaration, compiled in so the printed metric set
/// and the compare tool's bounds come from one file.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better (end-to-end metrics only).
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// The parsed declaration: end-to-end and per-layer metric lists.
pub struct Declaration {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    pub fn load() -> Declaration {
        let json = Json::parse(DECLARATION).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Declared> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
                .iter()
                .map(|m| Declared {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .to_string(),
                    lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        let workloads = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lacks `workloads`")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("workload name")
                    .to_string()
            })
            .collect();
        Declaration {
            workloads,
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a median or percentile.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}

/// What one run measured and checked.
pub struct Outcome {
    /// Operations attempted (cells, cases or requests).
    pub ops: u64,
    /// Error rows, oracle mismatches, undecided and inconclusive cases,
    /// and missing serve rows.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The metrics the declaration lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further host-time figures that carry no bound.
    pub detail: Json,
    /// Simulated results: identical on every run of a seed, and on
    /// both sides of a host-only change.
    pub sim: Json,
}

/// Parsed command line of a run.
pub struct Params {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub trace: bool,
    pub chrome: Option<PathBuf>,
    /// When the run began; `--seconds` counts from here.
    pub started: Instant,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--chrome=FILE]\n  \
         perf run|trace <workload> [--seed=N] [--seconds=S] [--smoke] [--chrome=FILE]\n  \
         perf compare <parent.jsonl> <change.jsonl> [--claim=<metric>@<workload>]\n\nworkloads: {}",
        Kind::ALL.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

/// Splits argv into positionals and `--flag[=value]` pairs; flags that
/// take a value may also give it as the next argument.
fn split_args(args: &[String]) -> (Vec<String>, Vec<(String, Option<String>)>) {
    const VALUED: [&str; 6] = ["workload", "seed", "seconds", "trace", "chrome", "claim"];
    let (mut pos, mut flags) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(body) = a.strip_prefix("--") else {
            pos.push(a.clone());
            continue;
        };
        match body.split_once('=') {
            Some((k, v)) => flags.push((k.to_string(), Some(v.to_string()))),
            None if VALUED.contains(&body) => flags.push((body.to_string(), it.next().cloned())),
            None => flags.push((body.to_string(), None)),
        }
    }
    (pos, flags)
}

fn parse_params(pos: &[String], flags: &[(String, Option<String>)]) -> Params {
    let mut trace = pos.first().map(String::as_str) == Some("trace");
    let mut name = pos.get(1).cloned();
    let (mut seed, mut seconds, mut smoke, mut chrome) = (1u64, 12.0f64, false, None);
    for (k, v) in flags {
        let v = v.as_deref();
        let bad = || -> ! {
            eprintln!("perf: bad value for --{k}: {v:?}");
            usage()
        };
        match k.as_str() {
            "workload" => name = v.map(str::to_string),
            "seed" => seed = v.and_then(|s| s.parse().ok()).unwrap_or_else(|| bad()),
            "seconds" => {
                seconds = v
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "trace" => {
                trace = match v {
                    Some("0") => false,
                    Some("1") => true,
                    _ => bad(),
                }
            }
            "smoke" if v.is_none() => smoke = true,
            "chrome" => chrome = Some(PathBuf::from(v.unwrap_or_else(|| bad()))),
            _ => {
                eprintln!("perf: unknown flag --{k}");
                usage()
            }
        }
    }
    let Some(kind) = name.as_deref().and_then(Kind::from_name) else {
        eprintln!("perf: missing or unknown workload {name:?}");
        usage()
    };
    let size = if smoke { Size::smoke() } else { Size::full() };
    Params {
        kind,
        seed,
        seconds,
        size,
        trace,
        chrome,
        started: Instant::now(),
    }
}

/// Runs one workload, checks the metric set against the declaration,
/// and returns the detail line and the result line.
pub fn measure(p: &Params) -> (Outcome, Json, Json) {
    let scratch = Scratch::new().expect("create the benchmark scratch directory");
    let mut out = if p.trace {
        trace::run(p, &scratch)
    } else {
        workload::run(p, &scratch)
    };
    let decl = Declaration::load();
    let wanted = if p.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let mut emitted: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut declared: Vec<(&str, &str)> = wanted
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    emitted.sort_unstable();
    declared.sort_unstable();
    assert_eq!(
        emitted, declared,
        "the metric set must match BENCHMARK.json"
    );
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("{} is not finite ({})", m.name, m.value));
        }
    }

    let mut metrics = Json::object();
    let mut bare = Json::object();
    for m in &out.metrics {
        let mut v = Json::object().with("value", m.value).with("unit", m.unit);
        bare.set(&m.name, v.clone());
        if let Some(n) = m.n {
            v.set("n", n);
        }
        metrics.set(&m.name, v);
    }
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let detail = Json::object()
        .with("workload", p.kind.name())
        .with("seed", p.seed)
        .with("mode", if p.trace { "trace" } else { "run" })
        .with("ncpu", ncpu)
        .with("peak_rss_mb", workload::peak_rss_mb())
        .with("ops", out.ops)
        .with("failed", out.failed)
        .with("problems", out.problems.clone())
        .with("metrics", metrics)
        .with("detail", out.detail.clone())
        .with("sim", out.sim.clone());
    let result = Json::object()
        .with("correct", out.problems.is_empty())
        .with("attempted", out.ops.max(1))
        .with("failed", out.failed)
        .with("metrics", bare);
    (out, detail, result)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pos, flags) = split_args(&args);
    match pos.first().map(String::as_str) {
        Some("compare") => {
            let (Some(parent), Some(change)) = (pos.get(1), pos.get(2)) else {
                usage()
            };
            let claim = flags
                .iter()
                .find(|(k, _)| k == "claim")
                .and_then(|(_, v)| v.clone());
            std::process::exit(compare::main(parent, change, claim.as_deref()));
        }
        Some("run" | "trace") | None => {}
        Some(other) => {
            eprintln!("perf: unknown command `{other}`");
            usage()
        }
    }
    let p = parse_params(&pos, &flags);
    let (out, detail, result) = measure(&p);
    println!("{detail}");
    println!("{result}");
    for problem in &out.problems {
        eprintln!("[perf] FAILED CHECK: {problem}");
    }
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}
