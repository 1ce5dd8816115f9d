//! The five workloads: their set-up, the timed loop, and the checks on
//! what the program returned.
//!
//! Every workload runs in this process through the public calls `lab`
//! itself uses: [`ExperimentSpec`] grids, `lab::serve::serve_io`, and
//! the oracle's `generate` / `check_case` / `run_campaign`. Baseline
//! stores and campaign corpora live in a scratch directory under the
//! working directory that is deleted on exit, so a run leaves nothing
//! behind and never reuses state from an earlier run.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bench_harness::lab::serve::serve_io;
use bench_harness::{paper_fig7a, Cli, ExperimentSpec, Measure, FAMILY_ORDER, PAPER_ORDER};
use compiler::CompileOptions;
use obs::Json;
use oracle::{
    check_case, generate, run_campaign, CampaignConfig, CampaignStats, CaseResult, CaseRunner,
    DiffConfig, GenConfig,
};

use crate::stats::{median, percentile, tail_pct};
use crate::{Metric, Outcome, Params};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig7Cold,
    PolicyWarm,
    FuzzFast,
    Campaign,
    ServeStream,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Fig7Cold,
        Kind::PolicyWarm,
        Kind::FuzzFast,
        Kind::Campaign,
        Kind::ServeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Cold => "fig7_cold",
            Kind::PolicyWarm => "policy_warm",
            Kind::FuzzFast => "fuzz_fast",
            Kind::Campaign => "campaign",
            Kind::ServeStream => "serve_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. The full sizes keep one run near twelve seconds on a
/// two-core host; the smoke sizes exist for the conformance tests.
pub struct Size {
    /// Workload scale of the grids (`lab --quick` is 0.25; at 0.1 the
    /// optimizer still patches traces on most workloads).
    pub scale: f64,
    pub fig7: Vec<&'static str>,
    pub policy: Vec<&'static str>,
    pub fuzz_batch: usize,
    pub fuzz_warmup: usize,
    pub campaign_rounds: usize,
    pub campaign_batch: usize,
    /// Serve cells are smaller than grid cells, so a stream of every
    /// (measure, workload) pair fits in a few seconds.
    pub serve_scale: f64,
    pub serve: Vec<&'static str>,
    /// Open-loop arrival rate, requests per second.
    pub serve_rate: f64,
}

/// Workers of the serve pool; every other workload runs one.
pub const SERVE_WORKERS: usize = 2;
/// The serve measures; a stream requests each served workload once
/// per measure.
const SERVE_MEASURES: [&str; 3] = ["comparison", "overhead", "streams"];

impl Size {
    pub fn full() -> Size {
        let all: Vec<&'static str> = PAPER_ORDER
            .iter()
            .chain(FAMILY_ORDER.iter())
            .copied()
            .collect();
        Size {
            scale: 0.1,
            fig7: PAPER_ORDER.to_vec(),
            policy: all.clone(),
            fuzz_batch: 256,
            fuzz_warmup: 16,
            campaign_rounds: 4,
            campaign_batch: 48,
            serve_scale: 0.05,
            // applu and parser are the two longest cells; leaving them
            // out keeps one request from holding the stream's head.
            serve: all
                .into_iter()
                .filter(|w| !matches!(*w, "applu" | "parser"))
                .collect(),
            serve_rate: 10.0,
        }
    }

    pub fn smoke() -> Size {
        Size {
            scale: 0.1,
            fig7: vec!["mcf", "swim"],
            policy: vec!["mcf", "gc"],
            fuzz_batch: 8,
            fuzz_warmup: 2,
            campaign_rounds: 1,
            campaign_batch: 6,
            serve_scale: 0.05,
            serve: vec!["swim", "gzip"],
            serve_rate: 50.0,
        }
    }
}

// ---------------------------------------------------------------------
// Scratch space and process-level measurements

/// A directory for stores and corpora, removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        static INSTANCE: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::current_dir()?.join(".perf_scratch").join(format!(
            "{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let dir = self.root.join(format!(
            "{tag}-{}",
            self.next.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create a scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Succeeds only when no other run is using the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the identical `job` twice, then again while the next run is
/// expected to end less than half a run past `--seconds` (counted from
/// the start of the run, set-up included). Returns the jobs' walls.
fn repeat_for(p: &Params, mut job: impl FnMut(usize)) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        job(walls.len());
        walls.push(secs(t.elapsed()));
        let last = walls[walls.len() - 1];
        if walls.len() >= 2 && secs(p.started.elapsed()) + last / 2.0 > p.seconds {
            return walls;
        }
    }
}

/// Each op's fastest latency over the jobs that ran it. The host slows
/// whole stretches of a run by a tenth or more, and the fastest of
/// repeated identical work is the steadiest estimate of its cost.
fn fastest(jobs: &[Vec<f64>]) -> Vec<f64> {
    let ops = jobs.iter().map(Vec::len).max().unwrap_or(0);
    (0..ops)
        .map(|i| {
            jobs.iter()
                .filter_map(|j| j.get(i))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Times the run's set-ups, keeping the state of the last one. An
/// untraced run sets up at least three times, and keeps going until
/// a second is spent so that a short set-up gets a steady median.
fn setup<S>(p: &Params, mut once: impl FnMut() -> S) -> (S, Vec<f64>) {
    let (min, max) = if p.trace { (1, 1) } else { (3, 40) };
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let state = once();
        times.push(secs(t.elapsed()));
        if times.len() >= max || (times.len() >= min && times.iter().sum::<f64>() >= 1.0) {
            return (state, times);
        }
    }
}

/// FNV-1a over row text: the identity of a simulated result.
pub fn fnv(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The end-to-end metrics every workload reports.
fn end_to_end(setups: &[f64], wall_s: f64, jobs: usize, op_ms: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("wall_s", wall_s, "s").with_n(jobs),
        Metric::new("op_p50_ms", median(op_ms), "ms").with_n(op_ms.len()),
        Metric::new("setup_s", median(setups), "s").with_n(setups.len()),
    ]
}

/// The tail latency by the "ten samples beyond" rule, with its count.
fn tail(op_ms: &[f64]) -> Json {
    match tail_pct(op_ms.len()) {
        Some(p) => Json::object()
            .with("pct", p)
            .with("value", percentile(op_ms, p))
            .with("unit", "ms")
            .with("n", op_ms.len()),
        None => Json::Null,
    }
}

pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    match p.kind {
        Kind::Fig7Cold | Kind::PolicyWarm => run_grid(p, scratch),
        Kind::FuzzFast => run_fuzz(p),
        Kind::Campaign => run_campaign_workload(p, scratch),
        Kind::ServeStream => run_serve(p, scratch),
    }
}

// ---------------------------------------------------------------------
// Grids: fig7_cold and policy_warm

/// The engine tool name; it seeds every cell's sampling. Seed 1 uses
/// `lab`'s own name, so its rows are the rows `lab` prints.
pub fn tool_name(kind: Kind, seed: u64) -> String {
    let base = match kind {
        Kind::Fig7Cold => "fig7",
        Kind::PolicyWarm => "policy",
        _ => "serve",
    };
    if seed == 1 {
        base.to_string()
    } else {
        format!("{base}#{seed}")
    }
}

/// The report section of a grid (part of each cell's seed).
pub fn section(kind: Kind) -> &'static str {
    if kind == Kind::Fig7Cold {
        "part_a"
    } else {
        "grid"
    }
}

pub fn grid_names(kind: Kind, size: &Size) -> &[&'static str] {
    if kind == Kind::Fig7Cold {
        &size.fig7
    } else {
        &size.policy
    }
}

/// The grid `lab fig7 a` / `lab policy` runs, on one worker, against
/// the store in `store`.
pub fn grid_spec(kind: Kind, seed: u64, size: &Size, store: PathBuf) -> ExperimentSpec {
    let spec = ExperimentSpec::paper_defaults(&tool_name(kind, seed), &Cli::fixed(size.scale, 1))
        .baseline_dir(Some(store));
    let names = grid_names(kind, size);
    match kind {
        Kind::Fig7Cold => spec.section_with(
            section(kind),
            names,
            CompileOptions::o2(),
            Measure::Comparison,
            |c| c.extra("paper_speedup_pct", paper_fig7a(c.workload)),
        ),
        _ => spec.section(section(kind), names, CompileOptions::o2(), Measure::Policy),
    }
}

/// Fills `store` with the plain baselines of `names` through the engine.
pub fn fill_store(names: &[&'static str], scale: f64, store: PathBuf) -> Result<(), String> {
    let r = ExperimentSpec::paper_defaults("fill", &Cli::fixed(scale, 1))
        .baseline_dir(Some(store))
        .section("fill", names, CompileOptions::o2(), Measure::Plain)
        .run();
    if r.failed > 0 {
        return Err(format!("{} baselines failed to build", r.failed));
    }
    Ok(())
}

/// Compiles and loads every workload of a grid: the per-grid work a
/// run must pay before its first cell, and a loud failure before any
/// timing when a workload does not build.
fn validate_grid(names: &[&'static str], scale: f64) -> Result<(), String> {
    let suite = workloads::all(scale);
    for name in names {
        let w = suite
            .iter()
            .find(|w| w.name == *name)
            .ok_or(format!("unknown workload {name}"))?;
        let bin = bench_harness::build(w, &CompileOptions::o2()).map_err(|e| e.to_string())?;
        std::hint::black_box(w.prepare(&bin, ExperimentSpec::paper_machine_config()));
    }
    Ok(())
}

/// One timed pass of a grid: its rows and each cell's latency.
pub struct GridPass {
    pub rows: Vec<Json>,
    pub cell_ms: Vec<f64>,
    pub wall: Duration,
    pub errors: usize,
}

/// Runs the grid once. With one worker, the time between consecutive
/// rows is the later cell's latency.
pub fn grid_pass(kind: Kind, seed: u64, size: &Size, store: PathBuf) -> GridPass {
    let start = Instant::now();
    let mut last = start;
    let mut cell_ms = Vec::new();
    let result = grid_spec(kind, seed, size, store).run_streaming(|_, _, _| {
        let now = Instant::now();
        cell_ms.push(ms(now - last));
        last = now;
    });
    let wall = start.elapsed();
    GridPass {
        rows: result.rows(section(kind)).to_vec(),
        cell_ms,
        wall,
        errors: result.failed,
    }
}

fn grid_checks(
    kind: Kind,
    size: &Size,
    pass: &GridPass,
    first: &[Json],
    problems: &mut Vec<String>,
) {
    let names = grid_names(kind, size);
    if pass.rows.len() != names.len() {
        problems.push(format!(
            "{} rows for {} cells",
            pass.rows.len(),
            names.len()
        ));
    }
    let cycles = if kind == Kind::Fig7Cold {
        &["base_cycles", "adore_cycles"][..]
    } else {
        &["base_cycles", "static_cycles", "adaptive_cycles"][..]
    };
    for (row, name) in pass.rows.iter().zip(names) {
        if let Some(e) = bench_harness::je(row) {
            problems.push(format!("{name}: {e}"));
        } else if bench_harness::js(row, "bench") != *name
            || cycles.iter().any(|k| bench_harness::ju(row, k) == 0)
        {
            problems.push(format!("{name}: malformed row {row}"));
        }
    }
    if pass.rows != first {
        problems.push("rows differ between passes of one seed".into());
    }
}

/// The simulated results of a grid: they depend on the seed only.
pub fn grid_sim(kind: Kind, rows: &[Json]) -> Json {
    let mean = |key: &str| {
        rows.iter().map(|r| bench_harness::jf(r, key)).sum::<f64>() / rows.len().max(1) as f64
    };
    let text: String = rows.iter().map(|r| r.to_string()).collect();
    let sim = Json::object().with("rows_fnv", fnv(&text));
    match kind {
        Kind::Fig7Cold => {
            let err = rows
                .iter()
                .map(|r| {
                    (bench_harness::jf(r, "speedup_pct")
                        - bench_harness::jf(r, "paper_speedup_pct"))
                    .abs()
                })
                .sum::<f64>()
                / rows.len().max(1) as f64;
            sim.with("speedup_pct_mean", mean("speedup_pct"))
                .with("paper_abs_err_pct", err)
        }
        _ => sim
            .with("speedup_pct_mean", mean("adaptive_speedup_pct"))
            .with("static_speedup_pct_mean", mean("static_speedup_pct"))
            .with("policy_delta_pct_mean", mean("delta_pct")),
    }
}

/// Simulated instructions in a fig7 row: the plain and the ADORE leg.
fn row_retired(row: &Json) -> u64 {
    ["base", "adore"]
        .iter()
        .filter_map(|leg| {
            row.get(leg)
                .and_then(|s| s.get("pmu"))
                .and_then(|p| p.get("retired"))
        })
        .filter_map(Json::as_u64)
        .sum()
}

/// Set-up of a grid: fig7_cold checks that every workload builds;
/// policy_warm also fills a fresh store with the plain baselines, which
/// its timed passes then read.
pub fn grid_setup(p: &Params, scratch: &Scratch) -> (Option<PathBuf>, Vec<f64>) {
    let (kind, size) = (p.kind, &p.size);
    setup(p, || {
        let names = grid_names(kind, size);
        validate_grid(names, size.scale).expect("grid workloads build");
        (kind == Kind::PolicyWarm).then(|| {
            let store = scratch.fresh("store");
            fill_store(names, size.scale, store.clone()).expect("store fill");
            store
        })
    })
}

fn run_grid(p: &Params, scratch: &Scratch) -> Outcome {
    let (kind, size) = (p.kind, &p.size);
    let (warm, setups) = grid_setup(p, scratch);
    let mut passes: Vec<GridPass> = Vec::new();
    repeat_for(p, |_| {
        // fig7_cold starts every pass from an empty store.
        let store = warm.clone().unwrap_or_else(|| scratch.fresh("store"));
        passes.push(grid_pass(kind, p.seed, size, store));
    });
    let mut problems = Vec::new();
    let first = passes[0].rows.clone();
    for pass in &passes {
        grid_checks(kind, size, pass, &first, &mut problems);
    }
    let cell_ms = fastest(&passes.iter().map(|x| x.cell_ms.clone()).collect::<Vec<_>>());
    let mut detail = Json::object().with("passes", passes.len());
    if kind == Kind::Fig7Cold {
        let insns: u64 = passes
            .iter()
            .flat_map(|x| x.rows.iter().map(row_retired))
            .sum();
        let host: f64 = passes.iter().map(|x| secs(x.wall)).sum();
        detail.set("sim_minsn_per_s", insns as f64 / 1e6 / host);
    }
    Outcome {
        ops: (cell_ms.len() * passes.len()) as u64,
        failed: passes.iter().map(|x| x.errors as u64).sum(),
        problems,
        metrics: end_to_end(
            &setups,
            cell_ms.iter().sum::<f64>() / 1e3,
            passes.len(),
            &cell_ms,
        ),
        detail,
        sim: grid_sim(kind, &first),
    }
}

// ---------------------------------------------------------------------
// fuzz_fast

/// Case seeds as `lab fuzz --seed=N` derives them.
pub fn case_seed(master: u64, case: u64) -> u64 {
    master ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Verdict tallies of checked cases.
#[derive(Default)]
pub struct Tally {
    pub cases: u64,
    pub failed: u64,
    pub patched: u64,
    pub traces: u64,
    pub inconclusive: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// The simulated part of the tally, identical for every run of a
    /// seed.
    pub fn sim(&self) -> Json {
        Json::object()
            .with("cases", self.cases)
            .with("cases_patched", self.patched)
            .with("traces_patched", self.traces)
    }

    fn absorb(&mut self, other: Tally) {
        self.cases += other.cases;
        self.failed += other.failed;
        self.patched += other.patched;
        self.traces += other.traces;
        self.inconclusive += other.inconclusive;
        self.problems.extend(other.problems);
    }

    pub fn add(&mut self, seed: u64, result: &CaseResult) {
        self.cases += 1;
        match result {
            CaseResult::Agree { traces_patched, .. } => {
                self.patched += u64::from(*traces_patched > 0);
                self.traces += *traces_patched as u64;
            }
            CaseResult::Inconclusive { .. } => {
                self.inconclusive += 1;
                self.failed += 1;
            }
            CaseResult::Undecided(_) => self.failed += 1,
            CaseResult::Mismatch(m) => {
                self.failed += 1;
                self.problems.push(format!(
                    "case {seed:#x} diverged at {}: {}",
                    m.stage, m.detail
                ));
            }
        }
    }
}

/// Seed of the warm-up work in set-up: fixed, so set-up does the same
/// work whatever the run's seed.
const WARMUP_SEED: u64 = 0x5eed_0000;

/// The fuzz set-up: a fresh runner, warmed by cases the timed loop
/// does not check.
pub fn fuzz_setup(p: &Params) -> (CaseRunner, Vec<f64>) {
    setup(p, || {
        let mut runner = CaseRunner::new();
        for i in 0..p.size.fuzz_warmup as u64 {
            let (spec, _) = generate(case_seed(WARMUP_SEED, i), &GenConfig::default());
            std::hint::black_box(check_case(&spec, &DiffConfig::default(), &mut runner));
        }
        runner
    })
}

fn run_fuzz(p: &Params) -> Outcome {
    let (mut runner, setups) = fuzz_setup(p);
    let (gen, diff) = (GenConfig::default(), DiffConfig::default());
    let mut jobs: Vec<Vec<f64>> = Vec::new();
    let mut tally = Tally::default();
    let mut first = Json::Null;
    let mut problems = Vec::new();
    repeat_for(p, |job| {
        let mut job_tally = Tally::default();
        let mut case_ms = Vec::new();
        for i in 0..p.size.fuzz_batch as u64 {
            let seed = case_seed(p.seed, i);
            let t = Instant::now();
            let (spec, _) = generate(seed, &gen);
            let (result, _) = check_case(&spec, &diff, &mut runner);
            case_ms.push(ms(t.elapsed()));
            job_tally.add(seed, &result);
        }
        jobs.push(case_ms);
        let sim = job_tally.sim();
        if job == 0 {
            first = sim;
        } else if sim != first {
            problems.push("fuzz verdicts differ between jobs of one seed".into());
        }
        tally.absorb(job_tally);
    });
    let case_ms = fastest(&jobs);
    problems.extend(tally.problems);
    Outcome {
        ops: tally.cases,
        failed: tally.failed,
        problems,
        metrics: end_to_end(
            &setups,
            case_ms.iter().sum::<f64>() / 1e3,
            jobs.len(),
            &case_ms,
        ),
        detail: Json::object()
            .with("jobs", jobs.len())
            .with("op_tail_ms", tail(&case_ms)),
        sim: first,
    }
}

// ---------------------------------------------------------------------
// campaign

/// The campaign of one job: both tiers by case seed, default
/// minimization, a fresh corpus directory.
pub fn campaign_config(seed: u64, size: &Size, dir: PathBuf) -> CampaignConfig {
    CampaignConfig {
        rounds: size.campaign_rounds,
        batch: size.campaign_batch,
        seed,
        jobs: 1,
        alternate_exec: true,
        corpus_dir: Some(dir),
        ..CampaignConfig::default()
    }
}

/// The deterministic summary of a campaign, compared across jobs.
pub fn campaign_sim(s: &CampaignStats) -> Json {
    let keys: String = s
        .coverage
        .iter()
        .map(|(k, n)| format!("{k}={n};"))
        .collect();
    Json::object()
        .with("cases", s.cases)
        .with("coverage_keys", s.coverage.len())
        .with("coverage_fnv", fnv(&keys))
        .with("corpus_added", s.corpus_added)
        .with("cases_with_patches", s.cases_with_patches)
}

pub fn campaign_setup(p: &Params, scratch: &Scratch) -> Vec<f64> {
    setup(p, || {
        let cfg = CampaignConfig {
            rounds: 1,
            batch: 16,
            minimize_evals: 0,
            ..campaign_config(WARMUP_SEED, &p.size, scratch.fresh("warm"))
        };
        std::hint::black_box(run_campaign(&cfg));
    })
    .1
}

fn run_campaign_workload(p: &Params, scratch: &Scratch) -> Outcome {
    let setups = campaign_setup(p, scratch);
    let (mut ops, mut failed, mut inconclusive, mut per_case_ms) = (0u64, 0u64, 0u64, Vec::new());
    let mut problems = Vec::new();
    let mut first = Json::Null;
    let walls = repeat_for(p, |job| {
        let t = Instant::now();
        let stats = run_campaign(&campaign_config(p.seed, &p.size, scratch.fresh("corpus")));
        per_case_ms.push(ms(t.elapsed()) / stats.cases.max(1) as f64);
        ops += stats.cases;
        failed += stats.undecided + stats.mismatches.len() as u64;
        inconclusive += stats.inconclusive;
        for m in &stats.mismatches {
            problems.push(format!(
                "case {:#x} diverged at {}: {}",
                m.case_seed, m.stage, m.detail
            ));
        }
        let sim = campaign_sim(&stats);
        if job == 0 {
            first = sim;
        } else if sim != first {
            problems.push("campaign results differ between jobs of one seed".into());
        }
    });
    // `run_campaign` exposes no per-case timing, so a case's latency is
    // the fastest campaign's wall over its case count.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    Outcome {
        ops,
        failed,
        problems,
        metrics: end_to_end(&setups, min(&walls), walls.len(), &[min(&per_case_ms)]),
        detail: Json::object()
            .with("jobs", walls.len())
            .with("inconclusive", inconclusive),
        sim: first,
    }
}

// ---------------------------------------------------------------------
// serve_stream

/// One `lab serve` request.
pub struct Request {
    pub measure: &'static str,
    pub workload: &'static str,
    /// The JSON request line, newline included.
    pub line: String,
}

/// A stream's requests: every (measure, workload) pair once, measure by
/// measure. The seed picks the requests' tool name, which seeds each
/// cell's sampling as in the grids; a seeded order would make the
/// head-of-line waits, and so the latencies, differ by seed.
pub fn serve_requests(seed: u64, size: &Size) -> Vec<Request> {
    let tool = tool_name(Kind::ServeStream, seed);
    SERVE_MEASURES
        .iter()
        .flat_map(|&measure| size.serve.iter().map(move |&workload| (measure, workload)))
        .map(|(measure, workload)| {
            let line = Json::object()
                .with("workload", workload)
                .with("tool", tool.as_str())
                .with("section", measure)
                .with("measure", measure)
                .to_string();
            Request {
                measure,
                workload,
                line: line + "\n",
            }
        })
        .collect()
}

pub fn serve_cli(size: &Size, jobs: usize, store: &Path) -> Cli {
    let mut cli = Cli::fixed(size.serve_scale, jobs);
    cli.values
        .push(("baseline-dir".into(), Some(store.display().to_string())));
    cli
}

/// Feeds request lines to `serve_io` on an open-loop schedule: line `i`
/// becomes readable at `due[i]`, however far behind the service is.
struct Pacer<'a> {
    reqs: &'a [Request],
    due: &'a [Instant],
    at: usize,
    pos: usize,
    released: bool,
    /// How late each line was handed over, past its due time.
    late: &'a Mutex<Vec<Duration>>,
}

impl BufRead for Pacer<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(req) = self.reqs.get(self.at) else {
            return Ok(&[]);
        };
        if !self.released {
            let due = self.due[self.at];
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.late
                .lock()
                .expect("pacer lateness lock")
                .push(Instant::now() - due);
            self.released = true;
        }
        Ok(&req.line.as_bytes()[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self
            .reqs
            .get(self.at)
            .is_some_and(|r| self.pos >= r.line.len())
        {
            self.at += 1;
            self.pos = 0;
            self.released = false;
        }
    }
}

impl Read for Pacer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Collects `serve_io`'s output, stamping the moment each line ends.
#[derive(Default)]
struct Stamper {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for Stamper {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.stamps
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One open-loop stream through `serve_io`.
pub struct Stream {
    /// Per request, due time to emitted row; `+inf` when no row came.
    pub latency_ms: Vec<f64>,
    /// First due time to the last row.
    pub wall: Duration,
    /// Latest hand-over of a request past its due time.
    pub late_max_ms: f64,
    /// The emitted rows, in request order.
    pub rows: Vec<Json>,
    pub store_hits: usize,
    pub store_misses: usize,
}

pub fn serve_stream(cli: &Cli, reqs: &[Request], rate: f64) -> Stream {
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..reqs.len())
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let late = Mutex::new(Vec::new());
    let pacer = Pacer {
        reqs,
        due: &due,
        at: 0,
        pos: 0,
        released: false,
        late: &late,
    };
    let mut out = Stamper::default();
    let summary = serve_io(cli, pacer, &mut out);
    let text = String::from_utf8(out.bytes).expect("serve output is UTF-8");
    let rows: Vec<Json> = text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .map(|env| env.get("row").cloned().unwrap_or(Json::Null))
        .collect();
    let latency_ms = (0..reqs.len())
        .map(|i| {
            out.stamps
                .get(i)
                .map_or(f64::INFINITY, |s| ms(s.saturating_duration_since(due[i])))
        })
        .collect();
    let wall = out
        .stamps
        .last()
        .map_or(Duration::ZERO, |s| s.saturating_duration_since(start));
    let late_max_ms = late
        .into_inner()
        .expect("pacer lateness")
        .into_iter()
        .map(ms)
        .fold(0.0, f64::max);
    Stream {
        latency_ms,
        wall,
        late_max_ms,
        rows,
        store_hits: summary.store_hits,
        store_misses: summary.store_misses,
    }
}

impl Stream {
    /// Requests that got no row or an error row.
    pub fn failed(&self) -> u64 {
        let missing = self.latency_ms.iter().filter(|l| l.is_infinite()).count();
        let errors = self
            .rows
            .iter()
            .filter(|r| bench_harness::je(r).is_some())
            .count();
        (missing + errors) as u64
    }
}

/// Checks a stream's rows: one per request, in order, none an error,
/// and identical to the same request's row in the first stream.
pub fn serve_checks(reqs: &[Request], s: &Stream, first: &[Json], problems: &mut Vec<String>) {
    if s.rows.len() != reqs.len() {
        problems.push(format!("{} rows for {} requests", s.rows.len(), reqs.len()));
    }
    for (row, r) in s.rows.iter().zip(reqs) {
        if let Some(e) = bench_harness::je(row) {
            problems.push(format!("{}/{}: {e}", r.measure, r.workload));
        } else if bench_harness::js(row, "bench") != r.workload {
            problems.push(format!(
                "{}/{}: row out of order: {row}",
                r.measure, r.workload
            ));
        }
    }
    if s.rows != first {
        problems.push("rows differ between streams of one seed".into());
    }
}

/// The serve set-up: a fresh store warmed with every served workload's
/// plain baseline.
pub fn serve_setup(p: &Params, scratch: &Scratch) -> (PathBuf, Vec<f64>) {
    setup(p, || {
        let store = scratch.fresh("store");
        fill_store(&p.size.serve, p.size.serve_scale, store.clone()).expect("store fill");
        store
    })
}

fn run_serve(p: &Params, scratch: &Scratch) -> Outcome {
    let (store, setups) = serve_setup(p, scratch);
    let reqs = serve_requests(p.seed, &p.size);
    let cli = serve_cli(&p.size, SERVE_WORKERS, &store);
    let mut streams: Vec<Stream> = Vec::new();
    repeat_for(p, |_| {
        streams.push(serve_stream(&cli, &reqs, p.size.serve_rate))
    });
    // A stream's wall runs from its first due time to its last row.
    let wall = streams
        .iter()
        .map(|s| secs(s.wall))
        .fold(f64::INFINITY, f64::min);
    let mut problems = Vec::new();
    let first = streams[0].rows.clone();
    for s in &streams {
        serve_checks(&reqs, s, &first, &mut problems);
    }
    let latency = fastest(
        &streams
            .iter()
            .map(|s| s.latency_ms.clone())
            .collect::<Vec<_>>(),
    );
    let text: String = first.iter().map(|r| r.to_string()).collect();
    Outcome {
        ops: (latency.len() * streams.len()) as u64,
        failed: streams.iter().map(Stream::failed).sum(),
        problems,
        metrics: end_to_end(&setups, wall, streams.len(), &latency),
        detail: Json::object()
            .with("streams", streams.len())
            .with("rate_per_s", p.size.serve_rate)
            .with("workers", SERVE_WORKERS)
            .with("op_tail_ms", tail(&latency))
            .with(
                "generator_late_max_ms",
                streams.iter().map(|s| s.late_max_ms).fold(0.0, f64::max),
            ),
        sim: Json::object().with("rows_fnv", fnv(&text)),
    }
}
