//! The parallel experiment engine.
//!
//! Every figure and table of the paper is a grid of *cells*: one
//! (workload × [`CompileOptions`] × [`AdoreConfig`]) point measured in
//! a particular way. An [`ExperimentSpec`] declares the grid — sections
//! of cells plus which report columns each cell emits — and
//! [`ExperimentSpec::run`] executes it on the worker pool from
//! [`obs::pool`]:
//!
//! * **work distribution** — cells join the pool's one FIFO queue
//!   ([`obs::pool::service_scope`]) and each idle worker takes the
//!   oldest, so one slow cell holds only its own worker;
//! * **determinism** — each cell's sampling seed derives from its
//!   identity (tool/section/workload), never from thread or timing
//!   state, and rows are emitted in strict submission order by the
//!   pool's reorder buffer, so the merged report is byte-identical for
//!   any `--jobs` value (the envelope timestamp and the volatile
//!   `engine.baseline_store` subsection are the exceptions);
//! * **streaming** — [`ExperimentSpec::run_streaming`] hands each row
//!   to a sink the moment it and all its predecessors are done, so
//!   partial results survive interruption;
//! * **one cell path** — a grid and `lab serve` build every row through
//!   the same crate-private cell runner: it seeds the cell from its
//!   identity, runs the measure, turns a failure into an `error` row
//!   and merges the cell's extra columns, so a served cell and a grid
//!   cell with the same identity produce the same row;
//! * **baseline cache** — the no-prefetch run of each
//!   (workload, options, machine) triple is memoized behind a per-key
//!   [`OnceLock`], so a baseline shared by many cells (every ablation
//!   variant, the overhead and comparison measures) executes once; a
//!   persistent content-addressed store ([`crate::store`]) extends the
//!   memo across processes, skipping the simulation (but not the cheap
//!   recompile) on a disk hit. Memo and store share one key,
//!   [`BaselineStore::key`];
//! * **failure isolation** — a cell that fails to compile produces an
//!   `error` row and the rest of the grid completes (previously one bad
//!   workload panicked the whole binary);
//! * **observability** — per-cell timing goes to stderr through
//!   [`obs::Progress`] while the deterministic cell labels (a function
//!   of the grid) and cache statistics are embedded in the report's
//!   `engine` section, alongside the volatile store counters.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use adore::{AdoreConfig, Outcome, PassKind, Rejection, Site};
use compiler::{delinquent_loop_filter, CompileOptions, CompiledBinary};
use obs::{Json, Progress, Report, ToJson};
use sim::{Counters, MachineConfig, SamplingConfig};
use workloads::Workload;

use crate::cli::Cli;
use crate::store::{resolve_default_dir, BaselineStore, Fnv, StoredBaseline};
use crate::{build, experiment_report_with, machine_stats_json, speedup_pct};

// ---------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------

/// How a cell is measured — which runs it performs and which row
/// columns it emits.
#[derive(Debug, Clone)]
pub enum Measure {
    /// One plain (unmonitored) run of the cell's options.
    Plain,
    /// Plain run of the cell's options versus a plain run of `other`
    /// (Fig. 10: restricted vs original `O2`).
    CompareCompile(Box<CompileOptions>),
    /// Cached baseline versus a full ADORE run (Fig. 7, ablation).
    Comparison,
    /// Like [`Measure::Comparison`], plus the per-pass overhead ledger,
    /// the deploy/instrument/promote/unpatch episodes of the decision
    /// trace, and the sampling-handler overhead split out from the
    /// pipeline's own charges (pass-ablation cells).
    PipelineComparison,
    /// Cached baseline versus sampling-only ADORE — prefetch insertion
    /// forced off (Fig. 11).
    Overhead,
    /// ADORE run only; stream/phase statistics (Table 2).
    Streams,
    /// Per-window CPI / miss-rate series with and without runtime
    /// prefetching (Fig. 8/9).
    Timeline,
    /// Profile-guided static prefetching: train on the unprefetched
    /// binary, filter `O3`'s prefetch set to the delinquent loops
    /// covering `coverage` of sampled latency (Table 1).
    GuidedPrefetch {
        /// Fraction of sampled miss latency the kept loops must cover.
        coverage: f64,
    },
    /// Cycle-accounting breakdown before and after ADORE (§2.1).
    Breakdown,
    /// Adaptive-policy evaluation: cached baseline, a static-policy
    /// ADORE run, and an adaptive-controller ADORE run (the measure
    /// enables `policy` itself), with the per-phase decision log
    /// (`lab policy`).
    Policy,
    /// One ADORE run, explained: the fate of every load the
    /// delinquent-load filter selected, read from the decision trace
    /// (§4.3's failure analysis, `lab explain`).
    Explain,
}

impl Measure {
    /// One measure of each kind, with the arguments a `lab serve`
    /// request gets by default: `guided` covers 0.9 of sampled miss
    /// latency, `compare_compile` compares against `o2_original`.
    pub fn all() -> Vec<Measure> {
        vec![
            Measure::Plain,
            Measure::CompareCompile(Box::new(CompileOptions::o2_original())),
            Measure::Comparison,
            Measure::PipelineComparison,
            Measure::Overhead,
            Measure::Streams,
            Measure::Timeline,
            Measure::GuidedPrefetch { coverage: 0.9 },
            Measure::Breakdown,
            Measure::Policy,
            Measure::Explain,
        ]
    }

    /// The measure's name in a `lab serve` request's `measure` field.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Plain => "plain",
            Measure::CompareCompile(_) => "compare_compile",
            Measure::Comparison => "comparison",
            Measure::PipelineComparison => "pipeline_comparison",
            Measure::Overhead => "overhead",
            Measure::Streams => "streams",
            Measure::Timeline => "timeline",
            Measure::GuidedPrefetch { .. } => "guided",
            Measure::Breakdown => "breakdown",
            Measure::Policy => "policy",
            Measure::Explain => "explain",
        }
    }

    /// The measure called `name`, with [`Measure::all`]'s arguments.
    pub fn named(name: &str) -> Option<Measure> {
        Measure::all().into_iter().find(|m| m.name() == name)
    }
}

/// One grid cell: a workload measured under one configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name (must resolve in the suite or the spec's extra
    /// workloads).
    pub workload: &'static str,
    /// Compilation options of the primary binary.
    pub opts: CompileOptions,
    /// ADORE configuration (sampling seed is overwritten per cell).
    pub adore: AdoreConfig,
    /// Machine configuration for every run of this cell.
    pub machine: MachineConfig,
    /// What to measure.
    pub measure: Measure,
    /// Extra columns merged into the finished row (paper numbers etc.).
    pub extra: Json,
}

impl Cell {
    /// A cell measuring `workload` under `opts` with the paper's ADORE
    /// and machine configurations ([`ExperimentSpec::paper_adore_config`],
    /// [`ExperimentSpec::paper_machine_config`]).
    pub fn new(workload: &'static str, opts: CompileOptions, measure: Measure) -> Cell {
        Cell {
            workload,
            opts,
            adore: ExperimentSpec::paper_adore_config(),
            machine: ExperimentSpec::paper_machine_config(),
            measure,
            extra: Json::object(),
        }
    }

    /// Adds an extra column to the cell's row.
    pub fn extra(&mut self, key: &str, value: impl ToJson) {
        self.extra.set(key, value);
    }
}

struct Section {
    key: String,
    cells: Vec<Cell>,
}

/// A declarative experiment: the grid plus shared run settings.
///
/// Every cell starts from the paper configurations ([`Cell::new`]);
/// a section's tweak ([`ExperimentSpec::section_with`]) is the only
/// per-cell override.
pub struct ExperimentSpec {
    tool: String,
    scale: f64,
    jobs: usize,
    report_args: Vec<String>,
    sections: Vec<Section>,
    extra_workloads: Vec<Workload>,
    baseline: BaselineChoice,
}

/// Where persistent baselines live for one run.
pub(crate) enum BaselineChoice {
    /// Environment-resolved ([`resolve_default_dir`]).
    Default,
    /// No on-disk store (hermetic tests, `--no-baseline-store`).
    Disabled,
    /// An explicit directory.
    Dir(PathBuf),
}

impl ExperimentSpec {
    /// The ADORE configuration used by all experiments: paper-like
    /// ratios (sampling interval ≥ the equivalent of 100k cycles at the
    /// paper's machine scale, scaled to our shorter runs — see
    /// DESIGN.md).
    pub fn paper_adore_config() -> AdoreConfig {
        let mut c = AdoreConfig::enabled();
        c.sampling = SamplingConfig {
            interval_cycles: 2_500,
            buffer_capacity: 500,
            per_sample_cost: 20,
            jitter: 0.3,
            ..Default::default()
        };
        c
    }

    /// Machine configuration used by all experiments (Itanium 2
    /// defaults).
    pub fn paper_machine_config() -> MachineConfig {
        MachineConfig::default()
    }

    /// A spec seeded with the paper configurations and the shared CLI
    /// surface (scale, jobs, recorded arguments).
    pub fn paper_defaults(tool: &str, cli: &Cli) -> ExperimentSpec {
        ExperimentSpec {
            tool: tool.to_string(),
            scale: cli.scale,
            jobs: cli.jobs,
            report_args: cli.report_args.clone(),
            sections: Vec::new(),
            extra_workloads: Vec::new(),
            baseline: BaselineChoice::Default,
        }
    }

    /// Overrides the worker count (tests pin this; binaries get it from
    /// the CLI).
    pub fn jobs(mut self, n: usize) -> ExperimentSpec {
        self.jobs = n.max(1);
        self
    }

    /// Adds a workload that is not part of the standard suite.
    pub fn with_workload(mut self, w: Workload) -> ExperimentSpec {
        self.extra_workloads.push(w);
        self
    }

    /// Overrides where persistent baselines live: `Some(dir)` uses
    /// `dir`, `None` disables the on-disk store entirely (hermetic
    /// tests). Without an override the store resolves from the
    /// environment — see [`resolve_default_dir`].
    pub fn baseline_dir(mut self, dir: Option<PathBuf>) -> ExperimentSpec {
        self.baseline = match dir {
            Some(d) => BaselineChoice::Dir(d),
            None => BaselineChoice::Disabled,
        };
        self
    }

    /// Adds a section: one cell per workload, all sharing `opts` and
    /// `measure`, emitted under report key `key` in workload order.
    pub fn section(
        self,
        key: &str,
        benches: &[&'static str],
        opts: CompileOptions,
        measure: Measure,
    ) -> ExperimentSpec {
        self.section_with(key, benches, opts, measure, |_| {})
    }

    /// Like [`ExperimentSpec::section`], with a per-cell tweak applied
    /// at spec-build time (config variants, paper-number columns).
    ///
    /// # Panics
    ///
    /// If a tweak moves a cell off a cycle-exact execution path: every
    /// measure reports cycle counts (speedups, overheads, CPI
    /// timelines), which a tier with unmodeled timing would silently
    /// corrupt. Tier-correctness coverage lives in the differential
    /// oracle instead.
    pub fn section_with(
        mut self,
        key: &str,
        benches: &[&'static str],
        opts: CompileOptions,
        measure: Measure,
        tweak: impl Fn(&mut Cell),
    ) -> ExperimentSpec {
        let cells = benches
            .iter()
            .map(|&workload| {
                let mut cell = Cell::new(workload, opts.clone(), measure.clone());
                tweak(&mut cell);
                assert!(
                    cell.machine.exec_path.is_cycle_exact(),
                    "{key}/{workload}: experiment cells need a cycle-exact execution path, got {}",
                    cell.machine.exec_path
                );
                cell
            })
            .collect();
        self.sections.push(Section { key: key.to_string(), cells });
        self
    }

    /// Executes the grid and returns the merged result.
    pub fn run(self) -> EngineResult {
        self.run_streaming(|_, _, _| {})
    }

    /// Executes the grid, handing each finished row to `on_row` as
    /// `(cell index, section key, row)` the moment it and all earlier
    /// cells are complete — strict submission order, incrementally, so
    /// a consumer sees a stable prefix even if the process dies
    /// mid-grid. `on_row` runs on the calling thread.
    pub fn run_streaming(self, mut on_row: impl FnMut(usize, &str, &Json)) -> EngineResult {
        let cells: Vec<(usize, &Cell)> = (self.sections.iter().enumerate())
            .flat_map(|(si, section)| section.cells.iter().map(move |cell| (si, cell)))
            .collect();
        let n = cells.len();
        let labels: Vec<String> = cells
            .iter()
            .map(|(si, cell)| format!("{}/{}", self.sections[*si].key, cell.workload))
            .collect();
        let progress = Progress::new(&self.tool, n);
        let runner = CellRunner::new(self.scale, &self.extra_workloads, &self.baseline, &self.tool);
        let jobs = self.jobs.clamp(1, n.max(1));

        let mut ordered: Vec<Json> = Vec::with_capacity(n);
        obs::pool::service_scope(
            jobs,
            |_| (),
            |_: &mut (), i: usize, (): ()| {
                let (si, cell) = cells[i];
                let t = Instant::now();
                let row = runner.row(&self.tool, &self.sections[si].key, cell.clone());
                progress.item_done(&labels[i], t.elapsed());
                row
            },
            |sub| {
                for _ in 0..n {
                    sub.push(());
                }
            },
            |i, row| {
                on_row(i, &self.sections[cells[i].0].key, &row);
                ordered.push(row);
            },
        );

        // Ordered merge: rows in spec order, untouched by scheduling.
        let mut rows: Vec<Vec<Json>> = self.sections.iter().map(|_| Vec::new()).collect();
        let mut failed = 0usize;
        for ((si, _), row) in cells.iter().zip(ordered) {
            if row.get("error").is_some() {
                failed += 1;
            }
            rows[*si].push(row);
        }

        let (lookups, computes) = runner.cache.stats();
        let mut report = experiment_report_with(
            &self.tool,
            &self.report_args,
            self.scale,
            &ExperimentSpec::paper_adore_config().sampling,
        );
        let mut sections_out = Vec::new();
        for (section, rows) in self.sections.iter().zip(rows) {
            report.set(&section.key, rows.as_slice());
            sections_out.push((section.key.clone(), rows));
        }
        let (store_hits, store_misses) = runner.store_stats();
        // Deterministic keys first (byte-identical to schema v1), then
        // the volatile `baseline_store` subsection new in schema v2: it
        // depends on what prior processes left on disk. Jobs-invariance
        // diffs zero it ([`EngineResult::canonical`]).
        let store_json = match runner.cache.store() {
            Some(s) => Json::object()
                .with("enabled", true)
                .with("dir", s.dir().display().to_string())
                .with("hits", store_hits)
                .with("misses", store_misses),
            None => Json::object().with("enabled", false),
        };
        let mut engine = Json::object()
            .with("cells", n)
            .with("cell_labels", labels)
            .with("errors", failed)
            .with(
                "baseline_cache",
                Json::object()
                    .with("lookups", lookups)
                    .with("computes", computes)
                    .with("hits", lookups - computes),
            );
        // Only grids that run joined legs carry the section, so every
        // other report keeps its engine section unchanged.
        let (leg_cells, shared_windows, split_cells) = runner.legs.totals();
        if leg_cells > 0 {
            engine.set(
                "joined_legs",
                Json::object()
                    .with("cells", leg_cells)
                    .with("shared_windows", shared_windows)
                    .with("split_cells", split_cells),
            );
        }
        report.set("engine", engine.with("baseline_store", store_json));

        let wall = progress.wall();
        eprintln!(
            "[{}] {} cells in {}ms (jobs={}, baseline cache {} hits / {} lookups, store {} hits / {} misses)",
            self.tool,
            n,
            wall.as_millis(),
            jobs,
            lookups - computes,
            lookups,
            store_hits,
            store_misses
        );
        if leg_cells > 0 {
            eprintln!(
                "[{}] joined legs shared {shared_windows} windows; \
                 {split_cells} of {leg_cells} cells split",
                self.tool
            );
        }
        EngineResult { report, sections: sections_out, wall, failed, store_hits, store_misses }
    }
}

/// What every cell of one run shares: the workload suite, the baseline
/// cache over the persistent store, and the joined-leg totals. A grid
/// ([`ExperimentSpec::run_streaming`]) and `lab serve` each feed their
/// cells to [`CellRunner::row`] from their own pool scope.
pub(crate) struct CellRunner {
    suite: Vec<Workload>,
    cache: BaselineCache,
    legs: LegStats,
}

impl CellRunner {
    /// The suite at `scale` plus `extra` workloads, over the store
    /// `baseline` names. A store that fails to open is disabled (with a
    /// stderr note naming `tool`) rather than failing the run.
    pub(crate) fn new(
        scale: f64,
        extra: &[Workload],
        baseline: &BaselineChoice,
        tool: &str,
    ) -> CellRunner {
        let mut suite = workloads::all(scale);
        suite.extend(extra.iter().cloned());
        let dir = match baseline {
            BaselineChoice::Disabled => None,
            BaselineChoice::Dir(d) => Some(d.clone()),
            BaselineChoice::Default => resolve_default_dir(),
        };
        let store = dir.and_then(|dir| match BaselineStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("[{tool}] baseline store disabled: {e}");
                None
            }
        });
        CellRunner { suite, cache: BaselineCache::with_store(store), legs: LegStats::default() }
    }

    /// The workload named `name`.
    pub(crate) fn workload(&self, name: &str) -> Result<&Workload, CellError> {
        (self.suite.iter().find(|w| w.name == name))
            .ok_or_else(|| CellError::UnknownWorkload(name.to_string()))
    }

    /// The row of `cell` as cell `tool`/`section`/workload: its
    /// sampling seed derives from that identity, never from thread or
    /// timing state; a failure becomes an [`error_row`]; the cell's
    /// extra columns are merged last.
    pub(crate) fn row(&self, tool: &str, section: &str, mut cell: Cell) -> Json {
        cell.adore.sampling.seed = cell_seed(tool, section, cell.workload);
        let mut row = self.run(&cell).unwrap_or_else(|e| error_row(cell.workload, e));
        if let Json::Object(fields) = cell.extra {
            for (k, v) in fields {
                row.set(&k, v);
            }
        }
        row
    }

    /// Persistent-store `(hits, misses)`, `(0, 0)` when disabled.
    pub(crate) fn store_stats(&self) -> (usize, usize) {
        self.cache.store().map_or((0, 0), BaselineStore::stats)
    }

    fn run(&self, cell: &Cell) -> Result<Json, CellError> {
        let w = self.workload(cell.workload)?;
        let cache = &self.cache;
        match &cell.measure {
            Measure::Plain => plain_cell(w, cell, cache),
            Measure::CompareCompile(other) => compare_compile_cell(w, cell, other, cache),
            Measure::Comparison => comparison_cell(w, cell, cache),
            Measure::PipelineComparison => pipeline_comparison_cell(w, cell, cache),
            Measure::Overhead => overhead_cell(w, cell, cache),
            Measure::Streams => streams_cell(w, cell),
            Measure::Timeline => timeline_cell(w, cell),
            Measure::GuidedPrefetch { coverage } => guided_cell(w, cell, *coverage, cache),
            Measure::Breakdown => breakdown_cell(w, cell, cache),
            Measure::Policy => policy_cell(w, cell, cache, &self.legs),
            Measure::Explain => explain_cell(w, cell),
        }
    }
}

/// The row of a cell that failed (or a request that never became one).
pub(crate) fn error_row(bench: &str, error: impl std::fmt::Display) -> Json {
    Json::object().with("bench", bench).with("error", error.to_string())
}

/// The merged output of a grid run.
pub struct EngineResult {
    report: Report,
    sections: Vec<(String, Vec<Json>)>,
    /// Wall-clock duration of the grid.
    pub wall: Duration,
    /// Number of cells that produced an `error` row.
    pub failed: usize,
    /// Baselines served from the persistent store (0 when disabled).
    pub store_hits: usize,
    /// Baselines the persistent store had to recompute (0 when
    /// disabled).
    pub store_misses: usize,
}

impl EngineResult {
    /// Rows of a section, in spec order (empty for unknown keys).
    pub fn rows(&self, key: &str) -> &[Json] {
        self.sections.iter().find(|(k, _)| k == key).map(|(_, rows)| rows.as_slice()).unwrap_or(&[])
    }

    /// The assembled report.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// The report with its volatile fields zeroed, pretty-printed: the
    /// envelope timestamp and the `engine.baseline_store` subsection,
    /// which describes how (not what) the grid ran. Everything else is
    /// the same for any `--jobs` value and any prior store state.
    pub fn canonical(&self) -> String {
        let mut j = self.report.json().clone();
        j.set("generated_unix_s", 0u64);
        let mut engine = j.get("engine").expect("engine section").clone();
        engine.set("baseline_store", Json::object());
        j.set("engine", engine);
        j.pretty()
    }

    /// Writes the report to `results/<tool>.json`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        self.report.save()
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a cell failed. The grid keeps running; the failed cell's row
/// carries the message.
#[derive(Debug, Clone)]
pub enum CellError {
    /// The workload name resolves neither in the suite nor in the
    /// spec's extra workloads.
    UnknownWorkload(String),
    /// Compilation failed.
    Compile {
        /// Workload whose kernel failed to compile.
        workload: String,
        /// Rendered compiler error.
        message: String,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            CellError::Compile { workload, message } => {
                write!(f, "compiling {workload}: {message}")
            }
        }
    }
}

impl std::error::Error for CellError {}

// ---------------------------------------------------------------------
// Baseline cache
// ---------------------------------------------------------------------

/// A memoized plain (no-prefetch, unmonitored) run.
#[derive(Debug, Clone)]
pub(crate) struct Baseline {
    /// The compiled binary (reused by the monitored run of the cell).
    pub bin: CompiledBinary,
    /// Total cycles of the plain run.
    pub cycles: u64,
    /// Final PMU counters.
    pub counters: Counters,
    /// Cache/PMU statistics row ([`machine_stats_json`]).
    pub stats: Json,
}

type BaselineSlot = Arc<OnceLock<Result<Baseline, String>>>;

/// Concurrent memo of baseline runs keyed by [`BaselineStore::key`],
/// the one identity of a plain run. Each key is computed exactly once —
/// concurrent requesters block on the key's `OnceLock` — so hit counts
/// are deterministic for a given grid.
///
/// An optional persistent [`BaselineStore`] sits *behind* the memo: a
/// key's single in-process compute first consults the store and, on a
/// disk hit, only recompiles the binary (cheap) instead of simulating
/// the run (expensive). The in-memory `lookups`/`computes` statistics
/// are unaffected by the store and stay deterministic for a fixed
/// grid; disk hit/miss counts live on the store itself.
pub(crate) struct BaselineCache {
    map: Mutex<HashMap<u64, BaselineSlot>>,
    lookups: AtomicUsize,
    computes: AtomicUsize,
    store: Option<BaselineStore>,
}

impl BaselineCache {
    /// An empty cache backed by `store` (when `Some`): misses fall
    /// through to disk before simulating.
    pub(crate) fn with_store(store: Option<BaselineStore>) -> BaselineCache {
        BaselineCache {
            map: Mutex::new(HashMap::new()),
            lookups: AtomicUsize::new(0),
            computes: AtomicUsize::new(0),
            store,
        }
    }

    /// The plain run of `w` under `opts` on `machine`, computed at most
    /// once per distinct key.
    pub(crate) fn plain(
        &self,
        w: &Workload,
        opts: &CompileOptions,
        machine: &MachineConfig,
    ) -> Result<Baseline, CellError> {
        self.lookups.fetch_add(1, Ordering::SeqCst);
        let key = BaselineStore::key(w, opts, machine);
        let slot = {
            let mut map = self.map.lock().expect("baseline cache lock");
            map.entry(key).or_default().clone()
        };
        let out = slot.get_or_init(|| {
            self.computes.fetch_add(1, Ordering::SeqCst);
            let bin = build(w, opts).map_err(|e| e.to_string())?;
            if let Some(hit) = self.store.as_ref().and_then(|store| store.load(key)) {
                let StoredBaseline { cycles, counters, stats } = hit;
                return Ok(Baseline { cycles, counters, stats, bin });
            }
            let mut m = w.prepare(&bin, machine.clone());
            let cycles = m.run_to_halt();
            let (counters, stats) = (m.pmu().counters, machine_stats_json(&m));
            let run = StoredBaseline { cycles, counters, stats };
            if let Some(store) = &self.store {
                store.save(key, &run);
            }
            let StoredBaseline { cycles, counters, stats } = run;
            Ok(Baseline { cycles, counters, stats, bin })
        });
        out.clone().map_err(|message| CellError::Compile { workload: w.name.to_string(), message })
    }

    /// `(lookups, computes)` so far; hits are the difference. Both are
    /// deterministic for a fixed grid, independent of the worker count.
    pub(crate) fn stats(&self) -> (usize, usize) {
        (self.lookups.load(Ordering::SeqCst), self.computes.load(Ordering::SeqCst))
    }

    /// The persistent store behind the memo, if enabled.
    pub(crate) fn store(&self) -> Option<&BaselineStore> {
        self.store.as_ref()
    }
}

/// Totals over the cells that run joined ADORE legs
/// ([`adore::run_legs`]): the windows each follower shared with its
/// leader and the cells whose legs split. Like the baseline-cache
/// counters they depend only on the grid, never on scheduling.
#[derive(Default)]
pub(crate) struct LegStats {
    cells: AtomicUsize,
    shared_windows: AtomicU64,
    split_cells: AtomicUsize,
}

impl LegStats {
    /// Records one cell's legs (leader first).
    fn record(&self, legs: &[adore::LegReport]) {
        let windows = legs[0].report.windows;
        let shared: u64 = legs[1..].iter().map(|l| l.split_window.unwrap_or(windows)).sum();
        self.cells.fetch_add(1, Ordering::SeqCst);
        self.shared_windows.fetch_add(shared, Ordering::SeqCst);
        if legs[1..].iter().any(|l| l.split_window.is_some()) {
            self.split_cells.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `(cells, shared windows, split cells)` so far.
    fn totals(&self) -> (usize, u64, usize) {
        (
            self.cells.load(Ordering::SeqCst),
            self.shared_windows.load(Ordering::SeqCst),
            self.split_cells.load(Ordering::SeqCst),
        )
    }
}

/// A cell's sampling seed: the store's FNV-1a + SplitMix hash over the
/// cell identity, stable across runs, platforms and scheduling.
fn cell_seed(tool: &str, section: &str, workload: &str) -> u64 {
    let mut h = Fnv::new();
    for part in [tool, section, workload] {
        h.write_str(part);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Measures
// ---------------------------------------------------------------------

fn run_adore_in(
    cell: &Cell,
    w: &Workload,
    bin: &CompiledBinary,
) -> (adore::RunReport, sim::Machine) {
    let mcfg = cell.adore.machine_config(cell.machine.clone());
    let mut m = w.prepare(bin, mcfg);
    let r = adore::run(&mut m, &cell.adore);
    (r, m)
}

fn plain_cell(w: &Workload, cell: &Cell, cache: &BaselineCache) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    Ok(Json::object().with("bench", w.name).with("cycles", base.cycles).with("stats", base.stats))
}

fn compare_compile_cell(
    w: &Workload,
    cell: &Cell,
    other: &CompileOptions,
    cache: &BaselineCache,
) -> Result<Json, CellError> {
    let restricted = cache.plain(w, &cell.opts, &cell.machine)?;
    let original = cache.plain(w, other, &cell.machine)?;
    Ok(Json::object()
        .with("bench", w.name)
        .with("restricted_cycles", restricted.cycles)
        .with("original_cycles", original.cycles)
        .with("speedup_pct", speedup_pct(restricted.cycles, original.cycles)))
}

fn comparison_cell(w: &Workload, cell: &Cell, cache: &BaselineCache) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    let (report, m) = run_adore_in(cell, w, &base.bin);
    Ok(Json::object()
        .with("bench", w.name)
        .with("base_cycles", base.cycles)
        .with("adore_cycles", report.cycles)
        .with("speedup_pct", speedup_pct(base.cycles, report.cycles))
        .with("traces_patched", report.traces_patched)
        .with("phases_optimized", report.phases_optimized)
        .with("streams", report.stats)
        .with("base", base.stats)
        .with("adore", machine_stats_json(&m)))
}

fn pipeline_comparison_cell(
    w: &Workload,
    cell: &Cell,
    cache: &BaselineCache,
) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    let (report, m) = run_adore_in(cell, w, &base.bin);
    // The PMU's overhead counter accumulates *every* charge to the main
    // thread; the pipeline ledger knows which part the optimizer passes
    // charged, so the remainder is the sampling/copy-handler share.
    let sampling_overhead =
        m.pmu().counters.overhead_cycles.saturating_sub(report.ledger.total_charged());
    let episodes: Vec<Json> =
        report.decisions.iter().filter_map(|d| d.outcome.episode_json()).collect();
    Ok(Json::object()
        .with("bench", w.name)
        .with("base_cycles", base.cycles)
        .with("adore_cycles", report.cycles)
        .with("speedup_pct", speedup_pct(base.cycles, report.cycles))
        .with("traces_patched", report.traces_patched)
        .with("traces_unpatched", report.traces_unpatched)
        .with("phases_optimized", report.phases_optimized)
        .with("streams", report.stats)
        .with("pipeline", &report.ledger)
        .with("sampling_overhead_cycles", sampling_overhead)
        .with("events", episodes))
}

fn overhead_cell(w: &Workload, cell: &Cell, cache: &BaselineCache) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    let mut cell = cell.clone();
    cell.adore.insert_prefetches = false;
    let (report, _) = run_adore_in(&cell, w, &base.bin);
    let overhead = (report.cycles as f64 / base.cycles as f64 - 1.0) * 100.0;
    Ok(Json::object()
        .with("bench", w.name)
        .with("o2_cycles", base.cycles)
        .with("sampling_cycles", report.cycles)
        .with("overhead_pct", overhead)
        .with("windows", report.windows))
}

fn streams_cell(w: &Workload, cell: &Cell) -> Result<Json, CellError> {
    let bin = build(w, &cell.opts)?;
    let (report, _) = run_adore_in(cell, w, &bin);
    Ok(Json::object()
        .with("bench", w.name)
        .with("streams", report.stats)
        .with("phases_optimized", report.phases_optimized)
        .with("traces_patched", report.traces_patched))
}

fn timeline_cell(w: &Workload, cell: &Cell) -> Result<Json, CellError> {
    let bin = build(w, &cell.opts)?;
    // "No runtime prefetching" series: the same run with insertion off,
    // which monitors through the PMU exactly like the paper's curves but
    // never edits or charges the machine. Both legs share one
    // simulation until the ADORE leg's first deploy.
    let mut monitor_only = cell.adore.clone();
    monitor_only.insert_prefetches = false;
    let mut m = w.prepare(&bin, cell.adore.machine_config(cell.machine.clone()));
    let run = adore::run_legs(&mut m, &[monitor_only, cell.adore.clone()], u64::MAX);
    let (monitored, optimized) = (&run[0].report.timeline, &run[1].report.timeline);
    let end = |t: &[adore::TimePoint]| t.last().map_or(0, |p| p.cycles);
    Ok(Json::object()
        .with("bench", w.name)
        .with("baseline_end_cycles", end(monitored))
        .with("adore_end_cycles", end(optimized))
        .with("baseline", monitored.as_slice())
        .with("adore", optimized.as_slice()))
}

fn guided_cell(
    w: &Workload,
    cell: &Cell,
    coverage: f64,
    cache: &BaselineCache,
) -> Result<Json, CellError> {
    let o3 = cache.plain(w, &cell.opts, &cell.machine)?;
    // Training run: plain sampling on the *unprefetched* binary — a
    // profile collected under static prefetching would hide exactly the
    // loads the filter must keep.
    let o2 = build(w, &CompileOptions::o2())?;
    let mut m = w.prepare(&o2, cell.adore.machine_config(cell.machine.clone()));
    let mut pm = perfmon::Perfmon::new(cell.adore.perfmon.clone());
    let mut samples: Vec<sim::Sample> = Vec::new();
    pm.run_with_windows(&mut m, |_, win, _| samples.extend(win.samples.iter().cloned()));
    let profile = perfmon::MissProfile::from_samples(samples.iter());

    let mut guided_opts = cell.opts.clone();
    // An empty training profile (run too short to fill one sample
    // buffer, e.g. gzip) gives no guidance: keep default prefetching
    // rather than filtering everything out.
    if !profile.is_empty() {
        guided_opts.prefetch_filter = Some(delinquent_loop_filter(&profile, &o2, coverage));
    }
    let guided = build(w, &guided_opts)?;
    let mut gm = w.prepare(&guided, cell.machine.clone());
    let guided_cycles = gm.run_to_halt();

    Ok(Json::object()
        .with("bench", w.name)
        .with("o3_loops", o3.bin.prefetched_loops)
        .with("profiled_loops", guided.prefetched_loops)
        .with("o3_cycles", o3.cycles)
        .with("guided_cycles", guided_cycles)
        .with("norm_time", guided_cycles as f64 / o3.cycles as f64)
        .with("norm_size", guided.program.size_bytes() as f64 / o3.bin.program.size_bytes() as f64)
        .with("profile", &profile))
}

fn breakdown_cell(w: &Workload, cell: &Cell, cache: &BaselineCache) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    let (report, m) = run_adore_in(cell, w, &base.bin);
    Ok(Json::object()
        .with("bench", w.name)
        .with("o2", breakdown_side(&base.counters, base.cycles))
        .with("adore", breakdown_side(&m.pmu().counters, report.cycles)))
}

/// One side of the §2.1 cycle-accounting row.
pub fn breakdown_side(c: &Counters, cycles: u64) -> Json {
    let pct = |part: u64| 100.0 * part as f64 / cycles.max(1) as f64;
    let accounted = c.stall_mem + c.stall_fp + c.stall_branch + c.stall_icache + c.overhead_cycles;
    Json::object()
        .with("cycles", cycles)
        .with("counters", c)
        .with("mem_stall_pct", pct(c.stall_mem))
        .with("fp_stall_pct", pct(c.stall_fp))
        .with("branch_stall_pct", pct(c.stall_branch))
        .with("icache_stall_pct", pct(c.stall_icache))
        .with("overhead_pct", pct(c.overhead_cycles))
        .with("busy_pct", pct(cycles.saturating_sub(accounted)))
}

fn policy_cell(
    w: &Workload,
    cell: &Cell,
    cache: &BaselineCache,
    legs: &LegStats,
) -> Result<Json, CellError> {
    let base = cache.plain(w, &cell.opts, &cell.machine)?;
    // Static leg: the cell's config as delivered — the paper's fixed
    // policy (policy.enable stays false). Adaptive leg: identical
    // config and sampling seed, controller on. Both legs see the same
    // PMU window stream up to the first divergent optimization
    // decision, so the comparison isolates the policy itself — and
    // `run_legs` simulates that common prefix once, splitting the
    // adaptive leg off only when its machine first differs.
    let mut static_config = cell.adore.clone();
    static_config.policy.enable = false;
    let mut adaptive_config = cell.adore.clone();
    adaptive_config.policy.enable = true;
    let mut m = w.prepare(&base.bin, cell.adore.machine_config(cell.machine.clone()));
    let run = adore::run_legs(&mut m, &[static_config, adaptive_config], u64::MAX);
    legs.record(&run);
    let [static_leg, adaptive_leg] = <[adore::LegReport; 2]>::try_from(run).expect("two legs");
    let (static_report, adaptive_report) = (static_leg.report, adaptive_leg.report);
    let static_speedup = speedup_pct(base.cycles, static_report.cycles);
    let adaptive_speedup = speedup_pct(base.cycles, adaptive_report.cycles);
    Ok(Json::object()
        .with("bench", w.name)
        .with("base_cycles", base.cycles)
        .with("static_cycles", static_report.cycles)
        .with("adaptive_cycles", adaptive_report.cycles)
        .with("static_speedup_pct", static_speedup)
        .with("adaptive_speedup_pct", adaptive_speedup)
        .with("delta_pct", adaptive_speedup - static_speedup)
        .with("win", adaptive_report.cycles < static_report.cycles)
        .with("traces_patched", adaptive_report.traces_patched)
        .with("phases_optimized", adaptive_report.phases_optimized)
        .with("streams", adaptive_report.stats)
        .with("policy", adaptive_report.policy.to_json()))
}

fn explain_cell(w: &Workload, cell: &Cell) -> Result<Json, CellError> {
    let bin = build(w, &cell.opts)?;
    let (report, _) = run_adore_in(cell, w, &bin);
    let (decisions, timeline) = (&report.decisions, &report.timeline);
    let label = |o: &Outcome| match o {
        Outcome::Classified(p) => p.kind(),
        Outcome::Scheduled { .. } => "scheduled",
        Outcome::Rejected(r) => r.label(),
        _ => "?",
    };
    let mut loads = Vec::new();
    for (i, d) in decisions.iter().enumerate() {
        let (Site::Load(pc), Outcome::Delinquent { trace, samples, latency }) =
            (d.site, &d.outcome)
        else {
            continue;
        };
        // Every later verdict on the load falls in its selection window.
        let rest = &decisions[i + 1..];
        let window = &rest[..rest.iter().position(|e| e.window != d.window).unwrap_or(rest.len())];
        let verdict = |pass: PassKind| {
            window.iter().find(|e| e.pass == pass && e.site == d.site).map(|e| &e.outcome)
        };
        let pattern = verdict(PassKind::PatternAnalyze);
        let stream = verdict(PassKind::PrefetchSchedule);
        // A scheduled stream ends with its trace's deploy (or failed patch).
        let deploy = window.iter().filter(|e| e.site == Site::Trace(*trace)).find_map(|e| {
            let ends = matches!(e.outcome, Outcome::Deployed { .. })
                || matches!(e.outcome, Outcome::Rejected(Rejection::PatchFailed));
            ends.then_some(&e.outcome)
        });
        let (fate, deployed_at) = match (pattern, stream, deploy) {
            (Some(Outcome::Rejected(r)), ..) | (_, Some(Outcome::Rejected(r)), _) => {
                (r.label(), None)
            }
            (_, Some(Outcome::Scheduled { .. }), Some(o)) => match o {
                Outcome::Deployed { at_cycles, .. } => ("deployed", Some(*at_cycles)),
                other => (label(other), None),
            },
            _ => ("unresolved", None),
        };
        let distance = match stream {
            Some(Outcome::Scheduled { distance_iters }) => Some(*distance_iters),
            _ => None,
        };
        let cpi = |w: u64| timeline.get(w as usize - 1).map(|t| t.cpi);
        let deploy = deployed_at.map(|cycles| {
            Json::object()
                .with("window", d.window)
                .with("cycles", cycles)
                .with("cpi", cpi(d.window))
                .with("cpi_next", cpi(d.window + 1))
        });
        // Re-optimization selects already-patched traces in the pool.
        let in_pool = if pc.addr.0 >= isa::TRACE_POOL_BASE { "(trace pool)" } else { "?" };
        loads.push(
            Json::object()
                .with("window", d.window)
                .with("pc", pc.to_string())
                .with("loop", bin.loop_containing(pc.addr).map_or(in_pool, |l| l.name.as_str()))
                .with("samples", *samples)
                .with("latency", *latency)
                .with("pattern", pattern.map(label))
                .with("stream", stream.map(label))
                .with("distance_iters", distance)
                .with("deploy", deploy)
                .with("fate", fate),
        );
    }
    Ok(Json::object()
        .with("bench", w.name)
        .with("cycles", report.cycles)
        .with("windows", report.windows)
        .with("traces_patched", report.traces_patched)
        .with("streams", report.stats)
        .with("loads", loads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cache_counts_hits_and_distinguishes_machines() {
        let suite = workloads::suite(0.05);
        let w = suite.iter().find(|w| w.name == "swim").unwrap();
        let cache = BaselineCache::with_store(None);
        let mcfg = ExperimentSpec::paper_machine_config();
        let a = cache.plain(w, &CompileOptions::o2(), &mcfg).unwrap();
        let b = cache.plain(w, &CompileOptions::o2(), &mcfg).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(cache.stats(), (2, 1), "second lookup must hit");

        // A different machine configuration (the ablation's uncapped-bus
        // variant) is a different key — sharing would corrupt the study.
        let mut uncapped = ExperimentSpec::paper_machine_config();
        uncapped.cache.mem_service_interval = 0;
        cache.plain(w, &CompileOptions::o2(), &uncapped).unwrap();
        assert_eq!(cache.stats(), (3, 2));

        // Different compile options likewise.
        cache.plain(w, &CompileOptions::o2_original(), &mcfg).unwrap();
        assert_eq!(cache.stats(), (4, 3));
    }
}
