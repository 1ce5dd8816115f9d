//! The traced run: each workload's job once untraced, then once more
//! replayed through the same public calls with a span around every
//! call into a layer. Per-layer time is span self time; per-layer work
//! is counted at the same calls.
//!
//! Spans live in memory and are written out (Chrome trace-event JSON,
//! `--chrome=FILE`) when the run ends. Anything run after the traced
//! pass — the plain runs that price sampling on `policy_warm`, the
//! interpreter replay on `fuzz_fast` — is left out of
//! `trace.overhead_pct` and `trace.coverage_pct`.

use std::collections::BTreeMap;
use std::time::Instant;

use adore::pipeline::OptContext;
use adore::{AdoreConfig, PassKind, Pipeline, RunReport};
use bench_harness::lab::serve::serve_io;
use bench_harness::{machine_stats_json, BaselineStore, ExperimentSpec, StoredBaseline};
use compiler::{CompileOptions, CompiledBinary};
use obs::Json;
use oracle::{check_case, generate, run_campaign, DiffConfig, GenConfig, Interp};
use perfmon::Perfmon;
use sim::{Machine, MachineConfig, StopReason};
use workloads::Workload;

use crate::stats::median;
use crate::workload::{
    campaign_config, campaign_setup, campaign_sim, case_seed, fuzz_setup, grid_names, grid_pass,
    grid_setup, grid_sim, secs, section, serve_checks, serve_cli, serve_requests, serve_setup,
    serve_stream, tool_name, Kind, Scratch, Tally, SERVE_WORKERS,
};
use crate::{Metric, Outcome, Params};

/// A span: a named call into one layer on behalf of one operation.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// The root span of one operation (cell, case or request); every other
/// name is a layer.
const OP: &str = "op";

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Each span's duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time per span name, over spans starting in `[from, to)`.
    fn self_by_name(&self, from: u64, to: u64) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if (from..to).contains(&s.start_ns) {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (Perfetto reads it).
    fn chrome(&self) -> Json {
        let mut events = Json::array();
        for (i, s) in self.spans.iter().enumerate() {
            events.push(
                Json::object()
                    .with("name", s.name)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with(
                        "args",
                        Json::object()
                            .with("op", s.op)
                            .with("id", i)
                            .with("parent", s.parent),
                    ),
            );
        }
        Json::object().with("traceEvents", events)
    }
}

/// Work counted at the layer boundaries, plus the figures a workload
/// derives from its passes.
#[derive(Default)]
struct Layers {
    plain_insns: u64,
    sampled_insns: u64,
    cycles: u64,
    dear_samples: u64,
    lfetch: u64,
    windows: u64,
    traces_patched: u64,
    streams: u64,
    decisions: u64,
    charged: u64,
    pass_ns: BTreeMap<&'static str, u64>,
    store_hits: u64,
    store_misses: u64,
    engine_overhead_pct: f64,
    service_ms_p50: f64,
    wait_ms_p50: f64,
    sim_legs_us_p50: f64,
    cases_patched: u64,
    machine_resets: u64,
    inconclusive: u64,
    campaign: Option<[u64; 5]>,
    /// Traced and untraced wall of the pass, in seconds.
    walls: (f64, f64),
    /// The traced pass, in tracer nanoseconds.
    window: (u64, u64),
}

/// Every per-layer metric, in declaration order. Layers a workload does
/// not exercise report 0.
fn per_layer(tr: &Tracer, l: &Layers) -> Vec<Metric> {
    let all = tr.self_by_name(0, u64::MAX);
    let t = |name: &str| all.get(name).copied().unwrap_or(0) as f64;
    let per_insn = |ns: f64, insns: u64| if insns == 0 { 0.0 } else { ns / insns as f64 };
    let p50_us = |name: &str| {
        let d = tr.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) / 1e3
        }
    };
    let (plain, sampled) = (
        per_insn(t("sim.plain"), l.plain_insns),
        per_insn(t("sim.sampled"), l.sampled_insns),
    );
    let tax = if plain > 0.0 && sampled > 0.0 {
        (sampled / plain - 1.0) * 100.0
    } else {
        0.0
    };
    let in_window = tr.self_by_name(l.window.0, l.window.1);
    let layer_ns: u64 = in_window
        .iter()
        .filter(|(n, _)| **n != OP)
        .map(|(_, v)| v)
        .sum();
    let coverage = 100.0 * layer_ns as f64 / (l.window.1 - l.window.0).max(1) as f64;
    let overhead = if l.walls.1 > 0.0 {
        (l.walls.0 / l.walls.1 - 1.0) * 100.0
    } else {
        0.0
    };
    let campaign = l.campaign.unwrap_or_default();
    let mut v = vec![
        Metric::new("sim.plain.s", t("sim.plain") / 1e9, "s"),
        Metric::new("sim.plain.ns_per_insn", plain, "ns/insn"),
        Metric::new("sim.sampled.s", t("sim.sampled") / 1e9, "s"),
        Metric::new("sim.sampled.ns_per_insn", sampled, "ns/insn"),
        Metric::new("sim.sampling_tax_pct", tax, "%"),
        Metric::new(
            "sim.retired_minsn",
            (l.plain_insns + l.sampled_insns) as f64 / 1e6,
            "Minsn",
        ),
        Metric::new("sim.cycles_m", l.cycles as f64 / 1e6, "Mcycles"),
        Metric::new("sim.dear_samples", l.dear_samples as f64, "count"),
        Metric::new("sim.lfetch_issued", l.lfetch as f64, "count"),
        Metric::new("perfmon.windows", l.windows as f64, "count"),
        Metric::new("perfmon.overflow_us", p50_us("perfmon.overflow"), "us"),
        Metric::new("adore.pipeline.s", t("adore.pipeline") / 1e9, "s"),
    ];
    for kind in PassKind::ALL {
        let ns = l.pass_ns.get(kind.name()).copied().unwrap_or(0);
        v.push(Metric::new(
            format!("adore.pass.{}.ms", kind.name()),
            ns as f64 / 1e6,
            "ms",
        ));
    }
    v.extend([
        Metric::new("adore.traces_patched", l.traces_patched as f64, "count"),
        Metric::new("adore.streams", l.streams as f64, "count"),
        Metric::new("adore.policy.decisions", l.decisions as f64, "count"),
        Metric::new("adore.charged_mcycles", l.charged as f64 / 1e6, "Mcycles"),
        Metric::new("compiler.compile_ms", t("compiler.compile") / 1e6, "ms"),
        Metric::new("workloads.all_ms", t("workloads.all") / 1e6, "ms"),
        Metric::new("workloads.prepare_ms", t("workloads.prepare") / 1e6, "ms"),
        Metric::new("bench.store.save_ms", t("bench.store.save") / 1e6, "ms"),
        Metric::new("bench.store.load_ms", t("bench.store.load") / 1e6, "ms"),
        Metric::new("bench.store.hits", l.store_hits as f64, "count"),
        Metric::new("bench.store.misses", l.store_misses as f64, "count"),
        Metric::new("bench.row_ms", t("bench.row") / 1e6, "ms"),
        Metric::new("bench.engine.overhead_pct", l.engine_overhead_pct, "%"),
        Metric::new("bench.serve.service_ms_p50", l.service_ms_p50, "ms"),
        Metric::new("bench.serve.wait_ms_p50", l.wait_ms_p50, "ms"),
        Metric::new("obs.json.emit_ms", t("obs.json.emit") / 1e6, "ms"),
        Metric::new("oracle.generate_us", p50_us("oracle.generate"), "us"),
        Metric::new("oracle.check_us", p50_us("oracle.check"), "us"),
        Metric::new("oracle.interp_us", p50_us("oracle.interp"), "us"),
        Metric::new("oracle.sim_legs_us", l.sim_legs_us_p50, "us"),
        Metric::new("oracle.cases_patched", l.cases_patched as f64, "count"),
        Metric::new("oracle.machine_resets", l.machine_resets as f64, "count"),
        Metric::new("oracle.inconclusive", l.inconclusive as f64, "count"),
        Metric::new("campaign.coverage_keys", campaign[0] as f64, "count"),
        Metric::new("campaign.corpus_added", campaign[1] as f64, "count"),
        Metric::new("campaign.tier_compiled", campaign[2] as f64, "count"),
        Metric::new("campaign.tier_deopt", campaign[3] as f64, "count"),
        Metric::new("campaign.machine_resets", campaign[4] as f64, "count"),
        Metric::new("trace.overhead_pct", overhead, "%"),
        Metric::new("trace.coverage_pct", coverage, "%"),
    ]);
    v
}

pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    let mut tr = Tracer::new();
    let mut l = Layers::default();
    let mut out = match p.kind {
        Kind::Fig7Cold | Kind::PolicyWarm => trace_grid(p, scratch, &mut tr, &mut l),
        Kind::FuzzFast => trace_fuzz(p, &mut tr, &mut l),
        Kind::Campaign => trace_campaign(p, scratch, &mut tr, &mut l),
        Kind::ServeStream => trace_serve(p, scratch, &mut tr, &mut l),
    };
    out.metrics = per_layer(&tr, &l);
    let pipeline_ns = tr
        .self_by_name(0, u64::MAX)
        .get("adore.pipeline")
        .copied()
        .unwrap_or(0);
    let passes_ns: u64 = l.pass_ns.values().sum();
    out.detail.set("spans", tr.spans.len());
    out.detail.set(
        "pass_sum_over_pipeline",
        if pipeline_ns == 0 {
            0.0
        } else {
            passes_ns as f64 / pipeline_ns as f64
        },
    );
    if let Some(path) = &p.chrome {
        if let Err(e) = std::fs::write(path, tr.chrome().to_string()) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    out
}

/// The per-cell sampling seed, derived exactly as `bench::engine` does
/// (FNV-1a over tool/section/workload, splitmix finalizer), so a
/// replayed cell samples the same instants as the engine's.
pub fn cell_seed(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for b in p.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One ADORE leg, as `adore::run` drives it, with the simulator,
/// perfmon and pipeline calls in separate spans. (Run teardown only
/// zeroes instrumentation buffers in data memory, which changes no
/// count reported here, so it is left out.)
fn adore_leg(
    tr: &mut Tracer,
    l: &mut Layers,
    op: u64,
    w: &Workload,
    bin: &CompiledBinary,
    cfg: &AdoreConfig,
    machine: &MachineConfig,
) -> (RunReport, Machine) {
    let mut m = tr.time("workloads.prepare", op, || {
        w.prepare(bin, cfg.machine_config(machine.clone()))
    });
    let mut pm = Perfmon::new(cfg.perfmon.clone());
    let mut pipeline = Pipeline::from_config(&cfg.pipeline);
    let mut ctx = OptContext::new(cfg);
    loop {
        let before = m.retired();
        let stop = tr.time("sim.sampled", op, || m.run(u64::MAX));
        l.sampled_insns += m.retired() - before;
        if !matches!(stop, StopReason::SampleBufferOverflow) {
            break;
        }
        let win = tr.time("perfmon.overflow", op, || pm.on_overflow(&mut m).clone());
        l.dear_samples += win.samples.iter().filter(|s| s.dear.is_some()).count() as u64;
        tr.time("adore.pipeline", op, || {
            pipeline.run_window(&mut ctx, &mut m, &win, pm.ueb())
        });
    }
    let mut report = RunReport {
        cycles: m.cycles(),
        retired: m.retired(),
        windows: pm.windows_produced(),
        ..RunReport::default()
    };
    ctx.finish(&mut report);
    l.cycles += report.cycles;
    l.windows += report.windows;
    l.lfetch += m.caches().lfetch_stats().0;
    l.traces_patched += report.traces_patched as u64;
    l.streams += report.stats.total() as u64;
    l.decisions += report.policy.decisions.len() as u64;
    l.charged += report.ledger.total_charged();
    for (kind, led) in report.ledger.entries() {
        *l.pass_ns.entry(kind.name()).or_insert(0) += led.wall_ns;
    }
    (report, m)
}

/// Replays one grid cell the way the engine measures it: compile, the
/// baseline through the store, then the ADORE leg(s). Returns the
/// cycle counts the engine row must hold, keyed by its column names.
fn replay_cell(
    tr: &mut Tracer,
    l: &mut Layers,
    op: u64,
    kind: Kind,
    w: &Workload,
    store: &BaselineStore,
    seed_parts: [&str; 2],
) -> Result<Vec<(&'static str, u64)>, String> {
    let (opts, machine) = (CompileOptions::o2(), ExperimentSpec::paper_machine_config());
    let bin = tr
        .time("compiler.compile", op, || bench_harness::build(w, &opts))
        .map_err(|e| e.to_string())?;
    let key = BaselineStore::key(w, &opts, &machine);
    let base_cycles = match tr.time("bench.store.load", op, || store.load(key)) {
        Some(hit) => hit.cycles,
        None => {
            let mut m = tr.time("workloads.prepare", op, || w.prepare(&bin, machine.clone()));
            let cycles = tr.time("sim.plain", op, || m.run_to_halt());
            l.plain_insns += m.retired();
            l.cycles += cycles;
            let stats = tr.time("bench.row", op, || machine_stats_json(&m));
            let entry = StoredBaseline {
                cycles,
                counters: m.pmu().counters,
                stats,
            };
            tr.time("bench.store.save", op, || store.save(key, &entry));
            cycles
        }
    };
    let mut adore = ExperimentSpec::paper_adore_config();
    adore.sampling.seed = cell_seed(&[seed_parts[0], seed_parts[1], w.name]);
    let legs: &[(&'static str, bool)] = if kind == Kind::Fig7Cold {
        &[("adore_cycles", false)]
    } else {
        &[("static_cycles", false), ("adaptive_cycles", true)]
    };
    let mut cycles = vec![("base_cycles", base_cycles)];
    for &(column, policy) in legs {
        adore.policy.enable = policy;
        let (report, m) = adore_leg(tr, l, op, w, &bin, &adore, &machine);
        let row = tr.time("bench.row", op, || {
            Json::object()
                .with("bench", w.name)
                .with(column, report.cycles)
                .with("streams", report.stats)
                .with("adore", machine_stats_json(&m))
        });
        std::hint::black_box(tr.time("obs.json.emit", op, || row.to_string()));
        cycles.push((column, report.cycles));
    }
    Ok(cycles)
}

fn trace_grid(p: &Params, scratch: &Scratch, tr: &mut Tracer, l: &mut Layers) -> Outcome {
    let (kind, size) = (p.kind, &p.size);
    let (warm, _) = grid_setup(p, scratch);
    let store_dir = || warm.clone().unwrap_or_else(|| scratch.fresh("store"));
    let engine = grid_pass(kind, p.seed, size, store_dir());

    let store = BaselineStore::open(store_dir()).expect("open the replay store");
    let tool = tool_name(kind, p.seed);
    let mut problems = Vec::new();
    let start = tr.now();
    let t = Instant::now();
    let suite = tr.time("workloads.all", u64::MAX, || workloads::all(size.scale));
    for (i, name) in grid_names(kind, size).iter().enumerate() {
        let w = suite
            .iter()
            .find(|w| w.name == *name)
            .expect("grid workload exists");
        let root = tr.begin(OP, i as u64);
        let replayed = replay_cell(tr, l, i as u64, kind, w, &store, [&tool, section(kind)]);
        tr.end(root);
        let row = engine.rows.get(i).cloned().unwrap_or(Json::Null);
        match replayed {
            Ok(cycles) => {
                for (column, c) in cycles {
                    if bench_harness::ju(&row, column) != c {
                        problems.push(format!("{name}: replayed {column} {c} != engine row {row}"));
                    }
                }
            }
            Err(e) => problems.push(format!("{name}: {e}")),
        }
    }
    l.window = (start, tr.now());
    l.walls = (secs(t.elapsed()), secs(engine.wall));
    let (hits, misses) = store.stats();
    (l.store_hits, l.store_misses) = (hits as u64, misses as u64);
    let cells_ns: f64 = tr.durations(OP).iter().sum();
    l.engine_overhead_pct = (1.0 - cells_ns / 1e9 / secs(engine.wall)) * 100.0;

    if kind == Kind::PolicyWarm {
        // The timed grid reads its baselines from the store, so it
        // never runs a plain simulation; run each once now to price
        // sampling against the same workloads.
        for (i, name) in grid_names(kind, size).iter().enumerate() {
            let w = suite
                .iter()
                .find(|w| w.name == *name)
                .expect("grid workload exists");
            let bin = bench_harness::build(w, &CompileOptions::o2()).expect("grid workload builds");
            let mut m = w.prepare(&bin, ExperimentSpec::paper_machine_config());
            tr.time("sim.plain", i as u64, || m.run_to_halt());
            l.plain_insns += m.retired();
        }
    }
    let checked = engine.rows.len() as u64;
    Outcome {
        ops: checked,
        failed: engine.errors as u64,
        problems,
        metrics: Vec::new(),
        detail: Json::object().with("cycle_checked_cells", checked),
        sim: grid_sim(kind, &engine.rows),
    }
}

/// Data memory the oracle maps past a spec's arena (`oracle::diff`
/// gives every leg this headroom), so the interpreter replay matches
/// the interpreter leg inside `check_case`.
const INSTR_SCRATCH: u64 = 64 * 1024;

fn trace_fuzz(p: &Params, tr: &mut Tracer, l: &mut Layers) -> Outcome {
    let (mut runner, _) = fuzz_setup(p);
    let (gen, diff) = (GenConfig::default(), DiffConfig::default());
    let seeds: Vec<u64> = (0..p.size.fuzz_batch as u64)
        .map(|i| case_seed(p.seed, i))
        .collect();
    let t = Instant::now();
    for &seed in &seeds {
        let (spec, _) = generate(seed, &gen);
        std::hint::black_box(check_case(&spec, &diff, &mut runner));
    }
    let untraced = secs(t.elapsed());

    let resets = runner.resets;
    let mut tally = Tally::default();
    let mut specs = Vec::new();
    let start = tr.now();
    let t = Instant::now();
    for (i, &seed) in seeds.iter().enumerate() {
        let root = tr.begin(OP, i as u64);
        let (spec, _) = tr.time("oracle.generate", i as u64, || generate(seed, &gen));
        let (result, _) = tr.time("oracle.check", i as u64, || {
            check_case(&spec, &diff, &mut runner)
        });
        tr.end(root);
        tally.add(seed, &result);
        specs.push(spec);
    }
    l.window = (start, tr.now());
    l.walls = (secs(t.elapsed()), untraced);
    (l.cases_patched, l.inconclusive, l.machine_resets) =
        (tally.patched, tally.inconclusive, runner.resets - resets);

    // The interpreter leg alone, to split each check into the
    // reference interpreter and the two simulated legs.
    for (i, spec) in specs.iter().enumerate() {
        tr.time("oracle.interp", i as u64, || {
            // A case that does not assemble is already counted failed.
            if let Ok(program) = spec.assemble() {
                let mut interp = Interp::new(program, (spec.arena_bytes + INSTR_SCRATCH) as usize);
                spec.init_memory(interp.mem_mut());
                std::hint::black_box(interp.run(diff.fuel));
            }
        });
    }
    let (check, interp) = (tr.durations("oracle.check"), tr.durations("oracle.interp"));
    let legs: Vec<f64> = check.iter().zip(&interp).map(|(c, i)| c - i).collect();
    l.sim_legs_us_p50 = median(&legs) / 1e3;
    Outcome {
        ops: tally.cases,
        failed: tally.failed,
        sim: tally.sim(),
        problems: tally.problems,
        metrics: Vec::new(),
        detail: Json::object(),
    }
}

fn trace_campaign(p: &Params, scratch: &Scratch, tr: &mut Tracer, l: &mut Layers) -> Outcome {
    campaign_setup(p, scratch);
    let t = Instant::now();
    let untraced = run_campaign(&campaign_config(p.seed, &p.size, scratch.fresh("corpus")));
    let untraced_wall = secs(t.elapsed());

    let start = tr.now();
    let t = Instant::now();
    let root = tr.begin(OP, 0);
    let stats = tr.time("oracle.campaign", 0, || {
        run_campaign(&campaign_config(p.seed, &p.size, scratch.fresh("corpus")))
    });
    tr.end(root);
    l.window = (start, tr.now());
    l.walls = (secs(t.elapsed()), untraced_wall);
    let key = |k: &str| stats.coverage.get(k).copied().unwrap_or(0);
    l.campaign = Some([
        stats.coverage.len() as u64,
        stats.corpus_added,
        key("tier:compiled"),
        key("tier:deopt"),
        stats.machine_resets,
    ]);
    let mut problems: Vec<String> = stats
        .mismatches
        .iter()
        .map(|m| {
            format!(
                "case {:#x} diverged at {}: {}",
                m.case_seed, m.stage, m.detail
            )
        })
        .collect();
    let sim = campaign_sim(&stats);
    if sim != campaign_sim(&untraced) {
        problems.push("traced campaign differs from the untraced one".into());
    }
    Outcome {
        ops: stats.cases,
        failed: stats.undecided + stats.mismatches.len() as u64,
        problems,
        metrics: Vec::new(),
        detail: Json::object().with("inconclusive", stats.inconclusive),
        sim,
    }
}

fn trace_serve(p: &Params, scratch: &Scratch, tr: &mut Tracer, l: &mut Layers) -> Outcome {
    let (store, _) = serve_setup(p, scratch);
    let reqs = serve_requests(p.seed, &p.size);
    let stream = serve_stream(
        &serve_cli(&p.size, SERVE_WORKERS, &store),
        &reqs,
        p.size.serve_rate,
    );
    let mut problems = Vec::new();
    serve_checks(&reqs, &stream, &stream.rows, &mut problems);

    // Each request alone on one worker: its service time, so that the
    // stream's latency splits into service and wait.
    let alone = serve_cli(&p.size, 1, &store);
    let start = tr.now();
    for (i, r) in reqs.iter().enumerate() {
        let root = tr.begin(OP, i as u64);
        let s = tr.time("bench.serve.request", i as u64, || {
            serve_io(&alone, r.line.as_bytes(), &mut Vec::new())
        });
        tr.end(root);
        l.store_hits += s.store_hits as u64;
        l.store_misses += s.store_misses as u64;
        if s.errors > 0 || s.cells != 1 {
            problems.push(format!("{}/{}: replay failed", r.measure, r.workload));
        }
    }
    l.window = (start, tr.now());
    l.store_hits += stream.store_hits as u64;
    l.store_misses += stream.store_misses as u64;
    let service_ms: Vec<f64> = tr
        .durations("bench.serve.request")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let wait: Vec<f64> = stream
        .latency_ms
        .iter()
        .zip(&service_ms)
        .map(|(lat, s)| lat - s)
        .collect();
    l.service_ms_p50 = median(&service_ms);
    l.wait_ms_p50 = median(&wait);
    Outcome {
        ops: reqs.len() as u64,
        failed: stream.failed(),
        problems,
        metrics: Vec::new(),
        detail: Json::object(),
        sim: Json::Null,
    }
}
