//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each experiment subcommand of the `lab` binary (`fig7`, `table1`,
//! `table2`, `fig8_9`, `fig10`, `fig11`, `ablation`, `breakdown`,
//! `families`, `policy`, `explain`) declares an
//! [`engine::ExperimentSpec`] — a grid of (workload × compile options ×
//! ADORE config) cells — and the parallel engine executes it, merges
//! the rows deterministically, and writes `results/<tool>.json`. The
//! helpers below (paper numbers, row math, report plumbing) are shared
//! by the specs and by the tests. `EXPERIMENTS.md` records a captured
//! copy of each output.

#![warn(missing_docs)]

pub mod cli;
pub mod engine;
pub mod lab;
pub mod store;

pub use cli::Cli;
pub use engine::{Cell, CellError, EngineResult, ExperimentSpec, Measure};
pub use store::{BaselineStore, StoredBaseline};

use adore::{AdoreConfig, RunReport};
use compiler::{CompileOptions, CompiledBinary};
use obs::{Json, Report};
use sim::{Machine, SamplingConfig};
use workloads::Workload;

/// Default workload scale for full experiment runs.
pub const FULL_SCALE: f64 = 1.0;

/// Reduced scale for quick smoke runs (`--quick`).
pub const QUICK_SCALE: f64 = 0.25;

/// Compiles a workload with the given options.
///
/// # Errors
///
/// Returns [`CellError::Compile`] when the kernel does not compile —
/// the same error the engine reports for a failed cell, so callers
/// outside the engine (benchmarks, tests, the fuzz harness) decide for
/// themselves whether a bad build aborts the process.
pub fn build(w: &Workload, opts: &CompileOptions) -> Result<CompiledBinary, CellError> {
    compiler::compile(&w.kernel, opts)
        .map_err(|e| CellError::Compile { workload: w.name.to_string(), message: e.to_string() })
}

/// Runs a compiled workload under ADORE; returns the report (cycles
/// include all charged overhead).
pub fn run_adore(w: &Workload, bin: &CompiledBinary, config: &AdoreConfig) -> RunReport {
    let mcfg = config.machine_config(ExperimentSpec::paper_machine_config());
    let mut m = w.prepare(bin, mcfg);
    adore::run(&mut m, config)
}

/// Speedup of `fast` relative to `slow`, as the percentage the paper
/// plots: `time(slow)/time(fast) - 1`.
pub fn speedup_pct(slow_cycles: u64, fast_cycles: u64) -> f64 {
    (slow_cycles as f64 / fast_cycles as f64 - 1.0) * 100.0
}

/// Benchmark order used in the paper's figures (INT first, then FP).
pub const PAPER_ORDER: [&str; 17] = [
    "bzip2", "gzip", "mcf", "vpr", "parser", "gap", "vortex", "gcc", "ammp", "art", "applu",
    "equake", "facerec", "fma3d", "lucas", "mesa", "swim",
];

/// The pointer-rich scenario families ([`workloads::families`](mod@workloads::families)) in
/// report order — the grid `lab families` measures.
pub const FAMILY_ORDER: [&str; 3] = ["server", "graph", "gc"];

/// Paper-reported speedups (%) for Fig. 7(a), O2 + runtime prefetching,
/// read off the published bar chart (approximate to a few percent).
pub fn paper_fig7a(name: &str) -> f64 {
    match name {
        "bzip2" => 10.0,
        "gzip" => 0.0,
        "mcf" => 57.0,
        "vpr" => 0.0,
        "parser" => 3.0,
        "gap" => 0.0,
        "vortex" => 2.0,
        "gcc" => -3.8,
        "ammp" => 5.0,
        "art" => 45.0,
        "applu" => 1.0,
        "equake" => 20.0,
        "facerec" => 8.0,
        "fma3d" => 10.0,
        "lucas" => 0.0,
        "mesa" => 3.0,
        "swim" => 15.0,
        _ => f64::NAN,
    }
}

/// Paper-reported speedups (%) for Fig. 7(b), O3 + runtime prefetching.
pub fn paper_fig7b(name: &str) -> f64 {
    match name {
        "mcf" => 35.0,
        "art" => 25.0,
        "equake" => 20.0,
        "bzip2" => 2.0,
        "gcc" => -3.0,
        _ => 0.0,
    }
}

/// Paper Table 1 rows: (loops scheduled O3, loops scheduled O3+profile,
/// normalized time O3+profile, normalized size O3+profile).
pub fn paper_table1(name: &str) -> Option<(u64, u64, f64, f64)> {
    Some(match name {
        "ammp" => (113, 13, 0.989, 0.980),
        "applu" => (52, 19, 0.998, 0.998),
        "art" => (39, 20, 0.985, 0.964),
        "bzip2" => (65, 11, 1.007, 0.927),
        "equake" => (34, 4, 0.997, 0.992),
        "facerec" => (94, 12, 0.997, 0.970),
        "fma3d" => (1023, 39, 0.996, 0.990),
        "gap" => (553, 18, 1.008, 0.938),
        "gcc" => (651, 21, 0.993, 0.986),
        "gzip" => (85, 2, 1.004, 0.939),
        "lucas" => (59, 23, 0.999, 0.992),
        "mcf" => (7, 3, 0.986, 0.973),
        "mesa" => (583, 14, 0.995, 0.911),
        "parser" => (67, 5, 0.990, 0.958),
        "swim" => (19, 9, 1.001, 0.995),
        "vortex" => (20, 0, 0.995, 0.999),
        "vpr" => (120, 5, 0.990, 0.987),
        _ => return None,
    })
}

/// Paper Table 2 rows: (direct, indirect, pointer-chasing, phases).
pub fn paper_table2(name: &str) -> Option<(u64, u64, u64, u64)> {
    Some(match name {
        "ammp" => (0, 2, 2, 3),
        "applu" => (21, 0, 0, 2),
        "art" => (10, 6, 0, 2),
        "equake" => (6, 1, 0, 1),
        "facerec" => (17, 0, 0, 3),
        "fma3d" => (11, 2, 0, 4),
        "lucas" => (6, 0, 0, 1),
        "mesa" => (1, 0, 0, 1),
        "swim" => (9, 0, 0, 1),
        "bzip2" => (10, 6, 0, 2),
        "gap" => (3, 0, 0, 3),
        "gcc" => (2, 0, 0, 2),
        "gzip" => (0, 0, 0, 0),
        "mcf" => (0, 0, 3, 2),
        "parser" => (1, 0, 2, 1),
        "vortex" => (2, 0, 0, 2),
        "vpr" => (1, 0, 0, 1),
        _ => return None,
    })
}

/// Starts a structured report seeded with the shared run configuration
/// (workload scale, recorded CLI arguments, sampling parameters).
///
/// Every field here must be deterministic: the engine's acceptance
/// criterion is byte-identical reports for any `--jobs` value, so the
/// argument list excludes `--jobs` (see [`cli::Cli::report_args`]) and the
/// sampling block excludes the per-cell seed.
pub fn experiment_report_with(
    tool: &str,
    args: &[String],
    scale: f64,
    sampling: &SamplingConfig,
) -> Report {
    let mut r = Report::new(tool);
    r.set(
        "run_config",
        Json::object()
            .with("scale", scale)
            .with("quick", scale != FULL_SCALE)
            .with("args", args.to_vec())
            .with(
                "sampling",
                Json::object()
                    .with("interval_cycles", sampling.interval_cycles)
                    .with("buffer_capacity", sampling.buffer_capacity)
                    .with("per_sample_cost", sampling.per_sample_cost)
                    .with("jitter", sampling.jitter),
            ),
    );
    r
}

/// Cache and PMU statistics of a finished machine, for report rows.
pub fn machine_stats_json(m: &Machine) -> Json {
    let c = &m.pmu().counters;
    let miss_per_kinsn =
        if c.retired == 0 { 0.0 } else { c.dear_misses as f64 * 1000.0 / c.retired as f64 };
    Json::object()
        .with("pmu", c)
        .with("dear_miss_per_kinsn", miss_per_kinsn)
        .with("caches", m.caches())
}

/// `row.get(key)` as f64, defaulting to NaN — for printing engine rows.
pub fn jf(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `row.get(key)` as u64, defaulting to 0 — for printing engine rows.
pub fn ju(row: &Json, key: &str) -> u64 {
    row.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `row.get(key)` as &str, defaulting to `"?"` — for printing engine rows.
pub fn js<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// The engine error message of a failed cell's row, if any. Binaries
/// print these instead of data columns.
pub fn je(row: &Json) -> Option<&str> {
    row.get("error").and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        assert!((speedup_pct(150, 100) - 50.0).abs() < 1e-9);
        assert!((speedup_pct(100, 100)).abs() < 1e-9);
        assert!(speedup_pct(97, 100) < 0.0);
    }

    #[test]
    fn paper_tables_cover_all_benchmarks() {
        for name in PAPER_ORDER {
            assert!(paper_table1(name).is_some(), "{name} missing from table 1");
            assert!(paper_table2(name).is_some(), "{name} missing from table 2");
            assert!(!paper_fig7a(name).is_nan());
        }
    }

    #[test]
    fn experiment_report_seeds_run_config() {
        let sampling = ExperimentSpec::paper_adore_config().sampling;
        let r = experiment_report_with("unit", &["--quick".to_string()], QUICK_SCALE, &sampling);
        let j = r.json();
        assert_eq!(j.get("tool").and_then(Json::as_str), Some("unit"));
        let rc = j.get("run_config").expect("run_config present");
        assert_eq!(rc.get("quick"), Some(&Json::Bool(true)));
        assert!(rc.get("sampling").and_then(|s| s.get("interval_cycles")).is_some());
        assert!(Json::parse(&j.to_string()).is_ok(), "report serializes to valid JSON");
    }
}
