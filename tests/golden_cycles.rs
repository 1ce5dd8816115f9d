//! Golden cycle-exactness harness for the simulator execution paths.
//!
//! Every suite and scenario-family workload is run to completion on
//! both [`ExecPath::Fast`]
//! and [`ExecPath::Reference`] and the full observable timing surface —
//! final cycle, retired count, every PMU counter, per-cache hit/miss
//! counts and DTLB statistics — is compared (a) between the two paths
//! and (b) against a checked-in golden file. Any fast-path optimization
//! that changes *anything* observable therefore fails loudly with the
//! first diverging workload and counter.
//!
//! Three tiers:
//! - `golden_cycle_exactness_tiny` runs at a small scale on every
//!   `cargo test` (debug-friendly);
//! - `golden_cycle_exactness_quick` covers the full quick benchmark
//!   scale (the one `results/bench_simulator.json` reports on) and is
//!   `#[ignore]`d by default; `tools/ci.sh` runs it in release;
//! - `golden_adore_legs_tiny` runs every workload at the tiny scale
//!   under ADORE with the paper configuration, so the *sampled*
//!   instantiation of each cycle-exact tier is pinned too: sample-due
//!   checks and sample-buffer overflow stops feed into its snapshot,
//!   together with the run's window and patched-trace counts. At this
//!   scale the paper configuration patches no trace, so the tier pins
//!   sampling and windows only; patched code is covered by the threaded
//!   deoptimization reproducer (`tests/corpus_replay.rs`) and the
//!   `adore::patch` unit tests.
//!
//! To regenerate after an *intentional* timing-model change:
//!
//! ```text
//! ADORE_BLESS=1 cargo test --release --test golden_cycles -- --include-ignored
//! ```

use adore::AdoreConfig;
use compiler::{compile, CompileOptions};
use sim::{ExecPath, Machine, MachineConfig, SamplingConfig, StopReason};

/// Default tier scale: small enough that a debug-mode run of all 17
/// workloads on both paths stays in single-digit seconds.
const TINY_SCALE: f64 = 0.02;
/// Full tier scale; matches `bench_harness::QUICK_SCALE`, i.e. the
/// suite the simulator benchmark reports throughput for.
const QUICK_SCALE: f64 = 0.25;

/// Every observable the golden file pins, one line per workload.
fn snapshot(m: &Machine) -> String {
    let c = &m.pmu().counters;
    let [l1d, l1i, l2, l3] = m.caches().cache_stats();
    let (tlb_hits, tlb_misses) = m.tlb().stats();
    format!(
        "cycles={} retired={} loads={} branches={} l1d_misses={} \
         dear_misses={} dear_latency={} l1i_misses={} dtlb_misses={} \
         stall_mem={} stall_fp={} stall_branch={} stall_icache={} \
         l1d={}/{} l1i={}/{} l2={}/{} l3={}/{} tlb={}/{}",
        c.cycles,
        c.retired,
        c.loads,
        c.branches,
        c.l1d_misses,
        c.dear_misses,
        c.dear_latency,
        c.l1i_misses,
        c.dtlb_misses,
        c.stall_mem,
        c.stall_fp,
        c.stall_branch,
        c.stall_icache,
        l1d.0,
        l1d.1,
        l1i.0,
        l1i.1,
        l2.0,
        l2.1,
        l3.0,
        l3.1,
        tlb_hits,
        tlb_misses,
    )
}

fn run_one(w: &workloads::Workload, bin: &compiler::CompiledBinary, path: ExecPath) -> String {
    // The snapshot is the full observable timing surface; only
    // cycle-exact tiers may ever produce golden lines (the threaded
    // tier's cycle counts are deliberately unmodeled).
    assert!(path.is_cycle_exact(), "golden snapshots need a cycle-exact path, got {path}");
    let mut config = MachineConfig::default();
    config.exec_path = path;
    let mut m = w.prepare(bin, config);
    assert_eq!(m.run(u64::MAX), StopReason::Halted, "{} must halt on {path}", w.name);
    snapshot(&m)
}

/// The experiments' ADORE configuration (`ExperimentSpec::paper_adore_config`
/// in the bench crate): paper-like sampling ratios with prefetch
/// insertion, patching and the unpatch monitor enabled.
fn paper_adore_config() -> AdoreConfig {
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

/// One ADORE leg on `path`: the machine snapshot after the monitored
/// run, plus the profile windows produced and the traces patched.
fn run_adore_leg(
    w: &workloads::Workload,
    bin: &compiler::CompiledBinary,
    path: ExecPath,
) -> String {
    assert!(path.is_cycle_exact(), "golden snapshots need a cycle-exact path, got {path}");
    let config = paper_adore_config();
    let base = MachineConfig { exec_path: path, ..MachineConfig::default() };
    let mut m = w.prepare(bin, config.machine_config(base));
    let report = adore::run(&mut m, &config);
    assert!(m.is_halted(), "{} must halt under ADORE on {path}", w.name);
    format!("{} windows={} traces_patched={}", snapshot(&m), report.windows, report.traces_patched)
}

/// Runs the whole suite plus the scenario families at `scale`, built
/// with `opts`, through `leg` on both cycle-exact paths, asserting path
/// agreement, and returns `name -> snapshot` lines in suite order.
fn observed_lines(
    scale: f64,
    opts: &CompileOptions,
    leg: fn(&workloads::Workload, &compiler::CompiledBinary, ExecPath) -> String,
) -> Vec<(String, String)> {
    workloads::all(scale)
        .iter()
        .map(|w| {
            let bin = compile(&w.kernel, opts).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let fast = leg(w, &bin, ExecPath::Fast);
            let reference = leg(w, &bin, ExecPath::Reference);
            assert_eq!(fast, reference, "{}: fast and reference paths diverged", w.name);
            (w.name.to_string(), fast)
        })
        .collect()
}

fn golden_path(tier: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(format!("golden_cycles_{tier}.txt"))
}

/// Diff-style description of the first divergent `key=value` counter
/// between a golden and an observed snapshot line.
fn first_divergent_counter(want: &str, got: &str) -> String {
    for (w, g) in want.split_whitespace().zip(got.split_whitespace()) {
        if w == g {
            continue;
        }
        let (key, wv) = w.split_once('=').unwrap_or((w, "?"));
        let gv = g.split_once('=').map_or("?", |(_, v)| v);
        return format!("counter `{key}` diverged: golden {wv}, observed {gv}");
    }
    format!(
        "snapshot shape changed: golden has {} counters, observed {}",
        want.split_whitespace().count(),
        got.split_whitespace().count()
    )
}

/// Every workload whose observed snapshot differs from the golden one,
/// each with its first divergent counter. Only workloads present on
/// both sides are compared; name-list drift is handled separately.
fn divergences(
    golden: &[(String, String)],
    observed: &[(String, String)],
) -> Vec<(String, String)> {
    golden
        .iter()
        .filter_map(|(name, want)| {
            let (_, got) = observed.iter().find(|(n, _)| n == name)?;
            (want != got).then(|| (name.clone(), first_divergent_counter(want, got)))
        })
        .collect()
}

fn parse_golden(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, snap) = l.split_once(' ').expect("golden line: `<name> <snapshot>`");
            (name.to_string(), snap.to_string())
        })
        .collect()
}

fn check_against_golden(tier: &str, observed: Vec<(String, String)>) {
    let path = golden_path(tier);
    let bless = std::env::var("ADORE_BLESS").ok();

    if let Some(mode) = bless {
        // Blessing must be deliberate: if the tree already diverges
        // from the checked-in golden, refuse — show the diff so a
        // regression cannot be silently baked in — unless forced.
        if mode != "force" {
            if let Ok(text) = std::fs::read_to_string(&path) {
                let diverged = divergences(&parse_golden(&text), &observed);
                if let Some((first, detail)) = diverged.first() {
                    panic!(
                        "refusing to bless {}: the tree already diverges on {} \
                         workload(s), first at `{first}` ({detail}).\n\
                         Inspect the regression, then re-bless intentionally with \
                         ADORE_BLESS=force.",
                        path.display(),
                        diverged.len()
                    );
                }
            }
        }
        let mut out = String::from(
            "# Golden cycle-exactness snapshots (see tests/golden_cycles.rs).\n\
             # Regenerate with: ADORE_BLESS=1 cargo test --release \
             --test golden_cycles -- --include-ignored\n",
        );
        for (name, snap) in &observed {
            out.push_str(&format!("{name} {snap}\n"));
        }
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("blessed {} ({} workloads)", path.display(), observed.len());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(golden file missing? bless it: ADORE_BLESS=1 \
             cargo test --release --test golden_cycles -- --include-ignored)",
            path.display()
        )
    });
    let golden = parse_golden(&text);

    let golden_names: Vec<&str> = golden.iter().map(|(n, _)| n.as_str()).collect();
    let observed_names: Vec<&str> = observed.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        golden_names, observed_names,
        "workload suite changed; re-bless the {tier} golden file"
    );
    let diverged = divergences(&golden, &observed);
    if let Some((first, detail)) = diverged.first() {
        panic!(
            "cycle-exactness regression against {}: {} of {} workload(s) diverged, \
             first at `{first}` — {detail}\n\
             (if the timing model changed intentionally, re-bless with ADORE_BLESS=1)",
            path.display(),
            diverged.len(),
            golden.len()
        );
    }
}

#[test]
fn divergence_diff_names_the_first_differing_counter() {
    let want = "cycles=100 retired=50 loads=10";
    let got = "cycles=100 retired=51 loads=10";
    let msg = first_divergent_counter(want, got);
    assert!(msg.contains("`retired`") && msg.contains("50") && msg.contains("51"), "{msg}");
    assert!(first_divergent_counter(want, "cycles=100").contains("shape changed"));
    let d = divergences(
        &[("a".into(), want.into()), ("b".into(), want.into())],
        &[("a".into(), want.into()), ("b".into(), got.into())],
    );
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].0, "b");
}

#[test]
fn golden_cycle_exactness_tiny() {
    check_against_golden("tiny", observed_lines(TINY_SCALE, &CompileOptions::default(), run_one));
}

/// The sampled tier: every workload at the tiny scale, compiled at O2
/// as the Fig. 7 grid compiles it, run under ADORE with the paper
/// configuration on both cycle-exact paths.
#[test]
fn golden_adore_legs_tiny() {
    check_against_golden(
        "adore_tiny",
        observed_lines(TINY_SCALE, &CompileOptions::o2(), run_adore_leg),
    );
}

/// The full quick-scale tier. Slow in debug builds, so it is ignored
/// by default; `tools/ci.sh` runs it in release.
#[test]
#[ignore = "quick-scale golden pass; tools/ci.sh runs it in release"]
fn golden_cycle_exactness_quick() {
    check_against_golden("quick", observed_lines(QUICK_SCALE, &CompileOptions::default(), run_one));
}
