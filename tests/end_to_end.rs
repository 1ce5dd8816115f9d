//! End-to-end integration: the full ADORE pipeline on real workloads,
//! including semantic preservation under trace patching.
//!
//! Every scale-sensitive test runs in two tiers sharing one body:
//!
//! - the default tests use [`QUICK`], sized so a debug-mode
//!   `cargo test` stays fast;
//! - the `*_full` twins use [`FULL`] (the original paper-scale
//!   parameters) and are `#[ignore]`d; `tools/ci.sh` runs them in
//!   release with `ADORE_FULL_E2E=1 cargo test ... -- --ignored`.
//!   Without that variable the full twins skip themselves, so a casual
//!   `--include-ignored` in a debug build does not hang for minutes.

use adore::{run, AdoreConfig};
use compiler::{compile, CompileOptions};
use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
use sim::{Machine, MachineConfig, SamplingConfig};

/// Workload sizes and the thresholds calibrated for them.
struct Profile {
    /// `workloads::suite` scale for the all-workloads smoke test.
    suite_scale_small: f64,
    /// Suite scale for the mcf-gains / lucas-does-not comparison.
    suite_scale_gain: f64,
    /// Suite scale for the O3-compose and sampling-overhead tests.
    suite_scale_compose: f64,
    /// Outer/inner trip counts of the hand-built summing loop.
    patch_outer: i64,
    patch_inner: i64,
    /// Minimum acceptable mcf speedup (shrinks with the working set).
    mcf_min_gain: f64,
    /// Maximum acceptable sampling overhead (grows at small scale:
    /// fixed per-window work amortizes over fewer cycles).
    overhead_max: f64,
}

/// Debug-friendly tier for every `cargo test`.
const QUICK: Profile = Profile {
    suite_scale_small: 0.05,
    suite_scale_gain: 0.2,
    suite_scale_compose: 0.2,
    patch_outer: 20,
    patch_inner: 20_000,
    mcf_min_gain: 1.10,
    overhead_max: 0.03,
};

/// Paper-scale tier, release-only via tools/ci.sh.
const FULL: Profile = Profile {
    suite_scale_small: 0.1,
    suite_scale_gain: 0.35,
    suite_scale_compose: 0.3,
    patch_outer: 30,
    patch_inner: 30_000,
    mcf_min_gain: 1.15,
    overhead_max: 0.025,
};

/// Gate for the `#[ignore]`d full tier: run only when tools/ci.sh (or
/// a deliberate caller) sets `ADORE_FULL_E2E=1`.
fn full_tier_enabled() -> bool {
    if std::env::var_os("ADORE_FULL_E2E").is_some_and(|v| v == "1") {
        true
    } else {
        eprintln!("skipping full-scale e2e tier (set ADORE_FULL_E2E=1 to run)");
        false
    }
}

fn fast_adore() -> AdoreConfig {
    let mut c = AdoreConfig::enabled();
    c.sampling = SamplingConfig {
        interval_cycles: 2_000,
        buffer_capacity: 200,
        per_sample_cost: 20,
        jitter: 0.3,
        ..Default::default()
    };
    c
}

/// A strided-sum program whose final answer lands in `r21`.
fn summing_program(outer: i64, inner: i64) -> isa::Program {
    let mut a = Asm::new();
    a.global("main");
    a.movl(Gr(8), outer);
    a.label("outer");
    a.movl(Gr(14), 0x1000_0000);
    a.movl(Gr(9), inner);
    a.label("loop");
    a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
    a.add(Gr(21), Gr(20), Gr(21));
    a.addi(Gr(9), Gr(9), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
    a.br_cond(Pr(1), "loop");
    a.addi(Gr(8), Gr(8), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
    a.br_cond(Pr(1), "outer");
    a.halt();
    a.finish(CODE_BASE).unwrap()
}

fn fill_arena(m: &mut Machine, words: u64) {
    m.mem_mut().alloc(words * 64 + 4096, 64);
    for i in 0..words {
        m.mem_mut().write(0x1000_0000 + i * 64, 8, i * 3 + 1);
    }
}

fn check_patching_preserves_program_semantics(p: &Profile) {
    let (outer, inner) = (p.patch_outer, p.patch_inner);
    let mut plain = Machine::new(summing_program(outer, inner), MachineConfig::default());
    fill_arena(&mut plain, inner as u64 + 16);
    plain.run(u64::MAX);
    let expected = plain.gr(Gr(21));
    assert_ne!(expected, 0);

    let config = fast_adore();
    let mut machine = Machine::new(
        summing_program(outer, inner),
        config.machine_config(MachineConfig::default()),
    );
    fill_arena(&mut machine, inner as u64 + 16);
    let report = run(&mut machine, &config);
    assert!(report.traces_patched >= 1, "the loop must be patched: {report:?}");
    assert_eq!(
        machine.gr(Gr(21)),
        expected,
        "runtime prefetching must not change architectural results"
    );
    assert!(
        report.cycles < plain.cycles(),
        "and it should be faster: {} vs {}",
        report.cycles,
        plain.cycles()
    );
}

#[test]
fn patching_preserves_program_semantics() {
    check_patching_preserves_program_semantics(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn patching_preserves_program_semantics_full() {
    if full_tier_enabled() {
        check_patching_preserves_program_semantics(&FULL);
    }
}

fn check_suite_workloads_run_under_adore(p: &Profile) {
    let config = fast_adore();
    for w in workloads::suite(p.suite_scale_small) {
        let bin =
            compile(&w.kernel, &CompileOptions::o2()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mcfg = config.machine_config(MachineConfig::default());
        let mut m = w.prepare(&bin, mcfg);
        let report = run(&mut m, &config);
        assert!(m.is_halted(), "{} must halt", w.name);
        assert!(report.retired > 0, "{} must retire instructions", w.name);
    }
}

#[test]
fn suite_workloads_run_under_adore_at_small_scale() {
    check_suite_workloads_run_under_adore(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn suite_workloads_run_under_adore_at_small_scale_full() {
    if full_tier_enabled() {
        check_suite_workloads_run_under_adore(&FULL);
    }
}

fn check_mcf_gains_and_lucas_does_not(p: &Profile) {
    let config = fast_adore();
    let suite = workloads::suite(p.suite_scale_gain);

    let gain = |name: &str| -> (f64, adore::RunReport) {
        let w = suite.iter().find(|w| w.name == name).unwrap();
        let bin = compile(&w.kernel, &CompileOptions::o2()).unwrap();
        let mut base = w.prepare(&bin, MachineConfig::default());
        base.run_to_halt();
        let mut m = w.prepare(&bin, config.machine_config(MachineConfig::default()));
        let report = run(&mut m, &config);
        (base.cycles() as f64 / report.cycles as f64, report)
    };

    let (mcf_gain, mcf_report) = gain("mcf");
    assert!(mcf_gain > p.mcf_min_gain, "mcf should speed up substantially, got {mcf_gain}");
    assert!(mcf_report.stats.pointer >= 1, "via pointer-chase prefetching: {mcf_report:?}");

    let (lucas_gain, lucas_report) = gain("lucas");
    assert!(lucas_gain < 1.05, "lucas (fp-conversion addresses) should not gain, got {lucas_gain}");
    let rejections: Vec<adore::Rejection> = lucas_report
        .decisions
        .iter()
        .filter_map(|d| match d.outcome {
            adore::Outcome::Rejected(r) if matches!(d.site, adore::Site::Load(_)) => Some(r),
            _ => None,
        })
        .collect();
    assert!(
        rejections.iter().any(|r| matches!(
            r,
            adore::Rejection::UnanalyzableSlice
                | adore::Rejection::LoopInvariantAddress
                | adore::Rejection::NotALoad
        )),
        "and the failure should be visible as unanalyzable slices: {rejections:?}"
    );
}

#[test]
fn mcf_like_chase_gains_and_lucas_like_conversion_does_not() {
    check_mcf_gains_and_lucas_does_not(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn mcf_like_chase_gains_and_lucas_like_conversion_does_not_full() {
    if full_tier_enabled() {
        check_mcf_gains_and_lucas_does_not(&FULL);
    }
}

fn check_o3_and_runtime_prefetch_compose(p: &Profile) {
    let suite = workloads::suite(p.suite_scale_compose);
    let w = suite.iter().find(|w| w.name == "swim").unwrap();
    let o2 = compile(&w.kernel, &CompileOptions::o2()).unwrap();
    let o3 = compile(&w.kernel, &CompileOptions::o3()).unwrap();
    assert!(o3.prefetched_loops > 0);

    let mut m2 = w.prepare(&o2, MachineConfig::default());
    m2.run_to_halt();
    let mut m3 = w.prepare(&o3, MachineConfig::default());
    m3.run_to_halt();
    assert!(
        m3.cycles() < m2.cycles(),
        "static prefetching should help swim: {} vs {}",
        m3.cycles(),
        m2.cycles()
    );

    // Runtime prefetching on top of O3 must at least not break anything.
    let config = fast_adore();
    let mut ma = w.prepare(&o3, config.machine_config(MachineConfig::default()));
    let report = run(&mut ma, &config);
    assert!(ma.is_halted());
    assert!(report.cycles < m2.cycles() * 11 / 10);
}

#[test]
fn o3_static_prefetch_and_runtime_prefetch_compose() {
    check_o3_and_runtime_prefetch_compose(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn o3_static_prefetch_and_runtime_prefetch_compose_full() {
    if full_tier_enabled() {
        check_o3_and_runtime_prefetch_compose(&FULL);
    }
}

fn check_sampling_overhead_within_bounds(p: &Profile) {
    let suite = workloads::suite(p.suite_scale_compose);
    let w = suite.iter().find(|w| w.name == "vortex").unwrap();
    let bin = compile(&w.kernel, &CompileOptions::o2()).unwrap();
    let mut base = w.prepare(&bin, MachineConfig::default());
    base.run_to_halt();

    let mut config = fast_adore();
    config.insert_prefetches = false;
    // Paper-like sampling ratio.
    config.sampling = SamplingConfig {
        interval_cycles: 20_000,
        buffer_capacity: 100,
        per_sample_cost: 150,
        jitter: 0.3,
        ..Default::default()
    };
    let mut m = w.prepare(&bin, config.machine_config(MachineConfig::default()));
    let report = run(&mut m, &config);
    let overhead = report.cycles as f64 / base.cycles() as f64 - 1.0;
    assert!(overhead < p.overhead_max, "overhead should be 1-2%: {:.3}%", overhead * 100.0);
    assert_eq!(report.traces_patched, 0);
}

#[test]
fn sampling_overhead_is_within_paper_bounds() {
    check_sampling_overhead_within_bounds(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn sampling_overhead_is_within_paper_bounds_full() {
    if full_tier_enabled() {
        check_sampling_overhead_within_bounds(&FULL);
    }
}

fn check_unpatching_restores_original_code(p: &Profile) {
    let config = fast_adore();
    let program = summing_program(p.patch_outer, p.patch_inner);
    let mut machine =
        Machine::new(program.clone(), config.machine_config(MachineConfig::default()));
    fill_arena(&mut machine, p.patch_inner as u64 + 16);

    // Run under ADORE manually so we can capture the patch records.
    let mut pm = perfmon::Perfmon::new(config.perfmon.clone());
    let mut detector = adore::PhaseDetector::new(config.phase.clone());
    let mut patches: Vec<adore::PatchedTrace> = Vec::new();
    pm.run_with_windows(&mut machine, |m, _w, ueb| {
        if patches.is_empty() {
            if let adore::PhaseDecision::Stable(_) = detector.evaluate(ueb) {
                let traces = adore::select_traces(m.code(), ueb, &config.trace);
                let loads = adore::find_delinquent_loads(&traces, ueb);
                for (ti, trace) in traces.iter().enumerate() {
                    if !trace.is_loop {
                        continue;
                    }
                    let mine: Vec<_> =
                        loads.iter().filter(|l| l.trace_index == ti).cloned().collect();
                    if mine.is_empty() {
                        continue;
                    }
                    let (opt, _) = adore::optimize_trace(trace, &mine, &config.prefetch);
                    if let Some(ot) = opt {
                        patches.push(adore::install(m, &ot).unwrap());
                    }
                }
                // Immediately unpatch everything: the program must
                // finish on the original code with identical results.
                for p in &patches {
                    adore::unpatch(m, p).unwrap();
                }
            }
        }
    });
    assert!(!patches.is_empty(), "a trace should have been patched");
    // The original bundles are back in place.
    for p in &patches {
        assert_eq!(machine.bundle_at(p.original_head), Some(&p.saved));
    }
}

#[test]
fn unpatching_restores_original_code() {
    check_unpatching_restores_original_code(&QUICK);
}

#[test]
#[ignore = "full-scale e2e tier; tools/ci.sh runs it in release with ADORE_FULL_E2E=1"]
fn unpatching_restores_original_code_full() {
    if full_tier_enabled() {
        check_unpatching_restores_original_code(&FULL);
    }
}
