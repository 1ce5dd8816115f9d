//! `lab ablation` — ablation study over the design choices DESIGN.md
//! calls out: what happens to representative benchmarks when
//! individual mechanisms are switched off (or, for the §6
//! instrumentation extension, on) — and, since the optimizer became a
//! pass pipeline, what happens when any single *pass* is disabled.
//!
//! Emits `results/ablation.json` alongside the printed table: one
//! report section of pipeline-comparison rows per variant, keyed by
//! variant. Every row carries the per-pass overhead ledger and
//! rejection counts (unified `Rejection` taxonomy).

use adore::{PassKind, PipelineConfig};
use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{jf, Cell, ExperimentSpec, Measure};

pub(crate) fn registry() -> Registry {
    Registry::new("ablation", "mechanism and per-pass ablations on representative benchmarks")
        .flag("pass-smoke", "run only the per-pass sections, one workload each (the CI smoke)")
        .repeated("disable-pass", "add a section with the named pass disabled on every benchmark")
}

const BENCHES: [&str; 4] = ["mcf", "art", "swim", "lucas"];

/// Single workload for the per-pass smoke sections: cheap even at quick
/// scale, and `art`'s mixed direct+indirect streams still get patched
/// there, so disabling a load-bearing pass visibly changes the row.
const SMOKE_BENCH: [&str; 1] = ["art"];

const VARIANTS: [(&str, &str, fn(&mut Cell)); 8] = [
    ("full", "full system", |_| {}),
    ("no_jitter", "no sampling-period jitter", |c| c.adore.sampling.jitter = 0.0),
    ("no_pointer", "no pointer-chase prefetching", |c| c.adore.prefetch.enable_pointer = false),
    ("no_jump", "no jump-pointer prefetching", |c| c.adore.prefetch.enable_jump = false),
    ("no_indirect", "no indirect prefetching", |c| c.adore.prefetch.enable_indirect = false),
    ("no_direct", "no direct prefetching", |c| c.adore.prefetch.enable_direct = false),
    ("no_bw_cap", "no memory-bandwidth cap", |c| c.machine.cache.mem_service_interval = 0),
    ("instrumentation", "+ runtime instrumentation (§6)", |c| {
        c.adore.instrument_unanalyzable = true
    }),
];

fn pass_section_key(kind: PassKind) -> String {
    format!("pass_off_{}", kind.name())
}

pub(crate) fn run(cli: Cli) {
    let pass_smoke = cli.flag("pass-smoke");
    let disabled: Vec<PassKind> = cli
        .flag_values("disable-pass")
        .map(|name| name.parse().unwrap_or_else(|e| panic!("--disable-pass: {e}")))
        .collect();

    let mut spec = ExperimentSpec::paper_defaults("ablation", &cli);
    if !pass_smoke {
        for (key, _, tweak) in VARIANTS {
            spec = spec.section_with(
                key,
                &BENCHES,
                CompileOptions::o2(),
                Measure::PipelineComparison,
                tweak,
            );
        }
        for &kind in &disabled {
            spec = spec.section_with(
                &pass_section_key(kind),
                &BENCHES,
                CompileOptions::o2(),
                Measure::PipelineComparison,
                move |c| c.adore.pipeline = PipelineConfig::default().disable(kind),
            );
        }
    } else {
        // CI smoke: each pass disabled once, one workload each.
        for kind in PassKind::ALL {
            spec = spec.section_with(
                &pass_section_key(kind),
                &SMOKE_BENCH,
                CompileOptions::o2(),
                Measure::PipelineComparison,
                move |c| c.adore.pipeline = PipelineConfig::default().disable(kind),
            );
        }
    }
    let result = spec.run();

    if !pass_smoke {
        println!("== Ablation of design choices (speedup % under O2 + ADORE) ==\n");
        println!("{:<34} {:>8} {:>8} {:>8} {:>8}", "configuration", "mcf", "art", "swim", "lucas");
        for (key, label, _) in VARIANTS {
            let v: Vec<f64> = result.rows(key).iter().map(|r| jf(r, "speedup_pct")).collect();
            println!("{label:<34} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%", v[0], v[1], v[2], v[3]);
        }
        for &kind in &disabled {
            let v: Vec<f64> =
                result.rows(&pass_section_key(kind)).iter().map(|r| jf(r, "speedup_pct")).collect();
            let label = format!("pass `{kind}` disabled");
            println!("{label:<34} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%", v[0], v[1], v[2], v[3]);
        }
    } else {
        println!("== Per-pass ablation smoke ({}) ==\n", SMOKE_BENCH[0]);
        println!("{:<34} {:>9} {:>9} {:>9}", "pipeline", "speedup", "patched", "ledger-cyc");
        for kind in PassKind::ALL {
            for r in result.rows(&pass_section_key(kind)) {
                let ledger_cycles: f64 = r
                    .get("pipeline")
                    .and_then(|p| p.get("passes"))
                    .and_then(|p| p.as_array())
                    .map(|passes| {
                        passes
                            .iter()
                            .filter_map(|p| p.get("charged_cycles").and_then(|c| c.as_u64()))
                            .sum::<u64>() as f64
                    })
                    .unwrap_or(0.0);
                println!(
                    "without {:<26} {:>8.1}% {:>9.0} {:>9.0}",
                    kind.name(),
                    jf(r, "speedup_pct"),
                    jf(r, "traces_patched"),
                    ledger_cycles
                );
            }
        }
    }
    result.save().expect("write results/ablation.json");
    if !pass_smoke {
        println!(
            "\nReading the rows: each pattern toggle hits the benchmark that\n\
             depends on it (mcf=pointer, art=indirect+direct, swim=direct).\n\
             Jitter off narrows first-pass DEAR diversity (incremental\n\
             re-optimization partly compensates). Removing the bandwidth cap\n\
             lets the *baseline* overlap misses freely, shrinking the\n\
             prefetch headroom the paper's bus-limited machine actually had.\n\
             Instrumentation (off in the paper's evaluation) unlocks the\n\
             fp-conversion benchmark (lucas) the paper could not improve.\n\
             Every row embeds the per-pass overhead ledger (`pipeline`)\n\
             and the unified rejection counts; disable any single pass\n\
             with `--disable-pass=NAME`."
        );
    }
}
