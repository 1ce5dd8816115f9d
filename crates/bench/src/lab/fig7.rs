//! `lab fig7` — Fig. 7: performance of runtime prefetching over `O2`
//! (a) and `O3` (b) binaries, all 17 benchmarks.
//!
//! Emits `results/fig7.json` alongside the printed table.

use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, paper_fig7a, paper_fig7b, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("fig7", "runtime prefetching speedups over O2 (a) and O3 (b) binaries")
        .picks("a | b | both — which part to run (default: both)")
}

pub(crate) fn run(cli: Cli) {
    let part = cli.pick().unwrap_or("both").to_string();
    let mut spec = ExperimentSpec::paper_defaults("fig7", &cli);
    if part != "b" {
        spec = spec.section_with(
            "part_a",
            &PAPER_ORDER,
            CompileOptions::o2(),
            Measure::Comparison,
            |c| c.extra("paper_speedup_pct", paper_fig7a(c.workload)),
        );
    }
    if part != "a" {
        spec = spec.section_with(
            "part_b",
            &PAPER_ORDER,
            CompileOptions::o3(),
            Measure::Comparison,
            |c| c.extra("paper_speedup_pct", paper_fig7b(c.workload)),
        );
    }
    let result = spec.run();
    for (tag, key, opt) in [('a', "part_a", "O2"), ('b', "part_b", "O3")] {
        let rows = result.rows(key);
        if rows.is_empty() {
            continue;
        }
        println!("== Fig. 7({tag}): {opt} + runtime prefetching ==");
        println!(
            "{:<10} {:>14} {:>14} {:>10} {:>10}  {:>8} {:>8}",
            "bench", "base cycles", "adore cycles", "speedup%", "paper%", "patched", "phases"
        );
        for r in rows {
            match je(r) {
                Some(e) => println!("{:<10} ERROR: {e}", js(r, "bench")),
                None => println!(
                    "{:<10} {:>14} {:>14} {:>9.1}% {:>9.1}%  {:>8} {:>8}",
                    js(r, "bench"),
                    ju(r, "base_cycles"),
                    ju(r, "adore_cycles"),
                    jf(r, "speedup_pct"),
                    jf(r, "paper_speedup_pct"),
                    ju(r, "traces_patched"),
                    ju(r, "phases_optimized")
                ),
            }
        }
    }
    result.save().expect("write results/fig7.json");
}
