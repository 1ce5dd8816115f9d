//! `lab families` — the pointer-rich scenario families beyond the
//! 17-benchmark paper suite: `server` (Zipfian request serving with
//! load spikes), `graph` (BFS + pagerank over a CSR graph), and `gc`
//! (mark/sweep over a jump-pointer heap). The gc family's marking loop
//! is the dependence-based jump-pointer shape, so its row is where the
//! `jump` prefetch column is expected to be non-zero.
//!
//! Emits `results/families.json` alongside the printed table.

use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, FAMILY_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("families", "runtime prefetching on the server / graph / gc scenario families")
        .picks("server | graph | gc | all — which family to run (default: all)")
}

pub(crate) fn run(cli: Cli) {
    let pick = cli.pick().unwrap_or("all").to_string();
    let names: Vec<&'static str> =
        FAMILY_ORDER.iter().copied().filter(|n| pick == "all" || pick == *n).collect();
    if names.is_empty() {
        eprintln!("error: unknown family `{pick}` (expected server, graph, gc or all)");
        std::process::exit(2);
    }
    let result = ExperimentSpec::paper_defaults("families", &cli)
        .section("families", &names, CompileOptions::o2(), Measure::Comparison)
        .run();

    println!("== Scenario families: O2 + runtime prefetching ==");
    println!(
        "{:<8} {:>14} {:>14} {:>10}  {:>8} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "family",
        "base cycles",
        "adore cycles",
        "speedup%",
        "patched",
        "phases",
        "direct",
        "indir",
        "ptr",
        "jump"
    );
    for r in result.rows("families") {
        match je(r) {
            Some(e) => println!("{:<8} ERROR: {e}", js(r, "bench")),
            None => {
                let streams = r.get("streams");
                let stream = |key: &str| streams.map(|s| ju(s, key)).unwrap_or(0);
                println!(
                    "{:<8} {:>14} {:>14} {:>9.1}%  {:>8} {:>8} {:>7} {:>7} {:>7} {:>7}",
                    js(r, "bench"),
                    ju(r, "base_cycles"),
                    ju(r, "adore_cycles"),
                    jf(r, "speedup_pct"),
                    ju(r, "traces_patched"),
                    ju(r, "phases_optimized"),
                    stream("direct"),
                    stream("indirect"),
                    stream("pointer"),
                    stream("jump"),
                );
            }
        }
    }
    result.save().expect("write results/families.json");
}
