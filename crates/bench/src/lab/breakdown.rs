//! `lab breakdown` — workload characterization, the paper's first PMU
//! usage model (§2.1): the overall runtime cycle breakdown per
//! benchmark, before and after runtime prefetching. Memory stalls are
//! exactly what the optimizer converts into busy (or at least shorter)
//! time.
//!
//! Emits `results/breakdown.json` alongside the printed table.

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("breakdown", "cycle-accounting breakdown before and after ADORE (§2.1)")
}

fn print_side(label: &str, s: &Json) {
    println!(
        "  {label:<8} {:>13} cycles | mem {:>5.1}% | fp {:>4.1}% | br {:>4.1}% | i$ {:>4.1}% | ovh {:>4.1}% | busy {:>5.1}%",
        ju(s, "cycles"), jf(s, "mem_stall_pct"), jf(s, "fp_stall_pct"), jf(s, "branch_stall_pct"),
        jf(s, "icache_stall_pct"), jf(s, "overhead_pct"), jf(s, "busy_pct"),
    );
}

pub(crate) fn run(cli: Cli) {
    let result = ExperimentSpec::paper_defaults("breakdown", &cli)
        .section("rows", &PAPER_ORDER, CompileOptions::o2(), Measure::Breakdown)
        .run();
    println!("== Cycle breakdown (workload characterization, §2.1) ==");
    for r in result.rows("rows") {
        println!("{}:", js(r, "bench"));
        match je(r) {
            Some(e) => println!("  ERROR: {e}"),
            None => {
                print_side("O2", r.get("o2").expect("o2 side"));
                print_side("+ADORE", r.get("adore").expect("adore side"));
            }
        }
    }
    result.save().expect("write results/breakdown.json");
}
