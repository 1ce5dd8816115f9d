//! `lab fig11` — Fig. 11: the overhead of the ADORE machinery —
//! execution time of the O2 binary alone versus O2 + runtime system
//! with prefetch *insertion disabled* (sampling, phase detection and
//! trace selection still run).
//!
//! Emits `results/fig11.json` alongside the printed table.

use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("fig11", "runtime-system overhead with prefetch insertion disabled")
}

pub(crate) fn run(cli: Cli) {
    let result = ExperimentSpec::paper_defaults("fig11", &cli)
        .section("rows", &PAPER_ORDER, CompileOptions::o2(), Measure::Overhead)
        .run();
    println!("== Fig. 11: overhead of runtime machinery without prefetch insertion ==");
    println!(
        "{:<10} {:>14} {:>22} {:>10}  (paper: 1-2% overhead)",
        "bench", "O2 cycles", "O2+sampling cycles", "overhead%"
    );
    for r in result.rows("rows") {
        match je(r) {
            Some(e) => println!("{:<10} ERROR: {e}", js(r, "bench")),
            None => println!(
                "{:<10} {:>14} {:>22} {:>9.2}%",
                js(r, "bench"),
                ju(r, "o2_cycles"),
                ju(r, "sampling_cycles"),
                jf(r, "overhead_pct")
            ),
        }
    }
    result.save().expect("write results/fig11.json");
}
