//! `lab fig10` — Fig. 10: the cost of the restricted compilation —
//! original `O2` (software pipelining on, no registers reserved)
//! versus the restricted `O2` used for runtime prefetching (SWP off,
//! `r27`–`r30` and `p6` reserved).
//!
//! Emits `results/fig10.json` alongside the printed table.

use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("fig10", "compilation cost: original O2 vs the restricted O2")
}

pub(crate) fn run(cli: Cli) {
    let result = ExperimentSpec::paper_defaults("fig10", &cli)
        .section(
            "rows",
            &PAPER_ORDER,
            CompileOptions::o2(),
            Measure::CompareCompile(Box::new(CompileOptions::o2_original())),
        )
        .run();
    println!("== Fig. 10: original O2 (SWP, no reservation) vs restricted O2 ==");
    println!(
        "{:<10} {:>16} {:>16} {:>10}  (paper: >3% only for equake, mcf, facerec, swim)",
        "bench", "restricted O2", "original O2", "speedup%"
    );
    for r in result.rows("rows") {
        match je(r) {
            Some(e) => println!("{:<10} ERROR: {e}", js(r, "bench")),
            None => println!(
                "{:<10} {:>16} {:>16} {:>9.1}%",
                js(r, "bench"),
                ju(r, "restricted_cycles"),
                ju(r, "original_cycles"),
                jf(r, "speedup_pct")
            ),
        }
    }
    result.save().expect("write results/fig10.json");
}
