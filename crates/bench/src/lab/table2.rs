//! `lab table2` — Table 2: runtime prefetching data analysis — the
//! number of inserted prefetch streams by reference pattern (direct /
//! indirect / pointer chasing) and the number of optimized phases, per
//! benchmark (O2 binaries).
//!
//! Emits `results/table2.json` alongside the printed table.

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::{je, js, ju, paper_table2, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("table2", "inserted prefetch streams by pattern (Table 2)")
}

pub(crate) fn run(cli: Cli) {
    let result = ExperimentSpec::paper_defaults("table2", &cli)
        .section_with("rows", &PAPER_ORDER, CompileOptions::o2(), Measure::Streams, |c| {
            let (pd, pi, pp, pph) = paper_table2(c.workload).unwrap();
            c.extra(
                "paper",
                Json::object()
                    .with("direct", pd)
                    .with("indirect", pi)
                    .with("pointer", pp)
                    .with("phases", pph),
            );
        })
        .run();
    println!("== Table 2: prefetching data analysis (O2 + ADORE) ==");
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>7}   paper: (dir, ind, ptr, phases)",
        "bench", "direct", "indirect", "pointer", "phases"
    );
    for r in result.rows("rows") {
        if let Some(e) = je(r) {
            println!("{:<10} ERROR: {e}", js(r, "bench"));
            continue;
        }
        let s = r.get("streams").expect("streams present");
        let p = r.get("paper").expect("paper present");
        println!(
            "{:<10} {:>7} {:>9} {:>8} {:>7}   paper: ({:>3}, {:>3}, {:>3}, {:>3})",
            js(r, "bench"),
            ju(s, "direct"),
            ju(s, "indirect"),
            ju(s, "pointer"),
            ju(r, "phases_optimized"),
            ju(p, "direct"),
            ju(p, "indirect"),
            ju(p, "pointer"),
            ju(p, "phases")
        );
    }
    result.save().expect("write results/table2.json");
}
