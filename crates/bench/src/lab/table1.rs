//! `lab table1` — Table 1: profile-guided static prefetching.
//!
//! For each benchmark: compile at `O3` (every analyzable loop gets
//! prefetches), collect a sampling miss profile from a training run,
//! build the 90 %-latency-coverage delinquent-loop list, recompile with
//! prefetching restricted to those loops, and report loops scheduled /
//! normalized execution time / normalized binary size — the three
//! column groups of the paper's Table 1.
//!
//! Emits `results/table1.json` alongside the printed table.

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, paper_table1, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("table1", "profile-guided static prefetching (Table 1)")
}

pub(crate) fn run(cli: Cli) {
    let result = ExperimentSpec::paper_defaults("table1", &cli)
        .section_with(
            "rows",
            &PAPER_ORDER,
            CompileOptions::o3(),
            Measure::GuidedPrefetch { coverage: 0.9 },
            |c| {
                let (o3, pf, time, size) = paper_table1(c.workload).unwrap();
                c.extra(
                    "paper",
                    Json::object()
                        .with("o3_loops", o3)
                        .with("profiled_loops", pf)
                        .with("norm_time", time)
                        .with("norm_size", size),
                );
            },
        )
        .run();
    println!("== Table 1: profile-guided static prefetching ==");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}  (paper: loops {:>4}->{:>3}, time, size)",
        "bench", "O3 loops", "prof loops", "norm time", "norm size", "p.time", "p.size", "O3", "pf"
    );
    for r in result.rows("rows") {
        if let Some(e) = je(r) {
            println!("{:<10} ERROR: {e}", js(r, "bench"));
            continue;
        }
        let p = r.get("paper").expect("paper present");
        println!(
            "{:<10} {:>8} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  (paper: {:>4}->{:>3})",
            js(r, "bench"),
            ju(r, "o3_loops"),
            ju(r, "profiled_loops"),
            jf(r, "norm_time"),
            jf(r, "norm_size"),
            jf(p, "norm_time"),
            jf(p, "norm_size"),
            ju(p, "o3_loops"),
            ju(p, "profiled_loops")
        );
    }
    result.save().expect("write results/table1.json");
}
