//! `lab fig8_9` — Fig. 8 (179.art) and Fig. 9 (181.mcf): runtime CPI
//! and DEAR-qualifying misses per 1000 instructions over execution
//! time, with and without runtime prefetching.
//!
//! Emits `results/fig8_9.json` with both series per workload.

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure};

pub(crate) fn registry() -> Registry {
    Registry::new("fig8_9", "CPI and miss-rate timelines for art (Fig. 8) and mcf (Fig. 9)")
        .picks("art | mcf | both — which series to run (default: both)")
        .flag("csv", "emit the series as CSV instead of tables")
}

fn series<'a>(r: &'a Json, key: &str) -> &'a [Json] {
    r.get(key).and_then(Json::as_array).unwrap_or(&[])
}

fn print_table(r: &Json) {
    let name = js(r, "bench");
    let figure = if name == "art" { "Fig. 8 (179.art)" } else { "Fig. 9 (181.mcf)" };
    println!("== {figure}: CPI and DEAR_CACHE_LAT8/1000-instructions over time ==");
    for (label, key) in [("no", "baseline"), ("with", "adore")] {
        println!("-- {label} runtime prefetching --");
        println!("{:>14} {:>8} {:>12}", "cycles", "CPI", "miss/kinsn");
        for p in series(r, key) {
            println!(
                "{:>14} {:>8.3} {:>12.3}",
                ju(p, "cycles"),
                jf(p, "cpi"),
                jf(p, "dear_per_kinsn")
            );
        }
    }
    let avg = |key: &str, f: &str| {
        let s = series(r, key);
        s.iter().map(|p| jf(p, f)).sum::<f64>() / s.len().max(1) as f64
    };
    println!(
        "summary: CPI {:.3} -> {:.3}; miss/kinsn {:.3} -> {:.3}; end-time {} -> {} cycles",
        avg("baseline", "cpi"),
        avg("adore", "cpi"),
        avg("baseline", "dear_per_kinsn"),
        avg("adore", "dear_per_kinsn"),
        ju(r, "baseline_end_cycles"),
        ju(r, "adore_end_cycles")
    );
}

fn print_csv(r: &Json) {
    println!("series,cycles,cpi,dear_per_kinsn");
    for (label, key) in [("baseline", "baseline"), ("adore", "adore")] {
        for p in series(r, key) {
            println!(
                "{label},{},{:.4},{:.4}",
                ju(p, "cycles"),
                jf(p, "cpi"),
                jf(p, "dear_per_kinsn")
            );
        }
    }
}

pub(crate) fn run(cli: Cli) {
    let csv = cli.flag("csv");
    let picks: &[&'static str] = match cli.pick() {
        Some("art") => &["art"],
        Some("mcf") => &["mcf"],
        _ if csv => &["art"],
        _ => &["art", "mcf"],
    };
    let result = ExperimentSpec::paper_defaults("fig8_9", &cli)
        .section("series", picks, CompileOptions::o2(), Measure::Timeline)
        .run();
    for (i, r) in result.rows("series").iter().enumerate() {
        match je(r) {
            Some(e) => println!("{}: ERROR: {e}", js(r, "bench")),
            None if csv => print_csv(r),
            None => {
                if i > 0 {
                    println!();
                }
                print_table(r);
            }
        }
    }
    result.save().expect("write results/fig8_9.json");
}
