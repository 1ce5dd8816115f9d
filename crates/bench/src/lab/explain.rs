//! `lab explain` — one ADORE run per workload, explained: the fate of
//! every load the delinquent-load filter selected, read from the run's
//! decision trace. This is the paper's §4.3 failure analysis done
//! mechanically: per load, the loop it sits in, its sampled DEAR
//! latency, its address pattern (or why classification failed), the
//! stream scheduled for it (or why none was), and — when deployed —
//! the deploy window and cycle with the phase CPI then and one window
//! later.
//!
//! Emits `results/explain.json` alongside the printed tables.

use compiler::CompileOptions;
use obs::Json;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("explain", "the fate of every delinquent load in one ADORE run (§4.3)")
        .picks("workload names — subset to explain (default: all)")
}

pub(crate) fn run(cli: Cli) {
    if let Some(bad) = cli.picks.iter().find(|p| !PAPER_ORDER.contains(&p.as_str())) {
        eprintln!("error: unknown workload `{bad}` (expected paper workload names)");
        std::process::exit(2);
    }
    let names: Vec<&'static str> = PAPER_ORDER
        .iter()
        .copied()
        .filter(|n| cli.picks.is_empty() || cli.picks.iter().any(|p| p == n))
        .collect();
    let result = ExperimentSpec::paper_defaults("explain", &cli)
        .section("workloads", &names, CompileOptions::o2(), Measure::Explain)
        .run();
    for r in result.rows("workloads") {
        println!("=== {} ===", js(r, "bench"));
        if let Some(e) = je(r) {
            println!("ERROR: {e}");
            continue;
        }
        println!(
            "cycles={} windows={} traces_patched={}",
            ju(r, "cycles"),
            ju(r, "windows"),
            ju(r, "traces_patched")
        );
        println!(
            "{:>6}  {:<14} {:<12} {:>7} {:>9}  {:<22} {:<22} fate",
            "window", "pc", "loop", "samples", "latency", "pattern", "stream"
        );
        for l in r.get("loads").and_then(Json::as_array).unwrap_or(&[]) {
            let mut fate = js(l, "fate").to_string();
            if let Some(d) = l.get("deploy").filter(|d| d.get("cycles").is_some()) {
                let (cycles, cpi, next) = (ju(d, "cycles"), jf(d, "cpi"), jf(d, "cpi_next"));
                fate += &format!(" @{cycles} cpi {cpi:.2} -> {next:.2}");
            }
            println!(
                "{:>6}  {:<14} {:<12} {:>7} {:>9}  {:<22} {:<22} {fate}",
                ju(l, "window"),
                js(l, "pc"),
                js(l, "loop"),
                ju(l, "samples"),
                ju(l, "latency"),
                l.get("pattern").and_then(Json::as_str).unwrap_or("-"),
                l.get("stream").and_then(Json::as_str).unwrap_or("-"),
            );
        }
    }
    result.save().expect("write results/explain.json");
}
