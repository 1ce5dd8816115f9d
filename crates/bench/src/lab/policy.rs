//! `lab policy` — the adaptive policy controller versus the paper's
//! static policy, per workload.
//!
//! Every cell runs three legs from one cached baseline: the plain
//! (no-prefetch) run, a static-policy ADORE run, and an ADORE run with
//! the per-phase policy controller enabled ([`Measure::Policy`] turns
//! the controller on itself — the spec-wide config keeps the paper
//! default, so every other experiment is untouched). The two ADORE
//! legs run as one simulation until their machines first differ
//! ([`adore::run_legs`]). The printed table
//! is the win/loss grid; `results/policy.json` carries the full rows
//! including each cell's per-phase decision log, byte-identical for
//! any `--jobs` value and to the `lab serve` `"policy"` measure.

use compiler::CompileOptions;

use crate::cli::{Cli, Registry};
use crate::{je, jf, js, ju, ExperimentSpec, Measure, FAMILY_ORDER, PAPER_ORDER};

pub(crate) fn registry() -> Registry {
    Registry::new("policy", "adaptive policy controller vs the static policy, per workload")
        .picks("<workload> | suite | families | all — which grid to run (default: all)")
}

/// The workload grid for a pick: the 17-benchmark suite, the scenario
/// families, both, or a single named workload.
fn grid(pick: &str) -> Vec<&'static str> {
    match pick {
        "all" => PAPER_ORDER.iter().chain(FAMILY_ORDER.iter()).copied().collect(),
        "suite" => PAPER_ORDER.to_vec(),
        "families" => FAMILY_ORDER.to_vec(),
        name => {
            PAPER_ORDER.iter().chain(FAMILY_ORDER.iter()).copied().filter(|n| *n == name).collect()
        }
    }
}

pub(crate) fn run(cli: Cli) {
    let pick = cli.pick().unwrap_or("all").to_string();
    let names = grid(&pick);
    if names.is_empty() {
        eprintln!(
            "error: unknown pick `{pick}` (expected a workload name, suite, families or all)"
        );
        std::process::exit(2);
    }
    let result = ExperimentSpec::paper_defaults("policy", &cli)
        .section("grid", &names, CompileOptions::o2(), Measure::Policy)
        .run();

    println!("== Adaptive policy controller vs static policy (O2) ==");
    println!(
        "{:<8} {:>14} {:>13} {:>13}  {:>8} {:>8} {:>7}  {:>6} {:<7} {}",
        "bench",
        "base cycles",
        "static",
        "adaptive",
        "static%",
        "adapt%",
        "delta",
        "fback",
        "result",
        "committed"
    );
    let (mut wins, mut losses, mut ties) = (0usize, 0usize, 0usize);
    for r in result.rows("grid") {
        if let Some(e) = je(r) {
            println!("{:<8} ERROR: {e}", js(r, "bench"));
            continue;
        }
        let static_cycles = ju(r, "static_cycles");
        let adaptive_cycles = ju(r, "adaptive_cycles");
        let verdict = match adaptive_cycles.cmp(&static_cycles) {
            std::cmp::Ordering::Less => {
                wins += 1;
                "win"
            }
            std::cmp::Ordering::Greater => {
                losses += 1;
                "loss"
            }
            std::cmp::Ordering::Equal => {
                ties += 1;
                "tie"
            }
        };
        let policy = r.get("policy");
        let fallbacks = policy.map(|p| ju(p, "fallbacks")).unwrap_or(0);
        let committed = policy
            .and_then(|p| p.get("committed"))
            .and_then(obs::Json::as_array)
            .map(|arms| {
                let mut names: Vec<&str> = arms.iter().map(|a| js(a, "arm")).collect();
                names.sort_unstable();
                names.dedup();
                names.join(",")
            })
            .unwrap_or_default();
        println!(
            "{:<8} {:>14} {:>13} {:>13}  {:>7.1}% {:>7.1}% {:>+6.1}%  {:>6} {:<7} {}",
            js(r, "bench"),
            ju(r, "base_cycles"),
            static_cycles,
            adaptive_cycles,
            jf(r, "static_speedup_pct"),
            jf(r, "adaptive_speedup_pct"),
            jf(r, "delta_pct"),
            fallbacks,
            verdict,
            if committed.is_empty() { "-" } else { &committed },
        );
    }
    println!(
        "summary: {wins} wins / {losses} losses / {ties} ties over {} workloads",
        result.rows("grid").len()
    );
    result.save().expect("write results/policy.json");
}
