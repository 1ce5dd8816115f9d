//! `perf compare parent.jsonl change.jsonl [--claim=<metric>@<workload>]`
//!
//! Reads the detail lines of untraced runs (other lines are skipped),
//! pairs the runs of each workload by line order, and gives every
//! (workload, end-to-end metric) a verdict against the bound declared
//! in `BENCHMARK.json`:
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **improved** — the change wins at least nine tenths of the pairs
//!   and the medians differ by more than the parent's quartile spread;
//! * **unresolved** — the parent's own spread is wider than the bound,
//!   unless every change run beats every parent run;
//! * **unchanged** — otherwise.
//!
//! It also compares the share of failed operations and checks that the
//! simulated results of paired runs are identical. The exit code is 1
//! on a regression, on a higher failed share, or on an unmet claim.

use obs::Json;

use crate::stats::{iqr, median, quartiles};
use crate::Declaration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on paired samples, with the change's win count.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, usize) {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let pairs = parent.len().min(change.len());
    let (pm, cm) = (median(parent), median(change));
    let worse_share = if lower_is_better { cm - pm } else { pm - cm } / pm.abs();
    let every_run_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let v = if iqr(parent) / pm.abs() > bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_share > bound {
        Verdict::Regressed
    } else if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr(parent)
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, wins)
}

/// Detail lines of untraced runs in `path`, in file order.
fn read_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Json::parse(l.trim()).ok())
        .filter(|j| {
            j.get("workload").is_some() && j.get("mode").and_then(Json::as_str) == Some("run")
        })
        .collect())
}

fn metric(run: &Json, name: &str) -> f64 {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn count(runs: &[&Json], key: &str) -> u64 {
    runs.iter()
        .filter_map(|r| r.get(key).and_then(Json::as_u64))
        .sum()
}

fn spread(values: &[f64]) -> String {
    let (q1, m, q3) = quartiles(values);
    format!("{m:.4} [{q1:.4}, {q3:.4}]")
}

pub fn main(parent: &str, change: &str, claim: Option<&str>) -> i32 {
    let (parent, change) = match (read_runs(parent), read_runs(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf compare: {e}");
            return 2;
        }
    };
    let decl = Declaration::load();
    let mut claim_verdict = None;
    let mut failing = false;
    println!(
        "{:<13} {:<12} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in &decl.workloads {
        let of = |runs: &[Json]| {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                .cloned()
                .collect::<Vec<_>>()
        };
        let (p, c) = (of(&parent), of(&change));
        if p.is_empty() || c.is_empty() {
            println!(
                "{w:<13} (no runs on {} side)",
                if p.is_empty() {
                    "the parent"
                } else {
                    "the change"
                }
            );
            continue;
        }
        let pairs = p.len().min(c.len());
        let (p, c): (Vec<&Json>, Vec<&Json>) = (
            p.iter().take(pairs).collect(),
            c.iter().take(pairs).collect(),
        );
        for m in &decl.end_to_end {
            let pv: Vec<f64> = p.iter().map(|r| metric(r, &m.name)).collect();
            let cv: Vec<f64> = c.iter().map(|r| metric(r, &m.name)).collect();
            let (v, wins) = verdict(&pv, &cv, m.lower_is_better, m.bound);
            failing |= v == Verdict::Regressed;
            if claim == Some(format!("{}@{w}", m.name).as_str()) {
                claim_verdict = Some(v);
            }
            println!(
                "{w:<13} {:<12} {:>30} {:>30} {:>6}  {}",
                m.name,
                spread(&pv),
                spread(&cv),
                format!("{wins}/{pairs}"),
                v.label()
            );
        }
        let share =
            |runs: &[&Json]| count(runs, "failed") as f64 / count(runs, "ops").max(1) as f64;
        let (pf, cf) = (share(&p), share(&c));
        failing |= cf > pf;
        let same_sim = p
            .iter()
            .zip(&c)
            .filter(|(a, b)| a.get("sim") == b.get("sim"))
            .count();
        println!(
            "{w:<13} failed share: parent {:.4}%, change {:.4}%{}; simulated results identical in {same_sim}/{pairs} pairs",
            pf * 100.0,
            cf * 100.0,
            if cf > pf { " (MORE FAILURES)" } else { "" },
        );
    }
    if let Some(claim) = claim {
        let met = claim_verdict == Some(Verdict::Improved);
        println!("claim {claim}: {}", if met { "met" } else { "not met" });
        failing |= !met;
    }
    i32::from(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_wins_and_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let same = [10.0, 9.9, 10.1, 10.0, 9.8, 10.2, 10.0, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&parent, &same, true, 0.05).0, Verdict::Unchanged);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.05).0, Verdict::Regressed);
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&parent, &faster, true, 0.05),
            (Verdict::Improved, 10)
        );
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &faster, false, 0.05).0, Verdict::Regressed);
        // A parent noisier than the bound leaves the metric unresolved,
        // unless every change run beats every parent run.
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.05).0, Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[1.0; 10], true, 0.05).0, Verdict::Improved);
    }
}
