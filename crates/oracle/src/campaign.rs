//! Coverage-guided snapshot fuzzing campaign.
//!
//! This is the only fuzz driver. A one-round campaign with no corpus
//! directory is classic fuzzing (`lab fuzz` without `--campaign`):
//! the corpus is empty when the round is planned, so every case is
//! freshly generated from its seed and checked once. Further rounds
//! close the loop: cases that light up coverage the campaign has not
//! seen before are admitted to a corpus, the corpus is mutated to
//! derive new cases ([`crate::mutate`](mod@crate::mutate)), and scheduling is weighted
//! toward entries that earned their place with more novelty. Coverage combines the generator's static feature
//! vector ([`crate::generator::static_coverage`], `feat:` keys) with
//! runtime signals the ADORE leg produced ([`crate::diff::RunCoverage`]:
//! pass invocations, rejection-taxonomy labels, deployed trace shapes,
//! termination outcomes).
//!
//! Two properties are load-bearing and tested:
//!
//! * **Determinism across worker counts.** A round is planned serially
//!   from the corpus state at round start, evaluated in parallel, and
//!   merged serially in submission order — so the corpus, the coverage
//!   map, and the report are byte-identical for `--jobs 1` and
//!   `--jobs 4` given the same seed. (`tools/ci.sh` enforces this on
//!   the real binary.)
//! * **Snapshot evaluation.** Each worker leases its two simulated
//!   machines from a [`CaseRunner`], which re-arms them in place via
//!   `Machine::reset` — the snapshot/restore path built on the code
//!   store's generation tags — instead of reallocating caches, TLB and
//!   memory per case.
//!
//! Corpus minimization runs in the serial merge on the coordinator's
//! own runner. Each candidate is decided by
//! [`crate::diff::check_case_gated`], which stops as soon as one of the
//! entry's novel keys is provably absent; [`MinimizerLedger`] counts
//! where each candidate was decided, and a candidate that mismatches
//! is reported like any other mismatch.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use workloads::Rng64;

use crate::diff::{
    check_case, check_case_gated, shrink, shrink_with, CaseResult, CaseRunner, Decided, DiffConfig,
    Gated,
};
use crate::generator::{generate, static_coverage, Coverage, GenConfig};
use crate::mutate::mutate;
use crate::spec::ProgSpec;
use crate::text::{parse_repro, serialize_repro};

/// Probability a planned case is freshly generated rather than mutated
/// from the corpus (always 1 while the corpus is empty).
const FRESH_PROB: f64 = 0.35;

/// Campaign tuning.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Scheduling rounds to run.
    pub rounds: usize,
    /// Cases planned per round (imports ride on top in round 0).
    pub batch: usize,
    /// Master seed; every planned case derives its own seed from it.
    pub seed: u64,
    /// Worker threads evaluating a round's batch.
    pub jobs: usize,
    /// Generator settings for fresh cases and mutation material.
    pub gen: GenConfig,
    /// Harness budgets shared by every evaluation.
    pub diff: DiffConfig,
    /// Alternate the simulator execution tier per case: even case
    /// seeds keep `diff.exec_path`, odd ones run the threaded compile
    /// tier, so one campaign exercises both the cycle-exact loop and
    /// the compile/deopt machinery. Deterministic in the case seed,
    /// hence independent of `jobs`.
    pub alternate_exec: bool,
    /// Persistent corpus directory: minimized entries are written here
    /// and `*.txt` reproducers found here are imported in round 0.
    pub corpus_dir: Option<PathBuf>,
    /// Shrinker budget per admitted corpus entry (0 disables corpus
    /// minimization).
    pub minimize_evals: usize,
    /// Emit per-case progress through [`obs::Progress`].
    pub progress: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            rounds: 4,
            batch: 64,
            seed: 1,
            jobs: 1,
            gen: GenConfig::default(),
            diff: DiffConfig::default(),
            alternate_exec: false,
            corpus_dir: None,
            minimize_evals: 24,
            progress: false,
        }
    }
}

/// A corpus member: a minimized agreeing program plus the coverage
/// novelty that earned its admission.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// The (minimized) program.
    pub spec: ProgSpec,
    /// Coverage keys this entry was the first to produce.
    pub novel_keys: Vec<String>,
    /// Scheduling weight: the admission novelty count (at least 1).
    pub energy: u64,
}

/// A semantic divergence found by the campaign, already shrunk.
#[derive(Debug, Clone)]
pub struct CampaignMismatch {
    /// The per-case seed that produced it.
    pub case_seed: u64,
    /// Which leg disagreed (`"plain"` or `"adore"`).
    pub stage: &'static str,
    /// First difference, human-readable.
    pub detail: String,
    /// The shrunk reproducer.
    pub spec: ProgSpec,
    /// True when the mismatching program was a corpus-minimization
    /// candidate derived from the case, not the case itself.
    pub minimizing: bool,
}

/// Where the corpus minimizer decided its candidates (see
/// [`Decided`]): the five parts sum to `candidates`. Minimization runs
/// in the serial merge, so every count is independent of `jobs`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MinimizerLedger {
    /// Candidates evaluated.
    pub candidates: u64,
    /// Decided before any leg ran.
    pub before_legs: u64,
    /// Decided after the reference interpreter alone.
    pub after_reference: u64,
    /// Decided after the reference and ADORE legs.
    pub after_adore: u64,
    /// Dropped after all three legs ran.
    pub full_check: u64,
    /// Kept: agreed and reproduced every novel key.
    pub kept: u64,
}

impl MinimizerLedger {
    fn count(&mut self, decided: Decided) {
        self.candidates += 1;
        *match decided {
            Decided::BeforeLegs => &mut self.before_legs,
            Decided::AfterReference => &mut self.after_reference,
            Decided::AfterAdore => &mut self.after_adore,
            Decided::FullCheck => &mut self.full_check,
            Decided::Kept => &mut self.kept,
        } += 1;
    }
}

/// Everything a campaign run produced. All fields except
/// `machine_builds` / `machine_resets` are independent of `jobs`.
#[derive(Debug, Default)]
pub struct CampaignStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Cases evaluated (including imports).
    pub cases: u64,
    /// Shrunk semantic divergences.
    pub mismatches: Vec<CampaignMismatch>,
    /// Budget-capped non-verdicts (fuel / cycle cap).
    pub inconclusive: u64,
    /// Structural non-verdicts (assembly failures).
    pub undecided: u64,
    /// The case seed and reason of every inconclusive or undecided
    /// case, in merge order (output only; the counters above stay the
    /// tally).
    pub non_verdicts: Vec<(u64, String)>,
    /// Agreeing terminations by outcome label.
    pub outcomes: std::collections::BTreeMap<&'static str, u64>,
    /// Coverage-key hit counts across all cases.
    pub coverage: std::collections::BTreeMap<String, u64>,
    /// Aggregate static feature vector across all cases.
    pub features: Coverage,
    /// Applied mutation operators by name.
    pub mutations: std::collections::BTreeMap<&'static str, u64>,
    /// Case provenance counts: `gen`, `mutate`, `import`.
    pub origins: std::collections::BTreeMap<&'static str, u64>,
    /// The final corpus, in admission order.
    pub corpus: Vec<CorpusEntry>,
    /// Corpus reproducers imported from `corpus_dir` in round 0.
    pub corpus_imported: u64,
    /// Entries admitted during this run.
    pub corpus_added: u64,
    /// Cases that produced at least one never-seen coverage key.
    pub new_key_events: u64,
    /// Agreeing cases where ADORE patched at least one trace.
    pub cases_with_patches: u64,
    /// Total traces patched across agreeing cases.
    pub traces_patched_total: u64,
    /// Where corpus minimization decided its candidates.
    pub minimizer: MinimizerLedger,
    /// Machines built from scratch (jobs-dependent; not reported).
    pub machine_builds: u64,
    /// Machines re-armed in place (jobs-dependent; not reported).
    pub machine_resets: u64,
}

/// FNV-1a (used for stable corpus file names).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One planned case: what to run and where it came from.
struct Planned {
    spec: ProgSpec,
    origin: &'static str,
    case_seed: u64,
    ops: Vec<&'static str>,
}

/// The harness budgets for one case. With `alternate_exec` on, odd
/// case seeds swap the execution path for the threaded compile tier;
/// the same per-case config is used for evaluation, minimization and
/// mismatch shrinking so tier-specific coverage keys (`tier:compiled`,
/// `tier:deopt`) stay reproducible while an entry is being minimized.
fn case_diff(cfg: &CampaignConfig, case_seed: u64) -> DiffConfig {
    let mut diff = cfg.diff.clone();
    if cfg.alternate_exec && case_seed % 2 == 1 {
        diff.exec_path = sim::ExecPath::Threaded;
    }
    diff
}

/// Picks a corpus index weighted by entry energy.
fn weighted_pick(rng: &mut Rng64, corpus: &[CorpusEntry]) -> usize {
    let total: u64 = corpus.iter().map(|e| e.energy).sum();
    let mut ticket = rng.below(total.max(1));
    for (i, e) in corpus.iter().enumerate() {
        if ticket < e.energy {
            return i;
        }
        ticket -= e.energy;
    }
    corpus.len() - 1
}

/// Plans one round's batch from the corpus state at round start.
fn plan_round(round: usize, corpus: &[CorpusEntry], cfg: &CampaignConfig) -> Vec<Planned> {
    let mut rng = Rng64::new(
        cfg.seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6361_6d70,
    );
    let mut plan = Vec::with_capacity(cfg.batch);
    for _ in 0..cfg.batch {
        let case_seed = rng.next_u64();
        if corpus.is_empty() || rng.chance(FRESH_PROB) {
            let (spec, _) = generate(case_seed, &cfg.gen);
            plan.push(Planned { spec, origin: "gen", case_seed, ops: Vec::new() });
        } else {
            let parent = weighted_pick(&mut rng, corpus);
            let donor = if corpus.len() > 1 && rng.chance(0.5) {
                // A distinct donor for splices; `mutate` falls back to
                // the parent when none is supplied.
                let mut d = weighted_pick(&mut rng, corpus);
                if d == parent {
                    d = (d + 1) % corpus.len();
                }
                Some(d)
            } else {
                None
            };
            let (spec, ops) = mutate(
                &corpus[parent].spec,
                donor.map(|d| &corpus[d].spec),
                case_seed,
                &cfg.gen,
            );
            plan.push(Planned { spec, origin: "mutate", case_seed, ops });
        }
    }
    plan
}

/// Evaluates a round's plan on the shared work-stealing service pool
/// ([`obs::pool::run_indexed`]). Results come back indexed by plan
/// position, so the serial merge that follows is independent of worker
/// scheduling; each shard leases one [`CaseRunner`] for its lifetime.
fn evaluate_batch(
    plan: &[Planned],
    cfg: &CampaignConfig,
    stats: &mut CampaignStats,
) -> Vec<(CaseResult, crate::diff::RunCoverage)> {
    let progress = cfg.progress.then(|| obs::Progress::new("campaign", plan.len()));

    let (results, runners, _pool) = obs::pool::run_indexed(
        cfg.jobs.max(1),
        (0..plan.len()).collect(),
        |_| CaseRunner::new(),
        |runner: &mut CaseRunner, _shard, i: usize| {
            let started = Instant::now();
            let result = check_case(&plan[i].spec, &case_diff(cfg, plan[i].case_seed), runner);
            if let Some(p) = &progress {
                let label = format!("{} {:#018x}", plan[i].origin, plan[i].case_seed);
                p.item_done(&label, started.elapsed());
            }
            result
        },
    );

    for runner in runners {
        stats.machine_builds += runner.builds;
        stats.machine_resets += runner.resets;
    }
    results
}

/// Imports sorted `*.txt` reproducers from the corpus directory.
fn import_corpus(cfg: &CampaignConfig) -> Vec<Planned> {
    let Some(dir) = &cfg.corpus_dir else { return Vec::new() };
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            let spec = parse_repro(&text).ok()?;
            Some(Planned { case_seed: spec.seed, spec, origin: "import", ops: Vec::new() })
        })
        .collect()
}

/// Writes an admitted entry to the corpus directory under a
/// content-addressed name (idempotent across runs).
fn persist_entry(cfg: &CampaignConfig, spec: &ProgSpec) {
    let Some(dir) = &cfg.corpus_dir else { return };
    let text = serialize_repro(spec);
    let path = dir.join(format!("q{:016x}.txt", fnv64(text.as_bytes())));
    if path.exists() {
        return;
    }
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, text);
    }
}

/// Runs a full campaign and returns its statistics (including the
/// final corpus). Deterministic in `cfg.seed` for any `cfg.jobs`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignStats {
    let mut stats = CampaignStats::default();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut coord = CaseRunner::new();

    let imports = import_corpus(cfg);
    stats.corpus_imported = imports.len() as u64;
    let mut pending_imports = Some(imports);

    for round in 0..cfg.rounds {
        stats.rounds = round + 1;
        let mut plan = pending_imports.take().unwrap_or_default();
        plan.extend(plan_round(round, &corpus, cfg));
        let results = evaluate_batch(&plan, cfg, &mut stats);

        // Serial merge, in submission order: corpus growth, coverage
        // accounting and minimization see the same sequence no matter
        // how many workers evaluated the round.
        for (planned, (result, run_cov)) in plan.iter().zip(results) {
            stats.cases += 1;
            *stats.origins.entry(planned.origin).or_insert(0) += 1;
            for op in &planned.ops {
                *stats.mutations.entry(op).or_insert(0) += 1;
            }
            let static_cov = static_coverage(&planned.spec);
            stats.features.absorb(&static_cov);
            let mut keys = static_cov.keys();
            keys.extend(run_cov.keys.iter().cloned());
            keys.sort();
            keys.dedup();
            for key in &keys {
                *stats.coverage.entry(key.clone()).or_insert(0) += 1;
            }

            match result {
                CaseResult::Agree { outcome, traces_patched, .. } => {
                    *stats.outcomes.entry(outcome.label()).or_insert(0) += 1;
                    if traces_patched > 0 {
                        stats.cases_with_patches += 1;
                        stats.traces_patched_total += traces_patched as u64;
                    }
                    let novel: Vec<String> =
                        keys.iter().filter(|k| !seen.contains(*k)).cloned().collect();
                    for k in &keys {
                        seen.insert(k.clone());
                    }
                    if novel.is_empty() {
                        continue;
                    }
                    stats.new_key_events += 1;
                    let diff = case_diff(cfg, planned.case_seed);
                    let spec = minimize_entry(planned, &novel, cfg, &mut stats, |c, need| {
                        check_case_gated(c, &diff, &mut coord, need)
                    });
                    persist_entry(cfg, &spec);
                    let energy = novel.len() as u64;
                    corpus.push(CorpusEntry { spec, novel_keys: novel, energy });
                    stats.corpus_added += 1;
                }
                CaseResult::Inconclusive { leg, why } => {
                    stats.inconclusive += 1;
                    let reason = format!("inconclusive ({leg} leg): {why}");
                    stats.non_verdicts.push((planned.case_seed, reason));
                }
                CaseResult::Undecided(why) => {
                    stats.undecided += 1;
                    stats.non_verdicts.push((planned.case_seed, format!("undecided: {why}")));
                }
                CaseResult::Mismatch(m) => {
                    let spec = shrink(&planned.spec, &case_diff(cfg, planned.case_seed));
                    stats.mismatches.push(CampaignMismatch {
                        case_seed: planned.case_seed,
                        stage: m.stage,
                        detail: m.detail,
                        spec,
                        minimizing: false,
                    });
                }
            }
        }
    }

    stats.machine_builds += coord.builds;
    stats.machine_resets += coord.resets;
    stats.corpus = corpus;
    stats
}

/// Minimizes an admitted entry while it still agrees and still
/// produces every novel key that earned its admission. `check` is
/// [`check_case_gated`] on the entry's harness config; each answer is
/// tallied in `stats.minimizer`, and the first candidate that
/// mismatches is shrunk and recorded as a mismatch of the entry's case
/// (one per entry bounds the shrinking a real divergence costs).
fn minimize_entry(
    entry: &Planned,
    novel: &[String],
    cfg: &CampaignConfig,
    stats: &mut CampaignStats,
    mut check: impl FnMut(&ProgSpec, &[String]) -> Gated,
) -> ProgSpec {
    if cfg.minimize_evals == 0 {
        return entry.spec.clone();
    }
    let mut found = false;
    let (min, _used) = shrink_with(&entry.spec, cfg.minimize_evals, |candidate| {
        let Gated { decided, result } = check(candidate, novel);
        stats.minimizer.count(decided);
        if let Some(CaseResult::Mismatch(m)) = result {
            if !std::mem::replace(&mut found, true) {
                stats.mismatches.push(CampaignMismatch {
                    case_seed: entry.case_seed,
                    stage: m.stage,
                    detail: m.detail,
                    spec: shrink(candidate, &case_diff(cfg, entry.case_seed)),
                    minimizing: true,
                });
            }
        }
        decided == Decided::Kept
    });
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{FinalState, Mismatch};

    fn small_cfg(jobs: usize) -> CampaignConfig {
        CampaignConfig {
            rounds: 2,
            batch: 5,
            seed: 42,
            jobs,
            // No corpus minimization: keeps the test fast; the
            // minimizer itself is covered in `diff::tests`.
            minimize_evals: 0,
            ..CampaignConfig::default()
        }
    }

    /// Classic fuzzing: one round, no corpus directory.
    fn classic_cfg(jobs: usize) -> CampaignConfig {
        CampaignConfig { rounds: 1, batch: 10, corpus_dir: None, ..small_cfg(jobs) }
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        for cfg in [small_cfg as fn(usize) -> CampaignConfig, classic_cfg] {
            let a = run_campaign(&cfg(1));
            let b = run_campaign(&cfg(4));
            assert_eq!(a.cases, 10);
            assert_eq!(a.cases, b.cases);
            assert_eq!(a.coverage, b.coverage, "coverage map must not depend on jobs");
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.origins, b.origins);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.new_key_events, b.new_key_events);
            assert_eq!(
                a.corpus.iter().map(|e| &e.spec).collect::<Vec<_>>(),
                b.corpus.iter().map(|e| &e.spec).collect::<Vec<_>>(),
                "corpus must not depend on jobs"
            );
            assert!(a.mismatches.is_empty(), "seed 42 smoke corpus must agree");
            assert!(a.machine_resets > 0, "snapshot path must actually be exercised");
            assert!(!a.coverage.is_empty());
            if a.rounds == 1 {
                // Classic mode is exactly one round of fresh generation.
                assert_eq!(a.origins, [("gen", 10)].into_iter().collect());
                assert!(a.mutations.is_empty(), "one round never mutates");
                assert_eq!(a.corpus_imported, 0);
            }
        }
    }

    #[test]
    fn minimizer_ledger_accounts_for_every_candidate_on_any_worker_count() {
        let cfg = |jobs| CampaignConfig { minimize_evals: 8, alternate_exec: true, ..small_cfg(jobs) };
        let a = run_campaign(&cfg(1));
        let b = run_campaign(&cfg(2));
        let l = &a.minimizer;
        assert_eq!(*l, b.minimizer, "the ledger must not depend on jobs");
        assert!(a.corpus_added > 0 && l.candidates > 0, "the smoke must minimize something");
        assert!(l.candidates <= a.corpus_added * 8, "minimize_evals bounds each entry");
        assert_eq!(
            l.before_legs + l.after_reference + l.after_adore + l.full_check + l.kept,
            l.candidates
        );
        assert!(l.before_legs + l.after_reference + l.after_adore > 0, "nothing decided early");
    }

    #[test]
    fn a_mismatching_minimizer_candidate_is_reported() {
        // Inject a checker whose first candidate mismatches on the
        // ADORE leg and whose later ones lack a static key: the
        // mismatch must be recorded once, against the entry's case
        // seed, and the entry must come back unminimized.
        let (spec, _) = generate(7, &GenConfig::default());
        let entry = Planned { spec, origin: "gen", case_seed: 7, ops: Vec::new() };
        let cfg = CampaignConfig {
            minimize_evals: 6,
            diff: DiffConfig { shrink_evals: 2, ..DiffConfig::default() },
            ..small_cfg(1)
        };
        let mut stats = CampaignStats::default();
        let mut calls = 0;
        let min = minimize_entry(&entry, &["feat:ld8".into()], &cfg, &mut stats, |c, _| {
            calls += 1;
            if calls > 2 {
                return Gated { decided: Decided::BeforeLegs, result: None };
            }
            let state = FinalState {
                outcome: crate::diff::CaseOutcome::Halted,
                gr: vec![0; 128],
                pr: vec![false; 64],
                fr: vec![0; 128],
            };
            let m = Mismatch {
                stage: "adore",
                detail: format!("injected ({} items)", c.items.len()),
                reference: state.clone(),
                observed: state,
            };
            Gated { decided: Decided::FullCheck, result: Some(CaseResult::Mismatch(Box::new(m))) }
        });
        assert_eq!(min, entry.spec, "no candidate was kept");
        assert_eq!(stats.mismatches.len(), 1, "one mismatch per minimized entry");
        let m = &stats.mismatches[0];
        assert_eq!((m.case_seed, m.stage, m.minimizing), (7, "adore", true));
        assert!(m.detail.starts_with("injected"), "{}", m.detail);
        assert!(m.spec.items.len() < entry.spec.items.len(), "the candidate, not the entry");
        let l = &stats.minimizer;
        assert_eq!((l.candidates, l.full_check, l.before_legs), (calls as u64, 2, calls as u64 - 2));
    }

    #[test]
    fn non_verdicts_name_their_case_seeds() {
        // A tiny interpreter budget makes every looping case
        // inconclusive; each one must be listed with its seed.
        let cfg = CampaignConfig {
            diff: DiffConfig { fuel: 50, ..DiffConfig::default() },
            ..classic_cfg(2)
        };
        let stats = run_campaign(&cfg);
        assert!(stats.inconclusive > 0, "fuel 50 must cap some case");
        assert_eq!(stats.non_verdicts.len() as u64, stats.inconclusive + stats.undecided);
        let plan = plan_round(0, &[], &cfg);
        for (seed, reason) in &stats.non_verdicts {
            assert!(plan.iter().any(|p| p.case_seed == *seed), "{seed:#x} was not planned");
            assert!(reason.contains("fuel"), "reason must name the budget: {reason}");
        }
    }

    #[test]
    fn alternating_campaign_covers_both_tiers_deterministically() {
        // Seed-parity tier alternation must reach both the cycle-exact
        // default path and the threaded compile tier, and must stay
        // byte-identical across worker counts like everything else.
        let cfg = |jobs| CampaignConfig { alternate_exec: true, ..small_cfg(jobs) };
        let a = run_campaign(&cfg(1));
        let b = run_campaign(&cfg(4));
        assert_eq!(a.coverage, b.coverage, "alternation must not depend on jobs");
        assert!(a.mismatches.is_empty(), "both tiers must agree with the interpreter");
        assert!(
            a.coverage.contains_key("tier:fast"),
            "even seeds keep the default path: {:?}",
            a.coverage.keys().filter(|k| k.starts_with("tier:")).collect::<Vec<_>>()
        );
        assert!(
            a.coverage.contains_key("tier:threaded"),
            "odd seeds must run the compile tier: {:?}",
            a.coverage.keys().filter(|k| k.starts_with("tier:")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corpus_growth_schedules_mutations() {
        let cfg = CampaignConfig { rounds: 3, ..small_cfg(2) };
        let stats = run_campaign(&cfg);
        assert!(stats.corpus_added > 0, "some case must light up novel coverage");
        assert!(
            stats.origins.get("mutate").copied().unwrap_or(0) > 0,
            "later rounds must derive cases from the corpus"
        );
    }

    #[test]
    fn corpus_dir_round_trips_entries() {
        let dir = std::env::temp_dir().join(format!("adore-campaign-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig { corpus_dir: Some(dir.clone()), ..small_cfg(1) };
        let first = run_campaign(&cfg);
        assert!(first.corpus_added > 0);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files as u64, first.corpus_added, "one file per admitted entry");

        // A second run imports what the first persisted.
        let second = run_campaign(&cfg);
        assert_eq!(second.corpus_imported, first.corpus_added);
        assert!(
            second.origins.get("import").copied().unwrap_or(0) >= first.corpus_added,
            "imports must be scheduled as cases"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
