//! Adaptive per-phase policy selection — the "beyond static policies"
//! extension of the 2003 system.
//!
//! The paper runs one hard-coded policy: the §3.3 distance formula,
//! fixed pattern-acceptance thresholds and fixed trace-selection
//! aggressiveness. This module adds a small discrete policy space over
//! those tunables ([`Policy`]) and an online controller
//! ([`PolicyController`]) that trials candidate policies on each
//! stable phase, scores them with the CPI signal plus the per-pass
//! ledger, commits the winner for the phase, and falls back to the
//! paper's static policy when the unpatch monitor brakes a trialed
//! arm.
//!
//! ## Search space
//!
//! One [`Policy`] arm fixes four knobs:
//!
//! * prefetch-distance multiplier ∈ {0.5, 1, 2} ([`DistMult`]);
//! * pattern-acceptance threshold tier ([`AcceptTier`]: the minimum
//!   average miss latency a classified load must show to earn a
//!   stream);
//! * trace-selection aggressiveness ([`TraceAggr`]: how many traces,
//!   how hot a branch target must be, how biased a branch must be to
//!   be followed);
//! * `lfetch` target hint ([`LfetchTarget`]: an L2-targeted stream
//!   only needs to cover the memory→L2 share of the miss latency, so
//!   its distance basis shrinks to 3/4 — see `schedule_streams`).
//!
//! ## Trial protocol and reward signal
//!
//! Arms are trialed in `arms` order, one per optimization attempt of a
//! phase (the reopt gate's attempt cap bounds the trials). A trial
//! starts when the deploy pass patches the phase under the arm and is
//! scored `trial_windows` stable windows later:
//! `score = (cpi_at_patch − cpi_now) / cpi_at_patch`, tie-broken by
//! the number of streams the prefetch-schedule pass accepted during
//! the trial (the ledger component of the reward). When every arm has
//! a score the best one is committed; if the unpatch monitor fires
//! while a non-static arm is active, the arm is abandoned, the
//! fallback is logged and the phase re-commits the static policy.
//!
//! ## Determinism contract
//!
//! Every controller decision derives only from the window index, the
//! phase signature (architectural counters) and seeded configuration —
//! never from wall-clock time — so decision logs replay bit-for-bit
//! across `--jobs`, simulator exec paths and serve-vs-batch
//! (`crates/adore/tests/policy_replay.rs` pins this).

use obs::{Json, ToJson};

use crate::prefetch::PrefetchConfig;
use crate::trace::TraceConfig;

/// Prefetch-distance multiplier applied on top of the §3.3 formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistMult {
    /// Half the paper distance (accurate-but-late extrapolations).
    Half,
    /// The paper's distance (the static policy).
    One,
    /// Twice the paper distance (deep pipelined miss streams).
    Two,
}

impl DistMult {
    /// The multiplier as a percentage (the `distance_pct` knob).
    pub fn pct(self) -> u64 {
        match self {
            DistMult::Half => 50,
            DistMult::One => 100,
            DistMult::Two => 200,
        }
    }
}

/// Pattern-acceptance threshold tier: how delinquent a classified load
/// must be before it earns a prefetch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptTier {
    /// The paper's behavior: every classified load is scheduled.
    Paper,
    /// Only loads whose average miss latency reaches 48 cycles are
    /// scheduled — phases where marginal streams cost more than they
    /// cover.
    Strict,
}

impl AcceptTier {
    /// The `min_stream_latency` value this tier maps to.
    pub fn min_stream_latency(self) -> f64 {
        match self {
            AcceptTier::Paper => 0.0,
            AcceptTier::Strict => 48.0,
        }
    }
}

/// Trace-selection aggressiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAggr {
    /// Fewer, hotter traces: target-count floor doubled, two fewer
    /// traces per event, stronger taken bias.
    Conservative,
    /// The paper's §2.4 settings (the static policy).
    Paper,
    /// More, cooler traces: target-count floor halved, two more traces
    /// per event, weaker taken bias.
    Aggressive,
}

/// Which cache level the inserted `lfetch` streams target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfetchTarget {
    /// Fill to L1D (the paper's `lfetch`).
    L1,
    /// Fill to L2 only: the stream's distance basis shrinks to the
    /// memory→L2 share of the miss latency.
    L2,
}

/// One point of the discrete policy space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Stable arm name used in decision logs and reports.
    pub name: &'static str,
    /// Prefetch-distance multiplier.
    pub dist: DistMult,
    /// Pattern-acceptance threshold tier.
    pub tier: AcceptTier,
    /// Trace-selection aggressiveness.
    pub aggr: TraceAggr,
    /// `lfetch` cache-target hint.
    pub target: LfetchTarget,
}

impl Policy {
    /// The paper's static policy — the incumbent every trial is
    /// measured against and the arm every fallback re-commits.
    pub const STATIC: Policy = Policy {
        name: "static",
        dist: DistMult::One,
        tier: AcceptTier::Paper,
        aggr: TraceAggr::Paper,
        target: LfetchTarget::L1,
    };

    /// Deep streams: double distance, aggressive trace selection. Wins
    /// on long strided phases where the static distance under-covers.
    pub const WIDE: Policy = Policy {
        name: "wide",
        dist: DistMult::Two,
        tier: AcceptTier::Paper,
        aggr: TraceAggr::Aggressive,
        target: LfetchTarget::L1,
    };

    /// Near streams: half distance, L2-targeted. Wins on pointer-chase
    /// phases where far extrapolations go stale.
    pub const NEAR: Policy = Policy {
        name: "near",
        dist: DistMult::Half,
        tier: AcceptTier::Paper,
        aggr: TraceAggr::Paper,
        target: LfetchTarget::L2,
    };

    /// Lean machinery: strict acceptance, conservative traces. Wins on
    /// phases where the optimizer's own overhead dominates its gain.
    pub const LEAN: Policy = Policy {
        name: "lean",
        dist: DistMult::One,
        tier: AcceptTier::Strict,
        aggr: TraceAggr::Conservative,
        target: LfetchTarget::L1,
    };

    /// Whether every knob matches the paper's static policy (the
    /// fallback test: an unpatch under such an arm is a plain unpatch,
    /// not a policy fallback).
    pub fn is_static(&self) -> bool {
        self.dist == DistMult::One
            && self.tier == AcceptTier::Paper
            && self.aggr == TraceAggr::Paper
            && self.target == LfetchTarget::L1
    }

    /// The effective trace-selection config under this policy.
    pub fn trace_config(&self, base: &TraceConfig) -> TraceConfig {
        let mut t = base.clone();
        match self.aggr {
            TraceAggr::Paper => {}
            TraceAggr::Aggressive => {
                t.max_traces = base.max_traces + 2;
                t.min_target_count = (base.min_target_count / 2).max(1);
                t.taken_bias = (base.taken_bias - 0.1).max(0.5);
            }
            TraceAggr::Conservative => {
                t.max_traces = base.max_traces.saturating_sub(2).max(1);
                t.min_target_count = base.min_target_count * 2;
                t.taken_bias = (base.taken_bias + 0.1).min(0.95);
            }
        }
        t
    }

    /// The effective prefetch-generation config under this policy.
    pub fn prefetch_config(&self, base: &PrefetchConfig) -> PrefetchConfig {
        let mut p = base.clone();
        p.distance_pct = base.distance_pct * self.dist.pct() / 100;
        p.lfetch_l2 = base.lfetch_l2 || self.target == LfetchTarget::L2;
        p.min_stream_latency = base.min_stream_latency.max(self.tier.min_stream_latency());
        p
    }
}

impl ToJson for Policy {
    fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name)
            .with("distance_pct", self.dist.pct())
            .with(
                "tier",
                match self.tier {
                    AcceptTier::Paper => "paper",
                    AcceptTier::Strict => "strict",
                },
            )
            .with(
                "aggr",
                match self.aggr {
                    TraceAggr::Conservative => "conservative",
                    TraceAggr::Paper => "paper",
                    TraceAggr::Aggressive => "aggressive",
                },
            )
            .with(
                "target",
                match self.target {
                    LfetchTarget::L1 => "l1",
                    LfetchTarget::L2 => "l2",
                },
            )
    }
}

/// Controller configuration (the `policy` section of `AdoreConfig`).
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Master switch. `false` (the default) is the paper's static
    /// policy and is bit-for-bit inert: no decision is taken, no report
    /// section is emitted, every golden tier stays byte-identical.
    pub enable: bool,
    /// Stable windows a trialed arm is observed before it is scored.
    pub trial_windows: u64,
    /// Candidate arms, trialed in order on successive optimization
    /// attempts of a phase. The static policy leads by default so the
    /// incumbent gets a scored baseline before any variant runs.
    pub arms: Vec<Policy>,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            enable: false,
            trial_windows: 3,
            arms: vec![Policy::STATIC, Policy::WIDE, Policy::NEAR, Policy::LEAN],
        }
    }
}

/// One logged controller decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// Profile-window index the decision was taken in.
    pub window: u64,
    /// Phase id (index into the optimizer's known-phase table).
    pub phase: usize,
    /// `"trial"` | `"score"` | `"commit"` | `"fallback"` |
    /// `"redeploy"`.
    pub action: &'static str,
    /// Arm name the decision concerns.
    pub arm: &'static str,
    /// Relative CPI gain (score/commit) or regression (fallback);
    /// 0 for trial starts.
    pub score: f64,
    /// Phase CPI observed at decision time.
    pub cpi: f64,
}

impl ToJson for PolicyDecision {
    fn to_json(&self) -> Json {
        Json::object()
            .with("window", self.window)
            .with("phase", self.phase as u64)
            .with("action", self.action)
            .with("arm", self.arm)
            .with("score", self.score)
            .with("cpi", self.cpi)
    }
}

/// The `policy` section of a `RunReport`: the full decision log plus
/// the final per-phase committed arms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyReport {
    /// Whether the controller ran (mirrors `PolicyConfig::enable`; the
    /// section is omitted from JSON when false).
    pub enabled: bool,
    /// Unpatch-brake fallbacks to the static policy.
    pub fallbacks: u64,
    /// Final committed arm per phase id.
    pub committed: Vec<(usize, &'static str)>,
    /// Every decision, in the order taken.
    pub decisions: Vec<PolicyDecision>,
}

impl ToJson for PolicyReport {
    fn to_json(&self) -> Json {
        let committed: Vec<Json> = self
            .committed
            .iter()
            .map(|(phase, arm)| Json::object().with("phase", *phase as u64).with("arm", *arm))
            .collect();
        Json::object()
            .with("enabled", self.enabled)
            .with("fallbacks", self.fallbacks)
            .with("committed", committed)
            .with("decisions", self.decisions.as_slice())
    }
}

/// One in-flight arm trial.
#[derive(Debug, Clone)]
struct Trial {
    arm: usize,
    started: u64,
    cpi0: f64,
    /// Prefetch-schedule ledger accepts at trial start (the streams
    /// tie-break reads the delta).
    accepted0: u64,
}

/// Controller state for one phase.
#[derive(Debug, Clone)]
struct PhaseState {
    trial: Option<Trial>,
    /// Per-arm `(score, streams)` once trialed.
    scores: Vec<Option<(f64, u64)>>,
    next_arm: usize,
    committed: Option<usize>,
    fallback: bool,
    /// Arm whose parameters the last deploy actually installed — the
    /// committed winner still needs one redeploy when it differs.
    deployed: Option<usize>,
}

impl PhaseState {
    fn new(arms: usize) -> PhaseState {
        PhaseState {
            trial: None,
            scores: vec![None; arms],
            next_arm: 0,
            committed: None,
            fallback: false,
            deployed: None,
        }
    }

    /// Best scored arm: highest score, then most streams, then lowest
    /// index.
    fn best_arm(&self) -> Option<usize> {
        let mut best: Option<(usize, (f64, u64))> = None;
        for (i, s) in self.scores.iter().enumerate() {
            let Some(s) = *s else { continue };
            let better = match best {
                None => true,
                Some((_, b)) => s.0 > b.0 || (s.0 == b.0 && s.1 > b.1),
            };
            if better {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// The online per-phase policy controller.
///
/// Lives in the optimizer context; the pipeline passes call into it at
/// their natural hook points (phase gate → [`PolicyController::observe`],
/// deploy → [`PolicyController::on_deploy`], unpatch brake →
/// [`PolicyController::on_unpatch`]) and read the window's active arm
/// through [`PolicyController::active`].
#[derive(Debug, Clone)]
pub struct PolicyController {
    cfg: PolicyConfig,
    states: Vec<PhaseState>,
    fallbacks: u64,
    decisions: Vec<PolicyDecision>,
}

impl PolicyController {
    /// A fresh controller for one run.
    pub fn new(cfg: &PolicyConfig) -> PolicyController {
        PolicyController {
            cfg: cfg.clone(),
            states: Vec::new(),
            fallbacks: 0,
            decisions: Vec::new(),
        }
    }

    fn arm(&self, i: usize) -> Policy {
        self.cfg.arms.get(i).copied().unwrap_or(Policy::STATIC)
    }

    /// The arm governing optimization work this window for the given
    /// phase (`None` = a phase not seen before, which the first
    /// untrialed arm will own once deployed).
    pub fn active(&self, phase: Option<usize>) -> Policy {
        if self.cfg.arms.is_empty() {
            return Policy::STATIC;
        }
        let state = phase.and_then(|i| self.states.get(i));
        let Some(s) = state else { return self.arm(0) };
        if s.fallback {
            return Policy::STATIC;
        }
        if let Some(c) = s.committed {
            return self.arm(c);
        }
        if let Some(t) = &s.trial {
            return self.arm(t.arm);
        }
        if s.next_arm < self.cfg.arms.len() {
            return self.arm(s.next_arm);
        }
        self.arm(s.best_arm().unwrap_or(0))
    }

    /// A stable window for a known phase: score the in-flight trial
    /// once it has been observed long enough, and commit the winner
    /// when the last arm's score lands. `sched_accepted` is the
    /// prefetch-schedule pass's running ledger accept count.
    pub fn observe(&mut self, phase: usize, now: u64, cpi: f64, sched_accepted: u64) {
        let arms = self.cfg.arms.len();
        let Some(s) = self.states.get_mut(phase) else { return };
        let Some(t) = &s.trial else { return };
        if now < t.started + self.cfg.trial_windows {
            return;
        }
        let t = s.trial.take().expect("checked above");
        let score = (t.cpi0 - cpi) / t.cpi0.max(f64::MIN_POSITIVE);
        let streams = sched_accepted.saturating_sub(t.accepted0);
        s.scores[t.arm] = Some((score, streams));
        s.next_arm = t.arm + 1;
        let arm = self.cfg.arms[t.arm].name;
        self.decisions.push(PolicyDecision {
            window: now,
            phase,
            action: "score",
            arm,
            score,
            cpi,
        });
        if self.states[phase].next_arm >= arms {
            self.commit_best(phase, now, cpi);
        }
    }

    /// The deploy pass patched this phase: start the next arm's trial
    /// (unless one is in flight), or — once the phase has committed —
    /// record the winner's redeploy so its parameters are the ones
    /// left installed.
    pub fn on_deploy(&mut self, phase: usize, now: u64, cpi: f64, sched_accepted: u64) {
        if self.cfg.arms.is_empty() {
            return;
        }
        while self.states.len() <= phase {
            self.states.push(PhaseState::new(self.cfg.arms.len()));
        }
        let s = &mut self.states[phase];
        if s.fallback {
            return;
        }
        if let Some(c) = s.committed {
            if s.deployed != Some(c) {
                s.deployed = Some(c);
                let name = self.cfg.arms[c].name;
                self.decisions.push(PolicyDecision {
                    window: now,
                    phase,
                    action: "redeploy",
                    arm: name,
                    score: 0.0,
                    cpi,
                });
            }
            return;
        }
        if s.trial.is_some() || s.next_arm >= self.cfg.arms.len() {
            return;
        }
        let arm = s.next_arm;
        s.deployed = Some(arm);
        s.trial = Some(Trial {
            arm,
            started: now,
            cpi0: cpi.max(f64::MIN_POSITIVE),
            accepted0: sched_accepted,
        });
        let name = self.cfg.arms[arm].name;
        self.decisions.push(PolicyDecision {
            window: now,
            phase,
            action: "trial",
            arm: name,
            score: 0.0,
            cpi,
        });
    }

    /// True when this phase needs another deploy for the search to
    /// make progress: an untrialed arm is waiting, or the committed
    /// winner's parameters are not the ones currently installed. The
    /// reopt gate waives its cooldown (and widens its attempt cap)
    /// for such phases so the whole arm walk fits inside a run.
    pub fn wants_reopt(&self, phase: usize) -> bool {
        let Some(s) = self.states.get(phase) else { return false };
        if s.fallback || s.trial.is_some() {
            return false;
        }
        match s.committed {
            Some(c) => s.deployed != Some(c),
            None => s.next_arm < self.cfg.arms.len(),
        }
    }

    /// The unpatch brake fired for this phase. Returns `true` when a
    /// non-static arm was active — a policy fallback: the arm is
    /// abandoned and the phase re-commits the static policy.
    pub fn on_unpatch(&mut self, phase: usize, now: u64, cpi_before: f64, cpi_now: f64) -> bool {
        let Some(s) = self.states.get_mut(phase) else { return false };
        let active = if let Some(t) = &s.trial {
            self.cfg.arms.get(t.arm).copied()
        } else {
            s.committed.and_then(|c| self.cfg.arms.get(c).copied())
        };
        let Some(active) = active else { return false };
        if active.is_static() {
            return false;
        }
        let regression = (cpi_before - cpi_now) / cpi_before.max(f64::MIN_POSITIVE);
        if let Some(t) = s.trial.take() {
            s.scores[t.arm] = Some((regression.min(0.0), 0));
            s.next_arm = t.arm + 1;
        }
        s.committed = None;
        s.fallback = true;
        self.fallbacks += 1;
        self.decisions.push(PolicyDecision {
            window: now,
            phase,
            action: "fallback",
            arm: active.name,
            score: regression,
            cpi: cpi_now,
        });
        self.decisions.push(PolicyDecision {
            window: now,
            phase,
            action: "commit",
            arm: Policy::STATIC.name,
            score: 0.0,
            cpi: cpi_now,
        });
        true
    }

    fn commit_best(&mut self, phase: usize, now: u64, cpi: f64) {
        let s = &mut self.states[phase];
        match s.best_arm() {
            Some(b) => {
                s.committed = Some(b);
                let (score, _) = s.scores[b].expect("best arm is scored");
                let arm = self.cfg.arms[b].name;
                self.decisions.push(PolicyDecision {
                    window: now,
                    phase,
                    action: "commit",
                    arm,
                    score,
                    cpi,
                });
            }
            None => {
                s.fallback = true;
                self.decisions.push(PolicyDecision {
                    window: now,
                    phase,
                    action: "commit",
                    arm: Policy::STATIC.name,
                    score: 0.0,
                    cpi,
                });
            }
        }
    }

    /// End of run: phases still mid-search commit their best-so-far so
    /// every trialed phase reports a final policy.
    pub fn finish(&mut self, now: u64) {
        for i in 0..self.states.len() {
            let s = &self.states[i];
            if s.fallback || s.committed.is_some() {
                continue;
            }
            // An interrupted trial never scored; drop it. No fresh CPI
            // sample exists at teardown (and NaN would poison the JSON
            // log), so the closing commit records 0.
            self.states[i].trial = None;
            self.commit_best(i, now, 0.0);
        }
    }

    /// The report section (empty and JSON-omitted when disabled).
    pub fn report(&self) -> PolicyReport {
        let committed = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let arm = if s.fallback {
                    Policy::STATIC.name
                } else {
                    match s.committed {
                        Some(c) => self.arm(c).name,
                        None => Policy::STATIC.name,
                    }
                };
                (i, arm)
            })
            .collect();
        PolicyReport {
            enabled: self.cfg.enable,
            fallbacks: self.fallbacks,
            committed,
            decisions: self.decisions.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_is_identity_on_both_configs() {
        let t = TraceConfig::default();
        let p = PrefetchConfig::default();
        let et = Policy::STATIC.trace_config(&t);
        let ep = Policy::STATIC.prefetch_config(&p);
        assert_eq!(et.max_traces, t.max_traces);
        assert_eq!(et.min_target_count, t.min_target_count);
        assert_eq!(et.taken_bias, t.taken_bias);
        assert_eq!(ep.distance_pct, p.distance_pct);
        assert_eq!(ep.lfetch_l2, p.lfetch_l2);
        assert_eq!(ep.min_stream_latency, p.min_stream_latency);
        assert!(Policy::STATIC.is_static());
        assert!(!Policy::WIDE.is_static());
        assert!(!Policy::NEAR.is_static());
        assert!(!Policy::LEAN.is_static());
    }

    #[test]
    fn arm_knobs_reach_the_effective_configs() {
        let ep = Policy::WIDE.prefetch_config(&PrefetchConfig::default());
        assert_eq!(ep.distance_pct, 200);
        let ep = Policy::NEAR.prefetch_config(&PrefetchConfig::default());
        assert_eq!(ep.distance_pct, 50);
        assert!(ep.lfetch_l2);
        let ep = Policy::LEAN.prefetch_config(&PrefetchConfig::default());
        assert_eq!(ep.min_stream_latency, 48.0);
        let et = Policy::WIDE.trace_config(&TraceConfig::default());
        assert_eq!(et.max_traces, 8);
        assert_eq!(et.min_target_count, 2);
        let et = Policy::LEAN.trace_config(&TraceConfig::default());
        assert_eq!(et.max_traces, 4);
        assert_eq!(et.min_target_count, 8);
    }

    #[test]
    fn trial_score_commit_cycle() {
        let cfg = PolicyConfig {
            enable: true,
            trial_windows: 2,
            arms: vec![Policy::STATIC, Policy::WIDE],
        };
        let mut c = PolicyController::new(&cfg);
        // New phase: first arm pending.
        assert_eq!(c.active(None).name, "static");
        c.on_deploy(0, 10, 2.0, 0);
        assert_eq!(c.active(Some(0)).name, "static");
        // Not yet due.
        c.observe(0, 11, 1.5, 3);
        assert!(c.states[0].trial.is_some());
        // Scored: static improved CPI by 25%.
        c.observe(0, 12, 1.5, 3);
        assert_eq!(c.states[0].scores[0], Some((0.25, 3)));
        // Second arm pending, trialed on the next deploy; it regresses.
        assert_eq!(c.active(Some(0)).name, "wide");
        c.on_deploy(0, 20, 1.5, 3);
        c.observe(0, 22, 1.8, 4);
        // All arms scored → committed the incumbent.
        let r = c.report();
        assert_eq!(r.committed, vec![(0, "static")]);
        assert_eq!(c.active(Some(0)).name, "static");
        let actions: Vec<&str> = r.decisions.iter().map(|d| d.action).collect();
        assert_eq!(actions, vec!["trial", "score", "trial", "score", "commit"]);
    }

    #[test]
    fn unpatch_mid_trial_is_a_fallback_only_for_non_static_arms() {
        let cfg = PolicyConfig { enable: true, trial_windows: 2, arms: vec![Policy::STATIC] };
        let mut c = PolicyController::new(&cfg);
        c.on_deploy(0, 5, 2.0, 0);
        assert!(!c.on_unpatch(0, 6, 2.0, 3.0), "static arm regressing is a plain unpatch");

        let cfg = PolicyConfig { enable: true, trial_windows: 2, arms: vec![Policy::WIDE] };
        let mut c = PolicyController::new(&cfg);
        c.on_deploy(0, 5, 2.0, 0);
        assert!(c.on_unpatch(0, 6, 2.0, 3.0));
        let r = c.report();
        assert_eq!(r.fallbacks, 1);
        assert_eq!(r.committed, vec![(0, "static")]);
        let actions: Vec<&str> = r.decisions.iter().map(|d| d.action).collect();
        assert_eq!(actions, vec!["trial", "fallback", "commit"]);
        assert!(r.decisions[1].score < 0.0, "fallback records the regression");
        assert_eq!(c.active(Some(0)).name, "static");
    }

    #[test]
    fn finish_commits_best_so_far() {
        let cfg = PolicyConfig {
            enable: true,
            trial_windows: 1,
            arms: vec![Policy::WIDE, Policy::NEAR, Policy::LEAN],
        };
        let mut c = PolicyController::new(&cfg);
        c.on_deploy(0, 1, 2.0, 0);
        c.observe(0, 2, 1.0, 5); // wide: +50%
        c.on_deploy(0, 6, 1.0, 5);
        c.observe(0, 7, 0.9, 6); // near: +10%
                                 // lean never trialed — run ends.
        c.finish(9);
        let r = c.report();
        assert_eq!(r.committed, vec![(0, "wide")]);
        assert_eq!(r.decisions.last().map(|d| (d.action, d.arm)), Some(("commit", "wide")));
    }

    #[test]
    fn decision_log_serializes_with_stable_keys() {
        let d = PolicyDecision {
            window: 7,
            phase: 0,
            action: "commit",
            arm: "near",
            score: 0.125,
            cpi: 1.5,
        };
        let j = d.to_json().to_string();
        for key in ["window", "phase", "action", "arm", "score", "cpi"] {
            assert!(j.contains(key), "decision JSON must carry `{key}`: {j}");
        }
        let r = PolicyReport {
            enabled: true,
            fallbacks: 2,
            committed: vec![(0, "near")],
            decisions: vec![d],
        };
        let j = r.to_json().to_string();
        assert!(j.contains("\"fallbacks\""));
        assert!(j.contains("\"committed\""));
    }
}
