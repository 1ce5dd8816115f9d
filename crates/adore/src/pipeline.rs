//! The optimizer as an instrumented pass pipeline.
//!
//! The paper's dynamic-optimization thread (Fig. 3/4) is a fixed
//! sequence of stages: harvest matured instrumentation, detect a stable
//! phase, monitor patched phases for regressions, gate re-optimization,
//! select traces, map delinquent loads, classify their address
//! patterns, schedule prefetch streams, and publish patches. The
//! pre-pipeline runtime fused all of that into one loop; this module
//! factors each stage into a [`Pass`] over a shared [`OptContext`],
//! assembled into a [`Pipeline`] from [`PipelineConfig`].
//!
//! The default pass order reproduces the fused loop **bit-identically**
//! (golden cycle tests do not move): the machine is paused during
//! window callbacks, so splitting the work across passes changes
//! neither what is charged to the main thread nor when. What the
//! decomposition adds is *attribution*: a [`PipelineLedger`] records
//! per-pass invocations, charged virtual cycles (the paper's 1–2 %
//! overhead claim, Fig. 11, now itemized per stage), wall time,
//! accepted work units and rejection counts keyed by the unified
//! [`Rejection`] taxonomy. The counts are derived from the run's
//! [`Decision`] trace, which every pass appends to through
//! [`OptContext::record`].
//!
//! Passes communicate only through [`OptContext`]; disabling a pass
//! leaves its downstream consumers looking at empty prerequisite state
//! (`scratch.sig`, `scratch.traces`, …), which they treat as "nothing
//! to do" rather than an error. Disabling `phase_gate` therefore
//! disables optimization wholesale — every later pass requires a
//! stable-phase signature.

use std::collections::BTreeMap;
use std::time::Instant;

use isa::Pc;
use obs::{Json, ToJson};
use perfmon::{ProfileWindow, UserEventBuffer};
use sim::Machine;

use crate::decision::{Decision, Outcome, Site};
use crate::delinq::{find_delinquent_loads, loads_for_trace, DelinquentLoad};
use crate::instrument::{
    dominant_stride, instrument_trace, promote, PendingInstr, BUFFER_ENTRIES, OBSERVE_WINDOWS,
};
use crate::patch::{install, unpatch, PatchedTrace};
use crate::pattern::Pattern;
use crate::phase::{PhaseDecision, PhaseDetector, PhaseSignature};
use crate::policy::{Policy, PolicyController};
use crate::prefetch::{classify_loads, schedule_streams, InsertionStats, OptimizedTrace};
use crate::reject::Rejection;
use crate::runtime::{AdoreConfig, RunReport, TimePoint};
use crate::trace::{select_traces_with_drops, Trace};

/// Identity of a pipeline pass. The variant order is the canonical
/// (default) execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassKind {
    /// Harvest matured instrumentation buffers and promote dominant
    /// strides to prefetch streams (§6 future work).
    InstrPromote,
    /// Evaluate the phase detector and gate the window on a stable,
    /// actionable phase (§2.3).
    PhaseGate,
    /// Unpatch phases whose CPI regressed after patching (§2.3's
    /// "detect and fix nonprofitable ones").
    UnpatchMonitor,
    /// Gate re-optimization: attempt limits, cooldown windows, and the
    /// Fig. 11 insertion switch.
    ReoptGate,
    /// Select hot traces from the BTB samples (§2.4).
    TraceSelect,
    /// Map DEAR miss records onto the selected traces (§3.1).
    DelinqFilter,
    /// Classify each delinquent load's address pattern (§3.2).
    PatternAnalyze,
    /// Schedule prefetch streams into the trace body (§3.3–3.5).
    PrefetchSchedule,
    /// Publish optimized traces to the trace pool, fall back to
    /// instrumentation for unanalyzable loads, and update the phase
    /// bookkeeping (§2.5).
    PatchDeploy,
}

impl PassKind {
    /// Every pass, in canonical execution order.
    pub const ALL: [PassKind; 9] = [
        PassKind::InstrPromote,
        PassKind::PhaseGate,
        PassKind::UnpatchMonitor,
        PassKind::ReoptGate,
        PassKind::TraceSelect,
        PassKind::DelinqFilter,
        PassKind::PatternAnalyze,
        PassKind::PrefetchSchedule,
        PassKind::PatchDeploy,
    ];

    /// Stable snake_case name used in configs, CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            PassKind::InstrPromote => "instr_promote",
            PassKind::PhaseGate => "phase_gate",
            PassKind::UnpatchMonitor => "unpatch_monitor",
            PassKind::ReoptGate => "reopt_gate",
            PassKind::TraceSelect => "trace_select",
            PassKind::DelinqFilter => "delinq_filter",
            PassKind::PatternAnalyze => "pattern_analyze",
            PassKind::PrefetchSchedule => "prefetch_schedule",
            PassKind::PatchDeploy => "patch_deploy",
        }
    }
}

impl std::fmt::Display for PassKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PassKind {
    type Err = String;

    fn from_str(s: &str) -> Result<PassKind, String> {
        PassKind::ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = PassKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown pass `{s}` (known: {})", names.join(", "))
        })
    }
}

/// Which passes run, and in what order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Passes to execute, in order. The default is [`PassKind::ALL`],
    /// which reproduces the pre-pipeline fused optimizer bit-exactly.
    pub order: Vec<PassKind>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig { order: PassKind::ALL.to_vec() }
    }
}

impl PipelineConfig {
    /// The default order with one pass removed (ablation cells).
    pub fn disable(mut self, kind: PassKind) -> PipelineConfig {
        self.order.retain(|k| *k != kind);
        self
    }

    /// A pipeline running a single pass (fuzz targeting).
    pub fn only(kind: PassKind) -> PipelineConfig {
        PipelineConfig { order: vec![kind] }
    }
}

/// Whether the remaining passes of the current window still run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Proceed to the next pass.
    Continue,
    /// Skip the rest of the window (the fused loop's early `return`s).
    Stop,
}

/// One pipeline stage operating on the shared [`OptContext`].
pub trait Pass {
    /// Which pass this is (ledger key and config identity).
    fn kind(&self) -> PassKind;

    /// Runs the pass for one profile window. The machine is paused for
    /// the duration of the window callback; any cycles the pass charges
    /// via [`Machine::charge_cycles`] are attributed to it in the
    /// ledger.
    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        w: &ProfileWindow,
        ueb: &UserEventBuffer,
    ) -> Flow;
}

/// Per-window scratch state flowing between passes; reset at the start
/// of every window.
#[derive(Debug, Default)]
pub struct WindowScratch {
    /// Window index (1-based timeline position) of the current window.
    pub now: u64,
    /// The actionable stable-phase signature, once the phase gate ran.
    pub sig: Option<PhaseSignature>,
    /// Index into `optimized` of the matching known phase, if any.
    pub entry_idx: Option<usize>,
    /// Traces selected this window.
    pub traces: Vec<Trace>,
    /// Per-trace work items, parallel to `traces`.
    pub work: Vec<TraceWork>,
}

/// Per-trace intermediate results accumulated across the analysis and
/// scheduling passes.
#[derive(Debug, Default)]
pub struct TraceWork {
    /// Delinquent loads belonging to this trace.
    pub mine: Vec<DelinquentLoad>,
    /// Classified loads: (pc, mean miss latency, pattern).
    pub classified: Vec<(Pc, f64, Pattern)>,
    /// The scheduled optimized trace, when any stream fit.
    pub candidate: Option<OptimizedTrace>,
}

/// Aggregate counters feeding the final [`RunReport`].
#[derive(Debug, Default)]
pub struct OptCounters {
    /// Stable phases that received at least one patched trace.
    pub phases_optimized: usize,
    /// Prefetch streams inserted, by pattern.
    pub stats: InsertionStats,
    /// Traces written to the trace pool.
    pub traces_patched: usize,
    /// Traces unpatched as non-profitable.
    pub traces_unpatched: usize,
    /// Loads instrumented for runtime stride discovery.
    pub instrumented: usize,
    /// Instrumented loads promoted to real prefetch streams.
    pub promoted: usize,
}

/// Everything the optimizer accumulates over a run: long-lived phase
/// bookkeeping, the report-bound counters/telemetry, and the per-window
/// scratch the passes hand each other.
pub struct OptContext<'a> {
    /// The full ADORE configuration (passes read their own sections).
    pub config: &'a AdoreConfig,
    /// The coarse-grain phase detector (stateful: window doubling).
    pub detector: PhaseDetector,
    /// Per-window CPI / miss-rate series (Fig. 8/9).
    pub timeline: Vec<TimePoint>,
    /// Known phases: (signature, attempts, exhausted, last attempt
    /// window).
    pub optimized: Vec<(PhaseSignature, u32, bool, u64)>,
    /// Live patches grouped by phase index, with the phase CPI observed
    /// before patching.
    pub live_patches: Vec<(usize, f64, Vec<PatchedTrace>)>,
    /// Installed instrumentation awaiting its observation windows.
    pub pending_instr: Vec<PendingInstr>,
    /// Recording buffers `(base, capacity)` of harvested instrumentation,
    /// zeroed at run teardown (§6 transparency): the machine may still be
    /// mid-iteration inside an unpatched copy at harvest time, so buffers
    /// can only be reclaimed once execution has stopped.
    pub retired_buffers: Vec<(u64, u64)>,
    /// The decision trace, in the order the passes decided.
    pub decisions: Vec<Decision>,
    /// Per-pass overhead and accept ledger (rejection counts are
    /// derived from `decisions` when the run finishes).
    pub ledger: PipelineLedger,
    /// Aggregate report counters.
    pub counters: OptCounters,
    /// Per-window scratch state.
    pub scratch: WindowScratch,
    /// The adaptive policy controller (inert unless
    /// `config.policy.enable`).
    pub policy: PolicyController,
}

impl<'a> OptContext<'a> {
    /// Creates a fresh context for one run.
    pub fn new(config: &'a AdoreConfig) -> OptContext<'a> {
        OptContext {
            config,
            detector: PhaseDetector::new(config.phase.clone()),
            timeline: Vec::new(),
            optimized: Vec::new(),
            live_patches: Vec::new(),
            pending_instr: Vec::new(),
            retired_buffers: Vec::new(),
            decisions: Vec::new(),
            ledger: PipelineLedger::new(&config.pipeline.order),
            counters: OptCounters::default(),
            scratch: WindowScratch::default(),
            policy: PolicyController::new(&config.policy),
        }
    }

    /// Appends one decision to the trace, stamped with the current
    /// window and its phase signature (if the gate produced one).
    pub fn record(&mut self, pass: PassKind, site: Site, outcome: Outcome) {
        let (window, phase) = (self.scratch.now, self.scratch.sig);
        self.decisions.push(Decision { window, phase, pass, site, outcome });
    }

    /// Records that `pass` declined `site` (the ledger counts it when the
    /// run finishes).
    pub fn reject(&mut self, pass: PassKind, site: Site, r: Rejection) {
        self.record(pass, site, Outcome::Rejected(r));
    }

    /// The policy arm governing this window's optimization work: the
    /// paper's static policy unless the adaptive controller is enabled
    /// and has an arm in trial or committed for the current phase.
    pub fn active_policy(&self) -> Policy {
        if !self.config.policy.enable {
            return Policy::STATIC;
        }
        self.policy.active(self.scratch.entry_idx)
    }

    /// Position in `live_patches` of the first group whose patched
    /// traces cover a pool-side sample center — the unpatch monitor's
    /// recognition rule for a phase running entirely in the trace pool.
    fn pool_group(&self, sig: &PhaseSignature) -> Option<usize> {
        if sig.pc_center < isa::TRACE_POOL_BASE as f64 {
            return None;
        }
        self.live_patches.iter().position(|(_, _, patches)| {
            patches.iter().any(|p| {
                let start = p.pool_addr.0 as f64;
                let end = start + (p.len as f64) * 16.0;
                sig.pc_center >= start && sig.pc_center < end
            })
        })
    }

    /// The optimized entry of [`Self::pool_group`]'s group, reused by the
    /// policy controller so windows spent inside patched traces still
    /// credit (and can re-optimize) the originating phase.
    fn pool_phase(&self, sig: &PhaseSignature) -> Option<usize> {
        self.pool_group(sig).map(|pi| self.live_patches[pi].0)
    }

    /// Running prefetch-schedule ledger accepts — the controller's
    /// streams tie-break signal.
    fn sched_accepted(&self) -> u64 {
        self.ledger
            .passes
            .iter()
            .find(|(k, _)| *k == PassKind::PrefetchSchedule)
            .map(|(_, l)| l.accepted)
            .unwrap_or(0)
    }

    /// Moves the accumulated results into a report (cycles, retired and
    /// window counts are the runtime's responsibility), counting every
    /// rejection of the trace into its pass's ledger entry.
    pub fn finish(mut self, report: &mut RunReport) {
        for d in &self.decisions {
            if let Outcome::Rejected(r) = d.outcome {
                *self.ledger.entry_mut(d.pass).rejections.entry(r.label()).or_default() += 1;
            }
        }
        if self.config.policy.enable {
            self.policy.finish(self.timeline.len() as u64);
            report.policy = self.policy.report();
        }
        report.timeline = self.timeline;
        report.phases_optimized = self.counters.phases_optimized;
        report.stats = self.counters.stats;
        report.traces_patched = self.counters.traces_patched;
        report.traces_unpatched = self.counters.traces_unpatched;
        report.instrumented = self.counters.instrumented;
        report.promoted = self.counters.promoted;
        report.decisions = self.decisions;
        report.ledger = self.ledger;
    }
}

/// Per-pass telemetry: cost attribution plus accept/reject counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassLedger {
    /// Windows in which the pass ran.
    pub invocations: u64,
    /// Virtual cycles the pass charged to the main thread (patch
    /// publications, sampling handlers it triggered, …).
    pub charged_cycles: u64,
    /// Wall-clock nanoseconds spent inside the pass. Host-dependent, so
    /// deliberately **excluded** from the JSON serialization to keep
    /// reports deterministic.
    pub wall_ns: u64,
    /// Work units the pass accepted (meaning is per-pass: phases,
    /// traces, loads, streams, patches).
    pub accepted: u64,
    /// Rejection counts keyed by [`Rejection::label`].
    pub rejections: BTreeMap<&'static str, u64>,
}

/// The run-wide overhead ledger: one [`PassLedger`] per configured
/// pass, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineLedger {
    /// Ledger entries, in pipeline order.
    pub passes: Vec<(PassKind, PassLedger)>,
}

impl Default for PipelineLedger {
    fn default() -> PipelineLedger {
        PipelineLedger::new(&PassKind::ALL)
    }
}

impl PipelineLedger {
    /// A zeroed ledger for the given pass order.
    pub fn new(order: &[PassKind]) -> PipelineLedger {
        PipelineLedger { passes: order.iter().map(|&k| (k, PassLedger::default())).collect() }
    }

    /// The ledger entry for a pass, created on first use.
    pub fn entry_mut(&mut self, kind: PassKind) -> &mut PassLedger {
        if let Some(i) = self.passes.iter().position(|(k, _)| *k == kind) {
            return &mut self.passes[i].1;
        }
        self.passes.push((kind, PassLedger::default()));
        &mut self.passes.last_mut().expect("just pushed").1
    }

    /// Records `n` accepted work units for a pass.
    pub fn accept(&mut self, kind: PassKind, n: u64) {
        self.entry_mut(kind).accepted += n;
    }

    /// Iterates the ledger entries in pipeline order.
    pub fn entries(&self) -> impl Iterator<Item = (PassKind, &PassLedger)> {
        self.passes.iter().map(|(k, l)| (*k, l))
    }

    /// Total virtual cycles charged across all passes — the optimizer's
    /// share of the Fig. 11 overhead (sampling-handler cost is tracked
    /// separately by the PMU).
    pub fn total_charged(&self) -> u64 {
        self.passes.iter().map(|(_, l)| l.charged_cycles).sum()
    }
}

impl ToJson for PipelineLedger {
    fn to_json(&self) -> Json {
        let mut passes = Json::Array(Vec::new());
        for (kind, led) in &self.passes {
            let mut rej = Json::object();
            for (label, count) in &led.rejections {
                rej.set(label, *count);
            }
            passes.push(
                Json::object()
                    .with("name", kind.name())
                    .with("invocations", led.invocations)
                    .with("charged_cycles", led.charged_cycles)
                    .with("accepted", led.accepted)
                    .with("rejections", rej),
            );
        }
        Json::object().with("passes", passes)
    }
}

/// An assembled pass pipeline.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// Builds the pipeline described by the config.
    pub fn from_config(cfg: &PipelineConfig) -> Pipeline {
        let passes = cfg
            .order
            .iter()
            .map(|&kind| -> Box<dyn Pass> {
                match kind {
                    PassKind::InstrPromote => Box::new(InstrPromote),
                    PassKind::PhaseGate => Box::new(PhaseGate),
                    PassKind::UnpatchMonitor => Box::new(UnpatchMonitor),
                    PassKind::ReoptGate => Box::new(ReoptGate),
                    PassKind::TraceSelect => Box::new(TraceSelect),
                    PassKind::DelinqFilter => Box::new(DelinqFilter),
                    PassKind::PatternAnalyze => Box::new(PatternAnalyze),
                    PassKind::PrefetchSchedule => Box::new(PrefetchSchedule),
                    PassKind::PatchDeploy => Box::new(PatchDeploy),
                }
            })
            .collect();
        Pipeline { passes }
    }

    /// Processes one profile window: records the timeline point, resets
    /// the scratch, and runs every configured pass (charging each one's
    /// cycle and wall cost to the ledger) until one stops the window.
    pub fn run_window(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        w: &ProfileWindow,
        ueb: &UserEventBuffer,
    ) {
        ctx.timeline.push(TimePoint {
            cycles: w.samples.last().map(|s| s.cycles).unwrap_or(0),
            cpi: w.cpi,
            dear_per_kinsn: w.dear_per_kinsn,
        });
        ctx.scratch = WindowScratch { now: ctx.timeline.len() as u64, ..Default::default() };
        for pass in &mut self.passes {
            let kind = pass.kind();
            let cycles_before = m.cycles();
            let started = Instant::now();
            let flow = pass.run(ctx, m, w, ueb);
            let led = ctx.ledger.entry_mut(kind);
            led.invocations += 1;
            led.charged_cycles += m.cycles() - cycles_before;
            led.wall_ns += started.elapsed().as_nanos() as u64;
            if flow == Flow::Stop {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The nine passes. Each transliterates one stage of the pre-pipeline
// fused loop; the order and every machine-visible action (allocations,
// installs, charges) must match it exactly for bit-identity.
// ---------------------------------------------------------------------

/// Harvests matured instrumentation and promotes dominant strides.
struct InstrPromote;

impl Pass for InstrPromote {
    fn kind(&self) -> PassKind {
        PassKind::InstrPromote
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        let now = ctx.scratch.now;
        let mut i = 0;
        while i < ctx.pending_instr.len() {
            if now < ctx.pending_instr[i].installed_window + OBSERVE_WINDOWS {
                i += 1;
                continue;
            }
            let pi = ctx.pending_instr.swap_remove(i);
            let stride = dominant_stride(m.mem(), pi.buffer, pi.capacity);
            let _ = unpatch(m, &pi.patch);
            // The machine may still be mid-iteration inside the unpatched
            // copy and keep recording until the phase exits, so the buffer
            // cannot be reclaimed here; it is zeroed at run teardown.
            ctx.retired_buffers.push((pi.buffer, pi.capacity));
            let site = Site::Trace(pi.trace.start);
            let Some(stride) = stride else {
                ctx.reject(PassKind::InstrPromote, site, Rejection::NoDominantStride);
                continue;
            };
            let promoted = promote(&pi.trace, pi.load_pos, stride, pi.dist_iters)
                .and_then(|ot| install(m, &ot).ok().map(|p| (ot, p)));
            match promoted {
                Some((ot, patch)) => {
                    m.charge_cycles(ctx.config.patch_cost_cycles);
                    ctx.counters.stats += ot.stats;
                    ctx.counters.traces_patched += 1;
                    ctx.counters.promoted += 1;
                    ctx.ledger.accept(PassKind::InstrPromote, 1);
                    let at_cycles = m.cycles();
                    ctx.record(
                        PassKind::InstrPromote,
                        site,
                        Outcome::Promoted { at_cycles, stride, patch },
                    );
                }
                None => ctx.reject(PassKind::InstrPromote, site, Rejection::PatchFailed),
            }
        }
        Flow::Continue
    }
}

/// Evaluates the phase detector and gates the window on a stable phase.
struct PhaseGate;

impl Pass for PhaseGate {
    fn kind(&self) -> PassKind {
        PassKind::PhaseGate
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        _m: &mut Machine,
        _w: &ProfileWindow,
        ueb: &UserEventBuffer,
    ) -> Flow {
        let decision = ctx.detector.evaluate(ueb);
        // A stable phase below the DPI bar still carries the CPI
        // signal the controller scores trials with (a successful arm
        // *lowers* DPI — the winner must not vanish unscored).
        let quiet_sig = match &decision {
            PhaseDecision::InTracePool(sig) | PhaseDecision::LowMissRate(sig) => Some(*sig),
            _ => None,
        };
        match decision.actionable(ctx.config.phase.min_dpi) {
            Ok(sig) => {
                let detector = &ctx.detector;
                ctx.scratch.entry_idx =
                    ctx.optimized.iter().position(|(s, _, _, _)| detector.same_phase(s, &sig));
                ctx.scratch.sig = Some(sig);
                ctx.ledger.accept(PassKind::PhaseGate, 1);
                // A stable window of a known phase feeds the policy
                // controller: due trials are scored here, and the
                // winner committed once the last arm's score lands.
                // Execution that moved into the trace pool is mapped
                // back to the phase whose patches it runs, so the arm
                // walk keeps progressing after the first deploy.
                if ctx.config.policy.enable {
                    if ctx.scratch.entry_idx.is_none() {
                        ctx.scratch.entry_idx = ctx.pool_phase(&sig);
                    }
                    if let Some(i) = ctx.scratch.entry_idx {
                        let accepted = ctx.sched_accepted();
                        ctx.policy.observe(i, ctx.scratch.now, sig.cpi, accepted);
                    }
                }
                Flow::Continue
            }
            Err(r) => {
                // Adaptive-policy path: map the below-DPI pool window
                // back to its phase, score any due trial, and — while
                // arms remain untrialed (or the winner's redeploy is
                // pending) — let the window flow so the gate-driven
                // arm walk can deploy the next one. Bounded by the
                // reopt gate's per-phase attempt budget.
                if ctx.config.policy.enable {
                    if let Some(sig) = quiet_sig {
                        let detector = &ctx.detector;
                        ctx.scratch.entry_idx = ctx
                            .optimized
                            .iter()
                            .position(|(s, _, _, _)| detector.same_phase(s, &sig))
                            .or_else(|| ctx.pool_phase(&sig));
                        if let Some(i) = ctx.scratch.entry_idx {
                            let accepted = ctx.sched_accepted();
                            ctx.policy.observe(i, ctx.scratch.now, sig.cpi, accepted);
                            if ctx.policy.wants_reopt(i) {
                                ctx.scratch.sig = Some(sig);
                                ctx.ledger.accept(PassKind::PhaseGate, 1);
                                return Flow::Continue;
                            }
                        }
                    }
                }
                ctx.reject(PassKind::PhaseGate, Site::Window, r);
                Flow::Stop
            }
        }
    }
}

/// Unpatches phases whose CPI regressed by more than 2 % after patching
/// (the paper's "detect and fix nonprofitable ones", §2.3). With
/// insertion off there are no live patches, so it does nothing;
/// disabling the pass in [`PipelineConfig`] is its one off switch.
struct UnpatchMonitor;

impl Pass for UnpatchMonitor {
    fn kind(&self) -> PassKind {
        PassKind::UnpatchMonitor
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        let Some(sig) = ctx.scratch.sig else { return Flow::Continue };
        // The regressed phase is recognized either by its code-side
        // signature or — when execution moved entirely into the trace
        // pool — by the pool range its samples fall into.
        let group = ctx
            .scratch
            .entry_idx
            .and_then(|i| ctx.live_patches.iter().position(|(idx, _, _)| *idx == i))
            .or_else(|| ctx.pool_group(&sig));
        if let Some(pi) = group {
            let (idx, cpi_before, _) = ctx.live_patches[pi];
            if sig.cpi > cpi_before * 1.02 {
                let (_, _, patches) = ctx.live_patches.swap_remove(pi);
                for patch in &patches {
                    if unpatch(m, patch).is_ok() {
                        ctx.counters.traces_unpatched += 1;
                    }
                }
                m.charge_cycles(ctx.config.patch_cost_cycles);
                ctx.optimized[idx].2 = true; // do not try again
                ctx.ledger.accept(PassKind::UnpatchMonitor, 1);
                for patch in &patches {
                    let site = Site::Trace(patch.original_head);
                    ctx.reject(PassKind::UnpatchMonitor, site, Rejection::CpiRegressed);
                }
                let unpatched = Outcome::Unpatched {
                    at_cycles: m.cycles(),
                    patches: patches.len(),
                    cpi_before,
                    cpi_now: sig.cpi,
                };
                ctx.record(PassKind::UnpatchMonitor, Site::Window, unpatched);
                // The brake doubles as the policy fallback: a
                // non-static arm in trial (or committed) is abandoned
                // and the phase re-commits the static policy.
                if ctx.config.policy.enable
                    && ctx.policy.on_unpatch(idx, ctx.scratch.now, cpi_before, sig.cpi)
                {
                    ctx.reject(PassKind::UnpatchMonitor, Site::Window, Rejection::PolicyRegressed);
                }
                return Flow::Stop;
            }
        }
        Flow::Continue
    }
}

/// Gates re-optimization on attempt limits, cooldown windows and the
/// Fig. 11 insertion switch.
struct ReoptGate;

impl Pass for ReoptGate {
    fn kind(&self) -> PassKind {
        PassKind::ReoptGate
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        _m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        let Some(sig) = ctx.scratch.sig else { return Flow::Continue };
        let now = ctx.scratch.now;
        // A few windows of cooldown between attempts let the profile
        // refresh with post-patch samples first.
        let cooldown = ctx.config.phase.windows_required as u64 + 1;
        if let Some(i) = ctx.scratch.entry_idx {
            let (_, attempts, exhausted, last) = ctx.optimized[i];
            // The adaptive controller needs one deploy per arm plus
            // the winner's redeploy, so while it still has trials to
            // run it widens the attempt budget and waives the
            // cooldown — the trial cadence itself paces the deploys
            // (wants_reopt is false while a trial is being observed).
            let policy_driven = ctx.config.policy.enable && ctx.policy.wants_reopt(i);
            let max_attempts =
                if policy_driven { (ctx.config.policy.arms.len() as u32 + 1).max(4) } else { 4 };
            if exhausted || attempts >= max_attempts {
                ctx.reject(PassKind::ReoptGate, Site::Window, Rejection::PhaseExhausted);
                return Flow::Stop; // nothing more to gain from this phase
            }
            if !policy_driven && now < last + cooldown {
                ctx.reject(PassKind::ReoptGate, Site::Window, Rejection::PhaseCooldown);
                return Flow::Stop; // (yet)
            }
        }
        if !ctx.config.insert_prefetches {
            if ctx.scratch.entry_idx.is_none() {
                ctx.optimized.push((sig, 1, true, now));
            }
            ctx.reject(PassKind::ReoptGate, Site::Window, Rejection::InsertionDisabled);
            return Flow::Stop; // Fig. 11: machinery without insertion
        }
        ctx.ledger.accept(PassKind::ReoptGate, 1);
        Flow::Continue
    }
}

/// Selects hot traces from the BTB samples (§2.4).
struct TraceSelect;

impl Pass for TraceSelect {
    fn kind(&self) -> PassKind {
        PassKind::TraceSelect
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        _w: &ProfileWindow,
        ueb: &UserEventBuffer,
    ) -> Flow {
        if ctx.scratch.sig.is_none() {
            return Flow::Continue;
        }
        // Selection reads through the machine so already-patched traces
        // in the pool can be re-selected for incremental
        // re-optimization. The active policy arm sets the selection
        // aggressiveness (identity under the static policy).
        let tcfg = ctx.active_policy().trace_config(&ctx.config.trace);
        let (traces, drops) = select_traces_with_drops(&*m, ueb, &tcfg);
        for (target, r) in drops {
            ctx.reject(PassKind::TraceSelect, Site::Trace(target), r);
        }
        ctx.ledger.accept(PassKind::TraceSelect, traces.len() as u64);
        ctx.scratch.work = traces.iter().map(|_| TraceWork::default()).collect();
        ctx.scratch.traces = traces;
        Flow::Continue
    }
}

/// Maps DEAR miss records onto the selected traces (§3.1).
struct DelinqFilter;

impl Pass for DelinqFilter {
    fn kind(&self) -> PassKind {
        PassKind::DelinqFilter
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        _m: &mut Machine,
        _w: &ProfileWindow,
        ueb: &UserEventBuffer,
    ) -> Flow {
        if ctx.scratch.traces.is_empty() {
            return Flow::Continue;
        }
        let loads = find_delinquent_loads(&ctx.scratch.traces, ueb);
        for (ti, work) in ctx.scratch.work.iter_mut().enumerate() {
            work.mine = loads_for_trace(&loads, ti);
        }
        ctx.ledger.accept(PassKind::DelinqFilter, loads.len() as u64);
        for l in &loads {
            let trace = ctx.scratch.traces[l.trace_index].start;
            let (samples, latency) = (l.count, l.total_latency);
            ctx.record(
                PassKind::DelinqFilter,
                Site::Load(l.pc),
                Outcome::Delinquent { trace, samples, latency },
            );
        }
        Flow::Continue
    }
}

/// Classifies each delinquent load's address pattern (§3.2).
struct PatternAnalyze;

impl Pass for PatternAnalyze {
    fn kind(&self) -> PassKind {
        PassKind::PatternAnalyze
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        _m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        for ti in 0..ctx.scratch.traces.len() {
            let (trace, work) = (&ctx.scratch.traces[ti], &ctx.scratch.work[ti]);
            if !trace.is_loop || work.mine.is_empty() {
                continue;
            }
            let (classified, rejected) = classify_loads(trace, &work.mine);
            for (pc, _, p) in &classified {
                let outcome = Outcome::Classified(p.clone());
                ctx.record(PassKind::PatternAnalyze, Site::Load(*pc), outcome);
            }
            for (pc, r) in rejected {
                ctx.reject(PassKind::PatternAnalyze, Site::Load(pc), r);
            }
            ctx.ledger.accept(PassKind::PatternAnalyze, classified.len() as u64);
            ctx.scratch.work[ti].classified = classified;
        }
        Flow::Continue
    }
}

/// Schedules prefetch streams into the trace bodies (§3.3–3.5).
struct PrefetchSchedule;

impl Pass for PrefetchSchedule {
    fn kind(&self) -> PassKind {
        PassKind::PrefetchSchedule
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        _m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        // The active arm sets the distance multiplier, the acceptance
        // tier and the lfetch target (identity under the static policy).
        let pcfg = ctx.active_policy().prefetch_config(&ctx.config.prefetch);
        for ti in 0..ctx.scratch.traces.len() {
            let (trace, work) = (&ctx.scratch.traces[ti], &ctx.scratch.work[ti]);
            if !trace.is_loop || work.mine.is_empty() {
                continue;
            }
            let out = schedule_streams(trace, &work.classified, &pcfg);
            for (pc, fate) in out.fates {
                let outcome = match fate {
                    Ok(distance_iters) => Outcome::Scheduled { distance_iters },
                    Err(r) => Outcome::Rejected(r),
                };
                ctx.record(PassKind::PrefetchSchedule, Site::Load(pc), outcome);
            }
            if let Some(ot) = &out.candidate {
                ctx.ledger.accept(PassKind::PrefetchSchedule, ot.stats.total() as u64);
            }
            ctx.scratch.work[ti].candidate = out.candidate;
        }
        Flow::Continue
    }
}

/// Publishes optimized traces to the trace pool, falls back to
/// instrumentation for unanalyzable loads, and updates the phase
/// bookkeeping (§2.5).
struct PatchDeploy;

impl Pass for PatchDeploy {
    fn kind(&self) -> PassKind {
        PassKind::PatchDeploy
    }

    fn run(
        &mut self,
        ctx: &mut OptContext<'_>,
        m: &mut Machine,
        _w: &ProfileWindow,
        _ueb: &UserEventBuffer,
    ) -> Flow {
        let Some(sig) = ctx.scratch.sig else { return Flow::Continue };
        let now = ctx.scratch.now;
        let traces = std::mem::take(&mut ctx.scratch.traces);
        let mut work = std::mem::take(&mut ctx.scratch.work);
        let mut patched_any = false;
        let mut new_patches: Vec<PatchedTrace> = Vec::new();
        for (ti, trace) in traces.iter().enumerate() {
            let w = &mut work[ti];
            let site = Site::Trace(trace.start);
            let mut inserted = InsertionStats::default();
            if trace.is_loop && !w.mine.is_empty() {
                match w.candidate.take() {
                    Some(ot) => {
                        if let Ok(p) = install(m, &ot) {
                            // Patch publication briefly pauses the main
                            // thread.
                            m.charge_cycles(ctx.config.patch_cost_cycles);
                            ctx.counters.stats += ot.stats;
                            inserted = ot.stats;
                            ctx.counters.traces_patched += 1;
                            patched_any = true;
                            ctx.ledger.accept(PassKind::PatchDeploy, 1);
                            new_patches.push(p.clone());
                            let deployed = Outcome::Deployed { at_cycles: m.cycles(), patch: p };
                            ctx.record(PassKind::PatchDeploy, site, deployed);
                        } else {
                            ctx.reject(PassKind::PatchDeploy, site, Rejection::PatchFailed);
                        }
                    }
                    None if ctx.config.instrument_unanalyzable => {
                        // Nothing analyzable: fall back to runtime
                        // instrumentation on the hottest unanalyzable
                        // load (§6 future work).
                        deploy_instrumentation(ctx, m, trace, w);
                    }
                    None => {}
                }
            }
            let (is_loop, bundles, loads) = (trace.is_loop, trace.bundles.len(), w.mine.len());
            let handled = Outcome::Trace { is_loop, bundles, loads, inserted };
            ctx.record(PassKind::PatchDeploy, site, handled);
        }
        let idx = match ctx.scratch.entry_idx {
            Some(i) => {
                ctx.optimized[i].1 += 1;
                ctx.optimized[i].2 = !patched_any;
                ctx.optimized[i].3 = now;
                i
            }
            None => {
                ctx.optimized.push((sig, 1, !patched_any, now));
                ctx.optimized.len() - 1
            }
        };
        if !new_patches.is_empty() {
            match ctx.live_patches.iter_mut().find(|(i, _, _)| *i == idx) {
                Some((_, _, v)) => v.extend(new_patches),
                None => ctx.live_patches.push((idx, sig.cpi, new_patches)),
            }
        }
        if patched_any && ctx.scratch.entry_idx.is_none() {
            ctx.counters.phases_optimized += 1;
        }
        // A successful deploy opens the next arm's trial for this
        // phase (no-op once the phase has committed or fallen back).
        if ctx.config.policy.enable && patched_any {
            let accepted = ctx.sched_accepted();
            ctx.policy.on_deploy(idx, now, sig.cpi, accepted);
        }
        Flow::Continue
    }
}

/// Zeroes a recording buffer back to its allocation-time state.
pub(crate) fn zero_buffer(m: &mut Machine, buffer: u64, capacity: u64) {
    for i in 0..capacity {
        m.mem_mut().write(buffer + 8 * i, 8, 0);
    }
}

/// The instrumentation fallback of the deploy pass: records the hottest
/// unanalyzable load's address stream for later promotion.
fn deploy_instrumentation(ctx: &mut OptContext<'_>, m: &mut Machine, trace: &Trace, w: &TraceWork) {
    // This window's pattern-analysis verdicts, read back from the trace.
    let now = ctx.scratch.now;
    let verdicts = ctx.decisions.iter().rev().take_while(|d| d.window == now);
    let unanalyzable: Vec<Site> = verdicts
        .filter(|d| matches!(d.outcome, Outcome::Rejected(Rejection::UnanalyzableSlice)))
        .map(|d| d.site)
        .collect();
    let Some(load) = w.mine.iter().find(|l| unanalyzable.contains(&Site::Load(l.pc))) else {
        return;
    };
    let site = Site::Trace(trace.start);
    let bytes = 8 * BUFFER_ENTRIES + 64;
    if m.mem().remaining() <= bytes
        || ctx.pending_instr.iter().any(|p| p.patch.original_head == trace.start)
    {
        ctx.reject(PassKind::PatchDeploy, site, Rejection::InstrumentBufferExhausted);
        return;
    }
    let buffer = m.mem_mut().alloc(8 * BUFFER_ENTRIES, 64);
    let Some(instr) = instrument_trace(trace, load.position, buffer, BUFFER_ENTRIES) else {
        return;
    };
    let body_cycles = (trace.bundles.len() as u64).div_ceil(2).max(1) + 1;
    let dist_iters = ((load.avg_latency / body_cycles as f64).ceil() as u64).clamp(4, 256);
    if let Ok(p) = install(m, &instr.trace) {
        m.charge_cycles(ctx.config.patch_cost_cycles);
        ctx.counters.instrumented += 1;
        let at_cycles = m.cycles();
        let patch = p.clone();
        let instrumented = Outcome::Instrumented { at_cycles, buffer, dist_iters, patch };
        ctx.record(PassKind::PatchDeploy, site, instrumented);
        ctx.pending_instr.push(PendingInstr {
            patch: p,
            trace: trace.clone(),
            load_pos: load.position,
            dist_iters,
            buffer,
            capacity: BUFFER_ENTRIES,
            installed_window: ctx.scratch.now,
        });
    } else {
        ctx.reject(PassKind::PatchDeploy, site, Rejection::PatchFailed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_names_round_trip() {
        for kind in PassKind::ALL {
            assert_eq!(kind.name().parse::<PassKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("no_such_pass".parse::<PassKind>().is_err());
    }

    #[test]
    fn default_config_is_the_canonical_order() {
        assert_eq!(PipelineConfig::default().order, PassKind::ALL.to_vec());
        let without = PipelineConfig::default().disable(PassKind::UnpatchMonitor);
        assert_eq!(without.order.len(), 8);
        assert!(!without.order.contains(&PassKind::UnpatchMonitor));
        assert_eq!(PipelineConfig::only(PassKind::PhaseGate).order, vec![PassKind::PhaseGate]);
    }

    #[test]
    fn ledger_counts_and_serializes() {
        let mut ledger = PipelineLedger::new(&[PassKind::PhaseGate, PassKind::PatchDeploy]);
        ledger.entry_mut(PassKind::PhaseGate).rejections.insert("phase_unstable", 3);
        ledger.accept(PassKind::PatchDeploy, 3);
        ledger.entry_mut(PassKind::PatchDeploy).charged_cycles += 40_000;
        assert_eq!(ledger.total_charged(), 40_000);
        let j = ledger.to_json();
        let passes = j.get("passes").unwrap();
        let Json::Array(items) = passes else { panic!("passes must be an array") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("name").and_then(|v| v.as_str()), Some("phase_gate"));
        assert_eq!(
            items[0]
                .get("rejections")
                .and_then(|r| r.get("phase_unstable"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(items[1].get("accepted").and_then(|v| v.as_u64()), Some(3));
        // Host wall time must not leak into reports.
        assert!(j.to_string().find("wall_ns").is_none());
    }

    #[test]
    fn finish_counts_the_trace_rejections_into_the_ledger() {
        let config = AdoreConfig::default();
        let mut ctx = OptContext::new(&config);
        ctx.reject(PassKind::PhaseGate, Site::Window, Rejection::PhaseUnstable);
        ctx.reject(PassKind::PhaseGate, Site::Window, Rejection::PhaseUnstable);
        let pc = Pc::new(isa::Addr(0x4000), 1);
        let scheduled = Outcome::Scheduled { distance_iters: 8 };
        ctx.record(PassKind::PrefetchSchedule, Site::Load(pc), scheduled);
        let mut report = RunReport::default();
        ctx.finish(&mut report);
        let count = |kind: PassKind| {
            let (_, led) = report.ledger.entries().find(|(k, _)| *k == kind).unwrap();
            led.rejections.clone()
        };
        assert_eq!(count(PassKind::PhaseGate).get("phase_unstable"), Some(&2));
        assert!(count(PassKind::PrefetchSchedule).is_empty(), "a scheduled stream is no rejection");
        assert_eq!(report.decisions.len(), 3);
    }

    #[test]
    fn entry_mut_extends_for_unlisted_pass() {
        let mut ledger = PipelineLedger::new(&[]);
        ledger.accept(PassKind::TraceSelect, 1);
        assert_eq!(ledger.passes.len(), 1);
        assert_eq!(ledger.passes[0].0, PassKind::TraceSelect);
    }
}
