//! The dynamic-optimization runtime: ADORE's main loop.
//!
//! Mirrors the framework of Fig. 3/Fig. 4 in the paper: the main thread
//! runs the unmodified binary while sampling; every System Sample
//! Buffer overflow produces a profile window (the signal handler's copy
//! cost is charged to the main thread); the dynamic-optimization thread
//! — which the paper runs on the second CPU, "idle almost all of the
//! time" — consumes windows, detects stable phases, selects traces,
//! inserts prefetches and patches the binary. Only the sampling handler
//! and the brief patch publication cost main-thread cycles, which is
//! why total overhead stays in the 1–2 % range (Fig. 11).

use obs::{Json, ToJson};
use perfmon::{Perfmon, PerfmonConfig};
use sim::{Machine, MachineConfig, SamplingConfig, StopReason};

use crate::decision::Decision;
use crate::phase::PhaseConfig;
use crate::pipeline::{OptContext, Pipeline, PipelineConfig, PipelineLedger};
use crate::policy::{PolicyConfig, PolicyReport};
use crate::prefetch::{InsertionStats, PrefetchConfig};
use crate::trace::TraceConfig;

/// Complete ADORE configuration.
#[derive(Debug, Clone, Default)]
pub struct AdoreConfig {
    /// PMU sampling parameters (interval, SSB size, per-sample cost).
    pub sampling: SamplingConfig,
    /// UEB size and overflow-handler cost.
    pub perfmon: PerfmonConfig,
    /// Phase-detection thresholds.
    pub phase: PhaseConfig,
    /// Trace-selection parameters.
    pub trace: TraceConfig,
    /// Prefetch-generation parameters.
    pub prefetch: PrefetchConfig,
    /// When false, everything runs except prefetch insertion and
    /// patching — the Fig. 11 overhead measurement.
    pub insert_prefetches: bool,
    /// Main-thread cycles charged per patch publication.
    pub patch_cost_cycles: u64,
    /// Instrument loads whose address slice is unanalyzable to discover
    /// their stride at runtime (the paper's §6 future work). Off by
    /// default — the paper's evaluation does not include it.
    pub instrument_unanalyzable: bool,
    /// Which optimizer passes run, and in what order. The default is
    /// the canonical full pipeline; ablation cells disable individual
    /// passes through this.
    pub pipeline: PipelineConfig,
    /// Adaptive per-phase policy selection. Disabled by default — the
    /// paper's static policy — and bit-for-bit inert when off.
    pub policy: PolicyConfig,
}

impl AdoreConfig {
    /// A configuration with prefetch insertion enabled.
    pub fn enabled() -> AdoreConfig {
        AdoreConfig { insert_prefetches: true, patch_cost_cycles: 20_000, ..Default::default() }
    }

    /// Sampling-only: measures the overhead of the machinery (Fig. 11).
    pub fn sampling_only() -> AdoreConfig {
        AdoreConfig { insert_prefetches: false, patch_cost_cycles: 20_000, ..Default::default() }
    }

    /// Applies the sampling settings to a machine configuration.
    pub fn machine_config(&self, mut base: MachineConfig) -> MachineConfig {
        base.sampling = Some(self.sampling.clone());
        base
    }
}

/// One point of the Fig. 8/9 time series (one profile window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Accumulated cycles at the end of the window.
    pub cycles: u64,
    /// Window CPI.
    pub cpi: f64,
    /// Window DEAR-qualifying misses per 1000 instructions.
    pub dear_per_kinsn: f64,
}

/// Result of a monitored run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Total cycles (including all charged overhead).
    pub cycles: u64,
    /// Total retired instructions.
    pub retired: u64,
    /// Stable phases that received at least one patched trace
    /// (Table 2's "optimized phase #").
    pub phases_optimized: usize,
    /// Prefetch streams inserted, by pattern (Table 2 rows).
    pub stats: InsertionStats,
    /// Traces written to the trace pool.
    pub traces_patched: usize,
    /// Per-window CPI / miss-rate series (Fig. 8/9).
    pub timeline: Vec<TimePoint>,
    /// Profile windows produced.
    pub windows: u64,
    /// Traces unpatched because the phase got slower (non-profitable).
    pub traces_unpatched: usize,
    /// Loads instrumented for runtime stride discovery (§6 extension).
    pub instrumented: usize,
    /// Instrumented loads promoted to real prefetch streams.
    pub promoted: usize,
    /// Per-pass overhead ledger (invocations, charged cycles,
    /// accept/reject counts).
    pub ledger: PipelineLedger,
    /// The decision trace: every rejection, classification, scheduled
    /// stream, handled trace and deploy/instrument/promote/unpatch
    /// episode, in order (§4.3's failure analysis).
    pub decisions: Vec<Decision>,
    /// Policy-controller decision log (empty when the controller is
    /// disabled).
    pub policy: PolicyReport,
}

// Run state crosses thread boundaries in the parallel experiment
// engine: configs are cloned into worker cells and reports travel back
// through the merged result slots. Keep both `Send` by construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AdoreConfig>();
    assert_send::<RunReport>();
};

impl ToJson for TimePoint {
    fn to_json(&self) -> Json {
        Json::object()
            .with("cycles", self.cycles)
            .with("cpi", self.cpi)
            .with("dear_per_kinsn", self.dear_per_kinsn)
    }
}

/// Runs a machine to completion under ADORE.
///
/// The machine must have been created with sampling enabled (see
/// [`AdoreConfig::machine_config`]); without sampling the program just
/// runs to completion with an empty report.
pub fn run(machine: &mut Machine, config: &AdoreConfig) -> RunReport {
    run_with_limit(machine, config, u64::MAX)
}

/// Like [`run`], but stops once `cycle_limit` (absolute cycle count)
/// is reached or the machine faults, instead of requiring the program
/// to halt. The differential fuzzing oracle uses this to bound
/// generated programs that never terminate.
pub fn run_with_limit(machine: &mut Machine, config: &AdoreConfig, cycle_limit: u64) -> RunReport {
    let mut legs = run_legs(machine, std::slice::from_ref(config), cycle_limit);
    legs.pop().expect("one leg in, one report out").report
}

/// One leg's result from [`run_legs`].
#[derive(Debug, Clone)]
pub struct LegReport {
    /// The report the leg would produce run alone under [`run`].
    pub report: RunReport,
    /// The window at which the leg split from the leader: the count of
    /// profile windows it had received when its pipeline first left
    /// the machine in a different state than the leader's (or, at the
    /// end of the run, when its teardown did). `None` for the leader
    /// and for a follower that stayed joined to the end.
    pub split_window: Option<u64>,
}

/// Runs several ADORE legs — configurations of one program on one
/// machine — as a single simulation for as long as their optimizers
/// agree, and returns one report per leg, in `configs` order. The
/// first config is the leader: its leg runs on `machine`, which ends
/// in exactly the state [`run_with_limit`] would leave it in.
///
/// The legs share the machine and one [`Perfmon`], so every window is
/// simulated and sampled once. Each window is delivered to the
/// leader's pipeline on the shared machine and to each joined
/// follower's pipeline on the pre-window state; a follower whose
/// resulting machine differs from the leader's in any bit splits off
/// with its own copy of the machine and perfmon and finishes alone.
/// Legs never re-join. The pre-window state is a copy-on-first-edit
/// checkpoint ([`Machine::arm_checkpoint`]): pipelines edit the
/// machine only when they patch, unpatch or instrument, so most
/// windows copy nothing. Every report equals the one the leg would
/// produce run alone.
///
/// # Panics
///
/// Panics when `configs` is empty, or when the legs disagree on the
/// `sampling` or `perfmon` configuration: one machine and one perfmon
/// cannot serve both.
pub fn run_legs(
    machine: &mut Machine,
    configs: &[AdoreConfig],
    cycle_limit: u64,
) -> Vec<LegReport> {
    let (first, rest) = configs.split_first().expect("run_legs needs at least one leg");
    for c in rest {
        assert!(
            c.sampling == first.sampling && c.perfmon == first.perfmon,
            "joined ADORE legs must share the sampling and perfmon configuration"
        );
    }
    let mut legs: Vec<Option<Leg<'_>>> = configs.iter().map(|c| Some(Leg::new(c))).collect();
    let mut reports: Vec<Option<LegReport>> = configs.iter().map(|_| None).collect();

    let mut perfmon = Perfmon::new(first.perfmon.clone());
    let group: Vec<usize> = (0..configs.len()).collect();
    let splits =
        run_group(machine, &mut perfmon, &mut legs, group, None, cycle_limit, &mut reports);
    for mut split in splits {
        let alone = run_group(
            &mut split.machine,
            &mut split.perfmon,
            &mut legs,
            vec![split.leg],
            Some(split.window),
            cycle_limit,
            &mut reports,
        );
        debug_assert!(alone.is_empty(), "a leg running alone cannot split");
    }
    reports.into_iter().map(|r| r.expect("every leg reports")).collect()
}

/// One leg's optimizer: its pipeline and run state.
struct Leg<'a> {
    pipeline: Pipeline,
    ctx: OptContext<'a>,
}

impl<'a> Leg<'a> {
    fn new(config: &'a AdoreConfig) -> Leg<'a> {
        Leg { pipeline: Pipeline::from_config(&config.pipeline), ctx: OptContext::new(config) }
    }

    /// Detach teardown: every §6 recording buffer — harvested or still
    /// pending — is zeroed now that execution has stopped, so transient
    /// instrumentation leaves no footprint in data memory (its cycles
    /// are already on the books).
    fn teardown(&mut self, machine: &mut Machine) {
        let ctx = &self.ctx;
        let buffers = ctx
            .retired_buffers
            .iter()
            .copied()
            .chain(ctx.pending_instr.iter().map(|pi| (pi.buffer, pi.capacity)));
        for (buffer, capacity) in buffers.collect::<Vec<_>>() {
            crate::pipeline::zero_buffer(machine, buffer, capacity);
        }
    }

    fn finish(self, machine: &Machine, perfmon: &Perfmon) -> RunReport {
        let mut report = RunReport {
            cycles: machine.cycles(),
            retired: machine.retired(),
            windows: perfmon.windows_produced(),
            ..RunReport::default()
        };
        self.ctx.finish(&mut report);
        report
    }
}

/// A follower that left its group, with the state it continues from.
struct Split {
    leg: usize,
    machine: Machine,
    perfmon: Perfmon,
    window: u64,
}

/// The run loop: runs the legs of `group` (leader first) on `machine`
/// until it halts, faults or reaches `cycle_limit`, tears them down,
/// and assembles the reports of the legs still joined at the end,
/// tagged with `split_window`. Returns the followers that split off
/// along the way.
fn run_group<'a>(
    machine: &mut Machine,
    perfmon: &mut Perfmon,
    legs: &mut [Option<Leg<'a>>],
    mut group: Vec<usize>,
    split_window: Option<u64>,
    cycle_limit: u64,
    reports: &mut [Option<LegReport>],
) -> Vec<Split> {
    let mut splits = Vec::new();
    while let StopReason::SampleBufferOverflow = machine.run(cycle_limit) {
        perfmon.on_overflow(machine);
        let perfmon = &*perfmon;
        let window = perfmon.ueb().last().expect("on_overflow pushed a window");
        step_group(machine, perfmon, legs, &mut group, &mut splits, |leg, m| {
            leg.pipeline.run_window(&mut leg.ctx, m, window, perfmon.ueb());
        });
    }
    // A follower whose teardown leaves a different machine splits here
    // too; re-running its stopped machine alone is a no-op, and zeroing
    // its buffers a second time changes nothing.
    step_group(machine, perfmon, legs, &mut group, &mut splits, Leg::teardown);
    for i in group {
        let leg = legs[i].take().expect("a leg finishes once");
        reports[i] = Some(LegReport { report: leg.finish(machine, perfmon), split_window });
    }
    splits
}

/// Delivers one step — a profile window or the teardown — to every leg
/// of `group`: the leader on `machine`, each follower on the pre-step
/// state. Followers whose resulting machine differs from the leader's
/// leave the group for `splits`.
fn step_group<'a>(
    machine: &mut Machine,
    perfmon: &Perfmon,
    legs: &mut [Option<Leg<'a>>],
    group: &mut Vec<usize>,
    splits: &mut Vec<Split>,
    mut step: impl FnMut(&mut Leg<'a>, &mut Machine),
) {
    let mut leg = |i: usize, m: &mut Machine| step(legs[i].as_mut().expect("leg is running"), m);
    let (&leader, followers) = group.split_first().expect("a group has a leader");
    if followers.is_empty() {
        leg(leader, machine);
        return;
    }
    machine.arm_checkpoint();
    leg(leader, machine);
    // `Some` iff the leader edited: the pre-step state.
    let mut before = machine.take_checkpoint();
    let leader_edited = before.is_some();
    let mut joined = vec![leader];
    for (k, &i) in followers.iter().enumerate() {
        let diverged = if leader_edited {
            // The follower runs on its own copy of the pre-step state;
            // the last one takes the checkpoint itself.
            let mut own = if k + 1 == followers.len() { before.take() } else { before.clone() }
                .expect("the leader's checkpoint");
            leg(i, &mut own);
            (own != *machine).then_some(own)
        } else {
            // The shared machine is the pre-step state: the follower
            // runs on it under a fresh checkpoint. If it edits and the
            // result differs, it keeps the edited machine and the shared
            // one reverts to the checkpoint.
            machine.arm_checkpoint();
            leg(i, machine);
            match machine.take_checkpoint() {
                Some(pre) if pre != *machine => Some(std::mem::replace(machine, pre)),
                _ => None,
            }
        };
        match diverged {
            None => joined.push(i),
            Some(own) => splits.push(Split {
                leg: i,
                machine: own,
                perfmon: perfmon.clone(),
                window: perfmon.windows_produced(),
            }),
        }
    }
    *group = joined;
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};

    /// A long strided loop with heavy misses: ADORE should find it,
    /// patch it, and speed it up.
    fn missy_program(outer: i64, inner: i64) -> isa::Program {
        let mut a = Asm::new();
        a.movl(Gr(8), outer);
        a.label("outer");
        a.movl(Gr(14), 0x1000_0000);
        a.movl(Gr(9), inner);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
        a.add(Gr(21), Gr(20), Gr(21));
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        a.addi(Gr(8), Gr(8), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
        a.br_cond(Pr(1), "outer");
        a.halt();
        a.finish(CODE_BASE).unwrap()
    }

    fn fast_config(enabled: bool) -> AdoreConfig {
        let mut c = if enabled { AdoreConfig::enabled() } else { AdoreConfig::sampling_only() };
        c.sampling = SamplingConfig {
            interval_cycles: 2_000,
            buffer_capacity: 50,
            per_sample_cost: 100,
            jitter: 0.3,
            ..Default::default()
        };
        c
    }

    fn run_workload(config: &AdoreConfig, arena_lines: u64) -> (RunReport, u64) {
        let program = missy_program(40, 40_000);
        let mcfg = config.machine_config(MachineConfig::default());
        let mut m = Machine::new(program, mcfg);
        m.mem_mut().alloc(arena_lines * 64, 64);
        let report = run(&mut m, config);
        (report, m.cycles())
    }

    #[test]
    fn adore_speeds_up_a_missy_loop() {
        // Baseline: no sampling at all.
        let program = missy_program(40, 40_000);
        let mut base = Machine::new(program, MachineConfig::default());
        base.mem_mut().alloc(40_016 * 64, 64);
        base.run(u64::MAX);
        let baseline = base.cycles();

        let (report, cycles) = run_workload(&fast_config(true), 40_016);
        assert!(report.traces_patched >= 1, "the loop should be patched: {report:?}");
        assert!(report.stats.direct >= 1);
        assert!(report.phases_optimized >= 1);
        assert!(
            cycles * 100 < baseline * 90,
            "ADORE should speed this up ≥10%: {cycles} vs {baseline}"
        );
    }

    #[test]
    fn sampling_only_overhead_is_small() {
        let program = missy_program(40, 40_000);
        let mut base = Machine::new(program, MachineConfig::default());
        base.mem_mut().alloc(40_016 * 64, 64);
        base.run(u64::MAX);
        let baseline = base.cycles();

        // Paper-scale sampling ratio (per-sample cost ≪ interval).
        let mut config = AdoreConfig::sampling_only();
        config.sampling = SamplingConfig {
            interval_cycles: 20_000,
            buffer_capacity: 50,
            per_sample_cost: 150,
            jitter: 0.3,
            ..Default::default()
        };
        let (report, cycles) = run_workload(&config, 40_016);
        assert_eq!(report.traces_patched, 0);
        assert_eq!(report.stats.total(), 0);
        let overhead = cycles as f64 / baseline as f64 - 1.0;
        assert!(
            overhead < 0.02,
            "sampling-only overhead should be 1-2%, got {:.2}%",
            overhead * 100.0
        );
    }

    #[test]
    fn timeline_reflects_improvement() {
        let (report, _) = run_workload(&fast_config(true), 40_016);
        assert!(report.timeline.len() > 4);
        // CPI near the end (optimized) is lower than at the start.
        let early = report.timeline[1].cpi;
        let late = report.timeline[report.timeline.len() - 2].cpi;
        assert!(
            late < early,
            "CPI should drop after optimization: early {early:.2} late {late:.2}"
        );
    }

    #[test]
    fn nonprofitable_traces_are_unpatched() {
        // Force absurd prefetch distances: every inserted stream fetches
        // lines ~6 MB ahead of use, pure memory-bandwidth waste that
        // makes the patched loop *slower*. The monitor must notice the
        // CPI regression and take the patches out again.
        let program = missy_program(60, 40_000);
        let mut base = Machine::new(program.clone(), MachineConfig::default());
        base.mem_mut().alloc(40_016 * 64, 64);
        base.run(u64::MAX);
        let baseline = base.cycles();

        let mut config = fast_config(true);
        config.prefetch.min_distance_iters = 90_000;
        config.prefetch.max_distance_iters = 100_000;
        let mcfg = config.machine_config(MachineConfig::default());
        let mut m = Machine::new(program, mcfg);
        m.mem_mut().alloc(40_016 * 64, 64);
        let report = run(&mut m, &config);
        assert!(report.traces_patched >= 1, "a (bad) patch should have been installed");
        assert!(
            report.traces_unpatched >= 1,
            "the regression must be detected and the trace unpatched: {report:?}"
        );
        // With the bad patch removed, the run ends near the baseline.
        assert!(
            (report.cycles as f64) < baseline as f64 * 1.25,
            "unpatching should bound the damage: {} vs {baseline}",
            report.cycles
        );
    }

    #[test]
    fn incremental_reoptimization_grows_coverage() {
        // Three independent miss streams in one loop: sparse DEAR
        // observation rarely reveals all three at once, but pool-trace
        // re-optimization must converge to (nearly) full coverage.
        let mut a = Asm::new();
        a.movl(Gr(8), 120);
        a.label("outer");
        a.movl(Gr(14), 0x1000_0000);
        a.movl(Gr(15), 0x1100_0000);
        a.movl(Gr(16), 0x1200_0000);
        a.movl(Gr(9), 10_000);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(20), Gr(14), 256);
        a.ld(AccessSize::U8, Gr(21), Gr(15), 256);
        a.ld(AccessSize::U8, Gr(22), Gr(16), 256);
        a.add(Gr(23), Gr(20), Gr(23));
        a.add(Gr(23), Gr(21), Gr(23));
        a.add(Gr(23), Gr(22), Gr(23));
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        a.addi(Gr(8), Gr(8), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
        a.br_cond(Pr(1), "outer");
        a.halt();
        let program = a.finish(CODE_BASE).unwrap();

        let mut config = fast_config(true);
        config.sampling.interval_cycles = 4_000;
        let mut mcfg = config.machine_config(MachineConfig::default());
        mcfg.mem_capacity = 48 << 20;
        let mut m = Machine::new(program, mcfg);
        m.mem_mut().alloc(40 << 20, 64);
        let report = run(&mut m, &config);
        // All three streams eventually covered, across >1 event.
        assert!(
            report.stats.direct >= 3,
            "re-optimization should cover all three streams: {:?} over {} windows",
            report.stats,
            report.windows
        );
        assert!(report.traces_patched >= 1);
    }

    #[test]
    fn no_sampling_is_a_clean_noop() {
        let program = missy_program(2, 1_000);
        let mut m = Machine::new(program, MachineConfig::default());
        m.mem_mut().alloc(1_016 * 64, 64);
        let report = run(&mut m, &AdoreConfig::enabled());
        assert_eq!(report.windows, 0);
        assert_eq!(report.traces_patched, 0);
        assert!(m.is_halted());
    }
}
