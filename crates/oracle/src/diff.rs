//! The three-way differential harness and the shrinker.
//!
//! Each case runs three times from an identical initial state
//! (same program, same seeded arena):
//!
//! 1. the **reference interpreter** — architectural semantics only;
//! 2. the **plain machine** — full timing model, sampling off, ADORE
//!    off;
//! 3. the **ADORE machine** — an aggressive [`AdoreConfig`] (tiny
//!    caches, short sampling interval, permissive phase detector) so
//!    that hot loops actually get traced and patched.
//!
//! The final architectural states must agree bit-for-bit: general
//! registers (minus ADORE's reserved `r27`–`r30`), predicates (minus
//! the reserved `p6`), FP register bit patterns, the termination
//! outcome, and every byte of the data arena — compared directly
//! against the interpreter's arena, so a memory mismatch names the
//! first differing 8-byte word. Cycle counts and cache statistics are
//! *expected* to differ — that is the point of the optimizer — so they
//! are never compared.
//!
//! The legs run reference → ADORE → plain, since the ADORE leg produces
//! most coverage keys, but the verdict names the first failure in the
//! order listed above, so a plain-leg failure wins over an ADORE one.
//! [`check_case_gated`] stops early once a required coverage key is
//! provably absent; the campaign's corpus minimizer uses it.

use adore::AdoreConfig;
use isa::{Fr, Gr, Pr};
use perfmon::PerfmonConfig;
use sim::{
    CacheConfig, ExecPath, Fault, Machine, MachineConfig, Memory, SamplingConfig, StopReason,
    INSTR_SCRATCH,
};

use crate::generator::static_coverage;
use crate::interp::{Interp, Outcome};
use crate::spec::ProgSpec;

/// Harness tuning.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Retired-instruction budget for the reference interpreter.
    pub fuel: u64,
    /// Absolute cycle cap for each simulated execution.
    pub cycle_limit: u64,
    /// Maximum candidate evaluations the shrinker may spend.
    pub shrink_evals: usize,
    /// Simulator execution path for both machine legs. The interpreter
    /// leg is path-independent, so fuzzing once per path checks each
    /// simulator loop against the same architectural truth.
    pub exec_path: ExecPath,
    /// Pipeline override for the ADORE leg. `None` runs the default
    /// pipeline; `Some` replaces it (e.g. `PipelineConfig::only(pass)`
    /// to probe that a single pass alone preserves semantics).
    pub pipeline: Option<adore::PipelineConfig>,
    /// Adaptive-policy override for the ADORE leg. `None` keeps the
    /// seed-derived alternation from [`fuzz_adore_config`]; `Some`
    /// forces the controller on or off for every case (the
    /// `--policy=on` schedule smoke).
    pub policy: Option<bool>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            fuel: 2_000_000,
            cycle_limit: 60_000_000,
            shrink_evals: 400,
            exec_path: ExecPath::Fast,
            pipeline: None,
            policy: None,
        }
    }
}

/// How an execution ended, normalized for comparison.
///
/// Fetch faults compare by kind only: under ADORE the faulting fetch
/// address may be a trace-pool address with no architectural meaning.
/// Data faults compare by address and width — those are architectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Clean `halt`.
    Halted,
    /// Instruction fetch from unmapped memory.
    FetchFault,
    /// Non-speculative load from unmapped memory.
    LoadFault {
        /// Faulting address.
        addr: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// Store to unmapped memory.
    StoreFault {
        /// Faulting address.
        addr: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// `br.ret` with an empty return stack.
    RetFault,
}

impl CaseOutcome {
    fn from_fault(f: Fault) -> CaseOutcome {
        match f {
            Fault::UnmappedFetch(_) => CaseOutcome::FetchFault,
            Fault::UnmappedLoad { addr, len } => CaseOutcome::LoadFault { addr, len },
            Fault::UnmappedStore { addr, len } => CaseOutcome::StoreFault { addr, len },
            Fault::ReturnUnderflow => CaseOutcome::RetFault,
        }
    }

    /// Stable label for the JSON report.
    pub fn label(&self) -> &'static str {
        match self {
            CaseOutcome::Halted => "halted",
            CaseOutcome::FetchFault => "fetch_fault",
            CaseOutcome::LoadFault { .. } => "load_fault",
            CaseOutcome::StoreFault { .. } => "store_fault",
            CaseOutcome::RetFault => "ret_fault",
        }
    }
}

/// A captured final register-level state. The data arena is not
/// captured: `check_case` compares each simulated leg's arena with the
/// interpreter's byte for byte while both are still live.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalState {
    /// Termination outcome.
    pub outcome: CaseOutcome,
    /// All 128 general registers, with ADORE's reserved `r27`–`r30`
    /// zeroed (the patcher owns them).
    pub gr: Vec<i64>,
    /// All 64 predicates, with the reserved `p6` zeroed.
    pub pr: Vec<bool>,
    /// All 128 FP registers as raw bit patterns (NaN-safe equality).
    pub fr: Vec<u64>,
}

/// A semantic divergence between the reference and a simulated run.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which execution disagreed: `"plain"` or `"adore"`.
    pub stage: &'static str,
    /// Human-readable first difference.
    pub detail: String,
    /// The reference interpreter's final state.
    pub reference: FinalState,
    /// The diverging execution's final state.
    pub observed: FinalState,
}

/// The verdict for one case.
#[derive(Debug, Clone)]
pub enum CaseResult {
    /// All three executions agree.
    Agree {
        /// The (shared) termination outcome.
        outcome: CaseOutcome,
        /// Traces the ADORE run actually patched (coverage signal).
        traces_patched: usize,
        /// Loads the ADORE run instrumented for stride discovery (§6).
        instrumented: usize,
        /// Instrumented loads promoted to real prefetch streams.
        promoted: usize,
    },
    /// A hang-safety budget ran out before the case could be compared:
    /// the reference interpreter exhausted its fuel, or a simulated leg
    /// hit the cycle cap. A capped run says **nothing** about semantics
    /// — it is a typed non-verdict with its own counter in
    /// `results/fuzz.json`, never a mismatch and never silently folded
    /// into one.
    Inconclusive {
        /// Which leg hit its budget: `"reference"`, `"plain"` or
        /// `"adore"`.
        leg: &'static str,
        /// Which budget ran out.
        why: String,
    },
    /// No verdict for a structural reason: the spec failed to assemble
    /// (e.g. a shrink or mutation candidate that broke a label).
    Undecided(String),
    /// Semantic divergence — the bug class this crate exists to catch.
    Mismatch(Box<Mismatch>),
}

impl CaseResult {
    /// True when the result is a [`CaseResult::Mismatch`].
    pub fn is_mismatch(&self) -> bool {
        matches!(self, CaseResult::Mismatch(_))
    }

    /// True when the result is a [`CaseResult::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, CaseResult::Inconclusive { .. })
    }
}

/// Runtime coverage signals harvested from one case — the labels the
/// campaign's coverage-guided scheduler feeds on. Static generator
/// features say what a program *contains*; these say what the ADORE
/// runtime actually *did* with it: which pipeline passes ran and
/// accepted work, which rejection-taxonomy labels fired, what trace
/// shapes were deployed, and how the case terminated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCoverage {
    /// Sorted, deduplicated coverage keys (`outcome:`, `pass:`,
    /// `rej:`, `shape:`, `adore:` prefixes). Empty when the case
    /// reached no verdict.
    pub keys: Vec<String>,
}

fn run_coverage(outcome: CaseOutcome, report: &adore::RunReport) -> RunCoverage {
    let mut keys = vec![format!("outcome:{}", outcome.label())];
    for (kind, ledger) in report.ledger.entries() {
        if ledger.invocations > 0 {
            keys.push(format!("pass:{}", kind.name()));
        }
        if ledger.accepted > 0 {
            keys.push(format!("pass:{}:accept", kind.name()));
        }
        for (label, n) in &ledger.rejections {
            if *n > 0 {
                keys.push(format!("rej:{label}"));
            }
        }
    }
    for d in &report.decisions {
        let adore::Outcome::Trace { is_loop, bundles, loads, inserted } = d.outcome else {
            continue;
        };
        // Which prefetch schedules actually got planted — the
        // jump-pointer key is what proves the generator's chase
        // segments reach the dependence-based scheduling arm.
        for (key, n) in [
            ("prefetch:direct", inserted.direct),
            ("prefetch:indirect", inserted.indirect),
            ("prefetch:pointer", inserted.pointer),
            ("prefetch:jump", inserted.jump),
        ] {
            if n > 0 {
                keys.push(key.into());
            }
        }
        // Bucket the shape so the key space stays small enough to
        // saturate: trace kind x bundle-count bucket x
        // delinquent-load bucket.
        keys.push(format!(
            "shape:{}_b{}_d{}",
            if is_loop { "loop" } else { "line" },
            bundles.min(8),
            loads.min(4),
        ));
    }
    if report.traces_patched > 0 {
        keys.push("adore:patched".into());
    }
    if report.traces_unpatched > 0 {
        keys.push("adore:unpatched".into());
    }
    if report.instrumented > 0 {
        keys.push("adore:instrumented".into());
    }
    if report.promoted > 0 {
        keys.push("adore:promoted".into());
    }
    // Policy-controller coverage: whether the controller ran at all,
    // and which decision kinds (trial/score/commit/fallback) the case
    // actually reached — the fallback key is the rare one the campaign
    // scheduler hunts for.
    if report.policy.enabled {
        keys.push("policy:enabled".into());
        for d in &report.policy.decisions {
            keys.push(format!("policy:{}", d.action));
        }
    }
    keys.sort();
    keys.dedup();
    RunCoverage { keys }
}

/// The shrunken cache geometry used for fuzzing: small enough that the
/// generator's hot loops miss hard and produce DEAR samples, so ADORE
/// reliably selects and patches traces.
fn fuzz_cache() -> CacheConfig {
    CacheConfig { l1d_size: 4096, l2_size: 16 * 1024, l3_size: 48 * 1024, ..CacheConfig::default() }
}

/// The machine every simulator leg starts from. Every leg's arena,
/// the reference interpreter's included, carries the same
/// [`INSTR_SCRATCH`] headroom past the spec arena (so unmapped-address
/// faults and the byte-exact arena compare stay meaningful). The ADORE
/// leg's §6 instrumentation allocates its recording buffers there; the
/// runtime zeroes them once harvested, so a transparent instrumentation
/// run leaves every byte as a run that never instrumented would. Only
/// the bump pointer differs, and the compare covers bytes, not
/// allocation state.
fn base_machine_config(spec: &ProgSpec, cfg: &DiffConfig) -> MachineConfig {
    MachineConfig {
        cache: fuzz_cache(),
        mem_capacity: (spec.arena_bytes + INSTR_SCRATCH) as usize,
        sampling: None,
        exec_path: cfg.exec_path,
        ..MachineConfig::default()
    }
}

/// The aggressive ADORE configuration used for fuzzing: everything the
/// runtime can do is switched on and thresholds are lowered so short
/// fuzz programs still trigger the full pipeline. Overhead charges are
/// zeroed — the oracle compares semantics, not cycles.
pub fn fuzz_adore_config(seed: u64) -> AdoreConfig {
    let mut c = AdoreConfig::enabled();
    c.patch_cost_cycles = 0;
    c.sampling = SamplingConfig {
        interval_cycles: 1_200,
        buffer_capacity: 40,
        per_sample_cost: 0,
        jitter: 0.3,
        seed: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1,
    };
    c.perfmon = PerfmonConfig { ueb_windows: 8, overflow_copy_cost: 0 };
    c.phase.windows_required = 2;
    c.phase.min_dpi = 0.0;
    c.phase.cpi_rel_dev = 0.5;
    c.phase.dpi_rel_dev = 2.0;
    c.phase.pc_dev_bytes = 1e9;
    c.trace.min_target_count = 2;
    // Runtime stride instrumentation also claims semantic transparency;
    // fuzz it on half the cases.
    c.instrument_unanalyzable = seed % 2 == 1;
    // Jump-pointer scheduling must be transparent both ways: most
    // cases run with it on, every fourth with it off — the off cases
    // drive the `rej:jump_pointer_disabled` coverage key whenever a
    // chase actually classified as a jump pattern.
    c.prefetch.enable_jump = seed % 4 != 2;
    // The adaptive policy controller claims semantic transparency like
    // every other knob: half the cases run with it on (the residue
    // overlaps `instrument_unanalyzable` on seed % 4 == 1, fuzzing the
    // combination too). Two-window trials keep arm switches frequent
    // inside short fuzz programs.
    c.policy.enable = seed % 4 < 2;
    c.policy.trial_windows = 2;
    c
}

/// The register state a leg ended in, read through its accessors, with
/// the registers reserved for the dynamic optimizer masked out.
fn capture_state(
    outcome: CaseOutcome,
    gr: impl Fn(Gr) -> i64,
    pr: impl Fn(Pr) -> bool,
    fr: impl Fn(Fr) -> f64,
) -> FinalState {
    let mut gr: Vec<i64> = (0..128).map(|k| gr(Gr(k as u8))).collect();
    for k in Gr::RESERVED {
        gr[k.index()] = 0;
    }
    let mut pr: Vec<bool> = (0..64).map(|k| pr(Pr(k as u8))).collect();
    pr[Pr::RESERVED.index()] = false;
    let fr = (0..128).map(|k| fr(Fr(k as u8)).to_bits()).collect();
    FinalState { outcome, gr, pr, fr }
}

/// First difference between two states, or `None` if identical.
fn first_difference(reference: &FinalState, observed: &FinalState) -> Option<String> {
    if reference.outcome != observed.outcome {
        return Some(format!(
            "outcome: reference {:?}, observed {:?}",
            reference.outcome, observed.outcome
        ));
    }
    for k in 0..128 {
        if reference.gr[k] != observed.gr[k] {
            return Some(format!(
                "r{k}: reference {:#x}, observed {:#x}",
                reference.gr[k], observed.gr[k]
            ));
        }
    }
    for k in 0..64 {
        if reference.pr[k] != observed.pr[k] {
            return Some(format!(
                "p{k}: reference {}, observed {}",
                reference.pr[k], observed.pr[k]
            ));
        }
    }
    for k in 0..128 {
        if reference.fr[k] != observed.fr[k] {
            return Some(format!(
                "f{k} bits: reference {:#018x}, observed {:#018x}",
                reference.fr[k], observed.fr[k]
            ));
        }
    }
    None
}

/// The first differing 8-byte word of two arenas, or `None` if every
/// byte agrees. Both legs map the same geometry, so a capacity
/// difference is a harness fault, reported rather than hidden.
fn memory_difference(reference: &Memory, observed: &Memory) -> Option<String> {
    let (r, o) = (reference.bytes(), observed.bytes());
    if r == o {
        return None;
    }
    let Some(at) = r.iter().zip(o).position(|(a, b)| a != b) else {
        return Some(format!("memory capacity: reference {}, observed {}", r.len(), o.len()));
    };
    let addr = reference.base() + (at & !7) as u64;
    Some(format!(
        "memory word {addr:#x}: reference {:#018x}, observed {:#018x}",
        reference.read_spec(addr, 8),
        observed.read_spec(addr, 8)
    ))
}

/// Reusable per-worker execution state: one pre-built [`Machine`] per
/// simulated leg *and execution tier*, re-armed in place via
/// [`Machine::reset`] between cases (snapshot/restore) instead of being
/// reallocated. The code-store generation tags keep counting up across
/// resets, so a decoded bundle from a previous case can never alias the
/// current program. Keying the cache by tier lets the campaign's
/// seed-alternating tier schedule reuse machines instead of thrashing
/// one slot between paths. A machine is only reused while the case
/// geometry (memory capacity and execution path) matches; otherwise it
/// is rebuilt from scratch and the counters record which happened.
#[derive(Debug, Default)]
pub struct CaseRunner {
    plain: [Option<Machine>; 3],
    adore: [Option<Machine>; 3],
    /// Machines constructed from scratch (first case, or geometry
    /// change).
    pub builds: u64,
    /// Machines re-armed in place.
    pub resets: u64,
}

impl CaseRunner {
    /// An empty runner; machines are built lazily on first use.
    pub fn new() -> CaseRunner {
        CaseRunner::default()
    }

    /// Leases a machine for one leg: resets the cached one when the
    /// geometry matches, rebuilds otherwise. Only `sampling` may vary
    /// between cases that share a machine — the cache/TLB geometry is
    /// fixed by the fuzz harness and the remaining config fields are
    /// checked here.
    fn lease<'a>(
        slots: &'a mut [Option<Machine>; 3],
        builds: &mut u64,
        resets: &mut u64,
        program: isa::Program,
        config: MachineConfig,
    ) -> &'a mut Machine {
        let slot = &mut slots[config.exec_path as usize];
        match slot {
            Some(m)
                if m.mem().capacity() == config.mem_capacity
                    && m.exec_path() == config.exec_path =>
            {
                *resets += 1;
                m.reset(program, config.sampling);
            }
            _ => {
                *builds += 1;
                *slot = Some(Machine::new(program, config));
            }
        }
        slot.as_mut().expect("machine leased")
    }
}

/// Runs one case through all three executions and compares final
/// states, building fresh machines. Prefer [`check_case`] with a
/// long-lived [`CaseRunner`] when running many cases.
pub fn check(spec: &ProgSpec, cfg: &DiffConfig) -> CaseResult {
    check_case(spec, cfg, &mut CaseRunner::new()).0
}

/// Runs one case through all three executions and compares final
/// states, reusing `runner`'s pre-built machines where possible, and
/// returns the verdict together with the runtime coverage the ADORE
/// leg produced (empty unless the case reached agreement).
///
/// The legs run reference → ADORE → plain, but the verdict names the
/// first failure in the order reference, plain, ADORE: when the ADORE
/// leg fails, the plain leg still runs, and a plain failure wins.
pub fn check_case(
    spec: &ProgSpec,
    cfg: &DiffConfig,
    runner: &mut CaseRunner,
) -> (CaseResult, RunCoverage) {
    let (_, result, coverage) = run_case(spec, cfg, runner, &[]);
    (result.expect("an ungated case always reaches a verdict"), coverage)
}

/// Where a [`check_case_gated`] answer became known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decided {
    /// Before any leg ran: the spec did not assemble, or a required
    /// `feat:` key is absent from its static features.
    BeforeLegs,
    /// After the reference interpreter: it ran out of fuel, or a
    /// required `outcome:` key names another outcome.
    AfterReference,
    /// After an ADORE leg that agreed with the reference but produced
    /// no trace of a required key only that leg can produce.
    AfterAdore,
    /// After every leg ran, without keeping the candidate: a leg
    /// failed, or a required key (e.g. `tier:compiled`, which either
    /// simulated leg may supply) was still absent.
    FullCheck,
    /// After every leg ran: the case agreed and produced every
    /// required key.
    Kept,
}

/// The answer of [`check_case_gated`].
#[derive(Debug, Clone)]
pub struct Gated {
    /// Where the answer became known.
    pub decided: Decided,
    /// The verdict, or `None` when the gate stopped the case early: a
    /// required key was provably absent while every leg run so far
    /// agreed with the reference.
    pub result: Option<CaseResult>,
}

/// [`check_case`] for a candidate that must agree and reproduce every
/// coverage key in `required` (the campaign's corpus minimizer). It
/// stops as soon as one required key is provably absent: `feat:` keys
/// before any leg runs, `outcome:` keys after the reference leg, keys
/// only the ADORE leg produces after that leg (when it agreed), and
/// `tier:compiled` / `tier:deopt` only after both simulated legs. A
/// verdict it does reach is the one [`check_case`] would give.
pub fn check_case_gated(
    spec: &ProgSpec,
    cfg: &DiffConfig,
    runner: &mut CaseRunner,
    required: &[String],
) -> Gated {
    let (decided, result, _) = run_case(spec, cfg, runner, required);
    Gated { decided, result }
}

/// Keys only the plain leg may add once the ADORE leg has run.
fn plain_may_supply(key: &str) -> bool {
    key == "tier:compiled" || key == "tier:deopt"
}

/// The shared body of [`check_case`] and [`check_case_gated`]: runs
/// the legs in the order that decides soonest, stopping early only
/// for an absent `required` key.
fn run_case(
    spec: &ProgSpec,
    cfg: &DiffConfig,
    runner: &mut CaseRunner,
    required: &[String],
) -> (Decided, Option<CaseResult>, RunCoverage) {
    let none = RunCoverage::default;
    let feat = if required.iter().any(|k| k.starts_with("feat:")) {
        static_coverage(spec).keys()
    } else {
        Vec::new()
    };
    if required.iter().any(|k| k.starts_with("feat:") && !feat.contains(k)) {
        return (Decided::BeforeLegs, None, none());
    }
    let program = match spec.assemble() {
        Ok(p) => p,
        Err(e) => {
            let why = CaseResult::Undecided(format!("assemble: {e}"));
            return (Decided::BeforeLegs, Some(why), none());
        }
    };

    // One arena image, loaded into all three legs.
    let image = spec.arena_image();

    // Reference interpreter.
    let mut interp = Interp::new(program.clone(), (spec.arena_bytes + INSTR_SCRATCH) as usize);
    spec.load_arena(interp.mem_mut(), &image);
    let ref_outcome = match interp.run(cfg.fuel) {
        Outcome::Halted => CaseOutcome::Halted,
        Outcome::Faulted(f) => CaseOutcome::from_fault(f),
        Outcome::OutOfFuel => {
            let why = CaseResult::Inconclusive {
                leg: "reference",
                why: format!("interpreter fuel exhausted ({} insns)", cfg.fuel),
            };
            return (Decided::AfterReference, Some(why), none());
        }
    };
    let outcome_key = format!("outcome:{}", ref_outcome.label());
    if required.iter().any(|k| k.starts_with("outcome:") && *k != outcome_key) {
        return (Decided::AfterReference, None, none());
    }
    let reference =
        capture_state(ref_outcome, |r| interp.gr(r), |p| interp.pr(p), |f| interp.fr(f));

    // ADORE machine: sampling on, aggressive optimizer. It runs before
    // the plain leg because it alone produces most coverage keys.
    let mut adore_config = fuzz_adore_config(spec.seed);
    if let Some(p) = &cfg.pipeline {
        adore_config.pipeline = p.clone();
    }
    if let Some(on) = cfg.policy {
        adore_config.policy.enable = on;
    }
    let opt = CaseRunner::lease(
        &mut runner.adore,
        &mut runner.builds,
        &mut runner.resets,
        program.clone(),
        adore_config.machine_config(base_machine_config(spec, cfg)),
    );
    spec.load_arena(opt.mem_mut(), &image);
    let report = adore::run_with_limit(opt, &adore_config, cfg.cycle_limit);
    let opt_jit = opt.jit_stats();
    let adore_failure = if let Some(f) = opt.fault() {
        adore_difference(&reference, &interp, opt, CaseOutcome::from_fault(f))
    } else if opt.is_halted() {
        adore_difference(&reference, &interp, opt, CaseOutcome::Halted)
    } else {
        Some(CaseResult::Inconclusive {
            leg: "adore",
            why: format!("cycle cap hit ({} cycles)", cfg.cycle_limit),
        })
    };

    // Tier coverage: which execution path ran, and whether the
    // threaded tier actually compiled (and deoptimized) on either
    // simulated leg — a threaded fuzz run that never compiles is not
    // exercising the tier it claims to.
    let mut coverage = run_coverage(ref_outcome, &report);
    coverage.keys.push(format!("tier:{}", cfg.exec_path.name()));
    let adore_lacks = |key: &String, coverage: &RunCoverage| {
        !key.starts_with("feat:") && !plain_may_supply(key) && !coverage.keys.contains(key)
    };
    if adore_failure.is_none() && required.iter().any(|k| adore_lacks(k, &coverage)) {
        return (Decided::AfterAdore, None, none());
    }

    // Plain machine: full timing model, no sampling, no ADORE.
    let plain = CaseRunner::lease(
        &mut runner.plain,
        &mut runner.builds,
        &mut runner.resets,
        program,
        base_machine_config(spec, cfg),
    );
    spec.load_arena(plain.mem_mut(), &image);
    let plain_outcome = match plain.run(cfg.cycle_limit) {
        StopReason::Halted => CaseOutcome::Halted,
        StopReason::Faulted(f) => CaseOutcome::from_fault(f),
        _ => {
            let why = CaseResult::Inconclusive {
                leg: "plain",
                why: format!("cycle cap hit ({} cycles)", cfg.cycle_limit),
            };
            return (Decided::FullCheck, Some(why), none());
        }
    };
    let plain_state =
        capture_state(plain_outcome, |r| plain.gr(r), |p| plain.pr(p), |f| plain.fr(f));
    if let Some(detail) = first_difference(&reference, &plain_state)
        .or_else(|| memory_difference(interp.mem(), plain.mem()))
    {
        let mismatch = Mismatch { stage: "plain", detail, reference, observed: plain_state };
        return (Decided::FullCheck, Some(CaseResult::Mismatch(Box::new(mismatch))), none());
    }
    if let Some(failure) = adore_failure {
        return (Decided::FullCheck, Some(failure), none());
    }

    let plain_jit = plain.jit_stats();
    let compiled = [plain_jit, opt_jit].iter().flatten().map(|s| s.regions_compiled).sum::<u64>();
    let deopts = [plain_jit, opt_jit].iter().flatten().map(|s| s.deopts).sum::<u64>();
    if compiled > 0 {
        coverage.keys.push("tier:compiled".to_string());
    }
    if deopts > 0 {
        coverage.keys.push("tier:deopt".to_string());
    }
    coverage.keys.sort();
    coverage.keys.dedup();

    let kept = required.iter().all(|k| k.starts_with("feat:") || coverage.keys.contains(k));
    let agree = CaseResult::Agree {
        outcome: ref_outcome,
        traces_patched: report.traces_patched,
        instrumented: report.instrumented,
        promoted: report.promoted,
    };
    let decided = if kept { Decided::Kept } else { Decided::FullCheck };
    (decided, Some(agree), coverage)
}

/// The ADORE leg's mismatch against the reference, if any: registers
/// first, then every byte of the arena.
fn adore_difference(
    reference: &FinalState,
    interp: &Interp,
    opt: &Machine,
    outcome: CaseOutcome,
) -> Option<CaseResult> {
    let observed = capture_state(outcome, |r| opt.gr(r), |p| opt.pr(p), |f| opt.fr(f));
    let detail = first_difference(reference, &observed)
        .or_else(|| memory_difference(interp.mem(), opt.mem()))?;
    let reference = reference.clone();
    Some(CaseResult::Mismatch(Box::new(Mismatch { stage: "adore", detail, reference, observed })))
}

/// Minimizes a mismatching spec: repeatedly drops item ranges
/// (ddmin-style, halving chunk sizes) and halves `movl` immediates
/// (trip counts), keeping a candidate only when it still mismatches.
/// The result is the smallest still-failing program found within
/// `cfg.shrink_evals` harness evaluations — the hard budget is pinned
/// by `shrink_never_exceeds_its_eval_budget`.
pub fn shrink(spec: &ProgSpec, cfg: &DiffConfig) -> ProgSpec {
    // One runner for the whole minimization: shrink candidates share
    // the original's geometry, so every evaluation after the first two
    // is a machine reset, not a rebuild.
    let mut runner = CaseRunner::new();
    shrink_with(spec, cfg.shrink_evals, |candidate| {
        check_case(candidate, cfg, &mut runner).0.is_mismatch()
    })
    .0
}

/// The generalized minimizer behind [`shrink`]: keeps a candidate only
/// while `keep` holds, spending at most `max_evals` predicate
/// evaluations, and returns the best spec plus the evaluations
/// actually spent. The campaign uses it with a coverage-preservation
/// predicate to minimize corpus entries; [`shrink`] uses it with
/// "still mismatches".
pub fn shrink_with(
    spec: &ProgSpec,
    max_evals: usize,
    mut keep: impl FnMut(&ProgSpec) -> bool,
) -> (ProgSpec, usize) {
    let mut best = spec.clone();
    let mut evals = 0usize;
    let mut keep = |candidate: &ProgSpec, evals: &mut usize| -> bool {
        *evals += 1;
        keep(candidate)
    };

    loop {
        let mut improved = false;

        // Pass 1: drop contiguous item ranges, large chunks first.
        let mut chunk = (best.items.len() / 2).max(1);
        loop {
            let mut lo = 0;
            while lo < best.items.len() {
                if evals >= max_evals {
                    return (best, evals);
                }
                let candidate = best.without_items(lo, lo + chunk);
                if candidate.items.len() < best.items.len() && keep(&candidate, &mut evals) {
                    best = candidate;
                    improved = true;
                    // Stay at `lo`: the next range shifted into place.
                } else {
                    lo += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Pass 2: halve movl immediates (trip counts, addresses).
        for idx in 0..best.items.len() {
            while let Some(candidate) = best.with_halved_movl(idx) {
                if evals >= max_evals {
                    return (best, evals);
                }
                if keep(&candidate, &mut evals) {
                    best = candidate;
                    improved = true;
                } else {
                    break;
                }
            }
        }

        if !improved {
            return (best, evals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use crate::spec::{BranchKind, Item};
    use isa::{CmpOp, Insn, Op};

    #[test]
    fn generated_cases_agree_across_all_three_executions() {
        let gen_cfg = GenConfig::default();
        let cfg = DiffConfig::default();
        let mut patched = 0usize;
        for seed in 0..8 {
            let (spec, _) = generate(seed, &gen_cfg);
            match check(&spec, &cfg) {
                CaseResult::Agree { traces_patched, .. } => patched += traces_patched,
                CaseResult::Inconclusive { leg, why } => {
                    panic!("seed {seed} inconclusive on {leg}: {why}")
                }
                CaseResult::Undecided(why) => panic!("seed {seed} undecided: {why}"),
                CaseResult::Mismatch(m) => {
                    panic!("seed {seed} diverged at {}: {}", m.stage, m.detail)
                }
            }
        }
        assert!(patched > 0, "no case got a trace patched — the oracle is not exercising ADORE");
    }

    #[test]
    fn generated_cases_agree_on_the_reference_path_too() {
        // The interpreter leg is path-independent, so running the same
        // seeds with ExecPath::Reference checks the reference simulator
        // loop against the identical architectural truth.
        let gen_cfg = GenConfig::default();
        let cfg = DiffConfig { exec_path: ExecPath::Reference, ..DiffConfig::default() };
        for seed in 0..4 {
            let (spec, _) = generate(seed, &gen_cfg);
            match check(&spec, &cfg) {
                CaseResult::Agree { .. } => {}
                other => panic!("seed {seed}: expected agreement, got {other:?}"),
            }
        }
    }

    #[test]
    fn generated_cases_agree_on_the_threaded_path_too() {
        // The threaded tier promises exact architectural state with
        // unmodeled timing; the final-state comparison ignores cycles,
        // so the same seeds must agree when both simulated legs compile
        // their hot regions.
        let gen_cfg = GenConfig::default();
        let cfg = DiffConfig { exec_path: ExecPath::Threaded, ..DiffConfig::default() };
        let mut runner = CaseRunner::new();
        for seed in 0..4 {
            let (spec, _) = generate(seed, &gen_cfg);
            match check_case(&spec, &cfg, &mut runner) {
                (CaseResult::Agree { .. }, cov) => {
                    assert!(
                        cov.keys.iter().any(|k| k == "tier:threaded"),
                        "seed {seed}: coverage must name the tier: {:?}",
                        cov.keys
                    );
                }
                (other, _) => panic!("seed {seed}: expected agreement, got {other:?}"),
            }
        }
    }

    #[test]
    fn threaded_hot_loop_reports_compile_coverage() {
        // A long spin loop must actually reach the compile tier on the
        // threaded path — a threaded fuzz run that never compiles would
        // silently stop testing the tier it claims to.
        let spec = spin_spec(100_000);
        let cfg = DiffConfig { exec_path: ExecPath::Threaded, ..DiffConfig::default() };
        let (result, cov) = check_case(&spec, &cfg, &mut CaseRunner::new());
        assert!(matches!(result, CaseResult::Agree { .. }), "got {result:?}");
        assert!(
            cov.keys.iter().any(|k| k == "tier:compiled"),
            "hot loop never compiled under the threaded path: {:?}",
            cov.keys
        );
        // The cycle-exact default path must not report tier compiles.
        let (_, fast_cov) = check_case(&spec, &DiffConfig::default(), &mut CaseRunner::new());
        assert!(
            fast_cov.keys.iter().all(|k| k != "tier:compiled"),
            "fast path must never compile: {:?}",
            fast_cov.keys
        );
        assert!(fast_cov.keys.iter().any(|k| k == "tier:fast"));
    }

    #[test]
    fn faulting_case_agrees_too() {
        // A wild store faults identically everywhere.
        let spec = ProgSpec {
            seed: 0,
            arena_bytes: 4096,
            mem_seed: 3,
            items: vec![
                Item::Insn(Insn::new(Op::MovL { d: isa::Gr(8), imm: 0x40 })),
                Item::Insn(Insn::new(Op::St {
                    s: isa::Gr(8),
                    base: isa::Gr(8),
                    post_inc: 0,
                    size: isa::AccessSize::U8,
                })),
                Item::Insn(Insn::new(Op::Halt)),
            ],
        };
        match check(&spec, &DiffConfig::default()) {
            CaseResult::Agree { outcome, .. } => {
                assert_eq!(outcome, CaseOutcome::StoreFault { addr: 0x40, len: 8 });
            }
            other => panic!("expected agreement on the fault, got {other:?}"),
        }
    }

    /// Shrinking only keeps candidates that still mismatch, so an
    /// agreeing spec must come back unchanged. (The full catch-and-
    /// shrink path is exercised by the fuzz binary with an injected
    /// bug; see DESIGN.md.)
    #[test]
    fn shrink_returns_agreeing_spec_unchanged() {
        let (spec, _) = generate(3, &GenConfig::default());
        let cfg = DiffConfig { shrink_evals: 10, ..DiffConfig::default() };
        let out = shrink(&spec, &cfg);
        assert_eq!(out.items.len(), spec.items.len());
    }

    /// A counted spin loop of `trips` iterations touching no memory.
    fn spin_spec(trips: i64) -> ProgSpec {
        ProgSpec {
            seed: 0,
            arena_bytes: 4096,
            mem_seed: 1,
            items: vec![
                Item::Insn(Insn::new(Op::MovL { d: isa::Gr(21), imm: trips })),
                Item::Label("spin".into()),
                Item::Insn(Insn::new(Op::AddI { d: isa::Gr(21), a: isa::Gr(21), imm: -1 })),
                Item::Insn(Insn::new(Op::CmpI {
                    op: CmpOp::Gt,
                    pt: isa::Pr(7),
                    pf: isa::Pr(8),
                    a: isa::Gr(21),
                    imm: 0,
                })),
                Item::Branch { qp: Some(isa::Pr(7)), kind: BranchKind::Cond, label: "spin".into() },
                Item::Insn(Insn::new(Op::Halt)),
            ],
        }
    }

    #[test]
    fn cycle_cap_is_inconclusive_not_mismatch() {
        // A loop the machine cannot finish under a tiny cycle cap must
        // come back as a typed Inconclusive naming the capped leg —
        // before the fix this collapsed into the stringly Undecided
        // bucket, one refactor away from being misread as a mismatch.
        let spec = spin_spec(100_000);
        let cfg = DiffConfig { cycle_limit: 1_000, ..DiffConfig::default() };
        match check(&spec, &cfg) {
            CaseResult::Inconclusive { leg, why } => {
                assert_eq!(leg, "plain", "both simulated legs hit the cap; the plain one wins");
                assert!(why.contains("cycle cap"), "why must name the budget: {why}");
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert!(check(&spec, &cfg).is_inconclusive());
        assert!(!check(&spec, &cfg).is_mismatch(), "a capped run is never a mismatch");
    }

    #[test]
    fn the_gate_stops_where_a_required_key_is_first_provably_absent() {
        // The spin loop has no loads, halts, patches nothing and never
        // compiles on the fast tier; its own keys are all reproduced.
        let spec = spin_spec(2_000);
        let cfg = DiffConfig::default();
        let mut runner = CaseRunner::new();
        let (full, cov) = check_case(&spec, &cfg, &mut runner);
        assert!(matches!(full, CaseResult::Agree { .. }), "got {full:?}");
        let mut own = static_coverage(&spec).keys();
        own.extend(cov.keys.iter().cloned());
        let gated = |need: &[&str], runner: &mut CaseRunner| {
            let need: Vec<String> = need.iter().map(|k| k.to_string()).collect();
            check_case_gated(&spec, &cfg, runner, &need)
        };
        for (need, decided) in [
            (vec!["feat:ldf"], Decided::BeforeLegs),
            (vec!["outcome:store_fault"], Decided::AfterReference),
            (vec!["outcome:halted", "adore:patched"], Decided::AfterAdore),
            (vec!["tier:fast", "tier:compiled"], Decided::FullCheck),
        ] {
            let g = gated(&need, &mut runner);
            assert_eq!(g.decided, decided, "required {need:?}");
            // An early stop carries no verdict; the full check carries
            // check_case's.
            match decided {
                Decided::FullCheck => assert_eq!(
                    format!("{:?}", g.result.expect("a full check reaches a verdict")),
                    format!("{full:?}")
                ),
                _ => assert!(g.result.is_none(), "required {need:?}: {:?}", g.result),
            }
        }
        let own: Vec<&str> = own.iter().map(String::as_str).collect();
        let kept = gated(&own, &mut runner);
        assert_eq!(kept.decided, Decided::Kept);
        assert_eq!(format!("{:?}", kept.result.unwrap()), format!("{full:?}"));
    }

    #[test]
    fn a_failing_leg_is_never_gated_away() {
        // The gate stops only while every leg so far agreed: a capped
        // ADORE leg still lets the plain leg run, and its verdict wins.
        let spec = spin_spec(100_000);
        let cfg = DiffConfig { cycle_limit: 1_000, ..DiffConfig::default() };
        let need = vec!["adore:patched".to_string()];
        let g = check_case_gated(&spec, &cfg, &mut CaseRunner::new(), &need);
        assert_eq!(g.decided, Decided::FullCheck);
        match g.result {
            Some(CaseResult::Inconclusive { leg, .. }) => assert_eq!(leg, "plain"),
            other => panic!("expected the plain leg's cap, got {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_is_inconclusive_on_the_reference_leg() {
        let spec = spin_spec(100_000);
        let cfg = DiffConfig { fuel: 1_000, ..DiffConfig::default() };
        match check(&spec, &cfg) {
            CaseResult::Inconclusive { leg, why } => {
                assert_eq!(leg, "reference");
                assert!(why.contains("fuel"), "why must name the budget: {why}");
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn runner_reuse_matches_fresh_machines() {
        // The snapshot/restore path must be invisible: a runner that
        // re-arms its machines across cases (including revisiting an
        // earlier spec) has to produce the same verdicts, coverage and
        // patch counts as fresh machines every time.
        let cfg = DiffConfig::default();
        let (a, _) = generate(5, &GenConfig::default());
        let (b, _) = generate(3, &GenConfig::default());
        let mut runner = CaseRunner::new();
        for (tag, spec) in [("a", &a), ("b", &b), ("a again", &a)] {
            let fresh = check(spec, &cfg);
            let (reused, cov) = check_case(spec, &cfg, &mut runner);
            assert_eq!(
                format!("{reused:?}"),
                format!("{fresh:?}"),
                "case {tag}: reused machines changed the verdict"
            );
            if matches!(reused, CaseResult::Agree { .. }) {
                assert!(
                    cov.keys.iter().any(|k| k.starts_with("outcome:")),
                    "case {tag}: agreement must report runtime coverage"
                );
            }
        }
        assert_eq!(runner.builds, 2, "one plain + one adore machine, built once each");
        assert_eq!(runner.resets, 4, "the remaining two cases reuse both machines");
    }

    #[test]
    fn shrink_never_exceeds_its_eval_budget() {
        // An always-keep predicate makes the minimizer as greedy as it
        // can ever be; the budget must still be a hard ceiling, and the
        // reported spend must match the predicate's own count.
        let (spec, _) = generate(1, &GenConfig::default());
        for budget in [0, 1, 37] {
            let mut evals = 0usize;
            let (min, used) = shrink_with(&spec, budget, |_| {
                evals += 1;
                true
            });
            assert_eq!(evals, used, "reported spend must match actual evaluations");
            assert!(evals <= budget, "budget {budget} exceeded: {evals} evals");
            assert!(min.items.len() <= spec.items.len());
        }
    }

    #[test]
    fn shrunken_reproducer_fails_identically_on_both_exec_paths() {
        // A small program whose "failure" is a wild store at 0x40,
        // buried behind a loop and padding. Shrinking with the
        // property "still reaches that exact fault" must stay within
        // budget, actually shrink, and classify identically under both
        // simulator execution paths.
        let mut items = vec![
            Item::Insn(Insn::new(Op::MovL { d: isa::Gr(21), imm: 200 })),
            Item::Label("spin".into()),
            Item::Insn(Insn::new(Op::AddI { d: isa::Gr(10), a: isa::Gr(10), imm: 7 })),
            Item::Insn(Insn::new(Op::AddI { d: isa::Gr(21), a: isa::Gr(21), imm: -1 })),
            Item::Insn(Insn::new(Op::CmpI {
                op: CmpOp::Gt,
                pt: isa::Pr(7),
                pf: isa::Pr(8),
                a: isa::Gr(21),
                imm: 0,
            })),
            Item::Branch { qp: Some(isa::Pr(7)), kind: BranchKind::Cond, label: "spin".into() },
        ];
        for k in 0..8 {
            items.push(Item::Insn(Insn::new(Op::AddI { d: isa::Gr(11), a: isa::Gr(11), imm: k })));
        }
        items.push(Item::Insn(Insn::new(Op::MovL { d: isa::Gr(8), imm: 0x40 })));
        items.push(Item::Insn(Insn::new(Op::St {
            s: isa::Gr(8),
            base: isa::Gr(8),
            post_inc: 0,
            size: isa::AccessSize::U8,
        })));
        items.push(Item::Insn(Insn::new(Op::Halt)));
        let spec = ProgSpec { seed: 0, arena_bytes: 4096, mem_seed: 3, items };

        let fails = |spec: &ProgSpec, path: ExecPath| -> bool {
            let cfg = DiffConfig { exec_path: path, ..DiffConfig::default() };
            matches!(
                check(spec, &cfg),
                CaseResult::Agree { outcome: CaseOutcome::StoreFault { addr: 0x40, len: 8 }, .. }
            )
        };
        assert!(fails(&spec, ExecPath::Fast), "the unshrunk reproducer must fail");

        let budget = 64;
        let mut evals = 0usize;
        let (min, used) = shrink_with(&spec, budget, |c| {
            evals += 1;
            fails(c, ExecPath::Fast)
        });
        assert!(used <= budget && evals == used);
        assert!(min.items.len() < spec.items.len(), "nothing shrank: {} items", min.items.len());
        // The minimized reproducer still fails, identically, on both
        // execution paths.
        assert!(fails(&min, ExecPath::Fast));
        assert!(fails(&min, ExecPath::Reference));
    }

    #[test]
    fn a_headroom_byte_no_register_shows_is_a_named_memory_mismatch() {
        // Two runs that leave one byte of the INSTR_SCRATCH headroom
        // different: the compare must see it and name the word holding
        // that byte.
        let spec = spin_spec(1);
        let image = spec.arena_image();
        let capacity = (spec.arena_bytes + INSTR_SCRATCH) as usize;
        let (mut reference, mut observed) = (Memory::new(capacity), Memory::new(capacity));
        spec.load_arena(&mut reference, &image);
        spec.load_arena(&mut observed, &image);
        // A harvested instrumentation buffer: allocated, then zeroed.
        // Allocation state alone is not a difference.
        observed.alloc(256, 64);
        assert_eq!(memory_difference(&reference, &observed), None);

        let byte = reference.base() + spec.arena_bytes + 0x123;
        observed.write(byte, 1, 0x5a);
        let detail = memory_difference(&reference, &observed)
            .expect("a differing headroom byte is a mismatch");
        let word = byte & !7;
        assert_eq!(
            detail,
            format!(
                "memory word {word:#x}: reference {:#018x}, observed {:#018x}",
                0u64,
                0x5a_u64 << 24
            )
        );
    }

    #[test]
    fn hot_loops_actually_get_patched_under_the_fuzz_config() {
        // Deterministic sanity check that the aggressive config works:
        // a plain counted streaming loop must produce >= 1 patched
        // trace, otherwise the adore leg of the oracle tests nothing.
        let items = vec![
            Item::Insn(Insn::new(Op::MovL { d: isa::Gr(22), imm: 30 })),
            Item::Label("outer".into()),
            Item::Insn(Insn::new(Op::MovL { d: isa::Gr(4), imm: sim::DATA_BASE as i64 })),
            Item::Insn(Insn::new(Op::MovL { d: isa::Gr(21), imm: 2000 })),
            Item::Label("inner".into()),
            Item::Insn(Insn::new(Op::Ld {
                d: isa::Gr(9),
                base: isa::Gr(4),
                post_inc: 8,
                size: isa::AccessSize::U8,
                spec: false,
            })),
            Item::Insn(Insn::new(Op::Add { d: isa::Gr(10), a: isa::Gr(10), b: isa::Gr(9) })),
            Item::Insn(Insn::new(Op::AddI { d: isa::Gr(21), a: isa::Gr(21), imm: -1 })),
            Item::Insn(Insn::new(Op::CmpI {
                op: CmpOp::Gt,
                pt: isa::Pr(7),
                pf: isa::Pr(8),
                a: isa::Gr(21),
                imm: 0,
            })),
            Item::Branch { qp: Some(isa::Pr(7)), kind: BranchKind::Cond, label: "inner".into() },
            Item::Insn(Insn::new(Op::AddI { d: isa::Gr(22), a: isa::Gr(22), imm: -1 })),
            Item::Insn(Insn::new(Op::CmpI {
                op: CmpOp::Gt,
                pt: isa::Pr(14),
                pf: isa::Pr(15),
                a: isa::Gr(22),
                imm: 0,
            })),
            Item::Branch { qp: Some(isa::Pr(14)), kind: BranchKind::Cond, label: "outer".into() },
            Item::Insn(Insn::new(Op::Halt)),
        ];
        let spec = ProgSpec { seed: 0, arena_bytes: 1 << 18, mem_seed: 11, items };
        match check(&spec, &DiffConfig::default()) {
            CaseResult::Agree { outcome, traces_patched, .. } => {
                assert_eq!(outcome, CaseOutcome::Halted);
                assert!(traces_patched > 0, "streaming loop was never patched");
            }
            other => panic!("expected agreement, got {other:?}"),
        }
    }
}
