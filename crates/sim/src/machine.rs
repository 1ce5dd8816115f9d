//! The simulated machine: an in-order, 2-bundles-per-cycle core in the
//! style of Itanium 2, wired to the cache hierarchy and the PMU.
//!
//! The timing model is deliberately simple but captures everything the
//! paper's results hinge on:
//!
//! - **issue width**: two bundles per cycle (the "two bundles per cycle"
//!   constraint of §1.3 that makes prefetch scheduling into free slots
//!   matter);
//! - **stall-on-use**: loads complete in the background and only stall
//!   the pipeline when a consumer reads the destination register before
//!   it is ready, so prefetches and far-ahead loads overlap misses;
//! - **non-blocking caches** with a bounded number of in-flight misses;
//! - **taken-branch bubble**, making inserted bundles genuinely costly;
//! - a **trace pool** address range from which patched traces execute.

use isa::{Addr, Bundle, Insn, Op, Pc, Program, TRACE_POOL_BASE};

use crate::cache::{CacheConfig, Hierarchy, HitLevel};
use crate::code::CodeStore;
use crate::mem::Memory;
use crate::pmu::{Pmu, Sample};
use crate::tlb::Tlb;

/// PMU sampling configuration (perfmon-style).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Cycles between samples (paper: ≥ 100,000 on real hardware; the
    /// simulated runs are shorter so the default is scaled down).
    pub interval_cycles: u64,
    /// System Sample Buffer capacity in samples; the run loop stops with
    /// [`StopReason::SampleBufferOverflow`] when it fills.
    pub buffer_capacity: usize,
    /// Cycles charged to the main thread per sample taken (the PMU
    /// interrupt cost; this is where ADORE's 1–2 % overhead comes from).
    pub per_sample_cost: u64,
    /// Fractional randomization of the sampling period (perfmon's
    /// period randomization): each interval is drawn uniformly from
    /// `interval * (1 ± jitter)`. Without it, samples alias onto loop
    /// structure and the DEAR only ever observes one load per loop.
    pub jitter: f64,
    /// Seed for the period-randomization LCG. Deterministic for a given
    /// configuration: two machines with the same seed draw identical
    /// jitter sequences, which is what lets the parallel experiment
    /// engine reproduce serial results cell for cell regardless of
    /// worker count or scheduling order.
    pub seed: u64,
}

/// Default LCG seed (golden-ratio constant, the historical hardwired
/// value — kept so runs without an explicit seed reproduce old reports).
pub const DEFAULT_SAMPLING_SEED: u64 = 0x9e3779b97f4a7c15;

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            interval_cycles: 20_000,
            buffer_capacity: 100,
            per_sample_cost: 150,
            jitter: 0.3,
            seed: DEFAULT_SAMPLING_SEED,
        }
    }
}

/// Which execution tier [`Machine::run`] uses.
///
/// The reference and fast tiers are cycle-exact with respect to each
/// other: identical architectural state, identical PMU counters,
/// identical sample streams. The reference tier is the straightforward
/// implementation kept for differential testing; the fast tier executes
/// from the predecoded [`CodeStore`] and skips per-step allocations and
/// sampling checks. The threaded tier trades the timing model away for
/// raw throughput: hot regions compile to chains of closures
/// (see [`crate::jit`]), architectural state stays exact, cycle counts
/// and cache statistics do not — [`ExecPath::is_cycle_exact`] is the
/// contract flag timing-sensitive harnesses must check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPath {
    /// Straight-line implementation: resolve and clone the `Bundle` at
    /// `ip` every step, derive scoreboard read sets on the fly.
    Reference,
    /// Predecoded implementation (the default): index into the
    /// [`CodeStore`] arena, walk fixed-size precomputed read sets,
    /// skip nops and sampling checks in the common path.
    #[default]
    Fast,
    /// Threaded-code compile tier: interprets cold code on the fast
    /// tier while counting entries, compiles hot regions into direct-
    /// threaded closure chains, and deopts back to interpretation when
    /// a live patch bumps the code-store generation. Architectural
    /// state is exact; timing is **not** modeled.
    Threaded,
}

impl ExecPath {
    /// Every tier, in declaration order.
    pub const ALL: [ExecPath; 3] = [ExecPath::Reference, ExecPath::Fast, ExecPath::Threaded];

    /// The `|`-joined list of every parseable tier name — the single
    /// value list shared by [`FromStr`](std::str::FromStr) errors and
    /// CLI `--help` text, so the two can never drift apart.
    pub const VALUE_LIST: &'static str = "reference|fast|threaded";

    /// The tier's canonical lowercase name (what [`FromStr`](std::str::FromStr)
    /// accepts and [`Display`](std::fmt::Display) prints).
    pub fn name(self) -> &'static str {
        match self {
            ExecPath::Reference => "reference",
            ExecPath::Fast => "fast",
            ExecPath::Threaded => "threaded",
        }
    }

    /// Whether this tier models timing exactly. The reference and fast
    /// tiers agree cycle for cycle and counter for counter; the
    /// threaded tier only guarantees architectural state. Timing-
    /// sensitive harnesses (golden cycles, figure/table grids, policy
    /// replay) assert this before trusting a machine's cycle counts.
    pub fn is_cycle_exact(self) -> bool {
        !matches!(self, ExecPath::Threaded)
    }
}

impl std::str::FromStr for ExecPath {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecPath, String> {
        match s.to_ascii_lowercase().as_str() {
            "reference" => Ok(ExecPath::Reference),
            "fast" => Ok(ExecPath::Fast),
            "threaded" => Ok(ExecPath::Threaded),
            other => Err(format!(
                "unknown exec path {other:?} (expected one of: {})",
                ExecPath::VALUE_LIST
            )),
        }
    }
}

impl std::fmt::Display for ExecPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// The core's fixed latencies and trace-pool size.

/// Bubble cycles on a taken branch.
const TAKEN_BRANCH_PENALTY: u64 = 1;
/// Latency of floating-point arithmetic (`fma`, `fadd`, `fmul`).
const FP_LATENCY: u64 = 4;
/// Latency of cross-unit moves (`getf`/`setf`), part of what makes
/// fp↔int address computations hostile to stride detection.
const XFER_LATENCY: u64 = 5;
/// Trace-pool capacity in bundles (the shared-memory block `dyn_open`
/// allocates once, paper §2.2).
const TRACE_POOL_BUNDLES: usize = 16 * 1024;

/// Machine configuration: the settings some caller varies. The core's
/// latencies, the cache geometry and the DTLB are constants of the
/// modelled Itanium 2 (see [`crate::cache`] and [`crate::tlb`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Cache sizes and memory bandwidth.
    pub cache: CacheConfig,
    /// Data arena capacity in bytes.
    pub mem_capacity: usize,
    /// PMU sampling; `None` disables sampling entirely.
    pub sampling: Option<SamplingConfig>,
    /// Execution engine; [`ExecPath::Fast`] unless overridden.
    pub exec_path: ExecPath,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cache: CacheConfig::default(),
            mem_capacity: 64 << 20,
            sampling: None,
            exec_path: ExecPath::default(),
        }
    }
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `Halt`.
    Halted,
    /// The sample buffer filled; drain it with [`Machine::drain_samples`].
    SampleBufferOverflow,
    /// The requested cycle limit was reached.
    CycleLimit,
    /// The program performed an unrecoverable architectural fault
    /// (wild branch, unmapped data access, return-stack underflow).
    /// The machine stays faulted: further `run` calls return the same
    /// reason without executing anything.
    Faulted(Fault),
}

/// An architectural fault raised by the executing program.
///
/// Faults are defined outcomes, not harness crashes: a generated or
/// adversarial program that branches into the void or dereferences a
/// wild pointer stops with a precise fault instead of panicking the
/// simulator. Earlier slots of the faulting bundle keep their effects;
/// the faulting instruction has none (no destination write, no
/// post-increment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Instruction fetch from an address with no bundle behind it.
    UnmappedFetch(Addr),
    /// Non-speculative load outside the data arena.
    UnmappedLoad {
        /// Faulting data address.
        addr: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// Store outside the data arena.
    UnmappedStore {
        /// Faulting data address.
        addr: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// `br.ret` with an empty return stack.
    ReturnUnderflow,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::UnmappedFetch(a) => write!(f, "instruction fetch from unmapped address {a}"),
            Fault::UnmappedLoad { addr, len } => {
                write!(f, "{len}-byte load from unmapped address {addr:#x}")
            }
            Fault::UnmappedStore { addr, len } => {
                write!(f, "{len}-byte store to unmapped address {addr:#x}")
            }
            Fault::ReturnUnderflow => write!(f, "br.ret with empty return stack"),
        }
    }
}

/// Error returned by patching operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// The address does not map to a bundle.
    BadAddress(Addr),
    /// The trace pool is full (its size is fixed at `dyn_open` time).
    PoolFull,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::BadAddress(a) => write!(f, "no bundle at address {a}"),
            PatchError::PoolFull => write!(f, "trace pool exhausted"),
        }
    }
}

impl std::error::Error for PatchError {}

/// What a pending register value is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum StallSource {
    #[default]
    None,
    Memory,
    Fp,
}

/// Where control goes after one instruction, as
/// [`Machine::exec_slot_op`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// On to the next slot (or fall through the bundle).
    Next,
    /// A branch was taken to this (not necessarily bundle-aligned)
    /// target.
    Taken(Addr),
    /// The machine halted or faulted; the bundle ends at this slot.
    Stop,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampleState {
    next_at: u64,
    index: u64,
    pub(crate) buffer: Vec<Sample>,
    /// LCG state for deterministic period randomization.
    rng: u64,
}

/// The simulated machine.
///
/// Fields are crate-visible so the predecoded fast path in
/// [`crate::exec`] can drive the same state; everything outside the
/// crate goes through the accessor methods.
///
/// `Clone` forks the machine: the copy runs exactly as the source
/// would. `==` compares the complete machine state bit for bit (see
/// the `PartialEq` impl).
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) program: Program,
    pub(crate) pool: Vec<Bundle>,
    pub(crate) store: CodeStore,
    pub(crate) mem: Memory,
    pub(crate) caches: Hierarchy,
    pub(crate) tlb: Tlb,
    pub(crate) pmu: Pmu,
    pub(crate) gr: [i64; 128],
    pub(crate) fr: [f64; 128],
    pub(crate) pr: [bool; 64],
    pub(crate) gr_ready: [u64; 128],
    pub(crate) fr_ready: [u64; 128],
    /// What produced each register's pending value (stall attribution
    /// for the PMU's cycle-breakdown counters).
    pub(crate) gr_source: [StallSource; 128],
    pub(crate) fr_source: [StallSource; 128],
    /// Scoreboard watermark: the largest ready cycle ever written to
    /// `gr_ready`/`fr_ready` by `exec_slot_op`. No register is ready
    /// later than `max(pending_until, cycle)`, so while
    /// `cycle >= pending_until` no read can stall and the fast tier
    /// skips the stall walk. (The threaded tier's untimed writes set
    /// ready cycles to the current cycle, which never stalls.)
    pub(crate) pending_until: u64,
    pub(crate) ip: Addr,
    pub(crate) ret_stack: Vec<Addr>,
    pub(crate) cycle: u64,
    pub(crate) half_bundle: bool,
    pub(crate) halted: bool,
    pub(crate) fault: Option<Fault>,
    pub(crate) samples: Option<SampleState>,
    /// Threaded-tier compile state; `Some` iff
    /// `config.exec_path == ExecPath::Threaded`.
    pub(crate) jit: Option<Box<crate::jit::JitState>>,
    /// Copy-on-first-edit snapshot (see [`Machine::arm_checkpoint`]):
    /// the machine as it was before its first edit since arming. Both
    /// checkpoint fields are bookkeeping about the machine's history
    /// rather than machine state, so `==` ignores them. (Two plain
    /// fields rather than one enum: rustc places them after the hot
    /// execution state instead of shifting it.)
    checkpoint: Option<Box<Machine>>,
    /// The next public mutator snapshots the machine first.
    checkpoint_armed: bool,
}

/// Exact state equality. The destructuring names every field without
/// `..`, so adding a field fails to compile here until it is compared.
/// Floating-point registers compare by bit pattern: `-0.0 == 0.0`
/// under `f64`'s `==`, yet the two behave differently. Cheap scalars
/// go first so unequal machines usually differ before the memory
/// comparison.
impl PartialEq for Machine {
    fn eq(&self, other: &Machine) -> bool {
        let Machine {
            config,
            program,
            pool,
            store,
            mem,
            caches,
            tlb,
            pmu,
            gr,
            fr,
            pr,
            gr_ready,
            fr_ready,
            gr_source,
            fr_source,
            pending_until,
            ip,
            ret_stack,
            cycle,
            half_bundle,
            halted,
            fault,
            samples,
            jit,
            checkpoint: _,
            checkpoint_armed: _,
        } = self;
        *cycle == other.cycle
            && *ip == other.ip
            && *half_bundle == other.half_bundle
            && *halted == other.halted
            && *fault == other.fault
            && *pending_until == other.pending_until
            && *pmu == other.pmu
            && *gr == other.gr
            && fr.iter().zip(&other.fr).all(|(a, b)| a.to_bits() == b.to_bits())
            && *pr == other.pr
            && *gr_ready == other.gr_ready
            && *fr_ready == other.fr_ready
            && *gr_source == other.gr_source
            && *fr_source == other.fr_source
            && *ret_stack == other.ret_stack
            && *samples == other.samples
            && *config == other.config
            && *jit == other.jit
            && *tlb == other.tlb
            && *caches == other.caches
            && *store == other.store
            && *pool == other.pool
            && *program == other.program
            && *mem == other.mem
    }
}

// The parallel experiment engine runs one full simulation per worker
// thread, so every piece of run state must stay `Send`. Assert it at
// compile time: adding an `Rc`/raw pointer to any field breaks the
// build here rather than in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<MachineConfig>();
    assert_send::<SamplingConfig>();
};

impl Machine {
    /// Creates a machine ready to run `program`.
    pub fn new(program: Program, config: MachineConfig) -> Machine {
        let mut pr = [false; 64];
        pr[0] = true;
        let mut fr = [0.0; 128];
        fr[1] = 1.0;
        let samples = config.sampling.as_ref().map(|s| SampleState {
            next_at: s.interval_cycles,
            index: 0,
            buffer: Vec::with_capacity(s.buffer_capacity),
            rng: s.seed,
        });
        Machine {
            mem: Memory::new(config.mem_capacity),
            caches: Hierarchy::new(config.cache.clone()),
            tlb: Tlb::new(),
            pmu: Pmu::new(),
            gr: [0; 128],
            fr,
            pr,
            gr_ready: [0; 128],
            fr_ready: [0; 128],
            gr_source: [StallSource::None; 128],
            fr_source: [StallSource::None; 128],
            pending_until: 0,
            ip: program.entry(),
            ret_stack: Vec::new(),
            cycle: 0,
            half_bundle: false,
            halted: false,
            fault: None,
            samples,
            jit: crate::jit::JitState::for_path(config.exec_path),
            checkpoint: None,
            checkpoint_armed: false,
            pool: Vec::new(),
            store: CodeStore::new(&program),
            program,
            config,
        }
    }

    /// Re-arms the machine to power-on state for a fresh run of
    /// `program`, keeping the data arena's allocation and the code
    /// store's decoded-bundle buffers instead of reallocating them —
    /// the per-case setup cost the fuzzing campaign's snapshot/restore
    /// path avoids. `sampling` replaces the sampling configuration
    /// (each fuzz case derives its own PMU seed); every other config
    /// field — cache geometry, memory capacity, execution path —
    /// stays as constructed, so a reset machine is only valid for
    /// programs that fit the same geometry.
    ///
    /// Equivalent, cycle for cycle and bit for bit, to building a
    /// fresh `Machine::new(program, config)` with the swapped sampling
    /// — pinned by `reset_machine_is_bit_identical_to_fresh_machine` —
    /// with one deliberate exception: the code-store generation keeps
    /// counting up across resets (it never restarts at 0), so decoded
    /// entries from a previous program can never alias entries of the
    /// new one.
    pub fn reset(&mut self, program: Program, sampling: Option<SamplingConfig>) {
        self.before_edit();
        self.config.sampling = sampling;
        self.mem.reset();
        self.caches.reset();
        self.tlb.reset();
        self.pmu = Pmu::new();
        self.gr = [0; 128];
        self.fr = [0.0; 128];
        self.fr[1] = 1.0;
        self.pr = [false; 64];
        self.pr[0] = true;
        self.gr_ready = [0; 128];
        self.fr_ready = [0; 128];
        self.gr_source = [StallSource::None; 128];
        self.fr_source = [StallSource::None; 128];
        self.pending_until = 0;
        self.ip = program.entry();
        self.ret_stack.clear();
        self.cycle = 0;
        self.half_bundle = false;
        self.halted = false;
        self.fault = None;
        self.samples = self.config.sampling.as_ref().map(|s| SampleState {
            next_at: s.interval_cycles,
            index: 0,
            buffer: Vec::with_capacity(s.buffer_capacity),
            rng: s.seed,
        });
        self.jit = crate::jit::JitState::for_path(self.config.exec_path);
        self.pool.clear();
        self.store.reset(&program);
        self.program = program;
    }

    // ---- accessors -------------------------------------------------

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Retired instruction count.
    pub fn retired(&self) -> u64 {
        self.pmu.counters.retired
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The architectural fault the program raised, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// The PMU state.
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// The cache hierarchy (statistics).
    pub fn caches(&self) -> &Hierarchy {
        &self.caches
    }

    /// The data TLB (statistics).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (workload initialization).
    pub fn mem_mut(&mut self) -> &mut Memory {
        self.before_edit();
        &mut self.mem
    }

    /// The static program image.
    pub fn code(&self) -> &Program {
        &self.program
    }

    /// Current instruction pointer.
    pub fn ip(&self) -> Addr {
        self.ip
    }

    /// Reads a general register.
    pub fn gr(&self, r: isa::Gr) -> i64 {
        self.gr[r.index()]
    }

    /// Writes a general register (test and workload setup).
    pub fn set_gr(&mut self, r: isa::Gr, v: i64) {
        if r.index() != 0 {
            self.before_edit();
            self.gr[r.index()] = v;
        }
    }

    /// Reads a predicate register.
    pub fn pr(&self, p: isa::Pr) -> bool {
        self.pr[p.index()]
    }

    /// Reads a floating-point register.
    pub fn fr(&self, r: isa::Fr) -> f64 {
        self.fr[r.index()]
    }

    /// Writes a floating-point register.
    pub fn set_fr(&mut self, r: isa::Fr, v: f64) {
        if r.index() > 1 {
            self.before_edit();
            self.fr[r.index()] = v;
        }
    }

    /// The bundle at `addr`, resolving both static code and trace pool.
    pub fn bundle_at(&self, addr: Addr) -> Option<&Bundle> {
        if addr.0 >= TRACE_POOL_BASE {
            let idx = ((addr.0 - TRACE_POOL_BASE) / Addr::BUNDLE_BYTES) as usize;
            self.pool.get(idx)
        } else {
            self.program.bundle_at(addr)
        }
    }

    /// Number of bundles currently in the trace pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Generation counter of the predecoded code store. Every code
    /// mutation ([`Machine::install_trace`], [`Machine::replace_bundle`])
    /// bumps it and re-decodes the touched entries; patchers use it to
    /// assert their fixups actually invalidated stale decodes.
    pub fn code_generation(&self) -> u64 {
        self.store.generation()
    }

    /// The configured execution engine.
    pub fn exec_path(&self) -> ExecPath {
        self.config.exec_path
    }

    /// Threaded-tier compile statistics: `None` unless the machine runs
    /// on [`ExecPath::Threaded`]. Tests and the differential oracle use
    /// this to observe region compiles and patch-boundary deopts.
    pub fn jit_stats(&self) -> Option<crate::jit::JitStats> {
        self.jit.as_ref().map(|j| j.stats)
    }

    // ---- patching (used by ADORE's trace patcher) -------------------

    /// Appends a trace to the trace pool, returning its start address.
    ///
    /// # Errors
    ///
    /// Fails with [`PatchError::PoolFull`] when the fixed-size pool
    /// cannot hold the trace.
    pub fn install_trace(&mut self, bundles: Vec<Bundle>) -> Result<Addr, PatchError> {
        if self.pool.len() + bundles.len() > TRACE_POOL_BUNDLES {
            return Err(PatchError::PoolFull);
        }
        self.before_edit();
        let addr = Addr(TRACE_POOL_BASE + self.pool.len() as u64 * Addr::BUNDLE_BYTES);
        self.store.install_pool(&bundles);
        self.pool.extend(bundles);
        Ok(addr)
    }

    /// Remaining trace-pool capacity in bundles.
    pub fn pool_remaining(&self) -> usize {
        TRACE_POOL_BUNDLES - self.pool.len()
    }

    /// Replaces the bundle at `addr` (static code or trace pool),
    /// returning the original so the caller can unpatch later.
    ///
    /// # Errors
    ///
    /// Fails when `addr` does not map to a code bundle.
    pub fn replace_bundle(&mut self, addr: Addr, bundle: Bundle) -> Result<Bundle, PatchError> {
        self.before_edit();
        if addr.0 >= TRACE_POOL_BASE {
            let idx = ((addr.0 - TRACE_POOL_BASE) / Addr::BUNDLE_BYTES) as usize;
            let slot = self.pool.get_mut(idx).ok_or(PatchError::BadAddress(addr))?;
            let old = std::mem::replace(slot, bundle.clone());
            let fixed = self.store.replace(addr, &bundle);
            debug_assert!(fixed, "code store out of sync with trace pool");
            return Ok(old);
        }
        let slot = self.program.bundle_at_mut(addr).ok_or(PatchError::BadAddress(addr))?;
        let old = std::mem::replace(slot, bundle.clone());
        let fixed = self.store.replace(addr, &bundle);
        debug_assert!(fixed, "code store out of sync with program image");
        Ok(old)
    }

    /// Charges `n` cycles of overhead to the main thread (sampling
    /// signal handler, patch publication, …).
    pub fn charge_cycles(&mut self, n: u64) {
        self.before_edit();
        self.cycle += n;
        self.pmu.counters.cycles = self.cycle;
        self.pmu.counters.overhead_cycles += n;
        self.half_bundle = false;
    }

    /// Drains the System Sample Buffer.
    pub fn drain_samples(&mut self) -> Vec<Sample> {
        if self.samples.is_some() {
            self.before_edit();
        }
        match &mut self.samples {
            Some(s) => std::mem::take(&mut s.buffer),
            None => Vec::new(),
        }
    }

    // ---- checkpoints -------------------------------------------------

    /// Arms a copy-on-first-edit checkpoint: the next public mutator
    /// (`mem_mut`, `set_gr`, `set_fr`, `install_trace`,
    /// `replace_bundle`, `charge_cycles`, `drain_samples`, `run`,
    /// `reset`) snapshots the machine before it changes anything. A
    /// machine nobody edits is never copied. Re-arming discards an
    /// earlier snapshot.
    pub fn arm_checkpoint(&mut self) {
        self.checkpoint = None;
        self.checkpoint_armed = true;
    }

    /// Disarms the checkpoint and returns the machine as it was before
    /// its first edit since [`Machine::arm_checkpoint`], or `None` when
    /// no mutator ran in between (the machine is then unchanged).
    pub fn take_checkpoint(&mut self) -> Option<Machine> {
        self.checkpoint_armed = false;
        self.checkpoint.take().map(|before| *before)
    }

    /// Snapshots the machine if a checkpoint is armed; every public
    /// mutator calls this before its first change.
    #[inline]
    fn before_edit(&mut self) {
        if self.checkpoint_armed {
            self.take_snapshot();
        }
    }

    /// The copy itself, kept out of line so the mutators that check
    /// for it stay small.
    #[cold]
    #[inline(never)]
    fn take_snapshot(&mut self) {
        self.checkpoint_armed = false;
        let before = self.clone();
        self.checkpoint = Some(Box::new(before));
    }

    // ---- execution ---------------------------------------------------

    /// Runs until halt, fault, sample-buffer overflow, or `cycle_limit`
    /// (absolute cycle count) is reached, on the configured
    /// [`ExecPath`]. The reference and fast tiers produce identical
    /// results; the threaded tier produces identical architectural
    /// state. Resuming after any stop (on any tier) continues exactly
    /// where the previous call left off.
    pub fn run(&mut self, cycle_limit: u64) -> StopReason {
        self.before_edit();
        match self.config.exec_path {
            ExecPath::Reference => self.drive::<crate::tier::Reference>(cycle_limit),
            ExecPath::Fast => self.drive::<crate::tier::Fast>(cycle_limit),
            ExecPath::Threaded => self.drive::<crate::tier::Threaded>(cycle_limit),
        }
    }

    /// The shared run loop over any [`crate::tier::ExecTier`]: stop
    /// checks (fault, cycle cap, sample-buffer overflow) live here,
    /// once, so every tier observes the identical stop protocol. The
    /// sampling split is hoisted out of the loop: when sampling is off,
    /// the loop carries no buffer check and the tier's step runs its
    /// `SAMPLING = false` instantiation.
    fn drive<T: crate::tier::ExecTier>(&mut self, cycle_limit: u64) -> StopReason {
        match self.config.sampling {
            None => {
                while !self.halted {
                    if let Some(f) = self.fault {
                        return StopReason::Faulted(f);
                    }
                    if self.cycle >= cycle_limit {
                        return StopReason::CycleLimit;
                    }
                    T::step::<false>(self, cycle_limit);
                }
                StopReason::Halted
            }
            Some(_) => {
                while !self.halted {
                    if let Some(f) = self.fault {
                        return StopReason::Faulted(f);
                    }
                    if self.cycle >= cycle_limit {
                        return StopReason::CycleLimit;
                    }
                    T::step::<true>(self, cycle_limit);
                    if self.sample_buffer_full() {
                        return StopReason::SampleBufferOverflow;
                    }
                }
                StopReason::Halted
            }
        }
    }

    /// Runs to completion (halt or fault), ignoring samples (drains
    /// them on overflow).
    pub fn run_to_halt(&mut self) -> u64 {
        loop {
            match self.run(u64::MAX) {
                StopReason::SampleBufferOverflow => {
                    self.drain_samples();
                }
                _ => return self.cycle, // Halted or Faulted
            }
        }
    }

    pub(crate) fn stall_until(&mut self, ready: u64, source: StallSource) {
        if ready > self.cycle {
            let stall = ready - self.cycle;
            match source {
                StallSource::Memory => self.pmu.counters.stall_mem += stall,
                StallSource::Fp => self.pmu.counters.stall_fp += stall,
                StallSource::None => {}
            }
            self.cycle = ready;
            self.half_bundle = false;
        }
    }

    fn write_gr(&mut self, r: isa::Gr, v: i64, ready: u64) {
        self.write_gr_src(r, v, ready, StallSource::None)
    }

    /// Writes a general register whose value is ready at `ready`,
    /// keeping the scoreboard watermark an upper bound of every ready
    /// cycle. (A write that is ready already may raise it only up to the
    /// current cycle, which keeps `cycle >= pending_until` true.)
    fn write_gr_src(&mut self, r: isa::Gr, v: i64, ready: u64, source: StallSource) {
        if r.index() != 0 {
            self.gr[r.index()] = v;
            self.gr_ready[r.index()] = ready;
            self.gr_source[r.index()] = if ready > self.cycle { source } else { StallSource::None };
            self.pending_until = self.pending_until.max(ready);
        }
    }

    fn write_fr(&mut self, r: isa::Fr, v: f64, ready: u64) {
        self.write_fr_src(r, v, ready, StallSource::Fp)
    }

    /// The floating-point twin of [`Machine::write_gr_src`].
    fn write_fr_src(&mut self, r: isa::Fr, v: f64, ready: u64, source: StallSource) {
        if r.index() > 1 {
            self.fr[r.index()] = v;
            self.fr_ready[r.index()] = ready;
            self.fr_source[r.index()] = if ready > self.cycle { source } else { StallSource::None };
            self.pending_until = self.pending_until.max(ready);
        }
    }

    fn write_pr(&mut self, r: isa::Pr, v: bool) {
        if r.index() != 0 {
            self.pr[r.index()] = v;
        }
    }

    /// Takes a sample at `pc` if one is due, and returns whether it did.
    /// The due check is a single compare that inlines into the run
    /// loops; the sample itself is rare (one per sampling interval) and
    /// stays out of line.
    #[inline]
    pub(crate) fn take_sample(&mut self, pc: Pc) -> bool {
        let due = self.samples.as_ref().is_some_and(|ss| self.cycle >= ss.next_at);
        if due {
            self.record_sample(pc);
        }
        due
    }

    /// True when the System Sample Buffer holds `buffer_capacity`
    /// samples (or more), the condition `drive` stops on.
    pub(crate) fn sample_buffer_full(&self) -> bool {
        match (&self.samples, &self.config.sampling) {
            (Some(ss), Some(cfg)) => ss.buffer.len() >= cfg.buffer_capacity,
            _ => false,
        }
    }

    /// The body of [`Machine::take_sample`]: charges the interrupt,
    /// records the sample, and draws the next randomized interval.
    #[inline(never)]
    fn record_sample(&mut self, pc: Pc) {
        let (Some(ss), Some(cfg)) = (&mut self.samples, &self.config.sampling) else {
            return;
        };
        self.cycle += cfg.per_sample_cost;
        self.pmu.counters.cycles = self.cycle;
        ss.buffer.push(Sample {
            index: ss.index,
            pc,
            cycles: self.cycle,
            retired: self.pmu.counters.retired,
            dcache_misses: self.pmu.counters.dear_misses,
            btb: self.pmu.btb.snapshot(),
            dear: self.pmu.dear,
        });
        ss.index += 1;
        ss.rng = ss.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (ss.rng >> 33) as f64 / (1u64 << 31) as f64; // [0, 1)
        let factor = 1.0 - cfg.jitter + 2.0 * cfg.jitter * u;
        let interval = (cfg.interval_cycles as f64 * factor).max(1.0) as u64;
        ss.next_at = self.cycle + interval;
        self.pmu.rearm_dear();
    }

    /// Executes one bundle, updating all timing state. The reference
    /// tier's step; [`crate::tier::Reference`] dispatches here.
    pub(crate) fn step_bundle(&mut self) {
        let bundle_addr = self.ip;
        let Some(bundle) = self.bundle_at(bundle_addr).cloned() else {
            self.fault = Some(Fault::UnmappedFetch(bundle_addr));
            return;
        };

        // Instruction fetch.
        let istall = self.caches.ifetch(bundle_addr.0, self.cycle);
        if istall > 0 {
            self.pmu.counters.l1i_misses += 1;
            self.pmu.counters.stall_icache += istall;
            self.cycle += istall;
            self.half_bundle = false;
        }

        let mut taken: Option<Addr> = None;
        let fall_through = bundle_addr.offset_bundles(1);

        for slot in 0..3u8 {
            let insn = bundle.slots[slot as usize];
            let pc = Pc::new(bundle_addr, slot);
            self.pmu.counters.retired += 1;

            // Qualifying predicate.
            if let Some(qp) = insn.qp {
                if !self.pr[qp.index()] {
                    continue;
                }
            }

            // Scoreboard: stall on unready sources, attributing the
            // wait to the producer (memory vs. floating point).
            for r in insn.op.gr_reads() {
                let ready = self.gr_ready[r.index()];
                let src = self.gr_source[r.index()];
                self.stall_until(ready, src);
            }
            match insn.op {
                Op::Fma { a, b, c, .. } => {
                    for f in [a, b, c] {
                        let ready = self.fr_ready[f.index()];
                        let src = self.fr_source[f.index()];
                        self.stall_until(ready, src);
                    }
                }
                Op::Fadd { a, b, .. } | Op::Fmul { a, b, .. } => {
                    for f in [a, b] {
                        let ready = self.fr_ready[f.index()];
                        let src = self.fr_source[f.index()];
                        self.stall_until(ready, src);
                    }
                }
                Op::Stf { s, .. } | Op::Getf { s, .. } => {
                    let ready = self.fr_ready[s.index()];
                    let src = self.fr_source[s.index()];
                    self.stall_until(ready, src);
                }
                _ => {}
            }

            match self.exec_slot_op::<true, true>(insn.op, pc, fall_through) {
                Flow::Next => {}
                Flow::Taken(target) => {
                    taken = Some(target);
                    break;
                }
                Flow::Stop => break,
            }
        }

        // A fault freezes the machine at the faulting instruction:
        // earlier slots keep their effects, the ip does not advance,
        // and no sample is taken.
        if self.fault.is_some() {
            self.pmu.counters.cycles = self.cycle;
            return;
        }

        // Record fall-through outcomes of predicated-off conditional
        // branches in the bundle (outcome = not taken).
        if taken.is_none() {
            self.record_off_cond_branches(&bundle.slots, bundle_addr, fall_through);
        }

        self.retire_bundle(bundle_addr, fall_through, taken);
    }

    /// Records the not-taken outcome of every predicated-off
    /// conditional branch in the bundle, so the BTB carries path
    /// information even for branches that did not issue.
    pub(crate) fn record_off_cond_branches(
        &mut self,
        slots: &[Insn; 3],
        bundle_addr: Addr,
        fall_through: Addr,
    ) {
        for slot in 0..3u8 {
            let insn = slots[slot as usize];
            if let Op::BrCond { .. } = insn.op {
                let off = insn.qp.map(|q| !self.pr[q.index()]).unwrap_or(false);
                if off {
                    self.pmu.record_branch(Pc::new(bundle_addr, slot), fall_through, false);
                }
            }
        }
    }

    /// Advances `ip`, applies the taken-branch bubble or the
    /// 2-bundles-per-cycle pairing rule, publishes the cycle counter,
    /// and takes a pending sample: the reference tier's bundle tail (the
    /// fast tier runs the same two steps in its own loop).
    pub(crate) fn retire_bundle(
        &mut self,
        bundle_addr: Addr,
        fall_through: Addr,
        taken: Option<Addr>,
    ) {
        self.advance_after_bundle(fall_through, taken);
        self.take_sample(Pc::new(bundle_addr, 0));
    }

    /// The sampling-free part of [`Machine::retire_bundle`]; the fast
    /// path calls it directly and keeps the sample check in its own
    /// loop.
    #[inline]
    pub(crate) fn advance_after_bundle(&mut self, fall_through: Addr, taken: Option<Addr>) {
        match taken {
            Some(t) => {
                self.ip = t.bundle_align();
                self.cycle += TAKEN_BRANCH_PENALTY;
                self.pmu.counters.stall_branch += TAKEN_BRANCH_PENALTY;
                self.half_bundle = false;
            }
            None => {
                self.ip = fall_through;
                if self.half_bundle {
                    self.cycle += 1;
                    self.half_bundle = false;
                } else {
                    self.half_bundle = true;
                }
            }
        }
        self.pmu.counters.cycles = self.cycle;
    }

    /// Executes one issued (predicate-true) instruction and reports
    /// where control goes next. This is the one definition of what an
    /// instruction does, on every tier: the interpreters run it as
    /// `<true, true>` after their scoreboard walk, and each closure of
    /// the threaded tier is a thin wrapper over `<false, MEM>` (see
    /// [`crate::jit`]).
    ///
    /// - `TIMED`: destination writes carry their latency (and stall
    ///   source) into the scoreboard. Untimed, every write is ready at
    ///   the current cycle.
    /// - `MEM`: memory ops drive the DTLB, the cache hierarchy and the
    ///   PMU's load events, and branches are recorded in the BTB.
    ///   Without it, only memory contents and the return stack are
    ///   touched. Nothing runs `TIMED` without `MEM`.
    ///
    /// On a fault the machine freezes (`self.fault` set, no destination
    /// writes) and the result is [`Flow::Stop`], as it is for `halt`;
    /// the caller must stop the bundle. Always inlined, so that no slot
    /// of the fast tier's fused loop pays a call (DESIGN.md §"Execution
    /// fast path" records the measured gain), and so that a compiled
    /// closure folds the match down to its own variant's body.
    #[inline(always)]
    pub(crate) fn exec_slot_op<const TIMED: bool, const MEM: bool>(
        &mut self,
        op: Op,
        pc: Pc,
        fall_through: Addr,
    ) -> Flow {
        let now = self.cycle;
        // The cycle a result with latency `lat` is ready at.
        let ready = |lat: u64| if TIMED { now + lat } else { now };
        match op {
            Op::Nop(_) | Op::Alloc => {}
            // One arm per op, so that the inlined helper's own match
            // folds to that op's body instead of dispatching again.
            Op::Add { .. } => self.exec_alu_op::<false>(&op),
            Op::AddI { .. } => self.exec_alu_op::<false>(&op),
            Op::Sub { .. } => self.exec_alu_op::<false>(&op),
            Op::Shladd { .. } => self.exec_alu_op::<false>(&op),
            Op::And { .. } => self.exec_alu_op::<false>(&op),
            Op::Or { .. } => self.exec_alu_op::<false>(&op),
            Op::Xor { .. } => self.exec_alu_op::<false>(&op),
            Op::MovL { .. } => self.exec_alu_op::<false>(&op),
            Op::Mov { .. } => self.exec_alu_op::<false>(&op),
            Op::Cmp { .. } => self.exec_alu_op::<false>(&op),
            Op::CmpI { .. } => self.exec_alu_op::<false>(&op),
            Op::Ld { d, base, post_inc, size, spec } => {
                let addr = self.gr[base.index()] as u64;
                let value = match self.mem.try_read(addr, size.bytes()) {
                    Some(v) => v,
                    None if spec => 0,
                    None => {
                        self.fault = Some(Fault::UnmappedLoad { addr, len: size.bytes() });
                        return Flow::Stop;
                    }
                };
                let lat = if MEM { self.load_latency(pc, addr, false) } else { 0 };
                self.write_gr_src(d, value as i64, ready(lat), StallSource::Memory);
                if post_inc != 0 {
                    let nb = self.gr[base.index()].wrapping_add(post_inc);
                    self.write_gr(base, nb, now);
                }
            }
            Op::St { s, base, post_inc, size } => {
                let addr = self.gr[base.index()] as u64;
                if !self.mem.try_write(addr, size.bytes(), self.gr[s.index()] as u64) {
                    self.fault = Some(Fault::UnmappedStore { addr, len: size.bytes() });
                    return Flow::Stop;
                }
                if MEM {
                    let _ = self.tlb.access(addr); // stores fill but don't stall
                    self.caches.store(addr);
                }
                if post_inc != 0 {
                    let nb = self.gr[base.index()].wrapping_add(post_inc);
                    self.write_gr(base, nb, now);
                }
            }
            Op::Ldf { d, base, post_inc } => {
                let addr = self.gr[base.index()] as u64;
                let Some(bits) = self.mem.try_read(addr, 8) else {
                    self.fault = Some(Fault::UnmappedLoad { addr, len: 8 });
                    return Flow::Stop;
                };
                let value = f64::from_bits(bits);
                let lat = if MEM { self.load_latency(pc, addr, true) } else { 0 };
                self.write_fr_src(d, value, ready(lat), StallSource::Memory);
                if post_inc != 0 {
                    let nb = self.gr[base.index()].wrapping_add(post_inc);
                    self.write_gr(base, nb, now);
                }
            }
            Op::Stf { s, base, post_inc } => {
                let addr = self.gr[base.index()] as u64;
                if !self.mem.try_write(addr, 8, self.fr[s.index()].to_bits()) {
                    self.fault = Some(Fault::UnmappedStore { addr, len: 8 });
                    return Flow::Stop;
                }
                if MEM {
                    self.caches.store(addr);
                }
                if post_inc != 0 {
                    let nb = self.gr[base.index()].wrapping_add(post_inc);
                    self.write_gr(base, nb, now);
                }
            }
            Op::Lfetch { base, post_inc } => {
                let addr = self.gr[base.index()] as u64;
                // lfetch engages the hardware page walker on a DTLB
                // miss (warming the TLB ahead of the demand stream)
                // and is dropped only when the translation would
                // fault — e.g. the wild addresses an extrapolated
                // pointer-chase prefetch can produce.
                if MEM && self.mem.contains(addr, 1) {
                    let _ = self.tlb.access(addr);
                    self.caches.lfetch(addr, now);
                }
                if post_inc != 0 {
                    let nb = self.gr[base.index()].wrapping_add(post_inc);
                    self.write_gr(base, nb, now);
                }
            }
            Op::Fma { d, a, b, c } => {
                let v = self.fr[a.index()].mul_add(self.fr[b.index()], self.fr[c.index()]);
                self.write_fr(d, v, ready(FP_LATENCY));
            }
            Op::Fadd { d, a, b } => {
                let v = self.fr[a.index()] + self.fr[b.index()];
                self.write_fr(d, v, ready(FP_LATENCY));
            }
            Op::Fmul { d, a, b } => {
                let v = self.fr[a.index()] * self.fr[b.index()];
                self.write_fr(d, v, ready(FP_LATENCY));
            }
            Op::Getf { d, s } => {
                let v = self.fr[s.index()] as i64;
                self.write_gr(d, v, ready(XFER_LATENCY));
            }
            Op::Setf { d, s } => {
                let v = self.gr[s.index()] as f64;
                self.write_fr(d, v, ready(XFER_LATENCY));
            }
            // `br.cond` is reached only when its qualifying predicate
            // held.
            Op::Br { target } | Op::BrCond { target } => {
                if MEM {
                    self.pmu.record_branch(pc, target, true);
                }
                return Flow::Taken(target);
            }
            Op::BrCall { target } => {
                if MEM {
                    self.pmu.record_branch(pc, target, true);
                }
                self.ret_stack.push(fall_through);
                return Flow::Taken(target);
            }
            Op::BrRet => {
                let Some(target) = self.ret_stack.pop() else {
                    self.fault = Some(Fault::ReturnUnderflow);
                    return Flow::Stop;
                };
                if MEM {
                    self.pmu.record_branch(pc, target, true);
                }
                return Flow::Taken(target);
            }
            Op::Halt => {
                self.halted = true;
                return Flow::Stop;
            }
        }
        Flow::Next
    }

    /// Executes one integer ALU or compare op: `add`, `adds`, `sub`,
    /// `shladd`, `and`, `or`, `xor`, `movl`, `mov`, `cmp` and immediate
    /// `cmp`. This is the one definition of these ops; `exec_slot_op`
    /// runs it on every tier, and the fast tier's register-only path
    /// runs it directly (see [`crate::exec`]). Every result is ready at
    /// once, so none of these ops needs `TIMED` or `MEM`.
    ///
    /// `MASKED`: predecode has checked every register index of the op
    /// (`DecodedBundle::reg_only`), so indices are masked into range
    /// instead of bounds-checked, and the mask changes no index.
    /// Unmasked, an out-of-range index panics, as on every other path.
    /// The op is borrowed: taken by value, each slot's op was copied to
    /// the stack and its fields reloaded from there, which made the
    /// register-only path slower than the general one.
    ///
    /// # Panics
    ///
    /// Panics on any other op.
    #[inline(always)]
    pub(crate) fn exec_alu_op<const MASKED: bool>(&mut self, op: &Op) {
        let g = |r: isa::Gr| {
            if MASKED {
                isa::Gr(r.0 & (isa::NUM_GR as u8 - 1))
            } else {
                r
            }
        };
        let p = |r: isa::Pr| {
            if MASKED {
                isa::Pr(r.0 & (isa::NUM_PR as u8 - 1))
            } else {
                r
            }
        };
        let now = self.cycle;
        let gr = |r: isa::Gr| self.gr[g(r).index()];
        match *op {
            Op::Add { d, a, b } => self.write_gr(g(d), gr(a).wrapping_add(gr(b)), now),
            Op::AddI { d, a, imm } => self.write_gr(g(d), gr(a).wrapping_add(imm), now),
            Op::Sub { d, a, b } => self.write_gr(g(d), gr(a).wrapping_sub(gr(b)), now),
            Op::Shladd { d, a, count, b } => {
                self.write_gr(g(d), (gr(a) << count).wrapping_add(gr(b)), now)
            }
            Op::And { d, a, b } => self.write_gr(g(d), gr(a) & gr(b), now),
            Op::Or { d, a, b } => self.write_gr(g(d), gr(a) | gr(b), now),
            Op::Xor { d, a, b } => self.write_gr(g(d), gr(a) ^ gr(b), now),
            Op::MovL { d, imm } => self.write_gr(g(d), imm, now),
            Op::Mov { d, s } => self.write_gr(g(d), gr(s), now),
            Op::Cmp { op, pt, pf, a, b } => {
                let r = op.eval(gr(a), gr(b));
                self.write_pr(p(pt), r);
                self.write_pr(p(pf), !r);
            }
            Op::CmpI { op, pt, pf, a, imm } => {
                let r = op.eval(gr(a), imm);
                self.write_pr(p(pt), r);
                self.write_pr(p(pf), !r);
            }
            _ => unreachable!("{op:?} is not an integer ALU or compare op"),
        }
    }

    /// Drives a data load at `addr` through the DTLB and the cache
    /// hierarchy, records its PMU events, and returns its latency. An
    /// FP load (`fp`) bypasses L1D and never counts as an L1 hit.
    #[inline(always)]
    fn load_latency(&mut self, pc: Pc, addr: u64, fp: bool) -> u64 {
        let tlb_lat = self.tlb.access(addr);
        if tlb_lat > 0 {
            self.pmu.record_tlb_miss(pc, addr, tlb_lat);
        }
        let res = self.caches.load(addr, self.cycle + tlb_lat, fp);
        self.pmu.record_load(pc, addr, res.latency, !fp && res.level == HitLevel::L1);
        tlb_lat + res.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Asm, CmpOp, Fr, Gr, Pr, SlotKind, CODE_BASE};

    fn machine_for(asm_body: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new();
        asm_body(&mut a);
        let p = a.finish(CODE_BASE).unwrap();
        Machine::new(p, MachineConfig::default())
    }

    #[test]
    fn arithmetic_executes() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 5);
            a.movl(Gr(11), 7);
            a.add(Gr(12), Gr(10), Gr(11));
            a.shladd(Gr(13), Gr(10), 2, Gr(11)); // 5*4+7
            a.sub(Gr(14), Gr(11), Gr(10));
            a.halt();
        });
        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        assert_eq!(m.gr(Gr(12)), 12);
        assert_eq!(m.gr(Gr(13)), 27);
        assert_eq!(m.gr(Gr(14)), 2);
    }

    #[test]
    fn wild_fetch_faults_instead_of_panicking() {
        // Overwrite the final halt with nops so execution runs off the
        // end of the image: the fetch must fault, not panic.
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 7);
            a.halt();
        });
        let nop_bundle = isa::Bundle::pack(&[
            isa::Insn::nop(SlotKind::M),
            isa::Insn::nop(SlotKind::I),
            isa::Insn::nop(SlotKind::I),
        ])
        .unwrap();
        m.replace_bundle(Addr(CODE_BASE + 16), nop_bundle).unwrap();
        let wild = Addr(CODE_BASE + 32);
        assert_eq!(m.run(u64::MAX), StopReason::Faulted(Fault::UnmappedFetch(wild)));
        assert!(!m.is_halted());
        assert_eq!(m.fault(), Some(Fault::UnmappedFetch(wild)));
        // The machine stays faulted; re-running returns the same reason.
        assert_eq!(m.run(u64::MAX), StopReason::Faulted(Fault::UnmappedFetch(wild)));
        // Architectural state before the fault is preserved.
        assert_eq!(m.gr(Gr(10)), 7);
    }

    #[test]
    fn unmapped_load_faults_with_address() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x123);
            a.ld(AccessSize::U8, Gr(11), Gr(10), 16);
            a.halt();
        });
        let r = m.run(u64::MAX);
        assert_eq!(r, StopReason::Faulted(Fault::UnmappedLoad { addr: 0x123, len: 8 }));
        // No destination write, no post-increment.
        assert_eq!(m.gr(Gr(11)), 0);
        assert_eq!(m.gr(Gr(10)), 0x123);
    }

    #[test]
    fn unmapped_store_faults_with_address() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 64);
            a.st(AccessSize::U4, Gr(10), Gr(11), 0);
            a.halt();
        });
        let r = m.run(u64::MAX);
        assert_eq!(r, StopReason::Faulted(Fault::UnmappedStore { addr: 64, len: 4 }));
    }

    #[test]
    fn speculative_load_never_faults() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x123);
            a.ld_s(AccessSize::U8, Gr(11), Gr(10), 0);
            a.halt();
        });
        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        assert_eq!(m.gr(Gr(11)), 0); // deferred NaT → zero
    }

    #[test]
    fn return_underflow_faults() {
        let mut m = machine_for(|a| {
            a.ret();
            a.halt();
        });
        assert_eq!(m.run(u64::MAX), StopReason::Faulted(Fault::ReturnUnderflow));
    }

    #[test]
    fn run_to_halt_terminates_on_fault() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x40);
            a.ld(AccessSize::U8, Gr(11), Gr(10), 0);
            a.halt();
        });
        let cycles = m.run_to_halt();
        assert!(cycles > 0);
        assert!(matches!(m.fault(), Some(Fault::UnmappedLoad { .. })));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut m = machine_for(|a| {
            a.movl(Gr(0), 99);
            a.addi(Gr(10), Gr(0), 3);
            a.halt();
        });
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(0)), 0);
        assert_eq!(m.gr(Gr(10)), 3);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x1000_0000);
            a.movl(Gr(11), 1234);
            a.st(AccessSize::U8, Gr(10), Gr(11), 8);
            a.addi(Gr(10), Gr(10), -8);
            a.ld(AccessSize::U8, Gr(12), Gr(10), 0);
            a.halt();
        });
        m.mem_mut().alloc(64, 8);
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(12)), 1234);
        // Post-increment happened before the manual decrement.
        assert_eq!(m.gr(Gr(10)), 0x1000_0000);
    }

    #[test]
    fn loop_with_predicated_backedge() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0);
            a.label("loop");
            a.addi(Gr(10), Gr(10), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 100);
            a.br_cond(Pr(1), "loop");
            a.halt();
        });
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(10)), 100);
        assert!(m.pmu().counters.branches >= 100);
    }

    #[test]
    fn miss_then_use_stalls_but_overlap_hides() {
        // Two variants of a pointless loop over a large array: one uses
        // the loaded value immediately, the other never uses it. The
        // stall-on-use model must make the first slower.
        let build = |use_value: bool| {
            let mut m = machine_for(|a| {
                a.movl(Gr(10), 0x1000_0000);
                a.movl(Gr(11), 0);
                a.label("loop");
                a.ld(AccessSize::U8, Gr(12), Gr(10), 64);
                if use_value {
                    a.add(Gr(13), Gr(12), Gr(12));
                }
                a.addi(Gr(11), Gr(11), 1);
                a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 4096);
                a.br_cond(Pr(1), "loop");
                a.halt();
            });
            m.mem_mut().alloc(64 * 4200, 64);
            m.run(u64::MAX);
            m.cycles()
        };
        let with_use = build(true);
        let without_use = build(false);
        assert!(
            with_use > without_use + 1000,
            "stall-on-use should cost: {with_use} vs {without_use}"
        );
    }

    #[test]
    fn lfetch_speeds_up_strided_loop() {
        let build = |prefetch: bool| {
            let mut m = machine_for(|a| {
                a.movl(Gr(10), 0x1000_0000);
                a.movl(Gr(27), 0x1000_0000 + 1024);
                a.movl(Gr(11), 0);
                a.label("loop");
                if prefetch {
                    a.lfetch(Gr(27), 64);
                }
                a.ld(AccessSize::U8, Gr(12), Gr(10), 64);
                a.add(Gr(13), Gr(12), Gr(13));
                a.addi(Gr(11), Gr(11), 1);
                a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 8192);
                a.br_cond(Pr(1), "loop");
                a.halt();
            });
            m.mem_mut().alloc(64 * 8300, 64);
            m.run(u64::MAX);
            m.cycles()
        };
        let plain = build(false);
        let prefetched = build(true);
        assert!(
            prefetched * 10 < plain * 9,
            "prefetching should win ≥10%: {prefetched} vs {plain}"
        );
    }

    #[test]
    fn fp_pipeline_works() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x1000_0000);
            a.ldf(Fr(8), Gr(10), 0);
            a.fma(Fr(9), Fr(8), Fr(8), Fr(1)); // x*x + 1
            a.stf(Gr(10), Fr(9), 0);
            a.halt();
        });
        m.mem_mut().alloc(64, 8);
        m.mem_mut().write_f64(0x1000_0000, 3.0);
        m.run(u64::MAX);
        assert_eq!(m.mem().read_f64(0x1000_0000), 10.0);
    }

    #[test]
    fn call_and_return() {
        let mut m = machine_for(|a| {
            a.br_call("callee");
            a.addi(Gr(10), Gr(10), 100);
            a.halt();
            a.global("callee");
            a.addi(Gr(10), Gr(10), 1);
            a.ret();
        });
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(10)), 101);
    }

    #[test]
    fn sampling_fills_buffer_and_overflows() {
        let mut a = Asm::new();
        a.movl(Gr(10), 0);
        a.label("loop");
        a.addi(Gr(10), Gr(10), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 1_000_000);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let mut cfg = MachineConfig::default();
        cfg.sampling = Some(SamplingConfig {
            interval_cycles: 1000,
            buffer_capacity: 16,
            per_sample_cost: 0,
            jitter: 0.3,
            ..Default::default()
        });
        let mut m = Machine::new(p, cfg);
        assert_eq!(m.run(u64::MAX), StopReason::SampleBufferOverflow);
        let samples = m.drain_samples();
        assert_eq!(samples.len(), 16);
        // Samples carry monotone counters and BTB content.
        for w in samples.windows(2) {
            assert!(w[1].cycles > w[0].cycles);
            assert!(w[1].retired >= w[0].retired);
        }
        assert!(!samples.last().unwrap().btb.is_empty());
    }

    #[test]
    fn predicated_off_instructions_have_no_side_effects() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 0x1000_0000);
            a.movl(Gr(11), 7);
            a.cmpi(CmpOp::Eq, Pr(4), Pr(5), Gr(11), 8); // p4 = false, p5 = true
            a.emit(isa::Insn::predicated(
                Pr(4),
                Op::St { s: Gr(11), base: Gr(10), post_inc: 8, size: AccessSize::U8 },
            ));
            a.emit(isa::Insn::predicated(Pr(4), Op::AddI { d: Gr(12), a: Gr(12), imm: 99 }));
            a.emit(isa::Insn::predicated(Pr(5), Op::AddI { d: Gr(13), a: Gr(13), imm: 1 }));
            a.halt();
        });
        m.mem_mut().alloc(64, 8);
        m.run(u64::MAX);
        // The store was squashed (memory untouched, no post-increment).
        assert_eq!(m.mem().read(0x1000_0000, 8), 0);
        assert_eq!(m.gr(Gr(10)), 0x1000_0000);
        assert_eq!(m.gr(Gr(12)), 0);
        assert_eq!(m.gr(Gr(13)), 1);
    }

    #[test]
    fn getf_setf_round_trip_with_latency() {
        let mut m = machine_for(|a| {
            a.movl(Gr(10), 42);
            a.emit(Op::Setf { d: isa::Fr(8), s: Gr(10) });
            a.emit(Op::Getf { d: Gr(11), s: isa::Fr(8) });
            a.add(Gr(12), Gr(11), Gr(11));
            a.halt();
        });
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(11)), 42);
        assert_eq!(m.gr(Gr(12)), 84);
        // Two cross-unit transfers cost at least 2 × XFER_LATENCY.
        assert!(m.cycles() >= 2 * XFER_LATENCY);
    }

    #[test]
    fn nested_calls_return_correctly() {
        let mut m = machine_for(|a| {
            a.br_call("outer");
            a.halt();
            a.global("outer");
            a.addi(Gr(10), Gr(10), 1);
            a.br_call("inner");
            a.addi(Gr(10), Gr(10), 4);
            a.ret();
            a.global("inner");
            a.addi(Gr(10), Gr(10), 2);
            a.ret();
        });
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(10)), 7);
    }

    #[test]
    fn stall_attribution_separates_memory_and_fp() {
        // Memory-stall-bound loop.
        let mut m = machine_for(|a| {
            a.movl(Gr(14), 0x1000_0000);
            a.movl(Gr(9), 2000);
            a.label("loop");
            a.ld(AccessSize::U8, Gr(20), Gr(14), 256);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            a.halt();
        });
        m.mem_mut().alloc(2_016 * 256, 64);
        m.run(u64::MAX);
        let c = m.pmu().counters;
        assert!(c.stall_mem > c.cycles / 2, "memory stalls should dominate: {c:?}");
        assert_eq!(c.stall_fp, 0);

        // FP-latency-bound chain.
        let mut m = machine_for(|a| {
            a.movl(Gr(9), 2000);
            a.label("loop");
            a.fma(isa::Fr(8), isa::Fr(8), isa::Fr(1), isa::Fr(8));
            a.fma(isa::Fr(8), isa::Fr(8), isa::Fr(1), isa::Fr(8));
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            a.halt();
        });
        m.run(u64::MAX);
        let c = m.pmu().counters;
        assert!(c.stall_fp > c.cycles / 3, "fp stalls should dominate: {c:?}");
        assert_eq!(c.stall_mem, 0);
    }

    #[test]
    fn sampling_jitter_stays_in_band() {
        let mut a = Asm::new();
        a.movl(Gr(10), 0);
        a.label("loop");
        a.addi(Gr(10), Gr(10), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 3_000_000);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let mut cfg = MachineConfig::default();
        let interval = 10_000u64;
        cfg.sampling = Some(SamplingConfig {
            interval_cycles: interval,
            buffer_capacity: 64,
            per_sample_cost: 0,
            jitter: 0.25,
            ..Default::default()
        });
        let mut m = Machine::new(p, cfg);
        let mut stamps = Vec::new();
        loop {
            match m.run(u64::MAX) {
                StopReason::SampleBufferOverflow => {
                    stamps.extend(m.drain_samples().into_iter().map(|s| s.cycles));
                }
                _ => break,
            }
        }
        assert!(stamps.len() > 100);
        let mut distinct = std::collections::HashSet::new();
        for w in stamps.windows(2) {
            let gap = w[1] - w[0];
            assert!(gap >= (interval as f64 * 0.74) as u64, "gap {gap} below band");
            assert!(gap <= (interval as f64 * 1.26) as u64 + 16, "gap {gap} above band");
            distinct.insert(gap / 100);
        }
        assert!(distinct.len() > 5, "jitter must actually vary the period");
    }

    #[test]
    fn sampling_seed_is_deterministic_per_machine() {
        let stamps_with = |seed: u64| {
            let mut a = Asm::new();
            a.movl(Gr(10), 0);
            a.label("loop");
            a.addi(Gr(10), Gr(10), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 400_000);
            a.br_cond(Pr(1), "loop");
            a.halt();
            let mut cfg = MachineConfig::default();
            cfg.sampling = Some(SamplingConfig {
                interval_cycles: 1_000,
                buffer_capacity: 32,
                per_sample_cost: 0,
                jitter: 0.3,
                seed,
            });
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), cfg);
            let mut stamps = Vec::new();
            while m.run(u64::MAX) == StopReason::SampleBufferOverflow {
                stamps.extend(m.drain_samples().into_iter().map(|s| s.cycles));
            }
            stamps
        };
        assert_eq!(stamps_with(7), stamps_with(7), "same seed, same samples");
        assert_ne!(stamps_with(7), stamps_with(8), "seed must steer the jitter");
    }

    #[test]
    fn pool_bundles_can_be_replaced() {
        let mut m = machine_for(|a| {
            a.halt();
        });
        let addr = m.install_trace(vec![Bundle::branch_only(isa::Insn::new(Op::BrRet))]).unwrap();
        let saved = m.replace_bundle(addr, Bundle::branch_only(isa::Insn::new(Op::Halt))).unwrap();
        assert!(saved.has_branch());
        assert!(matches!(m.bundle_at(addr).unwrap().slots[2].op, Op::Halt));
    }

    #[test]
    fn trace_pool_executes() {
        // Patch a loop head to jump into the trace pool; the pool trace
        // adds 2 per iteration instead of 1 and jumps back.
        let mut a = Asm::new();
        a.movl(Gr(10), 0);
        a.label("loop");
        a.addi(Gr(10), Gr(10), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 10);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let mut m = Machine::new(p, MachineConfig::default());

        // Build the replacement trace with a second assembler.
        let mut t = Asm::new();
        t.label("t");
        t.addi(Gr(10), Gr(10), 2);
        t.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 10);
        t.br_cond(Pr(1), "t");
        t.halt();
        let tp = t.finish(TRACE_POOL_BASE).unwrap();
        let trace_addr = m.install_trace(tp.bundles().to_vec()).unwrap();
        assert_eq!(trace_addr, Addr(TRACE_POOL_BASE));

        // Find the loop-head bundle (second bundle: after movl).
        let head = Addr(CODE_BASE + 16);
        let saved = m
            .replace_bundle(
                head,
                Bundle::branch_only(isa::Insn::new(Op::Br { target: trace_addr })),
            )
            .unwrap();
        assert!(!saved.has_branch() || saved.has_branch()); // saved original

        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(10)), 10); // 0 -> 2 -> ... -> 10 via pool
        assert!(m.pool_len() > 0);
    }

    #[test]
    fn trace_pool_capacity_is_enforced() {
        let mut m = machine_for(|a| {
            a.halt();
        });
        let cap = 16 * 1024;
        let chunk = vec![Bundle::branch_only(isa::Insn::new(Op::BrRet)); cap];
        assert!(m.install_trace(chunk).is_ok());
        assert_eq!(m.pool_remaining(), 0);
        let more = vec![Bundle::branch_only(isa::Insn::new(Op::BrRet))];
        assert_eq!(m.install_trace(more), Err(PatchError::PoolFull));
    }

    #[test]
    fn charge_cycles_advances_clock() {
        let mut m = machine_for(|a| {
            a.halt();
        });
        let c0 = m.cycles();
        m.charge_cycles(5000);
        assert_eq!(m.cycles(), c0 + 5000);
    }

    #[test]
    fn reset_machine_is_bit_identical_to_fresh_machine() {
        // Warm-up program: a short loop with memory traffic, plus a
        // live patch and an installed trace so the code store, pool,
        // caches, TLB, PMU, sampler and return stack all leave their
        // power-on state before the reset.
        let warm = {
            let mut a = Asm::new();
            a.movl(Gr(10), crate::DATA_BASE as i64);
            a.movl(Gr(21), 40);
            a.label("spin");
            a.ld(AccessSize::U8, Gr(11), Gr(10), 8);
            a.st(AccessSize::U8, Gr(10), Gr(11), 0);
            a.addi(Gr(21), Gr(21), -1);
            a.cmpi(CmpOp::Gt, Pr(7), Pr(8), Gr(21), 0);
            a.br_cond(Pr(7), "spin");
            a.halt();
            a.finish(CODE_BASE).unwrap()
        };
        let target = {
            let mut a = Asm::new();
            a.movl(Gr(12), 9);
            a.movl(Gr(13), crate::DATA_BASE as i64 + 64);
            a.ld(AccessSize::U8, Gr(14), Gr(13), 0);
            a.ldf(Fr(4), Gr(13), 0);
            a.fma(Fr(5), Fr(4), Fr(4), Fr(1));
            a.halt();
            a.finish(CODE_BASE).unwrap()
        };
        let sampling = |seed| SamplingConfig {
            interval_cycles: 16,
            buffer_capacity: 64,
            per_sample_cost: 0,
            jitter: 0.25,
            seed,
        };
        let config = MachineConfig {
            mem_capacity: 4096,
            sampling: Some(sampling(3)),
            ..MachineConfig::default()
        };

        let mut reused = Machine::new(warm, config.clone());
        reused.mem_mut().alloc(128, 64);
        assert_eq!(reused.run(u64::MAX), StopReason::Halted);
        reused.install_trace(vec![Bundle::branch_only(isa::Insn::new(Op::BrRet))]).unwrap();
        reused
            .replace_bundle(Addr(CODE_BASE), Bundle::branch_only(isa::Insn::new(Op::Halt)))
            .unwrap();
        let gen_before = reused.code_generation();
        assert!(reused.pending_until > 0, "the warm-up loads leave a scoreboard watermark");

        // Re-arm for `target` (with a different sampling seed, as every
        // fuzz case supplies its own) and compare against a from-scratch
        // machine on every observable.
        reused.reset(target.clone(), Some(sampling(11)));
        assert!(
            reused.code_generation() > gen_before,
            "reset keeps the code-store generation counting up"
        );
        assert_eq!(reused.pending_until, 0, "reset clears the scoreboard watermark");
        let mut fresh =
            Machine::new(target, MachineConfig { sampling: Some(sampling(11)), ..config });
        assert_eq!(reused.run(u64::MAX), fresh.run(u64::MAX));
        assert_eq!(reused.cycles(), fresh.cycles(), "cycle-exact across reset reuse");
        assert_eq!(reused.pending_until, fresh.pending_until);
        assert_eq!(reused.pmu().counters, fresh.pmu().counters);
        assert_eq!(reused.gr, fresh.gr);
        assert_eq!(reused.pr, fresh.pr);
        assert!(reused.fr.iter().zip(fresh.fr.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        for addr in (0..4096u64).step_by(8) {
            assert_eq!(
                reused.mem().read(crate::DATA_BASE + addr, 8),
                fresh.mem().read(crate::DATA_BASE + addr, 8),
                "memory differs at +{addr}"
            );
        }
        let a: Vec<_> = reused.drain_samples();
        let b: Vec<_> = fresh.drain_samples();
        assert_eq!(a.len(), b.len(), "sampler state must be rebuilt from the new seed");
    }

    /// A sampled loop with loads, stores and FP work, stopped part-way
    /// with samples pending: every kind of machine state is live.
    fn mid_run_machine() -> Machine {
        mid_run_machine_on(ExecPath::default())
    }

    fn mid_run_machine_on(exec_path: ExecPath) -> Machine {
        let mut a = Asm::new();
        a.movl(Gr(10), crate::DATA_BASE as i64);
        a.movl(Gr(21), 400);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(11), Gr(10), 0);
        a.addi(Gr(11), Gr(11), 3);
        a.st(AccessSize::U8, Gr(10), Gr(11), 64);
        a.ldf(Fr(4), Gr(10), 0);
        a.fma(Fr(5), Fr(4), Fr(4), Fr(5));
        a.addi(Gr(21), Gr(21), -1);
        a.cmpi(CmpOp::Gt, Pr(7), Pr(8), Gr(21), 0);
        a.br_cond(Pr(7), "loop");
        a.halt();
        let config = MachineConfig {
            mem_capacity: 64 << 10,
            sampling: Some(SamplingConfig {
                interval_cycles: 50,
                buffer_capacity: 1 << 20,
                per_sample_cost: 7,
                jitter: 0.3,
                ..SamplingConfig::default()
            }),
            exec_path,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), config);
        m.mem_mut().alloc(32 << 10, 64);
        assert_eq!(m.run(3_000), StopReason::CycleLimit);
        assert!(m.samples.as_ref().is_some_and(|s| !s.buffer.is_empty()));
        m
    }

    #[test]
    fn forked_machine_equals_its_source_and_runs_identically() {
        for path in ExecPath::ALL {
            let mut source = mid_run_machine_on(path);
            let mut fork = source.clone();
            assert!(fork == source, "{path}: a fork equals its source");
            assert_eq!(source.run_to_halt(), fork.run_to_halt());
            assert!(source.is_halted());
            assert!(fork == source, "{path}: source and fork run to identical state");
            assert!(fork != mid_run_machine_on(path), "{path}: a finished run differs");
            if path == ExecPath::Threaded {
                assert!(
                    fork.jit_stats().is_some_and(|s| s.regions_compiled > 0),
                    "the threaded machines compared compiled regions"
                );
            }
        }
    }

    #[test]
    fn equality_sees_signed_zeros_and_single_memory_bytes() {
        let base = mid_run_machine();

        let (mut pos, mut neg) = (base.clone(), base.clone());
        pos.set_fr(Fr(9), 0.0);
        neg.set_fr(Fr(9), -0.0);
        // `0.0 == -0.0` under f64's `==`; the registers still differ.
        assert!(pos != neg, "FP registers compare by bit pattern");

        let mut poked = base.clone();
        let addr = crate::DATA_BASE + 20_000;
        let byte = poked.mem().read(addr, 1);
        poked.mem_mut().write(addr, 1, byte ^ 1);
        assert!(poked != base, "one changed memory byte makes machines unequal");
        poked.mem_mut().write(addr, 1, byte);
        assert!(poked == base, "restoring the byte restores equality");
    }

    #[test]
    fn checkpoint_is_the_machine_before_each_mutator() {
        let patch = || Bundle::branch_only(isa::Insn::new(Op::Halt));
        type Mutator = Box<dyn Fn(&mut Machine)>;
        let mutators: Vec<(&str, Mutator)> = vec![
            ("mem_mut", Box::new(|m| m.mem_mut().write(crate::DATA_BASE + 8, 8, 0xfeed))),
            ("set_gr", Box::new(|m| m.set_gr(Gr(30), -5))),
            ("set_fr", Box::new(|m| m.set_fr(Fr(30), 2.5))),
            (
                "install_trace",
                Box::new(move |m| {
                    m.install_trace(vec![patch()]).unwrap();
                }),
            ),
            (
                "replace_bundle",
                Box::new(move |m| {
                    m.replace_bundle(Addr(CODE_BASE), patch()).unwrap();
                }),
            ),
            ("charge_cycles", Box::new(|m| m.charge_cycles(1_000))),
            ("drain_samples", Box::new(|m| assert!(!m.drain_samples().is_empty()))),
            (
                "run",
                Box::new(|m| {
                    m.run(6_000);
                }),
            ),
            (
                "reset",
                Box::new(|m| {
                    let program = m.code().clone();
                    m.reset(program, None);
                }),
            ),
            (
                "charge_cycles then set_gr",
                Box::new(|m| {
                    m.charge_cycles(1);
                    m.set_gr(Gr(30), 1);
                }),
            ),
        ];
        for (name, mutate) in &mutators {
            let mut m = mid_run_machine();
            let before = m.clone();
            m.arm_checkpoint();
            mutate(&mut m);
            assert!(m != before, "{name} must change the machine");
            let checkpoint =
                m.take_checkpoint().unwrap_or_else(|| panic!("{name} took no checkpoint"));
            assert!(checkpoint == before, "{name}: the checkpoint is the machine before the call");
            assert!(m.take_checkpoint().is_none(), "{name}: taking disarms");
        }
    }

    #[test]
    fn checkpoint_copies_nothing_without_an_edit() {
        let mut m = mid_run_machine();
        m.arm_checkpoint();
        let _ = (m.cycles(), m.gr(Gr(11)), m.mem().read(crate::DATA_BASE, 8), m.pmu().counters);
        // Writes that cannot change state (r0, f0/f1) are not edits.
        m.set_gr(Gr(0), 9);
        m.set_fr(Fr(1), 9.0);
        assert!(m.take_checkpoint().is_none(), "reads and no-op writes take no snapshot");
        m.charge_cycles(1);
        assert!(m.take_checkpoint().is_none(), "an unarmed machine takes no snapshot");
    }

    #[test]
    fn patch_bad_address_errors() {
        let mut m = machine_for(|a| {
            a.halt();
        });
        let err = m
            .replace_bundle(Addr(0x123_4560), Bundle::branch_only(isa::Insn::new(Op::BrRet)))
            .unwrap_err();
        assert!(matches!(err, PatchError::BadAddress(_)));
    }
}
