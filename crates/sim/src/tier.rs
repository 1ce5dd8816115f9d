//! The pluggable execution-tier dispatch behind [`Machine::run`].
//!
//! The run loop lives once in `Machine::drive`, generic over an
//! [`ExecTier`], and each tier contributes only its *step*: how one
//! bundle (or, for the fast and threaded tiers, a run of bundles or one
//! compiled region) executes. The stop protocol — fault, cycle cap,
//! sample-buffer overflow — is shared, so a new tier cannot get it
//! subtly wrong; so is what each instruction does, which every tier
//! takes from `Machine::exec_slot_op`.
//!
//! Tier contract:
//!
//! | tier                  | step                              | timing |
//! |-----------------------|-----------------------------------|--------|
//! | [`Reference`]         | `Machine::step_bundle`: one bundle | cycle-exact |
//! | [`Fast`]              | `Machine::run_fast`: a fused loop over many bundles, up to the next stop condition | cycle-exact (bit-identical to Reference) |
//! | [`Threaded`]          | `Machine::jit_step`: one compiled region, or one cold bundle on the fast path | architectural state only |
//!
//! `SAMPLING` is a compile-time split: the unsampled instantiation of
//! each step carries no sample checks at all. The reference step
//! ignores it (its shared retire path already no-ops when sampling is
//! off), which keeps the reference implementation maximally plain.

use crate::machine::Machine;

/// One execution tier: a strategy for advancing the machine by one
/// step under the shared stop protocol of `Machine::drive`.
///
/// A step must (a) make forward progress or set `fault`/`halted`, and
/// (b) leave the machine resumable: `ip`, registers and counters
/// consistent, so the next step (on any tier) continues correctly.
/// `cycle_limit` is advisory for single-bundle tiers (the drive loop
/// checks it between steps) but binding for multi-bundle steps, which
/// must return soon after `cycle` reaches it — a cycle-exact one right
/// after the first bundle that reaches it, like every other stop
/// condition the drive loop checks, so that its stops are those of
/// single-bundle stepping.
pub(crate) trait ExecTier {
    /// Advances the machine by one step.
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64);
}

/// The straight-line reference implementation (cycle-exact).
pub(crate) struct Reference;

impl ExecTier for Reference {
    fn step<const SAMPLING: bool>(m: &mut Machine, _cycle_limit: u64) {
        m.step_bundle();
    }
}

/// The predecoded fast implementation (cycle-exact, bit-identical to
/// [`Reference`]). One step runs bundles until the machine halts or
/// faults, the cycle limit is reached, or a sample fills the buffer —
/// the conditions `Machine::drive` checks between steps — so the stop
/// reason and resume point match single-bundle stepping.
pub(crate) struct Fast;

impl ExecTier for Fast {
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64) {
        m.run_fast::<SAMPLING>(cycle_limit);
    }
}

/// The threaded-code compile tier (architectural state exact, timing
/// unmodeled); see [`crate::jit`].
pub(crate) struct Threaded;

impl ExecTier for Threaded {
    fn step<const SAMPLING: bool>(m: &mut Machine, cycle_limit: u64) {
        m.jit_step::<SAMPLING>(cycle_limit);
    }
}
