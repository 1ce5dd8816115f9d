//! Differential fuzzing oracle for the ADORE reproduction.
//!
//! ADORE's whole contract is that runtime optimization is *invisible*:
//! inserting prefetches and patching traces may change timing, but must
//! never change what a program computes. This crate proves that
//! property mechanically:
//!
//! * [`interp`] — a reference interpreter implementing only the
//!   architectural semantics of the ISA (no caches, no pipeline, no
//!   sampling): the ground truth;
//! * [`generator`] — a seeded random program generator emitting
//!   well-formed, terminating programs that exercise the surfaces
//!   ADORE transforms;
//! * [`diff`] — the three-way harness: each program runs on the
//!   reference interpreter, on [`sim::Machine`] with ADORE off, and on
//!   [`sim::Machine`] with an aggressive ADORE configuration, and the
//!   final architectural states must agree bit-for-bit;
//! * [`spec`] / [`text`] — the symbolic program form the shrinker
//!   minimizes and the line-based reproducer format replayed from
//!   `tests/corpus/`;
//! * [`mutate`] — bundle-level mutation of corpus programs (havoc,
//!   splice, immediate tweaks) inside the generator's
//!   register-discipline contract;
//! * [`campaign`] — the coverage-guided campaign engine: a persistent
//!   corpus scheduled by coverage novelty, evaluated on snapshot-reset
//!   machines, minimized by the shrinker.

#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod generator;
pub mod interp;
pub mod mutate;
pub mod spec;
pub mod text;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignMismatch, CampaignStats, CorpusEntry, MinimizerLedger,
};
pub use diff::{
    check, check_case, check_case_gated, shrink, shrink_with, CaseOutcome, CaseResult, CaseRunner,
    Decided, DiffConfig, FinalState, Gated, Mismatch, RunCoverage,
};
pub use generator::{generate, static_coverage, Coverage, GenConfig};
pub use interp::{Interp, Outcome};
pub use mutate::{mutate, MutateConfig};
pub use spec::{BranchKind, Item, ProgSpec};
pub use text::{parse_repro, serialize_repro, ParseError};
