//! ADORE — ADaptive Object code RE-optimization — with runtime data
//! cache prefetching.
//!
//! A from-scratch reproduction of the dynamic optimization system of
//! *"The Performance of Runtime Data Cache Prefetching in a Dynamic
//! Optimization System"* (Lu et al., MICRO-36, 2003), running on the
//! IA-64-like simulator in the [`sim`] crate:
//!
//! - [`phase`] — coarse-grain phase detection over profile windows
//!   (CPI / DPI / PCcenter standard deviations, §2.3);
//! - [`trace`] — trace selection from Branch Trace Buffer path
//!   profiles, with bundle splitting, branch flipping and layout
//!   straightening (§2.4);
//! - [`delinq`] — delinquent-load tracking from DEAR miss samples,
//!   top three per loop trace (§3.1);
//! - [`pattern`] — reference-pattern detection by dependence slicing:
//!   direct array, indirect array, pointer chasing (§3.2, Fig. 5);
//! - [`prefetch`] — prefetch generation, optimization and free-slot
//!   scheduling using the reserved registers `r27`–`r30` (§3.3–3.5,
//!   Fig. 6);
//! - [`patch`] — trace-pool publication and unpatching (§2.5);
//! - [`reject`] — the unified [`Rejection`] taxonomy every stage
//!   reports declined work through (§4.3's failure analysis);
//! - [`pipeline`] — the optimizer decomposed into instrumented
//!   [`pipeline::Pass`]es over a shared [`pipeline::OptContext`], with
//!   a per-pass overhead ledger;
//! - [`decision`] — the typed decision trace every pass appends to:
//!   rejections, classifications, scheduled streams and the deploy /
//!   instrument / promote / unpatch episodes, per window;
//! - [`policy`] — adaptive per-phase policy selection: a discrete
//!   policy space over the optimizer's tunables and a deterministic
//!   online controller that trials, scores and commits arms per phase
//!   (off by default — the paper's static policy);
//! - [`runtime`] — the dynamic-optimization loop tying it together.
//!
//! # Example
//!
//! ```
//! use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
//! use sim::{Machine, MachineConfig};
//! use adore::{run, AdoreConfig};
//!
//! # fn main() -> Result<(), isa::AsmError> {
//! // A hot loop streaming through memory with heavy misses.
//! let mut a = Asm::new();
//! a.movl(Gr(8), 30);
//! a.label("outer");
//! a.movl(Gr(14), 0x1000_0000);
//! a.movl(Gr(9), 40_000);
//! a.label("loop");
//! a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
//! a.add(Gr(21), Gr(20), Gr(21));
//! a.addi(Gr(9), Gr(9), -1);
//! a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
//! a.br_cond(Pr(1), "loop");
//! a.addi(Gr(8), Gr(8), -1);
//! a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
//! a.br_cond(Pr(1), "outer");
//! a.halt();
//!
//! let mut config = AdoreConfig::enabled();
//! config.sampling.interval_cycles = 2_000;
//! let mut machine = Machine::new(
//!     a.finish(CODE_BASE)?,
//!     config.machine_config(MachineConfig::default()),
//! );
//! machine.mem_mut().alloc(40_016 * 64, 64);
//!
//! let report = run(&mut machine, &config);
//! assert!(report.traces_patched >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod decision;
pub mod delinq;
pub mod instrument;
pub mod patch;
pub mod pattern;
pub mod phase;
pub mod pipeline;
pub mod policy;
pub mod prefetch;
pub mod reject;
pub mod runtime;
pub mod trace;

pub use decision::{Decision, Outcome, Site};
pub use delinq::{find_delinquent_loads, loads_for_trace, DelinquentLoad, MAX_LOADS_PER_TRACE};
pub use instrument::{dominant_stride, instrument_trace, promote, Instrumentation};
pub use patch::{install, unpatch, PatchedTrace};
pub use pattern::{classify, Pattern};
pub use phase::{PhaseConfig, PhaseDecision, PhaseDetector, PhaseSignature};
pub use pipeline::{PassKind, PassLedger, Pipeline, PipelineConfig, PipelineLedger};
pub use policy::{
    AcceptTier, DistMult, LfetchTarget, Policy, PolicyConfig, PolicyController, PolicyDecision,
    PolicyReport, TraceAggr,
};
pub use prefetch::{optimize_trace, InsertionStats, OptimizedTrace, PrefetchConfig};
pub use reject::Rejection;
pub use runtime::{run, run_legs, run_with_limit, AdoreConfig, LegReport, RunReport, TimePoint};
pub use trace::{select_traces, select_traces_with_drops, PathProfile, Trace, TraceConfig};
