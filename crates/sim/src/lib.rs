//! An Itanium-2-like machine simulator for the ADORE reproduction.
//!
//! The MICRO-36 paper measures runtime prefetching on a 900 MHz Itanium 2
//! zx6000; this crate supplies the equivalent substrate: a flat data
//! [`Memory`], an L1D/L1I/L2/L3 [`cache
//! hierarchy`](cache::Hierarchy) with non-blocking misses and `lfetch`
//! support, a [`PMU`](pmu::Pmu) exposing the counters / branch trace
//! buffer / DEAR that ADORE samples, and an in-order, two-bundle-wide
//! [`Machine`] with stall-on-use timing and a
//! patchable trace pool.
//!
//! # Example
//!
//! ```
//! use isa::{Asm, CmpOp, Gr, Pr, CODE_BASE};
//! use sim::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), isa::AsmError> {
//! let mut a = Asm::new();
//! a.movl(Gr(10), 0);
//! a.label("loop");
//! a.addi(Gr(10), Gr(10), 1);
//! a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 1000);
//! a.br_cond(Pr(1), "loop");
//! a.halt();
//!
//! let mut m = Machine::new(a.finish(CODE_BASE)?, MachineConfig::default());
//! m.run(u64::MAX);
//! assert_eq!(m.gr(Gr(10)), 1000);
//! assert!(m.cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod code;
pub mod exec;
pub mod jit;
pub mod machine;
pub mod mem;
pub mod pmu;
pub(crate) mod tier;
pub mod tlb;

pub use cache::{AccessResult, Cache, CacheConfig, Hierarchy, HitLevel, DEAR_LATENCY_THRESHOLD};
pub use code::{CodeLoc, CodeStore, DecodedBundle, DecodedSlot};
pub use jit::JitStats;
pub use machine::{
    ExecPath, Fault, Machine, MachineConfig, PatchError, SamplingConfig, StopReason,
    DEFAULT_SAMPLING_SEED,
};
pub use mem::{Memory, DATA_BASE, INSTR_SCRATCH};
pub use pmu::{BranchTraceBuffer, BtbEntry, Counters, DearKind, DearRecord, Pmu, Sample};
pub use tlb::Tlb;
