//! An ORC-like optimizing compiler for the ADORE reproduction.
//!
//! The paper compiles SPEC2000 with the ORC 2.0 compiler at `O2` (no
//! static prefetching) and `O3` (Mowry-style static prefetching), with
//! four integer registers and one predicate register reserved for the
//! dynamic optimizer and software pipelining disabled (§4.1/§4.3). This
//! crate provides the equivalent pipeline over the synthetic workload
//! IR:
//!
//! - [`ir`]: kernels, phases, loops and the three reference patterns;
//! - [`codegen`]: IR → IA-64-like bundles, loop metadata, SWP and
//!   register-reservation options;
//! - [`prefetch`]: the static prefetch planner and the profile-guided
//!   delinquent-loop filter of §4.2.
//!
//! # Example
//!
//! ```
//! use compiler::{compile, ArrayDecl, CompileOptions, Kernel, LoopSpec, RefSpec};
//!
//! # fn main() -> Result<(), compiler::CompileError> {
//! let mut k = Kernel::new("example");
//! let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 4096, fp: false });
//! let l = k.add_loop(LoopSpec::new(
//!     "walk",
//!     4000,
//!     vec![RefSpec::Direct { array: a, stride_elems: 1, write: false, alias_ambiguous: false }],
//! ));
//! k.add_phase(10, vec![l]);
//!
//! let bin = compile(&k, &CompileOptions::o3())?;
//! assert_eq!(bin.prefetched_loops, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod ir;
pub mod prefetch;

pub use codegen::{
    compile, CompileError, CompileOptions, CompiledBinary, LoopInfo, OptLevel, RefKind,
};
pub use ir::{AddrComplexity, ArrayDecl, Kernel, ListDecl, LoopSpec, Phase, RefSpec};
pub use prefetch::{
    delinquent_loop_filter, static_prefetch_plan, PrefetchItem, PrefetchPlan, ASSUMED_MEM_LATENCY,
    LOCALITY_CUTOFF_BYTES,
};
