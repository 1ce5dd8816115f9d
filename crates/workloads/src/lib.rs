//! SPEC2000-shaped synthetic workloads for the ADORE reproduction.
//!
//! The paper evaluates on seventeen SPEC CPU2000 benchmarks with
//! reference inputs. Those binaries (and an Itanium to run them) are
//! not available here, so this crate provides one synthetic kernel per
//! benchmark whose *memory behaviour* matches what the paper reports:
//! which reference patterns dominate (Table 2), how many stable phases
//! appear, whether address computation defeats the slicer, and whether
//! misses overlap (§4.3). See `DESIGN.md` for the substitution
//! rationale; [`suite::suite`] builds all seventeen, [`micro`] holds
//! the motivating kernels of §1 (matrix multiply, DAXPY, Gaussian
//! elimination, memcpy).
//!
//! # Example
//!
//! ```
//! use compiler::{compile, CompileOptions};
//! use sim::MachineConfig;
//!
//! let workloads = workloads::suite(0.05); // small scale for the example
//! let mcf = workloads.iter().find(|w| w.name == "mcf").unwrap();
//! let bin = compile(&mcf.kernel, &CompileOptions::o2()).unwrap();
//! let mut machine = mcf.prepare(&bin, MachineConfig::default());
//! machine.run_to_halt();
//! assert!(machine.is_halted());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod families;
pub mod micro;
pub mod rng;
pub mod suite;

use compiler::Kernel;
use sim::{Machine, MachineConfig};

pub use builder::{InitAction, WorkloadBuilder};
pub use families::families;
pub use rng::{Rng64, Zipfian};
pub use suite::suite;

/// Integer or floating-point benchmark (the paper groups results this
/// way in Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// SPECint-like.
    Int,
    /// SPECfp-like.
    Fp,
}

/// A complete synthetic workload: kernel IR plus its data plan.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name ("mcf").
    pub name: &'static str,
    /// Integer or floating-point suite.
    pub kind: WorkloadKind,
    /// The kernel IR (with concrete data addresses).
    pub kernel: Kernel,
    /// Required arena capacity in bytes.
    pub arena_bytes: u64,
    /// Memory-initialization actions.
    pub inits: Vec<InitAction>,
}

// Workers of the parallel experiment engine each hold references into
// one shared, immutable suite and clone nothing mutable — which only
// works while `Workload` stays `Send + Sync` (no interior mutability).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Workload>();
};

impl Workload {
    /// Builds a workload from a finished builder.
    pub fn from_builder(b: WorkloadBuilder, name: &'static str, kind: WorkloadKind) -> Workload {
        let (kernel, inits, arena_bytes) = b.finish();
        Workload { name, kind, kernel, arena_bytes, inits }
    }

    /// Creates a machine for a compiled binary of this workload:
    /// sizes the arena and replays the data initialization.
    pub fn prepare(&self, bin: &compiler::CompiledBinary, mut config: MachineConfig) -> Machine {
        config.mem_capacity = self.arena_bytes as usize;
        let mut m = Machine::new(bin.program.clone(), config);
        for init in &self.inits {
            init.apply(m.mem_mut());
        }
        m
    }
}

/// Every workload: the 17 paper-suite kernels followed by the
/// scenario families ([`families::families`]).
pub fn all(scale: f64) -> Vec<Workload> {
    let mut v = suite(scale);
    v.extend(families(scale));
    v
}

/// Looks a workload up by name (suite or family) at the given scale.
pub fn by_name(name: &str, scale: f64) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
}
