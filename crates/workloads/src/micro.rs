//! The paper's motivating micro-kernels (§1): matrix multiplication
//! (Fig. 1), DAXPY (Fig. 2), Gaussian elimination (§1.2) and `memcpy`.

use compiler::{LoopSpec, RefSpec};

use crate::builder::WorkloadBuilder;
use crate::{Workload, WorkloadKind};

/// Fig. 1's matrix multiply: the innermost k-loop walks one row of `B`
/// (unit stride) and one column of `C` (stride `n` elements). The
/// arrays are "passed as parameters", so the static compiler must treat
/// them as aliased and cannot prefetch (exactly the ECC-vs-ORC story of
/// §1.1) — runtime prefetching does not care.
pub fn matrix_multiply(n: u64, outer_iters: u64) -> Workload {
    let mut b = WorkloadBuilder::new("matrix_multiply", 0x3a7);
    let bm = b.array(n * n, 8, true);
    let cm = b.array(n * n, 8, true);
    let inner = b.kernel.add_loop(
        LoopSpec::new(
            "kloop",
            n,
            vec![
                RefSpec::Direct { array: bm, stride_elems: 1, write: false, alias_ambiguous: true },
                RefSpec::Direct {
                    array: cm,
                    stride_elems: n as i64,
                    write: false,
                    alias_ambiguous: true,
                },
            ],
        )
        .with_compute(0, 1),
    );
    b.kernel.add_phase(outer_iters.max(1), vec![inner]);
    Workload::from_builder(b, "matmul", WorkloadKind::Fp)
}

/// Fig. 2's DAXPY: `y[i] += a * x[i]`. Two loads, one store and one
/// `fma` per iteration — already at the "two bundles per cycle" limit,
/// which is why prefetch scheduling into free slots matters (§1.3).
pub fn daxpy(n: u64, outer_iters: u64) -> Workload {
    let mut b = WorkloadBuilder::new("daxpy", 0xdaf);
    let x = b.array(n + 32, 8, true);
    let y = b.array(n + 32, 8, true);
    let l = b.kernel.add_loop(
        LoopSpec::new(
            "daxpy",
            n,
            vec![
                RefSpec::Direct { array: x, stride_elems: 1, write: false, alias_ambiguous: false },
                RefSpec::Direct { array: y, stride_elems: 1, write: false, alias_ambiguous: false },
                RefSpec::Direct { array: y, stride_elems: 1, write: true, alias_ambiguous: false },
            ],
        )
        .with_compute(0, 1),
    );
    b.kernel.add_phase(outer_iters.max(1), vec![l]);
    Workload::from_builder(b, "daxpy", WorkloadKind::Fp)
}

/// §1.2's Gaussian elimination: early passes sweep a sub-matrix too
/// large for the caches (heavy misses); late passes fit and hit. One
/// static binary cannot prefetch correctly for both ends — a runtime
/// system can adapt per phase.
pub fn gaussian(n_big: u64, n_small: u64, outer_iters: u64) -> Workload {
    let mut b = WorkloadBuilder::new("gaussian", 0x9a55);
    let m = b.array(n_big + 64, 8, true);
    let early = b.kernel.add_loop(
        LoopSpec::new(
            "eliminate_big",
            n_big / 8,
            vec![RefSpec::Direct {
                array: m,
                stride_elems: 8,
                write: false,
                alias_ambiguous: false,
            }],
        )
        .with_compute(0, 2),
    );
    let late = b.kernel.add_loop(
        LoopSpec::new(
            "eliminate_small",
            n_small / 8,
            vec![RefSpec::Direct {
                array: m,
                stride_elems: 8,
                write: false,
                alias_ambiguous: false,
            }],
        )
        .with_compute(0, 2),
    );
    b.kernel.add_phase(outer_iters.max(1), vec![early]);
    b.kernel.add_phase((outer_iters * (n_big / n_small).max(1)).max(1), vec![late]);
    Workload::from_builder(b, "gaussian", WorkloadKind::Fp)
}

/// §1.2's `memcpy`: a load/store streaming loop whose cache behaviour
/// depends entirely on the caller's buffer sizes.
pub fn memcpy(bytes: u64, outer_iters: u64) -> Workload {
    let mut b = WorkloadBuilder::new("memcpy", 0x3e3c);
    let words = bytes / 8;
    let src = b.array(words + 32, 8, false);
    let dst = b.array(words + 32, 8, false);
    let l = b.kernel.add_loop(
        LoopSpec::new(
            "copy",
            words,
            vec![
                RefSpec::Direct {
                    array: src,
                    stride_elems: 1,
                    write: false,
                    alias_ambiguous: false,
                },
                RefSpec::Direct {
                    array: dst,
                    stride_elems: 1,
                    write: true,
                    alias_ambiguous: false,
                },
            ],
        )
        .with_compute(1, 0),
    );
    b.kernel.add_phase(outer_iters.max(1), vec![l]);
    Workload::from_builder(b, "memcpy", WorkloadKind::Int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compiler::{compile, CompileOptions};
    use sim::MachineConfig;

    #[test]
    fn micro_kernels_build_and_run() {
        for w in [
            matrix_multiply(64, 4),
            daxpy(4096, 4),
            gaussian(32_768, 2_048, 2),
            memcpy(64 << 10, 3),
        ] {
            assert!(w.kernel.validate().is_ok(), "{}", w.name);
            let bin = compile(&w.kernel, &CompileOptions::o2()).unwrap();
            let mut m = w.prepare(&bin, MachineConfig::default());
            m.run_to_halt();
            assert!(m.is_halted(), "{} must halt", w.name);
            assert!(m.retired() > 1000);
        }
    }

    #[test]
    fn matmul_is_alias_ambiguous_for_static_prefetch() {
        let w = matrix_multiply(128, 2);
        let o3 = compile(&w.kernel, &CompileOptions::o3()).unwrap();
        assert_eq!(o3.prefetched_loops, 0, "ORC cannot prove the params unaliased");
    }

    #[test]
    fn daxpy_gets_static_prefetch_at_o3() {
        let w = daxpy(64 << 10, 2);
        let o3 = compile(&w.kernel, &CompileOptions::o3()).unwrap();
        assert_eq!(o3.prefetched_loops, 1);
    }
}
