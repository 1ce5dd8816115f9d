//! Static (compile-time) prefetch planning, ORC-style.
//!
//! The ORC compiler's `-O3` prefetcher is "similar to Todd Mowry's
//! algorithm" (paper §4.2): it needs accurate array bounds and locality
//! information, covers affine array references only, and — lacking any
//! cache-miss information — schedules prefetches for every analyzable
//! loop whose footprint is not provably cache-resident, including loops
//! that at runtime hit well. The profile-guided variant
//! ([`delinquent_loop_filter`]) keeps only loops containing a load from
//! the 90 %-latency-coverage delinquent list.

use std::collections::BTreeSet;

use perfmon::MissProfile;

use crate::codegen::CompiledBinary;
use crate::ir::{AddrComplexity, Kernel, LoopSpec, RefSpec};

/// Memory latency the compiler assumes when computing prefetch
/// distances (cycles). Matches the simulator's default.
pub const ASSUMED_MEM_LATENCY: u64 = 160;

/// Footprints at or below this are assumed cache-resident and not
/// prefetched (a static locality cut; the L1D size).
pub const LOCALITY_CUTOFF_BYTES: u64 = 16 * 1024;

/// One planned prefetch: cover direct reference `ref_index` at
/// `distance_bytes` ahead of the demand stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchItem {
    /// Index into the loop's `refs`.
    pub ref_index: usize,
    /// Prefetch distance in bytes (signed: follows the stride).
    pub distance_bytes: i64,
    /// Distance in iterations (diagnostics).
    pub distance_iters: u64,
}

/// The static prefetch plan for one loop.
#[derive(Debug, Clone, Default)]
pub struct PrefetchPlan {
    /// Planned prefetches, at most one per direct reference.
    pub items: Vec<PrefetchItem>,
}

/// Rough per-iteration instruction estimate used for distance planning.
fn body_insn_estimate(spec: &LoopSpec) -> u64 {
    let mut n = 3; // trip decrement, compare, branch
    for r in &spec.refs {
        n += match r {
            RefSpec::Direct { .. } => 2,
            RefSpec::Indirect { .. } => 4,
            RefSpec::PointerChase { .. } => 6,
            RefSpec::JumpPointer { .. } => 7,
        };
    }
    n + spec.int_ops as u64 + spec.fp_ops as u64 + spec.code_bloat as u64 * 3
}

/// Plans static prefetching for `spec` (Mowry-style).
pub fn static_prefetch_plan(kernel: &Kernel, spec: &LoopSpec) -> PrefetchPlan {
    let mut plan = PrefetchPlan::default();
    if spec.complexity != AddrComplexity::Simple {
        return plan; // requires analyzable address computation
    }
    // Two bundles (six slots) per cycle, plus one cycle of loop overhead.
    let body_cycles = (body_insn_estimate(spec) / 6).max(1) + 1;
    let distance_iters = (ASSUMED_MEM_LATENCY).div_ceil(body_cycles).clamp(2, 64);

    for (ri, r) in spec.refs.iter().enumerate() {
        let RefSpec::Direct { array, stride_elems, write, alias_ambiguous } = *r else {
            continue; // ORC does not prefetch indirect or pointer refs
        };
        if write || alias_ambiguous || stride_elems == 0 {
            continue;
        }
        let a = &kernel.arrays[array];
        let stride_bytes = stride_elems * a.elem_bytes as i64;
        let footprint = spec.trip * stride_bytes.unsigned_abs();
        if footprint <= LOCALITY_CUTOFF_BYTES {
            continue; // provably cache-resident
        }
        plan.items.push(PrefetchItem {
            ref_index: ri,
            distance_bytes: distance_iters as i64 * stride_bytes,
            distance_iters,
        });
    }
    plan
}

/// Builds the profile-guided loop filter: the names of loops (in
/// `binary`, the training-run image) that contain at least one load
/// from the delinquent list covering `coverage` of total miss latency.
///
/// Loops compiled from repeated occurrences (`name@k`) map back to their
/// base loop name so the filter applies to every occurrence.
pub fn delinquent_loop_filter(
    profile: &MissProfile,
    binary: &CompiledBinary,
    coverage: f64,
) -> BTreeSet<String> {
    let mut filter = BTreeSet::new();
    for entry in profile.delinquent_loads(coverage) {
        if let Some(info) = binary.loop_containing(isa::Addr(entry.addr)) {
            let base = info.name.split('@').next().unwrap_or(&info.name);
            filter.insert(base.to_string());
        }
    }
    filter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ArrayDecl;

    fn kernel_with_array(len: u64, elem: u64) -> (Kernel, usize) {
        let mut k = Kernel::new("t");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: elem, len, fp: false });
        (k, a)
    }

    #[test]
    fn plans_cover_big_strided_loads() {
        let (k, a) = kernel_with_array(1 << 20, 8);
        let spec = LoopSpec::new(
            "l",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        );
        let plan = static_prefetch_plan(&k, &spec);
        assert_eq!(plan.items.len(), 1);
        let item = plan.items[0];
        assert!(item.distance_iters >= 2);
        assert_eq!(item.distance_bytes, item.distance_iters as i64 * 8);
    }

    #[test]
    fn small_footprints_are_skipped() {
        let (k, a) = kernel_with_array(512, 8);
        let spec = LoopSpec::new(
            "l",
            512,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        );
        assert!(static_prefetch_plan(&k, &spec).items.is_empty());
    }

    #[test]
    fn writes_aliases_and_complex_loops_are_skipped() {
        let (k, a) = kernel_with_array(1 << 20, 8);
        let write = LoopSpec::new(
            "w",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: true,
                alias_ambiguous: false,
            }],
        );
        assert!(static_prefetch_plan(&k, &write).items.is_empty());

        let aliased = LoopSpec::new(
            "a",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: true,
            }],
        );
        assert!(static_prefetch_plan(&k, &aliased).items.is_empty());

        let complex = LoopSpec::new(
            "c",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        )
        .with_complexity(AddrComplexity::FpConversion);
        assert!(static_prefetch_plan(&k, &complex).items.is_empty());
    }

    #[test]
    fn indirect_and_chase_are_never_statically_prefetched() {
        let (mut k, a) = kernel_with_array(1 << 20, 8);
        let b =
            k.add_array(ArrayDecl { base: 0x1800_0000, elem_bytes: 4, len: 1 << 20, fp: false });
        let spec =
            LoopSpec::new("l", 100_000, vec![RefSpec::Indirect { index_array: b, data_array: a }]);
        assert!(static_prefetch_plan(&k, &spec).items.is_empty());
    }

    #[test]
    fn negative_strides_plan_negative_distance() {
        let (k, a) = kernel_with_array(1 << 20, 8);
        let spec = LoopSpec::new(
            "back",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: -2,
                write: false,
                alias_ambiguous: false,
            }],
        );
        let plan = static_prefetch_plan(&k, &spec);
        assert_eq!(plan.items.len(), 1);
        assert!(plan.items[0].distance_bytes < 0);
    }

    #[test]
    fn delinquent_filter_maps_pcs_to_loop_names() {
        use crate::codegen::{compile, CompileOptions};
        use crate::ir::Phase;

        // Two loops; fabricate a profile whose misses sit in the first.
        let mut k = Kernel::new("f");
        let a =
            k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 1 << 18, fp: false });
        let hot = k.add_loop(LoopSpec::new(
            "hot",
            4000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 8,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        let cold = k.add_loop(LoopSpec::new(
            "cold",
            4000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 4,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.phases.push(Phase { reps: 2, loops: vec![hot, cold] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let hot_info = bin.loops.iter().find(|l| l.name == "hot").unwrap();

        // A profile with one dominant miss inside `hot`.
        let samples = vec![sim::Sample {
            index: 0,
            pc: isa::Pc::new(hot_info.head, 0),
            cycles: 1000,
            retired: 500,
            dcache_misses: 1,
            btb: vec![],
            dear: Some(sim::DearRecord {
                load_pc: isa::Pc::new(hot_info.head, 0),
                miss_addr: 0x1000_0000,
                latency: 160,
                kind: sim::DearKind::CacheMiss,
            }),
        }];
        let profile = perfmon::MissProfile::from_samples(samples.iter());
        let filter = delinquent_loop_filter(&profile, &bin, 0.9);
        assert!(filter.contains("hot"));
        assert!(!filter.contains("cold"));

        // Recompiling with the filter prefetches only the hot loop.
        let mut opts = CompileOptions::o3();
        opts.prefetch_filter = Some(filter);
        let guided = compile(&k, &opts).unwrap();
        assert_eq!(guided.prefetched_loops, 1);
        let plain_o3 = compile(&k, &CompileOptions::o3()).unwrap();
        assert_eq!(plain_o3.prefetched_loops, 2);
        assert!(guided.program.size_bytes() < plain_o3.program.size_bytes());
    }

    #[test]
    fn longer_bodies_get_shorter_distances() {
        let (k, a) = kernel_with_array(1 << 20, 8);
        let short = LoopSpec::new(
            "s",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        );
        let long = LoopSpec::new(
            "l",
            100_000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        )
        .with_compute(200, 0);
        let ds = static_prefetch_plan(&k, &short).items[0].distance_iters;
        let dl = static_prefetch_plan(&k, &long).items[0].distance_iters;
        assert!(dl < ds, "more work per iteration needs fewer iterations ahead");
    }
}
