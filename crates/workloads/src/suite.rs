//! The 17 SPEC2000-shaped synthetic workloads.
//!
//! Each workload mimics the memory behaviour the paper attributes to
//! its SPEC counterpart (§4.3 and Table 2): which reference patterns
//! dominate, how many stable phases appear, whether the address
//! computation is analyzable, whether misses overlap, and roughly what
//! fraction of run time the delinquent loops account for (controlled by
//! cache-resident *ballast* loops sharing each phase — the Amdahl knob
//! that pins the end-to-end speedup near the paper's bar heights).
//! Trip counts are kept small enough that a phase repetition is much
//! shorter than a profile window, so the phase detector sees steady
//! statistics.

use compiler::{AddrComplexity, LoopSpec, RefSpec};

use crate::builder::WorkloadBuilder;
use crate::{Workload, WorkloadKind};

fn direct(array: usize, stride_elems: i64) -> RefSpec {
    RefSpec::Direct { array, stride_elems, write: false, alias_ambiguous: false }
}

fn direct_aliased(array: usize, stride_elems: i64) -> RefSpec {
    RefSpec::Direct { array, stride_elems, write: false, alias_ambiguous: true }
}

fn store(array: usize, stride_elems: i64) -> RefSpec {
    RefSpec::Direct { array, stride_elems, write: true, alias_ambiguous: false }
}

/// A cache-resident compute loop: hot code, no qualifying misses. Its
/// trip count sets how much of the phase the missy loops account for.
fn ballast(b: &mut WorkloadBuilder, name: &str, trip: u64) -> usize {
    b.kernel.add_loop(LoopSpec::new(name, trip, vec![]).with_compute(6, 0))
}

/// A *cold* strided loop: its 48 KB footprint exceeds the static
/// prefetcher's locality cutoff, so ORC's `O3` schedules prefetches for
/// it — yet at runtime it stays L2-resident and never produces a
/// qualifying miss. These are exactly the loops the paper's
/// profile-guided pass filters out (Table 1: 83 % of scheduled loops
/// carry no delinquent load).
fn cold_loop(b: &mut WorkloadBuilder, name: &str) -> usize {
    // Floating-point data: FP loads bypass the L1D on Itanium 2, so an
    // L2-resident walk gains nothing from prefetching — the scheduled
    // prefetches are genuinely useless, as the paper describes.
    let small = b.array(6 << 10, 8, true); // 48 KB, L2-resident
                                           // Two fragments: still a static-prefetch candidate, but no modulo
                                           // scheduler will pipeline a multi-block body, so `O2`-with-SWP does
                                           // not accelerate these (they are background code, not kernels).
    b.kernel.add_loop(
        LoopSpec::new(name, 2200, vec![direct(small, 1), direct(small, 1)])
            .with_compute(2, 0)
            .with_fragments(2),
    )
}

/// Finishes a suite workload, marking every loop with memory references
/// *resumable*: real benchmarks stream over their working sets instead
/// of re-touching one cache-resident slice per outer iteration.
fn finish(mut b: WorkloadBuilder, name: &'static str, kind: WorkloadKind) -> Workload {
    for l in &mut b.kernel.loops {
        if !l.refs.is_empty() {
            l.resume = true;
        }
    }
    Workload::from_builder(b, name, kind)
}

/// Builds every workload in the suite at the given scale (1.0 = the
/// default run length; tests use smaller scales).
pub fn suite(scale: f64) -> Vec<Workload> {
    vec![
        bzip2(scale),
        gzip(scale),
        mcf(scale),
        vpr(scale),
        parser(scale),
        gap(scale),
        vortex(scale),
        gcc(scale),
        ammp(scale),
        art(scale),
        applu(scale),
        equake(scale),
        facerec(scale),
        fma3d(scale),
        lucas(scale),
        mesa(scale),
        swim(scale),
    ]
}

fn reps(scale: f64, base: u64) -> u64 {
    ((base as f64 * scale) as u64).max(2)
}

/// 256.bzip2 — integer sort/Huffman phases: big strided integer arrays,
/// then an indirect (pointer-array) phase. Gains ~10 % in the paper.
fn bzip2(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("256.bzip2", 0x1b21);
    let buf = b.array(1 << 20, 4, false); // 4 MB
    let l1 = b.kernel.add_loop(
        LoopSpec::new("sort_sweep", 250, vec![direct(buf, 64), direct(buf, 96), direct(buf, 128)])
            .with_compute(3, 0)
            .with_batched_uses(),
    );
    let l2 = b.kernel.add_loop(
        LoopSpec::new("sort_merge", 200, vec![direct(buf, 80), store(buf, 80)]).with_compute(2, 0),
    );
    let bal1 = ballast(&mut b, "huffman_tables", 42_000);
    let idx = b.index_array(1 << 19, 1 << 20);
    let data = b.array(1 << 20, 4, false);
    let l3 = b.kernel.add_loop(
        LoopSpec::new(
            "unbzip",
            250,
            vec![RefSpec::Indirect { index_array: idx, data_array: data }],
        )
        .with_compute(2, 0),
    );
    let bal2 = ballast(&mut b, "crc_pass", 42_000);
    let cold0 = cold_loop(&mut b, "bzip2_cold0");
    let cold0b = cold_loop(&mut b, "bzip2_cold0b");
    let cold1 = cold_loop(&mut b, "bzip2_cold1");
    let cold1b = cold_loop(&mut b, "bzip2_cold1b");
    b.kernel.add_phase(reps(scale, 100), vec![l1, l2, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 120), vec![l3, bal2, cold1, cold1b]);
    finish(b, "bzip2", WorkloadKind::Int)
}

/// 164.gzip — runs too briefly for ADORE to find a stable phase.
fn gzip(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("164.gzip", 0x6219);
    let buf = b.array(1 << 19, 4, false);
    let l = b.kernel.add_loop(
        LoopSpec::new("deflate", 2000, vec![direct(buf, 32), direct(buf, 48)]).with_compute(4, 0),
    );
    let bal = ballast(&mut b, "window_scan", 20_000);
    b.kernel.add_phase(reps(scale, 2), vec![l, bal]);
    finish(b, "gzip", WorkloadKind::Int)
}

/// 181.mcf — the pointer-chasing poster child: network-simplex arcs
/// allocated mostly in traversal order (long regular runs), so
/// induction-pointer prefetching pays off hugely (~55 % in the paper).
fn mcf(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("181.mcf", 0x3cf);
    let arcs = b.list(48_000, 192, 64); // ~9 MB, long regular runs
    let nodes = b.list(32_000, 128, 48); // ~4 MB
    let chase1 = b.kernel.add_loop(
        LoopSpec::new("arc_scan", 700, vec![RefSpec::PointerChase { list: arcs }])
            .with_compute(6, 0),
    );
    let chase2 = b.kernel.add_loop(
        LoopSpec::new("node_update", 700, vec![RefSpec::PointerChase { list: nodes }])
            .with_compute(5, 0),
    );
    let bal1 = ballast(&mut b, "price_out", 26_000);
    let bal2 = ballast(&mut b, "basket", 26_000);
    let cold0 = cold_loop(&mut b, "mcf_cold0");
    let cold0b = cold_loop(&mut b, "mcf_cold0b");
    let cold1 = cold_loop(&mut b, "mcf_cold1");
    let cold1b = cold_loop(&mut b, "mcf_cold1b");
    b.kernel.add_phase(reps(scale, 180), vec![chase1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 180), vec![chase2, bal2, cold1, cold1b]);
    finish(b, "mcf", WorkloadKind::Int)
}

/// 175.vpr — placement/routing with fp↔int conversions in the address
/// computation of the dominant loops: the slicer cannot recover their
/// strides (§4.3), and the one analyzable loop barely misses.
fn vpr(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("175.vpr", 0x479);
    let grid = b.array(1 << 20, 8, false); // 8 MB
    let local = b.array(80 << 10, 8, false); // 640 KB: mostly L3 hits
    let route = b.kernel.add_loop(
        LoopSpec::new("route_cost", 400, vec![direct(grid, 128), direct(grid, 160)])
            .with_compute(4, 2)
            .with_complexity(AddrComplexity::FpConversion),
    );
    let tidy =
        b.kernel.add_loop(LoopSpec::new("tidy", 120, vec![direct(local, 8)]).with_compute(3, 0));
    let bal = ballast(&mut b, "swap_eval", 30_000);
    let cold0 = cold_loop(&mut b, "vpr_cold0");
    let cold0b = cold_loop(&mut b, "vpr_cold0b");
    b.kernel.add_phase(reps(scale, 170), vec![route, tidy, bal, cold0, cold0b]);
    finish(b, "vpr", WorkloadKind::Int)
}

/// 197.parser — linked-dictionary walks over heavily shuffled,
/// L3-resident lists: induction-pointer prefetching applies but the
/// extrapolation is usually wrong, so the gain is small.
fn parser(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("197.parser", 0x9a55e5);
    let dict = b.list(8_000, 128, 4); // 1 MB, short runs
    let exprs = b.list(6_000, 128, 4);
    let c1 = b.kernel.add_loop(
        LoopSpec::new("dict_walk", 1000, vec![RefSpec::PointerChase { list: dict }])
            .with_compute(4, 0),
    );
    let c2 = b.kernel.add_loop(
        LoopSpec::new("expr_walk", 800, vec![RefSpec::PointerChase { list: exprs }])
            .with_compute(4, 0),
    );
    let bal = ballast(&mut b, "hash_words", 420_000);
    let cold0 = cold_loop(&mut b, "parser_cold0");
    let cold0b = cold_loop(&mut b, "parser_cold0b");
    b.kernel.add_phase(reps(scale, 70), vec![c1, c2, bal, cold0, cold0b]);
    finish(b, "parser", WorkloadKind::Int)
}

/// 254.gap — group theory: the dominant addresses come out of helper
/// calls (trace stop-points), so the big loops never form loop traces;
/// a few minor direct loops get prefetched with little effect.
fn gap(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("254.gap", 0x9a9);
    let heap = b.array(1 << 20, 8, false); // 8 MB
    let bags = b.array(96 << 10, 8, false); // 768 KB: L3 hits
    let main1 = b.kernel.add_loop(
        LoopSpec::new("collect", 400, vec![direct(heap, 96), direct(heap, 128)])
            .with_compute(4, 0)
            .with_complexity(AddrComplexity::Call),
    );
    let minor1 = b
        .kernel
        .add_loop(LoopSpec::new("scan_bags", 400, vec![direct(bags, 1)]).with_compute(3, 0));
    let main2 = b.kernel.add_loop(
        LoopSpec::new("permute", 400, vec![direct(heap, 112)])
            .with_compute(4, 0)
            .with_complexity(AddrComplexity::Call),
    );
    let minor2 =
        b.kernel.add_loop(LoopSpec::new("unpack", 400, vec![direct(bags, 2)]).with_compute(2, 0));
    let minor3 = b
        .kernel
        .add_loop(LoopSpec::new("copy_objs", 400, vec![direct(bags, 1)]).with_compute(2, 0));
    let bal1 = ballast(&mut b, "small_mul", 25_000);
    let bal2 = ballast(&mut b, "vec_ops", 25_000);
    let bal3 = ballast(&mut b, "gc_mark", 25_000);
    let cold0 = cold_loop(&mut b, "gap_cold0");
    let cold0b = cold_loop(&mut b, "gap_cold0b");
    let cold1 = cold_loop(&mut b, "gap_cold1");
    let cold1b = cold_loop(&mut b, "gap_cold1b");
    let cold2 = cold_loop(&mut b, "gap_cold2");
    let cold2b = cold_loop(&mut b, "gap_cold2b");
    b.kernel.add_phase(reps(scale, 120), vec![main1, minor1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 120), vec![main2, minor2, bal2, cold1, cold1b]);
    b.kernel.add_phase(reps(scale, 100), vec![main1, minor3, bal3, cold2, cold2b]);
    finish(b, "gap", WorkloadKind::Int)
}

/// 255.vortex — an object database whose hot code is scattered in
/// fragments; data is mostly cache-resident with a thin stream of L3
/// misses. The ~2 % gain comes partly from the I-cache locality of the
/// straightened trace (§4.3).
fn vortex(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("255.vortex", 0x40e7e);
    let objs = b.array(96 << 10, 8, false); // 768 KB: L3 hits
    let attrs = b.array(64 << 10, 8, false);
    let l1 = b.kernel.add_loop(
        LoopSpec::new("obj_lookup", 500, vec![direct(objs, 17), direct(attrs, 13)])
            .with_compute(6, 0)
            .with_fragments(6),
    );
    let l2 = b.kernel.add_loop(
        LoopSpec::new("obj_commit", 500, vec![direct(objs, 23)])
            .with_compute(5, 0)
            .with_fragments(5),
    );
    let bal1 = ballast(&mut b, "txn_bookkeeping", 60_000);
    let bal2 = ballast(&mut b, "index_walk", 60_000);
    let cold0 = cold_loop(&mut b, "vortex_cold0");
    let cold0b = cold_loop(&mut b, "vortex_cold0b");
    let cold1 = cold_loop(&mut b, "vortex_cold1");
    let cold1b = cold_loop(&mut b, "vortex_cold1b");
    b.kernel.add_phase(reps(scale, 110), vec![l1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 110), vec![l2, bal2, cold1, cold1b]);
    finish(b, "vortex", WorkloadKind::Int)
}

/// 176.gcc — a large instruction footprint with misses spread thin and
/// amortized over long lines: the couple of streams ADORE does prefetch
/// buy almost nothing, so sampling + patch overhead and the extra
/// inserted bundles leave a small net loss (−3.8 % in the paper).
fn gcc(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("176.gcc", 0x6cc);
    // RTL expression nodes: allocation order bears no relation to
    // traversal order (fully shuffled), so induction-pointer
    // extrapolation lands on wrong (often unmapped) addresses and the
    // inserted chase prefetch buys nothing.
    let rtl = b.list(48_000, 128, 1); // 6 MB, memory-resident
    let sym = b.array(40 << 10, 8, false); // 320 KB: L3-resident
    let dfa = b.array(40 << 10, 8, false);
    let l1 = b.kernel.add_loop(
        LoopSpec::new("rtl_pass", 620, vec![RefSpec::PointerChase { list: rtl }])
            .with_compute(5, 0)
            .with_code_bloat(6),
    );
    let l2 =
        b.kernel.add_loop(LoopSpec::new("sym_pass", 80, vec![direct(sym, 8)]).with_compute(6, 0));
    let l3 =
        b.kernel.add_loop(LoopSpec::new("flow_pass", 80, vec![direct(dfa, 8)]).with_compute(6, 0));
    let bal1 = ballast(&mut b, "parse_tokens", 45_000);
    let bal2 = ballast(&mut b, "emit_asm", 45_000);
    let cold0 = cold_loop(&mut b, "gcc_cold0");
    let cold0b = cold_loop(&mut b, "gcc_cold0b");
    let cold1 = cold_loop(&mut b, "gcc_cold1");
    let cold1b = cold_loop(&mut b, "gcc_cold1b");
    b.kernel.add_phase(reps(scale, 110), vec![l1, l2, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 110), vec![l1, l3, bal2, cold1, cold1b]);
    finish(b, "gcc", WorkloadKind::Int)
}

/// 188.ammp — molecular dynamics mixing indirect neighbour-list access
/// with pointer-chased atom lists over three phases; moderate runs make
/// the chase prefetch partially effective.
fn ammp(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("188.ammp", 0xa339);
    let atoms = b.list(16_000, 192, 16); // ~3 MB
    let nbr_idx = b.index_array(1 << 18, 1 << 19);
    let coords = b.array(1 << 19, 8, true); // 4 MB fp
    let pairs = b.list(16_000, 128, 16);
    let chase1 = b.kernel.add_loop(
        LoopSpec::new("atom_walk", 400, vec![RefSpec::PointerChase { list: atoms }])
            .with_compute(3, 2),
    );
    let ind = b.kernel.add_loop(
        LoopSpec::new(
            "nonbon",
            400,
            vec![RefSpec::Indirect { index_array: nbr_idx, data_array: coords }],
        )
        .with_compute(2, 3),
    );
    let chase2 = b.kernel.add_loop(
        LoopSpec::new("pair_walk", 400, vec![RefSpec::PointerChase { list: pairs }])
            .with_compute(3, 1),
    );
    let bal1 = ballast(&mut b, "bond_forces", 110_000);
    let bal2 = ballast(&mut b, "integrate", 110_000);
    let bal3 = ballast(&mut b, "torsions", 110_000);
    let cold0 = cold_loop(&mut b, "ammp_cold0");
    let cold0b = cold_loop(&mut b, "ammp_cold0b");
    let cold1 = cold_loop(&mut b, "ammp_cold1");
    let cold1b = cold_loop(&mut b, "ammp_cold1b");
    let cold2 = cold_loop(&mut b, "ammp_cold2");
    let cold2b = cold_loop(&mut b, "ammp_cold2b");
    b.kernel.add_phase(reps(scale, 60), vec![chase1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 60), vec![ind, bal2, cold1, cold1b]);
    b.kernel.add_phase(reps(scale, 60), vec![chase2, bal3, cold2, cold2b]);
    finish(b, "ammp", WorkloadKind::Fp)
}

/// 179.art — neural-network image recognition: two clear phases of
/// strided f64 scans plus indirect weight gathers; the second-biggest
/// win in the paper (Fig. 8 shows CPI halving).
fn art(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("179.art", 0xa47);
    let f1 = b.array(1 << 20, 8, true); // 8 MB f64
    let wt = b.array(1 << 20, 8, true);
    let idx = b.index_array(1 << 19, 1 << 20);
    let scan1 = b.kernel.add_loop(
        LoopSpec::new(
            "match_f1",
            600,
            vec![direct_aliased(f1, 48), direct_aliased(f1, 64), direct_aliased(wt, 48)],
        )
        .with_compute(1, 3)
        .with_batched_uses(),
    );
    let scan2 = b.kernel.add_loop(
        LoopSpec::new("train_pass", 600, vec![direct_aliased(wt, 56), direct_aliased(f1, 56)])
            .with_compute(1, 2)
            .with_batched_uses(),
    );
    let gather = b.kernel.add_loop(
        LoopSpec::new(
            "weight_gather",
            500,
            vec![RefSpec::Indirect { index_array: idx, data_array: wt }],
        )
        .with_compute(1, 2),
    );
    let update = b.kernel.add_loop(
        LoopSpec::new("f1_update", 500, vec![direct_aliased(f1, 40), direct_aliased(f1, 64)])
            .with_compute(1, 2)
            .with_batched_uses(),
    );
    let bal1 = ballast(&mut b, "winner_take_all", 15_000);
    let bal2 = ballast(&mut b, "normalize", 15_000);
    let cold0 = cold_loop(&mut b, "art_cold0");
    let cold0b = cold_loop(&mut b, "art_cold0b");
    let cold1 = cold_loop(&mut b, "art_cold1");
    let cold1b = cold_loop(&mut b, "art_cold1b");
    b.kernel.add_phase(reps(scale, 80), vec![scan1, scan2, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 110), vec![gather, update, bal2, cold1, cold1b]);
    finish(b, "art", WorkloadKind::Fp)
}

/// 173.applu — PDE solver whose misses spread over a dozen independent
/// streams per loop; the in-flight misses overlap, so the top-three
/// prefetch streams barely move the needle (§4.3's first failure mode).
fn applu(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("173.applu", 0xadd1);
    let refs1: Vec<RefSpec> = (0..12)
        .map(|_| {
            let a = b.array(192 << 10, 8, true); // each ~1.5 MB in f64
            direct(a, 32)
        })
        .collect();
    let refs2: Vec<RefSpec> = (0..10)
        .map(|_| {
            let a = b.array(160 << 10, 8, true);
            direct(a, 40)
        })
        .collect();
    let l1 =
        b.kernel.add_loop(LoopSpec::new("blts", 500, refs1).with_compute(2, 4).with_batched_uses());
    let l2 =
        b.kernel.add_loop(LoopSpec::new("buts", 500, refs2).with_compute(2, 4).with_batched_uses());
    let bal1 = ballast(&mut b, "jacld", 220_000);
    let bal2 = ballast(&mut b, "jacu", 220_000);
    let cold0 = cold_loop(&mut b, "applu_cold0");
    let cold0b = cold_loop(&mut b, "applu_cold0b");
    let cold1 = cold_loop(&mut b, "applu_cold1");
    let cold1b = cold_loop(&mut b, "applu_cold1b");
    b.kernel.add_phase(reps(scale, 140), vec![l1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 140), vec![l2, bal2, cold1, cold1b]);
    finish(b, "applu", WorkloadKind::Fp)
}

/// 183.equake — sparse matrix-vector products: strided scans the static
/// prefetcher cannot prove safe (aliased parameters) plus one indirect
/// gather. Runtime prefetching keeps its ~20 % win even over O3.
fn equake(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("183.equake", 0xe9ae);
    let k = b.array(1 << 20, 8, true); // 8 MB stiffness
    let disp = b.array(1 << 19, 8, true);
    let col = b.index_array(1 << 18, 1 << 19);
    let smvp = b.kernel.add_loop(
        LoopSpec::new(
            "smvp",
            500,
            vec![
                direct_aliased(k, 40),
                direct_aliased(k, 56),
                RefSpec::Indirect { index_array: col, data_array: disp },
            ],
        )
        .with_compute(1, 3)
        .with_batched_uses(),
    );
    let time_int = b.kernel.add_loop(
        LoopSpec::new("time_integration", 400, vec![direct(disp, 24)]).with_compute(1, 2),
    );
    let bal = ballast(&mut b, "smvp_scalar", 60_000);
    let cold0 = cold_loop(&mut b, "equake_cold0");
    let cold0b = cold_loop(&mut b, "equake_cold0b");
    b.kernel.add_phase(reps(scale, 85), vec![smvp, time_int, bal, cold0, cold0b]);
    finish(b, "equake", WorkloadKind::Fp)
}

/// 187.facerec — image-graph matching: many strided f64 scans across
/// three phases; all analyzable, moderate win.
fn facerec(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("187.facerec", 0xface);
    let img = b.array(1 << 20, 8, true);
    let gabor = b.array(1 << 20, 8, true);
    let graph = b.array(1 << 19, 8, true);
    let p1a = b.kernel.add_loop(
        LoopSpec::new(
            "gabor_conv",
            250,
            vec![direct(img, 48), direct(gabor, 48), direct(gabor, 64)],
        )
        .with_compute(1, 3)
        .with_batched_uses(),
    );
    let p1b = b.kernel.add_loop(
        LoopSpec::new("gabor_acc", 200, vec![direct(img, 64), store(gabor, 64)]).with_compute(1, 2),
    );
    let p2a = b.kernel.add_loop(
        LoopSpec::new(
            "graph_sim",
            250,
            vec![direct(graph, 32), direct(img, 56), direct(gabor, 56)],
        )
        .with_compute(1, 3)
        .with_batched_uses(),
    );
    let p3a = b.kernel.add_loop(
        LoopSpec::new("match_face", 250, vec![direct(graph, 40), direct(img, 72)])
            .with_compute(1, 2)
            .with_batched_uses(),
    );
    let bal1 = ballast(&mut b, "fft_local", 42_000);
    let bal2 = ballast(&mut b, "sim_local", 42_000);
    let bal3 = ballast(&mut b, "decision", 42_000);
    let cold0 = cold_loop(&mut b, "facerec_cold0");
    let cold0b = cold_loop(&mut b, "facerec_cold0b");
    let cold1 = cold_loop(&mut b, "facerec_cold1");
    let cold1b = cold_loop(&mut b, "facerec_cold1b");
    let cold2 = cold_loop(&mut b, "facerec_cold2");
    let cold2b = cold_loop(&mut b, "facerec_cold2b");
    b.kernel.add_phase(reps(scale, 55), vec![p1a, p1b, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 55), vec![p2a, bal2, cold1, cold1b]);
    b.kernel.add_phase(reps(scale, 55), vec![p3a, bal3, cold2, cold2b]);
    finish(b, "facerec", WorkloadKind::Fp)
}

/// 191.fma3d — finite-element crash simulation: four phases of element
/// updates, two with indirect connectivity gathers.
fn fma3d(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("191.fma3d", 0xf3a3d);
    let elem = b.array(1 << 20, 8, true);
    let node = b.array(1 << 20, 8, true);
    let conn = b.index_array(1 << 18, 1 << 20);
    let p1 = b.kernel.add_loop(
        LoopSpec::new(
            "internal_forces",
            250,
            vec![direct(elem, 48), direct(elem, 64), direct(node, 48)],
        )
        .with_compute(1, 4)
        .with_batched_uses(),
    );
    let p2 = b.kernel.add_loop(
        LoopSpec::new(
            "gather_nodes",
            250,
            vec![RefSpec::Indirect { index_array: conn, data_array: node }, direct(elem, 56)],
        )
        .with_compute(1, 3),
    );
    let p3 = b.kernel.add_loop(
        LoopSpec::new("stress_update", 250, vec![direct(elem, 40), direct(elem, 72)])
            .with_compute(1, 3)
            .with_batched_uses(),
    );
    let p4 = b.kernel.add_loop(
        LoopSpec::new(
            "scatter_accel",
            250,
            vec![RefSpec::Indirect { index_array: conn, data_array: node }, direct(node, 64)],
        )
        .with_compute(1, 2),
    );
    let bal1 = ballast(&mut b, "material_model", 34_000);
    let bal2 = ballast(&mut b, "contact_search", 34_000);
    let bal3 = ballast(&mut b, "hourglass", 34_000);
    let bal4 = ballast(&mut b, "timestep", 34_000);
    let cold0 = cold_loop(&mut b, "fma3d_cold0");
    let cold0b = cold_loop(&mut b, "fma3d_cold0b");
    let cold1 = cold_loop(&mut b, "fma3d_cold1");
    let cold1b = cold_loop(&mut b, "fma3d_cold1b");
    let cold2 = cold_loop(&mut b, "fma3d_cold2");
    let cold2b = cold_loop(&mut b, "fma3d_cold2b");
    let cold3 = cold_loop(&mut b, "fma3d_cold3");
    let cold3b = cold_loop(&mut b, "fma3d_cold3b");
    b.kernel.add_phase(reps(scale, 55), vec![p1, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 55), vec![p2, bal2, cold1, cold1b]);
    b.kernel.add_phase(reps(scale, 55), vec![p3, bal3, cold2, cold2b]);
    b.kernel.add_phase(reps(scale, 55), vec![p4, bal4, cold3, cold3b]);
    finish(b, "fma3d", WorkloadKind::Fp)
}

/// 189.lucas — Lucas-Lehmer primality: FFT-style butterflies whose
/// index arithmetic round-trips through the FP unit; stride recovery
/// fails (§4.3's second failure mode).
fn lucas(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("189.lucas", 0x1ca5);
    let fft = b.array(1 << 20, 8, true); // 8 MB
    let l1 = b.kernel.add_loop(
        LoopSpec::new("fft_pass", 400, vec![direct(fft, 64), direct(fft, 96)])
            .with_compute(1, 4)
            .with_complexity(AddrComplexity::FpConversion),
    );
    let l2 = b.kernel.add_loop(
        LoopSpec::new("carry_pass", 400, vec![direct(fft, 80)])
            .with_compute(1, 3)
            .with_complexity(AddrComplexity::FpConversion),
    );
    let bal = ballast(&mut b, "mod_reduce", 60_000);
    let cold0 = cold_loop(&mut b, "lucas_cold0");
    let cold0b = cold_loop(&mut b, "lucas_cold0b");
    b.kernel.add_phase(reps(scale, 130), vec![l1, l2, bal, cold0, cold0b]);
    finish(b, "lucas", WorkloadKind::Fp)
}

/// 177.mesa — software rasterizer: compute-dominated with one strided
/// span walk whose misses amortize over long cache lines; marginal gain.
fn mesa(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("177.mesa", 0x3e5a);
    let fb = b.array(256 << 10, 4, false); // 1 MB touched sparsely: L3 hits
    let tex = b.array(48 << 10, 4, false); // L2-resident texture
    let l = b.kernel.add_loop(
        LoopSpec::new("span_fill", 800, vec![direct(fb, 96), direct(tex, 2)]).with_compute(6, 2),
    );
    let bal = ballast(&mut b, "vertex_shade", 110_000);
    let cold0 = cold_loop(&mut b, "mesa_cold0");
    let cold0b = cold_loop(&mut b, "mesa_cold0b");
    b.kernel.add_phase(reps(scale, 120), vec![l, bal, cold0, cold0b]);
    finish(b, "mesa", WorkloadKind::Fp)
}

/// 171.swim — shallow-water stencils: pure strided f64 streams, fully
/// analyzable; a solid runtime-prefetching win.
fn swim(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("171.swim", 0x5713);
    let u = b.array(1 << 20, 8, true);
    let v = b.array(1 << 20, 8, true);
    let p = b.array(1 << 20, 8, true);
    let calc1 = b.kernel.add_loop(
        LoopSpec::new("calc1", 300, vec![direct(u, 33), direct(v, 33), direct(p, 33)])
            .with_compute(1, 3)
            .with_batched_uses(),
    );
    let calc2 = b.kernel.add_loop(
        LoopSpec::new("calc2", 300, vec![direct(u, 41), direct(v, 41), direct(p, 41)])
            .with_compute(1, 3)
            .with_batched_uses(),
    );
    let calc3 = b.kernel.add_loop(
        LoopSpec::new("calc3", 300, vec![direct(p, 49), direct(u, 49), store(v, 49)])
            .with_compute(1, 2)
            .with_batched_uses(),
    );
    let bal = ballast(&mut b, "boundary", 18_000);
    let cold0 = cold_loop(&mut b, "swim_cold0");
    let cold0b = cold_loop(&mut b, "swim_cold0b");
    b.kernel.add_phase(reps(scale, 50), vec![calc1, calc2, calc3, bal, cold0, cold0b]);
    finish(b, "swim", WorkloadKind::Fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seventeen_build_and_validate() {
        let all = suite(0.1);
        assert_eq!(all.len(), 17);
        for w in &all {
            assert!(w.kernel.validate().is_ok(), "{} must validate", w.name);
            assert!(w.arena_bytes > 0);
        }
        let names: std::collections::HashSet<_> = all.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 17, "names must be unique");
    }

    #[test]
    fn suite_matches_paper_patterns() {
        let all = suite(0.1);
        let by = |n: &str| all.iter().find(|w| w.name == n).unwrap();
        // mcf is pointer-chasing only.
        assert!(by("mcf").kernel.lists.len() >= 2);
        // gzip has very few phase reps (too short to optimize).
        assert!(by("gzip").kernel.phases[0].reps < by("swim").kernel.phases[0].reps);
        // lucas/vpr use fp-conversion addressing; gap uses calls.
        let is_hot = |l: &&compiler::LoopSpec| !l.refs.is_empty() && !l.name.contains("_cold");
        assert!(by("lucas")
            .kernel
            .loops
            .iter()
            .filter(is_hot)
            .all(|l| l.complexity == AddrComplexity::FpConversion));
        assert!(by("gap").kernel.loops.iter().any(|l| l.complexity == AddrComplexity::Call));
        // applu batches its uses and has many refs per loop.
        assert!(by("applu")
            .kernel
            .loops
            .iter()
            .filter(is_hot)
            .all(|l| l.batch_uses && l.refs.len() >= 10));
        // fma3d has four phases; facerec/ammp three; art/bzip2/mcf two.
        assert_eq!(by("fma3d").kernel.phases.len(), 4);
        assert_eq!(by("facerec").kernel.phases.len(), 3);
        assert_eq!(by("art").kernel.phases.len(), 2);
    }

    #[test]
    fn every_workload_fits_its_arena_and_lists_are_circular() {
        for w in suite(0.1) {
            // All arrays and lists lie within the declared arena.
            for a in &w.kernel.arrays {
                assert!(
                    a.base + a.bytes() <= sim::DATA_BASE + w.arena_bytes,
                    "{}: array outside arena",
                    w.name
                );
            }
            // Lists are circular and complete after initialization.
            let bin = compiler::compile(&w.kernel, &compiler::CompileOptions::o2()).unwrap();
            let m = w.prepare(&bin, sim::MachineConfig::default());
            for l in &w.kernel.lists {
                let mut p = l.head;
                for _ in 0..l.nodes {
                    p = m.mem().read(p + l.next_offset, 8);
                    assert!(p != 0, "{}: broken list", w.name);
                }
                assert_eq!(p, l.head, "{}: list not circular", w.name);
            }
        }
    }

    #[test]
    fn cold_loops_are_prefetch_bait_not_swp_bait() {
        // Cold loops must be scheduled for static prefetching at O3 but
        // be ineligible for software pipelining (multi-fragment).
        let all = suite(0.1);
        let w = all.iter().find(|w| w.name == "swim").unwrap();
        let o3 = compiler::compile(&w.kernel, &compiler::CompileOptions::o3()).unwrap();
        let cold_names: Vec<_> = o3.loops.iter().filter(|l| l.name.contains("_cold")).collect();
        assert!(!cold_names.is_empty());
        assert!(cold_names.iter().all(|l| l.has_static_prefetch));
        let swp = compiler::compile(&w.kernel, &compiler::CompileOptions::o2_original()).unwrap();
        assert!(swp
            .loops
            .iter()
            .filter(|l| l.name.contains("_cold"))
            .all(|l| !l.software_pipelined));
    }

    #[test]
    fn scaling_changes_reps_only() {
        let small = suite(0.1);
        let big = suite(1.0);
        for (s, b) in small.iter().zip(big.iter()) {
            assert_eq!(s.kernel.loops.len(), b.kernel.loops.len());
            assert!(s.kernel.phases[0].reps <= b.kernel.phases[0].reps);
        }
    }
}
