//! Scenario families beyond the paper's 17 SPEC-shaped kernels.
//!
//! The paper's evaluation is all single-phase batch loops — exactly the
//! shapes ADORE's direct/indirect/chase detector already handles. These
//! three families stress what that evaluation never shows the optimizer:
//!
//! * `server` — a request-serving loop drawing keys from a Zipfian
//!   distribution over a hash table plus linked freelists, with load
//!   spikes (a burst phase with a different loop mix) forcing phase
//!   churn;
//! * `graph` — graph analytics (BFS frontier expansion + pagerank
//!   gathers over a CSR layout) dominated by irregular indirect misses;
//! * `gc` — an allocator/GC-style traversal whose mark loop reads
//!   payloads through *jump pointers* (the dependence-based prefetch
//!   shape of the Pointer-Chase Prefetcher literature), plus a sweep
//!   over a shuffled freelist.
//!
//! Every family clears the same correctness gauntlet as the suite:
//! blessed golden cycles on both exec paths, differential-oracle
//! agreement, and byte-identical reports across `--jobs`.

use compiler::{LoopSpec, RefSpec};

use crate::builder::WorkloadBuilder;
use crate::{Workload, WorkloadKind};

fn direct(array: usize, stride_elems: i64) -> RefSpec {
    RefSpec::Direct { array, stride_elems, write: false, alias_ambiguous: false }
}

fn store(array: usize, stride_elems: i64) -> RefSpec {
    RefSpec::Direct { array, stride_elems, write: true, alias_ambiguous: false }
}

/// A cache-resident compute loop (same Amdahl knob as the suite).
fn ballast(b: &mut WorkloadBuilder, name: &str, trip: u64) -> usize {
    b.kernel.add_loop(LoopSpec::new(name, trip, vec![]).with_compute(6, 0))
}

/// A cold static-prefetch-bait loop (see `suite::cold_loop`).
fn cold_loop(b: &mut WorkloadBuilder, name: &str) -> usize {
    let small = b.array(6 << 10, 8, true); // 48 KB, L2-resident
    b.kernel.add_loop(
        LoopSpec::new(name, 2200, vec![direct(small, 1), direct(small, 1)])
            .with_compute(2, 0)
            .with_fragments(2),
    )
}

/// Finishes a family workload, marking every loop with memory
/// references *resumable* (streaming over the footprint, as the suite
/// does).
fn finish(mut b: WorkloadBuilder, name: &'static str, kind: WorkloadKind) -> Workload {
    for l in &mut b.kernel.loops {
        if !l.refs.is_empty() {
            l.resume = true;
        }
    }
    Workload::from_builder(b, name, kind)
}

fn reps(scale: f64, base: u64) -> u64 {
    ((base as f64 * scale) as u64).max(2)
}

/// Builds the three scenario families at the given scale.
pub fn families(scale: f64) -> Vec<Workload> {
    vec![server(scale), graph(scale), gc(scale)]
}

/// Request-serving loop: Zipfian key lookups into an 8 MB hash table
/// plus a linked connection freelist, interrupted by a load-spike phase
/// with a flatter key mix and a log-append store stream. The three
/// phases (steady → spike → steady) force the phase detector through
/// real churn: the spike invalidates the steady profile and the return
/// to steady state must be re-detected and re-optimized.
fn server(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("srv.zipf", 0x5e1f);
    let table = b.array(1 << 20, 8, false); // 8 MB hash table
    let keys = b.zipf_index_array(1 << 18, 1 << 20, 0.85); // hot-key request mix
    let burst_keys = b.zipf_index_array(1 << 18, 1 << 20, 0.55); // flatter spike mix
    let log = b.array(1 << 19, 8, false); // 4 MB append log
    let conns = b.list(24_000, 128, 8); // ~3 MB connection freelist
    let lookup = b.kernel.add_loop(
        LoopSpec::new(
            "req_lookup",
            500,
            vec![RefSpec::Indirect { index_array: keys, data_array: table }],
        )
        .with_compute(4, 0),
    );
    let pop = b.kernel.add_loop(
        LoopSpec::new("conn_pop", 400, vec![RefSpec::PointerChase { list: conns }])
            .with_compute(3, 0),
    );
    let burst = b.kernel.add_loop(
        LoopSpec::new(
            "req_burst",
            900,
            vec![
                RefSpec::Indirect { index_array: burst_keys, data_array: table },
                RefSpec::Indirect { index_array: keys, data_array: table },
            ],
        )
        .with_compute(2, 0)
        .with_batched_uses(),
    );
    let append = b.kernel.add_loop(
        LoopSpec::new("log_append", 400, vec![store(log, 16)]).with_compute(2, 0),
    );
    let bal1 = ballast(&mut b, "parse_request", 30_000);
    let bal2 = ballast(&mut b, "build_response", 30_000);
    let cold0 = cold_loop(&mut b, "server_cold0");
    let cold0b = cold_loop(&mut b, "server_cold0b");
    let cold1 = cold_loop(&mut b, "server_cold1");
    let cold1b = cold_loop(&mut b, "server_cold1b");
    b.kernel.add_phase(reps(scale, 110), vec![lookup, pop, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 60), vec![burst, append, bal2, cold1, cold1b]);
    b.kernel.add_phase(reps(scale, 110), vec![lookup, pop, bal1, cold0, cold0b]);
    finish(b, "server", WorkloadKind::Int)
}

/// Graph analytics over a CSR layout: a BFS phase gathering scattered
/// visited flags through the edge-target array, then a pagerank phase
/// gathering f64 ranks through the same irregular indices. Both phases
/// are dominated by indirect misses whose index stream is sequential —
/// the shape ADORE's indirect-array prefetching targets.
fn graph(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("graph.csr", 0xc5a);
    let row_ptr = b.array(1 << 18, 4, false); // CSR row offsets
    let col_idx = b.index_array(1 << 19, 1 << 19); // edge targets, uniform
    let visited = b.array(1 << 19, 4, false); // BFS visited flags
    let ranks = b.array(1 << 19, 8, true); // 4 MB f64 ranks
    let contrib = b.array(1 << 19, 8, true);
    let bfs = b.kernel.add_loop(
        LoopSpec::new(
            "bfs_frontier",
            500,
            vec![direct(row_ptr, 2), RefSpec::Indirect { index_array: col_idx, data_array: visited }],
        )
        .with_compute(3, 0),
    );
    let gather = b.kernel.add_loop(
        LoopSpec::new(
            "pagerank_gather",
            500,
            vec![RefSpec::Indirect { index_array: col_idx, data_array: ranks }],
        )
        .with_compute(1, 3),
    );
    let update = b.kernel.add_loop(
        LoopSpec::new("rank_update", 400, vec![direct(ranks, 24), store(contrib, 24)])
            .with_compute(1, 2),
    );
    let bal1 = ballast(&mut b, "frontier_queue", 30_000);
    let bal2 = ballast(&mut b, "dangling_sum", 30_000);
    let cold0 = cold_loop(&mut b, "graph_cold0");
    let cold0b = cold_loop(&mut b, "graph_cold0b");
    let cold1 = cold_loop(&mut b, "graph_cold1");
    let cold1b = cold_loop(&mut b, "graph_cold1b");
    b.kernel.add_phase(reps(scale, 100), vec![bfs, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 100), vec![gather, update, bal2, cold1, cold1b]);
    finish(b, "graph", WorkloadKind::Fp)
}

/// Allocator/GC-style traversal: the mark loop walks a ~4 MB object
/// graph reading each object's payload through a *jump pointer* stored
/// eight hops ahead in traversal order ([`RefSpec::JumpPointer`]) — the
/// dependence-based shape plain induction-pointer extrapolation cannot
/// cover — and the sweep phase chases a heavily shuffled freelist while
/// scrubbing a card table.
fn gc(scale: f64) -> Workload {
    let mut b = WorkloadBuilder::new("gc.sweep", 0x6c5);
    let heap = b.jump_list(32_000, 128, 12, 8); // ~4 MB object graph
    let free = b.list(20_000, 64, 4); // shuffled freelist
    let cards = b.array(1 << 18, 4, false); // 1 MB card table
    let mark = b.kernel.add_loop(
        LoopSpec::new(
            "mark_objects",
            600,
            vec![RefSpec::JumpPointer { list: heap, jump_offset: 16 }],
        )
        .with_compute(4, 0),
    );
    let sweep = b.kernel.add_loop(
        LoopSpec::new("sweep_freelist", 500, vec![RefSpec::PointerChase { list: free }])
            .with_compute(3, 0),
    );
    let scrub = b.kernel.add_loop(
        LoopSpec::new("card_scan", 300, vec![direct(cards, 32), store(cards, 32)])
            .with_compute(2, 0),
    );
    let bal1 = ballast(&mut b, "write_barrier", 30_000);
    let bal2 = ballast(&mut b, "finalizers", 30_000);
    let cold0 = cold_loop(&mut b, "gc_cold0");
    let cold0b = cold_loop(&mut b, "gc_cold0b");
    let cold1 = cold_loop(&mut b, "gc_cold1");
    let cold1b = cold_loop(&mut b, "gc_cold1b");
    b.kernel.add_phase(reps(scale, 120), vec![mark, bal1, cold0, cold0b]);
    b.kernel.add_phase(reps(scale, 120), vec![sweep, scrub, bal2, cold1, cold1b]);
    finish(b, "gc", WorkloadKind::Int)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_build_validate_and_stay_disjoint_from_the_suite() {
        let fams = families(0.1);
        assert_eq!(fams.len(), 3);
        let suite_names: std::collections::HashSet<_> =
            crate::suite(0.1).iter().map(|w| w.name).collect();
        for w in &fams {
            assert!(w.kernel.validate().is_ok(), "{} must validate", w.name);
            assert!(w.arena_bytes > 0);
            assert!(!suite_names.contains(w.name), "{} collides with the suite", w.name);
        }
        let names: std::collections::HashSet<_> = fams.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn families_match_their_scenario_shapes() {
        let fams = families(0.1);
        let by = |n: &str| fams.iter().find(|w| w.name == n).unwrap();
        // server: 3 phases (steady → spike → steady) with an indirect
        // Zipf lookup and a freelist chase.
        let server = by("server");
        assert_eq!(server.kernel.phases.len(), 3);
        assert!(server.kernel.lists.len() >= 1);
        assert!(server.kernel.loops.iter().any(|l| l.name == "req_burst"));
        // graph: indirect-dominated, two phases.
        let graph = by("graph");
        assert_eq!(graph.kernel.phases.len(), 2);
        let indirects = graph
            .kernel
            .loops
            .iter()
            .flat_map(|l| &l.refs)
            .filter(|r| matches!(r, RefSpec::Indirect { .. }))
            .count();
        assert!(indirects >= 2);
        // gc: the mark loop reads through a jump pointer.
        let gc = by("gc");
        assert!(gc
            .kernel
            .loops
            .iter()
            .flat_map(|l| &l.refs)
            .any(|r| matches!(r, RefSpec::JumpPointer { .. })));
    }

    #[test]
    fn family_lists_are_circular_and_jump_pointers_resolve() {
        for w in families(0.05) {
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
            // Every jump pointer must land on a live node of its list.
            for loop_spec in &w.kernel.loops {
                for r in &loop_spec.refs {
                    if let RefSpec::JumpPointer { list, jump_offset } = *r {
                        let l = &w.kernel.lists[list];
                        let mut p = l.head;
                        for _ in 0..l.nodes.min(256) {
                            let jump = m.mem().read(p + jump_offset, 8);
                            assert!(jump != 0, "{}: null jump pointer", w.name);
                            p = m.mem().read(p + l.next_offset, 8);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn families_run_to_halt_on_both_exec_paths() {
        for w in families(0.02) {
            let bin = compiler::compile(&w.kernel, &compiler::CompileOptions::o2()).unwrap();
            for path in [sim::ExecPath::Fast, sim::ExecPath::Reference] {
                let mut config = sim::MachineConfig::default();
                config.exec_path = path;
                let mut m = w.prepare(&bin, config);
                m.run_to_halt();
                assert!(m.is_halted(), "{} must halt on {path}", w.name);
            }
        }
    }
}
