//! Pointer chasing à la 181.mcf (the paper's Fig. 5 C / Fig. 6 C): a
//! linked list allocated mostly in traversal order. Static prefetching
//! is helpless; ADORE's induction-pointer scheme — snapshot the
//! recurrent pointer, measure the per-iteration delta, extrapolate a
//! few nodes ahead — hides most of the miss latency.
//!
//! The second phase is the harder, dependence-based variant: each node
//! also stores a *jump pointer* to a node several hops ahead, and the
//! payload is read through that pointer (`q = p->jump; use
//! q->payload; p = p->next`). The delinquent load's address comes from
//! an intermediate load, so induction-pointer extrapolation does not
//! apply either — ADORE classifies it as `Pattern::JumpPointer` and
//! prefetches through the jump pointer itself.
//!
//! Run with: `cargo run --release --example pointer_chasing`

use adore::{run, AdoreConfig};
use compiler::{compile, CompileOptions, Kernel, ListDecl, LoopSpec, RefSpec};
use sim::{MachineConfig, Memory};

fn main() {
    // A 6 MB circular list, nodes 128 bytes apart in traversal order
    // except for an occasional discontinuity (allocation order ≈
    // traversal order, as in mcf's arc arrays).
    let nodes: u64 = 48_000;
    let node_bytes: u64 = 128;
    let head: u64 = sim::DATA_BASE;
    // A second pool right behind the first for the jump-pointer phase.
    let jhead: u64 = head + nodes * node_bytes;
    let hops: u64 = 12;

    let mut k = Kernel::new("chase-example");
    let list = k.add_list(ListDecl { head, node_bytes, next_offset: 0, payload_offset: 8, nodes });
    let l = k.add_loop(
        LoopSpec::new("walk", 800, vec![RefSpec::PointerChase { list }])
            .with_compute(4, 0)
            .with_resume(),
    );
    k.add_phase(120, vec![l]);

    // Jump-pointer mark loop: next at offset 0, jump pointer at 8,
    // payload read through the jump pointer at offset 24.
    let jlist =
        k.add_list(ListDecl { head: jhead, node_bytes, next_offset: 0, payload_offset: 24, nodes });
    let jl = k.add_loop(
        LoopSpec::new("mark", 800, vec![RefSpec::JumpPointer { list: jlist, jump_offset: 8 }])
            .with_compute(4, 0)
            .with_resume(),
    );
    k.add_phase(120, vec![jl]);

    let bin = compile(&k, &CompileOptions::o2()).expect("compiles");
    // O3 would schedule nothing for either loop:
    let o3 = compile(&k, &CompileOptions::o3()).expect("compiles");
    assert_eq!(o3.prefetched_loops, 0, "static prefetching cannot handle pointer chasing");

    let init_lists = |mem: &mut Memory| {
        // Mostly-sequential layout: runs of 64 nodes, runs shuffled by a
        // fixed stride permutation.
        let run_len = 64u64;
        let n_runs = nodes / run_len;
        let order: Vec<u64> = (0..n_runs)
            .map(|r| (r * 7 + 3) % n_runs) // simple run permutation
            .flat_map(|r| r * run_len..(r + 1) * run_len)
            .collect();
        let n = order.len();
        for i in 0..n {
            let node = head + order[i] * node_bytes;
            let next = head + order[(i + 1) % n] * node_bytes;
            mem.write(node, 8, next);
            mem.write(node + 8, 8, order[i]);

            let jnode = jhead + order[i] * node_bytes;
            let jnext = jhead + order[(i + 1) % n] * node_bytes;
            let jump = jhead + order[(i + hops as usize) % n] * node_bytes;
            mem.write(jnode, 8, jnext);
            mem.write(jnode + 8, 8, jump);
            mem.write(jnode + 24, 8, order[i]);
        }
    };

    let mut cfg = MachineConfig::default();
    cfg.mem_capacity = (2 * nodes * node_bytes + 4096) as usize;
    let mut plain = sim::Machine::new(bin.program.clone(), cfg.clone());
    init_lists(plain.mem_mut());
    plain.run(u64::MAX);
    println!("plain chase:   {:>12} cycles", plain.cycles());

    let mut aconfig = AdoreConfig::enabled();
    aconfig.sampling.interval_cycles = 2_000;
    let mut machine = sim::Machine::new(bin.program, aconfig.machine_config(cfg));
    init_lists(machine.mem_mut());
    let report = run(&mut machine, &aconfig);
    println!(
        "under ADORE:   {:>12} cycles ({} pointer-chasing, {} jump-pointer stream(s))",
        report.cycles, report.stats.pointer, report.stats.jump
    );
    assert!(report.stats.pointer >= 1, "the chase should be detected and prefetched");
    assert!(report.stats.jump >= 1, "the jump-pointer loop should be detected and prefetched");
    println!("speedup: {:.2}x", plain.cycles() as f64 / report.cycles as f64);
}
