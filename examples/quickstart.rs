//! Quickstart: assemble a hot loop with heavy cache misses, run it on
//! the Itanium-2-like simulator, then run it again under ADORE and watch
//! runtime prefetching cut the cycle count.
//!
//! Run with: `cargo run --release --example quickstart`

use adore::{run, AdoreConfig};
use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
use sim::{Machine, MachineConfig};

fn program() -> isa::Program {
    // for rep in 0..60 { for i in 0..40_000 { sum += a[i * 8] } }
    // — a strided walk whose stride (64 B) touches a new cache line
    // every iteration.
    let mut a = Asm::new();
    a.global("main");
    a.movl(Gr(8), 60);
    a.label("outer");
    a.movl(Gr(14), 0x1000_0000);
    a.movl(Gr(9), 40_000);
    a.label("loop");
    a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
    a.add(Gr(21), Gr(20), Gr(21));
    a.addi(Gr(9), Gr(9), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
    a.br_cond(Pr(1), "loop");
    a.addi(Gr(8), Gr(8), -1);
    a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(8), 0);
    a.br_cond(Pr(1), "outer");
    a.halt();
    a.finish(CODE_BASE).expect("assembles")
}

fn main() {
    let arena = 40_016u64 * 64;

    // 1. Plain run: every iteration stalls on a memory miss.
    let mut plain = Machine::new(program(), MachineConfig::default());
    plain.mem_mut().alloc(arena, 64);
    plain.run(u64::MAX);
    println!(
        "plain run:  {:>12} cycles  (CPI {:.2})",
        plain.cycles(),
        plain.cycles() as f64 / plain.retired() as f64
    );

    // 2. The same binary under ADORE: the PMU samples cache misses, the
    //    phase detector finds the stable loop, the optimizer builds a
    //    trace, classifies the delinquent load as a direct array
    //    reference, inserts an `lfetch` stream and patches the binary.
    let mut config = AdoreConfig::enabled();
    config.sampling.interval_cycles = 2_000;
    let mut machine = Machine::new(program(), config.machine_config(MachineConfig::default()));
    machine.mem_mut().alloc(arena, 64);
    let report = run(&mut machine, &config);

    println!(
        "under ADORE:{:>12} cycles  (CPI {:.2})",
        report.cycles,
        report.cycles as f64 / report.retired as f64
    );
    println!(
        "  phases optimized: {}, traces patched: {}, prefetch streams: {:?}",
        report.phases_optimized, report.traces_patched, report.stats
    );
    let speedup = plain.cycles() as f64 / report.cycles as f64;
    println!("  speedup: {:.2}x", speedup);
    assert!(speedup > 1.1, "runtime prefetching should win here");
}
