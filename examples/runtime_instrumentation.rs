//! The paper's §6 future work, implemented: selective runtime
//! instrumentation.
//!
//! vpr- and lucas-like loops compute their addresses through fp↔int
//! conversions, so ADORE's dependence slicer cannot recover a stride
//! and the paper reports no gain for them (§4.3). With instrumentation
//! enabled, ADORE patches in a bounded, `p6`-guarded recording store,
//! reads the address stream back a few windows later, finds the
//! dominant stride (Wu-style), and promotes the instrumentation to a
//! real prefetch stream.
//!
//! Run with: `cargo run --release --example runtime_instrumentation`

use adore::{run, AdoreConfig};
use compiler::{compile, CompileOptions};
use sim::MachineConfig;

fn main() {
    let suite = workloads::suite(0.5);
    let w = suite.iter().find(|w| w.name == "lucas").unwrap();
    let bin = compile(&w.kernel, &CompileOptions::o2()).expect("compiles");

    let mut base = w.prepare(&bin, MachineConfig::default());
    base.run_to_halt();
    println!("plain run:                {:>12} cycles", base.cycles());

    // Stock ADORE: the slices are unanalyzable, nothing is inserted.
    let config = AdoreConfig::enabled();
    let mut m = w.prepare(&bin, config.machine_config(MachineConfig::default()));
    let stock = run(&mut m, &config);
    println!(
        "ADORE (paper config):     {:>12} cycles — {} streams, {} unanalyzable skips",
        stock.cycles,
        stock.stats.total(),
        stock
            .decisions
            .iter()
            .filter(|d| {
                matches!(d.outcome, adore::Outcome::Rejected(adore::Rejection::UnanalyzableSlice))
            })
            .count()
    );

    // With instrumentation: record → analyze → promote.
    let mut config = AdoreConfig::enabled();
    config.instrument_unanalyzable = true;
    let mut m = w.prepare(&bin, config.machine_config(MachineConfig::default()));
    let instr = run(&mut m, &config);
    println!(
        "ADORE + instrumentation:  {:>12} cycles — {} loads instrumented, {} promoted",
        instr.cycles, instr.instrumented, instr.promoted
    );
    println!(
        "\nspeedup without instrumentation: {:+.1}%",
        (base.cycles() as f64 / stock.cycles as f64 - 1.0) * 100.0
    );
    println!(
        "speedup with instrumentation:    {:+.1}%",
        (base.cycles() as f64 / instr.cycles as f64 - 1.0) * 100.0
    );
}
