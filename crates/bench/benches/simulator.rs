//! Throughput of the simulator substrate itself: how fast the machine
//! interprets bundles and the cache hierarchy services accesses.
//!
//! The headline benchmarks run the full 17-workload suite (quick scale)
//! once per [`ExecPath`] and report simulated instructions per second —
//! `elements` is the total retired count, so `ns_per_element` in
//! `results/bench_simulator.json` is nanoseconds per simulated
//! instruction. ci.sh gates the fast and threaded rows on their
//! speedup over the reference row (at least 2x and 4x) and prints the
//! threaded:fast ratio without a gate.
//!
//! Run with `cargo bench --bench simulator [-- --quick]`; emits
//! `results/bench_simulator.json`.

use bench_harness::{build, QUICK_SCALE};
use compiler::{CompileOptions, CompiledBinary};
use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
use obs::{BenchConfig, BenchSuite};
use sim::{Cache, CacheConfig, ExecPath, Hierarchy, Machine, MachineConfig, StopReason};
use workloads::Workload;

/// One full pass over the compiled suite on the given path; returns
/// total retired instructions (the benchmark value).
fn run_suite(compiled: &[(Workload, CompiledBinary)], path: ExecPath) -> u64 {
    let mut retired = 0u64;
    for (w, bin) in compiled {
        let mut config = MachineConfig::default();
        config.exec_path = path;
        let mut m = w.prepare(bin, config);
        assert_eq!(
            m.run(u64::MAX),
            StopReason::Halted,
            "suite workload {} must halt",
            w.name
        );
        retired += m.retired();
    }
    retired
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A bare (non-flag) argument selects benchmarks by substring, e.g.
    // `cargo bench --bench simulator -- --quick strided`.
    let filter = args.iter().find(|a| !a.starts_with("--")).cloned();
    let on = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    let mut suite = BenchSuite::new("bench_simulator", BenchConfig::from_args(&args));

    // Simulated-instruction throughput over the whole workload suite,
    // once per execution path. Compiled outside the timed region; the
    // retired counts of all paths must match exactly (the golden
    // cycle-exactness tests enforce the stronger per-workload claim for
    // the cycle-exact pair; the threaded tier promises architectural
    // state only, and retired counts are architectural).
    if on("machine/suite_insns_fast")
        || on("machine/suite_insns_reference")
        || on("machine/suite_insns_threaded")
    {
        let opts = CompileOptions::default();
        let compiled: Vec<(Workload, CompiledBinary)> = workloads::suite(QUICK_SCALE)
            .into_iter()
            .map(|w| {
                let bin = build(&w, &opts).expect("suite workload compiles");
                (w, bin)
            })
            .collect();
        let total_insns = run_suite(&compiled, ExecPath::Fast);
        assert_eq!(
            total_insns,
            run_suite(&compiled, ExecPath::Reference),
            "fast and reference paths must retire identical instruction counts"
        );
        assert_eq!(
            total_insns,
            run_suite(&compiled, ExecPath::Threaded),
            "threaded tier must retire identical instruction counts"
        );

        if on("machine/suite_insns_fast") {
            suite.throughput(total_insns);
            suite.bench("machine/suite_insns_fast", || {
                run_suite(&compiled, ExecPath::Fast)
            });
        }
        if on("machine/suite_insns_reference") {
            suite.throughput(total_insns);
            suite.bench("machine/suite_insns_reference", || {
                run_suite(&compiled, ExecPath::Reference)
            });
        }
        if on("machine/suite_insns_threaded") {
            suite.throughput(total_insns);
            suite.bench("machine/suite_insns_threaded", || {
                run_suite(&compiled, ExecPath::Threaded)
            });
        }
    }

    let iters = 100_000u64;
    if on("machine/strided_loop_100k_iters") {
        suite.throughput(iters);
        suite.bench("machine/strided_loop_100k_iters", || {
            let mut a = Asm::new();
            a.movl(Gr(14), 0x1000_0000);
            a.movl(Gr(9), iters as i64);
            a.label("loop");
            a.ld(AccessSize::U8, Gr(20), Gr(14), 8);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            a.halt();
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), MachineConfig::default());
            m.mem_mut().alloc(iters * 8 + 4096, 64);
            m.run(u64::MAX);
            m.cycles()
        });
    }

    let n = 10_000u64;
    if on("cache/hierarchy_streaming_loads") {
        suite.throughput(n);
        suite.bench("cache/hierarchy_streaming_loads", || {
            let mut h = Hierarchy::new(CacheConfig::default());
            let mut total = 0u64;
            for i in 0..n {
                total += h.load(0x1000_0000 + i * 64, i * 4, false).latency;
            }
            total
        });
    }

    if on("cache/single_cache_hits") {
        suite.throughput(n);
        suite.bench("cache/single_cache_hits", || {
            let mut cache = Cache::new("bench", 16 * 1024, 64, 4);
            for i in 0..128u64 {
                cache.fill(i * 64);
            }
            let mut hits = 0u64;
            for i in 0..n {
                if cache.access((i % 128) * 64) {
                    hits += 1;
                }
            }
            hits
        });
    }

    suite.save().expect("write results/bench_simulator.json");
}
