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
//! The benchmarks run in interleaved rounds (10, or 3 with `--quick`):
//! each round runs every selected benchmark once, so the tiers are
//! compared on numbers taken side by side under the same host load.
//! Every round also asserts that the tiers retired identical
//! instruction counts. A benchmark's `ns_per_element` comes from its
//! fastest round: interference on a shared host only ever adds time,
//! so the minimum is the noise-robust estimate (the median is reported
//! raw in `median_ns`).
//!
//! Run with `cargo bench --bench simulator [-- --quick]`; emits
//! `results/bench_simulator.json`.

use std::hint::black_box;
use std::time::Instant;

use bench_harness::{build, QUICK_SCALE};
use compiler::{CompileOptions, CompiledBinary};
use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
use obs::{Json, Report};
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

/// A benchmark and the wall times of its rounds so far.
struct Bench<'a> {
    name: String,
    /// Elements per run; `None` for the suite tiers, whose element
    /// count is the retired-instruction count they return.
    elements: Option<u64>,
    /// One run; returns the observable (retired instructions,
    /// simulated cycles or a hit count).
    run: Box<dyn Fn() -> u64 + 'a>,
    samples_ns: Vec<u64>,
    value: u64,
}

impl<'a> Bench<'a> {
    fn new(name: &str, elements: Option<u64>, run: impl Fn() -> u64 + 'a) -> Bench<'a> {
        let run = Box::new(run);
        Bench { name: name.to_string(), elements, run, samples_ns: Vec::new(), value: 0 }
    }
}

fn strided_loop(iters: u64) -> u64 {
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
}

fn streaming_loads(n: u64) -> u64 {
    let mut h = Hierarchy::new(CacheConfig::default());
    let mut total = 0u64;
    for i in 0..n {
        total += h.load(0x1000_0000 + i * 64, i * 4, false).latency;
    }
    total
}

fn single_cache_hits(n: u64) -> u64 {
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
}

fn fmt_ns(ns: u64) -> String {
    match ns {
        1_000_000_000.. => format!("{:.3}s", ns as f64 / 1e9),
        1_000_000.. => format!("{:.2}ms", ns as f64 / 1e6),
        1_000.. => format!("{:.2}us", ns as f64 / 1e3),
        _ => format!("{ns}ns"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A bare (non-flag) argument selects benchmarks by substring, e.g.
    // `cargo bench --bench simulator -- --quick strided`.
    let filter = args.iter().find(|a| !a.starts_with("--")).cloned();
    let on = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    let rounds = if args.iter().any(|a| a == "--quick") { 3 } else { 10 };

    // Simulated-instruction throughput over the whole workload suite,
    // once per execution path, compiled outside the timed region. The
    // golden cycle-exactness tests enforce the stronger per-workload
    // claim for the cycle-exact pair; the threaded tier promises
    // architectural state only, and retired counts are architectural.
    let tiers = [ExecPath::Fast, ExecPath::Reference, ExecPath::Threaded];
    let suite_name = |path: ExecPath| format!("machine/suite_insns_{path}");
    let compiled: Vec<(Workload, CompiledBinary)> = if tiers.iter().any(|&p| on(&suite_name(p))) {
        let opts = CompileOptions::default();
        workloads::suite(QUICK_SCALE)
            .into_iter()
            .map(|w| {
                let bin = build(&w, &opts).expect("suite workload compiles");
                (w, bin)
            })
            .collect()
    } else {
        Vec::new()
    };

    let compiled = &compiled;
    let (iters, n) = (100_000u64, 10_000u64);
    let mut benches: Vec<Bench> = tiers
        .into_iter()
        .map(|path| Bench::new(&suite_name(path), None, move || run_suite(compiled, path)))
        .collect();
    benches.push(Bench::new("machine/strided_loop_100k_iters", Some(iters), move || {
        strided_loop(iters)
    }));
    benches
        .push(Bench::new("cache/hierarchy_streaming_loads", Some(n), move || streaming_loads(n)));
    benches.push(Bench::new("cache/single_cache_hits", Some(n), move || single_cache_hits(n)));
    benches.retain(|b| on(&b.name));

    println!("== bench suite `bench_simulator` ({rounds} interleaved rounds) ==");
    for round in 1..=rounds {
        for b in &mut benches {
            let t = Instant::now();
            b.value = black_box((b.run)());
            b.samples_ns.push(t.elapsed().as_nanos() as u64);
        }
        let retired: Vec<u64> =
            benches.iter().filter(|b| b.elements.is_none()).map(|b| b.value).collect();
        assert!(
            retired.windows(2).all(|w| w[0] == w[1]),
            "round {round}: every tier must retire the same instruction count: {retired:?}"
        );
        eprintln!("[bench] round {round}/{rounds} done");
    }

    println!(
        "{:<44} {:>12} {:>12} {:>14} {:>10}",
        "benchmark", "min", "median", "value", "ns/elem"
    );
    let mut rows = Json::array();
    for b in &mut benches {
        b.samples_ns.sort_unstable();
        let (min_ns, median_ns) = (b.samples_ns[0], b.samples_ns[b.samples_ns.len() / 2]);
        let elements = b.elements.unwrap_or(b.value);
        let ns_per_element = min_ns as f64 / elements.max(1) as f64;
        println!(
            "{:<44} {:>12} {:>12} {:>14} {:>10.2}",
            b.name,
            fmt_ns(min_ns),
            fmt_ns(median_ns),
            b.value,
            ns_per_element
        );
        rows.push(
            Json::object()
                .with("name", b.name.as_str())
                .with("min_ns", min_ns)
                .with("median_ns", median_ns)
                .with("value", b.value)
                .with("elements", elements)
                .with("ns_per_element", ns_per_element),
        );
    }

    let mut report = Report::new("bench_simulator");
    report.set("rounds", rounds);
    report.set("benchmarks", rows);
    report.save().expect("write results/bench_simulator.json");
}
