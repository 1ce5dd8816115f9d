//! Property-based tests over the core data structures and invariants.
//!
//! Previously written with `proptest`; now driven by deterministic
//! seeded loops over the in-repo [`workloads::Rng64`] generator (the
//! zero-dependency policy — see README.md). Each property runs at
//! least as many cases as `proptest`'s default (256), every case is
//! reproducible from the printed case number, and the invariants are
//! unchanged.

use isa::{AccessSize, Addr, Asm, Bundle, CmpOp, Gr, Insn, Op, Pr, SlotKind, CODE_BASE};
use sim::{Cache, Machine, MachineConfig, Memory};
use workloads::Rng64;

/// Cases per property — matches `proptest`'s default configuration.
const CASES: u64 = 256;

/// A fresh generator for case `case` of the property seeded `seed`, so
/// any single failing case can be re-run in isolation.
fn case_rng(seed: u64, case: u64) -> Rng64 {
    Rng64::new(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// An arbitrary non-branch, non-L instruction for packing tests
/// (the same five shapes the old `arb_insn` strategy produced).
fn arb_insn(rng: &mut Rng64) -> Insn {
    match rng.below(5) {
        0 => Insn::new(Op::Add {
            d: Gr(rng.range_u64(1, 120) as u8),
            a: Gr(rng.range_u64(1, 120) as u8),
            b: Gr(rng.range_u64(1, 120) as u8),
        }),
        1 => Insn::new(Op::AddI {
            d: Gr(rng.range_u64(1, 120) as u8),
            a: Gr(rng.range_u64(1, 120) as u8),
            imm: rng.range_i64(-64, 64),
        }),
        2 => Insn::new(Op::Ld {
            d: Gr(rng.range_u64(1, 120) as u8),
            base: Gr(rng.range_u64(1, 120) as u8),
            post_inc: rng.range_i64(0, 128),
            size: AccessSize::U8,
            spec: false,
        }),
        3 => Insn::new(Op::Lfetch {
            base: Gr(rng.range_u64(1, 120) as u8),
            post_inc: rng.range_i64(0, 128),
        }),
        _ => {
            let d = rng.range_u64(2, 120) as u8;
            Insn::new(Op::Fma {
                d: isa::Fr(d),
                a: isa::Fr(rng.range_u64(2, 120) as u8),
                b: isa::Fr(rng.range_u64(2, 120) as u8),
                c: isa::Fr(d),
            })
        }
    }
}

fn arb_insns(rng: &mut Rng64, lo: u64, hi: u64) -> Vec<Insn> {
    let n = rng.range_u64(lo, hi);
    (0..n).map(|_| arb_insn(rng)).collect()
}

/// Every instruction sequence the assembler accepts survives packing:
/// the program contains exactly the input instructions, in order, with
/// only nops interleaved.
#[test]
fn assembler_preserves_instruction_order() {
    for case in 0..CASES {
        let mut rng = case_rng(0xA55E_3B1E, case);
        let insns = arb_insns(&mut rng, 1, 40);
        let mut a = Asm::new();
        for i in &insns {
            a.emit(*i);
        }
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let emitted: Vec<Insn> = p
            .bundles()
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|i| !i.is_nop() && !matches!(i.op, Op::Halt))
            .copied()
            .collect();
        assert_eq!(emitted, insns, "case {case}");
    }
}

/// Bundle packing always produces a template whose slot kinds match the
/// placed instructions.
#[test]
fn packed_bundles_are_template_consistent() {
    for case in 0..CASES {
        let mut rng = case_rng(0x7E3A_91D2, case);
        let insns = arb_insns(&mut rng, 1, 3);
        if let Some(b) = Bundle::pack(&insns) {
            let kinds = b.template.kinds();
            for (i, slot) in b.slots.iter().enumerate() {
                assert_eq!(slot.op.slot_kind(), kinds[i], "case {case} slot {i}");
            }
        }
    }
}

/// Memory reads return exactly what was written, at every size.
#[test]
fn memory_round_trips() {
    for case in 0..CASES {
        let mut rng = case_rng(0x11AA_22BB, case);
        let offset = rng.below(3000);
        let value = rng.next_u64();
        let size = *rng.choose(&[1u64, 2, 4, 8]);
        let mut m = Memory::new(8192);
        let base = m.alloc(4096, 64);
        m.write(base + offset, size, value);
        let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
        assert_eq!(m.read(base + offset, size), value & mask, "case {case}");
    }
}

/// A line just filled always probes present; a cache never reports more
/// than `ways` distinct lines per set.
#[test]
fn cache_fill_then_probe() {
    for case in 0..CASES {
        let mut rng = case_rng(0xCAC4_E001, case);
        let n = rng.range_u64(1, 200);
        let mut c = Cache::new("t", 4096, 64, 4);
        for _ in 0..n {
            let a = rng.below(1 << 24);
            c.fill(a);
            assert!(c.probe(a), "case {case}: a freshly filled line must be present");
        }
    }
}

/// LRU: within one set, the most recently touched `ways` lines are all
/// retained.
#[test]
fn cache_retains_most_recent_ways() {
    for case in 0..CASES {
        let mut rng = case_rng(0xCAC4_E002, case);
        let ways = 4usize;
        // One-set cache: 64-byte lines, 4 ways, 256 bytes.
        let mut c = Cache::new("t", 256, 64, ways);
        let line = |t: u64| t * 64; // all map to set 0 (1 set)
        let tags: Vec<u64> = (0..rng.range_u64(8, 64)).map(|_| rng.below(32)).collect();
        for &t in &tags {
            c.fill(line(t));
        }
        // The last `ways` *distinct* tags must be present.
        let mut seen = Vec::new();
        for &t in tags.iter().rev() {
            if !seen.contains(&t) {
                seen.push(t);
            }
            if seen.len() == ways {
                break;
            }
        }
        for &t in &seen {
            assert!(c.probe(line(t)), "case {case}: recently used tag {t} evicted");
        }
    }
}

/// CmpOp semantics agree with Rust's operators.
#[test]
fn cmp_matches_rust() {
    for case in 0..CASES {
        let mut rng = case_rng(0xC0DE_CA5E, case);
        let a = rng.next_u64() as i64;
        let b = if rng.bool() { rng.next_u64() as i64 } else { a };
        assert_eq!(CmpOp::Eq.eval(a, b), a == b, "case {case}");
        assert_eq!(CmpOp::Ne.eval(a, b), a != b, "case {case}");
        assert_eq!(CmpOp::Lt.eval(a, b), a < b, "case {case}");
        assert_eq!(CmpOp::Le.eval(a, b), a <= b, "case {case}");
        assert_eq!(CmpOp::Gt.eval(a, b), a > b, "case {case}");
        assert_eq!(CmpOp::Ge.eval(a, b), a >= b, "case {case}");
        assert_eq!(CmpOp::Ltu.eval(a, b), (a as u64) < (b as u64), "case {case}");
    }
}

/// The machine computes strided sums correctly for arbitrary strides
/// and trip counts (functional correctness of the interpreter).
#[test]
fn machine_computes_strided_sums() {
    for case in 0..CASES {
        let mut rng = case_rng(0x5724_1DE5, case);
        let trip = rng.range_i64(1, 200);
        let stride = rng.range_i64(1, 4) * 64;
        let seed = rng.next_u64();
        let mut a = Asm::new();
        a.movl(Gr(14), 0x1000_0000);
        a.movl(Gr(9), trip);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(20), Gr(14), stride);
        a.add(Gr(21), Gr(20), Gr(21));
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        let mut m = Machine::new(p, MachineConfig::default());
        m.mem_mut().alloc((trip * stride) as u64 + 4096, 64);
        let mut expected = 0u64;
        for i in 0..trip {
            let v = seed.wrapping_mul(i as u64 + 1) & 0xffff;
            m.mem_mut().write(0x1000_0000 + (i * stride) as u64, 8, v);
            expected = expected.wrapping_add(v);
        }
        m.run(u64::MAX);
        assert_eq!(m.gr(Gr(21)) as u64, expected, "case {case}");
    }
}

/// Running a machine in arbitrary seeded `cycle_limit` chunks reaches
/// exactly the same architectural and timing state as one
/// uninterrupted run — on every execution tier. This is the
/// resumability contract ADORE's sampling windows rely on: stopping at
/// a cycle limit and resuming must be invisible to the program. The
/// threaded tier promises architectural state only (chunk boundaries
/// may land mid-region and change what gets compiled, hence its cycle
/// accounting), so its timing comparisons are skipped.
///
/// Half the cases also sample, with a small random buffer, so cycle
/// limits and sample-buffer overflows interleave at random points:
/// both runs drain the buffer at every overflow, and on the
/// cycle-exact tiers their sample streams must match too.
#[test]
fn chunked_runs_equal_uninterrupted_runs() {
    use sim::{ExecPath, SamplingConfig, StopReason};
    type Samples = Vec<(u64, isa::Pc, u64)>;
    type Stops = Vec<(StopReason, u64, u64)>;
    /// Runs `m` to halt in chunks of seeded length (`u64::MAX` for one
    /// uninterrupted run), draining the sample buffer at every overflow;
    /// returns the sample stream as (cycles, pc, retired) and every
    /// stop as (reason, cycles, retired).
    fn run_chunked(
        m: &mut Machine,
        mut next_chunk: impl FnMut() -> u64,
        case: u64,
    ) -> (Samples, Stops) {
        let mut samples = Vec::new();
        let mut stops = Vec::new();
        let mut limit = 0u64;
        loop {
            // `run`'s cycle limit is an absolute cycle count, so each
            // chunk advances the horizon by an arbitrary seeded step.
            limit = limit.saturating_add(next_chunk());
            let stop = m.run(limit);
            stops.push((stop, m.cycles(), m.retired()));
            samples.extend(
                m.drain_samples()
                    .iter()
                    .map(|s| (s.cycles, s.pc, s.retired)),
            );
            match stop {
                StopReason::CycleLimit | StopReason::SampleBufferOverflow => continue,
                StopReason::Halted => return (samples, stops),
                other => panic!("case {case}: unexpected stop {other:?}"),
            }
        }
    }
    for case in 0..CASES {
        let mut rng = case_rng(0xC1C1_E7E5, case);
        let trip = rng.range_i64(1, 300);
        let stride = rng.range_i64(1, 4) * 64;
        let path = *rng.choose(&ExecPath::ALL);
        let mut srng = case_rng(0x5A3F_1E5D, case);
        let sampling = srng.bool().then(|| SamplingConfig {
            interval_cycles: srng.range_u64(20, 500),
            buffer_capacity: srng.range_u64(1, 8) as usize,
            per_sample_cost: srng.range_u64(0, 40),
            jitter: 0.3,
            seed: case,
        });
        let build = |path: ExecPath| {
            let mut a = Asm::new();
            a.movl(Gr(14), 0x1000_0000);
            a.movl(Gr(9), trip);
            a.label("loop");
            a.ld(AccessSize::U8, Gr(20), Gr(14), stride);
            a.add(Gr(21), Gr(20), Gr(21));
            a.addi(Gr(9), Gr(9), -1);
            a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
            a.br_cond(Pr(1), "loop");
            a.halt();
            let config = MachineConfig {
                exec_path: path,
                sampling: sampling.clone(),
                ..MachineConfig::default()
            };
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), config);
            m.mem_mut().alloc((trip * stride) as u64 + 4096, 64);
            for i in 0..trip {
                m.mem_mut().write(0x1000_0000 + (i * stride) as u64, 8, i as u64 + 7);
            }
            m
        };

        let mut whole = build(path);
        let (whole_samples, _) = run_chunked(&mut whole, || u64::MAX, case);

        let mut chunked = build(path);
        let mut chunks = Vec::new();
        let (chunked_samples, chunked_stops) = run_chunked(
            &mut chunked,
            || {
                let chunk = rng.range_u64(1, 2_000);
                chunks.push(chunk);
                chunk
            },
            case,
        );

        // Equal final states do not show *where* each chunk stopped: a
        // cycle-exact tier must stop on the same cycle and retired count
        // as the reference tier, which returns to the drive loop after
        // every bundle, under the same chunk limits.
        if path == ExecPath::Fast {
            let mut reference = build(ExecPath::Reference);
            let mut replay = chunks.iter().copied();
            let (_, reference_stops) = run_chunked(
                &mut reference,
                || replay.next().unwrap_or(u64::MAX),
                case,
            );
            assert_eq!(chunked_stops, reference_stops, "case {case} ({path})");
        }

        assert_eq!(whole.retired(), chunked.retired(), "case {case} ({path})");
        assert_eq!(whole.gr(Gr(21)), chunked.gr(Gr(21)), "case {case} ({path})");
        if path.is_cycle_exact() {
            assert_eq!(whole_samples, chunked_samples, "case {case} ({path})");
            assert_eq!(whole.cycles(), chunked.cycles(), "case {case} ({path})");
            assert_eq!(
                whole.pmu().counters,
                chunked.pmu().counters,
                "case {case} ({path})"
            );
            assert_eq!(
                whole.caches().cache_stats(),
                chunked.caches().cache_stats(),
                "case {case} ({path})"
            );
        }
    }
}

/// The chunked-run resumability contract holds for the real scenario
/// families too, not just synthetic strided loops: running `server`,
/// `graph` and `gc` to completion in arbitrary seeded cycle-limit
/// chunks reaches exactly the same timing and architectural state as
/// one uninterrupted run, on every execution tier. The threaded tier
/// is held to its architectural contract only (retired count and
/// halting), plus cross-tier agreement of the retired count with the
/// cycle-exact paths. This is what lets ADORE's sampling windows slice
/// family executions invisibly.
#[test]
fn family_chunked_runs_equal_uninterrupted_runs() {
    use compiler::{compile, CompileOptions};
    use sim::{ExecPath, StopReason};
    for (wi, w) in workloads::families(0.02).iter().enumerate() {
        let bin = compile(&w.kernel, &CompileOptions::o2())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut retired_by_tier: Vec<u64> = Vec::new();
        for path in ExecPath::ALL {
            let build = || {
                let mut config = MachineConfig::default();
                config.exec_path = path;
                w.prepare(&bin, config)
            };
            let mut whole = build();
            assert_eq!(whole.run(u64::MAX), StopReason::Halted, "{} ({path})", w.name);
            retired_by_tier.push(whole.retired());

            for case in 0..2u64 {
                let mut rng = case_rng(0xFA01_11E5 ^ wi as u64, case);
                let mut chunked = build();
                let mut limit = 0u64;
                loop {
                    limit += rng.range_u64(500, 50_000);
                    match chunked.run(limit) {
                        StopReason::CycleLimit => continue,
                        StopReason::Halted => break,
                        other => panic!("{} case {case}: unexpected stop {other:?}", w.name),
                    }
                }
                assert_eq!(whole.retired(), chunked.retired(), "{} case {case} ({path})", w.name);
                if !path.is_cycle_exact() {
                    continue;
                }
                assert_eq!(whole.cycles(), chunked.cycles(), "{} case {case} ({path})", w.name);
                assert_eq!(
                    whole.pmu().counters,
                    chunked.pmu().counters,
                    "{} case {case} ({path})",
                    w.name
                );
                assert_eq!(
                    whole.caches().cache_stats(),
                    chunked.caches().cache_stats(),
                    "{} case {case} ({path})",
                    w.name
                );
            }
        }
        assert!(
            retired_by_tier.windows(2).all(|p| p[0] == p[1]),
            "{}: all tiers must retire identical instruction counts: {retired_by_tier:?}",
            w.name
        );
    }
}

/// The Zipfian request generator is a pure function of its seed: equal
/// (n, theta, seed) triples yield identical in-range key streams — and
/// the family-level consequence, that replaying the server workload's
/// init plan twice fills two arenas bit-identically, holds too. This
/// is what makes the server family's skewed request streams (and so
/// its golden snapshots) reproducible.
#[test]
fn zipfian_request_streams_are_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng(0x21BF_5E1F, case);
        let n = rng.range_u64(16, 1 << 20);
        let theta = 0.30 + rng.f64() * 0.65;
        let seed = rng.next_u64();
        let za = workloads::Zipfian::new(n, theta);
        let zb = workloads::Zipfian::new(n, theta);
        let mut ra = Rng64::new(seed);
        let mut rb = Rng64::new(seed);
        for draw in 0..64 {
            let ka = za.next(&mut ra);
            assert_eq!(ka, zb.next(&mut rb), "case {case} draw {draw}");
            assert!(ka < n, "case {case} draw {draw}: key {ka} out of range {n}");
        }
    }

    let server = workloads::by_name("server", 0.05).expect("server family exists");
    let fill = || {
        let mut m = Memory::new(server.arena_bytes as usize);
        m.alloc(server.arena_bytes, 64);
        for init in &server.inits {
            init.apply(&mut m);
        }
        m
    };
    // `Memory` equality: every byte plus the bump pointer.
    assert_eq!(fill(), fill(), "server init replay must be bit-identical");
}

/// Pattern classification recovers the exact stride of any direct
/// post-increment walk.
#[test]
fn classifier_recovers_arbitrary_strides() {
    for case in 0..CASES {
        let mut rng = case_rng(0xC1A5_51FE, case);
        let stride = rng.range_i64(1, 4096);
        let mut a = Asm::new();
        a.label("l");
        a.ld(AccessSize::U8, Gr(20), Gr(14), stride);
        a.add(Gr(21), Gr(20), Gr(21));
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "l");
        let p = a.finish(CODE_BASE).unwrap();
        let bundles: Vec<Bundle> = p.bundles().to_vec();
        let n = bundles.len();
        let trace = adore::Trace {
            start: Addr(CODE_BASE),
            origins: (0..n).map(|i| p.addr_of(i)).collect(),
            fall_through_exit: Addr(CODE_BASE + 16 * n as u64),
            is_loop: true,
            back_edge: None,
            bundles,
        };
        // Find the load.
        let mut pos = None;
        for (bi, b) in trace.bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::Ld { .. }) {
                    pos = Some((bi, si as u8));
                }
            }
        }
        match adore::classify(&trace, pos.unwrap()) {
            Ok(adore::Pattern::Direct { stride: s, .. }) => {
                assert_eq!(s, stride, "case {case}")
            }
            other => panic!("case {case}: expected direct, got {other:?}"),
        }
    }
}

/// The runtime prefetch scheduler never loses or reorders program
/// instructions, and the back edge stays a branch, for arbitrary
/// direct-walk loop bodies.
#[test]
fn prefetch_scheduling_preserves_program_instructions() {
    for case in 0..CASES {
        let mut rng = case_rng(0x5C4E_D01E, case);
        let n_loads = rng.range_u64(1, 4) as usize;
        let extra_adds = rng.below(6) as usize;
        let stride = *rng.choose(&[8i64, 64, 128, 264, 512]);
        let latency = 20.0 + rng.f64() * 280.0;
        let mut a = Asm::new();
        a.label("loop");
        for i in 0..n_loads {
            a.ld(AccessSize::U8, Gr(100 + i as u8), Gr(40 + i as u8), stride);
            a.add(Gr(110), Gr(100 + i as u8), Gr(110));
        }
        for _ in 0..extra_adds {
            a.add(Gr(111), Gr(111), Gr(111));
        }
        a.addi(Gr(9), Gr(9), -1);
        a.cmpi(CmpOp::Gt, Pr(1), Pr(2), Gr(9), 0);
        a.br_cond(Pr(1), "loop");
        let p = a.finish(CODE_BASE).unwrap();
        let bundles: Vec<Bundle> = p.bundles().to_vec();
        let n = bundles.len();
        let mut back_edge = None;
        for (bi, b) in bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::BrCond { .. }) {
                    back_edge = Some((bi, si as u8));
                }
            }
        }
        let original: Vec<Insn> = bundles
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|i| !i.is_nop())
            .copied()
            .collect();
        let trace = adore::Trace {
            start: Addr(CODE_BASE),
            origins: (0..n).map(|i| p.addr_of(i)).collect(),
            fall_through_exit: Addr(CODE_BASE + 16 * n as u64),
            is_loop: true,
            back_edge,
            bundles,
        };
        // Every load is delinquent.
        let mut loads = Vec::new();
        for (bi, b) in trace.bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::Ld { .. }) {
                    loads.push(adore::DelinquentLoad {
                        pc: isa::Pc::new(trace.origins[bi], si as u8),
                        trace_index: 0,
                        position: (bi, si as u8),
                        count: 10,
                        total_latency: (latency * 10.0) as u64,
                        avg_latency: latency,
                        share: 1.0 / n_loads as f64,
                        last_miss_addr: 0x1000_0000,
                    });
                }
            }
        }
        let (opt, _) = adore::optimize_trace(&trace, &loads, &Default::default());
        let opt = opt.expect("direct loops always get at least one stream");
        // All original instructions survive, in order.
        let after: Vec<Insn> = opt
            .body
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|i| !i.is_nop())
            .filter(|i| {
                // Ignore the inserted prefetch code (reserved regs).
                !i.op.gr_reads().iter().any(|r| r.is_reserved())
                    && i.op.gr_write().map(|r| r.is_reserved()) != Some(true)
            })
            .copied()
            .collect();
        assert_eq!(after, original, "case {case}");
        // The back edge is still a branch.
        let (bi, si) = opt.back_edge;
        assert!(opt.body[bi].slots[si as usize].op.is_branch(), "case {case}");
        // Streams were deduplicated: at most one per distinct base.
        assert!(opt.stats.direct <= n_loads, "case {case}");
    }
}

/// Addresses always bundle-align downward.
#[test]
fn addresses_bundle_align() {
    for case in 0..CASES {
        let mut rng = case_rng(0xA11C_4ED5, case);
        let addr = rng.next_u64();
        let a = Addr(addr).bundle_align();
        assert_eq!(a.0 % 16, 0, "case {case}");
        assert!(a.0 <= addr, "case {case}");
        assert!(addr - a.0 < 16, "case {case}");
    }
}

/// Free-slot discovery agrees with a straightforward recount.
#[test]
fn free_slot_counting_is_consistent() {
    let insns = [
        Insn::new(Op::AddI { d: Gr(1), a: Gr(2), imm: 1 }),
        Insn::new(Op::AddI { d: Gr(3), a: Gr(4), imm: 1 }),
    ];
    let b = Bundle::pack(&insns).unwrap();
    let manual = (0..3)
        .filter(|&i| b.template.kinds()[i] == SlotKind::M && b.slots[i].is_nop())
        .count();
    assert_eq!(manual > 0, b.free_slot(SlotKind::M).is_some());
}
