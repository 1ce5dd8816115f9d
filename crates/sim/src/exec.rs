//! The predecoded execution fast path.
//!
//! [`Machine::run`]'s tier dispatch (see `crate::tier`) steps here
//! when [`ExecPath::Fast`](crate::ExecPath::Fast) is configured (the
//! default). The fast path is **cycle-exact** with the reference
//! implementation in `machine.rs` — same architectural state, same PMU
//! counters, same sample stream, bundle for bundle — but runs many
//! bundles per tier step, in one loop, and removes the per-bundle and
//! per-slot costs that dominate the reference loop. Each item below is
//! exact for the reason given beside it:
//!
//! - **fused multi-bundle loop**: one step keeps executing bundles until
//!   the machine halts or faults, the cycle limit is reached, or (when
//!   sampling) the sample buffer fills — exactly the conditions after
//!   which `Machine::drive` would not step again, tested after the
//!   bundle's sample because its interrupt cost moves the clock (the
//!   reference tier samples in its bundle tail, before `drive` looks at
//!   the limit). `drive` re-checks them
//!   in its own order, so the stop reason and the resume point are those
//!   of single-bundle stepping;
//! - **borrowed code**: the loop holds the whole
//!   [`CodeStore`](crate::CodeStore) for its duration instead of copying
//!   each [`DecodedBundle`](crate::DecodedBundle) out of it. Code only
//!   changes by patching, and patching happens between `run` calls,
//!   never inside one;
//! - **nop-free slots**: the loop walks each bundle's predecoded
//!   live-slot list and never touches a nop (predication of a nop has
//!   no architectural or timing effect). `retired` is counted once per
//!   bundle — 3, or `slot + 1` for the slot that faulted, branched or
//!   halted — because nothing reads it between the slots of a bundle;
//! - **flat predicates**: an unpredicated slot carries predicate index 0,
//!   and `p0` is hardwired true;
//! - **no per-slot heap allocation**: scoreboard read sets are
//!   predecoded into fixed-size arrays padded with always-ready
//!   registers, so the stall walk is a fixed-trip loop over plain
//!   indices instead of a fresh `Vec<Gr>` per instruction;
//! - **scoreboard watermark**: while `cycle >= pending_until` (the
//!   largest ready cycle any pending write stored) no register can
//!   stall, so the walk is skipped. The check is per slot, since a load
//!   in one slot can feed a later slot of the same bundle;
//! - **sample-due check inline**: the sampled instantiation carries one
//!   `cycle >= next_at` compare per bundle; the sample itself is out of
//!   line. The unsampled instantiation carries no sample check at all;
//! - **register-only bundles**: predecode marks a bundle whose live
//!   slots are all unpredicated integer ALU or compare ops with in-range
//!   register indices ([`DecodedBundle::reg_only`](crate::DecodedBundle)).
//!   Entered with `cycle >= pending_until`, such a bundle runs its slots
//!   back to back, with no predicate, watermark, `Flow`, fault, halt or
//!   branch-mask test. Every op in the class has zero latency and reads
//!   only general registers, all ready by `pending_until <= cycle`, so
//!   no read can stall; none can fault, halt, branch or touch memory;
//!   and each write leaves `pending_until == cycle`, so the watermark
//!   still holds for the next slot. Indices are masked instead of
//!   bounds-checked, which changes none of them, because decode checked
//!   them; an out-of-range index takes the general path and panics there.
//!
//! Instruction semantics are not duplicated: every tier runs the one
//! definition in `Machine::exec_slot_op` (whose integer ALU and compare
//! arms are `Machine::exec_alu_op`, the op set the register-only path
//! runs directly), and both interpreters share
//! `advance_after_bundle`, so the fast path cannot drift on what an
//! instruction *does* — only on how the bundle is fetched and
//! scheduled, which is exactly what the golden cycle-exactness tests
//! and the per-path differential fuzz smoke pin down.

use isa::{Addr, Insn, Pc};

use crate::code::FLAG_FR_READS;
use crate::machine::{Fault, Flow, Machine};

impl Machine {
    /// Executes predecoded bundles until the machine halts or faults,
    /// `cycle >= cycle_limit`, or (`SAMPLING`) a sample fills the sample
    /// buffer. Always executes at least one bundle. `SAMPLING` is a
    /// compile-time split so the common (unsampled) instantiation
    /// carries no sampling work. The fast tier's step
    /// ([`crate::tier::Fast`] dispatches here).
    pub(crate) fn run_fast<const SAMPLING: bool>(&mut self, cycle_limit: u64) {
        // A buffer that is already full makes `drive` stop after every
        // bundle, so the loop does too.
        let full_on_entry = SAMPLING && self.sample_buffer_full();
        let store = std::mem::take(&mut self.store);
        loop {
            let bundle_addr = self.ip;
            let Some(here) = store.locate(bundle_addr) else {
                self.fault = Some(Fault::UnmappedFetch(bundle_addr));
                break;
            };
            let db = store.decoded(here);

            // Instruction fetch.
            let istall = self.caches.ifetch(bundle_addr.0, self.cycle);
            if istall > 0 {
                self.pmu.counters.l1i_misses += 1;
                self.pmu.counters.stall_icache += istall;
                self.cycle += istall;
                self.half_bundle = false;
            }

            if db.reg_only && self.cycle >= self.pending_until {
                // Register-only: no slot can stall, fault, halt or
                // branch, and none is predicated, so the slots run back
                // to back. Their writes are ready now, which keeps
                // `cycle >= pending_until` for the later slots.
                for &slot in db.live() {
                    self.exec_alu_op::<true>(&db.slots[slot as usize].insn.op);
                }
                self.pmu.counters.retired += 3;
                if self.end_bundle::<SAMPLING>(bundle_addr, None, full_on_entry, cycle_limit) {
                    break;
                }
                continue;
            }

            let mut taken: Option<Addr> = None;
            let fall_through = bundle_addr.offset_bundles(1);
            let mut retired = 3;
            for &slot in db.live() {
                let ds = &db.slots[slot as usize];
                if !self.pr[ds.qp as usize] {
                    continue;
                }

                // Scoreboard: identical stall order to the reference
                // path (GR reads in `gr_reads()` order, then FR reads in
                // `fr_reads()` order); padded entries index always-ready
                // registers and are guaranteed no-ops.
                if self.cycle < self.pending_until {
                    for r in ds.gr_reads {
                        let ready = self.gr_ready[r as usize];
                        if ready > self.cycle {
                            self.stall_until(ready, self.gr_source[r as usize]);
                        }
                    }
                    if ds.flags & FLAG_FR_READS != 0 {
                        for f in ds.fr_reads {
                            let ready = self.fr_ready[f as usize];
                            if ready > self.cycle {
                                self.stall_until(ready, self.fr_source[f as usize]);
                            }
                        }
                    }
                }

                match self.exec_slot_op::<true, true>(
                    ds.insn.op,
                    Pc::new(bundle_addr, slot),
                    fall_through,
                ) {
                    Flow::Next => continue,
                    Flow::Taken(target) => taken = Some(target),
                    Flow::Stop => {}
                }
                retired = u64::from(slot) + 1;
                break;
            }
            self.pmu.counters.retired += retired;

            // A fault freezes the machine at the faulting instruction:
            // earlier slots keep their effects, the ip does not advance,
            // and no sample is taken.
            if self.fault.is_some() {
                self.pmu.counters.cycles = self.cycle;
                break;
            }

            // Record fall-through outcomes of predicated-off conditional
            // branches; the predecoded mask skips the scan for the
            // common branch-free bundle.
            if taken.is_none() && db.cond_branch_mask != 0 {
                let insns: [Insn; 3] = [db.slots[0].insn, db.slots[1].insn, db.slots[2].insn];
                self.record_off_cond_branches(&insns, bundle_addr, fall_through);
            }

            if self.end_bundle::<SAMPLING>(bundle_addr, taken, full_on_entry, cycle_limit) {
                break;
            }
        }
        self.store = store;
    }

    /// The tail of every bundle `run_fast` completes: advances the ip
    /// and the clock, takes a due sample, and returns whether the loop
    /// must stop. The sample comes before every stop check, as in the
    /// reference retire path: its interrupt cost moves the clock, so
    /// the cycle limit is tested on the clock after it, and a halting
    /// bundle can still fill the buffer (`drive` then reports the
    /// overflow first).
    #[inline(always)]
    fn end_bundle<const SAMPLING: bool>(
        &mut self,
        bundle_addr: Addr,
        taken: Option<Addr>,
        full_on_entry: bool,
        cycle_limit: u64,
    ) -> bool {
        self.advance_after_bundle(bundle_addr.offset_bundles(1), taken);
        if SAMPLING {
            let sampled = self.take_sample(Pc::new(bundle_addr, 0));
            if full_on_entry || (sampled && self.sample_buffer_full()) {
                return true;
            }
        }
        self.halted || self.cycle >= cycle_limit
    }
}

#[cfg(test)]
mod tests {
    use isa::{
        AccessSize, Addr, Bundle, CmpOp, Gr, Insn, Op, Pc, Pr, Program, SlotKind, CODE_BASE,
    };

    use crate::code::CodeStore;
    use crate::machine::{ExecPath, Fault, Machine, MachineConfig, SamplingConfig, StopReason};
    use crate::pmu::Counters;
    use crate::DATA_BASE;

    fn ld(d: u8, base: u8) -> Insn {
        Insn::new(Op::Ld {
            d: Gr(d),
            base: Gr(base),
            post_inc: 0,
            size: AccessSize::U8,
            spec: false,
        })
    }

    fn add(d: u8, a: u8, b: u8) -> Insn {
        Insn::new(Op::Add { d: Gr(d), a: Gr(a), b: Gr(b) })
    }

    fn addi(d: u8, a: u8, imm: i64) -> Insn {
        Insn::new(Op::AddI { d: Gr(d), a: Gr(a), imm })
    }

    fn movl(d: u8, imm: i64) -> Bundle {
        Bundle::pack(&[Insn::nop(SlotKind::M), Insn::new(Op::MovL { d: Gr(d), imm })]).unwrap()
    }

    fn branch_only(op: Op) -> Bundle {
        Bundle::branch_only(Insn::new(op))
    }

    /// One bundle holding exactly `insns`, slot for slot.
    fn bundle(insns: [Insn; 3]) -> Bundle {
        let b = Bundle::pack(&insns).unwrap();
        assert_eq!(b.slots, insns, "a template must keep every slot in place");
        b
    }

    /// Everything a run can show from outside.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        stops: Vec<StopReason>,
        samples: Vec<(u64, Pc, u64)>,
        cycles: u64,
        counters: Counters,
        ip: Addr,
        fault: Option<Fault>,
        gr: Vec<i64>,
        pr: Vec<bool>,
    }

    fn run_on(path: ExecPath, bundles: &[Bundle], sampling: &Option<SamplingConfig>) -> Outcome {
        let config = MachineConfig {
            exec_path: path,
            sampling: sampling.clone(),
            mem_capacity: 1 << 16,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(Program::new(CODE_BASE, bundles.to_vec()), config);
        m.mem_mut().alloc(1 << 12, 64);
        let mut stops = Vec::new();
        let mut samples = Vec::new();
        loop {
            let stop = m.run(u64::MAX);
            stops.push(stop);
            samples.extend(m.drain_samples());
            if stop != StopReason::SampleBufferOverflow {
                break;
            }
        }
        Outcome {
            stops,
            samples: samples.iter().map(|s| (s.cycles, s.pc, s.retired)).collect(),
            cycles: m.cycles(),
            counters: m.pmu().counters,
            ip: m.ip(),
            fault: m.fault(),
            gr: m.gr.to_vec(),
            pr: m.pr.to_vec(),
        }
    }

    /// Runs `bundles` from power-on on both cycle-exact tiers, draining
    /// the sample buffer at every overflow, and asserts that the tiers
    /// agree on every observable.
    fn run_both(bundles: &[Bundle], sampling: Option<SamplingConfig>) -> Outcome {
        let fast = run_on(ExecPath::Fast, bundles, &sampling);
        let reference = run_on(ExecPath::Reference, bundles, &sampling);
        assert_eq!(fast, reference, "fast and reference tiers diverged");
        fast
    }

    /// A sampler that samples at the end of every bundle whose clock
    /// moved, with no interrupt cost and no jitter.
    fn every_cycle(buffer_capacity: usize) -> Option<SamplingConfig> {
        Some(SamplingConfig {
            interval_cycles: 1,
            buffer_capacity,
            per_sample_cost: 0,
            jitter: 0.0,
            ..SamplingConfig::default()
        })
    }

    /// Runs `bundles` on `path` in chunks of `step` cycles, sampling
    /// every cycle into a three-entry buffer at an interrupt cost of 20
    /// cycles, so a sample can itself carry the clock past the limit.
    /// Returns every stop with the cycle and retired count it left.
    fn chunked_stops(path: ExecPath, bundles: &[Bundle], step: u64) -> Vec<(StopReason, u64, u64)> {
        let config = MachineConfig {
            exec_path: path,
            sampling: Some(SamplingConfig { per_sample_cost: 20, ..every_cycle(3).unwrap() }),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(Program::new(CODE_BASE, bundles.to_vec()), config);
        let mut stops = Vec::new();
        let mut limit = 0;
        loop {
            limit += step;
            let stop = m.run(limit);
            stops.push((stop, m.cycles(), m.retired()));
            m.drain_samples();
            if stop == StopReason::Halted {
                return stops;
            }
        }
    }

    /// Whether predecode puts bundle `index` of `bundles` in the
    /// register-only class.
    fn reg_only(bundles: &[Bundle], index: i64) -> bool {
        let store = CodeStore::new(&Program::new(CODE_BASE, bundles.to_vec()));
        let loc = store.locate(Addr(CODE_BASE).offset_bundles(index)).unwrap();
        store.decoded(loc).reg_only
    }

    #[test]
    fn load_feeds_a_later_slot_of_its_own_bundle() {
        // A cold load in slot 0 consumed by slot 1 (first bundle) and by
        // slot 2 (second bundle): the stall happens mid-bundle, with the
        // watermark raised by the same bundle's slot 0.
        let data = DATA_BASE as i64;
        for consumer_slot in [1usize, 2] {
            let mut slots = [ld(20, 14), Insn::nop(SlotKind::I), Insn::nop(SlotKind::I)];
            slots[consumer_slot] = add(21, 20, 0);
            let out = run_both(&[movl(14, data), bundle(slots), branch_only(Op::Halt)], None);
            assert!(out.counters.stall_mem > 0, "slot {consumer_slot} must stall on the load");
            assert_eq!(out.stops, [StopReason::Halted]);
        }
    }

    #[test]
    fn alu_write_over_a_pending_load_clears_its_stall() {
        // Write after write: `r20` is overwritten by an ALU op while the
        // cold load into it is still pending, so the later read of
        // `r20` must not stall (nor charge memory stall cycles).
        let data = DATA_BASE as i64;
        let out = run_both(
            &[
                movl(14, data),
                bundle([ld(20, 14), add(20, 0, 0), Insn::nop(SlotKind::I)]),
                bundle([Insn::nop(SlotKind::M), add(21, 20, 0), Insn::nop(SlotKind::I)]),
                branch_only(Op::Halt),
            ],
            None,
        );
        assert_eq!(out.counters.stall_mem, 0, "the ALU result is ready at once");
        assert_eq!(out.gr[20], 0);
    }

    #[test]
    fn fault_mid_bundle_counts_the_faulting_slot_and_freezes() {
        // Slot 1 loads from an unmapped address: slot 0 keeps its
        // effect, slot 2 never runs, the ip stays on the bundle and no
        // sample is taken for it even though one is due every cycle.
        let addi = Insn::new(Op::AddI { d: Gr(21), a: Gr(0), imm: 5 });
        let bundles = [
            movl(14, DATA_BASE as i64),
            movl(15, 0x10),
            bundle([ld(22, 14), ld(20, 15), addi]),
            branch_only(Op::Halt),
        ];
        let out = run_both(&bundles, every_cycle(1 << 10));
        assert_eq!(out.stops, [StopReason::Faulted(Fault::UnmappedLoad { addr: 0x10, len: 8 })]);
        assert_eq!(out.counters.retired, 3 + 3 + 2, "the faulting slot is retired");
        assert_eq!(out.counters.loads, 1, "slot 0 keeps its effect");
        assert_eq!(out.gr[21], 0, "slot 2 never runs");
        assert_eq!(out.ip, Addr(CODE_BASE).offset_bundles(2), "ip frozen at the faulting bundle");
        assert!(
            out.samples.iter().all(|&(_, pc, _)| pc.addr != out.ip),
            "no sample for the faulting bundle: {:?}",
            out.samples
        );
    }

    #[test]
    fn cycle_limit_stops_where_single_bundle_stepping_stops() {
        // A counted loop run in short cycle-limit chunks, sampled with
        // an interrupt cost, so a sample can itself carry the clock past
        // the limit: every stop (reason, cycle, retired count) must
        // match the reference tier, which returns to the drive loop
        // after every bundle.
        let bundles = [
            movl(9, 40),
            bundle([
                Insn::nop(SlotKind::M),
                add(21, 21, 9),
                Insn::new(Op::AddI { d: Gr(9), a: Gr(9), imm: -1 }),
            ]),
            bundle([
                Insn::nop(SlotKind::M),
                Insn::new(Op::CmpI {
                    op: isa::CmpOp::Gt,
                    pt: isa::Pr(1),
                    pf: isa::Pr(2),
                    a: Gr(9),
                    imm: 0,
                }),
                Insn::predicated(
                    isa::Pr(1),
                    Op::BrCond { target: Addr(CODE_BASE).offset_bundles(1) },
                ),
            ]),
            branch_only(Op::Halt),
        ];
        let fast = chunked_stops(ExecPath::Fast, &bundles, 7);
        assert!(fast.iter().any(|s| s.0 == StopReason::CycleLimit));
        assert_eq!(fast, chunked_stops(ExecPath::Reference, &bundles, 7));
    }

    #[test]
    fn a_register_only_bundle_entered_under_a_pending_load_stalls() {
        // The load's consumers fill a register-only bundle that starts
        // while the load is still in flight: the bundle must take the
        // stalling path, not the short one.
        let bundles = [
            movl(14, DATA_BASE as i64),
            bundle([ld(20, 14), Insn::nop(SlotKind::I), Insn::nop(SlotKind::I)]),
            bundle([Insn::nop(SlotKind::M), add(21, 20, 20), add(22, 21, 0)]),
            branch_only(Op::Halt),
        ];
        assert!(reg_only(&bundles, 2));
        let out = run_both(&bundles, None);
        assert!(out.counters.stall_mem > 0, "the consumer must wait for the load");
    }

    #[test]
    fn register_only_writes_to_r0_and_p0_stay_no_ops() {
        let cmpi = |pt: u8, pf: u8| {
            Insn::new(Op::CmpI { op: CmpOp::Eq, pt: Pr(pt), pf: Pr(pf), a: Gr(9), imm: 7 })
        };
        let bundles = [
            movl(9, 7),
            // `r0 = 14`, and `p0` gets the false half of a true compare.
            bundle([Insn::nop(SlotKind::M), add(0, 9, 9), cmpi(1, 0)]),
            // `p0` gets the false result of `r9 != r9`; `r21 = r0 + r9`.
            bundle([
                Insn::nop(SlotKind::M),
                Insn::new(Op::Cmp { op: CmpOp::Ne, pt: Pr(0), pf: Pr(2), a: Gr(9), b: Gr(9) }),
                add(21, 0, 9),
            ]),
            // Still issues: `p0` is true.
            bundle([
                Insn::nop(SlotKind::M),
                Insn::predicated(Pr(0), addi(22, 9, 1).op),
                Insn::nop(SlotKind::I),
            ]),
            branch_only(Op::Halt),
        ];
        assert!((0..3).all(|i| reg_only(&bundles, i)));
        let out = run_both(&bundles, None);
        assert_eq!(out.gr[0], 0, "r0 reads zero");
        assert_eq!(out.gr[21], 7, "r0 read as zero inside the class");
        assert!(out.pr[0], "p0 stays true");
        assert!(out.pr[1] && out.pr[2], "the other halves were written");
        assert_eq!(out.gr[22], 8, "a p0-predicated slot issues");
    }

    #[test]
    fn samples_fills_and_cycle_limits_land_on_register_only_bundles() {
        // A straight line of register-only bundles, so samples, buffer
        // fills and cycle limits land on them.
        let mut bundles: Vec<Bundle> = (0..24)
            .map(|_| bundle([Insn::nop(SlotKind::M), add(21, 21, 9), addi(9, 9, 1)]))
            .collect();
        bundles.push(branch_only(Op::Halt));
        let halt = Addr(CODE_BASE).offset_bundles(24);
        assert!((0..24).all(|i| reg_only(&bundles, i)));

        let out = run_both(&bundles, every_cycle(2));
        let (last, fills) = out.stops.split_last().unwrap();
        assert_eq!(*last, StopReason::Halted);
        assert!(fills.len() >= 4, "the buffer fills repeatedly: {:?}", out.stops);
        assert!(fills.iter().all(|&s| s == StopReason::SampleBufferOverflow));
        let on_reg_only = out.samples.iter().filter(|&&(_, pc, _)| pc.addr != halt).count();
        assert!(on_reg_only >= 8, "samples land on register-only bundles");
        assert_eq!(out.gr[9], 24);

        let fast = chunked_stops(ExecPath::Fast, &bundles, 1);
        assert!(fast.iter().filter(|s| s.0 == StopReason::CycleLimit).count() >= 4);
        assert_eq!(fast, chunked_stops(ExecPath::Reference, &bundles, 1));
    }

    #[test]
    fn overflow_in_the_halting_bundle_stops_before_the_halt() {
        // The halt bundle opens a new I-cache line, so its fetch miss
        // moves the clock and it always samples. Size the buffer so
        // that exactly this sample fills it: `run` must report the
        // overflow first and the halt on the next call.
        let mut bundles: Vec<Bundle> = (0..4).map(|i| movl(9, i)).collect();
        bundles.push(branch_only(Op::Halt));
        let halt_bundle = Addr(CODE_BASE).offset_bundles(4);
        let unbounded = run_both(&bundles, every_cycle(1 << 10));
        let &(_, last_pc, _) = unbounded.samples.last().expect("the run samples");
        assert_eq!(last_pc.addr, halt_bundle, "the halt bundle takes the last sample");

        let filled = run_both(&bundles, every_cycle(unbounded.samples.len()));
        assert_eq!(filled.stops, [StopReason::SampleBufferOverflow, StopReason::Halted]);
        assert_eq!(filled.samples, unbounded.samples);
        assert_eq!(filled.cycles, unbounded.cycles);
    }
}
