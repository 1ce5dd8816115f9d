//! The reference interpreter: architectural semantics only.
//!
//! Ground truth for the differential oracle. It executes the same
//! bundles as [`sim::Machine`] but models **nothing** microarchitectural:
//! no caches, no timing, no scoreboard, no PMU, no sampling, no trace
//! pool. If the simulator (with or without ADORE patching underneath)
//! ever disagrees with this interpreter on final architectural state,
//! one of them has a semantics bug.
//!
//! Deliberately mirrored simulator quirks (these are *architectural*
//! contracts of the ISA model, asserted by unit tests here and pinned
//! against the simulator by the differential harness):
//!
//! * `r0` is hardwired zero, `f0`/`f1` read 0.0/1.0 and ignore writes,
//!   `p0` is always true;
//! * a load writes its destination **before** applying the
//!   post-increment, so `ld8 r4 = [r4], 8` increments the *loaded*
//!   value;
//! * speculative loads (`ld.s`) read zero from unmapped addresses;
//!   `lfetch` has no architectural effect beyond its post-increment;
//! * `getf` truncates the f64 with Rust `as i64` (saturating) and
//!   `setf` converts with `as f64`; `fma` uses fused `mul_add`;
//! * a branch in a bundle skips the remaining slots; targets are
//!   bundle-aligned;
//! * faults ([`sim::Fault`]) freeze the machine at the faulting
//!   instruction: earlier slots keep their effects, the faulting slot
//!   has none.

use isa::{Addr, Fr, Gr, Op, Pr, Program};
use sim::{Fault, Memory};

/// Why [`Interp::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The program executed `Halt`.
    Halted,
    /// The program raised an architectural fault.
    Faulted(Fault),
    /// The retired-instruction budget was exhausted before the program
    /// halted (the program may never terminate).
    OutOfFuel,
}

/// The reference interpreter.
#[derive(Debug)]
pub struct Interp {
    program: Program,
    mem: Memory,
    gr: [i64; 128],
    fr: [f64; 128],
    pr: [bool; 64],
    ret_stack: Vec<Addr>,
    ip: Addr,
    retired: u64,
    halted: bool,
    fault: Option<Fault>,
}

impl Interp {
    /// Creates an interpreter for `program` with a data arena of
    /// `mem_capacity` bytes at the default base. Use the same capacity
    /// as the simulated machine so fault boundaries agree.
    pub fn new(program: Program, mem_capacity: usize) -> Interp {
        let mut pr = [false; 64];
        pr[0] = true;
        let mut fr = [0.0; 128];
        fr[1] = 1.0;
        Interp {
            ip: program.entry(),
            program,
            mem: Memory::new(mem_capacity),
            gr: [0; 128],
            fr,
            pr,
            ret_stack: Vec::new(),
            retired: 0,
            halted: false,
            fault: None,
        }
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable data memory (test and harness setup).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Reads a general register.
    pub fn gr(&self, r: Gr) -> i64 {
        self.gr[r.index()]
    }

    /// Writes a general register (setup; `r0` stays zero).
    pub fn set_gr(&mut self, r: Gr, v: i64) {
        write_gr(&mut self.gr, r, v);
    }

    /// Reads a floating-point register.
    pub fn fr(&self, r: Fr) -> f64 {
        self.fr[r.index()]
    }

    /// Reads a predicate register.
    pub fn pr(&self, r: Pr) -> bool {
        self.pr[r.index()]
    }

    /// Retired instruction count (slots, including nops and
    /// predicated-off instructions — mirroring the simulator's PMU).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The architectural fault raised, if any.
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until halt, fault, or `fuel` retired instructions (checked
    /// before each bundle).
    pub fn run(&mut self, fuel: u64) -> Outcome {
        let Interp { program, mem, gr, fr, pr, ret_stack, ip, retired, halted, fault } = self;
        loop {
            if *halted {
                return Outcome::Halted;
            }
            if let Some(f) = *fault {
                return Outcome::Faulted(f);
            }
            if *retired >= fuel {
                return Outcome::OutOfFuel;
            }
            let Some(bundle) = program.bundle_at(*ip) else {
                *fault = Some(Fault::UnmappedFetch(*ip));
                continue;
            };
            let fall_through = ip.offset_bundles(1);
            let mut next = fall_through;
            for insn in &bundle.slots {
                *retired += 1;
                if insn.qp.is_some_and(|qp| !pr[qp.index()]) {
                    continue;
                }
                match insn.op {
                    Op::Nop(_) | Op::Alloc => {}
                    Op::Add { d, a, b } => {
                        write_gr(gr, d, gr[a.index()].wrapping_add(gr[b.index()]))
                    }
                    Op::AddI { d, a, imm } => write_gr(gr, d, gr[a.index()].wrapping_add(imm)),
                    Op::Sub { d, a, b } => {
                        write_gr(gr, d, gr[a.index()].wrapping_sub(gr[b.index()]))
                    }
                    Op::Shladd { d, a, count, b } => {
                        write_gr(gr, d, (gr[a.index()] << count).wrapping_add(gr[b.index()]))
                    }
                    Op::And { d, a, b } => write_gr(gr, d, gr[a.index()] & gr[b.index()]),
                    Op::Or { d, a, b } => write_gr(gr, d, gr[a.index()] | gr[b.index()]),
                    Op::Xor { d, a, b } => write_gr(gr, d, gr[a.index()] ^ gr[b.index()]),
                    Op::MovL { d, imm } => write_gr(gr, d, imm),
                    Op::Mov { d, s } => write_gr(gr, d, gr[s.index()]),
                    Op::Cmp { op, pt, pf, a, b } => {
                        write_cmp(pr, pt, pf, op.eval(gr[a.index()], gr[b.index()]))
                    }
                    Op::CmpI { op, pt, pf, a, imm } => {
                        write_cmp(pr, pt, pf, op.eval(gr[a.index()], imm))
                    }
                    Op::Ld { d, base, post_inc, size, spec } => {
                        let addr = gr[base.index()] as u64;
                        let value = match mem.try_read(addr, size.bytes()) {
                            Some(v) => v,
                            None if spec => 0,
                            None => {
                                *fault = Some(Fault::UnmappedLoad { addr, len: size.bytes() });
                                break;
                            }
                        };
                        // Destination first, then post-increment: d == base
                        // increments the loaded value (simulator contract).
                        write_gr(gr, d, value as i64);
                        post_increment(gr, base, post_inc);
                    }
                    Op::St { s, base, post_inc, size } => {
                        let addr = gr[base.index()] as u64;
                        if !mem.try_write(addr, size.bytes(), gr[s.index()] as u64) {
                            *fault = Some(Fault::UnmappedStore { addr, len: size.bytes() });
                            break;
                        }
                        post_increment(gr, base, post_inc);
                    }
                    Op::Ldf { d, base, post_inc } => {
                        let addr = gr[base.index()] as u64;
                        let Some(bits) = mem.try_read(addr, 8) else {
                            *fault = Some(Fault::UnmappedLoad { addr, len: 8 });
                            break;
                        };
                        write_fr(fr, d, f64::from_bits(bits));
                        post_increment(gr, base, post_inc);
                    }
                    Op::Stf { s, base, post_inc } => {
                        let addr = gr[base.index()] as u64;
                        if !mem.try_write(addr, 8, fr[s.index()].to_bits()) {
                            *fault = Some(Fault::UnmappedStore { addr, len: 8 });
                            break;
                        }
                        post_increment(gr, base, post_inc);
                    }
                    // Non-faulting hint: the post-increment is the only
                    // architectural effect.
                    Op::Lfetch { base, post_inc } => post_increment(gr, base, post_inc),
                    Op::Fma { d, a, b, c } => {
                        write_fr(fr, d, fr[a.index()].mul_add(fr[b.index()], fr[c.index()]))
                    }
                    Op::Fadd { d, a, b } => write_fr(fr, d, fr[a.index()] + fr[b.index()]),
                    Op::Fmul { d, a, b } => write_fr(fr, d, fr[a.index()] * fr[b.index()]),
                    Op::Getf { d, s } => write_gr(gr, d, fr[s.index()] as i64),
                    Op::Setf { d, s } => write_fr(fr, d, gr[s.index()] as f64),
                    Op::Br { target } | Op::BrCond { target } => {
                        next = target.bundle_align();
                        break;
                    }
                    Op::BrCall { target } => {
                        ret_stack.push(fall_through);
                        next = target.bundle_align();
                        break;
                    }
                    Op::BrRet => {
                        let Some(target) = ret_stack.pop() else {
                            *fault = Some(Fault::ReturnUnderflow);
                            break;
                        };
                        next = target.bundle_align();
                        break;
                    }
                    Op::Halt => {
                        *halted = true;
                        break;
                    }
                }
            }
            // A fault freezes the ip at the faulting bundle.
            if fault.is_none() {
                *ip = next;
            }
        }
    }
}

fn write_gr(gr: &mut [i64; 128], r: Gr, v: i64) {
    if r.index() != 0 {
        gr[r.index()] = v;
    }
}

fn write_fr(fr: &mut [f64; 128], r: Fr, v: f64) {
    if r.index() > 1 {
        fr[r.index()] = v;
    }
}

/// A compare's result `r` into `pt` and its complement into `pf`.
fn write_cmp(pr: &mut [bool; 64], pt: Pr, pf: Pr, r: bool) {
    for (p, v) in [(pt, r), (pf, !r)] {
        if p.index() != 0 {
            pr[p.index()] = v;
        }
    }
}

fn post_increment(gr: &mut [i64; 128], base: Gr, inc: i64) {
    if inc != 0 {
        write_gr(gr, base, gr[base.index()].wrapping_add(inc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, Asm, CmpOp, CODE_BASE};
    use sim::DATA_BASE;

    fn interp_for(body: impl FnOnce(&mut Asm)) -> Interp {
        let mut a = Asm::new();
        body(&mut a);
        Interp::new(a.finish(CODE_BASE).unwrap(), 1 << 16)
    }

    #[test]
    fn counting_loop_matches_sim_doc_example() {
        // The doc example from crates/sim/src/lib.rs.
        let mut i = interp_for(|a| {
            a.movl(Gr(10), 0);
            a.label("loop");
            a.addi(Gr(10), Gr(10), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(10), 1000);
            a.br_cond(Pr(1), "loop");
            a.halt();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Halted);
        assert_eq!(i.gr(Gr(10)), 1000);
        assert!(i.pr(Pr(2)) && !i.pr(Pr(1)));
    }

    #[test]
    fn load_post_increment_applies_after_destination_write() {
        // ld8 r4 = [r4], 8 loads *then* post-increments: the increment
        // lands on the loaded value.
        let mut i = interp_for(|a| {
            a.movl(Gr(4), DATA_BASE as i64);
            a.ld(AccessSize::U8, Gr(4), Gr(4), 8);
            a.halt();
        });
        i.mem_mut().alloc(64, 8);
        i.mem_mut().write(DATA_BASE, 8, 100);
        assert_eq!(i.run(u64::MAX), Outcome::Halted);
        assert_eq!(i.gr(Gr(4)), 108);
    }

    #[test]
    fn speculative_load_reads_zero_unmapped() {
        let mut i = interp_for(|a| {
            a.movl(Gr(10), 0x33);
            a.ld_s(AccessSize::U8, Gr(11), Gr(10), 4);
            a.halt();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Halted);
        assert_eq!(i.gr(Gr(11)), 0);
        assert_eq!(i.gr(Gr(10)), 0x33 + 4); // post-inc still applies
    }

    #[test]
    fn unmapped_store_faults_like_the_machine() {
        // Fig. 5(A) from crates/isa/src/lib.rs run with r14 = 0: the
        // first store goes to address 4 and must fault there.
        let mut i = interp_for(|a| {
            a.global("loop");
            a.addi(Gr(14), Gr(14), 4);
            a.st(AccessSize::U4, Gr(14), Gr(20), 4);
            a.halt();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Faulted(Fault::UnmappedStore { addr: 4, len: 4 }));
        assert_eq!(i.gr(Gr(14)), 4); // earlier slot's effect survives
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let mut i = interp_for(|a| {
            a.label("spin");
            a.br("spin");
        });
        assert_eq!(i.run(10_000), Outcome::OutOfFuel);
    }

    #[test]
    fn fp_transfer_semantics() {
        let mut i = interp_for(|a| {
            a.movl(Gr(10), 7);
            a.emit(isa::Op::Setf { d: Fr(3), s: Gr(10) });
            a.fma(Fr(4), Fr(3), Fr(3), Fr(1)); // 7*7 + 1
            a.emit(isa::Op::Getf { d: Gr(11), s: Fr(4) });
            a.halt();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Halted);
        assert_eq!(i.gr(Gr(11)), 50);
        assert_eq!(i.fr(Fr(4)), 50.0);
    }

    #[test]
    fn call_and_return() {
        let mut i = interp_for(|a| {
            a.movl(Gr(10), 1);
            a.br_call("sub");
            a.addi(Gr(10), Gr(10), 100);
            a.halt();
            a.global("sub");
            a.addi(Gr(10), Gr(10), 10);
            a.ret();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Halted);
        assert_eq!(i.gr(Gr(10)), 111);
    }

    #[test]
    fn bare_return_underflows() {
        let mut i = interp_for(|a| {
            a.ret();
            a.halt();
        });
        assert_eq!(i.run(u64::MAX), Outcome::Faulted(Fault::ReturnUnderflow));
    }
}
