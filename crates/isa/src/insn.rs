//! Instructions of the IA-64-like target.
//!
//! The instruction set is a semantically faithful subset of what the
//! paper's code examples use (Fig. 5 and Fig. 6): integer ALU ops
//! including `shladd`, sized loads with optional post-increment and
//! speculative (`ld.s`, non-faulting) forms, stores, `lfetch` data
//! prefetch, floating-point `fma`, compares writing predicate pairs, and
//! IP-relative branches. Every instruction carries an optional
//! *qualifying predicate* as on Itanium.

use std::fmt;

use crate::regs::{Fr, Gr, Pr};

/// A byte address in the simulated address space.
///
/// Code addresses are bundle-aligned (16 bytes per bundle, as on IA-64);
/// branch targets are always bundle-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Size of one instruction bundle in bytes.
    pub const BUNDLE_BYTES: u64 = 16;

    /// Rounds down to the containing bundle boundary.
    pub fn bundle_align(self) -> Addr {
        Addr(self.0 & !(Self::BUNDLE_BYTES - 1))
    }

    /// Returns the address `n` bundles after `self`.
    pub fn offset_bundles(self, n: i64) -> Addr {
        Addr((self.0 as i64 + n * Self::BUNDLE_BYTES as i64) as u64)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// A precise program counter: bundle address plus slot within the bundle.
///
/// PMU events (DEAR miss source, BTB branch source) are reported at this
/// granularity, which is what lets ADORE map a cache-miss sample back to
/// an individual load instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pc {
    /// Bundle-aligned address.
    pub addr: Addr,
    /// Slot within the bundle, 0–2.
    pub slot: u8,
}

impl Pc {
    /// Creates a program counter from a bundle address and slot.
    pub fn new(addr: Addr, slot: u8) -> Pc {
        debug_assert!(slot < 3, "slot out of range");
        Pc { addr: addr.bundle_align(), slot }
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.addr, self.slot)
    }
}

/// Access size of a memory operation in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// 1 byte (`ld1`/`st1`).
    U1,
    /// 2 bytes (`ld2`/`st2`).
    U2,
    /// 4 bytes (`ld4`/`st4`).
    U4,
    /// 8 bytes (`ld8`/`st8`).
    U8,
}

impl AccessSize {
    /// Width of the access in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::U1 => 1,
            AccessSize::U2 => 2,
            AccessSize::U4 => 4,
            AccessSize::U8 => 8,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Comparison operator for `cmp` instructions (signed unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
}

impl CmpOp {
    /// Evaluates the comparison on two 64-bit values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Ltu => (a as u64) < (b as u64),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Ltu => "ltu",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for CmpOp {
    type Err = ();

    /// Parses the mnemonic form produced by `Display` (`eq`, `ne`,
    /// `lt`, `le`, `gt`, `ge`, `ltu`).
    fn from_str(s: &str) -> Result<CmpOp, ()> {
        Ok(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            "ltu" => CmpOp::Ltu,
            _ => return Err(()),
        })
    }
}

/// The kind of issue slot an instruction requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Memory slot (loads, stores, `lfetch`, `alloc`).
    M,
    /// Integer ALU slot.
    I,
    /// Floating-point slot.
    F,
    /// Branch slot.
    B,
    /// Long-immediate slot (`movl`); occupies slots 1+2 of an MLX bundle.
    L,
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlotKind::M => "m",
            SlotKind::I => "i",
            SlotKind::F => "f",
            SlotKind::B => "b",
            SlotKind::L => "l",
        };
        f.write_str(s)
    }
}

/// Operation payload of an instruction.
///
/// Field names follow the IA-64 convention throughout: `d` destination,
/// `a`/`b` sources, `base` the address register, `s` a source register.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// No-operation occupying a slot of the given kind.
    Nop(SlotKind),
    /// `add d = a, b`.
    Add { d: Gr, a: Gr, b: Gr },
    /// `adds d = imm, a` (add short immediate).
    AddI { d: Gr, a: Gr, imm: i64 },
    /// `sub d = a, b`.
    Sub { d: Gr, a: Gr, b: Gr },
    /// `shladd d = a << count + b`.
    Shladd { d: Gr, a: Gr, count: u8, b: Gr },
    /// `and d = a, b`.
    And { d: Gr, a: Gr, b: Gr },
    /// `or d = a, b`.
    Or { d: Gr, a: Gr, b: Gr },
    /// `xor d = a, b`.
    Xor { d: Gr, a: Gr, b: Gr },
    /// `movl d = imm` (long immediate; L slot).
    MovL { d: Gr, imm: i64 },
    /// `mov d = s` (register move; expands to `adds d = 0, s`).
    Mov { d: Gr, s: Gr },
    /// `cmp.op pt, pf = a, b`: sets `pt` to the comparison result and
    /// `pf` to its complement.
    Cmp { op: CmpOp, pt: Pr, pf: Pr, a: Gr, b: Gr },
    /// `cmp.op pt, pf = imm, a` with an immediate operand `b = imm`.
    CmpI { op: CmpOp, pt: Pr, pf: Pr, a: Gr, imm: i64 },
    /// `ldSZ d = [base], post_inc`: sized integer load with optional
    /// post-increment (`post_inc == 0` means plain `ld`). `spec` marks a
    /// speculative, non-faulting load (`ld.s`), which ADORE uses when
    /// prefetching indirect references so inserted code can never fault.
    Ld { d: Gr, base: Gr, post_inc: i64, size: AccessSize, spec: bool },
    /// `stSZ [base] = s, post_inc`: sized integer store.
    St { s: Gr, base: Gr, post_inc: i64, size: AccessSize },
    /// `ldfd d = [base], post_inc`: 8-byte floating-point load. FP loads
    /// bypass the L1D cache on Itanium 2, which the simulator models.
    Ldf { d: Fr, base: Gr, post_inc: i64 },
    /// `stfd [base] = s, post_inc`: 8-byte floating-point store.
    Stf { s: Fr, base: Gr, post_inc: i64 },
    /// `lfetch [base], post_inc`: non-faulting data prefetch hint.
    Lfetch { base: Gr, post_inc: i64 },
    /// `fma d = a * b + c`.
    Fma { d: Fr, a: Fr, b: Fr, c: Fr },
    /// `fadd d = a + b`.
    Fadd { d: Fr, a: Fr, b: Fr },
    /// `fmul d = a * b`.
    Fmul { d: Fr, a: Fr, b: Fr },
    /// `getf d = s`: move FP register bits to an integer register,
    /// truncating the float to an integer (models fp→int conversion in
    /// address computations, which defeats ADORE's stride detection).
    Getf { d: Gr, s: Fr },
    /// `setf d = s`: move an integer register into an FP register.
    Setf { d: Fr, s: Gr },
    /// `br target`: unconditional IP-relative branch.
    Br { target: Addr },
    /// `(qp) br.cond target`: conditional branch on the qualifying
    /// predicate of the instruction.
    BrCond { target: Addr },
    /// `br.call target`: call; pushes the return address on the
    /// simulator's return stack (stands in for `b0`).
    BrCall { target: Addr },
    /// `br.ret`: return to the most recent call site.
    BrRet,
    /// `alloc`: register-frame allocation marker (no simulated effect).
    Alloc,
    /// Terminate the program (stands in for the `exit` syscall).
    Halt,
}

impl Op {
    /// The issue-slot kind this operation requires.
    pub fn slot_kind(&self) -> SlotKind {
        match self {
            Op::Nop(k) => *k,
            Op::Add { .. }
            | Op::AddI { .. }
            | Op::Sub { .. }
            | Op::Shladd { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Mov { .. }
            | Op::Cmp { .. }
            | Op::CmpI { .. } => SlotKind::I,
            Op::MovL { .. } => SlotKind::L,
            Op::Ld { .. }
            | Op::St { .. }
            | Op::Ldf { .. }
            | Op::Stf { .. }
            | Op::Lfetch { .. }
            | Op::Getf { .. }
            | Op::Setf { .. }
            | Op::Alloc => SlotKind::M,
            Op::Fma { .. } | Op::Fadd { .. } | Op::Fmul { .. } => SlotKind::F,
            Op::Br { .. } | Op::BrCond { .. } | Op::BrCall { .. } | Op::BrRet | Op::Halt => {
                SlotKind::B
            }
        }
    }

    /// True for any branch-unit operation.
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::BrCond { .. } | Op::BrCall { .. } | Op::BrRet | Op::Halt)
    }

    /// The branch target, if this is a direct branch.
    pub fn branch_target(&self) -> Option<Addr> {
        match self {
            Op::Br { target } | Op::BrCond { target } | Op::BrCall { target } => Some(*target),
            _ => None,
        }
    }

    /// Rewrites the branch target of a direct branch; returns `false`
    /// if the operation is not a direct branch.
    pub fn set_branch_target(&mut self, new: Addr) -> bool {
        match self {
            Op::Br { target } | Op::BrCond { target } | Op::BrCall { target } => {
                *target = new;
                true
            }
            _ => false,
        }
    }

    /// General registers read by this operation (base registers of
    /// memory ops included). Used by ADORE's dependence slicing.
    pub fn gr_reads(&self) -> Vec<Gr> {
        match *self {
            Op::Add { a, b, .. }
            | Op::Sub { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::Cmp { a, b, .. } => vec![a, b],
            Op::Shladd { a, b, .. } => vec![a, b],
            Op::AddI { a, .. } | Op::CmpI { a, .. } => vec![a],
            Op::Mov { s, .. } => vec![s],
            Op::Ld { base, .. } | Op::Ldf { base, .. } | Op::Lfetch { base, .. } => vec![base],
            Op::St { s, base, .. } => vec![s, base],
            Op::Stf { base, .. } => vec![base],
            Op::Setf { s, .. } => vec![s],
            _ => vec![],
        }
    }

    /// Floating-point registers read by this operation, in operand
    /// order (`a, b, c` for `fma`, `a, b` for `fadd`/`fmul`, the source
    /// of `stf`/`getf`). Allocation-free, unlike [`Op::gr_reads`]: the
    /// simulator's scoreboard walks it for every executed slot.
    pub fn fr_reads(&self) -> impl Iterator<Item = Fr> {
        let (regs, n) = match *self {
            Op::Fma { a, b, c, .. } => ([a, b, c], 3),
            Op::Fadd { a, b, .. } | Op::Fmul { a, b, .. } => ([a, b, Fr::ZERO], 2),
            Op::Stf { s, .. } | Op::Getf { s, .. } => ([s, Fr::ZERO, Fr::ZERO], 1),
            _ => ([Fr::ZERO; 3], 0),
        };
        regs.into_iter().take(n)
    }

    /// The general register written by this operation, if any.
    pub fn gr_write(&self) -> Option<Gr> {
        match *self {
            Op::Add { d, .. }
            | Op::AddI { d, .. }
            | Op::Sub { d, .. }
            | Op::Shladd { d, .. }
            | Op::And { d, .. }
            | Op::Or { d, .. }
            | Op::Xor { d, .. }
            | Op::MovL { d, .. }
            | Op::Mov { d, .. }
            | Op::Getf { d, .. }
            | Op::Ld { d, .. } => Some(d),
            // Post-increment forms also write the base register; handled
            // separately by `gr_post_inc_write`.
            _ => None,
        }
    }

    /// The base register written by a post-increment addressing form,
    /// together with the increment, if any.
    pub fn gr_post_inc_write(&self) -> Option<(Gr, i64)> {
        match *self {
            Op::Ld { base, post_inc, .. }
            | Op::St { base, post_inc, .. }
            | Op::Ldf { base, post_inc, .. }
            | Op::Stf { base, post_inc, .. }
            | Op::Lfetch { base, post_inc } => {
                if post_inc != 0 {
                    Some((base, post_inc))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A complete instruction: operation plus optional qualifying predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insn {
    /// Qualifying predicate; the instruction is a no-op when it is false.
    pub qp: Option<Pr>,
    /// The operation.
    pub op: Op,
}

impl Insn {
    /// Creates an unpredicated instruction.
    pub fn new(op: Op) -> Insn {
        Insn { qp: None, op }
    }

    /// Creates an instruction guarded by the qualifying predicate `qp`.
    pub fn predicated(qp: Pr, op: Op) -> Insn {
        Insn { qp: Some(qp), op }
    }

    /// A no-op for the given slot kind.
    pub fn nop(kind: SlotKind) -> Insn {
        Insn::new(Op::Nop(kind))
    }

    /// True if this is a no-op (of any slot kind).
    pub fn is_nop(&self) -> bool {
        matches!(self.op, Op::Nop(_))
    }
}

impl From<Op> for Insn {
    fn from(op: Op) -> Insn {
        Insn::new(op)
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(qp) = self.qp {
            write!(f, "({qp}) ")?;
        }
        match self.op {
            Op::Nop(k) => write!(f, "nop.{k}"),
            Op::Add { d, a, b } => write!(f, "add {d} = {a}, {b}"),
            Op::AddI { d, a, imm } => write!(f, "adds {d} = {imm}, {a}"),
            Op::Sub { d, a, b } => write!(f, "sub {d} = {a}, {b}"),
            Op::Shladd { d, a, count, b } => write!(f, "shladd {d} = {a}, {count}, {b}"),
            Op::And { d, a, b } => write!(f, "and {d} = {a}, {b}"),
            Op::Or { d, a, b } => write!(f, "or {d} = {a}, {b}"),
            Op::Xor { d, a, b } => write!(f, "xor {d} = {a}, {b}"),
            Op::MovL { d, imm } => write!(f, "movl {d} = {imm:#x}"),
            Op::Mov { d, s } => write!(f, "mov {d} = {s}"),
            Op::Cmp { op, pt, pf, a, b } => write!(f, "cmp.{op} {pt}, {pf} = {a}, {b}"),
            Op::CmpI { op, pt, pf, a, imm } => write!(f, "cmp.{op} {pt}, {pf} = {imm}, {a}"),
            Op::Ld { d, base, post_inc, size, spec } => {
                let s = if spec { ".s" } else { "" };
                if post_inc != 0 {
                    write!(f, "ld{size}{s} {d} = [{base}], {post_inc}")
                } else {
                    write!(f, "ld{size}{s} {d} = [{base}]")
                }
            }
            Op::St { s, base, post_inc, size } => {
                if post_inc != 0 {
                    write!(f, "st{size} [{base}] = {s}, {post_inc}")
                } else {
                    write!(f, "st{size} [{base}] = {s}")
                }
            }
            Op::Ldf { d, base, post_inc } => {
                if post_inc != 0 {
                    write!(f, "ldfd {d} = [{base}], {post_inc}")
                } else {
                    write!(f, "ldfd {d} = [{base}]")
                }
            }
            Op::Stf { s, base, post_inc } => {
                if post_inc != 0 {
                    write!(f, "stfd [{base}] = {s}, {post_inc}")
                } else {
                    write!(f, "stfd [{base}] = {s}")
                }
            }
            Op::Lfetch { base, post_inc } => {
                if post_inc != 0 {
                    write!(f, "lfetch [{base}], {post_inc}")
                } else {
                    write!(f, "lfetch [{base}]")
                }
            }
            Op::Fma { d, a, b, c } => write!(f, "fma {d} = {a}, {b}, {c}"),
            Op::Fadd { d, a, b } => write!(f, "fadd {d} = {a}, {b}"),
            Op::Fmul { d, a, b } => write!(f, "fmul {d} = {a}, {b}"),
            Op::Getf { d, s } => write!(f, "getf.sig {d} = {s}"),
            Op::Setf { d, s } => write!(f, "setf.sig {d} = {s}"),
            Op::Br { target } => write!(f, "br {target}"),
            Op::BrCond { target } => write!(f, "br.cond {target}"),
            Op::BrCall { target } => write!(f, "br.call {target}"),
            Op::BrRet => write!(f, "br.ret"),
            Op::Alloc => write!(f, "alloc"),
            Op::Halt => write!(f, "break.halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_mnemonics_round_trip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ltu] {
            assert_eq!(op.to_string().parse::<CmpOp>(), Ok(op));
        }
        assert_eq!("frob".parse::<CmpOp>(), Err(()));
    }

    #[test]
    fn addr_alignment() {
        assert_eq!(Addr(0x1007).bundle_align(), Addr(0x1000));
        assert_eq!(Addr(0x1000).bundle_align(), Addr(0x1000));
        assert_eq!(Addr(0x1000).offset_bundles(2), Addr(0x1020));
        assert_eq!(Addr(0x1020).offset_bundles(-1), Addr(0x1010));
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(-1, 0));
        assert!(!CmpOp::Ltu.eval(-1, 0)); // -1 as u64 is huge
        assert!(CmpOp::Ge.eval(5, 5));
        assert!(CmpOp::Gt.eval(6, 5));
        assert!(CmpOp::Le.eval(5, 5));
    }

    #[test]
    fn slot_kinds() {
        assert_eq!(Op::Add { d: Gr(1), a: Gr(2), b: Gr(3) }.slot_kind(), SlotKind::I);
        assert_eq!(
            Op::Ld { d: Gr(1), base: Gr(2), post_inc: 0, size: AccessSize::U8, spec: false }
                .slot_kind(),
            SlotKind::M
        );
        assert_eq!(Op::Lfetch { base: Gr(2), post_inc: 8 }.slot_kind(), SlotKind::M);
        assert_eq!(Op::Br { target: Addr(0) }.slot_kind(), SlotKind::B);
        assert_eq!(Op::Fma { d: Fr(2), a: Fr(3), b: Fr(4), c: Fr(5) }.slot_kind(), SlotKind::F);
        assert_eq!(Op::MovL { d: Gr(1), imm: 7 }.slot_kind(), SlotKind::L);
    }

    #[test]
    fn branch_target_rewrite() {
        let mut op = Op::BrCond { target: Addr(0x100) };
        assert_eq!(op.branch_target(), Some(Addr(0x100)));
        assert!(op.set_branch_target(Addr(0x200)));
        assert_eq!(op.branch_target(), Some(Addr(0x200)));
        let mut add = Op::Add { d: Gr(1), a: Gr(2), b: Gr(3) };
        assert!(!add.set_branch_target(Addr(0x300)));
    }

    #[test]
    fn reads_and_writes() {
        let ld = Op::Ld { d: Gr(20), base: Gr(14), post_inc: 4, size: AccessSize::U4, spec: false };
        assert_eq!(ld.gr_reads(), vec![Gr(14)]);
        assert_eq!(ld.gr_write(), Some(Gr(20)));
        assert_eq!(ld.gr_post_inc_write(), Some((Gr(14), 4)));

        let st = Op::St { s: Gr(20), base: Gr(14), post_inc: 0, size: AccessSize::U4 };
        assert_eq!(st.gr_reads(), vec![Gr(20), Gr(14)]);
        assert_eq!(st.gr_write(), None);
        assert_eq!(st.gr_post_inc_write(), None);

        let fma = Op::Fma { d: Fr(6), a: Fr(8), b: Fr(7), c: Fr(9) };
        assert_eq!(fma.fr_reads().collect::<Vec<_>>(), [Fr(8), Fr(7), Fr(9)]);
        let getf = Op::Getf { d: Gr(3), s: Fr(4) };
        assert_eq!(getf.fr_reads().collect::<Vec<_>>(), [Fr(4)]);
        assert_eq!(ld.fr_reads().count(), 0);
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Insn::new(Op::Ld {
            d: Gr(20),
            base: Gr(14),
            post_inc: 4,
            size: AccessSize::U4,
            spec: false,
        });
        assert_eq!(i.to_string(), "ld4 r20 = [r14], 4");
        let l = Insn::new(Op::Lfetch { base: Gr(27), post_inc: 12 });
        assert_eq!(l.to_string(), "lfetch [r27], 12");
        let p = Insn::predicated(Pr(6), Op::Br { target: Addr(0x40000000) });
        assert_eq!(p.to_string(), "(p6) br 0x40000000");
    }
}
