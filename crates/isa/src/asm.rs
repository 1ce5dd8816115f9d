//! A small assembler with labels and automatic bundle packing.
//!
//! The compiler crate and ADORE's prefetch generator both produce
//! instruction streams; `Asm` packs them greedily into legal bundles,
//! binds labels to bundle boundaries and resolves branch fixups when the
//! final [`Program`] is produced.

use std::collections::HashMap;
use std::fmt;

use crate::bundle::Bundle;
use crate::insn::{AccessSize, Addr, CmpOp, Insn, Op, SlotKind};
use crate::program::Program;
use crate::regs::{Fr, Gr, Pr};

/// Error produced when assembling a program fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch referenced a label that was never bound.
    UndefinedLabel(String),
    /// The same label was bound twice.
    DuplicateLabel(String),
    /// An instruction could not be packed into any bundle template.
    Unpackable(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Unpackable(i) => write!(f, "instruction `{i}` fits no bundle template"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
struct Pending {
    insn: Insn,
    fixup: Option<String>,
}

/// An incremental assembler. See the crate-level docs for an example.
#[derive(Debug, Default)]
pub struct Asm {
    bundles: Vec<Bundle>,
    pending: Vec<Pending>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, usize, String)>, // bundle, slot, label
    symbols: Vec<(usize, String)>,
    error: Option<AsmError>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Emits one instruction, packing greedily into the current bundle.
    pub fn emit(&mut self, insn: impl Into<Insn>) {
        self.emit_with_fixup(insn.into(), None);
    }

    fn emit_with_fixup(&mut self, insn: Insn, fixup: Option<String>) {
        if self.error.is_some() {
            return;
        }
        self.pending.push(Pending { insn, fixup });
        let insns: Vec<Insn> = self.pending.iter().map(|p| p.insn).collect();
        if Bundle::pack(&insns).is_none() {
            let last = self.pending.pop().expect("just pushed");
            self.flush();
            self.pending.push(last);
            let lone = [self.pending[0].insn];
            if Bundle::pack(&lone).is_none() {
                self.error = Some(AsmError::Unpackable(lone[0].to_string()));
                self.pending.clear();
            }
        }
    }

    /// Ends the current bundle (an instruction-group stop).
    pub fn flush(&mut self) {
        if self.pending.is_empty() || self.error.is_some() {
            return;
        }
        let insns: Vec<Insn> = self.pending.iter().map(|p| p.insn).collect();
        let bundle = Bundle::pack(&insns).expect("pending was kept packable");
        // Non-padding slots appear in pending order; recover each
        // pending instruction's slot to anchor its fixup.
        let bidx = self.bundles.len();
        let mut slot = 0usize;
        for p in &self.pending {
            while slot < 3 && bundle.slots[slot] != p.insn {
                slot += 1;
            }
            debug_assert!(slot < 3, "packed instruction lost");
            if let Some(label) = &p.fixup {
                self.fixups.push((bidx, slot, label.clone()));
            }
            slot += 1;
        }
        self.bundles.push(bundle);
        self.pending.clear();
    }

    /// Binds `name` to the next bundle boundary.
    pub fn label(&mut self, name: impl Into<String>) {
        self.flush();
        let name = name.into();
        if self.labels.insert(name.clone(), self.bundles.len()).is_some() {
            self.error.get_or_insert(AsmError::DuplicateLabel(name));
        }
    }

    /// Binds `name` as both a label and a symbol (shows in listings).
    pub fn global(&mut self, name: impl Into<String>) {
        let name = name.into();
        self.label(name.clone());
        self.symbols.push((self.bundles.len(), name));
    }

    /// Current bundle index (forces a bundle boundary).
    pub fn here(&mut self) -> usize {
        self.flush();
        self.bundles.len()
    }

    // ---- convenience emitters -------------------------------------

    /// `add d = a, b`
    pub fn add(&mut self, d: Gr, a: Gr, b: Gr) {
        self.emit(Op::Add { d, a, b });
    }

    /// `adds d = imm, a`
    pub fn addi(&mut self, d: Gr, a: Gr, imm: i64) {
        self.emit(Op::AddI { d, a, imm });
    }

    /// `sub d = a, b`
    pub fn sub(&mut self, d: Gr, a: Gr, b: Gr) {
        self.emit(Op::Sub { d, a, b });
    }

    /// `shladd d = a << count + b`
    pub fn shladd(&mut self, d: Gr, a: Gr, count: u8, b: Gr) {
        self.emit(Op::Shladd { d, a, count, b });
    }

    /// `movl d = imm`
    pub fn movl(&mut self, d: Gr, imm: i64) {
        self.emit(Op::MovL { d, imm });
    }

    /// `mov d = s`
    pub fn mov(&mut self, d: Gr, s: Gr) {
        self.emit(Op::Mov { d, s });
    }

    /// `ldSZ d = [base], post_inc`
    pub fn ld(&mut self, size: AccessSize, d: Gr, base: Gr, post_inc: i64) {
        self.emit(Op::Ld { d, base, post_inc, size, spec: false });
    }

    /// `ldSZ.s d = [base], post_inc` (speculative, non-faulting)
    pub fn ld_s(&mut self, size: AccessSize, d: Gr, base: Gr, post_inc: i64) {
        self.emit(Op::Ld { d, base, post_inc, size, spec: true });
    }

    /// `stSZ [base] = s, post_inc`
    pub fn st(&mut self, size: AccessSize, base: Gr, s: Gr, post_inc: i64) {
        self.emit(Op::St { s, base, post_inc, size });
    }

    /// `ldfd d = [base], post_inc`
    pub fn ldf(&mut self, d: Fr, base: Gr, post_inc: i64) {
        self.emit(Op::Ldf { d, base, post_inc });
    }

    /// `stfd [base] = s, post_inc`
    pub fn stf(&mut self, base: Gr, s: Fr, post_inc: i64) {
        self.emit(Op::Stf { s, base, post_inc });
    }

    /// `lfetch [base], post_inc`
    pub fn lfetch(&mut self, base: Gr, post_inc: i64) {
        self.emit(Op::Lfetch { base, post_inc });
    }

    /// `fma d = a, b, c`
    pub fn fma(&mut self, d: Fr, a: Fr, b: Fr, c: Fr) {
        self.emit(Op::Fma { d, a, b, c });
    }

    /// `cmp.op pt, pf = a, b`
    pub fn cmp(&mut self, op: CmpOp, pt: Pr, pf: Pr, a: Gr, b: Gr) {
        self.emit(Op::Cmp { op, pt, pf, a, b });
    }

    /// `cmp.op pt, pf = imm, a`
    pub fn cmpi(&mut self, op: CmpOp, pt: Pr, pf: Pr, a: Gr, imm: i64) {
        self.emit(Op::CmpI { op, pt, pf, a, imm });
    }

    /// `br label` (unconditional)
    pub fn br(&mut self, label: impl Into<String>) {
        self.emit_with_fixup(Insn::new(Op::Br { target: Addr(0) }), Some(label.into()));
    }

    /// `(qp) br.cond label`
    pub fn br_cond(&mut self, qp: Pr, label: impl Into<String>) {
        self.emit_with_fixup(
            Insn::predicated(qp, Op::BrCond { target: Addr(0) }),
            Some(label.into()),
        );
    }

    /// `br.call label`. The call ends its bundle: the return address is
    /// the *next bundle*, so any instruction packed after a call in the
    /// same bundle would be unreachable.
    pub fn br_call(&mut self, label: impl Into<String>) {
        self.emit_with_fixup(Insn::new(Op::BrCall { target: Addr(0) }), Some(label.into()));
        self.flush();
    }

    /// `br.ret`
    pub fn ret(&mut self) {
        self.emit(Op::BrRet);
    }

    /// Terminates the program.
    pub fn halt(&mut self) {
        self.emit(Op::Halt);
    }

    /// A nop of the given kind (scheduling filler, leaves a free slot).
    pub fn nop(&mut self, kind: SlotKind) {
        self.emit(Insn::nop(kind));
    }

    /// Pads the code with `n` bundles of nops. The workload generator
    /// uses this to spread code across the I-cache (e.g. for a
    /// gcc-shaped large-footprint binary).
    pub fn pad_bundles(&mut self, n: usize) {
        self.flush();
        for _ in 0..n {
            self.bundles
                .push(Bundle::pack(&[Insn::nop(SlotKind::M)]).expect("nop bundle always packs"));
        }
    }

    /// Finishes assembly, resolving all label fixups.
    ///
    /// # Errors
    ///
    /// Returns an error for undefined or duplicate labels, or if any
    /// instruction could not be packed.
    pub fn finish(mut self, code_base: u64) -> Result<Program, AsmError> {
        self.flush();
        if let Some(e) = self.error {
            return Err(e);
        }
        let base = code_base;
        for (bidx, slot, label) in &self.fixups {
            let target_idx =
                *self.labels.get(label).ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            let target = Addr(base + target_idx as u64 * Addr::BUNDLE_BYTES);
            let ok = self.bundles[*bidx].slots[*slot].op.set_branch_target(target);
            debug_assert!(ok, "fixup on non-branch");
        }
        let mut program = Program::new(base, self.bundles);
        for (idx, name) in self.symbols {
            let addr = program.addr_of(idx);
            program.add_symbol(addr, name);
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CODE_BASE;

    #[test]
    fn counting_loop_assembles_and_resolves() {
        let mut a = Asm::new();
        a.global("main");
        a.movl(Gr(14), 0);
        a.movl(Gr(15), 10);
        a.label("loop");
        a.addi(Gr(14), Gr(14), 1);
        a.cmp(CmpOp::Lt, Pr(1), Pr(2), Gr(14), Gr(15));
        a.br_cond(Pr(1), "loop");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        assert!(p.len() >= 3);
        assert_eq!(p.symbol_at(Addr(CODE_BASE)), Some("main"));
        // The back edge must point at the bundle bound by `loop`.
        let mut saw_backedge = false;
        for b in p.bundles() {
            for s in &b.slots {
                if let Op::BrCond { target } = s.op {
                    saw_backedge = true;
                    assert!(p.index_of(target).is_some());
                }
            }
        }
        assert!(saw_backedge);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new();
        a.br("nowhere");
        assert_eq!(a.finish(CODE_BASE), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Asm::new();
        a.label("x");
        a.addi(Gr(1), Gr(0), 1);
        a.label("x");
        assert!(matches!(a.finish(CODE_BASE), Err(AsmError::DuplicateLabel(_))));
    }

    #[test]
    fn greedy_packing_splits_bundles() {
        let mut a = Asm::new();
        // Four integer adds cannot share one bundle (max two I slots).
        for i in 0..4 {
            a.addi(Gr(10 + i), Gr(0), i as i64);
        }
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        assert!(p.len() >= 2);
    }

    #[test]
    fn label_is_bundle_aligned() {
        let mut a = Asm::new();
        a.addi(Gr(1), Gr(0), 1);
        a.label("l");
        a.addi(Gr(2), Gr(0), 2);
        a.br("l");
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        // The add before the label and the add after it are in
        // different bundles.
        assert!(p.len() >= 2);
    }

    #[test]
    fn pad_bundles_grows_code() {
        let mut a = Asm::new();
        a.pad_bundles(32);
        a.halt();
        let p = a.finish(CODE_BASE).unwrap();
        assert!(p.len() >= 33);
    }

    #[test]
    fn here_reports_bundle_index() {
        let mut a = Asm::new();
        assert_eq!(a.here(), 0);
        a.addi(Gr(1), Gr(0), 1);
        assert_eq!(a.here(), 1);
    }
}
