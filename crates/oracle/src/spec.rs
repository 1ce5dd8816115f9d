//! Structured program specifications: the unit the generator produces,
//! the shrinker minimizes, and the corpus serializes.
//!
//! A [`ProgSpec`] is a flat list of [`Item`]s — instructions, labels,
//! symbolic branches, and explicit bundle stops — plus the data-arena
//! geometry and the seed used to fill it. Keeping programs in this
//! symbolic form (rather than packed bundles) is what makes shrinking
//! tractable: dropping an item or halving an immediate yields another
//! well-formed candidate that re-assembles from scratch.

use isa::{Asm, AsmError, Insn, Op, Pr, Program, CODE_BASE};
use sim::Memory;
use workloads::Rng64;

/// The flavor of a symbolic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// `br label`.
    Uncond,
    /// `(qp) br.cond label`.
    Cond,
    /// `br.call label`.
    Call,
}

/// One element of a program specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A label bound to the next bundle boundary.
    Label(String),
    /// A non-branch instruction (branches use [`Item::Branch`] so their
    /// targets stay symbolic through shrinking).
    Insn(Insn),
    /// A branch to a named label.
    Branch {
        /// Qualifying predicate for `Cond` branches.
        qp: Option<Pr>,
        /// Branch flavor.
        kind: BranchKind,
        /// Target label.
        label: String,
    },
    /// An explicit bundle stop (instruction-group boundary), used to
    /// exercise template/stop-bit edge cases.
    Flush,
}

/// A complete, self-describing fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgSpec {
    /// Generator seed (provenance; 0 for hand-written cases).
    pub seed: u64,
    /// Data-arena capacity in bytes (also the machine's `mem_capacity`).
    pub arena_bytes: u64,
    /// Seed for the arena-fill PRNG.
    pub mem_seed: u64,
    /// The program.
    pub items: Vec<Item>,
}

impl ProgSpec {
    /// Assembles the items into a [`Program`] at [`CODE_BASE`].
    ///
    /// # Errors
    ///
    /// Propagates [`AsmError`] — e.g. a shrink candidate that dropped a
    /// label a branch still references.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        let mut a = Asm::new();
        for item in &self.items {
            match item {
                Item::Label(name) => a.label(name.clone()),
                Item::Insn(insn) => a.emit(*insn),
                Item::Flush => a.flush(),
                Item::Branch { qp, kind, label } => match kind {
                    BranchKind::Uncond => a.br(label.clone()),
                    BranchKind::Cond => a.br_cond(qp.unwrap_or(Pr(0)), label.clone()),
                    BranchKind::Call => a.br_call(label.clone()),
                },
            }
        }
        a.finish(CODE_BASE)
    }

    /// Initializes a data memory identically for every run of this
    /// case: allocates the arena and fills it with seeded random words.
    pub fn init_memory(&self, mem: &mut Memory) {
        self.load_arena(mem, &self.arena_image());
    }

    /// The arena's initial contents: `arena_bytes / 8` seeded random
    /// words. A harness running the case several times draws this once
    /// and hands it to [`ProgSpec::load_arena`] for each run.
    pub(crate) fn arena_image(&self) -> Vec<u64> {
        let mut rng = Rng64::new(self.mem_seed ^ 0xa5a5_5a5a_0f0f_f0f0);
        (0..self.arena_bytes / 8).map(|_| rng.next_u64()).collect()
    }

    /// Allocates the arena in `mem` and writes `image` (this spec's
    /// [`ProgSpec::arena_image`]) into it.
    pub(crate) fn load_arena(&self, mem: &mut Memory, image: &[u64]) {
        let base = mem.alloc(self.arena_bytes, 64);
        mem.write_words(base, image);
    }

    /// The spec with items in `[lo, hi)` removed (shrinking step).
    pub fn without_items(&self, lo: usize, hi: usize) -> ProgSpec {
        let mut items = Vec::with_capacity(self.items.len());
        items.extend_from_slice(&self.items[..lo]);
        items.extend_from_slice(&self.items[hi.min(self.items.len())..]);
        ProgSpec { items, ..self.clone() }
    }

    /// The spec with the `MovL` immediate at item `idx` halved, if that
    /// item is a `MovL` with an immediate > 1 (trip-count shrinking).
    /// Returns `None` otherwise.
    pub fn with_halved_movl(&self, idx: usize) -> Option<ProgSpec> {
        let Item::Insn(insn) = self.items.get(idx)? else {
            return None;
        };
        let Op::MovL { d, imm } = insn.op else {
            return None;
        };
        if imm <= 1 {
            return None;
        }
        let mut s = self.clone();
        s.items[idx] = Item::Insn(Insn { qp: insn.qp, op: Op::MovL { d, imm: imm / 2 } });
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{CmpOp, Gr};

    fn tiny_spec() -> ProgSpec {
        ProgSpec {
            seed: 0,
            arena_bytes: 4096,
            mem_seed: 7,
            items: vec![
                Item::Insn(Insn::new(Op::MovL { d: Gr(10), imm: 8 })),
                Item::Label("top".into()),
                Item::Insn(Insn::new(Op::AddI { d: Gr(10), a: Gr(10), imm: -1 })),
                Item::Insn(Insn::new(Op::CmpI {
                    op: CmpOp::Gt,
                    pt: Pr(7),
                    pf: Pr(8),
                    a: Gr(10),
                    imm: 0,
                })),
                Item::Branch { qp: Some(Pr(7)), kind: BranchKind::Cond, label: "top".into() },
                Item::Insn(Insn::new(Op::Halt)),
            ],
        }
    }

    #[test]
    fn assembles_and_runs() {
        let spec = tiny_spec();
        let p = spec.assemble().unwrap();
        let mut i = crate::interp::Interp::new(p, spec.arena_bytes as usize);
        assert_eq!(i.run(u64::MAX), crate::interp::Outcome::Halted);
        assert_eq!(i.gr(Gr(10)), 0);
    }

    #[test]
    fn memory_init_is_deterministic() {
        let spec = tiny_spec();
        let mut a = Memory::new(4096);
        let mut b = Memory::new(4096);
        spec.init_memory(&mut a);
        spec.init_memory(&mut b);
        assert_eq!(a, b, "every byte and the bump pointer must repeat");
        assert_ne!(a.read(a.base(), 8), 0, "arena should hold random data");
        assert_ne!(a.read(a.base() + 4088, 8), 0, "the fill must reach the arena's end");

        // The harness's one-shot image path builds the same arena.
        let mut c = Memory::new(4096);
        spec.load_arena(&mut c, &spec.arena_image());
        assert_eq!(a, c);
    }

    #[test]
    fn shrink_ops_produce_well_formed_candidates() {
        let spec = tiny_spec();
        let fewer = spec.without_items(2, 4);
        assert_eq!(fewer.items.len(), spec.items.len() - 2);
        assert!(fewer.assemble().is_ok());

        let halved = spec.with_halved_movl(0).unwrap();
        let Item::Insn(i) = &halved.items[0] else { panic!() };
        assert_eq!(i.op, Op::MovL { d: Gr(10), imm: 4 });
        assert!(spec.with_halved_movl(2).is_none(), "addi is not a movl");

        // Dropping the label but keeping the branch must surface as an
        // assembly error, not a panic.
        let broken = spec.without_items(1, 2);
        assert!(broken.assemble().is_err());
    }
}
