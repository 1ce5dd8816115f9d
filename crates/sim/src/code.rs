//! The predecoded code store backing the execution fast path.
//!
//! [`Machine::step_bundle`](crate::Machine) (the reference path)
//! re-resolves and clones a [`Bundle`] from the program image on every
//! executed bundle, and re-derives each slot's scoreboard sources with
//! heap-allocating [`Op::gr_reads`](isa::Op::gr_reads) calls. The
//! [`CodeStore`] removes all of that from the hot loop: every mapped
//! bundle address is resolved **once** into a dense arena of
//! [`DecodedBundle`]s — one flat vector for the static code segment,
//! one for the trace pool — so execution indexes by slot number and
//! reads precomputed, fixed-size register-read lists.
//!
//! Patching keeps the store coherent via **generation-tagged
//! invalidation**: every mutation ([`CodeStore::replace`],
//! [`CodeStore::install_pool`]) bumps the store generation and
//! re-decodes exactly the touched entries, tagging them with the new
//! generation. The hot loop therefore needs no validity check at all —
//! a decoded entry is stale only in the window *inside* a patch
//! operation, never between steps — while tests can assert that a
//! patch really did fix up its entry by comparing tags.

use isa::{Addr, Bundle, Gr, Insn, Op, Pr, Program, NUM_GR, NUM_PR, TRACE_POOL_BASE};

/// Slot flag: the instruction reads floating-point registers and needs
/// the FP scoreboard walk.
pub const FLAG_FR_READS: u8 = 1 << 0;

/// One predecoded instruction slot: the instruction plus its scoreboard
/// read sets, resolved to plain register indices.
///
/// Read lists are padded with always-ready registers (`r0` for general
/// registers, `f0` for floating point: neither is ever written, so
/// their ready cycle stays 0 forever). Padding lets the fast path walk
/// a fixed-size array with no length branch, and a padded entry is a
/// guaranteed no-op in the stall check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedSlot {
    /// The instruction itself.
    pub insn: Insn,
    /// Index of the qualifying predicate, `0` when the instruction is
    /// unpredicated: `p0` is hardwired true, so "no predicate" and
    /// "predicated on `p0`" issue alike and the predicate check needs
    /// no `Option` branch.
    pub qp: u8,
    /// General registers read (scoreboard sources), `r0`-padded.
    /// No operation reads more than two general registers.
    pub gr_reads: [u8; 2],
    /// Floating-point registers read, `f0`-padded (`fma` reads three).
    pub fr_reads: [u8; 3],
    /// `FLAG_*` bits.
    pub flags: u8,
}

impl DecodedSlot {
    fn decode(insn: Insn) -> DecodedSlot {
        let mut gr_reads = [0u8; 2];
        let reads = insn.op.gr_reads();
        debug_assert!(reads.len() <= 2, "no op reads more than two GRs");
        for (i, r) in reads.iter().take(2).enumerate() {
            gr_reads[i] = r.index() as u8;
        }
        let mut fr_reads = [0u8; 3];
        for (i, f) in insn.op.fr_reads().enumerate() {
            fr_reads[i] = f.index() as u8;
        }
        let mut flags = 0u8;
        if fr_reads != [0u8; 3] {
            flags |= FLAG_FR_READS;
        }
        DecodedSlot { insn, qp: insn.qp.map_or(0, |p| p.index() as u8), gr_reads, fr_reads, flags }
    }
}

/// One predecoded bundle: three decoded slots plus bundle-level
/// metadata the fast path would otherwise re-derive per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedBundle {
    /// The three decoded slots.
    pub slots: [DecodedSlot; 3],
    /// Bit `s` set when slot `s` holds a conditional branch
    /// (`br.cond`); drives the predicated-off fall-through recording
    /// without rescanning the bundle.
    pub cond_branch_mask: u8,
    /// Indices of the slots that are not no-ops, in slot order; only
    /// the first `live_len` entries are meaningful. The fast path walks
    /// this list and never touches a nop (predication of a nop has no
    /// architectural or timing effect, so skipping one is exact).
    pub live: [u8; 3],
    /// Number of live slots.
    pub live_len: u8,
    /// True when the bundle is *register-only*: it has a live slot, and
    /// every live slot is an unpredicated integer ALU or compare op
    /// whose register indices are all in range (see `is_reg_only`).
    /// The fast tier runs such a bundle on a short path (see
    /// [`crate::exec`]).
    pub reg_only: bool,
    /// Store generation at which this entry was (re)decoded.
    pub generation: u64,
}

impl DecodedBundle {
    fn decode(bundle: &Bundle, generation: u64) -> DecodedBundle {
        let slots = [
            DecodedSlot::decode(bundle.slots[0]),
            DecodedSlot::decode(bundle.slots[1]),
            DecodedSlot::decode(bundle.slots[2]),
        ];
        let mut cond_branch_mask = 0u8;
        let mut live = [0u8; 3];
        let mut live_len = 0u8;
        for (s, insn) in bundle.slots.iter().enumerate() {
            if matches!(insn.op, Op::BrCond { .. }) {
                cond_branch_mask |= 1 << s;
            }
            if !insn.is_nop() {
                live[live_len as usize] = s as u8;
                live_len += 1;
            }
        }
        DecodedBundle {
            slots,
            cond_branch_mask,
            live,
            live_len,
            reg_only: live_len > 0 && bundle.iter_real().all(|(_, insn)| is_reg_only(insn)),
            generation,
        }
    }

    /// The live (non-nop) slot indices, in slot order.
    #[inline]
    pub fn live(&self) -> &[u8] {
        &self.live[..self.live_len as usize]
    }
}

/// True for an unpredicated `add`, `adds`, `sub`, `shladd`, `and`, `or`,
/// `xor`, `movl`, `mov`, `cmp` or immediate `cmp` whose general
/// registers are below [`NUM_GR`] and whose predicates are below
/// [`NUM_PR`]: the ops [`Machine::exec_alu_op`](crate::Machine) defines.
/// Each has zero latency, reads only general registers, and cannot
/// fault, halt, branch or touch memory. An op with an out-of-range
/// register stays outside the class, so it takes the general path and
/// panics there.
fn is_reg_only(insn: &Insn) -> bool {
    let gr = |r: Gr| r.index() < NUM_GR;
    let pr = |p: Pr| p.index() < NUM_PR;
    insn.qp.is_none()
        && match insn.op {
            Op::Add { d, a, b }
            | Op::Sub { d, a, b }
            | Op::Shladd { d, a, b, .. }
            | Op::And { d, a, b }
            | Op::Or { d, a, b }
            | Op::Xor { d, a, b } => gr(d) && gr(a) && gr(b),
            Op::AddI { d, a, .. } | Op::Mov { d, s: a } => gr(d) && gr(a),
            Op::MovL { d, .. } => gr(d),
            Op::Cmp { pt, pf, a, b, .. } => pr(pt) && pr(pf) && gr(a) && gr(b),
            Op::CmpI { pt, pf, a, .. } => pr(pt) && pr(pf) && gr(a),
            _ => false,
        }
}

/// Location of a decoded bundle inside the store: segment plus index.
/// Resolved once per executed bundle, then used for direct indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeLoc {
    /// True when the bundle lives in the trace-pool segment.
    pub pool: bool,
    /// Index within the segment.
    pub index: u32,
}

/// A dense arena of predecoded bundles mirroring the static program
/// image and the trace pool. See the module docs for the coherence
/// protocol.
///
/// The default store is empty; the fast tier swaps it in while it
/// holds the real store for the duration of a run (see
/// [`crate::exec`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeStore {
    code_base: u64,
    static_bundles: Vec<DecodedBundle>,
    pool: Vec<DecodedBundle>,
    generation: u64,
}

impl CodeStore {
    /// Predecodes every bundle of `program` (generation 0, empty pool).
    pub fn new(program: &Program) -> CodeStore {
        let static_bundles =
            program.bundles().iter().map(|b| DecodedBundle::decode(b, 0)).collect();
        CodeStore {
            code_base: program.code_base(),
            static_bundles,
            pool: Vec::new(),
            generation: 0,
        }
    }

    /// Re-targets the store at a fresh `program`, reusing the static
    /// arena's allocation and emptying the trace pool. A reset counts
    /// as a mutation: the generation keeps increasing rather than
    /// restarting at 0, so decoded entries cached for the previous
    /// program can never be mistaken for entries of the new one — the
    /// same tag discipline that keeps live patching coherent keeps
    /// machine reuse coherent.
    pub fn reset(&mut self, program: &Program) {
        self.generation += 1;
        let generation = self.generation;
        self.code_base = program.code_base();
        self.static_bundles.clear();
        self.static_bundles
            .extend(program.bundles().iter().map(|b| DecodedBundle::decode(b, generation)));
        self.pool.clear();
    }

    /// Current store generation; bumped by every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Resolves a code address to a store location, mirroring
    /// [`Machine::bundle_at`](crate::Machine::bundle_at) exactly:
    /// addresses resolve to their containing bundle; unmapped addresses
    /// return `None`.
    #[inline]
    pub fn locate(&self, addr: Addr) -> Option<CodeLoc> {
        let a = addr.bundle_align().0;
        if a >= TRACE_POOL_BASE {
            let idx = ((a - TRACE_POOL_BASE) / Addr::BUNDLE_BYTES) as usize;
            (idx < self.pool.len()).then_some(CodeLoc { pool: true, index: idx as u32 })
        } else {
            if a < self.code_base {
                return None;
            }
            let idx = ((a - self.code_base) / Addr::BUNDLE_BYTES) as usize;
            (idx < self.static_bundles.len()).then_some(CodeLoc { pool: false, index: idx as u32 })
        }
    }

    /// The decoded bundle at `loc`.
    #[inline]
    pub fn decoded(&self, loc: CodeLoc) -> &DecodedBundle {
        if loc.pool {
            &self.pool[loc.index as usize]
        } else {
            &self.static_bundles[loc.index as usize]
        }
    }

    /// The decoded slot `slot` of the bundle at `loc`, by value.
    #[inline]
    pub fn slot(&self, loc: CodeLoc, slot: u8) -> DecodedSlot {
        self.decoded(loc).slots[slot as usize]
    }

    /// Predecodes and appends freshly installed trace-pool bundles.
    pub fn install_pool(&mut self, bundles: &[Bundle]) {
        self.generation += 1;
        let generation = self.generation;
        self.pool.extend(bundles.iter().map(|b| DecodedBundle::decode(b, generation)));
    }

    /// Re-decodes the entry at `addr` after a patch replaced its
    /// bundle, tagging it with a fresh generation. Returns `false`
    /// (and changes nothing) when `addr` does not map to an entry —
    /// the caller's address check failed first in that case.
    pub fn replace(&mut self, addr: Addr, bundle: &Bundle) -> bool {
        let Some(loc) = self.locate(addr) else {
            return false;
        };
        self.generation += 1;
        let decoded = DecodedBundle::decode(bundle, self.generation);
        if loc.pool {
            self.pool[loc.index as usize] = decoded;
        } else {
            self.static_bundles[loc.index as usize] = decoded;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{AccessSize, CmpOp, Fr, SlotKind, CODE_BASE};

    fn prog(bundles: Vec<Bundle>) -> Program {
        Program::new(CODE_BASE, bundles)
    }

    fn nop_bundle() -> Bundle {
        Bundle::pack(&[Insn::nop(SlotKind::M)]).unwrap()
    }

    #[test]
    fn decode_extracts_read_sets_and_flags() {
        let ld = Insn::new(Op::Ld {
            d: Gr(20),
            base: Gr(14),
            post_inc: 8,
            size: AccessSize::U8,
            spec: false,
        });
        let st = Insn::new(Op::St { s: Gr(20), base: Gr(15), post_inc: 0, size: AccessSize::U8 });
        let fma = Insn::new(Op::Fma { d: Fr(9), a: Fr(8), b: Fr(7), c: Fr(9) });
        let b = Bundle::pack(&[ld, st, fma]).unwrap();
        let d = DecodedBundle::decode(&b, 3);
        assert_eq!(d.slots[0].gr_reads, [14, 0]);
        assert_eq!(d.slots[1].gr_reads, [20, 15]);
        assert_eq!(d.slots[2].fr_reads, [8, 7, 9]);
        assert_eq!(d.live(), &[0, 1, 2]);
        assert_eq!(d.slots[0].qp, 0, "unpredicated means p0");
        assert_ne!(d.slots[2].flags & FLAG_FR_READS, 0);
        assert_eq!(d.cond_branch_mask, 0);
        assert_eq!(d.generation, 3);
    }

    #[test]
    fn nops_and_cond_branches_are_flagged() {
        let br = Insn::predicated(Pr(1), Op::BrCond { target: Addr(CODE_BASE) });
        let b = Bundle::pack(&[br]).unwrap();
        let d = DecodedBundle::decode(&b, 0);
        let br_slot = b.slots.iter().position(|i| i.op.is_branch()).unwrap();
        assert_eq!(d.cond_branch_mask, 1 << br_slot);
        assert_eq!(d.live(), &[br_slot as u8], "every other slot is a nop");
        assert_eq!(d.slots[br_slot].qp, 1);
    }

    /// One instance of every `Op` variant, all registers in range,
    /// each with whether it is in the register-only class. The
    /// classifying match has no wildcard, so a new variant fails to
    /// compile here until it is listed.
    fn every_op() -> Vec<(Op, bool)> {
        let (d, a, b) = (Gr(20), Gr(14), Gr(15));
        let (pt, pf) = (Pr(1), Pr(2));
        let (f, g, h) = (Fr(9), Fr(8), Fr(7));
        let target = Addr(CODE_BASE);
        let size = AccessSize::U8;
        let op = CmpOp::Lt;
        let ops = [
            Op::Nop(SlotKind::I),
            Op::Add { d, a, b },
            Op::AddI { d, a, imm: -1 },
            Op::Sub { d, a, b },
            Op::Shladd { d, a, count: 3, b },
            Op::And { d, a, b },
            Op::Or { d, a, b },
            Op::Xor { d, a, b },
            Op::MovL { d, imm: 1 << 40 },
            Op::Mov { d, s: a },
            Op::Cmp { op, pt, pf, a, b },
            Op::CmpI { op, pt, pf, a, imm: 0 },
            Op::Ld { d, base: a, post_inc: 8, size, spec: false },
            Op::Ld { d, base: a, post_inc: 0, size, spec: true },
            Op::St { s: d, base: a, post_inc: 8, size },
            Op::Ldf { d: f, base: a, post_inc: 8 },
            Op::Stf { s: f, base: a, post_inc: 8 },
            Op::Lfetch { base: a, post_inc: 64 },
            Op::Fma { d: f, a: g, b: h, c: f },
            Op::Fadd { d: f, a: g, b: h },
            Op::Fmul { d: f, a: g, b: h },
            Op::Getf { d, s: f },
            Op::Setf { d: f, s: a },
            Op::Br { target },
            Op::BrCond { target },
            Op::BrCall { target },
            Op::BrRet,
            Op::Alloc,
            Op::Halt,
        ];
        ops.into_iter()
            .map(|op| {
                let class = match op {
                    Op::Add { .. }
                    | Op::AddI { .. }
                    | Op::Sub { .. }
                    | Op::Shladd { .. }
                    | Op::And { .. }
                    | Op::Or { .. }
                    | Op::Xor { .. }
                    | Op::MovL { .. }
                    | Op::Mov { .. }
                    | Op::Cmp { .. }
                    | Op::CmpI { .. } => true,
                    Op::Nop(_)
                    | Op::Ld { .. }
                    | Op::St { .. }
                    | Op::Ldf { .. }
                    | Op::Stf { .. }
                    | Op::Lfetch { .. }
                    | Op::Fma { .. }
                    | Op::Fadd { .. }
                    | Op::Fmul { .. }
                    | Op::Getf { .. }
                    | Op::Setf { .. }
                    | Op::Br { .. }
                    | Op::BrCond { .. }
                    | Op::BrCall { .. }
                    | Op::BrRet
                    | Op::Alloc
                    | Op::Halt => false,
                };
                (op, class)
            })
            .collect()
    }

    fn reg_only(insns: &[Insn]) -> bool {
        DecodedBundle::decode(&Bundle::pack(insns).unwrap(), 0).reg_only
    }

    #[test]
    fn the_register_only_class_is_unpredicated_in_range_integer_alu_ops() {
        let ops = every_op();
        let variants: std::collections::HashSet<_> =
            ops.iter().map(|(op, _)| std::mem::discriminant(op)).collect();
        assert_eq!(variants.len(), 28, "one entry per `Op` variant");

        for (op, class) in ops {
            // Alone in its bundle (a lone nop leaves no live slot), then
            // predicated, even on `p0`, and beside a memory op.
            assert_eq!(reg_only(&[Insn::new(op)]), class, "{op:?}");
            assert!(!reg_only(&[Insn::predicated(Pr(1), op)]), "predicated {op:?}");
            assert!(!reg_only(&[Insn::predicated(Pr(0), op)]), "p0-predicated {op:?}");
            let st = Insn::new(Op::St { s: Gr(1), base: Gr(2), post_inc: 0, size: AccessSize::U8 });
            if let Some(b) = Bundle::pack(&[st, Insn::new(op)]) {
                assert!(!DecodedBundle::decode(&b, 0).reg_only, "{op:?} beside a store");
            }
        }

        // A full bundle of class ops is in; a trailing `br.cond`, the
        // loop-closing bundle, is not.
        let add = Insn::new(Op::Add { d: Gr(20), a: Gr(20), b: Gr(20) });
        let addi = Insn::new(Op::AddI { d: Gr(9), a: Gr(9), imm: -1 });
        assert!(reg_only(&[add, addi]));
        assert!(!reg_only(&[
            addi,
            Insn::predicated(Pr(1), Op::BrCond { target: Addr(CODE_BASE) })
        ]));
    }

    #[test]
    fn an_out_of_range_register_leaves_the_register_only_class() {
        let (x, y) = (Gr(20), Gr(14));
        let bad = Gr(isa::NUM_GR as u8);
        let bad_p = Pr(isa::NUM_PR as u8);
        let three: [fn(Gr, Gr, Gr) -> Op; 6] = [
            |d, a, b| Op::Add { d, a, b },
            |d, a, b| Op::Sub { d, a, b },
            |d, a, b| Op::Shladd { d, a, count: 2, b },
            |d, a, b| Op::And { d, a, b },
            |d, a, b| Op::Or { d, a, b },
            |d, a, b| Op::Xor { d, a, b },
        ];
        let mut ops: Vec<Op> =
            three.iter().flat_map(|mk| [mk(bad, x, y), mk(x, bad, y), mk(x, y, bad)]).collect();
        let op = CmpOp::Eq;
        ops.extend([
            Op::AddI { d: bad, a: x, imm: 1 },
            Op::AddI { d: x, a: bad, imm: 1 },
            Op::Mov { d: bad, s: x },
            Op::Mov { d: x, s: bad },
            Op::MovL { d: bad, imm: 1 },
            Op::Cmp { op, pt: bad_p, pf: Pr(2), a: x, b: y },
            Op::Cmp { op, pt: Pr(1), pf: bad_p, a: x, b: y },
            Op::Cmp { op, pt: Pr(1), pf: Pr(2), a: bad, b: y },
            Op::Cmp { op, pt: Pr(1), pf: Pr(2), a: x, b: bad },
            Op::CmpI { op, pt: bad_p, pf: Pr(2), a: x, imm: 0 },
            Op::CmpI { op, pt: Pr(1), pf: bad_p, a: x, imm: 0 },
            Op::CmpI { op, pt: Pr(1), pf: Pr(2), a: bad, imm: 0 },
        ]);
        for op in ops {
            assert!(!reg_only(&[Insn::new(op)]), "{op:?}");
        }
    }

    #[test]
    fn locate_mirrors_bundle_addressing() {
        let store = CodeStore::new(&prog(vec![nop_bundle(), nop_bundle()]));
        assert_eq!(store.locate(Addr(CODE_BASE)), Some(CodeLoc { pool: false, index: 0 }));
        // Mid-bundle addresses resolve to the containing bundle.
        assert_eq!(store.locate(Addr(CODE_BASE + 17)), Some(CodeLoc { pool: false, index: 1 }));
        assert_eq!(store.locate(Addr(CODE_BASE + 32)), None);
        assert_eq!(store.locate(Addr(CODE_BASE - 16)), None);
        assert_eq!(store.locate(Addr(TRACE_POOL_BASE)), None, "empty pool");
    }

    #[test]
    fn mutations_bump_and_tag_generations() {
        let mut store = CodeStore::new(&prog(vec![nop_bundle()]));
        assert_eq!(store.generation(), 0);

        store.install_pool(&[nop_bundle(), nop_bundle()]);
        assert_eq!(store.generation(), 1);
        let loc = store.locate(Addr(TRACE_POOL_BASE + 16)).unwrap();
        assert!(loc.pool);
        assert_eq!(store.decoded(loc).generation, 1);

        let halt = Bundle::branch_only(Insn::new(Op::Halt));
        assert!(store.replace(Addr(CODE_BASE), &halt));
        assert_eq!(store.generation(), 2);
        let loc = store.locate(Addr(CODE_BASE)).unwrap();
        assert_eq!(store.decoded(loc).generation, 2);
        assert!(matches!(store.slot(loc, 2).insn.op, Op::Halt));

        assert!(!store.replace(Addr(CODE_BASE + 0x1000), &halt));
        assert_eq!(store.generation(), 2, "failed replace must not bump");
    }

    #[test]
    fn reset_retargets_and_keeps_generation_monotone() {
        let mut store = CodeStore::new(&prog(vec![nop_bundle()]));
        store.install_pool(&[nop_bundle()]);
        let before = store.generation();

        let halt = Bundle::branch_only(Insn::new(Op::Halt));
        store.reset(&prog(vec![halt, nop_bundle(), nop_bundle()]));
        assert!(
            store.generation() > before,
            "reset is a mutation: stale decoded entries must never share a tag with fresh ones"
        );
        assert_eq!(store.locate(Addr(TRACE_POOL_BASE)), None, "pool emptied");
        let loc = store.locate(Addr(CODE_BASE)).unwrap();
        assert_eq!(store.decoded(loc).generation, store.generation());
        assert!(matches!(store.slot(loc, 2).insn.op, Op::Halt));
        assert!(store.locate(Addr(CODE_BASE + 32)).is_some(), "new program fully decoded");
    }
}
