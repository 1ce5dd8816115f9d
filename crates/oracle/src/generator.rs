//! Seeded random program generator.
//!
//! Emits well-formed [`ProgSpec`]s that terminate by construction
//! (all loops are counter-bounded with unpredicated control) yet
//! exercise the surfaces ADORE transforms: hot counted loops with
//! post-increment load streams (so traces get selected and prefetches
//! inserted), predication, forward skip-branches, speculative loads to
//! wild addresses, FP compute and cross-unit transfers, every
//! [`AccessSize`], calls/returns, and bundle stop-bit placement.
//!
//! The program shape is fixed: 3–6 segments, a 25 % predication rate,
//! a 12 % bundle-stop rate and a 1.5 % wild-access rate are constants.
//! [`GenConfig`] sets only the arena size.
//!
//! Register discipline (the generator's safety contract):
//!
//! * **address registers** `r4`–`r7` each own one region of the arena;
//!   they are written only by generator-issued `movl` re-bases, by
//!   at most one bounded post-increment walker per loop, and by the
//!   jump-chase segment below, so non-speculative memory accesses
//!   through them never leave the arena;
//! * a **jump-chase segment** pairs two address registers: one walks a
//!   ring of pointer nodes the segment itself built inside its region,
//!   the other dereferences each node's jump pointer. Every value those
//!   registers can hold is a node address the build loop stored, so
//!   chasing them stays in-arena (`tests/corpus/` pins the same idiom);
//! * **data registers** (`r8`–`r20`, `r31`–`r45`) hold arbitrary
//!   values; only speculative (`ld.s`) and `lfetch` accesses — both
//!   non-faulting — go through them, except for deliberate rare "wild"
//!   accesses that fault identically in every execution;
//! * **loop counters** `r21` (inner), `r22` (outer) are never
//!   destinations of random ops; loop control is never predicated;
//! * ADORE's reserved registers `r27`–`r30` and `p6` are never touched;
//! * random compares write paired predicates `p1–p5`/`p9–p13`
//!   (pt `pk` always pairs with pf `pk+8`), loop control owns `p7/p8`
//!   and `p14/p15`.

use isa::{AccessSize, CmpOp, Fr, Gr, Insn, Op, Pr, SlotKind};
use workloads::Rng64;

use crate::spec::{BranchKind, Item, ProgSpec};

/// Address registers, one per arena region (shared with the mutation
/// engine, whose safety predicate protects the same registers).
pub(crate) const ADDR_REGS: [Gr; 4] = [Gr(4), Gr(5), Gr(6), Gr(7)];
/// Inner / outer loop counters.
pub(crate) const INNER_COUNTER: Gr = Gr(21);
pub(crate) const OUTER_COUNTER: Gr = Gr(22);

/// Program segments (straight/loop/skip/call), hot loop included, are
/// drawn from `[MIN_SEGMENTS, MAX_SEGMENTS]`.
const MIN_SEGMENTS: u64 = 3;
/// See [`MIN_SEGMENTS`].
const MAX_SEGMENTS: u64 = 6;
/// Probability that an eligible instruction is predicated.
const PREDICATION_PROB: f64 = 0.25;
/// Probability of an explicit bundle stop after an instruction.
const FLUSH_PROB: f64 = 0.12;
/// Probability of a rare wild (faulting) non-speculative access in a
/// straight segment.
const WILD_MEM_PROB: f64 = 0.015;

/// Generator settings. The program shape (segment count and the
/// predication, bundle-stop and wild-access rates) is fixed; only the
/// arena size is settable.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Arena capacity in bytes; split evenly across the four address
    /// registers `r4`–`r7`.
    pub arena_bytes: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { arena_bytes: 1 << 18 }
    }
}

/// Counts of generator features present in emitted programs; summed
/// across cases into the fuzz report so coverage regressions are
/// visible in `results/fuzz.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Coverage {
    pub ld1: u64,
    pub ld2: u64,
    pub ld4: u64,
    pub ld8: u64,
    pub st1: u64,
    pub st2: u64,
    pub st4: u64,
    pub st8: u64,
    pub ldf: u64,
    pub stf: u64,
    pub spec_ld: u64,
    pub spec_ld_alias: u64,
    pub lfetch: u64,
    pub fp_arith: u64,
    pub xfer: u64,
    pub predicated: u64,
    pub flushes: u64,
    pub loops: u64,
    pub hot_loops: u64,
    pub jump_loops: u64,
    pub skip_blocks: u64,
    pub always_taken: u64,
    pub calls: u64,
    pub wild_mem: u64,
    pub bare_ret: u64,
    pub rebases: u64,
}

impl Coverage {
    /// Adds another coverage record into this one.
    pub fn absorb(&mut self, other: &Coverage) {
        for (a, (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a += b;
        }
    }

    /// The campaign's `feat:` coverage keys: one per non-zero field.
    pub fn keys(&self) -> Vec<String> {
        self.fields()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(name, _)| format!("feat:{name}"))
            .collect()
    }

    /// `(name, count)` pairs, stable order — for the JSON report.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ld1", self.ld1),
            ("ld2", self.ld2),
            ("ld4", self.ld4),
            ("ld8", self.ld8),
            ("st1", self.st1),
            ("st2", self.st2),
            ("st4", self.st4),
            ("st8", self.st8),
            ("ldf", self.ldf),
            ("stf", self.stf),
            ("spec_ld", self.spec_ld),
            ("spec_ld_alias", self.spec_ld_alias),
            ("lfetch", self.lfetch),
            ("fp_arith", self.fp_arith),
            ("xfer", self.xfer),
            ("predicated", self.predicated),
            ("flushes", self.flushes),
            ("loops", self.loops),
            ("hot_loops", self.hot_loops),
            ("jump_loops", self.jump_loops),
            ("skip_blocks", self.skip_blocks),
            ("always_taken", self.always_taken),
            ("calls", self.calls),
            ("wild_mem", self.wild_mem),
            ("bare_ret", self.bare_ret),
            ("rebases", self.rebases),
        ]
    }

    fn fields_mut(&mut self) -> Vec<&mut u64> {
        vec![
            &mut self.ld1,
            &mut self.ld2,
            &mut self.ld4,
            &mut self.ld8,
            &mut self.st1,
            &mut self.st2,
            &mut self.st4,
            &mut self.st8,
            &mut self.ldf,
            &mut self.stf,
            &mut self.spec_ld,
            &mut self.spec_ld_alias,
            &mut self.lfetch,
            &mut self.fp_arith,
            &mut self.xfer,
            &mut self.predicated,
            &mut self.flushes,
            &mut self.loops,
            &mut self.hot_loops,
            &mut self.jump_loops,
            &mut self.skip_blocks,
            &mut self.always_taken,
            &mut self.calls,
            &mut self.wild_mem,
            &mut self.bare_ret,
            &mut self.rebases,
        ]
    }
}

/// Generates one fuzz case from `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> (ProgSpec, Coverage) {
    let mut g = Gen {
        rng: Rng64::new(seed ^ 0x6f72_61636c_6521),
        arena_bytes: cfg.arena_bytes,
        items: Vec::new(),
        cov: Coverage::default(),
        next_label: 0,
        subs: Vec::new(),
    };
    g.program();
    let spec = ProgSpec {
        seed,
        arena_bytes: cfg.arena_bytes,
        mem_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        items: g.items,
    };
    (spec, g.cov)
}

/// Recomputes an approximate static feature [`Coverage`] for an
/// arbitrary spec by scanning its items — the uniform feature
/// extractor for programs whose generation-time counters don't exist
/// (mutated children, imported corpus reproducers). Structural
/// features are reconstructed from the item stream: a backward branch
/// is a loop (one targeting a `hot_outer` label a hot loop, one
/// targeting a `jmp_outer` label a jump-chase loop), a forward
/// conditional branch a skip block, `(p0)` on one an always-taken
/// edge. Deliberately static: it counts what the program *contains*,
/// mirroring the counters the generator bumps while emitting.
pub fn static_coverage(spec: &ProgSpec) -> Coverage {
    let mut cov = Coverage::default();
    let mut defined = std::collections::HashMap::new();
    for (i, item) in spec.items.iter().enumerate() {
        if let Item::Label(name) = item {
            defined.entry(name.as_str()).or_insert(i);
        }
    }
    let count_size = |cov: &mut Coverage, s: AccessSize, store: bool| {
        let slot = match (s, store) {
            (AccessSize::U1, false) => &mut cov.ld1,
            (AccessSize::U2, false) => &mut cov.ld2,
            (AccessSize::U4, false) => &mut cov.ld4,
            (AccessSize::U8, false) => &mut cov.ld8,
            (AccessSize::U1, true) => &mut cov.st1,
            (AccessSize::U2, true) => &mut cov.st2,
            (AccessSize::U4, true) => &mut cov.st4,
            (AccessSize::U8, true) => &mut cov.st8,
        };
        *slot += 1;
    };
    let mut seen_halt = false;
    for (i, item) in spec.items.iter().enumerate() {
        match item {
            Item::Flush => cov.flushes += 1,
            Item::Label(_) => {}
            Item::Branch { qp, kind, label } => {
                let backward = defined.get(label.as_str()).is_some_and(|&d| d < i);
                match kind {
                    BranchKind::Call => cov.calls += 1,
                    _ if backward => {
                        cov.loops += 1;
                        if label.starts_with("hot_outer") {
                            cov.hot_loops += 1;
                        } else if label.starts_with("jmp_outer") {
                            cov.jump_loops += 1;
                        }
                    }
                    BranchKind::Cond => {
                        cov.skip_blocks += 1;
                        if *qp == Some(Pr(0)) {
                            cov.always_taken += 1;
                        }
                    }
                    BranchKind::Uncond => {}
                }
            }
            Item::Insn(insn) => {
                if insn.qp.is_some() {
                    cov.predicated += 1;
                }
                match insn.op {
                    Op::Ld { d, base, size, spec: speculative, .. } => {
                        if speculative {
                            cov.spec_ld += 1;
                            if d == base {
                                cov.spec_ld_alias += 1;
                            }
                        } else {
                            count_size(&mut cov, size, false);
                            if !ADDR_REGS.contains(&base) {
                                cov.wild_mem += 1;
                            }
                        }
                    }
                    Op::St { base, size, .. } => {
                        count_size(&mut cov, size, true);
                        if !ADDR_REGS.contains(&base) {
                            cov.wild_mem += 1;
                        }
                    }
                    Op::Ldf { .. } => cov.ldf += 1,
                    Op::Stf { .. } => cov.stf += 1,
                    Op::Lfetch { .. } => cov.lfetch += 1,
                    Op::Fma { .. } | Op::Fadd { .. } | Op::Fmul { .. } => cov.fp_arith += 1,
                    Op::Getf { .. } | Op::Setf { .. } => cov.xfer += 1,
                    Op::MovL { d, .. } if ADDR_REGS.contains(&d) => cov.rebases += 1,
                    // A `ret` in the main body (before the terminating
                    // halt) is a bare return; in a sub body it is the
                    // normal epilogue.
                    Op::BrRet if !seen_halt => cov.bare_ret += 1,
                    Op::Halt => seen_halt = true,
                    _ => {}
                }
            }
        }
    }
    cov
}

/// Emits `n` random discipline-safe items from a stream derived off
/// `rng` (one draw) — the mutation engine's source of replacement and
/// insertion material. Reuses the generator's own op tables, so
/// mutated programs stay inside the register-discipline contract;
/// never emits labels, branches or `halt`. `heavy` additionally allows
/// in-region memory ops through the pinned address registers.
pub(crate) fn random_safe_items(
    rng: &mut Rng64,
    cfg: &GenConfig,
    n: usize,
    heavy: bool,
) -> Vec<Item> {
    let mut g = Gen {
        rng: Rng64::new(rng.next_u64()),
        arena_bytes: cfg.arena_bytes,
        items: Vec::new(),
        cov: Coverage::default(),
        next_label: 0,
        subs: Vec::new(),
    };
    for _ in 0..n {
        if heavy {
            g.random_op(false);
        } else {
            g.random_light_op();
        }
    }
    g.items
}

struct Gen {
    rng: Rng64,
    arena_bytes: u64,
    items: Vec<Item>,
    cov: Coverage,
    next_label: u64,
    /// Names of generated subroutines (bodies appended after `halt`).
    subs: Vec<String>,
}

impl Gen {
    fn region(&self, reg_idx: usize) -> (u64, u64) {
        let size = self.arena_bytes / ADDR_REGS.len() as u64;
        (sim::DATA_BASE + reg_idx as u64 * size, size)
    }

    fn fresh_label(&mut self, prefix: &str) -> String {
        self.next_label += 1;
        format!("{prefix}_{}", self.next_label)
    }

    fn data_reg(&mut self) -> Gr {
        // r8–r20 and r31–r45, never counters or reserved registers.
        if self.rng.bool() {
            Gr(self.rng.range_u64(8, 21) as u8)
        } else {
            Gr(self.rng.range_u64(31, 46) as u8)
        }
    }

    fn fp_reg(&mut self) -> Fr {
        Fr(self.rng.range_u64(2, 13) as u8)
    }

    /// A predicate pair for a random compare: pt `pk`, pf `pk+8`.
    fn cmp_pair(&mut self) -> (Pr, Pr) {
        let k = self.rng.range_u64(1, 6) as u8;
        (Pr(k), Pr(k + 8))
    }

    /// A predicate to *read* as a qualifying predicate.
    fn read_pr(&mut self) -> Pr {
        let pool = [1u8, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15];
        Pr(*self.rng.choose(&pool))
    }

    fn cmp_op(&mut self) -> CmpOp {
        *self.rng.choose(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Ltu,
        ])
    }

    fn size(&mut self) -> AccessSize {
        *self.rng.choose(&[AccessSize::U1, AccessSize::U2, AccessSize::U4, AccessSize::U8])
    }

    fn count_size(&mut self, s: AccessSize) {
        match s {
            AccessSize::U1 => self.cov.ld1 += 1,
            AccessSize::U2 => self.cov.ld2 += 1,
            AccessSize::U4 => self.cov.ld4 += 1,
            AccessSize::U8 => self.cov.ld8 += 1,
        }
    }

    fn count_store_size(&mut self, s: AccessSize) {
        match s {
            AccessSize::U1 => self.cov.st1 += 1,
            AccessSize::U2 => self.cov.st2 += 1,
            AccessSize::U4 => self.cov.st4 += 1,
            AccessSize::U8 => self.cov.st8 += 1,
        }
    }

    /// Emits `insn`, maybe predicated (when `predicable`), maybe
    /// followed by a bundle stop.
    fn put(&mut self, insn: Insn, predicable: bool) {
        let insn = if predicable && insn.qp.is_none() && self.rng.chance(PREDICATION_PROB) {
            self.cov.predicated += 1;
            Insn::predicated(self.read_pr(), insn.op)
        } else {
            insn
        };
        self.items.push(Item::Insn(insn));
        if self.rng.chance(FLUSH_PROB) {
            self.cov.flushes += 1;
            self.items.push(Item::Flush);
        }
    }

    /// Re-bases an address register to a random 8-aligned spot in its
    /// region, `margin` bytes clear of the region end.
    fn rebase(&mut self, reg_idx: usize, margin: u64) {
        let (base, size) = self.region(reg_idx);
        let span = (size - margin) / 8;
        let addr = base + 8 * self.rng.below(span.max(1));
        self.cov.rebases += 1;
        self.put(Insn::new(Op::MovL { d: ADDR_REGS[reg_idx], imm: addr as i64 }), false);
    }

    fn program(&mut self) {
        // Pin every address register into its region first.
        for i in 0..ADDR_REGS.len() {
            self.rebase(i, 64);
        }
        // Seed a few data and FP registers with interesting values.
        for _ in 0..self.rng.range_u64(2, 6) {
            let d = self.data_reg();
            let imm = match self.rng.below(3) {
                0 => self.rng.range_i64(-128, 128),
                // An address inside the arena: makes ld.s hit real data.
                1 => self.rng.range_u64(sim::DATA_BASE, sim::DATA_BASE + self.arena_bytes) as i64,
                _ => self.rng.next_u64() as i64,
            };
            self.put(Insn::new(Op::MovL { d, imm }), false);
        }
        for _ in 0..self.rng.range_u64(1, 3) {
            let d = self.fp_reg();
            let s = self.data_reg();
            self.cov.xfer += 1;
            self.put(Insn::new(Op::Setf { d, s }), false);
        }

        let n = self.rng.range_u64(MIN_SEGMENTS, MAX_SEGMENTS + 1) as usize;
        let hot_at = self.rng.below(n as u64) as usize;
        for i in 0..n {
            if i == hot_at {
                self.hot_loop();
            } else {
                match self.rng.below(5) {
                    0 => self.simple_loop(),
                    1 => self.skip_block(),
                    2 if self.subs.len() < 2 => self.call_site(),
                    3 => self.jump_chase_loop(),
                    _ => self.straight(),
                }
            }
        }
        self.items.push(Item::Insn(Insn::new(Op::Halt)));

        // Subroutine bodies live after the halt.
        let subs = std::mem::take(&mut self.subs);
        for name in subs {
            self.items.push(Item::Label(name));
            for _ in 0..self.rng.range_u64(2, 6) {
                self.random_op(false);
            }
            self.items.push(Item::Insn(Insn::new(Op::BrRet)));
        }
    }

    /// The trace-selection target: a counted outer×inner loop whose
    /// inner body streams through an arena region with a post-increment
    /// load — the shape ADORE patches with prefetches.
    fn hot_loop(&mut self) {
        self.cov.hot_loops += 1;
        let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
        let addr = ADDR_REGS[reg_idx];
        let stride = *self.rng.choose(&[8i64, 16]);
        let (base, size) = self.region(reg_idx);
        let max_trips = (size - 64) / stride as u64;
        let trips = self.rng.range_u64(1200, 2600.min(max_trips)) as i64;
        let outer = self.rng.range_u64(8, 20) as i64;
        let acc = self.data_reg();
        let dst = loop {
            let d = self.data_reg();
            if d != acc {
                break d;
            }
        };
        let outer_label = self.fresh_label("hot_outer");
        let inner_label = self.fresh_label("hot_inner");

        self.put(Insn::new(Op::MovL { d: OUTER_COUNTER, imm: outer }), false);
        self.items.push(Item::Label(outer_label.clone()));
        // Restart the stream at the region base every outer iteration.
        self.put(Insn::new(Op::MovL { d: addr, imm: base as i64 }), false);
        self.put(Insn::new(Op::MovL { d: INNER_COUNTER, imm: trips }), false);
        self.items.push(Item::Label(inner_label.clone()));

        let size_choice = *self.rng.choose(&[AccessSize::U8, AccessSize::U4]);
        self.count_size(size_choice);
        self.put(
            Insn::new(Op::Ld {
                d: dst,
                base: addr,
                post_inc: stride,
                size: size_choice,
                spec: false,
            }),
            false,
        );
        // Use the loaded value so misses stall and show up in the DEAR.
        self.put(Insn::new(Op::Add { d: acc, a: acc, b: dst }), false);
        for _ in 0..self.rng.below(3) {
            self.random_light_op();
        }
        self.put(Insn::new(Op::AddI { d: INNER_COUNTER, a: INNER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(7), pf: Pr(8), a: INNER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch {
            qp: Some(Pr(7)),
            kind: BranchKind::Cond,
            label: inner_label,
        });
        self.put(Insn::new(Op::AddI { d: OUTER_COUNTER, a: OUTER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(14), pf: Pr(15), a: OUTER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch {
            qp: Some(Pr(14)),
            kind: BranchKind::Cond,
            label: outer_label,
        });
    }

    /// Draws `N` pairwise-distinct data registers.
    fn distinct_data_regs<const N: usize>(&mut self) -> [Gr; N] {
        let mut out = [Gr(0); N];
        let mut i = 0;
        while i < N {
            let r = self.data_reg();
            if !out[..i].contains(&r) {
                out[i] = r;
                i += 1;
            }
        }
        out
    }

    /// A dependence-based jump-pointer chase: the shape behind the
    /// ADORE analyzer's `Pattern::JumpPointer` classification. A build
    /// loop links a power-of-two ring of 64-byte nodes inside one
    /// region — `next` at offset 0, `jump` (the node `hops` steps ahead
    /// in traversal order) at offset 8 — then a counted outer×inner
    /// chase loads the jump pointer through the ring pointer, a payload
    /// through the jump pointer, and advances via `next`. Every pointer
    /// the chase dereferences was stored by the build loop, so all
    /// loads stay in-arena and can be non-speculative.
    fn jump_chase_loop(&mut self) {
        self.cov.loops += 1; // the build loop
        self.cov.jump_loops += 1;
        let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
        let ring_reg = ADDR_REGS[reg_idx];
        // The partner register dereferences jump pointers; its values
        // are node addresses in `ring_reg`'s region, still in-arena.
        let jump_reg = ADDR_REGS[reg_idx ^ 1];
        let (base, size) = self.region(reg_idx);
        // Largest power-of-two ring that leaves half the region free.
        let mut ring = 4096u64;
        while ring * 2 <= size / 2 {
            ring *= 2;
        }
        let mask = (ring - 1) as i64;
        let nodes = (ring / 64) as i64;
        // Odd multiple of the node stride: coprime with the ring, so
        // the traversal visits every node before repeating.
        let step = 64 * (2 * self.rng.range_i64(1, 8) + 1);
        let hops = self.rng.range_i64(2, 6);
        let jump_step = hops * step;
        let trips = self.rng.range_u64(700, 1600) as i64;
        let outer = self.rng.range_u64(5, 11) as i64;
        let [rbase, rcur, rnext, rjoff, rabs, rmask] = self.distinct_data_regs::<6>();

        let build = self.fresh_label("jmp_build");
        let outer_label = self.fresh_label("jmp_outer");
        let inner_label = self.fresh_label("jmp_inner");

        // Build loop: node.next = base + ((cur + step) & mask),
        // node.jump = base + ((cur + hops*step) & mask).
        self.cov.st8 += 2;
        self.put(Insn::new(Op::MovL { d: rbase, imm: base as i64 }), false);
        self.put(Insn::new(Op::MovL { d: rcur, imm: 0 }), false);
        self.put(Insn::new(Op::MovL { d: rmask, imm: mask }), false);
        self.put(Insn::new(Op::MovL { d: INNER_COUNTER, imm: nodes }), false);
        self.items.push(Item::Label(build.clone()));
        self.put(Insn::new(Op::Add { d: ring_reg, a: rbase, b: rcur }), false);
        self.put(Insn::new(Op::AddI { d: rnext, a: rcur, imm: step }), false);
        self.put(Insn::new(Op::And { d: rnext, a: rnext, b: rmask }), false);
        self.put(Insn::new(Op::Add { d: rabs, a: rbase, b: rnext }), false);
        self.put(
            Insn::new(Op::St { s: rabs, base: ring_reg, post_inc: 8, size: AccessSize::U8 }),
            false,
        );
        self.put(Insn::new(Op::AddI { d: rjoff, a: rcur, imm: jump_step }), false);
        self.put(Insn::new(Op::And { d: rjoff, a: rjoff, b: rmask }), false);
        self.put(Insn::new(Op::Add { d: rabs, a: rbase, b: rjoff }), false);
        self.put(
            Insn::new(Op::St { s: rabs, base: ring_reg, post_inc: 0, size: AccessSize::U8 }),
            false,
        );
        self.put(Insn::new(Op::Mov { d: rcur, s: rnext }), false);
        self.put(Insn::new(Op::AddI { d: INNER_COUNTER, a: INNER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(7), pf: Pr(8), a: INNER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch { qp: Some(Pr(7)), kind: BranchKind::Cond, label: build });

        // Chase loop. The payload load's base derives from the jump
        // load, whose base derives from the recurrent ring pointer —
        // exactly the two-leg dependence ADORE's pattern analyzer
        // resolves to Pattern::JumpPointer.
        let acc = rcur; // setup scratch, free after the build loop
        let dst = rnext;
        self.cov.ld8 += 3;
        self.put(Insn::new(Op::MovL { d: OUTER_COUNTER, imm: outer }), false);
        self.items.push(Item::Label(outer_label.clone()));
        self.cov.rebases += 1;
        self.put(Insn::new(Op::MovL { d: ring_reg, imm: base as i64 }), false);
        self.put(Insn::new(Op::MovL { d: INNER_COUNTER, imm: trips }), false);
        self.items.push(Item::Label(inner_label.clone()));
        self.put(Insn::new(Op::AddI { d: jump_reg, a: ring_reg, imm: 8 }), false);
        self.put(
            Insn::new(Op::Ld {
                d: jump_reg,
                base: jump_reg,
                post_inc: 0,
                size: AccessSize::U8,
                spec: false,
            }),
            false,
        );
        self.put(Insn::new(Op::AddI { d: jump_reg, a: jump_reg, imm: 16 }), false);
        self.put(
            Insn::new(Op::Ld {
                d: dst,
                base: jump_reg,
                post_inc: 0,
                size: AccessSize::U8,
                spec: false,
            }),
            false,
        );
        self.put(Insn::new(Op::Add { d: acc, a: acc, b: dst }), false);
        self.put(
            Insn::new(Op::Ld {
                d: ring_reg,
                base: ring_reg,
                post_inc: 0,
                size: AccessSize::U8,
                spec: false,
            }),
            false,
        );
        self.put(Insn::new(Op::AddI { d: INNER_COUNTER, a: INNER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(7), pf: Pr(8), a: INNER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch {
            qp: Some(Pr(7)),
            kind: BranchKind::Cond,
            label: inner_label,
        });
        self.put(Insn::new(Op::AddI { d: OUTER_COUNTER, a: OUTER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(14), pf: Pr(15), a: OUTER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch {
            qp: Some(Pr(14)),
            kind: BranchKind::Cond,
            label: outer_label,
        });
    }

    /// A short counted loop, optionally walking an arena region with
    /// one bounded post-increment memory op.
    fn simple_loop(&mut self) {
        self.cov.loops += 1;
        let trips = self.rng.range_u64(4, 64) as i64;
        let label = self.fresh_label("loop");

        // Optional walker through a region: stride * trips stays well
        // inside the region (|stride| ≤ 32, trips ≤ 64 → ≤ 2 KiB).
        let walker = if self.rng.chance(0.7) {
            let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
            let stride = 8 * self.rng.range_i64(-4, 5);
            let (base, size) = self.region(reg_idx);
            let start = if stride >= 0 {
                base + 8 * self.rng.below(8)
            } else {
                base + size - 64 - 8 * self.rng.below(8)
            };
            self.put(Insn::new(Op::MovL { d: ADDR_REGS[reg_idx], imm: start as i64 }), false);
            Some((ADDR_REGS[reg_idx], stride))
        } else {
            None
        };

        self.put(Insn::new(Op::MovL { d: INNER_COUNTER, imm: trips }), false);
        self.items.push(Item::Label(label.clone()));
        if let Some((addr, stride)) = walker {
            self.walker_op(addr, stride);
        }
        for _ in 0..self.rng.range_u64(2, 6) {
            self.random_light_op();
        }
        self.put(Insn::new(Op::AddI { d: INNER_COUNTER, a: INNER_COUNTER, imm: -1 }), false);
        self.put(
            Insn::new(Op::CmpI { op: CmpOp::Gt, pt: Pr(7), pf: Pr(8), a: INNER_COUNTER, imm: 0 }),
            false,
        );
        self.items.push(Item::Branch { qp: Some(Pr(7)), kind: BranchKind::Cond, label });
    }

    /// The single bounded post-increment access of a loop body.
    fn walker_op(&mut self, addr: Gr, stride: i64) {
        match self.rng.below(5) {
            0 => {
                let s = self.size();
                self.count_size(s);
                let d = self.data_reg();
                self.put(
                    Insn::new(Op::Ld { d, base: addr, post_inc: stride, size: s, spec: false }),
                    true,
                );
            }
            1 => {
                let s = self.size();
                self.count_store_size(s);
                let src = self.data_reg();
                self.put(Insn::new(Op::St { s: src, base: addr, post_inc: stride, size: s }), true);
            }
            2 => {
                self.cov.ldf += 1;
                let d = self.fp_reg();
                self.put(Insn::new(Op::Ldf { d, base: addr, post_inc: stride }), true);
            }
            3 => {
                self.cov.stf += 1;
                let s = self.fp_reg();
                self.put(Insn::new(Op::Stf { s, base: addr, post_inc: stride }), true);
            }
            _ => {
                self.cov.lfetch += 1;
                self.put(Insn::new(Op::Lfetch { base: addr, post_inc: stride }), true);
            }
        }
    }

    /// A forward conditional skip over a few instructions.
    fn skip_block(&mut self) {
        self.cov.skip_blocks += 1;
        let (pt, pf) = self.cmp_pair();
        let a = self.data_reg();
        let op = self.cmp_op();
        if self.rng.bool() {
            let b = self.data_reg();
            self.put(Insn::new(Op::Cmp { op, pt, pf, a, b }), false);
        } else {
            let imm = self.rng.range_i64(-64, 64);
            self.put(Insn::new(Op::CmpI { op, pt, pf, a, imm }), false);
        }
        let label = self.fresh_label("skip");
        let qp = if self.rng.chance(0.1) {
            // Rare always-taken edge (p0 is hardwired true).
            self.cov.always_taken += 1;
            Pr(0)
        } else if self.rng.bool() {
            pt
        } else {
            pf
        };
        self.items.push(Item::Branch {
            qp: Some(qp),
            kind: BranchKind::Cond,
            label: label.clone(),
        });
        for _ in 0..self.rng.range_u64(1, 4) {
            self.random_light_op();
        }
        self.items.push(Item::Label(label));
    }

    /// A call to a (possibly fresh) straight-line subroutine.
    fn call_site(&mut self) {
        self.cov.calls += 1;
        let name = if !self.subs.is_empty() && self.rng.bool() {
            self.rng.choose(&self.subs).clone()
        } else {
            let n = self.fresh_label("sub");
            self.subs.push(n.clone());
            n
        };
        self.items.push(Item::Branch { qp: None, kind: BranchKind::Call, label: name });
    }

    /// A run of random straight-line instructions.
    fn straight(&mut self) {
        for _ in 0..self.rng.range_u64(3, 10) {
            self.random_op(true);
        }
    }

    /// Any random instruction; `allow_hazards` additionally enables the
    /// rare deliberately-faulting accesses (straight code only, so a
    /// fault is identical in every execution).
    fn random_op(&mut self, allow_hazards: bool) {
        if allow_hazards && self.rng.chance(WILD_MEM_PROB) {
            if self.rng.below(8) == 0 {
                // Bare `br.ret` with an empty call stack: a consistent
                // ReturnUnderflow fault in every execution.
                self.cov.bare_ret += 1;
                self.put(Insn::new(Op::BrRet), false);
                return;
            }
            self.cov.wild_mem += 1;
            let base = self.data_reg();
            if self.rng.bool() {
                let s = self.size();
                let d = self.data_reg();
                self.put(Insn::new(Op::Ld { d, base, post_inc: 0, size: s, spec: false }), false);
            } else {
                let s = self.size();
                let src = self.data_reg();
                self.put(Insn::new(Op::St { s: src, base, post_inc: 0, size: s }), false);
            }
            return;
        }
        match self.rng.below(12) {
            0..=2 => self.random_light_op(),
            3 => {
                // Load through an address register (in-bounds by
                // construction, no post-increment outside loops).
                let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
                if self.rng.below(4) == 0 {
                    self.rebase(reg_idx, 64);
                }
                let s = self.size();
                self.count_size(s);
                let d = self.data_reg();
                self.put(
                    Insn::new(Op::Ld {
                        d,
                        base: ADDR_REGS[reg_idx],
                        post_inc: 0,
                        size: s,
                        spec: false,
                    }),
                    true,
                );
            }
            4 => {
                let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
                let s = self.size();
                self.count_store_size(s);
                let src = self.data_reg();
                self.put(
                    Insn::new(Op::St { s: src, base: ADDR_REGS[reg_idx], post_inc: 0, size: s }),
                    true,
                );
            }
            5 => {
                let reg_idx = self.rng.below(ADDR_REGS.len() as u64) as usize;
                if self.rng.bool() {
                    self.cov.ldf += 1;
                    let d = self.fp_reg();
                    self.put(Insn::new(Op::Ldf { d, base: ADDR_REGS[reg_idx], post_inc: 0 }), true);
                } else {
                    self.cov.stf += 1;
                    let s = self.fp_reg();
                    self.put(Insn::new(Op::Stf { s, base: ADDR_REGS[reg_idx], post_inc: 0 }), true);
                }
            }
            6 => {
                // Speculative load from a *data* register: arbitrary
                // address, non-faulting; sometimes d == base to cover
                // the load-then-post-increment aliasing quirk.
                self.cov.spec_ld += 1;
                let base = self.data_reg();
                let alias = self.rng.below(4) == 0;
                let d = if alias {
                    self.cov.spec_ld_alias += 1;
                    base
                } else {
                    self.data_reg()
                };
                let s = self.size();
                let post_inc = 8 * self.rng.range_i64(-2, 3);
                self.put(Insn::new(Op::Ld { d, base, post_inc, size: s, spec: true }), true);
            }
            7 => {
                // lfetch through a data register: wild addresses are
                // architecturally inert.
                self.cov.lfetch += 1;
                let base = self.data_reg();
                let post_inc = 8 * self.rng.range_i64(-2, 3);
                self.put(Insn::new(Op::Lfetch { base, post_inc }), true);
            }
            8 => {
                let (pt, pf) = self.cmp_pair();
                let a = self.data_reg();
                let op = self.cmp_op();
                if self.rng.bool() {
                    let b = self.data_reg();
                    self.put(Insn::new(Op::Cmp { op, pt, pf, a, b }), true);
                } else {
                    let imm = self.rng.range_i64(-1024, 1024);
                    self.put(Insn::new(Op::CmpI { op, pt, pf, a, imm }), true);
                }
            }
            9 => {
                self.cov.fp_arith += 1;
                let d = self.fp_reg();
                let a = self.fp_reg();
                let b = self.fp_reg();
                match self.rng.below(3) {
                    0 => {
                        let c = self.fp_reg();
                        self.put(Insn::new(Op::Fma { d, a, b, c }), true);
                    }
                    1 => self.put(Insn::new(Op::Fadd { d, a, b }), true),
                    _ => self.put(Insn::new(Op::Fmul { d, a, b }), true),
                }
            }
            10 => {
                self.cov.xfer += 1;
                if self.rng.bool() {
                    let d = self.data_reg();
                    let s = self.fp_reg();
                    self.put(Insn::new(Op::Getf { d, s }), true);
                } else {
                    let d = self.fp_reg();
                    let s = self.data_reg();
                    self.put(Insn::new(Op::Setf { d, s }), true);
                }
            }
            _ => {
                let kind = *self.rng.choose(&[SlotKind::M, SlotKind::I, SlotKind::F, SlotKind::B]);
                self.put(Insn::nop(kind), true);
            }
        }
    }

    /// ALU / FP / transfer ops safe anywhere (no memory access through
    /// data registers, no control flow, no address-register writes).
    fn random_light_op(&mut self) {
        let d = self.data_reg();
        match self.rng.below(10) {
            0 => {
                let a = self.data_reg();
                let b = self.data_reg();
                self.put(Insn::new(Op::Add { d, a, b }), true);
            }
            1 => {
                let a = self.data_reg();
                let imm = self.rng.range_i64(-512, 512);
                self.put(Insn::new(Op::AddI { d, a, imm }), true);
            }
            2 => {
                let a = self.data_reg();
                let b = self.data_reg();
                self.put(Insn::new(Op::Sub { d, a, b }), true);
            }
            3 => {
                let a = self.data_reg();
                let b = self.data_reg();
                let count = self.rng.range_u64(1, 5) as u8;
                self.put(Insn::new(Op::Shladd { d, a, count, b }), true);
            }
            4 => {
                let a = self.data_reg();
                let b = self.data_reg();
                let op = match self.rng.below(3) {
                    0 => Op::And { d, a, b },
                    1 => Op::Or { d, a, b },
                    _ => Op::Xor { d, a, b },
                };
                self.put(Insn::new(op), true);
            }
            5 => {
                let s = self.data_reg();
                self.put(Insn::new(Op::Mov { d, s }), true);
            }
            6 => {
                let imm = self.rng.range_i64(-(1 << 40), 1 << 40);
                self.put(Insn::new(Op::MovL { d, imm }), true);
            }
            7 => {
                self.cov.fp_arith += 1;
                let fd = self.fp_reg();
                let a = self.fp_reg();
                let b = self.fp_reg();
                self.put(Insn::new(Op::Fadd { d: fd, a, b }), true);
            }
            8 => {
                self.cov.xfer += 1;
                let s = self.fp_reg();
                self.put(Insn::new(Op::Getf { d, s }), true);
            }
            _ => {
                self.put(Insn::nop(SlotKind::I), true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Outcome};

    #[test]
    fn generated_programs_assemble() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let (spec, _) = generate(seed, &cfg);
            spec.assemble().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let (a, ca) = generate(42, &cfg);
        let (b, cb) = generate(42, &cfg);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    }

    #[test]
    fn generated_programs_terminate_in_reference_fuel() {
        let cfg = GenConfig::default();
        for seed in 0..12 {
            let (spec, _) = generate(seed, &cfg);
            let p = spec.assemble().unwrap();
            let mut i = Interp::new(p, spec.arena_bytes as usize);
            spec.init_memory(i.mem_mut());
            let out = i.run(4_000_000);
            assert!(
                matches!(out, Outcome::Halted | Outcome::Faulted(_)),
                "seed {seed} did not terminate: {out:?}"
            );
        }
    }

    #[test]
    fn coverage_accumulates_every_feature_over_many_seeds() {
        let cfg = GenConfig::default();
        let mut total = Coverage::default();
        for seed in 0..300 {
            let (_, cov) = generate(seed, &cfg);
            total.absorb(&cov);
        }
        for (name, count) in total.fields() {
            assert!(count > 0, "feature {name} never generated in 300 seeds");
        }
    }
}
