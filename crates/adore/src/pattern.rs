//! Data-reference pattern detection by dependence slicing.
//!
//! Given a loop trace and a delinquent load, ADORE analyzes the
//! instructions that compute the load's address (paper §3.2, Fig. 5) and
//! classifies the reference as:
//!
//! - **direct array**: the base register only ever advances by constant
//!   amounts per iteration (post-increments and `adds`), so the stride
//!   is their sum — e.g. Fig. 5 A, where `r14` is incremented by 4 three
//!   times and the stride is 12;
//! - **indirect array**: the address is an affine function of a value
//!   produced by another load whose own base is an induction — Fig. 5 B;
//! - **pointer chasing**: a register is updated by a load whose address
//!   depends on that same register (the *recurrent pointer*), and the
//!   delinquent load's address depends on it — Fig. 5 C, where `r11`
//!   both feeds and is fed by `ld8 r11 = [r11]`.
//!
//! Anything else — fp↔int conversions in the slice, compute the slicer
//! cannot follow — is reported as a failure, matching the paper's
//! description of why vpr, lucas and gap see no gain.

use std::collections::HashSet;

use isa::{AccessSize, Gr, Op};

use crate::reject::Rejection;
use crate::trace::Trace;

/// A classified data-reference pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Direct array reference with a constant per-iteration stride in
    /// bytes. `fp` marks floating-point loads (no L1D-line alignment of
    /// the prefetch distance, §3.3).
    Direct {
        /// Stride in bytes per iteration.
        stride: i64,
        /// Floating-point load.
        fp: bool,
        /// The base register (for prefetch-pointer initialization).
        base: Gr,
    },
    /// Two-level indirect reference `data[f(index[k])]`.
    Indirect {
        /// Trace position of the level-1 (index) load.
        index_load: (usize, u8),
        /// Base register of the index load (an induction).
        index_base: Gr,
        /// Per-iteration stride of the index walk, bytes.
        index_stride: i64,
        /// Access size of the index load.
        index_size: AccessSize,
        /// Address reconstruction: `addr = (index << shift) + add_reg + offset`.
        shift: u8,
        /// Loop-invariant register added to the scaled index.
        add_reg: Option<Gr>,
        /// Constant offset folded from `adds` in the slice.
        offset: i64,
    },
    /// Pointer-chasing reference through a recurrent pointer.
    PointerChase {
        /// The recurrent pointer register.
        recurrent: Gr,
        /// Trace position of the load that updates the pointer.
        update_pos: (usize, u8),
    },
    /// Jump-pointer (dependence-based) reference: the delinquent load's
    /// address is produced by an intermediate *jump load* that itself
    /// hangs off the recurrent pointer — `v = [[p + jump_offset] +
    /// payload_offset]` while `p = [p + …]` advances the chase. The
    /// Pointer-Chase Prefetcher scheme extrapolates `p`, speculatively
    /// dereferences the jump field at the extrapolated node, and
    /// prefetches the payload it names.
    JumpPointer {
        /// The recurrent pointer register.
        recurrent: Gr,
        /// Trace position of the load that updates the pointer.
        update_pos: (usize, u8),
        /// Trace position of the intermediate (jump) load.
        jump_pos: (usize, u8),
        /// Byte offset of the jump field from the recurrent pointer.
        jump_offset: i64,
        /// Byte offset of the delinquent load from the jumped-to
        /// pointer.
        payload_offset: i64,
    },
}

impl Pattern {
    /// Stable name of the pattern class (the [`crate::InsertionStats`]
    /// field its stream counts under).
    pub fn kind(&self) -> &'static str {
        match self {
            Pattern::Direct { .. } => "direct",
            Pattern::Indirect { .. } => "indirect",
            Pattern::PointerChase { .. } => "pointer",
            Pattern::JumpPointer { .. } => "jump",
        }
    }
}

/// Linearized view of the trace body with (bundle, slot) positions.
struct Body<'a> {
    trace: &'a Trace,
}

impl<'a> Body<'a> {
    fn iter(&self) -> impl Iterator<Item = ((usize, u8), &'a isa::Insn)> + '_ {
        self.trace.bundles.iter().enumerate().flat_map(|(bi, b)| {
            b.slots.iter().enumerate().map(move |(si, insn)| ((bi, si as u8), insn))
        })
    }

    /// All writes (including post-increments) to `reg` in the body.
    fn writes_to(&self, reg: Gr) -> Vec<((usize, u8), &'a Op)> {
        self.iter()
            .filter(|(_, i)| {
                i.op.gr_write() == Some(reg)
                    || i.op.gr_post_inc_write().map(|(r, _)| r) == Some(reg)
            })
            .map(|(p, i)| (p, &i.op))
            .collect()
    }
}

/// True when every write to `reg` is a constant self-increment; returns
/// the net per-iteration stride.
fn induction_stride(body: &Body<'_>, reg: Gr) -> Option<i64> {
    let writes = body.writes_to(reg);
    if writes.is_empty() {
        return None;
    }
    let mut stride = 0i64;
    for (_, op) in &writes {
        match **op {
            Op::AddI { d, a, imm } if d == reg && a == reg => stride += imm,
            _ => {
                if let Some((r, inc)) = op.gr_post_inc_write() {
                    if r == reg {
                        stride += inc;
                        continue;
                    }
                }
                return None;
            }
        }
    }
    Some(stride)
}

/// Flow-sensitive backward slice: does the value of `reg` as observed at
/// `before` derive from the load at `target_pos`? Follows *defining*
/// writes (the reaching definition, wrapping circularly since the loop
/// body repeats), so a register that is redefined before use — like
/// `r15` in the paper's Fig. 5 B — does not spuriously look recurrent.
fn depends_on_load(
    body: &Body<'_>,
    reg: Gr,
    before: (usize, u8),
    target_pos: (usize, u8),
    visited: &mut HashSet<(Gr, (usize, u8))>,
) -> bool {
    let Some((pos, def)) = defining_write(body, reg, before) else {
        return false;
    };
    if !visited.insert((reg, pos)) {
        return false; // cycle not passing through the target
    }
    // Post-increment "definitions" of the base are self-increments: the
    // dataflow continues through the same register (and does NOT pass
    // through the load's destination, so a strided post-increment load
    // must not look recurrent).
    if def.gr_post_inc_write().map(|(r, _)| r) == Some(reg) && def.gr_write() != Some(reg) {
        return depends_on_load(body, reg, pos, target_pos, visited);
    }
    if pos == target_pos {
        return true;
    }
    for r in def.gr_reads() {
        if depends_on_load(body, r, pos, target_pos, visited) {
            return true;
        }
    }
    false
}

/// Detects a recurrent pointer: a load whose own address derives from
/// the value it loaded on the previous iteration. Returns
/// `(recurrent, update_pos)`.
fn find_recurrent_pointer(body: &Body<'_>) -> Option<(Gr, (usize, u8))> {
    for (pos, insn) in body.iter() {
        if let Op::Ld { d, base, .. } = insn.op {
            let mut visited = HashSet::new();
            if depends_on_load(body, base, pos, pos, &mut visited) {
                return Some((d, pos));
            }
        }
    }
    None
}

/// Classifies the delinquent load at `pos` within the loop trace.
///
/// # Errors
///
/// Returns the pattern-analysis subset of [`Rejection`]:
/// [`Rejection::NotALoad`], [`Rejection::UnanalyzableSlice`] or
/// [`Rejection::LoopInvariantAddress`].
pub fn classify(trace: &Trace, pos: (usize, u8)) -> Result<Pattern, Rejection> {
    let body = Body { trace };
    let insn = trace.insn_at(pos).ok_or(Rejection::NotALoad)?;
    let (base, fp) = match insn.op {
        Op::Ld { base, .. } => (base, false),
        Op::Ldf { base, .. } => (base, true),
        _ => return Err(Rejection::NotALoad),
    };

    // 0. Loop-invariant address: nothing to prefetch.
    if body.writes_to(base).is_empty() {
        return Err(Rejection::LoopInvariantAddress);
    }

    // 1. Direct: the base is a pure induction.
    if let Some(stride) = induction_stride(&body, base) {
        if stride == 0 {
            return Err(Rejection::LoopInvariantAddress);
        }
        return Ok(Pattern::Direct { stride, fp, base });
    }

    // 2. Pointer chasing: a recurrent pointer feeds this address. A
    //    dependence path that passes through an *intermediate* load off
    //    the recurrent pointer is the jump-pointer shape; a path that
    //    reaches the pointer-update load directly is a plain chase.
    if let Some((recurrent, update_pos)) = find_recurrent_pointer(&body) {
        if update_pos == pos {
            return Ok(Pattern::PointerChase { recurrent, update_pos });
        }
        if let Some(j) = resolve_jump(&body, base, pos, update_pos) {
            return Ok(Pattern::JumpPointer {
                recurrent,
                update_pos,
                jump_pos: j.jump_pos,
                jump_offset: j.jump_offset,
                payload_offset: j.payload_offset,
            });
        }
        let mut visited = HashSet::new();
        if depends_on_load(&body, base, pos, update_pos, &mut visited) {
            return Ok(Pattern::PointerChase { recurrent, update_pos });
        }
    }

    // 3. Indirect: the address is affine in another load's value.
    match resolve_affine(&body, base, pos) {
        Some(aff) => {
            let (index_pos, index_op) = aff.load;
            let (index_base, index_size) = match *index_op {
                Op::Ld { base, size, .. } => (base, size),
                _ => return Err(Rejection::UnanalyzableSlice),
            };
            let index_stride =
                induction_stride(&body, index_base).ok_or(Rejection::UnanalyzableSlice)?;
            if index_stride == 0 {
                return Err(Rejection::LoopInvariantAddress);
            }
            Ok(Pattern::Indirect {
                index_load: index_pos,
                index_base,
                index_stride,
                index_size,
                shift: aff.shift,
                add_reg: aff.add_reg,
                offset: aff.offset,
            })
        }
        None => Err(Rejection::UnanalyzableSlice),
    }
}

/// A resolved jump-pointer slice: the delinquent address is
/// `jump_load + payload_offset` where the jump load reads
/// `[recurrent + jump_offset]`.
struct Jump {
    jump_pos: (usize, u8),
    jump_offset: i64,
    payload_offset: i64,
}

/// Resolves `base` (as observed at `before`) to an intermediate load
/// whose own address roots at the recurrent pointer value produced at
/// `update_pos`. Follows only exact `mov`/`adds` links (plus
/// post-increment pass-throughs) so the two offsets stay precise enough
/// for the scheduler to reconstruct the access; fuzzier dependence
/// paths fall back to the plain pointer-chase classification.
fn resolve_jump(
    body: &Body<'_>,
    base: Gr,
    before: (usize, u8),
    update_pos: (usize, u8),
) -> Option<Jump> {
    // Leg 1: base → the intermediate (jump) load, folding constant
    // address offsets into payload_offset.
    let mut payload_offset = 0i64;
    let mut cur = base;
    let mut cur_pos = before;
    let mut jump = None;
    for _ in 0..16 {
        let (p, def) = defining_write(body, cur, cur_pos)?;
        if def.gr_post_inc_write().map(|(r, _)| r) == Some(cur) && def.gr_write() != Some(cur) {
            cur_pos = p; // post-increment: the value flows through
            continue;
        }
        match *def {
            Op::Ld { .. } => {
                if p == update_pos || p == before {
                    return None; // plain chase / self-reference
                }
                jump = Some((p, def));
                break;
            }
            Op::Mov { s, .. } => {
                cur = s;
                cur_pos = p;
            }
            Op::AddI { a, imm, .. } => {
                payload_offset += imm;
                cur = a;
                cur_pos = p;
            }
            _ => return None,
        }
    }
    let (jump_pos, jump_op) = jump?;
    let Op::Ld { base: jbase, .. } = *jump_op else { return None };
    // Leg 2: the jump load's own base → the recurrent pointer value
    // written at update_pos, folding offsets into jump_offset.
    let mut jump_offset = 0i64;
    let mut cur = jbase;
    let mut cur_pos = jump_pos;
    for _ in 0..16 {
        let (p, def) = defining_write(body, cur, cur_pos)?;
        if p == update_pos {
            return Some(Jump { jump_pos, jump_offset, payload_offset });
        }
        if def.gr_post_inc_write().map(|(r, _)| r) == Some(cur) && def.gr_write() != Some(cur) {
            cur_pos = p;
            continue;
        }
        match *def {
            Op::Mov { s, .. } => {
                cur = s;
                cur_pos = p;
            }
            Op::AddI { a, imm, .. } => {
                jump_offset += imm;
                cur = a;
                cur_pos = p;
            }
            _ => return None,
        }
    }
    None
}

/// An address that is affine in the value of one load:
/// `(load << shift) + add_reg + offset`.
struct Affine<'a> {
    load: ((usize, u8), &'a Op),
    shift: u8,
    add_reg: Option<Gr>,
    offset: i64,
}

/// Resolves the chain of `adds`/`add`/`shladd`/`mov` definitions of
/// `reg` (the last write reaching `before`, circularly) down to a single
/// load value plus invariants.
fn resolve_affine<'a>(body: &Body<'a>, reg: Gr, before: (usize, u8)) -> Option<Affine<'a>> {
    let mut shift = 0u8;
    let mut add_reg = None;
    let mut offset = 0i64;
    let mut cur = reg;
    let mut cur_pos = before;
    for _ in 0..16 {
        let (pos, def) = defining_write(body, cur, cur_pos)?;
        match *def {
            Op::Ld { .. } => {
                return Some(Affine { load: (pos, def), shift, add_reg, offset });
            }
            Op::Mov { s, .. } => {
                cur = s;
                cur_pos = pos;
            }
            Op::AddI { a, imm, .. } => {
                offset += imm;
                cur = a;
                cur_pos = pos;
            }
            Op::Add { a, b, .. } => {
                // One side must be loop-invariant.
                let a_inv = body.writes_to(a).is_empty();
                let b_inv = body.writes_to(b).is_empty();
                match (a_inv, b_inv) {
                    (true, false) => {
                        add_reg = merge_inv(add_reg, a)?;
                        cur = b;
                        cur_pos = pos;
                    }
                    (false, true) => {
                        add_reg = merge_inv(add_reg, b)?;
                        cur = a;
                        cur_pos = pos;
                    }
                    _ => return None,
                }
            }
            Op::Shladd { a, count, b, .. } => {
                let b_inv = body.writes_to(b).is_empty();
                if !b_inv || shift != 0 {
                    return None;
                }
                add_reg = merge_inv(add_reg, b)?;
                shift = count;
                cur = a;
                cur_pos = pos;
            }
            _ => return None, // getf/setf/unknown: unanalyzable
        }
    }
    None
}

fn merge_inv(existing: Option<Gr>, new: Gr) -> Option<Option<Gr>> {
    match existing {
        None => Some(Some(new)),
        Some(e) if e == new => Some(Some(e)),
        _ => None, // two distinct invariants: too complex
    }
}

/// The write of `reg` that reaches position `before`: the closest
/// preceding write in linear order, wrapping to the end of the body
/// (the loop repeats).
fn defining_write<'a>(
    body: &Body<'a>,
    reg: Gr,
    before: (usize, u8),
) -> Option<((usize, u8), &'a Op)> {
    let writes = body.writes_to(reg);
    if writes.is_empty() {
        return None;
    }
    writes
        .iter()
        .filter(|(p, _)| *p < before)
        .max_by_key(|(p, _)| *p)
        .or_else(|| writes.iter().max_by_key(|(p, _)| *p))
        .map(|(p, op)| (*p, *op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Addr, Asm, Bundle, CmpOp, Fr, Pr, CODE_BASE};

    /// Builds a fake loop trace directly from assembled bundles.
    fn trace_from(build: impl FnOnce(&mut Asm)) -> Trace {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.finish(CODE_BASE).unwrap();
        let bundles: Vec<Bundle> = p.bundles().to_vec();
        let origins = (0..bundles.len()).map(|i| p.addr_of(i)).collect();
        Trace {
            start: Addr(CODE_BASE),
            back_edge: None,
            fall_through_exit: Addr(CODE_BASE),
            is_loop: true,
            bundles,
            origins,
        }
    }

    /// Finds the n-th load in the trace.
    fn nth_load(t: &Trace, n: usize) -> (usize, u8) {
        let mut count = 0;
        for (bi, b) in t.bundles.iter().enumerate() {
            for (si, s) in b.slots.iter().enumerate() {
                if matches!(s.op, Op::Ld { .. } | Op::Ldf { .. }) {
                    if count == n {
                        return (bi, si as u8);
                    }
                    count += 1;
                }
            }
        }
        panic!("load {n} not found");
    }

    #[test]
    fn fig5a_direct_array_stride_sums_increments() {
        // The paper's Fig. 5 A: three increments of 4 ⇒ stride 12.
        let t = trace_from(|a| {
            a.addi(Gr(14), Gr(14), 4);
            a.st(AccessSize::U4, Gr(14), Gr(20), 4);
            a.ld(AccessSize::U4, Gr(20), Gr(14), 0);
            a.addi(Gr(14), Gr(14), 4);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(14), 4096);
            a.br_cond(Pr(1), "x");
            a.label("x");
        });
        let pos = nth_load(&t, 0);
        assert_eq!(classify(&t, pos), Ok(Pattern::Direct { stride: 12, fp: false, base: Gr(14) }));
    }

    #[test]
    fn post_increment_direct() {
        let t = trace_from(|a| {
            a.ld(AccessSize::U8, Gr(20), Gr(14), 64);
            a.add(Gr(21), Gr(20), Gr(21));
        });
        assert_eq!(
            classify(&t, nth_load(&t, 0)),
            Ok(Pattern::Direct { stride: 64, fp: false, base: Gr(14) })
        );
    }

    #[test]
    fn fp_load_direct() {
        let t = trace_from(|a| {
            a.ldf(Fr(8), Gr(14), 8);
            a.fma(Fr(9), Fr(8), Fr(1), Fr(9));
        });
        assert_eq!(
            classify(&t, nth_load(&t, 0)),
            Ok(Pattern::Direct { stride: 8, fp: true, base: Gr(14) })
        );
    }

    #[test]
    fn fig5b_indirect_array() {
        // The paper's Fig. 5 B: c = b[a[k++] - 1], one-byte elements.
        let t = trace_from(|a| {
            a.ld(AccessSize::U4, Gr(20), Gr(16), 4);
            a.add(Gr(15), Gr(25), Gr(20));
            a.addi(Gr(15), Gr(15), -1);
            a.ld(AccessSize::U1, Gr(15), Gr(15), 0);
        });
        let pos = nth_load(&t, 1);
        let p = classify(&t, pos).unwrap();
        match p {
            Pattern::Indirect {
                index_base,
                index_stride,
                shift,
                add_reg,
                offset,
                index_size,
                ..
            } => {
                assert_eq!(index_base, Gr(16));
                assert_eq!(index_stride, 4);
                assert_eq!(shift, 0);
                assert_eq!(add_reg, Some(Gr(25)));
                assert_eq!(offset, -1);
                assert_eq!(index_size, AccessSize::U4);
            }
            other => panic!("expected indirect, got {other:?}"),
        }
    }

    #[test]
    fn shladd_indirect() {
        let t = trace_from(|a| {
            a.ld(AccessSize::U4, Gr(20), Gr(16), 4);
            a.shladd(Gr(15), Gr(20), 3, Gr(25));
            a.ld(AccessSize::U8, Gr(21), Gr(15), 0);
            a.add(Gr(22), Gr(21), Gr(22));
        });
        let p = classify(&t, nth_load(&t, 1)).unwrap();
        match p {
            Pattern::Indirect { shift, add_reg, .. } => {
                assert_eq!(shift, 3);
                assert_eq!(add_reg, Some(Gr(25)));
            }
            other => panic!("expected indirect, got {other:?}"),
        }
    }

    #[test]
    fn fig5c_pointer_chase() {
        // The paper's Fig. 5 C (181.mcf): r11 recurs through memory.
        let t = trace_from(|a| {
            a.addi(Gr(11), Gr(34), 104);
            a.ld(AccessSize::U8, Gr(11), Gr(11), 0);
            a.ld(AccessSize::U8, Gr(34), Gr(11), 0);
        });
        // Both loads classify as pointer chasing.
        for n in 0..2 {
            match classify(&t, nth_load(&t, n)) {
                Ok(Pattern::PointerChase { .. }) => {}
                other => panic!("load {n}: expected pointer chase, got {other:?}"),
            }
        }
    }

    #[test]
    fn simple_self_chase() {
        // p = *(p + off) via a temp register.
        let t = trace_from(|a| {
            a.addi(Gr(40), Gr(41), 0);
            a.ld(AccessSize::U8, Gr(41), Gr(40), 0);
            a.addi(Gr(42), Gr(41), 8);
            a.ld(AccessSize::U8, Gr(43), Gr(42), 0);
            a.add(Gr(44), Gr(43), Gr(44));
        });
        // The payload load (second) also hangs off the recurrent pointer.
        match classify(&t, nth_load(&t, 1)) {
            Ok(Pattern::PointerChase { recurrent, .. }) => assert_eq!(recurrent, Gr(41)),
            other => panic!("expected chase, got {other:?}"),
        }
    }

    #[test]
    fn jump_pointer_through_intermediate_load() {
        // v = [[p + 8] + 16] while p = [p] advances: the jump-pointer
        // shape — the payload address is itself loaded from the node.
        let t = trace_from(|a| {
            a.addi(Gr(42), Gr(41), 8);
            a.ld(AccessSize::U8, Gr(43), Gr(42), 0); // q = p->jump
            a.addi(Gr(44), Gr(43), 16);
            a.ld(AccessSize::U8, Gr(45), Gr(44), 0); // v = q->payload
            a.add(Gr(46), Gr(45), Gr(46));
            a.ld(AccessSize::U8, Gr(41), Gr(41), 0); // p = p->next
        });
        match classify(&t, nth_load(&t, 1)) {
            Ok(Pattern::JumpPointer { recurrent, jump_offset, payload_offset, .. }) => {
                assert_eq!(recurrent, Gr(41));
                assert_eq!(jump_offset, 8);
                assert_eq!(payload_offset, 16);
            }
            other => panic!("expected jump pointer, got {other:?}"),
        }
        // The jump load itself (address = recurrent + 8) and the
        // pointer-update load stay plain chases.
        for n in [0, 2] {
            match classify(&t, nth_load(&t, n)) {
                Ok(Pattern::PointerChase { recurrent, .. }) => assert_eq!(recurrent, Gr(41)),
                other => panic!("load {n}: expected chase, got {other:?}"),
            }
        }
    }

    #[test]
    fn jump_pointer_with_zero_offsets() {
        // v = [[p]] with p advanced through a separate next field: both
        // offsets fold to zero.
        let t = trace_from(|a| {
            a.ld(AccessSize::U8, Gr(43), Gr(41), 0); // q = *p
            a.ld(AccessSize::U8, Gr(45), Gr(43), 0); // v = *q
            a.add(Gr(46), Gr(45), Gr(46));
            a.addi(Gr(42), Gr(41), 24);
            a.ld(AccessSize::U8, Gr(41), Gr(42), 0); // p = p->next
        });
        match classify(&t, nth_load(&t, 1)) {
            Ok(Pattern::JumpPointer { recurrent, jump_offset, payload_offset, .. }) => {
                assert_eq!(recurrent, Gr(41));
                assert_eq!(jump_offset, 0);
                assert_eq!(payload_offset, 0);
            }
            other => panic!("expected jump pointer, got {other:?}"),
        }
    }

    #[test]
    fn fp_conversion_is_unanalyzable() {
        let t = trace_from(|a| {
            a.emit(Op::Setf { d: Fr(8), s: Gr(20) });
            a.emit(Op::Getf { d: Gr(21), s: Fr(8) });
            a.shladd(Gr(22), Gr(21), 3, Gr(25));
            a.ld(AccessSize::U8, Gr(23), Gr(22), 0);
            a.addi(Gr(20), Gr(20), 1);
        });
        assert_eq!(classify(&t, nth_load(&t, 0)), Err(Rejection::UnanalyzableSlice));
    }

    #[test]
    fn loop_invariant_base_rejected() {
        let t = trace_from(|a| {
            a.ld(AccessSize::U8, Gr(20), Gr(14), 0);
            a.add(Gr(21), Gr(20), Gr(21));
        });
        assert_eq!(classify(&t, nth_load(&t, 0)), Err(Rejection::LoopInvariantAddress));
    }

    #[test]
    fn non_load_position_rejected() {
        let t = trace_from(|a| {
            a.addi(Gr(1), Gr(1), 1);
        });
        assert_eq!(classify(&t, (0, 1)), Err(Rejection::NotALoad));
    }
}
