//! Bundle-level mutation of corpus programs.
//!
//! The campaign derives new cases from interesting corpus entries
//! instead of always generating from scratch. Every operator stays
//! inside the generator's register-discipline contract (see the
//! `generator` module docs): protected registers — the pinned address
//! registers `r4`–`r7`, the loop counters `r21`/`r22`, ADORE's
//! reserved `r27`–`r30` — are never written by mutated code, loop
//! control predicates (`p6`–`p8`, `p14`/`p15`) are never clobbered,
//! and structural items (labels, branches, `halt`) are never replaced
//! or deleted. Structure *is* mutated, but only in closed units: a
//! splice copies a self-contained block (all branch targets inside,
//! no outside branch targeting in) from a donor, with its labels
//! renamed, into a top-level position of the child.
//!
//! Mutated programs may fault — a wild store is a legitimate fuzz case
//! — but the fault is architectural and identical on every leg, so
//! the three-way harness still reaches a verdict. What a mutation must
//! never do is diverge the legs or un-bound a loop, and the protected
//! sets above are exactly what guarantees that.
//!
//! Each child stacks one to three operators (`MAX_STACK`), and the
//! replacement and insertion material comes from the campaign's own
//! [`GenConfig`], the one that generates its fresh cases.

use isa::{Gr, Insn, Op, Pr};
use workloads::Rng64;

use crate::generator::{random_safe_items, GenConfig, ADDR_REGS, INNER_COUNTER, OUTER_COUNTER};
use crate::spec::{BranchKind, Item, ProgSpec};

/// Operators stacked per derived case are drawn from `[1, MAX_STACK]`.
const MAX_STACK: u64 = 3;

/// Stable operator names, in pick order (report/ledger keys).
pub const OPERATORS: [&str; 7] =
    ["havoc", "insert", "delete", "tweak_imm", "splice", "dup_block", "mem_seed"];

/// Derives a mutated child from `parent`, optionally splicing from
/// `donor`, and returns it with the names of the operators that
/// actually applied. The child is always assemblable: a candidate that
/// breaks assembly is discarded and re-derived (up to four attempts),
/// falling back to a copy of the parent with a re-spun case seed and
/// arena fill. The child's `seed` is always fresh — it drives the
/// ADORE-leg configuration (sampling seed, instrumentation toggle), so
/// even a body-identical fallback explores a new runtime schedule.
pub fn mutate(
    parent: &ProgSpec,
    donor: Option<&ProgSpec>,
    seed: u64,
    gen: &GenConfig,
) -> (ProgSpec, Vec<&'static str>) {
    let mut rng = Rng64::new(seed ^ 0x6d75_7461_7465); // "mutate"
    for _attempt in 0..4 {
        let mut child = parent.clone();
        child.seed = rng.next_u64();
        let mut applied: Vec<&'static str> = Vec::new();
        let stack = rng.range_u64(1, MAX_STACK + 1) as usize;
        let mut structural_done = false;
        for _ in 0..stack {
            let mut op = *rng.choose(&OPERATORS);
            if structural_done && (op == "splice" || op == "dup_block") {
                // At most one block copy per child: duplicated hot
                // loops multiply retired-instruction cost and would
                // push children over the interpreter fuel budget.
                op = "tweak_imm";
            }
            let ok = match op {
                "havoc" => havoc(&mut child, &mut rng, gen),
                "insert" => insert_ops(&mut child, &mut rng, gen),
                "delete" => delete_op(&mut child, &mut rng),
                "tweak_imm" => tweak_imm(&mut child, &mut rng),
                "splice" => {
                    structural_done = true;
                    splice(&mut child, donor.unwrap_or(parent), &mut rng)
                }
                "dup_block" => {
                    structural_done = true;
                    let source = child.clone();
                    splice(&mut child, &source, &mut rng)
                }
                "mem_seed" => {
                    child.mem_seed = rng.next_u64() | 1;
                    true
                }
                _ => unreachable!("operator list is fixed"),
            };
            if ok {
                applied.push(op);
            }
        }
        if !applied.is_empty() && child.assemble().is_ok() {
            return (child, applied);
        }
    }
    // Fallback: parent body, fresh runtime schedule and arena fill.
    let mut child = parent.clone();
    child.seed = rng.next_u64();
    child.mem_seed = rng.next_u64() | 1;
    (child, vec!["mem_seed"])
}

/// Registers mutated code must never write: pinned address registers,
/// loop counters, and ADORE's reserved block.
fn protected_gr(r: Gr) -> bool {
    ADDR_REGS.contains(&r) || r == INNER_COUNTER || r == OUTER_COUNTER || Gr::RESERVED.contains(&r)
}

/// Predicates mutated code must never write: loop control plus ADORE's
/// reserved `p6`.
fn protected_pr(p: Pr) -> bool {
    matches!(p.0, 6 | 7 | 8 | 14 | 15)
}

/// True when replacing or deleting `insn` cannot break the register
/// discipline or program structure.
fn mutable_insn(insn: &Insn) -> bool {
    match insn.op {
        Op::Halt | Op::BrRet | Op::Alloc => false,
        Op::Br { .. } | Op::BrCond { .. } | Op::BrCall { .. } => false,
        Op::Add { d, .. }
        | Op::AddI { d, .. }
        | Op::Sub { d, .. }
        | Op::Shladd { d, .. }
        | Op::And { d, .. }
        | Op::Or { d, .. }
        | Op::Xor { d, .. }
        | Op::MovL { d, .. }
        | Op::Mov { d, .. }
        | Op::Getf { d, .. } => !protected_gr(d),
        Op::Ld { d, base, post_inc, .. } => {
            !protected_gr(d) && !(post_inc != 0 && protected_gr(base))
        }
        Op::St { base, post_inc, .. }
        | Op::Ldf { base, post_inc, .. }
        | Op::Stf { base, post_inc, .. }
        | Op::Lfetch { base, post_inc, .. } => !(post_inc != 0 && protected_gr(base)),
        Op::Cmp { pt, pf, .. } | Op::CmpI { pt, pf, .. } => !protected_pr(pt) && !protected_pr(pf),
        Op::Fma { .. } | Op::Fadd { .. } | Op::Fmul { .. } => true,
        Op::Setf { .. } | Op::Nop(_) => true,
    }
}

/// Index of the first `halt` (end of the main body), or `items.len()`.
fn halt_index(items: &[Item]) -> usize {
    items
        .iter()
        .position(|it| matches!(it, Item::Insn(insn) if matches!(insn.op, Op::Halt)))
        .unwrap_or(items.len())
}

/// Indices of mutable instructions (anywhere — main body or subs).
fn mutable_indices(items: &[Item]) -> Vec<usize> {
    items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            Item::Insn(insn) if mutable_insn(insn) => Some(i),
            Item::Flush => Some(i),
            _ => None,
        })
        .collect()
}

/// Replaces one mutable instruction with freshly generated safe items.
fn havoc(spec: &mut ProgSpec, rng: &mut Rng64, gen: &GenConfig) -> bool {
    let candidates = mutable_indices(&spec.items);
    if candidates.is_empty() {
        return false;
    }
    let at = *rng.choose(&candidates);
    let fresh = random_safe_items(rng, gen, 1, true);
    spec.items.splice(at..=at, fresh);
    true
}

/// Inserts 1–3 freshly generated safe items at a main-body position.
fn insert_ops(spec: &mut ProgSpec, rng: &mut Rng64, gen: &GenConfig) -> bool {
    let halt = halt_index(&spec.items);
    let at = rng.below(halt as u64 + 1) as usize;
    let n = rng.range_u64(1, 4) as usize;
    let fresh = random_safe_items(rng, gen, n, true);
    spec.items.splice(at..at, fresh);
    true
}

/// Deletes one mutable instruction (or a bundle stop).
fn delete_op(spec: &mut ProgSpec, rng: &mut Rng64) -> bool {
    let candidates = mutable_indices(&spec.items);
    if candidates.is_empty() {
        return false;
    }
    let at = *rng.choose(&candidates);
    spec.items.remove(at);
    true
}

/// Perturbs one immediate. Loop-counter `movl`s stay bounded (the
/// termination guarantee), address-register `movl`s are protected
/// entirely, everything else wanders freely.
fn tweak_imm(spec: &mut ProgSpec, rng: &mut Rng64) -> bool {
    let eligible: Vec<usize> = spec
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            Item::Insn(insn) => match insn.op {
                Op::AddI { .. } | Op::CmpI { .. } => Some(i),
                Op::MovL { d, .. } if !ADDR_REGS.contains(&d) && !Gr::RESERVED.contains(&d) => {
                    Some(i)
                }
                _ => None,
            },
            _ => None,
        })
        .collect();
    if eligible.is_empty() {
        return false;
    }
    let at = *rng.choose(&eligible);
    let Item::Insn(insn) = &mut spec.items[at] else { return false };
    let tweak = |imm: i64, rng: &mut Rng64| -> i64 {
        match rng.below(6) {
            0 => imm.wrapping_add(*rng.choose(&[1i64, -1, 8, -8, 64, -64])),
            1 => imm ^ (1 << rng.below(8)),
            2 => imm.wrapping_neg(),
            3 => imm / 2,
            4 => imm.wrapping_mul(2),
            _ => rng.range_i64(-1024, 1025),
        }
    };
    match &mut insn.op {
        Op::AddI { imm, .. } | Op::CmpI { imm, .. } => *imm = tweak(*imm, rng),
        Op::MovL { d, imm } => {
            if *d == INNER_COUNTER || *d == OUTER_COUNTER {
                // Trip counts stay positive and bounded: termination
                // by construction survives mutation.
                *imm = tweak(*imm, rng).clamp(1, 4000);
            } else {
                *imm = tweak(*imm, rng);
            }
        }
        _ => return false,
    }
    true
}

/// A `[lo, hi)` block of `items` that is closed under control flow:
/// every branch inside targets a label defined inside, no branch
/// outside targets a label defined inside, and the block sits entirely
/// in the main body. Grown to a fixpoint from a random seed range;
/// `None` when growth escapes the main body or the size cap.
fn closed_block(items: &[Item], rng: &mut Rng64) -> Option<(usize, usize)> {
    let halt = halt_index(items);
    if halt == 0 {
        return None;
    }
    let mut defined = std::collections::HashMap::new();
    for (i, item) in items.iter().enumerate() {
        if let Item::Label(name) = item {
            defined.entry(name.as_str()).or_insert(i);
        }
    }
    let branches: Vec<(usize, usize)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            Item::Branch { label, .. } => defined.get(label.as_str()).map(|&d| (i, d)),
            _ => None,
        })
        .collect();

    let lo0 = rng.below(halt as u64) as usize;
    let mut lo = lo0;
    let mut hi = (lo0 + 1 + rng.below(12) as usize).min(halt);
    const CAP: usize = 48;
    loop {
        let mut grew = false;
        for &(branch, def) in &branches {
            let branch_in = (lo..hi).contains(&branch);
            let def_in = (lo..hi).contains(&def);
            if branch_in && !def_in {
                lo = lo.min(def);
                hi = hi.max(def + 1);
                grew = true;
            } else if def_in && !branch_in {
                lo = lo.min(branch);
                hi = hi.max(branch + 1);
                grew = true;
            }
        }
        if hi > halt || hi - lo > CAP {
            return None;
        }
        if !grew {
            return Some((lo, hi));
        }
    }
}

/// Top-level positions in the main body of `items`: insertion points
/// not inside any backward-branch span, so a spliced block can never
/// land in the middle of a loop body it knows nothing about.
fn top_level_positions(items: &[Item]) -> Vec<usize> {
    let halt = halt_index(items);
    let mut defined = std::collections::HashMap::new();
    for (i, item) in items.iter().enumerate() {
        if let Item::Label(name) = item {
            defined.entry(name.as_str()).or_insert(i);
        }
    }
    let spans: Vec<(usize, usize)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| match it {
            Item::Branch { label, .. } => {
                defined.get(label.as_str()).and_then(|&d| (d < i).then_some((d, i)))
            }
            _ => None,
        })
        .collect();
    (0..=halt).filter(|&p| !spans.iter().any(|&(def, branch)| def < p && p <= branch)).collect()
}

/// Copies a closed block from `donor` into a top-level position of
/// `spec`, renaming the block's labels to a fresh namespace. Blocks
/// containing calls are rejected (their sub bodies live elsewhere).
fn splice(spec: &mut ProgSpec, donor: &ProgSpec, rng: &mut Rng64) -> bool {
    let Some((lo, hi)) = closed_block(&donor.items, rng) else {
        return false;
    };
    let block = &donor.items[lo..hi];
    if block.iter().any(|it| matches!(it, Item::Branch { kind: BranchKind::Call, .. })) {
        return false;
    }
    let positions = top_level_positions(&spec.items);
    if positions.is_empty() {
        return false;
    }
    let at = *rng.choose(&positions);
    // Fresh label namespace: the block is closed, so renaming every
    // label and branch target inside it keeps it closed.
    let prefix = loop {
        let p = format!("m{:08x}_", rng.next_u64() & 0xffff_ffff);
        let clash = spec
            .items
            .iter()
            .chain(block.iter())
            .any(|it| matches!(it, Item::Label(name) if name.starts_with(&p)));
        if !clash {
            break p;
        }
    };
    let renamed: Vec<Item> = block
        .iter()
        .map(|it| match it {
            Item::Label(name) => Item::Label(format!("{prefix}{name}")),
            Item::Branch { qp, kind, label } => {
                Item::Branch { qp: *qp, kind: *kind, label: format!("{prefix}{label}") }
            }
            other => other.clone(),
        })
        .collect();
    spec.items.splice(at..at, renamed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, static_coverage};

    fn discipline_holds(spec: &ProgSpec) -> bool {
        // Every instruction in a mutated program must still satisfy
        // the same write-protection rules the generator guarantees —
        // except the items the generator itself owns (loop control,
        // rebases), which mutation never touches and which therefore
        // remain exactly the parent's.
        spec.items.iter().all(|it| match it {
            Item::Insn(insn) => match insn.op {
                // Reserved registers are never written by anyone.
                Op::Add { d, .. }
                | Op::AddI { d, .. }
                | Op::Sub { d, .. }
                | Op::Shladd { d, .. }
                | Op::And { d, .. }
                | Op::Or { d, .. }
                | Op::Xor { d, .. }
                | Op::MovL { d, .. }
                | Op::Mov { d, .. }
                | Op::Getf { d, .. } => !Gr::RESERVED.contains(&d),
                Op::Ld { d, .. } => !Gr::RESERVED.contains(&d),
                Op::Cmp { pt, pf, .. } | Op::CmpI { pt, pf, .. } => {
                    pt != Pr::RESERVED && pf != Pr::RESERVED
                }
                _ => true,
            },
            _ => true,
        })
    }

    #[test]
    fn mutated_children_assemble_and_keep_the_discipline() {
        let (parent, _) = generate(7, &GenConfig::default());
        let (donor, _) = generate(13, &GenConfig::default());
        let gen = GenConfig::default();
        for seed in 0..64 {
            let (child, ops) = mutate(&parent, Some(&donor), seed, &gen);
            assert!(!ops.is_empty(), "seed {seed}: at least one operator must apply");
            assert!(child.assemble().is_ok(), "seed {seed}: child must assemble");
            assert!(discipline_holds(&child), "seed {seed}: register discipline broken");
            assert!(
                ops.iter().all(|op| OPERATORS.contains(op)),
                "seed {seed}: unknown operator label in {ops:?}"
            );
        }
    }

    #[test]
    fn mutation_is_deterministic_in_the_seed() {
        let (parent, _) = generate(2, &GenConfig::default());
        let (donor, _) = generate(4, &GenConfig::default());
        let gen = GenConfig::default();
        for seed in [0, 9, 1234] {
            let a = mutate(&parent, Some(&donor), seed, &gen);
            let b = mutate(&parent, Some(&donor), seed, &gen);
            assert_eq!(a.0, b.0, "seed {seed}: spec must be reproducible");
            assert_eq!(a.1, b.1, "seed {seed}: operator trace must be reproducible");
        }
    }

    #[test]
    fn mutated_children_eventually_differ_structurally() {
        // Coverage-guided scheduling is pointless if mutation never
        // changes what a program contains; across a seed batch the
        // static feature vector must move.
        let (parent, _) = generate(5, &GenConfig::default());
        let base = static_coverage(&parent);
        let gen = GenConfig::default();
        let moved = (0..32).any(|seed| {
            let (child, _) = mutate(&parent, None, seed, &gen);
            static_coverage(&child) != base
        });
        assert!(moved, "32 mutations never changed the static feature vector");
    }

    #[test]
    fn counter_tweaks_stay_bounded() {
        // Termination by construction must survive immediate tweaks:
        // any movl to a loop counter keeps a positive, bounded trip
        // count in every mutated child.
        let (parent, _) = generate(11, &GenConfig::default());
        for seed in 0..64 {
            let (child, _) = mutate(&parent, None, seed, &GenConfig::default());
            for it in &child.items {
                if let Item::Insn(insn) = it {
                    if let Op::MovL { d, imm } = insn.op {
                        if d == INNER_COUNTER || d == OUTER_COUNTER {
                            assert!(
                                (1..=5000).contains(&imm),
                                "seed {seed}: counter movl {imm} out of bounds"
                            );
                        }
                    }
                }
            }
        }
    }
}
