//! Instruction bundles and templates.
//!
//! IA-64 encodes instructions in 16-byte bundles of three slots; a
//! template field constrains which unit kind each slot may hold. This
//! matters to ADORE twice: the trace selector must *split* a bundle when
//! the taken branch sits in a middle slot (paper §2.4), and the prefetch
//! scheduler looks for free memory slots so inserted `lfetch`es do not
//! grow the trace (paper §3.5).

use std::fmt;

use crate::insn::{Insn, SlotKind};

/// A bundle template: the slot-kind triple and whether it is legal.
///
/// The set mirrors the common IA-64 templates. `L` (long immediate)
/// occupies slot 1 and forces slot 2 to be an `X` continuation, which we
/// model as requiring slot 2 to be a nop of kind `L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// Memory, integer, integer.
    Mii,
    /// Memory, long-immediate (slot 2 is the immediate continuation).
    Mlx,
    /// Memory, memory, integer.
    Mmi,
    /// Memory, floating-point, integer.
    Mfi,
    /// Memory, memory, floating-point.
    Mmf,
    /// Memory, integer, branch.
    Mib,
    /// Memory, branch, branch.
    Mbb,
    /// Branch, branch, branch.
    Bbb,
    /// Memory, memory, branch.
    Mmb,
    /// Memory, floating-point, branch.
    Mfb,
}

impl Template {
    /// All templates, in the order the packer tries them.
    pub const ALL: [Template; 10] = [
        Template::Mii,
        Template::Mmi,
        Template::Mfi,
        Template::Mmf,
        Template::Mib,
        Template::Mmb,
        Template::Mfb,
        Template::Mbb,
        Template::Bbb,
        Template::Mlx,
    ];

    /// The slot kinds of this template.
    pub fn kinds(self) -> [SlotKind; 3] {
        use SlotKind::*;
        match self {
            Template::Mii => [M, I, I],
            Template::Mlx => [M, L, L],
            Template::Mmi => [M, M, I],
            Template::Mfi => [M, F, I],
            Template::Mmf => [M, M, F],
            Template::Mib => [M, I, B],
            Template::Mbb => [M, B, B],
            Template::Bbb => [B, B, B],
            Template::Mmb => [M, M, B],
            Template::Mfb => [M, F, B],
        }
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Template::Mii => "MII",
            Template::Mlx => "MLX",
            Template::Mmi => "MMI",
            Template::Mfi => "MFI",
            Template::Mmf => "MMF",
            Template::Mib => "MIB",
            Template::Mbb => "MBB",
            Template::Bbb => "BBB",
            Template::Mmb => "MMB",
            Template::Mfb => "MFB",
        };
        f.write_str(s)
    }
}

/// A 16-byte instruction bundle: three slots plus a template.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// The template constraining slot kinds.
    pub template: Template,
    /// The three instruction slots.
    pub slots: [Insn; 3],
}

impl Bundle {
    /// Builds a bundle from up to three instructions, padding remaining
    /// slots with appropriately-kinded nops.
    ///
    /// Returns `None` when no template can hold the instruction kinds in
    /// the given order.
    pub fn pack(insns: &[Insn]) -> Option<Bundle> {
        if insns.is_empty() || insns.len() > 3 {
            return None;
        }
        'template: for template in Template::ALL {
            let kinds = template.kinds();
            // Try to place the instructions in order into compatible
            // slots, left to right, filling skipped slots with nops.
            let mut slots = [Insn::nop(kinds[0]), Insn::nop(kinds[1]), Insn::nop(kinds[2])];
            let mut slot = 0usize;
            for insn in insns {
                let want = insn.op.slot_kind();
                loop {
                    if slot >= 3 {
                        continue 'template;
                    }
                    if kinds[slot] == want {
                        slots[slot] = *insn;
                        slot += 1;
                        break;
                    }
                    slot += 1;
                }
            }
            // MLX: the long-immediate consumes both slot 1 and slot 2.
            if template == Template::Mlx && !slots[2].is_nop() {
                continue;
            }
            return Some(Bundle { template, slots });
        }
        None
    }

    /// A bundle holding a single unconditional branch, as written by the
    /// trace patcher over the first bundle of a patched trace.
    pub fn branch_only(insn: Insn) -> Bundle {
        debug_assert!(insn.op.is_branch());
        Bundle {
            template: Template::Mib,
            slots: [Insn::nop(SlotKind::M), Insn::nop(SlotKind::I), insn],
        }
    }

    /// Iterates over non-nop instructions with their slot index.
    pub fn iter_real(&self) -> impl Iterator<Item = (u8, &Insn)> {
        self.slots.iter().enumerate().filter(|(_, i)| !i.is_nop()).map(|(s, i)| (s as u8, i))
    }

    /// Index of the first free (nop) slot of the requested kind, if any.
    pub fn free_slot(&self, kind: SlotKind) -> Option<u8> {
        let kinds = self.template.kinds();
        (0..3).find(|&s| kinds[s] == kind && self.slots[s].is_nop()).map(|s| s as u8)
    }

    /// True if any slot holds a branch-unit operation.
    pub fn has_branch(&self) -> bool {
        self.slots.iter().any(|i| i.op.is_branch())
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {{ {} ; {} ; {} }}",
            self.template, self.slots[0], self.slots[1], self.slots[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AccessSize, Addr, Op};
    use crate::regs::{Fr, Gr};

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

    fn br() -> Insn {
        Insn::new(Op::Br { target: Addr(0x1000) })
    }

    #[test]
    fn pack_mii() {
        let b = Bundle::pack(&[ld(4, 5), add(1, 2, 3), add(6, 7, 8)]).unwrap();
        assert_eq!(b.template, Template::Mii);
        assert!(b.iter_real().count() == 3);
    }

    #[test]
    fn pack_mmi() {
        let b = Bundle::pack(&[ld(4, 5), ld(6, 7), add(1, 2, 3)]).unwrap();
        assert_eq!(b.template, Template::Mmi);
    }

    #[test]
    fn pack_mmf() {
        let fma = Insn::new(Op::Fma { d: Fr(2), a: Fr(3), b: Fr(4), c: Fr(2) });
        let b = Bundle::pack(&[ld(4, 5), ld(6, 7), fma]).unwrap();
        assert_eq!(b.template, Template::Mmf);
    }

    #[test]
    fn pack_branch_goes_to_slot2() {
        let b = Bundle::pack(&[ld(4, 5), br()]).unwrap();
        assert_eq!(b.template, Template::Mib);
        assert!(b.slots[2].op.is_branch());
        assert!(b.slots[1].is_nop());
    }

    #[test]
    fn pack_single_int() {
        let b = Bundle::pack(&[add(1, 2, 3)]).unwrap();
        // Packed with a leading free M slot — exactly what the prefetch
        // scheduler wants to find.
        assert_eq!(b.free_slot(SlotKind::M), Some(0));
    }

    #[test]
    fn pack_movl_uses_mlx() {
        let movl = Insn::new(Op::MovL { d: Gr(9), imm: 0x1234_5678_9abc });
        let b = Bundle::pack(&[ld(4, 5), movl]).unwrap();
        assert_eq!(b.template, Template::Mlx);
    }

    #[test]
    fn pack_rejects_overflow() {
        assert!(Bundle::pack(&[]).is_none());
        // Four instructions cannot be packed (caller error).
        assert!(Bundle::pack(&[add(1, 2, 3); 4]).is_none());
        // Two branches then a memory op: no template has B,B,M.
        assert!(Bundle::pack(&[br(), br(), ld(1, 2)]).is_none());
    }

    #[test]
    fn two_branches_pack_mbb() {
        let b = Bundle::pack(&[br(), br()]).unwrap();
        assert!(matches!(b.template, Template::Mbb | Template::Bbb));
        assert!(b.has_branch());
    }

    #[test]
    fn branch_only_bundle() {
        let b = Bundle::branch_only(br());
        assert!(b.slots[2].op.is_branch());
        assert_eq!(b.iter_real().count(), 1);
    }

    #[test]
    fn free_slot_lookup() {
        let b = Bundle::pack(&[add(1, 2, 3)]).unwrap();
        assert_eq!(b.free_slot(SlotKind::M), Some(0));
        assert_eq!(b.free_slot(SlotKind::B), None);
        let full = Bundle::pack(&[ld(4, 5), add(1, 2, 3), add(6, 7, 8)]).unwrap();
        assert_eq!(full.free_slot(SlotKind::M), None);
        assert_eq!(full.free_slot(SlotKind::I), None);
    }
}
