//! Program images: a code segment of bundles plus symbols.

use std::collections::BTreeMap;
use std::fmt;

use crate::bundle::Bundle;
use crate::insn::Addr;

/// Default base address of the main code segment.
pub const CODE_BASE: u64 = 0x4000_0000;

/// Base address of the trace pool, the shared-memory block `dyn_open`
/// allocates for optimized traces (paper §2.2). Any code address at or
/// above this is trace-pool code.
pub const TRACE_POOL_BASE: u64 = 0x7000_0000;

/// A compiled program image: bundles at consecutive 16-byte addresses
/// starting at `code_base`, plus a symbol table for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    code_base: u64,
    bundles: Vec<Bundle>,
    symbols: BTreeMap<u64, String>,
    entry: Addr,
}

impl Program {
    /// Creates a program from packed bundles.
    ///
    /// # Panics
    ///
    /// Panics if `code_base` is not bundle-aligned.
    pub fn new(code_base: u64, bundles: Vec<Bundle>) -> Program {
        assert_eq!(code_base % Addr::BUNDLE_BYTES, 0, "code base must be bundle-aligned");
        Program { code_base, bundles, symbols: BTreeMap::new(), entry: Addr(code_base) }
    }

    /// Base address of the code segment.
    pub fn code_base(&self) -> u64 {
        self.code_base
    }

    /// Entry-point address.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of bundles in the image.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True if the image holds no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Code size in bytes (the paper's Table 1 reports binary size).
    pub fn size_bytes(&self) -> u64 {
        self.bundles.len() as u64 * Addr::BUNDLE_BYTES
    }

    /// Address of the bundle at `index`.
    pub fn addr_of(&self, index: usize) -> Addr {
        Addr(self.code_base + index as u64 * Addr::BUNDLE_BYTES)
    }

    /// Index of the bundle containing `addr`, if it lies in this image.
    pub fn index_of(&self, addr: Addr) -> Option<usize> {
        let a = addr.bundle_align().0;
        if a < self.code_base {
            return None;
        }
        let idx = ((a - self.code_base) / Addr::BUNDLE_BYTES) as usize;
        (idx < self.bundles.len()).then_some(idx)
    }

    /// The bundle at `addr`, if any.
    pub fn bundle_at(&self, addr: Addr) -> Option<&Bundle> {
        self.index_of(addr).map(|i| &self.bundles[i])
    }

    /// Mutable access to the bundle at `addr` (used by the trace
    /// patcher to overwrite the first bundle of a patched trace).
    pub fn bundle_at_mut(&mut self, addr: Addr) -> Option<&mut Bundle> {
        self.index_of(addr).and_then(|i| self.bundles.get_mut(i))
    }

    /// All bundles in address order.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Records a symbol name for an address.
    pub fn add_symbol(&mut self, addr: Addr, name: impl Into<String>) {
        self.symbols.insert(addr.0, name.into());
    }

    /// Looks up the symbol at exactly `addr`.
    pub fn symbol_at(&self, addr: Addr) -> Option<&str> {
        self.symbols.get(&addr.0).map(String::as_str)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.bundles.iter().enumerate() {
            let addr = self.addr_of(i);
            if let Some(sym) = self.symbol_at(addr) {
                writeln!(f, "{sym}:")?;
            }
            writeln!(f, "  {addr}  {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Insn, Op, SlotKind};

    fn nop_bundle() -> Bundle {
        Bundle::pack(&[Insn::nop(SlotKind::M)]).unwrap()
    }

    #[test]
    fn addressing_round_trip() {
        let p = Program::new(CODE_BASE, vec![nop_bundle(), nop_bundle(), nop_bundle()]);
        for i in 0..3 {
            assert_eq!(p.index_of(p.addr_of(i)), Some(i));
        }
        assert_eq!(p.index_of(Addr(CODE_BASE + 3 * 16)), None);
        assert_eq!(p.index_of(Addr(CODE_BASE - 16)), None);
        // Mid-bundle addresses resolve to the containing bundle.
        assert_eq!(p.index_of(Addr(CODE_BASE + 17)), Some(1));
    }

    #[test]
    fn size_reporting() {
        let p = Program::new(CODE_BASE, vec![nop_bundle(); 10]);
        assert_eq!(p.len(), 10);
        assert_eq!(p.size_bytes(), 160);
        assert!(!p.is_empty());
    }

    #[test]
    fn symbols() {
        let mut p = Program::new(CODE_BASE, vec![nop_bundle(); 4]);
        p.add_symbol(p.addr_of(0), "main");
        p.add_symbol(p.addr_of(2), "loop");
        assert_eq!(p.symbol_at(p.addr_of(2)), Some("loop"));
    }

    #[test]
    fn patching_a_bundle() {
        let mut p = Program::new(CODE_BASE, vec![nop_bundle(); 2]);
        let target = Addr(TRACE_POOL_BASE);
        *p.bundle_at_mut(p.addr_of(1)).unwrap() = Bundle::branch_only(Insn::new(Op::Br { target }));
        assert!(p.bundle_at(p.addr_of(1)).unwrap().has_branch());
    }

    #[test]
    #[should_panic(expected = "bundle-aligned")]
    fn misaligned_base_panics() {
        let _ = Program::new(CODE_BASE + 8, vec![]);
    }
}
