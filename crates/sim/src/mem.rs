//! Flat data memory with a bump allocator.
//!
//! Workloads allocate their arrays and linked structures from a single
//! arena so the simulator can service loads and stores with plain array
//! indexing. Addresses below [`Memory::base`] or beyond the arena are
//! *unmapped*: architectural loads to unmapped addresses are programming
//! errors, while speculative loads (`ld.s`) and `lfetch` are defined to
//! be non-faulting and simply read zero / do nothing, exactly the
//! property ADORE relies on when inserting prefetch code (paper §3.6).

use std::fmt;

/// Default base address of the data arena.
pub const DATA_BASE: u64 = 0x1000_0000;

/// A flat byte-addressable data arena.
#[derive(Clone, PartialEq)]
pub struct Memory {
    base: u64,
    data: Vec<u8>,
    brk: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("base", &format_args!("{:#x}", self.base))
            .field("capacity", &self.data.len())
            .field("allocated", &(self.brk - self.base))
            .finish()
    }
}

impl Memory {
    /// Creates an arena of `capacity` bytes at [`DATA_BASE`].
    pub fn new(capacity: usize) -> Memory {
        Memory { base: DATA_BASE, data: vec![0; capacity], brk: DATA_BASE }
    }

    /// Base address of the arena.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.brk - self.base
    }

    /// Bytes still available for allocation.
    pub fn remaining(&self) -> u64 {
        self.data.len() as u64 - (self.brk - self.base)
    }

    /// Allocates `size` bytes aligned to `align` and returns the address.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.brk + align - 1) & !(align - 1);
        let end = addr + size;
        assert!(
            end - self.base <= self.data.len() as u64,
            "arena exhausted: need {} bytes, capacity {}",
            end - self.base,
            self.data.len()
        );
        self.brk = end;
        addr
    }

    /// Returns the arena to its freshly-constructed state — every byte
    /// zero, nothing allocated — without giving up the backing
    /// allocation. The fuzzing campaign re-arms one arena per worker
    /// between cases instead of reallocating hundreds of KiB each time.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.brk = self.base;
    }

    /// True if `[addr, addr+len)` lies inside the arena.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        self.range(addr, len).is_some()
    }

    /// The arena bytes backing `[addr, addr+len)`, or `None` when any
    /// of them is unmapped: the one bounds check every access makes.
    #[inline]
    fn range(&self, addr: u64, len: u64) -> Option<std::ops::Range<usize>> {
        let start = usize::try_from(addr.checked_sub(self.base)?).ok()?;
        let end = start.checked_add(usize::try_from(len).ok()?)?;
        (end <= self.data.len()).then_some(start..end)
    }

    /// Reads `len` (1/2/4/8) bytes zero-extended, or `None` when any of
    /// them is unmapped. The simulator's architectural loads use this
    /// and turn `None` into a fault.
    #[inline]
    pub fn try_read(&self, addr: u64, len: u64) -> Option<u64> {
        let bytes = &self.data[self.range(addr, len)?];
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        Some(u64::from_le_bytes(buf))
    }

    /// Writes the low `len` (1/2/4/8) bytes of `value` and returns
    /// `true`, or returns `false` and writes nothing when any of them is
    /// unmapped. The simulator's architectural stores use this and turn
    /// `false` into a fault.
    #[inline]
    #[must_use]
    pub fn try_write(&mut self, addr: u64, len: u64, value: u64) -> bool {
        let Some(range) = self.range(addr, len) else {
            return false;
        };
        self.data[range].copy_from_slice(&value.to_le_bytes()[..len as usize]);
        true
    }

    /// Reads `len` (1/2/4/8) bytes zero-extended.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses; use [`Memory::read_spec`] for
    /// non-faulting semantics.
    pub fn read(&self, addr: u64, len: u64) -> u64 {
        self.try_read(addr, len)
            .unwrap_or_else(|| panic!("unmapped read of {len} bytes at {addr:#x}"))
    }

    /// Non-faulting read: unmapped addresses read as zero (`ld.s`).
    pub fn read_spec(&self, addr: u64, len: u64) -> u64 {
        self.try_read(addr, len).unwrap_or(0)
    }

    /// Writes the low `len` bytes of `value`.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses.
    pub fn write(&mut self, addr: u64, len: u64, value: u64) {
        assert!(self.try_write(addr, len, value), "unmapped write of {len} bytes at {addr:#x}");
    }

    /// Reads an `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr, 8))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, 8, value.to_bits());
    }

    /// Writes a slice of `u64` words starting at `addr` (arena init):
    /// one bounds check for the whole range, then a slice copy.
    ///
    /// # Panics
    ///
    /// Panics if any part of the range is unmapped.
    pub fn write_words(&mut self, addr: u64, words: &[u64]) {
        let len = 8 * words.len() as u64;
        let range = self
            .range(addr, len)
            .unwrap_or_else(|| panic!("unmapped write of {len} bytes at {addr:#x}"));
        for (d, w) in self.data[range].chunks_exact_mut(8).zip(words) {
            d.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// The whole arena's bytes, from [`Memory::base`] on — allocated or
    /// not. Two runs' final arenas compare with one slice equality.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(100, 8);
        let b = m.alloc(100, 64);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert!(m.allocated() >= 200);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn alloc_exhaustion_panics() {
        let mut m = Memory::new(128);
        let _ = m.alloc(256, 8);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new(4096);
        let a = m.alloc(64, 8);
        m.write(a, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(a, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(a, 4), 0xcafe_f00d);
        assert_eq!(m.read(a, 2), 0xf00d);
        assert_eq!(m.read(a, 1), 0x0d);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new(4096);
        let a = m.alloc(8, 8);
        m.write_f64(a, 2.5);
        assert_eq!(m.read_f64(a), 2.5);
    }

    #[test]
    fn speculative_read_does_not_fault() {
        let m = Memory::new(4096);
        assert_eq!(m.read_spec(0x10, 8), 0); // far below base
        assert_eq!(m.read_spec(u64::MAX - 4, 8), 0); // wraps
    }

    #[test]
    fn checked_accessors_refuse_unmapped_bytes() {
        let mut m = Memory::new(64);
        let end = m.base() + 64;
        assert!(m.try_write(end - 8, 8, 7));
        assert_eq!(m.try_read(end - 8, 8), Some(7));
        assert!(!m.try_write(end - 4, 8, u64::MAX), "straddles the end");
        assert_eq!(m.try_read(end - 8, 8), Some(7), "a refused write writes nothing");
        assert_eq!(m.try_read(end - 4, 8), None);
        assert_eq!(m.try_read(m.base() - 1, 1), None);
        assert_eq!(m.try_read(u64::MAX - 4, 8), None, "wraps");
        assert!(m.contains(end - 8, 8) && !m.contains(end - 7, 8));
        assert!(m.contains(end, 0));
    }

    #[test]
    #[should_panic(expected = "unmapped read")]
    fn architectural_read_faults() {
        let m = Memory::new(4096);
        let _ = m.read(0x10, 8);
    }

    #[test]
    fn bulk_writers() {
        let mut m = Memory::new(4096);
        let a = m.alloc(32, 8);
        m.write_words(a, &[1, 2, 3]);
        assert_eq!(m.read(a + 16, 8), 3);
        assert_eq!(&m.bytes()[..9], &[1, 0, 0, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "unmapped write of 16 bytes")]
    fn bulk_write_past_the_arena_faults() {
        let mut m = Memory::new(4096);
        m.write_words(m.base() + 4096 - 8, &[1, 2]);
    }
}
