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
    /// Creates an arena of `capacity` bytes at the default base.
    pub fn new(capacity: usize) -> Memory {
        Memory::with_base(DATA_BASE, capacity)
    }

    /// Creates an arena of `capacity` bytes at `base`.
    pub fn with_base(base: u64, capacity: usize) -> Memory {
        Memory {
            base,
            data: vec![0; capacity],
            brk: base,
        }
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
        addr >= self.base && addr.saturating_add(len) <= self.base + self.data.len() as u64
    }

    fn offset(&self, addr: u64) -> usize {
        (addr - self.base) as usize
    }

    /// Reads `len` (1/2/4/8) bytes zero-extended.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses; use [`Memory::read_spec`] for
    /// non-faulting semantics.
    pub fn read(&self, addr: u64, len: u64) -> u64 {
        assert!(
            self.contains(addr, len),
            "unmapped read of {len} bytes at {addr:#x}"
        );
        self.read_unchecked(addr, len)
    }

    /// Non-faulting read: unmapped addresses read as zero (`ld.s`).
    pub fn read_spec(&self, addr: u64, len: u64) -> u64 {
        if self.contains(addr, len) {
            self.read_unchecked(addr, len)
        } else {
            0
        }
    }

    fn read_unchecked(&self, addr: u64, len: u64) -> u64 {
        let off = self.offset(addr);
        let mut buf = [0u8; 8];
        buf[..len as usize].copy_from_slice(&self.data[off..off + len as usize]);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `len` bytes of `value`.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses.
    pub fn write(&mut self, addr: u64, len: u64, value: u64) {
        assert!(
            self.contains(addr, len),
            "unmapped write of {len} bytes at {addr:#x}"
        );
        let off = self.offset(addr);
        self.data[off..off + len as usize].copy_from_slice(&value.to_le_bytes()[..len as usize]);
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
        assert!(
            self.contains(addr, len),
            "unmapped write of {len} bytes at {addr:#x}"
        );
        let off = self.offset(addr);
        let dst = &mut self.data[off..off + len as usize];
        for (d, w) in dst.chunks_exact_mut(8).zip(words) {
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
