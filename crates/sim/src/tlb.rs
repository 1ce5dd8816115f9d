//! Data TLB model.
//!
//! The Itanium 2 DEAR reports data-cache misses, **TLB misses** and ALAT
//! misses (paper §2.1); ADORE programs it for cache misses, so the
//! runtime must be able to tell the event kinds apart. The TLB also
//! constrains prefetching the way real hardware does: a non-faulting
//! `lfetch` that misses the DTLB is silently dropped rather than walking
//! the page table.
//!
//! Its geometry is fixed, like the caches' (see [`crate::cache`]): 128
//! fully associative entries over 16 KB pages and a 25-cycle walk.

// The DTLB's fixed geometry, approximating the Itanium 2 L2 DTLB with
// 16 KB pages. Changing any of these changes cycle counts: bump
// `bench::store::STORE_VERSION` (see the note in `crate::cache`).

/// DTLB entries (fully associative).
const TLB_ENTRIES: usize = 128;
/// Page size in bytes.
const PAGE_BYTES: u64 = 16 * 1024;
/// Hardware-walker latency added to a demand access that misses.
const TLB_MISS_LATENCY: u64 = 25;
/// `log2(PAGE_BYTES)`: page numbers via shift, not hardware divide.
const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();

/// A fully associative, true-LRU translation buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Tlb {
    /// (page number, LRU stamp); linear scan — entry counts are small.
    entries: Vec<(u64, u64)>,
    /// Page of the most recent `access`, short-circuiting the scan for
    /// consecutive same-page translations. Exact: between two
    /// consecutive accesses to the same page no other entry's stamp can
    /// change, so skipping the refresh preserves relative LRU order
    /// (the memoized page already holds the newest stamp).
    last_page: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub(crate) fn new() -> Tlb {
        Tlb {
            entries: Vec::with_capacity(TLB_ENTRIES),
            // No page number can reach u64::MAX (pages are addresses
            // divided by the page size), so MAX means "no memo".
            last_page: u64::MAX,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Restores the just-constructed state in place — no mapped pages,
    /// no memo, zeroed statistics — while keeping the entry allocation
    /// (the snapshot-reset fast path between fuzz cases).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.last_page = u64::MAX;
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn page(&self, addr: u64) -> u64 {
        addr >> PAGE_SHIFT
    }

    /// Translates a demand access: returns the added latency (0 on a
    /// hit, the walker latency on a miss) and fills the entry.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        let page = self.page(addr);
        if page == self.last_page {
            self.hits += 1;
            return 0;
        }
        self.access_new_page(page)
    }

    /// Out-of-line half of [`Tlb::access`] for a page other than the
    /// memoized one; keeps the per-load inlined path to a shift and a
    /// compare.
    #[inline(never)]
    fn access_new_page(&mut self, page: u64) -> u64 {
        self.last_page = page;
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.tick;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() == TLB_ENTRIES {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.swap_remove(victim);
        }
        self.entries.push((page, self.tick));
        TLB_MISS_LATENCY
    }

    /// Probes without filling (the `lfetch` path: hints that miss the
    /// TLB are dropped, they never walk the page table).
    pub fn probe(&self, addr: u64) -> bool {
        let page = self.page(addr);
        self.entries.iter().any(|(p, _)| *p == page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new();
        assert_eq!(t.access(0x1000_0000), TLB_MISS_LATENCY);
        assert_eq!(t.access(0x1000_0008), 0, "same page");
        assert_eq!(t.access(0x1000_4000), TLB_MISS_LATENCY, "next 16K page");
        assert_eq!(t.stats(), (1, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new();
        for page in 0..TLB_ENTRIES as u64 {
            t.access(page * PAGE_BYTES);
        }
        t.access(0x0008); // refresh page 0, so page 1 is now LRU
        t.access(TLB_ENTRIES as u64 * PAGE_BYTES); // evicts page 1
        assert!(t.probe(0x0000));
        assert!(!t.probe(PAGE_BYTES));
        assert!(t.probe(2 * PAGE_BYTES));
        assert!(t.probe(TLB_ENTRIES as u64 * PAGE_BYTES));
    }

    #[test]
    fn probe_does_not_fill() {
        let t = Tlb::new();
        assert!(!t.probe(0x5000_0000));
    }

    #[test]
    fn reach_is_entries_times_page() {
        let mut t = Tlb::new();
        for i in 0..TLB_ENTRIES as u64 {
            t.access(i * PAGE_BYTES);
        }
        // All of them still resident.
        for i in 0..TLB_ENTRIES as u64 {
            assert!(t.probe(i * PAGE_BYTES));
        }
    }
}
