//! Data TLB model.
//!
//! The Itanium 2 DEAR reports data-cache misses, **TLB misses** and ALAT
//! misses (paper §2.1); ADORE programs it for cache misses, so the
//! runtime must be able to tell the event kinds apart. The TLB also
//! constrains prefetching the way real hardware does: a non-faulting
//! `lfetch` that misses the DTLB is silently dropped rather than walking
//! the page table.

/// DTLB configuration. Defaults approximate the Itanium 2 L2 DTLB with
/// 16 KB pages.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (must be a power of two).
    pub page_bytes: u64,
    /// Hardware-walker latency added to a demand access that misses.
    pub miss_latency: u64,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 128,
            page_bytes: 16 * 1024,
            miss_latency: 25,
        }
    }
}

/// A fully associative, true-LRU translation buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Tlb {
    config: TlbConfig,
    /// (page number, LRU stamp); linear scan — entry counts are small.
    entries: Vec<(u64, u64)>,
    /// Page of the most recent `access`, short-circuiting the scan for
    /// consecutive same-page translations. Exact: between two
    /// consecutive accesses to the same page no other entry's stamp can
    /// change, so skipping the refresh preserves relative LRU order
    /// (the memoized page already holds the newest stamp).
    last_page: u64,
    /// `log2(page_bytes)`: page numbers via shift, not hardware divide.
    page_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics unless the page size is a power of two and there is at
    /// least one entry.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(config.entries > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(config.entries),
            // No page number can reach u64::MAX (pages are addresses
            // divided by the page size), so MAX means "no memo".
            last_page: u64::MAX,
            page_shift: config.page_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            config,
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

    /// The configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn page(&self, addr: u64) -> u64 {
        addr >> self.page_shift
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
        if self.entries.len() == self.config.entries {
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
        self.config.miss_latency
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
        let mut t = Tlb::new(TlbConfig::default());
        assert_eq!(t.access(0x1000_0000), 25);
        assert_eq!(t.access(0x1000_0008), 0, "same page");
        assert_eq!(t.access(0x1000_4000), 25, "next 16K page");
        assert_eq!(t.stats(), (1, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_latency: 10,
        });
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0008); // refresh page 0
        t.access(0x2000); // page 2 evicts page 1
        assert!(t.probe(0x0000));
        assert!(!t.probe(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn probe_does_not_fill() {
        let t = Tlb::new(TlbConfig::default());
        assert!(!t.probe(0x5000_0000));
    }

    #[test]
    fn reach_is_entries_times_page() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
            miss_latency: 10,
        });
        for i in 0..4u64 {
            t.access(i * 4096);
        }
        // All four still resident.
        for i in 0..4u64 {
            assert!(t.probe(i * 4096));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 3000,
            miss_latency: 10,
        });
    }
}
