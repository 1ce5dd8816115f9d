//! Set-associative caches and the Itanium-2-like hierarchy.
//!
//! The hierarchy reproduces the structure the paper's timing story
//! depends on: a small L1D that floating-point accesses bypass, a
//! unified L2, a large L3, and a long memory latency, so that loads with
//! latency ≥ 8 cycles (the DEAR qualification threshold) are exactly the
//! L2-or-worse misses runtime prefetching targets (paper §3.1).
//!
//! The paper measures one machine, so the line sizes, associativities,
//! latencies and MSHR count are constants of the model (`L1D_LINE`
//! through `MSHRS`). [`CacheConfig`] holds only what some caller
//! varies: the three data-cache sizes and the memory bus's service
//! interval.

use std::fmt;

use obs::{Json, ToJson};

/// One set-associative, true-LRU, tag-only cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    name: &'static str,
    line_bytes: u64,
    /// `log2(line_bytes)`: line numbers come from a shift, not a
    /// hardware divide, on every lookup.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// LRU stamps, larger is more recent.
    stamps: Vec<u64>,
    /// `mru[set]`: the tag of the set's most recently stamped line
    /// (`u64::MAX` when the set is empty). That line already holds its
    /// set's newest stamp, so a lookup that finds it returns at once:
    /// re-stamping it would leave every LRU order, and so every victim
    /// choice, unchanged.
    mru: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is divisible by `line_bytes * ways`
    /// and the set count is a power of two.
    pub fn new(name: &'static str, size_bytes: u64, line_bytes: u64, ways: usize) -> Cache {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = (size_bytes / (line_bytes * ways as u64)) as usize;
        assert!(sets.is_power_of_two() && sets > 0, "set count must be a power of two");
        Cache {
            name,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            mru: vec![u64::MAX; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Restores the just-constructed state in place — every way empty,
    /// all stamps and statistics zero — without touching the tag/stamp
    /// allocations (the snapshot-reset fast path between fuzz cases).
    pub fn reset(&mut self) {
        self.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Cache name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line as usize) & (self.sets - 1), line)
    }

    /// Stamps `way` of the set at `base` as its newest line.
    fn stamp(&mut self, set: usize, base: usize, way: usize, tag: u64) {
        self.tick += 1;
        self.stamps[base + way] = self.tick;
        self.mru[set] = tag;
    }

    /// The way of the set at `base` holding `tag`, if any.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways].iter().position(|&t| t == tag)
    }

    /// Looks up `addr`; on hit refreshes LRU and returns `true`.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if self.mru[set] == tag {
            self.hits += 1;
            return true;
        }
        let base = set * self.ways;
        match self.find(base, tag) {
            Some(way) => {
                self.stamp(set, base, way, tag);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// [`Cache::access`] and, on a miss, [`Cache::fill`] in a single
    /// set scan. Equivalent to the two-call sequence: no other access
    /// can interleave between them, so the victim chosen during the
    /// scan is the victim `fill` would choose, and collapsing the two
    /// tick increments into one preserves relative LRU order (the
    /// filled line still gets its set's newest stamp).
    #[inline]
    pub fn access_fill(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if self.mru[set] == tag {
            self.hits += 1;
            return true;
        }
        self.access_fill_scan(set, tag)
    }

    /// Out-of-line way scan of [`Cache::access_fill`] for a line other
    /// than its set's newest: keeps the inlined path in the
    /// interpreter's hot loop to a shift, a mask and one compare.
    #[inline(never)]
    fn access_fill_scan(&mut self, set: usize, tag: u64) -> bool {
        let base = set * self.ways;
        if let Some(way) = self.find(base, tag) {
            self.stamp(set, base, way, tag);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Empty ways carry stamp 0 and real stamps start at 1, so the
        // min-stamp scan picks the first empty way exactly as `fill`'s
        // explicit empty-way preference does.
        let victim = self.lru_way(base);
        self.tags[base + victim] = tag;
        self.stamp(set, base, victim, tag);
        false
    }

    /// The way of the set at `base` with the oldest stamp (the first
    /// empty way, if any: empty ways carry stamp 0).
    fn lru_way(&self, base: usize) -> usize {
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..self.ways {
            if self.stamps[base + way] < oldest {
                oldest = self.stamps[base + way];
                victim = way;
            }
        }
        victim
    }

    /// Refreshes the line's LRU stamp if present (a single-scan
    /// equivalent of `probe` + `fill`-on-present); no statistics move.
    pub fn touch(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if self.mru[set] == tag {
            return true;
        }
        let base = set * self.ways;
        match self.find(base, tag) {
            Some(way) => {
                self.stamp(set, base, way, tag);
                true
            }
            None => false,
        }
    }

    /// Checks for presence without touching LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set * self.ways, tag).is_some()
    }

    /// Fills the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        if self.mru[set] == tag {
            return;
        }
        let base = set * self.ways;
        // Already present: just refresh.
        let way = match self.find(base, tag) {
            Some(way) => way,
            None => {
                let victim = self.lru_way(base);
                self.tags[base + victim] = tag;
                victim
            }
        };
        self.stamp(set, base, way, tag);
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.mru.fill(u64::MAX);
    }
}

/// Which level serviced a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit (L1 miss).
    L2,
    /// L3 hit (L2 miss).
    L3,
    /// Main memory (all caches missed).
    Memory,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HitLevel::L1 => "L1",
            HitLevel::L2 => "L2",
            HitLevel::L3 => "L3",
            HitLevel::Memory => "memory",
        };
        f.write_str(s)
    }
}

// The hierarchy's fixed geometry and latencies. They approximate the
// 900 MHz Itanium 2 (McKinley) of the paper's zx6000 testbed, the one
// machine the paper measures, so they are facts of the model rather
// than settings.

/// L1D line size in bytes (also the unit ADORE aligns small integer
/// prefetch strides to, §3.3).
pub const L1D_LINE: u64 = 64;
/// L1D associativity.
const L1D_WAYS: usize = 4;
/// L1D hit latency (cycles).
const L1_LATENCY: u64 = 1;
/// L1I size in bytes.
const L1I_SIZE: u64 = 16 * 1024;
/// L1I line size in bytes.
const L1I_LINE: u64 = 64;
/// L1I associativity.
const L1I_WAYS: usize = 4;
/// L2 (unified) line size in bytes.
const L2_LINE: u64 = 128;
/// L2 associativity.
const L2_WAYS: usize = 8;
/// L2 hit latency (cycles).
const L2_LATENCY: u64 = 6;
/// L3 line size in bytes.
const L3_LINE: u64 = 128;
/// L3 associativity.
const L3_WAYS: usize = 12;
/// L3 hit latency (cycles).
const L3_LATENCY: u64 = 13;
/// Main-memory latency (cycles).
const MEM_LATENCY: u64 = 160;
/// Maximum in-flight misses; further demand misses queue behind the
/// oldest and further `lfetch`es are dropped (hint semantics).
const MSHRS: usize = 16;
/// Masks an address down to its L2 line base without a hardware divide
/// (line sizes are powers of two).
const L2_LINE_MASK: u64 = !(L2_LINE - 1);

/// The hierarchy's settable sizes and bandwidth: the values some
/// caller varies. Every other geometry and latency is a constant of
/// this module.
///
/// Defaults are the Itanium 2's 16 KB L1D, 256 KB L2 and 1.5 MB L3. The
/// oracle shrinks the three sizes so its short cases reach every level;
/// the `no_bw_cap` ablation sets `mem_service_interval` to 0.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// L1D size in bytes.
    pub l1d_size: u64,
    /// L2 size in bytes (unified).
    pub l2_size: u64,
    /// L3 size in bytes.
    pub l3_size: u64,
    /// Minimum cycles between successive main-memory line fills (the
    /// bus/bank bandwidth limit of §1.3; prefetching cannot stream
    /// faster than this).
    pub mem_service_interval: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            l1d_size: 16 * 1024,
            l2_size: 256 * 1024,
            l3_size: 1536 * 1024,
            mem_service_interval: 24,
        }
    }
}

/// The DEAR qualification threshold: the paper samples data-cache load
/// misses with latency ≥ 8 cycles, i.e. L2-or-worse misses.
pub const DEAR_LATENCY_THRESHOLD: u64 = 8;

/// The full cache hierarchy plus in-flight miss tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    /// [`CacheConfig::mem_service_interval`].
    mem_service_interval: u64,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    l3: Cache,
    /// Completion cycles of in-flight misses (demand and prefetch).
    /// Pruned lazily (see `prune`): every reader and writer of this
    /// list and of `pending_fills` prunes first.
    inflight: Vec<u64>,
    /// Prefetch lines with a future fill-completion cycle; accesses that
    /// arrive before completion pay the remaining latency (partial
    /// prefetch coverage instead of all-or-nothing).
    pending_fills: Vec<(u64, u64)>, // (line address of L2, completion cycle)
    /// The earliest completion cycle in `inflight` and `pending_fills`
    /// (`u64::MAX` when both are empty): until it has passed, pruning
    /// would remove nothing.
    next_completion: u64,
    /// The latest cycle of a load that skipped its prune (an L1D or
    /// L2 hit with no fill pending) since the last prune. Access cycles
    /// are not monotonic (a DTLB miss delays a load's cycle past a
    /// later `lfetch`'s), so the next prune covers this cycle too, and
    /// removes exactly what pruning on every load would have.
    prune_due: u64,
    /// Earliest cycle the memory bus can start the next line fill.
    mem_next_free: u64,
    lfetch_issued: u64,
    lfetch_dropped: u64,
}

/// Outcome of a timed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Which level serviced the access.
    pub level: HitLevel,
    /// Total load-to-use latency in cycles, including MSHR queueing and
    /// partial overlap with an in-flight prefetch of the same line.
    pub latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy from a configuration.
    pub fn new(config: CacheConfig) -> Hierarchy {
        Hierarchy {
            l1d: Cache::new("L1D", config.l1d_size, L1D_LINE, L1D_WAYS),
            l1i: Cache::new("L1I", L1I_SIZE, L1I_LINE, L1I_WAYS),
            l2: Cache::new("L2", config.l2_size, L2_LINE, L2_WAYS),
            l3: Cache::new("L3", config.l3_size, L3_LINE, L3_WAYS),
            inflight: Vec::new(),
            pending_fills: Vec::new(),
            next_completion: u64::MAX,
            prune_due: 0,
            mem_next_free: 0,
            mem_service_interval: config.mem_service_interval,
            lfetch_issued: 0,
            lfetch_dropped: 0,
        }
    }

    /// Restores the just-constructed state in place: all four caches
    /// emptied, in-flight misses and pending prefetch fills dropped,
    /// statistics cleared. Equivalent to building it anew from the same
    /// [`CacheConfig`] but reuses every allocation.
    pub fn reset(&mut self) {
        self.l1d.reset();
        self.l1i.reset();
        self.l2.reset();
        self.l3.reset();
        self.inflight.clear();
        self.pending_fills.clear();
        self.next_completion = u64::MAX;
        self.prune_due = 0;
        self.mem_next_free = 0;
        self.lfetch_issued = 0;
        self.lfetch_dropped = 0;
    }

    /// (issued, dropped) `lfetch` counts.
    pub fn lfetch_stats(&self) -> (u64, u64) {
        (self.lfetch_issued, self.lfetch_dropped)
    }

    /// Per-cache (hits, misses) as (l1d, l1i, l2, l3).
    pub fn cache_stats(&self) -> [(u64, u64); 4] {
        [self.l1d.stats(), self.l1i.stats(), self.l2.stats(), self.l3.stats()]
    }

    /// Drops in-flight misses and pending fills that completed by
    /// `now` or by a skipped prune's cycle (`prune_due`); a no-op
    /// until the earliest of them has completed.
    fn prune(&mut self, now: u64) {
        let now = now.max(std::mem::take(&mut self.prune_due));
        if now < self.next_completion {
            return;
        }
        self.inflight.retain(|&c| c > now);
        self.pending_fills.retain(|&(_, c)| c > now);
        self.next_completion = self
            .inflight
            .iter()
            .chain(self.pending_fills.iter().map(|(_, c)| c))
            .copied()
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Records a miss (or prefetch fill) in flight until `complete`.
    fn start_inflight(&mut self, complete: u64) {
        self.inflight.push(complete);
        self.next_completion = self.next_completion.min(complete);
    }

    /// Cycles a new miss at `now` queues for a free MSHR. Reads the
    /// in-flight list, so the caller has pruned it.
    fn mshr_wait(&self, now: u64) -> u64 {
        if self.inflight.len() < MSHRS {
            return 0;
        }
        let earliest = self.inflight.iter().copied().min().unwrap_or(now);
        earliest.saturating_sub(now)
    }

    /// A timed data-side load at `addr` on cycle `now`.
    ///
    /// `fp` marks a floating-point access, which bypasses L1D as on
    /// Itanium 2 (so its best case is the L2 latency).
    #[inline]
    pub fn load(&mut self, addr: u64, now: u64, fp: bool) -> AccessResult {
        if !self.pending_fills.is_empty() {
            if let Some(overlap) = self.pending_overlap(addr, now, fp) {
                return overlap;
            }
        }
        // The L1D and L2 lookups read no in-flight state, so the prune
        // waits for the next reader of that state (see `prune_due`).
        self.prune_due = self.prune_due.max(now);
        // Each level is looked up with `access_fill`, which fills the
        // line on a miss in the same scan; by the time the servicing
        // level is known, every level above it is already filled, so no
        // trailing `fill_all` is needed (FP accesses skip L1D).
        if !fp && self.l1d.access_fill(addr) {
            return AccessResult { level: HitLevel::L1, latency: L1_LATENCY };
        }
        if self.l2.access_fill(addr) {
            return AccessResult { level: HitLevel::L2, latency: L2_LATENCY };
        }
        self.load_beyond_l2(addr, now)
    }

    /// Out-of-line half of [`Hierarchy::load`] while prefetch fills are
    /// pending: a load of a line still being filled pays only the
    /// remaining fill latency (partial prefetch coverage). `None` when
    /// no pending fill covers the line.
    #[inline(never)]
    fn pending_overlap(&mut self, addr: u64, now: u64, fp: bool) -> Option<AccessResult> {
        // The prune removes completed fills, so any match is still in
        // flight even though the tag arrays were updated eagerly.
        self.prune(now);
        let l2_line = addr & L2_LINE_MASK;
        let complete =
            self.pending_fills.iter().filter(|&&(l, _)| l == l2_line).map(|&(_, c)| c).min()?;
        let remaining = complete.saturating_sub(now).max(L1_LATENCY);
        self.fill_all(addr, fp);
        let level = if remaining <= L2_LATENCY {
            HitLevel::L2
        } else if remaining <= L3_LATENCY {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        Some(AccessResult { level, latency: remaining })
    }

    /// L3-and-below portion of a demand load; the L1D (for integer
    /// accesses) and L2 lookups have already happened and missed.
    #[inline(never)]
    fn load_beyond_l2(&mut self, addr: u64, now: u64) -> AccessResult {
        self.prune(now);
        let queue = self.mshr_wait(now);
        let (level, latency) = if self.l3.access_fill(addr) {
            (HitLevel::L3, L3_LATENCY + queue)
        } else {
            // Main memory: respect the bus bandwidth limit.
            let start = (now + queue).max(self.mem_next_free);
            self.mem_next_free = start + self.mem_service_interval;
            (HitLevel::Memory, start - now + MEM_LATENCY)
        };
        self.start_inflight(now + latency);
        AccessResult { level, latency }
    }

    fn fill_all(&mut self, addr: u64, fp: bool) {
        if !fp {
            self.l1d.fill(addr);
        }
        self.l2.fill(addr);
        self.l3.fill(addr);
    }

    /// A store at `addr`: updates whatever levels hold the line
    /// (write-through, no-allocate on miss, no stall — store buffers).
    pub fn store(&mut self, addr: u64) {
        self.l1d.touch(addr);
        self.l2.touch(addr);
        self.l3.touch(addr);
    }

    /// An `lfetch` hint at `addr` on cycle `now`: starts a non-blocking
    /// fill unless the line is already present or the MSHRs are full (in
    /// which case the hint is dropped, as hardware does).
    pub fn lfetch(&mut self, addr: u64, now: u64) {
        self.prune(now);
        self.lfetch_issued += 1;
        let l2_line = addr & L2_LINE_MASK;
        if self.pending_fills.iter().any(|&(l, _)| l == l2_line) {
            return; // already being fetched
        }
        if self.l2.probe(addr) && self.l1d.probe(addr) {
            return; // already everywhere useful
        }
        if self.inflight.len() >= MSHRS {
            self.lfetch_dropped += 1;
            return;
        }
        let latency = if self.l2.probe(addr) {
            L2_LATENCY
        } else if self.l3.probe(addr) {
            L3_LATENCY
        } else {
            let start = now.max(self.mem_next_free);
            self.mem_next_free = start + self.mem_service_interval;
            start - now + MEM_LATENCY
        };
        self.start_inflight(now + latency);
        self.pending_fills.push((l2_line, now + latency));
        // Tag arrays are updated eagerly; timing is handled by
        // `pending_fills` when a demand access arrives early.
        self.fill_all(addr, false);
    }

    /// A timed instruction fetch of the bundle at `addr`.
    ///
    /// Returns the stall in cycles (0 on an L1I hit). Consecutive
    /// fetches from one line hit L1I's newest-line check, a shift, a
    /// mask and one compare.
    #[inline]
    pub fn ifetch(&mut self, addr: u64, _now: u64) -> u64 {
        if self.l1i.access_fill(addr) {
            return 0;
        }
        self.ifetch_miss(addr)
    }

    /// Out-of-line L1I-miss half of [`Hierarchy::ifetch`].
    #[inline(never)]
    fn ifetch_miss(&mut self, addr: u64) -> u64 {
        if self.l2.access_fill(addr) {
            L2_LATENCY
        } else if self.l3.access_fill(addr) {
            L3_LATENCY
        } else {
            MEM_LATENCY
        }
    }
}

impl ToJson for Hierarchy {
    /// Per-level hit/miss counts plus `lfetch` issue/drop statistics —
    /// the cache section of every experiment report.
    fn to_json(&self) -> Json {
        let level = |c: &Cache| {
            let (hits, misses) = c.stats();
            Json::object().with("hits", hits).with("misses", misses)
        };
        let (issued, dropped) = self.lfetch_stats();
        Json::object()
            .with("l1d", level(&self.l1d))
            .with("l1i", level(&self.l1i))
            .with("l2", level(&self.l2))
            .with("l3", level(&self.l3))
            .with("lfetch", Json::object().with("issued", issued).with("dropped", dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(CacheConfig::default())
    }

    #[test]
    fn machine_equality_sees_a_changed_lru_stamp() {
        let mut a = isa::Asm::new();
        a.halt();
        let program = a.finish(isa::CODE_BASE).unwrap();
        let mut m = crate::Machine::new(program, crate::MachineConfig::default());
        m.caches.load(0x1000_0000, 0, false);
        let mut other = m.clone();
        assert!(other == m);
        let way = m.caches.l2.stamps.iter().position(|&s| s > 0).expect("a filled L2 way");
        other.caches.l2.stamps[way] += 1;
        assert!(other != m, "machines whose L2 LRU order differs are unequal");
    }

    #[test]
    fn cold_load_hits_memory_then_l1() {
        let mut h = small();
        let r1 = h.load(0x1000_0000, 0, false);
        assert_eq!(r1.level, HitLevel::Memory);
        assert_eq!(r1.latency, MEM_LATENCY);
        let r2 = h.load(0x1000_0000, 200, false);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.latency, 1);
    }

    #[test]
    fn fp_loads_bypass_l1() {
        let mut h = small();
        h.load(0x1000_0000, 0, true);
        let r = h.load(0x1000_0000, 300, true);
        assert_eq!(r.level, HitLevel::L2);
        assert_eq!(r.latency, L2_LATENCY);
        // An integer load of the same line also misses L1 (FP fill did
        // not populate L1D) but hits L2.
        let r = h.load(0x1000_0000, 600, false);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn lfetch_makes_future_load_fast() {
        let mut h = small();
        let mem = MEM_LATENCY;
        h.lfetch(0x2000_0000, 0);
        // Long after the fill completes: L1 hit.
        let r = h.load(0x2000_0000, mem + 10, false);
        assert_eq!(r.level, HitLevel::L1);
    }

    #[test]
    fn early_demand_pays_partial_latency() {
        let mut h = small();
        h.lfetch(0x2000_0000, 0);
        // Arrive halfway through the fill: pay roughly the remainder.
        let half = MEM_LATENCY / 2;
        let r = h.load(0x2000_0000, half, false);
        assert!(r.latency < MEM_LATENCY);
        assert!(r.latency >= L2_LATENCY);
    }

    #[test]
    fn lfetch_dropped_when_mshrs_full() {
        let mut h = small();
        for i in 0..MSHRS as u64 {
            h.lfetch(0x3000_0000 + i * 4096, 0);
        }
        let before = h.lfetch_stats().1;
        h.lfetch(0x4000_0000, 0);
        assert_eq!(h.lfetch_stats().1, before + 1);
    }

    #[test]
    fn mshr_pressure_queues_demand_misses() {
        let mut h = small();
        let mut last = 0;
        for i in 0..(MSHRS as u64 + 4) {
            let r = h.load(0x5000_0000 + i * 4096, 0, false);
            last = r.latency;
        }
        assert!(last > MEM_LATENCY, "queued miss should exceed raw latency");
    }

    #[test]
    fn lru_eviction_works() {
        let mut c = Cache::new("t", 256, 64, 2); // 2 sets, 2 ways
                                                 // Three lines mapping to set 0 (line addresses 0, 128, 256).
        assert!(!c.access(0));
        c.fill(0);
        assert!(!c.access(128));
        c.fill(128);
        assert!(c.access(0)); // refresh 0, so 128 is now LRU
        assert!(!c.access(256));
        c.fill(256); // evicts 128
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn newest_line_shortcut_matches_a_reference_lru() {
        // A per-set recency list is true LRU by construction; the
        // cache's stamps plus its newest-line shortcut must agree with
        // it on every hit, miss and victim over a conflict-heavy
        // stream of mixed operations.
        let (sets, ways, line) = (4usize, 3usize, 64u64);
        let mut c = Cache::new("t", sets as u64 * ways as u64 * line, line, ways);
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Few distinct lines, so hits on the newest line are common.
            let lineno = (x >> 8) % 24;
            let addr = lineno * line + (x & 63);
            let list = &mut lists[(lineno as usize) % sets];
            let pos = list.iter().position(|&l| l == lineno);
            let refresh = |list: &mut Vec<u64>, pos: Option<usize>| {
                if let Some(p) = pos {
                    list.remove(p);
                } else if list.len() == ways {
                    list.remove(0);
                }
                list.push(lineno);
            };
            match x % 4 {
                0 => {
                    assert_eq!(c.access(addr), pos.is_some(), "access, step {step}");
                    if pos.is_some() {
                        refresh(list, pos);
                    }
                }
                1 => {
                    assert_eq!(c.access_fill(addr), pos.is_some(), "access_fill, step {step}");
                    refresh(list, pos);
                }
                2 => {
                    assert_eq!(c.touch(addr), pos.is_some(), "touch, step {step}");
                    if pos.is_some() {
                        refresh(list, pos);
                    }
                }
                _ => {
                    c.fill(addr);
                    refresh(list, pos);
                }
            }
            for (set, list) in lists.iter().enumerate() {
                for l in 0..24u64 {
                    if l as usize % sets == set {
                        assert_eq!(c.probe(l * line), list.contains(&l), "line {l}, step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_skipped_prune_still_frees_mshrs_for_an_earlier_cycle() {
        // Access cycles are not monotonic: a load delayed by a DTLB
        // miss carries a later cycle than the next `lfetch`. Misses
        // that completed by the load's cycle must not hold MSHRs
        // against that `lfetch`, even though the load hit L1D and
        // skipped its prune.
        let mut h = small();
        // One L2 line apart: every load misses to memory and keeps its
        // own L1D set, so the first line is still in L1D below.
        for i in 0..MSHRS as u64 {
            h.load(0x1000_0000 + i * L2_LINE, 0, false);
        }
        let late = 10 * MEM_LATENCY;
        assert_eq!(h.load(0x1000_0000, late, false).level, HitLevel::L1);
        h.lfetch(0x2000_0000, MEM_LATENCY / 2);
        assert_eq!(h.lfetch_stats(), (1, 0), "the lfetch found every MSHR free");
    }

    #[test]
    fn ifetch_misses_then_hits() {
        let mut h = small();
        let s1 = h.ifetch(0x4000_0000, 0);
        assert!(s1 > 0);
        let s2 = h.ifetch(0x4000_0000, 10);
        assert_eq!(s2, 0);
    }

    #[test]
    fn store_does_not_allocate() {
        let mut h = small();
        h.store(0x6000_0000);
        let r = h.load(0x6000_0000, 100, false);
        assert_eq!(r.level, HitLevel::Memory);
    }

    #[test]
    fn dear_threshold_separates_l2_hits() {
        const { assert!(L2_LATENCY < DEAR_LATENCY_THRESHOLD) };
        const { assert!(L3_LATENCY >= DEAR_LATENCY_THRESHOLD) };
        const { assert!(MEM_LATENCY >= DEAR_LATENCY_THRESHOLD) };
    }

    #[test]
    fn memory_bandwidth_caps_streaming() {
        // Back-to-back memory misses must be spaced by at least the
        // service interval: the Nth fill completes no earlier than
        // N * interval after the first.
        let mut h = small();
        let interval = CacheConfig::default().mem_service_interval;
        let n = 8u64;
        let mut last_latency = 0;
        for i in 0..n {
            let r = h.load(0x7_000_000 + i * 4096, 0, false); // all at cycle 0
            last_latency = r.latency;
        }
        assert!(
            last_latency >= MEM_LATENCY + (n - 1) * interval,
            "8th concurrent miss must wait for bus slots: {last_latency}"
        );
    }

    #[test]
    fn l3_hits_are_not_bandwidth_capped() {
        // A one-set L2, so the lines that evict the warm ones from L1D
        // also evict them from L2; L3 keeps them in sets of their own.
        let l2_size = L2_LINE * L2_WAYS as u64;
        let mut h = Hierarchy::new(CacheConfig { l2_size, ..CacheConfig::default() });
        let l1d_way = CacheConfig::default().l1d_size / L1D_WAYS as u64;
        let warm: Vec<u64> = (0..8).map(|i| 0x900_0000 + i * L2_LINE).collect();
        let evictors =
            warm.iter().flat_map(|&a| (1..=L1D_WAYS as u64).map(move |k| a + k * l1d_way));
        // One load per MEM_LATENCY cycles: no load queues for the bus or
        // an MSHR, and all are done before the timed loads.
        let mut now = 0;
        for addr in warm.iter().copied().chain(evictors) {
            h.load(addr, now, false);
            now += MEM_LATENCY;
        }
        for &addr in &warm {
            let hit = AccessResult { level: HitLevel::L3, latency: L3_LATENCY };
            assert_eq!(h.load(addr, now, false), hit, "same-cycle L3 hits skip the memory bus");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new("bad", 100, 48, 2);
    }
}
