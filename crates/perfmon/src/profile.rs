//! Cache-miss profiles aggregated from DEAR samples.
//!
//! Besides driving runtime prefetching, the paper feeds the same
//! sampling profiles back to the ORC compiler (§4.2): delinquent loads
//! are sorted by total miss latency and accumulated until they cover
//! 90 % of all profiled latency; static prefetching is then restricted
//! to loops containing a load in that list.

use std::collections::HashMap;

use isa::Pc;
use obs::{Json, ToJson};
use sim::Sample;

/// Aggregated miss statistics for one load instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissEntry {
    /// Bundle address of the load.
    pub addr: u64,
    /// Slot of the load within the bundle.
    pub slot: u8,
    /// Number of sampled qualifying misses.
    pub count: u64,
    /// Sum of sampled miss latencies (cycles).
    pub total_latency: u64,
    /// Most recently sampled miss address (for reference-pattern
    /// diagnostics).
    pub last_miss_addr: u64,
}

impl MissEntry {
    /// The precise pc of the load.
    pub fn pc(&self) -> Pc {
        Pc::new(isa::Addr(self.addr), self.slot)
    }
}

impl ToJson for MissEntry {
    fn to_json(&self) -> Json {
        Json::object()
            .with("addr", self.addr)
            .with("slot", self.slot)
            .with("count", self.count)
            .with("total_latency", self.total_latency)
            .with("last_miss_addr", self.last_miss_addr)
    }
}

/// A complete sampled cache-miss profile.
#[derive(Debug, Clone, Default)]
pub struct MissProfile {
    entries: Vec<MissEntry>,
    /// Total sampled miss latency across all loads.
    total_latency: u64,
}

impl MissProfile {
    /// Builds a profile by aggregating the DEAR records of `samples`.
    ///
    /// Consecutive samples can carry the *same* DEAR record (no new
    /// qualifying miss since the last sample); duplicates are collapsed
    /// by comparing sample-to-sample identity.
    pub fn from_samples<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> MissProfile {
        let mut map: HashMap<(u64, u8), MissEntry> = HashMap::new();
        let mut total = 0u64;
        let mut last: Option<(Pc, u64)> = None;
        for s in samples {
            let Some(d) = s.dear else { continue };
            // Only data-cache miss events guide prefetching; the DEAR
            // also reports DTLB misses, which are skipped here.
            if d.kind != sim::DearKind::CacheMiss {
                continue;
            }
            // Same record still sitting in the DEAR: skip.
            if last == Some((d.load_pc, d.miss_addr)) {
                continue;
            }
            last = Some((d.load_pc, d.miss_addr));
            let e = map.entry((d.load_pc.addr.0, d.load_pc.slot)).or_insert(MissEntry {
                addr: d.load_pc.addr.0,
                slot: d.load_pc.slot,
                count: 0,
                total_latency: 0,
                last_miss_addr: 0,
            });
            e.count += 1;
            e.total_latency += d.latency;
            e.last_miss_addr = d.miss_addr;
            total += d.latency;
        }
        let mut entries: Vec<MissEntry> = map.into_values().collect();
        entries.sort_by(|a, b| b.total_latency.cmp(&a.total_latency).then(a.addr.cmp(&b.addr)));
        MissProfile { entries, total_latency: total }
    }

    /// All entries, sorted by decreasing total latency.
    pub fn entries(&self) -> &[MissEntry] {
        &self.entries
    }

    /// Total sampled miss latency.
    pub fn total_latency(&self) -> u64 {
        self.total_latency
    }

    /// True when the profile recorded no qualifying misses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The delinquent-load list: the smallest prefix of loads (by
    /// decreasing total latency) covering at least `coverage` (0–1) of
    /// all profiled miss latency — the paper's 90 % rule.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < coverage <= 1.0`.
    pub fn delinquent_loads(&self, coverage: f64) -> Vec<MissEntry> {
        assert!(coverage > 0.0 && coverage <= 1.0, "coverage must be in (0, 1]");
        let target = (self.total_latency as f64 * coverage).ceil() as u64;
        let mut acc = 0u64;
        let mut out = Vec::new();
        for e in &self.entries {
            if acc >= target {
                break;
            }
            acc += e.total_latency;
            out.push(*e);
        }
        out
    }
}

impl ToJson for MissProfile {
    fn to_json(&self) -> Json {
        Json::object()
            .with("total_latency", self.total_latency)
            .with("entries", self.entries.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::Addr;
    use sim::DearRecord;

    fn sample_with_dear(index: u64, pc_addr: u64, slot: u8, miss_addr: u64, lat: u64) -> Sample {
        Sample {
            index,
            pc: Pc::new(Addr(pc_addr), 0),
            cycles: index * 1000,
            retired: index * 500,
            dcache_misses: index,
            btb: vec![],
            dear: Some(DearRecord {
                load_pc: Pc::new(Addr(pc_addr), slot),
                miss_addr,
                latency: lat,
                kind: sim::DearKind::CacheMiss,
            }),
        }
    }

    #[test]
    fn aggregates_by_load_pc() {
        let samples = vec![
            sample_with_dear(0, 0x4000_0000, 0, 0x1000_0000, 160),
            sample_with_dear(1, 0x4000_0000, 0, 0x1000_0040, 160),
            sample_with_dear(2, 0x4000_0100, 1, 0x1200_0000, 13),
        ];
        let p = MissProfile::from_samples(&samples);
        assert_eq!(p.entries().len(), 2);
        assert_eq!(p.total_latency(), 333);
        // Sorted by total latency descending.
        assert_eq!(p.entries()[0].addr, 0x4000_0000);
        assert_eq!(p.entries()[0].count, 2);
        assert_eq!(p.entries()[0].total_latency, 320);
    }

    #[test]
    fn duplicate_dear_records_collapse() {
        let s = sample_with_dear(0, 0x4000_0000, 0, 0x1000_0000, 160);
        let mut s2 = sample_with_dear(1, 0x4000_0000, 0, 0x1000_0000, 160);
        s2.dear = s.dear; // identical record: no new miss occurred
        let p = MissProfile::from_samples([&s, &s2]);
        assert_eq!(p.entries()[0].count, 1);
    }

    #[test]
    fn delinquent_list_covers_requested_fraction() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| sample_with_dear(i, 0x4000_0000 + i * 16, 0, 0x1000_0000 + i * 64, 100 + i))
            .collect();
        let p = MissProfile::from_samples(&samples);
        let all = p.delinquent_loads(1.0);
        assert_eq!(all.len(), 10);
        let top = p.delinquent_loads(0.2);
        assert!(top.len() < 10);
        let covered: u64 = top.iter().map(|e| e.total_latency).sum();
        assert!(covered as f64 >= 0.2 * p.total_latency() as f64);
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn bad_coverage_panics() {
        MissProfile::default().delinquent_loads(0.0);
    }

    #[test]
    fn profile_serializes_to_schema_keys() {
        let samples = vec![sample_with_dear(0, 0x4000_0000, 1, 0x1000_0000, 160)];
        let p = MissProfile::from_samples(&samples);
        let j = p.to_json();
        assert_eq!(j.get("total_latency").and_then(Json::as_u64), Some(160));
        let e = &j.get("entries").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("addr").and_then(Json::as_u64), Some(0x4000_0000));
        assert_eq!(e.get("slot").and_then(Json::as_u64), Some(1));
        // The emitted text is valid JSON.
        assert!(Json::parse(&j.to_string()).is_ok());
    }

    #[test]
    fn empty_profile() {
        let p = MissProfile::from_samples(std::iter::empty::<&Sample>());
        assert!(p.is_empty());
        assert_eq!(p.total_latency(), 0);
        assert!(p.delinquent_loads(0.9).is_empty());
    }
}
