//! Persistent content-addressed baseline store.
//!
//! The in-memory [`crate::engine::BaselineCache`] deduplicates plain
//! (no-prefetch, unmonitored) runs *within* one grid; this store
//! persists those runs *across* processes, so re-running the same grid
//! — or a different binary that shares cells — skips the expensive
//! simulation and only re-pays compilation.
//!
//! **Key derivation.** An entry is addressed by an FNV-1a hash over
//! everything the plain run's outcome depends on:
//!
//! * [`STORE_VERSION`] (bump whenever simulator timing changes);
//! * the workload identity: name, `Debug` rendering of the kernel IR,
//!   arena size, and `Debug` rendering of the init actions — the
//!   kernel content varies with `--scale`, so two scales never
//!   collide;
//! * the compile options (via the same deterministic `opts_key`
//!   string the in-memory cache uses);
//! * the `Debug` rendering of the [`MachineConfig`]. It carries only
//!   the settable fields: the cache geometry, latencies and DTLB are
//!   constants in `sim` and reach the key through [`STORE_VERSION`]
//!   alone.
//!
//! The `AdoreConfig` is deliberately **excluded**: a plain baseline
//! never runs ADORE, and every ablation variant of a cell must share
//! one stored baseline (that sharing is the point of the cache).
//!
//! **Entry format.** One JSON file per key, named `<key-hex>.json`,
//! holding the plain run's cycles, final PMU counters and stats row,
//! plus a `checksum` over the payload. A missing, unparsable,
//! version-mismatched or checksum-mismatched entry is treated as a
//! miss and recomputed — never trusted — then atomically rewritten
//! (unique temp file + rename), so concurrent writers and torn writes
//! cannot corrupt readers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use compiler::CompileOptions;
use obs::Json;
use sim::{Counters, MachineConfig};
use workloads::Workload;

use crate::engine::opts_key;

/// Version of the stored-entry semantics. Bump whenever simulator
/// timing, workload generation or the entry layout changes: stale
/// entries from older versions then miss instead of poisoning results.
///
/// That includes every timing constant of `sim` (the cache geometry
/// and latencies in `sim::cache`, the DTLB in `sim::tlb`, the core
/// latencies and trace-pool size in `sim::machine`): the key hashes
/// [`MachineConfig`]'s `Debug` text, which does not carry them, so
/// changing one without a bump serves stale baselines silently.
pub const STORE_VERSION: u64 = 1;

/// A content-addressed on-disk store of plain-run baselines.
///
/// Hit/miss counters are *volatile* observability (they depend on what
/// previous processes left in the directory), so the engine reports
/// them under the canonicalized-away `engine.baseline_store` section,
/// never next to the deterministic in-memory cache statistics.
pub struct BaselineStore {
    dir: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// The persisted outcome of one plain run — everything
/// [`crate::engine::Baseline`] needs except the compiled binary, which
/// is cheap to rebuild and is reproduced by recompiling.
#[derive(Debug, Clone)]
pub struct StoredBaseline {
    /// Total cycles of the plain run.
    pub cycles: u64,
    /// Final PMU counters.
    pub counters: Counters,
    /// Cache/PMU statistics row.
    pub stats: Json,
}

impl BaselineStore {
    /// Opens (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: PathBuf) -> std::io::Result<BaselineStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(BaselineStore { dir, hits: AtomicUsize::new(0), misses: AtomicUsize::new(0) })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed key of a (workload, options, machine)
    /// triple. See the module docs for what the hash covers and why
    /// `AdoreConfig` is excluded.
    pub fn key(w: &Workload, opts: &CompileOptions, machine: &MachineConfig) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(STORE_VERSION);
        h.write_str(w.name);
        h.write_str(&format!("{:?}", w.kernel));
        h.write_u64(w.arena_bytes);
        h.write_str(&format!("{:?}", w.inits));
        h.write_str(&opts_key(opts));
        h.write_str(&format!("{machine:?}"));
        h.finish()
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Loads the entry for `key`, or `None` (counted as a miss) if it
    /// is absent or fails any integrity check.
    pub fn load(&self, key: u64) -> Option<StoredBaseline> {
        let loaded = self.try_load(key);
        if loaded.is_some() {
            self.hits.fetch_add(1, Ordering::SeqCst);
        } else {
            self.misses.fetch_add(1, Ordering::SeqCst);
        }
        loaded
    }

    fn try_load(&self, key: u64) -> Option<StoredBaseline> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = Json::parse(&text).ok()?;
        if entry.get("store_version").and_then(Json::as_u64) != Some(STORE_VERSION) {
            return None;
        }
        if entry.get("key").and_then(Json::as_str) != Some(format!("{key:016x}").as_str()) {
            return None;
        }
        let payload = payload_of(&entry)?;
        let checksum = entry.get("checksum").and_then(Json::as_str)?;
        if checksum != payload_checksum(&payload) {
            return None;
        }
        let cycles = payload.get("cycles").and_then(Json::as_u64)?;
        let counters = counters_from_json(payload.get("counters")?)?;
        let stats = payload.get("stats")?.clone();
        Some(StoredBaseline { cycles, counters, stats })
    }

    /// Persists `entry` under `key`. Write failures only cost future
    /// hits, so they are reported to stderr and otherwise ignored.
    pub fn save(&self, key: u64, entry: &StoredBaseline) {
        let payload = Json::object()
            .with("cycles", entry.cycles)
            .with("counters", entry.counters)
            .with("stats", entry.stats.clone());
        let body = Json::object()
            .with("store_version", STORE_VERSION)
            .with("key", format!("{key:016x}"))
            .with("cycles", entry.cycles)
            .with("counters", entry.counters)
            .with("stats", entry.stats.clone())
            .with("checksum", payload_checksum(&payload));
        if let Err(e) = self.write_atomic(key, &body.pretty()) {
            eprintln!("[baseline-store] write {:016x} failed: {e}", key);
        }
    }

    fn write_atomic(&self, key: u64, text: &str) -> std::io::Result<()> {
        // Unique temp name per (process, thread) so concurrent writers
        // of the same key never interleave; rename is atomic and both
        // writers produce identical content anyway (determinism).
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{:?}.tmp",
            key,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// `(hits, misses)` so far. Volatile: depends on prior processes.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::SeqCst), self.misses.load(Ordering::SeqCst))
    }
}

/// Re-derives the checksummed payload subset of a stored entry.
fn payload_of(entry: &Json) -> Option<Json> {
    Some(
        Json::object()
            .with("cycles", entry.get("cycles")?.clone())
            .with("counters", entry.get("counters")?.clone())
            .with("stats", entry.get("stats")?.clone()),
    )
}

fn payload_checksum(payload: &Json) -> String {
    let mut h = Fnv::new();
    h.write_str(&payload.to_string());
    format!("{:016x}", h.finish())
}

/// Lossless reconstruction of [`Counters`] from its `ToJson` form; any
/// missing field fails the whole entry (treated as corruption).
fn counters_from_json(j: &Json) -> Option<Counters> {
    let f = |name: &str| j.get(name).and_then(Json::as_u64);
    Some(Counters {
        cycles: f("cycles")?,
        retired: f("retired")?,
        l1d_misses: f("l1d_misses")?,
        dear_misses: f("dear_misses")?,
        dear_latency: f("dear_latency")?,
        l1i_misses: f("l1i_misses")?,
        loads: f("loads")?,
        dtlb_misses: f("dtlb_misses")?,
        branches: f("branches")?,
        stall_mem: f("stall_mem")?,
        stall_fp: f("stall_fp")?,
        stall_branch: f("stall_branch")?,
        stall_icache: f("stall_icache")?,
        overhead_cycles: f("overhead_cycles")?,
    })
}

/// Resolves the default store directory:
///
/// * `ADORE_BASELINE_DIR` set and non-empty — use that path;
/// * `ADORE_BASELINE_DIR` set but empty — store disabled (`None`);
/// * unset — `cache/baselines/` under the workspace root (the nearest
///   ancestor holding `Cargo.lock`), or disabled if none is found.
pub fn resolve_default_dir() -> Option<PathBuf> {
    match std::env::var("ADORE_BASELINE_DIR") {
        Ok(dir) if dir.is_empty() => None,
        Ok(dir) => Some(PathBuf::from(dir)),
        Err(_) => {
            let mut at = std::env::current_dir().ok()?;
            loop {
                if at.join("Cargo.lock").is_file() {
                    return Some(at.join("cache").join("baselines"));
                }
                if !at.pop() {
                    return None;
                }
            }
        }
    }
}

/// Incremental FNV-1a (64-bit) with a SplitMix finalizer, shared by key
/// derivation, entry checksums and the engine's per-cell sampling seeds
/// ([`crate::engine`]).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator so adjacent fields cannot alias.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn finish(&self) -> u64 {
        // Splitmix-style finalizer to spread FNV's weak low bits.
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "adore-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_entry() -> StoredBaseline {
        StoredBaseline {
            cycles: 12_345,
            counters: Counters { cycles: 12_345, retired: 678, ..Default::default() },
            stats: Json::object().with("l1d_miss_rate", 0.25),
        }
    }

    #[test]
    fn round_trips_an_entry() {
        let store = BaselineStore::open(temp_dir("roundtrip")).unwrap();
        store.save(7, &sample_entry());
        let back = store.load(7).expect("entry round-trips");
        assert_eq!(back.cycles, 12_345);
        assert_eq!(back.counters.retired, 678);
        assert_eq!(back.stats.get("l1d_miss_rate").and_then(Json::as_f64), Some(0.25));
        assert_eq!(store.stats(), (1, 0));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let store = BaselineStore::open(temp_dir("miss")).unwrap();
        assert!(store.load(99).is_none());
        assert_eq!(store.stats(), (0, 1));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_entry_is_rejected() {
        let store = BaselineStore::open(temp_dir("corrupt")).unwrap();
        store.save(3, &sample_entry());
        let path = store.dir().join(format!("{:016x}.json", 3));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("12345", "99999");
        std::fs::write(&path, tampered).unwrap();
        assert!(store.load(3).is_none(), "tampered cycles must fail the checksum");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let store = BaselineStore::open(temp_dir("version")).unwrap();
        store.save(4, &sample_entry());
        let path = store.dir().join(format!("{:016x}.json", 4));
        let old = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"store_version\": 1", "\"store_version\": 0");
        std::fs::write(&path, old).unwrap();
        assert!(store.load(4).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_separates_workload_options_and_machine() {
        let suite = workloads::suite(0.05);
        let (a, b) = (&suite[0], &suite[1]);
        let o2 = CompileOptions::o2();
        let o3 = CompileOptions::o3();
        let m = MachineConfig::default();
        let k = |w, o| BaselineStore::key(w, o, &m);
        assert_ne!(k(a, &o2), k(b, &o2), "different workloads must not collide");
        assert_ne!(k(a, &o2), k(a, &o3), "different options must not collide");
        assert_eq!(k(a, &o2), k(a, &o2), "key is a pure function");
    }
}
