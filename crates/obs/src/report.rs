//! Schema-versioned experiment reports.
//!
//! Every experiment binary writes a machine-readable JSON report next
//! to its human-readable stdout output, so the perf trajectory of the
//! repository can be diffed run-over-run. All reports share a common
//! envelope:
//!
//! ```text
//! {
//!   "schema_version": 2,       // bumped on incompatible layout changes
//!   "tool": "fig7",            // the emitting binary / bench suite
//!   "generated_unix_s": 1754...,// wall-clock stamp (0 if unavailable)
//!   ...tool-specific keys...
//! }
//! ```
//!
//! Reports land in `results/` by default; set `ADORE_RESULTS_DIR` to
//! redirect (tests do this to avoid touching the checked-in copies).

use std::io;
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{Json, ToJson};

/// Current report schema version. Bump on incompatible changes and
/// record the migration in `DESIGN.md`.
///
/// v2: the engine's `engine` section gained `baseline_store` and
/// `scheduling` subsections (persistent-store hits/misses, shard
/// count, queue depth high-water mark, stolen-task count). The
/// volatile `scheduling` subsection was later dropped without a bump,
/// because nothing reads it; committed `results/*.json` keep it until
/// they are regenerated.
pub const SCHEMA_VERSION: u64 = 2;

/// A report under construction: the standard envelope plus whatever
/// keys the tool adds via [`Report::set`].
#[derive(Debug, Clone)]
pub struct Report {
    tool: String,
    body: Json,
}

impl Report {
    /// Starts a report for `tool` (also the output file stem).
    pub fn new(tool: &str) -> Report {
        let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
        let body = Json::object()
            .with("schema_version", SCHEMA_VERSION)
            .with("tool", tool)
            .with("generated_unix_s", stamp);
        Report { tool: tool.to_string(), body }
    }

    /// Adds (or replaces) a top-level key.
    pub fn set(&mut self, key: &str, value: impl ToJson) {
        self.body.set(key, value);
    }

    /// The report as a JSON value.
    pub fn json(&self) -> &Json {
        &self.body
    }

    /// The directory reports are written to: `$ADORE_RESULTS_DIR` if
    /// set, else `results/` under the enclosing workspace root.
    ///
    /// Cargo runs test and bench binaries with the *package* directory
    /// as cwd (e.g. `crates/bench`) but `cargo run` binaries with the
    /// invocation directory, so a plain relative `results/` would
    /// scatter reports. Instead we walk up from the current directory
    /// to the nearest `Cargo.lock` — the workspace root — and anchor
    /// there; if none is found (installed binary, bare checkout), fall
    /// back to `results/` under the current directory.
    pub fn results_dir() -> PathBuf {
        if let Some(dir) = std::env::var_os("ADORE_RESULTS_DIR") {
            return PathBuf::from(dir);
        }
        if let Ok(mut at) = std::env::current_dir() {
            loop {
                if at.join("Cargo.lock").is_file() {
                    return at.join("results");
                }
                if !at.pop() {
                    break;
                }
            }
        }
        PathBuf::from("results")
    }

    /// Writes `<results_dir>/<tool>.json` (pretty-printed), creating
    /// the directory if needed, and reports the path on stderr.
    pub fn save(&self) -> io::Result<PathBuf> {
        let dir = Report::results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.tool));
        std::fs::write(&path, self.body.pretty())?;
        eprintln!("[report] wrote {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_schema_keys() {
        let r = Report::new("unit");
        let j = r.json();
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(j.get("tool").and_then(Json::as_str), Some("unit"));
        assert!(j.get("generated_unix_s").is_some());
    }

    #[test]
    fn save_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("obs-report-test-{}", std::process::id()));
        // Env vars are process-global; this test is the only one in the
        // crate touching ADORE_RESULTS_DIR.
        std::env::set_var("ADORE_RESULTS_DIR", &dir);
        let mut r = Report::new("unit_save");
        r.set("rows", vec![Json::object().with("bench", "mcf").with("cycles", 42u64)]);
        let path = r.save().expect("writes");
        std::env::remove_var("ADORE_RESULTS_DIR");
        let text = std::fs::read_to_string(&path).expect("readable");
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("rows").unwrap().as_array().unwrap()[0].get("cycles").and_then(Json::as_u64),
            Some(42)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
