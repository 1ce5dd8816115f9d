//! Observability and reporting for the ADORE reproduction.
//!
//! This crate is intentionally **dependency-free** (std only): the
//! repository builds fully offline, so anything `serde` would
//! normally provide lives here instead, scoped to exactly what the
//! experiment harness needs:
//!
//! * [`json`] — a minimal JSON value type, the [`ToJson`] trait, a
//!   deterministic serializer (object keys keep insertion order) and a
//!   small parser used by tests and `tools/ci.sh` to validate emitted
//!   reports.
//! * [`events`] — an append-only stream of structured events (the
//!   optimizer pipeline's deploy/unpatch/instrument/promote record),
//!   serialized as a JSON array inside experiment reports.
//! * [`report`] — schema-versioned experiment reports written as
//!   `results/<tool>.json`, so successive PRs can diff speedups,
//!   coverage and accuracy run-over-run.
//! * [`progress`] — ordered merge of concurrently produced progress
//!   rows: live (out-of-order) stderr lines plus a deterministic,
//!   submission-ordered view for report embedding.
//! * [`pool`] — a work-stealing shard pool over `std::thread::scope`:
//!   the resident-service primitive ([`pool::service_scope`]) that
//!   feeds jobs through per-shard deques and emits results in strict
//!   submission order, plus a batch wrapper ([`pool::run_indexed`])
//!   used by the experiment engine and the fuzzing campaign.

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod pool;
pub mod progress;
pub mod report;

pub use events::EventStream;
pub use json::{Json, ToJson};
pub use pool::{run_indexed, service_scope, PoolStats, Submitter};
pub use progress::{Progress, ProgressEntry};
pub use report::{Report, SCHEMA_VERSION};
