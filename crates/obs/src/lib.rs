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
//! * [`report`] — schema-versioned experiment reports written as
//!   `results/<tool>.json`, so successive PRs can diff speedups,
//!   coverage and accuracy run-over-run.
//! * [`progress`] — live (out-of-order) stderr lines for concurrently
//!   produced work items, with wall-clock timing.
//! * [`pool`] — a worker pool over `std::thread::scope`: the
//!   resident-service primitive ([`pool::service_scope`]) that feeds
//!   jobs through one FIFO queue and emits results in strict
//!   submission order, plus a batch wrapper ([`pool::run_indexed`])
//!   used by the fuzzing campaign.

#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod progress;
pub mod report;

pub use json::{Json, ToJson};
pub use pool::{run_indexed, service_scope, Submitter};
pub use progress::Progress;
pub use report::{Report, SCHEMA_VERSION};
