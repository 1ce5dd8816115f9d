//! Live progress lines for concurrently produced work items.
//!
//! The parallel experiment engine finishes cells in whatever order the
//! worker threads happen to run them. Each completed item prints one
//! line to stderr immediately (out of order, with wall-clock timing), so
//! a human watching a long run sees progress. Nothing here reaches a
//! report: the pool's reorder buffer already hands results back in
//! submission order, and wall times are volatile.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A thread-safe progress sink for a fixed-size batch of work items.
#[derive(Debug)]
pub struct Progress {
    tool: String,
    total: usize,
    done: AtomicUsize,
    start: Instant,
}

impl Progress {
    /// Starts tracking `total` items for `tool`.
    pub fn new(tool: &str, total: usize) -> Progress {
        Progress { tool: tool.to_string(), total, done: AtomicUsize::new(0), start: Instant::now() }
    }

    /// Records completion of one item and prints a live line to stderr.
    pub fn item_done(&self, label: &str, elapsed: Duration) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        eprintln!("[{}] {done}/{} {label} {}ms", self.tool, self.total, elapsed.as_millis());
    }

    /// Wall-clock time since the sink was created.
    pub fn wall(&self) -> Duration {
        self.start.elapsed()
    }
}
