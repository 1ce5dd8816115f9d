//! Profile windows: per-SSB-fill statistics.
//!
//! The paper defines a *profile window* as the period it takes the
//! System Sample Buffer to fill (§2.3). For each window ADORE computes
//! three statistics — `CPI`, `DPI` (D-cache load misses per
//! instruction) and `PCcenter` (the arithmetic mean of sampled pc
//! addresses) — whose standard deviations over consecutive windows drive
//! phase detection.

use sim::Sample;

/// Statistics of one profile window.
#[derive(Debug, Clone)]
pub struct ProfileWindow {
    /// Window sequence number (0-based).
    pub seq: u64,
    /// Samples captured in this window.
    pub samples: Vec<Sample>,
    /// Cycles elapsed during the window.
    pub cycles: u64,
    /// Instructions retired during the window.
    pub retired: u64,
    /// DEAR-qualifying misses during the window.
    pub dear_misses: u64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// DEAR-qualifying misses per instruction.
    pub dpi: f64,
    /// DEAR-qualifying misses per 1000 instructions (the Fig. 8/9
    /// y-axis, `DEAR_CACHE_LAT8 / 1000 instructions`).
    pub dear_per_kinsn: f64,
    /// Arithmetic mean of sampled pc addresses after noise removal,
    /// computed over static-code samples only (trace-pool samples are
    /// accounted separately via [`ProfileWindow::pool_fraction`], so a
    /// partially patched phase does not look bimodal).
    pub pc_center: f64,
    /// Fraction of samples whose pc lies in the trace pool.
    pub pool_fraction: f64,
}

impl ProfileWindow {
    /// Builds a window from drained samples plus the accumulative
    /// counter values at the *end of the previous window*
    /// (`prev = (cycles, retired, dear_misses)`).
    pub fn new(seq: u64, samples: Vec<Sample>, prev: (u64, u64, u64)) -> ProfileWindow {
        let (c0, r0, d0) = prev;
        let (c1, r1, d1) =
            samples.last().map(|s| (s.cycles, s.retired, s.dcache_misses)).unwrap_or(prev);
        let cycles = c1.saturating_sub(c0);
        let retired = r1.saturating_sub(r0);
        let dear_misses = d1.saturating_sub(d0);
        let cpi = if retired > 0 { cycles as f64 / retired as f64 } else { 0.0 };
        let dpi = if retired > 0 { dear_misses as f64 / retired as f64 } else { 0.0 };
        let pool = samples.iter().filter(|s| s.pc.addr.0 >= isa::TRACE_POOL_BASE).count();
        let pool_fraction =
            if samples.is_empty() { 0.0 } else { pool as f64 / samples.len() as f64 };
        let code_pcs: Vec<f64> = samples
            .iter()
            .map(|s| s.pc.addr.0 as f64)
            .filter(|&p| p < isa::TRACE_POOL_BASE as f64)
            .collect();
        let pool_pcs: Vec<f64> = samples
            .iter()
            .map(|s| s.pc.addr.0 as f64)
            .filter(|&p| p >= isa::TRACE_POOL_BASE as f64)
            .collect();
        let pc_center =
            noise_filtered_mean(if code_pcs.is_empty() { &pool_pcs } else { &code_pcs });
        ProfileWindow {
            seq,
            cycles,
            retired,
            dear_misses,
            cpi,
            dpi,
            dear_per_kinsn: dpi * 1000.0,
            pc_center,
            pool_fraction,
            samples,
        }
    }

    /// End-of-window accumulative counters, for chaining windows.
    pub fn end_counters(&self) -> Option<(u64, u64, u64)> {
        self.samples.last().map(|s| (s.cycles, s.retired, s.dcache_misses))
    }
}

/// Mean of pc addresses with one pass of 2σ outlier rejection — the
/// "noise removal" the paper's phase detector applies so rare
/// excursions (library calls, signal handlers) do not smear `PCcenter`.
fn noise_filtered_mean(pcs: &[f64]) -> f64 {
    if pcs.is_empty() {
        return 0.0;
    }
    let mean = pcs.iter().sum::<f64>() / pcs.len() as f64;
    let var = pcs.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / pcs.len() as f64;
    let sd = var.sqrt();
    if sd == 0.0 {
        return mean;
    }
    let kept: Vec<f64> = pcs.iter().copied().filter(|p| (p - mean).abs() <= 2.0 * sd).collect();
    if kept.is_empty() {
        mean
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// A fixed-capacity circular buffer of the most recent profile windows —
/// the **User Event Buffer** (`SIZE_UEB = SIZE_SSB * W`, paper §2.3).
#[derive(Debug, Clone)]
pub struct UserEventBuffer {
    windows: std::collections::VecDeque<ProfileWindow>,
    capacity: usize,
}

impl UserEventBuffer {
    /// Creates a UEB holding up to `w` windows (the paper uses W = 16).
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero.
    pub fn new(w: usize) -> UserEventBuffer {
        assert!(w > 0, "UEB must hold at least one window");
        UserEventBuffer { windows: std::collections::VecDeque::with_capacity(w), capacity: w }
    }

    /// Window capacity `W`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a window, evicting the oldest when full.
    pub fn push(&mut self, w: ProfileWindow) {
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(w);
    }

    /// Number of windows currently buffered.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no windows are buffered.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The most recent `n` windows, oldest first.
    pub fn recent(&self, n: usize) -> Vec<&ProfileWindow> {
        let skip = self.windows.len().saturating_sub(n);
        self.windows.iter().skip(skip).collect()
    }

    /// Iterates all buffered windows, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ProfileWindow> {
        self.windows.iter()
    }

    /// The most recent window.
    pub fn last(&self) -> Option<&ProfileWindow> {
        self.windows.back()
    }

    /// Clears all windows (used when a phase change invalidates history).
    pub fn clear(&mut self) {
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Addr, Pc};

    fn sample(index: u64, pc_addr: u64, cycles: u64, retired: u64, misses: u64) -> Sample {
        Sample {
            index,
            pc: Pc::new(Addr(pc_addr), 0),
            cycles,
            retired,
            dcache_misses: misses,
            btb: vec![],
            dear: None,
        }
    }

    #[test]
    fn window_stats_are_deltas() {
        let samples =
            vec![sample(0, 0x4000_0000, 1_000, 500, 10), sample(1, 0x4000_0010, 2_000, 1_500, 30)];
        let w = ProfileWindow::new(0, samples, (0, 0, 0));
        assert_eq!(w.cycles, 2_000);
        assert_eq!(w.retired, 1_500);
        assert_eq!(w.dear_misses, 30);
        assert!((w.cpi - 2_000.0 / 1_500.0).abs() < 1e-12);
        assert!((w.dear_per_kinsn - 20.0).abs() < 1e-12);
    }

    #[test]
    fn window_chains_from_previous_counters() {
        let w1 = ProfileWindow::new(0, vec![sample(0, 0x4000_0000, 1_000, 500, 5)], (0, 0, 0));
        let end = w1.end_counters().unwrap();
        let w2 = ProfileWindow::new(1, vec![sample(1, 0x4000_0000, 3_000, 900, 9)], end);
        assert_eq!(w2.cycles, 2_000);
        assert_eq!(w2.retired, 400);
        assert_eq!(w2.dear_misses, 4);
    }

    #[test]
    fn pc_center_rejects_outliers() {
        let mut samples: Vec<Sample> =
            (0..20).map(|i| sample(i, 0x4000_0000 + (i % 4) * 16, 100 * i, 50 * i, 0)).collect();
        // One wild outlier (a signal handler pc far away).
        samples.push(sample(20, 0xf000_0000, 2_100, 1_050, 0));
        let w = ProfileWindow::new(0, samples, (0, 0, 0));
        assert!(w.pc_center < 0x4100_0000 as f64, "outlier should be rejected: {}", w.pc_center);
    }

    #[test]
    fn pool_fraction_separates_pc_center() {
        let pool_base = isa::TRACE_POOL_BASE;
        let mut samples: Vec<Sample> = (0..10)
            .map(|i| sample(i, 0x4000_0000 + (i % 4) * 16, 100 * (i + 1), 50 * (i + 1), 0))
            .collect();
        for i in 10..20 {
            samples.push(sample(i, pool_base + (i % 4) * 16, 100 * (i + 1), 50 * (i + 1), 0));
        }
        let w = ProfileWindow::new(0, samples, (0, 0, 0));
        assert!((w.pool_fraction - 0.5).abs() < 1e-12);
        // PCcenter is computed over the code-region samples only.
        assert!(w.pc_center < 0x5000_0000 as f64, "pool pcs must not smear PCcenter");
    }

    #[test]
    fn all_pool_window_uses_pool_pcs() {
        let pool_base = isa::TRACE_POOL_BASE;
        let samples: Vec<Sample> = (0..8)
            .map(|i| sample(i, pool_base + (i % 2) * 16, 100 * (i + 1), 50 * (i + 1), 0))
            .collect();
        let w = ProfileWindow::new(0, samples, (0, 0, 0));
        assert_eq!(w.pool_fraction, 1.0);
        assert!(w.pc_center >= pool_base as f64);
    }

    #[test]
    fn empty_window_is_benign() {
        let w = ProfileWindow::new(0, vec![], (100, 50, 5));
        assert_eq!(w.cycles, 0);
        assert_eq!(w.cpi, 0.0);
        assert!(w.end_counters().is_none());
    }

    #[test]
    fn ueb_evicts_oldest() {
        let mut ueb = UserEventBuffer::new(3);
        for i in 0..5 {
            ueb.push(ProfileWindow::new(i, vec![], (0, 0, 0)));
        }
        assert_eq!(ueb.len(), 3);
        let seqs: Vec<u64> = ueb.iter().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ueb.last().unwrap().seq, 4);
        let recent = ueb.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 3);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_capacity_panics() {
        let _ = UserEventBuffer::new(0);
    }
}
