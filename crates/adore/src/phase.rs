//! Coarse-grain phase detection (paper §2.3).
//!
//! A *stable phase* is a stretch of execution repeatedly running the
//! same code with steady CPI and cache-miss rate. The detector examines
//! the most recent profile windows in the UEB: when `CPI`, `DPI` and
//! `PCcenter` all show low standard deviation over several consecutive
//! windows, a stable phase has begun; high deviation signals a phase
//! change. Phases executing from the trace pool are skipped (already
//! optimized), as are phases with negligible miss rates. When no stable
//! phase emerges for a long time, the detector doubles the effective
//! profile-window size, in case the window is too small for a large
//! phase.

use perfmon::{ProfileWindow, UserEventBuffer};

use crate::reject::Rejection;

/// Phase-detector configuration.
#[derive(Debug, Clone)]
pub struct PhaseConfig {
    /// Consecutive windows that must agree for a stable phase.
    pub windows_required: usize,
    /// Maximum relative standard deviation of CPI.
    pub cpi_rel_dev: f64,
    /// Maximum relative standard deviation of DPI.
    pub dpi_rel_dev: f64,
    /// Maximum standard deviation of `PCcenter`, in bytes.
    pub pc_dev_bytes: f64,
    /// Phases with mean DPI below this are ignored for prefetching
    /// (misses per instruction; 0.0002 = 0.2 misses / 1000 instructions).
    pub min_dpi: f64,
}

/// Unstable evaluations before the effective window size doubles.
const UNSTABLE_BEFORE_DOUBLING: usize = 24;
/// Maximum window-size multiplier.
const MAX_WINDOW_SCALE: usize = 4;
/// Two stable phases whose `PCcenter`s differ by at most this are
/// considered the same phase (bytes).
const SAME_PHASE_PC_TOLERANCE: f64 = 256.0;

impl Default for PhaseConfig {
    fn default() -> PhaseConfig {
        PhaseConfig {
            windows_required: 4,
            cpi_rel_dev: 0.12,
            dpi_rel_dev: 0.25,
            pc_dev_bytes: 8192.0,
            min_dpi: 0.0002,
        }
    }
}

/// Detector verdict for the current UEB contents.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseDecision {
    /// Not enough windows, or deviations too high.
    Unstable,
    /// A stable phase with a high enough miss rate, described by its
    /// signature.
    Stable(PhaseSignature),
    /// Stable, but executing from the trace pool (already optimized at
    /// least once; may still warrant incremental re-optimization when
    /// the miss rate stayed high).
    InTracePool(PhaseSignature),
    /// Stable, but the miss rate is too low to bother prefetching
    /// (the signature still carries the CPI the adaptive policy
    /// controller scores trials with).
    LowMissRate(PhaseSignature),
}

impl PhaseDecision {
    /// Maps the decision to an actionable phase signature, or the
    /// [`Rejection`] the phase gate should record.
    ///
    /// An in-trace-pool phase is actionable only while its miss rate
    /// (DPI) stays at or above `min_dpi` — the incremental
    /// re-optimization candidate of §2.3.
    pub fn actionable(self, min_dpi: f64) -> Result<PhaseSignature, Rejection> {
        match self {
            PhaseDecision::Stable(sig) => Ok(sig),
            PhaseDecision::InTracePool(sig) if sig.dpi >= min_dpi => Ok(sig),
            PhaseDecision::InTracePool(_) => Err(Rejection::PhaseBelowDpi),
            PhaseDecision::Unstable => Err(Rejection::PhaseUnstable),
            PhaseDecision::LowMissRate(_) => Err(Rejection::PhaseLowMissRate),
        }
    }
}

/// Summary statistics of a detected stable phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSignature {
    /// Mean `PCcenter` over the agreeing windows.
    pub pc_center: f64,
    /// Mean CPI.
    pub cpi: f64,
    /// Mean DPI.
    pub dpi: f64,
}

/// The coarse-grain phase detector.
#[derive(Debug)]
pub struct PhaseDetector {
    config: PhaseConfig,
    window_scale: usize,
    consecutive_unstable: usize,
}

fn mean_and_dev(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

impl PhaseDetector {
    /// Creates a detector.
    pub fn new(config: PhaseConfig) -> PhaseDetector {
        PhaseDetector { config, window_scale: 1, consecutive_unstable: 0 }
    }

    /// Current effective window-size multiplier.
    pub fn window_scale(&self) -> usize {
        self.window_scale
    }

    /// Evaluates the UEB after a new profile window arrived.
    pub fn evaluate(&mut self, ueb: &UserEventBuffer) -> PhaseDecision {
        let needed = self.config.windows_required * self.window_scale;
        if ueb.len() < needed {
            return self.note_unstable();
        }
        let recent = ueb.recent(needed);
        // Aggregate groups of `window_scale` windows into effective
        // windows (the paper doubles the profile window instead; the
        // effect is the same statistic over a longer period).
        let groups: Vec<ProfileWindow> = recent
            .chunks(self.window_scale)
            .map(|chunk| merge(chunk))
            .collect();
        if groups.len() < self.config.windows_required {
            return self.note_unstable();
        }

        let pool_mean =
            groups.iter().map(|w| w.pool_fraction).sum::<f64>() / groups.len() as f64;
        let cpis: Vec<f64> = groups.iter().map(|w| w.cpi).collect();
        let dpis: Vec<f64> = groups.iter().map(|w| w.dpi).collect();
        let pcs: Vec<f64> = groups.iter().map(|w| w.pc_center).collect();
        let (cpi_mean, cpi_dev) = mean_and_dev(&cpis);
        let (dpi_mean, dpi_dev) = mean_and_dev(&dpis);
        let (pc_mean, pc_dev) = mean_and_dev(&pcs);

        let cpi_ok = cpi_mean > 0.0 && cpi_dev / cpi_mean <= self.config.cpi_rel_dev;
        // DPI deviation is measured relative to the larger of the mean
        // and a floor, so near-zero miss rates do not look unstable.
        let dpi_ok = dpi_dev / dpi_mean.max(self.config.min_dpi) <= self.config.dpi_rel_dev;
        let pc_ok = pc_dev <= self.config.pc_dev_bytes;

        if !(cpi_ok && dpi_ok && pc_ok) {
            return self.note_unstable();
        }

        self.consecutive_unstable = 0;
        self.window_scale = 1;
        let sig = PhaseSignature { pc_center: pc_mean, cpi: cpi_mean, dpi: dpi_mean };
        if pool_mean > 0.9 || pc_mean >= isa::TRACE_POOL_BASE as f64 {
            return PhaseDecision::InTracePool(sig);
        }
        if dpi_mean < self.config.min_dpi {
            return PhaseDecision::LowMissRate(sig);
        }
        PhaseDecision::Stable(sig)
    }

    /// True when two signatures describe the same phase (used by the
    /// runtime to avoid re-optimizing).
    pub fn same_phase(&self, a: &PhaseSignature, b: &PhaseSignature) -> bool {
        (a.pc_center - b.pc_center).abs() <= SAME_PHASE_PC_TOLERANCE
    }

    fn note_unstable(&mut self) -> PhaseDecision {
        self.consecutive_unstable += 1;
        if self.consecutive_unstable >= UNSTABLE_BEFORE_DOUBLING
            && self.window_scale < MAX_WINDOW_SCALE
        {
            // The window may be too small to hold a large phase.
            self.window_scale *= 2;
            self.consecutive_unstable = 0;
        }
        PhaseDecision::Unstable
    }
}

/// Merges consecutive windows into one effective window.
fn merge(windows: &[&ProfileWindow]) -> ProfileWindow {
    let cycles: u64 = windows.iter().map(|w| w.cycles).sum();
    let retired: u64 = windows.iter().map(|w| w.retired).sum();
    let dear: u64 = windows.iter().map(|w| w.dear_misses).sum();
    let pc = windows.iter().map(|w| w.pc_center).sum::<f64>() / windows.len() as f64;
    let pool =
        windows.iter().map(|w| w.pool_fraction).sum::<f64>() / windows.len() as f64;
    let cpi = if retired > 0 { cycles as f64 / retired as f64 } else { 0.0 };
    let dpi = if retired > 0 { dear as f64 / retired as f64 } else { 0.0 };
    ProfileWindow {
        seq: windows.last().map(|w| w.seq).unwrap_or(0),
        samples: Vec::new(),
        cycles,
        retired,
        dear_misses: dear,
        cpi,
        dpi,
        dear_per_kinsn: dpi * 1000.0,
        pc_center: pc,
        pool_fraction: pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(seq: u64, cpi: f64, dpi: f64, pc: f64) -> ProfileWindow {
        let retired = 100_000u64;
        let cycles = (cpi * retired as f64) as u64;
        let dear = (dpi * retired as f64) as u64;
        ProfileWindow {
            seq,
            samples: Vec::new(),
            cycles,
            retired,
            dear_misses: dear,
            cpi,
            dpi,
            dear_per_kinsn: dpi * 1000.0,
            pc_center: pc,
            pool_fraction: if pc >= isa::TRACE_POOL_BASE as f64 { 1.0 } else { 0.0 },
        }
    }

    fn ueb_of(windows: Vec<ProfileWindow>) -> UserEventBuffer {
        let mut ueb = UserEventBuffer::new(16);
        for w in windows {
            ueb.push(w);
        }
        ueb
    }

    #[test]
    fn steady_windows_form_a_stable_phase() {
        let ueb = ueb_of((0..6).map(|i| window(i, 3.0, 0.004, 0x4000_0100 as f64)).collect());
        let mut d = PhaseDetector::new(PhaseConfig::default());
        match d.evaluate(&ueb) {
            PhaseDecision::Stable(sig) => {
                assert!((sig.cpi - 3.0).abs() < 1e-9);
                assert!((sig.pc_center - 0x4000_0100 as f64).abs() < 1.0);
            }
            other => panic!("expected stable, got {other:?}"),
        }
    }

    #[test]
    fn too_few_windows_is_unstable() {
        let ueb = ueb_of((0..2).map(|i| window(i, 3.0, 0.004, 1e9)).collect());
        let mut d = PhaseDetector::new(PhaseConfig::default());
        assert_eq!(d.evaluate(&ueb), PhaseDecision::Unstable);
    }

    #[test]
    fn wild_cpi_is_unstable() {
        let ueb = ueb_of(
            (0..6)
                .map(|i| window(i, if i % 2 == 0 { 1.0 } else { 6.0 }, 0.004, 0x4000_0100 as f64))
                .collect(),
        );
        let mut d = PhaseDetector::new(PhaseConfig::default());
        assert_eq!(d.evaluate(&ueb), PhaseDecision::Unstable);
    }

    #[test]
    fn moving_pc_center_is_unstable() {
        let ueb = ueb_of(
            (0..6)
                .map(|i| window(i, 3.0, 0.004, 0x4000_0000 as f64 + i as f64 * 1e6))
                .collect(),
        );
        let mut d = PhaseDetector::new(PhaseConfig::default());
        assert_eq!(d.evaluate(&ueb), PhaseDecision::Unstable);
    }

    #[test]
    fn low_miss_rate_is_flagged() {
        let ueb = ueb_of((0..6).map(|i| window(i, 0.5, 0.00001, 0x4000_0100 as f64)).collect());
        let mut d = PhaseDetector::new(PhaseConfig::default());
        assert!(matches!(d.evaluate(&ueb), PhaseDecision::LowMissRate(_)));
    }

    #[test]
    fn trace_pool_phases_are_skipped() {
        let pc = isa::TRACE_POOL_BASE as f64 + 160.0;
        let ueb = ueb_of((0..6).map(|i| window(i, 2.0, 0.004, pc)).collect());
        let mut d = PhaseDetector::new(PhaseConfig::default());
        assert!(matches!(d.evaluate(&ueb), PhaseDecision::InTracePool(_)));
    }

    #[test]
    fn window_doubling_after_sustained_instability() {
        let mut d = PhaseDetector::new(PhaseConfig::default());
        let ueb = ueb_of(
            (0..16)
                .map(|i| window(i, if i % 2 == 0 { 1.0 } else { 9.0 }, 0.004, 0x4000_0000 as f64))
                .collect(),
        );
        for _ in 0..UNSTABLE_BEFORE_DOUBLING {
            let _ = d.evaluate(&ueb);
        }
        assert_eq!(d.window_scale(), 2);
    }

    #[test]
    fn same_phase_comparison() {
        let d = PhaseDetector::new(PhaseConfig::default());
        let a = PhaseSignature { pc_center: 1000.0, cpi: 2.0, dpi: 0.001 };
        let b = PhaseSignature { pc_center: 1100.0, cpi: 3.0, dpi: 0.002 };
        let c = PhaseSignature { pc_center: 100_000.0, cpi: 2.0, dpi: 0.001 };
        assert!(d.same_phase(&a, &b));
        assert!(!d.same_phase(&a, &c));
    }

    #[test]
    fn stability_resets_scale() {
        let mut d = PhaseDetector::new(PhaseConfig::default());
        let bad = ueb_of(
            (0..16)
                .map(|i| window(i, if i % 2 == 0 { 1.0 } else { 9.0 }, 0.004, 0x4000_0000 as f64))
                .collect(),
        );
        for _ in 0..24 {
            let _ = d.evaluate(&bad);
        }
        assert!(d.window_scale() > 1);
        let good = ueb_of((0..16).map(|i| window(i, 3.0, 0.004, 0x4000_0100 as f64)).collect());
        let _ = d.evaluate(&good);
        assert_eq!(d.window_scale(), 1);
    }
}
