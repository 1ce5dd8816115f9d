//! A small, seeded, in-repo PRNG (SplitMix64).
//!
//! Replaces `rand`'s `StdRng` for workload generation and the
//! repository's deterministic property tests. SplitMix64 passes
//! BigCrush, needs eight lines of code, and — unlike `StdRng`, whose
//! stream is only stable within a `rand` major version — its output is
//! pinned by this file, so the synthetic workload layouts (and every
//! simulated cycle count derived from them) can never drift under a
//! dependency upgrade.

use std::sync::{Mutex, PoisonError};

/// A SplitMix64 generator.
///
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014 (the public-domain `splitmix64.c` stream).
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed is fine, including 0.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` via rejection sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Widening-multiply trick (Lemire): map 64 random bits to
        // [0, n) and reject the biased zone.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (n as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform in `[lo, hi)` over signed integers.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`, clamped to `[0, 1]`: `p <= 0` and
    /// NaN never fire, `p >= 1` always fires. Exactly one draw is
    /// consumed for every call regardless of `p`, so an out-of-range
    /// probability in one config knob can neither misbehave nor shift
    /// the stream seen by later draws.
    pub fn chance(&mut self, p: f64) -> bool {
        // NaN fails both clamp comparisons, so map it explicitly to 0
        // (never fire) rather than letting `f64() < NaN` decide.
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        // f64() is in [0, 1), so p == 1.0 always fires.
        self.f64() < p
    }

    /// A uniformly random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A Zipfian (power-law) rank distribution over `[0, n)`, after the
/// Gray et al. generator popularized by YCSB: rank 0 is the hottest
/// key, and popularity falls off as `1/rank^theta`. The server-shaped
/// workload family uses it to model skewed request keys; the entire
/// stream is a pure function of the seed driving the [`Rng64`], so
/// layouts (and golden cycle counts) cannot drift.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds the distribution over `[0, n)` with skew `theta` in
    /// `(0, 1)` (0.99 ≈ YCSB's default hot-key skew; smaller is
    /// flatter).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "empty key space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = 1.0 + 1.0 / 2f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta }
    }

    /// Draws the next rank; rank 0 is the most popular.
    pub fn next(&self, rng: &mut Rng64) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// `ζ(n, θ) = Σ 1/i^θ` over `i` in `1..=n`, summed once per `(n, θ)`
/// per process: over the server family's key space one sum costs tens
/// of milliseconds, and every prepare of its data would repeat it. The
/// sequential sum keeps the value platform-deterministic.
fn zeta(n: u64, theta: f64) -> f64 {
    static MEMO: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());
    // An entry is pushed whole, so a poisoned memo is still valid.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let key = (n, theta.to_bits());
    if let Some(&(.., z)) = memo.iter().find(|&&(m, t, _)| (m, t) == key) {
        return z;
    }
    let mut z = 0.0f64;
    for i in 1..=n {
        z += 1.0 / (i as f64).powf(theta);
    }
    memo.push((n, key.1, z));
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_splitmix64_stream() {
        // First three outputs of splitmix64.c with seed 1234567.
        let mut r = Rng64::new(1234567);
        assert_eq!(r.next_u64(), 0x599e_d017_fb08_fc85);
        assert_eq!(r.next_u64(), 0x2c73_f084_5854_0fa5);
        assert_eq!(r.next_u64(), 0x883e_bce5_a3f2_7c77);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng64::new(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            let u = r.range_u64(100, 200);
            assert!((100..200).contains(&u));
            let i = r.range_i64(-50, 50);
            assert!((-50..50).contains(&i));
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(99);
        let mut v: Vec<u64> = (0..256).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256).collect::<Vec<u64>>());
        assert_ne!(v, sorted, "a 256-element shuffle virtually never yields identity");
    }

    #[test]
    fn chance_clamps_p_and_defines_nan() {
        let mut r = Rng64::new(11);
        for _ in 0..64 {
            assert!(r.chance(1.0), "p >= 1 must always fire (f64() is in [0, 1))");
            assert!(r.chance(2.5), "p above the clamp range behaves like 1");
            assert!(!r.chance(0.0), "p <= 0 must never fire");
            assert!(!r.chance(-3.0), "p below the clamp range behaves like 0");
            assert!(!r.chance(f64::NAN), "NaN is defined as never-fire");
        }
    }

    #[test]
    fn chance_consumes_exactly_one_draw_regardless_of_p() {
        // Out-of-range probabilities must not desynchronize the
        // stream: a generator that took a shortcut for p <= 0 or
        // p >= 1 would shift every draw after the call.
        let mut a = Rng64::new(77);
        let mut b = Rng64::new(77);
        for p in [0.5, -1.0, 0.0, 1.0, 9.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let _ = a.chance(p);
            let _ = b.f64();
            assert_eq!(a.next_u64(), b.next_u64(), "chance({p}) must consume one draw");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(10_000, 0.9);
        let mut rng = Rng64::new(31337);
        let mut hot = 0usize;
        for _ in 0..20_000 {
            let r = z.next(&mut rng);
            assert!(r < 10_000);
            if r < 10 {
                hot += 1;
            }
        }
        // Under 0.9 skew the top-10 ranks draw a large share; a uniform
        // distribution would put ~20 draws there.
        assert!(hot > 2_000, "top-10 ranks got only {hot}/20000 draws");
    }

    #[test]
    fn zipfian_stream_is_a_pure_function_of_the_seed() {
        let z = Zipfian::new(1 << 16, 0.8);
        let mut a = Rng64::new(77);
        let mut b = Rng64::new(77);
        let sa: Vec<u64> = (0..512).map(|_| z.next(&mut a)).collect();
        let sb: Vec<u64> = (0..512).map(|_| z.next(&mut b)).collect();
        assert_eq!(sa, sb);
        let mut c = Rng64::new(78);
        let sc: Vec<u64> = (0..512).map(|_| z.next(&mut c)).collect();
        assert_ne!(sa, sc, "different seeds must give different streams");
    }

    #[test]
    fn memoized_zeta_is_the_sequential_sum() {
        let sum = (1..=5_000u64).fold(0.0f64, |z, i| z + 1.0 / (i as f64).powf(0.7));
        assert_eq!(zeta(5_000, 0.7).to_bits(), sum.to_bits());
        assert_eq!(zeta(5_000, 0.7).to_bits(), sum.to_bits(), "the memo hit");
        assert_ne!(zeta(5_000, 0.6), sum, "θ is part of the key");
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Rng64::new(5);
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
