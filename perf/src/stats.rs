//! Order statistics shared by the runs and the compare tool.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same JSON lines in Python.

/// A sorted copy of `values`; `+inf` (a failed operation) sorts last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by Python's exclusive method. A single value is
/// its own quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            let mid = if len % 2 == 1 {
                v[len / 2]
            } else {
                (v[len / 2 - 1] + v[len / 2]) / 2.0
            };
            (cut(1), mid, cut(3))
        }
    }
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile: the smallest value with at least `pct` % of
/// the samples at or below it. Failed operations enter as `+inf`, so a
/// percentile that reaches them is `+inf`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile with at least ten samples beyond it, for `n`
/// samples (1024 → p99, 50 → p80); `None` below 20 samples.
pub fn tail_pct(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(iqr(&v), 5.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_pct(1024), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
        assert_eq!(tail_pct(50), Some(80.0));
        assert_eq!(tail_pct(100), Some(90.0));
        assert_eq!(tail_pct(40), Some(75.0));
        assert_eq!(tail_pct(20), Some(50.0));
        assert_eq!(tail_pct(19), None);
    }

    #[test]
    fn failed_operations_count_as_infinitely_late() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(
            percentile(&v, 91.0),
            f64::INFINITY,
            "the failed request is the slowest"
        );
        assert_eq!(median(&[1.0, f64::INFINITY, f64::INFINITY]), f64::INFINITY);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
