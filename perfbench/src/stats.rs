//! Order statistics used by every workload.

/// Percentiles a tail falls back through, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Minimum number of samples that must lie beyond a reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_percentile(&v, p)
}

fn sorted_percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = (v.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if hi == lo || !v[hi].is_finite() {
        v[hi.max(lo)]
    } else {
        v[lo] + (v[hi] - v[lo]) * frac
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Number of samples strictly above the `p`-th percentile position:
/// the ranks after `ceil((n - 1) * p / 100)`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = ((n - 1) as f64 * p / 100.0).ceil() as usize;
    n - 1 - pos.min(n - 1)
}

/// The tail of a latency distribution at percentile `want`, or, when
/// fewer than [`TAIL_MIN_BEYOND`] samples lie beyond it, the highest
/// lower rung of [`TAIL_LADDER`] that has them (the median as the last
/// resort). Returns `(percentile, value)`.
///
/// Each workload fixes `want` per metric: the highest rung with at
/// least ten samples beyond it at the sample counts its runs produce,
/// with a margin. Choosing the rung from each run's own count instead
/// lets runs a few samples apart report different percentiles.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let n = samples.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    (p, percentile(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 has 9 beyond, p95 has 49.
        assert_eq!(beyond(1000, 99.0), 9);
        assert_eq!(beyond(1000, 95.0), 49);
        let (p, x) = tail(&v, 99.0);
        assert_eq!(p, 95.0);
        assert!((x - 950.05).abs() < 1e-9);
        // A lower wanted rung is kept even where a higher one qualifies.
        assert_eq!(tail(&v, 90.0).0, 90.0);

        let v: Vec<f64> = (1..=1101).map(f64::from).collect();
        assert_eq!(beyond(1101, 99.0), 11);
        assert_eq!(tail(&v, 99.0).0, 99.0);

        // 21 samples: p50 leaves exactly 10 beyond; p75 only 5.
        let v: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0).0, 50.0);
        // Too few for any rung: fall back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0], 99.0), (50.0, 2.0));
    }

    #[test]
    fn failed_requests_push_the_tail_to_infinity() {
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        v.extend(std::iter::repeat(f64::INFINITY).take(20));
        let (p, x) = tail(&v, 99.0);
        assert_eq!(p, 90.0);
        assert!(x.is_infinite());
    }
}
