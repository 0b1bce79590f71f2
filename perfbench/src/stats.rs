//! Order statistics for timings.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, which need
/// not be sorted; `None` when empty.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[rank_index(sorted.len(), q)])
}

/// Index of the nearest-rank `q`-quantile in a sorted slice of `n` values.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// `a / b`, or 0 when `b` is 0 (a ratio of counts that did not occur).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `values`, which need not be sorted; the mean of the middle
/// two for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Quantiles a timing may be reported at, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest of [`TAILS`] that has at least ten samples beyond it out of
/// `n`, so a reported tail never rests on a handful of outliers.
pub fn reportable_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAILS.into_iter().find(|&q| n - rank_index(n, q) > 10)
}

/// One timing rendered for the report: median, the highest reportable
/// tail, and the sample count.
pub fn describe(name: &str, samples_ns: &[u64]) -> String {
    let n = samples_ns.len();
    let us = |q: f64| quantile(samples_ns, q).map_or(f64::NAN, |v| v as f64 / 1e3);
    match reportable_tail(n) {
        Some(q) if q > 0.5 => {
            format!("{name}: p50 {:.2} us, p{} {:.2} us, n={n}", us(0.5), q * 100.0, us(q))
        }
        _ => format!("{name}: p50 {:.2} us, no tail with 10 samples beyond it, n={n}", us(0.5)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&samples, 0.5), Some(50));
        assert_eq!(quantile(&samples, 0.9), Some(90));
        assert_eq!(quantile(&samples, 0.99), Some(99));
        assert_eq!(quantile(&samples, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th value, with ten beyond it.
        assert_eq!(reportable_tail(1000), Some(0.99));
        assert_eq!(reportable_tail(999), Some(0.9));
        assert_eq!(reportable_tail(10_000), Some(0.999));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(99), Some(0.5));
        assert_eq!(reportable_tail(20), Some(0.5));
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(0), None);
    }
}
