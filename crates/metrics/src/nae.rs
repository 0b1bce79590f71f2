//! Normalized absolute error (paper Eq. 10).

use serde::{Deserialize, Serialize};

/// Computes `NAE = Σ|predicted − actual| / Σ actual` over a batch of
/// `(predicted, actual)` pairs.
///
/// The paper (§5.1) rejects the relative error because it is not robust
/// when execution costs are low, and the unnormalized absolute error
/// because it varies too much across UDFs and datasets to compare.
///
/// Returns `None` when the pairs are empty or the actual costs sum to zero
/// (the measure is undefined there).
#[must_use]
pub fn nae(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut acc = OnlineNae::new();
    for &(p, a) in pairs {
        acc.record(p, a);
    }
    acc.value()
}

/// Incremental NAE accumulator, used where predictions stream in one at a
/// time (the self-tuning feedback loop).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineNae {
    abs_error_sum: f64,
    actual_sum: f64,
    n: u64,
}

impl OnlineNae {
    /// Fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineNae::default()
    }

    /// Records one `(predicted, actual)` observation.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        self.abs_error_sum += (predicted - actual).abs();
        self.actual_sum += actual;
        self.n += 1;
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current NAE; `None` while empty or when `Σ actual == 0`.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.n > 0 && self.actual_sum != 0.0).then(|| self.abs_error_sum / self.actual_sum)
    }

    /// Merges another accumulator (e.g. per-shard results).
    pub fn merge(&mut self, other: &OnlineNae) {
        self.abs_error_sum += other.abs_error_sum;
        self.actual_sum += other.actual_sum;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_predictions_have_zero_nae() {
        let pairs = vec![(10.0, 10.0), (5.0, 5.0)];
        assert_eq!(nae(&pairs), Some(0.0));
    }

    #[test]
    fn nae_matches_hand_computation() {
        // |8-10| + |6-5| = 3; actual sum = 15 -> 0.2
        let pairs = vec![(8.0, 10.0), (6.0, 5.0)];
        assert!((nae(&pairs).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn undefined_cases_return_none() {
        assert_eq!(nae(&[]), None);
        assert_eq!(nae(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn online_matches_batch() {
        let pairs = vec![(8.0, 10.0), (6.0, 5.0), (0.0, 2.0)];
        let mut acc = OnlineNae::new();
        for &(p, a) in &pairs {
            acc.record(p, a);
        }
        assert_eq!(acc.value(), nae(&pairs));
        assert_eq!(acc.count(), 3);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [(8.0, 10.0), (6.0, 5.0)];
        let b = [(1.0, 4.0)];
        let mut left = OnlineNae::new();
        for &(p, q) in &a {
            left.record(p, q);
        }
        let mut right = OnlineNae::new();
        for &(p, q) in &b {
            right.record(p, q);
        }
        left.merge(&right);
        let all: Vec<_> = a.iter().chain(&b).copied().collect();
        assert_eq!(left.value(), nae(&all));
    }

    proptest! {
        #[test]
        fn nae_is_nonnegative_and_scale_invariant(
            pairs in prop::collection::vec((0.0..1e4f64, 0.1..1e4f64), 1..50),
            scale in 0.1..100.0f64,
        ) {
            let v = nae(&pairs).unwrap();
            prop_assert!(v >= 0.0);
            // Scaling both predictions and actuals leaves NAE unchanged.
            let scaled: Vec<_> = pairs.iter().map(|&(p, a)| (p * scale, a * scale)).collect();
            let vs = nae(&scaled).unwrap();
            prop_assert!((v - vs).abs() < 1e-9 * (1.0 + v));
        }

        #[test]
        fn predicting_zero_gives_nae_one(
            actuals in prop::collection::vec(0.1..1e4f64, 1..50),
        ) {
            let pairs: Vec<_> = actuals.iter().map(|&a| (0.0, a)).collect();
            let v = nae(&pairs).unwrap();
            prop_assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
