//! Output checks. Each returns `Err` with a reason when the program's
//! output is wrong; [`Checks`] collects the failures of a run.

/// Named deterministic values of one pass: counts, and `f64` results as
/// their bit patterns.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// A served prediction must be finite and non-negative (`None` means the
/// model is not yet informed, which is allowed).
pub fn prediction(value: Option<f64>) -> Result<(), String> {
    match value {
        Some(v) if !v.is_finite() || v < 0.0 => {
            Err(format!("prediction {v} is not finite and >= 0"))
        }
        _ => Ok(()),
    }
}

/// Every prediction of a batch must pass [`prediction`].
pub fn predictions(values: &[Option<f64>]) -> Result<(), String> {
    values.iter().try_for_each(|v| prediction(*v))
}

/// A batched prediction must equal the per-point prediction bit for bit.
pub fn bit_equal(batched: Option<f64>, single: Option<f64>) -> Result<(), String> {
    if batched.map(f64::to_bits) == single.map(f64::to_bits) {
        Ok(())
    } else {
        Err(format!("predict_batch_into gave {batched:?} where predict gave {single:?}"))
    }
}

/// Live model bytes must stay within the fleet's global budget, and the
/// arbiter must never have reported an overrun.
pub fn within_budget(live_bytes: usize, budget: usize, overruns: u64) -> Result<(), String> {
    if live_bytes > budget {
        return Err(format!("live model bytes {live_bytes} exceed the global budget {budget}"));
    }
    if overruns != 0 {
        return Err(format!("mlq_catalog_budget_overruns is {overruns}"));
    }
    Ok(())
}

/// A service recovered from a crash image must predict exactly what the
/// live service predicted at that image.
pub fn recovered_matches(live: &[Option<f64>], recovered: &[Option<f64>]) -> Result<(), String> {
    if live.len() != recovered.len() {
        return Err(format!("{} live predictions but {} recovered", live.len(), recovered.len()));
    }
    for (i, (l, r)) in live.iter().zip(recovered).enumerate() {
        if l.map(f64::to_bits) != r.map(f64::to_bits) {
            return Err(format!("sample point {i}: live predicted {l:?}, recovered {r:?}"));
        }
    }
    Ok(())
}

/// Two passes with the same seed must agree on every deterministic value.
pub fn same_seed_repeats(first: &Fingerprint, again: &Fingerprint) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let diff: Vec<String> = first
        .iter()
        .zip(again)
        .filter(|(a, b)| a != b)
        .map(|((name, a), (_, b))| format!("{name}: {a} vs {b}"))
        .collect();
    Err(format!("same seed, different results: {}", diff.join(", ")))
}

/// A different seed must change the deterministic values: otherwise the
/// seed does not reach the inputs.
pub fn seed_matters(seed_a: &Fingerprint, seed_b: &Fingerprint) -> Result<(), String> {
    if seed_a == seed_b {
        Err("another seed reproduced the same results; the seed does not reach the inputs".into())
    } else {
        Ok(())
    }
}

/// The failures of one run. A run is correct when none were recorded.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
    first: Vec<String>,
}

impl Checks {
    /// Records the outcome of one check.
    pub fn note(&mut self, outcome: Result<(), String>) {
        if let Err(reason) = outcome {
            self.failures += 1;
            if self.first.len() < 8 {
                self.first.push(reason);
            }
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// Failed checks, with the first few reasons.
    pub fn summary(&self) -> String {
        format!("{} failed check(s): {}", self.failures, self.first.join("; "))
    }

    /// Takes in the failures of another collector.
    pub fn absorb(&mut self, other: Checks) {
        self.failures += other.failures;
        for reason in other.first {
            if self.first.len() < 8 {
                self.first.push(reason);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_negative_and_non_finite_predictions() {
        assert!(prediction(Some(3.5)).is_ok());
        assert!(prediction(Some(0.0)).is_ok());
        assert!(prediction(None).is_ok());
        assert!(prediction(Some(-1e-9)).is_err());
        assert!(prediction(Some(f64::NAN)).is_err());
        assert!(prediction(Some(f64::INFINITY)).is_err());
        assert!(predictions(&[Some(1.0), None]).is_ok());
        assert!(predictions(&[Some(1.0), Some(-2.0), None]).is_err());
    }

    #[test]
    fn rejects_a_batch_result_that_differs_in_any_bit() {
        assert!(bit_equal(Some(1.0), Some(1.0)).is_ok());
        assert!(bit_equal(None, None).is_ok());
        assert!(bit_equal(Some(1.0), Some(1.0 + f64::EPSILON)).is_err());
        assert!(bit_equal(Some(0.0), Some(-0.0)).is_err());
        assert!(bit_equal(Some(1.0), None).is_err());
    }

    #[test]
    fn rejects_live_bytes_over_budget_or_a_recorded_overrun() {
        assert!(within_budget(1000, 1000, 0).is_ok());
        assert!(within_budget(1001, 1000, 0).is_err());
        assert!(within_budget(10, 1000, 1).is_err());
    }

    #[test]
    fn rejects_a_recovered_service_that_predicts_differently() {
        let live = [Some(2.0), None, Some(7.25)];
        assert!(recovered_matches(&live, &live).is_ok());
        assert!(recovered_matches(&live, &[Some(2.0), None, Some(7.250_000_1)]).is_err());
        assert!(recovered_matches(&live, &[Some(2.0), Some(0.0), Some(7.25)]).is_err());
        assert!(recovered_matches(&live, &live[..2]).is_err());
    }

    #[test]
    fn rejects_same_seed_drift_and_seed_blindness() {
        let a: Fingerprint = vec![("nae", 1.5f64.to_bits()), ("compressions", 40)];
        let mut b = a.clone();
        assert!(same_seed_repeats(&a, &b).is_ok());
        assert!(seed_matters(&a, &b).is_err());
        b[1].1 = 41;
        let err = same_seed_repeats(&a, &b).unwrap_err();
        assert!(err.contains("compressions: 40 vs 41"), "{err}");
        assert!(seed_matters(&a, &b).is_ok());
    }

    #[test]
    fn collects_failures() {
        let mut checks = Checks::default();
        checks.note(Ok(()));
        assert!(checks.passed());
        checks.note(prediction(Some(-1.0)));
        assert!(!checks.passed());
        assert!(checks.summary().starts_with("1 failed"));
    }
}
