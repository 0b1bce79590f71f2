//! The optimizer catalog's model recipe: one pair of MLQ models per UDF
//! (CPU + disk IO, per paper §1). The registry that holds those pairs
//! at run time is `mlq-serve`'s `ConcurrentEstimator`.

use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, MlqError, Space};

/// The catalog's model recipe for one UDF over `space`: a CPU model with
/// `β = 1` and an IO model with `β = 10` — the paper's tuned settings for
/// deterministic vs. buffer-cache-noised costs — both with lazy insertion
/// and `budget_per_model` bytes (raised to the MLQ dimensional floor).
/// The serving layer and a replica group's merge base both build their
/// models from this one recipe.
///
/// # Errors
///
/// Propagates model construction failures.
pub fn catalog_models(
    space: &Space,
    budget_per_model: usize,
) -> Result<(MemoryLimitedQuadtree, MemoryLimitedQuadtree), MlqError> {
    let build = |beta: u64| -> Result<MemoryLimitedQuadtree, MlqError> {
        let floor = MlqConfig::min_budget(space, 6);
        let config = MlqConfig::builder(space.clone())
            .memory_budget(budget_per_model.max(floor))
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .beta(beta)
            .build()?;
        MemoryLimitedQuadtree::new(config)
    };
    Ok((build(1)?, build(10)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_kind_betas_follow_the_paper() {
        // The IO model (beta = 10) needs ten points before it descends
        // below the root; the CPU model (beta = 1) localizes immediately.
        let (mut cpu, mut io) =
            catalog_models(&Space::cube(2, 0.0, 1000.0).unwrap(), 1 << 15).unwrap();
        for (point, cost) in [([1.0, 1.0], 10.0), ([999.0, 999.0], 90.0)] {
            cpu.insert(&point, cost).unwrap();
            io.insert(&point, cost).unwrap();
        }
        // CPU localizes: different corners give different answers.
        let cpu_a = cpu.predict(&[1.0, 1.0]).unwrap().unwrap();
        let cpu_b = cpu.predict(&[999.0, 999.0]).unwrap().unwrap();
        assert_ne!(cpu_a, cpu_b);
        // IO with beta = 10 still answers from the root average (50).
        let io_a = io.predict(&[1.0, 1.0]).unwrap().unwrap();
        let io_b = io.predict(&[999.0, 999.0]).unwrap().unwrap();
        assert_eq!(io_a, io_b);
        assert!((io_a - 50.0).abs() < 1e-9);
    }
}
