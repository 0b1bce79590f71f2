//! The optimizer's cost-model catalog: one pair of MLQ models per
//! registered UDF (CPU + disk IO, per paper §1), with persistence.
//!
//! This is the integration surface an ORDBMS would actually ship: UDFs
//! are registered by name when created (`CREATE FUNCTION ...`), their
//! estimators live in catalog metadata, survive restarts through
//! snapshots, and every execution feeds back through one call.

use mlq_core::{
    InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, MlqError, Space, TreeSnapshot,
};
use mlq_udfs::{CostKind, ExecutionCost};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The catalog's model recipe for one UDF over `space`: a CPU model with
/// `β = 1` and an IO model with `β = 10` — the paper's tuned settings for
/// deterministic vs. buffer-cache-noised costs — both with lazy insertion
/// and `budget_per_model` bytes (raised to the MLQ dimensional floor).
/// The catalog, the serving layer and a replica group's merge base all
/// build their models from this one recipe.
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

/// One UDF's pair of models.
struct Entry {
    cpu: MemoryLimitedQuadtree,
    io: MemoryLimitedQuadtree,
}

/// A serializable image of a whole catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogSnapshot {
    entries: BTreeMap<String, (TreeSnapshot, TreeSnapshot)>,
}

/// Per-UDF cost estimators, keyed by UDF name.
pub struct UdfCatalog {
    entries: BTreeMap<String, Entry>,
    budget_per_model: usize,
}

impl UdfCatalog {
    /// Creates an empty catalog; every registered model receives
    /// `budget_per_model` bytes (subject to the MLQ dimensional floor).
    #[must_use]
    pub fn new(budget_per_model: usize) -> Self {
        UdfCatalog { entries: BTreeMap::new(), budget_per_model }
    }

    /// Registers a UDF's model space under `name`, built with
    /// [`catalog_models`].
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for duplicate names. Propagates model
    /// construction failures.
    pub fn register(&mut self, name: &str, space: &Space) -> Result<(), MlqError> {
        if self.entries.contains_key(name) {
            return Err(MlqError::InvalidConfig {
                reason: format!("UDF {name} is already registered"),
            });
        }
        let (cpu, io) = catalog_models(space, self.budget_per_model)?;
        self.entries.insert(name.to_string(), Entry { cpu, io });
        Ok(())
    }

    /// Registered UDF names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The per-model byte budget this catalog registers models with.
    #[must_use]
    pub fn budget_per_model(&self) -> usize {
        self.budget_per_model
    }

    /// Consumes the catalog, handing out every UDF's `(name, cpu, io)`
    /// model pair in name order. This is how a serving layer takes
    /// ownership of the catalog's learned models to shard them across a
    /// concurrent estimator: the catalog remains the registration
    /// authority, the serving layer the runtime owner.
    #[must_use]
    pub fn into_models(self) -> Vec<(String, MemoryLimitedQuadtree, MemoryLimitedQuadtree)> {
        self.entries.into_iter().map(|(name, e)| (name, e.cpu, e.io)).collect()
    }

    /// Predicts one cost component for `name` at `point`.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; propagates
    /// malformed-point errors.
    pub fn predict(
        &self,
        name: &str,
        point: &[f64],
        kind: CostKind,
    ) -> Result<Option<f64>, MlqError> {
        let entry = self.entries.get(name).ok_or_else(|| unknown(name))?;
        match kind {
            CostKind::Cpu => entry.cpu.predict(point),
            CostKind::DiskIo => entry.io.predict(point),
        }
    }

    /// Feeds one observed execution back into both models.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; propagates
    /// malformed-input errors.
    pub fn observe(
        &mut self,
        name: &str,
        point: &[f64],
        cost: ExecutionCost,
    ) -> Result<(), MlqError> {
        let entry = self.entries.get_mut(name).ok_or_else(|| unknown(name))?;
        entry.cpu.insert(point, cost.cpu)?;
        entry.io.insert(point, cost.io)?;
        Ok(())
    }

    /// Total accounted bytes across every model in the catalog.
    #[must_use]
    pub fn total_memory(&self) -> usize {
        self.entries.values().map(|e| e.cpu.bytes_used() + e.io.bytes_used()).sum()
    }

    /// Mirrors every model's cumulative operation counters into
    /// `registry` as `mlq_core_*{udf="...",component="cpu"|"io"}` series.
    /// Exports use [`record_total`](mlq_obs::Counter::record_total), so
    /// re-exporting at any cadence is idempotent.
    pub fn export_metrics(&self, registry: &mlq_obs::Registry) {
        for (name, entry) in &self.entries {
            for (component, model) in [("cpu", &entry.cpu), ("io", &entry.io)] {
                let labels = [("udf", name.as_str()), ("component", component)];
                let c = model.counters();
                let export = |metric: &str, total: u64| {
                    registry.counter(&mlq_obs::labeled(metric, &labels)).record_total(total);
                };
                export("mlq_core_predictions", c.predictions);
                export("mlq_core_predict_nanos", c.predict_nanos);
                export("mlq_core_predict_nodes_visited", c.predict_nodes_visited);
                export("mlq_core_insertions", c.insertions);
                export("mlq_core_insert_nanos", c.insert_nanos);
                export("mlq_core_compressions", c.compressions);
                export("mlq_core_compress_nanos", c.compress_nanos);
                export("mlq_core_sseg_evictions", c.sseg_evictions);
                export("mlq_core_lazy_skips", c.lazy_skips);
                export("mlq_core_freezes", c.freezes);
                export("mlq_core_freeze_nanos", c.freeze_nanos);
            }
        }
    }

    /// Captures the whole catalog for persistence.
    #[must_use]
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(name, e)| (name.clone(), (e.cpu.snapshot(), e.io.snapshot())))
                .collect(),
        }
    }

    /// Restores a catalog from a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates snapshot validation failures.
    pub fn from_snapshot(
        snapshot: &CatalogSnapshot,
        budget_per_model: usize,
    ) -> Result<Self, MlqError> {
        let mut entries = BTreeMap::new();
        for (name, (cpu, io)) in &snapshot.entries {
            entries.insert(
                name.clone(),
                Entry {
                    cpu: MemoryLimitedQuadtree::from_snapshot(cpu)?,
                    io: MemoryLimitedQuadtree::from_snapshot(io)?,
                },
            );
        }
        Ok(UdfCatalog { entries, budget_per_model })
    }
}

fn unknown(name: &str) -> MlqError {
    MlqError::InvalidConfig { reason: format!("no UDF named {name} is registered") }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(d: usize) -> Space {
        Space::cube(d, 0.0, 1000.0).unwrap()
    }

    #[test]
    fn register_predict_observe_roundtrip() {
        let mut cat = UdfCatalog::new(4096);
        cat.register("WIN", &space(4)).unwrap();
        cat.register("SIMPLE", &space(1)).unwrap();
        assert_eq!(cat.names(), vec!["SIMPLE", "WIN"]);

        assert_eq!(cat.predict("WIN", &[1.0; 4], CostKind::Cpu).unwrap(), None);
        cat.observe("WIN", &[1.0; 4], ExecutionCost { cpu: 50.0, io: 3.0, results: 7 }).unwrap();
        assert_eq!(cat.predict("WIN", &[1.0; 4], CostKind::Cpu).unwrap(), Some(50.0));
        assert_eq!(cat.predict("WIN", &[1.0; 4], CostKind::DiskIo).unwrap(), Some(3.0));
        assert!(cat.total_memory() > 0);
    }

    #[test]
    fn duplicate_and_unknown_names_error() {
        let mut cat = UdfCatalog::new(4096);
        cat.register("F", &space(2)).unwrap();
        assert!(cat.register("F", &space(2)).is_err());
        assert!(cat.predict("G", &[1.0, 1.0], CostKind::Cpu).is_err());
        assert!(cat.observe("G", &[1.0, 1.0], ExecutionCost::default()).is_err());
    }

    #[test]
    fn catalog_snapshot_roundtrips_through_json() {
        let mut cat = UdfCatalog::new(4096);
        cat.register("F", &space(2)).unwrap();
        for i in 0..50u32 {
            let p = [f64::from(i * 19 % 1000), f64::from(i * 7 % 1000)];
            cat.observe("F", &p, ExecutionCost { cpu: f64::from(i), io: 1.0, results: 0 }).unwrap();
        }
        let json = serde_json::to_string(&cat.snapshot()).unwrap();
        let back: CatalogSnapshot = serde_json::from_str(&json).unwrap();
        let restored = UdfCatalog::from_snapshot(&back, 4096).unwrap();
        assert_eq!(restored.names(), vec!["F"]);
        for i in 0..10u32 {
            let p = [f64::from(i * 19 % 1000), f64::from(i * 7 % 1000)];
            assert_eq!(
                restored.predict("F", &p, CostKind::Cpu).unwrap(),
                cat.predict("F", &p, CostKind::Cpu).unwrap(),
                "point {p:?}"
            );
        }
    }

    #[test]
    fn per_kind_betas_follow_the_paper() {
        // The IO model (beta = 10) needs ten points before it descends
        // below the root; the CPU model (beta = 1) localizes immediately.
        let mut cat = UdfCatalog::new(1 << 15);
        cat.register("F", &space(2)).unwrap();
        cat.observe("F", &[1.0, 1.0], ExecutionCost { cpu: 10.0, io: 10.0, results: 0 }).unwrap();
        cat.observe("F", &[999.0, 999.0], ExecutionCost { cpu: 90.0, io: 90.0, results: 0 })
            .unwrap();
        // CPU localizes: different corners give different answers.
        let cpu_a = cat.predict("F", &[1.0, 1.0], CostKind::Cpu).unwrap().unwrap();
        let cpu_b = cat.predict("F", &[999.0, 999.0], CostKind::Cpu).unwrap().unwrap();
        assert_ne!(cpu_a, cpu_b);
        // IO with beta = 10 still answers from the root average (50).
        let io_a = cat.predict("F", &[1.0, 1.0], CostKind::DiskIo).unwrap().unwrap();
        let io_b = cat.predict("F", &[999.0, 999.0], CostKind::DiskIo).unwrap().unwrap();
        assert_eq!(io_a, io_b);
        assert!((io_a - 50.0).abs() < 1e-9);
    }
}
