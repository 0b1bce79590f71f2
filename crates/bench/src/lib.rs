//! # mlq-bench — the `mlq-bench` harnesses and the Criterion benchmarks
//!
//! The crate ships the `mlq-bench` binary:
//!
//! * `mlq-bench --throughput` runs the [`throughput`] harness and writes
//!   `BENCH_serve.json` (`BENCH_serve_replicated.json` with
//!   `--replicas N`);
//! * `mlq-bench --predict` runs the [`predict`] single-vs-batched
//!   read-path microbench and writes `BENCH_predict.json`;
//! * `mlq-bench --fleet` runs the [`fleet`] budget-arbitration bench and
//!   writes `BENCH_fleet.json`;
//! * `mlq-bench --gate MEASURED BASELINE` compares any such report
//!   against its checked-in `*.baseline.json` (the CI regression gate).
//!
//! Every harness writes the one [`report::Report`] shape, and every
//! baseline carries its own bars, so one [`report::gate`] serves all.
//!
//! The Criterion benchmarks live in `benches/`:
//!
//! * `core_ops` — MLQ predict / insert / compress microbenches (the APC
//!   and AUC quantities of paper Eqs. 1–2);
//! * `descent` — scalar vs. multi-lane packed descent and CoW
//!   republication;
//! * `baseline_ops` — SH-W / SH-H fit and predict;
//! * `udf_exec` — raw execution cost of the six real UDFs;
//! * `figures` — one bench per paper figure (8, 9, 10, 11, 12), running
//!   the same harness code as the `mlq-exp` binary at reduced scale;
//! * `ablations` — the parameter-sweep harness;
//! * `optimizer` — predicate-ordering policies end to end;
//! * `lifecycle` and `bakeoff` — model lifecycle and the estimator
//!   bake-off contenders.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fleet;
pub mod predict;
pub mod report;
pub mod throughput;

use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use mlq_synth::{CostSurface, QueryDistribution, SyntheticUdf};
use mlq_udfs::ExecutionCost;

/// One xorshift64 step: the harnesses' seeded query and feedback stream.
pub(crate) fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A smooth synthetic cost over a harness point, so the guard sees an
/// honest distribution: CPU rises along the first two axes, IO along the
/// last.
pub(crate) fn cost_at(p: &[f64]) -> ExecutionCost {
    let cpu = 50.0 + p[0] * 0.1 + p.get(1).copied().unwrap_or(0.0) * 0.05;
    let io = 2.0 + p.last().copied().unwrap_or(0.0) * 0.01;
    ExecutionCost { cpu, io, results: 0 }
}

/// A standard 4-D workload: surface, query points, and actual costs.
#[must_use]
pub fn standard_workload(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = Space::cube(4, 0.0, 1000.0).expect("valid dims");
    let udf = SyntheticUdf::builder(space.clone()).peaks(50).seed(seed).build();
    let points = QueryDistribution::Uniform.generate(&space, n, seed ^ 0xBE);
    let actuals = points.iter().map(|p| udf.cost(p)).collect();
    (points, actuals)
}

/// An MLQ model at the paper's parameters over the 4-D space.
///
/// # Panics
///
/// Panics only on invalid internal configuration (never for callers).
#[must_use]
pub fn standard_model(budget: usize, strategy: InsertionStrategy) -> MemoryLimitedQuadtree {
    let space = Space::cube(4, 0.0, 1000.0).expect("valid dims");
    let floor = MlqConfig::min_budget(&space, 6);
    let config = MlqConfig::builder(space)
        .memory_budget(budget.max(floor))
        .strategy(strategy)
        .build()
        .expect("valid config");
    MemoryLimitedQuadtree::new(config).expect("valid model")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let (points, actuals) = standard_workload(100, 1);
        assert_eq!(points.len(), 100);
        assert_eq!(actuals.len(), 100);
        let mut model = standard_model(4096, InsertionStrategy::Eager);
        model.insert(&points[0], actuals[0]).unwrap();
        assert!(model.predict(&points[0]).unwrap().is_some());
    }
}
