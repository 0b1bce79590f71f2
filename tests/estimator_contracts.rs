//! Contracts every bake-off contender must honour through the shared
//! [`Estimator`] seam — MLQ, the static histograms, and both learned
//! baselines, all built exactly the way the bake-off harness builds
//! them.
//!
//! Three contracts:
//!
//! 1. `predict_batch` is bit-for-bit the per-point `predict` loop — an
//!    implementation that diverges under batching would make the bake-off
//!    throughput probe measure a different function than the accuracy
//!    loop scores;
//! 2. every defined prediction is finite and non-negative — an optimizer
//!    ranking plans on NaN or negative costs is undefined behaviour at
//!    the planning level;
//! 3. observe-then-predict is deterministic under a fixed seed — two
//!    independently built estimators fed the identical stream agree on
//!    every subsequent prediction bit (this is what makes the committed
//!    bake-off baseline reproducible).

use mlq_core::Space;
use mlq_experiments::bakeoff::{build_contender, BakeoffConfig, Scenario, CONTENDERS, SCENARIOS};
use mlq_optimizer::Estimator;
use mlq_serve::{ConcurrentEstimator, FleetConfig, MaintainerMode, ServeConfig};
use mlq_synth::QueryDistribution;
use mlq_udfs::ExecutionCost;

fn space() -> Space {
    Space::cube(4, 0.0, 1000.0).unwrap()
}

fn config() -> BakeoffConfig {
    BakeoffConfig { events: 400, ..BakeoffConfig::quick() }
}

/// Builds every contender, trained the bake-off way on `scenario`, and
/// hands each to `check`.
fn for_all_estimators(scenario: Scenario, check: impl Fn(&str, Box<dyn Estimator>)) {
    let space = space();
    let config = config();
    let data = scenario.materialize(&space, &config);
    for contender in CONTENDERS {
        let mut est = build_contender(contender, &space, &config, &data.training).unwrap();
        for e in &data.events {
            est.observe(&e.point, ExecutionCost { cpu: e.observed, io: 0.0, results: 0 }).unwrap();
        }
        check(contender.label(), est);
    }
}

fn probes(n: usize, seed: u64) -> Vec<Vec<f64>> {
    QueryDistribution::Uniform.generate(&space(), n, seed)
}

#[test]
fn predict_batch_is_bitwise_identical_to_per_point_predict() {
    for scenario in SCENARIOS {
        for_all_estimators(scenario, |label, est| {
            let probes = probes(200, 0xBA7C4);
            let batched = est.predict_batch(&probes).unwrap();
            for (i, p) in probes.iter().enumerate() {
                let single = est.predict(p).unwrap();
                assert_eq!(
                    single.map(f64::to_bits),
                    batched[i].map(f64::to_bits),
                    "{label} on {}: probe {i} diverges under batching",
                    scenario.label(),
                );
            }
        });
    }
}

#[test]
fn predictions_are_finite_and_non_negative() {
    // The adversarial flood feeds 50x-magnitude outliers; even then no
    // estimator may emit a NaN, infinite, or negative cost.
    for scenario in SCENARIOS {
        for_all_estimators(scenario, |label, est| {
            for (i, p) in probes(300, 0xF1217E).iter().enumerate() {
                if let Some(v) = est.predict(p).unwrap() {
                    assert!(
                        v.is_finite() && v >= 0.0,
                        "{label} on {}: probe {i} predicted {v}",
                        scenario.label(),
                    );
                }
            }
        });
    }
}

#[test]
fn observe_then_predict_is_deterministic_under_a_fixed_seed() {
    let space = space();
    let config = config();
    for scenario in SCENARIOS {
        let data = scenario.materialize(&space, &config);
        for contender in CONTENDERS {
            let run = || {
                let mut est = build_contender(contender, &space, &config, &data.training).unwrap();
                let mut trace: Vec<Option<u64>> = Vec::new();
                for e in &data.events {
                    trace.push(est.predict(&e.point).unwrap().map(f64::to_bits));
                    est.observe(&e.point, ExecutionCost { cpu: e.observed, io: 0.0, results: 0 })
                        .unwrap();
                }
                trace.extend(
                    est.predict_batch(&probes(100, 0xDE7))
                        .unwrap()
                        .into_iter()
                        .map(|p| p.map(f64::to_bits)),
                );
                trace
            };
            assert_eq!(
                run(),
                run(),
                "{} on {}: two identical runs disagree",
                contender.label(),
                scenario.label(),
            );
        }
    }
}

#[test]
fn memory_used_reports_nonzero_learned_state() {
    for_all_estimators(Scenario::UniformStatic, |label, est| {
        assert!(est.memory_used() > 0, "{label}: zero bytes after 400 feedbacks");
    });
}

/// Contract 4, for the fleet-arbitrated serving layer: a hibernate →
/// wake round trip is invisible through prediction. Per scenario, a
/// service trained the bake-off way and hibernated whole must, once
/// woken by prediction, agree bit for bit with a twin served without a
/// fleet budget — and the woken predictions stay finite, non-negative,
/// and deterministic under a fixed seed.
#[test]
fn hibernate_roundtrip() {
    let space = space();
    let config = config();
    for scenario in SCENARIOS {
        let data = scenario.materialize(&space, &config);
        let trained = |fleet: Option<FleetConfig>| {
            let serve = ServeConfig {
                maintainer: MaintainerMode::Manual,
                budget_per_model: 1 << 16,
                fleet,
                ..ServeConfig::default()
            };
            let svc = ConcurrentEstimator::builder(serve)
                .register("UDF", &space)
                .unwrap()
                .build()
                .unwrap();
            for e in &data.events {
                svc.observe(
                    "UDF",
                    &e.point,
                    ExecutionCost { cpu: e.observed, io: e.observed / 8.0, results: 0 },
                )
                .unwrap();
            }
            // One manual step applies the whole stream and runs one
            // arbitration round.
            svc.flush();
            svc
        };
        let predict_all = |svc: &ConcurrentEstimator| {
            probes(150, 0x51EE9).iter().map(|p| svc.predict("UDF", p).unwrap()).collect::<Vec<_>>()
        };
        let run_hibernated = || {
            let svc = trained(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 1 }));
            // No prediction traffic since build: the round sees a zero
            // delta and hibernates the shard.
            let report = svc.last_arbitration().unwrap().expect("flush ran a round");
            assert_eq!(
                report.hibernated,
                vec!["UDF".to_string()],
                "{}: the cold shard must hibernate",
                scenario.label(),
            );
            assert!(svc.is_hibernated("UDF").unwrap(), "{}: not hibernated", scenario.label());
            // The first predict below wakes the shard.
            let woken = predict_all(&svc);
            assert!(!svc.is_hibernated("UDF").unwrap(), "{}: still hibernated", scenario.label());
            svc.shutdown();
            woken
        };
        let woken = run_hibernated();

        let twin = trained(None);
        let reference = predict_all(&twin);
        twin.shutdown();

        for (i, (got, want)) in woken.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{}: probe {i} diverges after the hibernation round trip",
                scenario.label(),
            );
            if let Some(v) = got {
                assert!(
                    v.is_finite() && *v >= 0.0,
                    "{}: woken probe {i} predicted {v}",
                    scenario.label(),
                );
            }
        }
        // Seeded determinism: a second independently built-and-hibernated
        // service reproduces the woken trace bit for bit.
        let woken_bits: Vec<Option<u64>> = woken.iter().map(|p| p.map(f64::to_bits)).collect();
        let again: Vec<Option<u64>> =
            run_hibernated().iter().map(|p| p.map(f64::to_bits)).collect();
        assert_eq!(woken_bits, again, "{}: hibernated runs disagree", scenario.label());
    }
}
