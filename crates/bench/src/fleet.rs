//! The `mlq-bench --fleet` microbench: fleet-level budget arbitration
//! under skewed traffic (`BENCH_fleet.json`).
//!
//! One Manual-mode [`ConcurrentEstimator`] hosts `models` UDFs under a
//! single tight global budget, driven by a seeded
//! [`FleetScenario`](mlq_synth::FleetScenario) 90/10 stream in three
//! phases:
//!
//! 1. **mixed** — every model receives skewed observe + predict
//!    traffic, with an arbitration step per chunk; the tight budget
//!    forces cross-model eviction;
//! 2. **hot-only** — only the hot models are queried until every cold
//!    model's idle streak crosses the hibernation threshold;
//! 3. **wake** — one predict per cold model warm-restores it from its
//!    snapshot envelope.
//!
//! The timed quantity is end-to-end events/sec over all three phases
//! (each event is an observe, a predict, and its share of flush +
//! arbitration work). The `mlq_catalog_*` counters land in the report
//! with absolute bars, so the gate requires the run actually exercised
//! the machinery: zero budget overruns (not relative to the baseline),
//! nonzero evictions, hibernations, and restores — a run that never
//! exercised them proves nothing — plus a throughput floor against the
//! checked-in `BENCH_fleet.baseline.json`.

use crate::report::{Report, Row};
use mlq_core::{GuardConfig, Space};
use mlq_serve::{ConcurrentEstimator, FleetConfig, MaintainerMode, ServeConfig};
use mlq_synth::{FleetScenario, QueryDistribution};
use mlq_udfs::ExecutionCost;
use std::hint::black_box;
use std::time::Instant;

/// Allowed events/sec drop against the baseline. Events/sec of a
/// workload that interleaves arbitration with reads is noisier than a
/// pure read bench; a wide floor still catches order-of-magnitude
/// regressions.
const EVENTS_BOUND: f64 = 0.35;

/// Events per chunk: one flush + one arbitration step per chunk.
pub const CHUNK: usize = 256;

/// Timed repetitions; the fastest pass is reported. The arbitration
/// counters are identical across passes (Manual mode, one seeded
/// stream), so the fastest pass's counters are everyone's counters.
pub const PASS_REPEATS: usize = 3;

/// The fixed workload seed — the committed baseline is reproducible.
pub const FLEET_BENCH_SEED: u64 = 0xF1EE7;

/// Harness settings.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Models in the fleet.
    pub models: usize,
    /// Hot models (the first `hot_models` indices).
    pub hot_models: usize,
    /// Share of the stream the hot models receive.
    pub hot_share: f64,
    /// Events in the mixed phase; the hot-only phase adds half as many.
    pub events: usize,
    /// Global byte budget across the whole fleet.
    pub global_budget: usize,
    /// Idle arbitration rounds before a cold model hibernates.
    pub hibernate_after: u32,
    /// Recorded in the report as `short_mode`.
    pub short: bool,
}

impl FleetBenchConfig {
    /// The full local-measurement configuration.
    #[must_use]
    pub fn full() -> Self {
        FleetBenchConfig {
            models: 8,
            hot_models: 2,
            hot_share: 0.9,
            events: 20_000,
            global_budget: 48 * 1024,
            hibernate_after: 3,
            short: false,
        }
    }

    /// The CI-smoke configuration.
    #[must_use]
    pub fn short() -> Self {
        FleetBenchConfig { events: 5_000, short: true, ..FleetBenchConfig::full() }
    }
}

fn space() -> Space {
    Space::cube(2, 0.0, 1000.0).unwrap()
}

/// One timed pass: build the fleet service, drive all three phases,
/// return (elapsed seconds, the service for counter readout, events).
fn run_pass(config: &FleetBenchConfig) -> (f64, ConcurrentEstimator, usize) {
    let scenario = FleetScenario::new(
        space(),
        QueryDistribution::Uniform,
        config.models,
        config.hot_models,
        config.hot_share,
        FLEET_BENCH_SEED,
    );
    let names: Vec<String> = (0..config.models).map(|m| format!("M{m}")).collect();
    let serve = ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: 1 << 20,
        // Disable outlier quarantine so every synthetic observation
        // lands and the byte pressure is deterministic.
        guard: GuardConfig { mad_k: 1e9, ..GuardConfig::default() },
        fleet: Some(FleetConfig {
            global_budget: config.global_budget,
            hibernate_after: config.hibernate_after,
        }),
        ..ServeConfig::default()
    };
    let mut builder = ConcurrentEstimator::builder(serve);
    for name in &names {
        builder = builder.register(name, &space()).unwrap();
    }
    let svc = builder.build().unwrap();

    let mixed = scenario.stream(config.events);
    // The hot-only phase reuses the mixed stream's points but directs
    // every query at the hot models, starving the cold ones into
    // hibernation.
    let hot_only: Vec<(usize, &[f64])> = mixed
        .iter()
        .take(config.events / 2)
        .enumerate()
        .map(|(i, e)| (i % config.hot_models, e.point.as_slice()))
        .collect();
    let mut driven = 0usize;

    let start = Instant::now();
    for chunk in mixed.chunks(CHUNK) {
        for e in chunk {
            svc.observe(
                &names[e.model],
                &e.point,
                ExecutionCost { cpu: e.cost, io: e.cost / 8.0, results: 1 },
            )
            .unwrap();
            black_box(svc.predict(&names[e.model], &e.point).unwrap());
            driven += 1;
        }
        svc.flush();
    }
    for chunk in hot_only.chunks(CHUNK) {
        for (model, point) in chunk {
            black_box(svc.predict(&names[*model], point).unwrap());
            driven += 1;
        }
        // Feedback-free steps still arbitrate, ticking cold streaks.
        svc.step(usize::MAX).unwrap();
    }
    // Wake phase: one predict per cold model warm-restores it.
    for name in names.iter().skip(config.hot_models) {
        black_box(svc.predict(name, &[500.0, 500.0]).unwrap());
        driven += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, svc, driven)
}

/// Measures fleet arbitration under `config` and returns the report.
///
/// # Panics
///
/// Panics when the serving layer rejects the configuration — a harness
/// bug, not a measurable outcome.
#[must_use]
pub fn measure_fleet(config: &FleetBenchConfig) -> Report {
    let mut best: Option<(f64, ConcurrentEstimator, usize)> = None;
    for _ in 0..PASS_REPEATS {
        let pass = run_pass(config);
        if best.as_ref().is_none_or(|(t, _, _)| pass.0 < *t) {
            best = Some(pass);
        }
    }
    let (elapsed, svc, events) = best.expect("PASS_REPEATS > 0");
    let metrics = svc.metrics();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0) as f64;
    let live_bytes = svc.fleet_live_bytes().expect("fleet mode is on") as f64;
    let rows = vec![
        Row::higher("config", "models", "count", config.models as f64),
        Row::higher("config", "global_budget", "bytes", config.global_budget as f64),
        Row::higher("fleet", "events", "count", events as f64),
        Row::higher(
            "fleet",
            "events_per_sec",
            "1/s",
            events as f64 / elapsed.max(f64::MIN_POSITIVE),
        )
        .with_bound(EVENTS_BOUND),
        Row::higher("fleet", "evicted_leaves", "count", counter("mlq_catalog_evicted_leaves"))
            .with_min(1.0),
        Row::higher("fleet", "hibernations", "count", counter("mlq_catalog_hibernations"))
            .with_min(1.0),
        Row::higher("fleet", "restores", "count", counter("mlq_catalog_restores")).with_min(1.0),
        Row::lower("fleet", "budget_overruns", "count", counter("mlq_catalog_budget_overruns"))
            .with_max(0.0),
        Row::lower("fleet", "live_bytes", "bytes", live_bytes),
    ];
    Report::new(config.short, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{assert_bars_match, FLEET};

    #[test]
    fn a_tiny_measurement_produces_a_sane_report() {
        let config = FleetBenchConfig {
            models: 3,
            hot_models: 1,
            hot_share: 0.9,
            events: 600,
            global_budget: 8 * 1024,
            hibernate_after: 1,
            short: true,
        };
        let report = measure_fleet(&config);
        let v = |metric: &str| report.value("fleet", metric).expect(metric);
        assert_bars_match(&report, FLEET);
        assert_eq!(report.value("config", "models"), Some(3.0));
        assert!(v("events") > 600.0, "phases beyond mixed drove nothing");
        assert!(v("events_per_sec") > 0.0);
        assert_eq!(v("budget_overruns"), 0.0);
        assert!(v("hibernations") >= 2.0, "both cold models should hibernate");
        assert!(v("restores") >= 2.0, "the wake phase should restore them");
        assert!(v("live_bytes") <= 8.0 * 1024.0);
    }
}
