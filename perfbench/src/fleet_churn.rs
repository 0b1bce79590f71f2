//! `fleet_churn`: 64 2-D models under one tight global budget. Traffic is
//! 95/5 skewed toward a hot set that rotates by phase, so the arbiter
//! evicts, hibernates cold models through the snapshot codec, and wakes
//! them when traffic returns. No durability.

use crate::checks;
use crate::pass::{self, catalog_model, CoreSeries, Pass, Rng, Visibility, IO_WEIGHT};
use crate::trace::Tracer;
use mlq_core::Space;
use mlq_serve::{ConcurrentEstimator, FleetConfig, MaintainerMode, PushOutcome, ServeConfig};
use mlq_synth::{CostSurface, SyntheticUdf};
use mlq_udfs::ExecutionCost;
use std::time::Instant;

const MODELS: usize = 64;
/// Models in the hot set of one phase.
const HOT: usize = 8;
/// Share of events that go to the hot set.
const HOT_SHARE: f64 = 0.95;
/// Events per pass.
const EVENTS: usize = 262_144;
/// Events after which the deterministic prefix is read.
const PREFIX_EVENTS: usize = 65_536;
/// Events per phase; each phase moves the hot set on by [`HOT`] models.
const PHASE_EVENTS: usize = 8_192;
/// Events per `step`.
const STEP_EVERY: usize = 256;
/// Bytes per model.
const BUDGET_PER_MODEL: usize = 8 * 1024;
/// The global budget: a fraction of what the models could hold.
const GLOBAL_BUDGET: usize = 96 * 1024;
/// Observations each model has learned before the pass starts.
const WARM_START: usize = 512;
/// Idle arbitration rounds before a model hibernates.
const HIBERNATE_AFTER: u32 = 3;

fn space() -> Space {
    Space::cube(2, 0.0, 1000.0).expect("the square is a valid space")
}

/// The model each event queries, and where.
fn events(rng: &mut Rng) -> Vec<(usize, [f64; 2])> {
    (0..EVENTS)
        .map(|e| {
            let first_hot = (e / PHASE_EVENTS * HOT) % MODELS;
            let offset =
                if rng.unit() < HOT_SHARE { rng.below(HOT) } else { HOT + rng.below(MODELS - HOT) };
            let model = (first_hot + offset) % MODELS;
            (model, [rng.unit() * 1000.0, rng.unit() * 1000.0])
        })
        .collect()
}

/// Runs one pass; with `prefix_only`, stops after the prefix.
pub fn run(seed: u64, traced: bool, prefix_only: bool) -> Pass {
    let setup = Instant::now();
    let tracer = Tracer::new(traced);
    let mut rng = Rng::new(seed, 3);
    let names: Vec<String> = (0..MODELS).map(|m| format!("udf{m:02}")).collect();
    // The cost surfaces are fixed; the benchmark's seed draws the events.
    let surfaces: Vec<SyntheticUdf> = (0..MODELS as u64)
        .map(|m| SyntheticUdf::builder(space()).peaks(10).base_cost(500.0).seed(m).build())
        .collect();
    let events = events(&mut rng);
    let config = ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: BUDGET_PER_MODEL,
        fleet: Some(FleetConfig { global_budget: GLOBAL_BUDGET, hibernate_after: HIBERNATE_AFTER }),
        ..ServeConfig::default()
    };
    let mut builder = ConcurrentEstimator::builder(config);
    for (name, surface) in names.iter().zip(&surfaces) {
        // A warm start: every model has history before the pass begins,
        // so the first arbitration already faces more than the budget.
        let mut cpu = catalog_model(&space(), BUDGET_PER_MODEL, 1);
        let mut io = catalog_model(&space(), BUDGET_PER_MODEL, 10);
        for _ in 0..WARM_START {
            let p = [rng.unit() * 1000.0, rng.unit() * 1000.0];
            let cost = surface.cost(&p);
            cpu.insert(&p, cost).expect("warm-start points are in the space");
            io.insert(&p, cost / 8.0).expect("warm-start points are in the space");
        }
        builder = builder.register_models(name, cpu, io).expect("model names are distinct");
    }
    let svc = builder.build().expect("the service configuration is valid");
    let mut core = CoreSeries::new(svc.registry(), MODELS);
    let wakes = svc.registry().counter("mlq_catalog_restores");
    let overruns = svc.registry().counter("mlq_catalog_budget_overruns");
    let mut pass = Pass { setup_s: setup.elapsed().as_secs_f64(), traced, ..Pass::default() };

    let mut vis = Visibility::default();
    let loop_start = Instant::now();
    for (e, (model, point)) in events.iter().enumerate() {
        let event = tracer.begin("client");
        let name = names[*model].as_str();
        let wakes_before = wakes.get();
        let timer = tracer.begin("serve.predict");
        let outcome = svc.predict(name, point);
        let woke = wakes.get() > wakes_before;
        let ns = tracer.end_as(timer, if woke { "serve.wake" } else { "serve.predict" });
        if woke {
            pass.op(ns);
        }
        pass.estimator_ns += ns;
        pass.call(outcome.is_ok());
        let predicted = outcome.unwrap_or(None);
        pass.checks.note(checks::prediction(predicted));

        let timer = tracer.begin("synth");
        let cpu = surfaces[*model].cost(point);
        pass.work_ns += tracer.end(timer);
        let cost = ExecutionCost { cpu, io: cpu / 8.0, results: 1 };
        if let Some(p) = predicted {
            pass.nae.record(p, cost.cpu + IO_WEIGHT * cost.io);
            pass.serve(p);
        }

        let timer = tracer.begin("serve.observe");
        let outcome = svc.observe(name, point, cost);
        pass.estimator_ns += tracer.end(timer);
        let enqueued = matches!(outcome, Ok(PushOutcome::Enqueued));
        pass.call(enqueued);
        if enqueued {
            vis.observed();
        }
        pass.ops += 1;

        if (e + 1) % STEP_EVERY == 0 {
            let live = pass::step(&svc, &tracer, &mut core, &mut vis, &mut pass);
            pass.checks.note(checks::within_budget(live, GLOBAL_BUDGET, overruns.get()));
        }
        tracer.end(event);
        if e + 1 == PREFIX_EVENTS {
            pass.prefix = pass.fingerprint_now(&svc);
            if prefix_only {
                break;
            }
        }
    }
    pass.finish(&svc, loop_start, &core, tracer);
    pass
}
