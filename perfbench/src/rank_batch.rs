//! `rank_batch`: the optimizer ranks candidate plans with 256-point
//! `predict_batch_into` calls against 4-D shards pretrained to a full
//! 64 KB budget. A trickle of feedback keeps the write side running at a
//! full budget; there are no UDFs and no journal.

use crate::checks;
use crate::pass::{self, catalog_model, CoreSeries, Pass, Rng, Visibility, IO_WEIGHT};
use crate::trace::Tracer;
use mlq_core::Space;
use mlq_serve::{ConcurrentEstimator, MaintainerMode, PushOutcome, ServeConfig};
use mlq_synth::{CostSurface, SyntheticUdf};
use mlq_udfs::ExecutionCost;
use std::time::Instant;

const SHARDS: usize = 4;
const DIMS: usize = 4;
/// Bytes per model.
const BUDGET_PER_MODEL: usize = 64 * 1024;
/// Pretraining observations per shard, uniform over the space.
const PRETRAIN: usize = 32_768;
/// Candidate plans ranked per call.
const BATCH: usize = 256;
/// Batches per pass.
const BATCHES: usize = 65_536;
/// Batches after which the deterministic prefix is read.
const PREFIX_BATCHES: usize = 16_384;
/// Batches per fed-back observation.
const OBSERVE_EVERY: usize = 16;
/// Observations per `step`.
const STEP_EVERY: usize = 64;
/// Candidates per batch scored against their true cost.
const NAE_SAMPLES: usize = 4;
/// Batches between bit-equality samples against per-point `predict`.
const CHECK_EVERY: usize = 128;
/// Points compared per sample.
const CHECK_POINTS: usize = 4;
/// Half-width of the box the candidates of one query fall in.
const SPREAD: f64 = 80.0;

/// The true CPU and IO cost surfaces of one plan family. The surfaces
/// are fixed; the benchmark's seed draws pretraining and candidates.
struct Truth {
    cpu: SyntheticUdf,
    io: SyntheticUdf,
}

impl Truth {
    fn cost(&self, p: &[f64]) -> ExecutionCost {
        ExecutionCost { cpu: self.cpu.cost(p), io: self.io.cost(p), results: 0 }
    }
}

fn space() -> Space {
    Space::cube(DIMS, 0.0, 1000.0).expect("the cube is a valid space")
}

/// Offsets of candidates from their query's center, drawn once per pass
/// so that making a batch costs little next to ranking it.
struct Offsets(Vec<[f64; DIMS]>);

impl Offsets {
    const LEN: usize = 4096;

    fn new(rng: &mut Rng) -> Self {
        Offsets(
            (0..Self::LEN)
                .map(|_| std::array::from_fn(|_| (rng.unit() * 2.0 - 1.0) * SPREAD))
                .collect(),
        )
    }

    /// The candidates of one query: points in a box around a random
    /// center.
    fn candidates(&self, rng: &mut Rng, out: &mut [[f64; DIMS]]) {
        let center: [f64; DIMS] = std::array::from_fn(|_| rng.unit() * 1000.0);
        let start = rng.below(Self::LEN);
        for (i, p) in out.iter_mut().enumerate() {
            let offset = &self.0[(start + i) % Self::LEN];
            for d in 0..DIMS {
                p[d] = (center[d] + offset[d]).clamp(0.0, 1000.0);
            }
        }
    }
}

/// Runs one pass; with `prefix_only`, stops after the prefix.
pub fn run(seed: u64, traced: bool, prefix_only: bool) -> Pass {
    let setup = Instant::now();
    let tracer = Tracer::new(traced);
    let names: Vec<String> = (0..SHARDS).map(|k| format!("plan{k}")).collect();
    let truths: Vec<Truth> = (0..SHARDS as u64)
        .map(|k| Truth {
            cpu: SyntheticUdf::builder(space()).peaks(10).base_cost(100.0).seed(k).build(),
            io: SyntheticUdf::builder(space()).peaks(5).max_cost(50.0).seed(k << 32).build(),
        })
        .collect();
    let mut rng = Rng::new(seed, 2);
    let config = ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() };
    let mut builder = ConcurrentEstimator::builder(config);
    for (name, truth) in names.iter().zip(&truths) {
        let mut cpu = catalog_model(&space(), BUDGET_PER_MODEL, 1);
        let mut io = catalog_model(&space(), BUDGET_PER_MODEL, 10);
        for _ in 0..PRETRAIN {
            let p: [f64; DIMS] = std::array::from_fn(|_| rng.unit() * 1000.0);
            let cost = truth.cost(&p);
            cpu.insert(&p, cost.cpu).expect("pretraining points are in the space");
            io.insert(&p, cost.io).expect("pretraining points are in the space");
        }
        builder = builder.register_models(name, cpu, io).expect("plan names are distinct");
    }
    let offsets = Offsets::new(&mut rng);
    let svc = builder.build().expect("the service configuration is valid");
    let mut core = CoreSeries::new(svc.registry(), SHARDS);
    let mut pass = Pass { setup_s: setup.elapsed().as_secs_f64(), traced, ..Pass::default() };

    let mut vis = Visibility::default();
    let mut points = vec![[0.0; DIMS]; BATCH];
    let mut out: Vec<Option<f64>> = Vec::with_capacity(BATCH);
    let mut observed = 0usize;
    let loop_start = Instant::now();
    for b in 0..BATCHES {
        let batch = tracer.begin("client");
        let shard = rng.below(SHARDS);
        let name = names[shard].as_str();
        offsets.candidates(&mut rng, &mut points);
        let timer = tracer.begin("serve.predict_batch");
        let outcome = svc.predict_batch_into(name, &points, &mut out);
        let ns = tracer.end(timer);
        pass.op(ns);
        pass.estimator_ns += ns;
        pass.call(outcome.is_ok() && out.len() == BATCH);
        pass.ops += BATCH as u64;

        // Rank: the cheapest predicted candidate is the chosen plan.
        pass.checks.note(checks::predictions(&out));
        let (mut best, mut best_cost) = (0, f64::INFINITY);
        for (i, v) in out.iter().enumerate() {
            if let Some(cost) = *v {
                if cost < best_cost {
                    (best, best_cost) = (i, cost);
                }
            }
        }
        if best_cost.is_finite() {
            pass.serve(best_cost);
        }

        // Score a few candidates per batch against their true costs.
        for k in 0..NAE_SAMPLES {
            let j = (b * NAE_SAMPLES + k) * 67 % BATCH;
            let timer = tracer.begin("synth");
            let actual = truths[shard].cost(&points[j]);
            pass.work_ns += tracer.end(timer);
            if let Some(Some(predicted)) = out.get(j) {
                pass.nae.record(*predicted, actual.cpu + IO_WEIGHT * actual.io);
            }
        }

        if b % CHECK_EVERY == 0 {
            for k in 0..CHECK_POINTS {
                let i = (b / CHECK_EVERY * 7 + k * 61) % BATCH;
                let timer = tracer.begin("serve.predict");
                let single = svc.predict(name, &points[i]);
                pass.estimator_ns += tracer.end(timer);
                pass.call(single.is_ok());
                let batched = out.get(i).copied().flatten();
                pass.checks.note(checks::bit_equal(batched, single.unwrap_or(None)));
            }
        }

        if (b + 1) % OBSERVE_EVERY == 0 {
            let timer = tracer.begin("synth");
            let cost = truths[shard].cost(&points[best]);
            pass.work_ns += tracer.end(timer);
            let timer = tracer.begin("serve.observe");
            let outcome = svc.observe(name, &points[best], cost);
            pass.estimator_ns += tracer.end(timer);
            let enqueued = matches!(outcome, Ok(PushOutcome::Enqueued));
            pass.call(enqueued);
            if enqueued {
                vis.observed();
            }
            observed += 1;
            if observed.is_multiple_of(STEP_EVERY) {
                pass::step(&svc, &tracer, &mut core, &mut vis, &mut pass);
            }
        }
        tracer.end(batch);
        if b + 1 == PREFIX_BATCHES {
            pass.prefix = pass.fingerprint_now(&svc);
            if prefix_only {
                break;
            }
        }
    }
    pass.finish(&svc, loop_start, &core, tracer);
    pass
}
