//! `optimizer_loop`: the paper's Fig. 1 loop through the whole serving
//! stack. A `FeedbackExecutor` orders a conjunction of the six real UDFs
//! by estimated rank, runs them over paged indexes behind small buffer
//! pools, and feeds every actual cost back through `EstimatorHandle`s
//! into one durable `ConcurrentEstimator`.

use crate::checks;
use crate::pass::{self, CoreSeries, Pass, Rng, Visibility, IO_WEIGHT};
use crate::stats;
use crate::trace::Tracer;
use mlq_core::MlqError;
use mlq_optimizer::{Estimator, FeedbackExecutor, OrderingPolicy, RowPredicate};
use mlq_serve::{
    ConcurrentEstimator, DurabilityConfig, EstimatorHandle, FleetConfig, MaintainerMode,
    PushOutcome, ServeConfig,
};
use mlq_udfs::spatial::{KnnSearch, MapConfig, RangeSearch, SpatialDatabase, WindowSearch};
use mlq_udfs::text::{CorpusConfig, ProximitySearch, SimpleSearch, TextDatabase, ThresholdSearch};
use mlq_udfs::{ExecutionCost, Udf};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Rows per pass.
const ROWS: usize = 65_536;
/// Rows after which the deterministic prefix is read.
const PREFIX_ROWS: usize = 16_384;
/// Rows between `step` calls.
const STEP_EVERY: usize = 512;
/// Bytes per model: the paper's 1.8 KB budget.
const BUDGET_PER_MODEL: usize = 1_843;
/// A global budget the twelve models never reach.
const GLOBAL_BUDGET: usize = 1 << 20;
/// Recoveries timed per pass.
const RECOVERIES: usize = 3;
/// Points per shard on which recovered and live predictions are compared.
const RECOVERY_SAMPLES: usize = 16;
/// Buffer-pool pages, fewer than either index occupies.
const POOL_PAGES: usize = 48;
/// Seed of the corpus and the map. The data stay fixed, like the paper's
/// Reuters corpus and maps; the benchmark's seed draws the queries.
const DATA_SEED: u64 = 0x00DA_7A00;

/// One UDF as a boolean predicate: a row passes when the UDF returns at
/// least `min_results` results.
struct UdfPredicate {
    udf: Box<dyn Udf>,
    min_results: u64,
    /// Leading coordinates drawn skewed toward 0 (frequent keywords).
    skewed_dims: usize,
    probe: Rc<Probe>,
}

impl RowPredicate for UdfPredicate {
    fn name(&self) -> &str {
        self.udf.name()
    }

    fn space(&self) -> &mlq_core::Space {
        self.udf.space()
    }

    fn evaluate(&self, point: &[f64]) -> (bool, ExecutionCost) {
        let timer = self.probe.tracer.begin("udfs");
        let outcome = self.udf.execute(point);
        let ns = self.probe.tracer.end(timer);
        let mut s = self.probe.state.borrow_mut();
        s.pass.work_ns += ns;
        s.udf_calls += 1;
        s.pass.call(outcome.is_ok());
        match outcome {
            Ok(cost) => {
                s.pages_missed += cost.io;
                (cost.results >= self.min_results, cost)
            }
            Err(_) => (false, ExecutionCost::default()),
        }
    }
}

/// State the executor's predicates and estimators share.
struct Probe {
    tracer: Tracer,
    state: RefCell<ProbeState>,
}

#[derive(Default)]
struct ProbeState {
    pass: Pass,
    vis: Visibility,
    udf_calls: u64,
    pages_missed: f64,
}

/// An `EstimatorHandle` whose calls are timed and checked.
struct TimedHandle {
    handle: EstimatorHandle,
    probe: Rc<Probe>,
    /// The prediction this row's ordering used, scored on `observe`.
    last: Cell<Option<f64>>,
}

impl Estimator for TimedHandle {
    fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        let timer = self.probe.tracer.begin("serve.predict");
        let outcome = self.handle.predict(point);
        let ns = self.probe.tracer.end(timer);
        let mut s = self.probe.state.borrow_mut();
        s.pass.estimator_ns += ns;
        s.pass.call(outcome.is_ok());
        let value = outcome.unwrap_or(None);
        s.pass.checks.note(checks::prediction(value));
        self.last.set(value);
        Ok(value)
    }

    fn observe(&mut self, point: &[f64], cost: ExecutionCost) -> Result<(), MlqError> {
        let timer = self.probe.tracer.begin("serve.observe");
        let outcome = self.handle.offer(point, cost);
        let ns = self.probe.tracer.end(timer);
        let mut s = self.probe.state.borrow_mut();
        s.pass.estimator_ns += ns;
        let enqueued = matches!(outcome, Ok(PushOutcome::Enqueued));
        s.pass.call(enqueued);
        if enqueued {
            s.vis.observed();
        }
        if let Some(predicted) = self.last.take() {
            s.pass.nae.record(predicted, cost.cpu + IO_WEIGHT * cost.io);
        }
        Ok(())
    }

    fn combine(&self, cost: ExecutionCost) -> f64 {
        let timer = self.probe.tracer.begin("serve.snapshot");
        let combined = self.handle.combine(cost);
        self.probe.state.borrow_mut().pass.estimator_ns += self.probe.tracer.end(timer);
        combined
    }

    fn memory_used(&self) -> usize {
        self.handle.memory_used()
    }

    fn name(&self) -> String {
        self.handle.name()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: BUDGET_PER_MODEL,
        fleet: Some(FleetConfig { global_budget: GLOBAL_BUDGET, hibernate_after: 0 }),
        ..ServeConfig::default()
    }
}

/// A point in `udf`'s space; the first `skewed` coordinates lean toward
/// the low end, where the frequent keywords are.
fn point(rng: &mut Rng, pred: &UdfPredicate) -> Vec<f64> {
    let space = pred.udf.space();
    (0..space.dims())
        .map(|d| {
            let u = rng.unit();
            let u = if d < pred.skewed_dims { u * u } else { u };
            space.low(d) + u * (space.high(d) - space.low(d))
        })
        .collect()
}

/// The six UDFs over freshly generated data, as predicates.
fn predicates(probe: &Rc<Probe>) -> Vec<UdfPredicate> {
    let seed = DATA_SEED;
    let text = Arc::new(
        TextDatabase::generate(CorpusConfig { seed, pool_pages: POOL_PAGES, ..Default::default() })
            .expect("the corpus configuration is valid"),
    );
    let map = Arc::new(
        SpatialDatabase::generate(MapConfig { seed, pool_pages: POOL_PAGES, ..Default::default() })
            .expect("the map configuration is valid"),
    );
    let udfs: Vec<(Box<dyn Udf>, u64, usize)> = vec![
        (Box::new(SimpleSearch::new(Arc::clone(&text))), 40, 1),
        (Box::new(ThresholdSearch::new(Arc::clone(&text))), 4, 1),
        (Box::new(ProximitySearch::new(text)), 2, 2),
        (Box::new(KnnSearch::new(Arc::clone(&map))), 1, 0),
        (Box::new(WindowSearch::new(Arc::clone(&map))), 6, 0),
        (Box::new(RangeSearch::new(map)), 4, 0),
    ];
    udfs.into_iter()
        .map(|(udf, min_results, skewed_dims)| UdfPredicate {
            udf,
            min_results,
            skewed_dims,
            probe: Rc::clone(probe),
        })
        .collect()
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn predict_all(svc: &ConcurrentEstimator, samples: &[(String, Vec<f64>)]) -> Vec<Option<f64>> {
    samples.iter().map(|(name, p)| svc.predict(name, p).unwrap_or(None)).collect()
}

/// Runs one pass under `dir`; with `prefix_only`, stops after the prefix.
pub fn run(seed: u64, traced: bool, prefix_only: bool, dir: &Path) -> Pass {
    let setup = Instant::now();
    let probe = Rc::new(Probe { tracer: Tracer::new(traced), state: RefCell::default() });
    let preds = predicates(&probe);
    let mut rng = Rng::new(seed, 1);
    let rows: Vec<Vec<Vec<f64>>> =
        (0..ROWS).map(|_| preds.iter().map(|p| point(&mut rng, p)).collect()).collect();
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    for p in &preds {
        for _ in 0..RECOVERY_SAMPLES {
            samples.push((p.udf.name().to_string(), point(&mut rng, p)));
        }
    }

    let wal_dir = dir.join("wal");
    let image_dir = dir.join("image");
    let _ = std::fs::remove_dir_all(dir);
    let mut builder = ConcurrentEstimator::builder(serve_config())
        .with_durability_config(DurabilityConfig::new(&wal_dir));
    for p in &preds {
        builder = builder.register(p.udf.name(), p.udf.space()).expect("UDF names are distinct");
    }
    let svc = Arc::new(builder.build().expect("the service configuration is valid"));
    let handles: Vec<TimedHandle> = preds
        .iter()
        .map(|p| TimedHandle {
            handle: svc.handle(p.udf.name()).expect("registered above"),
            probe: Rc::clone(&probe),
            last: Cell::new(None),
        })
        .collect();
    let boxed: Vec<Box<dyn RowPredicate>> =
        preds.into_iter().map(|p| Box::new(p) as Box<dyn RowPredicate>).collect();
    let mut exec = FeedbackExecutor::new(boxed, handles);
    let mut core = CoreSeries::new(svc.registry(), svc.names().len());
    let setup_s = setup.elapsed().as_secs_f64();

    let policy = OrderingPolicy::EstimatedRank;
    let (mut evaluations, mut qualified) = (0u64, 0u64);
    let mut live_at_image: Option<Vec<Option<f64>>> = None;
    let loop_start = Instant::now();
    for (r, row) in rows.iter().enumerate() {
        let timer = probe.tracer.begin("optimizer");
        let report = exec.run(std::slice::from_ref(row), &policy);
        let ns = probe.tracer.end(timer);
        evaluations += report.evaluations;
        qualified += report.qualified as u64;
        let mut s = probe.state.borrow_mut();
        s.pass.op(ns);
        s.pass.ops += 1;
        s.pass.serve(report.total_cost);
        if (r + 1) % STEP_EVERY != 0 {
            continue;
        }
        let ProbeState { pass, vis, .. } = &mut *s;
        pass::step(&svc, &probe.tracer, &mut core, vis, pass);
        if r + 1 == PREFIX_ROWS {
            pass.prefix = pass.fingerprint_now(&svc);
            if prefix_only {
                break;
            }
        }
        if live_at_image.is_none() && r + 1 >= ROWS / 2 {
            // The crash image: the journal directory as it stands between
            // two steps, with what the live service serves at that moment.
            // Copying it is not part of the loop's timed work.
            let copy_start = Instant::now();
            let copied = copy_dir(&wal_dir, &image_dir);
            pass.checks.note(copied.map_err(|e| format!("copying the crash image: {e}")));
            live_at_image = Some(predict_all(&svc, &samples));
            pass.untimed_ns += copy_start.elapsed().as_nanos() as u64;
        }
    }

    drop(exec);
    let Ok(Probe { tracer, state }) = Rc::try_unwrap(probe) else {
        unreachable!("the executor held the only other references to the probe")
    };
    let ProbeState { mut pass, udf_calls, pages_missed, .. } = state.into_inner();
    pass.setup_s = setup_s;
    pass.finish(&svc, loop_start, &core, tracer);
    pass.layer.insert("udfs.pages_missed_per_call", stats::ratio(pages_missed, udf_calls as f64));
    pass.layer
        .insert("optimizer.evaluations_per_row", stats::ratio(evaluations as f64, pass.ops as f64));
    pass.layer.insert("optimizer.qualified_share", stats::ratio(qualified as f64, pass.ops as f64));
    if let Some(live) = live_at_image {
        let mut recover_ns = Vec::with_capacity(RECOVERIES);
        for k in 0..RECOVERIES {
            let target = dir.join(format!("recover-{k}"));
            if let Err(e) = copy_dir(&image_dir, &target) {
                pass.checks.note(Err(format!("copying the crash image: {e}")));
                continue;
            }
            let start = Instant::now();
            let recovered = ConcurrentEstimator::recover(&target, serve_config());
            recover_ns.push(start.elapsed().as_nanos() as u64);
            pass.call(recovered.is_ok());
            match recovered {
                Ok(rec) => {
                    let preds = predict_all(&rec, &samples);
                    pass.checks.note(checks::recovered_matches(&live, &preds));
                }
                Err(e) => pass.checks.note(Err(format!("recover failed: {e}"))),
            }
        }
        let recover_ms: Vec<f64> = recover_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        pass.layer.insert("serve.recover_ms", crate::stats::median(&recover_ms).unwrap_or(0.0));
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
    pass
}
