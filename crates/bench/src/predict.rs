//! The `mlq-bench --predict` microbench: single-call vs. batched read
//! path over packed prediction snapshots (`BENCH_predict.json`).
//!
//! Each case builds a [`ConcurrentEstimator`] hosting the paper's six
//! UDFs over a space of a given dimensionality, pre-trains one of them to
//! a target model size, and then measures the same deterministic query
//! stream twice:
//!
//! * **single** — one [`ConcurrentEstimator::predict`] per point: name
//!   lookup, read-counter bump, `RwLock` read, `Arc` clone, and a packed
//!   descent through both component trees, per call;
//! * **batch** — [`ConcurrentEstimator::predict_batch`] in
//!   [`BATCH_SIZE`]-point chunks: the per-call overhead is paid once per
//!   chunk and the descent loop runs back to back over the packed slabs.
//!
//! The report also records the snapshot's packed byte size per case, so
//! the layout's memory claim is visible alongside its speed. Each case's
//! rows carry their bars: throughput floors, latency ceilings for the
//! sampled single-call p50/p99, and an absolute batch-speedup floor — the
//! batched path must stay genuinely faster, not merely not-regressed.

use crate::report::{percentile_ns, Report, Row};
use crate::{cost_at, xorshift};
use mlq_core::Space;
use mlq_serve::{ConcurrentEstimator, MaintainerMode, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Points per `predict_batch` call on the batched path.
pub const BATCH_SIZE: usize = 256;

/// Batch sizes swept per case (each measured as its own chunked pass),
/// so the report shows where the multi-lane kernel's amortization kicks
/// in: 1 is the degenerate single-point batch, 8 one full wave, 64 and
/// 512 multi-wave batches.
pub const SWEEP_SIZES: &[usize] = &[1, 8, 64, 512];

/// Every this many queries, one single-path call is individually timed
/// (in a separate pass, so the throughput numbers carry no clock
/// overhead).
pub const LATENCY_SAMPLE: usize = 16;

/// Timed repetitions per throughput pass; the fastest is reported. The
/// single and batched passes are interleaved repeat by repeat, so a
/// noisy-neighbor window on a shared runner has the same chance of
/// hitting either path and each path's best repeat is a clean one.
pub const PASS_REPEATS: usize = 5;

/// Allowed single/batch throughput regression per case against the
/// baseline. Looser than the serve harness's 20%: these passes run for
/// milliseconds, so shared-runner CPU contention moves absolute
/// throughput far more than it moves the serve harness's duration-based
/// runs. The speedup floor is the tight, contention-immune contract.
const PPS_BOUND: f64 = 0.35;
/// Allowed relative increase of the sampled p50/p99 — more generous
/// still, because tail percentiles on shared runners are intrinsically
/// noisier than mean throughput.
const LATENCY_BOUND: f64 = 1.0;
/// Absolute floor on every case's `batch_speedup`: the batched path must
/// beat the single-call path by this factor however both moved since the
/// baseline. A ratio of two interleaved best-of-N passes on the same
/// snapshot, so runner speed mostly cancels out of it; the floor sits
/// below the 2.1–2.3× of the committed baseline to leave room for the
/// residual contention jitter.
const MIN_BATCH_SPEEDUP: f64 = 1.35;

/// One benchmark case: a dimensionality and a pre-train volume.
struct CaseSpec {
    label: &'static str,
    dims: usize,
    pretrain: usize,
}

/// Cases sweep dimensionality (fanout 4 → 16) and model size; labels are
/// the stable join key between a measured report and the baseline.
const CASES: &[CaseSpec] = &[
    CaseSpec { label: "d2-small", dims: 2, pretrain: 400 },
    CaseSpec { label: "d2-large", dims: 2, pretrain: 6000 },
    CaseSpec { label: "d4-mid", dims: 4, pretrain: 2000 },
    CaseSpec { label: "d4-large", dims: 4, pretrain: 8000 },
];

/// Harness settings.
#[derive(Debug, Clone)]
pub struct PredictConfig {
    /// Batches of [`BATCH_SIZE`] queries measured per case.
    pub rounds: usize,
    /// Recorded in the report as `short_mode`.
    pub short: bool,
}

impl PredictConfig {
    /// The full local-measurement configuration.
    #[must_use]
    pub fn full() -> Self {
        PredictConfig { rounds: 400, short: false }
    }

    /// The CI-smoke configuration.
    #[must_use]
    pub fn short() -> Self {
        PredictConfig { rounds: 120, short: true }
    }
}

fn point(dims: usize, r: u64) -> Vec<f64> {
    (0..dims).map(|d| ((r >> (d * 10)) % 1000) as f64).collect()
}

/// The measured service hosts the paper's six UDFs (name routing on the
/// single-call path costs what a real deployment pays); one of them gets
/// pre-trained and queried.
const UDFS: &[&str] = &["simple", "thresh", "prox", "nn", "win", "range"];
const TARGET: &str = UDFS[2];

/// Builds and pre-trains a service for `spec`, then measures the single
/// and batched read paths over the same query stream.
fn measure_case(spec: &CaseSpec, rounds: usize) -> Vec<Row> {
    let space = Space::cube(spec.dims, 0.0, 1000.0).expect("valid space");
    // Manual maintenance: nothing runs concurrently with the measurement,
    // so single vs. batch compare under identical conditions.
    let config = ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() };
    let mut builder = ConcurrentEstimator::builder(config);
    for name in UDFS {
        builder = builder.register(name, &space).expect("register");
    }
    let svc = Arc::new(builder.build().expect("build service"));
    let mut seed = 0x5EED ^ (spec.dims as u64) << 8 ^ spec.pretrain as u64;
    for i in 0..spec.pretrain {
        let p = point(spec.dims, xorshift(&mut seed));
        svc.observe(TARGET, &p, cost_at(&p)).expect("pretrain observe");
        // Manual mode has no background drain; step before the bounded
        // queue fills or the blocking observe above would deadlock.
        if i % 1024 == 1023 {
            svc.flush();
        }
    }
    svc.flush();

    let snapshot = svc.snapshot(TARGET).expect("snapshot");
    let (cpu, io) = snapshot.components();
    let nodes = cpu.tree().node_count();
    let packed_bytes = cpu.tree().bytes() + io.tree().bytes();

    let queries: Vec<Vec<f64>> =
        (0..rounds * BATCH_SIZE).map(|_| point(spec.dims, xorshift(&mut seed))).collect();

    // Warm-up: touch both paths once so neither measures cold caches.
    black_box(svc.predict(TARGET, &queries[0]).expect("warmup"));
    black_box(svc.predict_batch(TARGET, &queries[..BATCH_SIZE]).expect("warmup"));

    // Throughput passes, no per-call clocks. Each pass is short
    // (milliseconds in short mode), so one preemption would skew a lone
    // run badly; best-of-N with the two paths interleaved is the usual
    // microbench noise filter.
    let mut single_elapsed = Duration::MAX;
    let mut batch_elapsed = Duration::MAX;
    for _ in 0..PASS_REPEATS {
        let t0 = Instant::now();
        for q in &queries {
            black_box(svc.predict(TARGET, q).expect("predict"));
        }
        single_elapsed = single_elapsed.min(t0.elapsed());

        let t0 = Instant::now();
        for chunk in queries.chunks(BATCH_SIZE) {
            black_box(svc.predict_batch(TARGET, chunk).expect("predict_batch"));
        }
        batch_elapsed = batch_elapsed.min(t0.elapsed());
    }

    // The batch-size sweep, one chunked best-of-N pass per size over the
    // same query stream. Size 1 exercises the kernel's degenerate
    // single-lane wave (not the single-call path: the per-call service
    // overhead is still paid once per chunk).
    let sweep: Vec<Row> = SWEEP_SIZES
        .iter()
        .map(|&batch| {
            let mut elapsed = Duration::MAX;
            for _ in 0..PASS_REPEATS {
                let t0 = Instant::now();
                for chunk in queries.chunks(batch) {
                    black_box(svc.predict_batch(TARGET, chunk).expect("predict_batch"));
                }
                elapsed = elapsed.min(t0.elapsed());
            }
            let pps = queries.len() as f64 / elapsed.as_secs_f64();
            Row::higher(spec.label, &format!("batch_pps@{batch}"), "1/s", pps)
        })
        .collect();

    // Sampled single-call latencies, in their own pass so the clock reads
    // stay out of the throughput numbers. Each sampled query keeps its
    // minimum over the repeats: a preemption mid-call inflates one
    // repeat, not the query's reported latency, so the percentiles
    // reflect the call's intrinsic cost distribution.
    let mut samples = vec![u64::MAX; queries.len().div_ceil(LATENCY_SAMPLE)];
    for _ in 0..PASS_REPEATS {
        for (slot, q) in queries.iter().step_by(LATENCY_SAMPLE).enumerate() {
            let t = Instant::now();
            black_box(svc.predict(TARGET, q).expect("predict"));
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            samples[slot] = samples[slot].min(ns);
        }
    }
    samples.sort_unstable();

    let n = queries.len() as f64;
    let single_pps = n / single_elapsed.as_secs_f64();
    let batch_pps = n / batch_elapsed.as_secs_f64();
    let case = spec.label;
    let mut rows = vec![
        Row::higher(case, "dims", "count", spec.dims as f64),
        Row::lower(case, "nodes", "count", nodes as f64),
        Row::lower(case, "packed_bytes", "bytes", packed_bytes as f64),
        Row::higher(case, "single_pps", "1/s", single_pps).with_bound(PPS_BOUND),
        Row::lower(case, "p50_single_ns", "ns", percentile_ns(&samples, 50.0) as f64)
            .with_bound(LATENCY_BOUND),
        Row::lower(case, "p99_single_ns", "ns", percentile_ns(&samples, 99.0) as f64)
            .with_bound(LATENCY_BOUND),
        Row::lower(case, "p999_single_ns", "ns", percentile_ns(&samples, 99.9) as f64),
        Row::higher(case, "batch_pps", "1/s", batch_pps).with_bound(PPS_BOUND),
        Row::higher(case, "batch_speedup", "x", batch_pps / single_pps).with_min(MIN_BATCH_SPEEDUP),
    ];
    rows.extend(sweep);
    rows
}

/// Runs every case and assembles the report.
#[must_use]
pub fn measure_predict(config: &PredictConfig) -> Report {
    let mut rows = vec![Row::higher("config", "batch_size", "count", BATCH_SIZE as f64)];
    for spec in CASES {
        rows.extend(measure_case(spec, config.rounds));
    }
    Report::new(config.short, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{assert_bars_match, PREDICT};

    #[test]
    fn a_tiny_measurement_produces_a_sane_report() {
        let report = measure_predict(&PredictConfig { rounds: 2, short: true });
        assert!(report.host_parallelism >= 1);
        assert_bars_match(&report, PREDICT);
        for spec in CASES {
            let v = |metric: &str| {
                report
                    .value(spec.label, metric)
                    .unwrap_or_else(|| panic!("{} {metric}", spec.label))
            };
            assert!(v("nodes") > 1.0, "{}: pre-training must grow the tree", spec.label);
            assert!(v("packed_bytes") > 0.0);
            assert!(v("single_pps") > 0.0);
            assert!(v("batch_pps") > 0.0);
            assert!(v("p50_single_ns") <= v("p99_single_ns"));
            assert!(v("p99_single_ns") <= v("p999_single_ns"));
            for batch in SWEEP_SIZES {
                assert!(v(&format!("batch_pps@{batch}")) > 0.0, "{}: sweep {batch}", spec.label);
            }
        }
    }
}
