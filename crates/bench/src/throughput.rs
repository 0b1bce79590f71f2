//! The `mlq-bench --throughput` harness: measures the serving layer's
//! concurrent prediction throughput, predict latency percentiles, and
//! feedback lag (`BENCH_serve.json`, or `BENCH_serve_replicated.json`
//! for the replicated tier).
//!
//! Each run gets a fresh [`ConcurrentEstimator`] (or [`ReplicaGroup`]):
//! a few UDF shards pre-trained with a seeded workload, then a timed
//! window where reader threads predict flat-out while one writer thread
//! streams feedback. Readers re-fetch the published snapshot every
//! [`SNAPSHOT_REFRESH`] predictions — per-predict `Arc` cloning would
//! benchmark refcount cache-line bouncing, not the estimator — and time
//! every [`LATENCY_SAMPLE`]-th full prediction (fetch included) for the
//! latency percentiles.

use crate::report::{percentile_ns, Report, Row};
use crate::{cost_at, xorshift};
use mlq_obs::{Registry, RegistrySnapshot};
use mlq_serve::{
    BackpressurePolicy, ConcurrentEstimator, ReplicaGroup, ReplicaGroupConfig, ServeConfig,
    SyncMode,
};
use mlq_storage::{BufferPool, DiskSim, PageId, PAGE_SIZE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Readers re-fetch the shard snapshot every this many predictions.
pub const SNAPSHOT_REFRESH: u64 = 256;
/// Every this many predictions, one is individually timed.
pub const LATENCY_SAMPLE: u64 = 32;

const SHARDS: usize = 4;
const DIMS: usize = 4;
const PRETRAIN: usize = 2000;

/// Allowed predictions/sec regression per run against the baseline.
const PPS_BOUND: f64 = 0.2;
/// Reader count the 1→N reader-scaling row is measured at.
const SCALING_READERS: usize = 4;
/// Required 1→[`SCALING_READERS`] reader scaling of one service.
const MIN_READER_SCALING: f64 = 3.0;
/// Required scaling from the 1-reader control run to the replica group.
const MIN_REPLICA_SCALING: f64 = 2.0;
/// Scaling rows are enforced only on hosts with at least this many CPUs:
/// a 1–2 CPU runner cannot show reader scaling however good the code.
const SCALING_NEEDS_CPUS: usize = 4;

/// Harness settings.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Reader-thread counts to measure, one run each.
    pub readers: Vec<usize>,
    /// Measurement window per run.
    pub duration: Duration,
    /// Recorded in the report as `short_mode`.
    pub short: bool,
    /// Run the service with the write-ahead feedback journal and
    /// checkpointing enabled (a throwaway temp directory per run), so the
    /// measurement carries the durable maintainer path. The report shape
    /// is unchanged — compare a durable report against a non-durable
    /// baseline to see the journaling overhead.
    pub durable: bool,
    /// When > 1, measure the replicated tier instead of the reader sweep:
    /// a single-replica control run (1 reader) followed by a
    /// [`ReplicaGroup`] of this many replicas, one reader each, with
    /// background anti-entropy running throughout. `readers` is ignored.
    pub replicas: usize,
}

impl ThroughputConfig {
    /// The full local-measurement configuration (~2 s per run).
    #[must_use]
    pub fn full() -> Self {
        ThroughputConfig {
            readers: vec![1, 2, 4],
            duration: Duration::from_millis(2000),
            short: false,
            durable: false,
            replicas: 1,
        }
    }

    /// The CI-smoke configuration (~300 ms per run).
    #[must_use]
    pub fn short() -> Self {
        ThroughputConfig { duration: Duration::from_millis(300), short: true, ..Self::full() }
    }
}

fn point_from(r: u64) -> [f64; DIMS] {
    [
        (r % 1000) as f64,
        ((r >> 10) % 1000) as f64,
        ((r >> 20) % 1000) as f64,
        ((r >> 30) % 1000) as f64,
    ]
}

fn shard_names() -> Vec<String> {
    (0..SHARDS).map(|i| format!("UDF{i}")).collect()
}

/// Pages in the writer's simulated store and the pool capacity under it —
/// capacity is half the working set, so the exposition carries an honest
/// mix of hits and misses.
const POOL_PAGES: u64 = 64;
const POOL_CAPACITY: usize = 32;

fn build_pool() -> (BufferPool, Vec<PageId>) {
    let mut disk = DiskSim::new();
    let pages: Vec<PageId> = (0..POOL_PAGES)
        .map(|i| disk.alloc(vec![u8::try_from(i % 251).unwrap_or(0); PAGE_SIZE]))
        .collect();
    (BufferPool::new(disk, POOL_CAPACITY), pages)
}

/// A fresh, collision-free scratch directory for one durable run. Runs
/// must never recover each other's journals, so every call gets a new
/// path (pid + a process-wide counter) and the caller removes it after
/// shutdown.
fn fresh_durable_dir() -> std::path::PathBuf {
    static DURABLE_RUN: AtomicU64 = AtomicU64::new(0);
    let run = DURABLE_RUN.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mlq_bench_wal_{}_{run}", std::process::id()))
}

/// The service config both harness shapes run: the writer must never
/// block mid-measurement, and bounded lag via eviction is the right
/// policy for a load generator.
fn serve_config() -> ServeConfig {
    ServeConfig { backpressure: BackpressurePolicy::DropOldest, ..ServeConfig::default() }
}

/// Pre-trains every shard through `svc` so readers measure informed
/// predictions.
fn pretrain(svc: &ConcurrentEstimator, names: &[String]) {
    let mut seed = 0x5EED_u64;
    for w in 0..PRETRAIN {
        let p = point_from(xorshift(&mut seed));
        svc.observe(&names[w % SHARDS], &p, cost_at(&p)).expect("pretrain observe");
    }
    svc.flush();
}

fn build_service(
    registry: &Arc<Registry>,
    durable_dir: Option<&std::path::Path>,
) -> Arc<ConcurrentEstimator> {
    let space = mlq_core::Space::cube(DIMS, 0.0, 1000.0).expect("valid space");
    let mut builder =
        ConcurrentEstimator::builder(serve_config()).with_registry(Arc::clone(registry));
    if let Some(dir) = durable_dir {
        builder = builder.with_durability(dir);
    }
    for name in shard_names() {
        builder = builder.register(&name, &space).expect("register");
    }
    let svc = Arc::new(builder.build().expect("build service"));
    pretrain(&svc, &shard_names());
    svc
}

/// What one timed window measured.
struct Window {
    predictions: u64,
    elapsed: Duration,
    /// Sampled predict latencies, ascending.
    samples: Vec<u64>,
    max_lag: u64,
}

/// The timed window both harness shapes share: one reader thread per
/// entry of `readers`, predicting flat-out against that service's
/// published snapshots, and one writer thread streaming feedback
/// round-robin across the same services — with one paged read per
/// observation through `pool` when given, so the exposition carries
/// buffer-pool traffic.
fn drive(
    readers: &[Arc<ConcurrentEstimator>],
    pool: Option<(&BufferPool, &[PageId])>,
    duration: Duration,
) -> Window {
    let names = shard_names();
    let stop = AtomicBool::new(false);
    let max_lag = AtomicU64::new(0);
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut seed = 0xF00D_u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let r = xorshift(&mut seed);
                let p = point_from(r);
                if let Some((pool, pages)) = pool {
                    let _ = pool.read(pages[(r % POOL_PAGES) as usize]);
                }
                let svc = &readers[i % readers.len()];
                let _ = svc.observe(&names[i % SHARDS], &p, cost_at(&p));
                i += 1;
                if i.is_multiple_of(64) {
                    max_lag.fetch_max(svc.feedback_lag(), Ordering::Relaxed);
                    // A load generator, not a saturation attack: yield so
                    // readers and the maintainer get scheduled too.
                    thread::yield_now();
                }
            }
        });

        let started = Instant::now();
        let handles: Vec<_> = readers
            .iter()
            .enumerate()
            .map(|(r, svc)| {
                let (stop, names) = (&stop, &names);
                scope.spawn(move || {
                    let mut seed = (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut count = 0u64;
                    let mut samples: Vec<u64> = Vec::with_capacity(1 << 14);
                    let mut snapshots: Vec<_> =
                        names.iter().map(|n| svc.snapshot(n).expect("snapshot")).collect();
                    while !stop.load(Ordering::Relaxed) {
                        let r = xorshift(&mut seed);
                        let shard = (r % SHARDS as u64) as usize;
                        let p = point_from(r);
                        if count.is_multiple_of(SNAPSHOT_REFRESH) {
                            snapshots[shard] = svc.snapshot(&names[shard]).expect("snapshot");
                        }
                        if count.is_multiple_of(LATENCY_SAMPLE) {
                            // Time the full serving path: fetch + predict.
                            let t0 = Instant::now();
                            let snap = svc.snapshot(&names[shard]).expect("snapshot");
                            let v = snap.predict(&p).expect("predict");
                            samples.push(t0.elapsed().as_nanos() as u64);
                            assert!(v.is_some(), "pre-trained shard must answer");
                        } else {
                            let v = snapshots[shard].predict(&p).expect("predict");
                            debug_assert!(v.is_some());
                        }
                        count += 1;
                    }
                    (count, samples)
                })
            })
            .collect();

        thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let mut predictions = 0u64;
        let mut samples: Vec<u64> = Vec::new();
        for h in handles {
            let (count, mut s) = h.join().expect("reader thread");
            predictions += count;
            samples.append(&mut s);
        }
        let elapsed = started.elapsed();
        writer.join().expect("writer thread");
        samples.sort_unstable();
        Window { predictions, elapsed, samples, max_lag: max_lag.load(Ordering::Relaxed) }
    })
}

/// The rows of one run, under `case`. Off the hot path, the sampled
/// latencies also land in `registry`'s histogram.
fn run_rows(case: &str, window: &Window, feedback_applied: u64, registry: &Registry) -> Vec<Row> {
    let latency = registry.histogram("mlq_bench_predict_latency_ns");
    for &ns in &window.samples {
        latency.record(ns);
    }
    vec![
        Row::higher(case, "predictions", "count", window.predictions as f64),
        Row::higher(
            case,
            "predictions_per_sec",
            "1/s",
            window.predictions as f64 / window.elapsed.as_secs_f64(),
        )
        .with_bound(PPS_BOUND),
        Row::lower(case, "p50_predict_ns", "ns", percentile_ns(&window.samples, 50.0) as f64),
        Row::lower(case, "p99_predict_ns", "ns", percentile_ns(&window.samples, 99.0) as f64),
        Row::higher(case, "feedback_applied", "count", feedback_applied as f64),
        Row::lower(case, "max_feedback_lag", "count", window.max_lag as f64),
    ]
}

/// One run of a single service at `readers` reader threads, recording
/// service metrics into `registry`. With `durable` set, the run journals
/// feedback through a throwaway temp-dir WAL and removes the directory
/// after shutdown.
fn measure_run(
    readers: usize,
    duration: Duration,
    durable: bool,
    registry: &Arc<Registry>,
) -> Vec<Row> {
    let wal_dir = durable.then(fresh_durable_dir);
    let svc = build_service(registry, wal_dir.as_deref());
    let (pool, pages) = build_pool();
    let window = drive(&vec![Arc::clone(&svc); readers], Some((&pool, &pages)), duration);
    pool.export_metrics(registry);

    let report = svc.shutdown().expect("first shutdown");
    let feedback_applied: u64 = report.shards.iter().map(|(_, c)| c.applied).sum();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    run_rows(&format!("readers={readers}"), &window, feedback_applied, registry)
}

/// Measures a [`ReplicaGroup`] of `replicas` writer replicas, one reader
/// thread per replica, with background anti-entropy running throughout.
///
/// Every replica absorbs its own feedback partition (the writer
/// round-robins observations across the group) while its reader predicts
/// flat-out against that replica's published snapshots — the scaling
/// claim the replicated tier makes: readers and writers spread across
/// replicas, the merge keeps them convergent. Also returns the group's
/// merged metrics view (the `mlq_serve_replica_*` anti-entropy series
/// plus every replica's registry relabeled with `{replica="<i>"}`) for
/// the caller's exposition.
fn measure_replicated_run(
    replicas: usize,
    duration: Duration,
    registry: &Arc<Registry>,
) -> (Vec<Row>, RegistrySnapshot) {
    let space = mlq_core::Space::cube(DIMS, 0.0, 1000.0).expect("valid space");
    let group_config = ReplicaGroupConfig {
        replicas,
        serve: serve_config(),
        sync_interval: Duration::from_millis(100),
        mode: SyncMode::Background,
        ..ReplicaGroupConfig::default()
    };
    let mut builder = ReplicaGroup::builder(group_config);
    for name in shard_names() {
        builder = builder.register(&name, &space).expect("register");
    }
    let group = builder.build().expect("build replica group");

    // Pre-train through one replica, then run an anti-entropy round so
    // every replica answers informed predictions from the first probe.
    pretrain(group.replica(0), &shard_names());
    group.flush();
    group.sync().expect("pretrain sync");

    let services: Vec<_> = (0..replicas).map(|r| Arc::clone(group.replica(r))).collect();
    let window = drive(&services, None, duration);

    let report = group.shutdown().expect("first shutdown");
    let feedback_applied: u64 =
        report.replicas.iter().flat_map(|r| r.shards.iter().map(|(_, c)| c.applied)).sum();
    let rows = run_rows(&format!("replicas={replicas}"), &window, feedback_applied, registry);
    (rows, report.metrics)
}

/// Runs the whole sweep and assembles the report, plus the merged
/// metrics of every run: each run records into a fresh registry (runs
/// differ in reader count, so their counters must not blur together),
/// and the per-run snapshots are merged — counters and histograms add,
/// gauges keep their maximum — into one exposition-ready
/// [`RegistrySnapshot`].
#[must_use]
pub fn measure_with_metrics(config: &ThroughputConfig) -> (Report, RegistrySnapshot) {
    let mut merged = RegistrySnapshot::default();
    let mut rows =
        vec![Row::higher("config", "duration_ms", "ms", config.duration.as_millis() as f64)];
    let (scale_to, min_scaling) = if config.replicas > 1 {
        // Replicated mode: a 1-reader single-service control run, then
        // the replica group — same workload shape, so the ratio is the
        // tier's aggregate scaling.
        let registry = Arc::new(Registry::new());
        rows.extend(measure_run(1, config.duration, config.durable, &registry));
        merged.merge(&registry.snapshot());
        let registry = Arc::new(Registry::new());
        let (replicated, group_metrics) =
            measure_replicated_run(config.replicas, config.duration, &registry);
        rows.extend(replicated);
        merged.merge(&registry.snapshot());
        merged.merge(&group_metrics);
        (format!("replicas={}", config.replicas), MIN_REPLICA_SCALING)
    } else {
        for &readers in &config.readers {
            let registry = Arc::new(Registry::new());
            rows.extend(measure_run(readers, config.duration, config.durable, &registry));
            merged.merge(&registry.snapshot());
        }
        (format!("readers={SCALING_READERS}"), MIN_READER_SCALING)
    };
    let mut report = Report::new(config.short, rows);
    let one = report.value("readers=1", "predictions_per_sec");
    let many = report.value(&scale_to, "predictions_per_sec");
    if let (Some(one), Some(many)) = (one, many) {
        if one > 0.0 {
            report.rows.push(
                Row::higher(&format!("readers=1->{scale_to}"), "pps_scaling", "x", many / one)
                    .with_min(min_scaling)
                    .with_needs_cpus(SCALING_NEEDS_CPUS),
            );
        }
    }
    (report, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{assert_bars_match, REPLICATED, SERVE};
    use crate::report::SCHEMA_VERSION;

    fn tiny(readers: Vec<usize>, durable: bool, replicas: usize) -> ThroughputConfig {
        ThroughputConfig {
            readers,
            duration: Duration::from_millis(50),
            durable,
            replicas,
            short: true,
        }
    }

    /// Every run row of `case` is sane.
    fn assert_sane_run(report: &Report, case: &str) {
        let v = |metric| report.value(case, metric).unwrap_or_else(|| panic!("{case} {metric}"));
        assert!(v("predictions") > 0.0, "{case}: readers must complete predictions");
        assert!(v("predictions_per_sec") > 0.0);
        assert!(v("p50_predict_ns") <= v("p99_predict_ns"));
        assert!(v("feedback_applied") > 0.0, "{case}: the writer must land feedback");
    }

    #[test]
    fn a_tiny_run_produces_a_sane_report() {
        let (report, _) = measure_with_metrics(&tiny(vec![1, 2], false, 1));
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_sane_run(&report, "readers=1");
        assert_sane_run(&report, "readers=2");
        assert_bars_match(&report, SERVE);
        assert!(
            report.row("readers=1->readers=4", "pps_scaling").is_none(),
            "no scaling row without a 4-reader run"
        );
    }

    #[test]
    fn a_replicated_run_measures_control_plus_group() {
        // `readers` is ignored in replicated mode.
        let (report, metrics) = measure_with_metrics(&tiny(vec![1, 2, 4], false, 2));
        assert_sane_run(&report, "readers=1");
        assert_sane_run(&report, "replicas=2");
        assert!(report.row("readers=2", "predictions").is_none());
        assert!(
            metrics.counter("mlq_serve_replica_syncs").unwrap_or(0) >= 1,
            "the group must run at least the pre-train anti-entropy round"
        );
        assert_bars_match(&report, REPLICATED);
        let scaling = report.row("readers=1->replicas=2", "pps_scaling").expect("scaling row");
        assert_eq!((scaling.min, scaling.needs_cpus), (Some(2.0), Some(4)));
    }

    #[test]
    fn a_durable_run_journals_and_keeps_the_report_shape() {
        let (report, metrics) = measure_with_metrics(&tiny(vec![1], true, 1));
        assert_sane_run(&report, "readers=1");
        assert!(
            metrics.counter("mlq_serve_wal_commits").unwrap_or(0) > 0,
            "durable mode must actually commit journal batches"
        );
        assert_eq!(
            metrics.gauge("mlq_serve_durability_degraded"),
            Some(0.0),
            "a healthy temp-dir run must not degrade"
        );
    }
}
