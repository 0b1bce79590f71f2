//! Crash-safety of the serving tier: the write-ahead feedback journal,
//! checkpoint/recovery, fault injection, and graceful degradation.
//!
//! The load-bearing invariant is **recovery equivalence**: after a crash
//! at *any* injected crash point, a recovered service's predictions are
//! bit-identical to a reference estimator fed the recovered feedback
//! prefix from scratch — and that prefix always covers every observation
//! the journal acknowledged before the crash. The crash sweep drives a
//! seeded workload into a deliberately dying service for every crash
//! operation at several occurrences, then proves the invariant.
//!
//! Seeds come from `MLQ_DURABILITY_SEED` (CI sweeps many); on an
//! equivalence failure the recovered-vs-reference diff is written under
//! `target/durability-diff/` for the CI artifact upload.

use mlq_serve::{
    ConcurrentEstimator, CrashOp, CrashPoint, DurabilityConfig, DurabilityStatus, MaintainerMode,
    RestoreKind, RetryPolicy, ServeConfig, CRASH_OPS,
};
use mlq_storage::FaultConfig;
use mlq_udfs::ExecutionCost;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const NAMES: [&str; 2] = ["ALPHA", "BETA"];
/// Observations in the seed run (phase A) and the crash run (phase B).
const PHASE_A: usize = 36;
const PHASE_B: usize = 54;
/// Observations fed per manual maintenance step.
const CHUNK: usize = 6;

fn space() -> mlq_core::Space {
    mlq_core::Space::cube(2, 0.0, 100.0).unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: 4096,
        ..ServeConfig::default()
    }
}

fn harness_seed() -> u64 {
    std::env::var("MLQ_DURABILITY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlq_durability_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SplitMix64: the same tiny deterministic generator the storage fault
/// injector uses, so workloads replay exactly from a seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Obs {
    shard: usize,
    point: [f64; 2],
    cost: ExecutionCost,
}

/// A seeded workload across every shard, with continuous (tie-free)
/// costs so model state is a sensitive witness of the applied prefix.
fn workload(seed: u64, n: usize) -> Vec<Obs> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|_| Obs {
            shard: (rng.next_u64() % NAMES.len() as u64) as usize,
            point: [rng.next_f64() * 100.0, rng.next_f64() * 100.0],
            cost: ExecutionCost {
                cpu: 0.5 + rng.next_f64() * 19.5,
                io: 0.25 + rng.next_f64() * 7.75,
                results: 1 + rng.next_u64() % 100,
            },
        })
        .collect()
}

fn build_durable(dir: &PathBuf, crash: Option<CrashPoint>) -> ConcurrentEstimator {
    let mut dconfig = DurabilityConfig::new(dir);
    dconfig.checkpoint_every = 3;
    dconfig.crash = crash;
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    b.with_durability_config(dconfig).build().unwrap()
}

/// Feeds `obs` in deterministic CHUNK-sized maintenance steps.
fn feed(svc: &ConcurrentEstimator, obs: &[Obs]) {
    for chunk in obs.chunks(CHUNK) {
        for o in chunk {
            svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        }
        svc.step(CHUNK).unwrap();
    }
}

fn probe_points() -> Vec<[f64; 2]> {
    let mut points = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            points.push([4.0 + 19.0 * f64::from(i), 7.0 + 18.5 * f64::from(j)]);
        }
    }
    points
}

/// Per-shard probe predictions as bit patterns (`None` kept distinct).
fn predictions(svc: &ConcurrentEstimator) -> Vec<Vec<Option<u64>>> {
    NAMES
        .iter()
        .map(|name| {
            probe_points().iter().map(|p| svc.predict(name, p).unwrap().map(f64::to_bits)).collect()
        })
        .collect()
}

/// The ground truth: a fresh, non-durable estimator fed exactly the
/// first `counts[shard]` observations of each shard, in stream order.
fn reference_predictions(stream: &[Obs], counts: &[u64]) -> Vec<Vec<Option<u64>>> {
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    let svc = b.build().unwrap();
    let mut fed = vec![0u64; NAMES.len()];
    for o in stream {
        if fed[o.shard] < counts[o.shard] {
            fed[o.shard] += 1;
            svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        }
    }
    svc.flush();
    let preds = predictions(&svc);
    svc.shutdown();
    assert_eq!(fed, counts, "stream too short for requested prefix");
    preds
}

fn diff_artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".into());
    PathBuf::from(target).join("durability-diff")
}

/// Asserts bit-identical predictions; on mismatch writes the full diff
/// to `target/durability-diff/<tag>.txt` before panicking.
fn assert_equivalent(tag: &str, recovered: &[Vec<Option<u64>>], reference: &[Vec<Option<u64>>]) {
    if recovered == reference {
        return;
    }
    let mut diff = format!("recovery equivalence failure: {tag}\n");
    for (s, name) in NAMES.iter().enumerate() {
        for (i, p) in probe_points().iter().enumerate() {
            let (got, want) = (recovered[s][i], reference[s][i]);
            if got != want {
                diff.push_str(&format!(
                    "shard {name} probe {p:?}: recovered {got:?} != reference {want:?}\n"
                ));
            }
        }
    }
    let dir = diff_artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{tag}.txt"));
    std::fs::write(&path, &diff).ok();
    panic!("{diff}\n(diff written to {})", path.display());
}

/// One full crash case: seed disk state, crash a second run at `crash`,
/// recover, and prove the recovered service equals the reference fed the
/// recovered prefix — which must cover everything acknowledged durable.
fn run_crash_case(seed: u64, crash: CrashPoint, tag: &str) {
    let dir = temp_dir(tag);
    let stream = workload(seed, PHASE_A + PHASE_B);

    // Phase A: a clean run leaves checkpoints (and possibly a journal
    // tail) on disk, so the crash run also exercises startup recovery.
    let svc = build_durable(&dir, None);
    feed(&svc, &stream[..PHASE_A]);
    svc.shutdown();

    // Phase B: the dying run.
    let svc = build_durable(&dir, Some(crash));
    feed(&svc, &stream[PHASE_A..]);
    let acked: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    let crashed = svc.durability_status() == DurabilityStatus::Crashed;
    // Snapshots keep serving after the crash point fires.
    for name in NAMES {
        svc.predict(name, &[50.0, 50.0]).unwrap();
    }
    svc.shutdown();

    // Phase C: recovery.
    let svc = build_durable(&dir, None);
    assert_eq!(svc.durability_status(), DurabilityStatus::Active);
    let report = svc.recovery_report().clone();
    assert_eq!(report.shards.len(), NAMES.len());
    let mut counts = vec![0u64; NAMES.len()];
    for shard in &report.shards {
        let idx = NAMES.iter().position(|n| *n == shard.name).unwrap();
        counts[idx] = shard.recovered_seq;
        assert!(
            shard.recovered_seq >= acked[idx],
            "{tag}: shard {} recovered seq {} < acked {} (crashed={crashed}, detail: {})",
            shard.name,
            shard.recovered_seq,
            acked[idx],
            shard.detail,
        );
    }
    let total: u64 = counts.iter().sum();
    assert!(total <= (PHASE_A + PHASE_B) as u64, "{tag}: recovered more than was ever fed");

    let recovered = predictions(&svc);
    svc.shutdown();
    let reference = reference_predictions(&stream, &counts);
    assert_equivalent(tag, &recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash sweep: every crash operation, at several occurrences (the
/// low ones land in startup recovery, the higher ones in steady state),
/// with torn-write cuts for the journal write. Recovery must be exact
/// after every single one.
#[test]
fn every_crash_point_recovers_the_acked_prefix_exactly() {
    let seed = harness_seed();
    for op in CRASH_OPS {
        let torn_cuts: &[usize] = if op == CrashOp::WalWrite { &[0, 9, 57] } else { &[0] };
        for at in [1u32, 2, 3, 5, 9] {
            for &torn_bytes in torn_cuts {
                let crash = CrashPoint { op, at, torn_bytes };
                let tag = format!("seed{seed}_{op:?}_at{at}_torn{torn_bytes}");
                run_crash_case(seed, crash, &tag);
            }
        }
    }
}

/// A clean shutdown checkpoints everything: recovery replays nothing and
/// the recovered service predicts bit-identically to the one that shut
/// down.
#[test]
fn clean_restart_replays_nothing_and_serves_identically() {
    let seed = harness_seed() ^ 0xC1EA;
    let dir = temp_dir("clean_restart");
    let stream = workload(seed, PHASE_A + PHASE_B);

    let svc = build_durable(&dir, None);
    feed(&svc, &stream);
    let before = predictions(&svc);
    let fed: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    svc.shutdown();

    let svc = build_durable(&dir, None);
    for shard in &svc.recovery_report().shards {
        assert_eq!(shard.kind, RestoreKind::Restored, "shard {}: {}", shard.name, shard.detail);
        assert_eq!(shard.replayed, 0, "clean shutdown left journal records: {}", shard.detail);
    }
    let after_counts: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    assert_eq!(after_counts, fed);
    let after = predictions(&svc);
    svc.shutdown();
    assert_equivalent("clean_restart", &after, &before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A rotted newest checkpoint generation degrades recovery to the
/// previous one and surfaces as `corrupt_recovered` in both the report
/// and the `mlq_serve_restore_outcome` startup counter.
#[test]
fn corrupt_newest_checkpoint_recovers_from_previous_generation() {
    let seed = harness_seed() ^ 0xB17;
    let dir = temp_dir("corrupt_gen");
    let stream = workload(seed, PHASE_A);

    let svc = build_durable(&dir, None);
    feed(&svc, &stream);
    svc.shutdown();

    // Rot every newest-generation tree file.
    let mut rotted = 0;
    let mut newest: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(prefix) = name.strip_suffix(".meta") {
            let (stem, generation) = prefix.rsplit_once('.').unwrap();
            let generation: u64 = generation.parse().unwrap();
            let e = newest.entry(stem.to_string()).or_insert(generation);
            *e = (*e).max(generation);
        }
    }
    for (stem, generation) in &newest {
        let path = dir.join(format!("{stem}.{generation}.cpu.mlqs"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        rotted += 1;
    }
    assert_eq!(rotted, NAMES.len());

    let svc = build_durable(&dir, None);
    let metrics = svc.metrics();
    for shard in &svc.recovery_report().shards {
        assert_eq!(
            shard.kind,
            RestoreKind::CorruptRecovered,
            "shard {}: {}",
            shard.name,
            shard.detail
        );
        assert_eq!(
            metrics.counter_labeled(
                "mlq_serve_restore_outcome",
                &[("udf", &shard.name), ("outcome", "corrupt_recovered")],
            ),
            Some(1),
        );
    }
    // The fallback generation plus the journal tail still reconstructs a
    // serveable prefix bit-identically.
    let counts: Vec<u64> = svc.recovery_report().shards.iter().map(|s| s.recovered_seq).collect();
    let recovered = predictions(&svc);
    svc.shutdown();
    let reference = reference_predictions(&stream, &counts);
    assert_equivalent("corrupt_gen", &recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Version-1 checkpoints (JSON tree payloads) are not readable by this
/// build: recovery must not panic, must report every shard as
/// `corrupt_recovered` with the version named in the detail, and must
/// serve fresh models that relearn from new feedback.
#[test]
fn version_1_tree_files_recover_as_corrupt_and_relearn() {
    let dir = temp_dir("v1_trees");
    let stream = workload(harness_seed() ^ 0x1, PHASE_A);
    let svc = build_durable(&dir, None);
    feed(&svc, &stream);
    svc.shutdown();

    // Replace every tree file with what a version-1 build wrote: a JSON
    // payload in an intact, CRC-valid version-1 frame.
    let json = br#"{"config":{"space":{"lows":[0.0,0.0],"highs":[100.0,100.0]},"memory_budget":4096,"strategy":"Eager","beta":1,"gamma":0.001,"lambda":6},"nodes":[{"summary":{"sum":0.0,"count":0,"sum_sq":0.0},"depth":0,"slot_in_parent":0,"parent":null}],"had_compression":false}"#;
    let mut replaced = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry.file_name().to_string_lossy().ends_with(".mlqs") {
            std::fs::write(entry.path(), mlq_core::seal_frame(mlq_core::SNAPSHOT_MAGIC, 1, json))
                .unwrap();
            replaced += 1;
        }
    }
    assert!(replaced >= 2 * NAMES.len(), "only {replaced} tree files");

    let svc = build_durable(&dir, None);
    let report = svc.recovery_report();
    assert_eq!(report.shards.len(), NAMES.len());
    for shard in &report.shards {
        assert_eq!(shard.kind, RestoreKind::CorruptRecovered, "{}: {}", shard.name, shard.detail);
        assert!(
            shard.detail.contains("unsupported snapshot version 1"),
            "{}: detail does not name the version: {}",
            shard.name,
            shard.detail
        );
    }
    // Learned state is gone; new feedback is learned again.
    for name in NAMES {
        assert_eq!(svc.predict(name, &[50.0, 50.0]).unwrap(), None);
    }
    feed(&svc, &stream);
    for name in NAMES {
        assert!(svc.predict(name, &[50.0, 50.0]).unwrap().is_some(), "{name} did not relearn");
    }
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// When persistence cannot be established at all, the circuit breaker
/// drops the layer to in-memory-only serving: status `Degraded`, the
/// `mlq_serve_durability_degraded` gauge raised, the failure recorded —
/// and predictions keep flowing.
#[test]
fn persistent_sync_failure_degrades_to_in_memory_serving() {
    let dir = temp_dir("degrade");
    let mut dconfig = DurabilityConfig::new(&dir);
    dconfig.fault = Some(FaultConfig { seed: 7, sync_error_rate: 1.0, ..FaultConfig::none() });
    dconfig.retry = RetryPolicy { max_retries: 2, backoff: Duration::ZERO };
    dconfig.degrade_after = 2;
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    let svc = b.with_durability_config(dconfig).build().unwrap();

    assert_eq!(svc.durability_status(), DurabilityStatus::Degraded);
    assert_eq!(svc.metrics().gauge("mlq_serve_durability_degraded"), Some(1.0));
    assert!(svc.durability_error().is_some(), "the tripping failure must be inspectable");

    // In-memory serving continues: feedback still applies, reads work.
    let stream = workload(11, 24);
    feed(&svc, &stream);
    let _ = svc.predict(NAMES[0], &[50.0, 50.0]).expect("degraded reads must not error");
    for name in NAMES {
        assert_eq!(svc.durable_seq(name).unwrap(), 0, "degraded mode must not claim durability");
    }
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transient journal and checkpoint faults — write errors, torn
    /// writes, failed fsyncs, failed renames — are retried into full
    /// durability: the layer stays `Active`, every observation becomes
    /// durable, and recovery is still bit-exact.
    #[test]
    fn transient_faults_never_lose_acked_feedback(
        seed in 0u64..1u64 << 48,
        write_rate in 0.0..0.35f64,
        torn_rate in 0.0..0.25f64,
        sync_rate in 0.0..0.25f64,
        rename_rate in 0.0..0.25f64,
    ) {
        let dir = temp_dir(&format!("proptest_{seed}"));
        let stream = workload(seed ^ 0xF417, PHASE_A);

        let mut dconfig = DurabilityConfig::new(&dir);
        dconfig.checkpoint_every = 2;
        dconfig.fault = Some(FaultConfig {
            seed,
            write_error_rate: write_rate,
            torn_write_rate: torn_rate,
            sync_error_rate: sync_rate,
            rename_error_rate: rename_rate,
            ..FaultConfig::none()
        });
        dconfig.retry = RetryPolicy { max_retries: 64, backoff: Duration::ZERO };
        let mut b = ConcurrentEstimator::builder(serve_config());
        for name in NAMES {
            b = b.register(name, &space()).unwrap();
        }
        let svc = b.with_durability_config(dconfig).build().unwrap();
        feed(&svc, &stream);
        prop_assert_eq!(svc.durability_status(), DurabilityStatus::Active);
        let mut fed = vec![0u64; NAMES.len()];
        for o in &stream {
            fed[o.shard] += 1;
        }
        for (idx, name) in NAMES.iter().enumerate() {
            prop_assert_eq!(svc.durable_seq(name).unwrap(), fed[idx]);
        }
        svc.shutdown();

        let svc = build_durable(&dir, None);
        let counts: Vec<u64> =
            svc.recovery_report().shards.iter().map(|s| s.recovered_seq).collect();
        prop_assert_eq!(&counts, &fed);
        let recovered = predictions(&svc);
        svc.shutdown();
        let reference = reference_predictions(&stream, &counts);
        assert_equivalent(&format!("proptest_seed{seed}"), &recovered, &reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}
