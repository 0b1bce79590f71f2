//! The robustness acceptance suite: deterministic storage faults, an
//! adversarial feedback stream against the guarded model,
//! property-based corruption tests for the snapshot envelope, and a
//! hostile-payload fuzzer for the snapshot decoder behind the checksum.
//!
//! Everything here is seed-driven — the same faults fire at the same
//! operations on every run, on every platform — so a failure is a real
//! regression, never flake.

use mlq_core::{
    seal_frame, BreakerState, CostModel, GuardConfig, GuardedModel, InsertionStrategy,
    MemoryLimitedQuadtree, MlqConfig, MlqError, RestoreOutcome, Space, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use mlq_storage::{
    BufferPool, DiskSim, FaultConfig, FaultInjector, HeapFileBuilder, RetryPolicy, StorageError,
    PAGE_SIZE,
};
use proptest::prelude::*;

fn space() -> Space {
    Space::cube(2, 0.0, 1000.0).unwrap()
}

fn quadtree(budget: usize) -> MemoryLimitedQuadtree {
    let config = MlqConfig::builder(space())
        .memory_budget(budget)
        .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
        .build()
        .unwrap();
    MemoryLimitedQuadtree::new(config).unwrap()
}

/// A quadtree whose backing storage can fault: observations consult a
/// seeded fault schedule and fail with [`MlqError::IoFault`] when the
/// "device" does — the failure mode the guard's circuit breaker exists
/// for.
struct StorageBackedModel {
    tree: MemoryLimitedQuadtree,
    faults: Option<FaultInjector>,
}

impl CostModel for StorageBackedModel {
    fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.tree.predict(point)
    }

    fn observe(&mut self, point: &[f64], actual: f64) -> Result<(), MlqError> {
        if let Some(inj) = &mut self.faults {
            if inj.on_read() != mlq_storage::fault::ReadFault::None {
                return Err(MlqError::IoFault { reason: "backing page unavailable".into() });
            }
        }
        self.tree.insert(point, actual).map(|_| ())
    }

    fn memory_used(&self) -> usize {
        self.tree.bytes_used()
    }

    fn name(&self) -> String {
        "storage-backed".into()
    }
}

/// The headline scenario from the issue: a seeded 10 % storage fault
/// rate plus an adversarial feedback stream (NaNs, out-of-space points,
/// 100× outliers). The guarded model must never panic, must trip to its
/// fallback during a device outage while continuing to serve
/// predictions, and must return to `Closed` once the faults stop.
#[test]
fn guarded_model_survives_faults_and_adversarial_feedback() {
    let inner = StorageBackedModel { tree: quadtree(1 << 14), faults: None };
    let guard = GuardConfig { trip_threshold: 3, probe_after: 8, ..GuardConfig::default() };
    let mut model = GuardedModel::new(inner, space(), guard).unwrap();

    // A deterministic point/cost stream: clustered honest feedback.
    let honest = |i: u64| {
        let x = (i.wrapping_mul(97) % 1000) as f64;
        let y = (i.wrapping_mul(31) % 1000) as f64;
        ([x, y], 40.0 + (i % 9) as f64)
    };

    // Phase A — healthy warmup.
    for i in 0..200 {
        let (p, c) = honest(i);
        model.observe(&p, c).unwrap();
    }
    assert_eq!(model.state(), BreakerState::Closed);

    // Phase B — 10 % storage fault rate AND hostile values interleaved.
    let config = FaultConfig { seed: 0xFA17, read_error_rate: 0.10, ..FaultConfig::none() };
    model.inner_mut().faults = Some(FaultInjector::new(config).unwrap());
    let mut quarantined = 0u64;
    let mut rejected_values = 0u64;
    for i in 0..500u64 {
        let (p, c) = honest(i);
        // Every 7th observation is hostile, cycling three attack shapes.
        let result = match i % 21 {
            6 => model.observe(&p, f64::NAN),
            13 => model.observe(&[p[0] + 1e6, -1e6], c),
            20 => model.observe(&p, c * 100.0),
            _ => model.observe(&p, c),
        };
        match result {
            Ok(()) => {}
            Err(MlqError::FeedbackQuarantined { .. }) => quarantined += 1,
            Err(MlqError::NonFiniteValue { .. }) => rejected_values += 1,
            Err(other) => panic!("guard leaked an unexpected error: {other}"),
        }
        // Predictions keep flowing through faults and hostility alike —
        // and never reflect the 100x outliers.
        let predicted = model.predict(&p).unwrap();
        let predicted = predicted.expect("warmed-up model always has an answer");
        assert!(
            predicted.is_finite() && (0.0..500.0).contains(&predicted),
            "prediction {predicted} poisoned at step {i}"
        );
    }
    assert!(quarantined > 0, "100x outliers were never quarantined");
    assert!(rejected_values > 0, "NaN costs were never rejected");
    assert!(model.counters().clamped_points > 0, "out-of-space points were never clamped");

    // Phase C — total device outage: repeated inner failures trip the
    // breaker; the fallback keeps answering.
    let outage = FaultConfig { seed: 0xDEAD, read_error_rate: 1.0, ..FaultConfig::none() };
    model.inner_mut().faults = Some(FaultInjector::new(outage).unwrap());
    for i in 0..10 {
        let (p, c) = honest(i);
        model.observe(&p, c).unwrap();
    }
    assert_eq!(model.state(), BreakerState::Open, "outage did not trip the breaker");
    assert!(model.counters().trips >= 1);
    let during_outage = model.predict(&[500.0, 500.0]).unwrap();
    assert!(during_outage.is_some(), "fallback stopped serving during the outage");

    // Phase D — faults stop; the same guard instance probes its way
    // back: Open → HalfOpen → Closed.
    model.inner_mut().faults = None;
    for i in 0..300 {
        let (p, c) = honest(i);
        model.observe(&p, c).unwrap();
        if model.state() == BreakerState::Closed {
            break;
        }
    }
    assert_eq!(model.state(), BreakerState::Closed, "did not recover once faults stopped");
    assert!(model.counters().probes >= 1);
    model.inner().tree.check_invariants().unwrap();
}

/// The storage layer under a seeded 10 % fault rate: bounded retries
/// absorb every transient fault, the workload completes, and the fault
/// schedule is bit-for-bit reproducible across runs.
#[test]
fn heap_scans_survive_ten_percent_fault_rate_deterministically() {
    let run = |seed: u64| -> (u64, mlq_storage::FaultStats) {
        let mut disk = DiskSim::new();
        let mut builder = HeapFileBuilder::new(&mut disk);
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let record = vec![(i % 251) as u8; 40 + (i as usize % 100)];
            rids.push(builder.append(&record).unwrap());
        }
        let file = builder.finish().unwrap();
        let config = FaultConfig {
            seed,
            read_error_rate: 0.10,
            bit_flip_rate: 0.0, // flips would corrupt records; tested separately
            ..FaultConfig::none()
        };
        disk.set_fault_injector(FaultInjector::new(config).unwrap());
        let pool = BufferPool::new(disk, 4)
            .with_retry_policy(RetryPolicy { max_attempts: 10, ..RetryPolicy::default() });
        let mut bytes_read = 0u64;
        for rid in &rids {
            bytes_read += file.read(&pool, *rid).unwrap().len() as u64;
        }
        let stats = pool.disk().fault_stats().unwrap();
        assert!(stats.read_errors > 0, "10 % rate never fired over {} reads", stats.reads_seen);
        assert!(pool.retry_stats().recovered > 0);
        assert_eq!(pool.retry_stats().exhausted, 0, "a retry budget of 10 should never exhaust");
        (bytes_read, stats)
    };
    let (bytes_a, stats_a) = run(0x10AD);
    let (bytes_b, stats_b) = run(0x10AD);
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(stats_a, stats_b, "same seed must give the same fault schedule");
    let (_, stats_c) = run(0xBEEF);
    assert_ne!(stats_a, stats_c, "different seeds should differ");
}

/// Torn writes leave detectably-invalid pages, and a full rewrite
/// repairs them — the write-side contract the snapshot envelope's
/// atomic-rename strategy relies on.
#[test]
fn torn_page_writes_are_repaired_by_rewrite() {
    let mut disk = DiskSim::new();
    let id = disk.alloc(vec![0xAB; PAGE_SIZE]);
    let torn_only = FaultConfig { seed: 3, torn_write_rate: 1.0, ..FaultConfig::none() };
    disk.set_fault_injector(FaultInjector::new(torn_only).unwrap());
    let new_image = vec![0xCD; PAGE_SIZE];
    assert!(matches!(disk.write(id, &new_image), Err(StorageError::IoFault { op: "write", .. })));
    disk.clear_fault_injector();
    let torn = disk.read(id).unwrap();
    assert!(torn.contains(&0xAB) && torn.contains(&0xCD), "not torn");
    disk.write(id, &new_image).unwrap();
    assert!(disk.read(id).unwrap().iter().all(|&b| b == 0xCD));
}

fn trained(seed: u64) -> MemoryLimitedQuadtree {
    let mut m = quadtree(4096);
    for i in 0..400u64 {
        let x = (seed.wrapping_add(i).wrapping_mul(2_654_435_761) % 1000) as f64;
        let y = (seed.wrapping_add(i).wrapping_mul(40_503) % 1000) as f64;
        m.insert(&[x, y], (i % 23) as f64).unwrap();
    }
    m
}

fn fallback() -> MlqConfig {
    MlqConfig::builder(space())
        .memory_budget(4096)
        .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte/bit mutations of a snapshot envelope never panic
    /// the restore path, and every restore either round-trips the model
    /// exactly or reports corruption — no silent half-restores.
    #[test]
    fn mutated_snapshots_restore_exactly_or_report_corruption(
        seed in 0u64..1000,
        flips in prop::collection::vec((0.0..1.0f64, 0u8..8), 1..6),
    ) {
        let original = trained(seed);
        let clean = original.snapshot().to_envelope();
        let mut bytes = clean.clone();
        for (frac, bit) in &flips {
            let idx = ((bytes.len() - 1) as f64 * frac) as usize;
            bytes[idx] ^= 1 << bit;
        }
        let outcome = MemoryLimitedQuadtree::restore(&bytes, fallback()).unwrap();
        if outcome.is_restored() {
            // Only reachable when the flips cancelled out exactly.
            prop_assert_eq!(&bytes, &clean, "corrupt bytes restored silently");
            let restored = outcome.into_model();
            restored.check_invariants().unwrap();
            prop_assert_eq!(restored.node_count(), original.node_count());
            prop_assert_eq!(restored.root_summary(), original.root_summary());
        }
    }

    /// Truncations at every length never panic and never silently
    /// restore.
    #[test]
    fn truncated_snapshots_never_restore(seed in 0u64..200, cut in 0.0..1.0f64) {
        let bytes = trained(seed).snapshot().to_envelope();
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        let outcome = MemoryLimitedQuadtree::restore(&bytes[..keep], fallback()).unwrap();
        prop_assert!(!outcome.is_restored());
        if let RestoreOutcome::CorruptFellBackToFresh { model, .. } = outcome {
            model.check_invariants().unwrap();
        }
    }

    /// A clean round-trip always restores, and the restored tree passes
    /// the full invariant checker.
    #[test]
    fn clean_snapshots_always_restore(seed in 0u64..1000) {
        let original = trained(seed);
        let outcome =
            MemoryLimitedQuadtree::restore(&original.snapshot().to_envelope(), fallback())
                .unwrap();
        prop_assert!(outcome.is_restored());
        let restored = outcome.into_model();
        restored.check_invariants().unwrap();
        prop_assert_eq!(restored.node_count(), original.node_count());
    }

    /// Any feedback stream — points far outside the space, huge costs,
    /// tiny costs — leaves a guarded quadtree with intact invariants and
    /// finite predictions. The guard may reject individual observations;
    /// it must never corrupt the model or panic.
    #[test]
    fn guarded_inserts_preserve_invariants(
        stream in prop::collection::vec(
            (-2000.0..4000.0f64, -2000.0..4000.0f64, 0.0..1e9f64),
            1..200,
        ),
    ) {
        let mut g = GuardedModel::for_quadtree(quadtree(4096), GuardConfig::default()).unwrap();
        for (x, y, cost) in &stream {
            match g.observe(&[*x, *y], *cost) {
                Ok(()) | Err(MlqError::FeedbackQuarantined { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        g.inner().check_invariants().unwrap();
        let p = g.predict(&[500.0, 500.0]).unwrap();
        if let Some(v) = p {
            prop_assert!(v.is_finite());
        }
    }
}

/// Seed of the hostile-payload fuzzer; CI sweeps many.
fn snapshot_fuzz_seed() -> u64 {
    std::env::var("MLQ_SNAPSHOT_FUZZ_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED)
}

/// SplitMix64: a tiny deterministic generator, so every mutation replays
/// exactly from the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Payload offsets of the documented version-2 layout for the 2-D lazy
/// models `trained` builds: dims, 2 lows, 2 highs, budget, strategy tag,
/// α, β, γ, λ, flag, node count, then 31-byte nodes.
const DIMS_AT: usize = 0;
const TAG_AT: usize = 1 + 4 * 8 + 8;
const GAMMA_AT: usize = TAG_AT + 1 + 8 + 8;
const COUNT_AT: usize = GAMMA_AT + 8 + 1 + 1;
const NODES_AT: usize = COUNT_AT + 4;
const NODE_LEN: usize = 31;

/// The snapshot decoder sees hostile payloads inside intact envelopes:
/// every mutation is re-sealed with `seal_frame`, so the CRC passes and
/// only the binary decoder and `from_snapshot` stand between the bytes
/// and the optimizer. Restore must never panic; a payload that restores
/// must yield a tree that passes the invariant checker and that freezes
/// and predicts without panicking. Mutations that break a documented
/// field constraint must never restore.
#[test]
fn hostile_snapshot_payloads_never_panic_or_restore_invalid_trees() {
    let seed = snapshot_fuzz_seed();
    let mut rng = SplitMix64(seed);
    let probes: Vec<[f64; 2]> = (0..16)
        .map(|i| [f64::from(i) * 66.0, 1000.0 - f64::from(i) * 61.0])
        .chain([[-5.0, 2000.0], [500.0, 500.0]])
        .collect();
    for round in 0..300usize {
        let envelope = trained(seed.wrapping_add(round as u64 / 30)).snapshot().to_envelope();
        let mut payload = envelope[20..].to_vec();
        assert_eq!(payload[DIMS_AT], 2);
        assert_eq!(payload[TAG_AT], 1);
        let nodes = (payload.len() - NODES_AT) / NODE_LEN;
        let kind = round % 10;
        // Whether the mutation breaks a field constraint outright.
        let must_reject = match kind {
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let idx = rng.below(payload.len());
                    payload[idx] ^= 1 << rng.below(8);
                }
                false
            }
            1 => {
                payload.truncate(rng.below(payload.len()));
                true
            }
            2 => {
                payload[COUNT_AT..COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                true
            }
            3 => {
                payload[DIMS_AT] = if rng.below(2) == 0 { 0 } else { 17 };
                true
            }
            4 => {
                payload[GAMMA_AT..GAMMA_AT + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
                true
            }
            5 => {
                payload[TAG_AT] = 2;
                true
            }
            6 => {
                for _ in 0..1 + rng.below(16) {
                    payload.push(rng.next_u64() as u8);
                }
                true
            }
            7 => {
                // Re-point a non-root node at a random parent index.
                let node = 1 + rng.below(nodes - 1);
                let at = NODES_AT + node * NODE_LEN + 27;
                let parent = rng.below(nodes + 2) as u32;
                payload[at..at + 4].copy_from_slice(&parent.to_le_bytes());
                false
            }
            8 => {
                // Overwrite one random byte of the node stream.
                let idx = NODES_AT + rng.below(nodes * NODE_LEN);
                payload[idx] = rng.next_u64() as u8;
                false
            }
            _ => {
                // Swap two node records: breaks pre-order or slot order.
                let (a, b) = (rng.below(nodes), rng.below(nodes));
                for k in 0..NODE_LEN {
                    payload.swap(NODES_AT + a * NODE_LEN + k, NODES_AT + b * NODE_LEN + k);
                }
                false
            }
        };
        let bytes = seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload);
        let outcome = MemoryLimitedQuadtree::restore(&bytes, fallback()).unwrap();
        match outcome {
            RestoreOutcome::Restored(model) => {
                assert!(!must_reject, "seed {seed} round {round}: mutation {kind} restored");
                if let Err(e) = model.check_invariants() {
                    panic!("seed {seed} round {round}: restored tree fails invariants: {e}");
                }
                let frozen = model.freeze();
                for p in &probes {
                    let _ = model.predict(p);
                    let _ = frozen.predict(p);
                }
            }
            RestoreOutcome::CorruptFellBackToFresh { model, reason } => {
                assert!(!reason.is_empty());
                model.check_invariants().unwrap();
            }
            RestoreOutcome::VersionMismatch { .. } => {
                panic!("seed {seed} round {round}: the version field was never mutated")
            }
        }
    }
}
