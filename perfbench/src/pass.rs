//! What one pass of a workload measures, and the pieces every workload
//! shares: the seeded generator, feedback visibility, and the step
//! boundary where registry series are read.

use crate::checks::{Checks, Fingerprint};
use crate::trace::{LayerTime, Span, Tracer};
use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use mlq_metrics::OnlineNae;
use mlq_obs::{Counter, Gauge, Registry};
use mlq_serve::ConcurrentEstimator;
use std::collections::BTreeMap;
use std::time::Instant;

/// CPU-unit cost of one page read: the serving default, used to combine
/// actual CPU and IO costs exactly as the service combines predictions.
pub const IO_WEIGHT: f64 = 100.0;

/// An empty model with the serving catalog's recipe: lazy insertion, and
/// β = 1 for CPU or β = 10 for IO models.
pub fn catalog_model(space: &Space, budget: usize, beta: u64) -> MemoryLimitedQuadtree {
    let config = MlqConfig::builder(space.clone())
        .memory_budget(budget)
        .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
        .beta(beta)
        .build()
        .expect("the model configuration is valid");
    MemoryLimitedQuadtree::new(config).expect("the model configuration is valid")
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Building inputs, services and models, seconds.
    pub setup_s: f64,
    /// Operations completed.
    pub ops: u64,
    /// Latency of the workload's gated operation, nanoseconds.
    pub op_ns: Vec<u64>,
    /// From an `observe` returning to the return of the `step` that
    /// published it, nanoseconds.
    pub visible_ns: Vec<u64>,
    /// `step` calls, nanoseconds.
    pub step_ns: Vec<u64>,
    /// Time inside estimator calls (predict, observe, step), nanoseconds.
    pub estimator_ns: u64,
    /// Time producing actual costs (UDF execution or cost surface).
    pub work_ns: u64,
    /// Served predictions against actual costs (paper Eq. 10).
    pub nae: OnlineNae,
    /// Summed cost of what the workload served: a row's plan cost, a
    /// chosen candidate's predicted cost, or a prediction.
    pub served_cost: f64,
    /// How many costs `served_cost` sums.
    pub served: u64,
    /// Live model bytes plus cold envelope bytes, summed over `step`s.
    pub resident_bytes: u64,
    /// Calls into the program.
    pub attempted: u64,
    /// Calls that failed, feedback refused, and apply errors.
    pub failed: u64,
    /// Per-layer counts and ratios.
    pub layer: BTreeMap<&'static str, f64>,
    /// Deterministic values at the end of the pass.
    pub fingerprint: Fingerprint,
    /// Deterministic values at the fixed prefix of the pass.
    pub prefix: Fingerprint,
    /// Output-check failures.
    pub checks: Checks,
    /// Wall time of the measured loop, nanoseconds.
    pub loop_ns: u64,
    /// Timed work of the loop scaled to the reference speed, nanoseconds.
    pub scaled_loop_ns: f64,
    /// Calibration points between segments of the loop.
    pub marks: Vec<Mark>,
    /// Untimed work inside the loop (copying a crash image), nanoseconds.
    pub untimed_ns: u64,
    /// Per-layer self times, when traced.
    pub ledger: BTreeMap<&'static str, LayerTime>,
    /// The spans kept for the trace file, when traced.
    pub spans: Vec<Span>,
}

impl Pass {
    /// Records one call into the program and whether it failed.
    pub fn call(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one latency of the workload's gated operation.
    pub fn op(&mut self, ns: u64) {
        self.op_ns.push(ns);
    }

    /// Wall time of the loop's timed work, nanoseconds.
    pub fn timed_ns(&self) -> u64 {
        self.loop_ns.saturating_sub(self.untimed_ns)
    }

    /// Operations per second of the loop's timed work, at the reference
    /// speed.
    pub fn ops_per_s(&self) -> f64 {
        crate::stats::ratio(self.ops as f64 * 1e9, self.scaled_loop_ns)
    }

    /// Ends a segment of the loop with a calibration point, once at least
    /// [`SEGMENT`] has passed since the last one. The kernel's time is
    /// untimed work.
    pub fn mark_speed(&mut self) {
        if self.marks.last().is_some_and(|m| m.at.elapsed() < SEGMENT) {
            return;
        }
        let at = Instant::now();
        let mark = self.mark_at(at, crate::speed::measure());
        self.marks.push(mark);
        self.untimed_ns += u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// A calibration point at `at`, after every sample recorded so far.
    fn mark_at(&self, at: Instant, kernel_ns: u64) -> Mark {
        Mark {
            at,
            ops: self.op_ns.len(),
            visible: self.visible_ns.len(),
            steps: self.step_ns.len(),
            untimed_ns: self.untimed_ns,
            kernel_ns,
        }
    }

    /// Scales set-up time, taken right after the kernel took `kernel_ns`,
    /// to the reference speed. The loop's first calibration point, at its
    /// first step, counts as much (a geometric mean).
    pub fn scale_setup(&mut self, kernel_ns: u64) {
        let after = self.marks.first().map_or(kernel_ns, |m| m.kernel_ns);
        self.setup_s *= crate::speed::scale(kernel_ns).sqrt() * crate::speed::scale(after).sqrt();
    }

    /// Scales every timing of the loop that began at `loop_start` and has
    /// just ended to the reference speed, segment by segment: a segment's
    /// timings by the mean of the calibration points around it (the loop's
    /// first point counts for its start, its last for its end).
    fn scale_loop(&mut self, loop_start: Instant) {
        let end = Instant::now();
        let first = self.marks.first().map_or_else(crate::speed::measure, |m| m.kernel_ns);
        let last = self.marks.last().map_or(first, |m| m.kernel_ns);
        let tail = self.mark_at(end, last);
        let start =
            Mark { at: loop_start, ops: 0, visible: 0, steps: 0, untimed_ns: 0, kernel_ns: first };
        let mut prev = &start;
        self.scaled_loop_ns = 0.0;
        for mark in self.marks.iter().chain(std::iter::once(&tail)) {
            let scale = crate::speed::scale((prev.kernel_ns + mark.kernel_ns) / 2);
            let timed = mark.at.saturating_duration_since(prev.at).as_nanos() as f64
                - mark.untimed_ns.saturating_sub(prev.untimed_ns) as f64;
            self.scaled_loop_ns += timed.max(0.0) * scale;
            for (samples, from, to) in [
                (&mut self.op_ns, prev.ops, mark.ops),
                (&mut self.visible_ns, prev.visible, mark.visible),
                (&mut self.step_ns, prev.steps, mark.steps),
            ] {
                for ns in &mut samples[from..to] {
                    *ns = (*ns as f64 * scale).round() as u64;
                }
            }
            prev = mark;
        }
    }

    /// Adds one served cost.
    pub fn serve(&mut self, cost: f64) {
        self.served_cost += cost;
        self.served += 1;
    }

    /// Counts that must repeat exactly for the same seed.
    pub fn fingerprint_now(&self, svc: &ConcurrentEstimator) -> Fingerprint {
        let m = svc.metrics();
        let mut fp = vec![
            ("ops", self.ops),
            ("nae", self.nae.value().unwrap_or(0.0).to_bits()),
            ("served_cost", self.served_cost.to_bits()),
            ("served", self.served),
        ];
        for (name, family) in [
            ("insertions", "mlq_core_insertions"),
            ("compressions", "mlq_core_compressions"),
            ("compressed_leaves", "mlq_core_sseg_evictions"),
            ("publishes", "mlq_serve_publishes"),
            ("wal_commits", "mlq_serve_wal_commits"),
            ("checkpoints", "mlq_serve_checkpoints"),
            ("evicted_leaves", "mlq_catalog_evicted_leaves"),
            ("hibernations", "mlq_catalog_hibernations"),
            ("wakes", "mlq_catalog_restores"),
        ] {
            fp.push((name, m.sum_counters(family)));
        }
        fp
    }

    /// Reads the end-of-pass state once the loop that began at
    /// `loop_start` is over: loop time, the ledger, registry counts, apply
    /// errors (the service is new in every pass), and the fingerprint.
    pub fn finish(
        &mut self,
        svc: &ConcurrentEstimator,
        loop_start: Instant,
        core: &CoreSeries,
        tracer: Tracer,
    ) {
        self.loop_ns = u64::try_from(loop_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.scale_loop(loop_start);
        self.traced = tracer.is_on();
        self.ledger = tracer.ledger();
        self.spans = tracer.into_spans();
        let m = svc.metrics();
        let sum = |family: &str| m.sum_counters(family) as f64;
        let ratio = crate::stats::ratio;
        let cold = m.gauge("mlq_catalog_cold_bytes").unwrap_or(0.0);
        let apply_errors = m.sum_counters("mlq_serve_apply_errors");
        self.attempted += apply_errors;
        self.failed += apply_errors;

        let (inserts, compressions) = (sum("mlq_core_insertions"), sum("mlq_core_compressions"));
        let commits = sum("mlq_serve_wal_commits");
        let hibernations = sum("mlq_catalog_hibernations");
        let wakes = sum("mlq_catalog_restores");
        let processed = sum("mlq_serve_processed");
        let mut quarantined = 0;
        for name in svc.names() {
            quarantined += svc.counters(name).map_or(0, |c| c.quarantined());
        }
        let layer = &mut self.layer;
        layer.insert("core.insertions", inserts);
        layer.insert("core.compressions", compressions);
        layer.insert("core.compressions_per_insert", ratio(compressions, inserts));
        layer.insert(
            "core.leaves_per_compression",
            ratio(sum("mlq_core_sseg_evictions"), compressions),
        );
        layer.insert("core.insert_ns", ratio(sum("mlq_core_insert_nanos"), inserts));
        layer.insert("core.compress_ns", ratio(sum("mlq_core_compress_nanos"), compressions));
        layer
            .insert("core.freeze_ns", ratio(sum("mlq_core_freeze_nanos"), sum("mlq_core_freezes")));
        layer.insert("core.guard.quarantined_share", ratio(quarantined as f64, 2.0 * processed));
        layer.insert("serve.publishes", sum("mlq_serve_publishes"));
        layer.insert("serve.obs_per_step", ratio(processed, self.step_ns.len() as f64));
        layer.insert("serve.wal.commits", commits);
        layer.insert(
            "serve.wal.obs_per_commit",
            ratio(sum("mlq_serve_wal_appended_records"), commits),
        );
        layer.insert("serve.wal.checkpoints", sum("mlq_serve_checkpoints"));
        layer.insert("serve.fleet.arbitrations", sum("mlq_catalog_arbitrations"));
        layer.insert("serve.fleet.evicted_leaves", sum("mlq_catalog_evicted_leaves"));
        layer.insert("serve.fleet.hibernations", hibernations);
        layer.insert("serve.fleet.wakes", wakes);
        layer.insert("serve.fleet.restores_per_hibernation", ratio(wakes, hibernations));
        layer.insert("serve.fleet.cold_bytes", cold);
        let (shared, total) = core.shared_chunks;
        layer.insert("serve.publish_shared_chunk_ratio", ratio(shared as f64, total as f64));
        self.fingerprint = self.fingerprint_now(svc);
        self.fingerprint.push(("resident_bytes", self.resident_bytes));
    }
}

/// The shortest segment of a loop between two calibration points.
const SEGMENT: std::time::Duration = std::time::Duration::from_millis(20);

/// A calibration point: where the loop stood when the kernel was timed.
pub struct Mark {
    at: Instant,
    /// Samples recorded before it, of each timing.
    ops: usize,
    visible: usize,
    steps: usize,
    /// Untimed work before it, nanoseconds.
    untimed_ns: u64,
    /// The kernel's time, nanoseconds.
    pub kernel_ns: u64,
}

/// Timestamps of enqueued feedback not yet published by a `step`.
#[derive(Default)]
pub struct Visibility {
    pending: Vec<Instant>,
}

impl Visibility {
    /// An `observe` just returned with its feedback enqueued.
    pub fn observed(&mut self) {
        self.pending.push(Instant::now());
    }

    /// A `step` that published every pending observation returned at `at`.
    fn published(&mut self, at: Instant, into: &mut Vec<u64>) {
        for t in self.pending.drain(..) {
            into.push(u64::try_from(at.duration_since(t).as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Handles on the per-model `mlq_core_*_nanos` series, summed across every
/// shard and read at each `step` boundary.
pub struct CoreSeries {
    families: Vec<(&'static str, Vec<Counter>)>,
    /// Snapshot versions and frozen trees seen at the previous step.
    published: Vec<(u64, Option<mlq_core::FrozenTree>, Option<mlq_core::FrozenTree>)>,
    /// Chunks shared with the previous snapshot, and chunks in total.
    shared_chunks: (u64, u64),
    /// `mlq_catalog_cold_bytes`: envelope bytes of hibernated models.
    cold_bytes: Gauge,
}

impl CoreSeries {
    /// Handles for every shard registered in `registry`.
    pub fn new(registry: &Registry, shards: usize) -> Self {
        let names = registry.names();
        let families = [
            ("core.insert", "mlq_core_insert_nanos{"),
            ("core.compress", "mlq_core_compress_nanos{"),
            ("core.freeze", "mlq_core_freeze_nanos{"),
        ]
        .into_iter()
        .map(|(layer, prefix)| {
            let series =
                names.iter().filter(|n| n.starts_with(prefix)).map(|n| registry.counter(n));
            (layer, series.collect())
        })
        .collect();
        CoreSeries {
            families,
            published: vec![(0, None, None); shards],
            shared_chunks: (0, 0),
            cold_bytes: registry.gauge("mlq_catalog_cold_bytes"),
        }
    }

    fn read(&self) -> Vec<u64> {
        self.families.iter().map(|(_, series)| series.iter().map(Counter::get).sum()).collect()
    }

    /// Counts how much of each republished snapshot is shared with the
    /// one it replaced (`FrozenTree::shared_chunks`).
    fn note_publishes(&mut self, svc: &ConcurrentEstimator) {
        for (idx, name) in svc.names().into_iter().enumerate() {
            let Ok(snap) = svc.snapshot(name) else { continue };
            let (cpu, io) = snap.components();
            let entry = &mut self.published[idx];
            if entry.0 != snap.version() {
                for (prev, now) in [(&entry.1, cpu.tree()), (&entry.2, io.tree())] {
                    if let Some(prev) = prev {
                        self.shared_chunks.0 += now.shared_chunks(prev) as u64;
                        self.shared_chunks.1 += now.shared_chunks(now) as u64;
                    }
                }
                *entry = (snap.version(), Some(cpu.tree().clone()), Some(io.tree().clone()));
            }
        }
    }
}

/// One `step` of the manual maintainer, with its span, the `core` time
/// read from the registry inside it, and feedback visibility. Returns the
/// live model bytes after the step.
pub fn step(
    svc: &ConcurrentEstimator,
    tracer: &Tracer,
    core: &mut CoreSeries,
    vis: &mut Visibility,
    pass: &mut Pass,
) -> usize {
    let before = tracer.is_on().then(|| core.read());
    let timer = tracer.begin("serve.step");
    let outcome = svc.step(usize::MAX);
    if let Some(before) = before {
        let after = core.read();
        for ((layer, _), (a, b)) in core.families.iter().zip(after.iter().zip(&before)) {
            tracer.derived(layer, a - b);
        }
    }
    let ns = tracer.end(timer);
    vis.published(Instant::now(), &mut pass.visible_ns);
    pass.step_ns.push(ns);
    pass.estimator_ns += ns;
    pass.call(outcome.is_ok());
    if tracer.is_on() {
        core.note_publishes(svc);
    }
    let live = svc.fleet_live_bytes().unwrap_or(0);
    pass.resident_bytes += (live + core.cold_bytes.get() as usize) as u64;
    pass.mark_speed();
    live
}
