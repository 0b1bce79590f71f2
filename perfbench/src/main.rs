//! Benchmark of the MLQ serving stack: the paper's Fig. 1 feedback loop
//! through every layer, batched plan ranking, and fleet churn under a
//! global memory budget, with a per-layer ledger from a traced run.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload optimizer_loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload is a closed loop driven by one client thread against a
//! `ConcurrentEstimator` in `MaintainerMode::Manual`: the client calls
//! `step()` itself, so nothing else runs and every count repeats for a
//! seed. A run is an untimed warm-up pass followed by timed passes (each
//! set-up plus a fixed-length stream of operations) until `--seconds`
//! have passed, and at least three of them. Every timed pass draws its
//! inputs from its own seed, derived from `--seed`. Every timing is scaled
//! to a reference speed by a calibration kernel timed between segments of
//! each pass (`speed`), because a shared host's cores change speed with
//! their neighbours' load. Throughput is the median over the passes, and
//! latency quantiles are taken over the samples of all of them. The last
//! line of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The exit code is
//! 1 when an output check failed and 2 on bad arguments.

mod checks;
mod fleet_churn;
mod fsinfo;
mod optimizer_loop;
mod pass;
mod rank_batch;
mod speed;
mod stats;
mod trace;

use checks::Checks;
use pass::Pass;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload optimizer_loop|rank_batch|fleet_churn|all \
                     --seed N --seconds S --trace 0|1";

/// Fewest timed passes in an untraced run. The deterministic metrics are
/// read over this many passes, which every run completes.
const MIN_PASSES: usize = 3;
/// Fewest timed passes in a traced run: two untraced and two traced,
/// alternating.
const MIN_TRACED_PASSES: usize = 4;
/// Most timed passes in one run, whatever `--seconds` asks.
const MAX_PASSES: usize = 64;
/// Scratch space for journals, crash images and trace files, inside the
/// checkout whatever the working directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const WORKLOADS: [&str; 3] = ["optimizer_loop", "rank_batch", "fleet_churn"];

/// End-to-end metrics: name, unit, and what the workload's operation is.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("nae", "ratio"),
    ("cost_per_op", "cost"),
    ("resident_model_bytes", "bytes"),
    ("model_overhead_pct", "%"),
    ("feedback_visible_p50_us", "us"),
    ("feedback_visible_p90_us", "us"),
];

/// Layers of the ledger, as span names. `client` is the workload's own
/// code between calls: drawing queries, ranking candidates, bookkeeping.
const LEDGER: [&str; 13] = [
    "optimizer",
    "udfs",
    "serve.predict",
    "serve.predict_batch",
    "serve.snapshot",
    "serve.observe",
    "serve.step",
    "serve.wake",
    "core.insert",
    "core.compress",
    "core.freeze",
    "synth",
    "client",
];

/// Per-layer metrics read from the pass's counts, with their units.
const COUNTS: [(&str, &str); 24] = [
    ("udfs.pages_missed_per_call", "count"),
    ("optimizer.evaluations_per_row", "count"),
    ("optimizer.qualified_share", "ratio"),
    ("serve.obs_per_step", "count"),
    ("serve.publishes", "count"),
    ("serve.publish_shared_chunk_ratio", "ratio"),
    ("serve.wal.commits", "count"),
    ("serve.wal.obs_per_commit", "count"),
    ("serve.wal.checkpoints", "count"),
    ("serve.recover_ms", "ms"),
    ("serve.fleet.arbitrations", "count"),
    ("serve.fleet.evicted_leaves", "count"),
    ("serve.fleet.hibernations", "count"),
    ("serve.fleet.wakes", "count"),
    ("serve.fleet.restores_per_hibernation", "ratio"),
    ("serve.fleet.cold_bytes", "bytes"),
    ("core.insertions", "count"),
    ("core.compressions", "count"),
    ("core.compressions_per_insert", "ratio"),
    ("core.leaves_per_compression", "count"),
    ("core.insert_ns", "ns"),
    ("core.compress_ns", "ns"),
    ("core.freeze_ns", "ns"),
    ("core.guard.quarantined_share", "ratio"),
];

/// Per-layer metrics that are one layer's self time per call.
const PER_CALL: [(&str, &str); 8] = [
    ("udfs.execute_ns", "udfs"),
    ("optimizer.self_ns", "optimizer"),
    ("serve.predict_ns", "serve.predict"),
    ("serve.snapshot_ns", "serve.snapshot"),
    ("serve.observe_ns", "serve.observe"),
    ("serve.step_self_ns", "serve.step"),
    ("serve.wake_ns", "serve.wake"),
    ("synth.cost_ns", "synth"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one pass, with its set-up time scaled to the reference speed.
fn run_pass(workload: &str, seed: u64, traced: bool, prefix_only: bool, dir: &Path) -> Pass {
    let kernel_ns = speed::measure();
    let mut pass = match workload {
        "optimizer_loop" => optimizer_loop::run(seed, traced, prefix_only, dir),
        "rank_batch" => rank_batch::run(seed, traced, prefix_only),
        "fleet_churn" => fleet_churn::run(seed, traced, prefix_only),
        other => unreachable!("workload {other} was validated when parsing"),
    };
    pass.scale_setup(kernel_ns);
    pass
}

/// The seed of timed pass `k` of a run with seed `seed`. Each pass draws
/// its own inputs, so a run's medians cover several input streams and
/// depend little on any one of them.
fn pass_seed(seed: u64, k: usize) -> u64 {
    pass::Rng::new(seed, 0x9A55 + k as u64).next_u64()
}

/// What one workload run reports.
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Checks,
    attempted: u64,
    failed: u64,
}

fn run_workload(workload: &str, args: &Args, scratch: &Path) -> Outcome {
    let start = Instant::now();
    let dir = scratch.join(format!("{workload}-{}", std::process::id()));
    let min_passes = if args.trace { MIN_TRACED_PASSES } else { MIN_PASSES };
    // The warm-up repeats the first timed pass's inputs, untimed: it fills
    // caches and shows that the same seed gives the same results.
    let warm_up = run_pass(workload, pass_seed(args.seed, 0), false, false, &dir.join("warm-up"));
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MAX_PASSES {
        let k = passes.len();
        let traced = args.trace && k % 2 == 1;
        passes.push(run_pass(
            workload,
            pass_seed(args.seed, k),
            traced,
            false,
            &dir.join(k.to_string()),
        ));
        if passes.len() >= min_passes && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut checks = Checks::default();
    checks.note(checks::same_seed_repeats(&warm_up.fingerprint, &passes[0].fingerprint));
    checks.note(checks::same_seed_repeats(&warm_up.prefix, &passes[0].prefix));
    checks.note(checks::seed_matters(&passes[0].prefix, &passes[1].prefix));
    let (mut attempted, mut failed) = (warm_up.attempted, warm_up.failed);
    checks.absorb(warm_up.checks);
    for p in &mut passes {
        checks.absorb(std::mem::take(&mut p.checks));
        attempted += p.attempted;
        failed += p.failed;
    }
    let timed_s: f64 = passes.iter().map(|p| p.loop_ns as f64 / 1e9).sum();
    println!(
        "{workload} seed {}: {} timed passes, {timed_s:.2} s in their loops, {:.2} s in all",
        args.seed,
        passes.len(),
        start.elapsed().as_secs_f64()
    );
    let metrics =
        if args.trace { per_layer(workload, &passes, scratch) } else { end_to_end(&passes) };
    Outcome { metrics, checks, attempted, failed }
}

fn concat<T: Copy>(passes: &[&Pass], field: impl Fn(&Pass) -> &[T]) -> Vec<T> {
    passes.iter().flat_map(|p| field(p).iter().copied()).collect()
}

fn us(samples: &[u64], q: f64) -> f64 {
    stats::quantile(samples, q).unwrap_or(0) as f64 / 1e3
}

/// The median over `passes` of a value computed per pass.
fn median_of<'a>(passes: impl IntoIterator<Item = &'a Pass>, f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.into_iter().map(f).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn end_to_end(passes: &[Pass]) -> Vec<(String, f64, &'static str)> {
    let all: Vec<&Pass> = passes.iter().collect();
    // The deterministic metrics come from the passes every run completes.
    let fixed = &passes[..MIN_PASSES];
    let sum = |f: fn(&Pass) -> f64| fixed.iter().map(f).sum::<f64>();
    let overhead = |p: &Pass| 100.0 * p.estimator_ns as f64 / p.work_ns.max(1) as f64;
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let per_pass: Vec<f64> = passes.iter().map(Pass::ops_per_s).collect();
    // Latency samples are pooled over the passes: a pass's tail depends on
    // which models its seed wakes on fleet_churn, so the median of
    // per-pass quantiles varies more from run to run than this does.
    let op_ns = concat(&all, |p| &p.op_ns);
    let visible_ns = concat(&all, |p| &p.visible_ns);
    println!("setup per pass: {setups:.4?} s");
    println!("ops per second per pass: {per_pass:.0?}");
    let raw: Vec<f64> =
        passes.iter().map(|p| stats::ratio(p.ops as f64 * 1e9, p.timed_ns() as f64)).collect();
    println!("unscaled ops per second per pass: {raw:.0?}");
    let kernel: Vec<f64> = passes
        .iter()
        .map(|p| stats::median(&p.marks.iter().map(|m| m.kernel_ns as f64).collect::<Vec<_>>()))
        .map(|m| m.unwrap_or(0.0) / 1e3)
        .collect();
    println!("calibration kernel per pass, median: {kernel:.1?} us");
    println!("{}", stats::describe("op latency, all passes", &op_ns));
    println!("{}", stats::describe("feedback visible, all passes", &visible_ns));
    println!("{}", stats::describe("step, all passes", &concat(&all, |p| &p.step_ns)));
    let values = [
        stats::median(&setups).unwrap_or(0.0),
        stats::median(&per_pass).unwrap_or(0.0),
        us(&op_ns, 0.5),
        us(&op_ns, 0.9),
        sum(|p| p.nae.value().unwrap_or(0.0)) / MIN_PASSES as f64,
        sum(|p| p.served_cost) / sum(|p| p.served as f64).max(1.0),
        sum(|p| p.resident_bytes as f64) / sum(|p| p.step_ns.len() as f64).max(1.0),
        median_of(passes, overhead),
        us(&visible_ns, 0.5),
        us(&visible_ns, 0.9),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name.to_string(), v, unit)).collect()
}

fn per_layer(workload: &str, passes: &[Pass], scratch: &Path) -> Vec<(String, f64, &'static str)> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let mut ledger: BTreeMap<&str, trace::LayerTime> = BTreeMap::new();
    for p in &traced {
        for (name, t) in &p.ledger {
            let entry = ledger.entry(name).or_default();
            entry.self_ns += t.self_ns;
            entry.calls += t.calls;
        }
    }
    // Untimed work (calibration, copying a crash image) records no spans.
    let wall_ns: u64 = traced.iter().map(|p| p.timed_ns()).sum();
    let traced_ops: u64 = traced.iter().map(|p| p.ops).sum();
    let self_ns = |layer: &str| ledger.get(layer).map_or(0, |t| t.self_ns) as f64;
    let per_call = |layer: &str| {
        ledger.get(layer).map_or(0.0, |t| stats::ratio(t.self_ns as f64, t.calls as f64))
    };

    let mut out = Vec::new();
    // Counts come from the first traced pass, whose seed is fixed by
    // `--seed`; the shared-chunk ratio is read only in traced passes.
    let counted = traced.first().copied().unwrap_or(&passes[0]);
    for (name, unit) in COUNTS {
        out.push((name.to_string(), counted.layer.get(name).copied().unwrap_or(0.0), unit));
    }
    let steps = concat(&traced, |p| &p.step_ns);
    let overhead = 100.0
        * (median_of(untraced, Pass::ops_per_s)
            / median_of(traced.iter().copied(), Pass::ops_per_s).max(1e-9)
            - 1.0);
    out.push(("serve.step_p50_us".into(), us(&steps, 0.5), "us"));
    out.push(("serve.step_p99_us".into(), us(&steps, 0.99), "us"));
    out.push(("trace.overhead_pct".into(), overhead, "%"));
    for (name, layer) in PER_CALL {
        out.push((name.to_string(), per_call(layer), "ns"));
    }
    let batch_ns = self_ns("serve.predict_batch");
    let per_point = stats::ratio(batch_ns, traced_ops as f64);
    out.push(("serve.predict_batch_ns_per_point".into(), per_point, "ns"));
    let mut attributed = 0.0;
    for layer in LEDGER {
        let pct = 100.0 * self_ns(layer) / wall_ns.max(1) as f64;
        attributed += pct;
        out.push((format!("ledger.{layer}_pct"), pct, "%"));
    }
    out.push(("ledger.attributed_pct".into(), attributed, "%"));
    let spans: u64 = ledger.values().map(|t| t.calls).sum();
    out.push(("trace.spans".into(), spans as f64, "count"));

    println!("{}", stats::describe("step (traced)", &steps));
    println!("ledger over {:.3} s of traced loops:", wall_ns as f64 / 1e9);
    for layer in LEDGER {
        println!("  {layer:<20} {:6.2} %", 100.0 * self_ns(layer) / wall_ns.max(1) as f64);
    }
    println!("  {:<20} {attributed:6.2} %", "attributed");
    if let Some(p) = traced.first() {
        let path = scratch.join(format!("trace-{workload}.jsonl"));
        match trace::write(&path, &p.spans) {
            Ok(()) => println!("{} spans written to {}", p.spans.len(), path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    out
}

fn print_result(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.passed(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("creating {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let (fs, in_memory) = fsinfo::describe(&scratch);
    println!("durability directory {}: {fs}, memory-backed: {in_memory}", scratch.display());
    println!("available parallelism: {:?}", std::thread::available_parallelism().ok());

    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut total =
        Outcome { metrics: Vec::new(), checks: Checks::default(), attempted: 0, failed: 0 };
    for workload in &workloads {
        let mut outcome = run_workload(workload, &args, &scratch);
        for (name, value, unit) in &mut outcome.metrics {
            if !value.is_finite() {
                outcome.checks.note(Err(format!("metric {name} is {value}")));
                *value = 0.0;
            }
            println!("{workload} {name} = {value} {unit}");
        }
        if !outcome.checks.passed() {
            eprintln!("{workload}: {}", outcome.checks.summary());
        }
        if workloads.len() == 1 {
            total = outcome;
        } else {
            total.metrics.extend(
                outcome.metrics.into_iter().map(|(n, v, u)| (format!("{workload}.{n}"), v, u)),
            );
            total.checks.absorb(outcome.checks);
            total.attempted += outcome.attempted;
            total.failed += outcome.failed;
        }
    }
    print_result(&total);
    if total.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
