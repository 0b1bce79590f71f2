//! `mlq-bench` — the serving-layer bench harnesses and their CI gate.
//!
//! ```text
//! mlq-bench --throughput [--short] [--durable] [--readers 1,2,4] [--replicas N]
//!           [--duration-ms N] [--out PATH] [--metrics-out PATH]
//! mlq-bench --predict [--short] [--out PATH]
//! mlq-bench --fleet [--short] [--models N] [--out PATH]
//! mlq-bench --gate MEASURED.json BASELINE.json
//! ```
//!
//! `--throughput` measures predictions/sec, p50/p99 predict latency, and
//! feedback lag across reader-thread counts, writing `BENCH_serve.json`;
//! `--metrics-out` additionally writes the merged registry snapshot of
//! every run as Prometheus-style text exposition, `--durable` runs the
//! service with the write-ahead feedback journal enabled (temp-dir,
//! removed after each run) so the journaling overhead is visible against
//! a non-durable baseline, and `--replicas N` measures the replicated
//! tier instead (`BENCH_serve_replicated.json`). `--predict` measures the
//! single-call vs. batched read path over packed snapshots across
//! dimensionalities and model sizes, writing `BENCH_predict.json`.
//! `--fleet` drives a skewed multi-model workload under one tight global
//! budget through the fleet arbiter, writing `BENCH_fleet.json`. Every
//! report has one shape, and `--gate` exits nonzero when a measured
//! report misses a bar its baseline sets.

use mlq_bench::fleet::{measure_fleet, FleetBenchConfig};
use mlq_bench::predict::{measure_predict, PredictConfig};
use mlq_bench::report::{gate, Report};
use mlq_bench::throughput::{measure_with_metrics, ThroughputConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         mlq-bench --throughput [--short] [--durable] [--readers 1,2,4] [--replicas N]\n  \
         \u{20}                 [--duration-ms N] [--out PATH] [--metrics-out PATH]\n  \
         mlq-bench --predict [--short] [--out PATH]\n  \
         mlq-bench --fleet [--short] [--models N] [--out PATH]\n  \
         mlq-bench --gate MEASURED.json BASELINE.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--throughput") => run_throughput(&args[1..]),
        Some("--predict") => run_predict(&args[1..]),
        Some("--fleet") => run_fleet(&args[1..]),
        Some("--gate") => run_gate(&args[1..]),
        _ => usage(),
    }
}

/// Prints every row of `report` and writes it as JSON to `out`.
fn write_report(report: &Report, out: &str) -> ExitCode {
    for row in &report.rows {
        println!("{:>22}  {:<22} {:>16.2} {}", row.case, row.metric, row.value, row.unit);
    }
    let json = match serde_json::to_string_pretty(report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("serializing report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out} ({} CPU host)", report.host_parallelism);
    ExitCode::SUCCESS
}

fn run_predict(args: &[String]) -> ExitCode {
    let mut short = false;
    let mut out = String::from("BENCH_predict.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--short" => short = true,
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else { return usage() };
                out = path.clone();
            }
            _ => return usage(),
        }
        i += 1;
    }
    let config = if short { PredictConfig::short() } else { PredictConfig::full() };
    eprintln!(
        "measuring single vs batched predictions: {} rounds/case{}",
        config.rounds,
        if config.short { " (short mode)" } else { "" }
    );
    write_report(&measure_predict(&config), &out)
}

fn run_fleet(args: &[String]) -> ExitCode {
    let mut short = false;
    let mut models: Option<usize> = None;
    let mut out = String::from("BENCH_fleet.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--short" => short = true,
            "--models" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 2 => models = Some(n),
                    _ => {
                        eprintln!("--models wants a fleet of at least 2");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else { return usage() };
                out = path.clone();
            }
            _ => return usage(),
        }
        i += 1;
    }
    let mut config = if short { FleetBenchConfig::short() } else { FleetBenchConfig::full() };
    if let Some(n) = models {
        config.models = n;
        config.hot_models = config.hot_models.min(n - 1).max(1);
    }
    eprintln!(
        "measuring fleet arbitration: {} models ({} hot), {} B global budget, {} mixed events{}",
        config.models,
        config.hot_models,
        config.global_budget,
        config.events,
        if config.short { " (short mode)" } else { "" }
    );
    write_report(&measure_fleet(&config), &out)
}

fn run_throughput(args: &[String]) -> ExitCode {
    let mut short = false;
    let mut durable = false;
    let mut readers: Option<Vec<usize>> = None;
    let mut replicas: Option<usize> = None;
    let mut duration: Option<Duration> = None;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--short" => short = true,
            "--durable" => durable = true,
            "--readers" => {
                i += 1;
                let Some(list) = args.get(i) else { return usage() };
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(str::trim).map(str::parse).collect();
                match parsed {
                    Ok(r) if !r.is_empty() && r.iter().all(|&n| n > 0) => readers = Some(r),
                    _ => {
                        eprintln!("--readers wants a comma-separated list of positive counts");
                        return ExitCode::from(2);
                    }
                }
            }
            "--duration-ms" => {
                i += 1;
                let Some(ms) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                duration = Some(Duration::from_millis(ms));
            }
            "--replicas" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => replicas = Some(n),
                    _ => {
                        eprintln!("--replicas wants a positive count");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else { return usage() };
                out = Some(path.clone());
            }
            "--metrics-out" => {
                i += 1;
                let Some(path) = args.get(i) else { return usage() };
                metrics_out = Some(path.clone());
            }
            _ => return usage(),
        }
        i += 1;
    }
    let mut config = if short { ThroughputConfig::short() } else { ThroughputConfig::full() };
    config.durable = durable;
    if let Some(r) = readers {
        config.readers = r;
    }
    if let Some(n) = replicas {
        config.replicas = n;
    }
    if let Some(d) = duration {
        config.duration = d;
    }
    // Replicated reports gate against their own baseline, so they get
    // their own default file name.
    let out = out.unwrap_or_else(|| {
        if config.replicas > 1 {
            String::from("BENCH_serve_replicated.json")
        } else {
            String::from("BENCH_serve.json")
        }
    });

    if config.replicas > 1 {
        eprintln!(
            "measuring replicated serving throughput: {} replicas vs 1-reader control, {} ms/run{}",
            config.replicas,
            config.duration.as_millis(),
            if config.short { " (short mode)" } else { "" }
        );
    } else {
        eprintln!(
            "measuring serving throughput: readers {:?}, {} ms/run{}{}",
            config.readers,
            config.duration.as_millis(),
            if config.short { " (short mode)" } else { "" },
            if config.durable { " (durable: temp-dir WAL + checkpoints)" } else { "" }
        );
    }
    let (report, metrics) = measure_with_metrics(&config);
    let written = write_report(&report, &out);
    if written != ExitCode::SUCCESS {
        return written;
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, metrics.to_prometheus_text()) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} ({} metrics)", metrics.len());
    }
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn run_gate(args: &[String]) -> ExitCode {
    let [measured_path, baseline_path] = args else {
        return usage();
    };
    let (measured, baseline) = match (load_report(measured_path), load_report(baseline_path)) {
        (Ok(m), Ok(b)) => (m, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let verdict = gate(&measured, &baseline);
    for note in &verdict.notes {
        println!("  {note}");
    }
    if verdict.passed() {
        println!("bench gate: PASS ({measured_path} vs {baseline_path})");
        ExitCode::SUCCESS
    } else {
        for failure in &verdict.failures {
            eprintln!("bench gate FAILURE: {failure}");
        }
        ExitCode::FAILURE
    }
}
