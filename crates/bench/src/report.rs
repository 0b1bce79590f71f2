//! The one report shape every `mlq-bench` harness writes
//! (`BENCH_serve.json`, `BENCH_serve_replicated.json`,
//! `BENCH_predict.json`, `BENCH_fleet.json`) and the one regression gate
//! (`mlq-bench --gate`) that compares a fresh report against a committed
//! `*.baseline.json`.
//!
//! A report is a flat list of [`Row`]s keyed by `(case, metric)`. A row
//! may carry its own bar: a relative `bound` against the baseline value,
//! an absolute `min` or `max`, and `needs_cpus`, the host size below
//! which the bar is only noted. The gate reads bars from the *baseline*
//! rows only; the harnesses write each row with the bar it is gated at,
//! so a measured report can be committed as the next baseline as is.
//! Bump [`SCHEMA_VERSION`] on breaking changes so a stale baseline fails
//! loudly instead of comparing apples to oranges.

use serde::{Deserialize, Serialize};

/// Report format version; the gate refuses to compare across versions.
pub const SCHEMA_VERSION: u32 = 2;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Larger values are better (throughput, coverage counts).
    Higher,
    /// Smaller values are better (latency, bytes, overruns).
    Lower,
}

/// One measured number and, optionally, the bar it is gated at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// What was measured: a reader count, a predict case, `config`, ...
    pub case: String,
    /// The quantity within the case.
    pub metric: String,
    /// Unit of `value`.
    pub unit: String,
    /// Direction of improvement; a relative `bound` checks this side.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Allowed relative move the wrong way: a `Higher` row fails below
    /// `value × (1 − bound)` of the baseline, a `Lower` row above
    /// `value × (1 + bound)`.
    pub bound: Option<f64>,
    /// Absolute floor on the measured value.
    pub min: Option<f64>,
    /// Absolute ceiling on the measured value.
    pub max: Option<f64>,
    /// The row's bars are enforced only when the measuring host has at
    /// least this many CPUs (a 1–2 CPU runner cannot show parallel
    /// scaling); below it a failing bar is noted instead.
    pub needs_cpus: Option<usize>,
}

impl Row {
    /// An ungated row where larger values are better.
    #[must_use]
    pub fn higher(case: &str, metric: &str, unit: &str, value: f64) -> Row {
        Row::new(case, metric, unit, Better::Higher, value)
    }

    /// An ungated row where smaller values are better.
    #[must_use]
    pub fn lower(case: &str, metric: &str, unit: &str, value: f64) -> Row {
        Row::new(case, metric, unit, Better::Lower, value)
    }

    fn new(case: &str, metric: &str, unit: &str, better: Better, value: f64) -> Row {
        Row {
            case: case.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            better,
            value,
            bound: None,
            min: None,
            max: None,
            needs_cpus: None,
        }
    }

    /// Gates the row at a relative `bound` against the baseline value.
    #[must_use]
    pub fn with_bound(self, bound: f64) -> Row {
        Row { bound: Some(bound), ..self }
    }

    /// Gates the row at an absolute floor.
    #[must_use]
    pub fn with_min(self, min: f64) -> Row {
        Row { min: Some(min), ..self }
    }

    /// Gates the row at an absolute ceiling.
    #[must_use]
    pub fn with_max(self, max: f64) -> Row {
        Row { max: Some(max), ..self }
    }

    /// Enforces the row's bars only on hosts with at least `cpus` CPUs.
    #[must_use]
    pub fn with_needs_cpus(self, cpus: usize) -> Row {
        Row { needs_cpus: Some(cpus), ..self }
    }

    fn name(&self) -> String {
        format!("{} {}", self.case, self.metric)
    }

    /// Each bar this (baseline) row sets, as `(description, passes?)`
    /// for a measured `value`. A value exactly at its limit passes.
    fn bars(&self, value: f64) -> Vec<(String, bool)> {
        let mut bars = Vec::new();
        if let Some(bound) = self.bound {
            let (side, limit, ok) = match self.better {
                Better::Higher => {
                    let floor = self.value * (1.0 - bound);
                    ("floor", floor, value >= floor)
                }
                Better::Lower => {
                    let ceiling = self.value * (1.0 + bound);
                    ("ceiling", ceiling, value <= ceiling)
                }
            };
            let pct = bound * 100.0;
            bars.push((format!("{side} {limit} ({pct:.0}% off baseline {})", self.value), ok));
        }
        if let Some(min) = self.min {
            bars.push((format!("min {min}"), value >= min));
        }
        if let Some(max) = self.max {
            bars.push((format!("max {max}"), value <= max));
        }
        bars
    }
}

/// A whole `BENCH_*.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// True for `--short` CI-smoke runs.
    pub short_mode: bool,
    /// `std::thread::available_parallelism` on the measuring host; rows
    /// with `needs_cpus` are enforced against this. 0 = not recorded.
    pub host_parallelism: usize,
    /// Every measured number.
    pub rows: Vec<Row>,
}

impl Report {
    /// A report of `rows` measured on this host.
    #[must_use]
    pub fn new(short_mode: bool, rows: Vec<Row>) -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            short_mode,
            host_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            rows,
        }
    }

    /// The first row keyed `(case, metric)`, if present.
    #[must_use]
    pub fn row(&self, case: &str, metric: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.case == case && r.metric == metric)
    }

    /// The value of the first row keyed `(case, metric)`, if present.
    #[must_use]
    pub fn value(&self, case: &str, metric: &str) -> Option<f64> {
        self.row(case, metric).map(|r| r.value)
    }
}

/// The gate's verdict: human-readable failures and informational notes.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Why the gate failed; empty means pass.
    pub failures: Vec<String>,
    /// Context worth printing either way.
    pub notes: Vec<String>,
}

impl Verdict {
    /// True when no check failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `measured` against `baseline`, row by baseline row.
///
/// A schema mismatch fails closed, and so does a baseline row with no
/// measured row of the same `(case, metric)`: coverage must not
/// silently shrink. Each bar of a baseline row is checked against the
/// measured value; a row whose `needs_cpus` exceeds the measured host's
/// parallelism is noted, not enforced. A baseline may hold several rows
/// with one key (say, a relative bound and an absolute floor at
/// different CPU conditions); each is its own check.
#[must_use]
pub fn gate(measured: &Report, baseline: &Report) -> Verdict {
    let mut verdict = Verdict::default();
    if measured.schema_version != SCHEMA_VERSION || baseline.schema_version != SCHEMA_VERSION {
        verdict.failures.push(format!(
            "schema mismatch: measured v{}, baseline v{}, gate speaks v{SCHEMA_VERSION} — \
             regenerate the report or the baseline",
            measured.schema_version, baseline.schema_version
        ));
        return verdict;
    }

    for base in &baseline.rows {
        let Some(got) = measured.row(&base.case, &base.metric) else {
            verdict.failures.push(format!("{}: no measurement (baseline has one)", base.name()));
            continue;
        };
        let enforced = base.needs_cpus.is_none_or(|cpus| measured.host_parallelism >= cpus);
        let bars = base.bars(got.value);
        for (bar, _) in bars.iter().filter(|(_, ok)| !ok) {
            let line = format!("{}: {} {} misses its {bar}", base.name(), got.value, got.unit);
            if enforced {
                verdict.failures.push(line);
            } else {
                verdict.notes.push(format!(
                    "{line} (not enforced: host has {} CPU(s), row needs {})",
                    measured.host_parallelism,
                    base.needs_cpus.unwrap_or(0)
                ));
            }
        }
        // Every gated row reports how far it moved, pass or fail.
        if !bars.is_empty() {
            verdict.notes.push(format!(
                "{}: {} {} ({} vs baseline {})",
                base.name(),
                got.value,
                got.unit,
                delta_pct(got.value, base.value),
                base.value
            ));
        }
    }
    verdict
}

/// `+12.3%` / `-4.5%` of `measured` against `baseline`, for gate notes.
fn delta_pct(measured: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (measured / baseline - 1.0) * 100.0)
}

/// The `pct`-th percentile (0–100) of an ascending-sorted sample, by the
/// nearest-rank method; 0 for an empty sample.
#[must_use]
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const SERVE: &str = include_str!("../../../BENCH_serve.baseline.json");
    pub(crate) const REPLICATED: &str =
        include_str!("../../../BENCH_serve_replicated.baseline.json");
    pub(crate) const PREDICT: &str = include_str!("../../../BENCH_predict.baseline.json");
    pub(crate) const FLEET: &str = include_str!("../../../BENCH_fleet.baseline.json");
    const BASELINES: [(&str, &str); 4] =
        [("serve", SERVE), ("replicated", REPLICATED), ("predict", PREDICT), ("fleet", FLEET)];

    pub(crate) fn load(json: &str) -> Report {
        serde_json::from_str(json).expect("committed baseline parses")
    }

    fn bars(row: &Row) -> (Option<f64>, Option<f64>, Option<f64>, Option<usize>) {
        (row.bound, row.min, row.max, row.needs_cpus)
    }

    /// Every row a harness measured carries the bars of the first
    /// committed baseline row with its key, so a measured report can be
    /// committed as the next baseline without moving a bar.
    pub(crate) fn assert_bars_match(measured: &Report, baseline_json: &str) {
        let baseline = load(baseline_json);
        for row in &measured.rows {
            if let Some(base) = baseline.row(&row.case, &row.metric) {
                assert_eq!(bars(row), bars(base), "{}", row.name());
                assert_eq!((&row.unit, row.better), (&base.unit, base.better), "{}", row.name());
            }
        }
    }

    fn set(report: &mut Report, case: &str, metric: &str, value: f64) {
        let row = report.rows.iter_mut().find(|r| r.case == case && r.metric == metric);
        row.unwrap_or_else(|| panic!("no row {case} {metric}")).value = value;
    }

    fn fails_on(verdict: &Verdict, case: &str, metric: &str) -> bool {
        let name = format!("{case} {metric}:");
        verdict.failures.iter().any(|f| f.starts_with(&name))
    }

    /// `baseline` as a measured report from a `host`-CPU machine that
    /// passes every bar enforced there: one row per key, each value
    /// clamped into every enforced `min`/`max` of its key.
    fn passing(baseline: &Report, host: usize) -> Report {
        let mut measured = Report { host_parallelism: host, rows: Vec::new(), ..baseline.clone() };
        for row in &baseline.rows {
            if measured.row(&row.case, &row.metric).is_some() {
                continue;
            }
            let mut row = row.clone();
            for base in &baseline.rows {
                let enforced = base.needs_cpus.is_none_or(|cpus| host >= cpus);
                if base.case == row.case && base.metric == row.metric && enforced {
                    row.value = row.value.max(base.min.unwrap_or(f64::MIN));
                    row.value = row.value.min(base.max.unwrap_or(f64::MAX));
                }
            }
            measured.rows.push(row);
        }
        assert!(gate(&measured, baseline).passed(), "{:?}", gate(&measured, baseline).failures);
        measured
    }

    /// Each limit `row` sets, with the side a failing value lies on
    /// (`-1.0` below a floor, `+1.0` above a ceiling).
    fn limits(row: &Row) -> Vec<(f64, f64)> {
        let mut limits = Vec::new();
        match (row.bound, row.better) {
            (Some(b), Better::Higher) => limits.push((row.value * (1.0 - b), -1.0)),
            (Some(b), Better::Lower) => limits.push((row.value * (1.0 + b), 1.0)),
            (None, _) => {}
        }
        limits.extend(row.min.map(|m| (m, -1.0)));
        limits.extend(row.max.map(|m| (m, 1.0)));
        limits
    }

    #[test]
    fn every_committed_baseline_passes_against_itself() {
        for (name, json) in BASELINES {
            let baseline = load(json);
            assert_eq!(baseline.schema_version, SCHEMA_VERSION, "{name}");
            let verdict = gate(&baseline, &baseline);
            assert!(verdict.passed(), "{name}: {:?}", verdict.failures);
        }
    }

    /// The bars the committed baselines set, one by one: what each check
    /// enforces and on which hosts.
    #[test]
    fn committed_baselines_set_every_bar() {
        type Bars = (Option<f64>, Option<f64>, Option<f64>, Option<usize>);
        let gated = |report: &Report| -> Vec<(String, Bars)> {
            report
                .rows
                .iter()
                .filter(|r| bars(r) != (None, None, None, None))
                .map(|r| (r.name(), bars(r)))
                .collect()
        };
        let pps = (Some(0.2), None, None, None);
        assert_eq!(
            gated(&load(SERVE)),
            [
                ("readers=1 predictions_per_sec".into(), pps),
                ("readers=2 predictions_per_sec".into(), pps),
                ("readers=4 predictions_per_sec".into(), pps),
                ("readers=1->readers=4 pps_scaling".into(), (None, Some(3.0), None, Some(4))),
            ]
        );
        assert_eq!(
            gated(&load(REPLICATED)),
            [
                ("readers=1 predictions_per_sec".into(), pps),
                ("replicas=4 predictions_per_sec".into(), pps),
                ("readers=1->replicas=4 pps_scaling".into(), (None, Some(2.0), None, Some(4))),
            ]
        );
        let predict = load(PREDICT);
        let mut want = Vec::new();
        for case in ["d2-small", "d2-large", "d4-mid", "d4-large"] {
            let prior = predict.rows.iter().rfind(|r| r.case == case && r.metric == "batch_pps");
            let prior = prior.expect("prior row").value;
            want.extend([
                (format!("{case} single_pps"), (Some(0.35), None, None, None)),
                (format!("{case} p50_single_ns"), (Some(1.0), None, None, None)),
                (format!("{case} p99_single_ns"), (Some(1.0), None, None, None)),
                (format!("{case} batch_pps"), (Some(0.35), None, None, None)),
                (format!("{case} batch_speedup"), (None, Some(1.35), None, None)),
                (format!("{case} batch_pps"), (None, Some(2.0 * prior), None, Some(4))),
            ]);
        }
        assert_eq!(gated(&predict), want);
        let count = (None, Some(1.0), None, None);
        assert_eq!(
            gated(&load(FLEET)),
            [
                ("fleet events_per_sec".into(), (Some(0.35), None, None, None)),
                ("fleet evicted_leaves".into(), count),
                ("fleet hibernations".into(), count),
                ("fleet restores".into(), count),
                ("fleet budget_overruns".into(), (None, None, Some(0.0), None)),
            ]
        );
    }

    /// Every bar of every committed baseline row passes a value exactly
    /// at its limit and fails one just past it, naming the row; a
    /// CPU-conditional bar only notes on a host one CPU short.
    #[test]
    fn each_bar_fails_just_past_its_limit_and_passes_at_it() {
        for (name, json) in BASELINES {
            let baseline = load(json);
            for row in &baseline.rows {
                let host = row.needs_cpus.unwrap_or(1);
                for (limit, side) in limits(row) {
                    let past = limit + side * (limit.abs() * 1e-9).max(1e-9);
                    let mut measured = passing(&baseline, host);
                    set(&mut measured, &row.case, &row.metric, limit);
                    let verdict = gate(&measured, &baseline);
                    assert!(verdict.passed(), "{name} {} at {limit}: {:?}", row.name(), verdict);

                    set(&mut measured, &row.case, &row.metric, past);
                    let verdict = gate(&measured, &baseline);
                    assert!(
                        fails_on(&verdict, &row.case, &row.metric),
                        "{name} {} at {past} must fail: {verdict:?}",
                        row.name()
                    );

                    if let Some(cpus) = row.needs_cpus {
                        measured.host_parallelism = cpus - 1;
                        let verdict = gate(&measured, &baseline);
                        assert!(verdict.passed(), "{name} {}: {verdict:?}", row.name());
                        assert!(verdict.notes.iter().any(|n| n.contains("not enforced")));
                    }
                }
            }
        }
    }

    #[test]
    fn a_25_percent_serve_slowdown_fails() {
        for json in [SERVE, REPLICATED] {
            let baseline = load(json);
            let mut slow = baseline.clone();
            for row in &mut slow.rows {
                if row.metric == "predictions_per_sec" {
                    row.value *= 0.75;
                }
            }
            let verdict = gate(&slow, &baseline);
            for row in baseline.rows.iter().filter(|r| r.metric == "predictions_per_sec") {
                assert!(fails_on(&verdict, &row.case, &row.metric), "{verdict:?}");
            }
        }
    }

    #[test]
    fn regression_beyond_the_serve_bound_fails() {
        let baseline = load(SERVE);
        let base = baseline.value("readers=1", "predictions_per_sec").unwrap();
        let mut measured = baseline.clone();
        set(&mut measured, "readers=1", "predictions_per_sec", base * 0.79);
        assert!(fails_on(&gate(&measured, &baseline), "readers=1", "predictions_per_sec"));
        // 20% down exactly is still within the bound.
        set(&mut measured, "readers=1", "predictions_per_sec", base * 0.8);
        assert!(gate(&measured, &baseline).passed());
    }

    #[test]
    fn a_missing_case_fails() {
        for (json, case) in [(SERVE, "readers=4"), (PREDICT, "d4-large"), (FLEET, "fleet")] {
            let baseline = load(json);
            let mut partial = baseline.clone();
            partial.rows.retain(|r| r.case != case);
            let verdict = gate(&partial, &baseline);
            assert!(!verdict.passed());
            assert!(verdict.failures.iter().all(|f| f.starts_with(case)), "{verdict:?}");
            assert!(verdict.failures.iter().any(|f| f.contains("no measurement")));
        }
    }

    #[test]
    fn a_schema_mismatch_fails_closed() {
        for (_, json) in BASELINES {
            let baseline = load(json);
            let mut skewed = baseline.clone();
            skewed.schema_version += 1;
            assert!(!gate(&skewed, &baseline).passed());
            assert!(gate(&baseline, &skewed).failures[0].contains("schema mismatch"));
        }
    }

    #[test]
    fn scaling_is_enforced_only_on_capable_hosts() {
        let baseline = load(SERVE);
        let mut flat = baseline.clone();
        set(&mut flat, "readers=1->readers=4", "pps_scaling", 1.1);
        flat.host_parallelism = 8;
        assert!(fails_on(&gate(&flat, &baseline), "readers=1->readers=4", "pps_scaling"));
        // The same flat scaling on a 2-CPU host: noted, not enforced.
        flat.host_parallelism = 2;
        let verdict = gate(&flat, &baseline);
        assert!(verdict.passed(), "{:?}", verdict.failures);
        assert!(verdict.notes.iter().any(|n| n.contains("not enforced")));
    }

    #[test]
    fn the_speedup_floor_is_absolute() {
        // Both paths tripled, but batch no longer beats single by the
        // floor: a structural regression of the batched path.
        let baseline = load(PREDICT);
        let mut flat = baseline.clone();
        let single = baseline.value("d2-small", "single_pps").unwrap();
        set(&mut flat, "d2-small", "single_pps", single * 3.0);
        set(&mut flat, "d2-small", "batch_pps", single * 3.3);
        set(&mut flat, "d2-small", "batch_speedup", 1.1);
        let verdict = gate(&flat, &baseline);
        assert!(fails_on(&verdict, "d2-small", "batch_speedup"), "{verdict:?}");
        assert_eq!(verdict.failures.len(), 1, "{verdict:?}");
    }

    #[test]
    fn the_prior_floor_is_enforced_only_on_capable_hosts() {
        // The committed d2-small batch_pps is 1.21x its prior: below the
        // 2x floor, so a 4-CPU host fails it and a 2-CPU host notes it.
        let baseline = load(PREDICT);
        let mut measured = baseline.clone();
        measured.host_parallelism = 4;
        let verdict = gate(&measured, &baseline);
        assert!(fails_on(&verdict, "d2-small", "batch_pps"), "{verdict:?}");
        measured.host_parallelism = 2;
        let verdict = gate(&measured, &baseline);
        assert!(verdict.passed(), "{:?}", verdict.failures);
        assert!(verdict
            .notes
            .iter()
            .any(|n| n.starts_with("d2-small batch_pps") && n.contains("not enforced")));
    }

    #[test]
    fn passing_notes_carry_per_row_deltas() {
        let baseline = load(PREDICT);
        let mut measured = baseline.clone();
        let single = baseline.value("d2-small", "single_pps").unwrap();
        set(&mut measured, "d2-small", "single_pps", single * 1.1);
        let verdict = gate(&measured, &baseline);
        assert!(verdict.passed(), "{:?}", verdict.failures);
        assert!(
            verdict
                .notes
                .iter()
                .any(|n| n.starts_with("d2-small single_pps") && n.contains("+10.0% vs baseline")),
            "{:?}",
            verdict.notes
        );
    }

    #[test]
    fn fleet_overruns_fail_regardless_of_throughput() {
        let baseline = load(FLEET);
        let mut bad = baseline.clone();
        let eps = baseline.value("fleet", "events_per_sec").unwrap();
        set(&mut bad, "fleet", "events_per_sec", eps * 2.0);
        set(&mut bad, "fleet", "budget_overruns", 3.0);
        let verdict = gate(&bad, &baseline);
        assert!(fails_on(&verdict, "fleet", "budget_overruns"), "{verdict:?}");
        assert_eq!(verdict.failures.len(), 1);
    }

    #[test]
    fn a_fleet_run_that_never_exercised_the_machinery_fails() {
        let baseline = load(FLEET);
        let mut idle = baseline.clone();
        set(&mut idle, "fleet", "hibernations", 0.0);
        set(&mut idle, "fleet", "restores", 0.0);
        let verdict = gate(&idle, &baseline);
        assert!(fails_on(&verdict, "fleet", "hibernations"));
        assert!(fails_on(&verdict, "fleet", "restores"));
        assert_eq!(verdict.failures.len(), 2);
    }

    #[test]
    fn a_fleet_throughput_regression_fails() {
        let baseline = load(FLEET);
        let mut slow = baseline.clone();
        let eps = baseline.value("fleet", "events_per_sec").unwrap();
        set(&mut slow, "fleet", "events_per_sec", eps * 0.5);
        assert!(fails_on(&gate(&slow, &baseline), "fleet", "events_per_sec"));
    }

    #[test]
    fn a_report_roundtrips_through_json() {
        let report = Report::new(
            true,
            vec![
                Row::higher("readers=1", "predictions_per_sec", "1/s", 123_456.7).with_bound(0.2),
                Row::lower("fleet", "budget_overruns", "count", 0.0).with_max(0.0),
                Row::higher("x", "scaling", "x", 1.5).with_min(2.0).with_needs_cpus(4),
                Row::lower("d2-small", "nodes", "count", 978.0),
            ],
        );
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), 50);
        assert_eq!(percentile_ns(&v, 99.0), 99);
        assert_eq!(percentile_ns(&v, 100.0), 100);
    }
}
