//! Perf-trajectory records: machine-readable `BENCH_*.json` emission,
//! parsing, and regression diffing.
//!
//! A [`BenchReport`] captures one measurement session under the stable
//! `rshuffle-bench/1` schema: the git commit, one [`BenchRun`] per
//! experiment, and per-configuration [`BenchResult`] rows holding
//! scalar metrics (latency percentiles, throughput) plus per-stage
//! latency digests ([`HistogramSummary`]). Because the simulator is
//! deterministic, re-running the same experiment on the same tree
//! reproduces the report bit-for-bit — a committed baseline
//! (`BENCH_0008.json`) is therefore an exact perf contract that
//! `perfdiff` enforces in CI with a configurable tolerance.
//!
//! The rows are also the only thing the `bench` runner prints:
//! [`BenchRun::markdown`] renders them as the tables EXPERIMENTS.md holds.

use std::fmt::Write as _;

use rshuffle_obs::{stage::Stage, HistogramSnapshot, HistogramSummary, Snapshot};
use serde::{Serialize, Value};

/// Schema tag written into every report; bump on breaking layout
/// changes so `perfdiff` refuses to compare across formats.
pub const SCHEMA: &str = "rshuffle-bench/1";

/// One scalar metric row with its explicit gating direction.
///
/// The direction is part of the record, not inferred from the name at
/// diff time: a metric named `throughput_ns` would be ambiguous under
/// name inference, and silently guessing wrong would flip the gate.
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Metric name, unique within its result row.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Which way the gate lets this metric move.
    pub direction: Direction,
}

impl MetricRow {
    /// A latency-like metric: regression when it goes up.
    pub fn lower(name: &str, value: f64) -> Self {
        MetricRow {
            name: name.to_string(),
            value,
            direction: Direction::LowerIsBetter,
        }
    }

    /// A throughput-like metric: regression when it goes down.
    pub fn higher(name: &str, value: f64) -> Self {
        MetricRow {
            name: name.to_string(),
            value,
            direction: Direction::HigherIsBetter,
        }
    }

    /// A tracked-but-never-gated metric (e.g. memory footprints).
    pub fn info(name: &str, value: f64) -> Self {
        MetricRow {
            name: name.to_string(),
            value,
            direction: Direction::Informational,
        }
    }
}

/// One measured configuration of a benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Stable row id, e.g. `"MESQ/SR/N=2"` or `"MEMQ/RD/msg=64KiB"`.
    pub id: String,
    /// Gated scalar metrics.
    pub metrics: Vec<MetricRow>,
    /// Per-stage latency digests (informational; not gated).
    pub stages: Vec<(String, HistogramSummary)>,
}

/// One experiment's worth of results.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Experiment id, e.g. `"concurrency"`.
    pub bench: String,
    /// The configuration the rows were measured under.
    pub config: Vec<(String, Value)>,
    /// Measured rows.
    pub results: Vec<BenchResult>,
}

impl BenchRun {
    /// The run as markdown: the id and configuration, then the result
    /// rows as tables with one column per metric (stage digests are left
    /// to the JSON). A row whose metric names differ from those of the
    /// row above it starts a new table. Whole numbers print as integers,
    /// everything else with three decimals.
    pub fn markdown(&self) -> String {
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| {
                let value = serde_json::to_string(v).expect("values serialize");
                format!("{k} = {value}")
            })
            .collect();
        let mut out = format!("**{}** ({})\n", self.bench, config.join(", "));
        let mut columns: Option<Vec<&str>> = None;
        for r in &self.results {
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            if columns.as_ref() != Some(&names) {
                let _ = writeln!(out, "\n| row | {} |", names.join(" | "));
                let _ = writeln!(out, "|---|{}", "---:|".repeat(names.len()));
                columns = Some(names);
            }
            let cells: Vec<String> = r
                .metrics
                .iter()
                .map(|m| match m.value {
                    v if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
                    v => format!("{v:.3}"),
                })
                .collect();
            let _ = writeln!(out, "| {} | {} |", r.id, cells.join(" | "));
        }
        out
    }
}

/// A full measurement session: what `BENCH_*.json` holds.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Git commit of the measured tree (`"unknown"` outside a repo).
    /// Informational: `perfdiff` ignores it when comparing.
    pub commit: String,
    /// One entry per benchmark.
    pub benches: Vec<BenchRun>,
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

/// Writes `benches` to `path` as one report stamped with the current
/// commit: what `--emit` does.
pub fn emit(path: &str, benches: Vec<BenchRun>) -> Result<(), String> {
    let report = BenchReport {
        schema: SCHEMA.to_string(),
        commit: commit_id(),
        benches,
    };
    std::fs::write(path, report.to_json() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

impl Serialize for BenchResult {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            (
                "metrics".to_string(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), Value::Float(m.value)))
                        .collect(),
                ),
            ),
            (
                "directions".to_string(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), Value::Str(m.direction.tag().to_string())))
                        .collect(),
                ),
            ),
            (
                "stages".to_string(),
                Value::Object(
                    self.stages
                        .iter()
                        .map(|(k, s)| (k.clone(), s.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Serialize for BenchRun {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("config".to_string(), Value::Object(self.config.clone())),
            (
                "results".to_string(),
                Value::Array(self.results.iter().map(|r| r.to_value()).collect()),
            ),
        ])
    }
}

impl Serialize for BenchReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::Str(self.schema.clone())),
            ("commit".to_string(), Value::Str(self.commit.clone())),
            (
                "benches".to_string(),
                Value::Array(self.benches.iter().map(|b| b.to_value()).collect()),
            ),
        ])
    }
}

/// The current git commit, or `"unknown"` when not in a repository.
/// `RSHUFFLE_COMMIT` overrides (useful for reproducible fixtures).
pub fn commit_id() -> String {
    if let Ok(c) = std::env::var("RSHUFFLE_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Merges every labelled series of each stage histogram in `snapshot`
/// and returns the non-empty digests, keyed by the stage metric name.
pub fn stage_summaries(snapshot: &Snapshot) -> Vec<(String, HistogramSummary)> {
    Stage::ALL
        .iter()
        .filter_map(|stage| {
            let name = stage.metric_name();
            let mut merged = HistogramSnapshot::empty();
            for (key, h) in &snapshot.histograms {
                if key == name || key.starts_with(&format!("{name}{{")) {
                    merged.merge(h);
                }
            }
            (merged.count > 0).then(|| (name.to_string(), merged.summary()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Parsing and diffing.
// ---------------------------------------------------------------------------

/// One metric read back from a report file.
#[derive(Clone, Debug)]
pub struct ParsedMetric {
    /// `(bench, result id, metric name)` — the comparison key.
    pub key: (String, String, String),
    /// Recorded value.
    pub value: f64,
    /// Gating direction: the file's explicit `directions` entry.
    pub direction: Direction,
}

/// A report read back from disk, flattened for comparison.
#[derive(Clone, Debug)]
pub struct ParsedReport {
    /// Schema tag found in the file.
    pub schema: String,
    /// Commit the file was recorded at.
    pub commit: String,
    /// Every metric, in file order.
    pub metrics: Vec<ParsedMetric>,
}

impl ParsedReport {
    /// Parses `BENCH_*.json` text. Fails on malformed JSON, a missing
    /// or unknown schema tag, non-numeric metric values, a result
    /// without a `directions` object, a metric it does not list, or an
    /// unknown direction tag.
    pub fn parse(text: &str) -> Result<ParsedReport, String> {
        let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(fields) = root else {
            return Err("report root is not an object".to_string());
        };
        let schema = match field(&fields, "schema") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing schema tag".to_string()),
        };
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let commit = match field(&fields, "commit") {
            Some(Value::Str(s)) => s.clone(),
            _ => "unknown".to_string(),
        };
        let Some(Value::Array(benches)) = field(&fields, "benches") else {
            return Err("missing benches array".to_string());
        };
        let mut metrics = Vec::new();
        for bench in benches {
            let Value::Object(bf) = bench else {
                return Err("bench entry is not an object".to_string());
            };
            let Some(Value::Str(bench_id)) = field(bf, "bench") else {
                return Err("bench entry without a bench id".to_string());
            };
            let Some(Value::Array(results)) = field(bf, "results") else {
                return Err(format!("bench {bench_id}: missing results"));
            };
            for result in results {
                let Value::Object(rf) = result else {
                    return Err(format!("bench {bench_id}: result is not an object"));
                };
                let Some(Value::Str(id)) = field(rf, "id") else {
                    return Err(format!("bench {bench_id}: result without an id"));
                };
                let Some(Value::Object(ms)) = field(rf, "metrics") else {
                    return Err(format!("bench {bench_id}/{id}: missing metrics"));
                };
                let directions = match field(rf, "directions") {
                    Some(Value::Object(ds)) => ds,
                    Some(_) => {
                        return Err(format!("bench {bench_id}/{id}: directions is not an object"))
                    }
                    None => {
                        return Err(format!(
                            "bench {bench_id}/{id}: no directions object; the direction of \
                             a metric is never guessed from its name — re-record the report"
                        ))
                    }
                };
                for (name, value) in ms {
                    let Some(v) = number(value) else {
                        return Err(format!(
                            "bench {bench_id}/{id}: metric {name} is not numeric"
                        ));
                    };
                    let direction = match field(directions, name) {
                        Some(Value::Str(tag)) => Direction::from_tag(tag)
                            .map_err(|e| format!("bench {bench_id}/{id}/{name}: {e}"))?,
                        Some(_) => {
                            return Err(format!(
                                "bench {bench_id}/{id}: direction of {name} is not a string"
                            ))
                        }
                        None => {
                            return Err(format!(
                                "bench {bench_id}/{id}: metric {name} has no direction entry"
                            ))
                        }
                    };
                    metrics.push(ParsedMetric {
                        key: (bench_id.clone(), id.clone(), name.clone()),
                        value: v,
                        direction,
                    });
                }
                // Surface each stage digest's p50 as an informational
                // metric so stage-level movement shows up in the diff
                // even against baselines that never promoted them. A
                // result that promotes a stage p50 into its gated
                // metrics wins: the flattened copy is skipped.
                if let Some(Value::Object(stages)) = field(rf, "stages") {
                    for (sname, sval) in stages {
                        let Value::Object(sf) = sval else { continue };
                        let Some(v) = field(sf, "p50").and_then(number) else {
                            continue;
                        };
                        let name = format!("{sname}_p50");
                        if field(ms, &name).is_some() {
                            continue;
                        }
                        metrics.push(ParsedMetric {
                            key: (bench_id.clone(), id.clone(), name),
                            value: v,
                            direction: Direction::Informational,
                        });
                    }
                }
            }
        }
        Ok(ParsedReport {
            schema,
            commit,
            metrics,
        })
    }
}

/// The value under `key` of a JSON object.
fn field<'a>(object: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    object.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number of any of the three kinds.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Which way a metric is allowed to move.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Latency-like: a candidate above baseline + tolerance regresses.
    LowerIsBetter,
    /// Throughput-like: a candidate below baseline − tolerance regresses.
    HigherIsBetter,
    /// Tracked but never gated (e.g. memory footprints).
    Informational,
}

impl Direction {
    /// The stable tag written into the report's `directions` field.
    pub fn tag(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
            Direction::Informational => "informational",
        }
    }

    /// Parses a `directions` tag; unknown tags are a parse error, not a
    /// silent informational downgrade.
    pub fn from_tag(tag: &str) -> Result<Direction, String> {
        match tag {
            "lower_is_better" => Ok(Direction::LowerIsBetter),
            "higher_is_better" => Ok(Direction::HigherIsBetter),
            "informational" => Ok(Direction::Informational),
            other => Err(format!("unknown metric direction tag {other:?}")),
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// Benchmark id.
    pub bench: String,
    /// Result row id.
    pub id: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value (`None` when the metric vanished).
    pub cand: Option<f64>,
    /// Signed relative change in percent (0 when base is 0).
    pub delta_pct: f64,
    /// Gating direction of the metric.
    pub direction: Direction,
    /// Whether this line violates the tolerance.
    pub regressed: bool,
}

/// Compares `cand` against `base`: every baseline metric must exist in
/// the candidate and stay within `tolerance_pct` in its gating
/// direction. Candidate-only metrics are ignored (adding coverage is
/// never a regression).
pub fn diff_reports(base: &ParsedReport, cand: &ParsedReport, tolerance_pct: f64) -> Vec<DiffLine> {
    let tol = tolerance_pct / 100.0;
    base.metrics
        .iter()
        .map(|bm| {
            let (bench, id, metric) = &bm.key;
            // The baseline's recorded direction governs the gate.
            let direction = bm.direction;
            let b = bm.value;
            let cv = cand
                .metrics
                .iter()
                .find(|m| m.key == bm.key)
                .map(|m| m.value);
            let (delta_pct, regressed) = match cv {
                // A vanished gated metric is a regression; a vanished
                // informational one (e.g. a stage digest that recorded
                // no samples this time) is not.
                None => (0.0, direction != Direction::Informational),
                Some(c) => {
                    let delta = if b != 0.0 { (c - b) / b * 100.0 } else { 0.0 };
                    let regressed = match direction {
                        Direction::LowerIsBetter => {
                            if b == 0.0 {
                                c > 0.0
                            } else {
                                c > b * (1.0 + tol)
                            }
                        }
                        Direction::HigherIsBetter => c < b * (1.0 - tol),
                        Direction::Informational => false,
                    };
                    (delta, regressed)
                }
            };
            DiffLine {
                bench: bench.clone(),
                id: id.clone(),
                metric: metric.clone(),
                base: b,
                cand: cv,
                delta_pct,
                direction,
                regressed,
            }
        })
        .collect()
}

/// The `host` row `scale` and `adaptive` close their reports with: the
/// process's peak resident set so far (`VmHWM`), MiB. Informational —
/// host memory never gates a virtual-time metric — but `ci.sh` holds the
/// adaptive smoke under a ceiling with it.
pub fn host_result() -> BenchResult {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|l| {
        let value = l.strip_prefix("VmHWM:")?.split_whitespace().next()?;
        value.parse::<f64>().ok()
    });
    BenchResult {
        id: "host".to_string(),
        metrics: vec![MetricRow::info(
            "host_peak_rss_mib",
            kib.unwrap_or(0.0) / 1024.0,
        )],
        stages: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            commit: "deadbeef".to_string(),
            benches: vec![BenchRun {
                bench: "concurrency".to_string(),
                config: vec![("nodes".to_string(), Value::UInt(3))],
                results: vec![BenchResult {
                    id: "MESQ/SR/N=1".to_string(),
                    metrics: vec![
                        MetricRow::lower("p99_ns", 1000.0),
                        MetricRow::higher("agg_mbps", 50.0),
                        MetricRow::info("peak_bytes", 4096.0),
                    ],
                    stages: vec![(
                        "stage.cq_wait_ns".to_string(),
                        HistogramSummary {
                            count: 8,
                            min: 10,
                            max: 90,
                            mean: 40.0,
                            p50: 40,
                            p90: 80,
                            p99: 90,
                            p999: 90,
                        },
                    )],
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = fixture();
        let parsed = ParsedReport::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.commit, "deadbeef");
        // 3 scalar metrics + the flattened stage.cq_wait_ns_p50 digest.
        assert_eq!(parsed.metrics.len(), 4);
        let flattened = &parsed.metrics[3];
        assert_eq!(flattened.key.2, "stage.cq_wait_ns_p50");
        assert_eq!(flattened.value, 40.0);
        assert_eq!(flattened.direction, Direction::Informational);
        assert_eq!(
            parsed.metrics[0].key,
            (
                "concurrency".to_string(),
                "MESQ/SR/N=1".to_string(),
                "p99_ns".to_string()
            )
        );
        assert_eq!(parsed.metrics[0].value, 1000.0);
        // The explicit directions round-trip, including the one a name
        // inference could not have produced for `peak_bytes`.
        assert_eq!(parsed.metrics[0].direction, Direction::LowerIsBetter);
        assert_eq!(parsed.metrics[1].direction, Direction::HigherIsBetter);
        assert_eq!(parsed.metrics[2].direction, Direction::Informational);
    }

    #[test]
    fn markdown_holds_every_row_and_starts_a_table_per_column_set() {
        let mut run = fixture().benches.remove(0);
        run.results.push(BenchResult {
            id: "host".to_string(),
            metrics: vec![MetricRow::info("host_peak_rss_mib", 85.4609375)],
            stages: Vec::new(),
        });
        let expected = "**concurrency** (nodes = 3)\n\n\
                        | row | p99_ns | agg_mbps | peak_bytes |\n|---|---:|---:|---:|\n\
                        | MESQ/SR/N=1 | 1000 | 50 | 4096 |\n\n\
                        | row | host_peak_rss_mib |\n|---|---:|\n| host | 85.461 |\n";
        assert_eq!(run.markdown(), expected);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = r#"{"schema":"rshuffle-bench/99","commit":"x","benches":[]}"#;
        assert!(ParsedReport::parse(text).is_err());
        assert!(ParsedReport::parse("{}").is_err());
        assert!(ParsedReport::parse("not json").is_err());
    }

    #[test]
    fn identical_reports_never_regress() {
        let report = fixture();
        let parsed = ParsedReport::parse(&report.to_json()).unwrap();
        let lines = diff_reports(&parsed, &parsed, 10.0);
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| !l.regressed));
    }

    #[test]
    fn vanished_stage_digest_is_not_a_regression() {
        // Stage digests are informational: one recording no samples in
        // the candidate must not fail the gate, unlike a vanished gated
        // metric (covered by `missing_metric_is_a_regression`).
        let base = ParsedReport::parse(&fixture().to_json()).unwrap();
        let mut cand = base.clone();
        cand.metrics.retain(|m| m.key.2 != "stage.cq_wait_ns_p50");
        let lines = diff_reports(&base, &cand, 10.0);
        let stage = lines
            .iter()
            .find(|l| l.metric == "stage.cq_wait_ns_p50")
            .unwrap();
        assert!(stage.cand.is_none());
        assert!(!stage.regressed);
    }

    #[test]
    fn latency_regression_is_caught_and_direction_matters() {
        let base = ParsedReport::parse(&fixture().to_json()).unwrap();
        let mut cand = base.clone();
        for m in &mut cand.metrics {
            if m.key.2 == "p99_ns" {
                m.value *= 2.0; // 2x slowdown
            }
        }
        let lines = diff_reports(&base, &cand, 10.0);
        let p99 = lines.iter().find(|l| l.metric == "p99_ns").unwrap();
        assert!(p99.regressed);
        assert_eq!(p99.direction, Direction::LowerIsBetter);
        // A 2x latency *improvement* is not a regression.
        let mut faster = base.clone();
        for m in &mut faster.metrics {
            if m.key.2 == "p99_ns" {
                m.value /= 2.0;
            }
        }
        assert!(diff_reports(&base, &faster, 10.0)
            .iter()
            .all(|l| !l.regressed));
    }

    #[test]
    fn throughput_drop_regresses_and_informational_never_does() {
        let base = ParsedReport::parse(&fixture().to_json()).unwrap();
        let mut cand = base.clone();
        for m in &mut cand.metrics {
            if m.key.2 == "agg_mbps" {
                m.value *= 0.5;
            }
            if m.key.2 == "peak_bytes" {
                m.value *= 100.0;
            }
        }
        let lines = diff_reports(&base, &cand, 10.0);
        assert!(lines.iter().find(|l| l.metric == "agg_mbps").unwrap().regressed);
        assert!(!lines.iter().find(|l| l.metric == "peak_bytes").unwrap().regressed);
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let base = ParsedReport::parse(&fixture().to_json()).unwrap();
        let mut cand = base.clone();
        cand.metrics.retain(|m| m.key.2 != "p99_ns");
        let lines = diff_reports(&base, &cand, 10.0);
        let p99 = lines.iter().find(|l| l.metric == "p99_ns").unwrap();
        assert!(p99.regressed);
        assert!(p99.cand.is_none());
    }

    #[test]
    fn explicit_direction_overrides_name_inference() {
        // With an explicit direction the same ambiguous name is fine,
        // and the recorded direction — not the name — drives the gate.
        let text = r#"{
            "schema": "rshuffle-bench/1",
            "commit": "x",
            "benches": [{
                "bench": "b",
                "config": {},
                "results": [{
                    "id": "r",
                    "metrics": {"throughput_ns": 100.0},
                    "directions": {"throughput_ns": "higher_is_better"},
                    "stages": {}
                }]
            }]
        }"#;
        let base = ParsedReport::parse(text).expect("explicit direction parses");
        assert_eq!(base.metrics[0].direction, Direction::HigherIsBetter);
        let mut cand = base.clone();
        cand.metrics[0].value = 50.0; // halved "throughput" regresses
        assert!(diff_reports(&base, &cand, 10.0)[0].regressed);
        let mut up = base.clone();
        up.metrics[0].value = 200.0; // doubled does not
        assert!(!diff_reports(&base, &up, 10.0)[0].regressed);
    }

    #[test]
    fn unknown_direction_tag_is_rejected() {
        let text = r#"{
            "schema": "rshuffle-bench/1",
            "commit": "x",
            "benches": [{
                "bench": "b",
                "config": {},
                "results": [{
                    "id": "r",
                    "metrics": {"p99_ns": 1.0},
                    "directions": {"p99_ns": "sideways"},
                    "stages": {}
                }]
            }]
        }"#;
        let err = ParsedReport::parse(text).unwrap_err();
        assert!(err.contains("unknown metric direction"), "got: {err}");
    }

    #[test]
    fn directions_present_but_metric_unlisted_is_rejected() {
        let text = r#"{
            "schema": "rshuffle-bench/1",
            "commit": "x",
            "benches": [{
                "bench": "b",
                "config": {},
                "results": [{
                    "id": "r",
                    "metrics": {"p99_ns": 1.0},
                    "directions": {},
                    "stages": {}
                }]
            }]
        }"#;
        let err = ParsedReport::parse(text).unwrap_err();
        assert!(err.contains("no direction entry"), "got: {err}");
    }

    #[test]
    fn report_without_directions_is_a_parse_error_that_says_so() {
        // A direction is never guessed from a metric's name: a result
        // that carries no `directions` object (the pre-PR-8 format) is
        // rejected, and the message names the missing field.
        let text = r#"{
            "schema": "rshuffle-bench/1",
            "commit": "x",
            "benches": [{
                "bench": "b",
                "config": {},
                "results": [{
                    "id": "r",
                    "metrics": {"p99_ns": 1.0, "agg_mbps": 2.0},
                    "stages": {}
                }]
            }]
        }"#;
        let err = ParsedReport::parse(text).unwrap_err();
        assert!(err.contains("b/r: no directions object"), "got: {err}");
    }
}
