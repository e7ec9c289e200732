//! Perf-trajectory records: machine-readable `BENCH_*.json` emission,
//! parsing, and diffing.
//!
//! A [`BenchReport`] captures one measurement session under the stable
//! `rshuffle-bench/1` schema: the git commit, one [`BenchRun`] per
//! experiment, and per-configuration [`BenchResult`] rows holding
//! scalar metrics (latency percentiles, throughput) plus per-stage
//! latency digests ([`HistogramSummary`]). Because the simulator is
//! deterministic, re-running the same experiment on the same tree
//! reproduces the report bit for bit. A committed baseline
//! (`BENCH_SMOKE.json` and the other three gates of `ci.sh`) is therefore
//! an exact contract: `perfdiff` fails on any row whose bits differ, every
//! field of every stage digest included. Only the rows tagged
//! [`Direction::Host`] (wall clock, resident memory) are left out.
//!
//! The rows are also the only thing the `bench` runner prints:
//! [`BenchRun::markdown`] renders them as the tables EXPERIMENTS.md holds.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use rshuffle_obs::{stage::Stage, HistogramSnapshot, HistogramSummary, Snapshot};
use serde::{Serialize, Value};

/// Schema tag written into every report; bump on breaking layout
/// changes so `perfdiff` refuses to compare across formats.
pub const SCHEMA: &str = "rshuffle-bench/1";

/// One scalar metric row with its explicit direction tag.
///
/// The direction is part of the record, not inferred from the name at
/// diff time: a metric named `throughput_ns` would be ambiguous under
/// name inference, and a wrong guess would mislabel a change or skip a
/// row that is not a host measurement.
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Metric name, unique within its result row.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Which way the metric is better, or that it measures the host.
    pub direction: Direction,
}

impl MetricRow {
    fn new(name: &str, value: f64, direction: Direction) -> Self {
        MetricRow {
            name: name.to_string(),
            value,
            direction,
        }
    }

    /// A latency-like metric: better when it goes down.
    pub fn lower(name: &str, value: f64) -> Self {
        Self::new(name, value, Direction::LowerIsBetter)
    }

    /// A throughput-like metric: better when it goes up.
    pub fn higher(name: &str, value: f64) -> Self {
        Self::new(name, value, Direction::HigherIsBetter)
    }

    /// A metric neither way of moving is better for (e.g. memory
    /// footprints).
    pub fn info(name: &str, value: f64) -> Self {
        Self::new(name, value, Direction::Informational)
    }

    /// A measurement of the host running the simulation (wall clock,
    /// resident memory), which differs from run to run of the same tree.
    pub fn host(name: &str, value: f64) -> Self {
        Self::new(name, value, Direction::Host)
    }
}

/// One measured configuration of a benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Stable row id, e.g. `"MESQ/SR/N=2"` or `"MEMQ/RD/msg=64KiB"`.
    pub id: String,
    /// Scalar metrics.
    pub metrics: Vec<MetricRow>,
    /// Per-stage latency digests; every field is compared like a metric.
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

/// One row read back from a report file: a metric, or one field of a
/// stage digest.
#[derive(Clone, Debug)]
pub struct ParsedMetric {
    /// `(bench, result id, metric name)` — the comparison key. A stage
    /// digest's field is named `<stage>.<field>`, e.g.
    /// `stage.wr_batch_ns.p50`.
    pub key: (String, String, String),
    /// Recorded value.
    pub value: f64,
    /// The file's explicit `directions` entry; a digest field's is
    /// `Informational`.
    pub direction: Direction,
}

/// A report read back from disk, flattened for comparison.
#[derive(Clone, Debug)]
pub struct ParsedReport {
    /// Schema tag found in the file.
    pub schema: String,
    /// Commit the file was recorded at.
    pub commit: String,
    /// Every row, in file order; no key appears twice.
    pub metrics: Vec<ParsedMetric>,
}

impl ParsedReport {
    /// Parses `BENCH_*.json` text. Fails on malformed JSON, a missing
    /// or unknown schema tag, non-numeric metric or digest values, a
    /// result without a `directions` object, a metric it does not list,
    /// an unknown direction tag, or a key that appears twice (an
    /// experiment run twice in one report).
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
                        return Err(format!(
                            "bench {bench_id}/{id}: directions is not an object"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "bench {bench_id}/{id}: no directions object; the direction of \
                             a metric is never guessed from its name — re-record the report"
                        ))
                    }
                };
                let mut row = |name: String, value: &Value, direction| match number(value) {
                    Some(value) => {
                        let key = (bench_id.clone(), id.clone(), name);
                        metrics.push(ParsedMetric {
                            key,
                            value,
                            direction,
                        });
                        Ok(())
                    }
                    None => Err(format!("bench {bench_id}/{id}: {name} is not numeric")),
                };
                for (name, value) in ms {
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
                    row(name.clone(), value, direction)?;
                }
                // A stage digest is compared whole: each of its fields is
                // a row of its own.
                if let Some(Value::Object(stages)) = field(rf, "stages") {
                    for (stage, digest) in stages {
                        let Value::Object(digest) = digest else {
                            return Err(format!("bench {bench_id}/{id}: {stage} is not a digest"));
                        };
                        for (name, value) in digest {
                            row(format!("{stage}.{name}"), value, Direction::Informational)?;
                        }
                    }
                }
            }
        }
        let mut keys: Vec<_> = metrics.iter().map(|m| &m.key).collect();
        keys.sort_unstable();
        if let Some(twice) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            let (bench, id, name) = twice[0];
            return Err(format!(
                "bench {bench}/{id}: {name} appears twice (an experiment repeated in one report?)"
            ));
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

/// Which way a metric is better: the label `perfdiff` prints beside a
/// changed row. It decides nothing else, but for `Host`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Latency-like: lower is better.
    LowerIsBetter,
    /// Throughput-like: higher is better.
    HigherIsBetter,
    /// Neither way is better (e.g. memory footprints, digest fields).
    Informational,
    /// A measurement of the host, not of the simulation (wall clock,
    /// resident memory): a row both reports tag `host` is not compared.
    Host,
}

impl Direction {
    /// The stable tag written into the report's `directions` field.
    pub fn tag(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
            Direction::Informational => "informational",
            Direction::Host => "host",
        }
    }

    /// Parses a `directions` tag; unknown tags are a parse error, not a
    /// silent informational downgrade.
    pub fn from_tag(tag: &str) -> Result<Direction, String> {
        match tag {
            "lower_is_better" => Ok(Direction::LowerIsBetter),
            "higher_is_better" => Ok(Direction::HigherIsBetter),
            "informational" => Ok(Direction::Informational),
            "host" => Ok(Direction::Host),
            other => Err(format!("unknown metric direction tag {other:?}")),
        }
    }
}

/// One row of either report, compared.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// `(bench, result id, metric name)`.
    pub key: (String, String, String),
    /// Baseline value (`None` when only the candidate holds the row).
    pub base: Option<f64>,
    /// Candidate value (`None` when only the baseline holds the row).
    pub cand: Option<f64>,
    /// The row's direction tag: the baseline's where it holds the row.
    pub direction: Direction,
    /// Whether the row differs between the two reports.
    pub changed: bool,
}

impl DiffLine {
    /// How a changed row moved: `better` or `worse` by its direction tag,
    /// `changed` for a row with no better way, or the side that holds it.
    pub fn verdict(&self) -> &'static str {
        let (b, c) = match (self.base, self.cand) {
            (Some(b), Some(c)) => (b, c),
            (Some(_), None) => return "only in the baseline",
            (None, _) => return "only in the candidate",
        };
        match (self.direction, c.partial_cmp(&b)) {
            (Direction::LowerIsBetter, Some(Ordering::Less))
            | (Direction::HigherIsBetter, Some(Ordering::Greater)) => "better",
            (Direction::LowerIsBetter, Some(Ordering::Greater))
            | (Direction::HigherIsBetter, Some(Ordering::Less)) => "worse",
            _ => "changed",
        }
    }
}

/// Compares `cand` with `base` row by row. A row is changed when the bits
/// of its value or its direction tag differ, or when only one report
/// holds it; a row both reports tag [`Direction::Host`] is never changed.
/// The baseline's rows come first, in file order, then those only the
/// candidate holds.
pub fn diff_reports(base: &ParsedReport, cand: &ParsedReport) -> Vec<DiffLine> {
    let in_base: HashSet<_> = base.metrics.iter().map(|m| &m.key).collect();
    let in_cand: HashMap<_, _> = cand.metrics.iter().map(|m| (&m.key, m)).collect();
    let line = |row: &ParsedMetric, b: Option<&ParsedMetric>, c: Option<&ParsedMetric>| {
        let changed = match (b, c) {
            (Some(b), Some(c)) if b.direction == c.direction => {
                b.direction != Direction::Host && b.value.to_bits() != c.value.to_bits()
            }
            _ => true,
        };
        DiffLine {
            key: row.key.clone(),
            base: b.map(|m| m.value),
            cand: c.map(|m| m.value),
            direction: row.direction,
            changed,
        }
    };
    let both = base
        .metrics
        .iter()
        .map(|b| line(b, Some(b), in_cand.get(&b.key).copied()));
    let only_cand = cand.metrics.iter().filter(|c| !in_base.contains(&c.key));
    both.chain(only_cand.map(|c| line(c, None, Some(c))))
        .collect()
}

/// The `host` row `scale` and `adaptive` close their reports with: the
/// process's peak resident set so far (`VmHWM`), MiB. Never compared, but
/// `ci.sh` holds the adaptive smoke under a ceiling with it.
pub fn host_result() -> BenchResult {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|l| {
        let value = l.strip_prefix("VmHWM:")?.split_whitespace().next()?;
        value.parse::<f64>().ok()
    });
    BenchResult {
        id: "host".to_string(),
        metrics: vec![MetricRow::host(
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
                        MetricRow::host("wall_clock_ms", 12.5),
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

    fn parsed() -> ParsedReport {
        ParsedReport::parse(&fixture().to_json()).expect("parses")
    }

    /// `report` with `f` applied to the value of the row named `metric`.
    fn with(report: &ParsedReport, metric: &str, f: impl Fn(f64) -> f64) -> ParsedReport {
        let mut out = report.clone();
        for m in out.metrics.iter_mut().filter(|m| m.key.2 == metric) {
            m.value = f(m.value);
        }
        out
    }

    /// The names of the rows that changed from `base` to `cand`.
    fn changed(base: &ParsedReport, cand: &ParsedReport) -> Vec<String> {
        let lines = diff_reports(base, cand).into_iter();
        lines.filter(|l| l.changed).map(|l| l.key.2).collect()
    }

    #[test]
    fn report_round_trips_through_json() {
        let parsed = parsed();
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.commit, "deadbeef");
        // 4 scalar metrics, then every field of the stage digest.
        let names: Vec<&str> = parsed.metrics.iter().map(|m| m.key.2.as_str()).collect();
        let digest = ["count", "min", "max", "mean", "p50", "p90", "p99", "p999"];
        let digest = digest.map(|f| format!("stage.cq_wait_ns.{f}"));
        let expected = ["p99_ns", "agg_mbps", "peak_bytes", "wall_clock_ms"];
        assert_eq!(names[..4], expected);
        assert_eq!(names[4..], digest);
        assert_eq!(
            parsed.metrics[0].key,
            (
                "concurrency".to_string(),
                "MESQ/SR/N=1".to_string(),
                "p99_ns".to_string()
            )
        );
        assert_eq!(parsed.metrics[0].value, 1000.0);
        assert_eq!(parsed.metrics[8].value, 40.0, "the digest's p50");
        // The explicit directions round-trip, including the one a name
        // inference could not have produced for `peak_bytes`.
        let directions: Vec<Direction> = parsed.metrics.iter().map(|m| m.direction).collect();
        assert_eq!(
            directions[..5],
            [
                Direction::LowerIsBetter,
                Direction::HigherIsBetter,
                Direction::Informational,
                Direction::Host,
                Direction::Informational,
            ]
        );
    }

    #[test]
    fn emit_then_parse_is_bit_exact_for_every_value() {
        let awkward = [
            0.1 + 0.2,
            1.0 / 3.0,
            1e-300,
            f64::MIN_POSITIVE,
            123_456_789.123_456_78,
            (1u64 << 60) as f64,
            f64::MAX,
            12.5,
        ];
        let mut report = fixture();
        let result = &mut report.benches[0].results[0];
        for (row, value) in result.metrics.iter_mut().zip(awkward) {
            row.value = value;
        }
        let s = &mut result.stages[0].1;
        s.mean = 2.0 / 3.0;
        let digest = [s.count, s.min, s.max].map(|v| v as f64);
        let percentiles = [s.p50, s.p90, s.p99, s.p999].map(|v| v as f64);
        let mut expected: Vec<f64> = result.metrics.iter().map(|m| m.value).collect();
        expected.extend(digest.into_iter().chain([s.mean]).chain(percentiles));
        let parsed = ParsedReport::parse(&report.to_json()).expect("parses");
        let bits =
            |values: &mut dyn Iterator<Item = f64>| values.map(f64::to_bits).collect::<Vec<_>>();
        let got = bits(&mut parsed.metrics.iter().map(|m| m.value));
        assert_eq!(got, bits(&mut expected.into_iter()));
    }

    #[test]
    fn markdown_holds_every_row_and_starts_a_table_per_column_set() {
        let mut run = fixture().benches.remove(0);
        run.results.push(BenchResult {
            id: "host".to_string(),
            metrics: vec![MetricRow::host("host_peak_rss_mib", 85.4609375)],
            stages: Vec::new(),
        });
        let expected = "**concurrency** (nodes = 3)\n\n\
                        | row | p99_ns | agg_mbps | peak_bytes | wall_clock_ms |\n\
                        |---|---:|---:|---:|---:|\n\
                        | MESQ/SR/N=1 | 1000 | 50 | 4096 | 12.500 |\n\n\
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
    fn a_repeated_experiment_is_rejected_by_name() {
        // `bench concurrency concurrency --emit` writes the run twice; a
        // diff that matched each key once would never read the second copy.
        let mut report = fixture();
        report.benches.push(report.benches[0].clone());
        let err = ParsedReport::parse(&report.to_json()).unwrap_err();
        assert!(
            err.contains("concurrency/MESQ/SR/N=1: agg_mbps appears twice"),
            "got: {err}"
        );
    }

    #[test]
    fn identical_reports_never_change() {
        let report = parsed();
        let lines = diff_reports(&report, &report);
        assert_eq!(lines.len(), report.metrics.len());
        assert!(lines.iter().all(|l| !l.changed));
    }

    #[test]
    fn a_one_ulp_move_of_any_row_either_way_is_named() {
        let base = parsed();
        for row in base
            .metrics
            .iter()
            .filter(|m| m.direction != Direction::Host)
        {
            for step in [1, -1] {
                let cand = with(&base, &row.key.2, |v| {
                    f64::from_bits(v.to_bits().wrapping_add_signed(step))
                });
                assert_eq!(changed(&base, &cand), [row.key.2.as_str()], "{step} ulp");
            }
        }
    }

    #[test]
    fn a_vanished_stage_digest_is_a_change() {
        let base = parsed();
        let mut cand = base.clone();
        cand.metrics
            .retain(|m| !m.key.2.starts_with("stage.cq_wait_ns."));
        let lines = diff_reports(&base, &cand);
        let gone: Vec<&DiffLine> = lines.iter().filter(|l| l.changed).collect();
        assert_eq!(gone.len(), 8, "every field of the digest");
        assert!(gone.iter().all(|l| l.verdict() == "only in the baseline"));
    }

    #[test]
    fn a_latency_move_is_a_change_labelled_by_its_direction() {
        let base = parsed();
        for (factor, verdict) in [(2.0, "worse"), (0.5, "better")] {
            let lines = diff_reports(&base, &with(&base, "p99_ns", |v| v * factor));
            let moved: Vec<&DiffLine> = lines.iter().filter(|l| l.changed).collect();
            assert_eq!(moved.len(), 1);
            assert_eq!(moved[0].key.2, "p99_ns");
            assert_eq!(moved[0].direction, Direction::LowerIsBetter);
            assert_eq!(moved[0].verdict(), verdict, "p99_ns x{factor}");
        }
    }

    #[test]
    fn a_throughput_or_informational_move_is_a_change() {
        let base = parsed();
        let cand = with(&base, "agg_mbps", |v| v * 0.5);
        let cand = with(&cand, "peak_bytes", |v| v * 100.0);
        let lines = diff_reports(&base, &cand);
        let moved = lines.iter().filter(|l| l.changed);
        let verdicts: Vec<(&str, &str)> = moved.map(|l| (l.key.2.as_str(), l.verdict())).collect();
        assert_eq!(verdicts, [("agg_mbps", "worse"), ("peak_bytes", "changed")]);
    }

    #[test]
    fn a_row_on_one_side_only_is_a_change() {
        let base = parsed();
        for metric in ["p99_ns", "wall_clock_ms"] {
            let mut fewer = base.clone();
            fewer.metrics.retain(|m| m.key.2 != metric);
            assert_eq!(changed(&base, &fewer), [metric]);
            let lines = diff_reports(&fewer, &base);
            let added: Vec<&DiffLine> = lines.iter().filter(|l| l.changed).collect();
            assert_eq!(added.len(), 1);
            assert_eq!((added[0].base, added[0].key.2.as_str()), (None, metric));
            assert_eq!(added[0].verdict(), "only in the candidate");
        }
    }

    #[test]
    fn a_move_from_zero_is_reported() {
        let base = with(&parsed(), "p99_ns", |_| 0.0);
        let lines = diff_reports(&base, &parsed());
        let moved: Vec<&DiffLine> = lines.iter().filter(|l| l.changed).collect();
        assert_eq!(moved.len(), 1);
        assert_eq!((moved[0].base, moved[0].cand), (Some(0.0), Some(1000.0)));
        assert_eq!(moved[0].verdict(), "worse");
    }

    #[test]
    fn a_host_row_may_move_but_not_change_its_tag() {
        let base = parsed();
        let cand = with(&base, "wall_clock_ms", |v| v * 3.0);
        assert!(changed(&base, &cand).is_empty());
        // Tagged anything else on one side, the row is compared.
        let mut retagged = cand.clone();
        for m in retagged
            .metrics
            .iter_mut()
            .filter(|m| m.key.2 == "wall_clock_ms")
        {
            m.direction = Direction::Informational;
        }
        assert_eq!(changed(&base, &retagged), ["wall_clock_ms"]);
        assert_eq!(changed(&retagged, &base), ["wall_clock_ms"]);
    }

    #[test]
    fn explicit_direction_overrides_name_inference() {
        // With an explicit direction the same ambiguous name is fine,
        // and the recorded direction — not the name — labels a change.
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
        for (value, verdict) in [(50.0, "worse"), (200.0, "better")] {
            let mut cand = base.clone();
            cand.metrics[0].value = value;
            assert_eq!(diff_reports(&base, &cand)[0].verdict(), verdict);
        }
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
