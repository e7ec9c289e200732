//! Perf-trajectory records: machine-readable `BENCH_*.json` emission,
//! parsing, and regression diffing.
//!
//! A [`BenchReport`] captures one measurement session under the stable
//! `rshuffle-bench/1` schema: the git commit, one [`BenchRun`] per
//! benchmark binary, and per-configuration [`BenchResult`] rows holding
//! scalar metrics (latency percentiles, throughput) plus per-stage
//! latency digests ([`HistogramSummary`]). Because the simulator is
//! deterministic, re-running the same collectors on the same tree
//! reproduces the report bit-for-bit — the committed baseline
//! (`BENCH_0008.json`) is therefore an exact perf contract that
//! `perfdiff` enforces in CI with a configurable tolerance.
//!
//! The measurement loops of the `concurrency` and `fig09_msgsize`
//! binaries live here ([`run_concurrency_matrix`],
//! [`run_msgsize_sweep`]) so the binaries, the `perfdiff` gate, and the
//! baseline recorder all drive the identical code path.

use std::sync::Arc;

use rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_engine::ops::Generator;
use rshuffle_engine::workload::{run_workload, QuerySpec};
use rshuffle_obs::{stage::Stage, HistogramSnapshot, HistogramSummary, Snapshot};
use rshuffle_sched::{Scheduler, SchedulerConfig};
use rshuffle_simnet::DeviceProfile;
use serde::{Serialize, Value};

use crate::workload::{run_shuffle_workload, Transport, WorkloadConfig};

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

/// One benchmark binary's worth of results.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Benchmark id, e.g. `"concurrency"`.
    pub bench: String,
    /// The configuration the rows were measured under.
    pub config: Vec<(String, Value)>,
    /// Measured rows.
    pub results: Vec<BenchResult>,
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
    /// An empty report stamped with the current commit.
    pub fn new() -> Self {
        BenchReport {
            schema: SCHEMA.to_string(),
            commit: commit_id(),
            benches: Vec::new(),
        }
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

impl Default for BenchReport {
    fn default() -> Self {
        Self::new()
    }
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
// Concurrency matrix (the `concurrency` binary's measurement loop).
// ---------------------------------------------------------------------------

/// Cluster size of the concurrency benchmark.
pub const CONCURRENCY_NODES: usize = 3;
/// Worker threads per node of the concurrency benchmark.
pub const CONCURRENCY_THREADS: usize = 2;
/// Row size streamed by the concurrency benchmark.
pub const CONCURRENCY_ROW: usize = 16;
/// Concurrency levels of the smoke (CI) matrix.
pub const SMOKE_LEVELS: &[usize] = &[1, 2];
/// Rows per thread of the smoke (CI) matrix.
pub const SMOKE_ROWS_PER_THREAD: usize = 200;

/// One cell of the concurrency matrix: an `(algorithm, N)` run.
#[derive(Clone, Debug)]
pub struct ConcurrencyCell {
    /// Algorithm under test.
    pub algorithm: ShuffleAlgorithm,
    /// Concurrent queries.
    pub n: usize,
    /// Median submission-to-completion virtual latency.
    pub p50_ns: u64,
    /// Tail submission-to-completion virtual latency.
    pub p99_ns: u64,
    /// Virtual time from first admission to last completion.
    pub makespan_ns: u64,
    /// Aggregate delivered throughput over the makespan.
    pub agg_mbps: f64,
    /// Peak registered bytes across nodes.
    pub peak_bytes: usize,
    /// Invariant violations and per-query failures (empty on success).
    pub violations: Vec<String>,
    /// Per-stage latency digests for this cell's run.
    pub stages: Vec<(String, HistogramSummary)>,
}

/// Runs the scheduler-driven concurrency matrix: every algorithm at
/// every level of `levels`, `rows_per_thread` rows per worker. Each
/// cell gets a fresh cluster; the memory budget exactly fits N
/// concurrent copies of the query, so one byte of over-pinning trips a
/// violation.
pub fn run_concurrency_matrix(levels: &[usize], rows_per_thread: usize) -> Vec<ConcurrencyCell> {
    let mut cells = Vec::new();
    for algorithm in ShuffleAlgorithm::ALL {
        for &n in levels {
            cells.push(run_concurrency_cell(algorithm, n, rows_per_thread));
        }
    }
    cells
}

fn run_concurrency_cell(
    algorithm: ShuffleAlgorithm,
    n: usize,
    rows_per_thread: usize,
) -> ConcurrencyCell {
    let mut config =
        ExchangeConfig::repartition(algorithm, CONCURRENCY_NODES, CONCURRENCY_THREADS);
    config.message_size = 4096;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let est_max = (0..CONCURRENCY_NODES)
        .map(|node| config.registered_bytes_estimate(runtime.profile(), node))
        .max()
        .unwrap();
    let budget = est_max * n;
    let sched = Scheduler::new(
        &runtime,
        SchedulerConfig {
            max_concurrent: n,
            mem_budget_per_node: Some(budget),
            ..SchedulerConfig::default()
        },
    );
    let queries = (0..n as u32)
        .map(|id| QuerySpec::new(id, config.clone(), CONCURRENCY_ROW))
        .collect();
    let handles = run_workload(
        &runtime,
        &sched,
        queries,
        move |query, _, node| {
            Arc::new(Generator::new(
                rows_per_thread,
                CONCURRENCY_THREADS,
                node as u64 ^ (query as u64) << 16,
            )) as Arc<dyn Operator>
        },
        |_, _, _, _, _| {},
    );
    runtime.cluster().run();

    let expected_rows = (CONCURRENCY_NODES * CONCURRENCY_THREADS * rows_per_thread) as u64;
    let mut violations = Vec::new();
    let mut latencies = Vec::new();
    let mut total_bytes = 0u64;
    let mut windows = Vec::new();
    let mut makespan_end = 0u64;
    for h in &handles {
        let rep = h.report.lock();
        let t = h.timing.lock();
        if !rep.succeeded() || rep.rows != expected_rows {
            violations.push(format!(
                "{algorithm} N={n} query {}: rows {}/{} failure {:?}",
                h.query, rep.rows, expected_rows, rep.failure
            ));
            continue;
        }
        let lat = t.latency().expect("completed query has a latency");
        latencies.push(lat.as_nanos());
        total_bytes += rep.bytes;
        let start = t.first_admitted.expect("admitted").as_nanos();
        let end = t.completed.expect("completed").as_nanos();
        windows.push((start, end));
        makespan_end = makespan_end.max(end);
    }
    // Invariant: with N >= 2 slots and N queries, at least one pair must
    // overlap in virtual time — the scheduler runs them concurrently,
    // not back to back.
    if latencies.len() == n && n >= 2 {
        let overlap = windows
            .iter()
            .enumerate()
            .any(|(i, a)| windows[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1));
        if !overlap {
            violations.push(format!(
                "{algorithm} N={n}: no two queries overlapped: {windows:?}"
            ));
        }
    }
    // Invariant: the budget holds at all times on every node.
    let mut peak = 0usize;
    for node in 0..CONCURRENCY_NODES {
        let p = runtime.registered_bytes_peak(node);
        peak = peak.max(p);
        if p > budget {
            violations.push(format!(
                "{algorithm} N={n}: node {node} peak {p} exceeds budget {budget}"
            ));
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).max(1) - 1;
        latencies[idx.min(latencies.len() - 1)]
    };
    let agg_mbps = if makespan_end > 0 {
        total_bytes as f64 / (makespan_end as f64 / 1e9) / 1e6
    } else {
        0.0
    };
    ConcurrencyCell {
        algorithm,
        n,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        makespan_ns: makespan_end,
        agg_mbps,
        peak_bytes: peak,
        violations,
        stages: stage_summaries(&runtime.obs().metrics.snapshot()),
    }
}

/// Packages concurrency cells as a [`BenchRun`].
pub fn concurrency_bench_run(
    cells: &[ConcurrencyCell],
    levels: &[usize],
    rows_per_thread: usize,
) -> BenchRun {
    BenchRun {
        bench: "concurrency".to_string(),
        config: vec![
            ("nodes".to_string(), Value::UInt(CONCURRENCY_NODES as u64)),
            (
                "threads".to_string(),
                Value::UInt(CONCURRENCY_THREADS as u64),
            ),
            (
                "rows_per_thread".to_string(),
                Value::UInt(rows_per_thread as u64),
            ),
            (
                "levels".to_string(),
                Value::Array(levels.iter().map(|&n| Value::UInt(n as u64)).collect()),
            ),
        ],
        results: cells
            .iter()
            .map(|c| BenchResult {
                id: format!("{}/N={}", c.algorithm, c.n),
                metrics: vec![
                    MetricRow::lower("p50_ns", c.p50_ns as f64),
                    MetricRow::lower("p99_ns", c.p99_ns as f64),
                    MetricRow::lower("makespan_ns", c.makespan_ns as f64),
                    MetricRow::higher("agg_mbps", c.agg_mbps),
                    MetricRow::info("peak_bytes", c.peak_bytes as f64),
                ],
                stages: c.stages.clone(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Message-size sweep (the `fig09_msgsize` binary's measurement loop).
// ---------------------------------------------------------------------------

/// Message sizes of the smoke (CI) sweep.
pub const SMOKE_MSG_SIZES: &[usize] = &[16 << 10, 64 << 10];
/// Cluster size of the smoke (CI) sweep.
pub const SMOKE_MSG_NODES: usize = 4;
/// Per-node table volume of the smoke (CI) sweep (fixed, independent of
/// `RSHUFFLE_BENCH_MIB`, so baseline and candidate always agree).
pub const SMOKE_MSG_BYTES_PER_NODE: usize = 4 << 20;

/// One cell of the message-size sweep: an `(algorithm, msg_size)` run.
#[derive(Clone, Debug)]
pub struct MsgSizeCell {
    /// Algorithm under test.
    pub algorithm: ShuffleAlgorithm,
    /// RC message size (header + payload).
    pub msg_size: usize,
    /// Receive throughput per node, GiB/s (the paper's metric).
    pub gib_per_sec: f64,
    /// End-to-end virtual response time.
    pub response_ns: u64,
    /// RDMA-registered bytes per node (Figure 9b).
    pub registered_bytes: usize,
    /// Worker errors rendered as strings (empty on success).
    pub errors: Vec<String>,
    /// Per-stage latency digests for this cell's run.
    pub stages: Vec<(String, HistogramSummary)>,
}

/// Runs the §5.1.2 message-size sweep for every algorithm: double
/// buffering, `recv_depth_per_peer = 4`, sizes from `sizes`.
/// `bytes_per_node = None` uses the workload default
/// (`RSHUFFLE_BENCH_MIB`).
pub fn run_msgsize_sweep(
    sizes: &[usize],
    nodes: usize,
    bytes_per_node: Option<usize>,
) -> Vec<MsgSizeCell> {
    let mut cells = Vec::new();
    for a in ShuffleAlgorithm::ALL {
        for &msg in sizes {
            let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), nodes, Transport::Rdma(a));
            cfg.exchange.message_size = msg;
            cfg.exchange.recv_depth_per_peer = 4;
            if let Some(b) = bytes_per_node {
                cfg.bytes_per_node = b;
            }
            let r = run_shuffle_workload(&cfg);
            cells.push(MsgSizeCell {
                algorithm: a,
                msg_size: msg,
                gib_per_sec: r.gib_per_sec(),
                response_ns: r.response_time.as_nanos(),
                registered_bytes: r.registered_bytes_per_node,
                errors: r.errors.iter().map(|e| e.to_string()).collect(),
                stages: stage_summaries(&r.metrics),
            });
        }
    }
    cells
}

/// Packages message-size cells as a [`BenchRun`].
pub fn msgsize_bench_run(
    cells: &[MsgSizeCell],
    nodes: usize,
    bytes_per_node: Option<usize>,
) -> BenchRun {
    BenchRun {
        bench: "fig09_msgsize".to_string(),
        config: vec![
            ("nodes".to_string(), Value::UInt(nodes as u64)),
            (
                "bytes_per_node".to_string(),
                match bytes_per_node {
                    Some(b) => Value::UInt(b as u64),
                    None => Value::Null,
                },
            ),
            (
                "sizes".to_string(),
                Value::Array(
                    cells
                        .iter()
                        .map(|c| c.msg_size)
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .map(|s| Value::UInt(s as u64))
                        .collect(),
                ),
            ),
        ],
        results: cells
            .iter()
            .map(|c| {
                let mut metrics = vec![
                    MetricRow::higher("gib_per_sec", c.gib_per_sec),
                    MetricRow::lower("response_ns", c.response_ns as f64),
                    MetricRow::info("registered_bytes", c.registered_bytes as f64),
                ];
                // Promote the sender-side batching stages from the
                // informational digests to gated scalars: doorbell
                // coalescing and post-to-completion latency are exactly
                // what the hot-path work optimises, so a regression
                // there must fail the build even when end-to-end
                // throughput hides it.
                for stage in ["stage.wr_batch_ns", "stage.post_to_completion_ns"] {
                    if let Some((_, s)) = c.stages.iter().find(|(k, _)| k == stage) {
                        metrics.push(MetricRow::lower(&format!("{stage}_p50"), s.p50 as f64));
                    }
                }
                BenchResult {
                    id: format!("{}/msg={}KiB", c.algorithm, c.msg_size >> 10),
                    metrics,
                    stages: c.stages.clone(),
                }
            })
            .collect(),
    }
}

/// Runs the full smoke measurement session — exactly what the committed
/// baseline records and what `perfdiff` regenerates as the candidate.
pub fn smoke_report() -> BenchReport {
    let mut report = BenchReport::new();
    let cells = run_concurrency_matrix(SMOKE_LEVELS, SMOKE_ROWS_PER_THREAD);
    report
        .benches
        .push(concurrency_bench_run(&cells, SMOKE_LEVELS, SMOKE_ROWS_PER_THREAD));
    let cells = run_msgsize_sweep(
        SMOKE_MSG_SIZES,
        SMOKE_MSG_NODES,
        Some(SMOKE_MSG_BYTES_PER_NODE),
    );
    report.benches.push(msgsize_bench_run(
        &cells,
        SMOKE_MSG_NODES,
        Some(SMOKE_MSG_BYTES_PER_NODE),
    ));
    report
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
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let schema = match get("schema") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing schema tag".to_string()),
        };
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let commit = match get("commit") {
            Some(Value::Str(s)) => s.clone(),
            _ => "unknown".to_string(),
        };
        let Some(Value::Array(benches)) = get("benches") else {
            return Err("missing benches array".to_string());
        };
        let mut metrics = Vec::new();
        for bench in benches {
            let Value::Object(bf) = bench else {
                return Err("bench entry is not an object".to_string());
            };
            let bget = |key: &str| bf.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let Some(Value::Str(bench_id)) = bget("bench") else {
                return Err("bench entry without a bench id".to_string());
            };
            let Some(Value::Array(results)) = bget("results") else {
                return Err(format!("bench {bench_id}: missing results"));
            };
            for result in results {
                let Value::Object(rf) = result else {
                    return Err(format!("bench {bench_id}: result is not an object"));
                };
                let rget = |key: &str| rf.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let Some(Value::Str(id)) = rget("id") else {
                    return Err(format!("bench {bench_id}: result without an id"));
                };
                let Some(Value::Object(ms)) = rget("metrics") else {
                    return Err(format!("bench {bench_id}/{id}: missing metrics"));
                };
                let directions = match rget("directions") {
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
                    let v = match value {
                        Value::Float(f) => *f,
                        Value::UInt(u) => *u as f64,
                        Value::Int(i) => *i as f64,
                        _ => {
                            return Err(format!(
                                "bench {bench_id}/{id}: metric {name} is not numeric"
                            ))
                        }
                    };
                    let tag = directions.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                    let direction = match tag {
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
                if let Some(Value::Object(stages)) = rget("stages") {
                    for (sname, sval) in stages {
                        let Value::Object(sf) = sval else { continue };
                        let p50 = sf.iter().find(|(k, _)| k == "p50").map(|(_, v)| v);
                        let v = match p50 {
                            Some(Value::Float(f)) => *f,
                            Some(Value::UInt(u)) => *u as f64,
                            Some(Value::Int(i)) => *i as f64,
                            _ => continue,
                        };
                        let name = format!("{sname}_p50");
                        if ms.iter().any(|(k, _)| *k == name) {
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

/// Extracts `--emit PATH` from an argument list, returning the
/// remaining arguments and the path (if given). Shared by the bench
/// binaries.
pub fn take_emit_flag(args: Vec<String>) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::new();
    let mut emit = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--emit" {
            emit = it.next();
            if emit.is_none() {
                eprintln!("--emit requires a path");
                std::process::exit(2);
            }
        } else {
            rest.push(a);
        }
    }
    (rest, emit)
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
