//! Concurrent-workload benchmark: N identical shuffle queries run
//! through the admission scheduler on one simulated cluster, for every
//! algorithm and N ∈ {1, 2, 4, 8} (`--smoke`: N ∈ {1, 2} with small
//! inputs, the CI gate).
//!
//! Reports per-query virtual latency (p50/p99 across the queries of a
//! run) and aggregate delivered throughput, and checks the two scheduler
//! invariants: at least two queries genuinely overlap in virtual time
//! whenever N ≥ 2, and the per-node registered-memory peak never exceeds
//! the configured budget.

use std::sync::Arc;

use rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_engine::ops::Generator;
use rshuffle_engine::workload::{run_workload, QuerySpec};
use rshuffle_sched::{Scheduler, SchedulerConfig};
use rshuffle_simnet::DeviceProfile;
use serde::Value;

use super::{Outcome, Scale};
use crate::perf::{stage_summaries, BenchResult, MetricRow};

/// Cluster size.
const NODES: usize = 3;
/// Worker threads per node.
const THREADS: usize = 2;
/// Row size streamed.
const ROW: usize = 16;

pub(super) fn concurrency(scale: Scale) -> Outcome {
    let (levels, rows_per_thread): (&[usize], usize) = match scale {
        Scale::Smoke => (&[1, 2], 200),
        Scale::Full => (&[1, 2, 4, 8], 800),
    };
    let uint = |n: usize| Value::UInt(n as u64);
    let config = vec![
        ("nodes", uint(NODES)),
        ("threads", uint(THREADS)),
        ("rows_per_thread", uint(rows_per_thread)),
        (
            "levels",
            Value::Array(levels.iter().map(|&n| uint(n)).collect()),
        ),
    ];
    let mut out = Outcome::new("concurrency", config);
    for algorithm in ShuffleAlgorithm::ALL {
        for &n in levels {
            run_cell(&mut out, algorithm, n, rows_per_thread);
        }
    }
    out
}

/// One `(algorithm, N)` cell on a fresh cluster; the memory budget
/// exactly fits N concurrent copies of the query, so one byte of
/// over-pinning trips a violation.
fn run_cell(out: &mut Outcome, algorithm: ShuffleAlgorithm, n: usize, rows_per_thread: usize) {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let est_max = (0..NODES)
        .map(|node| config.registered_bytes_estimate(runtime.profile(), node))
        .max()
        .unwrap();
    let budget = est_max * n;
    let sched = Scheduler::new(
        &runtime,
        SchedulerConfig {
            max_concurrent: n,
            mem_budget_per_node: Some(budget),
        },
    );
    let queries = (0..n as u32)
        .map(|id| QuerySpec::new(id, config.clone(), ROW))
        .collect();
    let handles = run_workload(
        &runtime,
        &sched,
        queries,
        move |query, _, node| {
            Arc::new(Generator::new(
                rows_per_thread,
                THREADS,
                node as u64 ^ (query as u64) << 16,
            )) as Arc<dyn Operator>
        },
        |_, _, _, _, _| {},
    );
    runtime.cluster().run();

    let expected_rows = (NODES * THREADS * rows_per_thread) as u64;
    let mut latencies = Vec::new();
    let mut total_bytes = 0u64;
    let mut windows = Vec::new();
    let mut makespan_end = 0u64;
    for h in &handles {
        let rep = h.report.lock();
        let t = h.timing.lock();
        if !rep.succeeded() || rep.rows != expected_rows {
            out.violations.push(format!(
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
            out.violations.push(format!(
                "{algorithm} N={n}: no two queries overlapped: {windows:?}"
            ));
        }
    }
    // Invariant: the budget holds at all times on every node.
    let mut peak = 0usize;
    for node in 0..NODES {
        let p = runtime.registered_bytes_peak(node);
        peak = peak.max(p);
        if p > budget {
            out.violations.push(format!(
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
    out.run.results.push(BenchResult {
        id: format!("{algorithm}/N={n}"),
        metrics: vec![
            // Submission-to-completion virtual latency across the queries.
            MetricRow::lower("p50_ns", pct(0.50) as f64),
            MetricRow::lower("p99_ns", pct(0.99) as f64),
            // First admission to last completion, and bytes delivered over it.
            MetricRow::lower("makespan_ns", makespan_end as f64),
            MetricRow::higher("agg_mbps", agg_mbps),
            MetricRow::info("peak_bytes", peak as f64),
        ],
        stages: stage_summaries(&runtime.obs().metrics.snapshot()),
    });
}
