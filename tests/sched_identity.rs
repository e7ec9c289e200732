//! Scheduler transparency: with a concurrency limit of 1, driving a
//! query through `run_workload` + `Scheduler` must be byte-identical in
//! virtual time to the direct `run_shuffle_with_recovery` path — the
//! same coordinator loop with no scheduler — for all six paper
//! algorithms.
//!
//! "Byte-identical" is checked on the strongest observable artifacts we
//! have: the full metrics snapshot and the Chrome trace, after removing
//! only the scheduler's own additive surface (`sched.*` series and the
//! query_admitted/deferred/completed instants). Everything else — every
//! NIC reservation, completion timestamp, credit stall, retry — must
//! match to the byte, which it only can if admission consumed zero
//! virtual time and the fair arbiter with a single running flow
//! reproduces the untagged schedule exactly.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::sync::Arc;

use coordinated::Pending;
use rshuffle_obs::trace::chrome_trace;
use rshuffle_repro::engine::{run_workload, Generator, QuerySpec, RecoveryPolicy, RecoveryReport};
use rshuffle_repro::rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_repro::sched::{Scheduler, SchedulerConfig};
use rshuffle_repro::simnet::DeviceProfile;
use run::{Collector, Run, ROW};
use serde::Value;

const NODES: usize = 3;
const THREADS: usize = 2;
const ROWS_PER_THREAD: usize = 300;

/// Renders the metrics snapshot with every `sched.*` series and the
/// workload driver's query-latency histogram removed — the scheduler
/// path's whole additive surface.
fn strip_sched_series(mut snapshot: rshuffle_obs::Snapshot) -> String {
    let additive = |key: &str| {
        key.starts_with("sched.") || key.starts_with(rshuffle_obs::names::ENGINE_QUERY_LATENCY_NS)
    };
    snapshot.counters.retain(|(key, _)| !additive(key));
    snapshot.histograms.retain(|(key, _)| !additive(key));
    snapshot.to_json()
}

/// Re-serializes the Chrome trace without the scheduler's admission
/// instants (the only records the scheduler adds).
fn strip_sched_events(trace: Value) -> String {
    let Value::Array(events) = trace else {
        panic!("chrome trace is a JSON array");
    };
    let kept: Vec<Value> = events
        .into_iter()
        .filter(|event| {
            let Value::Object(fields) = event else {
                return true;
            };
            let name = fields.iter().find_map(|(key, value)| match value {
                Value::Str(s) if key == "name" => Some(s.as_str()),
                _ => None,
            });
            !matches!(
                name,
                Some("query_admitted" | "query_deferred" | "query_completed")
            )
        })
        .collect();
    serde_json::to_string(&Value::Array(kept)).expect("trace serializes")
}

fn config_for(algorithm: ShuffleAlgorithm) -> ExchangeConfig {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    config
}

/// Finishes a spawned query and re-renders its snapshot and trace with
/// the scheduler's additive surface stripped, so the two paths are
/// comparable.
fn stripped(algorithm: ShuffleAlgorithm, path: &str, pending: Pending) -> Run<RecoveryReport> {
    let obs = pending.runtime.obs().clone();
    let mut run = pending.finish();
    assert!(
        run.report.succeeded(),
        "{algorithm}: {path} run failed: {:?}",
        run.report.failure
    );
    run.snapshot = strip_sched_series(obs.metrics.snapshot());
    run.trace = strip_sched_events(chrome_trace(&obs.recorder));
    run
}

fn run_direct(algorithm: ShuffleAlgorithm) -> Run<RecoveryReport> {
    let config = config_for(algorithm);
    let runtime = config.build_runtime(DeviceProfile::edr());
    let policy = RecoveryPolicy::default();
    let pending = coordinated::spawn(&runtime, &config, policy, ROWS_PER_THREAD);
    stripped(algorithm, "direct", pending)
}

fn run_scheduled(algorithm: ShuffleAlgorithm) -> Run<RecoveryReport> {
    let config = config_for(algorithm);
    let runtime = config.build_runtime(DeviceProfile::edr());
    let scheduler = Scheduler::new(
        &runtime,
        SchedulerConfig {
            max_concurrent: 1,
            ..SchedulerConfig::default()
        },
    );
    let delivered = Collector::default();
    let sink = delivered.clone();
    // Query id 0: flow 0, endpoint-id base 0 — the very same endpoint
    // ids the direct path allocates.
    let handles = run_workload(
        &runtime,
        &scheduler,
        vec![QuerySpec::new(0, config, ROW)],
        |_, _, node| {
            Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64)) as Arc<dyn Operator>
        },
        move |_, generation, _, _, batch| sink.push(generation, batch),
    );
    let report = handles[0].report.clone();
    let pending = Pending {
        runtime,
        delivered,
        report,
    };
    stripped(algorithm, "scheduled", pending)
}

/// The headline acceptance criterion: limit-1 scheduling is
/// invisible — same rows, same metrics, same trace, for all six
/// algorithms.
#[test]
fn limit_one_scheduler_is_byte_identical_to_direct_path() {
    for algorithm in ShuffleAlgorithm::ALL {
        let direct = run_direct(algorithm);
        let scheduled = run_scheduled(algorithm);
        assert_eq!(
            direct.delivered[&0].len(),
            NODES * THREADS * ROWS_PER_THREAD,
            "{algorithm}: direct run dropped rows"
        );
        assert_eq!(
            direct.delivered, scheduled.delivered,
            "{algorithm}: delivered multisets diverge"
        );
        if direct.snapshot != scheduled.snapshot {
            for (a, b) in direct.snapshot.lines().zip(scheduled.snapshot.lines()) {
                if a != b {
                    eprintln!("direct:    {a}\nscheduled: {b}");
                }
            }
        }
        assert_eq!(
            direct.snapshot, scheduled.snapshot,
            "{algorithm}: metrics snapshots diverge once sched.* series are removed"
        );
        assert_eq!(
            direct.trace, scheduled.trace,
            "{algorithm}: Chrome traces diverge once admission instants are removed"
        );
    }
}
