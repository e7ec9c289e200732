//! Partial-failure recovery suite: epoch-fenced per-flow retry, QP
//! reconnect with backoff, and graceful algorithm degradation.
//!
//! The contract under test extends the chaos suite's: under a Queue
//! Pair failure the recovery orchestrator must (a) keep the rows
//! delivered before the failure instead of redoing them — strictly
//! fewer redone bytes than the full-restart baseline under the same
//! fault plan, (b) still deliver every generated row exactly once
//! across epoch bumps, (c) stay same-seed byte-identical, (d) keep the
//! protocol auditor clean across rebuilds, and (e) when the fabric
//! never heals, either step down the degradation ladder mid-query or
//! surface a typed [`ShuffleError::RetryBudgetExhausted`] — never a
//! hang.

mod common;
#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/pins.rs"]
mod pins;
#[path = "common/run.rs"]
mod run;

use std::sync::Arc;

use common::{small_config, us, NODES, THREADS};
use rshuffle_repro::engine::{run_workload, Generator, QuerySpec, RecoveryPolicy, RecoveryReport};
use rshuffle_repro::rshuffle::{
    EndpointImpl, Exchange, ExchangeConfig, Operator, ShuffleAlgorithm, ShuffleError,
};
use rshuffle_repro::sched::{Scheduler, SchedulerConfig};
use rshuffle_repro::simnet::FlowId;
use rshuffle_repro::simnet::{DeviceProfile, SimDuration, SimTime};
use rshuffle_repro::verbs::{FaultPlan, QpScope, VerbsRuntime};
use run::{Collector, Run, ROW};

// Larger than the chaos suite's workload: healthy queries finish in
// 13–32 µs of virtual time at 1000 rows/thread, which a fault window
// opening at 20 µs would miss entirely for the fast SR designs. At
// 4000 rows every algorithm is mid-flight when the outage lands.
const ROWS_PER_THREAD: usize = 4000;

fn recovery_config(algorithm: ShuffleAlgorithm, plan: FaultPlan) -> ExchangeConfig {
    let mut config = small_config(algorithm, Some(plan));
    // Tag the query's memory so the orchestrator's per-attempt release
    // is observable: after the run, every node's registered bytes must
    // be back to zero however many rebuilds recovery took.
    config.flow = FlowId(1);
    config
}

/// Policy that prefers the partial-retry rung.
fn partial_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_partial_retries: 6,
        reconnect_budget: 10,
        max_full_restarts: 6,
        ..RecoveryPolicy::default()
    }
}

/// Policy with the partial rung disabled: every failure takes the
/// full-restart path, the baseline the containment matrix compares
/// against.
fn full_only_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts: 6,
        ..RecoveryPolicy::default()
    }
}

fn run_recovery(
    algorithm: ShuffleAlgorithm,
    plan: FaultPlan,
    policy: RecoveryPolicy,
) -> Run<RecoveryReport> {
    run_recovery_on(recovery_config(algorithm, plan), policy).1
}

/// [`run_recovery`] over `config`, handing back the runtime it ran on.
fn run_recovery_on(
    config: ExchangeConfig,
    policy: RecoveryPolicy,
) -> (Arc<VerbsRuntime>, Run<RecoveryReport>) {
    let runtime = config.build_runtime(DeviceProfile::edr());
    runtime.enable_audit();
    let run = coordinated::spawn(&runtime, &config, policy, ROWS_PER_THREAD).finish();
    // Memory-budget hygiene across rebuilds: every exchange a
    // flow-tagged query builds, failed builds included, must deregister
    // what it pinned, and the host storage behind it must go back to the
    // runtime — the attempts a recovery went through, failed ones
    // included, hold nothing once over.
    for node in (0..NODES).filter(|_| config.flow.is_tagged()) {
        assert_eq!(
            runtime.registered_bytes(node),
            0,
            "node {node}: registered memory leaked across recovery rebuilds"
        );
        assert_eq!(
            runtime.resident_bytes(node),
            0,
            "node {node}: a released attempt's windows still hold storage"
        );
    }
    (runtime, run)
}

/// Every row each node's generator will emit, cluster-wide.
fn expected_rows() -> Vec<[u8; ROW]> {
    common::expected_rows(ROWS_PER_THREAD, |node| node as u64)
}

/// A transient QP outage on node 1 killing every Queue Pair built while
/// the window is open — the canonical partial-failure the recovery
/// layer exists for.
fn qp_outage() -> FaultPlan {
    FaultPlan::new().qp_failure_window(1, us(20), us(150), QpScope::All)
}

fn assert_exactly_once(run: &Run<RecoveryReport>, label: &str) {
    let expected = expected_rows();
    let got = &run.delivered[&run.report.generation];
    assert_eq!(
        got.len(),
        expected.len(),
        "{label}: delivered {} of {} rows (partial retries: {}, full restarts: {})",
        got.len(),
        expected.len(),
        run.report.partial_retries,
        run.report.full_restarts
    );
    assert_eq!(
        *got, expected,
        "{label}: delivered rows diverge from the source"
    );
    assert_eq!(run.report.rows, expected.len() as u64, "{label}");
}

/// The containment matrix: under the same single-node QP outage, the
/// partial-retry path must redo strictly fewer sink-visible bytes than
/// the full-restart baseline, for every one of the six designs, while
/// both deliver exactly once with a clean auditor.
#[test]
fn partial_recovery_redoes_strictly_fewer_bytes_than_full_restart() {
    for algorithm in ShuffleAlgorithm::ALL {
        let partial = run_recovery(algorithm, qp_outage(), partial_policy());
        let full = run_recovery(algorithm, qp_outage(), full_only_policy());
        assert!(
            partial.report.succeeded(),
            "{algorithm}: partial recovery failed: {:?}",
            partial.report.failure
        );
        assert!(
            full.report.succeeded(),
            "{algorithm}: full-restart baseline failed: {:?}",
            full.report.failure
        );
        assert_exactly_once(&partial, &format!("{algorithm} partial"));
        assert_exactly_once(&full, &format!("{algorithm} full"));
        assert!(
            partial.report.partial_retries >= 1,
            "{algorithm}: the outage must exercise the partial rung"
        );
        assert_eq!(
            partial.report.full_restarts, 0,
            "{algorithm}: partial recovery must contain the failure without a full restart"
        );
        assert!(
            full.report.full_restarts >= 1,
            "{algorithm}: baseline must take the full-restart path"
        );
        assert!(
            full.report.redone_bytes > 0,
            "{algorithm}: baseline discarded no work — the fault landed too early to compare"
        );
        assert!(
            partial.report.redone_bytes < full.report.redone_bytes,
            "{algorithm}: containment violated — partial redid {} bytes, full restart {}",
            partial.report.redone_bytes,
            full.report.redone_bytes
        );
        assert!(
            partial.report.kept_bytes > 0,
            "{algorithm}: a partial retry must carry watermarked bytes forward"
        );
        assert!(
            partial.report.qp_reconnects >= 1,
            "{algorithm}: the resumed build must count as a reconnect"
        );
        assert_eq!(
            partial.violations.len(),
            0,
            "{algorithm}: auditor must stay clean across epoch bumps"
        );
        assert_eq!(
            full.violations.len(),
            0,
            "{algorithm}: baseline auditor clean"
        );
        assert!(
            partial.snapshot.contains("endpoint.stale_epoch_drops"),
            "{algorithm}: the epoch fence must be observable in the snapshot"
        );
    }
}

/// The attempt ends at its first failure: the coordinator aborts every
/// other worker of the attempt, which returns one control message later
/// instead of waiting out its 2 ms stall deadline — for every design,
/// with the winning generation still exactly-once and auditor-clean. The
/// first error is the first return of a worker once the outage began
/// (a worker that finished before it failed nothing), and the report's
/// recovery latency counts from it.
#[test]
fn a_failed_attempt_ends_within_25_us_of_its_first_error() {
    let outage_at = SimTime::ZERO + us(20);
    for algorithm in ShuffleAlgorithm::ALL {
        let config = recovery_config(algorithm, qp_outage());
        let (runtime, run) = run_recovery_on(config, partial_policy());
        assert!(
            run.report.succeeded(),
            "{algorithm}: {:?}",
            run.report.failure
        );
        assert_eq!(run.report.partial_retries, 1, "{algorithm}");
        assert_exactly_once(&run, &format!("{algorithm} aborted attempt"));
        assert_eq!(run.violations.len(), 0, "{algorithm}: auditor clean");
        let stats = runtime.kernel().stats();
        // The workers of the first attempt are `r0-{half}-{node}-{tid}`.
        let returns: Vec<SimTime> = stats
            .iter()
            .filter(|t| t.name.starts_with("r0-") && t.finished_at >= outage_at)
            .map(|t| t.finished_at)
            .collect();
        let (Some(&first), Some(&last)) = (returns.iter().min(), returns.iter().max()) else {
            panic!("{algorithm}: no worker of the first attempt outlived the outage's start");
        };
        assert!(
            last - first <= us(25),
            "{algorithm}: the failed attempt's last worker returned {:?} after its first error",
            last - first
        );
        let coordinator = stats.iter().find(|t| t.name == "query-coordinator");
        let ended = coordinator.map(|t| t.finished_at);
        let recovery = run.report.recovery.unwrap_or(SimDuration::ZERO);
        assert_eq!(
            ended.map(|at| at - recovery),
            Some(first),
            "{algorithm}: recovery counts from the first worker's error"
        );
    }
}

/// An untagged query's abandoned attempt gives its registered memory
/// back before the retry is built: the query's registered peak under the
/// outage is the fault-free one, not the sum of two attempts'. So does a
/// build that will not connect: inside an open QP-failure window it fails
/// typed, names the node, and leaves nothing registered; a window scoped
/// to RC leaves the UD designs buildable.
#[test]
fn an_abandoned_attempt_gives_back_its_registered_memory() {
    for scope in [QpScope::All, QpScope::Rc] {
        for algorithm in ShuffleAlgorithm::ALL {
            let plan = FaultPlan::new().qp_failure_window(1, SimDuration::ZERO, us(150), scope);
            let config = recovery_config(algorithm, plan);
            let runtime = config.build_runtime(DeviceProfile::edr());
            let built = Exchange::build(&runtime, &config);
            let label = format!("{algorithm} under {scope:?}");
            if scope == QpScope::Rc && algorithm.imp == EndpointImpl::SqSr {
                assert!(built.is_ok(), "{label}: {:?}", built.err());
                assert!(runtime.failed_qp_nodes().is_empty(), "{label}");
                continue;
            }
            assert!(
                matches!(built, Err(ShuffleError::Verbs(_))),
                "{label}: expected a typed verbs error, got {:?}",
                built.err()
            );
            assert_eq!(runtime.failed_qp_nodes(), vec![1], "{label}");
            for node in 0..NODES {
                assert_eq!(runtime.registered_bytes(node), 0, "{label}: node {node}");
            }
        }
    }
    let peak = |plan: Option<FaultPlan>| {
        let config = small_config(ShuffleAlgorithm::MESQ_SR, plan);
        let (runtime, run) = run_recovery_on(config, partial_policy());
        assert!(run.report.succeeded(), "{:?}", run.report.failure);
        let peak: usize = (0..NODES).map(|n| runtime.registered_bytes_peak(n)).sum();
        (peak, run.report.partial_retries)
    };
    let (healthy, _) = peak(None);
    let (outage, retries) = peak(Some(qp_outage()));
    assert_eq!(retries, 1, "the outage takes one partial retry");
    assert_eq!(outage, healthy, "registered peak of two attempts");
}

/// Same-seed recovery runs — including the failed rebuilds, backoff
/// schedule and epoch bumps — must be byte-identical down to the
/// metrics snapshot and Chrome trace.
#[test]
fn same_seed_recovery_runs_are_byte_identical() {
    for algorithm in [ShuffleAlgorithm::MEMQ_RD, ShuffleAlgorithm::SESQ_SR] {
        let a = run_recovery(algorithm, qp_outage(), partial_policy());
        let b = run_recovery(algorithm, qp_outage(), partial_policy());
        assert_eq!(
            a.report.partial_retries, b.report.partial_retries,
            "{algorithm}: same-seed runs took different retry counts"
        );
        assert_eq!(
            a.snapshot, b.snapshot,
            "{algorithm}: same-seed recovery runs must produce byte-identical snapshots"
        );
        assert_eq!(
            a.trace, b.trace,
            "{algorithm}: same-seed recovery runs must produce byte-identical traces"
        );
    }
}

/// A persistent RC-only outage: the fixed MEMQ/RD design exhausts its
/// reconnect budget twice and must complete mid-query via the ladder
/// (MEMQ/RD → MEMQ/SR → MESQ/SR), without ever bumping the generation —
/// every row delivered before each descent is kept.
#[test]
fn persistent_rc_outage_degrades_to_ud_and_completes() {
    let plan =
        FaultPlan::new().qp_failure_window(1, us(20), SimDuration::from_millis(500), QpScope::Rc);
    let policy = RecoveryPolicy {
        max_partial_retries: 8,
        reconnect_budget: 3,
        max_full_restarts: 0, // the ladder alone must save the query
        ..RecoveryPolicy::default()
    };
    let run = run_recovery(ShuffleAlgorithm::MEMQ_RD, plan, policy);
    assert!(
        run.report.succeeded(),
        "degradation must complete the query: {:?}",
        run.report.failure
    );
    assert_eq!(
        run.report.degradations,
        vec![ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MESQ_SR],
        "expected the two-rung descent to the UD design"
    );
    assert_eq!(run.report.final_algorithm, ShuffleAlgorithm::MESQ_SR);
    assert_eq!(run.report.full_restarts, 0);
    assert_eq!(run.report.generation, 0, "degradation keeps the generation");
    assert_exactly_once(&run, "degraded MEMQ_RD");
    assert_eq!(run.violations.len(), 0, "auditor clean across the descent");
    assert!(
        run.snapshot.contains("engine.degraded"),
        "degradation must be observable in the metrics snapshot"
    );
}

/// A permanent all-transport outage: the reconnect budget runs out, no
/// rung is left (degradation disabled, or the ladder walked to its
/// sturdiest design, which the outage breaks too), the full-restart
/// budget is spent — the query must give up with the typed budget
/// error, not hang, and report the design and generation it gave up on.
#[test]
fn exhausted_budgets_surface_typed_error_not_a_hang() {
    for (allow_degradation, max_full_restarts, gave_up_on) in [
        (false, 0, ShuffleAlgorithm::MEMQ_SR),
        (true, 1, ShuffleAlgorithm::MESQ_SR),
    ] {
        let plan = FaultPlan::new().qp_failure_window(
            1,
            us(20),
            SimDuration::from_millis(500),
            QpScope::All,
        );
        let policy = RecoveryPolicy {
            max_partial_retries: 4,
            reconnect_budget: 3,
            allow_degradation,
            max_full_restarts,
        };
        let run = run_recovery(ShuffleAlgorithm::MEMQ_SR, plan, policy);
        let failure = run
            .report
            .failure
            .clone()
            .unwrap_or_else(|| panic!("a permanent outage cannot succeed"));
        assert!(
            matches!(failure, ShuffleError::RetryBudgetExhausted { node: 1, .. }),
            "expected the typed budget error, got {failure:?}"
        );
        assert!(
            run.report.qp_reconnects >= 3,
            "the budget must actually be spent"
        );
        assert_eq!(
            run.report.final_algorithm, gave_up_on,
            "a failed query reports the design it gave up on, not the one it started on"
        );
        assert_eq!(run.report.full_restarts, max_full_restarts);
        assert_eq!(
            run.report.generation, max_full_restarts,
            "a failed query reports the generation it gave up in"
        );
    }
}

/// The same outage through the admission scheduler: a scheduled query
/// contains it with partial retries (no full replay), re-enters
/// admission once per build, failed builds included, holds no slot or
/// budget while it backs off, and leaves nothing pinned.
#[test]
fn scheduled_query_contains_a_qp_outage_with_a_partial_retry() {
    let config = recovery_config(ShuffleAlgorithm::MEMQ_SR, qp_outage());
    let runtime = config.build_runtime(DeviceProfile::edr());
    let scheduler = Scheduler::new(&runtime, SchedulerConfig::default());
    let delivered = Collector::default();
    let d = delivered.clone();
    let mut spec = QuerySpec::new(1, config.clone(), ROW);
    spec.policy = partial_policy();
    let handles = run_workload(
        &runtime,
        &scheduler,
        vec![spec],
        |_, _, node| {
            Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64)) as Arc<dyn Operator>
        },
        move |_, generation, _, _, batch| d.push(generation, batch),
    );
    runtime.cluster().run();
    let report = handles[0].report.lock().clone();
    assert!(
        report.succeeded(),
        "scheduled recovery failed: {:?}",
        report.failure
    );
    assert!(
        report.partial_retries >= 1,
        "the outage must exercise the partial rung"
    );
    assert_eq!(report.full_restarts, 0, "contained without a full replay");
    assert_eq!(report.generation, 0);
    // The first build, then one per reconnect: every later build
    // follows the outage's QP failure.
    assert_eq!(
        handles[0].timing.lock().admissions,
        report.qp_reconnects + 1,
        "one admission per exchange build"
    );
    let got = &delivered.into_sorted()[&0];
    assert_eq!(
        *got,
        expected_rows(),
        "generation 0 holds every row exactly once"
    );
    for node in 0..NODES {
        assert!(
            scheduler.reserved_bytes_peak(node)
                <= config.registered_bytes_estimate(runtime.profile(), node),
            "node {node}: a recovering query never holds two admissions' worth of budget"
        );
        assert_eq!(scheduler.reserved_bytes(node), 0);
        assert_eq!(
            runtime.registered_bytes(node),
            0,
            "node {node}: memory leaked"
        );
    }
}

/// Rebuild `k` of a query takes endpoint ids `base + k * 4096`, and
/// queries sit 65 536 ids apart: a policy allowing 16 rebuilds would walk
/// into the next query's ids. Such a spec fails typed, before admission;
/// its neighbour runs.
#[test]
fn policy_that_overruns_the_endpoint_id_space_fails_before_admission() {
    let config = recovery_config(ShuffleAlgorithm::MEMQ_SR, FaultPlan::new());
    let runtime = config.build_runtime(DeviceProfile::edr());
    let scheduler = Scheduler::new(&runtime, SchedulerConfig::default());
    let mut greedy = QuerySpec::new(0, config.clone(), ROW);
    greedy.policy = RecoveryPolicy {
        max_partial_retries: 10,
        max_full_restarts: 6,
        ..RecoveryPolicy::default()
    };
    let handles = run_workload(
        &runtime,
        &scheduler,
        vec![greedy, QuerySpec::new(1, config, ROW)],
        |_, _, node| Arc::new(Generator::new(100, THREADS, node as u64)) as Arc<dyn Operator>,
        |_, _, _, _, _| {},
    );
    runtime.cluster().run();
    let failure = handles[0].report.lock().failure.clone();
    assert!(
        matches!(failure, Some(ShuffleError::Config(_))),
        "expected a typed config error, got {failure:?}"
    );
    assert_eq!(
        handles[0].timing.lock().admissions,
        0,
        "failed before admission"
    );
    assert!(
        handles[1].report.lock().succeeded(),
        "the neighbour is unaffected"
    );
    assert_eq!(handles[1].timing.lock().admissions, 1);
}

/// FNV-1a over the snapshot text, as `tests/determinism.rs` digests it.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The coordinator's whole report, one row of `tests/pins/recovery.txt`
/// per run: the final virtual time, the snapshot and trace digests and
/// every field of the `RecoveryReport` but `failure` (each run here
/// succeeds). Rows: each design under the node-1 outage with the partial
/// rung and without it, the MEMQ/RD descent of
/// `persistent_rc_outage_degrades_to_ud_and_completes`, and a fault-free
/// run. Recorded before the coordinator's receive workers ran on the
/// exchange's RECEIVE operator; a change to the coordinator that is meant
/// to leave virtual time alone reproduces every value.
#[test]
fn coordinator_reports_match_the_pinned_table() {
    let descent = (
        FaultPlan::new().qp_failure_window(1, us(20), SimDuration::from_millis(500), QpScope::Rc),
        RecoveryPolicy {
            max_partial_retries: 8,
            reconnect_budget: 3,
            max_full_restarts: 0,
            ..RecoveryPolicy::default()
        },
    );
    let mut cases = Vec::new();
    for algorithm in ShuffleAlgorithm::ALL {
        cases.push((algorithm, "partial", qp_outage(), partial_policy()));
        cases.push((algorithm, "full", qp_outage(), full_only_policy()));
    }
    cases.push((ShuffleAlgorithm::MEMQ_RD, "descent", descent.0, descent.1));
    cases.push((
        ShuffleAlgorithm::MESQ_SR,
        "healthy",
        FaultPlan::new(),
        partial_policy(),
    ));
    let measured: Vec<String> = cases
        .into_iter()
        .map(|(algorithm, label, plan, policy)| {
            let run = run_recovery(algorithm, plan, policy);
            let r = &run.report;
            assert!(r.succeeded(), "{algorithm} {label}: {:?}", r.failure);
            let degradations: Vec<String> = r.degradations.iter().map(|a| a.to_string()).collect();
            let errors: Vec<String> = r.attempt_errors.iter().map(|e| e.to_string()).collect();
            format!(
                "{algorithm} {label}: end_ns {} snapshot {:#018x} trace {:#018x} rows {} bytes {} \
                 partial_retries {} qp_reconnects {} full_restarts {} generation {} \
                 kept_bytes {} redone_bytes {} recovery_ns {:?} final {} degradations [{}] \
                 errors [{}]",
                run.end_ns,
                fnv1a(&run.snapshot),
                fnv1a(&run.trace),
                r.rows,
                r.bytes,
                r.partial_retries,
                r.qp_reconnects,
                r.full_restarts,
                r.generation,
                r.kept_bytes,
                r.redone_bytes,
                r.recovery.map(|d| d.as_nanos()),
                r.final_algorithm,
                degradations.join(", "),
                errors.join(" | "),
            )
        })
        .collect();
    pins::check("recovery.txt", &measured);
}

/// Healthy runs pay nothing: no retries, no reconnects, no redone
/// bytes, and the wire format (epoch 0 everywhere) leaves the metrics
/// snapshot identical across repeated runs.
#[test]
fn healthy_recovery_runs_are_free_and_deterministic() {
    let a = run_recovery(
        ShuffleAlgorithm::MESQ_SR,
        FaultPlan::new(),
        partial_policy(),
    );
    let b = run_recovery(
        ShuffleAlgorithm::MESQ_SR,
        FaultPlan::new(),
        partial_policy(),
    );
    assert!(a.report.succeeded());
    assert_eq!(a.report.partial_retries, 0);
    assert_eq!(a.report.qp_reconnects, 0);
    assert_eq!(a.report.full_restarts, 0);
    assert_eq!(a.report.redone_bytes, 0);
    assert_eq!(a.report.recovery, None);
    assert_exactly_once(&a, "healthy MESQ_SR");
    assert_eq!(
        a.snapshot, b.snapshot,
        "healthy runs must be byte-identical"
    );
    assert_eq!(a.violations.len(), 0);
}
