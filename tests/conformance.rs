//! Differential conformance harness: all six shuffle algorithms are run
//! over identical seeded workloads — healthy and under PR-2 fault plans
//! — with the protocol auditor installed, and the delivered multisets
//! are cross-checked against each other and against the generator.
//!
//! The six designs differ in transport (Send/Receive vs RDMA Read vs
//! RDMA Write, RC vs UD) and queue-pair topology, but they implement
//! the same relational exchange: for the same seed they must deliver
//! the same multiset of rows to the same nodes. Any divergence between
//! two algorithms is a protocol bug in at least one of them, and on a
//! healthy run the invariant auditor must agree with a completely empty
//! violation log.

mod common;
#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::sync::Arc;

use common::{expected_rows, small_config, us, THREADS};
use rshuffle_repro::engine::{run_workload, Generator, QuerySpec, RecoveryPolicy, RecoveryReport};
use rshuffle_repro::rshuffle::{Operator, ShuffleAlgorithm};
use rshuffle_repro::sched::{Scheduler, SchedulerConfig};
use rshuffle_repro::simnet::DeviceProfile;
use rshuffle_repro::verbs::FaultPlan;
use run::{Collector, Run, ROW};

const ROWS_PER_THREAD: usize = 800;

/// Runs `algorithm` under `plan` with the paper's restart-only
/// semantics (the partial rungs have their own suite, `tests/recovery.rs`),
/// with the auditor installed or not.
fn run_conformance(
    algorithm: ShuffleAlgorithm,
    plan: FaultPlan,
    max_full_restarts: u32,
    audit: bool,
) -> Run<RecoveryReport> {
    let config = small_config(algorithm, Some(plan));
    let runtime = config.build_runtime(DeviceProfile::edr());
    // Install the auditor explicitly so the harness exercises it even
    // when the `audit` cargo feature (auto-install) is off.
    if audit {
        runtime.enable_audit();
    }
    let policy = RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts,
        ..RecoveryPolicy::default()
    };
    coordinated::spawn(&runtime, &config, policy, ROWS_PER_THREAD).finish()
}

/// Healthy fabric: all six paper algorithms plus the two §7 RDMA Write
/// variants, same seed, no faults. Every design must deliver the
/// identical multiset with zero restarts, and the protocol auditor must
/// find nothing.
#[test]
fn all_algorithms_agree_on_a_healthy_fabric() {
    let expected = expected_rows(ROWS_PER_THREAD, |node| node as u64);
    let wr_variants = ["MEMQ/WR", "SEMQ/WR"]
        .map(|n| ShuffleAlgorithm::parse(n).expect("WR variant parses"));
    for algorithm in ShuffleAlgorithm::ALL.into_iter().chain(wr_variants) {
        let run = run_conformance(algorithm, FaultPlan::new(), 0, true);
        assert!(
            run.report.succeeded(),
            "{algorithm}: healthy run failed: {:?}",
            run.report.failure
        );
        assert_eq!(run.report.full_restarts, 0, "{algorithm}: healthy run restarted");
        let delivered = &run.delivered[&run.report.generation];
        assert_eq!(
            *delivered, expected,
            "{algorithm}: delivered multiset diverges from the generator \
             ({} of {} rows)",
            delivered.len(),
            expected.len()
        );
        assert!(
            run.violations.is_empty(),
            "{algorithm}: auditor flagged a healthy run: {:?}",
            run.violations
        );
    }
}

/// Faulted fabric: the same PR-2 fault plans the chaos suite uses, one
/// per transport-level failure mode. Under every plan, every algorithm
/// must converge (within the restart budget) on exactly the generated
/// multiset — so all six agree with each other run-to-run even when
/// their recovery paths differ wildly.
#[test]
fn all_algorithms_agree_under_fault_plans() {
    let expected = expected_rows(ROWS_PER_THREAD, |node| node as u64);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("link-flap", FaultPlan::new().link_flap(1, us(10), us(150))),
        (
            "straggler",
            FaultPlan::new().straggler(2, us(5), us(500), 4.0),
        ),
        ("qp-failure", FaultPlan::new().qp_failure(1, us(20))),
        (
            "ud-loss-burst",
            FaultPlan::new().ud_loss_burst(0, us(10), us(120), 1.0),
        ),
    ];
    for (plan_name, plan) in plans {
        for algorithm in ShuffleAlgorithm::ALL {
            let run = run_conformance(algorithm, plan.clone(), 6, true);
            assert!(
                run.report.succeeded(),
                "{algorithm} under {plan_name}: failed after {} restarts: {:?}",
                run.report.full_restarts,
                run.report.failure
            );
            let delivered = &run.delivered[&run.report.generation];
            assert_eq!(
                *delivered, expected,
                "{algorithm} under {plan_name}: winning generation diverges \
                 ({} of {} rows, {} restarts)",
                delivered.len(),
                expected.len(),
                run.report.full_restarts
            );
            assert!(
                run.violations.is_empty(),
                "{algorithm} under {plan_name}: auditor flagged the run: {:?}",
                run.violations
            );
        }
    }
}

/// Seed of one query's generator on one node: queries must produce
/// disjoint, recognizable row sets so cross-query leaks are caught.
fn query_seed(query: u32, node: usize) -> u64 {
    node as u64 ^ ((query as u64 + 1) << 32)
}

/// Two queries on the same fabric, for every algorithm: each query's
/// winning generation must deliver exactly its own generator's multiset
/// (no loss, no duplication, no cross-query leakage), the protocol
/// auditor must stay silent, and — because the scheduler, the
/// fair arbiter, and the kernel are all deterministic — two
/// same-seed runs must produce byte-identical snapshots and traces.
#[test]
fn two_queries_share_the_fabric_cleanly() {
    for algorithm in ShuffleAlgorithm::ALL {
        let mut artifacts = Vec::new();
        for rep in 0..2 {
            let config = small_config(algorithm, Some(FaultPlan::new()));
            let runtime = config.build_runtime(DeviceProfile::edr());
            let auditor = runtime.enable_audit();
            let scheduler = Scheduler::new(&runtime, SchedulerConfig::default());
            let delivered = Collector::default();
            let d = delivered.clone();
            let handles = run_workload(
                &runtime,
                &scheduler,
                vec![
                    QuerySpec::new(0, config.clone(), ROW),
                    QuerySpec::new(1, config.clone(), ROW),
                ],
                |query, _, node| {
                    Arc::new(Generator::new(
                        ROWS_PER_THREAD,
                        THREADS,
                        query_seed(query, node),
                    )) as Arc<dyn Operator>
                },
                move |query, generation, _, _, batch| d.push((query, generation), batch),
            );
            runtime.cluster().run();
            let delivered = delivered.into_sorted();
            for h in &handles {
                let report = h.report.lock();
                assert!(
                    report.succeeded(),
                    "{algorithm} rep {rep} query {}: failed: {:?}",
                    h.query,
                    report.failure
                );
                assert_eq!(
                    delivered[&(h.query, report.generation)],
                    expected_rows(ROWS_PER_THREAD, |node| query_seed(h.query, node)),
                    "{algorithm} rep {rep} query {}: delivered multiset diverges \
                     from its own generator",
                    h.query
                );
            }
            let violations = auditor.finalize(true);
            assert!(
                violations.is_empty(),
                "{algorithm} rep {rep}: auditor flagged the two-query run: {violations:?}"
            );
            let obs = runtime.obs();
            artifacts.push((obs.snapshot_json(), obs.chrome_trace_json()));
        }
        assert_eq!(
            artifacts[0], artifacts[1],
            "{algorithm}: same-seed two-query runs are not byte-identical"
        );
    }
}

/// The auditor itself must not perturb the simulation: a healthy run
/// with the auditor installed produces the byte-identical observability
/// snapshot and Chrome trace as one without. Hooks cost no virtual time
/// and the auditor only touches the recorder on its first violation.
#[test]
fn auditor_is_invisible_to_virtual_time() {
    for algorithm in [ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MEMQ_RD] {
        let mut snapshots = Vec::new();
        let mut traces = Vec::new();
        for enable in [false, true] {
            let run = run_conformance(algorithm, FaultPlan::new(), 0, enable);
            assert!(
                run.report.succeeded(),
                "{algorithm} (audit={enable}): failed"
            );
            snapshots.push(run.snapshot);
            traces.push(run.trace);
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "{algorithm}: installing the auditor changed the metrics snapshot"
        );
        assert_eq!(
            traces[0], traces[1],
            "{algorithm}: installing the auditor changed the trace"
        );
    }
}
