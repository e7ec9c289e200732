//! Chaos suite: every shuffle algorithm × a matrix of seeded fault plans.
//!
//! The contract under test is the paper's §4.4.2 failure model plus this
//! repo's recovery layer: under any injected fault, a query either
//! delivers every generated row exactly once (possibly after bounded
//! query restarts — the partial rungs of the ladder are off here, see
//! `tests/recovery.rs` for those) or returns a typed [`ShuffleError`] —
//! never a hang, never a panic, never a duplicated or dropped row in
//! the winning generation. Because faults are virtual-time-scheduled and every random
//! draw is seeded, same-seed chaos runs must be byte-identical down to
//! the metrics snapshot and Chrome trace.

mod common;
#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::collections::HashMap;
use std::sync::Arc;

use common::{small_config, us, NODES, THREADS};
use rshuffle_repro::engine::{
    run_shuffle_with_recovery, Generator, RecoveryPolicy, RecoveryReport,
};
use rshuffle_repro::rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm, ShuffleError};
use rshuffle_repro::simnet::{DeviceProfile, NodeId, SimDuration};
use rshuffle_repro::verbs::FaultPlan;
use run::{Collector, Run, ROW};

const ROWS_PER_THREAD: usize = 1000;

/// The chaos matrix: one representative plan per fault type. Offsets are
/// early (≤ 20 µs) so every fault lands while the query is in flight;
/// windows are short relative to the 2 ms stall timeout where the fault
/// should be ridden out (flap, degrade, straggler) and long enough to
/// force typed errors where recovery requires a restart (pause, QP
/// failure, UD burst).
fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("link-flap", FaultPlan::new().link_flap(1, us(10), us(150))),
        (
            "link-degrade",
            FaultPlan::new().link_degrade(1, us(5), us(400), 0.25, us(2)),
        ),
        (
            "straggler",
            FaultPlan::new().straggler(2, us(5), us(500), 4.0),
        ),
        (
            "receiver-pause",
            FaultPlan::new().receiver_pause(1, us(10), us(300)),
        ),
        ("qp-failure", FaultPlan::new().qp_failure(1, us(20))),
        (
            "ud-loss-burst",
            FaultPlan::new().ud_loss_burst(0, us(10), us(120), 1.0),
        ),
    ]
}

/// The paper's restart-only semantics with a budget of `max_full_restarts`.
fn restart_policy(max_full_restarts: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts,
        ..RecoveryPolicy::default()
    }
}

fn chaos_policy() -> RecoveryPolicy {
    restart_policy(6)
}

fn run_chaos(config: &ExchangeConfig, policy: RecoveryPolicy) -> Run<RecoveryReport> {
    let runtime = config.build_runtime(DeviceProfile::edr());
    coordinated::spawn(&runtime, config, policy, ROWS_PER_THREAD).finish()
}

/// Every row each node's generator will emit, cluster-wide.
fn expected_rows() -> Vec<[u8; ROW]> {
    common::expected_rows(ROWS_PER_THREAD, |node| node as u64)
}

/// Every row the nodes other than `node` emit, sorted: what a broadcast
/// delivers to `node`.
fn rows_from_others(node: NodeId) -> Vec<[u8; ROW]> {
    let emitted = |src: NodeId| {
        let seqs =
            move |tid| (0..ROWS_PER_THREAD).map(move |seq| Generator::row(src as u64, tid, seq));
        (0..THREADS).flat_map(seqs)
    };
    let mut rows: Vec<_> = (0..NODES)
        .filter(|&src| src != node)
        .flat_map(emitted)
        .collect();
    rows.sort_unstable();
    rows
}

/// The rows each node received, sorted, per `(generation, node)`.
type ReceivedByNode = HashMap<(u32, NodeId), Vec<[u8; ROW]>>;

/// MESQ/SR broadcasting through the switch's native multicast under
/// `plan`, restart-only: the report and what each node received.
fn run_native_multicast(plan: FaultPlan) -> (RecoveryReport, ReceivedByNode) {
    let algorithm = ShuffleAlgorithm::MESQ_SR;
    let mut config = small_config(algorithm, Some(plan));
    config.groups = ExchangeConfig::broadcast(algorithm, NODES, THREADS).groups;
    config.ud_native_multicast = true;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let delivered = Collector::sized((NODES - 1) * THREADS * ROWS_PER_THREAD);
    let sink = delivered.clone();
    let report = run_shuffle_with_recovery(
        &runtime,
        &config,
        chaos_policy(),
        ROW,
        |_, node| {
            Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64)) as Arc<dyn Operator>
        },
        move |generation, node, _, batch| sink.push((generation, node), batch),
    );
    runtime.cluster().run();
    let report = report.lock().clone();
    (report, delivered.into_sorted())
}

#[test]
fn every_algorithm_survives_every_fault_plan_exactly_once() {
    let expected = expected_rows();
    for (plan_name, plan) in fault_matrix() {
        for algorithm in ShuffleAlgorithm::ALL {
            let run = run_chaos(&small_config(algorithm, Some(plan.clone())), chaos_policy());
            let rep = &run.report;
            assert!(
                rep.succeeded(),
                "{algorithm} under {plan_name}: query failed after {} restarts: {:?}",
                rep.full_restarts,
                rep.failure
            );
            assert!(
                rep.full_restarts <= 6,
                "{algorithm} under {plan_name}: restart budget exceeded"
            );
            // Exactly-once: the winning generation delivered precisely the
            // generated multiset — no loss, no duplication.
            let got = &run.delivered[&rep.generation];
            assert_eq!(
                got.len(),
                expected.len(),
                "{algorithm} under {plan_name}: delivered {} of {} rows (restarts: {})",
                got.len(),
                expected.len(),
                rep.full_restarts
            );
            assert_eq!(
                *got, expected,
                "{algorithm} under {plan_name}: delivered rows diverge from the source"
            );
            assert_eq!(rep.rows, expected.len() as u64, "{algorithm} {plan_name}");
        }
        // Native multicast (§7): each member's copy meets the fault on its
        // own, and every destination gets every other node's rows once.
        let (rep, delivered) = run_native_multicast(plan);
        assert!(
            rep.succeeded(),
            "native multicast under {plan_name}: query failed after {} restarts: {:?}",
            rep.full_restarts,
            rep.failure
        );
        for node in 0..NODES {
            let got = delivered.get(&(rep.generation, node));
            let want = rows_from_others(node);
            assert_eq!(
                got,
                Some(&want),
                "native multicast under {plan_name}: node {node}"
            );
        }
    }
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    // A composite plan touching every node: flap + straggler + QP failure
    // + UD burst. Restart timing, backoff and metrics must reproduce
    // bit-for-bit.
    let plan = FaultPlan::new()
        .link_flap(1, us(10), us(150))
        .straggler(2, us(5), us(500), 4.0)
        .qp_failure(1, us(20))
        .ud_loss_burst(0, us(10), us(120), 1.0);
    for algorithm in ShuffleAlgorithm::ALL {
        let config = small_config(algorithm, Some(plan.clone()));
        let a = run_chaos(&config, chaos_policy());
        let b = run_chaos(&config, chaos_policy());
        assert_eq!(
            a.report.full_restarts, b.report.full_restarts,
            "{algorithm}: same-seed runs took different restart counts"
        );
        assert_eq!(
            a.snapshot, b.snapshot,
            "{algorithm}: same-seed chaos runs must produce byte-identical snapshots"
        );
        assert_eq!(
            a.trace, b.trace,
            "{algorithm}: same-seed chaos runs must produce byte-identical traces"
        );
    }
}

#[test]
fn unrecoverable_loss_returns_typed_error_not_a_hang() {
    // Permanent 35% datagram loss: every attempt of a UD algorithm loses
    // messages, so the restart budget runs out and the query must give up
    // with a typed, restart-worthy error — not hang, not panic.
    for algorithm in [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SESQ_SR] {
        let mut config = small_config(algorithm, Some(FaultPlan::new()));
        config.faults.ud_drop_probability = 0.35;
        let rep = run_chaos(&config, restart_policy(2)).report;
        let failure = rep
            .failure
            .clone()
            .unwrap_or_else(|| panic!("{algorithm}: permanent loss cannot succeed"));
        assert_eq!(rep.full_restarts, 2, "{algorithm}: must exhaust the budget");
        assert!(
            !matches!(failure, ShuffleError::Config(_)),
            "{algorithm}: loss must surface as a transport error, got {failure:?}"
        );
    }
}

#[test]
fn marathon_receiver_pause_exhausts_restart_budget() {
    // A pause longer than every attempt the budget allows: the RC
    // send/receive design sees RNR retries exhaust on each attempt and
    // must hand back the final typed error.
    let plan = FaultPlan::new().receiver_pause(1, us(10), SimDuration::from_millis(40));
    let config = small_config(ShuffleAlgorithm::MEMQ_SR, Some(plan));
    let rep = run_chaos(&config, restart_policy(1)).report;
    assert!(
        rep.failure.is_some(),
        "a 40 ms pause defeats a 1-restart budget"
    );
    assert_eq!(rep.full_restarts, 1);
    assert_eq!(
        rep.attempt_errors.len(),
        2,
        "both attempts must report an error"
    );
}
