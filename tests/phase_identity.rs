//! Identity and correctness contracts for phase-scheduled all-to-all.
//!
//! Phasing only changes *when* each destination is served — never what
//! is delivered. Three contracts pin that:
//!
//! * **Identity**: with [`PhasePolicy::Off`] (the default) nothing
//!   phase-related is even built, so a run with the knob explicitly off
//!   — even with a byte estimate supplied — must be byte-identical to
//!   the seed path: same metrics snapshot, same delivered multiset,
//!   same final virtual time, auditor clean.
//! * **Exactly-once**: under both schedules (naive rotation and
//!   skew-aware) every algorithm still delivers every row exactly once
//!   with a clean auditor, and same-seed phased runs are bit-identical.
//! * **Chaos**: phased runs under the PR 2 fault plans still terminate
//!   with exactly-once delivery in the winning generation (the runner's
//!   abort path must fail peers fast instead of hanging the barrier).

mod common;
#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;
#[path = "common/wired.rs"]
mod wired;

use std::sync::Arc;

use common::{small_config, us, NODES};
use rshuffle_repro::engine::RecoveryPolicy;
use rshuffle_repro::rshuffle::{Exchange, PhasePolicy, ShuffleAlgorithm};
use rshuffle_repro::simnet::DeviceProfile;
use rshuffle_repro::verbs::FaultPlan;
use run::{Run, ROW};

const ROWS_PER_THREAD: usize = 800;

/// Runs one small repartition, audited, with the given phase policy.
fn run_phase(
    algorithm: ShuffleAlgorithm,
    policy: PhasePolicy,
    bytes: Option<Vec<Vec<u64>>>,
) -> Run<Exchange> {
    let mut config = small_config(algorithm, None);
    config.phase = policy;
    config.phase_bytes = bytes.map(Arc::new);
    let runtime = config.build_runtime(DeviceProfile::edr());
    runtime.enable_audit();
    wired::run(&runtime, &config, ROWS_PER_THREAD)
}

/// Every row the generators emit, cluster-wide, sorted.
fn expected_rows() -> Vec<[u8; ROW]> {
    common::expected_rows(ROWS_PER_THREAD, |node| node as u64)
}

fn all_with_wr() -> Vec<ShuffleAlgorithm> {
    let wr = ["MEMQ/WR", "SEMQ/WR"].map(|n| ShuffleAlgorithm::parse(n).expect("WR parses"));
    ShuffleAlgorithm::ALL.into_iter().chain(wr).collect()
}

/// `PhasePolicy::Off` must be the seed path, bit for bit: nothing
/// phase-related is built, so even supplying a byte estimate cannot
/// move a single event.
#[test]
fn off_policy_is_byte_identical_to_the_seed_path() {
    let expected = expected_rows();
    for algorithm in all_with_wr() {
        let seed = run_phase(algorithm, PhasePolicy::Off, None);
        // A (nonsensical, but well-formed) estimate that would reorder
        // everything if it were ever consulted.
        let est = vec![vec![1u64 << 20; NODES]; NODES];
        let off = run_phase(algorithm, PhasePolicy::Off, Some(est));
        assert_eq!(
            seed.snapshot, off.snapshot,
            "{algorithm}: Off must leave the metrics snapshot byte-identical"
        );
        assert_eq!(
            seed.end_ns, off.end_ns,
            "{algorithm}: Off moved the final virtual time"
        );
        assert_eq!(
            off.delivered[&0], expected,
            "{algorithm}: delivered multiset"
        );
        assert_eq!(seed.violations.len(), 0, "{algorithm}: seed-path auditor");
        assert_eq!(off.violations.len(), 0, "{algorithm}: off-path auditor");
    }
}

/// Both schedules must keep delivery exactly-once and auditor-clean for
/// every design, and a repeated phased run must be bit-identical.
#[test]
fn phased_delivery_is_exactly_once_for_every_algorithm() {
    let expected = expected_rows();
    for algorithm in ShuffleAlgorithm::ALL {
        for policy in [PhasePolicy::Naive, PhasePolicy::SkewAware] {
            let run = run_phase(algorithm, policy, None);
            assert_eq!(
                run.delivered[&0],
                expected,
                "{algorithm} under {policy:?}: phased run lost or duplicated rows \
                 ({} of {} delivered)",
                run.delivered[&0].len(),
                expected.len()
            );
            assert_eq!(
                run.violations.len(),
                0,
                "{algorithm} under {policy:?}: auditor"
            );
            let again = run_phase(algorithm, policy, None);
            assert_eq!(
                run.snapshot, again.snapshot,
                "{algorithm} under {policy:?}: phased runs must be deterministic"
            );
            assert_eq!(run.end_ns, again.end_ns, "{algorithm} under {policy:?}");
        }
    }
}

/// A skewed byte estimate changes the schedule, never the delivery.
#[test]
fn skew_aware_estimate_preserves_delivery() {
    let expected = expected_rows();
    // Node 0 is claimed (correctly or not — the schedule must not care)
    // to send 100x more to node 1 than anything else.
    let mut est = vec![vec![1u64; NODES]; NODES];
    est[0][1] = 100;
    let run = run_phase(ShuffleAlgorithm::MESQ_SR, PhasePolicy::SkewAware, Some(est));
    assert_eq!(
        run.delivered[&0], expected,
        "estimate must not change delivery"
    );
    assert_eq!(run.violations.len(), 0, "auditor under skewed estimate");
}

/// Phased chaos: under the PR 2 fault plans the query must still
/// terminate (abort propagates through the barrier instead of hanging)
/// and the winning attempt must deliver every row exactly once.
#[test]
fn phased_chaos_plans_stay_exactly_once() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("link-flap", FaultPlan::new().link_flap(1, us(10), us(150))),
        ("qp-failure", FaultPlan::new().qp_failure(1, us(20))),
        (
            "ud-loss-burst",
            FaultPlan::new().ud_loss_burst(0, us(10), us(120), 1.0),
        ),
    ];
    let expected = expected_rows();
    for (plan_name, plan) in plans {
        for algorithm in ShuffleAlgorithm::ALL {
            let mut config = small_config(algorithm, Some(plan.clone()));
            config.phase = PhasePolicy::Naive;
            let runtime = config.build_runtime(DeviceProfile::edr());
            let policy = RecoveryPolicy {
                max_partial_retries: 0,
                max_full_restarts: 6,
                ..RecoveryPolicy::default()
            };
            let run = coordinated::spawn(&runtime, &config, policy, ROWS_PER_THREAD).finish();
            let rep = &run.report;
            assert!(
                rep.succeeded(),
                "{algorithm} phased under {plan_name}: query failed after {} restarts: {:?}",
                rep.full_restarts,
                rep.failure
            );
            let rows = &run.delivered[&rep.generation];
            assert_eq!(
                *rows,
                expected,
                "{algorithm} phased under {plan_name}: delivered {} of {} rows \
                 (restarts: {})",
                rows.len(),
                expected.len(),
                rep.full_restarts
            );
        }
    }
}
