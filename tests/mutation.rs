//! Mutation smoke test: each compile-time saboteur breaks exactly one
//! protocol step, and the auditor must catch it as a *named*
//! [`AuditViolation`] — never a hang, never a silent pass.
//!
//! Only built with `--features saboteur`; see `ci.sh`. The saboteurs
//! live at the real call sites inside the endpoints
//! (`crates/core/src/sabotage.rs` documents each), so this suite is a
//! living proof that the invariant checks are sharp enough to see one
//! skipped write-back, one dropped ring announcement, one stranded
//! announcement queue, one off-by-one `Depleted` counter, one message after
//! `Depleted` and one double grant.
#![cfg(feature = "saboteur")]

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use parking_lot::Mutex;
use std::sync::Arc;

use rshuffle_repro::audit::{AuditViolation, ShuffleAuditor};
use rshuffle_repro::engine::{RecoveryPolicy, RecoveryReport};
use rshuffle_repro::rshuffle::sabotage::{arm, disarm, Sabotage};
use rshuffle_repro::rshuffle::{ExchangeConfig, ShuffleAlgorithm};
use rshuffle_repro::simnet::{DeviceProfile, SimDuration};
use run::Run;

const NODES: usize = 3;
const THREADS: usize = 2;
const ROWS_PER_THREAD: usize = 800;
/// Rows per thread under an RC credit saboteur or the queue stranding one.
/// They act on a credit write-back, which a flow draws only once its sender
/// could run short of credit, or on an announcement that queued behind a
/// write in flight: at 800 rows neither happens, so these carry ~20
/// messages.
const CREDIT_ROWS_PER_THREAD: usize = 16_000;

/// The saboteur state is process-wide; the test harness runs tests on
/// parallel threads, so every test serializes on this lock.
static SABOTAGE_LOCK: Mutex<()> = Mutex::new(());

/// Runs one single-attempt query with `s` armed and the auditor
/// installed; returns the run, the violations the auditor saw online —
/// before any end-of-run check — and the auditor. Completing at all
/// (success or typed error) is itself part of the contract under test: a
/// sabotaged run must never hang.
fn run_sabotaged(
    algorithm: ShuffleAlgorithm,
    s: Sabotage,
) -> (
    Run<RecoveryReport>,
    Vec<AuditViolation>,
    Arc<ShuffleAuditor>,
) {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    config.stall_timeout = SimDuration::from_millis(2);
    config.depleted_timeout = SimDuration::from_micros(500);
    let runtime = config.build_runtime(DeviceProfile::edr());
    let auditor = runtime.enable_audit();
    arm(s);
    let policy = RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts: 0,
        ..RecoveryPolicy::default()
    };
    let rows = match s {
        Sabotage::SkipCreditWriteback
        | Sabotage::SwallowCtrlCompletion
        | Sabotage::StrandAnnouncementQueue => CREDIT_ROWS_PER_THREAD,
        _ => ROWS_PER_THREAD,
    };
    let pending = coordinated::spawn(&runtime, &config, policy, rows);
    runtime.cluster().run();
    disarm();
    let online = auditor.violations();
    (pending.finish(), online, auditor)
}

/// Rows generation 0 delivered.
fn delivered(run: &Run<RecoveryReport>) -> usize {
    run.delivered.get(&0).map_or(0, Vec::len)
}

fn codes(violations: &[AuditViolation]) -> Vec<&'static str> {
    violations.iter().map(AuditViolation::code).collect()
}

/// Skipping one RC credit write-back self-heals (absolute credit), so
/// the run usually succeeds — only the auditor, which knows from its own
/// counts when a write-back is owed, can see that the protocol forgot to
/// announce credit.
#[test]
fn skipped_credit_writeback_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, online, _) = run_sabotaged(ShuffleAlgorithm::MEMQ_SR, Sabotage::SkipCreditWriteback);
    let found = codes(&online);
    assert!(
        found.contains(&"credit_writeback_lost"),
        "skipped write-back must surface as credit_writeback_lost, got {found:?} \
         (run: {:?})",
        run.report.failure
    );
}

/// Dropping one ValidArr announcement in the RDMA Read design strands a
/// written buffer: the receiver's watchdog turns the would-be hang into
/// a typed stall, and finalize names the produced-but-never-consumed
/// ring entry.
#[test]
fn dropped_valid_arr_update_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, _, auditor) = run_sabotaged(ShuffleAlgorithm::MEMQ_RD, Sabotage::DropValidArrUpdate);
    assert!(
        run.report.failure.is_some(),
        "a dropped ValidArr entry must stall the query, not pass silently \
         ({} rows delivered)",
        delivered(&run)
    );
    // The attempt was torn down mid-stream, so audit against the
    // clean-termination invariants deliberately: the stranded entry is
    // exactly a producer/consumer imbalance.
    let found = codes(&auditor.finalize(true));
    assert!(
        found.contains(&"ring_imbalance"),
        "dropped ValidArr update must surface as ring_imbalance, got {found:?}"
    );
}

/// Stranding one ValidArr queue — dropping what waited behind a write in
/// flight when its ack is reaped, as a flush that forgot a queue would —
/// leaves no hole in the ring, so no watchdog need fire. The producer
/// counted each stranded announcement when it queued it, so finalize names
/// the imbalance all the same.
#[test]
fn stranded_announcement_queue_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, _, auditor) =
        run_sabotaged(ShuffleAlgorithm::MEMQ_RD, Sabotage::StrandAnnouncementQueue);
    let found = codes(&auditor.finalize(true));
    assert!(
        found.contains(&"ring_imbalance"),
        "a stranded ValidArr queue must surface as ring_imbalance, got {found:?} \
         (run: {:?}, {} rows delivered)",
        run.report.failure,
        delivered(&run)
    );
}

/// Announcing a `Depleted` counter one below the truth makes a receiver
/// terminate early and silently miss a message — the worst §4.4.2
/// failure mode. The auditor cross-checks the announced counter against
/// the data messages it watched the sender actually send.
#[test]
fn underreported_depleted_count_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, online, _) = run_sabotaged(
        ShuffleAlgorithm::MESQ_SR,
        Sabotage::UnderreportDepletedCount,
    );
    let found = codes(&online);
    assert!(
        found.contains(&"depleted_mismatch"),
        "underreported Depleted counter must surface as depleted_mismatch, \
         got {found:?} (run: {:?}, {} rows delivered)",
        run.report.failure,
        delivered(&run)
    );
}

/// Swallowing one credit write-back completion on the RC control CQ —
/// exactly what the old `let _ = ctrl_cq.poll(..)` drain did to every
/// ctrl completion — leaves the outstanding-write ledger nonzero
/// forever. End-of-stream must turn that into a typed stall, not a
/// silent pass.
#[test]
fn swallowed_ctrl_completion_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, _, _) = run_sabotaged(ShuffleAlgorithm::MEMQ_SR, Sabotage::SwallowCtrlCompletion);
    let failure = run
        .report
        .failure
        .as_ref()
        .expect("a swallowed ctrl completion must fail the query, not pass silently");
    assert!(
        format!("{failure:?}").contains("credit write-back"),
        "failure must name the unaccounted credit write-back, got {failure:?}"
    );
}

/// One more data message after a reliable connection's final one
/// declared `Depleted` goes to a receiver that already counts its source
/// as done — `rd_rc` ends once every source has declared, and would drop
/// it unseen — so the auditor names the send itself.
#[test]
fn send_after_depleted_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, online, _) = run_sabotaged(ShuffleAlgorithm::MEMQ_RD, Sabotage::SendAfterDepleted);
    let found = codes(&online);
    assert!(
        found.contains(&"data_after_depleted"),
        "data after Depleted must surface as data_after_depleted, got {found:?} \
         (run: {:?})",
        run.report.failure
    );
}

/// Granting the same remote buffer offset twice in the RDMA Write
/// design invites the sender to overwrite a buffer the operator may
/// still be reading; the auditor sees the second grant as releasing a
/// buffer the receiver no longer holds.
#[test]
fn double_grant_is_named() {
    let _guard = SABOTAGE_LOCK.lock();
    let (run, online, _) = run_sabotaged(
        ShuffleAlgorithm::parse("MEMQ/WR").expect("MEMQ/WR parses"),
        Sabotage::DoubleGrant,
    );
    let found = codes(&online);
    assert!(
        found.contains(&"double_release"),
        "double grant must surface as double_release, got {found:?} \
         (run: {:?})",
        run.report.failure
    );
}
