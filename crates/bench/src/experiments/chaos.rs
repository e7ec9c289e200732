//! Chaos benchmark: runs every shuffle algorithm under a matrix of seeded
//! fault plans through the partial-failure recovery orchestrator and
//! reports partial retries, full restarts, QP reconnects, redone bytes,
//! recovery latency, and delivered-row verification.
//!
//! `--smoke` runs a composite fault plan plus a partial-recovery
//! (QP-failure-window) plan across all six algorithms (the CI gate); the
//! full run is the whole plan matrix. A run is a violation unless it
//! recovers with exactly-once delivery — and, under the partial-recovery
//! plan, without a full restart.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_engine::ops::Generator;
use rshuffle_engine::recovery::{run_shuffle_with_recovery, RecoveryPolicy};
use rshuffle_simnet::{DeviceProfile, SimDuration};
use rshuffle_verbs::{FaultConfig, FaultPlan, QpScope};
use serde::Value;

use super::{Outcome, Scale};
use crate::perf::MetricRow;

const NODES: usize = 3;
const THREADS: usize = 2;
const ROWS_PER_THREAD: usize = 2000;
const ROW: usize = 16;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::new()),
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
        partial_recovery_plan(),
    ]
}

fn composite_plan() -> (&'static str, FaultPlan) {
    (
        "composite",
        FaultPlan::new()
            .link_flap(1, us(10), us(150))
            .straggler(2, us(5), us(500), 4.0)
            .qp_failure(1, us(20))
            .ud_loss_burst(0, us(10), us(120), 1.0),
    )
}

/// A transient whole-node QP outage: the plan the partial-retry rung
/// exists for. Runs under this plan must contain the failure — at least
/// one partial retry, no full restart.
fn partial_recovery_plan() -> (&'static str, FaultPlan) {
    (
        "partial-recovery",
        FaultPlan::new().qp_failure_window(1, us(10), us(200), QpScope::All),
    )
}

pub(super) fn chaos(scale: Scale) -> Outcome {
    let smoke = scale == Scale::Smoke;
    let plans = if smoke {
        vec![composite_plan(), partial_recovery_plan()]
    } else {
        fault_matrix()
    };
    let config = vec![
        ("nodes", Value::UInt(NODES as u64)),
        ("threads", Value::UInt(THREADS as u64)),
        ("rows_per_thread", Value::UInt(ROWS_PER_THREAD as u64)),
        ("row_size", Value::UInt(ROW as u64)),
        ("smoke", Value::Bool(smoke)),
    ];
    let mut out = Outcome::new("chaos", config);
    let expected_rows = (NODES * THREADS * ROWS_PER_THREAD) as u64;
    for (plan_name, plan) in &plans {
        let described: Vec<String> = plan.events.iter().map(|e| e.to_string()).collect();
        eprintln!("[chaos] plan {plan_name}: {}", described.join("; "));
        for algorithm in ShuffleAlgorithm::ALL {
            let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
            config.message_size = 4096;
            config.stall_timeout = SimDuration::from_millis(2);
            config.depleted_timeout = us(500);
            config.faults = FaultConfig {
                seed: 42,
                plan: plan.clone(),
                ..FaultConfig::default()
            };
            let runtime = config.build_runtime(DeviceProfile::edr());
            let delivered: Arc<Mutex<HashMap<u32, u64>>> = Arc::new(Mutex::new(HashMap::new()));
            let d = delivered.clone();
            let report = run_shuffle_with_recovery(
                &runtime,
                &config,
                RecoveryPolicy {
                    max_partial_retries: 6,
                    max_full_restarts: 6,
                    ..RecoveryPolicy::default()
                },
                ROW,
                |_, node| {
                    Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64))
                        as Arc<dyn Operator>
                },
                move |generation, _, _, batch| {
                    *d.lock().entry(generation).or_default() += batch.rows() as u64;
                },
            );
            runtime.cluster().run();
            let rep = report.lock().clone();
            let winning = delivered.lock().get(&rep.generation).copied().unwrap_or(0);
            // The partial-recovery plan is a containment gate: the
            // failure must be absorbed without a full restart.
            let contained = *plan_name != "partial-recovery"
                || (rep.partial_retries >= 1 && rep.full_restarts == 0);
            let id = format!("{plan_name}/{algorithm}");
            match &rep.failure {
                Some(e) => out.violations.push(format!("{id}: failed: {e}")),
                None if winning != expected_rows => out
                    .violations
                    .push(format!("{id}: row mismatch ({winning}/{expected_rows})")),
                None if !contained => out.violations.push(format!(
                    "{id}: not contained ({} partial, {} full)",
                    rep.partial_retries, rep.full_restarts
                )),
                None => {}
            }
            let recovery_ns = rep.recovery.map(|r| r.as_nanos()).unwrap_or(0);
            out.row(
                id,
                vec![
                    MetricRow::lower("engine.recovery_ns", recovery_ns as f64),
                    MetricRow::info("engine.partial_retries", rep.partial_retries as f64),
                    MetricRow::info("engine.restarts", rep.full_restarts as f64),
                    MetricRow::info("engine.qp_reconnects", rep.qp_reconnects as f64),
                    MetricRow::info("engine.redone_bytes", rep.redone_bytes as f64),
                    MetricRow::info("engine.kept_bytes", rep.kept_bytes as f64),
                    MetricRow::info("rows", rep.rows as f64),
                ],
            );
        }
    }
    out
}
