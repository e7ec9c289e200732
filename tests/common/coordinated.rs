//! The coordinated harness: a query under the recovery ladder
//! (`run_shuffle_with_recovery`), as many attempts as its policy allows.

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::engine::{
    run_shuffle_with_recovery, Generator, RecoveryPolicy, RecoveryReport,
};
use rshuffle_repro::rshuffle::{ExchangeConfig, Operator};
use rshuffle_repro::verbs::VerbsRuntime;

use super::run::{Collector, Run, ROW};

/// A query whose coordinator is spawned but whose simulation has not
/// necessarily run yet.
pub struct Pending {
    pub runtime: Arc<VerbsRuntime>,
    /// Rows delivered to any sink, keyed by generation.
    pub delivered: Collector<u32>,
    pub report: Arc<Mutex<RecoveryReport>>,
}

/// Spawns the coordinator of a shuffle of `rows_per_thread` generated
/// rows per thread (node `n`'s generator seeded with `n`) over `config`
/// under `policy`.
pub fn spawn(
    runtime: &Arc<VerbsRuntime>,
    config: &ExchangeConfig,
    policy: RecoveryPolicy,
    rows_per_thread: usize,
) -> Pending {
    let threads = config.threads;
    let delivered = Collector::sized(config.groups.len() * threads * rows_per_thread);
    let sink = delivered.clone();
    let report = run_shuffle_with_recovery(
        runtime,
        config,
        policy,
        ROW,
        move |_, node| {
            Arc::new(Generator::new(rows_per_thread, threads, node as u64)) as Arc<dyn Operator>
        },
        move |generation, _, _, batch| sink.push(generation, batch),
    );
    Pending {
        runtime: runtime.clone(),
        delivered,
        report,
    }
}

impl Pending {
    /// Runs what is left of the simulation — nothing, when the caller
    /// ran it already — and collects the outcome.
    pub fn finish(self) -> Run<RecoveryReport> {
        self.runtime.cluster().run();
        let report = self.report.lock().clone();
        Run::collect(&self.runtime, self.delivered, report.succeeded(), report)
    }
}
