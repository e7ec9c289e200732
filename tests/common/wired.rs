//! The wired harness: one exchange built and driven directly — no
//! coordinator, one attempt, worker errors fail the test.

use std::sync::Arc;

use rshuffle_repro::engine::{drive_exchange, Generator};
use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, Operator};
use rshuffle_repro::verbs::VerbsRuntime;

use super::run::{Collector, Run, ROW};

/// Builds `config`'s exchange on `runtime`, shuffles `rows_per_thread`
/// generated rows per thread (node `n`'s generator seeded with `n`) and
/// runs the simulation to its end.
pub fn run(
    runtime: &Arc<VerbsRuntime>,
    config: &ExchangeConfig,
    rows_per_thread: usize,
) -> Run<Exchange> {
    let exchange = Exchange::build(runtime, config).expect("exchange builds");
    let source = |node| {
        Arc::new(Generator::new(rows_per_thread, config.threads, node as u64)) as Arc<dyn Operator>
    };
    let delivered = Collector::sized(config.groups.len() * config.threads * rows_per_thread);
    let sink = delivered.clone();
    let deliver = move |_, _, batch: &_| sink.push(0, batch);
    let stats = drive_exchange(runtime, &exchange, ROW, 2048, source, deliver);
    runtime.cluster().run();
    for fragment in &stats {
        let errors = &fragment.lock().errors;
        assert!(
            errors.is_empty(),
            "{}: worker errors: {errors:?}",
            config.algorithm
        );
    }
    Run::collect(runtime, delivered, true, exchange)
}
