//! Layer drivers: small loops over one layer's public API, run only under
//! `--trace`. Each checks its own result (bytes arrived, virtual time
//! advanced, answers equal) before it reports, and reports the median of
//! [`REPEATS`] repeats.

mod cells;
mod core_buffer;
mod kernel;
mod simnet_models;
mod verbs;

use crate::metrics::{median, Values};
use crate::spans::Tracer;

/// Repeats per driver; the median is reported.
const REPEATS: usize = 3;

/// A driver loop: runs once, checks itself, returns its figure.
type Driver = fn() -> f64;

fn median_of(run: Driver) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    median(&samples)
}

/// Runs every driver and adds its rows to `layers`.
pub fn run_all(seed: u64, tracer: &Tracer, layers: &mut Values) {
    let drivers = tracer.begin("drivers", None);
    let loops: [(&'static str, Driver); 6] = [
        ("simnet.kernel.handoff_ns", kernel::handoff_ns),
        ("simnet.kernel.gate_wake_ns", kernel::gate_wake_ns),
        ("simnet.kernel.event_ns", kernel::event_ns),
        ("simnet.nic.process_ns", simnet_models::nic_process_ns),
        ("simnet.net.transfer_ns", simnet_models::fabric_transfer_ns),
        ("core.buffer.take_recycle_ns", core_buffer::take_recycle_ns),
    ];
    for (name, run) in loops {
        let (value, _) = tracer.span(name, Some(&drivers), || median_of(run));
        layers.insert(name, value);
    }
    let (post_poll, _) = tracer.span("verbs.post_poll", Some(&drivers), || {
        let runs: Vec<(f64, f64)> = (0..REPEATS).map(|_| verbs::post_poll()).collect();
        (
            median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
            runs[0].1,
        )
    });
    layers.insert("verbs.post_poll_host_ns", post_poll.0);
    layers.insert("verbs.post_poll_virt_ns", post_poll.1);
    tracer.span("cells", Some(&drivers), || cells::run(seed, tracer, layers));
    tracer.end(&drivers);
}
