//! Registered-memory footprint regression pins.
//!
//! `VerbsRuntime::registered_bytes_peak` tracks the high-water mark of
//! pinned memory per node but was never asserted anywhere; a change to
//! buffer sizing, ring layout, or scratch allocation would slip through
//! silently. These tests pin the peak for MESQ/SR — the paper's
//! flagship algorithm — across the DESIGN.md §4 calibration shapes:
//!
//! * F9 (message-size sweep, 8 nodes EDR): UD registers MTU-sized
//!   buffers, so the pinned footprint must stay **flat** across message
//!   sizes 4 KiB → 1 MiB and far below the 100+ MiB an RC design pins
//!   at 1 MiB messages (the paper's "< 1 MiB pinned for UD" shape,
//!   scaled by our simulated buffer counts).
//! * F10 (scale-out, 2–16 nodes EDR): the per-node footprint grows with
//!   the receive window per source node.
//!
//! The constants are exact: the simulator is deterministic and the
//! admission controller budgets against these very numbers
//! (`ExchangeConfig::registered_bytes_estimate`), so any drift is a
//! real footprint change that must be acknowledged here.
//!
//! What registered memory costs the *host* is pinned beside it:
//! `VerbsRuntime::resident_bytes` counts the windows that hold storage,
//! which must follow the windows holding live bytes — not every window
//! ever touched — and return to zero when the exchange is released.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::sync::Arc;

use rshuffle_repro::engine::RecoveryPolicy;
use rshuffle_repro::rshuffle::{ExchangeConfig, ShuffleAlgorithm};
use rshuffle_repro::simnet::{DeviceProfile, FlowId, UD_MTU};
use rshuffle_repro::verbs::VerbsRuntime;

const THREADS: usize = 2;

/// Runs one healthy MESQ/SR shuffle of `rows` rows per thread under
/// `config` and returns the runtime it ran on.
fn run_mesq_sr(config: &ExchangeConfig, rows: usize) -> Arc<VerbsRuntime> {
    let runtime = config.build_runtime(DeviceProfile::edr());
    let run = coordinated::spawn(&runtime, config, RecoveryPolicy::default(), rows).finish();
    assert!(
        run.report.succeeded(),
        "MESQ/SR msg {}: {:?}",
        config.message_size,
        run.report.failure
    );
    runtime
}

/// Runs one healthy MESQ/SR shuffle and returns the peak registered
/// bytes observed on node 0 (all nodes are symmetric under the
/// repartition plan).
fn mesq_sr_peak(nodes: usize, message_size: usize) -> usize {
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, THREADS);
    config.message_size = message_size;
    let runtime = run_mesq_sr(&config, 64);
    let peak = runtime.registered_bytes_peak(0);
    for node in 1..nodes {
        assert_eq!(
            runtime.registered_bytes_peak(node),
            peak,
            "repartition is symmetric; node {node} diverged"
        );
    }
    peak
}

/// F9 shape: UD pins MTU-sized buffers, so MESQ/SR's footprint is flat
/// across the paper's whole message-size sweep.
#[test]
fn mesq_sr_peak_is_flat_across_message_sizes() {
    let baseline = mesq_sr_peak(8, 4 << 10);
    for message_size in [16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        assert_eq!(
            mesq_sr_peak(8, message_size),
            baseline,
            "MESQ/SR pinned memory must not depend on message size \
             (msg = {message_size})"
        );
    }
}

/// F9/F10 pins: exact per-node peaks at 64 KiB messages for the
/// scale-out node counts. MESQ/SR's footprint is dominated by the
/// receive window (3 buffers × window × MTU per source node), so it
/// grows linearly with cluster size and stays orders of magnitude below
/// an RC design's per-destination ring buffers at large messages.
#[test]
fn mesq_sr_peak_is_pinned_per_scaleout_shape() {
    for (nodes, expected) in [(2, 524_288), (4, 1_310_720), (8, 2_883_584), (16, 6_029_312)] {
        let peak = mesq_sr_peak(nodes, 64 << 10);
        assert_eq!(
            peak, expected,
            "MESQ/SR @ {nodes} nodes: peak registered bytes drifted"
        );
        // The admission controller budgets against exactly this number.
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, THREADS);
        config.message_size = 64 << 10;
        let runtime = config.build_runtime(DeviceProfile::edr());
        assert_eq!(
            config.registered_bytes_estimate(runtime.profile(), 0),
            expected,
            "MESQ/SR @ {nodes} nodes: admission estimate disagrees with the pin"
        );
        // The paper's calibration shape: UD pinning stays small — under
        // 8 MiB per node even at 16 nodes, where an RC ring design at
        // 1 MiB messages pins two orders of magnitude more.
        assert!(
            peak < 8 << 20,
            "MESQ/SR @ {nodes} nodes: {peak} bytes pinned — UD footprint blew up"
        );
    }
}

/// Host backing follows live windows. A UD channel can hold live bytes in
/// its send windows and in as many receive windows as it granted credit
/// for; the two thirds of the receive pool kept as head-room for credit
/// datagrams are reposted as soon as they are read, and a window that
/// was consumed costs nothing until the next message lands in it. So the
/// peak stays under `live windows x MTU` however many messages pass
/// through, is as flat across the message-size sweep as the pinned bytes
/// are, and is back to zero once the query has released its exchange.
#[test]
fn mesq_sr_resident_backing_follows_live_windows() {
    const NODES: usize = 8;
    let mut peaks = Vec::new();
    for message_size in [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, NODES, THREADS);
        config.message_size = message_size;
        // Tagged, so that the coordinator's release has something to release.
        config.flow = FlowId(1);
        // 18 datagrams per thread and destination: every send window is
        // used eight times over.
        let runtime = run_mesq_sr(&config, 32 << 10);
        let live_windows = THREADS * (config.ud_send_buffers + config.ud_recv_window * (NODES - 1));
        for node in 0..NODES {
            let peak = runtime.resident_bytes_peak(node);
            assert!(
                0 < peak && peak <= live_windows * UD_MTU,
                "node {node}: {peak} resident bytes against {live_windows} live windows"
            );
            assert!(peak * 2 < runtime.registered_bytes_peak(node));
            assert_eq!(runtime.resident_bytes(node), 0, "node {node} after release");
        }
        peaks.push(runtime.resident_bytes_peak(0));
    }
    assert_eq!(peaks, [peaks[0]; 5], "host backing depends on message size");
    assert_eq!(peaks[0], 176_128, "MESQ/SR @ 8 nodes: resident peak drifted");
}
