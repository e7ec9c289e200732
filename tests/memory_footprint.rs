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

use std::sync::Arc;

use rshuffle_repro::engine::{run_shuffle_with_recovery, Generator, RecoveryPolicy};
use rshuffle_repro::rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_repro::simnet::DeviceProfile;

const THREADS: usize = 2;
const ROW: usize = 16;

/// Runs one healthy MESQ/SR shuffle and returns the peak registered
/// bytes observed on node 0 (all nodes are symmetric under the
/// repartition plan).
fn mesq_sr_peak(nodes: usize, message_size: usize) -> usize {
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, THREADS);
    config.message_size = message_size;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let report = run_shuffle_with_recovery(
        &runtime,
        &config,
        RecoveryPolicy::default(),
        ROW,
        |_, node| Arc::new(Generator::new(64, THREADS, node as u64)) as Arc<dyn Operator>,
        |_, _, _, _| {},
    );
    runtime.cluster().run();
    assert!(
        report.lock().succeeded(),
        "MESQ/SR {nodes} nodes msg {message_size}: {:?}",
        report.lock().failure
    );
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
