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
//! Every design's footprint before any traffic moves is pinned as a
//! table, node by node: the bytes Figure 9b reports, the admission
//! estimate, what the runtime pinned, and when connection setup
//! (Figure 12) ends.
//!
//! What registered memory costs the *host* is pinned beside it:
//! `VerbsRuntime::resident_bytes` counts the windows that hold storage,
//! which must follow the windows holding live bytes — not every window
//! ever touched — and return to zero when the exchange is released.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/pins.rs"]
mod pins;
#[path = "common/run.rs"]
mod run;

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::baselines::{ipoib, mpi};
use rshuffle_repro::engine::RecoveryPolicy;
use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, ShuffleAlgorithm, TransmissionGroups};
use rshuffle_repro::simnet::{Cluster, DeviceProfile, FlowId, UD_MTU};
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
/// scale-out node counts, rows of `tests/pins/mesq_sr_peak.txt`. MESQ/SR's
/// footprint is dominated by the receive window (3 buffers × window × MTU
/// per source node), so it grows linearly with cluster size and stays
/// orders of magnitude below an RC design's per-destination ring buffers
/// at large messages.
#[test]
fn mesq_sr_peak_is_pinned_per_scaleout_shape() {
    let mut measured = Vec::new();
    for nodes in [2, 4, 8, 16] {
        let peak = mesq_sr_peak(nodes, 64 << 10);
        // The admission controller budgets against exactly this number.
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, THREADS);
        config.message_size = 64 << 10;
        let runtime = config.build_runtime(DeviceProfile::edr());
        assert_eq!(
            config.registered_bytes_estimate(runtime.profile(), 0),
            peak,
            "MESQ/SR @ {nodes} nodes: admission estimate disagrees with the peak"
        );
        // The paper's calibration shape: UD pinning stays small — under
        // 8 MiB per node even at 16 nodes, where an RC ring design at
        // 1 MiB messages pins two orders of magnitude more.
        assert!(
            peak < 8 << 20,
            "MESQ/SR @ {nodes} nodes: {peak} bytes pinned — UD footprint blew up"
        );
        measured.push(format!(
            "MESQ/SR @ {nodes} nodes: peak registered bytes {peak}"
        ));
    }
    pins::check("mesq_sr_peak.txt", &measured);
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
    let peak = format!("MESQ/SR @ 8 nodes: resident peak {}", peaks[0]);
    pins::check("mesq_sr_resident_peak.txt", &[peak]);
}

/// A send window gives its storage back as soon as its datagrams are
/// posted: each captured its message at the post, so nothing waits for the
/// completion to be reaped — which happens only when the pool runs dry.
/// With every delivery released and no credit datagram still in flight
/// (the write-back frequency is never reached), nothing on any node holds
/// storage when the run ends, before anything is released.
#[test]
fn mesq_sr_send_windows_hold_no_storage_after_the_run() {
    const NODES: usize = 8;
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, NODES, THREADS);
    config.credit_writeback_frequency = u32::MAX;
    // Untagged: the coordinator's release has nothing to release.
    let runtime = run_mesq_sr(&config, 64);
    for node in 0..NODES {
        let peak = runtime.resident_bytes_peak(node);
        assert!(peak > 0, "node {node} sent nothing");
        assert_eq!(runtime.resident_bytes(node), 0, "node {node} after the run");
    }
}

/// The virtual nanosecond at which each node's connection setup (Figure
/// 12) ends when every node charges its own at once on `runtime`'s fresh
/// kernel.
fn setup_ends_ns(runtime: &Arc<VerbsRuntime>, exchange: &Arc<Exchange>) -> Vec<u64> {
    let nodes = runtime.cluster().nodes();
    let ends = Arc::new(Mutex::new(vec![0; nodes]));
    for node in 0..nodes {
        let (exchange, ends) = (exchange.clone(), ends.clone());
        let name = format!("setup-{node}");
        runtime.cluster().spawn(node, &name, move |sim| {
            exchange.charge_setup(&sim, node);
            ends.lock()[node] = sim.now().as_nanos();
        });
    }
    runtime.cluster().run();
    let ends = ends.lock().clone();
    ends
}

/// Every design's footprint per node, before any traffic moves, one row
/// of `tests/pins/memory_footprint.txt` per node: the bytes the exchange
/// reports to Figure 9b, the admission controller's estimate, what the
/// runtime pinned, and when the node's connection setup ends. Recorded
/// before the endpoint traits lost their bookkeeping methods; a change
/// that is meant to leave Figures 9b and 12 alone reproduces every value.
#[test]
fn footprint_matches_the_pinned_table() {
    let (nodes, threads) = (3, 2);
    let wr = |name| ShuffleAlgorithm::parse(name).expect("a write design");
    let designs = ShuffleAlgorithm::ALL
        .into_iter()
        .chain([wr("MEMQ/WR"), wr("SEMQ/WR")]);
    let mut cases = Vec::new();
    for algorithm in designs {
        let repartition = ExchangeConfig::repartition(algorithm, nodes, threads);
        cases.push((format!("{algorithm} repartition"), repartition.clone()));
        let broadcast = ExchangeConfig::broadcast(algorithm, nodes, threads);
        cases.push((format!("{algorithm} broadcast"), broadcast));
        if algorithm.endpoints(threads) > 1 {
            let mut one_lane = repartition;
            one_lane.lanes_override = Some(1);
            cases.push((format!("{algorithm} one-lane"), one_lane));
        }
    }
    for algorithm in [ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MEMQ_RD] {
        let mut capped = ExchangeConfig::repartition(algorithm, nodes, threads);
        capped.qp_cap_per_pair = Some(1);
        cases.push((format!("{algorithm} qp-cap-1"), capped));
    }
    let mut measured = Vec::new();
    for (label, config) in cases {
        let runtime = config.build_runtime(DeviceProfile::edr());
        let exchange = Arc::new(Exchange::build(&runtime, &config).expect("builds"));
        for (node, setup_ns) in setup_ends_ns(&runtime, &exchange).into_iter().enumerate() {
            measured.push(format!(
                "{label} n{node}: fig9b {} estimate {} pinned {} setup_ns {setup_ns}",
                exchange.registered_bytes(node),
                config.registered_bytes_estimate(runtime.profile(), node),
                runtime.registered_bytes(node),
            ));
        }
    }
    // The baselines wrap SEMQ/SR endpoints: MPI charges their setup, and
    // IPoIB's sockets report the bytes their SEMQ/SR endpoints register.
    let groups = || (0..nodes).map(|me| TransmissionGroups::repartition(me, nodes));
    let runtime = || VerbsRuntime::new(Cluster::new(nodes, DeviceProfile::edr()));
    let rt = runtime();
    let exchange = mpi::build(&rt, groups().collect(), 64 << 10, threads).expect("builds");
    let exchange = Arc::new(exchange);
    for (node, setup_ns) in setup_ends_ns(&rt, &exchange).into_iter().enumerate() {
        let fig9b = exchange.registered_bytes(node);
        measured.push(format!("MPI n{node}: fig9b {fig9b} setup_ns {setup_ns}"));
    }
    let exchange = ipoib::build(&runtime(), groups().collect(), 64 << 10, threads).expect("builds");
    for node in 0..nodes {
        let fig9b = exchange.registered_bytes(node);
        measured.push(format!("IPoIB n{node}: fig9b {fig9b}"));
    }
    pins::check("memory_footprint.txt", &measured);
}

/// No UD half has inline writes, so what Figure 9b reports on a node is
/// exactly what the node pinned — on a node that only receives too, whose
/// channel registered its send pool as every node's does.
#[test]
fn ud_reports_every_byte_a_node_pins() {
    let (nodes, threads) = (3, 2);
    for algorithm in [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SESQ_SR] {
        let repartition = ExchangeConfig::repartition(algorithm, nodes, threads);
        let mut one_lane = repartition.clone();
        one_lane.lanes_override = Some(1);
        // Node 0 sends to node 1 and nothing comes back.
        let one_way = vec![
            TransmissionGroups::new(vec![vec![1]]),
            TransmissionGroups::new(vec![]),
        ];
        let one_way = ExchangeConfig::with_groups(algorithm, threads, one_way);
        let broadcast = ExchangeConfig::broadcast(algorithm, nodes, threads);
        let shapes = [
            ("repartition", repartition),
            ("broadcast", broadcast),
            ("one-lane", one_lane),
            ("one-way", one_way),
        ];
        for (shape, config) in shapes {
            let runtime = config.build_runtime(DeviceProfile::edr());
            let exchange = Exchange::build(&runtime, &config).expect("builds");
            for node in 0..config.groups.len() {
                assert_eq!(
                    exchange.registered_bytes(node),
                    runtime.registered_bytes(node),
                    "{algorithm} {shape}: node {node}"
                );
            }
        }
    }
}
