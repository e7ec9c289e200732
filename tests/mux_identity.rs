//! Identity and correctness contracts for the QP-multiplexing layer.
//!
//! The multiplexer only changes *which physical QP* carries a virtual
//! endpoint's traffic — never what is delivered. Two contracts pin that:
//!
//! * **Identity**: with a per-pair cap at or above every design's
//!   natural lane count the mux must not engage at all, and the whole
//!   run — metrics snapshot, delivered multiset, final virtual time —
//!   must be byte-identical to the direct path, with the protocol
//!   auditor finding nothing.
//! * **Correctness under sharing**: with the cap below the lane count
//!   the ME designs' lanes share physical QPs, yet every row still
//!   arrives exactly once, the auditor stays clean, and the mux reports
//!   fewer physical QPs than the natural wiring plus a nonzero
//!   lease-wait count.

mod common;

use std::sync::Arc;

use common::{small_config, Collector, NODES, ROW, THREADS};
use rshuffle_repro::engine::{drive_to_sink, Generator};
use rshuffle_repro::mux::MuxConfig;
use rshuffle_repro::rshuffle::{
    CostModel, Exchange, ReceiveOperator, ShuffleAlgorithm, ShuffleOperator,
};
use rshuffle_repro::simnet::DeviceProfile;

const ROWS_PER_THREAD: usize = 800;

struct MuxRun {
    snapshot: String,
    end_ns: u64,
    delivered: Vec<[u8; ROW]>,
    violations: usize,
    /// `(qp_count, natural_qps, lease_waits)`; zeros when the mux never
    /// engaged.
    mux_stats: (u64, u64, u64),
}

/// Runs one small repartition with an optional mux configuration and
/// returns everything the contracts compare.
fn run_mux(algorithm: ShuffleAlgorithm, mux: Option<MuxConfig>) -> MuxRun {
    let mut config = small_config(algorithm, None);
    config.mux = mux;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let auditor = runtime.enable_audit();
    let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
    let cost = CostModel::from_profile(runtime.profile());
    let delivered = Collector::default();
    let mut stats = Vec::new();
    for node in 0..NODES {
        let source = Arc::new(Generator::new(ROWS_PER_THREAD, THREADS, node as u64));
        let shuffle = Arc::new(ShuffleOperator::with_lanes(
            source,
            exchange.send[node].clone(),
            exchange.groups[node].clone(),
            THREADS,
            cost.clone(),
        ));
        stats.push(drive_to_sink(
            runtime.cluster(),
            node,
            &format!("s{node}"),
            shuffle,
            THREADS,
            |_, _| {},
        ));
        let receive = Arc::new(ReceiveOperator::with_lanes(
            exchange.recv[node].clone(),
            16,
            2048,
            THREADS,
            cost.clone(),
        ));
        let d = delivered.clone();
        stats.push(drive_to_sink(
            runtime.cluster(),
            node,
            &format!("r{node}"),
            receive,
            THREADS,
            move |_, batch| d.push((), batch),
        ));
    }
    runtime.cluster().run();
    for s in &stats {
        assert!(
            s.lock().errors.is_empty(),
            "{algorithm}: worker errors: {:?}",
            s.lock().errors
        );
    }
    let violations = auditor.finalize(true).len();
    let mux_stats = exchange
        .mux
        .as_ref()
        .map_or((0, 0, 0), |m| (m.qp_count(), m.natural_qps(), m.lease_waits()));
    let delivered = delivered.sorted(&());
    MuxRun {
        snapshot: runtime.obs().snapshot_json(),
        end_ns: runtime.kernel().now().as_nanos(),
        delivered,
        violations,
        mux_stats,
    }
}

/// Every row the generators emit, cluster-wide, sorted.
fn expected_rows() -> Vec<[u8; ROW]> {
    common::expected_rows(ROWS_PER_THREAD, |node| node as u64)
}

/// A cap at or above every design's natural per-pair QP count must be
/// the direct path, bit for bit: with no sharing possible the mux is
/// structurally skipped, so enabling it cannot move a single event.
#[test]
fn high_cap_is_byte_identical_to_the_direct_path() {
    let expected = expected_rows();
    let wr_variants =
        ["MEMQ/WR", "SEMQ/WR"].map(|n| ShuffleAlgorithm::parse(n).expect("WR variant parses"));
    for algorithm in ShuffleAlgorithm::ALL.into_iter().chain(wr_variants) {
        let direct = run_mux(algorithm, None);
        let muxed = run_mux(algorithm, Some(MuxConfig::with_cap(16)));
        assert_eq!(
            direct.snapshot, muxed.snapshot,
            "{algorithm}: cap 16 >= lanes must leave the metrics snapshot byte-identical"
        );
        assert_eq!(
            direct.end_ns, muxed.end_ns,
            "{algorithm}: cap 16 moved the final virtual time"
        );
        assert_eq!(muxed.delivered, expected, "{algorithm}: delivered multiset");
        assert_eq!(
            muxed.mux_stats,
            (0, 0, 0),
            "{algorithm}: a non-engaging mux must not materialize slots"
        );
        assert_eq!(direct.violations, 0, "{algorithm}: direct-path auditor");
        assert_eq!(muxed.violations, 0, "{algorithm}: muxed-path auditor");
    }
}

/// With the cap below the lane count the ME designs share physical QPs.
/// Delivery must still be exactly-once and auditor-clean, and the mux
/// must actually have shared something.
#[test]
fn capped_lanes_share_qps_and_still_deliver_everything() {
    let expected = expected_rows();
    let capped: Vec<ShuffleAlgorithm> = ["MEMQ/SR", "MEMQ/RD", "MEMQ/WR"]
        .iter()
        .map(|n| ShuffleAlgorithm::parse(n).expect("algorithm parses"))
        .collect();
    for algorithm in capped {
        assert!(algorithm.endpoints(THREADS) > 1, "{algorithm}: needs >1 lane");
        let run = run_mux(algorithm, Some(MuxConfig::with_cap(1)));
        assert_eq!(
            run.delivered, expected,
            "{algorithm}: capped run lost or duplicated rows \
             ({} of {} delivered)",
            run.delivered.len(),
            expected.len()
        );
        assert_eq!(run.violations, 0, "{algorithm}: capped-run auditor");
        let (qp_count, natural, waits) = run.mux_stats;
        assert!(
            qp_count > 0 && qp_count < natural,
            "{algorithm}: cap 1 must materialize fewer physical QPs than \
             the natural wiring ({qp_count} vs {natural})"
        );
        assert!(
            waits > 0,
            "{algorithm}: sharing {natural} lanes over {qp_count} slots \
             must record lease waits"
        );
    }
}
