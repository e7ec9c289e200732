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
#[path = "common/run.rs"]
mod run;
#[path = "common/wired.rs"]
mod wired;

use common::{small_config, THREADS};
use rshuffle_repro::mux::MuxConfig;
use rshuffle_repro::rshuffle::{Exchange, ShuffleAlgorithm};
use rshuffle_repro::simnet::DeviceProfile;
use run::{Run, ROW};

const ROWS_PER_THREAD: usize = 800;

/// Runs one small repartition, audited, with an optional mux
/// configuration.
fn run_mux(algorithm: ShuffleAlgorithm, mux: Option<MuxConfig>) -> Run<Exchange> {
    let mut config = small_config(algorithm, None);
    config.mux = mux;
    let runtime = config.build_runtime(DeviceProfile::edr());
    runtime.enable_audit();
    wired::run(&runtime, &config, ROWS_PER_THREAD)
}

/// `(qp_count, natural_qps, lease_waits)`; zeros when the mux never
/// engaged.
fn mux_stats(run: &Run<Exchange>) -> (u64, u64, u64) {
    let mux = run.report.mux.as_ref();
    mux.map_or((0, 0, 0), |m| {
        (m.qp_count(), m.natural_qps(), m.lease_waits())
    })
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
        assert_eq!(muxed.delivered[&0], expected, "{algorithm}: delivered multiset");
        assert_eq!(
            mux_stats(&muxed),
            (0, 0, 0),
            "{algorithm}: a non-engaging mux must not materialize slots"
        );
        assert_eq!(direct.violations.len(), 0, "{algorithm}: direct-path auditor");
        assert_eq!(muxed.violations.len(), 0, "{algorithm}: muxed-path auditor");
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
            run.delivered[&0], expected,
            "{algorithm}: capped run lost or duplicated rows \
             ({} of {} delivered)",
            run.delivered[&0].len(),
            expected.len()
        );
        assert_eq!(run.violations.len(), 0, "{algorithm}: capped-run auditor");
        let (qp_count, natural, waits) = mux_stats(&run);
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
