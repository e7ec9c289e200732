//! Identity and correctness contracts for the per-pair QP cap.
//!
//! The cap only changes *which physical QP* carries a lane's traffic —
//! never what is delivered. Three contracts pin that:
//!
//! * **Identity**: with a per-pair cap at or above every design's
//!   natural lane count the cap must not engage at all, and the whole
//!   run — metrics snapshot, delivered multiset, final virtual time —
//!   must be byte-identical to the direct path, with the protocol
//!   auditor finding nothing.
//! * **Correctness under sharing**: with the cap below the lane count
//!   the ME designs' lanes share physical QPs, yet every row still
//!   arrives exactly once, the auditor stays clean, and the exchange
//!   reports fewer physical QPs than the natural wiring.
//! * **The sharing rule**: at caps of 2 and 3, where *which* lanes share
//!   a connection decides the schedule, the final virtual time is pinned
//!   to what the least-recently-leased slot table the rule replaced
//!   produced.

mod common;
#[path = "common/pins.rs"]
mod pins;
#[path = "common/run.rs"]
mod run;
#[path = "common/wired.rs"]
mod wired;

use common::{small_config, NODES, THREADS};
use rshuffle_repro::engine::Generator;
use rshuffle_repro::rshuffle::{Exchange, ShuffleAlgorithm};
use rshuffle_repro::simnet::DeviceProfile;
use run::{Run, ROW};

const ROWS_PER_THREAD: usize = 800;

/// Runs one small repartition, audited, with an optional QP cap.
fn run_capped(algorithm: ShuffleAlgorithm, cap: Option<usize>) -> Run<Exchange> {
    run_with(algorithm, THREADS, DeviceProfile::edr(), cap)
}

fn run_with(
    algorithm: ShuffleAlgorithm,
    threads: usize,
    profile: DeviceProfile,
    cap: Option<usize>,
) -> Run<Exchange> {
    let mut config = small_config(algorithm, None);
    config.threads = threads;
    config.qp_cap_per_pair = cap;
    let runtime = config.build_runtime(profile);
    runtime.enable_audit();
    wired::run(&runtime, &config, ROWS_PER_THREAD)
}

/// `(physical_qps, natural_qps)`; equal when the cap never engaged.
fn qp_counts(run: &Run<Exchange>) -> (u64, u64) {
    (run.report.physical_qps(), run.report.natural_qps())
}

/// Every row the generators emit, cluster-wide, sorted.
fn expected_rows() -> Vec<[u8; ROW]> {
    common::expected_rows(ROWS_PER_THREAD, |node| node as u64)
}

/// A cap at or above every design's natural per-pair QP count must be
/// the direct path, bit for bit: with no sharing possible no shared
/// connection is built, so setting it cannot move a single event.
#[test]
fn high_cap_is_byte_identical_to_the_direct_path() {
    let expected = expected_rows();
    let wr_variants =
        ["MEMQ/WR", "SEMQ/WR"].map(|n| ShuffleAlgorithm::parse(n).expect("WR variant parses"));
    for algorithm in ShuffleAlgorithm::ALL.into_iter().chain(wr_variants) {
        let direct = run_capped(algorithm, None);
        let capped = run_capped(algorithm, Some(16));
        assert_eq!(
            direct.snapshot, capped.snapshot,
            "{algorithm}: cap 16 >= lanes must leave the metrics snapshot byte-identical"
        );
        assert_eq!(
            direct.end_ns, capped.end_ns,
            "{algorithm}: cap 16 moved the final virtual time"
        );
        assert_eq!(
            capped.delivered[&0], expected,
            "{algorithm}: delivered multiset"
        );
        let (physical, natural) = qp_counts(&capped);
        assert_eq!(
            physical, natural,
            "{algorithm}: a non-engaging cap must not share a connection"
        );
        assert_eq!(qp_counts(&direct), (natural, natural), "{algorithm}");
        assert_eq!(
            direct.violations.len(),
            0,
            "{algorithm}: direct-path auditor"
        );
        assert_eq!(
            capped.violations.len(),
            0,
            "{algorithm}: capped-path auditor"
        );
    }
}

/// With the cap below the lane count the ME designs share physical QPs.
/// Delivery must still be exactly-once and auditor-clean, and the cap
/// must actually have shared something.
#[test]
fn capped_lanes_share_qps_and_still_deliver_everything() {
    let expected = expected_rows();
    let capped: Vec<ShuffleAlgorithm> = ["MEMQ/SR", "MEMQ/RD", "MEMQ/WR"]
        .iter()
        .map(|n| ShuffleAlgorithm::parse(n).expect("algorithm parses"))
        .collect();
    for algorithm in capped {
        assert!(
            algorithm.endpoints(THREADS) > 1,
            "{algorithm}: needs >1 lane"
        );
        let run = run_capped(algorithm, Some(1));
        assert_eq!(
            run.delivered[&0],
            expected,
            "{algorithm}: capped run lost or duplicated rows \
             ({} of {} delivered)",
            run.delivered[&0].len(),
            expected.len()
        );
        assert_eq!(run.violations.len(), 0, "{algorithm}: capped-run auditor");
        let (physical, natural) = qp_counts(&run);
        assert!(
            physical > 0 && physical < natural,
            "{algorithm}: cap 1 must leave fewer physical QPs than \
             the natural wiring ({physical} vs {natural})"
        );
    }
}

/// Six lanes over one, two and three connections per pair, on both NICs:
/// lane `l` shares connection `l % cap`. Every final virtual time in
/// `tests/pins/qp_cap_identity.txt` was first recorded from the LRU lease
/// table (`crates/mux`, deleted) the modulo replaced; a rule that paired
/// lanes differently would move them.
#[test]
fn lanes_share_connections_modulo_the_cap() {
    const LANES: usize = 6;
    let (edr, fdr): (fn() -> _, fn() -> _) = (DeviceProfile::edr, DeviceProfile::fdr);
    let designs = [
        ("MEMQ/SR", edr),
        ("MEMQ/SR", fdr),
        ("MEMQ/RD", edr),
        ("MEMQ/RD", fdr),
        ("MEMQ/WR", edr),
        ("MEMQ/WR", fdr),
    ];
    let mut expected = Vec::new();
    for node in 0..NODES {
        for tid in 0..LANES {
            let rows = 0..ROWS_PER_THREAD;
            expected.extend(rows.map(|seq| Generator::row(node as u64, tid, seq)));
        }
    }
    expected.sort_unstable();
    let mut measured = Vec::new();
    for (name, profile) in designs {
        let algorithm = ShuffleAlgorithm::parse(name).expect("algorithm parses");
        for cap in 1..=3 {
            let run = run_with(algorithm, LANES, profile(), Some(cap));
            let at = format!("{name} on {} at cap {cap}", profile().name);
            assert_eq!(run.delivered[&0], expected, "{at}: delivered multiset");
            assert_eq!(run.violations.len(), 0, "{at}: auditor");
            assert_eq!(qp_counts(&run), (6 * cap as u64, 36), "{at}: QP counts");
            measured.push(format!("{at}: end_ns {}", run.end_ns));
        }
    }
    pins::check("qp_cap_identity.txt", &measured);
}
