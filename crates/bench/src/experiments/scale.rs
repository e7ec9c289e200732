//! `scale` — the 32–512-node scale-out matrix.
//!
//! Sweeps cluster sizes far beyond the paper's 16-node testbed over a
//! two-tier fat-tree fabric (16 hosts per leaf, 4:1 oversubscribed), with
//! and without the per-pair QP cap, and reports where the
//! chunked-message designs stop paying for their per-pair QP state: the
//! MESQ/SR (UD) vs MEMQ/RD (RC) crossover that §7's scalability
//! discussion predicts.
//!
//! * Full: 32/64/128/256/512 nodes; all six designs up to 128 nodes, the
//!   crossover pair (MESQ/SR, MEMQ/RD) at 256/512 where a full six-way
//!   sweep would be wall-clock prohibitive (the dropped cells are logged,
//!   not silently skipped).
//! * `--smoke`: 32 nodes, crossover pair only — the deterministic CI
//!   configuration `perfdiff` holds equal to `BENCH_SCALE.json`.
//!
//! Every row is virtual time or a count of the simulation, and compared,
//! but the host's: `wall_clock_ms` and the `host` row's
//! `host_peak_rss_mib` (the process's `VmHWM`) are tagged `host`, since
//! they depend on the machine, never on the simulation.

use rshuffle::ShuffleAlgorithm;
use rshuffle_simnet::{DeviceProfile, Topology};
use serde::Value;

use super::{Outcome, Scale};
use crate::perf::{host_result, MetricRow};
use crate::workload::WorkloadConfig;

/// Worker threads per node: 2 lanes for the ME designs, so a QP cap of
/// 1 genuinely halves the per-pair connection count.
const THREADS: usize = 2;

/// `(bytes_per_node, rc_message_size)` for a cluster size: strong
/// scaling (a fixed per-node table, so per-pair volume shrinks with N —
/// that amortization squeeze is what moves the crossover), with the two
/// largest sizes dropped to a smaller table and message so a 512-node
/// cell stays in minutes of host wall-clock and gigabytes of send/recv
/// pool memory. Both shrink *after* the crossover (which lands at N=64),
/// so every per-N comparison still runs both designs at identical
/// settings; cross-N throughput curves are only comparable within a
/// tier. The reduction is logged at run time, never silent.
fn volume_for(nodes: usize) -> (usize, usize) {
    match nodes {
        n if n <= 128 => (8 << 20, 16 * 1024),
        256 => (2 << 20, 4 * 1024),
        _ => (1 << 20, 4 * 1024),
    }
}

struct Cell {
    algorithm: ShuffleAlgorithm,
    nodes: usize,
    cap: Option<usize>,
    gib_per_sec: f64,
}

pub(super) fn scale(scale: Scale) -> Outcome {
    let smoke = scale == Scale::Smoke;
    let profile = DeviceProfile::edr();
    let topology = Topology::fat_tree(16, 4.0);
    let config = vec![
        ("profile", Value::Str(profile.name.to_string())),
        ("threads", Value::UInt(THREADS as u64)),
        (
            "topology",
            Value::Str("fat-tree/16-per-leaf/4:1".to_string()),
        ),
        ("smoke", Value::Bool(smoke)),
    ];
    let mut out = Outcome::new("scale", config);
    let crossover_pair = [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::MEMQ_RD];
    let all_six = [
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::MEMQ_RD,
        ShuffleAlgorithm::SEMQ_SR,
        ShuffleAlgorithm::SEMQ_RD,
        ShuffleAlgorithm::MESQ_SR,
        ShuffleAlgorithm::SESQ_SR,
    ];
    let node_counts: &[usize] = if smoke {
        &[32]
    } else {
        &[32, 64, 128, 256, 512]
    };

    let mut cells: Vec<Cell> = Vec::new();
    for &nodes in node_counts {
        let algorithms: &[ShuffleAlgorithm] = if smoke {
            &crossover_pair
        } else if nodes <= 128 {
            &all_six
        } else {
            eprintln!(
                "[scale] N={nodes}: restricting to the crossover pair \
                 (MESQ/SR, MEMQ/RD); a six-way sweep at this size is \
                 wall-clock prohibitive on one core"
            );
            &crossover_pair
        };
        let (bytes_per_node, message_size) = volume_for(nodes);
        if bytes_per_node < volume_for(32).0 {
            eprintln!(
                "[scale] N={nodes}: per-node volume reduced to {} MiB and RC \
                 messages to {} KiB for wall-clock/memory tractability (both \
                 designs at this N run identical settings)",
                bytes_per_node >> 20,
                message_size >> 10,
            );
        }
        for &algorithm in algorithms {
            let lanes = algorithm.endpoints(THREADS);
            // QP-cap settings: the direct path and a cap of 1 per directed
            // pair (half the ME designs' natural 2 lanes). A cap at or
            // above the lane count (and any cap on UD) is the direct path —
            // skip the duplicate run.
            for cap in [None, Some(1usize)] {
                if cap.is_some_and(|c| !algorithm.reliable_transport() || c >= lanes) {
                    continue;
                }
                let mut cfg = WorkloadConfig::new(profile.clone(), nodes, algorithm);
                cfg.exchange.threads = THREADS;
                cfg.exchange.message_size = message_size;
                cfg.bytes_per_node = bytes_per_node;
                cfg.topology = topology.clone();
                cfg.exchange.qp_cap_per_pair = cap;
                let start = std::time::Instant::now();
                let id = match cap {
                    Some(c) => format!("{algorithm}/N={nodes}/cap={c}"),
                    None => format!("{algorithm}/N={nodes}"),
                };
                let Some(r) = out.workload(&id, &cfg) else {
                    continue;
                };
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                // Physical send-side QPs cluster-wide: what the NIC
                // context caches actually hold. Every lane past them
                // waits its turn on a connection it shares.
                let qp_count = r.physical_qps;
                let lease_waits = r.natural_qps - r.physical_qps;
                eprintln!(
                    "[scale] {id} : {:.3} GiB/s/node, {qp_count} QPs, {lease_waits} lease waits, {wall_ms:.0} ms wall",
                    r.gib_per_sec(),
                );
                out.row(
                    id,
                    vec![
                        MetricRow::higher("gib_per_sec", r.gib_per_sec()),
                        MetricRow::lower("response_virt_ns", r.response_time.as_nanos() as f64),
                        MetricRow::info("qp_count", qp_count as f64),
                        MetricRow::info("mux_lease_waits", lease_waits as f64),
                        MetricRow::host("wall_clock_ms", wall_ms),
                        MetricRow::info("bytes_per_node", bytes_per_node as f64),
                    ],
                );
                cells.push(Cell {
                    algorithm,
                    nodes,
                    cap,
                    gib_per_sec: r.gib_per_sec(),
                });
            }
        }
    }

    // Direction-tagged crossover summary, one row per cap: the
    // UD-over-RC throughput ratio at the largest common size
    // (informational: a ratio of two designs moves up when UD gets faster
    // and down when RC does, and each design's own `gib_per_sec` and
    // `response_virt_ns` rows gate both) and, when the sweep spans
    // several sizes, the first size where MESQ/SR wins (lower is
    // better — the §7 prediction that QP state pushes the crossover
    // left; "not reached" is penalized as twice the largest size so a
    // regression can never hide behind a missing value).
    for cap in [None, Some(1usize)] {
        let gib = |algorithm, cap, n| {
            let cell = |c: &&Cell| c.algorithm == algorithm && c.nodes == n && c.cap == cap;
            cells.iter().find(cell).map(|c| c.gib_per_sec)
        };
        let ud = |n: usize| gib(ShuffleAlgorithm::MESQ_SR, None, n);
        let rc = |n: usize| gib(ShuffleAlgorithm::MEMQ_RD, cap, n);
        if rc(node_counts[0]).is_none() {
            continue; // cap never applied (e.g. smoke without that cell)
        }
        let first_win = node_counts
            .iter()
            .find(|&&n| matches!((ud(n), rc(n)), (Some(u), Some(r)) if u >= r));
        let last_n = *node_counts
            .iter()
            .rev()
            .find(|&&n| ud(n).is_some() && rc(n).is_some())
            .unwrap_or(&node_counts[0]);
        let ratio = match (ud(last_n), rc(last_n)) {
            (Some(u), Some(r)) if r > 0.0 => u / r,
            _ => 0.0,
        };
        let mut metrics = vec![
            MetricRow::info("ud_over_rc_gibps_ratio", ratio),
            MetricRow::info("ratio_at_n", last_n as f64),
        ];
        if node_counts.len() > 1 {
            let n = first_win
                .copied()
                .unwrap_or(node_counts[node_counts.len() - 1] * 2);
            metrics.push(MetricRow::lower("crossover_n", n as f64));
        }
        let id = match cap {
            Some(c) => format!("crossover/cap={c}"),
            None => "crossover/direct".to_string(),
        };
        out.row(id, metrics);
    }
    out.run.results.push(host_result());
    out
}
