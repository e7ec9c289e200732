//! `scale` — the 32–512-node scale-out matrix.
//!
//! Sweeps cluster sizes far beyond the paper's 16-node testbed over a
//! two-tier fat-tree fabric, with and without the connection
//! multiplexer's QP cap, and reports where the chunked-message designs
//! stop paying for their per-pair QP state: the MESQ/SR (UD) vs MEMQ/RD
//! (RC) crossover that §7's scalability discussion predicts.
//!
//! ```text
//! scale [--smoke] [--full] [--single-switch] [--oversub X]
//!       [--hosts-per-leaf H] [--skew-theta T] [--stragglers K]
//!       [--straggler-factor F] [--emit BENCH.json]
//! ```
//!
//! * Default/`--full`: 32/64/128/256/512 nodes; all six designs up to
//!   128 nodes, the crossover pair (MESQ/SR, MEMQ/RD) at 256/512 where
//!   a full six-way sweep would be wall-clock prohibitive (the dropped
//!   cells are logged, not silently skipped).
//! * `--smoke`: 32 nodes, crossover pair only — the deterministic CI
//!   configuration gated by `perfdiff` against `BENCH_SCALE_0010.json`.
//! * `--emit` writes an `rshuffle-bench/1` report. Virtual-time metrics
//!   (`gib_per_sec`, `response_virt_ns`) are gated; `qp_count`,
//!   `mux_lease_waits`, the host `wall_clock_ms` and the `host` row's
//!   `host_peak_rss_mib` (the process's `VmHWM`) are informational
//!   (wall-clock depends on the host machine, never on the simulation).

use rshuffle::ShuffleAlgorithm;
use rshuffle_bench::perf::{
    host_result, take_emit_flag, BenchReport, BenchResult, BenchRun, MetricRow,
};
use rshuffle_bench::skew::{straggler_plan, SkewSpec};
use rshuffle_bench::{run_shuffle_workload, Transport, WorkloadConfig};
use rshuffle_mux::MuxConfig;
use rshuffle_simnet::{DeviceProfile, Topology};
use serde::Value;

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

fn usage() -> ! {
    eprintln!(
        "usage: scale [--smoke | --full] [--single-switch] [--oversub X]\n\
         \x20           [--hosts-per-leaf H] [--skew-theta T] [--stragglers K]\n\
         \x20           [--straggler-factor F] [--emit BENCH.json]"
    );
    std::process::exit(2);
}

struct Cell {
    algorithm: ShuffleAlgorithm,
    nodes: usize,
    cap: Option<usize>,
    gib_per_sec: f64,
    response_ns: u64,
    qp_count: u64,
    lease_waits: u64,
    wall_ms: f64,
    bytes_per_node: usize,
}

impl Cell {
    fn id(&self) -> String {
        match self.cap {
            Some(c) => format!("{}/N={}/cap={c}", self.algorithm, self.nodes),
            None => format!("{}/N={}", self.algorithm, self.nodes),
        }
    }
}

fn main() {
    let (args, emit) = take_emit_flag(std::env::args().skip(1).collect());
    let mut smoke = false;
    let mut single_switch = false;
    let mut oversub = 4.0f64;
    let mut hosts_per_leaf = 16usize;
    let mut skew_theta = 0.0f64;
    let mut stragglers = 0usize;
    let mut straggler_factor = 3.0f64;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--full" => smoke = false,
            "--single-switch" => single_switch = true,
            "--oversub" => oversub = value().parse().unwrap_or_else(|_| usage()),
            "--hosts-per-leaf" => hosts_per_leaf = value().parse().unwrap_or_else(|_| usage()),
            "--skew-theta" => skew_theta = value().parse().unwrap_or_else(|_| usage()),
            "--stragglers" => stragglers = value().parse().unwrap_or_else(|_| usage()),
            "--straggler-factor" => {
                straggler_factor = value().parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let profile = DeviceProfile::edr();
    let topology = if single_switch {
        Topology::SingleSwitch
    } else {
        Topology::fat_tree(hosts_per_leaf, oversub)
    };
    let crossover_pair = [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::MEMQ_RD];
    let all_six = [
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::MEMQ_RD,
        ShuffleAlgorithm::SEMQ_SR,
        ShuffleAlgorithm::SEMQ_RD,
        ShuffleAlgorithm::MESQ_SR,
        ShuffleAlgorithm::SESQ_SR,
    ];
    let node_counts: &[usize] = if smoke { &[32] } else { &[32, 64, 128, 256, 512] };
    // QP-cap settings: the direct path and a cap of 1 per directed pair
    // (half the ME designs' natural 2 lanes). Caps never apply to the
    // SE designs (1 lane) or to UD, so those run once.
    let caps: &[Option<usize>] = &[None, Some(1)];

    let mut cells: Vec<Cell> = Vec::new();
    for &nodes in node_counts {
        let algorithms: &[ShuffleAlgorithm] = if smoke || nodes <= 128 {
            &all_six
        } else {
            eprintln!(
                "[scale] N={nodes}: restricting to the crossover pair \
                 (MESQ/SR, MEMQ/RD); a six-way sweep at this size is \
                 wall-clock prohibitive on one core"
            );
            &crossover_pair
        };
        let algorithms: Vec<ShuffleAlgorithm> = if smoke {
            crossover_pair.to_vec()
        } else {
            algorithms.to_vec()
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
        for &algorithm in &algorithms {
            let lanes = algorithm.endpoints(THREADS);
            for &cap in caps {
                // A cap at or above the lane count (and any cap on UD) is
                // the direct path — skip the duplicate run.
                let applies = cap
                    .map(|c| algorithm.reliable_transport() && c < lanes)
                    .unwrap_or(false);
                if cap.is_some() && !applies {
                    continue;
                }
                let mut cfg =
                    WorkloadConfig::new(profile.clone(), nodes, Transport::Rdma(algorithm));
                cfg.exchange.threads = THREADS;
                cfg.exchange.message_size = message_size;
                cfg.bytes_per_node = bytes_per_node;
                cfg.topology = topology.clone();
                cfg.exchange.mux = cap.map(MuxConfig::with_cap);
                if skew_theta > 0.0 {
                    cfg.skew = Some(SkewSpec {
                        theta: skew_theta,
                        seed: 0x5CA1E,
                    });
                }
                if stragglers > 0 {
                    cfg.stragglers =
                        Some(straggler_plan(nodes, stragglers, straggler_factor, 0x51F7));
                }
                let start = std::time::Instant::now();
                let r = run_shuffle_workload(&cfg);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(r.errors.is_empty(), "{algorithm} N={nodes}: {:?}", r.errors);
                // Physical send-side QPs cluster-wide: what the NIC
                // context caches actually hold.
                let qp_count = if r.mux_qp_count > 0 {
                    r.mux_qp_count
                } else if algorithm.reliable_transport() {
                    (nodes * (nodes - 1) * lanes) as u64
                } else {
                    (nodes * lanes) as u64
                };
                let cell = Cell {
                    algorithm,
                    nodes,
                    cap: cap.filter(|_| applies),
                    gib_per_sec: r.gib_per_sec(),
                    response_ns: r.response_time.as_nanos(),
                    qp_count,
                    lease_waits: r.mux_lease_waits,
                    wall_ms,
                    bytes_per_node,
                };
                eprintln!(
                    "[scale] {} : {:.3} GiB/s/node, {} QPs, {} lease waits, {:.0} ms wall",
                    cell.id(),
                    cell.gib_per_sec,
                    cell.qp_count,
                    cell.lease_waits,
                    cell.wall_ms,
                );
                cells.push(cell);
            }
        }
    }

    // Crossover report: smallest cluster size at which the UD design
    // (MESQ/SR) matches or beats the RC design (MEMQ/RD), per cap.
    println!("scale-out matrix ({}):", topology_label(&topology));
    for &nodes in node_counts {
        for cell in cells.iter().filter(|c| c.nodes == nodes) {
            println!(
                "  {:24} {:>8.3} GiB/s/node  {:>8} QPs  {:>6} waits",
                cell.id(),
                cell.gib_per_sec,
                cell.qp_count,
                cell.lease_waits
            );
        }
    }
    // Direction-tagged crossover summary, one row per cap: the
    // UD-over-RC throughput ratio at the largest common size (higher is
    // better — UD catching up, then winning) and, when the sweep spans
    // several sizes, the first size where MESQ/SR wins (lower is
    // better — the §7 prediction that QP state pushes the crossover
    // left; "not reached" is penalized as twice the largest size so a
    // regression can never hide behind a missing value).
    struct Crossover {
        id: String,
        first_win: Option<usize>,
        ratio_at_last: f64,
        last_n: usize,
    }
    let mut crossovers: Vec<Crossover> = Vec::new();
    for cap in [None, Some(1usize)] {
        let ud = |n: usize| {
            cells
                .iter()
                .find(|c| c.algorithm == ShuffleAlgorithm::MESQ_SR && c.nodes == n)
                .map(|c| c.gib_per_sec)
        };
        let rc = |n: usize| {
            cells
                .iter()
                .find(|c| {
                    c.algorithm == ShuffleAlgorithm::MEMQ_RD && c.nodes == n && c.cap == cap
                })
                .map(|c| c.gib_per_sec)
        };
        let crossover = node_counts
            .iter()
            .find(|&&n| matches!((ud(n), rc(n)), (Some(u), Some(r)) if u >= r));
        let label = match cap {
            Some(c) => format!("MEMQ/RD capped at {c} QP/pair"),
            None => "MEMQ/RD direct".to_string(),
        };
        if rc(node_counts[0]).is_none() {
            continue; // cap never applied (e.g. smoke without that cell)
        }
        match crossover {
            Some(n) => println!("  crossover vs {label}: MESQ/SR wins from N={n}"),
            None => println!(
                "  crossover vs {label}: not reached by N={}",
                node_counts.last().unwrap_or(&0)
            ),
        }
        let last_n = *node_counts
            .iter()
            .rev()
            .find(|&&n| ud(n).is_some() && rc(n).is_some())
            .unwrap_or(&node_counts[0]);
        let ratio = match (ud(last_n), rc(last_n)) {
            (Some(u), Some(r)) if r > 0.0 => u / r,
            _ => 0.0,
        };
        crossovers.push(Crossover {
            id: match cap {
                Some(c) => format!("crossover/cap={c}"),
                None => "crossover/direct".to_string(),
            },
            first_win: crossover.copied(),
            ratio_at_last: ratio,
            last_n,
        });
    }

    if let Some(path) = emit {
        let mut report = BenchReport::new();
        report.benches.push(BenchRun {
            bench: "scale".to_string(),
            config: vec![
                ("profile".to_string(), Value::Str(profile.name.to_string())),
                ("threads".to_string(), Value::UInt(THREADS as u64)),
                ("topology".to_string(), Value::Str(topology_label(&topology))),
                ("smoke".to_string(), Value::Bool(smoke)),
            ],
            results: cells
                .iter()
                .map(|c| BenchResult {
                    id: c.id(),
                    metrics: vec![
                        MetricRow::higher("gib_per_sec", c.gib_per_sec),
                        MetricRow::lower("response_virt_ns", c.response_ns as f64),
                        MetricRow::info("qp_count", c.qp_count as f64),
                        MetricRow::info("mux_lease_waits", c.lease_waits as f64),
                        MetricRow::info("wall_clock_ms", c.wall_ms),
                        MetricRow::info("bytes_per_node", c.bytes_per_node as f64),
                    ],
                    stages: Vec::new(),
                })
                .chain(crossovers.iter().map(|x| BenchResult {
                    id: x.id.clone(),
                    metrics: {
                        let mut m = vec![
                            MetricRow::higher("ud_over_rc_gibps_ratio", x.ratio_at_last),
                            MetricRow::info("ratio_at_n", x.last_n as f64),
                        ];
                        if node_counts.len() > 1 {
                            let n = x.first_win.unwrap_or(node_counts.last().unwrap() * 2);
                            m.push(MetricRow::lower("crossover_n", n as f64));
                        }
                        m
                    },
                    stages: Vec::new(),
                }))
                .chain(std::iter::once(host_result()))
                .collect(),
        });
        if let Err(e) = report.write(&path) {
            eprintln!("scale: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[scale] wrote {path}");
    }
}

fn topology_label(t: &Topology) -> String {
    match t {
        Topology::SingleSwitch => "single-switch".to_string(),
        Topology::FatTree {
            hosts_per_leaf,
            oversubscription,
            ..
        } => format!("fat-tree/{hosts_per_leaf}-per-leaf/{oversubscription}:1"),
    }
}
