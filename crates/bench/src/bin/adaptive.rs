//! `adaptive` — phase-scheduled all-to-all proof and advisor accuracy
//! matrix.
//!
//! Two experiments in one deterministic binary:
//!
//! 1. **Phased sweep** — MESQ/SR with and without phase scheduling on
//!    the 4:1-oversubscribed fat tree with the incast collapse model
//!    enabled and a Zipf-skewed table. An unphased all-to-all drives
//!    every ingress port past its concurrent-sender knee and pays the
//!    serialization penalty; the phased transfer keeps one bulk sender
//!    per port and never does. The `phased_speedup` metric (unphased
//!    response / phased response) must stay strictly above 1.
//!
//! 2. **Advisor matrix** — Figure 9–13-style rows (message-size,
//!    thread-count, broadcast, scale-out, skewed-incast shapes). Per
//!    row an *oracle* runs every design (the six published ones plus
//!    the §7 WRITE variants) and takes the fastest; the *advisor* sees
//!    only the observable signals, ranks finalists with the rule
//!    engine, breaks ties with a calibrate-style microprobe at ~1/8th
//!    volume, and commits to one design. `advisor_over_oracle` is the
//!    pick's full-volume response over the oracle's; `advisor_accuracy`
//!    is the fraction of rows within the 1.15× acceptance band and must
//!    stay ≥ 0.9.
//!
//! ```text
//! adaptive [--smoke | --full] [--emit BENCH.json]
//! ```
//!
//! `--smoke` is the CI configuration gated by `perfdiff` against
//! `BENCH_0010.json`: the acceptance-size N ∈ {128, 256} phased cells
//! at a fabric-bound 8 MiB/node and a six-row matrix. `--full`
//! (default) adds the N = 64 anchor cell and two more matrix rows.

use std::collections::HashMap;

use rshuffle::{AdvisorSignals, AlgorithmAdvisor, PhasePolicy, ShuffleAlgorithm};
use rshuffle_bench::perf::{
    host_result, take_emit_flag, BenchReport, BenchResult, BenchRun, MetricRow,
};
use rshuffle_bench::skew::{skew_ratio, zipf_partition_rows, SkewSpec};
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::{DeviceProfile, IncastModel, Topology};

/// Worker threads per node for the phased sweep. Four lanes per node
/// keep the UD send ring busy across a phase boundary, so the
/// full-drain quiesce amortizes (DESIGN.md §18).
const THREADS: usize = 4;

/// Zipf exponent for the skewed table in the phased sweep and the
/// incast matrix row.
const ZIPF_THETA: f64 = 0.5;

/// Placement seed for the Zipf split.
const ZIPF_SEED: u64 = 0x5CA1E;

/// Acceptance band for the advisor: a pick within this factor of the
/// oracle's best counts as correct.
const ACCURACY_BAND: f64 = 1.15;

fn usage() -> ! {
    eprintln!("usage: adaptive [--smoke | --full] [--emit BENCH.json]");
    std::process::exit(2);
}

/// The congested fabric of the phased sweep: 16 hosts per leaf at 4:1,
/// with the incast knee at one leaf's uplink share (4 concurrent
/// senders) and the default 4× penalty cap.
fn congested_fat_tree() -> Topology {
    Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4))
}

// ---------------------------------------------------------------------
// Experiment 1: phased vs unphased MESQ/SR.
// ---------------------------------------------------------------------

struct PhasedCell {
    nodes: usize,
    bytes_per_node: usize,
    phased_ns: u64,
    unphased_ns: u64,
    phased_gibps: f64,
    unphased_gibps: f64,
}

impl PhasedCell {
    fn speedup(&self) -> f64 {
        self.unphased_ns as f64 / self.phased_ns as f64
    }
}

fn run_phased_cell(nodes: usize, bytes_per_node: usize) -> PhasedCell {
    let mut times = [0u64; 2];
    let mut gib = [0f64; 2];
    for (slot, policy) in [(0usize, PhasePolicy::SkewAware), (1, PhasePolicy::Off)] {
        let mut cfg = WorkloadConfig::new(
            DeviceProfile::edr(),
            nodes,
            Transport::Rdma(ShuffleAlgorithm::MESQ_SR),
        );
        cfg.exchange.threads = THREADS;
        cfg.bytes_per_node = bytes_per_node;
        cfg.topology = congested_fat_tree();
        cfg.skew = Some(SkewSpec {
            theta: ZIPF_THETA,
            seed: ZIPF_SEED,
        });
        cfg.exchange.phase = policy;
        // Deep UD rings: with shallow defaults the sender is
        // credit-bound long before it is fabric-bound, and the incast
        // penalty (what phasing removes) never shows. Both policies run
        // the same depths.
        cfg.exchange.ud_send_buffers = 256;
        cfg.exchange.ud_recv_window = 64;
        let start = std::time::Instant::now();
        let r = run_shuffle_workload(&cfg);
        assert!(
            r.errors.is_empty(),
            "phased sweep N={nodes} {policy:?}: {:?}",
            r.errors
        );
        times[slot] = r.response_time.as_nanos();
        gib[slot] = r.gib_per_sec();
        eprintln!(
            "[adaptive] MESQ/SR N={nodes} phase={}: {:.3} GiB/s/node, {} ns virt, {:.0} ms wall",
            policy.label(),
            r.gib_per_sec(),
            r.response_time.as_nanos(),
            start.elapsed().as_secs_f64() * 1e3,
        );
    }
    PhasedCell {
        nodes,
        bytes_per_node,
        phased_ns: times[0],
        unphased_ns: times[1],
        phased_gibps: gib[0],
        unphased_gibps: gib[1],
    }
}

// ---------------------------------------------------------------------
// Experiment 2: advisor vs oracle.
// ---------------------------------------------------------------------

/// One Figure 9–13-style matrix row.
struct Row {
    name: &'static str,
    nodes: usize,
    threads: usize,
    message_size: usize,
    bytes_per_node: usize,
    pattern: Pattern,
    congested: bool,
    skewed: bool,
}

impl Row {
    fn config(&self, algorithm: ShuffleAlgorithm, phase: PhasePolicy) -> WorkloadConfig {
        let mut cfg =
            WorkloadConfig::new(DeviceProfile::edr(), self.nodes, Transport::Rdma(algorithm));
        cfg.exchange.threads = self.threads;
        cfg.exchange.message_size = self.message_size;
        cfg.bytes_per_node = self.bytes_per_node;
        cfg.set_pattern(self.pattern);
        if self.congested {
            cfg.topology = congested_fat_tree();
            // Same deep UD rings as the phased sweep: the decision the
            // row exercises (to phase or not) only exists once the
            // sender is fabric-bound rather than credit-bound.
            cfg.exchange.ud_send_buffers = 256;
            cfg.exchange.ud_recv_window = 64;
        }
        if self.skewed {
            cfg.skew = Some(SkewSpec {
                theta: ZIPF_THETA,
                seed: ZIPF_SEED,
            });
        }
        cfg.exchange.phase = phase;
        cfg
    }

    /// The observable signals a planner would hand the advisor for this
    /// row — shape from the plan, topology from the fabric description,
    /// skew from the table statistics. Nothing measured.
    fn signals(&self) -> AdvisorSignals {
        let mut s = AdvisorSignals::baseline(self.nodes, self.threads, self.message_size);
        s.broadcast = self.pattern == Pattern::Broadcast;
        let topology = if self.congested {
            congested_fat_tree()
        } else {
            Topology::SingleSwitch
        };
        s.oversubscription = topology.oversubscription();
        s.incast = topology.incast().is_some();
        if self.skewed {
            let rows = zipf_partition_rows(
                (self.nodes * self.bytes_per_node / 16) as u64,
                self.nodes,
                ZIPF_THETA,
                ZIPF_SEED,
            );
            s.skew = skew_ratio(&rows);
        }
        s
    }

    /// Phase policies the oracle explores: phasing is only meaningful
    /// (and only legal — singleton groups) for a repartition on the
    /// congested fabric.
    fn oracle_phases(&self) -> Vec<PhasePolicy> {
        if self.congested && self.pattern == Pattern::Repartition {
            vec![PhasePolicy::Off, PhasePolicy::SkewAware]
        } else {
            vec![PhasePolicy::Off]
        }
    }
}

struct RowOutcome {
    name: &'static str,
    pick: ShuffleAlgorithm,
    pick_phase: PhasePolicy,
    oracle: ShuffleAlgorithm,
    oracle_phase: PhasePolicy,
    ratio: f64,
    probes: usize,
}

/// Runs one configuration, memoizing on the (algorithm, phase, volume)
/// key — the sim is deterministic, so the advisor's full-volume pick
/// can reuse the oracle's measurement of the same design.
fn measure(
    row: &Row,
    cache: &mut HashMap<(String, PhasePolicy, usize), u64>,
    algorithm: ShuffleAlgorithm,
    phase: PhasePolicy,
    bytes_per_node: usize,
) -> u64 {
    let key = (algorithm.to_string(), phase, bytes_per_node);
    if let Some(&ns) = cache.get(&key) {
        return ns;
    }
    let mut cfg = row.config(algorithm, phase);
    cfg.bytes_per_node = bytes_per_node;
    let r = run_shuffle_workload(&cfg);
    assert!(
        r.errors.is_empty(),
        "{}: {algorithm} phase={}: {:?}",
        row.name,
        phase.label(),
        r.errors
    );
    let ns = r.response_time.as_nanos();
    cache.insert(key, ns);
    ns
}

fn run_row(row: &Row) -> RowOutcome {
    let wr = |name: &str| ShuffleAlgorithm::parse(name).expect("WR variant parses");
    let mut oracle_set = ShuffleAlgorithm::ALL.to_vec();
    oracle_set.push(wr("MEMQ/WR"));
    oracle_set.push(wr("SEMQ/WR"));

    let mut cache: HashMap<(String, PhasePolicy, usize), u64> = HashMap::new();

    // Oracle: every design under every applicable phase policy, full
    // volume.
    let mut oracle: Option<(ShuffleAlgorithm, PhasePolicy, u64)> = None;
    for &algorithm in &oracle_set {
        for &phase in &row.oracle_phases() {
            let ns = measure(row, &mut cache, algorithm, phase, row.bytes_per_node);
            if oracle.map(|(_, _, best)| ns < best).unwrap_or(true) {
                oracle = Some((algorithm, phase, ns));
            }
        }
    }
    let (oracle_alg, oracle_phase, oracle_ns) = oracle.expect("oracle set is never empty");

    // Advisor: rules over the observable signals, then a one-shot
    // microprobe over the ranked finalists at ~1/8th volume to break
    // ties the rules cannot see.
    let signals = row.signals();
    let advice = AlgorithmAdvisor::advise(&signals);
    let probe_volume = (row.bytes_per_node / 8).max(256 * 1024);
    let mut pick: Option<(ShuffleAlgorithm, u64)> = None;
    for &finalist in &advice.ranked {
        let ns = measure(row, &mut cache, finalist, advice.phase, probe_volume);
        if pick.map(|(_, best)| ns < best).unwrap_or(true) {
            pick = Some((finalist, ns));
        }
    }
    let (pick_alg, _) = pick.expect("advice.ranked is never empty");
    let pick_ns = measure(row, &mut cache, pick_alg, advice.phase, row.bytes_per_node);

    let ratio = pick_ns as f64 / oracle_ns as f64;
    eprintln!(
        "[adaptive] {}: advisor {} (phase {}) vs oracle {} (phase {}): {:.3}x{}",
        row.name,
        pick_alg,
        advice.phase.label(),
        oracle_alg,
        oracle_phase.label(),
        ratio,
        if ratio <= ACCURACY_BAND { "" } else { "  MISS" },
    );
    RowOutcome {
        name: row.name,
        pick: pick_alg,
        pick_phase: advice.phase,
        oracle: oracle_alg,
        oracle_phase,
        ratio,
        probes: advice.ranked.len(),
    }
}

fn matrix(smoke: bool) -> Vec<Row> {
    let mut rows = vec![
        // Figure 9a: big messages on a small cluster amortize the READ
        // descriptor round trip.
        Row {
            name: "fig09/big-msg/N=8",
            nodes: 8,
            threads: 4,
            message_size: 64 * 1024,
            bytes_per_node: 4 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        },
        // Figure 9, left edge: small messages on the same cluster.
        Row {
            name: "fig09/small-msg/N=8",
            nodes: 8,
            threads: 4,
            message_size: 2 * 1024,
            bytes_per_node: 4 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        },
        // Figure 10: many workers per node on a small cluster.
        Row {
            name: "fig10/threads/N=16",
            nodes: 16,
            threads: 8,
            message_size: 16 * 1024,
            bytes_per_node: 2 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        },
        // Figure 11: broadcast, where UD multicast replicates in one
        // send.
        Row {
            name: "fig11/broadcast/N=8",
            nodes: 8,
            threads: 2,
            message_size: 16 * 1024,
            bytes_per_node: 1 << 20,
            pattern: Pattern::Broadcast,
            congested: false,
            skewed: false,
        },
        // Figure 12/13: scale-out past the QP-state knee.
        Row {
            name: "fig12/scale/N=64",
            nodes: 64,
            threads: 2,
            message_size: 16 * 1024,
            bytes_per_node: 1 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        },
        // The PR 9/10 extension: skewed all-to-all on the congested
        // tree, where phasing is the real decision. Runs the winning
        // regime from the phased sweep (4 threads, fabric-bound
        // volume) so the oracle's phase choice is a real signal and
        // not noise.
        Row {
            name: "incast/skew/N=64",
            nodes: 64,
            threads: 4,
            message_size: 16 * 1024,
            bytes_per_node: 4 << 20,
            pattern: Pattern::Repartition,
            congested: true,
            skewed: true,
        },
    ];
    if !smoke {
        rows.push(Row {
            name: "fig09/big-msg/N=16",
            nodes: 16,
            threads: 4,
            message_size: 64 * 1024,
            bytes_per_node: 4 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        });
        rows.push(Row {
            name: "fig12/scale/N=96",
            nodes: 96,
            threads: 2,
            message_size: 16 * 1024,
            bytes_per_node: 1 << 20,
            pattern: Pattern::Repartition,
            congested: false,
            skewed: false,
        });
    }
    rows
}

fn main() {
    let (args, emit) = take_emit_flag(std::env::args().skip(1).collect());
    let mut smoke = false;
    for flag in args.iter() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--full" => smoke = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    // ----- Experiment 1: phased vs unphased MESQ/SR. -----
    // Both modes run the acceptance sizes (128, 256) at a
    // fabric-bound 8 MiB/node; full adds the N=64 anchor cell.
    let phased_cells: Vec<(usize, usize)> = if smoke {
        vec![(128, 8 << 20), (256, 8 << 20)]
    } else {
        vec![(64, 8 << 20), (128, 8 << 20), (256, 8 << 20)]
    };
    let phased: Vec<PhasedCell> = phased_cells
        .iter()
        .map(|&(nodes, bytes)| run_phased_cell(nodes, bytes))
        .collect();

    println!("phased all-to-all (MESQ/SR, Zipf θ={ZIPF_THETA}, 4:1 fat tree, incast knee 4):");
    for cell in &phased {
        println!(
            "  N={:<4} {:>4} MiB/node  phased {:>8.3} GiB/s  unphased {:>8.3} GiB/s  speedup {:.3}x",
            cell.nodes,
            cell.bytes_per_node >> 20,
            cell.phased_gibps,
            cell.unphased_gibps,
            cell.speedup(),
        );
    }

    // ----- Experiment 2: advisor vs oracle matrix. -----
    let rows = matrix(smoke);
    let outcomes: Vec<RowOutcome> = rows.iter().map(run_row).collect();
    let hits = outcomes
        .iter()
        .filter(|o| o.ratio <= ACCURACY_BAND)
        .count();
    let accuracy = hits as f64 / outcomes.len() as f64;

    println!("advisor matrix ({} rows, band {ACCURACY_BAND}x):", rows.len());
    for o in &outcomes {
        println!(
            "  {:22} advisor {:>8} ({:10})  oracle {:>8} ({:10})  {:.3}x  [{} probes]",
            o.name,
            o.pick.to_string(),
            o.pick_phase.label(),
            o.oracle.to_string(),
            o.oracle_phase.label(),
            o.ratio,
            o.probes,
        );
    }
    println!(
        "  accuracy: {hits}/{} within {ACCURACY_BAND}x = {:.1}%",
        outcomes.len(),
        accuracy * 100.0
    );

    // ----- Acceptance gates (also enforced in CI via perfdiff). -----
    let mut failed = false;
    for cell in &phased {
        if cell.speedup() <= 1.0 {
            eprintln!(
                "adaptive: FAIL — phased MESQ/SR not faster at N={} (speedup {:.3})",
                cell.nodes,
                cell.speedup()
            );
            failed = true;
        }
    }
    if accuracy < 0.9 {
        eprintln!("adaptive: FAIL — advisor accuracy {accuracy:.2} below 0.90");
        failed = true;
    }

    if let Some(path) = emit {
        let mut report = BenchReport::new();
        report.benches.push(BenchRun {
            bench: "adaptive".to_string(),
            config: vec![
                (
                    "topology".to_string(),
                    serde::Value::Str("fat-tree/16-per-leaf/4:1+incast(4)".to_string()),
                ),
                ("zipf_theta".to_string(), serde::Value::Str(format!("{ZIPF_THETA}"))),
                ("smoke".to_string(), serde::Value::Bool(smoke)),
                (
                    "accuracy_band".to_string(),
                    serde::Value::Str(format!("{ACCURACY_BAND}")),
                ),
            ],
            results: phased
                .iter()
                .map(|c| BenchResult {
                    id: format!("phased/MESQ-SR/N={}", c.nodes),
                    metrics: vec![
                        MetricRow::higher("phased_speedup", c.speedup()),
                        MetricRow::higher("phased_gib_per_sec", c.phased_gibps),
                        MetricRow::info("unphased_gib_per_sec", c.unphased_gibps),
                        MetricRow::info("phased_response_virt_ns", c.phased_ns as f64),
                        MetricRow::info("unphased_response_virt_ns", c.unphased_ns as f64),
                        MetricRow::info("bytes_per_node", c.bytes_per_node as f64),
                    ],
                    stages: Vec::new(),
                })
                .chain(outcomes.iter().map(|o| BenchResult {
                    id: format!("advisor/{}", o.name),
                    metrics: vec![
                        MetricRow::lower("advisor_over_oracle", o.ratio),
                        MetricRow::info("probes", o.probes as f64),
                    ],
                    stages: Vec::new(),
                }))
                .chain(std::iter::once(BenchResult {
                    id: "advisor/summary".to_string(),
                    metrics: vec![
                        MetricRow::higher("advisor_accuracy", accuracy),
                        MetricRow::info("rows", outcomes.len() as f64),
                    ],
                    stages: Vec::new(),
                }))
                .chain(std::iter::once(host_result()))
                .collect(),
        });
        if let Err(e) = report.write(&path) {
            eprintln!("adaptive: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[adaptive] wrote {path}");
    }

    if failed {
        std::process::exit(1);
    }
}
