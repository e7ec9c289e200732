//! `adaptive` — phase-scheduled all-to-all proof and advisor accuracy
//! matrix.
//!
//! Two experiments under one id:
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
//! `--smoke` is the CI configuration gated by `perfdiff` against
//! `BENCH_0010.json`: the acceptance-size N ∈ {128, 256} phased cells
//! at a fabric-bound 8 MiB/node and a six-row matrix. The full run adds
//! the N = 64 anchor cell and two more matrix rows.

use std::collections::HashMap;

use rshuffle::{AdvisorSignals, AlgorithmAdvisor, PhasePolicy, ShuffleAlgorithm};
use rshuffle_simnet::{DeviceProfile, IncastModel, Topology};
use serde::Value;

use super::{Outcome, Scale};
use crate::perf::{host_result, MetricRow};
use crate::skew::{skew_ratio, zipf_partition_rows, SkewSpec};
use crate::workload::{Pattern, Transport, WorkloadConfig};

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

/// The congested fabric of the phased sweep: 16 hosts per leaf at 4:1,
/// with the incast knee at one leaf's uplink share (4 concurrent
/// senders) and the default 4× penalty cap.
fn congested_fat_tree() -> Topology {
    Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4))
}

/// Puts a configuration on the congested fabric with the Zipf-skewed
/// table, and gives it deep UD rings: with shallow defaults the sender is
/// credit-bound long before it is fabric-bound, and the incast penalty
/// (what phasing removes) never shows.
fn congest(cfg: &mut WorkloadConfig) {
    cfg.topology = congested_fat_tree();
    cfg.skew = Some(SkewSpec {
        theta: ZIPF_THETA,
        seed: ZIPF_SEED,
    });
    cfg.exchange.ud_send_buffers = 256;
    cfg.exchange.ud_recv_window = 64;
}

// ---------------------------------------------------------------------
// Experiment 1: phased vs unphased MESQ/SR.
// ---------------------------------------------------------------------

/// Runs one cluster size both ways and adds its row; phased MESQ/SR must
/// come out strictly faster.
fn run_phased_cell(out: &mut Outcome, nodes: usize, bytes_per_node: usize) {
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
        congest(&mut cfg);
        cfg.exchange.phase = policy;
        let start = std::time::Instant::now();
        let r = out.workload(&format!("phased sweep N={nodes} {policy:?}"), &cfg);
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
    let speedup = times[1] as f64 / times[0] as f64;
    if speedup <= 1.0 {
        out.violations.push(format!(
            "phased MESQ/SR not faster at N={nodes} (speedup {speedup:.3})"
        ));
    }
    out.row(
        format!("phased/MESQ-SR/N={nodes}"),
        vec![
            MetricRow::higher("phased_speedup", speedup),
            MetricRow::higher("phased_gib_per_sec", gib[0]),
            MetricRow::info("unphased_gib_per_sec", gib[1]),
            MetricRow::info("phased_response_virt_ns", times[0] as f64),
            MetricRow::info("unphased_response_virt_ns", times[1] as f64),
            MetricRow::info("bytes_per_node", bytes_per_node as f64),
        ],
    );
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
    /// The skewed table on the congested fabric of the phased sweep.
    incast: bool,
}

impl Row {
    fn config(&self, algorithm: ShuffleAlgorithm, phase: PhasePolicy) -> WorkloadConfig {
        let mut cfg =
            WorkloadConfig::new(DeviceProfile::edr(), self.nodes, Transport::Rdma(algorithm));
        cfg.exchange.threads = self.threads;
        cfg.exchange.message_size = self.message_size;
        cfg.bytes_per_node = self.bytes_per_node;
        cfg.set_pattern(self.pattern);
        if self.incast {
            // The decision the row exercises (to phase or not) only
            // exists once the sender is fabric-bound.
            congest(&mut cfg);
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
        if self.incast {
            let topology = congested_fat_tree();
            s.oversubscription = topology.oversubscription();
            s.incast = topology.incast().is_some();
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
        if self.incast && self.pattern == Pattern::Repartition {
            vec![PhasePolicy::Off, PhasePolicy::SkewAware]
        } else {
            vec![PhasePolicy::Off]
        }
    }
}

/// Runs one matrix row — the oracle, then the advisor — adds its result
/// row and returns the advisor's regret (pick over oracle).
fn run_row(out: &mut Outcome, row: &Row) -> f64 {
    let wr = |name: &str| ShuffleAlgorithm::parse(name).expect("WR variant parses");
    let mut oracle_set = ShuffleAlgorithm::ALL.to_vec();
    oracle_set.push(wr("MEMQ/WR"));
    oracle_set.push(wr("SEMQ/WR"));

    // One configuration's response time, memoized on the (algorithm,
    // phase, volume) key — the sim is deterministic, so the advisor's
    // full-volume pick can reuse the oracle's measurement of the same
    // design.
    let mut cache: HashMap<(String, PhasePolicy, usize), u64> = HashMap::new();
    let mut measure = |algorithm: ShuffleAlgorithm, phase: PhasePolicy, bytes_per_node: usize| {
        let key = (algorithm.to_string(), phase, bytes_per_node);
        if let Some(&ns) = cache.get(&key) {
            return ns;
        }
        let mut cfg = row.config(algorithm, phase);
        cfg.bytes_per_node = bytes_per_node;
        let what = format!("{}: {algorithm} phase={}", row.name, phase.label());
        let r = out.workload(&what, &cfg);
        let ns = r.response_time.as_nanos();
        cache.insert(key, ns);
        ns
    };

    // Oracle: every design under every applicable phase policy, full
    // volume.
    let mut oracle: Option<(ShuffleAlgorithm, PhasePolicy, u64)> = None;
    for &algorithm in &oracle_set {
        for &phase in &row.oracle_phases() {
            let ns = measure(algorithm, phase, row.bytes_per_node);
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
        let ns = measure(finalist, advice.phase, probe_volume);
        if pick.map(|(_, best)| ns < best).unwrap_or(true) {
            pick = Some((finalist, ns));
        }
    }
    let (pick_alg, _) = pick.expect("advice.ranked is never empty");
    let pick_ns = measure(pick_alg, advice.phase, row.bytes_per_node);

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
    out.row(
        format!("advisor/{}", row.name),
        vec![
            MetricRow::lower("advisor_over_oracle", ratio),
            MetricRow::info("probes", advice.ranked.len() as f64),
        ],
    );
    ratio
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
            incast: false,
        },
        // Figure 9, left edge: small messages on the same cluster.
        Row {
            name: "fig09/small-msg/N=8",
            nodes: 8,
            threads: 4,
            message_size: 2 * 1024,
            bytes_per_node: 4 << 20,
            pattern: Pattern::Repartition,
            incast: false,
        },
        // Figure 10: many workers per node on a small cluster.
        Row {
            name: "fig10/threads/N=16",
            nodes: 16,
            threads: 8,
            message_size: 16 * 1024,
            bytes_per_node: 2 << 20,
            pattern: Pattern::Repartition,
            incast: false,
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
            incast: false,
        },
        // Figure 12/13: scale-out past the QP-state knee.
        Row {
            name: "fig12/scale/N=64",
            nodes: 64,
            threads: 2,
            message_size: 16 * 1024,
            bytes_per_node: 1 << 20,
            pattern: Pattern::Repartition,
            incast: false,
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
            incast: true,
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
            incast: false,
        });
        rows.push(Row {
            name: "fig12/scale/N=96",
            nodes: 96,
            threads: 2,
            message_size: 16 * 1024,
            bytes_per_node: 1 << 20,
            pattern: Pattern::Repartition,
            incast: false,
        });
    }
    rows
}

pub(super) fn adaptive(scale: Scale) -> Outcome {
    let smoke = scale == Scale::Smoke;
    let config = vec![
        (
            "topology",
            Value::Str("fat-tree/16-per-leaf/4:1+incast(4)".to_string()),
        ),
        ("zipf_theta", Value::Str(format!("{ZIPF_THETA}"))),
        ("smoke", Value::Bool(smoke)),
        ("accuracy_band", Value::Str(format!("{ACCURACY_BAND}"))),
    ];
    let mut out = Outcome::new("adaptive", config);

    // Experiment 1: phased vs unphased MESQ/SR. Both scales run the
    // acceptance sizes (128, 256) at a fabric-bound 8 MiB/node; full adds
    // the N=64 anchor cell.
    let phased_sizes: &[usize] = if smoke { &[128, 256] } else { &[64, 128, 256] };
    for &nodes in phased_sizes {
        run_phased_cell(&mut out, nodes, 8 << 20);
    }

    // Experiment 2: advisor vs oracle matrix; the pick must land inside
    // the band on at least 90 % of the rows.
    let rows = matrix(smoke);
    let hits = rows
        .iter()
        .filter(|row| run_row(&mut out, row) <= ACCURACY_BAND)
        .count();
    let accuracy = hits as f64 / rows.len() as f64;
    if accuracy < 0.9 {
        out.violations
            .push(format!("advisor accuracy {accuracy:.2} below 0.90"));
    }
    out.row(
        "advisor/summary".to_string(),
        vec![
            MetricRow::higher("advisor_accuracy", accuracy),
            MetricRow::info("rows", rows.len() as f64),
        ],
    );
    out.run.results.push(host_result());
    out
}
