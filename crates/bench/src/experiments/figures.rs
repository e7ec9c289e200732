//! Table 1, Figures 8–14 and the three ablations.
//!
//! All but Table 1 and Figure 9 are sweeps through [`Sweep`]: one result
//! row per x, one metric per series, so the printed table already has the
//! figure's shape. Under `--smoke` a sweep keeps its first and last x and
//! runs the §5.1 workload at [`SMOKE_MSG_BYTES_PER_NODE`] whatever
//! `RSHUFFLE_BENCH_MIB` says. Figure 9 keeps the one-row-per-cell layout
//! and the smoke matrix that `BENCH_SMOKE.json` records, each row with its
//! stage digests, which `perfdiff` compares field by field.

use std::fmt::Display;
use std::sync::Arc;

use rshuffle::{EndpointImpl, EndpointMode, Exchange, ExchangeConfig, ShuffleAlgorithm};
use rshuffle_baselines::qperf_peak_bandwidth;
use rshuffle_simnet::profile::GIB;
use rshuffle_simnet::{DeviceProfile, SimDuration, MAX_RC_MESSAGE, UD_MTU};
use rshuffle_tpch::{run_query, Dataset, GenConfig, Placement, QueryId, QueryTransport};
use serde::Value;

use super::{Outcome, Scale};
use crate::perf::{stage_summaries, BenchResult, MetricRow};
use crate::workload::{default_volume, Pattern, Transport, WorkloadConfig};

/// Message sizes of the Figure 9 smoke sweep.
const SMOKE_MSG_SIZES: &[usize] = &[16 << 10, 64 << 10];
/// Cluster size of the Figure 9 smoke sweep.
const SMOKE_MSG_NODES: usize = 4;
/// Per-node table volume of every smoke sweep (fixed, independent of
/// `RSHUFFLE_BENCH_MIB`, so baseline and candidate always agree).
const SMOKE_MSG_BYTES_PER_NODE: usize = 4 << 20;
/// TPC-H scale factor per node of the Figure 14 smoke.
const SMOKE_SF_PER_NODE: f64 = 0.01;

/// The six designs plus the two library baselines (Figures 10 and 13),
/// each as the §5.1 query among `nodes` nodes.
fn all_designs(profile: &DeviceProfile, nodes: usize) -> Vec<WorkloadConfig> {
    let rdma = ShuffleAlgorithm::ALL.map(|a| WorkloadConfig::new(profile.clone(), nodes, a));
    let baselines = [Transport::Mpi, Transport::Ipoib]
        .map(|t| WorkloadConfig::baseline(profile.clone(), nodes, t));
    rdma.into_iter().chain(baselines).collect()
}

/// Per-node volume of a broadcast among `nodes`: every node transmits its
/// fragment to `nodes - 1` peers, so the fragment shrinks to keep total
/// simulated traffic bounded.
fn broadcast_volume(nodes: usize) -> usize {
    (default_volume() / (nodes - 1)).max(4 << 20)
}

/// A figure being swept: the rows so far and the scale that trims them.
struct Sweep {
    scale: Scale,
    out: Outcome,
}

impl Sweep {
    fn new(id: &str, scale: Scale, mut config: Vec<(&'static str, Value)>) -> Self {
        config.push(("smoke", Value::Bool(scale == Scale::Smoke)));
        Sweep {
            scale,
            out: Outcome::new(id, config),
        }
    }

    /// A sweep over the §5.1 workload, which records its table volume.
    fn of_workload(id: &str, scale: Scale, mut config: Vec<(&'static str, Value)>) -> Self {
        let volume = match scale {
            Scale::Smoke => SMOKE_MSG_BYTES_PER_NODE,
            Scale::Full => default_volume(),
        };
        config.push(("bytes_per_node", Value::UInt(volume as u64)));
        Sweep::new(id, scale, config)
    }

    /// One result row per x — the first and the last x under `--smoke`.
    fn rows<X>(
        &mut self,
        xs: &[X],
        id: impl Fn(&X) -> String,
        mut metrics: impl FnMut(&mut Self, &X) -> Vec<MetricRow>,
    ) {
        let xs: Vec<&X> = match self.scale {
            Scale::Smoke if xs.len() > 2 => vec![&xs[0], &xs[xs.len() - 1]],
            _ => xs.iter().collect(),
        };
        for x in xs {
            let metrics = metrics(self, x);
            self.out.row(id(x), metrics);
        }
    }

    /// The throughput of one series at one x — at the smoke volume under
    /// `--smoke` — as a higher-is-better metric named after the series.
    fn throughput(&mut self, series: &str, x: impl Display, mut cfg: WorkloadConfig) -> MetricRow {
        if self.scale == Scale::Smoke {
            cfg.bytes_per_node = SMOKE_MSG_BYTES_PER_NODE;
        }
        let r = self.out.workload(&format!("{series} {x}"), &cfg);
        MetricRow::higher(series, r.gib_per_sec())
    }
}

/// Table 1 for the paper's n = 16 nodes and t = 14 threads. Contention
/// class: 0 none (a thread owns its endpoint), 1 moderate (threads share
/// an endpoint's per-peer QPs), 2 excessive (threads share one QP).
pub(super) fn table1(_: Scale) -> Outcome {
    let (n, t) = (16usize, 14usize);
    let config = vec![
        ("nodes", Value::UInt(n as u64)),
        ("threads", Value::UInt(t as u64)),
    ];
    let mut out = Outcome::new("table1", config);
    for a in ShuffleAlgorithm::ALL {
        let max_message = a.max_message(UD_MTU, MAX_RC_MESSAGE);
        out.row(
            a.to_string(),
            vec![
                MetricRow::info("qps_per_node", a.qps_per_node(n, t) as f64),
                MetricRow::info("threads_per_endpoint", (t / a.endpoints(t)) as f64),
                MetricRow::info("contention_class", a.contention() as u8 as f64),
                MetricRow::info(
                    "reliable_transport",
                    u8::from(a.reliable_transport()) as f64,
                ),
                MetricRow::info("max_message_bytes", max_message as f64),
            ],
        );
    }
    out
}

pub(super) fn fig08_credit(scale: Scale) -> Outcome {
    // §5.1.1: each thread registers 16 RDMA buffers per remote node.
    let config = vec![
        ("nodes", Value::UInt(8)),
        ("buffers_per_peer", Value::UInt(16)),
    ];
    let mut s = Sweep::of_workload("fig08_credit", scale, config);
    let algorithms = [
        ShuffleAlgorithm::SEMQ_SR,
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::SESQ_SR,
        ShuffleAlgorithm::MESQ_SR,
    ];
    for profile in [DeviceProfile::fdr(), DeviceProfile::edr()] {
        // Reference lines: MPI (frequency-independent) and qperf.
        let mpi = WorkloadConfig::baseline(profile.clone(), 8, Transport::Mpi);
        let mpi = s.throughput("MPI", profile.name, mpi);
        let qperf = qperf_peak_bandwidth(&profile, 64 * 1024) / GIB;
        s.rows(
            &[1u32, 2, 3, 4, 8, 16],
            |f| format!("{}/freq={f}", profile.name),
            |s, &f| {
                let mut row = Vec::new();
                for a in algorithms {
                    let mut cfg = WorkloadConfig::new(profile.clone(), 8, a);
                    cfg.exchange.credit_writeback_frequency = f;
                    cfg.exchange.buffers_per_peer = 16;
                    let x = format!("{} freq {f}", profile.name);
                    row.push(s.throughput(&a.to_string(), x, cfg));
                }
                row.push(mpi.clone());
                row.push(MetricRow::higher("qperf", qperf));
                row
            },
        );
    }
    s.out
}

/// Figure 9, §5.1.2: double buffering, `recv_depth_per_peer = 4`, every
/// design at every message size; one result row per cell, with the stage
/// digests of its run.
pub(super) fn fig09_msgsize(scale: Scale) -> Outcome {
    let (sizes, nodes, volume): (&[usize], usize, usize) = match scale {
        Scale::Smoke => (SMOKE_MSG_SIZES, SMOKE_MSG_NODES, SMOKE_MSG_BYTES_PER_NODE),
        Scale::Full => (
            &[4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20],
            8,
            default_volume(),
        ),
    };
    let uint = |n: usize| Value::UInt(n as u64);
    let config = vec![
        ("nodes", uint(nodes)),
        ("bytes_per_node", uint(volume)),
        (
            "sizes",
            Value::Array(sizes.iter().map(|&s| uint(s)).collect()),
        ),
    ];
    let mut out = Outcome::new("fig09_msgsize", config);
    for a in ShuffleAlgorithm::ALL {
        for &msg in sizes {
            let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), nodes, a);
            cfg.exchange.message_size = msg;
            cfg.exchange.recv_depth_per_peer = 4;
            cfg.bytes_per_node = volume;
            let r = out.workload(&format!("{a} msg {msg}"), &cfg);
            let stages = stage_summaries(&r.runtime.obs().metrics.snapshot());
            let metrics = vec![
                MetricRow::higher("gib_per_sec", r.gib_per_sec()),
                MetricRow::lower("response_ns", r.response_time.as_nanos() as f64),
                MetricRow::info("registered_bytes", r.registered_bytes_per_node as f64),
            ];
            out.run.results.push(BenchResult {
                id: format!("{a}/msg={}KiB", msg >> 10),
                metrics,
                stages,
            });
        }
    }
    out
}

pub(super) fn fig10_scaleout(scale: Scale) -> Outcome {
    let mut s = Sweep::of_workload("fig10_scaleout", scale, Vec::new());
    for profile in [DeviceProfile::fdr(), DeviceProfile::edr()] {
        for pattern in [Pattern::Repartition, Pattern::Broadcast] {
            // qperf does not support the broadcast pattern (§5.1.3).
            let qperf = (pattern == Pattern::Repartition)
                .then(|| qperf_peak_bandwidth(&profile, 64 * 1024) / GIB);
            s.rows(
                &[2usize, 4, 8, 16],
                |n| format!("{}/{pattern:?}/nodes={n}", profile.name),
                |s, &n| {
                    let mut row = Vec::new();
                    for mut cfg in all_designs(&profile, n) {
                        cfg.set_pattern(pattern);
                        if pattern == Pattern::Broadcast {
                            cfg.bytes_per_node = broadcast_volume(n);
                        }
                        let x = format!("{} {pattern:?} n={n}", profile.name);
                        row.push(s.throughput(&cfg.design(), x, cfg));
                    }
                    row.extend(qperf.map(|q| MetricRow::higher("qperf", q)));
                    row
                },
            );
        }
    }
    s.out
}

/// Figure 11: the number of endpoints per operator controls the number of
/// Queue Pairs (Table 1) — as many as endpoints for SQ, times the 15
/// peers for MQ.
pub(super) fn fig11_qps(scale: Scale) -> Outcome {
    let nodes = 16usize;
    let mut s = Sweep::of_workload("fig11_qps", scale, vec![("nodes", Value::UInt(16))]);
    s.rows(
        &[1usize, 2, 7, 14],
        |lanes| format!("endpoints={lanes}"),
        |s, &lanes| {
            let mut row = vec![
                MetricRow::info("sq_qps", lanes as f64),
                MetricRow::info("mq_qps", (lanes * (nodes - 1)) as f64),
            ];
            for (label, imp) in [
                ("SQ/SR", EndpointImpl::SqSr),
                ("MQ/SR", EndpointImpl::MqSr),
                ("MQ/RD", EndpointImpl::MqRd),
            ] {
                // The lane count interpolates between SE (1) and ME
                // (threads); the algorithm's mode field only picks the
                // default.
                let mode = match lanes {
                    1 => EndpointMode::Single,
                    _ => EndpointMode::Multi,
                };
                let algorithm = ShuffleAlgorithm { mode, imp };
                let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), nodes, algorithm);
                cfg.exchange.lanes_override = Some(lanes);
                row.push(s.throughput(label, format!("lanes {lanes}"), cfg));
            }
            row
        },
    );
    s.out
}

/// Figure 12: QP creation, out-of-band exchange, state transitions and
/// memory registration, per Table 1's QP counts, in milliseconds.
pub(super) fn fig12_setup(scale: Scale) -> Outcome {
    let mut s = Sweep::new("fig12_setup", scale, Vec::new());
    s.rows(
        &[2usize, 4, 6, 8, 10, 12, 14, 16],
        |n| format!("nodes={n}"),
        |_, &n| {
            let algorithms = ShuffleAlgorithm::ALL.iter();
            algorithms
                .map(|&a| MetricRow::lower(&a.to_string(), setup_ms(a, n)))
                .collect()
        },
    );
    s.out
}

/// Every node runs its connection setup concurrently; the run ends when
/// the slowest node is done.
fn setup_ms(algorithm: ShuffleAlgorithm, nodes: usize) -> f64 {
    let profile = DeviceProfile::edr();
    let config = ExchangeConfig::repartition(algorithm, nodes, profile.threads_per_node);
    let runtime = config.build_runtime(profile);
    let exchange = Arc::new(Exchange::build(&runtime, &config).expect("builds"));
    for node in 0..nodes {
        let ex = exchange.clone();
        let name = format!("setup-{node}");
        runtime
            .cluster()
            .spawn(node, &name, move |sim| ex.charge_setup(&sim, node));
    }
    runtime.cluster().run();
    runtime.kernel().now().as_nanos() as f64 / 1e6
}

/// Figure 13: shuffling throughput relative to the processing throughput
/// of the receiving fragment; 100 % means communication and computation
/// completely overlap.
pub(super) fn fig13_compute(scale: Scale) -> Outcome {
    let profile = DeviceProfile::edr();
    let mut s = Sweep::of_workload("fig13_compute", scale, vec![("nodes", Value::UInt(8))]);
    // x: average time the fragment takes to retrieve the next 32 KiB
    // batch, in µs.
    s.rows(
        &[0.5f64, 1.0, 2.0, 4.0, 6.0, 9.0, 12.0, 15.0],
        |us| format!("batch={us}us"),
        |s, &us| {
            let mut row = Vec::new();
            for mut cfg in all_designs(&profile, 8) {
                // With t threads snatching batches concurrently, each
                // thread's per-batch compute is x · t (§5.1.6).
                cfg.compute_per_batch =
                    SimDuration::from_nanos((us * 1000.0) as u64 * profile.threads_per_node as u64);
                let design = cfg.design();
                let measured = s.throughput(&design, format!("compute {us}us"), cfg);
                // Processing capacity of the fragment: one batch per x.
                let capacity = 32.0 * 1024.0 / (us * 1e-6);
                let relative = (measured.value * GIB / capacity * 100.0).min(100.0);
                row.push(MetricRow::higher(&design, relative));
            }
            row
        },
    );
    s.out
}

/// Figure 14, response time in milliseconds: Q4 on 8 nodes, FDR vs EDR,
/// then Q4/Q3/Q10 on EDR at 2–16 nodes with the database growing with the
/// cluster. The scale factor is reduced from the paper's 100 GiB/node so
/// the run fits one simulation host (`RSHUFFLE_TPCH_SF_PER_NODE`
/// overrides it); response-time *ratios* are the reproduced quantity.
pub(super) fn fig14_tpch(scale: Scale) -> Outcome {
    let sf_per_node = match scale {
        Scale::Smoke => SMOKE_SF_PER_NODE,
        Scale::Full => std::env::var("RSHUFFLE_TPCH_SF_PER_NODE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.08),
    };
    let mut s = Sweep::new(
        "fig14_tpch",
        scale,
        vec![("sf_per_node", Value::Float(sf_per_node))],
    );
    let variants = [
        ("MPI", QueryTransport::Mpi, Placement::Random),
        (
            "MESQ/SR",
            QueryTransport::Rdma(ShuffleAlgorithm::MESQ_SR),
            Placement::Random,
        ),
        (
            "local data",
            QueryTransport::LocalData,
            Placement::CoPartitioned,
        ),
    ];
    let row = |profile: &DeviceProfile, nodes: usize, query: QueryId, series: usize| {
        let mut row = Vec::new();
        for &(label, transport, placement) in &variants[..series] {
            let dataset = Dataset::generate(&GenConfig {
                scale: sf_per_node * nodes as f64,
                nodes,
                placement,
                seed: 0x7C9,
            });
            let threads = profile.threads_per_node;
            let r = run_query(profile.clone(), &dataset, query, transport, threads);
            row.push(MetricRow::lower(label, r.response_time.as_millis_f64()));
        }
        row
    };
    s.rows(
        &[DeviceProfile::fdr(), DeviceProfile::edr()],
        |profile| format!("Q4/{}/nodes=8", profile.name),
        |_, profile| row(profile, 8, QueryId::Q4, 3),
    );
    // The co-partitioned "local data" plan only exists for Q4.
    for (query, series) in [(QueryId::Q4, 3), (QueryId::Q3, 2), (QueryId::Q10, 2)] {
        s.rows(
            &[2usize, 4, 8, 16],
            |n| format!("{query:?}/nodes={n}"),
            |_, &n| row(&DeviceProfile::edr(), n, query, series),
        );
    }
    s.out
}

/// The RDMA Write endpoint the paper leaves as future work (§7) against
/// the published one-sided (MQ/RD) and two-sided (MQ/SR) designs, on both
/// patterns.
pub(super) fn ablate_write(scale: Scale) -> Outcome {
    let memq_wr = ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::MqWr,
    };
    let algorithms = [
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::MEMQ_RD,
        memq_wr,
        ShuffleAlgorithm::MESQ_SR,
    ];
    let mut s = Sweep::of_workload("ablate_write", scale, vec![("nodes", Value::UInt(8))]);
    s.rows(
        &[Pattern::Repartition, Pattern::Broadcast],
        |pattern| format!("{pattern:?}"),
        |s, &pattern| {
            let mut row = Vec::new();
            for a in algorithms {
                let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), 8, a);
                cfg.set_pattern(pattern);
                if pattern == Pattern::Broadcast {
                    cfg.bytes_per_node = broadcast_volume(8);
                }
                row.push(s.throughput(&a.to_string(), format!("{pattern:?}"), cfg));
            }
            row
        },
    );
    s.out
}

/// Native InfiniBand multicast for MESQ/SR broadcasts — the paper's §7
/// hypothesis that switch-level replication will cut the CPU cost of
/// broadcasting.
pub(super) fn ablate_multicast(scale: Scale) -> Outcome {
    let mut s = Sweep::of_workload("ablate_multicast", scale, Vec::new());
    s.rows(
        &[4usize, 8, 16],
        |n| format!("nodes={n}"),
        |s, &n| {
            let mut row = Vec::new();
            for (label, native) in [("software fan-out", false), ("native multicast", true)] {
                let mut cfg =
                    WorkloadConfig::new(DeviceProfile::edr(), n, ShuffleAlgorithm::MESQ_SR);
                cfg.set_pattern(Pattern::Broadcast);
                cfg.exchange.ud_native_multicast = native;
                cfg.bytes_per_node = broadcast_volume(n);
                row.push(s.throughput(label, format!("n={n}"), cfg));
            }
            row
        },
    );
    s.out
}

/// The copy vs zero-copy decision of §4.3.1: the §5.1 repartition of
/// 16-byte rows over MESQ/SR with the sender's copy into registered
/// buffers charged (the paper always copies) and not charged.
pub(super) fn ablate_zerocopy(scale: Scale) -> Outcome {
    let mut s = Sweep::of_workload("ablate_zerocopy", scale, Vec::new());
    s.rows(
        &[8usize],
        |n| format!("MESQ/SR/nodes={n}"),
        |s, &n| {
            let mut row = Vec::new();
            for (label, zero_copy) in [("copy", false), ("zero copy", true)] {
                let mut cfg =
                    WorkloadConfig::new(DeviceProfile::edr(), n, ShuffleAlgorithm::MESQ_SR);
                cfg.zero_copy = Some(zero_copy);
                row.push(s.throughput(label, format!("n={n}"), cfg));
            }
            row
        },
    );
    s.out
}
