//! The synthetic shuffle workload of §5.1.
//!
//! "We generate a synthetic table R with two long integer attributes R.a
//! and R.b [...] all the nodes scan the local fragment of table R and
//! repartition R using R.a as the key. [...] We calculate the total
//! throughput as the reciprocal of the query response time and divide by
//! the total number of nodes in the cluster."
//!
//! The table volume is scaled down from the paper's 160 GiB per node: the
//! simulator reaches steady state within tens of MiB and throughput is
//! volume-independent from there (`RSHUFFLE_BENCH_MIB` overrides the
//! default).

use std::sync::Arc;

use rshuffle::{
    CostModel, Exchange, ExchangeConfig, PhaseSchedule, ShuffleAlgorithm, ShuffleError,
    TransmissionGroups,
};
use rshuffle_baselines::{ipoib, mpi};
use rshuffle_engine::{drive_to_sink, ComputeStage, Generator};
use rshuffle_simnet::{Cluster, DeviceProfile, SimDuration, Topology};
use rshuffle_verbs::VerbsRuntime;

use crate::skew::{zipf_partition_rows, SkewSpec};

/// Bytes per row of the synthetic table R(a, b): two long integers.
pub const ROW_BYTES: usize = 16;

/// Communication pattern under test.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Each node repartitions its fragment across the other nodes
    /// (Figure 3a).
    Repartition,
    /// Each node broadcasts its fragment to every other node (Figure 3c).
    Broadcast,
}

/// Which transport drives the shuffle. Over RDMA the design is the
/// exchange's `algorithm`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One of the six RDMA designs (plus the MQ/WR extension).
    Rdma,
    /// The MVAPICH-style MPI baseline.
    Mpi,
    /// TCP/IP over InfiniBand.
    Ipoib,
}

/// Rows per receive-operator output batch: 32 KiB of 16-byte rows (the
/// L1-sized batch).
const BATCH_ROWS: usize = 2048;

/// Maximum per-batch OS-scheduling jitter at the receiving fragment
/// (seeded, uniform). Real shared clusters are never perfectly balanced;
/// this is what starves the one-sided designs of free buffers in the
/// broadcast pattern (§5.1.3).
const RECEIVER_JITTER: SimDuration = SimDuration::from_micros(3);

/// Configuration of one workload run: what the §5.1 query adds around an
/// exchange, and the exchange itself.
#[derive(Clone)]
pub struct WorkloadConfig {
    /// Hardware generation.
    pub profile: DeviceProfile,
    /// Transport under test: [`Transport::Rdma`] from
    /// [`WorkloadConfig::new`]. The MPI and IPoIB libraries are built on
    /// SEMQ/SR.
    pub transport: Transport,
    /// Bytes each node transmits per destination-set pass (the local table
    /// fragment size).
    pub bytes_per_node: usize,
    /// Extra compute charged per 32 KiB batch at the receiving fragment
    /// (Figure 13).
    pub compute_per_batch: SimDuration,
    /// Whether the sender skips the copy into RDMA-registered buffers.
    /// `None` picks the per-design default: zero copy for the reliable
    /// (RC) designs, whose pooled registered buffers let tuples be staged
    /// in place (§4.3.1 allows it there), and the classic copy path for
    /// UD designs and the MPI/IPoIB baselines. `Some(_)` forces one side,
    /// which is what the §4.3.1 ablation uses.
    pub zero_copy: Option<bool>,
    /// Switch topology ([`Topology::SingleSwitch`] = the paper's
    /// full-bisection testbed; fat trees for the scale-out sweeps).
    pub topology: Topology,
    /// Per-node volume skew: split the cluster's total table volume by a
    /// seeded Zipf histogram instead of evenly. `None` = uniform.
    pub skew: Option<SkewSpec>,
    /// The exchange under test: cluster size and pattern (its transmission
    /// groups), threads, message size, pool depths, lanes, the QP cap,
    /// phasing and fault injection, at the defaults of §5.1.2–5.1.3
    /// unless set. The MPI and IPoIB baselines read `groups`, `threads`,
    /// `message_size` and `faults` only — the libraries bring their own
    /// depths. A skew-aware phase schedule takes its byte estimate
    /// (`phase_bytes`) from the [`WorkloadConfig::skew`] split when the run
    /// starts, exactly what a planner's table statistics would predict.
    pub exchange: ExchangeConfig,
}

impl WorkloadConfig {
    /// The §5.1 repartition query among `nodes` nodes over RDMA design
    /// `algorithm`, with the profile's thread count and the paper's
    /// exchange defaults.
    pub fn new(profile: DeviceProfile, nodes: usize, algorithm: ShuffleAlgorithm) -> Self {
        let mut exchange = ExchangeConfig::repartition(algorithm, nodes, profile.threads_per_node);
        exchange.faults.ud_reorder_probability = 0.05;
        WorkloadConfig {
            profile,
            transport: Transport::Rdma,
            bytes_per_node: default_volume(),
            compute_per_batch: SimDuration::ZERO,
            zero_copy: None,
            topology: Topology::SingleSwitch,
            skew: None,
            exchange,
        }
    }

    /// The same query over a baseline library (`Transport::Mpi` or
    /// `Transport::Ipoib`), built on the SEMQ/SR design.
    pub fn baseline(profile: DeviceProfile, nodes: usize, transport: Transport) -> Self {
        let mut cfg = WorkloadConfig::new(profile, nodes, ShuffleAlgorithm::SEMQ_SR);
        cfg.transport = transport;
        cfg
    }

    /// The design under test as rows and reports name it: the RDMA
    /// algorithm, `MPI` or `IPoIB`.
    pub fn design(&self) -> String {
        match self.transport {
            Transport::Rdma => self.exchange.algorithm.to_string(),
            Transport::Mpi => "MPI".to_string(),
            Transport::Ipoib => "IPoIB".to_string(),
        }
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.exchange.groups.len()
    }

    /// Switches the communication pattern, keeping the cluster size.
    pub fn set_pattern(&mut self, pattern: Pattern) {
        let nodes = self.nodes();
        self.exchange.groups = (0..nodes)
            .map(|me| match pattern {
                Pattern::Repartition => TransmissionGroups::repartition(me, nodes),
                Pattern::Broadcast => TransmissionGroups::broadcast(me, nodes),
            })
            .collect();
    }

    /// The effective copy/zero-copy decision after applying the
    /// per-design default (see [`WorkloadConfig::zero_copy`]).
    pub fn resolved_zero_copy(&self) -> bool {
        self.zero_copy.unwrap_or(match self.transport {
            Transport::Rdma => self.exchange.algorithm.reliable_transport(),
            Transport::Mpi | Transport::Ipoib => false,
        })
    }
}

/// Default per-node table volume (bytes); override with
/// `RSHUFFLE_BENCH_MIB`.
pub fn default_volume() -> usize {
    let mib = std::env::var("RSHUFFLE_BENCH_MIB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(48);
    mib << 20
}

/// Result of one workload run.
pub struct WorkloadResult {
    /// Receive throughput per node, bytes/second (the paper's metric).
    pub receive_throughput: f64,
    /// End-to-end response time.
    pub response_time: SimDuration,
    /// Payload bytes received per node (average).
    pub bytes_received_per_node: f64,
    /// RDMA-registered bytes per node for the shuffle (Figure 9b).
    pub registered_bytes_per_node: usize,
    /// Errors raised by any worker (empty on success).
    pub errors: Vec<ShuffleError>,
    /// Send-side QPs the design opens cluster-wide with no cap.
    pub natural_qps: u64,
    /// Send-side QP contexts the NICs hold: fewer under an engaged cap.
    pub physical_qps: u64,
    /// The runtime the query ran on, finished: the metrics registry and
    /// flight recorder (`obs()`), fabric, NIC and kernel statistics.
    pub runtime: Arc<VerbsRuntime>,
}

impl WorkloadResult {
    /// Receive throughput in GiB/s.
    pub fn gib_per_sec(&self) -> f64 {
        self.receive_throughput / (1u64 << 30) as f64
    }
}

/// Runs the synthetic shuffle workload and reports receive throughput,
/// or the [`ShuffleError::Config`] of a configuration the exchange
/// refuses to build.
pub fn run_shuffle_workload(cfg: &WorkloadConfig) -> Result<WorkloadResult, ShuffleError> {
    let (nodes, threads) = (cfg.nodes(), cfg.exchange.threads);
    let cluster = Cluster::with_topology(nodes, cfg.profile.clone(), cfg.topology.clone());
    let runtime = VerbsRuntime::with_faults(cluster, cfg.exchange.faults.clone());
    let groups = &cfg.exchange.groups;
    let cost = CostModel::from_profile(runtime.profile());
    // Per-node fragment sizes: even by default, or a seeded Zipf split of
    // the same cluster-wide total when volume skew is configured.
    let uniform_rows_per_thread = cfg.bytes_per_node / ROW_BYTES / threads;
    let skewed_rows: Option<Vec<u64>> = cfg.skew.map(|s| {
        let total = (cfg.bytes_per_node / ROW_BYTES) as u64 * nodes as u64;
        zipf_partition_rows(total, nodes, s.theta, s.seed)
    });
    let rows_per_thread_on = |node: usize| match &skewed_rows {
        Some(rows) => rows[node] as usize / threads,
        None => uniform_rows_per_thread,
    };

    let message_size = cfg.exchange.message_size;
    let exchange = match cfg.transport {
        Transport::Rdma => {
            let mut xcfg = cfg.exchange.clone();
            if let (true, Some(rows)) = (xcfg.phase.enabled(), &skewed_rows) {
                let totals: Vec<u64> = rows.iter().map(|&r| r * ROW_BYTES as u64).collect();
                xcfg.phase_bytes = Some(Arc::new(PhaseSchedule::estimate_from_source_totals(
                    &totals,
                )));
            }
            Exchange::build(&runtime, &xcfg)
        }
        Transport::Mpi => mpi::build(&runtime, groups.clone(), message_size, threads),
        Transport::Ipoib => ipoib::build(&runtime, groups.clone(), message_size, threads),
    }?;
    let registered_bytes_per_node = exchange.registered_bytes(0);
    let (natural_qps, physical_qps) = (exchange.natural_qps(), exchange.physical_qps());

    let mut recv_stats = Vec::new();
    let mut send_stats = Vec::new();
    for node in 0..nodes {
        let generator = Arc::new(Generator::new(
            rows_per_thread_on(node),
            threads,
            0xACE0_BA5E ^ (node as u64) << 16,
        ));
        let send_cost = if cfg.resolved_zero_copy() {
            // Zero copy: tuples are transmitted in place; only hashing
            // remains on the sender's critical path.
            CostModel {
                memcpy_bandwidth: 1e18,
                ..cost.clone()
            }
        } else {
            cost.clone()
        };
        if let Some(shuffle) = exchange.shuffle_operator(node, generator, send_cost) {
            send_stats.push(drive_to_sink(
                runtime.cluster(),
                node,
                &format!("shuffle-{node}"),
                Arc::new(shuffle),
                threads,
                |_, _| {},
            ));
        }

        let Some(receive) = exchange.receive_operator(node, ROW_BYTES, BATCH_ROWS, cost.clone())
        else {
            continue;
        };
        let mut staged: Arc<dyn rshuffle::Operator> =
            Arc::new(JitterStage::new(Arc::new(receive), 0xBEEF ^ node as u64));
        if cfg.compute_per_batch > SimDuration::ZERO {
            staged = Arc::new(ComputeStage::new(staged, cfg.compute_per_batch));
        }
        recv_stats.push(drive_to_sink(
            runtime.cluster(),
            node,
            &format!("receive-{node}"),
            staged,
            threads,
            |_, _| {},
        ));
    }

    runtime.cluster().run();

    let response_time = runtime.kernel().now() - rshuffle_simnet::SimTime::ZERO;
    let mut errors = Vec::new();
    for s in recv_stats.iter().chain(send_stats.iter()) {
        errors.extend(s.lock().errors.iter().cloned());
    }
    let bytes_received: u64 = recv_stats.iter().map(|s| s.lock().bytes).sum();
    let per_node = bytes_received as f64 / nodes as f64;
    Ok(WorkloadResult {
        receive_throughput: per_node / response_time.as_secs_f64(),
        response_time,
        bytes_received_per_node: per_node,
        registered_bytes_per_node,
        errors,
        natural_qps,
        physical_qps,
        runtime,
    })
}

/// Adds seeded, uniformly distributed per-batch delays of up to
/// [`RECEIVER_JITTER`] to a pipeline, modelling OS-scheduling noise on a
/// shared cluster.
struct JitterStage {
    child: Arc<dyn rshuffle::Operator>,
    rng: parking_lot::Mutex<rand::rngs::StdRng>,
}

impl JitterStage {
    fn new(child: Arc<dyn rshuffle::Operator>, seed: u64) -> Self {
        use rand::SeedableRng;
        JitterStage {
            child,
            rng: parking_lot::Mutex::new(rand::rngs::StdRng::seed_from_u64(seed)),
        }
    }
}

impl rshuffle::Operator for JitterStage {
    fn next(
        &self,
        sim: &rshuffle_simnet::SimContext,
        tid: usize,
    ) -> rshuffle::Result<(rshuffle::StreamState, rshuffle::RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if !batch.is_empty() {
            use rand::Rng;
            let ns = self.rng.lock().gen_range(0..=RECEIVER_JITTER.as_nanos());
            sim.sleep(SimDuration::from_nanos(ns));
        }
        Ok((state, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_configuration_comes_back_as_a_config_error() {
        let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), 2, ShuffleAlgorithm::MEMQ_SR);
        cfg.exchange.credit_writeback_frequency = 0;
        let refused = run_shuffle_workload(&cfg).map(|r| r.response_time);
        assert!(
            matches!(refused, Err(ShuffleError::Config(_))),
            "{refused:?}"
        );
    }
}
