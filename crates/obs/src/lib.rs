//! Deterministic virtual-time observability for the RDMA shuffle stack.
//!
//! Three pieces, all driven by the simulation's virtual clock and free
//! of wall-clock reads so that a fixed seed yields byte-identical
//! output:
//!
//! * [`MetricsRegistry`] — atomic counters and log-linear histograms
//!   (p50/p90/p99/p999-capable, mergeable, buckets allocated an octave
//!   at a time) keyed by
//!   `node/lane/endpoint` [`Labels`], snapshotted deterministically
//!   ([`Snapshot`]). Hot paths record through interned integer ids —
//!   no string hashing or allocation per sample.
//! * [`FlightRecorder`] — bounded drop-oldest rings of 17-byte slots
//!   holding typed [`EventKind`] events and named spans, one ring per
//!   `(node, tid)` track.
//! * [`trace::chrome_trace`] — export of the recorder as a
//!   `chrome://tracing` / Perfetto compatible JSON array.
//!
//! This crate sits *below* the simulator so every tier (simnet, verbs,
//! core endpoints, engine) can record into one shared [`Obs`] instance;
//! timestamps are plain virtual nanoseconds (`SimTime::as_nanos()`).

#![warn(missing_docs)]

pub mod key;
pub mod metrics;
pub mod recorder;
pub mod stage;
pub mod trace;

pub use key::{KeyHasher, KeyMap, KeySet};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, HistogramSummary, Labels, MetricsRegistry, Snapshot,
    NO_LABEL,
};
pub use recorder::{EventKind, FlightRecorder, Record, HW_TRACK};
pub use stage::Stage;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Canonical metric names, shared by all instrumented crates so series
/// line up across tiers and figures.
pub mod names {
    /// Work requests processed by a NIC pipeline `{node}`.
    pub const NIC_WORK_REQUESTS: &str = "nic.work_requests";
    /// QP context cache hits `{node}` (Figure 11).
    pub const NIC_QP_CACHE_HITS: &str = "nic.qp_cache_hits";
    /// QP context cache misses `{node}` (Figure 11).
    pub const NIC_QP_CACHE_MISSES: &str = "nic.qp_cache_misses";
    /// Serialization ns the fabric's incast model added on top of line
    /// rate, over every ingress port and leaf downlink. Registered only
    /// on a fabric with the model on.
    pub const NET_INCAST_PENALTY_NS: &str = "net.incast_penalty_ns";
    /// Virtual nanoseconds simulated threads spent busy `{node}`.
    pub const KERNEL_BUSY_NS: &str = "kernel.busy_ns";
    /// Virtual nanoseconds simulated threads spent blocked `{node}`.
    pub const KERNEL_IDLE_NS: &str = "kernel.idle_ns";
    /// Simulated threads that ran to completion `{node}`.
    pub const KERNEL_THREADS_FINISHED: &str = "kernel.threads_finished";
    /// Times the scheduler switched into a simulated thread `{node}`.
    pub const KERNEL_RESUMES: &str = "kernel.resumes";
    /// Gate waits that ended at their deadline with nothing to take
    /// `{node}`.
    pub const KERNEL_EXPIRED_WAITS: &str = "kernel.expired_waits";
    /// UD datagrams dropped in the network by fault injection.
    pub const VERBS_UD_DROPPED: &str = "verbs.ud_dropped_in_network";
    /// UD datagrams that found no posted receive (receiver overrun).
    pub const VERBS_UD_UNMATCHED: &str = "verbs.ud_unmatched";
    /// UD datagrams delayed out of order by fault injection.
    pub const VERBS_UD_REORDERED: &str = "verbs.ud_reordered";
    /// Receiver-not-ready retries on RC QPs.
    pub const VERBS_RNR_RETRIES: &str = "verbs.rnr_retries";
    /// Two-sided message latency, post → delivery, ns `{node}` of the
    /// receiver.
    pub const VERBS_MSG_LATENCY_NS: &str = "verbs.msg_latency_ns";
    /// Payload size of posted sends, bytes `{node}`.
    pub const VERBS_MSG_SIZE_BYTES: &str = "verbs.msg_size_bytes";
    /// Payload bytes pushed by a send endpoint `{node,lane}`.
    pub const EP_BYTES_SENT: &str = "endpoint.bytes_sent";
    /// Messages pushed by a send endpoint `{node,lane}`.
    pub const EP_MESSAGES_SENT: &str = "endpoint.messages_sent";
    /// Payload bytes accepted by a receive endpoint `{node,endpoint}`.
    pub const EP_BYTES_RECEIVED: &str = "endpoint.bytes_received";
    /// Messages accepted by a receive endpoint `{node,endpoint}`.
    pub const EP_MESSAGES_RECEIVED: &str = "endpoint.messages_received";
    /// Number of credit stalls at a sender `{node,endpoint}` (Figure 8).
    pub const EP_CREDIT_STALLS: &str = "endpoint.credit_stalls";
    /// Total virtual ns spent stalled on credits `{node,endpoint}`.
    pub const EP_CREDIT_STALL_NS: &str = "endpoint.credit_stall_ns";
    /// Distribution of individual credit stalls, ns `{node,endpoint}`.
    pub const EP_CREDIT_STALL_HIST_NS: &str = "endpoint.credit_stall_hist_ns";
    /// FreeArr slot polls in the RDMA Read circular queue `{node,endpoint}`.
    pub const EP_FREEARR_POLLS: &str = "endpoint.freearr_polls";
    /// ValidArr slot polls in the circular queues `{node,endpoint}`.
    pub const EP_VALIDARR_POLLS: &str = "endpoint.validarr_polls";
    /// Rows drained by an operator fragment `{node}`.
    pub const ENGINE_ROWS: &str = "engine.rows";
    /// Bytes drained by an operator fragment `{node}`.
    pub const ENGINE_BYTES: &str = "engine.bytes";
    /// Fragment errors observed `{node}`.
    pub const ENGINE_ERRORS: &str = "engine.errors";
    /// Fault-plan events that fired `{node}`.
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Fragment restarts performed by the recovery orchestrator `{node}`.
    pub const ENGINE_RESTARTS: &str = "engine.restarts";
    /// Virtual ns from first fragment failure to successful completion
    /// `{node}`.
    pub const ENGINE_RECOVERY_NS: &str = "engine.recovery_ns";
    /// Queries admitted by the workload scheduler.
    pub const SCHED_ADMITTED: &str = "sched.admitted";
    /// Admission decisions that deferred a query (slot or memory wait).
    pub const SCHED_DEFERRED: &str = "sched.deferred";
    /// Queries completed and released by the scheduler.
    pub const SCHED_COMPLETED: &str = "sched.completed";
    /// Virtual ns a query waited in the admission queue `{query}`.
    pub const SCHED_QUEUE_WAIT_NS: &str = "sched.queue_wait_ns";
    /// Distribution of admission-queue waits, ns.
    pub const SCHED_QUEUE_WAIT_HIST_NS: &str = "sched.queue_wait_hist_ns";
    /// Virtual ns a query held an execution slot `{query}`.
    pub const SCHED_RUN_NS: &str = "sched.run_ns";
    /// NIC pipeline busy ns attributed to a query `{query}` (summed over
    /// nodes).
    pub const SCHED_NIC_BUSY_NS: &str = "sched.nic_busy_ns";
    /// Fabric port busy ns attributed to a query `{query}` (egress +
    /// ingress, summed over nodes).
    pub const SCHED_PORT_BUSY_NS: &str = "sched.port_busy_ns";
    /// Peak bytes of registered memory reserved from the budget `{node}`.
    pub const SCHED_MEM_RESERVED_PEAK: &str = "sched.mem_reserved_peak";
    /// Stage histogram: virtual ns a sender spent blocked on credits
    /// before a post `{node}` (see [`crate::Stage::CreditWait`]).
    pub const STAGE_CREDIT_WAIT_NS: &str = "stage.credit_wait_ns";
    /// Stage histogram: doorbell → NIC-accept WR batching delay, ns
    /// `{node}` (see [`crate::Stage::WrBatch`]).
    pub const STAGE_WR_BATCH_NS: &str = "stage.wr_batch_ns";
    /// Stage histogram: NIC-accept → completion-deposit latency, ns
    /// `{node}` (see [`crate::Stage::PostToCompletion`]).
    pub const STAGE_POST_TO_COMPLETION_NS: &str = "stage.post_to_completion_ns";
    /// Stage histogram: completion-deposit → poll delay, ns `{node}`
    /// (see [`crate::Stage::CqWait`]).
    pub const STAGE_CQ_WAIT_NS: &str = "stage.cq_wait_ns";
    /// End-to-end query latency observed by the engine, ns.
    pub const ENGINE_QUERY_LATENCY_NS: &str = "engine.query_latency_ns";
    /// Stale-epoch arrivals dropped by a receive endpoint
    /// `{node,endpoint}`: leftovers of a failed flow attempt, fenced by
    /// the header epoch so a retry delivers exactly once.
    pub const EP_STALE_EPOCH_DROPS: &str = "endpoint.stale_epoch_drops";
    /// Per-flow partial retries performed by the recovery orchestrator
    /// `{node}` (epoch bump + replay, no global restart).
    pub const ENGINE_PARTIAL_RETRIES: &str = "engine.partial_retries";
    /// QP reconnect attempts performed during recovery `{node}`.
    pub const ENGINE_QP_RECONNECTS: &str = "engine.qp_reconnects";
    /// Mid-query degradations to a sturdier shuffle configuration
    /// `{node}` (e.g. zero-copy Read → copy-based Send/Receive).
    pub const ENGINE_DEGRADED: &str = "engine.degraded";
    /// Payload bytes redelivered during recovery that produced no new
    /// user-visible rows `{node}` (the waste a partial retry contains).
    pub const ENGINE_REDONE_BYTES: &str = "engine.redone_bytes";
    /// Payload bytes whose rows survived from failed attempts `{node}`
    /// (work a full restart would have thrown away).
    pub const ENGINE_KEPT_BYTES: &str = "engine.kept_bytes";
    /// Communication phases completed by a phase-scheduled exchange
    /// (one increment per sender thread per barrier crossing).
    pub const EXCHANGE_PHASES_RUN: &str = "exchange.phases_run";
    /// Virtual ns a sender thread spent parked at the phase barrier.
    pub const EXCHANGE_PHASE_BARRIER_WAIT_NS: &str = "exchange.phase_barrier_wait_ns";
    /// Virtual ns sender threads of a phase-scheduled exchange spent in
    /// their super-round drains (the endpoint's `quiesce`).
    pub const PHASE_DRAIN_WAIT_NS: &str = "phase.drain_wait_ns";
}

/// One shared observability context: the metrics registry plus the
/// flight recorder. Created by the cluster and threaded through every
/// tier.
pub struct Obs {
    /// The unified metrics registry.
    pub metrics: MetricsRegistry,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    /// Stage latency histograms on/off (default on). Toggle *before*
    /// constructing runtimes: when off, no `stage.*` series is ever
    /// registered, so snapshots match an uninstrumented run exactly.
    stage_histograms: AtomicBool,
    /// Lazily grown per-node table of stage histogram handles, indexed
    /// `[node][stage as usize]`.
    stage_hists: RwLock<Vec<[Arc<Histogram>; Stage::COUNT]>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            recorder: FlightRecorder::default(),
            stage_histograms: AtomicBool::new(true),
            stage_hists: RwLock::new(Vec::new()),
        }
    }
}

impl Obs {
    /// Creates a fresh context with default recorder capacity.
    pub fn new() -> Arc<Obs> {
        Arc::new(Obs::default())
    }

    /// Enables or disables stage latency histograms. Flip before the
    /// first message flows: a disabled run registers no `stage.*`
    /// series at all.
    pub fn set_stage_histograms(&self, on: bool) {
        self.stage_histograms.store(on, Ordering::Relaxed);
    }

    /// Whether stage latency histograms are being recorded.
    #[inline]
    pub fn stage_histograms_enabled(&self) -> bool {
        self.stage_histograms.load(Ordering::Relaxed)
    }

    /// Records one stage latency sample for `node`. A no-op (single
    /// atomic load) when stage histograms are disabled; never advances
    /// virtual time. A node's whole row of series is registered on its
    /// first sample, with the rows of the nodes below it.
    #[inline]
    pub fn record_stage(&self, stage: Stage, node: u32, ns: u64) {
        if !self.stage_histograms_enabled() {
            return;
        }
        if let Some(row) = self.stage_hists.read().get(node as usize) {
            return row[stage as usize].record(ns);
        }
        let mut table = self.stage_hists.write();
        while table.len() <= node as usize {
            let n = table.len() as u32;
            table
                .push(Stage::ALL.map(|s| self.metrics.histogram(s.metric_name(), Labels::node(n))));
        }
        table[node as usize][stage as usize].record(ns);
    }

    /// Deterministic JSON rendering of the current metrics snapshot.
    pub fn snapshot_json(&self) -> String {
        self.metrics.snapshot().to_json()
    }

    /// Deterministic Chrome-trace JSON of everything recorded so far.
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_string(&self.recorder)
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn disabled_stage_histograms_register_nothing() {
        let obs = Obs::new();
        obs.set_stage_histograms(false);
        obs.record_stage(Stage::CqWait, 0, 100);
        assert!(obs.metrics.snapshot().histograms.is_empty());

        obs.set_stage_histograms(true);
        obs.record_stage(Stage::CqWait, 1, 100);
        let snap = obs.metrics.snapshot();
        // The whole row for node 1 (and the filler row for node 0) is
        // registered on first touch, but only one sample was recorded.
        assert_eq!(snap.histogram("stage.cq_wait_ns{node=1}").unwrap().count, 1);
        assert_eq!(
            snap.histogram("stage.credit_wait_ns{node=1}")
                .unwrap()
                .count,
            0
        );
    }
}
