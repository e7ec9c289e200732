//! The verbs runtime: cluster-wide registries and per-node contexts.
//!
//! [`VerbsRuntime`] owns the QP and memory-region registries that the
//! simulated NICs use to deliver messages and serve one-sided operations.
//! A [`Context`] is the per-node device handle (the analogue of
//! `ibv_context`): it creates completion queues, registers memory and
//! creates Queue Pairs.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rshuffle_audit::ShuffleAuditor;
use rshuffle_obs::{names, Counter, EventKind, Histogram, Labels, Obs, HW_TRACK};
use rshuffle_simnet::{Cluster, DeviceProfile, FlowId, Kernel, NicModel, SimDuration};

use crate::cq::CompletionQueue;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, QpScope, Window};
use crate::mr::{MemoryRegion, Slab};
use crate::qp::{QpInner, QueuePair};
use crate::types::{QpNum, QpType};
use crate::NodeId;

/// Failure-injection knobs for the Unreliable Datagram service.
///
/// InfiniBand's link-level flow control makes buffer-overflow loss
/// impossible; real loss comes from bit errors and is rare (§4.4.2). The
/// defaults therefore reorder but never drop. Tests raise
/// `ud_drop_probability` to exercise the shuffle operator's
/// query-restart path.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Probability that a UD datagram is silently lost in the network.
    pub ud_drop_probability: f64,
    /// Probability that a UD datagram is delayed by a reordering jitter.
    pub ud_reorder_probability: f64,
    /// Maximum extra delay applied to reordered datagrams.
    pub ud_reorder_window: SimDuration,
    /// Seed for the (deterministic) fault RNG.
    pub seed: u64,
    /// Scheduled fault events executed at their virtual trigger times
    /// (empty by default).
    pub plan: FaultPlan,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            ud_drop_probability: 0.0,
            ud_reorder_probability: 0.2,
            ud_reorder_window: SimDuration::from_micros(4),
            seed: 0x5D11_F00D,
            plan: FaultPlan::new(),
        }
    }
}

/// Cached registry handles for the delivery hot paths, taken at runtime
/// construction so recording a sample never hashes or compares
/// metric-name strings.
pub(crate) struct RtObs {
    pub(crate) obs: Arc<Obs>,
    pub(crate) ud_dropped: Arc<Counter>,
    pub(crate) ud_unmatched: Arc<Counter>,
    pub(crate) rnr_retries: Arc<Counter>,
    pub(crate) ud_reordered: Arc<Counter>,
    /// `verbs.msg_size_bytes{node}`, indexed by node.
    pub(crate) msg_size: Vec<Arc<Histogram>>,
    /// `verbs.msg_latency_ns{node}`, indexed by node.
    pub(crate) msg_latency: Vec<Arc<Histogram>>,
}

impl RtObs {
    fn new(obs: Arc<Obs>, nodes: usize) -> Self {
        let msg_size = (0..nodes)
            .map(|n| {
                obs.metrics
                    .histogram(names::VERBS_MSG_SIZE_BYTES, Labels::node(n as u32))
            })
            .collect();
        let msg_latency = (0..nodes)
            .map(|n| {
                obs.metrics
                    .histogram(names::VERBS_MSG_LATENCY_NS, Labels::node(n as u32))
            })
            .collect();
        RtObs {
            ud_dropped: obs.metrics.counter(names::VERBS_UD_DROPPED, Labels::GLOBAL),
            ud_unmatched: obs.metrics.counter(names::VERBS_UD_UNMATCHED, Labels::GLOBAL),
            rnr_retries: obs.metrics.counter(names::VERBS_RNR_RETRIES, Labels::GLOBAL),
            ud_reordered: obs.metrics.counter(names::VERBS_UD_REORDERED, Labels::GLOBAL),
            msg_size,
            msg_latency,
            obs,
        }
    }
}

/// Cluster-wide verbs state. One per simulated cluster.
pub struct VerbsRuntime {
    cluster: Cluster,
    pub(crate) qps: Mutex<HashMap<(NodeId, u32), Arc<QpInner>>>,
    pub(crate) mrs: Mutex<HashMap<u32, MemoryRegion>>,
    /// rkey → owning flow, for regions registered through a flow-tagged
    /// [`Context`]; lets the scheduler release a whole query's memory.
    mr_flows: Mutex<HashMap<u32, u32>>,
    next_qpn: AtomicU32,
    next_rkey: AtomicU32,
    pub(crate) rng: Mutex<StdRng>,
    pub(crate) faults: FaultConfig,
    pub(crate) rt_obs: RtObs,
    /// Currently registered bytes per node.
    registered: Mutex<Vec<usize>>,
    /// High-water mark of registered bytes per node (Figure 9b).
    registered_peak: Mutex<Vec<usize>>,
    /// Backing storage of every region's windows.
    slab: Arc<Slab>,
    /// Burst UD-loss windows from the fault plan: `(window, drop_prob)`.
    ud_loss_windows: Vec<(Window, f64)>,
    /// Receiver-pause windows from the fault plan.
    recv_pause_windows: Vec<Window>,
    /// Persistent QP-failure windows: any in-scope QP used on the window's
    /// node while it is open is forced into the error state on first touch.
    qp_kill_windows: Vec<(Window, QpScope)>,
    /// Nodes whose QPs have been killed by fault injection since the last
    /// [`VerbsRuntime::clear_failed_qp_nodes`]; the recovery layer reads
    /// this to classify errors as QP-shaped (reconnectable) or not.
    failed_qp_nodes: Mutex<BTreeSet<NodeId>>,
    /// The installed protocol auditor, if any (see `enable_audit`).
    auditor: Mutex<Option<Arc<ShuffleAuditor>>>,
}

impl VerbsRuntime {
    /// Creates a runtime over `cluster` with default fault injection
    /// (reordering on, loss off).
    pub fn new(cluster: Cluster) -> Arc<Self> {
        Self::with_faults(cluster, FaultConfig::default())
    }

    /// Creates a runtime with explicit fault-injection configuration.
    /// Any events in `faults.plan` are installed on the kernel's event
    /// queue and fire deterministically at their virtual trigger times.
    pub fn with_faults(cluster: Cluster, faults: FaultConfig) -> Arc<Self> {
        let nodes = cluster.nodes();
        let rt_obs = RtObs::new(cluster.obs().clone(), nodes);
        let mut ud_loss_windows = Vec::new();
        let mut recv_pause_windows = Vec::new();
        let mut qp_kill_windows = Vec::new();
        for ev in &faults.plan.events {
            let Some(duration) = ev.duration else {
                continue;
            };
            let window = Window {
                node: ev.node,
                start: ev.at,
                end: ev.at + duration,
            };
            match ev.kind {
                FaultKind::UdLossBurst { drop_probability } => {
                    ud_loss_windows.push((window, drop_probability));
                }
                FaultKind::ReceiverPause => recv_pause_windows.push(window),
                FaultKind::QpFailureWindow { scope } => qp_kill_windows.push((window, scope)),
                _ => {}
            }
        }
        let rt = Arc::new(VerbsRuntime {
            cluster,
            qps: Mutex::new(HashMap::new()),
            mrs: Mutex::new(HashMap::new()),
            mr_flows: Mutex::new(HashMap::new()),
            next_qpn: AtomicU32::new(1),
            next_rkey: AtomicU32::new(1),
            rng: Mutex::new(StdRng::seed_from_u64(faults.seed)),
            faults,
            rt_obs,
            registered: Mutex::new(vec![0; nodes]),
            registered_peak: Mutex::new(vec![0; nodes]),
            slab: Arc::default(),
            ud_loss_windows,
            recv_pause_windows,
            qp_kill_windows,
            failed_qp_nodes: Mutex::new(BTreeSet::new()),
            auditor: Mutex::new(None),
        });
        rt.install_fault_plan();
        rt
    }

    /// Schedules the fault plan's events on the kernel. Window faults
    /// only schedule their trace markers (the hot paths consult the
    /// precomputed windows); state-mutating faults schedule the actual
    /// mutation.
    fn install_fault_plan(self: &Arc<Self>) {
        if self.faults.plan.is_empty() {
            return;
        }
        let kernel = self.kernel().clone();
        let origin = kernel.now();
        let obs = self.rt_obs.obs.clone();
        for &ev in &self.faults.plan.events {
            let FaultEvent {
                node,
                at,
                duration,
                kind,
            } = ev;
            let arg = ev.obs_arg();
            let injected = obs
                .metrics
                .counter(names::FAULT_INJECTED, Labels::node(node as u32));
            // Activation marker (and counter) at the trigger time.
            {
                let obs = obs.clone();
                let kernel_at = kernel.clone();
                kernel.schedule(origin + at, move || {
                    injected.inc();
                    obs.recorder.event(
                        node as u32,
                        HW_TRACK,
                        kernel_at.now().as_nanos(),
                        EventKind::FaultBegin,
                        arg,
                    );
                });
            }
            // Deactivation marker for window faults.
            let end = duration.map(|duration| origin + (at + duration));
            if let Some(end) = end {
                let obs = obs.clone();
                let kernel_at = kernel.clone();
                kernel.schedule(end, move || {
                    obs.recorder.event(
                        node as u32,
                        HW_TRACK,
                        kernel_at.now().as_nanos(),
                        EventKind::FaultEnd,
                        arg,
                    );
                });
            }
            // The state mutation itself.
            match (kind, end) {
                (FaultKind::LinkFlap, Some(down_until)) => {
                    let cluster = self.cluster.clone();
                    kernel.schedule(origin + at, move || {
                        cluster.fabric().set_port_down_until(node, down_until);
                    });
                }
                (
                    FaultKind::LinkDegrade {
                        bandwidth_factor,
                        extra_latency,
                    },
                    Some(end),
                ) => {
                    let cluster = self.cluster.clone();
                    kernel.schedule(origin + at, move || {
                        cluster
                            .fabric()
                            .set_degradation(node, bandwidth_factor, extra_latency);
                    });
                    let cluster = self.cluster.clone();
                    kernel.schedule(end, move || {
                        cluster.fabric().clear_degradation(node);
                    });
                }
                (FaultKind::Straggler { slowdown }, Some(end)) => {
                    let k = kernel.clone();
                    kernel.schedule(origin + at, move || {
                        k.set_cpu_slowdown(node, slowdown);
                    });
                    let k = kernel.clone();
                    kernel.schedule(end, move || {
                        k.set_cpu_slowdown(node, 1.0);
                    });
                }
                (FaultKind::QpFailure | FaultKind::QpFailureWindow { .. }, _) => {
                    // Kill the QPs in scope (the one-shot failure: RC) that
                    // exist at the trigger time; QPs created (or
                    // reconnected) inside a window are caught lazily by the
                    // hot paths consulting `qp_kill_windows`.
                    let scope = match kind {
                        FaultKind::QpFailureWindow { scope } => scope,
                        _ => QpScope::Rc,
                    };
                    // Weak: the event queue must not keep the runtime
                    // (and thus the kernel) alive in a reference cycle.
                    let rt = Arc::downgrade(self);
                    kernel.schedule(origin + at, move || {
                        if let Some(rt) = rt.upgrade() {
                            rt.fail_qps(node, scope);
                        }
                    });
                }
                // The other window faults mutate nothing: the hot paths
                // consult the precomputed windows.
                _ => {}
            }
        }
    }

    /// Forces every RC QP on `node` into the error state: queued
    /// receives are flushed to their completion queues with
    /// [`crate::WcStatus::Flushed`], and future deliveries targeting
    /// these QPs complete in error at the sender. Iteration is sorted by
    /// QP number so same-seed runs stay byte-identical.
    pub fn fail_rc_qps(&self, node: NodeId) {
        self.fail_qps(node, QpScope::Rc);
    }

    /// Forces every in-scope QP on `node` into the error state (see
    /// [`VerbsRuntime::fail_rc_qps`]) and records the node as QP-failed
    /// for the recovery layer's error classification.
    pub fn fail_qps(&self, node: NodeId, scope: QpScope) {
        let now_ns = self.kernel().now().as_nanos();
        let targets: Vec<Arc<QpInner>> = {
            let qps = self.qps.lock();
            let mut keys: Vec<u32> = qps
                .keys()
                .filter(|&&(n, _)| n == node)
                .map(|&(_, qpn)| qpn)
                .collect();
            keys.sort_unstable();
            keys.iter()
                .filter_map(|&qpn| qps.get(&(node, qpn)).cloned())
                .collect()
        };
        self.failed_qp_nodes.lock().insert(node);
        for qp in targets {
            let in_scope = scope == QpScope::All || qp.ty == QpType::Rc;
            if in_scope && qp.force_error() {
                self.rt_obs.obs.recorder.event(
                    node as u32,
                    HW_TRACK,
                    now_ns,
                    EventKind::QpKilled,
                    qp.qpn.0 as u64,
                );
            }
        }
    }

    /// Whether a QP of type `ty` on `node` is inside an open persistent
    /// QP-failure window at virtual time `now_ns`.
    pub(crate) fn in_kill_window(&self, node: NodeId, now_ns: u64, ty: QpType) -> bool {
        self.qp_kill_windows.iter().any(|(w, scope)| {
            w.contains(node, now_ns) && (*scope == QpScope::All || ty == QpType::Rc)
        })
    }

    /// Lazily enforces an open QP-failure window on `qp`: if its node is
    /// inside a matching window, the QP is forced into the error state
    /// (emitting a `qp_killed` event) and the node is recorded as failed.
    /// Returns whether the QP was (or already is) dead because of a
    /// window. Called from the send and delivery hot paths so QPs built
    /// *after* the window opened — e.g. by a reconnect attempt — still
    /// fail while the fault persists.
    pub(crate) fn enforce_kill_window(&self, qp: &Arc<QpInner>) -> bool {
        if self.qp_kill_windows.is_empty() {
            return false;
        }
        let now_ns = self.kernel().now().as_nanos();
        if !self.in_kill_window(qp.node, now_ns, qp.ty) {
            return false;
        }
        self.failed_qp_nodes.lock().insert(qp.node);
        if qp.force_error() {
            self.rt_obs.obs.recorder.event(
                qp.node as u32,
                HW_TRACK,
                now_ns,
                EventKind::QpKilled,
                qp.qpn.0 as u64,
            );
        }
        true
    }

    /// Nodes whose QPs were killed by fault injection since the last
    /// [`VerbsRuntime::clear_failed_qp_nodes`], in ascending order.
    pub fn failed_qp_nodes(&self) -> Vec<NodeId> {
        self.failed_qp_nodes.lock().iter().copied().collect()
    }

    /// Clears the failed-QP-node set (called by the recovery layer after
    /// it has classified and handled an attempt's failure).
    pub fn clear_failed_qp_nodes(&self) {
        self.failed_qp_nodes.lock().clear();
    }

    /// Whether `node` is inside a receiver-pause window at virtual time
    /// `now_ns`: matching of incoming messages against posted receives
    /// is suspended (RC takes the RNR path, UD drops unmatched).
    pub(crate) fn recv_paused(&self, node: NodeId, now_ns: u64) -> bool {
        self.recv_pause_windows
            .iter()
            .any(|w| w.contains(node, now_ns))
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The virtual-time kernel.
    pub fn kernel(&self) -> &Kernel {
        self.cluster.kernel()
    }

    /// The hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        self.cluster.profile()
    }

    /// Node `node`'s NIC model.
    pub fn nic(&self, node: NodeId) -> &NicModel {
        self.cluster.nic(node)
    }

    /// Returns a device context for `node` (untagged traffic).
    pub fn context(self: &Arc<Self>, node: NodeId) -> Context {
        self.context_flow(node, FlowId::NONE)
    }

    /// Returns a device context for `node` whose Queue Pairs tag all their
    /// traffic with `flow` for weighted-fair arbitration and per-query
    /// busy-time attribution.
    pub fn context_flow(self: &Arc<Self>, node: NodeId, flow: FlowId) -> Context {
        assert!(node < self.cluster.nodes(), "node {node} out of range");
        Context {
            runtime: self.clone(),
            node,
            flow,
        }
    }

    /// The shared observability context.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.rt_obs.obs
    }

    /// The installed protocol auditor, if any.
    pub fn auditor(&self) -> Option<Arc<ShuffleAuditor>> {
        self.auditor.lock().clone()
    }

    /// Installs a protocol auditor reporting into this runtime's
    /// observability context, returning the existing one if already
    /// installed. Idempotent, so tests can call it unconditionally.
    pub fn enable_audit(&self) -> Arc<ShuffleAuditor> {
        let mut slot = self.auditor.lock();
        if let Some(existing) = slot.as_ref() {
            return existing.clone();
        }
        let auditor = ShuffleAuditor::new(Some(self.rt_obs.obs.clone()));
        *slot = Some(auditor.clone());
        auditor
    }

    /// Currently registered bytes on `node`.
    pub fn registered_bytes(&self, node: NodeId) -> usize {
        self.registered.lock()[node]
    }

    /// High-water mark of registered bytes on `node`.
    pub fn registered_bytes_peak(&self, node: NodeId) -> usize {
        self.registered_peak.lock()[node]
    }

    /// Bytes of registered windows on `node` that hold storage right now:
    /// written since they were last posted as a receive, recycled or
    /// deregistered. Counts live windows at their full size, so it repeats
    /// exactly per seed and bounds what registered memory costs the host.
    pub fn resident_bytes(&self, node: NodeId) -> usize {
        self.slab.resident(node).0
    }

    /// High-water mark of [`VerbsRuntime::resident_bytes`] on `node`.
    pub fn resident_bytes_peak(&self, node: NodeId) -> usize {
        self.slab.resident(node).1
    }

    /// Deregisters a memory region without charging virtual time and
    /// without touching the recorder — invisible to traces. Used by the
    /// scheduler to return an exchange's pinned memory to the budget after
    /// a query completes (endpoints register eagerly and historically never
    /// released). The region's storage goes back to the runtime, whoever
    /// still holds a handle. Idempotent: deregistering an unknown rkey is a
    /// no-op.
    pub fn deregister_untimed(&self, mr: &MemoryRegion) {
        if self.mrs.lock().remove(&mr.rkey()).is_none() {
            return;
        }
        self.mr_flows.lock().remove(&mr.rkey());
        mr.discard(0, mr.len());
        let mut reg = self.registered.lock();
        reg[mr.node()] = reg[mr.node()].saturating_sub(mr.len());
    }

    /// Deregisters every memory region that was registered through a
    /// [`Context`] tagged with `flow`, without charging virtual time (see
    /// [`VerbsRuntime::deregister_untimed`]), and drops the receives still
    /// posted on the flow's Queue Pairs, which name those regions. Returns
    /// the number of bytes released cluster-wide. A no-op for
    /// [`FlowId::NONE`]: untagged regions are shared harness state, not
    /// query state.
    pub fn deregister_flow(&self, flow: FlowId) -> usize {
        if !flow.is_tagged() {
            return 0;
        }
        for qp in self.qps.lock().values().filter(|qp| qp.flow == flow) {
            qp.recv_queue.lock().clear();
        }
        let mut rkeys: Vec<u32> = self
            .mr_flows
            .lock()
            .iter()
            .filter(|&(_, &f)| f == flow.0)
            .map(|(&rkey, _)| rkey)
            .collect();
        rkeys.sort_unstable();
        let mut freed = 0;
        for rkey in rkeys {
            if let Some(mr) = self.lookup_mr(rkey) {
                freed += mr.len();
                self.deregister_untimed(&mr);
            }
        }
        freed
    }

    pub(crate) fn lookup_qp(&self, node: NodeId, qpn: QpNum) -> Option<Arc<QpInner>> {
        self.qps.lock().get(&(node, qpn.0)).cloned()
    }

    pub(crate) fn lookup_mr(&self, rkey: u32) -> Option<MemoryRegion> {
        self.mrs.lock().get(&rkey).cloned()
    }

    /// Samples the UD delivery fate for a datagram sent from `node`:
    /// `None` if the datagram is dropped, otherwise the reordering
    /// jitter to apply.
    pub(crate) fn sample_ud_fate(&self, node: NodeId) -> Option<SimDuration> {
        let mut rng = self.rng.lock();
        // A burst-loss window raises the flat drop probability for its
        // duration (the probabilities do not stack; the worst applies).
        let mut drop_probability = self.faults.ud_drop_probability;
        if !self.ud_loss_windows.is_empty() {
            let now_ns = self.kernel().now().as_nanos();
            for (w, p) in &self.ud_loss_windows {
                if w.contains(node, now_ns) {
                    drop_probability = drop_probability.max(*p);
                }
            }
        }
        if drop_probability > 0.0 && rng.gen_bool(drop_probability) {
            self.rt_obs.ud_dropped.inc();
            self.rt_obs.obs.recorder.event(
                node as u32,
                HW_TRACK,
                self.kernel().now().as_nanos(),
                EventKind::UdDrop,
                0,
            );
            return None;
        }
        if self.faults.ud_reorder_probability > 0.0
            && rng.gen_bool(self.faults.ud_reorder_probability)
        {
            let window = self.faults.ud_reorder_window.as_nanos();
            if window > 0 {
                let jitter = rng.gen_range(0..=window);
                self.rt_obs.ud_reordered.inc();
                self.rt_obs.obs.recorder.event(
                    node as u32,
                    HW_TRACK,
                    self.kernel().now().as_nanos(),
                    EventKind::UdReordered,
                    jitter,
                );
                return Some(SimDuration::from_nanos(jitter));
            }
        }
        Some(SimDuration::ZERO)
    }
}

/// Per-node device handle (the analogue of an opened `ibv_context`).
#[derive(Clone)]
pub struct Context {
    runtime: Arc<VerbsRuntime>,
    node: NodeId,
    flow: FlowId,
}

impl Context {
    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The flow this context tags its Queue Pairs' traffic with.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The shared runtime.
    pub fn runtime(&self) -> &Arc<VerbsRuntime> {
        &self.runtime
    }

    /// The hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        self.runtime.profile()
    }

    /// Creates a completion queue with the profile's polling costs.
    pub fn create_cq(&self) -> CompletionQueue {
        let p = self.runtime.profile();
        CompletionQueue::new(self.runtime.kernel(), p.completion_latency, p.poll_cq_cpu)
    }

    /// Registers `len` bytes of memory (`ibv_reg_mr`) without charging
    /// setup time: endpoints charge the modelled pinning cost where
    /// Figure 12 measures it, in their `charge_setup`. The region is
    /// backed in one piece from the start: what rings, credit arrays and
    /// scratch slots need, which are polled far more often than written.
    pub fn register_untimed(&self, len: usize) -> MemoryRegion {
        let mr = self.register_pool_untimed(len, 1);
        if len > 0 {
            mr.with_mut(0, len, |_| ()).expect("the whole region");
        }
        mr
    }

    /// Registers a pool of `windows` transmission windows of `window` bytes
    /// each, without charging setup time. One region like any other, except
    /// that the host backs it window by window: posting a window as a
    /// receive or recycling it ([`MemoryRegion::discard`]) returns that
    /// window's storage alone, and no access may straddle two windows.
    pub fn register_pool_untimed(&self, window: usize, windows: usize) -> MemoryRegion {
        let rt = &self.runtime;
        let rkey = rt.next_rkey.fetch_add(1, Ordering::Relaxed);
        let mr = MemoryRegion::new(rt.kernel(), &rt.slab, (self.node, rkey), (window, windows));
        rt.mrs.lock().insert(rkey, mr.clone());
        if self.flow.is_tagged() {
            rt.mr_flows.lock().insert(rkey, self.flow.0);
        }
        let mut reg = rt.registered.lock();
        reg[self.node] += mr.len();
        let mut peak = rt.registered_peak.lock();
        peak[self.node] = peak[self.node].max(reg[self.node]);
        mr
    }

    /// Creates a Queue Pair of `ty` using `send_cq` and `recv_cq`
    /// (`ibv_create_qp`). The QP starts in the RESET state.
    pub fn create_qp(
        &self,
        ty: QpType,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
    ) -> QueuePair {
        let qpn = QpNum(self.runtime.next_qpn.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::new(QpInner::new(self.node, qpn, ty, send_cq, recv_cq, self.flow));
        self.runtime
            .qps
            .lock()
            .insert((self.node, qpn.0), inner.clone());
        QueuePair::new(inner, self.runtime.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rshuffle_simnet::Cluster;

    fn runtime() -> Arc<VerbsRuntime> {
        VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()))
    }

    #[test]
    fn registration_tracks_bytes_and_peak() {
        let rt = runtime();
        let ctx = rt.context(0);
        let a = ctx.register_untimed(1024);
        let _b = ctx.register_untimed(2048);
        assert_eq!(rt.registered_bytes(0), 3072);
        assert_eq!(rt.registered_bytes(1), 0);
        rt.deregister_untimed(&a);
        assert_eq!(rt.registered_bytes(0), 2048);
        assert_eq!(rt.registered_bytes_peak(0), 3072, "peak must persist");
    }

    #[test]
    fn rkeys_are_unique_and_resolvable() {
        let rt = runtime();
        let a = rt.context(0).register_untimed(64);
        let b = rt.context(1).register_untimed(64);
        assert_ne!(a.rkey(), b.rkey());
        assert!(rt.lookup_mr(a.rkey()).is_some());
        assert!(rt.lookup_mr(9999).is_none());
    }

    #[test]
    fn ud_fate_is_deterministic_per_seed() {
        let sample = |seed| {
            let f = FaultConfig {
                seed,
                ud_drop_probability: 0.3,
                ..FaultConfig::default()
            };
            let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), f);
            (0..64).map(|_| rt.sample_ud_fate(0)).collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let f = FaultConfig {
            ud_drop_probability: 1.0,
            ..FaultConfig::default()
        };
        let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), f);
        for _ in 0..16 {
            assert!(rt.sample_ud_fate(0).is_none());
        }
        assert_eq!(rt.rt_obs.ud_dropped.get(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn context_for_missing_node_panics() {
        let rt = runtime();
        let _ = rt.context(5);
    }
}
