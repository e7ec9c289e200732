//! The exchange builder: instantiates and wires every endpoint of a
//! cluster-wide shuffle.
//!
//! Builds, for every node and lane (SE: one lane, ME: one per thread), the
//! send and receive endpoints of the chosen design, connects the Queue
//! Pairs, exchanges ring/credit descriptors out of band and seeds the
//! initial credit — everything the paper's connection-setup phase does
//! (§4.2, measured in Figure 12). Lanes are matched: the sender on
//! `(node a, lane l)` talks to the receiver on `(node b, lane l)`.

use std::collections::BTreeSet;
use std::sync::Arc;

use rshuffle_simnet::{Cluster, DeviceProfile, FlowId, NodeId, SimContext, SimDuration};
use rshuffle_verbs::{
    ConnectionManager, Context, FaultConfig, ResourceMark, SharedQpSlot, VerbsRuntime,
};

use crate::buffer::HEADER_LEN;

use crate::config::{EndpointImpl, ShuffleAlgorithm};
use crate::endpoint::rd_rc::{RdRcReceiveEndpoint, RdRcSendEndpoint};
use crate::endpoint::sr_rc::{SrRcReceiveEndpoint, SrRcSendEndpoint};
use crate::endpoint::sr_ud::SrUdChannel;
use crate::endpoint::wr_rc::{WrRcReceiveEndpoint, WrRcSendEndpoint};
use crate::endpoint::{
    rd_rc, sr_rc, sr_ud, wr_rc, Abort, EndpointId, Params, RcTransport, ReceiveEndpoint,
    SendEndpoint,
};
use crate::error::{Result, ShuffleError};
use crate::group::TransmissionGroups;
use crate::operator::{CostModel, Operator, ReceiveOperator, ShuffleOperator};
use crate::phase::{PhasePolicy, PhaseRunner, PhaseSchedule};

/// Configuration for building a cluster-wide exchange.
#[derive(Clone)]
pub struct ExchangeConfig {
    /// Which of the six designs to instantiate.
    pub algorithm: ShuffleAlgorithm,
    /// Worker threads per query fragment.
    pub threads: usize,
    /// Message size (header + payload) for the RC designs; the UD designs
    /// always use the MTU.
    pub message_size: usize,
    /// Send buffers per peer (RC designs; 2 = double buffering).
    pub buffers_per_peer: usize,
    /// Receive depth per peer (RC Send/Receive design).
    pub recv_depth_per_peer: usize,
    /// UD: send buffers per endpoint.
    pub ud_send_buffers: usize,
    /// UD: receive window granted per source.
    pub ud_recv_window: usize,
    /// Credit write-back frequency (Figure 8).
    pub credit_writeback_frequency: u32,
    /// Explicit lane-count override (Figure 11 sweeps this); `None` derives
    /// lanes from the endpoint mode (SE = 1, ME = threads).
    pub lanes_override: Option<usize>,
    /// Use native switch multicast for UD group sends (§7 extension).
    pub ud_native_multicast: bool,
    /// Stall watchdog applied to every endpoint wait loop: a wait that
    /// exceeds this virtual-time budget returns a typed
    /// [`ShuffleError::Stalled`] instead of hanging. Chaos tests shorten
    /// it so injected faults surface quickly.
    pub stall_timeout: SimDuration,
    /// UD designs: how long the send pool may stay fully depleted before
    /// the endpoint declares datagram loss and fails the query (triggering
    /// the paper's restart-on-message-loss path, §4.4.2).
    pub depleted_timeout: SimDuration,
    /// Fault-injection configuration (flat loss/reorder probabilities plus
    /// a scheduled [`rshuffle_verbs::FaultPlan`]) consumed by
    /// [`ExchangeConfig::build_runtime`].
    pub faults: FaultConfig,
    /// Flow tag applied to every Queue Pair and memory region of this
    /// exchange. [`FlowId::NONE`] (the default) leaves traffic untagged
    /// and is byte-identical to the pre-scheduler behaviour; the
    /// multi-query scheduler assigns one flow per query so the fabric can
    /// share bandwidth equally among running queries and attribute busy
    /// time.
    pub flow: FlowId,
    /// Offset added to every [`EndpointId`] this exchange mints. Distinct
    /// concurrent queries on one runtime must use disjoint id spaces
    /// (endpoint ids are the wire-level addressing scheme, §4.2); the
    /// scheduler derives a base from the query id.
    pub endpoint_id_base: u32,
    /// Flow epoch stamped on every wire header this exchange's endpoints
    /// emit, and required of every accepted arrival. The recovery
    /// orchestrator bumps this per partial-retry attempt so leftovers of
    /// a fenced-off attempt are discarded at the transport; healthy runs
    /// stay at 0 and are byte-identical to the pre-recovery wire format.
    pub epoch: u16,
    /// Cap on physical RC connections per directed node pair (the
    /// scale-out experiment sets it). Below the lane count, lane `l` of a
    /// pair shares connection `l % cap` — one NIC QP context and one
    /// delivery order, see [`SharedQpSlot`]. `None`, or a cap at least as
    /// large as the lane count, is the direct one-QP-per-lane wiring, bit
    /// for bit; zero is rejected. Never applied to the UD design (it
    /// already uses one QP per lane whatever the peer count).
    pub qp_cap_per_pair: Option<usize>,
    /// Phase scheduling of the all-to-all transfer
    /// ([`crate::PhasePolicy::Off`] by default — the operator interleaves
    /// destinations freely and nothing phase-related is even built).
    pub phase: PhasePolicy,
    /// Estimated per-pair transfer matrix (`bytes[src][dst]`) for the
    /// skew-aware phase schedule; `None` falls back to a uniform
    /// estimate over the complete matrix. Ignored when `phase` is off.
    pub phase_bytes: Option<Arc<Vec<Vec<u64>>>>,
    /// Transmission groups of each node.
    pub groups: Vec<TransmissionGroups>,
}

impl ExchangeConfig {
    /// A repartition exchange among `nodes` nodes with the paper's default
    /// parameters (64 KiB RC messages, double buffering, credit write-back
    /// every 2 receives).
    pub fn repartition(algorithm: ShuffleAlgorithm, nodes: usize, threads: usize) -> Self {
        Self::with_groups(
            algorithm,
            threads,
            (0..nodes)
                .map(|me| TransmissionGroups::repartition(me, nodes))
                .collect(),
        )
    }

    /// A broadcast exchange among `nodes` nodes.
    pub fn broadcast(algorithm: ShuffleAlgorithm, nodes: usize, threads: usize) -> Self {
        Self::with_groups(
            algorithm,
            threads,
            (0..nodes)
                .map(|me| TransmissionGroups::broadcast(me, nodes))
                .collect(),
        )
    }

    /// An exchange with explicit per-node transmission groups.
    pub fn with_groups(
        algorithm: ShuffleAlgorithm,
        threads: usize,
        groups: Vec<TransmissionGroups>,
    ) -> Self {
        ExchangeConfig {
            algorithm,
            threads,
            message_size: 64 * 1024,
            buffers_per_peer: 2,
            recv_depth_per_peer: 16,
            ud_send_buffers: 16,
            ud_recv_window: 16,
            credit_writeback_frequency: 2,
            lanes_override: None,
            ud_native_multicast: false,
            stall_timeout: SimDuration::from_millis(500),
            depleted_timeout: SimDuration::from_millis(2),
            faults: FaultConfig::default(),
            flow: FlowId::NONE,
            endpoint_id_base: 0,
            epoch: 0,
            qp_cap_per_pair: None,
            phase: PhasePolicy::Off,
            phase_bytes: None,
            groups,
        }
    }

    /// Builds the simulated cluster (the paper's single-switch testbed)
    /// and verbs runtime this exchange runs over, with the configured
    /// fault plan installed on the kernel's event queue — the one-stop
    /// entry point for chaos tests and the chaos benchmark.
    pub fn build_runtime(&self, profile: DeviceProfile) -> Arc<VerbsRuntime> {
        let cluster = Cluster::new(self.groups.len(), profile);
        VerbsRuntime::with_faults(cluster, self.faults.clone())
    }

    /// Lanes per node: the override, else SE = 1 and ME = `threads`.
    fn lanes(&self) -> usize {
        self.lanes_override
            .unwrap_or_else(|| self.algorithm.endpoints(self.threads))
    }

    /// The endpoint-id layout an exchange built from this configuration
    /// mints its ids from.
    fn id_layout(&self) -> IdLayout {
        IdLayout {
            base: self.endpoint_id_base,
            nodes: self.groups.len(),
            lanes: self.lanes(),
        }
    }

    /// How many endpoint ids, counted from `endpoint_id_base`, an
    /// exchange built from this configuration mints. Whoever hands out
    /// id bases (the query coordinator, per attempt and per query) must
    /// space them at least this far apart.
    pub fn endpoint_ids(&self) -> u32 {
        self.id_layout().minted()
    }

    /// The parameter set every endpoint of this exchange is built from,
    /// and [`ExchangeConfig::registered_bytes_estimate`] sizes from.
    pub(crate) fn params(&self, profile: &DeviceProfile) -> Params {
        // A single-endpoint (SE) configuration serves all `threads`
        // workers from one endpoint, so its pools scale by the thread
        // count — which is why Figure 9(b) shows SE and ME designs
        // registering the same amount of memory.
        let scale = self.threads.div_ceil(self.lanes().max(1));
        // Sharing one QP among t threads bounces its state between cores on
        // every post; dedicated (ME) endpoints pay nothing. The per-thread
        // constant comes from the hardware profile (older CPUs pay more).
        let ud_post_overhead = if scale > 1 {
            profile.sq_contention_per_thread * scale as u64
        } else {
            SimDuration::ZERO
        };
        // The SEND operator parks one partially-filled staging buffer per
        // destination, so a send pool no larger than the fanout deadlocks
        // once every slot is parked: no buffer can complete (parked buffers
        // only flush when full) and neither data nor credit datagrams can
        // be sourced. Below the configured default the sizing is untouched
        // (the paper's 16-node testbed never hits this); past it, the pool
        // grows to the staging working set plus circulation head-room.
        let fanout = self
            .groups
            .iter()
            .map(|g| g.destinations().len())
            .max()
            .unwrap_or(0);
        let ud_send_buffers = if fanout >= self.ud_send_buffers {
            fanout + self.ud_send_buffers.div_ceil(2).max(2)
        } else {
            self.ud_send_buffers
        };
        Params {
            message_size: self.message_size,
            buffers_per_peer: self.buffers_per_peer * scale,
            recv_depth_per_peer: self.recv_depth_per_peer * scale,
            ud_send_buffers: ud_send_buffers * scale,
            ud_recv_window: self.ud_recv_window * scale,
            credit_writeback_frequency: self.credit_writeback_frequency,
            ud_post_overhead,
            ud_native_multicast: self.ud_native_multicast,
            stall_timeout: self.stall_timeout,
            depleted_timeout: self.depleted_timeout,
            epoch: self.epoch,
            abort: None,
        }
    }

    /// The phase schedule of this exchange's all-to-all among the pairs
    /// `dests` names, or why the configuration cannot be phased.
    fn phase_schedule(&self, dests: &[Vec<NodeId>]) -> Result<PhaseSchedule> {
        // Phasing serializes destinations, which only makes sense when
        // every send targets exactly one node: a multicast group would
        // need to appear in several phases at once.
        for (node, g) in self.groups.iter().enumerate() {
            for i in 0..g.len() {
                if g.group(i).len() > 1 {
                    return Err(ShuffleError::Config(format!(
                        "phase scheduling requires singleton transmission \
                         groups; node {node} group {i} has {} members",
                        g.group(i).len()
                    )));
                }
            }
        }
        // The schedule covers exactly the pairs that exist: a provided
        // estimate refines the weights, but presence is decided by the
        // transmission groups (estimates for absent pairs are dropped,
        // present pairs are clamped to at least one byte so they are
        // never scheduled away).
        let nodes = dests.len();
        let mut bytes = vec![vec![0u64; nodes]; nodes];
        for (a, ds) in dests.iter().enumerate() {
            for &b in ds {
                let est = self
                    .phase_bytes
                    .as_ref()
                    .and_then(|m| m.get(a).and_then(|row| row.get(b)).copied())
                    .unwrap_or(1);
                bytes[a][b] = est.max(1);
            }
        }
        PhaseSchedule::build(&bytes)
    }

    /// Predicts the total bytes of RDMA memory [`Exchange::build`] will
    /// register on `node` — from configuration alone, without building
    /// anything. The multi-query scheduler's admission controller budgets
    /// against this figure before paying for endpoint construction (an
    /// over-budget query must be deferred *before* it pins memory);
    /// `tests/memory_footprint.rs` pins it to the runtime's
    /// [`VerbsRuntime::registered_bytes`] after a real build.
    pub fn registered_bytes_estimate(&self, profile: &DeviceProfile, node: NodeId) -> usize {
        let dests: Vec<Vec<NodeId>> = self.groups.iter().map(|g| g.destinations()).collect();
        let d = dests.get(node).map_or(0, |v| v.len());
        let s = dests.iter().filter(|ds| ds.contains(&node)).count();
        self.footprint(profile, &self.params(profile), d, s).pinned
    }

    /// What the endpoint halves [`Exchange::build`] builds on a node that
    /// sends to `d` nodes and hears from `s` cost before any traffic
    /// moves, over every lane: the one place that reads the transports'
    /// layouts for Figures 9b and 12.
    fn footprint(&self, profile: &DeviceProfile, params: &Params, d: usize, s: usize) -> Footprint {
        // Each half one lane builds, with what its Queue Pairs cost to
        // create. A half that talks to no one is never built; the UD
        // channel, and with it its send pool, exists on every node.
        let rc = |layout, peers: usize| (layout, Some(profile.rc_qp_setup * peers as u64));
        let halves = match self.algorithm.imp {
            EndpointImpl::MqSr => [
                (d > 0).then(|| rc(sr_rc::send_layout(params, d), d)),
                (s > 0).then(|| rc(sr_rc::recv_layout(params, s), s)),
            ],
            EndpointImpl::MqRd => [
                (d > 0).then(|| rc(rd_rc::layout(params, d), d)),
                (s > 0).then(|| rc(rd_rc::layout(params, s), s)),
            ],
            EndpointImpl::MqWr => [
                (d > 0).then(|| rc(wr_rc::layout(params, d), d)),
                (s > 0).then(|| rc(wr_rc::layout(params, s), s)),
            ],
            EndpointImpl::SqSr => [
                Some((sr_ud::send_layout(params), Some(profile.ud_qp_setup))),
                (s > 0).then(|| (sr_ud::recv_layout(params, s), None)),
            ],
        };
        let lanes = self.lanes();
        let mut total = Footprint::default();
        for (layout, qps) in halves.into_iter().flatten() {
            // Figure 12's setup model: the endpoint, its Queue Pairs and
            // the registration of what it reports. The UD receive half
            // shares its channel's Queue Pair and pays the endpoint alone.
            // Changing this rule moves Figure 12: a model change, for
            // after the claims suite.
            let setup = match qps {
                Some(qps) => {
                    profile.endpoint_setup + qps + profile.mr_register_time(layout.registered())
                }
                None => profile.endpoint_setup,
            };
            total.pinned += layout.pinned() * lanes;
            total.registered += layout.registered() * lanes;
            total.setup += setup * lanes as u64;
        }
        total
    }
}

/// What one node's endpoints of an exchange cost before any traffic
/// moves, summed over every half built there.
#[derive(Copy, Clone, Debug, Default)]
struct Footprint {
    /// Bytes the runtime pins: the layouts plus the inline-write scratch.
    pinned: usize,
    /// Bytes Figure 9b reports: the layouts' pools and rings.
    registered: usize,
    /// Connection setup (Figure 12).
    setup: SimDuration,
}

/// `[node][lane]` send endpoints.
type SendLanes = Vec<Vec<Arc<dyn SendEndpoint>>>;
/// `[node][lane]` receive endpoints.
type RecvLanes = Vec<Vec<Arc<dyn ReceiveEndpoint>>>;
/// Every endpoint half is constructed from `(ctx, id, peers, params)`.
type HalfCtor<E> = fn(&Context, EndpointId, Vec<NodeId>, Params) -> E;

/// Endpoint ids of one exchange: `(node, lane, role)` → a unique integer
/// offset into the exchange's id space, send halves on the even offsets.
/// The only place that knows the arithmetic.
#[derive(Copy, Clone, Debug)]
struct IdLayout {
    base: u32,
    nodes: usize,
    lanes: usize,
}

impl IdLayout {
    fn send_id(&self, node: usize, lane: usize) -> EndpointId {
        EndpointId(self.base + (node * self.lanes + lane) as u32 * 2)
    }

    fn recv_id(&self, node: usize, lane: usize) -> EndpointId {
        EndpointId(self.send_id(node, lane).0 + 1)
    }

    /// Ids between `base` and the last one minted, both roles.
    fn minted(&self) -> u32 {
        (self.nodes * self.lanes) as u32 * 2
    }
}

/// What [`Exchange::build`] has settled before any endpoint exists: who
/// sends to whom, over how many lanes, under which endpoint ids.
struct Wiring<'a> {
    runtime: &'a Arc<VerbsRuntime>,
    flow: FlowId,
    ids: IdLayout,
    params: &'a Params,
    /// `dests[a]` = nodes `a` sends to.
    dests: &'a [Vec<NodeId>],
    /// `srcs[b]` = nodes that send to `b`.
    srcs: &'a [Vec<NodeId>],
    /// Physical connections per directed pair; `ids.lanes` on the direct
    /// path, fewer when [`ExchangeConfig::qp_cap_per_pair`] engages.
    qps_per_pair: usize,
}

impl Wiring<'_> {
    /// Builds and wires the endpoints of one reliable-connection
    /// transport: every lane of every node gets its halves, then each
    /// sender→receiver pair is connected, bound to one of the pair's
    /// shared connections when the QP cap is in effect, and put through
    /// the transport's out-of-band handshake.
    fn rc<T: RcTransport>(
        &self,
        sender: HalfCtor<T>,
        receiver: HalfCtor<T::Receiver>,
    ) -> Result<(SendLanes, RecvLanes)> {
        let mut send: Vec<Vec<Arc<T>>> = Vec::new();
        let mut recv: Vec<Vec<Arc<T::Receiver>>> = Vec::new();
        for node in 0..self.dests.len() {
            let ctx = self.runtime.context_flow(node, self.flow);
            let (mut s_lane, mut r_lane) = (Vec::new(), Vec::new());
            for lane in 0..self.ids.lanes {
                if !self.dests[node].is_empty() {
                    let (id, peers) = (self.ids.send_id(node, lane), self.dests[node].clone());
                    s_lane.push(Arc::new(sender(&ctx, id, peers, self.params.clone())));
                }
                if !self.srcs[node].is_empty() {
                    let (id, srcs) = (self.ids.recv_id(node, lane), self.srcs[node].clone());
                    r_lane.push(Arc::new(receiver(&ctx, id, srcs, self.params.clone())));
                }
            }
            send.push(s_lane);
            recv.push(r_lane);
        }
        // Under the cap a pair's lanes share `qps_per_pair` connections,
        // each a slot at the sender's NIC and one at the receiver's, and
        // lane `l` takes connection `l % qps_per_pair`: the lanes of a
        // pair are wired in lane order, so that is both "first vacant"
        // and, once all are taken, "least recently shared".
        let shared_per_pair = if self.qps_per_pair < self.ids.lanes {
            self.qps_per_pair
        } else {
            0
        };
        let both_ends = |_| (SharedQpSlot::new(), SharedQpSlot::new());
        for (a, dests) in self.dests.iter().enumerate() {
            let shared: Vec<Vec<_>> = dests
                .iter()
                .map(|_| (0..shared_per_pair).map(both_ends).collect())
                .collect();
            for lane in 0..self.ids.lanes {
                for (i, &b) in dests.iter().enumerate() {
                    let (s, r) = (&send[a][lane], &recv[b][lane]);
                    let (qp_s, qp_r) = s.qp_pair(b, r, a);
                    ConnectionManager::activate_untimed(qp_s, Some(qp_r.address_handle()))?;
                    ConnectionManager::activate_untimed(qp_r, Some(qp_s.address_handle()))?;
                    if shared_per_pair > 0 {
                        let (at_sender, at_receiver) = &shared[i][lane % shared_per_pair];
                        qp_s.bind_shared_slot(at_sender)?;
                        qp_r.bind_shared_slot(at_receiver)?;
                    }
                    s.handshake(b, r, a)?;
                }
            }
        }
        let send = send.into_iter().map(|lanes| {
            lanes
                .into_iter()
                .map(|e| e as Arc<dyn SendEndpoint>)
                .collect()
        });
        let recv = recv.into_iter().map(|lanes| {
            lanes
                .into_iter()
                .map(|e| e as Arc<dyn ReceiveEndpoint>)
                .collect()
        });
        Ok((send.collect(), recv.collect()))
    }

    /// Builds the UD design: one channel (one Queue Pair) per lane and
    /// node, every channel told its peers' address handles, receive
    /// windows posted and credit seeded.
    fn ud(&self) -> Result<(SendLanes, RecvLanes)> {
        let nodes = self.dests.len();
        let mut channels: Vec<Vec<Arc<SrUdChannel>>> = Vec::new();
        for node in 0..nodes {
            let ctx = self.runtime.context_flow(node, self.flow);
            let lane_channels = (0..self.ids.lanes)
                .map(|lane| {
                    let (send_id, recv_id) =
                        (self.ids.send_id(node, lane), self.ids.recv_id(node, lane));
                    SrUdChannel::new(&ctx, send_id, recv_id, self.params.clone())
                })
                .collect();
            channels.push(lane_channels);
        }
        // Activate QPs and exchange lane-matched address handles.
        for channel in channels.iter().flatten() {
            ConnectionManager::activate_untimed(channel.qp(), None)?;
        }
        for a in 0..nodes {
            let peers: BTreeSet<NodeId> = self.dests[a]
                .iter()
                .chain(self.srcs[a].iter())
                .copied()
                .collect();
            for (lane, channel) in channels[a].iter().enumerate() {
                for &b in &peers {
                    channel.add_peer(b, channels[b][lane].address_handle());
                }
            }
        }
        // Bootstrap receive windows and credit.
        for b in 0..nodes {
            if self.srcs[b].is_empty() {
                continue;
            }
            let ctx = self.runtime.context_flow(b, self.flow);
            for (lane, channel) in channels[b].iter().enumerate() {
                let expected: Vec<(EndpointId, NodeId)> = self.srcs[b]
                    .iter()
                    .map(|&a| (self.ids.send_id(a, lane), a))
                    .collect();
                let credit = channel.bootstrap_receives(&ctx, &expected)?;
                for &a in &self.srcs[b] {
                    channels[a][lane].bootstrap_credit(b, credit);
                }
            }
        }
        // A node that sends (receives) nothing exposes no send (receive)
        // halves.
        let lanes_if = |active: bool, node: usize| if active { &channels[node][..] } else { &[] };
        let send = (0..nodes).map(|node| {
            lanes_if(!self.dests[node].is_empty(), node)
                .iter()
                .map(|c| c.clone() as Arc<dyn SendEndpoint>)
                .collect()
        });
        let recv = (0..nodes).map(|node| {
            lanes_if(!self.srcs[node].is_empty(), node)
                .iter()
                .map(|c| c.clone() as Arc<dyn ReceiveEndpoint>)
                .collect()
        });
        Ok((send.collect(), recv.collect()))
    }
}

/// A fully wired cluster-wide exchange: per node, the lane-indexed send and
/// receive endpoints.
pub struct Exchange {
    /// `send[node][lane]`.
    pub send: Vec<Vec<Arc<dyn SendEndpoint>>>,
    /// `recv[node][lane]`.
    pub recv: Vec<Vec<Arc<dyn ReceiveEndpoint>>>,
    /// Per-node transmission groups.
    pub groups: Vec<TransmissionGroups>,
    /// The design that was built.
    pub algorithm: ShuffleAlgorithm,
    /// Lanes per node (1 for SE, `threads` for ME).
    pub lanes: usize,
    /// The flow tag all of this exchange's QPs and memory regions carry
    /// ([`FlowId::NONE`] outside the multi-query scheduler).
    pub flow: FlowId,
    /// The phase runner when [`ExchangeConfig::phase`] enables scheduled
    /// all-to-all, `None` on the (default) unphased path. Shared by every
    /// sender thread of the cluster; operators cross its barrier once per
    /// phase.
    pub phases: Option<Arc<PhaseRunner>>,
    /// Worker threads per fragment, as configured.
    threads: usize,
    /// Physical connections per directed pair: `lanes`, or the QP cap
    /// where it engaged.
    qps_per_pair: usize,
    /// `[node]`: what that node's endpoints cost before any traffic moves.
    footprints: Vec<Footprint>,
    /// Heard by every endpoint wait; raised by [`Exchange::abort`].
    abort: Abort,
    /// The runtime's marks before and after the build: everything the
    /// exchange registered and created lies between them.
    built: (ResourceMark, ResourceMark),
}

impl Exchange {
    /// Builds and wires all endpoints for `config` over `runtime`.
    ///
    /// Resource creation is untimed (setup cost is charged explicitly via
    /// [`Exchange::charge_setup`], which Figure 12 measures).
    pub fn build(runtime: &Arc<VerbsRuntime>, config: &ExchangeConfig) -> Result<Exchange> {
        // Under the `audit` feature every exchange is born audited; tests
        // can also opt in explicitly via `runtime.enable_audit()`.
        #[cfg(feature = "audit")]
        if runtime.auditor().is_none() {
            runtime.enable_audit();
        }
        // Each build is one protocol epoch: a restarted attempt starts from
        // clean lane/buffer/ring state (violations accumulate across
        // epochs).
        if let Some(auditor) = runtime.auditor() {
            auditor.begin_epoch();
        }
        let nodes = runtime.cluster().nodes();
        if config.groups.len() != nodes {
            return Err(ShuffleError::Config(format!(
                "{} group sets for {} nodes",
                config.groups.len(),
                nodes
            )));
        }
        let lanes = config.lanes();
        if lanes == 0 || lanes > config.threads {
            return Err(ShuffleError::Config(format!(
                "lane count {lanes} out of range 1..={}",
                config.threads
            )));
        }
        // dests[a] = nodes a sends to; srcs[b] = nodes that send to b.
        let dests: Vec<Vec<NodeId>> = config.groups.iter().map(|g| g.destinations()).collect();
        let mut srcs: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); nodes];
        for (a, ds) in dests.iter().enumerate() {
            for &b in ds {
                if b >= nodes {
                    return Err(ShuffleError::Config(format!(
                        "group of node {a} references missing node {b}"
                    )));
                }
                srcs[b].insert(a);
            }
        }
        let srcs: Vec<Vec<NodeId>> = srcs.into_iter().map(|s| s.into_iter().collect()).collect();
        // Everything that can reject the configuration runs before the
        // first endpoint registers memory: endpoints never release on
        // their own, so an error past this point would leave their pools
        // pinned on the runtime.
        let schedule = if config.phase.enabled() {
            Some(config.phase_schedule(&dests)?)
        } else {
            None
        };

        // Only the RC designs open one QP per (lane, destination); the UD
        // design already shares one QP per lane, so the cap never applies
        // to it. A cap at or above the lane count changes nothing either.
        let qps_per_pair = match config.qp_cap_per_pair {
            Some(0) => {
                return Err(ShuffleError::Config(
                    "qp_cap_per_pair of 0: a pair needs one connection".into(),
                ))
            }
            Some(cap) if config.algorithm.imp != EndpointImpl::SqSr => cap.min(lanes),
            _ => lanes,
        };

        // A worker hears an abort as one control message from the
        // coordinator: a header's flight through the switch.
        let profile = runtime.profile();
        let abort = Abort::new(
            runtime.kernel(),
            profile.switch_latency + profile.wire_time(HEADER_LEN),
        );
        let params = &Params {
            abort: Some(abort.clone()),
            ..config.params(profile)
        };
        // Credit goes back at most every `credit_writeback_frequency`
        // releases: never at 0, and past the credit window of a source a
        // sender blocked at its grant would wait for it forever.
        let window = match config.algorithm.imp {
            EndpointImpl::MqSr => Some(params.recv_depth_per_peer),
            EndpointImpl::SqSr => Some(params.ud_recv_window),
            EndpointImpl::MqRd | EndpointImpl::MqWr => None,
        };
        let frequency = params.credit_writeback_frequency;
        if let Some(window) = window.filter(|&w| !(1..=w).contains(&(frequency as usize))) {
            let why = format!("credit_writeback_frequency {frequency} outside 1..={window}");
            return Err(ShuffleError::Config(why + ", the credit window per source"));
        }
        let built_from = runtime.mark();
        let footprints = (0..nodes)
            .map(|n| config.footprint(profile, params, dests[n].len(), srcs[n].len()))
            .collect();
        let wiring = Wiring {
            runtime,
            flow: config.flow,
            ids: config.id_layout(),
            params,
            dests: &dests,
            srcs: &srcs,
            qps_per_pair,
        };
        let (send, recv) = match config.algorithm.imp {
            EndpointImpl::MqSr => wiring.rc(SrRcSendEndpoint::new, SrRcReceiveEndpoint::new)?,
            EndpointImpl::MqRd => wiring.rc(RdRcSendEndpoint::new, RdRcReceiveEndpoint::new)?,
            EndpointImpl::MqWr => wiring.rc(WrRcSendEndpoint::new, WrRcReceiveEndpoint::new)?,
            EndpointImpl::SqSr => wiring.ud()?,
        };
        let phases = schedule.map(|schedule| {
            // Free (exempted) sources run the unphased path and never
            // reach the barrier: counting them would deadlock round 0.
            let senders = dests
                .iter()
                .enumerate()
                .filter(|(n, d)| !d.is_empty() && !schedule.is_free(*n))
                .count();
            PhaseRunner::with_obs(
                runtime.kernel(),
                schedule,
                senders * config.threads,
                config.stall_timeout,
                runtime.obs().clone(),
            )
        });
        Ok(Exchange {
            send,
            recv,
            groups: config.groups.clone(),
            algorithm: config.algorithm,
            lanes,
            flow: config.flow,
            phases,
            threads: config.threads,
            qps_per_pair,
            footprints,
            abort,
            built: (built_from, runtime.mark()),
        })
    }

    /// The SHUFFLE operator (Algorithm 1) of `node`'s fragment over this
    /// exchange: `child`'s rows go out through the node's send lanes to
    /// its transmission groups, phase-scheduled when the exchange is (the
    /// operator itself lets a source the skew-aware schedule exempted
    /// stream unphased, no barrier party). `None` when `node` sends
    /// nothing.
    pub fn shuffle_operator(
        &self,
        node: NodeId,
        child: Arc<dyn Operator>,
        cost: CostModel,
    ) -> Option<ShuffleOperator> {
        let lanes = self.send.get(node).filter(|lanes| !lanes.is_empty())?;
        let groups = self.groups[node].clone();
        let shuffle = ShuffleOperator::with_lanes(child, lanes.clone(), groups, self.threads, cost);
        Some(match &self.phases {
            Some(runner) => shuffle.with_phases(runner.clone(), node),
            None => shuffle,
        })
    }

    /// The RECEIVE operator (Algorithm 2) of `node`'s fragment: what the
    /// node's receive lanes deliver, as `row_size`-byte rows in batches of
    /// `batch_rows`. `None` when nothing is sent to `node`.
    pub fn receive_operator(
        &self,
        node: NodeId,
        row_size: usize,
        batch_rows: usize,
        cost: CostModel,
    ) -> Option<ReceiveOperator> {
        let lanes = self.recv.get(node).filter(|lanes| !lanes.is_empty())?;
        Some(ReceiveOperator::with_lanes(
            lanes.clone(),
            row_size,
            batch_rows,
            self.threads,
            cost,
        ))
    }

    /// Worker threads each fragment of this exchange runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Send-side Queue Pairs the design opens cluster-wide, one per lane:
    /// toward every destination of every node for the RC designs, per
    /// node for UD (which reaches all its peers through one).
    pub fn natural_qps(&self) -> u64 {
        self.qps(self.lanes)
    }

    /// Send-side NIC QP contexts actually held cluster-wide: fewer than
    /// [`Exchange::natural_qps`] exactly when the QP cap engaged, and the
    /// difference is the lanes that share a connection with another.
    pub fn physical_qps(&self) -> u64 {
        self.qps(self.qps_per_pair)
    }

    fn qps(&self, per_pair: usize) -> u64 {
        let pairs_or_nodes = match self.algorithm.imp {
            EndpointImpl::SqSr => self.groups.len(),
            _ => self.groups.iter().map(|g| g.destinations().len()).sum(),
        };
        (pairs_or_nodes * per_pair) as u64
    }

    /// Charges the modelled connection-setup cost for `node`'s endpoints to
    /// the calling thread (the quantity of Figure 12).
    pub fn charge_setup(&self, sim: &SimContext, node: NodeId) {
        sim.sleep(self.footprints[node].setup);
    }

    /// Returns this exchange's pinned memory to the runtime: deregisters
    /// (untimed and trace-invisible, so it cannot perturb virtual time)
    /// every region the build registered, flow-tagged or not. Endpoints
    /// register eagerly and never release on their own; the query
    /// coordinator calls this when an attempt is over, so that a retry
    /// never pins two attempts' memory and the next admission decision
    /// sees the true budget. Returns the bytes freed cluster-wide.
    pub fn release(&self, runtime: &VerbsRuntime) -> usize {
        runtime.deregister_built(self.built)
    }

    /// Aborts the attempt this exchange serves: one control message from
    /// now (the switch latency plus a header's wire time), every endpoint
    /// wait of the exchange returns [`ShuffleError::Aborted`] instead of
    /// waiting out its stall deadline, and the phase barrier releases its
    /// parties. The query coordinator calls it on the first worker's
    /// error.
    pub fn abort(&self, sim: &SimContext) {
        let phases = self.phases.clone();
        self.abort.raise(sim.kernel(), move || {
            if let Some(runner) = phases {
                runner.abort();
            }
        });
    }

    /// Total RDMA-registered bytes on `node` across this exchange's
    /// endpoints (the quantity of Figure 9b).
    pub fn registered_bytes(&self, node: NodeId) -> usize {
        self.footprints[node].registered
    }

    /// Payload bytes received by `node` so far.
    pub fn bytes_received(&self, node: NodeId) -> u64 {
        self.recv[node].iter().map(|e| e.bytes_received()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use rshuffle_obs::names;

    use super::*;
    use crate::buffer::StreamState;
    use crate::operator::RowBatch;

    const ROW: usize = 16;
    const ROWS_PER_THREAD: usize = 2_000;

    /// `ROWS_PER_THREAD` distinct-key rows per thread, in batches of 500,
    /// each with the node in `.0` in its byte 8.
    struct Rows(usize, Vec<AtomicUsize>);

    /// Node `node`'s [`Rows`] for `threads` workers.
    fn rows(node: usize, threads: usize) -> Arc<dyn Operator> {
        Arc::new(Rows(
            node,
            (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        ))
    }

    impl Operator for Rows {
        fn next(&self, _sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
            let done = self.1[tid].fetch_add(500, Ordering::Relaxed);
            let mut batch = RowBatch::new(ROW, 500);
            for seq in done..done + 500 {
                let mut row = [0u8; ROW];
                row[0..8].copy_from_slice(&((seq * 31 + tid) as u64).to_le_bytes());
                row[8] = self.0 as u8;
                batch.push_row(&row);
            }
            let more = done + 500 < ROWS_PER_THREAD;
            Ok((
                if more {
                    StreamState::MoreData
                } else {
                    StreamState::Depleted
                },
                batch,
            ))
        }
    }

    /// Builds `config`'s exchange and pulls both operators of every node
    /// that has them to depletion; returns the exchange and its runtime.
    fn run(config: &ExchangeConfig) -> (Exchange, Arc<VerbsRuntime>) {
        let runtime = config.build_runtime(DeviceProfile::edr());
        let exchange = Exchange::build(&runtime, config).expect("exchange builds");
        let cost = CostModel::from_profile(runtime.profile());
        for node in 0..config.groups.len() {
            let shuffle = exchange.shuffle_operator(node, rows(node, config.threads), cost.clone());
            let receive = exchange.receive_operator(node, ROW, 512, cost.clone());
            let ops = [
                shuffle.map(|op| Arc::new(op) as Arc<dyn Operator>),
                receive.map(|op| Arc::new(op) as Arc<dyn Operator>),
            ];
            for (half, op) in ops.into_iter().enumerate() {
                let Some(op) = op else { continue };
                for tid in 0..config.threads {
                    let op = op.clone();
                    let name = format!("n{node}-h{half}-{tid}");
                    runtime.cluster().spawn(node, &name, move |sim| {
                        while op.next(&sim, tid).expect("operator").0 != StreamState::Depleted {}
                    });
                }
            }
        }
        runtime.cluster().run();
        (exchange, runtime)
    }

    #[test]
    fn shuffle_operator_phases_the_constrained_sources_only() {
        // Node 0 is estimated at 1000x everyone else: the skew-aware
        // schedule exempts it, and the barrier counts the other three
        // nodes' threads only. Were node 0's operator phased anyway, or
        // counted as a party, round 0 would never fill and the run would
        // end in a stall instead of completing.
        let (nodes, threads) = (4, 2);
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, threads);
        config.phase = PhasePolicy::SkewAware;
        let mut estimate = vec![vec![1u64; nodes]; nodes];
        estimate[0] = vec![1000; nodes];
        config.phase_bytes = Some(Arc::new(estimate));
        let (exchange, runtime) = run(&config);
        let runner = exchange.phases.as_ref().expect("phased exchange");
        assert_eq!(runner.schedule().free_sources(), vec![0]);
        assert_eq!(runner.parties(), (nodes - 1) * threads);
        assert!(
            runtime
                .obs()
                .metrics
                .counter_total(names::EXCHANGE_PHASES_RUN)
                > 0
        );
        let received: u64 = (0..nodes).map(|n| exchange.bytes_received(n)).sum();
        assert_eq!(received, (nodes * threads * ROWS_PER_THREAD * ROW) as u64);
    }

    #[test]
    fn a_node_without_a_half_gets_no_operator_for_it() {
        // Node 0 sends to node 1 and nothing comes back.
        for algorithm in [ShuffleAlgorithm::MESQ_SR, ShuffleAlgorithm::SEMQ_SR] {
            let groups = vec![
                TransmissionGroups::new(vec![vec![1]]),
                TransmissionGroups::new(vec![]),
            ];
            let mut config = ExchangeConfig::with_groups(algorithm, 2, groups);
            config.message_size = 4096;
            let (exchange, runtime) = run(&config);
            let cost = CostModel::from_profile(runtime.profile());
            let source = || rows(0, 0);
            assert!(exchange
                .shuffle_operator(0, source(), cost.clone())
                .is_some());
            assert!(exchange
                .shuffle_operator(1, source(), cost.clone())
                .is_none());
            assert!(exchange
                .receive_operator(0, ROW, 512, cost.clone())
                .is_none());
            assert!(exchange
                .receive_operator(1, ROW, 512, cost.clone())
                .is_some());
            assert!(
                exchange.shuffle_operator(2, source(), cost).is_none(),
                "no such node"
            );
            assert_eq!(exchange.bytes_received(0), 0);
            assert_eq!(
                exchange.bytes_received(1),
                (2 * ROWS_PER_THREAD * ROW) as u64,
                "{algorithm}"
            );
        }
    }

    #[test]
    fn a_zero_qp_cap_is_refused_before_anything_is_pinned() {
        let nodes = 3;
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, nodes, 2);
        config.qp_cap_per_pair = Some(0);
        let runtime = config.build_runtime(DeviceProfile::edr());
        match Exchange::build(&runtime, &config) {
            Err(ShuffleError::Config(why)) => assert!(why.contains("qp_cap_per_pair"), "{why}"),
            other => panic!("expected a Config error, got {:?}", other.err()),
        }
        for node in 0..nodes {
            assert_eq!(runtime.registered_bytes(node), 0, "node {node}");
        }
    }

    #[test]
    fn qp_counts_follow_the_directed_pairs_and_the_cap() {
        let (nodes, threads) = (4, 4);
        // A broadcast among the four, or node 0 sending to node 1 alone.
        let (broadcast, one_way) = (true, false);
        // (design, pattern, cap) -> (natural, physical)
        let cases = [
            // One group of three per node is still twelve directed pairs.
            (ShuffleAlgorithm::MEMQ_RD, broadcast, None, (48, 48)),
            (ShuffleAlgorithm::MEMQ_RD, broadcast, Some(3), (48, 36)),
            (ShuffleAlgorithm::MEMQ_RD, broadcast, Some(4), (48, 48)),
            // One lane: nothing to share. UD: one QP per lane and node.
            (ShuffleAlgorithm::SEMQ_SR, broadcast, Some(1), (12, 12)),
            (ShuffleAlgorithm::MESQ_SR, broadcast, Some(1), (16, 16)),
            // Nothing comes back: one directed pair, not `nodes - 1` each.
            (ShuffleAlgorithm::MEMQ_SR, one_way, None, (4, 4)),
            (ShuffleAlgorithm::MEMQ_SR, one_way, Some(1), (4, 1)),
        ];
        for (algorithm, pattern, cap, expected) in cases {
            let mut config = ExchangeConfig::broadcast(algorithm, nodes, threads);
            if pattern == one_way {
                config.groups = vec![TransmissionGroups::new(vec![]); nodes];
                config.groups[0] = TransmissionGroups::new(vec![vec![1]]);
            }
            config.message_size = 4096;
            config.qp_cap_per_pair = cap;
            let runtime = config.build_runtime(DeviceProfile::edr());
            let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
            assert_eq!(
                (exchange.natural_qps(), exchange.physical_qps()),
                expected,
                "{algorithm} cap {cap:?}"
            );
        }
    }

    #[test]
    fn the_id_layout_mints_each_half_its_own_id_within_the_counted_range() {
        // Counted from configuration alone: both roles of every lane.
        let big = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, 33, 64);
        assert_eq!(big.endpoint_ids(), 4224);
        let (nodes, threads) = (3, 4);
        for algorithm in [ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::SESQ_SR] {
            let mut config = ExchangeConfig::repartition(algorithm, nodes, threads);
            config.endpoint_id_base = 8192;
            let runtime = config.build_runtime(DeviceProfile::edr());
            let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
            let ids = config.id_layout();
            let mut minted = BTreeSet::new();
            for node in 0..nodes {
                for lane in 0..exchange.send[node].len() {
                    assert!(minted.insert(ids.send_id(node, lane)), "{algorithm}");
                }
                for lane in 0..exchange.recv[node].len() {
                    assert!(minted.insert(ids.recv_id(node, lane)), "{algorithm}");
                }
            }
            let range = 8192..8192 + config.endpoint_ids();
            assert_eq!(minted.len() as u32, range.len() as u32, "{algorithm}");
            assert!(minted.iter().all(|id| range.contains(&id.0)), "{algorithm}");
        }
    }

    /// Every delivery names the node that sent it, for all eight designs
    /// under repartition and broadcast: each row carries its source node
    /// in byte 8, and every row of a delivery must match the delivery's
    /// `src`.
    #[test]
    fn every_delivery_names_the_node_that_sent_it() {
        let (nodes, threads) = (3, 2);
        let wr = ["MEMQ/WR", "SEMQ/WR"].map(|name| ShuffleAlgorithm::parse(name).unwrap());
        for algorithm in ShuffleAlgorithm::ALL.into_iter().chain(wr) {
            for broadcast in [false, true] {
                let (mut config, fanout) = match broadcast {
                    false => (ExchangeConfig::repartition(algorithm, nodes, threads), 1),
                    true => (
                        ExchangeConfig::broadcast(algorithm, nodes, threads),
                        nodes - 1,
                    ),
                };
                config.message_size = 4096;
                let runtime = config.build_runtime(DeviceProfile::edr());
                let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
                let cost = CostModel::from_profile(runtime.profile());
                let received = Arc::new(AtomicUsize::new(0));
                for node in 0..nodes {
                    let shuffle =
                        exchange.shuffle_operator(node, rows(node, threads), cost.clone());
                    let shuffle = Arc::new(shuffle.expect("every node sends"));
                    let lanes = &exchange.recv[node];
                    for tid in 0..threads {
                        let shuffle = shuffle.clone();
                        runtime.cluster().spawn(node, "send", move |sim| {
                            while shuffle.next(&sim, tid).expect("shuffle").0
                                != StreamState::Depleted
                            {}
                        });
                        let lane = lanes[tid % lanes.len()].clone();
                        let received = received.clone();
                        runtime.cluster().spawn(node, "receive", move |sim| {
                            while let Some(d) = lane.get_data(&sim).expect("get_data") {
                                let from = d.local.with_payload(|p| {
                                    p.chunks(ROW).map(|row| row[8] as usize).collect::<Vec<_>>()
                                });
                                let from = from.expect("payload");
                                assert!(from.iter().all(|&n| n == d.src), "{algorithm}");
                                received.fetch_add(from.len(), Ordering::Relaxed);
                                lane.release(&sim, d).expect("release");
                            }
                        });
                    }
                }
                runtime.cluster().run();
                let sent = nodes * threads * ROWS_PER_THREAD * fanout;
                assert_eq!(received.load(Ordering::Relaxed), sent, "{algorithm}");
            }
        }
    }
}
