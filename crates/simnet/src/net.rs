//! The switch fabric: a full-bisection crossbar with per-port serialization.
//!
//! InfiniBand clusters of the paper's scale (≤16 nodes) sit under a single
//! non-blocking switch, so the only shared network resources are each node's
//! egress and ingress port. Modelling those two ports as FIFO
//! [`Resource`](crate::Resource)s reproduces the first-order effects the paper relies on:
//!
//! * a single sender cannot exceed line rate (egress serialization),
//! * a receiver under incast (repartition/broadcast) caps at line rate no
//!   matter how many peers send to it (ingress serialization),
//! * per-message latency grows with message size.
//!
//! Delivery order between two nodes is FIFO; cross-sender arrival order at a
//! shared ingress port follows reservation order, which matches send order —
//! an approximation that is exact for same-size messages and bounded by one
//! serialization quantum otherwise.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::nic::{FairResource, FlowId, FlowTable};
use crate::profile::DeviceProfile;
use crate::resource::{transfer_time, Reservation};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Messages up to this size bypass the port FIFOs (control virtual lane).
pub const CONTROL_BYPASS_BYTES: usize = 256;

/// Switch-level layout of the interconnect.
///
/// The paper's clusters (≤16 nodes) fit under one non-blocking switch;
/// scaling the shuffle to hundreds of nodes means a multi-switch fabric
/// where inter-switch links are shared — and usually oversubscribed —
/// resources of their own.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// One non-blocking crossbar: the only shared resources are each
    /// node's egress and ingress port (the original model; the default).
    SingleSwitch,
    /// A two-tier fat tree: nodes attach to leaf switches, leaves
    /// connect through a non-blocking spine. Traffic between leaves
    /// crosses the source leaf's uplink and the destination leaf's
    /// downlink — each an aggregate [`FairResource`] whose capacity is
    /// the leaf's host-facing capacity divided by the oversubscription
    /// ratio — and pays an extra spine hop of latency. Intra-leaf
    /// traffic behaves exactly like the single switch.
    FatTree {
        /// Hosts attached to each leaf switch (the last leaf may be
        /// partially filled).
        hosts_per_leaf: usize,
        /// Oversubscription ratio ≥ 1.0. At 1.0 the uplink matches the
        /// sum of host line rates (full bisection); at 4.0 the uplink
        /// carries only a quarter of it, the common datacenter shape.
        oversubscription: f64,
        /// Extra one-way latency of the leaf → spine → leaf detour.
        spine_hop_latency: SimDuration,
        /// Opt-in incast congestion-collapse model for the receiver-side
        /// shared ports ([`IncastModel`]); `None` preserves the original
        /// purely work-conserving fluid fabric byte for byte.
        incast: Option<IncastModel>,
    },
}

/// Incast congestion collapse at a shared receiving port (opt-in).
///
/// The fluid-flow fabric is work-conserving: `k` concurrent senders
/// into one port each get `1/k` of its bandwidth and the port still
/// moves at line rate in aggregate. Real switch ports do not hold that
/// ideal under deep fan-in — once the number of concurrent senders
/// exceeds the port's buffer headroom, lossless fabrics collapse into
/// congestion-tree spreading (InfiniBand credit back-pressure / PFC
/// storms) and *aggregate* goodput drops well below line rate. This
/// model captures that knee: while more than `sender_threshold`
/// distinct senders hold in-flight bulk reservations on a port, every
/// new reservation's serialization time is inflated by
/// `min(MAX_PENALTY, active_senders / sender_threshold)`.
///
/// Applied to fat-tree ingress ports and leaf downlinks only (the
/// resources a naive all-to-all overloads); control packets on the
/// bypass virtual lane are never penalized. A phase-scheduled transfer
/// keeps at most one bulk sender per port and thus never crosses the
/// threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IncastModel {
    /// Concurrent distinct senders a port absorbs at full rate (its
    /// buffer headroom, naturally about one leaf's worth of hosts).
    sender_threshold: usize,
}

impl IncastModel {
    /// Cap on the serialization inflation factor.
    const MAX_PENALTY: f64 = 4.0;

    /// A model with the given threshold.
    pub fn new(sender_threshold: usize) -> IncastModel {
        IncastModel {
            sender_threshold: sender_threshold.max(1),
        }
    }

    /// Concurrent-sender knee of the model.
    pub fn sender_threshold(&self) -> usize {
        self.sender_threshold
    }

    /// Serialization inflation for a port currently serving `active`
    /// distinct bulk senders (1.0 at or below the threshold).
    pub fn penalty(&self, active: usize) -> f64 {
        self.penalty_floored(active, 1)
    }

    /// [`IncastModel::penalty`] with the sender knee floored at `floor`.
    /// Shared aggregation links (a leaf's downlink) legitimately carry
    /// one flow per host beneath them — their buffers are provisioned
    /// for it — so their knee is `max(threshold, hosts_per_leaf)`, not
    /// the single-port threshold.
    pub fn penalty_floored(&self, active: usize, floor: usize) -> f64 {
        let knee = self.sender_threshold.max(floor);
        if active <= knee {
            1.0
        } else {
            (active as f64 / knee as f64).min(Self::MAX_PENALTY)
        }
    }
}

impl Topology {
    /// A fat tree with `hosts_per_leaf` hosts per leaf switch and the
    /// given oversubscription ratio, using a default 2× switch hop for
    /// the spine detour.
    pub fn fat_tree(hosts_per_leaf: usize, oversubscription: f64) -> Topology {
        Topology::FatTree {
            hosts_per_leaf: hosts_per_leaf.max(1),
            oversubscription: oversubscription.max(1.0),
            spine_hop_latency: SimDuration::from_nanos(500),
            incast: None,
        }
    }

    /// Enables the incast congestion-collapse model on a fat tree with
    /// the given sender threshold (typically one leaf's worth of
    /// hosts). No effect on a single switch — the crossbar's dedicated
    /// per-host ports have no shared fan-in point to collapse.
    pub fn with_incast(self, model: IncastModel) -> Topology {
        match self {
            Topology::SingleSwitch => Topology::SingleSwitch,
            Topology::FatTree {
                hosts_per_leaf,
                oversubscription,
                spine_hop_latency,
                ..
            } => Topology::FatTree {
                hosts_per_leaf,
                oversubscription,
                spine_hop_latency,
                incast: Some(model),
            },
        }
    }

    /// The configured incast model, if any.
    pub fn incast(&self) -> Option<IncastModel> {
        match *self {
            Topology::SingleSwitch => None,
            Topology::FatTree { incast, .. } => incast,
        }
    }

    /// Oversubscription ratio of the fabric (1.0 = full bisection).
    pub fn oversubscription(&self) -> f64 {
        match *self {
            Topology::SingleSwitch => 1.0,
            Topology::FatTree {
                oversubscription, ..
            } => oversubscription,
        }
    }

    /// The leaf switch `node` attaches to (0 under a single switch).
    pub fn leaf_of(&self, node: NodeId) -> usize {
        match *self {
            Topology::SingleSwitch => 0,
            Topology::FatTree { hosts_per_leaf, .. } => node / hosts_per_leaf,
        }
    }

    /// Number of leaf switches needed for `nodes` hosts.
    pub fn leaves(&self, nodes: usize) -> usize {
        match *self {
            Topology::SingleSwitch => 1,
            Topology::FatTree { hosts_per_leaf, .. } => nodes.div_ceil(hosts_per_leaf),
        }
    }

    /// Aggregate per-direction capacity of one leaf's spine links,
    /// given the per-host `payload_bandwidth` (bytes/second).
    pub fn uplink_bandwidth(&self, payload_bandwidth: f64) -> f64 {
        match *self {
            Topology::SingleSwitch => f64::INFINITY,
            Topology::FatTree {
                hosts_per_leaf,
                oversubscription,
                ..
            } => payload_bandwidth * hosts_per_leaf as f64 / oversubscription,
        }
    }

    /// Human-readable multi-line description of the switch tiers, for
    /// the `diag --topology` dump.
    pub fn describe(&self, nodes: usize, payload_bandwidth: f64) -> String {
        match *self {
            Topology::SingleSwitch => format!(
                "topology: single non-blocking switch\n\
                 tier 0:   {nodes} host ports @ {:.1} GiB/s per direction\n\
                 bisection: full (no oversubscription)",
                payload_bandwidth / crate::profile::GIB
            ),
            Topology::FatTree {
                hosts_per_leaf,
                oversubscription,
                spine_hop_latency,
                incast,
            } => {
                let leaves = self.leaves(nodes);
                let incast_line = match incast {
                    None => String::new(),
                    Some(m) => format!(
                        "\nincast:    collapse past {} concurrent senders/port, up to {:.1}x",
                        m.sender_threshold,
                        IncastModel::MAX_PENALTY
                    ),
                };
                format!(
                    "topology: two-tier fat tree, {oversubscription:.1}:1 oversubscribed\n\
                     tier 0:   {nodes} host ports @ {:.1} GiB/s per direction\n\
                     tier 1:   {leaves} leaf switches × {hosts_per_leaf} hosts, uplink {:.1} GiB/s aggregate\n\
                     tier 2:   non-blocking spine, +{} ns per inter-leaf hop\n\
                     bisection: {:.1} GiB/s ({:.0}% of full){incast_line}",
                    payload_bandwidth / crate::profile::GIB,
                    self.uplink_bandwidth(payload_bandwidth) / crate::profile::GIB,
                    spine_hop_latency.as_nanos(),
                    self.uplink_bandwidth(payload_bandwidth) * leaves as f64 / 2.0
                        / crate::profile::GIB,
                    100.0 / oversubscription,
                )
            }
        }
    }
}

struct NodePorts {
    egress: Mutex<FairResource>,
    ingress: Mutex<FairResource>,
}

/// Shared spine-facing links of one leaf switch.
struct LeafPorts {
    uplink: Mutex<FairResource>,
    downlink: Mutex<FairResource>,
}

/// Per-node link-fault state driven by the fault-injection subsystem.
///
/// InfiniBand links are lossless, so a downed port *stalls* traffic (the
/// NIC retransmits at the link layer) rather than dropping it: a flap is
/// modelled by deferring departures past `down_until`. Degradation scales
/// the shared-fabric bandwidth and adds propagation latency.
#[derive(Clone, Copy, Debug)]
struct LinkFault {
    /// Messages touching this port cannot depart before this instant.
    down_until: SimTime,
    /// Multiplier on the port's effective bandwidth (1.0 = healthy).
    bw_factor: f64,
    /// Extra one-way latency added per message through this port.
    extra_latency: crate::time::SimDuration,
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault {
            down_until: SimTime::ZERO,
            bw_factor: 1.0,
            extra_latency: crate::time::SimDuration::ZERO,
        }
    }
}

/// The cluster interconnect.
pub struct Fabric {
    ports: Vec<NodePorts>,
    /// Leaf-switch uplink/downlink pairs; empty under a single switch,
    /// so the original code path is untouched byte for byte.
    leaves: Vec<LeafPorts>,
    topology: Topology,
    /// Aggregate per-direction leaf uplink capacity (bytes/second);
    /// unused under a single switch.
    uplink_bandwidth: f64,
    flows: Arc<FlowTable>,
    bandwidth: f64,
    switch_latency: crate::time::SimDuration,
    loopback_latency: crate::time::SimDuration,
    link_faults: Mutex<Vec<LinkFault>>,
    /// Incast collapse model, copied out of the topology; `None` keeps
    /// every path below bit-identical to the work-conserving fabric.
    incast: Option<IncastModel>,
    /// The bulk senders on each ingress port (`[node]`) and on each leaf
    /// downlink (`[leaf]`).
    incast_ingress: IncastPorts,
    incast_downlink: IncastPorts,
}

/// Distinct senders with in-flight bulk reservations on each of a set of
/// shared ports, for the incast model.
struct IncastPorts {
    /// The least knee of these ports (see [`IncastModel::penalty_floored`]).
    knee_floor: usize,
    /// Per port, `(sender, reservation end)` pairs, pruned lazily against
    /// each new departure. Empty when the incast model is off.
    senders: Mutex<Vec<Vec<(NodeId, SimTime)>>>,
}

/// A message leaving `from`'s egress port at `at`, in `flow`'s share.
#[derive(Clone, Copy)]
struct Departure {
    from: NodeId,
    at: SimTime,
    flow: FlowId,
}

/// Inflates a serialization time by an incast penalty factor; exactly
/// the input at factor 1.0 so unpenalized paths stay bit-identical.
fn inflate(ser: SimDuration, factor: f64) -> SimDuration {
    if factor <= 1.0 {
        ser
    } else {
        SimDuration::from_nanos((ser.as_nanos() as f64 * factor).round() as u64)
    }
}

impl Fabric {
    /// Creates a fabric connecting `nodes` nodes with the bandwidth and
    /// latency of `profile`, with a private (empty) flow table.
    pub fn new(nodes: usize, profile: &DeviceProfile) -> Self {
        let flows = Arc::new(FlowTable::new());
        Self::with_topology(nodes, profile, flows, Topology::SingleSwitch)
    }

    /// Creates a fabric with an explicit switch [`Topology`], whose ports
    /// arbitrate across the cluster-shared running `flows`.
    pub fn with_topology(
        nodes: usize,
        profile: &DeviceProfile,
        flows: Arc<FlowTable>,
        topology: Topology,
    ) -> Self {
        let (leaf_count, hosts_per_leaf) = match topology {
            Topology::SingleSwitch => (0, 1),
            Topology::FatTree { hosts_per_leaf, .. } => (topology.leaves(nodes), hosts_per_leaf),
        };
        let incast_ports = |ports: usize, knee_floor| IncastPorts {
            knee_floor,
            senders: Mutex::new(match topology.incast() {
                Some(_) => vec![Vec::new(); ports],
                None => Vec::new(),
            }),
        };
        Fabric {
            ports: (0..nodes)
                .map(|_| NodePorts {
                    egress: Mutex::new(FairResource::new()),
                    ingress: Mutex::new(FairResource::new()),
                })
                .collect(),
            leaves: (0..leaf_count)
                .map(|_| LeafPorts {
                    uplink: Mutex::new(FairResource::new()),
                    downlink: Mutex::new(FairResource::new()),
                })
                .collect(),
            uplink_bandwidth: topology.uplink_bandwidth(profile.payload_bandwidth),
            incast: topology.incast(),
            incast_ingress: incast_ports(nodes, 1),
            // The downlink aggregates a leaf's worth of hosts; its knee is
            // floored at one flow per host so a phase-scheduled transfer
            // (at most one sender per destination port) never crosses it.
            incast_downlink: incast_ports(leaf_count, hosts_per_leaf),
            topology,
            flows,
            bandwidth: profile.payload_bandwidth,
            switch_latency: profile.switch_latency,
            loopback_latency: profile.loopback_latency,
            link_faults: Mutex::new(vec![LinkFault::default(); nodes]),
        }
    }

    /// Number of nodes attached to the fabric.
    pub fn nodes(&self) -> usize {
        self.ports.len()
    }

    /// The switch topology of this fabric.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The spine detour of the path `from → to`: `None` when both nodes
    /// share a switch, otherwise the leaf pair and the spine latency.
    fn spine_path(&self, from: NodeId, to: NodeId) -> Option<(usize, usize, SimDuration)> {
        let Topology::FatTree {
            spine_hop_latency, ..
        } = self.topology
        else {
            return None;
        };
        let (src, dst) = (self.topology.leaf_of(from), self.topology.leaf_of(to));
        (src != dst).then_some((src, dst, spine_hop_latency))
    }

    /// Takes `node`'s port down until `until` (link flap). The link layer
    /// is lossless, so in-window traffic stalls instead of dropping.
    pub fn set_port_down_until(&self, node: NodeId, until: SimTime) {
        let mut faults = self.link_faults.lock();
        faults[node].down_until = faults[node].down_until.max(until);
    }

    /// Degrades `node`'s port: bandwidth scaled by `bw_factor` (clamped to
    /// a positive value) and `extra_latency` added to every message.
    pub fn set_degradation(
        &self,
        node: NodeId,
        bw_factor: f64,
        extra_latency: crate::time::SimDuration,
    ) {
        let mut faults = self.link_faults.lock();
        faults[node].bw_factor = bw_factor.max(1e-6);
        faults[node].extra_latency = extra_latency;
    }

    /// Restores `node`'s port to full bandwidth and nominal latency.
    pub fn clear_degradation(&self, node: NodeId) {
        let mut faults = self.link_faults.lock();
        faults[node].bw_factor = 1.0;
        faults[node].extra_latency = crate::time::SimDuration::ZERO;
    }

    /// Schedules an untagged `bytes`-sized message from `from` to `to`,
    /// departing the sender NIC at `depart` (see [`Fabric::transfer_flow`]).
    pub fn transfer(&self, from: NodeId, to: NodeId, bytes: usize, depart: SimTime) -> SimTime {
        self.transfer_flow(from, to, bytes, depart, FlowId::NONE)
    }

    /// Schedules a `bytes`-sized message belonging to `flow` from `from` to
    /// `to`, departing the sender NIC at `depart`, and returns the delivery
    /// time at the receiver NIC: [`Fabric::transfer_group`] with one member.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn transfer_flow(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        depart: SimTime,
        flow: FlowId,
    ) -> SimTime {
        let mut delivered = depart;
        let one = std::iter::once(to);
        self.transfer_group(from, one, bytes, depart, flow, |_, at| delivered = at);
        delivered
    }

    /// Schedules one `bytes`-sized message belonging to `flow` from `from`
    /// to every node of `tos`, departing the sender NIC at `depart`, and
    /// hands `delivered` each member's position in `tos` with the delivery
    /// time at its NIC, in member order. Ports are fair across running
    /// flows; untagged traffic takes the plain FIFO path.
    ///
    /// A unicast is the one-member case and a multicast is the same path
    /// with more members, replicated by the switches: the sender's egress,
    /// the source leaf's uplink and each destination leaf's downlink carry
    /// one copy. The message departs once every member's port is up and
    /// serializes at the lowest bandwidth among the sender's and the
    /// members' ports — a lossless multicast moves at the pace of its
    /// slowest branch. Each copy then takes its own leg: the control lane,
    /// the incast model, the member's ingress port and the extra latency of
    /// its path.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range.
    pub fn transfer_group(
        &self,
        from: NodeId,
        tos: impl ExactSizeIterator<Item = NodeId> + Clone,
        bytes: usize,
        depart: SimTime,
        flow: FlowId,
        mut delivered: impl FnMut(usize, SimTime),
    ) {
        assert!(from < self.ports.len(), "sender {from} out of range");
        let faults = self.link_faults.lock();
        let sender = faults[from];
        let (mut down_until, mut bw_factor) = (sender.down_until, sender.bw_factor);
        for to in tos.clone() {
            assert!(to < self.ports.len(), "receiver {to} out of range");
            if to != from {
                down_until = down_until.max(faults[to].down_until);
                bw_factor = bw_factor.min(faults[to].bw_factor);
            }
        }
        drop(faults);
        let wire = Departure {
            from,
            at: depart.max(down_until),
            flow,
        };
        let ser = transfer_time(bytes, self.bandwidth * bw_factor);
        // One copy per link, reserved by the first member that crosses it;
        // a unicast crosses each link once and keeps no table.
        let (mut egress, mut uplink) = (None, None);
        let mut downlinks = vec![None; if tos.len() > 1 { self.leaves.len() } else { 0 }];
        for (member, to) in tos.enumerate() {
            if to == from {
                // Loopback: the message never touches the wire, so link
                // faults (which model the cable and switch port) do not
                // apply.
                delivered(member, depart + self.loopback_latency);
                continue;
            }
            let extra_latency = sender.extra_latency + self.link_faults.lock()[to].extra_latency;
            let spine = self.spine_path(from, to);
            if bytes <= CONTROL_BYPASS_BYTES {
                // Small control packets (RDMA Read requests, 8-byte
                // ring/credit writes, ACKs) ride a dedicated virtual lane:
                // InfiniBand's VL arbitration interleaves them with bulk
                // data at packet granularity, so they never wait behind
                // megabytes of queued payload. Their bandwidth share is
                // negligible and is not charged against the ports (or the
                // spine links).
                let hop = spine.map_or(SimDuration::ZERO, |(_, _, lat)| lat + self.switch_latency);
                delivered(
                    member,
                    wire.at + ser + self.switch_latency + hop + extra_latency,
                );
                continue;
            }
            // Cut-through switching (InfiniBand): the head of the message
            // reaches the ingress port one switch latency after it starts
            // leaving the egress, so both ports stream the same bytes in
            // parallel and serialization is paid once, not twice.
            let e_start = *egress.get_or_insert_with(|| {
                let mut port = self.ports[from].egress.lock();
                port.reserve_flow(wire.at, ser, flow, &self.flows).start
            });
            let ingress_ready = match spine {
                None => e_start + self.switch_latency,
                Some((src_leaf, dst_leaf, hop)) => {
                    // Inter-leaf: stream through the source leaf's shared
                    // uplink and the destination leaf's shared downlink —
                    // the oversubscribed resources — still cut-through, so
                    // serialization on the (faster) spine links overlaps
                    // the host-port serialization.
                    let ser_up = transfer_time(bytes, self.uplink_bandwidth);
                    let u_start = *uplink.get_or_insert_with(|| {
                        let mut link = self.leaves[src_leaf].uplink.lock();
                        let ready = e_start + self.switch_latency;
                        link.reserve_flow(ready, ser_up, flow, &self.flows).start
                    });
                    let reserved = downlinks.get(dst_leaf).copied().flatten();
                    let d_start = reserved.unwrap_or_else(|| {
                        let link = &self.leaves[dst_leaf].downlink;
                        let incast = (&self.incast_downlink, dst_leaf);
                        let d = self.reserve_bulk(link, incast, wire, u_start + hop, ser_up);
                        if let Some(copy) = downlinks.get_mut(dst_leaf) {
                            *copy = Some(d.start);
                        }
                        d.start
                    });
                    d_start + self.switch_latency
                }
            };
            let (port, incast) = (&self.ports[to].ingress, (&self.incast_ingress, to));
            let i = self.reserve_bulk(port, incast, wire, ingress_ready, ser);
            delivered(member, i.end + extra_latency);
        }
    }

    /// Reserves `resource` for one bulk copy of `wire`, ready at `ready`,
    /// for `ser`. With the incast model on, `resource` is port `port` of
    /// `incast`: `ser` is inflated by what one more distinct sender costs
    /// there (reservations that ended before the departure pruned first),
    /// and the copy is noted there until its reservation ends.
    fn reserve_bulk(
        &self,
        resource: &Mutex<FairResource>,
        (incast, port): (&IncastPorts, usize),
        wire: Departure,
        ready: SimTime,
        ser: SimDuration,
    ) -> Reservation {
        let Some(model) = &self.incast else {
            return resource
                .lock()
                .reserve_flow(ready, ser, wire.flow, &self.flows);
        };
        let mut senders = incast.senders.lock();
        let set = &mut senders[port];
        set.retain(|&(_, end)| end > wire.at);
        let known = set.iter().position(|&(n, _)| n == wire.from);
        let active = set.len() + usize::from(known.is_none());
        let ser = inflate(ser, model.penalty_floored(active, incast.knee_floor));
        let r = resource
            .lock()
            .reserve_flow(ready, ser, wire.flow, &self.flows);
        match known {
            Some(i) => set[i].1 = set[i].1.max(r.end),
            None => set.push((wire.from, r.end)),
        }
        r
    }

    /// Utilization of a node's ingress port over `[0, horizon]`.
    pub fn ingress_utilization(&self, node: NodeId, horizon: SimTime) -> f64 {
        self.ports[node].ingress.lock().utilization(horizon)
    }

    /// Utilization of a node's egress port over `[0, horizon]`.
    pub fn egress_utilization(&self, node: NodeId, horizon: SimTime) -> f64 {
        self.ports[node].egress.lock().utilization(horizon)
    }

    /// Total egress-port occupancy granted to `flow` at `node`, ever.
    pub fn egress_flow_busy(&self, node: NodeId, flow: FlowId) -> SimDuration {
        self.ports[node].egress.lock().busy_for(flow)
    }

    /// Total ingress-port occupancy granted to `flow` at `node`, ever.
    pub fn ingress_flow_busy(&self, node: NodeId, flow: FlowId) -> SimDuration {
        self.ports[node].ingress.lock().busy_for(flow)
    }

    /// The cluster-shared set of running flows this fabric arbitrates on.
    pub fn flows(&self) -> &Arc<FlowTable> {
        &self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GIB;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(n, &DeviceProfile::edr())
    }

    fn topo_fabric(n: usize, topology: Topology) -> Fabric {
        Fabric::with_topology(
            n,
            &DeviceProfile::edr(),
            Arc::new(FlowTable::new()),
            topology,
        )
    }

    #[test]
    fn incast_model_penalizes_deep_fan_in() {
        // 64 hosts, 8 per leaf, 4:1 oversubscribed; all 56 remote hosts
        // blast host 0 at once. With the incast model the last delivery
        // must land materially later than on the ideal fluid fabric.
        let n = 64;
        let msg = 1 << 20;
        let ideal = topo_fabric(n, Topology::fat_tree(8, 4.0));
        let collapsed = topo_fabric(
            n,
            Topology::fat_tree(8, 4.0).with_incast(IncastModel::new(8)),
        );
        let last = |f: &Fabric| {
            let mut last = SimTime::ZERO;
            for s in 8..n {
                last = last.max(f.transfer(s, 0, msg, SimTime::ZERO));
            }
            last
        };
        let (t_ideal, t_collapsed) = (last(&ideal), last(&collapsed));
        assert!(
            t_collapsed.as_nanos() as f64 >= t_ideal.as_nanos() as f64 * 2.0,
            "56-way incast must collapse: ideal {} ns vs incast {} ns",
            t_ideal.as_nanos(),
            t_collapsed.as_nanos()
        );
    }

    #[test]
    fn incast_model_invisible_to_serial_senders() {
        // One sender at a time per port (a phased transfer) never
        // crosses the threshold: delivery times match the ideal fabric
        // exactly.
        let n = 16;
        let msg = 1 << 20;
        let ideal = topo_fabric(n, Topology::fat_tree(4, 4.0));
        let modeled = topo_fabric(
            n,
            Topology::fat_tree(4, 4.0).with_incast(IncastModel::new(4)),
        );
        let mut depart = SimTime::ZERO;
        for s in 4..10 {
            let a = ideal.transfer(s, 0, msg, depart);
            let b = modeled.transfer(s, 0, msg, depart);
            assert_eq!(a, b, "serial sender {s} must see identical delivery");
            depart = a;
        }
    }

    #[test]
    fn incast_penalty_is_capped() {
        let m = IncastModel::new(4);
        assert_eq!(m.penalty(4), 1.0);
        assert!((m.penalty(6) - 1.5).abs() < 1e-9);
        assert!((m.penalty(1000) - IncastModel::MAX_PENALTY).abs() < 1e-9);
        // Control packets stay exempt regardless of fan-in.
        let f = topo_fabric(
            8,
            Topology::fat_tree(4, 4.0).with_incast(IncastModel::new(1)),
        );
        let ctl = f.transfer(4, 0, 64, SimTime::ZERO);
        let ctl2 = f.transfer(5, 0, 64, SimTime::ZERO);
        assert_eq!(ctl, ctl2, "bypass lane is never penalized");
    }

    #[test]
    fn single_transfer_latency() {
        let f = fabric(2);
        let p = DeviceProfile::edr();
        let delivered = f.transfer(0, 1, 64 * 1024, SimTime::ZERO);
        // Cut-through: one serialization plus the switch latency.
        let expected = (p.wire_time(64 * 1024) + p.switch_latency).as_nanos();
        assert_eq!(delivered.as_nanos(), expected);
    }

    #[test]
    fn sender_egress_serializes() {
        let f = fabric(3);
        // Node 0 sends two messages to different receivers at t=0: the
        // second waits for the first to leave the egress port.
        let d1 = f.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let d2 = f.transfer(0, 2, 1 << 20, SimTime::ZERO);
        assert!(
            d2 > d1,
            "second transfer must queue behind the first on egress"
        );
    }

    #[test]
    fn incast_caps_receiver_at_line_rate() {
        let n = 9;
        let f = fabric(n);
        let p = DeviceProfile::edr();
        let msg = 64 * 1024;
        let per_sender = 256;
        let mut last = SimTime::ZERO;
        // 8 senders blast node 0 concurrently.
        for round in 0..per_sender {
            for s in 1..n {
                // Each sender paced at its own line rate.
                let depart = SimTime::ZERO + p.wire_time(msg) * round as u64;
                last = last.max(f.transfer(s, 0, msg, depart));
            }
        }
        let total_bytes = (msg * per_sender * (n - 1)) as f64;
        let rate = total_bytes / last.as_secs_f64();
        // Receive throughput must be close to (and never above) line rate.
        assert!(
            rate <= p.payload_bandwidth * 1.001,
            "rate {} above line",
            rate / GIB
        );
        assert!(
            rate > p.payload_bandwidth * 0.95,
            "rate {} GiB/s too far below line {}",
            rate / GIB,
            p.payload_bandwidth / GIB
        );
    }

    #[test]
    fn loopback_bypasses_ports() {
        let f = fabric(2);
        let d = f.transfer(0, 0, 1 << 20, SimTime::ZERO);
        assert_eq!(
            d.as_nanos(),
            DeviceProfile::edr().loopback_latency.as_nanos()
        );
        assert_eq!(f.egress_utilization(0, SimTime::from_nanos(1)), 0.0);
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let f = fabric(4);
        let d01 = f.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let d23 = f.transfer(2, 3, 1 << 20, SimTime::ZERO);
        assert_eq!(d01, d23, "full bisection: disjoint pairs see no contention");
    }

    #[test]
    fn multicast_serializes_egress_once() {
        let f = fabric(4);
        let p = DeviceProfile::edr();
        // Unicast fan-out: 3 messages serialize on the egress.
        let mut last_unicast = SimTime::ZERO;
        for to in 1..4 {
            last_unicast = last_unicast.max(f.transfer(0, to, 1 << 20, SimTime::ZERO));
        }
        // Native multicast: one egress serialization for all 3.
        let f2 = fabric(4);
        let mut last_multicast = SimTime::ZERO;
        let members = [1, 2, 3].into_iter();
        f2.transfer_group(0, members, 1 << 20, SimTime::ZERO, FlowId::NONE, |_, at| {
            last_multicast = last_multicast.max(at)
        });
        assert!(
            last_multicast.as_nanos() * 2 < last_unicast.as_nanos(),
            "multicast {last_multicast:?} must beat unicast fan-out {last_unicast:?}"
        );
        let ser = p.wire_time(1 << 20);
        assert_eq!(
            last_multicast.as_nanos(),
            (ser + p.switch_latency).as_nanos()
        );
    }

    #[test]
    fn control_messages_bypass_the_port_queues() {
        let f = fabric(2);
        let p = DeviceProfile::edr();
        // Saturate the egress with a 16 MiB transfer...
        let bulk_done = f.transfer(0, 1, 16 << 20, SimTime::ZERO);
        // ...a tiny control packet sent right after must NOT wait for it.
        let ctrl = f.transfer(0, 1, 64, SimTime::from_nanos(10));
        assert!(
            ctrl < bulk_done,
            "control packet {ctrl:?} queued behind bulk {bulk_done:?}"
        );
        assert!(ctrl.as_nanos() < 1_000, "control latency must stay sub-microsecond");
        // A payload-sized message does queue.
        let payload = f.transfer(0, 1, 64 * 1024, SimTime::from_nanos(10));
        assert!(payload > bulk_done, "bulk messages must respect FIFO order");
        let _ = p;
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let f = fabric(2);
        let _ = f.transfer(0, 7, 64, SimTime::ZERO);
    }

    fn fat_fabric(nodes: usize, hosts_per_leaf: usize, oversub: f64) -> Fabric {
        Fabric::with_topology(
            nodes,
            &DeviceProfile::edr(),
            Arc::new(FlowTable::new()),
            Topology::fat_tree(hosts_per_leaf, oversub),
        )
    }

    #[test]
    fn fat_tree_intra_leaf_matches_single_switch() {
        let single = fabric(8);
        let fat = fat_fabric(8, 4, 4.0);
        // Nodes 0 and 1 share a leaf: latency identical to one switch.
        let a = single.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let b = fat.transfer(0, 1, 1 << 20, SimTime::ZERO);
        assert_eq!(a.as_nanos(), b.as_nanos());
    }

    #[test]
    fn fat_tree_inter_leaf_pays_the_spine_hop() {
        let fat = fat_fabric(8, 4, 1.0);
        let intra = fat.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let inter = fat.transfer(2, 5, 1 << 20, SimTime::ZERO);
        // Full bisection: only the extra hop latency separates the two.
        assert!(inter > intra, "crossing leaves must cost extra latency");
        let delta = (inter - intra).as_nanos();
        assert!(
            delta <= 2_000,
            "full-bisection spine must add latency only, got +{delta} ns"
        );
    }

    #[test]
    fn oversubscribed_uplink_is_the_bottleneck() {
        // 8 hosts per leaf, 4:1 oversubscribed: the leaf uplink carries
        // only 2 host-links' worth, so 8 concurrent inter-leaf senders
        // on one leaf must be capped near the uplink's aggregate rate —
        // well below the 8 host-links the same batch gets at full
        // bisection.
        let p = DeviceProfile::edr();
        let msg = 8 << 20;
        let run = |oversub: f64| {
            let f = fat_fabric(16, 8, oversub);
            let mut last = SimTime::ZERO;
            for s in 0..8 {
                last = last.max(f.transfer(s, 8 + s, msg, SimTime::ZERO));
            }
            (8 * msg) as f64 / last.as_secs_f64()
        };
        let full_rate = run(1.0);
        let over_rate = run(4.0);
        let uplink = Topology::fat_tree(8, 4.0).uplink_bandwidth(p.payload_bandwidth);
        assert!(
            over_rate <= uplink * 1.05,
            "aggregate rate {:.2} GiB/s must not beat the uplink {:.2} GiB/s",
            over_rate / GIB,
            uplink / GIB
        );
        assert!(
            over_rate >= uplink * 0.6,
            "uplink badly underutilized: {:.2} of {:.2} GiB/s",
            over_rate / GIB,
            uplink / GIB
        );
        assert!(
            full_rate > over_rate * 1.8,
            "full bisection ({:.2} GiB/s) must clearly beat 4:1 ({:.2} GiB/s)",
            full_rate / GIB,
            over_rate / GIB
        );
    }

    #[test]
    fn fat_tree_control_packets_bypass_spine_queues() {
        let f = fat_fabric(8, 4, 4.0);
        // Saturate the uplink with bulk inter-leaf traffic...
        let bulk = f.transfer(0, 4, 16 << 20, SimTime::ZERO);
        // ...an inter-leaf control packet does not wait for it.
        let ctrl = f.transfer(1, 5, 64, SimTime::from_nanos(10));
        assert!(ctrl < bulk, "control lane must bypass the spine queue");
    }

    #[test]
    fn topology_geometry_and_description() {
        let t = Topology::fat_tree(4, 4.0);
        assert_eq!(t.leaf_of(0), 0);
        assert_eq!(t.leaf_of(3), 0);
        assert_eq!(t.leaf_of(4), 1);
        assert_eq!(t.leaves(9), 3, "partial leaves round up");
        let desc = t.describe(16, DeviceProfile::edr().payload_bandwidth);
        assert!(desc.contains("fat tree"));
        assert!(desc.contains("4 leaf switches"));
        let single = Topology::SingleSwitch.describe(16, DeviceProfile::edr().payload_bandwidth);
        assert!(single.contains("single non-blocking switch"));
    }

    #[test]
    fn downed_port_stalls_traffic_until_recovery() {
        let f = fabric(3);
        let healthy = f.transfer(0, 1, 64 * 1024, SimTime::ZERO);
        let down_until = SimTime::ZERO + crate::time::SimDuration::from_micros(500);
        f.set_port_down_until(1, down_until);
        // Lossless link: traffic into the downed port is deferred, not
        // dropped, and resumes exactly at recovery.
        let stalled = f.transfer(2, 1, 64 * 1024, SimTime::ZERO);
        assert!(stalled >= down_until, "transfer must wait out the flap");
        assert_eq!(
            (stalled - down_until).as_nanos(),
            healthy.as_nanos(),
            "post-recovery latency matches the healthy path"
        );
        // A disjoint pair (avoiding the ports the stalled transfer holds)
        // is unaffected.
        let depart = SimTime::ZERO + crate::time::SimDuration::from_micros(10);
        let bystander = f.transfer(0, 2, 64 * 1024, depart);
        assert_eq!((bystander - depart).as_nanos(), healthy.as_nanos());
    }

    #[test]
    fn degraded_port_stretches_serialization() {
        let f = fabric(2);
        let healthy = f.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let f2 = fabric(2);
        f2.set_degradation(1, 0.5, crate::time::SimDuration::from_micros(3));
        let degraded = f2.transfer(0, 1, 1 << 20, SimTime::ZERO);
        let p = DeviceProfile::edr();
        let expected = (p.wire_time(1 << 20) * 2
            + p.switch_latency
            + crate::time::SimDuration::from_micros(3))
        .as_nanos();
        assert_eq!(degraded.as_nanos(), expected);
        assert!(degraded > healthy);
        // clear_degradation restores the healthy latency.
        f2.clear_degradation(1);
        let later = SimTime::ZERO + crate::time::SimDuration::from_millis(100);
        let restored = f2.transfer(0, 1, 1 << 20, later);
        assert_eq!((restored - later).as_nanos(), healthy.as_nanos());
    }

    /// Senders of the fan-in in [`UNICAST`]: six nodes, everyone sends one
    /// message to node 0 at t = 0, node 2 a second one. On the fat tree
    /// (three leaves of two hosts) node 1 shares node 0's leaf and nodes
    /// 2–5 cross the spine.
    const FAN_IN: [NodeId; 6] = [1, 2, 3, 4, 5, 2];

    /// Delivery times in ns of the [`FAN_IN`] messages sent one at a time
    /// with `transfer_flow`, per topology, link condition and message size:
    /// the unicast timing every change to the transfer path must keep. The
    /// control lane (64 B), the incast penalty (the fat tree's later
    /// senders) and all three link faults show in it.
    #[rustfmt::skip]
    const UNICAST: [(&str, &str, usize, [u64; 6]); 24] = [
        ("single switch", "healthy", 64, [235, 235, 235, 235, 235, 235]),
        ("single switch", "healthy", 4096, [551, 872, 1193, 1514, 1835, 2156]),
        ("single switch", "healthy", 1048576, [82294, 164358, 246422, 328486, 410550, 492614]),
        ("single switch", "sender down", 64, [235, 20235, 235, 235, 235, 20235]),
        ("single switch", "sender down", 4096, [551, 20551, 20872, 21193, 21514, 21835]),
        ("single switch", "sender down", 1048576, [82294, 164358, 246422, 328486, 410550, 492614]),
        ("single switch", "receiver down", 64, [20235, 20235, 20235, 20235, 20235, 20235]),
        ("single switch", "receiver down", 4096, [20551, 20872, 21193, 21514, 21835, 22156]),
        ("single switch", "receiver down", 1048576, [102294, 184358, 266422, 348486, 430550, 512614]),
        ("single switch", "receiver degraded", 64, [3240, 3240, 3240, 3240, 3240, 3240]),
        ("single switch", "receiver degraded", 4096, [3871, 4512, 5153, 5794, 6435, 7076]),
        ("single switch", "receiver degraded", 1048576, [167358, 331486, 495614, 659742, 823870, 987998]),
        ("fat tree with incast", "healthy", 64, [235, 965, 965, 965, 965, 965]),
        ("fat tree with incast", "healthy", 4096, [551, 1281, 1763, 2405, 3208, 4011]),
        ("fat tree with incast", "healthy", 1048576, [82294, 164358, 287454, 451582, 656742, 861902]),
        ("fat tree with incast", "sender down", 64, [235, 20965, 965, 965, 965, 20965]),
        ("fat tree with incast", "sender down", 4096, [551, 21281, 21602, 22084, 22726, 23368]),
        ("fat tree with incast", "sender down", 1048576, [82294, 164358, 287454, 451582, 656742, 861902]),
        ("fat tree with incast", "receiver down", 64, [20235, 20965, 20965, 20965, 20965, 20965]),
        ("fat tree with incast", "receiver down", 4096, [20551, 21281, 21763, 22405, 23208, 24011]),
        ("fat tree with incast", "receiver down", 1048576, [102294, 184358, 307454, 471582, 676742, 881902]),
        ("fat tree with incast", "receiver degraded", 64, [3240, 3970, 3970, 3970, 3970, 3970]),
        ("fat tree with incast", "receiver degraded", 4096, [3871, 4601, 5563, 6845, 8448, 10051]),
        ("fat tree with incast", "receiver degraded", 1048576, [167358, 331486, 577678, 905934, 1316254, 1726574]),
    ];

    /// A six-node fabric of `topology` with `link`'s fault in place: node 2
    /// (a sender) or node 0 (the receiver) down for 20 µs, or node 0 at
    /// half bandwidth and 3 µs extra latency.
    fn table_fabric(topology: &str, link: &str) -> Fabric {
        let topology = match topology {
            "single switch" => Topology::SingleSwitch,
            _ => Topology::fat_tree(2, 2.0).with_incast(IncastModel::new(2)),
        };
        let f = topo_fabric(6, topology);
        let until = SimTime::ZERO + SimDuration::from_micros(20);
        match link {
            "healthy" => {}
            "sender down" => f.set_port_down_until(2, until),
            "receiver down" => f.set_port_down_until(0, until),
            _ => f.set_degradation(0, 0.5, SimDuration::from_micros(3)),
        }
        f
    }

    /// `transfer_group` to `tos`, its deliveries in member order.
    fn multicast(f: &Fabric, from: NodeId, tos: &[NodeId], bytes: usize) -> Vec<SimTime> {
        let mut at = Vec::new();
        let members = tos.iter().copied();
        f.transfer_group(
            from,
            members,
            bytes,
            SimTime::ZERO,
            FlowId::NONE,
            |member, t| {
                assert_eq!(member, at.len(), "deliveries come in member order");
                at.push(t)
            },
        );
        at
    }

    #[test]
    fn unicast_delivery_table_holds_and_a_one_member_multicast_matches_it() {
        for (topology, link, bytes, want) in UNICAST {
            let row = format!("{topology}, {link}, {bytes} B");
            let f = table_fabric(topology, link);
            let unicast = FAN_IN.map(|from| f.transfer(from, 0, bytes, SimTime::ZERO).as_nanos());
            assert_eq!(unicast, want, "{row}: unicast");
            let f = table_fabric(topology, link);
            let one = FAN_IN.map(|from| multicast(&f, from, &[0], bytes)[0].as_nanos());
            assert_eq!(one, want, "{row}: one-member multicast");
        }
    }

    /// A multicast datagram of at most [`CONTROL_BYPASS_BYTES`] rides the
    /// control lane to every member, as the same datagram sent unicast
    /// does, instead of queueing behind bulk payload on the egress.
    #[test]
    fn a_small_multicast_rides_the_control_lane_past_queued_bulk_data() {
        let f = fabric(4);
        let bulk_done = f.transfer(0, 1, 16 << 20, SimTime::ZERO);
        let depart = SimTime::from_nanos(10);
        let mut at = Vec::new();
        let members = [1, 2, 3].into_iter();
        f.transfer_group(0, members, 64, depart, FlowId::NONE, |_, t| at.push(t));
        let unicast: Vec<_> = (1..4).map(|to| f.transfer(0, to, 64, depart)).collect();
        assert_eq!(at, unicast);
        assert!(
            at.iter().all(|&t| t < bulk_done),
            "{at:?} behind {bulk_done:?}"
        );
    }

    /// Each copy of a multicast is ordinary traffic on its member's ports:
    /// a copy lands exactly when the same message sent unicast to that
    /// member would, penalized by the incast model on the downlink and the
    /// ingress port, and counts toward the penalty of whatever follows.
    #[test]
    fn multicast_copies_count_toward_ingress_and_downlink_incast() {
        let topology = Topology::fat_tree(2, 2.0).with_incast(IncastModel::new(2));
        let (bytes, follower) = (1 << 20, 5);
        let (copies, unicasts) = (topo_fabric(6, topology.clone()), topo_fabric(6, topology));
        for from in [2, 3, 4] {
            let both = multicast(&copies, from, &[0, 1], bytes);
            assert_eq!(
                both[0],
                unicasts.transfer(from, 0, bytes, SimTime::ZERO),
                "{from}"
            );
        }
        let after_copies = copies.transfer(follower, 0, bytes, SimTime::ZERO);
        let after_unicasts = unicasts.transfer(follower, 0, bytes, SimTime::ZERO);
        assert_eq!(after_copies, after_unicasts);
        // The penalty bites: without the model the same traffic lands sooner.
        let ideal = topo_fabric(6, Topology::fat_tree(2, 2.0));
        for from in [2, 3, 4] {
            multicast(&ideal, from, &[0, 1], bytes);
        }
        assert!(ideal.transfer(follower, 0, bytes, SimTime::ZERO) < after_copies);
        let (ingress, downlink) = (
            copies.incast_ingress.senders.lock(),
            copies.incast_downlink.senders.lock(),
        );
        let noted = |set: &Vec<(NodeId, SimTime)>| set.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(
            noted(&ingress[1]),
            [2, 3, 4],
            "every member's port counts the copies"
        );
        assert_eq!(
            noted(&downlink[0]),
            [2, 3, 4, 5],
            "one copy per sender on the leaf"
        );
    }

    /// A lossless multicast moves at its slowest branch: a degraded or
    /// downed member's copy lands exactly when a unicast to it would, and
    /// the healthy members' copies leave with it, at its pace, without its
    /// extra latency.
    #[test]
    fn a_degraded_or_downed_member_paces_the_multicast_as_it_paces_unicast() {
        let (bytes, lag) = (1 << 20, SimDuration::from_micros(3));
        let until = SimTime::ZERO + SimDuration::from_micros(500);
        for downed in [false, true] {
            let [f, alone] = [fabric(4), fabric(4)];
            for f in [&f, &alone] {
                match downed {
                    true => f.set_port_down_until(2, until),
                    false => f.set_degradation(2, 0.5, lag),
                }
            }
            let unicast = alone.transfer(0, 2, bytes, SimTime::ZERO);
            let healthy = if downed { unicast } else { unicast - lag };
            assert!(healthy > fabric(4).transfer(0, 1, bytes, SimTime::ZERO));
            assert_eq!(
                multicast(&f, 0, &[1, 2, 3], bytes),
                [healthy, unicast, healthy]
            );
        }
    }
}
