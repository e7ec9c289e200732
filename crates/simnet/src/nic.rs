//! The NIC model: per-work-request processing costs and the Queue Pair
//! context cache.
//!
//! Each node owns one [`NicModel`]. Every work request the node issues or
//! receives occupies the NIC's processing pipeline (a FIFO [`Resource`](crate::Resource)
//! bounding the message rate) and touches the context of the Queue Pair it
//! belongs to. Contexts live in a fixed-size LRU cache; a miss pays a PCIe
//! round trip. This is the mechanism behind the paper's Figure 11 (effect of
//! many Queue Pairs) and the FDR-vs-EDR scaling difference in Figure 10:
//! the FDR-generation NIC caches far fewer QP contexts, so the Θ(n)-QP
//! algorithms degrade as the cluster grows while the Θ(1)/Θ(t)-QP
//! Unreliable Datagram designs do not.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_obs::{names, Counter, EventKind, Labels, Obs, HW_TRACK};

use crate::lru::LruSet;
use crate::profile::DeviceProfile;
use crate::resource::Reservation;
use crate::time::{SimDuration, SimTime};
use crate::KeyMap;

/// Identity of a bandwidth-sharing flow (one concurrent query / exchange).
///
/// Flows exist so that co-running queries share the NIC pipeline and the
/// fabric ports *equally* instead of by unspecified FIFO interleaving. [`FlowId::NONE`] marks untagged traffic, which always takes
/// the plain FIFO path — byte-identical to the pre-flow simulator.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Untagged traffic: never paced, never accounted to a flow.
    pub const NONE: FlowId = FlowId(u32::MAX);

    /// Whether this id names a real flow (anything but [`FlowId::NONE`]).
    pub fn is_tagged(self) -> bool {
        self != FlowId::NONE
    }
}

/// The cluster-wide set of running flows, shared by every [`NicModel`]
/// pipeline and every fabric port.
///
/// A flow that is not running — or [`FlowId::NONE`] — is treated as
/// untagged: its reservations take the plain FIFO path. Starting a flow is
/// what switches a [`FairResource`] into fair mode, so a cluster that
/// never starts one is byte-identical to one without flows.
#[derive(Debug, Default)]
pub struct FlowTable {
    running: Mutex<BTreeSet<u32>>,
}

impl FlowTable {
    /// Creates an empty table (all traffic untagged).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts `flow`: while contended, it gets an equal share of every
    /// resource with the other running flows.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is [`FlowId::NONE`].
    pub fn start(&self, flow: FlowId) {
        assert!(flow.is_tagged(), "cannot start the untagged flow");
        self.running.lock().insert(flow.0);
    }

    /// Stops `flow`; its future reservations are untagged.
    pub fn finish(&self, flow: FlowId) {
        self.running.lock().remove(&flow.0);
    }

    /// How many flows are running, `flow` among them, or `None` if `flow`
    /// is untagged or not running (plain FIFO path).
    pub fn running_with(&self, flow: FlowId) -> Option<u64> {
        let running = self.running.lock();
        running.contains(&flow.0).then_some(running.len() as u64)
    }

    /// Whether no flow is running.
    pub fn is_empty(&self) -> bool {
        self.running.lock().is_empty()
    }
}

/// Bound on remembered donation gaps; the oldest gap is dropped beyond this.
const MAX_GAPS: usize = 32;

/// Per-flow pacing and accounting state inside a [`FairResource`].
#[derive(Debug, Default, Clone, Copy)]
struct FlowLedger {
    /// The flow's virtual-clock entitlement: the earliest instant its next
    /// reservation may start while the resource is contended.
    fair_next: SimTime,
    /// When the flow's latest reservation ends. Together with
    /// `fair_next` this is the activity marker: a flow contends while
    /// its virtual clock is ahead of the current arrival **or** it is
    /// still being served. An under-share backlogged flow has a frozen
    /// clock in the past — `last_end` is what keeps its rivals paced.
    last_end: SimTime,
    /// Total occupancy this flow has been granted, ever.
    busy: SimDuration,
}

/// A FIFO-serialized resource with optional fair pacing.
///
/// Untagged reservations ([`FairResource::reserve`], or a flow that is not
/// running) behave exactly like [`crate::Resource`]: the eager FIFO ledger
/// commits `start = max(at, free_at)` immediately. Runs that never start a
/// flow are therefore byte-identical to the plain resource — the property
/// the scheduler's trace-identity test pins.
///
/// Tagged reservations implement an eager approximation of start-time fair
/// queueing. Each flow carries a virtual clock `fair_next` advanced by
/// `duration × running flows` per reservation, so each of `n` running
/// flows is entitled to `1/n` of the bandwidth.
/// A flow ahead of its entitlement is *paced*: its reservation is placed at
/// `fair_next` and the skipped interval is donated as a gap that under-share
/// flows back-fill. Three guards keep the policy work-conserving:
///
/// * pacing applies only while **contended** — some other flow has reserved
///   since this flow's last reservation. A solo flow runs at line rate no
///   matter how many idle flows are running.
/// * `fair_next` is capped at `free_at + advance`, so a flow can never be
///   deferred more than one quantum past the backlog front (no
///   starvation).
/// * when the resource is idle at arrival (`at ≥ free_at`) the reservation
///   is granted immediately.
#[derive(Debug, Default)]
pub struct FairResource {
    free_at: SimTime,
    busy_total: SimDuration,
    /// Donated idle intervals `(from, to)`, sorted by start time. Pacing
    /// gaps always open at the current backlog front, so appends keep the
    /// list sorted; splits from back-fills re-insert in place.
    gaps: Vec<(SimTime, SimTime)>,
    flows: BTreeMap<u32, FlowLedger>,
    /// Every reservation's interval since [`FairResource::record`]; `None`
    /// (the default) keeps nothing.
    log: Option<Vec<(SimTime, SimTime)>>,
}

impl FairResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps every reservation's interval from now on (`diag --timeline`);
    /// what the resource grants is unchanged.
    pub fn record(&mut self) {
        self.log.get_or_insert_with(Vec::new);
    }

    /// The intervals kept since [`FairResource::record`].
    pub fn recorded(&self) -> &[(SimTime, SimTime)] {
        self.log.as_deref().unwrap_or_default()
    }

    fn logged(&mut self, r: Reservation) -> Reservation {
        if let Some(log) = &mut self.log {
            log.push((r.start, r.end));
        }
        r
    }

    /// Plain FIFO reservation — identical arithmetic to
    /// [`crate::Resource::reserve`].
    pub fn reserve(&mut self, at: SimTime, duration: SimDuration) -> Reservation {
        let start = at.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy_total += duration;
        self.logged(Reservation { start, end })
    }

    /// Reserves `duration` for `flow`, pacing it to its equal share of the
    /// resource while `table` runs it (plain FIFO otherwise).
    pub fn reserve_flow(
        &mut self,
        at: SimTime,
        duration: SimDuration,
        flow: FlowId,
        table: &FlowTable,
    ) -> Reservation {
        let Some(flows) = table.running_with(flow) else {
            return self.reserve(at, duration);
        };
        let ledger = self.flows.get(&flow.0).copied().unwrap_or_default();
        // Contended iff some other flow is still "active": its virtual
        // clock has not fallen behind this arrival, or it is still being
        // served. Idle flows freeze their clock, so they stop contending
        // once real time passes both markers.
        let contended = self
            .flows
            .iter()
            .any(|(&id, l)| id != flow.0 && (l.fair_next >= at || l.last_end >= at));
        // One quantum: how far this reservation advances the flow's
        // virtual clock. Integer-only so every platform agrees.
        let adv = SimDuration::from_nanos(duration.as_nanos().saturating_mul(flows));
        let start;
        if !contended {
            // No co-runner since our last reservation: plain FIFO —
            // idle resources grant immediately (work conserving) and
            // this path is bit-identical to [`Self::reserve`].
            start = at.max(self.free_at);
            self.free_at = start + duration;
        } else {
            let earliest = at.max(ledger.fair_next);
            if earliest > self.free_at {
                // Over its share: defer to the entitlement and donate
                // the skipped interval to under-share flows. This
                // applies even when the resource is idle at arrival —
                // a backlogged flow that re-arrives exactly at the
                // FIFO tail must not dodge its pacing, or shares track
                // quantum size instead of an equal share. Donation starts at
                // the arrival: the kernel dispatches in timestamp
                // order, so no later reservation can start before it.
                self.push_gap(self.free_at.max(at), earliest);
                start = earliest;
                self.free_at = start + duration;
            } else if let Some(s) = self.take_gap(earliest, duration) {
                // Under its share: claim a previously donated interval.
                start = s;
            } else {
                start = at.max(self.free_at);
                self.free_at = start + duration;
            }
        }
        let end = start + duration;
        let fair_next = if contended {
            // Arrival-based virtual clock (not start-based: the flow's
            // entitlement must not be penalized for queueing delay), with
            // the debt cap that bounds deferral to one quantum past the
            // backlog front.
            (ledger.fair_next.max(at) + adv).min(self.free_at + adv)
        } else {
            // Uncontended stretches accrue neither credit nor debt.
            self.free_at
        };
        let entry = self.flows.entry(flow.0).or_default();
        entry.fair_next = fair_next;
        entry.last_end = entry.last_end.max(end);
        entry.busy += duration;
        self.busy_total += duration;
        self.logged(Reservation { start, end })
    }

    fn push_gap(&mut self, from: SimTime, to: SimTime) {
        if to <= from {
            return;
        }
        self.gaps.push((from, to));
        if self.gaps.len() > MAX_GAPS {
            self.gaps.remove(0);
        }
    }

    /// Claims the earliest `duration`-sized slice of a donated gap that
    /// starts at or after `earliest`, splitting the gap around it.
    fn take_gap(&mut self, earliest: SimTime, duration: SimDuration) -> Option<SimTime> {
        for i in 0..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            let s = gs.max(earliest);
            if s + duration <= ge {
                self.gaps.remove(i);
                let mut j = i;
                if s > gs {
                    self.gaps.insert(j, (gs, s));
                    j += 1;
                }
                if s + duration < ge {
                    self.gaps.insert(j, (s + duration, ge));
                }
                return Some(s);
            }
        }
        None
    }

    /// The earliest time a new FIFO reservation could start.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time the resource has been reserved for, ever.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Total occupancy granted to `flow`, ever (zero for untagged flows —
    /// plain reservations are not attributed).
    pub fn busy_for(&self, flow: FlowId) -> SimDuration {
        self.flows
            .get(&flow.0)
            .map(|l| l.busy)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Utilization of the resource over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total.as_secs_f64() / horizon.as_secs_f64()
    }
}

/// The kind of work request being processed, determining its base cost.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum WrKind {
    /// A Send on a Reliable Connection QP.
    SendRc,
    /// A Send on an Unreliable Datagram QP.
    SendUd,
    /// An RDMA Read request (issuing side).
    Read,
    /// An RDMA Write request (issuing side).
    Write,
    /// Matching an inbound message to a posted Receive.
    RecvMatch,
    /// Serving an inbound RDMA Read/Write at the passive side (no CPU, but
    /// NIC pipeline occupancy and a QP-context touch).
    RemoteDma,
}

impl WrKind {
    /// Every kind, in declaration order: `kind as usize` indexes it.
    pub const ALL: [WrKind; 6] = [
        WrKind::SendRc,
        WrKind::SendUd,
        WrKind::Read,
        WrKind::Write,
        WrKind::RecvMatch,
        WrKind::RemoteDma,
    ];
}

/// Legacy snapshot of one NIC's counters.
///
/// Since the unified observability layer landed this is a *view* built
/// from the shared [`rshuffle_obs::MetricsRegistry`]; the NIC no longer
/// keeps private counters. Prefer reading the registry directly (series
/// `nic.work_requests` / `nic.qp_cache_hits` / `nic.qp_cache_misses`
/// labelled by node).
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Work requests processed, by rough category.
    pub work_requests: u64,
    /// QP context cache hits.
    pub qp_cache_hits: u64,
    /// QP context cache misses.
    pub qp_cache_misses: u64,
}

/// Cached registry handles so the per-work-request hot path is three
/// relaxed atomic increments, no registry lookup.
struct NicObs {
    obs: Arc<Obs>,
    node: u32,
    work_requests: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Each work request since [`NicModel::record`]: when it reached the
    /// NIC, its kind, and whether it missed the QP-context cache. `None`
    /// (the default) keeps nothing.
    requests: Option<Vec<(SimTime, WrKind, bool)>>,
}

impl NicObs {
    fn new(obs: Arc<Obs>, node: u32) -> Self {
        let labels = Labels::node(node);
        NicObs {
            work_requests: obs.metrics.counter(names::NIC_WORK_REQUESTS, labels),
            cache_hits: obs.metrics.counter(names::NIC_QP_CACHE_HITS, labels),
            cache_misses: obs.metrics.counter(names::NIC_QP_CACHE_MISSES, labels),
            requests: None,
            obs,
            node,
        }
    }
}

/// Doorbell coalescing window: a sender-side work request arriving at the
/// NIC within this long of the previous one on the *same* QP context rides
/// the earlier doorbell (the driver chains WQEs and rings once), paying
/// [`DeviceProfile::wr_nic_batched`] instead of the full per-doorbell
/// cost. Receive matching is never coalesced.
const DOORBELL_WINDOW: SimDuration = SimDuration::from_nanos(600);

/// Timing model of one node's RDMA NIC.
pub struct NicModel {
    pipe: Mutex<FairResource>,
    flows: Arc<FlowTable>,
    cache: Mutex<LruSet<u64>>,
    obs: Mutex<NicObs>,
    wr_nic: SimDuration,
    wr_recv_match: SimDuration,
    qp_cache_miss: SimDuration,
    /// Doorbell coalescing (see [`DOORBELL_WINDOW`]): the arrival time of
    /// the last *sender-side* work request per QP context. Lookup/insert
    /// only — iteration order is never observed, so the map stays
    /// deterministic.
    doorbell: Mutex<KeyMap<u64, SimTime>>,
    wr_nic_batched: SimDuration,
}

impl NicModel {
    /// Creates a NIC with the cost constants of `profile`, reporting
    /// into a private observability context and with a private (empty)
    /// flow table (see [`NicModel::with_flows`] for the shared-cluster
    /// form).
    pub fn new(profile: &DeviceProfile) -> Self {
        Self::with_flows(profile, Obs::new(), 0, Arc::new(FlowTable::new()))
    }

    /// Creates a NIC that records into `obs` as node `node` and arbitrates
    /// its pipeline across the cluster-shared running `flows`.
    pub fn with_flows(
        profile: &DeviceProfile,
        obs: Arc<Obs>,
        node: u32,
        flows: Arc<FlowTable>,
    ) -> Self {
        NicModel {
            pipe: Mutex::new(FairResource::new()),
            flows,
            cache: Mutex::new(LruSet::new(profile.qp_cache_entries)),
            obs: Mutex::new(NicObs::new(obs, node)),
            wr_nic: profile.wr_nic,
            wr_recv_match: profile.wr_recv_match,
            qp_cache_miss: profile.qp_cache_miss,
            doorbell: Mutex::new(KeyMap::default()),
            wr_nic_batched: profile.wr_nic_batched,
        }
    }

    /// Processes an untagged work request on QP context `qp_ctx` no earlier
    /// than `at` (see [`NicModel::process_flow`]).
    pub fn process(&self, at: SimTime, qp_ctx: u64, kind: WrKind) -> SimTime {
        self.process_flow(at, qp_ctx, kind, FlowId::NONE)
    }

    /// Processes a work request belonging to `flow` on QP context `qp_ctx`
    /// no earlier than `at`. Returns the time the NIC finishes its local
    /// processing (pipeline occupancy plus any context-cache miss penalty).
    /// The pipeline is fair across running flows; untagged or finished
    /// flows take the plain FIFO path.
    pub fn process_flow(&self, at: SimTime, qp_ctx: u64, kind: WrKind, flow: FlowId) -> SimTime {
        let base = match kind {
            WrKind::SendRc | WrKind::SendUd | WrKind::Read | WrKind::Write => {
                // Doorbell coalescing: a sender-side WR arriving hot on the
                // heels of the previous one on the same QP context rides
                // that doorbell (the driver chains WQEs), paying only the
                // amortized fetch cost. Receive matching and passive DMA
                // service never ring a doorbell.
                let mut doorbell = self.doorbell.lock();
                let batched = doorbell
                    .insert(qp_ctx, at)
                    .is_some_and(|last| at <= last + DOORBELL_WINDOW);
                if batched {
                    self.wr_nic_batched
                } else {
                    self.wr_nic
                }
            }
            WrKind::RemoteDma => self.wr_nic,
            WrKind::RecvMatch => self.wr_recv_match,
        };
        let hit = self.cache.lock().touch(qp_ctx);
        let cost = if hit { base } else { base + self.qp_cache_miss };
        {
            let mut o = self.obs.lock();
            o.work_requests.inc();
            if let Some(requests) = &mut o.requests {
                requests.push((at, kind, !hit));
            }
            if hit {
                o.cache_hits.inc();
            } else {
                o.cache_misses.inc();
                // The thrash signal behind Figure 11: each miss is a PCIe
                // round trip fetching the QP context from host memory.
                o.obs.recorder.event(
                    o.node,
                    HW_TRACK,
                    at.as_nanos(),
                    EventKind::QpCacheMiss,
                    qp_ctx,
                );
            }
        }
        self.pipe
            .lock()
            .reserve_flow(at, cost, flow, &self.flows)
            .end
    }

    /// Keeps the pipeline's reservations ([`FairResource::record`]) and
    /// every work request's arrival, kind and cache miss from now on.
    pub fn record(&self) {
        self.pipe.lock().record();
        self.obs.lock().requests.get_or_insert_with(Vec::new);
    }

    /// Each work request since [`NicModel::record`]: `(arrival, kind, missed
    /// the QP-context cache)`, in arrival order at the NIC.
    pub fn recorded_requests(&self) -> Vec<(SimTime, WrKind, bool)> {
        self.obs.lock().requests.clone().unwrap_or_default()
    }

    /// The pipeline's busy intervals since [`NicModel::record`].
    pub fn recorded(&self) -> Vec<(SimTime, SimTime)> {
        self.pipe.lock().recorded().to_vec()
    }

    /// Total pipeline occupancy granted to `flow`, ever.
    pub fn flow_busy(&self, flow: FlowId) -> SimDuration {
        self.pipe.lock().busy_for(flow)
    }

    /// Total pipeline occupancy across all traffic, ever.
    pub fn busy_total(&self) -> SimDuration {
        self.pipe.lock().busy_total()
    }

    /// Snapshot of the NIC counters (view over the unified registry).
    pub fn stats(&self) -> NicStats {
        let o = self.obs.lock();
        NicStats {
            work_requests: o.work_requests.get(),
            qp_cache_hits: o.cache_hits.get(),
            qp_cache_misses: o.cache_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> NicModel {
        NicModel::new(&DeviceProfile::fdr())
    }

    /// Work requests are kept, with their kind and cache miss, only once
    /// recording is on, and keeping them leaves every completion time as it
    /// was.
    #[test]
    fn recording_keeps_work_requests_by_kind_and_times_nothing() {
        let (plain, recording) = (nic(), nic());
        recording.process(SimTime::ZERO, 1, WrKind::Read);
        assert_eq!(recording.recorded_requests(), [], "not recording yet");
        plain.process(SimTime::ZERO, 1, WrKind::Read);
        recording.record();
        let at = SimTime::from_nanos(10_000);
        for kind in [WrKind::Read, WrKind::RemoteDma, WrKind::Read] {
            assert_eq!(plain.process(at, 2, kind), recording.process(at, 2, kind));
        }
        let kept = [
            (WrKind::Read, true),
            (WrKind::RemoteDma, false),
            (WrKind::Read, false),
        ];
        assert_eq!(
            recording.recorded_requests(),
            kept.map(|(k, miss)| (at, k, miss))
        );
        assert_eq!(WrKind::ALL[WrKind::RemoteDma as usize], WrKind::RemoteDma);
    }

    #[test]
    fn cached_qp_costs_base_time() {
        let n = nic();
        let p = DeviceProfile::fdr();
        let t1 = n.process(SimTime::ZERO, 7, WrKind::SendRc); // Miss (cold).
        let t2 = n.process(t1, 7, WrKind::SendRc); // Hit.
        assert_eq!((t2 - t1).as_nanos(), p.wr_nic.as_nanos());
        assert_eq!(t1.as_nanos(), (p.wr_nic + p.qp_cache_miss).as_nanos());
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let p = DeviceProfile::fdr();
        let n = nic();
        let qps = (p.qp_cache_entries * 2) as u64;
        // Round-robin over 2× the cache capacity: every touch misses.
        let mut t = SimTime::ZERO;
        for i in 0..qps * 3 {
            t = n.process(t, i % qps, WrKind::SendRc);
        }
        let s = n.stats();
        assert_eq!(s.qp_cache_hits, 0, "LRU thrash must never hit");
        assert_eq!(s.qp_cache_misses, qps * 3);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let n = nic();
        let mut t = SimTime::ZERO;
        for round in 0..10u64 {
            for qp in 0..8u64 {
                t = n.process(t, qp, WrKind::SendRc);
                let _ = round;
            }
        }
        let s = n.stats();
        assert_eq!(s.qp_cache_misses, 8, "only cold misses");
        assert_eq!(s.qp_cache_hits, 72);
    }

    #[test]
    fn doorbell_window_batches_back_to_back_sends() {
        let n = nic();
        let p = DeviceProfile::fdr();
        // Cold-warm the context so only pipeline occupancy remains.
        n.process(SimTime::ZERO, 3, WrKind::SendRc);
        // Fresh doorbell well past the window: full per-WR cost.
        let t0 = SimTime::from_nanos(10_000);
        let a = n.process(t0, 3, WrKind::SendRc);
        assert_eq!((a - t0).as_nanos(), p.wr_nic.as_nanos());
        // A WR arriving within the window of the previous *arrival* rides
        // that doorbell and pays only the batched cost.
        let b = n.process(t0 + SimDuration::from_nanos(100), 3, WrKind::SendRc);
        assert_eq!((b - a).as_nanos(), p.wr_nic_batched.as_nanos());
        // Far outside the window: a new doorbell at full cost again.
        let late = b + DOORBELL_WINDOW + SimDuration::from_nanos(1);
        let t2 = n.process(late, 3, WrKind::SendRc);
        assert_eq!((t2 - late).as_nanos(), p.wr_nic.as_nanos());
    }

    #[test]
    fn doorbell_window_never_batches_recv_match() {
        let n = nic();
        let p = DeviceProfile::fdr();
        let warm = n.process(SimTime::ZERO, 4, WrKind::RecvMatch);
        // Back-to-back receive matching keeps the full per-WR cost: there
        // is no doorbell on the receive path.
        let t1 = n.process(warm, 4, WrKind::RecvMatch);
        assert_eq!((t1 - warm).as_nanos(), p.wr_recv_match.as_nanos());
    }

    #[test]
    fn pipeline_serializes_requests() {
        let n = nic();
        let p = DeviceProfile::fdr();
        // Warm the QP context first so only pipeline occupancy remains.
        let warm = n.process(SimTime::ZERO, 1, WrKind::RecvMatch);
        // Two requests at the same instant: the second queues.
        let t1 = n.process(warm, 1, WrKind::RecvMatch);
        let t2 = n.process(warm, 1, WrKind::RecvMatch);
        assert_eq!((t1 - warm).as_nanos(), p.wr_recv_match.as_nanos());
        assert_eq!((t2 - warm).as_nanos(), p.wr_recv_match.as_nanos() * 2);
    }

    #[test]
    fn untagged_fair_resource_matches_plain_resource() {
        use crate::resource::Resource;
        // Any arrival pattern: the untagged FairResource path must produce
        // byte-identical reservations to the plain Resource ledger.
        let mut plain = Resource::new();
        let mut fair = FairResource::new();
        let table = FlowTable::new();
        let pattern = [(0u64, 100u64), (10, 50), (500, 25), (490, 100), (491, 1)];
        for (at, d) in pattern {
            let at = SimTime::from_nanos(at);
            let d = SimDuration::from_nanos(d);
            let a = plain.reserve(at, d);
            let b = fair.reserve(at, d);
            let c_at = SimTime::from_nanos(at.as_nanos() + 1_000_000);
            assert_eq!((a.start, a.end), (b.start, b.end));
            // A flow that is not running is untagged too.
            let mut plain2 = plain.clone();
            let c = plain2.reserve(c_at, d);
            let c2 = fair.reserve_flow(c_at, d, FlowId(7), &table);
            assert_eq!((c.start, c.end), (c2.start, c2.end));
            plain = plain2;
        }
        assert_eq!(plain.busy_total(), fair.busy_total());
        assert_eq!(plain.free_at(), fair.free_at());
    }

    #[test]
    fn solo_flow_runs_at_line_rate() {
        // A lone flow must never be paced, even when other (idle) flows
        // are running too.
        let table = FlowTable::new();
        for flow in 1..=9 {
            table.start(FlowId(flow));
        }
        let mut fair = FairResource::new();
        let d = SimDuration::from_nanos(100);
        let mut end = SimTime::ZERO;
        for _ in 0..50 {
            let r = fair.reserve_flow(SimTime::ZERO, d, FlowId(1), &table);
            end = r.end;
        }
        assert_eq!(
            end.as_nanos(),
            50 * 100,
            "solo flow must saturate the resource"
        );
    }

    #[test]
    fn contended_flows_share_equally() {
        // Two backlogged flows in a closed loop, flow 1 with three times
        // flow 2's window: plain FIFO would grant them 3:1. The granted
        // shares must approximate 1:1 and nobody may starve; the resource
        // must stay (nearly) fully busy.
        let table = FlowTable::new();
        table.start(FlowId(1));
        table.start(FlowId(2));
        let mut fair = FairResource::new();
        let d = SimDuration::from_nanos(100);
        // Per-flow queue of next arrival times (12 and 4 outstanding).
        let mut next: Vec<Vec<SimTime>> = vec![vec![SimTime::ZERO; 12], vec![SimTime::ZERO; 4]];
        let mut last_end = [SimTime::ZERO; 2];
        for _ in 0..200 {
            // Serve whichever flow's earliest outstanding arrival is older;
            // ties go to flow 1 — a deterministic interleaving.
            let f = if next[0].iter().min() <= next[1].iter().min() {
                0
            } else {
                1
            };
            let i = (0..next[f].len()).min_by_key(|&i| next[f][i]).unwrap();
            let at = next[f][i];
            let r = fair.reserve_flow(at, d, FlowId(f as u32 + 1), &table);
            next[f][i] = r.end;
            last_end[f] = last_end[f].max(r.end);
        }
        let horizon = last_end[0].min(last_end[1]);
        let b1 = fair.busy_for(FlowId(1));
        let b2 = fair.busy_for(FlowId(2));
        assert!(b2 > SimDuration::ZERO, "the smaller-window flow starved");
        let ratio = b1.as_nanos() as f64 / b2.as_nanos() as f64;
        assert!(
            ratio > 0.5 && ratio < 1.5,
            "equal shares gave busy ratio {ratio:.2} ({b1:?} vs {b2:?})"
        );
        // Work conservation: donated gaps get back-filled, so total busy
        // time tracks the horizon closely.
        let busy = fair.busy_total().as_nanos() as f64;
        assert!(
            busy >= 0.9 * horizon.as_nanos() as f64,
            "resource idle too long: busy {busy} over horizon {horizon:?}"
        );
    }

    #[test]
    fn debt_cap_bounds_deferral() {
        // Two backlogged flows among 100 running ones are each far over
        // their 1/100 share, yet may be deferred at most one quantum past
        // the backlog front.
        let table = FlowTable::new();
        for flow in 1..=100 {
            table.start(FlowId(flow));
        }
        let mut fair = FairResource::new();
        let d = SimDuration::from_nanos(10);
        let adv = 10 * 100; // duration × running flows
        for _ in 0..100 {
            // Both flows keep arriving at time zero (infinitely backlogged).
            fair.reserve_flow(SimTime::ZERO, d, FlowId(2), &table);
            let r = fair.reserve_flow(SimTime::ZERO, d, FlowId(1), &table);
            let front = fair.free_at();
            assert!(
                r.start.as_nanos() <= front.as_nanos() + adv,
                "flow deferred to {:?} past the backlog front {front:?}",
                r.start,
            );
        }
    }

    #[test]
    fn edr_nic_absorbs_many_qps() {
        // The EDR profile must cache the full working set of the largest MQ
        // configuration in the paper: 16 nodes × 14 threads × 2 directions.
        let p = DeviceProfile::edr();
        assert!(p.qp_cache_entries >= 16 * 14 * 2);
        // While the FDR profile must NOT absorb even the single-endpoint MQ
        // working set at 16 nodes (2 × 16 QPs), so SEMQ/* degrade at scale.
        let f = DeviceProfile::fdr();
        assert!(f.qp_cache_entries < 2 * 16);
    }
}
