//! RDMA Send/Receive over the Unreliable Datagram service (§4.4.2).
//!
//! One UD Queue Pair can talk to *every* other Queue Pair, so an endpoint
//! needs Θ(1) connections instead of Θ(n) — the decisive scalability
//! property of the paper's winning MESQ/SR design. The price is software
//! error handling:
//!
//! * **Flow control** uses the same stateless absolute-credit protocol as
//!   the RC endpoint (§4.4.1), but credit updates travel as small datagrams
//!   on the shared Queue Pair (there is no reliable connection to
//!   RDMA-Write through). A lost credit update self-heals because credit is
//!   absolute: the next update supersedes it.
//! * **Termination** cannot rely on ordering: a `Depleted` message may
//!   arrive *before* stragglers it logically follows. The sender therefore
//!   counts the data messages it sent to each destination and transmits the
//!   total in the `Depleted` message; the receiver compares it against its
//!   own count and keeps waiting for outstanding packets. If the counts
//!   still disagree after a timeout, the transmission is declared failed
//!   and the query must restart ([`ShuffleError::NetworkErrorRestartQuery`]).
//!   This exploits the set-orientation of relational operators: buffers can
//!   be consumed in any arrival order, so counting replaces a re-order
//!   buffer.
//!
//! The send and receive halves of a node's endpoint share one Queue Pair
//! (one channel), keeping the QP count at one per endpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, CreditLane};
use rshuffle_simnet::{Gate, NodeId, SimContext, SimDuration, SimMutex, SimTime, UD_MTU};
use rshuffle_verbs::{AddressHandle, Completion, Context, MemoryRegion, QueuePair, RecvWr, SendWr};

use crate::buffer::{Buffer, MsgHeader, MsgKind, StreamState, HEADER_LEN};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, post_lock, Cq, Layout, SendWindow, Watchdog,
    POLL_INTERVAL,
};
use crate::endpoint::{
    audit_handle, buf_id, Delivery, EndpointId, Params, ReceiveEndpoint, RecvObs, SendEndpoint,
    SendObs,
};
use crate::error::{Result, ShuffleError};

/// What the send half pins: `ud_send_buffers` MTU windows, whatever the
/// fanout (one UD Queue Pair reaches every peer).
pub(crate) fn send_layout(cfg: &Params) -> Layout {
    Layout {
        window: UD_MTU,
        buffers: cfg.ud_send_buffers,
        rings: 0,
        ring_cap: 0,
        inline_writes: false,
    }
}

/// What the receive half pins once `srcs` sources are known: the data
/// window per source plus generous head-room for in-flight credit
/// datagrams (see module docs) — credit arrivals are paced at one per
/// `freq` releases, so 2× the window per source bounds any burst.
pub(crate) fn recv_layout(cfg: &Params, srcs: usize) -> Layout {
    Layout {
        window: UD_MTU,
        buffers: 3 * cfg.ud_recv_window * srcs.max(1),
        rings: 0,
        ring_cap: 0,
        inline_writes: false,
    }
}

struct SrcCount {
    node: NodeId,
    received: u64,
    expected: Option<u64>,
}

struct UdShared {
    send_id: EndpointId,
    recv_id: EndpointId,
    qp: QueuePair,
    send_cq: Cq,
    recv_cq: Cq,

    /// Lane-matched peer channels: destination node → its channel's QP.
    peer_ahs: Mutex<HashMap<NodeId, AddressHandle>>,
    /// Multicast AH lists cached per destination set: built once on the
    /// first group send and reused, instead of rebuilt per send.
    mcast_ahs: Mutex<HashMap<Vec<NodeId>, Arc<Vec<AddressHandle>>>>,

    // ---- send half ----
    /// Absolute credit granted to this channel by each destination.
    credit: Mutex<HashMap<NodeId, u64>>,
    /// The bootstrap window granted per destination — the drained-state
    /// credit level [`UdShared::quiesce_dest`] waits to recover.
    initial_credit: Mutex<HashMap<NodeId, u64>>,
    /// Messages (data + credit) sent to each destination; each consumes one
    /// credit.
    consumed: Mutex<HashMap<NodeId, u64>>,
    /// Data messages sent per destination (drives termination counting).
    sent_data: Mutex<HashMap<NodeId, u64>>,
    /// The registered MTU windows data and credit datagrams are sourced
    /// from.
    window: SendWindow,
    /// Serializes `ibv_post_send` on the shared QP; this is the contention
    /// the paper profiles for SESQ/SR (§5.1.3).
    post_lock: SimMutex<()>,

    // ---- receive half ----
    /// Receive pool; allocated and posted by
    /// [`SrUdChannel::bootstrap_receives`] once the expected sources are
    /// known.
    recv_pool_dynamic: Mutex<Option<MemoryRegion>>,
    /// Deliveries demultiplexed by some other thread (e.g. the send half's
    /// credit wait) for the receive half to pick up.
    data_gate: Gate<Delivery>,
    /// Per-source-endpoint message accounting.
    srcs: Mutex<HashMap<u32, SrcCount>>,
    /// Source endpoints that will send to this receive half.
    expected_srcs: Mutex<HashMap<u32, NodeId>>,
    /// Credit granted (absolute) per source node, plus releases since the
    /// last write-back.
    grants: Mutex<HashMap<NodeId, (u64, u32)>>,
    done: AtomicBool,
    last_progress: Mutex<SimTime>,

    send_obs: SendObs,
    recv_obs: RecvObs,
    audit: AuditHandle,
    /// This channel's node, for the receive side of audit credit lanes.
    node: u64,
    cfg: Params,
    setup_cost_send: SimDuration,
    setup_cost_recv: SimDuration,
}

/// A UD endpoint pair: the send and receive halves share one Queue Pair.
pub(crate) struct SrUdChannel {
    shared: Arc<UdShared>,
}

/// The send half of a UD channel.
#[derive(Clone)]
pub struct SrUdSendEndpoint {
    shared: Arc<UdShared>,
}

/// The receive half of a UD channel.
#[derive(Clone)]
pub struct SrUdReceiveEndpoint {
    shared: Arc<UdShared>,
}

impl SrUdChannel {
    /// Creates a channel on `ctx`'s node with the given endpoint ids for
    /// its two halves.
    pub(crate) fn new(
        ctx: &Context,
        send_id: EndpointId,
        recv_id: EndpointId,
        cfg: Params,
    ) -> Self {
        let send_cq = Cq::new(ctx);
        let recv_cq = Cq::new(ctx);
        let qp = ctx.create_qp(
            rshuffle_verbs::QpType::Ud,
            send_cq.queue().clone(),
            recv_cq.queue().clone(),
        );
        let profile = ctx.profile();
        let layout = send_layout(&cfg);
        let window = SendWindow::register(ctx, &layout);
        let setup_cost_send = profile.endpoint_setup
            + profile.ud_qp_setup
            + profile.mr_register_time(layout.registered());
        let setup_cost_recv = profile.endpoint_setup;
        SrUdChannel {
            shared: Arc::new(UdShared {
                send_id,
                recv_id,
                qp,
                send_cq,
                recv_cq,
                peer_ahs: Mutex::new(HashMap::new()),
                mcast_ahs: Mutex::new(HashMap::new()),
                credit: Mutex::new(HashMap::new()),
                initial_credit: Mutex::new(HashMap::new()),
                consumed: Mutex::new(HashMap::new()),
                sent_data: Mutex::new(HashMap::new()),
                window,
                post_lock: post_lock(ctx),
                recv_pool_dynamic: Mutex::new(None),
                data_gate: Gate::new(ctx.runtime().kernel(), SimDuration::from_nanos(100)),
                srcs: Mutex::new(HashMap::new()),
                expected_srcs: Mutex::new(HashMap::new()),
                grants: Mutex::new(HashMap::new()),
                done: AtomicBool::new(false),
                last_progress: Mutex::new(SimTime::ZERO),
                send_obs: SendObs::new(ctx, send_id),
                recv_obs: RecvObs::new(ctx, recv_id),
                audit: audit_handle(ctx),
                node: ctx.node() as u64,
                cfg,
                setup_cost_send,
                setup_cost_recv,
            }),
        }
    }

    /// The channel's QP address, for peers' lane wiring.
    pub(crate) fn address_handle(&self) -> AddressHandle {
        self.shared.qp.address_handle()
    }

    /// The underlying QP (activated by the exchange builder).
    pub(crate) fn qp(&self) -> &QueuePair {
        &self.shared.qp
    }

    /// Registers the lane-matched peer channel for `node`.
    pub(crate) fn add_peer(&self, node: NodeId, ah: AddressHandle) {
        self.shared.peer_ahs.lock().insert(node, ah);
    }

    /// Declares the sources that will send to this channel's receive half,
    /// allocates and posts the receive windows, and returns the initial
    /// credit each source must be bootstrapped with.
    ///
    /// `ctx` must belong to the same node the channel was created on.
    pub(crate) fn bootstrap_receives(
        &self,
        ctx: &Context,
        expected: &[(EndpointId, NodeId)],
    ) -> Result<u64> {
        let s = &self.shared;
        let window = s.cfg.ud_recv_window;
        {
            let mut map = s.expected_srcs.lock();
            for &(ep, node) in expected {
                map.insert(ep.0, node);
            }
            let mut grants = s.grants.lock();
            for &(_, node) in expected {
                grants.insert(node, (window as u64, 0));
            }
            // Credit datagrams may legally be lost on the unreliable
            // transport, so the lanes carry no write-back frequency: the
            // auditor checks monotonicity and overdraft, not gaps.
            // Bootstrap happens outside the measured window, at virtual 0.
            for &(ep, _) in expected {
                let lane = CreditLane::Ud {
                    sender: ep.0 as u64,
                    dest: s.node,
                };
                s.audit.credit_lane(lane, None);
                s.audit.credit_granted(lane, window as u64, 0);
            }
        }
        let layout = recv_layout(&s.cfg, expected.len());
        let pool = ctx.register_pool_untimed(layout.window, layout.buffers);
        // Every window is posted on the one Queue Pair; a completion names
        // its window by `wr_id`, and `process_inbound` resolves it against
        // the handle stored below (clones share the region).
        let first = RecvWr {
            wr_id: 0,
            mr: pool.clone(),
            offset: 0,
            len: UD_MTU,
        };
        let step = (UD_MTU as u64, UD_MTU);
        // A refused pool was not posted in part, and does not stay pinned.
        s.qp.post_recv_run_untimed(first, step, layout.buffers)
            .inspect_err(|_| ctx.runtime().deregister_untimed(&pool))?;
        s.recv_pool_dynamic.lock().replace(pool);
        Ok(window as u64)
    }

    /// Seeds the send half's credit for `dest` (out-of-band bootstrap).
    pub(crate) fn bootstrap_credit(&self, dest: NodeId, credit: u64) {
        self.shared.credit.lock().insert(dest, credit);
        self.shared.initial_credit.lock().insert(dest, credit);
    }

    /// The send half.
    pub(crate) fn send_half(&self) -> SrUdSendEndpoint {
        SrUdSendEndpoint {
            shared: self.shared.clone(),
        }
    }

    /// The receive half.
    pub(crate) fn recv_half(&self) -> SrUdReceiveEndpoint {
        SrUdReceiveEndpoint {
            shared: self.shared.clone(),
        }
    }
}

impl UdShared {
    /// Consumes one credit toward `dest`, blocking while exhausted. While
    /// waiting, drains inbound completions so credit datagrams are seen even
    /// if no receive-half thread is active.
    fn consume_credit(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        let try_consume = || {
            let credit = self.credit.lock();
            let mut consumed = self.consumed.lock();
            let c = credit.get(&dest).copied().unwrap_or(0);
            let used = consumed.entry(dest).or_insert(0);
            if c <= *used {
                return Ok(None);
            }
            *used += 1;
            self.audit.credit_consumed(
                CreditLane::Ud {
                    sender: self.send_id.0 as u64,
                    dest: dest as u64,
                },
                *used,
                sim.now().as_nanos(),
            );
            Ok(Some(()))
        };
        // The credit we need may be sitting in the receive CQ.
        self.watchdog(sim, 4, "waiting for UD send credit").wait(
            sim,
            Some(&self.send_obs),
            try_consume,
            |slice| self.drain_inbound(sim, slice),
        )
    }

    /// A watchdog over this channel's stall budget whose backoff starts
    /// at `polls` poll intervals.
    fn watchdog(&self, sim: &SimContext, polls: u64, what: &'static str) -> Watchdog {
        Watchdog::backoff(sim, self.cfg.stall_timeout, POLL_INTERVAL * polls, what)
    }

    /// Waits until the data already sent toward `dest` has fully
    /// drained as far as UD flow control can observe: the receiver has
    /// released — and written credit back for — the whole window. The
    /// receiver posts a credit datagram only every
    /// `credit_writeback_frequency` releases, so waiting for the
    /// literal bootstrap window would deadlock on any message count
    /// that is not a multiple of the frequency; `freq − 1` messages may
    /// legally stay unconfirmed and are excluded from the target.
    ///
    /// Full drain is deliberate: a half-window slack was tried and
    /// reverted. Residue flows from phase p overlap phase p+1, which
    /// doubles the active flow count on the receiver's *leaf downlink*
    /// — past the downlink incast knee (`hosts_per_leaf`) — and the
    /// measured collapse penalty exceeded everything the slack saved
    /// on the credit round trip. Draining fully keeps every port at or
    /// under its knee, and the super-round barrier cadence
    /// ([`crate::phase::PHASE_GROUP`]) amortizes the per-phase credit
    /// wait instead.
    fn quiesce_dest(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        let lag = u64::from(self.cfg.credit_writeback_frequency.saturating_sub(1));
        let target = match self.initial_credit.lock().get(&dest) {
            Some(&window) => window.saturating_sub(lag),
            // Never bootstrapped toward `dest`: nothing was ever sent.
            None => return Ok(()),
        };
        let drained = || {
            let credit = self.credit.lock();
            let consumed = self.consumed.lock();
            let c = credit.get(&dest).copied().unwrap_or(0);
            let m = consumed.get(&dest).copied().unwrap_or(0);
            Ok((c.saturating_sub(m) >= target).then_some(()))
        };
        // The credit write-backs we are waiting for arrive on the
        // receive CQ.
        self.watchdog(sim, 4, "waiting for a UD phase to drain")
            .wait(sim, None, drained, |slice| self.drain_inbound(sim, slice))
    }

    /// Drains a batch of inbound completions (credit updates handled
    /// internally, data pushed to the data gate), paying one poll cost
    /// for the whole drain. Returns whether progress was made.
    fn drain_inbound(&self, sim: &SimContext, slice: SimDuration) -> Result<bool> {
        self.recv_cq
            .drain(sim, slice, |c| self.process_inbound(sim, c))
    }

    /// Puts `buf`'s window back on the receive queue.
    fn repost(&self, sim: &SimContext, buf: &Buffer) -> Result<()> {
        self.qp.post_recv(
            sim,
            RecvWr {
                wr_id: buf.offset() as u64,
                mr: buf.region().clone(),
                offset: buf.offset(),
                len: UD_MTU,
            },
        )?;
        Ok(())
    }

    /// The work request that sends the first `len` bytes of `buf`.
    fn send_wr(buf: &Buffer, len: usize, ah: Option<AddressHandle>) -> SendWr {
        SendWr {
            wr_id: buf.offset() as u64,
            mr: buf.region().clone(),
            offset: buf.offset(),
            len,
            imm: None,
            ah,
        }
    }

    /// Posts `wr` on the shared QP under the post lock (`ahs` set: as one
    /// multicast to those members).
    fn post(&self, sim: &SimContext, wr: SendWr, ahs: Option<&[AddressHandle]>) -> Result<()> {
        let guard = self.post_lock.lock(sim);
        if self.cfg.ud_post_overhead > SimDuration::ZERO {
            sim.sleep(self.cfg.ud_post_overhead);
        }
        match ahs {
            Some(ahs) => self.qp.post_send_multicast(sim, wr, ahs)?,
            None => self.qp.post_send(sim, wr)?,
        }
        drop(guard);
        Ok(())
    }

    /// Demultiplexes one inbound completion: stale datagrams are recycled,
    /// credit updates folded into the credit map, data pushed to the gate.
    fn process_inbound(&self, sim: &SimContext, c: &Completion) -> Result<()> {
        expect_success(c, "UD receive completed in error")?;
        let pool = self.recv_pool_dynamic.lock().clone().ok_or(
            ShuffleError::CompletionError("UD receive before the pool was bootstrapped"),
        )?;
        let buf = Buffer::try_new(pool, c.wr_id as usize, UD_MTU)?;
        let header = buf.read_header()?;
        if header.epoch != self.cfg.epoch {
            // Leftover datagram from a fenced-off attempt — stale data or
            // a stale credit grant, either would corrupt the new attempt's
            // counting. Recycle the slot without acting on the message.
            self.recv_obs.stale_drop();
            self.repost(sim, &buf)?;
            *self.last_progress.lock() = sim.now();
            return Ok(());
        }
        match header.kind {
            MsgKind::Credit => {
                // Absolute credit: later updates supersede earlier ones, so
                // out-of-order arrival needs only a max().
                let mut credit = self.credit.lock();
                let e = credit.entry(c.src_node).or_insert(0);
                *e = (*e).max(header.counter);
                drop(credit);
                // Recycle the receive slot immediately; control traffic does
                // not count toward data credit.
                self.repost(sim, &buf)?;
                *self.last_progress.lock() = sim.now();
                Ok(())
            }
            MsgKind::Data => {
                {
                    let mut srcs = self.srcs.lock();
                    let entry = srcs.entry(header.src).or_insert(SrcCount {
                        node: c.src_node,
                        received: 0,
                        expected: None,
                    });
                    entry.received += 1;
                    if header.state == StreamState::Depleted {
                        entry.expected = Some(header.counter);
                    }
                    self.audit.counted_receive(
                        header.src as u64,
                        entry.received,
                        entry.expected,
                        sim.now().as_nanos(),
                    );
                }
                *self.last_progress.lock() = sim.now();
                self.data_gate
                    .push(deliver(sim, &self.recv_obs, &self.audit, &header, buf, 0)?);
                Ok(())
            }
        }
    }

    /// Drains a batch of send completions, recycling buffers whose every
    /// destination has acknowledged.
    fn reap_sends(&self, sim: &SimContext, slice: SimDuration) -> Result<bool> {
        self.send_cq.drain(sim, slice, |c| {
            expect_success(c, "UD send failed")?;
            self.window.complete(sim, c.wr_id)
        })
    }

    /// Takes a free send window, reaping send completions while none is.
    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.watchdog(sim, 8, "waiting for a free UD send buffer")
            .wait(
                sim,
                None,
                || Ok(self.window.take(sim)),
                |slice| self.reap_sends(sim, slice),
            )
    }

    /// Whether every expected source has delivered all counted messages.
    ///
    /// # Errors
    ///
    /// [`ShuffleError::Corrupt`] if a source delivered *more* messages
    /// than its `Depleted` counter declared — a duplicated datagram or a
    /// corrupted counter, either way unrecoverable within this attempt.
    fn check_done(&self) -> Result<DoneState> {
        let expected = self.expected_srcs.lock();
        if expected.is_empty() {
            return Ok(DoneState::Done);
        }
        let srcs = self.srcs.lock();
        let mut waiting_for_stragglers = false;
        for (&ep, _) in expected.iter() {
            match srcs.get(&ep) {
                Some(s) => match s.expected {
                    Some(total) if s.received == total => {}
                    Some(total) if s.received > total => {
                        return Err(ShuffleError::Corrupt(format!(
                            "source {ep} delivered {} messages but declared {total}",
                            s.received
                        )));
                    }
                    Some(_) => waiting_for_stragglers = true,
                    None => return Ok(DoneState::InProgress),
                },
                None => return Ok(DoneState::InProgress),
            }
        }
        if waiting_for_stragglers {
            Ok(DoneState::WaitingForStragglers)
        } else {
            Ok(DoneState::Done)
        }
    }

    /// The cached AH list for a multicast destination set, built on first
    /// use. Steady-state lookups borrow the key as a slice — no allocation.
    fn cached_mcast_ahs(&self, dest: &[NodeId]) -> Result<Arc<Vec<AddressHandle>>> {
        if let Some(ahs) = self.mcast_ahs.lock().get(dest) {
            return Ok(ahs.clone());
        }
        let built = {
            let peers = self.peer_ahs.lock();
            let mut ahs = Vec::with_capacity(dest.len());
            for &d in dest {
                ahs.push(*peers.get(&d).ok_or_else(|| {
                    ShuffleError::Config(format!("unknown destination node {d}"))
                })?);
            }
            Arc::new(ahs)
        };
        self.mcast_ahs
            .lock()
            .insert(dest.to_vec(), built.clone()); // alloc-ok: one-time cache fill per distinct destination set
        Ok(built)
    }

    /// Builds the restart error naming the worst straggler source.
    fn straggler_error(&self) -> ShuffleError {
        let srcs = self.srcs.lock();
        for (&ep, s) in srcs.iter() {
            if let Some(total) = s.expected {
                if s.received < total {
                    return ShuffleError::NetworkErrorRestartQuery {
                        src: ep,
                        expected: total,
                        received: s.received,
                    };
                }
            }
        }
        ShuffleError::NetworkErrorRestartQuery {
            src: u32::MAX,
            expected: 0,
            received: 0,
        }
    }
}

enum DoneState {
    InProgress,
    WaitingForStragglers,
    Done,
}

impl SendEndpoint for SrUdSendEndpoint {
    fn id(&self) -> EndpointId {
        self.shared.send_id
    }

    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        assert!(!dest.is_empty(), "send needs at least one destination");
        let s = &self.shared;
        if s.cfg.ud_native_multicast && dest.len() > 1 && state == StreamState::MoreData {
            return self.send_native_multicast(sim, buf, dest);
        }
        s.window.launch(sim, &buf, dest.len());
        for &d in dest {
            let ah = *s
                .peer_ahs
                .lock()
                .get(&d)
                .ok_or_else(|| ShuffleError::Config(format!("unknown destination node {d}")))?;
            s.consume_credit(sim, d)?;
            let total = {
                let mut sent = s.sent_data.lock();
                let e = sent.entry(d).or_insert(0);
                *e += 1;
                *e
            };
            let now = sim.now().as_nanos();
            s.audit.data_sent(s.send_id.0 as u64, d as u64, now);
            #[cfg(feature = "saboteur")]
            let total = if state == StreamState::Depleted
                && crate::sabotage::take(crate::sabotage::Sabotage::UnderreportDepletedCount)
            {
                total - 1
            } else {
                total
            };
            if state == StreamState::Depleted {
                s.audit
                    .depleted_announced(s.send_id.0 as u64, d as u64, total, now);
            }
            // Per-destination header: the Depleted counter is specific to
            // each destination, so it is written immediately before posting.
            buf.write_header(&MsgHeader {
                counter: total,
                ..data_header(s.send_id, s.cfg.epoch, &buf, state)
            })?;
            s.post(
                sim,
                UdShared::send_wr(&buf, buf.message_len(), Some(ah)),
                None,
            )?;
            s.send_obs.sent(d, buf.len() as u64);
        }
        Ok(())
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.shared.get_free(sim)
    }

    fn registered_bytes(&self) -> usize {
        self.shared.window.region().len()
    }

    fn charge_setup(&self, sim: &SimContext) {
        sim.sleep(self.shared.setup_cost_send);
    }

    fn quiesce(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        self.shared.quiesce_dest(sim, dest)
    }
}

impl SrUdSendEndpoint {
    /// Group send through the switch's multicast replication: consumes one
    /// credit per member (each still consumes a posted receive), then posts
    /// a single work request.
    fn send_native_multicast(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
    ) -> Result<()> {
        let s = &self.shared;
        // AH lists are cached per destination set at first use (satellite
        // of the hot-path pass): steady-state multicast sends rebuild
        // nothing.
        let ahs = s.cached_mcast_ahs(dest)?;
        for &d in dest {
            s.consume_credit(sim, d)?;
            let mut sent = s.sent_data.lock();
            *sent.entry(d).or_insert(0) += 1;
            drop(sent);
            s.audit
                .data_sent(s.send_id.0 as u64, d as u64, sim.now().as_nanos());
        }
        // The counter is only read on Depleted, which never multicasts.
        let header = data_header(s.send_id, s.cfg.epoch, &buf, StreamState::MoreData);
        buf.write_header(&header)?;
        s.window.launch(sim, &buf, 1);
        s.post(
            sim,
            UdShared::send_wr(&buf, buf.message_len(), None),
            Some(&ahs),
        )?;
        for &d in dest {
            s.send_obs.sent(d, buf.len() as u64);
        }
        Ok(())
    }
}

impl ReceiveEndpoint for SrUdReceiveEndpoint {
    fn id(&self) -> EndpointId {
        self.shared.recv_id
    }

    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        let s = &self.shared;
        let mut watchdog = s.watchdog(sim, 16, "UD receive endpoint made no progress");
        loop {
            if let Some(d) = s.data_gate.try_recv() {
                return Ok(Some(d));
            }
            if s.done.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if s.drain_inbound(sim, watchdog.slice())? {
                watchdog.progress();
                continue;
            }
            // No progress this slice: evaluate termination.
            match s.check_done()? {
                DoneState::Done => {
                    if s.data_gate.is_empty() {
                        s.done.store(true, Ordering::SeqCst);
                        return Ok(None);
                    }
                }
                DoneState::WaitingForStragglers => {
                    // All totals are known but packets are missing — either
                    // still in flight (common: out-of-order delivery) or
                    // lost (rare). Wait bounded time since the last arrival.
                    let last = *s.last_progress.lock();
                    if sim.now() >= last + s.cfg.depleted_timeout {
                        return Err(s.straggler_error());
                    }
                }
                DoneState::InProgress => watchdog.expired(sim)?,
            }
        }
    }

    fn release(
        &self,
        sim: &SimContext,
        _remote: u64,
        local: Buffer,
        src: EndpointId,
    ) -> Result<()> {
        let s = &self.shared;
        s.audit.released(buf_id(&local), sim.now().as_nanos());
        s.repost(sim, &local)?;
        let src_node = {
            let map = s.expected_srcs.lock();
            match map.get(&src.0) {
                Some(&n) => n,
                // Unknown source (e.g. tests releasing synthetic buffers):
                // fall back to the recorded delivery source.
                None => match s.srcs.lock().get(&src.0) {
                    Some(sc) => sc.node,
                    None => return Ok(()),
                },
            }
        };
        let (credit_now, write_back) = {
            let mut grants = s.grants.lock();
            let e = grants.entry(src_node).or_insert((0, 0));
            e.0 += 1;
            e.1 += 1;
            let wb = e.1.is_multiple_of(s.cfg.credit_writeback_frequency);
            (e.0, wb)
        };
        if write_back {
            s.audit.credit_granted(
                CreditLane::Ud {
                    sender: src.0 as u64,
                    dest: s.node,
                },
                credit_now,
                sim.now().as_nanos(),
            );
            s.send_credit(sim, src_node, credit_now)?;
        }
        Ok(())
    }

    fn bytes_received(&self) -> u64 {
        self.shared.recv_obs.bytes_received()
    }

    fn registered_bytes(&self) -> usize {
        self.shared
            .recv_pool_dynamic
            .lock()
            .as_ref()
            .map_or(0, |p| p.len())
    }

    fn charge_setup(&self, sim: &SimContext) {
        sim.sleep(self.shared.setup_cost_recv);
    }
}

impl UdShared {
    /// Sends an absolute-credit datagram to `dest` on the shared QP.
    fn send_credit(&self, sim: &SimContext, dest: NodeId, credit: u64) -> Result<()> {
        let ah = *self
            .peer_ahs
            .lock()
            .get(&dest)
            .ok_or_else(|| ShuffleError::Config(format!("no lane to credit target {dest}")))?;
        // Credit datagrams are header-only; source them from a free send
        // buffer (waiting briefly if the pool is momentarily empty).
        let buf = self.get_free(sim)?;
        let header = MsgHeader {
            src: self.recv_id.0,
            kind: MsgKind::Credit,
            state: StreamState::MoreData,
            epoch: self.cfg.epoch,
            payload_len: 0,
            src_tid: 0, // Control traffic carries no flow identity.
            counter: credit,
            remote_addr: 0,
        };
        buf.write_header(&header)?;
        self.window.launch(sim, &buf, 1);
        self.post(sim, UdShared::send_wr(&buf, HEADER_LEN, Some(ah)), None)
    }
}

#[cfg(test)]
mod tests {
    use rshuffle_simnet::{Cluster, DeviceProfile};
    use rshuffle_verbs::{ConnectionManager, QpState, VerbsError, VerbsRuntime};

    use super::*;
    use crate::{ExchangeConfig, ShuffleAlgorithm};

    /// The endpoint's case of `rejected_configuration_pins_nothing`: a
    /// receive pool its Queue Pair refuses is neither posted in part nor
    /// left pinned, and one it accepts is on the Queue Pair as one run.
    #[test]
    fn a_refused_receive_pool_is_not_posted_in_part_and_pins_nothing() {
        let rt = VerbsRuntime::new(Cluster::new(4, DeviceProfile::edr()));
        let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 4, 1);
        let params = config.params(rt.profile());
        let ctx = rt.context(0);
        let channel = SrUdChannel::new(&ctx, EndpointId(0), EndpointId(1), params.clone());
        let expected = [1, 2, 3].map(|node| (EndpointId(2 * node as u32), node));
        let send_pool = rt.registered_bytes(0);
        // Nobody activated the Queue Pair: it takes no receives yet.
        let refused = channel.bootstrap_receives(&ctx, &expected).err();
        let in_reset = VerbsError::InvalidState {
            qp: channel.qp().qpn(),
            state: QpState::Reset,
            op: "post_recv_untimed",
        };
        assert!(
            matches!(&refused, Some(ShuffleError::Verbs(why)) if *why == in_reset),
            "{refused:?}"
        );
        assert_eq!(channel.qp().posted_receives(), 0);
        assert_eq!(rt.registered_bytes(0), send_pool);
        assert!(ConnectionManager::activate_untimed(channel.qp(), None).is_ok());
        let granted = channel.bootstrap_receives(&ctx, &expected);
        assert_eq!(granted.ok(), Some(params.ud_recv_window as u64));
        let layout = recv_layout(&params, expected.len());
        assert_eq!(layout.buffers, 3 * params.ud_recv_window * expected.len());
        let qp = channel.qp();
        assert_eq!(
            (qp.posted_receives(), qp.posted_receive_runs()),
            (layout.buffers, 1)
        );
        assert_eq!(rt.registered_bytes(0), send_pool + layout.pinned());
    }
}
