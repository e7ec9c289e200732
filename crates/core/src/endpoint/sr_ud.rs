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
//! (one channel), keeping the QP count at one per endpoint. What the
//! channel keeps per peer node — its address, the credit toward it, the
//! grants to it — is one table indexed by node id under one lock; what it
//! keeps per source endpoint is one table with running totals, so
//! termination is a lookup, not a scan.

use std::cmp::{Ordering as Cmp, Reverse};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, CreditLane};
use rshuffle_simnet::{
    Gate, KeyMap, NodeId, Notify, SimContext, SimDuration, SimMutex, SimTime, Waitable, UD_MTU,
};
use rshuffle_verbs::{AddressHandle, Completion, Context, MemoryRegion, QueuePair, RecvWr, SendWr};

use crate::buffer::{Buffer, MsgHeader, MsgKind, StreamState};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, post_lock, state_notify, Cq, Layout, SendWindow,
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

/// What a channel keeps about one peer node, for both of its halves.
#[derive(Default)]
struct Peer {
    /// The lane-matched channel on that node; `None` for a node the
    /// channel was not wired to.
    ah: Option<AddressHandle>,
    /// Send half: absolute credit the peer granted this channel.
    credit: u64,
    /// Send half: the bootstrap window the peer granted — the
    /// drained-state credit level [`UdShared::quiesce_dest`] waits to
    /// recover; `None` if it never granted one, so nothing was ever sent.
    initial_credit: Option<u64>,
    /// Send half: data messages sent to the peer. Each consumed one
    /// credit, and a `Depleted` message declares the total.
    sent: u64,
    /// Receive half: the endpoint the peer sends from, which names the
    /// credit lane the auditor checks grants to it on.
    sender: u32,
    /// Receive half: credit granted to the peer (absolute).
    granted: u64,
    /// Receive half: the peer's releases since the last write-back.
    releases: u32,
}

/// The address of wired peer `node` with its entry, or the typed error
/// `unknown` names.
fn wired<'a>(
    peers: &'a mut [Peer],
    node: NodeId,
    unknown: &str,
) -> Result<(&'a mut Peer, AddressHandle)> {
    let peer = peers.get_mut(node);
    let ah = peer.as_ref().and_then(|p| p.ah);
    peer.zip(ah)
        .ok_or_else(|| ShuffleError::Config(format!("{unknown} {node}")))
}

/// Where a source endpoint stands against the total it declared.
#[derive(Copy, Clone, PartialEq)]
enum Standing {
    /// No `Depleted` message yet.
    Open,
    Short,
    Exact,
    Over,
}

/// Message accounting of one source endpoint.
#[derive(Default)]
struct SrcCount {
    received: u64,
    /// The total its `Depleted` message declared.
    declared: Option<u64>,
    /// Whether termination waits for it (it was declared at bootstrap).
    expected: bool,
}

impl SrcCount {
    fn standing(&self) -> Standing {
        match self.declared.map(|total| self.received.cmp(&total)) {
            None => Standing::Open,
            Some(Cmp::Less) => Standing::Short,
            Some(Cmp::Equal) => Standing::Exact,
            Some(Cmp::Greater) => Standing::Over,
        }
    }
}

/// The receive half's sources, by endpoint id, and how many of the
/// expected ones stand where — so termination reads four counters.
#[derive(Default)]
struct Sources {
    by_endpoint: KeyMap<u32, SrcCount>,
    /// Expected sources per [`Standing`].
    tally: [usize; 4],
}

impl Sources {
    /// Declares `ep` a source termination waits for.
    fn wait_for(&mut self, ep: u32) {
        let src = self.by_endpoint.entry(ep).or_default();
        if !src.expected {
            src.expected = true;
            self.tally[src.standing() as usize] += 1;
        }
    }

    /// Counts one data message from `ep`, carrying the sender's declared
    /// total if it was `Depleted`.
    fn count(&mut self, ep: u32, declared: Option<u64>) -> &SrcCount {
        let src = self.by_endpoint.entry(ep).or_default();
        let before = src.standing();
        src.received += 1;
        if declared.is_some() {
            src.declared = declared;
        }
        if src.expected {
            self.tally[before as usize] -= 1;
            self.tally[src.standing() as usize] += 1;
        }
        src
    }

    /// Whether every expected source has delivered all counted messages.
    ///
    /// # Errors
    ///
    /// [`ShuffleError::Corrupt`] if a source delivered *more* messages
    /// than its `Depleted` counter declared — a duplicated datagram or a
    /// corrupted counter, either way unrecoverable within this attempt.
    fn done(&self) -> Result<DoneState> {
        if let Some((ep, declared, received)) = self.worst(Standing::Over) {
            return Err(ShuffleError::Corrupt(format!(
                "source {ep} delivered {received} messages but declared {declared}"
            )));
        }
        let count = |standing: Standing| self.tally[standing as usize];
        Ok(if count(Standing::Open) > 0 {
            DoneState::InProgress
        } else if count(Standing::Short) > 0 {
            DoneState::WaitingForStragglers
        } else {
            DoneState::Done
        })
    }

    /// The expected source standing `standing` furthest from its declared
    /// total, ties to the lowest endpoint id: `(ep, declared, received)`.
    /// The one place that scans, and only when the tally has such a source.
    fn worst(&self, standing: Standing) -> Option<(u32, u64, u64)> {
        if self.tally[standing as usize] == 0 {
            return None;
        }
        let sources = self.by_endpoint.iter();
        let candidates = sources.filter(|(_, src)| src.expected && src.standing() == standing);
        candidates
            .map(|(&ep, src)| (ep, src.declared.unwrap_or(0), src.received))
            .max_by_key(|&(ep, declared, received)| (declared.abs_diff(received), Reverse(ep)))
    }
}

struct UdShared {
    send_id: EndpointId,
    recv_id: EndpointId,
    qp: QueuePair,
    send_cq: Cq,
    recv_cq: Cq,

    /// Per peer node, indexed by node id: its channel's address, the
    /// credit toward it and the grants to it.
    peers: Mutex<Vec<Peer>>,
    /// Notified whenever a credit datagram is folded into `peers`, by
    /// whichever half drained it.
    credit: Notify,
    /// Multicast AH lists cached per destination set: built once on the
    /// first group send and reused, instead of rebuilt per send.
    mcast_ahs: Mutex<KeyMap<Vec<NodeId>, Arc<Vec<AddressHandle>>>>,

    // ---- send half ----
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
    recv_pool: OnceLock<MemoryRegion>,
    /// Deliveries demultiplexed by some other thread (e.g. the send half's
    /// credit wait) for the receive half to pick up.
    data_gate: Gate<Delivery>,
    /// Per-source-endpoint message accounting.
    sources: Mutex<Sources>,
    /// Notified whenever a data message is counted once every expected
    /// source has declared its total: termination may have changed.
    settled: Notify,
    done: AtomicBool,
    /// Virtual nanoseconds of the last arrival.
    last_progress: AtomicU64,

    send_obs: SendObs,
    recv_obs: RecvObs,
    audit: AuditHandle,
    /// This channel's node, for the receive side of audit credit lanes.
    node: u64,
    cfg: Params,
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
        SrUdChannel {
            shared: Arc::new(UdShared {
                send_id,
                recv_id,
                qp,
                send_cq,
                recv_cq,
                peers: Mutex::default(),
                credit: state_notify(ctx),
                mcast_ahs: Mutex::default(),
                window: SendWindow::register(ctx, &send_layout(&cfg)),
                post_lock: post_lock(ctx),
                recv_pool: OnceLock::new(),
                data_gate: Gate::new(ctx.runtime().kernel(), SimDuration::from_nanos(100)),
                sources: Mutex::default(),
                settled: state_notify(ctx),
                done: AtomicBool::new(false),
                last_progress: AtomicU64::new(0),
                send_obs: SendObs::new(ctx, send_id),
                recv_obs: RecvObs::new(ctx, recv_id),
                audit: audit_handle(ctx),
                node: ctx.node() as u64,
                cfg,
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
        self.shared.update_peer(node, |peer| peer.ah = Some(ah));
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
        if s.recv_pool.get().is_some() {
            return Err(ShuffleError::Config(
                "UD receive pool bootstrapped twice".to_string(),
            ));
        }
        let window = s.cfg.ud_recv_window;
        for &(ep, node) in expected {
            s.sources.lock().wait_for(ep.0);
            s.update_peer(node, |peer| {
                (peer.sender, peer.granted, peer.releases) = (ep.0, window as u64, 0)
            });
            // Credit datagrams may legally be lost on the unreliable
            // transport, so the lanes carry no write-back frequency: the
            // auditor checks monotonicity and overdraft, not gaps.
            // Bootstrap happens outside the measured window, at virtual 0.
            let lane = CreditLane::Ud {
                sender: ep.0 as u64,
                dest: s.node,
            };
            s.audit.credit_lane(lane, None);
            s.audit.credit_granted(lane, window as u64, 0);
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
        // Checked empty above, and bootstrap runs before any traffic.
        let _ = s.recv_pool.set(pool);
        Ok(window as u64)
    }

    /// Seeds the send half's credit for `dest` (out-of-band bootstrap).
    pub(crate) fn bootstrap_credit(&self, dest: NodeId, credit: u64) {
        self.shared.update_peer(dest, |peer| {
            peer.credit = credit;
            peer.initial_credit = Some(credit);
        });
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
    /// Runs `update` on peer `node`'s entry, which is created if the table
    /// does not reach that far yet.
    fn update_peer<R>(&self, node: NodeId, update: impl FnOnce(&mut Peer) -> R) -> R {
        let mut peers = self.peers.lock();
        if peers.len() <= node {
            peers.resize_with(node + 1, Peer::default);
        }
        update(&mut peers[node])
    }

    /// Consumes one credit toward `dest`, blocking while exhausted, and
    /// returns `dest`'s address with the count of data messages sent there,
    /// this one included. While waiting, drains inbound completions so
    /// credit datagrams are seen even if no receive-half thread is active.
    fn consume_credit(&self, sim: &SimContext, dest: NodeId) -> Result<(AddressHandle, u64)> {
        let try_consume = || {
            let mut peers = self.peers.lock();
            let (peer, ah) = wired(&mut peers, dest, "unknown destination node")?;
            if peer.credit <= peer.sent {
                return Ok(None);
            }
            peer.sent += 1;
            self.audit.credit_consumed(
                CreditLane::Ud {
                    sender: self.send_id.0 as u64,
                    dest: dest as u64,
                },
                peer.sent,
                sim.now().as_nanos(),
            );
            Ok(Some((ah, peer.sent)))
        };
        // The credit we need may be sitting in the receive CQ, or be
        // folded in by the receive half.
        self.cfg.watchdog(sim, "waiting for UD send credit").wait(
            sim,
            Some(&self.send_obs),
            || self.credit.listen(),
            try_consume,
            |credit, abort, deadline| {
                self.drain_inbound(sim, deadline, &[&credit, abort])
                    .map(drop)
            },
        )
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
    /// reverted. Residue flows overlapping the next round double the
    /// active flow count on the receiver's *leaf downlink* — past the
    /// downlink incast knee (`hosts_per_leaf`) — and the measured
    /// collapse penalty exceeded everything the slack saved on the
    /// credit round trip. The phased SHUFFLE calls this once per
    /// destination a super-round ([`crate::phase::PHASE_GROUP`] phases)
    /// opened, all at the super-round's end, just before the barrier:
    /// the credit round trips of its phases overlap instead of running
    /// one after another.
    fn quiesce_dest(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        let lag = u64::from(self.cfg.credit_writeback_frequency.saturating_sub(1));
        let initial = self.peers.lock().get(dest).and_then(|p| p.initial_credit);
        // Never bootstrapped toward `dest`: nothing was ever sent.
        let Some(target) = initial.map(|window| window.saturating_sub(lag)) else {
            return Ok(());
        };
        let drained = || {
            let peers = self.peers.lock();
            let peer = peers.get(dest);
            Ok(peer
                .is_some_and(|p| p.credit.saturating_sub(p.sent) >= target)
                .then_some(()))
        };
        // The credit write-backs we are waiting for arrive on the
        // receive CQ, which the receive half may drain first.
        self.cfg
            .watchdog(sim, "waiting for a UD phase to drain")
            .wait(
                sim,
                None,
                || self.credit.listen(),
                drained,
                |credit, abort, deadline| {
                    self.drain_inbound(sim, deadline, &[&credit, abort])
                        .map(drop)
                },
            )
    }

    /// Waits until an inbound completion is queued, one of `also` is
    /// ready or `deadline` passes, then drains a batch (credit updates
    /// handled internally, data pushed to the data gate), paying one poll
    /// cost for the whole drain. Returns whether anything was drained.
    fn drain_inbound(
        &self,
        sim: &SimContext,
        deadline: SimTime,
        also: &[&dyn Waitable],
    ) -> Result<bool> {
        self.recv_cq
            .drain(sim, deadline, also, |c| self.process_inbound(sim, c))
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

    /// The work request that sends `buf`'s message, header and payload.
    fn send_wr(buf: &Buffer, ah: Option<AddressHandle>) -> SendWr {
        SendWr {
            wr_id: buf.offset() as u64,
            mr: buf.region().clone(),
            offset: buf.offset(),
            len: buf.message_len(),
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
    /// credit updates folded into the peer table, data pushed to the gate.
    fn process_inbound(&self, sim: &SimContext, c: &Completion) -> Result<()> {
        expect_success(c, "UD receive completed in error")?;
        let pool = self.recv_pool.get().ok_or(ShuffleError::CompletionError(
            "UD receive before the pool was bootstrapped",
        ))?;
        let buf = Buffer::try_new(pool.clone(), c.wr_id as usize, UD_MTU)?;
        let header = buf.read_header()?;
        if header.epoch != self.cfg.epoch {
            // Leftover datagram from a fenced-off attempt — stale data or
            // a stale credit grant, either would corrupt the new attempt's
            // counting. Recycle the slot without acting on the message.
            self.recv_obs.stale_drop();
            self.repost(sim, &buf)?;
            self.made_progress(sim);
            return Ok(());
        }
        match header.kind {
            MsgKind::Credit => {
                // Absolute credit: later updates supersede earlier ones, so
                // out-of-order arrival needs only a max().
                self.update_peer(c.src_node, |peer| {
                    peer.credit = peer.credit.max(header.counter)
                });
                self.credit.notify();
                // Recycle the receive slot immediately; control traffic does
                // not count toward data credit.
                self.repost(sim, &buf)?;
                self.made_progress(sim);
                Ok(())
            }
            MsgKind::Data => {
                {
                    let declared =
                        (header.state == StreamState::Depleted).then_some(header.counter);
                    let mut sources = self.sources.lock();
                    let src = sources.count(header.src, declared);
                    let now = sim.now().as_nanos();
                    self.audit
                        .counted_receive(header.src as u64, src.received, src.declared, now);
                    if sources.tally[Standing::Open as usize] == 0 {
                        self.settled.notify();
                    }
                }
                self.made_progress(sim);
                let src = c.src_node;
                let delivery = deliver(sim, &self.recv_obs, &self.audit, &header, buf, src, 0)?;
                self.data_gate.push(delivery);
                Ok(())
            }
        }
    }

    /// Stamps an arrival: the straggler wait counts from the last one.
    fn made_progress(&self, sim: &SimContext) {
        self.last_progress
            .store(sim.now().as_nanos(), Ordering::Relaxed);
    }

    /// Recycles the buffer of one send completion once every destination
    /// has acknowledged it.
    fn reap_send(&self, sim: &SimContext, c: &Completion) -> Result<()> {
        expect_success(c, "UD send failed")?;
        self.window.complete(sim, c.wr_id)
    }

    /// Takes a free send window. Every call first reaps the send
    /// completions already queued; with none free it waits for the next
    /// one, or for the other half to free a window.
    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.cfg
            .watchdog(sim, "waiting for a free UD send buffer")
            .wait(
                sim,
                None,
                || self.window.listen(),
                || {
                    if self.send_cq.depth() > 0 {
                        self.send_cq.poll(sim, |c| self.reap_send(sim, c))?;
                    }
                    Ok(self.window.take(sim))
                },
                |freed, abort, deadline| {
                    let reap = |c: &Completion| self.reap_send(sim, c);
                    self.send_cq
                        .drain(sim, deadline, &[&freed, abort], reap)
                        .map(drop)
                },
            )
    }

    /// Whether every expected source has delivered all counted messages
    /// (see [`Sources::done`]).
    fn check_done(&self) -> Result<DoneState> {
        self.sources.lock().done()
    }

    /// The cached AH list for a multicast destination set, built on first
    /// use. Steady-state lookups borrow the key as a slice — no allocation.
    fn cached_mcast_ahs(&self, dest: &[NodeId]) -> Result<Arc<Vec<AddressHandle>>> {
        if let Some(ahs) = self.mcast_ahs.lock().get(dest) {
            return Ok(ahs.clone());
        }
        let built = {
            let peers = self.peers.lock();
            let mut ahs = Vec::with_capacity(dest.len());
            for &d in dest {
                ahs.push(peers.get(d).and_then(|p| p.ah).ok_or_else(|| {
                    ShuffleError::Config(format!("unknown destination node {d}"))
                })?);
            }
            Arc::new(ahs)
        };
        self.mcast_ahs.lock().insert(dest.to_vec(), built.clone()); // alloc-ok: one-time cache fill per distinct destination set
        Ok(built)
    }

    /// Builds the restart error naming the worst straggler: the source
    /// with the largest deficit, ties to the lowest endpoint id.
    fn straggler_error(&self) -> ShuffleError {
        let worst = self.sources.lock().worst(Standing::Short);
        let (src, expected, received) = worst.unwrap_or((u32::MAX, 0, 0));
        ShuffleError::NetworkErrorRestartQuery {
            src,
            expected,
            received,
        }
    }
}

#[derive(Debug, PartialEq)]
enum DoneState {
    InProgress,
    WaitingForStragglers,
    Done,
}

impl SendEndpoint for SrUdSendEndpoint {
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        assert!(!dest.is_empty(), "send needs at least one destination");
        let s = &self.shared;
        // One post per target: each member alone, or the whole group at
        // once through the switch's multicast replication (§7). A
        // `Depleted` message declares each member its own count, so it is
        // never sent to a group.
        let group = s.cfg.ud_native_multicast && state == StreamState::MoreData;
        let targets = dest.chunks(if group { dest.len() } else { 1 });
        s.window.launch(sim, &buf, targets.len());
        for target in targets {
            let mut header = data_header(s.send_id, s.cfg.epoch, &buf, state);
            let mut ah = None;
            for &d in target {
                let (peer, total) = s.consume_credit(sim, d)?;
                #[cfg(feature = "saboteur")]
                let total = if state == StreamState::Depleted
                    && crate::sabotage::take(crate::sabotage::Sabotage::UnderreportDepletedCount)
                {
                    total - 1
                } else {
                    total
                };
                if state == StreamState::Depleted {
                    let now = sim.now().as_nanos();
                    s.audit
                        .depleted_announced(s.send_id.0 as u64, d as u64, total, now);
                }
                (ah, header.counter) = (Some(peer), total);
            }
            // The header is written immediately before posting: the
            // `Depleted` counter is specific to each destination (a group's
            // is never read).
            buf.write_header(&header)?;
            match target {
                [_] => s.post(sim, UdShared::send_wr(&buf, ah), None)?,
                group => {
                    let ahs = s.cached_mcast_ahs(group)?;
                    s.post(sim, UdShared::send_wr(&buf, None), Some(&ahs))?
                }
            }
            for &d in target {
                s.send_obs.sent(d, buf.len() as u64);
            }
        }
        // Every datagram captured its message when posted.
        s.window.discard(&buf);
        Ok(())
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.shared.get_free(sim)
    }

    fn quiesce(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        self.shared.quiesce_dest(sim, dest)
    }
}

impl ReceiveEndpoint for SrUdReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        let s = &self.shared;
        let watchdog = s.cfg.watchdog(sim, "UD receive endpoint made no progress");
        loop {
            watchdog.aborted()?;
            let settled = s.settled.listen();
            if let Some(d) = s.data_gate.try_recv() {
                return Ok(Some(d));
            }
            if s.done.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if s.recv_cq.depth() > 0 {
                // What already arrived counts before termination is judged.
                s.recv_cq.poll(sim, |c| s.process_inbound(sim, c))?;
                continue;
            }
            let deadline = match s.check_done()? {
                DoneState::Done => {
                    s.done.store(true, Ordering::SeqCst);
                    return Ok(None);
                }
                DoneState::WaitingForStragglers => {
                    // All totals are known but packets are missing — either
                    // still in flight (common: out-of-order delivery) or
                    // lost (rare). Wait bounded time since the last arrival.
                    let last = SimTime::from_nanos(s.last_progress.load(Ordering::Relaxed));
                    let give_up = last + s.cfg.depleted_timeout;
                    if sim.now() >= give_up {
                        return Err(s.straggler_error());
                    }
                    give_up
                }
                DoneState::InProgress => {
                    watchdog.expired(sim)?;
                    watchdog.deadline()
                }
            };
            // Data the send half drained arrives through the gate.
            let abort = watchdog.abort_source();
            s.drain_inbound(sim, deadline, &[&s.data_gate, &settled, abort])?;
        }
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        let (s, local) = (&self.shared, &delivery.local);
        s.audit.released(buf_id(local), sim.now().as_nanos());
        s.repost(sim, local)?;
        let (credit_now, write_back, sender) = s.update_peer(delivery.src, |peer| {
            peer.granted += 1;
            peer.releases += 1;
            let freq = s.cfg.credit_writeback_frequency;
            let write_back = peer.releases.is_multiple_of(freq);
            (peer.granted, write_back, peer.sender)
        });
        // Once every source has delivered its declared total nothing more
        // arrives: credit would only be tail traffic, still in flight when
        // the exchange is torn down.
        if write_back && !matches!(s.check_done(), Ok(DoneState::Done)) {
            s.audit.credit_granted(
                CreditLane::Ud {
                    sender: sender as u64,
                    dest: s.node,
                },
                credit_now,
                sim.now().as_nanos(),
            );
            s.send_credit(sim, delivery.src, credit_now)?;
        }
        Ok(())
    }

    fn bytes_received(&self) -> u64 {
        self.shared.recv_obs.bytes_received()
    }
}

impl UdShared {
    /// Sends an absolute-credit datagram to `dest` on the shared QP.
    fn send_credit(&self, sim: &SimContext, dest: NodeId, credit: u64) -> Result<()> {
        let (_, ah) = wired(&mut self.peers.lock(), dest, "no lane to credit target")?;
        // Credit datagrams are header-only (an empty buffer's message);
        // source them from a free send buffer (waiting briefly if the pool
        // is momentarily empty).
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
        self.post(sim, UdShared::send_wr(&buf, Some(ah)), None)?;
        self.window.discard(&buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rshuffle_obs::{EventKind, Record};
    use rshuffle_simnet::{Cluster, DeviceProfile};
    use rshuffle_verbs::{ConnectionManager, QpState, VerbsError, VerbsRuntime};

    use super::*;
    use crate::buffer::HEADER_LEN;
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

    /// A channel on node 0 of a four-node runtime, as `Exchange::build`
    /// leaves it: its Queue Pair active, nodes 1 and 2 wired as peers, its
    /// receive pool posted for `expected` and its credit toward node 1
    /// seeded with `credit`. Node 3 is in the cluster but no peer.
    fn wired(expected: &[(EndpointId, NodeId)], credit: u64) -> (Arc<VerbsRuntime>, SrUdChannel) {
        let rt = VerbsRuntime::new(Cluster::new(4, DeviceProfile::edr()));
        let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 4, 1);
        let params = config.params(rt.profile());
        let ctx = rt.context(0);
        let channel = SrUdChannel::new(&ctx, EndpointId(0), EndpointId(1), params.clone());
        for node in [1, 2] {
            let id = EndpointId(2 * node as u32);
            let peer =
                SrUdChannel::new(&rt.context(node), id, EndpointId(id.0 + 1), params.clone());
            channel.add_peer(node, peer.address_handle());
        }
        assert!(ConnectionManager::activate_untimed(channel.qp(), None).is_ok());
        assert!(channel.bootstrap_receives(&ctx, expected).is_ok());
        channel.bootstrap_credit(1, credit);
        (rt, channel)
    }

    /// Runs `body` on a simulated thread of node 0; an error out of it
    /// fails the test.
    fn in_sim(
        rt: &Arc<VerbsRuntime>,
        body: impl FnOnce(&SimContext) -> Result<()> + Send + 'static,
    ) {
        rt.cluster().spawn(0, "sr-ud-test", move |sim| {
            if let Err(e) = body(&sim) {
                panic!("UD test body failed: {e:?}");
            }
        });
        rt.cluster().run();
    }

    /// Lands `header`, sent from `src_node`, in receive window `slot` and
    /// hands its completion to the channel, as the NIC and a drain would.
    fn arrive(
        s: &UdShared,
        sim: &SimContext,
        slot: usize,
        src_node: NodeId,
        header: MsgHeader,
    ) -> Result<()> {
        let pool = s.recv_pool.get().cloned();
        let pool = pool.ok_or(ShuffleError::CompletionError("no receive pool"))?;
        Buffer::try_new(pool, slot * UD_MTU, UD_MTU)?.write_header(&header)?;
        let completion = Completion {
            wr_id: (slot * UD_MTU) as u64,
            status: rshuffle_verbs::WcStatus::Success,
            opcode: rshuffle_verbs::WcOpcode::Recv,
            byte_len: HEADER_LEN,
            src_node,
            src_qp: rshuffle_verbs::QpNum(0),
            qp: s.qp.qpn(),
            imm: None,
            posted_ns: 0,
            deposited_ns: 0,
        };
        s.process_inbound(sim, &completion)
    }

    /// The header of a datagram from endpoint `src`: absolute credit
    /// `counter` for [`MsgKind::Credit`], the sender's data total on a
    /// `Depleted` data message.
    fn header(src: u32, kind: MsgKind, state: StreamState, counter: u64) -> MsgHeader {
        MsgHeader {
            src,
            kind,
            state,
            epoch: 0,
            payload_len: 0,
            src_tid: 0,
            counter,
            remote_addr: 0,
        }
    }

    #[test]
    fn credit_is_the_maximum_over_reordered_credit_datagrams() {
        let (rt, channel) = wired(&[(EndpointId(2), 1)], 4);
        let s = channel.shared.clone();
        in_sim(&rt, move |sim| {
            // Node 1 wrote back 9, then 5; the 5 overtook nothing, it was
            // simply sent first and arrived last.
            let credit = |counter| header(3, MsgKind::Credit, StreamState::MoreData, counter);
            arrive(&s, sim, 0, 1, credit(9))?;
            arrive(&s, sim, 1, 1, credit(5))?;
            for sent in 0..9 {
                assert!(s.consume_credit(sim, 1).is_ok(), "message {sent}");
            }
            let tenth = s.consume_credit(sim, 1);
            assert!(matches!(tenth, Err(ShuffleError::Stalled(_))), "{tenth:?}");
            Ok(())
        });
    }

    #[test]
    fn quiesce_toward_a_never_bootstrapped_destination_returns_at_once() {
        let (rt, channel) = wired(&[(EndpointId(2), 1)], 4);
        let send = channel.send_half();
        in_sim(&rt, move |sim| {
            let start = sim.now();
            // Node 2 is a peer, node 3 is not and node 9 is outside the
            // cluster: none was granted credit, so nothing was ever sent.
            for dest in [2, 3, 9] {
                send.quiesce(sim, dest)?;
            }
            // Node 1's whole window is unused: already drained.
            send.quiesce(sim, 1)?;
            assert_eq!(sim.now(), start);
            Ok(())
        });
    }

    /// Two fibers on one channel, both waiting on its receive CQ: the
    /// receive half drains the credit datagram the send half's `quiesce`
    /// waits for, and the sender resumes one CQ wake latency after the
    /// fold — not when a poll slice of its own runs out.
    #[test]
    fn quiesce_resumes_when_the_receive_half_folds_the_credit() {
        let rt = VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()));
        let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 2, 1);
        let params = config.params(rt.profile());
        let here = SrUdChannel::new(&rt.context(0), EndpointId(0), EndpointId(1), params.clone());
        let there = SrUdChannel::new(&rt.context(1), EndpointId(2), EndpointId(3), params);
        for (channel, peer, node) in [(&here, &there, 1), (&there, &here, 0)] {
            channel.add_peer(node, peer.address_handle());
            assert!(ConnectionManager::activate_untimed(channel.qp(), None).is_ok());
        }
        assert!(here
            .bootstrap_receives(&rt.context(0), &[(EndpointId(2), 1)])
            .is_ok());
        // Four messages went out toward node 1 on a window of four: the
        // whole window is owed back.
        here.bootstrap_credit(1, 4);
        here.shared.update_peer(1, |peer| peer.sent = 4);
        let seen = Arc::new(Mutex::new((0, None, None)));
        // Spawned first, the receive half is the CQ's longest waiter.
        let (recv, out) = (here.recv_half(), seen.clone());
        rt.cluster().spawn(0, "receive half", move |sim| {
            out.lock().0 = sim.id().track();
            let nothing = recv.get_data(&sim);
            out.lock().1 = Some(matches!(nothing, Err(ShuffleError::Stalled(_))));
        });
        let (send, out) = (here.send_half(), seen.clone());
        rt.cluster().spawn(0, "send half", move |sim| {
            let drained = send.quiesce(&sim, 1).is_ok();
            out.lock().2 = drained.then(|| sim.now());
        });
        let peer = there.shared.clone();
        rt.cluster().spawn(1, "peer", move |sim| {
            sim.sleep(SimDuration::from_micros(5));
            assert!(peer.send_credit(&sim, 0, 8).is_ok());
        });
        rt.cluster().run();
        let (track, receive_stalled, resumed) = *seen.lock();
        assert_eq!(receive_stalled, Some(true), "no data ever arrived");
        let tracks = rt.obs().recorder.dump();
        let polled = tracks.iter().filter(|t| (t.0, t.1) == (0, track));
        let folded = polled.flat_map(|t| t.3.iter()).find_map(|r| match r {
            Record::Instant {
                at_ns,
                kind: EventKind::CompletionPolled,
                ..
            } => Some(SimTime::from_nanos(*at_ns)),
            _ => None,
        });
        let Some(folded) = folded else {
            panic!("the receive half drained no credit datagram");
        };
        assert_eq!(resumed, Some(folded + rt.profile().completion_latency));
    }

    #[test]
    fn an_unknown_destination_is_a_config_error() {
        let (rt, channel) = wired(&[(EndpointId(2), 1)], 4);
        let (send, s) = (channel.send_half(), channel.shared.clone());
        in_sim(&rt, move |sim| {
            for dest in [3, 9] {
                let buf = send.get_free(sim)?;
                let sent = send.send(sim, buf, &[dest], StreamState::MoreData);
                assert!(
                    matches!(sent, Err(ShuffleError::Config(_))),
                    "{dest}: {sent:?}"
                );
                let credit = s.send_credit(sim, dest, 1);
                assert!(
                    matches!(credit, Err(ShuffleError::Config(_))),
                    "{dest}: {credit:?}"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn termination_waits_for_stragglers_and_refuses_over_delivery() {
        let (rt, channel) = wired(&[(EndpointId(2), 1)], 4);
        let s = channel.shared.clone();
        in_sim(&rt, move |sim| {
            let data = |state, counter| header(2, MsgKind::Data, state, counter);
            assert_eq!(s.check_done()?, DoneState::InProgress);
            arrive(&s, sim, 0, 1, data(StreamState::MoreData, 0))?;
            assert_eq!(s.check_done()?, DoneState::InProgress);
            // The Depleted message overtook one of the two it follows.
            arrive(&s, sim, 1, 1, data(StreamState::Depleted, 3))?;
            assert_eq!(s.check_done()?, DoneState::WaitingForStragglers);
            arrive(&s, sim, 2, 1, data(StreamState::MoreData, 0))?;
            assert_eq!(s.check_done()?, DoneState::Done);
            // A fourth message against a declared three.
            arrive(&s, sim, 3, 1, data(StreamState::MoreData, 0))?;
            let over = s.check_done();
            assert!(
                matches!(&over, Err(ShuffleError::Corrupt(why)) if why.contains("source 2")),
                "{over:?}"
            );
            Ok(())
        });
        // A channel expecting nobody is done before anything arrives.
        let (_, idle) = wired(&[], 4);
        assert!(matches!(idle.shared.check_done(), Ok(DoneState::Done)));
    }

    /// The straggler error names the source with the largest deficit,
    /// ties to the lowest endpoint id — not whichever a hash table
    /// happened to visit first — and so does the over-delivery error.
    #[test]
    fn the_worst_straggler_is_named() {
        let expected = [(14, 3), (10, 1), (12, 2)].map(|(ep, node)| (EndpointId(ep), node));
        let (rt, channel) = wired(&expected, 4);
        let s = channel.shared.clone();
        in_sim(&rt, move |sim| {
            let mut slot = 0;
            let mut land = |ep, node, state, counter| {
                slot += 1;
                arrive(
                    &s,
                    sim,
                    slot,
                    node,
                    header(ep, MsgKind::Data, state, counter),
                )
            };
            // `(endpoint, node, declared, received)`: deficits 1, 3 and 3.
            for (ep, node, declared, received) in [(14, 3, 5, 2), (10, 1, 3, 2), (12, 2, 4, 1)] {
                for _ in 1..received {
                    land(ep, node, StreamState::MoreData, 0)?;
                }
                land(ep, node, StreamState::Depleted, declared)?;
            }
            assert_eq!(s.check_done()?, DoneState::WaitingForStragglers);
            let named = s.straggler_error();
            assert!(
                matches!(
                    named,
                    ShuffleError::NetworkErrorRestartQuery {
                        src: 12,
                        expected: 4,
                        received: 1
                    }
                ),
                "{named:?}"
            );
            // Over-delivery by one from endpoint 12 and by two from 10.
            for (ep, node, extra) in [(12, 2, 4), (10, 1, 3)] {
                for _ in 0..extra {
                    land(ep, node, StreamState::MoreData, 0)?;
                }
            }
            let over = s.check_done();
            assert!(
                matches!(&over, Err(ShuffleError::Corrupt(why)) if why.starts_with("source 10 ")),
                "{over:?}"
            );
            Ok(())
        });
    }
}
