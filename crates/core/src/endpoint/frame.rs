//! The endpoint frame: the machinery every transport needs in the same
//! shape, kept once.
//!
//! The paper defines one endpoint abstraction (§4.2) and spends
//! §4.4.1–4.4.3 on the two things that differ between designs — how a
//! flow-control token travels back and how a payload travels forward
//! (Table 1). Everything else lives here, as small pieces a transport
//! composes; the table in the [`endpoint`](super) module docs says which
//! transport uses which piece and what it keeps for itself. No piece
//! knows which transport it serves: UD's counting termination, credit
//! datagrams, multicast address-handle cache and `quiesce` stay in
//! `sr_ud`, because sharing them would make the frame ask who is calling.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, BufId, RingKey, RingKind};
use rshuffle_simnet::sync::SimMutexGuard;
use rshuffle_simnet::{
    Kernel, Listener, NodeId, Notify, SimContext, SimDuration, SimMutex, SimTime, Waitable,
};
use rshuffle_verbs::{
    Completion, CompletionQueue, Context, MemoryRegion, QpType, QueuePair, RemoteAddr, WcOpcode,
    WcStatus,
};

use crate::buffer::{Buffer, BufferPool, MsgHeader, MsgKind, StreamState};
use crate::endpoint::{audit_handle, buf_id, Delivery, EndpointId, RecvObs, SendObs};
use crate::error::{Result, ShuffleError};

/// Batch size for completion-queue drains: how many completions one
/// `ibv_poll_cq`-style call retrieves at most.
const CQ_BATCH: usize = 64;

/// Slots in the rotating scratch region that sources inline writes.
const INLINE_SLOTS: usize = 64;

/// Work-request ids at or above this value are inline control writes
/// (ring announcements, grants, credit); data work requests are tagged
/// with buffer offsets, which stay far below.
pub(crate) const INLINE_WR_BASE: u64 = 1 << 48;

/// What one endpoint half pins: `buffers` message windows of `window`
/// bytes, `rings` u64 rings of `ring_cap` slots each, and optionally the
/// inline-write scratch. Each transport derives its layouts from the
/// exchange's [`Params`](super::Params) in one function that both its
/// constructor and the exchange's footprint (the bytes of Figure 9b, the
/// registration time of Figure 12, the admission estimate) call.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Layout {
    pub window: usize,
    pub buffers: usize,
    pub rings: usize,
    pub ring_cap: usize,
    pub inline_writes: bool,
}

impl Layout {
    pub(crate) fn pool_bytes(&self) -> usize {
        self.window * self.buffers
    }

    pub(crate) fn ring_bytes(&self) -> usize {
        8 * self.ring_cap * self.rings
    }

    /// Bytes the endpoint reports as registered (Figure 9b) and pays
    /// registration time for: the pool and the rings.
    pub(crate) fn registered(&self) -> usize {
        self.pool_bytes() + self.ring_bytes()
    }

    /// Bytes the runtime's registry sees: [`Layout::registered`] plus the
    /// inline-write scratch.
    pub(crate) fn pinned(&self) -> usize {
        self.registered()
            + if self.inline_writes {
                INLINE_SLOTS * 8
            } else {
                0
            }
    }
}

/// A completion queue with its pool of reusable scratch vectors.
///
/// A drain takes a vector, batch-drains into it, processes, and puts it
/// back: a vector grows to the largest batch its CQ drains (at most
/// `CQ_BATCH`), the steady state allocates nothing, and no lock is held
/// across a blocking drain (each concurrent drainer works on its own
/// vector, so SE-mode threads can never deadlock the kernel on a
/// parking-lot mutex).
pub(crate) struct Cq {
    cq: CompletionQueue,
    scratch: Mutex<Vec<Vec<Completion>>>,
}

impl Cq {
    pub(crate) fn new(ctx: &Context) -> Cq {
        Cq {
            cq: ctx.create_cq(),
            scratch: Mutex::new(vec![Vec::new()]), // alloc-ok: grows on its first drains
        }
    }

    pub(crate) fn queue(&self) -> &CompletionQueue {
        &self.cq
    }

    pub(crate) fn depth(&self) -> usize {
        self.cq.depth()
    }

    /// Waits until a completion is queued, one of `also` is ready or
    /// `deadline` passes, drains a batch (one poll cost for the whole
    /// drain) and hands each entry to `each`. Returns whether anything
    /// was retrieved.
    pub(crate) fn drain(
        &self,
        sim: &SimContext,
        deadline: SimTime,
        also: &[&dyn Waitable],
        each: impl FnMut(&Completion) -> Result<()>,
    ) -> Result<bool> {
        self.batch(
            |b| self.cq.drain_into(sim, b, CQ_BATCH, deadline, also),
            each,
        )
    }

    /// Like [`Cq::drain`] without the wait: takes only what is queued.
    pub(crate) fn poll(
        &self,
        sim: &SimContext,
        each: impl FnMut(&Completion) -> Result<()>,
    ) -> Result<bool> {
        self.batch(|b| self.cq.poll_into(sim, b, CQ_BATCH), each)
    }

    fn batch(
        &self,
        fill: impl FnOnce(&mut Vec<Completion>) -> usize,
        each: impl FnMut(&Completion) -> Result<()>,
    ) -> Result<bool> {
        // Falls back to a fresh vector when every pooled one is in use by
        // another thread.
        let mut batch = self.scratch.lock().pop().unwrap_or_default();
        let n = fill(&mut batch);
        let result = batch.iter().try_for_each(each);
        self.scratch.lock().push(batch);
        result.map(|()| n > 0)
    }
}

/// A notify for endpoint state that several threads of one node poll —
/// credit, the free pool, deliveries decoded by another thread: a waiter
/// notices a change as it would notice a completion, after the CQ's
/// completion latency.
pub(crate) fn state_notify(ctx: &Context) -> Notify {
    let rt = ctx.runtime();
    Notify::new(rt.kernel(), rt.profile().completion_latency)
}

/// Fails with `what` unless `c` completed successfully.
pub(crate) fn expect_success(c: &Completion, what: &'static str) -> Result<()> {
    if c.status == WcStatus::Success {
        Ok(())
    } else {
        Err(ShuffleError::CompletionError(what))
    }
}

/// Checks the ack of an inline control write: `failed` unless it
/// succeeded, and nothing but writes may show up among such acks.
pub(crate) fn expect_write_ack(c: &Completion, failed: &'static str) -> Result<()> {
    expect_success(c, failed)?;
    if c.opcode != WcOpcode::Write {
        return Err(ShuffleError::CompletionError(
            "unexpected opcode among control-write acks",
        ));
    }
    Ok(())
}

/// The address of `mr`'s first byte, as a peer names it.
pub(crate) fn region_base(mr: &MemoryRegion) -> RemoteAddr {
    RemoteAddr {
        node: mr.node(),
        rkey: mr.rkey(),
        offset: 0,
    }
}

/// The per-peer side of a reliable-connection endpoint half: the
/// peer↔slot tables, one RC Queue Pair per peer (Θ(n) per endpoint, the
/// "MQ" designs) and the lock that serializes posting.
pub(crate) struct RcHalf {
    pub id: EndpointId,
    pub audit: AuditHandle,
    /// Slot of each peer, indexed by node id.
    index: Vec<Option<usize>>,
    /// Node of each slot.
    peers: Vec<NodeId>,
    qps: Vec<QueuePair>,
    /// Serializes `ibv_post_send`; the contention cost of sharing one
    /// endpoint among threads (SE configurations) shows up here.
    post_lock: SimMutex<()>,
}

/// The lock serializing posts on one endpoint's Queue Pairs.
pub(crate) fn post_lock(ctx: &Context) -> SimMutex<()> {
    SimMutex::new(ctx.runtime().kernel(), (), SimDuration::from_nanos(60))
}

impl RcHalf {
    /// Creates one unconnected RC Queue Pair per peer, completing sends
    /// into `send_cq` and receives into `recv_cq` (the exchange builder
    /// wires them to the matching halves).
    pub(crate) fn new(
        ctx: &Context,
        id: EndpointId,
        peers: Vec<NodeId>,
        send_cq: &Cq,
        recv_cq: &Cq,
    ) -> RcHalf {
        assert!(!peers.is_empty(), "endpoint needs at least one peer");
        let mut index = vec![None; peers.iter().max().map_or(0, |&last| last + 1)];
        for (slot, &peer) in peers.iter().enumerate() {
            index[peer] = Some(slot);
        }
        RcHalf {
            id,
            audit: audit_handle(ctx),
            index,
            qps: peers
                .iter()
                .map(|_| ctx.create_qp(QpType::Rc, send_cq.cq.clone(), recv_cq.cq.clone()))
                .collect(),
            peers,
            post_lock: post_lock(ctx),
        }
    }

    pub(crate) fn peers(&self) -> usize {
        self.peers.len()
    }

    /// The node behind `slot`.
    pub(crate) fn peer(&self, slot: usize) -> NodeId {
        self.peers[slot]
    }

    /// Slot index of `peer`.
    pub(crate) fn index_of(&self, peer: NodeId) -> Result<usize> {
        self.index
            .get(peer)
            .copied()
            .flatten()
            .ok_or_else(|| ShuffleError::Config(format!("unknown peer node {peer}")))
    }

    pub(crate) fn qp(&self, slot: usize) -> &QueuePair {
        &self.qps[slot]
    }

    /// The QP facing `peer` (for the exchange builder's wiring).
    pub(crate) fn qp_for(&self, peer: NodeId) -> &QueuePair {
        match self.index.get(peer) {
            Some(&Some(slot)) => &self.qps[slot],
            _ => panic!("no Queue Pair faces node {peer}"),
        }
    }

    pub(crate) fn lock_post(&self, sim: &SimContext) -> SimMutexGuard<'_, ()> {
        self.post_lock.lock(sim)
    }
}

/// The send side's registered buffer pool and its in-flight table: a
/// buffer sent to `k` destinations completes once per destination and
/// rejoins the pool on the last.
pub(crate) struct SendWindow {
    pool: BufferPool,
    /// Completions still owed per window, indexed by window (0: not in
    /// flight).
    in_flight: Mutex<Vec<u32>>,
    /// Notified whenever a buffer rejoins the pool.
    freed: Notify,
    audit: AuditHandle,
}

impl SendWindow {
    /// Registers and carves the pool `layout` describes.
    pub(crate) fn register(ctx: &Context, layout: &Layout) -> SendWindow {
        let mr = ctx.register_pool_untimed(layout.window, layout.buffers);
        SendWindow {
            pool: BufferPool::carve(mr, 0, layout.window, layout.buffers),
            in_flight: Mutex::new(vec![0; layout.buffers]),
            freed: state_notify(ctx),
            audit: audit_handle(ctx),
        }
    }

    pub(crate) fn region(&self) -> &MemoryRegion {
        self.pool.region()
    }

    /// A listener that hears every buffer rejoining the pool from now on.
    pub(crate) fn listen(&self) -> Listener {
        self.freed.listen()
    }

    /// Pops a free buffer, if any.
    pub(crate) fn take(&self, sim: &SimContext) -> Option<Buffer> {
        let buf = self.pool.try_take()?;
        self.audit.buffer_taken(buf_id(&buf), sim.now().as_nanos());
        Some(buf)
    }

    /// Marks `buf` in flight toward `fanout` destinations.
    pub(crate) fn launch(&self, sim: &SimContext, buf: &Buffer, fanout: usize) {
        self.audit.buffer_sent(buf_id(buf), sim.now().as_nanos());
        self.in_flight.lock()[buf.offset() / self.pool.window()] = fanout as u32;
    }

    /// Gives `buf`'s storage back once every message it carries is posted:
    /// each holds its own reference to the bytes it captured, so the
    /// window need not stay backed until its completions are reaped.
    pub(crate) fn discard(&self, buf: &Buffer) {
        buf.region().discard(buf.offset(), buf.window());
    }

    /// One destination is done with the buffer at `offset`; the last one
    /// recycles it.
    pub(crate) fn complete(&self, sim: &SimContext, offset: u64) -> Result<()> {
        {
            let window = self.pool.window() as u64;
            let mut in_flight = self.in_flight.lock();
            let owed = match offset % window {
                0 => in_flight.get_mut((offset / window) as usize),
                _ => None,
            };
            let Some(remaining) = owed.filter(|owed| **owed > 0) else {
                return Err(ShuffleError::CompletionError(
                    "completion for a buffer that is not in flight",
                ));
            };
            *remaining -= 1;
            if *remaining > 0 {
                return Ok(());
            }
        }
        let id = BufId {
            rkey: self.pool.region().rkey(),
            offset,
        };
        self.audit.buffer_recycled(id, sim.now().as_nanos());
        self.pool.recycle_offset(offset as usize)?;
        self.freed.notify();
        Ok(())
    }
}

/// One attempt's abort, shared by every endpoint of its exchange. Whoever
/// runs the attempt raises it once its first worker fails; it lands one
/// modelled control message later, and from then on every endpoint wait
/// of the exchange returns [`ShuffleError::Aborted`] instead of waiting
/// out its stall deadline.
#[derive(Clone)]
pub(crate) struct Abort(Arc<AbortInner>);

struct AbortInner {
    notify: Notify,
    /// Taken before any landing, so it stays ready once the abort landed:
    /// a wait reads it as a plain flag and parks on it as a source.
    landed: Listener,
    /// From the raise to the landing: the control message's flight.
    delay: SimDuration,
}

impl Abort {
    pub(crate) fn new(kernel: &Kernel, delay: SimDuration) -> Abort {
        let notify = Notify::new(kernel, SimDuration::ZERO);
        let landed = notify.listen();
        Abort(Arc::new(AbortInner {
            notify,
            landed,
            delay,
        }))
    }

    /// Lands the abort `delay` after now, then runs `also` (an event
    /// action: it must not block).
    pub(crate) fn raise(&self, kernel: &Kernel, also: impl FnOnce() + Send + 'static) {
        let notify = self.0.notify.clone();
        kernel.schedule_in(self.0.delay, move || {
            notify.notify();
            also();
        });
    }

    /// Whether the abort has landed.
    pub(crate) fn landed(&self) -> bool {
        self.0.landed.ready()
    }
}

impl fmt::Debug for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Abort")
            .field("landed", &self.landed())
            .field("delay", &self.0.delay)
            .finish()
    }
}

/// No abort to park on: a watchdog of an exchange-less wait.
const NO_ABORT: &[&dyn Waitable] = &[];

/// The stall watchdog of every endpoint wait: a deadline after which the
/// wait returns a typed [`ShuffleError::Stalled`] instead of hanging, and
/// the exchange's [`Abort`], after which it returns
/// [`ShuffleError::Aborted`]. A wait blocks until something that can
/// satisfy it happens, the abort lands or the deadline passes, never for
/// a slice.
pub(crate) struct Watchdog<'a> {
    deadline: SimTime,
    what: &'static str,
    abort: Option<&'a Abort>,
}

impl<'a> Watchdog<'a> {
    pub(crate) fn new(
        sim: &SimContext,
        timeout: SimDuration,
        abort: Option<&'a Abort>,
        what: &'static str,
    ) -> Watchdog<'a> {
        Watchdog {
            deadline: sim.now() + timeout,
            what,
            abort,
        }
    }

    pub(crate) fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// Fails with the typed stall once the deadline has passed.
    pub(crate) fn expired(&self, sim: &SimContext) -> Result<()> {
        if sim.now() >= self.deadline {
            Err(ShuffleError::Stalled(self.what))
        } else {
            Ok(())
        }
    }

    /// Fails with [`ShuffleError::Aborted`] once the abort has landed: a
    /// plain flag read.
    pub(crate) fn aborted(&self) -> Result<()> {
        match self.abort {
            Some(abort) if abort.landed() => Err(ShuffleError::Aborted),
            _ => Ok(()),
        }
    }

    /// What a park waits on besides its own sources: the abort landing.
    pub(crate) fn abort_source(&self) -> &'a dyn Waitable {
        match self.abort {
            Some(abort) => &abort.0.landed,
            None => &NO_ABORT,
        }
    }

    /// Runs `ready` until it yields a value. Before each check it fails
    /// if the abort has landed — a sender that never blocks would
    /// otherwise go on sending into receivers that stopped — and takes
    /// `listen`'s listeners; after a failed one it hands them, the
    /// abort's source and the deadline to `park`, which blocks until one
    /// of them — or whatever else can satisfy `ready` — fires, or the
    /// deadline passes. A change made while `ready` runs is heard, not
    /// lost.
    ///
    /// With `stall` set, the wait is a flow-control stall (Figure 8): the
    /// bracket opens on the first failed check — the common ready path
    /// records nothing — and closes on every exit, whether the value, the
    /// typed stall or abort, or an error out of `ready` or `park`.
    pub(crate) fn wait<T, L>(
        self,
        sim: &SimContext,
        stall: Option<&SendObs>,
        mut listen: impl FnMut() -> L,
        mut ready: impl FnMut() -> Result<Option<T>>,
        mut park: impl FnMut(L, &dyn Waitable, SimTime) -> Result<()>,
    ) -> Result<T> {
        let mut stalled_at = None;
        let result: Result<T> = (|| loop {
            self.aborted()?;
            let heard = listen();
            if let Some(value) = ready()? {
                return Ok(value);
            }
            if let (Some(obs), None) = (stall, stalled_at) {
                stalled_at = Some(obs.stall_begin(sim));
            }
            self.expired(sim)?;
            park(heard, self.abort_source(), self.deadline)?;
        })();
        if let (Some(obs), Some(at)) = (stall, stalled_at) {
            obs.stall_end(sim, at);
        }
        result
    }
}

/// The rotating scratch region that sources 8-byte control writes. The
/// paper inlines such values in the work request to save a DMA fetch
/// (§4.4.1); the payload is snapshotted at post time, so rotating over a
/// few slots without tracking their reuse is safe.
pub(crate) struct InlineWrites {
    mr: MemoryRegion,
    seq: AtomicU64,
}

impl InlineWrites {
    pub(crate) fn register(ctx: &Context) -> InlineWrites {
        InlineWrites {
            mr: ctx.register_untimed(INLINE_SLOTS * 8),
            seq: AtomicU64::new(0),
        }
    }

    /// RDMA-Writes `value` to `target` over `qp`. A caller sharing `qp`
    /// among threads holds the post lock around this call: a thread
    /// blocked on the lock would otherwise let its slot be recycled
    /// before the payload is snapshotted.
    pub(crate) fn post(
        &self,
        sim: &SimContext,
        qp: &QueuePair,
        target: RemoteAddr,
        value: u64,
    ) -> Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let off = (seq % INLINE_SLOTS as u64) as usize * 8;
        self.mr.write_u64(off, value)?;
        qp.post_write(sim, INLINE_WR_BASE + seq, (self.mr.clone(), off), target, 8)?;
        Ok(())
    }
}

/// Audit identity of a ring from its base address (the owning side and
/// the remote side derive the same key, so both feed one ring record).
fn ring_key(base: &RemoteAddr) -> RingKey {
    RingKey {
        rkey: base.rkey,
        base: base.offset as u64,
    }
}

/// The u64 circular queues an endpoint half owns and consumes: one ring
/// of `cap` slots per peer in registered memory, RDMA-written by the
/// peer with `value + 1` (zero means empty) — FreeArr and the grant ring
/// at a sender, ValidArr at a receiver.
pub(crate) struct SlotRings {
    mr: MemoryRegion,
    cap: usize,
    /// Consumer cursor per ring.
    cons: Mutex<Vec<u64>>,
    audit: AuditHandle,
}

impl SlotRings {
    /// Registers the rings `layout` describes.
    pub(crate) fn register(ctx: &Context, kind: RingKind, layout: &Layout) -> SlotRings {
        let rings = SlotRings {
            mr: ctx.register_untimed(layout.ring_bytes()),
            cap: layout.ring_cap,
            cons: Mutex::new(vec![0; layout.rings]),
            audit: audit_handle(ctx),
        };
        for i in 0..layout.rings {
            rings
                .audit
                .ring(ring_key(&rings.base(i)), kind, rings.cap as u64);
        }
        rings
    }

    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// The region remote writes land in, for update waits.
    pub(crate) fn region(&self) -> &MemoryRegion {
        &self.mr
    }

    /// Where the peer that produces into ring `i` writes slot 0.
    pub(crate) fn base(&self, i: usize) -> RemoteAddr {
        RemoteAddr {
            offset: 8 * self.cap * i,
            ..region_base(&self.mr)
        }
    }

    fn slot(&self, i: usize, cursor: u64) -> usize {
        8 * (self.cap * i + cursor as usize % self.cap)
    }

    /// Pops the value at ring `i`'s consumer cursor, if one was produced:
    /// reads the slot, clears it and advances.
    pub(crate) fn try_consume(&self, sim: &SimContext, i: usize) -> Result<Option<u64>> {
        let mut cons = self.cons.lock();
        let slot = self.slot(i, cons[i]);
        let v = self.mr.read_u64(slot)?;
        if v == 0 {
            return Ok(None);
        }
        self.mr.write_u64(slot, 0)?;
        cons[i] += 1;
        self.audit
            .ring_consumed(ring_key(&self.base(i)), sim.now().as_nanos());
        Ok(Some(v - 1))
    }

    /// Whether nothing is waiting at ring `i`'s consumer cursor.
    fn is_empty(&self, i: usize) -> Result<bool> {
        let slot = self.slot(i, self.cons.lock()[i]);
        Ok(self.mr.read_u64(slot)? == 0)
    }

    /// Whether no ring has anything waiting.
    pub(crate) fn all_empty(&self) -> Result<bool> {
        let rings = self.cons.lock().len();
        for i in 0..rings {
            if !self.is_empty(i)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Fills ring `i` from slot 0 with `values`, as its producer would —
    /// the out-of-band bootstrap before any traffic, at virtual 0.
    pub(crate) fn seed(&self, i: usize, values: &[u64]) -> Result<()> {
        if values.len() > self.cap {
            return Err(ShuffleError::Config(format!(
                "{} initial entries exceed ring capacity {}",
                values.len(),
                self.cap
            )));
        }
        for (k, &v) in values.iter().enumerate() {
            self.mr.write_u64(self.slot(i, k as u64), v + 1)?;
            self.audit.ring_produced(ring_key(&self.base(i)), 0);
        }
        Ok(())
    }
}

/// The producer end of the peers' [`SlotRings`]: per peer, the ring base
/// it shared out of band and this side's producer cursor, plus the
/// inline-write scratch the slot values are sourced from.
pub(crate) struct RingProducer {
    cap: usize,
    rings: Mutex<Vec<(Option<RemoteAddr>, u64)>>,
    inline: InlineWrites,
    audit: AuditHandle,
}

impl RingProducer {
    pub(crate) fn register(ctx: &Context, peers: usize, cap: usize) -> RingProducer {
        RingProducer {
            cap,
            rings: Mutex::new(vec![(None, 0); peers]),
            inline: InlineWrites::register(ctx),
            audit: audit_handle(ctx),
        }
    }

    /// Wires peer `i`'s ring, `skip` slots of which were already filled
    /// out of band. The [`SlotRings`] that owns the ring registered it with
    /// the auditor.
    pub(crate) fn wire(&self, i: usize, base: RemoteAddr, skip: u64) {
        self.rings.lock()[i] = (Some(base), skip);
    }

    /// Claims the next slot of peer `i`'s ring. Claim order fixes ring
    /// order, so claims are taken before — not under — the post lock.
    pub(crate) fn claim(&self, sim: &SimContext, i: usize) -> Result<RemoteAddr> {
        let mut rings = self.rings.lock();
        let (base, cursor) = &mut rings[i];
        let base = base.ok_or_else(|| ShuffleError::Config(format!("ring {i} not wired")))?;
        let offset = base.offset + 8 * (*cursor as usize % self.cap);
        *cursor += 1;
        self.audit
            .ring_produced(ring_key(&base), sim.now().as_nanos());
        Ok(RemoteAddr { offset, ..base })
    }

    /// RDMA-Writes `value` into the claimed `slot` over `qp`.
    pub(crate) fn publish(
        &self,
        sim: &SimContext,
        qp: &QueuePair,
        slot: RemoteAddr,
        value: u64,
    ) -> Result<()> {
        self.inline.post(sim, qp, slot, value + 1)
    }
}

/// Which of a receive half's sources, by peer slot, announced end of
/// stream.
pub(crate) struct Sources {
    depleted: Mutex<Vec<bool>>,
    all_depleted: AtomicBool,
}

impl Sources {
    pub(crate) fn new(n: usize) -> Sources {
        Sources {
            depleted: Mutex::new(vec![false; n]),
            all_depleted: AtomicBool::new(false),
        }
    }

    pub(crate) fn mark_depleted(&self, slot: usize) {
        let mut depleted = self.depleted.lock();
        depleted[slot] = true;
        if depleted.iter().all(|&d| d) {
            self.all_depleted.store(true, Ordering::SeqCst);
        }
    }

    pub(crate) fn is_depleted(&self, slot: usize) -> bool {
        self.depleted.lock()[slot]
    }

    pub(crate) fn all_depleted(&self) -> bool {
        self.all_depleted.load(Ordering::SeqCst)
    }
}

/// The header of a data message carrying `buf`: counter 0 (reliable
/// transports are ordered, so a `Depleted` arrival is authoritative) and
/// the buffer's own offset as the remote address. Transports whose
/// protocol assigns those fields another meaning override them.
pub(crate) fn data_header(
    src: EndpointId,
    epoch: u16,
    buf: &Buffer,
    state: StreamState,
) -> MsgHeader {
    MsgHeader {
        src: src.0,
        kind: MsgKind::Data,
        state,
        epoch,
        payload_len: buf.len() as u32,
        src_tid: buf.tag(),
        counter: 0,
        remote_addr: buf.offset() as u64,
    }
}

/// Accepts the data message `header` that node `src` put in `buf`: sizes
/// the buffer to the payload, counts it and wraps it for the `get_data`
/// caller.
pub(crate) fn deliver(
    sim: &SimContext,
    obs: &RecvObs,
    audit: &AuditHandle,
    header: &MsgHeader,
    mut buf: Buffer,
    src: NodeId,
    remote: u64,
) -> Result<Delivery> {
    buf.set_len(header.payload_len as usize)?;
    obs.received(header.payload_len as u64);
    audit.delivered(buf_id(&buf), sim.now().as_nanos());
    Ok(Delivery {
        state: header.state,
        src,
        src_tid: header.src_tid,
        remote,
        local: buf,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rshuffle_obs::{names, EventKind, Record};
    use rshuffle_simnet::{Cluster, DeviceProfile};
    use rshuffle_verbs::VerbsRuntime;

    use super::*;

    /// Runs `body` on one simulated thread of a fresh two-node runtime;
    /// an error out of it fails the test.
    fn in_sim(
        body: impl FnOnce(&Arc<VerbsRuntime>, &SimContext) -> Result<()> + Send + 'static,
    ) -> Arc<VerbsRuntime> {
        let rt = VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()));
        let inner = rt.clone();
        rt.cluster().spawn(0, "frame-test", move |sim| {
            if let Err(e) = body(&inner, &sim) {
                panic!("frame test body failed: {e:?}");
            }
        });
        rt.cluster().run();
        rt
    }

    fn rings_of(ring_cap: usize) -> Layout {
        Layout {
            window: 256,
            buffers: 1,
            rings: 2,
            ring_cap,
            inline_writes: false,
        }
    }

    /// What the peer's RDMA write of `value` into `slot` leaves behind.
    fn land(rings: &SlotRings, slot: RemoteAddr, value: u64) -> Result<()> {
        Ok(rings.region().write_u64(slot.offset, value + 1)?)
    }

    #[test]
    fn ring_wraps_at_cap_and_zero_means_empty() {
        in_sim(|rt, sim| {
            let rings = SlotRings::register(&rt.context(0), RingKind::FreeArr, &rings_of(3));
            let producer = RingProducer::register(&rt.context(1), 1, 3);
            producer.wire(0, rings.base(1), 0);
            assert!(rings.all_empty()?);
            assert_eq!(rings.try_consume(sim, 1)?, None);
            // Ten entries through three slots; value 0 is a legal entry
            // because the wire encoding is `value + 1`.
            for round in 0..10u64 {
                let slot = producer.claim(sim, 0)?;
                let lap = 8 * (round as usize % 3);
                assert_eq!(slot.offset, rings.base(1).offset + lap);
                land(&rings, slot, round)?;
                assert!(!rings.is_empty(1)?);
                assert!(rings.is_empty(0)?, "ring 0 is another peer's");
                assert_eq!(rings.try_consume(sim, 1)?, Some(round));
                // Consuming clears the slot: the next lap starts empty.
                assert_eq!(rings.region().read_u64(slot.offset)?, 0);
                assert_eq!(rings.try_consume(sim, 1)?, None);
            }
            Ok(())
        });
    }

    #[test]
    fn ring_cursors_never_cross() {
        in_sim(|rt, sim| {
            let rings = SlotRings::register(&rt.context(0), RingKind::ValidArr, &rings_of(4));
            let producer = RingProducer::register(&rt.context(1), 1, 4);
            producer.wire(0, rings.base(0), 0);
            let mut next_produced = 0u64;
            let mut next_consumed = 0u64;
            // The producer runs up to a full ring ahead, never further;
            // the consumer drains in order and stops at the producer.
            for burst in [4usize, 1, 3, 4, 2] {
                for _ in 0..burst {
                    let slot = producer.claim(sim, 0)?;
                    assert_eq!(
                        rings.region().read_u64(slot.offset)?,
                        0,
                        "claimed a slot the consumer has not cleared"
                    );
                    land(&rings, slot, 100 + next_produced)?;
                    next_produced += 1;
                }
                while let Some(v) = rings.try_consume(sim, 0)? {
                    assert_eq!(v, 100 + next_consumed);
                    next_consumed += 1;
                }
                assert_eq!(next_consumed, next_produced);
            }
            // Seeding is producing from slot 0 by another route.
            let seeded = SlotRings::register(&rt.context(0), RingKind::Grant, &rings_of(4));
            assert!(matches!(
                seeded.seed(0, &[0; 5]),
                Err(ShuffleError::Config(_))
            ));
            seeded.seed(0, &[7, 0, 9])?;
            for want in [7, 0, 9] {
                assert_eq!(seeded.try_consume(sim, 0)?, Some(want));
            }
            assert_eq!(seeded.try_consume(sim, 0)?, None);
            Ok(())
        });
    }

    #[test]
    fn unwired_ring_is_a_config_error() {
        in_sim(|rt, sim| {
            let producer = RingProducer::register(&rt.context(0), 2, 4);
            assert!(matches!(
                producer.claim(sim, 1),
                Err(ShuffleError::Config(_))
            ));
            Ok(())
        });
    }

    #[test]
    fn multicast_buffer_is_recycled_exactly_once() {
        in_sim(|rt, sim| {
            let window = SendWindow::register(&rt.context(0), &rings_of(1));
            let Some(buf) = window.take(sim) else {
                panic!("the pool starts with one free buffer");
            };
            let offset = buf.offset() as u64;
            assert!(window.take(sim).is_none());
            window.launch(sim, &buf, 3);
            for _ in 0..2 {
                window.complete(sim, offset)?;
                assert!(window.take(sim).is_none(), "recycled before the last ack");
            }
            window.complete(sim, offset)?;
            // A fourth completion names a buffer that is no longer in
            // flight, as does one for an offset that never was.
            for unknown in [offset, 4096] {
                assert!(matches!(
                    window.complete(sim, unknown),
                    Err(ShuffleError::CompletionError(_))
                ));
            }
            let recycled = window.take(sim).map(|b| b.offset() as u64);
            assert_eq!(recycled, Some(offset));
            assert!(window.take(sim).is_none(), "recycled twice");
            Ok(())
        });
    }

    const US: fn(u64) -> SimDuration = SimDuration::from_micros;

    /// A park that sleeps until `heard` fires, the abort lands or the
    /// deadline.
    fn sleep_on(
        sim: &SimContext,
    ) -> impl FnMut(Listener, &dyn Waitable, SimTime) -> Result<()> + '_ {
        |heard, abort, deadline| {
            sim.wait_any(&[&heard, abort], Some(deadline));
            Ok(())
        }
    }

    #[test]
    fn watchdog_stalls_at_the_deadline_after_one_park() {
        in_sim(|rt, sim| {
            let (start, quiet) = (sim.now(), Notify::new(rt.kernel(), US(1)));
            let mut parks = 0;
            let mut park = sleep_on(sim);
            let err = Watchdog::new(sim, US(12), None, "test wait")
                .wait(
                    sim,
                    None,
                    || quiet.listen(),
                    || Ok(None::<()>),
                    |heard, abort, deadline| {
                        parks += 1;
                        park(heard, abort, deadline)
                    },
                )
                .unwrap_err();
            assert!(matches!(err, ShuffleError::Stalled("test wait")));
            assert_eq!((parks, sim.now()), (1, start + US(12)));
            Ok(())
        });
    }

    #[test]
    fn a_change_made_while_checking_is_heard_not_slept_through() {
        in_sim(|rt, sim| {
            let (start, changed) = (sim.now(), Notify::new(rt.kernel(), US(1)));
            let mut checks = 0;
            // The first check fails, then another party changes the state
            // before the park: the park returns at once.
            Watchdog::new(sim, US(50), None, "test wait").wait(
                sim,
                None,
                || changed.listen(),
                || {
                    checks += 1;
                    changed.notify();
                    Ok((checks == 2).then_some(()))
                },
                sleep_on(sim),
            )?;
            assert_eq!((checks, sim.now()), (2, start));
            Ok(())
        });
    }

    /// A parked wait ends when the abort lands, one delay after it was
    /// raised, and a wait begun after that fails before its first check:
    /// a caller that would never block hears it too.
    #[test]
    fn an_abort_ends_a_parked_wait_when_it_lands_and_every_later_one_at_once() {
        in_sim(|rt, sim| {
            let (start, quiet) = (sim.now(), Notify::new(rt.kernel(), US(1)));
            let abort = Abort::new(rt.kernel(), US(3));
            abort.raise(rt.kernel(), || ());
            let watchdog = || Watchdog::new(sim, US(50), Some(&abort), "test wait");
            let parked = watchdog().wait(
                sim,
                None,
                || quiet.listen(),
                || Ok(None::<()>),
                sleep_on(sim),
            );
            assert!(matches!(parked, Err(ShuffleError::Aborted)));
            assert_eq!(sim.now(), start + US(3));
            let mut checks = 0;
            let ready = || {
                checks += 1;
                Ok(Some(()))
            };
            let later = watchdog().wait(sim, None, || quiet.listen(), ready, sleep_on(sim));
            assert!(matches!(later, Err(ShuffleError::Aborted)));
            assert_eq!(checks, 0);
            Ok(())
        });
    }

    #[test]
    fn stall_bracket_is_closed_on_every_exit() {
        let rt = in_sim(|rt, sim| {
            let obs = SendObs::new(&rt.context(0), EndpointId(7));
            let quiet = Notify::new(rt.kernel(), US(1));
            let watchdog = || Watchdog::new(sim, US(6), None, "test wait");
            let listen = || quiet.listen();
            let sleep = sleep_on(sim);
            // Ready at once: no stall, no bracket.
            watchdog().wait(sim, Some(&obs), listen, || Ok(Some(())), sleep)?;
            // Ok after one park, the typed stall, an error out of `ready`
            // and one out of `park`: four stalls, four closed brackets.
            let mut checks = 0;
            let second_time = || {
                checks += 1;
                Ok((checks == 2).then_some(()))
            };
            watchdog().wait(sim, Some(&obs), listen, second_time, sleep_on(sim))?;
            let stalled =
                watchdog().wait(sim, Some(&obs), listen, || Ok(None::<()>), sleep_on(sim));
            assert!(matches!(stalled, Err(ShuffleError::Stalled(_))));
            let mut checks = 0;
            let broken_ring = || {
                checks += 1;
                if checks == 2 {
                    return Err(ShuffleError::Corrupt("ring slot".into()));
                }
                Ok(None::<()>)
            };
            let failed = watchdog().wait(sim, Some(&obs), listen, broken_ring, sleep_on(sim));
            assert!(matches!(failed, Err(ShuffleError::Corrupt(_))));
            let failed = watchdog().wait(
                sim,
                Some(&obs),
                listen,
                || Ok(None::<()>),
                |_, _, _| Err(ShuffleError::CompletionError("drain")),
            );
            assert!(matches!(failed, Err(ShuffleError::CompletionError(_))));
            Ok(())
        });
        assert_eq!(rt.obs().metrics.counter_total(names::EP_CREDIT_STALLS), 4);
        let count = |kind: EventKind| {
            let tracks = rt.obs().recorder.dump();
            let records = tracks.iter().flat_map(|t| t.3.iter());
            records
                .filter(|r| matches!(r, Record::Instant { kind: k, .. } if *k == kind))
                .count()
        };
        assert_eq!(count(EventKind::CreditStallBegin), 4);
        assert_eq!(count(EventKind::CreditStallEnd), 4);
    }
}
