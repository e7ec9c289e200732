//! The endpoint frame: the machinery every transport needs in the same
//! shape, kept once.
//!
//! The paper defines one endpoint abstraction (§4.2) and spends
//! §4.4.1–4.4.3 on the two things that differ between designs — how a
//! flow-control token travels back and how a payload travels forward
//! (Table 1). Everything else lives here, as small pieces a transport
//! composes; the table in the [`endpoint`](super) module docs says which
//! transport uses which piece and what it keeps for itself. No piece asks
//! who is calling (the source book reads how a source's credit travels
//! from its audit lane): UD's credit datagrams, multicast address-handle
//! cache and `quiesce` stay in `sr_ud`.

use std::cmp::{Ordering as Cmp, Reverse};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, BufId, CreditLane, RingKey, RingKind};
use rshuffle_simnet::{
    Kernel, Listener, NodeId, Notify, SimContext, SimDuration, SimMutex, SimThreadId, SimTime,
    Waitable,
};
use rshuffle_verbs::{
    Completion, CompletionQueue, Context, MemoryRegion, QpType, QueuePair, RemoteAddr, WcOpcode,
    WcStatus, MAX_CONTROL_WRITE,
};

use crate::buffer::{Buffer, BufferPool, MsgHeader, MsgKind, StreamState};
use crate::endpoint::{audit_handle, buf_id, Delivery, EndpointId, Params, RecvObs, SendObs};
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
    pub post_lock: SimMutex,
}

/// The slot of each of `peers`, indexed by node id.
pub(crate) fn slots_by_node(peers: impl Iterator<Item = NodeId> + Clone) -> Vec<Option<usize>> {
    let mut index = vec![None; peers.clone().max().map_or(0, |last| last + 1)];
    for (slot, peer) in peers.enumerate() {
        index[peer] = Some(slot);
    }
    index
}

/// The lock serializing posts on one endpoint's Queue Pairs.
pub(crate) fn post_lock(ctx: &Context) -> SimMutex {
    SimMutex::new(ctx.runtime().kernel(), SimDuration::from_nanos(60))
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
        RcHalf {
            id,
            audit: audit_handle(ctx),
            index: slots_by_node(peers.iter().copied()),
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

    /// Marks `buf` in flight toward `fanout` destinations; a send to no
    /// destination is a [`ShuffleError::Config`].
    pub(crate) fn launch(&self, sim: &SimContext, buf: &Buffer, fanout: usize) -> Result<()> {
        if fanout == 0 {
            return Err(ShuffleError::Config(
                "send needs at least one destination".into(),
            ));
        }
        self.audit.buffer_sent(buf_id(buf), sim.now().as_nanos());
        self.in_flight.lock()[buf.offset() / self.pool.window()] = fanout as u32;
        Ok(())
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

/// The rotating scratch region that sources control writes. The paper
/// inlines such values in the work request to save a DMA fetch (§4.4.1);
/// the payload is snapshotted at post time, so rotating over a few slots
/// without tracking their reuse is safe.
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

    /// RDMA-Writes `values` to consecutive words at `target` over `qp` as
    /// one work request, named `wr_id` or else by its sequence number. A
    /// caller sharing `qp` among threads holds the post lock around this
    /// call: a thread blocked on the lock would otherwise let its slots be
    /// recycled before the payload is snapshotted.
    pub(crate) fn post(
        &self,
        sim: &SimContext,
        qp: &QueuePair,
        wr_id: Option<u64>,
        target: RemoteAddr,
        values: &[u64],
    ) -> Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // A run starts where it fits before the scratch's end.
        let off = 8 * (seq as usize % (INLINE_SLOTS + 1 - values.len()));
        for (k, &v) in values.iter().enumerate() {
            self.mr.write_u64(off + 8 * k, v)?;
        }
        let (wr_id, len) = (wr_id.unwrap_or(INLINE_WR_BASE + seq), 8 * values.len());
        qp.post_write(sim, wr_id, (self.mr.clone(), off), target, len)?;
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

/// The most ring slots one write fills: its packet rides the control lane.
const MAX_RUN: usize = MAX_CONTROL_WRITE / 8;

/// The producer end of the peers' [`SlotRings`]: per peer, the ring base
/// it shared out of band and this side's producer cursor, the inline-write
/// scratch the slot values are sourced from, and per producing thread and
/// ring the values queued behind its write in flight. Slots are claimed as
/// a write is posted, under the post lock, so a queue lands in consecutive
/// slots as one write (DESIGN.md, "Announcements coalesce").
pub(crate) struct RingProducer {
    cap: usize,
    /// Whether values queue behind a write in flight (`rd_rc`'s ValidArr)
    /// or each goes out at once (FreeArr, grants, `wr_rc`'s ValidArr).
    coalesce: bool,
    state: Mutex<Producing>,
    inline: InlineWrites,
    audit: AuditHandle,
}

struct Producing {
    /// Per peer: the ring's base once wired, the producer cursor, the
    /// releases its reader made, and the queue that closed it (`Depleted`).
    rings: Vec<(Option<RemoteAddr>, u64, u64, Option<usize>)>,
    /// Per producing thread, one queue per ring in ring order: the thread,
    /// the wire values (`value + 1`) waiting, its writes unacknowledged, and
    /// whether a `Depleted` one waits in it for the ring to open.
    queues: Vec<(SimThreadId, Vec<u64>, u32, bool)>,
}

impl Producing {
    fn base(&self, i: usize) -> Result<RemoteAddr> {
        (self.rings[i].0).ok_or_else(|| ShuffleError::Config(format!("ring {i} not wired")))
    }

    /// Claims up to `want` consecutive slots of ring `i`, stopping at its
    /// wrap: where they start, and how many.
    fn claim(&mut self, i: usize, cap: usize, want: usize) -> Result<(RemoteAddr, usize)> {
        let base = self.base(i)?;
        let cursor = &mut self.rings[i].1;
        let first = *cursor as usize % cap;
        let n = want.min(cap - first);
        *cursor += n as u64;
        Ok((
            RemoteAddr {
                offset: base.offset + 8 * first,
                ..base
            },
            n,
        ))
    }

    /// Whether queue `q` has nothing to send: it is empty, or it holds a
    /// `Depleted` announcement toward a ring not open yet.
    fn idle(&self, q: usize) -> bool {
        let (_, values, _, held) = &self.queues[q];
        values.is_empty() || *held && self.rings[q % self.rings.len()].2 == 0
    }

    /// Where `owner`'s queues start; made, sized from the ring, on its first call.
    fn lane(&mut self, owner: SimThreadId, cap: usize) -> usize {
        let rings = self.rings.len();
        match self.queues.iter().step_by(rings).position(|q| q.0 == owner) {
            Some(at) => at * rings,
            None => {
                let queue = || (owner, Vec::with_capacity(cap.min(MAX_RUN)), 0, false);
                self.queues
                    .extend(std::iter::repeat_with(queue).take(rings));
                self.queues.len() - rings
            }
        }
    }
}

impl RingProducer {
    pub(crate) fn register(
        ctx: &Context,
        peers: usize,
        cap: usize,
        coalesce: bool,
    ) -> RingProducer {
        RingProducer {
            cap,
            coalesce,
            state: Mutex::new(Producing {
                rings: vec![(None, 0, 0, None); peers],
                queues: Vec::with_capacity(peers),
            }),
            inline: InlineWrites::register(ctx),
            audit: audit_handle(ctx),
        }
    }

    /// Wires peer `i`'s ring, `skip` slots of which were already filled
    /// out of band. The [`SlotRings`] that owns the ring registered it with
    /// the auditor.
    pub(crate) fn wire(&self, i: usize, base: RemoteAddr, skip: u64) {
        self.state.lock().rings[i] = (Some(base), skip, 0, None);
    }

    /// Produces `value` into peer `i`'s ring from the calling thread; the
    /// auditor counts it now. Without coalescing it goes out at once, under
    /// whatever lock the caller holds. Else it queues while the thread's
    /// last write toward the ring is unacknowledged and the queue fills no
    /// write, and otherwise the queue goes out under the post lock. A
    /// `last` one (a `Depleted` send) closes the ring: it goes out at once
    /// if the ring is open, and else one that queues is held until it opens.
    pub(crate) fn announce(
        &self,
        sim: &SimContext,
        half: &RcHalf,
        i: usize,
        value: u64,
        last: bool,
    ) -> Result<()> {
        let mine = {
            let mut state = self.state.lock();
            let key = ring_key(&state.base(i)?);
            self.audit.ring_produced(key, sim.now().as_nanos());
            if !self.coalesce {
                let (slot, _) = state.claim(i, self.cap, 1)?;
                drop(state);
                return self.inline.post(sim, half.qp(i), None, slot, &[value + 1]);
            }
            let mine = state.lane(sim.id(), self.cap) + i;
            let open = state.rings[i].2 > 0;
            if last {
                state.rings[i].3 = Some(mine);
            }
            let (_, values, unacked, held) = &mut state.queues[mine];
            values.push(value + 1);
            if *unacked > 0 && values.len() < MAX_RUN && !(last && open) {
                *held |= last;
                return Ok(());
            }
            mine
        };
        self.flush(sim, half, [mine].into_iter())
    }

    /// Counts one entry peer `i`'s reader released: the first opens the ring
    /// and sends the queue held there.
    pub(crate) fn released(&self, sim: &SimContext, half: &RcHalf, i: usize) -> Result<()> {
        let held = {
            let ring = &mut self.state.lock().rings[i];
            ring.2 += 1;
            ring.3.filter(|_| ring.2 == 1)
        };
        self.flush(sim, half, held.into_iter())
    }

    /// Whether every wired ring is closed and some thread's queue is not
    /// written yet: what the closing send waits out.
    pub(crate) fn closing(&self) -> bool {
        let state = self.state.lock();
        let closed = state.rings.iter().all(|r| r.0.is_none() || r.3.is_some());
        closed && state.queues.iter().any(|q| !q.1.is_empty())
    }

    /// The calling thread's queues toward peer `ring`, or toward every peer.
    fn mine(&self, sim: &SimContext, ring: Option<usize>) -> Range<usize> {
        let mut state = self.state.lock();
        let (first, rings) = (state.lane(sim.id(), self.cap), state.rings.len());
        ring.map_or(first..first + rings, |i| first + i..first + i + 1)
    }

    /// Whether the calling thread has announcements queued.
    pub(crate) fn waiting(&self, sim: &SimContext) -> bool {
        let mine = self.mine(sim, None);
        self.state.lock().queues[mine]
            .iter()
            .any(|q| !q.1.is_empty())
    }

    /// Takes the ack of the announcement write `wr_id`; the last one in
    /// flight from its queue sends what queued behind it.
    pub(crate) fn acked(&self, sim: &SimContext, half: &RcHalf, wr_id: u64) -> Result<()> {
        let q = wr_id.wrapping_sub(INLINE_WR_BASE) as usize;
        {
            let mut state = self.state.lock();
            let Some(queue) = state.queues.get_mut(q).filter(|q| q.2 > 0) else {
                return Err(ShuffleError::CompletionError(
                    "ack of an announcement write that is not in flight",
                ));
            };
            queue.2 -= 1;
            // A saboteur may strand the announcements that waited for
            // this ack: counted when they queued, never written.
            #[cfg(feature = "saboteur")]
            if queue.2 == 0
                && !queue.1.is_empty()
                && crate::sabotage::take(crate::sabotage::Sabotage::StrandAnnouncementQueue)
            {
                queue.1.clear();
            }
            if queue.2 > 0 {
                return Ok(());
            }
        }
        self.flush(sim, half, [q].into_iter())
    }

    /// Sends what the calling thread queued toward peer `ring`, or toward
    /// every peer, write in flight or not: it is about to block, or to wait
    /// for the ring to drain.
    pub(crate) fn flush_mine(
        &self,
        sim: &SimContext,
        half: &RcHalf,
        ring: Option<usize>,
    ) -> Result<()> {
        self.flush(sim, half, self.mine(sim, ring))
    }

    /// Writes each of `queues` but an idle one into its ring's next slots, a
    /// ring's closer behind every other queue there, under the post lock:
    /// one RDMA Write per run of at most [`MAX_RUN`] slots, split at the wrap.
    fn flush(
        &self,
        sim: &SimContext,
        half: &RcHalf,
        queues: impl Iterator<Item = usize> + Clone,
    ) -> Result<()> {
        let order = |q: usize| {
            let state = self.state.lock();
            let rings = state.rings.len();
            let others = (q % rings..state.queues.len()).step_by(rings);
            let closer = state.rings[q % rings].3 == Some(q);
            others.filter(move |&o| closer && o != q).chain([q])
        };
        let queues = queues.flat_map(order);
        if queues.clone().all(|q| self.state.lock().idle(q)) {
            return Ok(());
        }
        let _posting = half.post_lock.lock(sim);
        for q in queues {
            let mut run = [0; MAX_RUN];
            loop {
                let (i, slot, n) = {
                    let mut state = self.state.lock();
                    let i = q % state.rings.len();
                    if state.idle(q) {
                        break;
                    }
                    let want = state.queues[q].1.len().min(MAX_RUN);
                    let (slot, n) = state.claim(i, self.cap, want)?;
                    let (_, values, unacked, _) = &mut state.queues[q];
                    run[..n].copy_from_slice(&values[..n]);
                    values.drain(..n);
                    // A saboteur may drop one run once its slots are
                    // claimed: the peer's ring keeps a hole.
                    #[cfg(feature = "saboteur")]
                    if crate::sabotage::take(crate::sabotage::Sabotage::DropValidArrUpdate) {
                        continue;
                    }
                    *unacked += 1;
                    (i, slot, n)
                };
                let wr_id = Some(INLINE_WR_BASE + q as u64);
                self.inline.post(sim, half.qp(i), wr_id, slot, &run[..n])?;
            }
        }
        Ok(())
    }
}

/// Where a source stands against the total it declared.
#[derive(Copy, Clone, PartialEq)]
pub(crate) enum Standing {
    /// No `Depleted` message yet.
    Open,
    Short,
    Exact,
    Over,
}

/// What a receive half knows of one source.
#[derive(Clone, Default)]
struct Source {
    /// Data messages received from it.
    received: u64,
    /// The total its `Depleted` message declared.
    declared: Option<u64>,
    /// Absolute credit posted: the bootstrap grant plus one per release.
    posted: u64,
    /// The credit last written back (at first, the bootstrap grant).
    granted: u64,
    /// The `counter` of its latest header: its sends in flight toward
    /// this half on `sr_rc`, its running total on `sr_ud`.
    in_flight: u64,
    /// Its audit credit lane, once bootstrapped.
    lane: Option<CreditLane>,
}

impl Source {
    fn standing(&self) -> Standing {
        match self.declared.map(|total| self.received.cmp(&total)) {
            None => Standing::Open,
            Some(Cmp::Less) => Standing::Short,
            Some(Cmp::Equal) => Standing::Exact,
            Some(Cmp::Greater) => Standing::Over,
        }
    }
}

/// A receive half's sources by peer slot: what each received, declared
/// and was granted. It alone decides when the stream ends (§4.4.2) and
/// when a release owes a write-back of absolute credit (§4.4.1), and it
/// calls the audit hooks on both under its one lock. A source's lane says
/// how its credit travels: to an RDMA-written slot (`sr_rc`), whose headers
/// carry the sends in flight, or as UD datagrams, whose headers carry a
/// running total. A source without one (`rd_rc`, `wr_rc`) earns no credit.
pub(crate) struct SourceBook {
    audit: AuditHandle,
    /// Releases a write-back waits for at least.
    frequency: u64,
    /// Unspent credit, beyond the sender's sends in flight, below which an
    /// RDMA-written slot is written back: half the bootstrap window.
    reserve: u64,
    table: Mutex<Table>,
}

struct Table {
    sources: Vec<Source>,
    /// Sources per [`Standing`], so termination reads four counters.
    tally: [usize; 4],
}

impl Table {
    /// Runs `update` on source `slot`, keeping the tally.
    fn update(&mut self, slot: usize, update: impl FnOnce(&mut Source)) -> &Source {
        let src = &mut self.sources[slot];
        let before = src.standing();
        update(src);
        self.tally[before as usize] -= 1;
        self.tally[src.standing() as usize] += 1;
        src
    }

    /// The source standing `standing` furthest from its declared total,
    /// ties to the lowest endpoint id: `(endpoint, declared, received)`.
    /// The one place that scans, and only when the tally has such a source.
    /// Only UD sources, named by their lanes, can fall short or run over.
    fn worst(&self, standing: Standing) -> Option<(u64, u64, u64)> {
        if self.tally[standing as usize] == 0 {
            return None;
        }
        let named = self.sources.iter().filter_map(|src| match src.lane {
            Some(CreditLane::Ud { sender, .. }) if src.standing() == standing => {
                Some((sender, src.declared.unwrap_or(0), src.received))
            }
            _ => None,
        });
        named.max_by_key(|&(ep, declared, received)| (declared.abs_diff(received), Reverse(ep)))
    }
}

impl SourceBook {
    /// A book of `n` sources, all open.
    pub(crate) fn new(ctx: &Context, cfg: &Params, n: usize) -> SourceBook {
        SourceBook {
            audit: audit_handle(ctx),
            frequency: cfg.credit_writeback_frequency.into(),
            reserve: cfg.recv_depth_per_peer as u64 / 2,
            table: Mutex::new(Table {
                sources: vec![Source::default(); n],
                tally: [n, 0, 0, 0],
            }),
        }
    }

    /// Opens source `slot`'s credit `lane` with `credit` posted and
    /// granted. Bootstrap happens outside the measured window, at virtual 0.
    pub(crate) fn open(&self, slot: usize, lane: CreditLane, credit: u64) {
        let written = matches!(lane, CreditLane::Slot { .. });
        let src = &mut self.table.lock().sources[slot];
        (src.posted, src.granted, src.lane) = (credit, credit, Some(lane));
        // Credit datagrams may legally be lost, so a UD lane carries no
        // write-back frequency: the auditor checks monotonicity and
        // overdraft, not gaps.
        self.audit
            .credit_lane(lane, written.then_some(self.frequency));
        self.posted(lane, credit, Some(credit), 0);
    }

    /// Tells the auditor that `n` more receives back `lane` (UD's are one
    /// shared pool's) and which absolute credit went out with them, if any.
    fn posted(&self, lane: CreditLane, n: u64, granted: Option<u64>, now: u64) {
        if matches!(lane, CreditLane::Slot { .. }) {
            self.audit.receives_posted(lane, n, now);
        }
        if let Some(granted) = granted {
            self.audit.credit_granted(lane, granted, now);
        }
    }

    /// Counts a data message from source `slot` whose header carried
    /// `counter`; `total` is what a UD `Depleted` message declares.
    /// Returns whether every source has declared.
    pub(crate) fn receive(&self, now: u64, slot: usize, counter: u64, total: Option<u64>) -> bool {
        let mut table = self.table.lock();
        let src = table.update(slot, |src| {
            (src.received, src.in_flight) = (src.received + 1, counter);
            src.declared = total.or(src.declared);
        });
        match src.lane {
            Some(lane @ CreditLane::Slot { .. }) => self.audit.credit_received(lane, counter, now),
            Some(CreditLane::Ud { sender, .. }) => {
                (self.audit).counted_receive(sender, src.received, src.declared, now)
            }
            None => {}
        }
        table.tally[Standing::Open as usize] == 0
    }

    /// An ordered `Depleted` message from source `slot` declares what has
    /// arrived. It closes the source's credit lane: releases stop
    /// recycling, so this is the auditor's last chance to see a write-back
    /// boundary that was reached but never announced.
    pub(crate) fn declare(&self, now: u64, slot: usize) {
        let mut table = self.table.lock();
        let src = table.update(slot, |src| src.declared = Some(src.received));
        if let Some(lane) = src.lane {
            self.audit.credit_lane_closed(lane, now);
        }
    }

    /// Whether source `slot` has declared its total.
    pub(crate) fn declared(&self, slot: usize) -> bool {
        self.table.lock().sources[slot].declared.is_some()
    }

    /// Whether every source has declared its total.
    pub(crate) fn all_declared(&self) -> bool {
        self.table.lock().tally[Standing::Open as usize] == 0
    }

    /// Posts one more credit to source `slot` for a release, and returns
    /// the absolute credit to write back and its lane when one is owed: the
    /// source has not declared (it sends nothing more), at least
    /// `credit_writeback_frequency` were posted since the last write-back
    /// and, to an RDMA-written slot, the sender could run short. Decided
    /// and audited in one step: the auditor judges the counts decided on.
    pub(crate) fn release(&self, now: u64, slot: usize) -> Option<(u64, CreditLane)> {
        let src = &mut self.table.lock().sources[slot];
        src.posted += 1;
        let lane = src.lane?;
        let written = matches!(lane, CreditLane::Slot { .. });
        let short = src.granted.saturating_sub(src.received) <= src.in_flight + self.reserve;
        let owed = src.declared.is_none()
            && src.posted - src.granted >= self.frequency
            && (short || !written);
        // A saboteur may swallow exactly one write-back: the protocol
        // "forgets" to announce credit and only the auditor, which owes it
        // from its own counts, can notice: absolute credit self-heals at
        // the next write-back (§4.4.1).
        #[cfg(feature = "saboteur")]
        let owed = owed && !crate::sabotage::take(crate::sabotage::Sabotage::SkipCreditWriteback);
        src.granted = if owed { src.posted } else { src.granted };
        self.posted(lane, 1, owed.then_some(src.posted), now);
        owed.then_some((src.posted, lane))
    }

    /// Where the sources stand together: [`Standing::Open`] while one has
    /// not declared, then [`Standing::Short`] while one has not delivered
    /// its total, then [`Standing::Exact`].
    ///
    /// # Errors
    ///
    /// [`ShuffleError::Corrupt`] if a source delivered *more* messages
    /// than it declared — a duplicated datagram or a corrupted counter,
    /// either way unrecoverable within this attempt.
    pub(crate) fn standing(&self) -> Result<Standing> {
        let table = self.table.lock();
        if let Some((ep, declared, received)) = table.worst(Standing::Over) {
            return Err(ShuffleError::Corrupt(format!(
                "source {ep} delivered {received} messages but declared {declared}"
            )));
        }
        let mut waiting = [Standing::Open, Standing::Short].into_iter();
        Ok((waiting.find(|&s| table.tally[s as usize] > 0)).unwrap_or(Standing::Exact))
    }

    /// The source short of its declared total by the most messages, ties
    /// to the lowest endpoint id: `(endpoint, declared, received)`.
    pub(crate) fn worst_straggler(&self) -> Option<(u64, u64, u64)> {
        self.table.lock().worst(Standing::Short)
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
    use rshuffle_verbs::{ConnectionManager, VerbsRuntime};

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

    /// The next slot of `producer`'s ring `i`, claimed as a post claims it.
    fn claim(producer: &RingProducer, i: usize) -> Result<RemoteAddr> {
        Ok(producer.state.lock().claim(i, producer.cap, 1)?.0)
    }

    /// What the peer's RDMA write of `value` into `slot` leaves behind.
    fn land(rings: &SlotRings, slot: RemoteAddr, value: u64) -> Result<()> {
        Ok(rings.region().write_u64(slot.offset, value + 1)?)
    }

    #[test]
    fn ring_wraps_at_cap_and_zero_means_empty() {
        in_sim(|rt, sim| {
            let rings = SlotRings::register(&rt.context(0), RingKind::FreeArr, &rings_of(3));
            let producer = RingProducer::register(&rt.context(1), 1, 3, false);
            producer.wire(0, rings.base(1), 0);
            assert!(rings.all_empty()?);
            assert_eq!(rings.try_consume(sim, 1)?, None);
            // Ten entries through three slots; value 0 is a legal entry
            // because the wire encoding is `value + 1`.
            for round in 0..10u64 {
                let slot = claim(&producer, 0)?;
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
            let producer = RingProducer::register(&rt.context(1), 1, 4, false);
            producer.wire(0, rings.base(0), 0);
            let mut next_produced = 0u64;
            let mut next_consumed = 0u64;
            // The producer runs up to a full ring ahead, never further;
            // the consumer drains in order and stops at the producer.
            for burst in [4usize, 1, 3, 4, 2] {
                for _ in 0..burst {
                    let slot = claim(&producer, 0)?;
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
        in_sim(|rt, _| {
            let producer = RingProducer::register(&rt.context(0), 2, 4, false);
            assert!(matches!(claim(&producer, 1), Err(ShuffleError::Config(_))));
            Ok(())
        });
    }

    /// Node 1's half and producer over a connected RC pair, producing into
    /// ring 0 of a `cap`-slot ValidArr on node 0.
    struct Wired {
        half: RcHalf,
        cq: Cq,
        producer: RingProducer,
        rings: SlotRings,
        _peer: (RcHalf, Cq),
    }

    impl Wired {
        fn new(rt: &Arc<VerbsRuntime>, cap: usize) -> Arc<Wired> {
            let (ctx0, ctx1) = (rt.context(0), rt.context(1));
            let (cq, peer_cq) = (Cq::new(&ctx1), Cq::new(&ctx0));
            let half = RcHalf::new(&ctx1, EndpointId(1), vec![0], &cq, &cq);
            let peer = RcHalf::new(&ctx0, EndpointId(2), vec![1], &peer_cq, &peer_cq);
            let (a, b) = (half.qp(0), peer.qp(0));
            let up = ConnectionManager::activate_untimed(a, Some(b.address_handle()))
                .and_then(|()| ConnectionManager::activate_untimed(b, Some(a.address_handle())));
            assert!(up.is_ok(), "the pair connects");
            let rings = SlotRings::register(&ctx0, RingKind::ValidArr, &rings_of(cap));
            let producer = RingProducer::register(&ctx1, 1, cap, true);
            producer.wire(0, rings.base(0), 0);
            Arc::new(Wired {
                half,
                cq,
                producer,
                rings,
                _peer: (peer, peer_cq),
            })
        }

        fn announce(&self, sim: &SimContext, value: u64, last: bool) -> Result<()> {
            (self.producer).announce(sim, &self.half, 0, value, last)
        }

        /// Reaps every ack queued, as a `send` does.
        fn reap(&self, sim: &SimContext) -> Result<bool> {
            (self.cq).poll(sim, |c| self.producer.acked(sim, &self.half, c.wr_id))
        }

        /// Pops what ring 0 holds, in slot order.
        fn drain(&self, sim: &SimContext) -> Result<Vec<u64>> {
            std::iter::from_fn(|| self.rings.try_consume(sim, 0).transpose()).collect()
        }
    }

    /// What one producing thread of a [`Wired`] pair runs.
    type Body = Box<dyn FnOnce(&Wired, &SimContext) -> Result<()> + Send>;

    /// Runs each body on its own simulated thread of node 1, the `k`-th
    /// starting `k` µs in, over one [`Wired`] pair; returns node 1's NIC
    /// work requests.
    fn on_node_1(cap: usize, bodies: Vec<Body>) -> u64 {
        let rt = VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()));
        let wired = Wired::new(&rt, cap);
        for (k, body) in bodies.into_iter().enumerate() {
            let wired = wired.clone();
            rt.cluster().spawn(1, "producer", move |sim| {
                sim.sleep(US(k as u64));
                if let Err(e) = body(&wired, &sim) {
                    panic!("producer {k} failed: {e:?}");
                }
            });
        }
        rt.cluster().run();
        rt.nic(1).stats().work_requests
    }

    /// Announcements made while the thread's write is in flight queue, and
    /// the ack sends them as one write; a queue that crosses the ring's
    /// wrap goes out as two, and the ring holds every value in order.
    #[test]
    fn a_queue_goes_out_as_one_write_per_run_split_at_the_wrap() {
        let writes = on_node_1(
            4,
            vec![Box::new(|w, sim| {
                w.announce(sim, 10, false)?;
                sim.sleep(US(20));
                assert_eq!(w.drain(sim)?, [10]);
                // The cursor is at slot 1: four values fill slots 1–3, then 0.
                for v in 11..15 {
                    w.announce(sim, v, false)?;
                }
                assert_eq!(w.drain(sim)?, [], "queued behind an unreaped ack");
                assert!(w.reap(sim)?);
                sim.sleep(US(20));
                assert_eq!(w.drain(sim)?, [11, 12, 13, 14]);
                Ok(())
            })],
        );
        assert_eq!(writes, 3, "one write, then one per side of the wrap");
    }

    /// A thread about to block (`get_free`) or to wait for a ring to drain
    /// (`quiesce`) sends its queue with its write still in flight; a
    /// `quiesce` of one ring leaves the others queued.
    #[test]
    fn a_blocking_producer_sends_its_queue_first() {
        let writes = on_node_1(
            8,
            vec![Box::new(|w, sim| {
                w.announce(sim, 1, false)?;
                w.announce(sim, 2, false)?;
                w.announce(sim, 3, false)?;
                w.producer.flush_mine(sim, &w.half, Some(0))?;
                w.producer.flush_mine(sim, &w.half, None)?;
                sim.sleep(US(20));
                assert_eq!(w.drain(sim)?, [1, 2, 3]);
                w.announce(sim, 4, false)?;
                w.producer.flush_mine(sim, &w.half, None)?;
                sim.sleep(US(20));
                assert_eq!(w.drain(sim)?, [4]);
                Ok(())
            })],
        );
        assert_eq!(writes, 3, "1, then 2 and 3 as one, then 4");
    }

    /// A `Depleted` announcement toward a ring whose reader has released
    /// nothing yet is held, through its own write's ack; the reader's first
    /// release sends it, behind the queue another thread left toward the
    /// ring. Toward an open ring it goes out at once.
    #[test]
    fn a_depleted_announcement_goes_out_behind_every_threads_queue() {
        let writes = on_node_1(
            8,
            vec![
                Box::new(|w, sim| {
                    w.announce(sim, 1, false)?;
                    w.announce(sim, 2, false)
                }),
                Box::new(|w, sim| {
                    w.announce(sim, 3, false)?;
                    w.announce(sim, 4, true)?;
                    assert!(w.producer.closing());
                    sim.sleep(US(20));
                    assert!(w.reap(sim)?, "both first writes are acked");
                    sim.sleep(US(20));
                    assert_eq!(w.drain(sim)?, [1, 3, 2], "2 went out on its ack");
                    w.producer.released(sim, &w.half, 0)?;
                    sim.sleep(US(20));
                    assert_eq!(w.drain(sim)?, [4], "sent as the ring opens");
                    assert!(!w.producer.closing());
                    w.announce(sim, 5, true)?;
                    sim.sleep(US(20));
                    assert_eq!(w.drain(sim)?, [5], "an open ring's goes out at once");
                    Ok(())
                }),
            ],
        );
        assert_eq!(writes, 5);
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
            window.launch(sim, &buf, 3)?;
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
