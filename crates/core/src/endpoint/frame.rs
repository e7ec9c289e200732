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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, BufId, RingKey, RingKind};
use rshuffle_simnet::sync::SimMutexGuard;
use rshuffle_simnet::{NodeId, SimContext, SimDuration, SimMutex, SimTime};
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

/// Polling granularity of every endpoint wait: watchdog slices are small
/// multiples of it.
pub(crate) const POLL_INTERVAL: SimDuration = SimDuration::from_nanos(400);

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
/// constructor and [`crate::ExchangeConfig::registered_bytes_estimate`]
/// call.
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
/// back: the steady state allocates nothing, and no lock is held across
/// a blocking drain (each concurrent drainer works on its own vector, so
/// SE-mode threads can never deadlock the kernel on a parking-lot mutex).
pub(crate) struct Cq {
    cq: CompletionQueue,
    scratch: Mutex<Vec<Vec<Completion>>>,
}

impl Cq {
    pub(crate) fn new(ctx: &Context) -> Cq {
        Cq {
            cq: ctx.create_cq(),
            scratch: Mutex::new(vec![Vec::with_capacity(CQ_BATCH)]),
        }
    }

    pub(crate) fn queue(&self) -> &CompletionQueue {
        &self.cq
    }

    pub(crate) fn depth(&self) -> usize {
        self.cq.depth()
    }

    /// Waits up to `slice` for a completion, drains a batch (one poll
    /// cost for the whole drain) and hands each entry to `each`. Returns
    /// whether anything was retrieved.
    pub(crate) fn drain(
        &self,
        sim: &SimContext,
        slice: SimDuration,
        each: impl FnMut(&Completion) -> Result<()>,
    ) -> Result<bool> {
        self.batch(|b| self.cq.drain_into(sim, b, CQ_BATCH, slice), each)
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
/// peer→slot table, one RC Queue Pair per peer (Θ(n) per endpoint, the
/// "MQ" designs), the lock that serializes posting, and the modelled
/// setup cost.
pub(crate) struct RcHalf {
    pub id: EndpointId,
    pub audit: AuditHandle,
    index: HashMap<NodeId, usize>,
    qps: Vec<QueuePair>,
    /// Serializes `ibv_post_send`; the contention cost of sharing one
    /// endpoint among threads (SE configurations) shows up here.
    post_lock: SimMutex<()>,
    registered: usize,
    setup_cost: SimDuration,
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
        peers: &[NodeId],
        send_cq: &Cq,
        recv_cq: &Cq,
        layout: &Layout,
    ) -> RcHalf {
        assert!(!peers.is_empty(), "endpoint needs at least one peer");
        let profile = ctx.profile();
        RcHalf {
            id,
            audit: audit_handle(ctx),
            index: peers.iter().enumerate().map(|(i, &p)| (p, i)).collect(),
            qps: peers
                .iter()
                .map(|_| ctx.create_qp(QpType::Rc, send_cq.cq.clone(), recv_cq.cq.clone()))
                .collect(),
            post_lock: post_lock(ctx),
            registered: layout.registered(),
            setup_cost: profile.endpoint_setup
                + profile.rc_qp_setup * peers.len() as u64
                + profile.mr_register_time(layout.registered()),
        }
    }

    pub(crate) fn peers(&self) -> usize {
        self.qps.len()
    }

    /// Slot index of `peer`.
    pub(crate) fn index_of(&self, peer: NodeId) -> Result<usize> {
        self.index
            .get(&peer)
            .copied()
            .ok_or_else(|| ShuffleError::Config(format!("unknown peer node {peer}")))
    }

    pub(crate) fn qp(&self, slot: usize) -> &QueuePair {
        &self.qps[slot]
    }

    /// The QP facing `peer` (for the exchange builder's wiring).
    pub(crate) fn qp_for(&self, peer: NodeId) -> &QueuePair {
        &self.qps[self.index[&peer]]
    }

    pub(crate) fn lock_post(&self, sim: &SimContext) -> SimMutexGuard<'_, ()> {
        self.post_lock.lock(sim)
    }

    pub(crate) fn registered_bytes(&self) -> usize {
        self.registered
    }

    pub(crate) fn charge_setup(&self, sim: &SimContext) {
        sim.sleep(self.setup_cost);
    }
}

/// The send side's registered buffer pool and its in-flight map: a
/// buffer sent to `k` destinations completes once per destination and
/// rejoins the pool on the last.
pub(crate) struct SendWindow {
    pool: BufferPool,
    /// Completions still owed per in-flight buffer, keyed by its offset.
    in_flight: Mutex<HashMap<u64, u32>>,
    audit: AuditHandle,
}

impl SendWindow {
    /// Registers and carves the pool `layout` describes.
    pub(crate) fn register(ctx: &Context, layout: &Layout) -> SendWindow {
        let mr = ctx.register_pool_untimed(layout.window, layout.buffers);
        SendWindow {
            pool: BufferPool::carve(mr, 0, layout.window, layout.buffers),
            in_flight: Mutex::new(HashMap::new()),
            audit: audit_handle(ctx),
        }
    }

    pub(crate) fn region(&self) -> &MemoryRegion {
        self.pool.region()
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
        self.in_flight
            .lock()
            .insert(buf.offset() as u64, fanout as u32);
    }

    /// One destination is done with the buffer at `offset`; the last one
    /// recycles it.
    pub(crate) fn complete(&self, sim: &SimContext, offset: u64) -> Result<()> {
        {
            let mut in_flight = self.in_flight.lock();
            let Some(remaining) = in_flight.get_mut(&offset) else {
                return Err(ShuffleError::CompletionError(
                    "completion for a buffer that is not in flight",
                ));
            };
            *remaining -= 1;
            if *remaining > 0 {
                return Ok(());
            }
            in_flight.remove(&offset);
        }
        let id = BufId {
            rkey: self.pool.region().rkey(),
            offset,
        };
        self.audit.buffer_recycled(id, sim.now().as_nanos());
        self.pool.recycle_offset(offset as usize)
    }
}

/// The stall watchdog of every endpoint wait: a deadline after which the
/// wait returns a typed [`ShuffleError::Stalled`] instead of hanging,
/// and the slice to park for between readiness checks. Slices back off
/// exponentially, which keeps the simulator's event count bounded when a
/// wait drags on without hurting the hot path (the first polls stay at
/// the configured interval).
pub(crate) struct Watchdog {
    deadline: SimTime,
    base: SimDuration,
    next: SimDuration,
    max: SimDuration,
    what: &'static str,
}

impl Watchdog {
    /// Slices start at `base` and double up to 64 µs until progress.
    pub(crate) fn backoff(
        sim: &SimContext,
        timeout: SimDuration,
        base: SimDuration,
        what: &'static str,
    ) -> Watchdog {
        Watchdog {
            deadline: sim.now() + timeout,
            base,
            next: base,
            max: SimDuration::from_micros(64),
            what,
        }
    }

    /// Every slice is `slice`: for waits an RDMA write into a watched
    /// region cuts short, where the slice is only the safety net.
    pub(crate) fn fixed(
        sim: &SimContext,
        timeout: SimDuration,
        slice: SimDuration,
        what: &'static str,
    ) -> Watchdog {
        Watchdog {
            max: slice,
            ..Watchdog::backoff(sim, timeout, slice, what)
        }
    }

    /// Fails with the typed stall once the deadline has passed.
    pub(crate) fn expired(&self, sim: &SimContext) -> Result<()> {
        if sim.now() >= self.deadline {
            Err(ShuffleError::Stalled(self.what))
        } else {
            Ok(())
        }
    }

    /// The next slice to park for; doubles (up to the cap) on every call.
    pub(crate) fn slice(&mut self) -> SimDuration {
        let slice = self.next;
        self.next = (self.next * 2).min(self.max);
        slice
    }

    /// Resets the backoff after progress.
    pub(crate) fn progress(&mut self) {
        self.next = self.base;
    }

    /// Runs `ready` until it yields a value, parking through `park`
    /// (which reports whether it made progress) in between.
    ///
    /// With `stall` set, the wait is a flow-control stall (Figure 8): the
    /// bracket opens on the first failed check — the common ready path
    /// records nothing — and closes on every exit, whether the value, the
    /// typed stall or an error out of `ready` or `park`.
    pub(crate) fn wait<T>(
        mut self,
        sim: &SimContext,
        stall: Option<&SendObs>,
        mut ready: impl FnMut() -> Result<Option<T>>,
        mut park: impl FnMut(SimDuration) -> Result<bool>,
    ) -> Result<T> {
        let mut stalled_at = None;
        let result: Result<T> = (|| loop {
            if let Some(value) = ready()? {
                return Ok(value);
            }
            if let (Some(obs), None) = (stall, stalled_at) {
                stalled_at = Some(obs.stall_begin(sim));
            }
            self.expired(sim)?;
            if park(self.slice())? {
                self.progress();
            }
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
    /// out of band.
    pub(crate) fn wire(&self, i: usize, kind: RingKind, base: RemoteAddr, skip: u64) {
        self.audit.ring(ring_key(&base), kind, self.cap as u64);
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

/// What a receive half knows about its sources: which slot a source
/// endpoint id maps to, and which sources announced end of stream.
pub(crate) struct Sources {
    by_endpoint: Mutex<HashMap<u32, usize>>,
    depleted: Mutex<Vec<bool>>,
    all_depleted: AtomicBool,
}

impl Sources {
    pub(crate) fn new(n: usize) -> Sources {
        Sources {
            by_endpoint: Mutex::new(HashMap::new()),
            depleted: Mutex::new(vec![false; n]),
            all_depleted: AtomicBool::new(false),
        }
    }

    /// Records that endpoint `src` sends through slot `slot`.
    pub(crate) fn learn(&self, src: u32, slot: usize) {
        self.by_endpoint.lock().entry(src).or_insert(slot);
    }

    /// The slot a `release` for `src` belongs to.
    pub(crate) fn slot_of(&self, src: EndpointId) -> Result<usize> {
        self.by_endpoint
            .lock()
            .get(&src.0)
            .copied()
            .ok_or_else(|| ShuffleError::Config(format!("release for unknown source {src:?}")))
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

/// Accepts the data message `header` found in `buf`: sizes the buffer to
/// the payload, counts it and wraps it for the `get_data` caller.
pub(crate) fn deliver(
    sim: &SimContext,
    obs: &RecvObs,
    audit: &AuditHandle,
    header: &MsgHeader,
    mut buf: Buffer,
    remote: u64,
) -> Result<Delivery> {
    buf.set_len(header.payload_len as usize)?;
    obs.received(header.payload_len as u64);
    audit.delivered(buf_id(&buf), sim.now().as_nanos());
    Ok(Delivery {
        state: header.state,
        src: EndpointId(header.src),
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
            producer.wire(0, RingKind::FreeArr, rings.base(1), 0);
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
            producer.wire(0, RingKind::ValidArr, rings.base(0), 0);
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

    #[test]
    fn watchdog_stalls_at_the_deadline_not_a_slice_later() {
        in_sim(|_, sim| {
            let start = sim.now();
            let mut parked = Vec::with_capacity(2);
            // Slices of 4 and 8 µs land exactly on the 12 µs deadline: the
            // stall is reported there, without parking the 16 µs slice.
            let err = Watchdog::backoff(sim, US(12), US(4), "test wait")
                .wait(
                    sim,
                    None,
                    || Ok(None::<()>),
                    |slice| {
                        parked.push(slice);
                        sim.sleep(slice);
                        Ok(false)
                    },
                )
                .unwrap_err();
            assert!(matches!(err, ShuffleError::Stalled("test wait")));
            assert_eq!(parked, [US(4), US(8)]);
            assert_eq!(sim.now(), start + US(12));
            Ok(())
        });
    }

    #[test]
    fn watchdog_backoff_doubles_to_the_cap_and_resets_on_progress() {
        in_sim(|_, sim| {
            let parked = std::cell::RefCell::new(Vec::with_capacity(9));
            Watchdog::backoff(sim, US(10_000), US(4), "test wait").wait(
                sim,
                None,
                || Ok((parked.borrow().len() == 9).then_some(())),
                |slice| {
                    parked.borrow_mut().push(slice.as_nanos() / 1_000);
                    Ok(parked.borrow().len() == 6)
                },
            )?;
            assert_eq!(*parked.borrow(), [4, 8, 16, 32, 64, 64, 4, 8, 16]);
            // A fixed watchdog hands out the same slice every time.
            let mut fixed = Watchdog::fixed(sim, US(10), US(5), "test wait");
            assert_eq!([fixed.slice(), fixed.slice(), fixed.slice()], [US(5); 3]);
            Ok(())
        });
    }

    #[test]
    fn stall_bracket_is_closed_on_every_exit() {
        let rt = in_sim(|rt, sim| {
            let obs = SendObs::new(&rt.context(0), EndpointId(7));
            let watchdog = || Watchdog::backoff(sim, US(6), US(4), "test wait");
            let sleep = |slice| {
                sim.sleep(slice);
                Ok(false)
            };
            // Ready at once: no stall, no bracket.
            watchdog().wait(sim, Some(&obs), || Ok(Some(())), sleep)?;
            // Ok after one park, the typed stall, an error out of `ready`
            // and one out of `park`: four stalls, four closed brackets.
            let mut checks = 0;
            let second_time = || {
                checks += 1;
                Ok((checks == 2).then_some(()))
            };
            watchdog().wait(sim, Some(&obs), second_time, sleep)?;
            let stalled = watchdog().wait(sim, Some(&obs), || Ok(None::<()>), sleep);
            assert!(matches!(stalled, Err(ShuffleError::Stalled(_))));
            let mut checks = 0;
            let broken_ring = || {
                checks += 1;
                if checks == 2 {
                    return Err(ShuffleError::Corrupt("ring slot".into()));
                }
                Ok(None::<()>)
            };
            let failed = watchdog().wait(sim, Some(&obs), broken_ring, sleep);
            assert!(matches!(failed, Err(ShuffleError::Corrupt(_))));
            let failed = watchdog().wait(
                sim,
                Some(&obs),
                || Ok(None::<()>),
                |_| Err(ShuffleError::CompletionError("drain")),
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
