//! Queue Pairs: posting work requests and the delivery pipeline.
//!
//! A [`QueuePair`] follows the IB state machine (RESET → INIT → RTR → RTS).
//! Posting a work request charges the CPU post cost, occupies the local
//! NIC's pipeline (touching the QP context cache), serializes on the fabric
//! ports and finally runs a delivery event at the receiver:
//!
//! * **Send** consumes a posted Receive at the destination. On UD an
//!   unmatched Send is silently dropped (§2.2.1: "else Send requests will
//!   be dropped"); on RC the hardware retries (receiver-not-ready) and the
//!   sender eventually completes with [`WcStatus::RetryExceeded`].
//! * **RDMA Read** pulls remote registered memory into a local buffer with
//!   no remote CPU involvement.
//! * **RDMA Write** pushes a local buffer into remote registered memory,
//!   also fully passive at the target.
//!
//! All timing flows through the shared [`rshuffle_simnet::NicModel`]s and
//! [`rshuffle_simnet::Fabric`]s so that
//! contention between QPs, threads and nodes is captured.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rshuffle_obs::{EventKind, Stage, HW_TRACK};
use rshuffle_simnet::net::CONTROL_BYPASS_BYTES;
use rshuffle_simnet::nic::WrKind;
use rshuffle_simnet::{FlowId, SimContext, SimDuration, SimTime, MAX_RC_MESSAGE, UD_MTU};

use crate::cq::{Completion, CompletionQueue, WcOpcode, WcStatus};
use crate::error::{Result, VerbsError};
use crate::mr::{MemoryRegion, Payload, RemoteAddr};
use crate::runtime::VerbsRuntime;
use crate::types::{QpNum, QpState, QpType};
use crate::NodeId;

/// Per-packet wire header overhead for reliable transport (LRH+BTH+CRC).
const RC_HEADER_BYTES: usize = 30;
/// The largest RC write payload whose packet still rides the fabric's
/// control lane.
pub const MAX_CONTROL_WRITE: usize = CONTROL_BYPASS_BYTES - RC_HEADER_BYTES;
/// Wire overhead of a UD datagram (adds the 40-byte GRH).
const UD_HEADER_BYTES: usize = 70;
/// How many times the hardware retries a send that finds no posted receive.
const RNR_RETRY_LIMIT: u32 = 7;
/// Delay between receiver-not-ready retries.
const RNR_RETRY_DELAY: SimDuration = SimDuration::from_micros(20);

/// Destination of a UD send / identity of a remote QP (`ibv_ah` analogue).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddressHandle {
    /// Destination node.
    pub node: NodeId,
    /// Destination Queue Pair number.
    pub qpn: QpNum,
}

/// A Receive work request: where an incoming message may land.
#[derive(Clone)]
pub struct RecvWr {
    /// Application identifier returned in the completion.
    pub wr_id: u64,
    /// Registered region holding the buffer.
    pub mr: MemoryRegion,
    /// Buffer offset within the region.
    pub offset: usize,
    /// Buffer capacity.
    pub len: usize,
}

/// The receives posted on a Queue Pair, oldest first, run-length encoded:
/// an endpoint's pool is one arithmetic progression of windows (thousands
/// deep on the UD design), posted ([`QueuePair::post_recv_run_untimed`])
/// and held as one run instead of one [`RecvWr`] — and one region handle —
/// per window.
#[derive(Default)]
pub(crate) struct RecvQueue {
    runs: VecDeque<RecvRun>,
    len: usize,
}

/// `count` receives over one region: `next`, then each `step` further on
/// in `wr_id` and `offset` (wrapping, so a descending run is a run too).
struct RecvRun {
    next: RecvWr,
    step: (u64, usize),
    count: usize,
}

impl RecvQueue {
    /// Appends `count` receives: `first`, then each `step` further on. They
    /// join the newest run when they continue it, exactly as they would
    /// pushed one by one (a run of one takes whatever step comes next).
    fn push_run(&mut self, first: RecvWr, step: (u64, usize), count: usize) {
        if count == 0 {
            return;
        }
        self.len += count;
        if let Some(run) = self.runs.back_mut() {
            let (head, n) = (&run.next, run.count - 1);
            let last_id = head.wr_id.wrapping_add(run.step.0.wrapping_mul(n as u64));
            let last_offset = head.offset.wrapping_add(run.step.1.wrapping_mul(n));
            let gap = (
                first.wr_id.wrapping_sub(last_id),
                first.offset.wrapping_sub(last_offset),
            );
            let same_shape = Arc::ptr_eq(&first.mr.inner, &head.mr.inner) && first.len == head.len;
            if same_shape && (n == 0 || gap == run.step) && (count == 1 || step == gap) {
                run.step = gap;
                run.count += count;
                return;
            }
        }
        self.runs.push_back(RecvRun {
            next: first,
            step,
            count,
        });
    }

    fn pop(&mut self) -> Option<RecvWr> {
        let run = self.runs.front_mut()?;
        self.len -= 1;
        if run.count == 1 {
            return self.runs.pop_front().map(|run| run.next);
        }
        let wr = run.next.clone();
        run.next.wr_id = wr.wr_id.wrapping_add(run.step.0);
        run.next.offset = wr.offset.wrapping_add(run.step.1);
        run.count -= 1;
        Some(wr)
    }

    pub(crate) fn clear(&mut self) {
        *self = RecvQueue::default();
    }
}

/// A Send work request.
#[derive(Clone)]
pub struct SendWr {
    /// Application identifier returned in the completion.
    pub wr_id: u64,
    /// Registered region holding the payload.
    pub mr: MemoryRegion,
    /// Payload offset within the region.
    pub offset: usize,
    /// Payload length.
    pub len: usize,
    /// Immediate data delivered with the message (used by the shuffle
    /// endpoints to inline the credit value, §4.4.1).
    pub imm: Option<u32>,
    /// Destination (required on UD, ignored on RC which uses the connected
    /// peer).
    pub ah: Option<AddressHandle>,
}

/// One shared physical-QP slot of the connection multiplexer.
///
/// Virtual QPs bound to the same slot model endpoints that share one
/// real Reliable Connection: they alias a single NIC QP context — so the
/// QP-context cache and doorbell coalescing see one QP, not N (the
/// benefit side of multiplexing, Figure 11) — and they serialize their
/// deliveries through one shared order clock (the head-of-line cost of
/// sharing). Protocol state — receive queues, completion queues, credit
/// accounting — stays per virtual QP, so endpoint and audit invariants
/// are untouched by slot sharing.
pub struct SharedQpSlot {
    /// The NIC context key the slot's members alias. Donated by the
    /// first QP bound to the slot, so a slot with a single member is
    /// indistinguishable from an unshared QP.
    ctx: OnceLock<u64>,
    /// Shared delivery-order clock: RC delivery stays in posted order
    /// across *all* members, exactly as on one physical connection.
    order: Mutex<SimTime>,
}

impl SharedQpSlot {
    /// Creates an empty slot; the first bound QP donates its context.
    pub fn new() -> Arc<SharedQpSlot> {
        Arc::new(SharedQpSlot {
            ctx: OnceLock::new(),
            order: Mutex::new(SimTime::ZERO),
        })
    }
}

/// A QP's membership in a [`SharedQpSlot`] (installed once, pre-traffic).
pub(crate) struct SharedBinding {
    /// The slot's aliased NIC context key (resolved at bind time).
    pub(crate) ctx: u64,
    /// The slot itself, for the shared delivery-order clock.
    pub(crate) slot: Arc<SharedQpSlot>,
}

pub(crate) struct QpInner {
    pub(crate) node: NodeId,
    pub(crate) qpn: QpNum,
    pub(crate) ty: QpType,
    pub(crate) state: Mutex<QpState>,
    pub(crate) peer: Mutex<Option<AddressHandle>>,
    pub(crate) send_cq: CompletionQueue,
    pub(crate) recv_cq: CompletionQueue,
    pub(crate) recv_queue: Mutex<RecvQueue>,
    /// Latest delivery time issued on this (RC) QP. Reliable Connections
    /// deliver strictly in posted order even when a small message could
    /// physically arrive earlier (control virtual lane), so delivery times
    /// are clamped to be monotone per QP.
    pub(crate) last_delivery: Mutex<SimTime>,
    /// The flow (query) whose NIC/port share this QP's traffic consumes.
    pub(crate) flow: FlowId,
    /// Shared-slot membership when the connection multiplexer has bound
    /// this QP ([`QueuePair::bind_shared_slot`]); empty on the direct
    /// path, where every hot-path read is one relaxed atomic load.
    pub(crate) shared: OnceLock<SharedBinding>,
    /// `Some` while a reliable Send to this QP waits out receiver-not-ready
    /// retries: the Sends that arrived behind it, in posted order.
    rnr_backlog: Mutex<Option<VecDeque<InboundSend>>>,
}

impl QpInner {
    pub(crate) fn new(
        node: NodeId,
        qpn: QpNum,
        ty: QpType,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        flow: FlowId,
    ) -> Self {
        QpInner {
            node,
            qpn,
            ty,
            state: Mutex::new(QpState::Reset),
            peer: Mutex::new(None),
            send_cq,
            recv_cq,
            recv_queue: Mutex::new(RecvQueue::default()),
            last_delivery: Mutex::new(SimTime::ZERO),
            flow,
            shared: OnceLock::new(),
            rnr_backlog: Mutex::new(None),
        }
    }

    /// The NIC context key this QP's traffic occupies: its own natural
    /// key, or the aliased slot key when multiplexed onto a shared slot.
    fn ctx_key(&self) -> u64 {
        match self.shared.get() {
            Some(b) => b.ctx,
            None => self.natural_ctx_key(),
        }
    }

    /// The un-multiplexed context key (`node << 32 | qpn`).
    fn natural_ctx_key(&self) -> u64 {
        ((self.node as u64) << 32) | self.qpn.0 as u64
    }

    /// Fault injection: forces the QP into the error state, flushing every
    /// queued receive to the receive CQ with [`WcStatus::Flushed`] (the
    /// `IBV_WC_WR_FLUSH_ERR` behaviour of real hardware). Returns `false`
    /// if the QP was already in the error state.
    pub(crate) fn force_error(&self) -> bool {
        {
            let mut st = self.state.lock();
            if *st == QpState::Error {
                return false;
            }
            *st = QpState::Error;
        }
        let mut flushed = std::mem::take(&mut *self.recv_queue.lock());
        while let Some(rwr) = flushed.pop() {
            // Post time unknown: 0.
            let me = (self.node, self.qpn);
            let flushed = Completion::new(rwr.wr_id, WcOpcode::Recv, me, self.qpn, 0);
            self.recv_cq.deposit(flushed.outcome(WcStatus::Flushed, 0));
        }
        true
    }
}

/// A Queue Pair handle. Thread-safe; clones share the same QP.
#[derive(Clone)]
pub struct QueuePair {
    inner: Arc<QpInner>,
    runtime: Arc<VerbsRuntime>,
}

impl QueuePair {
    pub(crate) fn new(inner: Arc<QpInner>, runtime: Arc<VerbsRuntime>) -> Self {
        QueuePair { inner, runtime }
    }

    /// This QP's number.
    pub fn qpn(&self) -> QpNum {
        self.inner.qpn
    }

    /// The node the QP lives on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The transport service type.
    pub fn qp_type(&self) -> QpType {
        self.inner.ty
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        *self.inner.state.lock()
    }

    /// An address handle peers can use to reach this QP.
    pub fn address_handle(&self) -> AddressHandle {
        AddressHandle {
            node: self.inner.node,
            qpn: self.inner.qpn,
        }
    }

    /// RESET → INIT. Receives may be posted afterwards. A QP brought up
    /// on a node inside an open QP-failure window dies here, at its first
    /// touch, and the transition fails.
    pub fn modify_to_init(&self) -> Result<()> {
        self.runtime.enforce_kill_window(&self.inner);
        self.transition(QpState::Reset, QpState::Init, "modify_to_init")
    }

    /// INIT → RTR (ready to receive). RC QPs must be connected first.
    pub fn modify_to_rtr(&self) -> Result<()> {
        if self.inner.ty == QpType::Rc && self.inner.peer.lock().is_none() {
            return Err(VerbsError::NotConnected(self.inner.qpn));
        }
        self.transition(QpState::Init, QpState::ReadyToReceive, "modify_to_rtr")
    }

    /// RTR → RTS (fully operational).
    pub fn modify_to_rts(&self) -> Result<()> {
        self.transition(
            QpState::ReadyToReceive,
            QpState::ReadyToSend,
            "modify_to_rts",
        )
    }

    fn transition(&self, from: QpState, to: QpState, op: &'static str) -> Result<()> {
        {
            let mut st = self.inner.state.lock();
            if *st != from {
                return Err(VerbsError::InvalidState {
                    qp: self.inner.qpn,
                    state: *st,
                    op,
                });
            }
            *st = to;
        }
        self.runtime.rt_obs.obs.recorder.event(
            self.inner.node as u32,
            HW_TRACK,
            self.runtime.kernel().now().as_nanos(),
            EventKind::QpTransition,
            // Low byte: new state; next byte: old state; rest: QPN.
            ((self.inner.qpn.0 as u64) << 16) | ((from as u64) << 8) | to as u64,
        );
        Ok(())
    }

    /// Binds this RC QP onto a shared physical-QP slot (connection
    /// multiplexing). Must happen at wiring time, before traffic flows;
    /// a QP can be bound at most once. The first member donates its
    /// context key, so a one-member slot behaves exactly like an
    /// unshared QP.
    pub fn bind_shared_slot(&self, slot: &Arc<SharedQpSlot>) -> Result<()> {
        if self.inner.ty != QpType::Rc {
            return Err(VerbsError::UnsupportedOp {
                op: "bind_shared_slot",
                reason: "only Reliable Connections are multiplexed",
            });
        }
        let ctx = *slot.ctx.get_or_init(|| self.inner.natural_ctx_key());
        let binding = SharedBinding {
            ctx,
            slot: slot.clone(),
        };
        if self.inner.shared.set(binding).is_err() {
            return Err(VerbsError::UnsupportedOp {
                op: "bind_shared_slot",
                reason: "QP is already bound to a shared slot",
            });
        }
        Ok(())
    }

    /// Binds this RC QP to its (single) remote peer. Must happen in INIT,
    /// before RTR.
    pub fn connect(&self, peer: AddressHandle) -> Result<()> {
        if self.inner.ty != QpType::Rc {
            return Err(VerbsError::UnsupportedOp {
                op: "connect",
                reason: "UD queue pairs are connectionless",
            });
        }
        let st = *self.inner.state.lock();
        if st != QpState::Init {
            return Err(VerbsError::InvalidState {
                qp: self.inner.qpn,
                state: st,
                op: "connect",
            });
        }
        *self.inner.peer.lock() = Some(peer);
        Ok(())
    }

    /// Number of Receive requests currently posted.
    pub fn posted_receives(&self) -> usize {
        self.inner.recv_queue.lock().len
    }

    /// How many runs the posted receives are held as (see [`RecvQueue`]).
    #[doc(hidden)]
    pub fn posted_receive_runs(&self) -> usize {
        self.inner.recv_queue.lock().runs.len()
    }

    /// Posts a Receive work request (`ibv_post_recv`). Allowed from INIT
    /// onward. The buffer's contents are undefined from here until a
    /// message lands in it, so whatever it held is discarded.
    pub fn post_recv(&self, sim: &SimContext, wr: RecvWr) -> Result<()> {
        self.check_recv(&wr, (0, 0), 1, "post_recv")?;
        sim.sleep(self.runtime.profile().post_wr_cpu);
        self.runtime.rt_obs.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::RecvPosted,
            wr.len as u64,
        );
        self.enqueue_recv(wr, (0, 0), 1);
        Ok(())
    }

    /// Posts a Receive without charging CPU time. For connection bootstrap
    /// outside the measured window (initial receive pools are posted while
    /// connections are established, before the query starts).
    pub fn post_recv_untimed(&self, wr: RecvWr) -> Result<()> {
        self.post_recv_run_untimed(wr, (0, 0), 1)
    }

    /// Posts a receive pool without charging CPU time: `count` Receives of
    /// `first.len` bytes over `first.mr`, `first` and then each `step`
    /// further on in `(wr_id, offset)` (wrapping, so a pool may be handed
    /// over back to front). What [`QueuePair::post_recv_untimed`] would do
    /// for each in turn is done once for all of them — and for all or
    /// none: the first Receive that would be refused is the error, and
    /// then nothing has been posted or discarded.
    pub fn post_recv_run_untimed(
        &self,
        first: RecvWr,
        step: (u64, usize),
        count: usize,
    ) -> Result<()> {
        self.check_recv(&first, step, count, "post_recv_untimed")?;
        self.enqueue_recv(first, step, count);
        Ok(())
    }

    /// Whether the `count` receives from `first` on, `step` apart, may be
    /// posted now: the QP is past RESET and not in error, and every buffer
    /// lies inside the region.
    fn check_recv(
        &self,
        first: &RecvWr,
        step: (u64, usize),
        count: usize,
        op: &'static str,
    ) -> Result<()> {
        let st = *self.inner.state.lock();
        if st < QpState::Init || st == QpState::Error {
            return Err(VerbsError::InvalidState {
                qp: self.inner.qpn,
                state: st,
                op,
            });
        }
        first.mr.locate_run(first.offset, step.1, count, first.len)
    }

    fn enqueue_recv(&self, first: RecvWr, step: (u64, usize), count: usize) {
        first.mr.discard_run(first.offset, step.1, count, first.len);
        self.inner.recv_queue.lock().push_run(first, step, count);
    }

    /// Posts a Send work request (`ibv_post_send` with `IBV_WR_SEND`).
    ///
    /// The payload is captured when the request is posted; per the verbs
    /// contract the buffer must not be modified until the completion
    /// arrives.
    pub fn post_send(&self, sim: &SimContext, wr: SendWr) -> Result<()> {
        self.check_sendable("post_send")?;
        if self.inner.ty == QpType::Ud {
            let dest = wr.ah.ok_or(VerbsError::MissingAddressHandle)?;
            return self.post_datagram(sim, wr, &[dest]);
        }
        let peer = *self.inner.peer.lock();
        let dest = peer.ok_or(VerbsError::NotConnected(self.inner.qpn))?;
        check_len(wr.len, MAX_RC_MESSAGE)?;
        let payload = wr.mr.capture(wr.offset, wr.len)?;
        let (posted, nic_done) = self.accept(sim, WrKind::SendRc, wr.len);
        let arrival = self.ordered_delivery(self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            dest.node,
            wire_bytes(QpType::Rc, wr.len),
            nic_done,
            self.inner.flow,
        ));
        let inbound = self.inbound(dest, payload, &wr, posted);
        self.runtime
            .kernel()
            .schedule(arrival, move || inbound.arrive(0));
        Ok(())
    }

    /// Posts one UD Send that the switch replicates to every destination
    /// (native InfiniBand multicast; the paper's §7 hypothesizes this will
    /// reduce broadcast CPU cost): a UD [`QueuePair::post_send`] to every
    /// member of `dests` at once. UD only; an empty member list is
    /// [`VerbsError::MissingAddressHandle`].
    pub fn post_send_multicast(
        &self,
        sim: &SimContext,
        wr: SendWr,
        dests: &[AddressHandle],
    ) -> Result<()> {
        if self.inner.ty != QpType::Ud {
            return Err(VerbsError::UnsupportedOp {
                op: "post_send_multicast",
                reason: "native multicast runs over the Unreliable Datagram service",
            });
        }
        self.check_sendable("post_send_multicast")?;
        if dests.is_empty() {
            return Err(VerbsError::MissingAddressHandle);
        }
        self.post_datagram(sim, wr, dests)
    }

    /// The one body of a UD Send, to one member or many: one work request,
    /// one local completion and one fabric transfer for all of `dests`.
    /// Every member's fate (UD loss and reordering) is drawn first, in
    /// member order; a lost copy never reaches the fabric, and when every
    /// copy is lost nothing does.
    fn post_datagram(&self, sim: &SimContext, wr: SendWr, dests: &[AddressHandle]) -> Result<()> {
        check_len(wr.len, UD_MTU)?;
        let payload = wr.mr.capture(wr.offset, wr.len)?;
        let (posted, nic_done) = self.accept(sim, WrKind::SendUd, wr.len);
        // The sender completes locally once the NIC is done with the
        // buffer, whatever becomes of the copies.
        let me = (self.inner.node, self.inner.qpn);
        let sent = Completion::new(wr.wr_id, WcOpcode::Send, me, me.1, posted.as_nanos());
        let sent = sent.outcome(WcStatus::Success, wr.len);
        self.inner.send_cq.complete_at(nic_done, sent);
        let fate = |&dest: &AddressHandle| {
            let jitter = self.runtime.sample_ud_fate(self.inner.node)?;
            Some((dest, jitter))
        };
        // The surviving copies; a unicast's one stays off the heap.
        let (one, many);
        let copies: &[(AddressHandle, SimDuration)] = match dests {
            [dest] => {
                one = fate(dest);
                one.as_slice()
            }
            _ => {
                many = dests.iter().filter_map(fate).collect::<Vec<_>>();
                &many
            }
        };
        let members = copies.iter().map(|(dest, _)| dest.node);
        let bytes = wire_bytes(QpType::Ud, wr.len);
        let fabric = self.runtime.cluster().fabric();
        let (node, flow) = (self.inner.node, self.inner.flow);
        fabric.transfer_group(node, members, bytes, nic_done, flow, |copy, arrival| {
            let (dest, jitter) = copies[copy];
            let inbound = self.inbound(dest, payload.clone(), &wr, posted);
            self.runtime
                .kernel()
                .schedule(arrival + jitter, move || inbound.arrive(0));
        });
        Ok(())
    }

    /// Posts an RDMA Read (`ibv_post_send` with `IBV_WR_RDMA_READ`):
    /// fetches `len` bytes from `remote` into the local buffer. RC only.
    pub fn post_read(
        &self,
        sim: &SimContext,
        wr_id: u64,
        local: (MemoryRegion, usize),
        remote: RemoteAddr,
        len: usize,
    ) -> Result<()> {
        self.check_one_sided("post_read")?;
        check_len(len, MAX_RC_MESSAGE)?;
        let (local_mr, local_off) = local;
        local_mr.locate(local_off, len)?;
        let (posted, nic_done) = self.accept(sim, WrKind::Read, len);
        // The read request itself is a small packet to the remote node.
        let req_arrive = self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            remote.node,
            RC_HEADER_BYTES,
            nic_done,
            self.inner.flow,
        );
        let req = self.one_sided(wr_id, WcOpcode::Read, remote, len, posted);
        let (local_node, self_ctx) = (self.inner.node, self.inner.ctx_key());
        self.runtime.kernel().schedule(req_arrive, move || {
            let (served, region) = req.serve();
            let Some(region) = region else {
                return req.complete(served, WcStatus::Flushed);
            };
            let data = region.capture(remote.offset, len).expect("bounds checked");
            let runtime = req.runtime.clone();
            let back = runtime.cluster().fabric().transfer_flow(
                remote.node,
                local_node,
                wire_bytes(QpType::Rc, len),
                served,
                req.flow,
            );
            runtime.kernel().schedule(back, move || {
                let now = req.runtime.kernel().now();
                let nic = req.runtime.nic(local_node);
                let done = nic.process_flow(now, self_ctx, WrKind::RecvMatch, req.flow);
                local_mr
                    .land(local_off, data)
                    .expect("bounds checked at post time");
                req.complete(done, WcStatus::Success);
            });
        });
        Ok(())
    }

    /// Posts an RDMA Write (`ibv_post_send` with `IBV_WR_RDMA_WRITE`):
    /// pushes the local buffer into `remote`. RC only. The target CPU is
    /// never involved; consumers poll memory (see
    /// [`MemoryRegion::listen`]).
    pub fn post_write(
        &self,
        sim: &SimContext,
        wr_id: u64,
        local: (MemoryRegion, usize),
        remote: RemoteAddr,
        len: usize,
    ) -> Result<()> {
        self.check_one_sided("post_write")?;
        check_len(len, MAX_RC_MESSAGE)?;
        let (local_mr, local_off) = local;
        let payload = local_mr.capture(local_off, len)?;
        let (posted, nic_done) = self.accept(sim, WrKind::Write, len);
        let deliver = self.ordered_delivery(self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            remote.node,
            wire_bytes(QpType::Rc, len),
            nic_done,
            self.inner.flow,
        ));
        let req = self.one_sided(wr_id, WcOpcode::Write, remote, len, posted);
        let ack_latency = self.runtime.profile().rc_ack_latency;
        self.runtime.kernel().schedule(deliver, move || {
            let (served, region) = req.serve();
            let Some(region) = region else {
                return req.complete(served, WcStatus::Flushed);
            };
            region.land(remote.offset, payload).expect("bounds checked");
            let kernel = req.runtime.kernel().clone();
            kernel.schedule(served, move || {
                region.signal_update();
                req.complete(served + ack_latency, WcStatus::Success);
            });
        });
        Ok(())
    }

    /// The step every work request takes into the NIC, whatever its verb:
    /// the post's CPU cost, then the local NIC's pipeline and this QP's
    /// context. Returns the post instant and when the NIC is done with the
    /// request.
    fn accept(&self, sim: &SimContext, kind: WrKind, len: usize) -> (SimTime, SimTime) {
        sim.sleep(self.runtime.profile().post_wr_cpu);
        let now = self.runtime.kernel().now();
        let rt_obs = &self.runtime.rt_obs;
        let obs = &rt_obs.obs;
        if matches!(kind, WrKind::SendRc | WrKind::SendUd) {
            // The flight recorder and the size histogram see Sends only
            // (the histogram through the cached per-node handle: no name
            // lookup per message).
            obs.recorder.event(
                sim.node() as u32,
                sim.id().track(),
                now.as_nanos(),
                EventKind::SendPosted,
                len as u64,
            );
            rt_obs.msg_size[self.inner.node].record(len as u64);
        }
        let nic = self.runtime.nic(self.inner.node);
        let nic_done = nic.process_flow(now, self.inner.ctx_key(), kind, self.inner.flow);
        // The doorbell→NIC-accept WR batching stage.
        let (p, d) = (now.as_nanos(), nic_done.as_nanos());
        obs.record_stage(Stage::WrBatch, self.inner.node as u32, d.saturating_sub(p));
        (now, nic_done)
    }

    /// `wr`'s message on its way to `dest`.
    fn inbound(
        &self,
        dest: AddressHandle,
        payload: Payload,
        wr: &SendWr,
        posted: SimTime,
    ) -> InboundSend {
        let reliable = self.inner.ty == QpType::Rc;
        InboundSend {
            runtime: self.runtime.clone(),
            dest,
            src: self.address_handle(),
            payload,
            imm: wr.imm,
            sender: reliable.then(|| (self.inner.send_cq.clone(), wr.wr_id)),
            posted_ns: posted.as_nanos(),
        }
    }

    /// The one-sided request `wr_id` on its way to `remote`.
    fn one_sided(
        &self,
        wr_id: u64,
        opcode: WcOpcode,
        remote: RemoteAddr,
        len: usize,
        posted: SimTime,
    ) -> OneSided {
        let target = (remote.node, QpNum(0));
        OneSided {
            runtime: self.runtime.clone(),
            cq: self.inner.send_cq.clone(),
            completion: Completion::new(wr_id, opcode, target, self.inner.qpn, posted.as_nanos()),
            remote,
            len,
            peer_ctx: self.peer_ctx_key(),
            flow: self.inner.flow,
        }
    }

    /// The NIC context key the connected peer's passive (RemoteDma) work
    /// occupies: the peer QP's effective key — aliased when the peer is
    /// multiplexed — falling back to the natural `node << 32 | qpn`
    /// computation if the peer is not registered with the runtime.
    fn peer_ctx_key(&self) -> u64 {
        let Some(peer) = *self.inner.peer.lock() else {
            return 0;
        };
        match self.runtime.lookup_qp(peer.node, peer.qpn) {
            Some(qp) => qp.ctx_key(),
            None => ((peer.node as u64) << 32) | peer.qpn.0 as u64,
        }
    }

    fn check_sendable(&self, op: &'static str) -> Result<()> {
        // Lazy persistent-fault enforcement: a QP still up inside an open
        // kill window dies on first use (one brought up inside it died at
        // `modify_to_init`), so the recovery layer sees every failure.
        self.runtime.enforce_kill_window(&self.inner);
        let st = *self.inner.state.lock();
        if st != QpState::ReadyToSend {
            return Err(VerbsError::InvalidState {
                qp: self.inner.qpn,
                state: st,
                op,
            });
        }
        Ok(())
    }

    fn check_one_sided(&self, op: &'static str) -> Result<()> {
        if self.inner.ty != QpType::Rc {
            return Err(VerbsError::UnsupportedOp {
                op,
                reason: "one-sided operations require the Reliable Connection service",
            });
        }
        self.check_sendable(op)
    }

    /// Clamps `deliver` so deliveries on this RC QP stay in posted order.
    /// A multiplexed QP clamps against its slot's shared clock instead:
    /// everything sharing the physical connection delivers in one posted
    /// order, which is exactly the head-of-line cost of QP sharing.
    fn ordered_delivery(&self, deliver: SimTime) -> SimTime {
        let mut last = match self.inner.shared.get() {
            Some(b) => b.slot.order.lock(),
            None => self.inner.last_delivery.lock(),
        };
        *last = deliver.max(*last);
        *last
    }
}

/// Wire bytes for a message of `len` payload bytes on transport `ty`.
fn wire_bytes(ty: QpType, len: usize) -> usize {
    match ty {
        QpType::Ud => len + UD_HEADER_BYTES,
        QpType::Rc => len + RC_HEADER_BYTES * len.div_ceil(UD_MTU).max(1),
    }
}

fn check_len(len: usize, max: usize) -> Result<()> {
    if len > max {
        return Err(VerbsError::MessageTooLarge { len, max });
    }
    Ok(())
}

/// Records an unmatched inbound datagram at `node` (the §2.2.1 silent
/// UD drop).
fn observe_unmatched(runtime: &VerbsRuntime, node: crate::NodeId, at: SimTime) {
    runtime.rt_obs.ud_unmatched.inc();
    runtime
        .rt_obs
        .obs
        .recorder
        .event(node as u32, HW_TRACK, at.as_nanos(), EventKind::UdDrop, 1);
}

/// An RDMA Read or Write past the requester's NIC: what the target's NIC
/// and the requester's completion need of it.
struct OneSided {
    runtime: Arc<VerbsRuntime>,
    /// The requester's send CQ and the entry it is owed, outcome open.
    cq: CompletionQueue,
    completion: Completion,
    remote: RemoteAddr,
    len: usize,
    /// The target QP's NIC context key.
    peer_ctx: u64,
    flow: FlowId,
}

impl OneSided {
    /// The target NIC serves the request passively: pipeline occupancy plus
    /// a QP-context touch, no remote CPU. Returns when it is done and the
    /// region `[remote.offset, +len)` lies in, if the rkey resolves and the
    /// range — `offset` and `len` arrive over the wire — is inside it;
    /// `None` is a remote access error.
    fn serve(&self) -> (SimTime, Option<MemoryRegion>) {
        let (runtime, remote) = (&self.runtime, self.remote);
        let now = runtime.kernel().now();
        let nic = runtime.nic(remote.node);
        let served = nic.process_flow(now, self.peer_ctx, WrKind::RemoteDma, self.flow);
        let region = runtime
            .lookup_mr(remote.rkey)
            .filter(|mr| mr.locate(remote.offset, self.len).is_ok());
        (served, region)
    }

    /// The requester's completion, at `at`: every byte or none.
    fn complete(self, at: SimTime, status: WcStatus) {
        let bytes = match status {
            WcStatus::Success => self.len,
            _ => 0,
        };
        self.cq
            .complete_at(at, self.completion.outcome(status, bytes));
    }
}

/// A Send past the sender's NIC and the fabric.
struct InboundSend {
    runtime: Arc<VerbsRuntime>,
    dest: AddressHandle,
    src: AddressHandle,
    payload: Payload,
    imm: Option<u32>,
    /// A reliable sender's CQ and work-request id: it is completed by what
    /// happens at `dest`, a datagram's sender was at post time.
    sender: Option<(CompletionQueue, u64)>,
    /// When the sender posted, for the completions and the end-to-end
    /// message-latency histogram.
    posted_ns: u64,
}

/// What became of one arrival of a Send at its target QP.
enum Landing {
    Delivered,
    /// Receiver not ready: a retry is scheduled.
    Retrying,
    /// Dropped, flushed or retried out; the sender (if any) was answered.
    Failed,
}

impl InboundSend {
    /// Delivery event: the message arrives at `dest` for the `attempt`-th
    /// time after the first. A reliable Send stays in posted order, as
    /// go-back-N retransmission keeps it in hardware: one that arrives
    /// while an earlier Send waits out receiver-not-ready retries waits
    /// behind it, and arrives once that one is through — or is flushed
    /// with it when it retries out.
    fn arrive(self, attempt: u32) {
        let (runtime, dest) = (&*self.runtime, self.dest);
        let now = runtime.kernel().now();
        let Some(qp) = runtime.lookup_qp(dest.node, dest.qpn) else {
            // Unknown QP: UD drops; RC would eventually retry out. Treat
            // both as a drop with a counter.
            return observe_unmatched(runtime, dest.node, now);
        };
        if attempt == 0 && self.sender.is_some() {
            if let Some(behind) = qp.rnr_backlog.lock().as_mut() {
                return behind.push_back(self);
            }
        }
        let landing = self.land(&qp, attempt, now);
        match landing {
            Landing::Retrying if attempt == 0 => *qp.rnr_backlog.lock() = Some(VecDeque::new()),
            Landing::Delivered | Landing::Failed if attempt > 0 => {
                let behind = qp.rnr_backlog.lock().take().unwrap_or_default();
                for send in behind {
                    match landing {
                        Landing::Delivered => send.arrive(0),
                        _ => send.answer(now, WcStatus::Flushed),
                    }
                }
            }
            _ => {}
        }
    }

    /// Matches this arrival against `qp`'s receive queue and delivers it,
    /// or schedules the next receiver-not-ready retry, or fails it.
    fn land(self, qp: &Arc<QpInner>, attempt: u32, now: SimTime) -> Landing {
        let (runtime, dest) = (&*self.runtime, self.dest);
        // Lazy persistent-fault enforcement at the receiver: a target QP
        // inside an open kill window is forced into the error state before
        // the delivery is matched (see `check_sendable`).
        runtime.enforce_kill_window(qp);
        let st = *qp.state.lock();
        if st == QpState::Error {
            // Target QP was killed (fault injection): an RC sender gets its
            // work request flushed in error; a UD datagram drops silently.
            self.answer(now, WcStatus::Flushed);
            return Landing::Failed;
        }
        if st < QpState::ReadyToReceive {
            observe_unmatched(runtime, dest.node, now);
            return Landing::Failed;
        }
        // Receive matching occupies the *target* QP's context — the aliased
        // slot key when the target is multiplexed (identical to the natural
        // `node << 32 | qpn` key otherwise).
        let nic = runtime.nic(dest.node);
        let nic_done = nic.process_flow(now, qp.ctx_key(), WrKind::RecvMatch, qp.flow);
        // A receiver-pause fault freezes receive matching: the queue looks
        // empty, so RC takes the RNR-retry path and UD drops unmatched.
        let rwr = if runtime.recv_paused(dest.node, now.as_nanos()) {
            None
        } else {
            qp.recv_queue.lock().pop()
        };
        let Some(rwr) = rwr else {
            if self.sender.is_none() || attempt >= RNR_RETRY_LIMIT {
                // §2.2.1: an unmatched Send on UD is dropped; on RC the
                // hardware has retried for the last time.
                self.answer(now, WcStatus::RetryExceeded);
                return Landing::Failed;
            }
            // Receiver not ready: the hardware retries after a delay.
            runtime.rt_obs.rnr_retries.inc();
            runtime.rt_obs.obs.recorder.event(
                dest.node as u32,
                HW_TRACK,
                now.as_nanos(),
                EventKind::RnrRetry,
                attempt as u64 + 1,
            );
            let kernel = runtime.kernel().clone();
            kernel.schedule(now + RNR_RETRY_DELAY, move || self.arrive(attempt + 1));
            return Landing::Retrying;
        };
        // A message longer than the Receive it matched is an error at both
        // ends of a Reliable Connection: the responder's NAK reaches the
        // sender where the ACK would have. A datagram's sender hears nothing.
        let fits = self.payload.len <= rwr.len;
        let (status, answer) = if fits {
            (WcStatus::Success, WcStatus::Success)
        } else {
            (WcStatus::LocalLengthError, WcStatus::RemoteInvalidRequest)
        };
        let from = (self.src.node, self.src.qpn);
        let mut completion =
            Completion::new(rwr.wr_id, WcOpcode::Recv, from, dest.qpn, self.posted_ns)
                .outcome(status, self.payload.len);
        completion.imm = self.imm;
        qp.recv_cq.complete_at(nic_done, completion);
        if self.sender.is_some() {
            self.answer(nic_done + runtime.profile().rc_ack_latency, answer);
        }
        if fits {
            runtime.rt_obs.msg_latency[dest.node]
                .record(now.as_nanos().saturating_sub(self.posted_ns));
            rwr.mr
                .land(rwr.offset, self.payload)
                .expect("receive buffer bounds checked at post time");
        }
        Landing::Delivered
    }

    /// What the sender learns of the delivery: a reliable one is completed
    /// with `status` at `at`; a datagram that was not received was dropped,
    /// which only a counter sees.
    fn answer(&self, at: SimTime, status: WcStatus) {
        let (dest, src) = (self.dest, self.src);
        match &self.sender {
            Some((send_cq, wr_id)) => {
                let target = (dest.node, dest.qpn);
                let completion =
                    Completion::new(*wr_id, WcOpcode::Send, target, src.qpn, self.posted_ns)
                        .outcome(status, self.payload.len);
                send_cq.complete_at(at, completion);
            }
            None if status != WcStatus::Success => {
                observe_unmatched(&self.runtime, dest.node, at);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConnectionManager;
    use rshuffle_simnet::{Cluster, DeviceProfile, Kernel};

    #[test]
    fn posted_receives_coalesce_into_runs_and_pop_in_order() {
        let mr = MemoryRegion::new_for_tests(&Kernel::new(), 0, 1, 4096);
        let wr = |slot: u64| RecvWr {
            wr_id: slot * 64,
            mr: mr.clone(),
            offset: slot as usize * 64,
            len: 64,
        };
        let mut queue = RecvQueue::default();
        // A pool posted in order, three reposts walking down, one stray.
        let slots: Vec<u64> = (0..32).chain([40, 38, 36, 7]).collect();
        for &slot in &slots {
            queue.push_run(wr(slot), (0, 0), 1);
        }
        assert_eq!((queue.len, queue.runs.len()), (36, 3));
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert!(popped.iter().all(|wr| wr.offset as u64 == wr.wr_id));
        let order: Vec<u64> = popped.iter().map(|wr| wr.wr_id / 64).collect();
        assert_eq!((order, queue.len), (slots, 0));
        // The same pool in three posts is one run; another region's is not.
        queue.push_run(wr(0), (64, 64), 16);
        queue.push_run(wr(16), (64, 64), 15);
        queue.push_run(wr(31), (0, 0), 1);
        assert_eq!((queue.len, queue.runs.len()), (32, 1));
        let mr = MemoryRegion::new_for_tests(&Kernel::new(), 0, 2, 4096);
        queue.push_run(RecvWr { mr, ..wr(32) }, (64, 64), 4);
        assert_eq!((queue.len, queue.runs.len()), (36, 2));
    }

    /// A run is indistinguishable from its windows: whatever is posted as
    /// runs — ascending, descending, wrapping, empty, adjacent runs that
    /// merge, foreign regions that must not — pops as the same receives
    /// pushed one by one would, whenever the pops come.
    #[test]
    fn run_posts_pop_as_their_receives_pushed_one_by_one() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let kernel = Kernel::new();
        let regions = [1, 2].map(|rkey| MemoryRegion::new_for_tests(&kernel, 0, rkey, 1 << 20));
        let seen = |wr: Option<RecvWr>| wr.map(|wr| (wr.wr_id, wr.offset, wr.len, wr.mr.rkey()));
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut runs, mut singles) = (RecvQueue::default(), RecvQueue::default());
            // Where the last run ended, so that some runs continue it.
            let mut after_last = (0u64, 0usize);
            for _ in 0..200 {
                if rng.gen_range(0..4) == 0 {
                    for _ in 0..rng.gen_range(0..40) {
                        assert_eq!(seen(runs.pop()), seen(singles.pop()), "seed {seed}");
                    }
                    continue;
                }
                let step = match rng.gen_range(0..4) {
                    0 => (64, 64),
                    1 => (64u64.wrapping_neg(), 64usize.wrapping_neg()),
                    2 => (u64::MAX / 3, usize::MAX / 5),
                    _ => (rng.gen_range(0..3), rng.gen_range(0..200)),
                };
                let count = [0, 1, 2, rng.gen_range(3..50)][rng.gen_range(0..4)];
                let (wr_id, offset) = match rng.gen_range(0..3) {
                    0 => after_last,
                    _ => (rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 20)),
                };
                let first = RecvWr {
                    wr_id,
                    mr: regions[usize::from(rng.gen_range(0..8) == 0)].clone(),
                    offset,
                    len: [64, 64, 64, 32][rng.gen_range(0..4)],
                };
                for i in 0..count {
                    let mut wr = first.clone();
                    wr.wr_id = wr_id.wrapping_add(step.0.wrapping_mul(i as u64));
                    wr.offset = offset.wrapping_add(step.1.wrapping_mul(i));
                    singles.push_run(wr, (0, 0), 1);
                }
                after_last = (
                    wr_id.wrapping_add(step.0.wrapping_mul(count as u64)),
                    offset.wrapping_add(step.1.wrapping_mul(count)),
                );
                runs.push_run(first, step, count);
                assert_eq!(runs.len, singles.len, "seed {seed}");
            }
            while singles.len > 0 {
                assert_eq!(seen(runs.pop()), seen(singles.pop()), "seed {seed}");
            }
            assert_eq!((runs.len, seen(runs.pop())), (0, None), "seed {seed}");
        }
    }

    /// A pool one window too long, or handed to a QP still in RESET, is
    /// refused whole — with the error its first offending window alone
    /// would have met, the state's before any window's — and leaves queue
    /// and region as they were.
    #[test]
    fn a_refused_pool_posts_nothing_and_discards_nothing() {
        let rt = VerbsRuntime::new(Cluster::new(1, DeviceProfile::edr()));
        let ctx = rt.context(0);
        let cq = ctx.create_cq();
        let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq);
        let pool = ctx.register_pool_untimed(64, 4);
        pool.write(0, b"kept").unwrap();
        let post = |wr_id, offset, step, count| {
            let first = RecvWr {
                wr_id,
                mr: pool.clone(),
                offset,
                len: 64,
            };
            qp.post_recv_run_untimed(first, (64, step), count)
        };
        let untouched = || {
            assert_eq!((qp.posted_receives(), qp.posted_receive_runs()), (0, 0));
            assert_eq!(pool.read(0, 4).unwrap(), b"kept");
            assert_eq!(rt.resident_bytes(0), 64);
        };
        // RESET: the state is the error, whatever the windows are.
        for count in [4, 5] {
            let refused = post(0, 0, 64, count).unwrap_err();
            assert!(
                matches!(
                    refused,
                    VerbsError::InvalidState {
                        state: QpState::Reset,
                        op: "post_recv_untimed",
                        ..
                    }
                ),
                "{refused:?}"
            );
            untouched();
        }
        qp.modify_to_init().unwrap();
        let offending = |offset| VerbsError::OutOfBounds {
            offset,
            len: 64,
            region: 256,
        };
        // Whole windows apart, walking up and down; and not (per window).
        assert_eq!(post(0, 0, 64, 5), Err(offending(256)));
        untouched();
        let down = 64usize.wrapping_neg();
        assert_eq!(post(0, 128, down, 4), Err(offending(down)));
        untouched();
        assert_eq!(post(0, 0, 96, 3), Err(offending(96)));
        untouched();
        // The same pool, as long as the region: posted, and window 0 is dead.
        post(0, 0, 64, 4).unwrap();
        post(256, 192, down, 4).unwrap();
        assert_eq!((qp.posted_receives(), qp.posted_receive_runs()), (8, 2));
        assert_eq!(pool.read(0, 4).unwrap(), [0; 4]);
        assert_eq!(rt.resident_bytes(0), 0);
    }

    /// `remote.offset` arrives over the wire: one that overflows when the
    /// length is added must complete in error like any other bad address.
    #[test]
    fn an_overflowing_remote_offset_is_a_remote_access_error() {
        let rt = VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()));
        let (ctx_a, ctx_b) = (rt.context(0), rt.context(1));
        let (cq_a, cq_b) = (ctx_a.create_cq(), ctx_b.create_cq());
        let qp_a = ctx_a.create_qp(QpType::Rc, cq_a.clone(), cq_a.clone());
        let qp_b = ctx_b.create_qp(QpType::Rc, cq_b.clone(), cq_b);
        ConnectionManager::activate_untimed(&qp_a, Some(qp_b.address_handle())).unwrap();
        ConnectionManager::activate_untimed(&qp_b, Some(qp_a.address_handle())).unwrap();
        let local = ctx_a.register_untimed(64);
        let remote = RemoteAddr {
            node: 1,
            rkey: ctx_b.register_untimed(64).rkey(),
            offset: usize::MAX - 1,
        };
        rt.cluster().spawn(0, "initiator", move |sim| {
            qp_a.post_read(&sim, 1, (local.clone(), 0), remote, 8)
                .unwrap();
            qp_a.post_write(&sim, 2, (local, 0), remote, 8).unwrap();
            for _ in 0..2 {
                let c = cq_a.next(&sim);
                assert_eq!((c.status, c.byte_len), (WcStatus::Flushed, 0));
            }
        });
        rt.cluster().run();
    }
}
