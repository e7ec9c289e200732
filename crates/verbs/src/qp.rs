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
/// an endpoint posts its pool as one arithmetic progression of windows
/// (thousands deep on the UD design), which is one run here instead of one
/// [`RecvWr`] — and one region handle — per window.
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
    fn push(&mut self, wr: RecvWr) {
        self.len += 1;
        if let Some(run) = self.runs.back_mut() {
            let (first, n) = (&run.next, run.count - 1);
            let last_id = first.wr_id.wrapping_add(run.step.0.wrapping_mul(n as u64));
            let last_offset = first.offset.wrapping_add(run.step.1.wrapping_mul(n));
            let step = (
                wr.wr_id.wrapping_sub(last_id),
                wr.offset.wrapping_sub(last_offset),
            );
            let same_shape = Arc::ptr_eq(&wr.mr.inner, &first.mr.inner) && wr.len == first.len;
            if same_shape && (n == 0 || step == run.step) {
                run.step = step;
                run.count += 1;
                return;
            }
        }
        self.runs.push_back(RecvRun {
            next: wr,
            step: (0, 0),
            count: 1,
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
            self.recv_cq.deposit(Completion {
                wr_id: rwr.wr_id,
                status: WcStatus::Flushed,
                opcode: WcOpcode::Recv,
                byte_len: 0,
                src_node: self.node,
                src_qp: self.qpn,
                qp: self.qpn,
                imm: None,
                posted_ns: 0,
                deposited_ns: 0,
            });
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

    /// The modelled setup cost of connecting one RC QP (used by
    /// [`crate::ConnectionManager`]).
    pub fn profile_rc_setup(&self) -> SimDuration {
        self.runtime.profile().rc_qp_setup
    }

    /// An address handle peers can use to reach this QP.
    pub fn address_handle(&self) -> AddressHandle {
        AddressHandle {
            node: self.inner.node,
            qpn: self.inner.qpn,
        }
    }

    /// RESET → INIT. Receives may be posted afterwards.
    pub fn modify_to_init(&self) -> Result<()> {
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

    /// Any state → RESET (`ibv_modify_qp` to `IBV_QPS_RESET`): the
    /// recovery path for a QP that entered the error state. Pending
    /// receives are discarded *without* flushing completions (real
    /// hardware flushed them when the QP erred; a reconnecting endpoint
    /// reposts its pool), the peer binding is cleared and the delivery
    /// clock rewinds so the re-established connection starts fresh.
    pub fn reset(&self) -> Result<()> {
        let from = {
            let mut st = self.inner.state.lock();
            let from = *st;
            *st = QpState::Reset;
            from
        };
        self.inner.recv_queue.lock().clear();
        *self.inner.peer.lock() = None;
        *self.inner.last_delivery.lock() = SimTime::ZERO;
        self.runtime.rt_obs.obs.recorder.event(
            self.inner.node as u32,
            HW_TRACK,
            self.runtime.kernel().now().as_nanos(),
            EventKind::QpTransition,
            ((self.inner.qpn.0 as u64) << 16) | ((from as u64) << 8) | QpState::Reset as u64,
        );
        Ok(())
    }

    /// Binds this RC QP onto a shared physical-QP slot (connection
    /// multiplexing). Must happen at wiring time, before traffic flows;
    /// a QP can be bound at most once. The first member donates its
    /// context key, so a one-member slot behaves exactly like an
    /// unshared QP. [`QueuePair::reset`] does *not* rewind the shared
    /// order clock — the other members' deliveries already consumed it,
    /// just as tearing down one virtual endpoint of a real shared
    /// connection leaves the connection's ordering state intact.
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

    /// Posts a Receive work request (`ibv_post_recv`). Allowed from INIT
    /// onward. The buffer's contents are undefined from here until a
    /// message lands in it, so whatever it held is discarded.
    pub fn post_recv(&self, sim: &SimContext, wr: RecvWr) -> Result<()> {
        self.check_recv(&wr, "post_recv")?;
        sim.sleep(self.runtime.profile().post_wr_cpu);
        self.runtime.rt_obs.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::RecvPosted,
            wr.len as u64,
        );
        self.enqueue_recv(wr);
        Ok(())
    }

    /// Posts a Receive without charging CPU time. For connection bootstrap
    /// outside the measured window (initial receive pools are posted while
    /// connections are established, before the query starts).
    pub fn post_recv_untimed(&self, wr: RecvWr) -> Result<()> {
        self.check_recv(&wr, "post_recv_untimed")?;
        self.enqueue_recv(wr);
        Ok(())
    }

    /// Whether `wr` may be posted now: the QP is past RESET and not in
    /// error, and the buffer lies inside its region.
    fn check_recv(&self, wr: &RecvWr, op: &'static str) -> Result<()> {
        let st = *self.inner.state.lock();
        if st < QpState::Init || st == QpState::Error {
            return Err(VerbsError::InvalidState {
                qp: self.inner.qpn,
                state: st,
                op,
            });
        }
        wr.mr.locate(wr.offset, wr.len).map(drop)
    }

    fn enqueue_recv(&self, wr: RecvWr) {
        wr.mr.discard(wr.offset, wr.len);
        self.inner.recv_queue.lock().push(wr);
    }

    /// Posts a Send work request (`ibv_post_send` with `IBV_WR_SEND`).
    ///
    /// The payload is captured when the request is posted; per the verbs
    /// contract the buffer must not be modified until the completion
    /// arrives.
    pub fn post_send(&self, sim: &SimContext, wr: SendWr) -> Result<()> {
        self.check_sendable("post_send")?;
        let profile = self.runtime.profile();
        let (dest, max) = match self.inner.ty {
            QpType::Ud => (wr.ah.ok_or(VerbsError::MissingAddressHandle)?, UD_MTU),
            QpType::Rc => {
                let peer = *self.inner.peer.lock();
                (
                    peer.ok_or(VerbsError::NotConnected(self.inner.qpn))?,
                    MAX_RC_MESSAGE,
                )
            }
        };
        if wr.len > max {
            return Err(VerbsError::MessageTooLarge { len: wr.len, max });
        }
        let payload = wr.mr.capture(wr.offset, wr.len)?;
        sim.sleep(profile.post_wr_cpu);

        let now = self.runtime.kernel().now();
        self.observe_send_posted(sim, wr.len, now);
        let kind = match self.inner.ty {
            QpType::Rc => WrKind::SendRc,
            QpType::Ud => WrKind::SendUd,
        };
        let nic_done = self
            .runtime
            .nic(self.inner.node)
            .process_flow(now, self.inner.ctx_key(), kind, self.inner.flow);
        self.observe_wr_batch(sim, now, nic_done);

        let reliable = self.inner.ty == QpType::Rc;
        let wire_bytes = wire_bytes(self.inner.ty, wr.len);

        // UD fault injection: loss and reordering.
        let jitter = if reliable {
            SimDuration::ZERO
        } else {
            match self.runtime.sample_ud_fate(self.inner.node) {
                Some(j) => j,
                None => {
                    // Lost in the network: the sender still sees a local
                    // send completion (it only means the NIC consumed the
                    // buffer).
                    let send_cq = self.inner.send_cq.clone();
                    let completion = self.local_send_completion(&wr, now.as_nanos());
                    self.runtime
                        .kernel()
                        .schedule(nic_done, move || send_cq.deposit(completion));
                    return Ok(());
                }
            }
        };

        let deliver = self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            dest.node,
            wire_bytes,
            nic_done,
            self.inner.flow,
        ) + jitter;
        let deliver = if reliable {
            self.ordered_delivery(deliver)
        } else {
            deliver
        };

        // Sender-side completion: UD completes locally once the NIC is done;
        // RC completes after the remote match acknowledges (scheduled by the
        // delivery path).
        if !reliable {
            let send_cq = self.inner.send_cq.clone();
            let completion = self.local_send_completion(&wr, now.as_nanos());
            self.runtime
                .kernel()
                .schedule(nic_done, move || send_cq.deposit(completion));
        }

        let runtime = self.runtime.clone();
        let src = self.address_handle();
        let sender_ctx = if reliable {
            Some((self.inner.send_cq.clone(), wr.wr_id))
        } else {
            None
        };
        let imm = wr.imm;
        let posted_ns = now.as_nanos();
        self.runtime.kernel().schedule(deliver, move || {
            deliver_send(runtime, dest, payload, imm, src, sender_ctx, 0, posted_ns);
        });
        Ok(())
    }

    /// Records the send into the flight recorder and size histogram
    /// (through the cached per-node handle — no name lookup per message).
    fn observe_send_posted(&self, sim: &SimContext, len: usize, now: SimTime) {
        let obs = &self.runtime.rt_obs.obs;
        obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            now.as_nanos(),
            EventKind::SendPosted,
            len as u64,
        );
        self.runtime.rt_obs.msg_size[self.inner.node].record(len as u64);
    }

    /// Records the doorbell→NIC-accept WR batching stage for a work
    /// request posted at `posted` and accepted at `nic_done`.
    fn observe_wr_batch(&self, sim: &SimContext, posted: SimTime, nic_done: SimTime) {
        let obs = &self.runtime.rt_obs.obs;
        let node = self.inner.node as u32;
        let p = posted.as_nanos();
        let d = nic_done.as_nanos();
        obs.record_stage(Stage::WrBatch, node, d.saturating_sub(p));
        obs.stage_span(Stage::WrBatch, node, sim.id().track(), p, d);
    }

    /// Posts one UD Send that the switch replicates to every destination
    /// (native InfiniBand multicast; the paper's §7 hypothesizes this will
    /// reduce broadcast CPU cost). One work request, one egress
    /// serialization, one local completion; each destination's delivery is
    /// subject to its own fault sampling. UD only.
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
        let profile = self.runtime.profile();
        if wr.len > UD_MTU {
            return Err(VerbsError::MessageTooLarge {
                len: wr.len,
                max: UD_MTU,
            });
        }
        assert!(!dests.is_empty(), "multicast needs at least one destination");
        let payload = wr.mr.capture(wr.offset, wr.len)?;
        sim.sleep(profile.post_wr_cpu);

        let now = self.runtime.kernel().now();
        self.observe_send_posted(sim, wr.len, now);
        let nic_done = self
            .runtime
            .nic(self.inner.node)
            .process_flow(now, self.inner.ctx_key(), WrKind::SendUd, self.inner.flow);
        self.observe_wr_batch(sim, now, nic_done);
        let wire = wire_bytes(QpType::Ud, wr.len);
        let dest_nodes: Vec<crate::NodeId> = dests.iter().map(|d| d.node).collect();
        let deliveries = self.runtime.cluster().fabric().transfer_multicast_flow(
            self.inner.node,
            &dest_nodes,
            wire,
            nic_done,
            self.inner.flow,
        );
        // One local completion for the single work request.
        let send_cq = self.inner.send_cq.clone();
        let completion = self.local_send_completion(&wr, now.as_nanos());
        self.runtime
            .kernel()
            .schedule(nic_done, move || send_cq.deposit(completion));
        let src = self.address_handle();
        let posted_ns = now.as_nanos();
        for (&dest, deliver) in dests.iter().zip(deliveries) {
            let Some(jitter) = self.runtime.sample_ud_fate(self.inner.node) else {
                continue; // This member's copy is lost.
            };
            let runtime = self.runtime.clone();
            let payload = payload.clone();
            let imm = wr.imm;
            self.runtime.kernel().schedule(deliver + jitter, move || {
                deliver_send(runtime, dest, payload, imm, src, None, 0, posted_ns);
            });
        }
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
        let profile = self.runtime.profile();
        if len > MAX_RC_MESSAGE {
            return Err(VerbsError::MessageTooLarge {
                len,
                max: MAX_RC_MESSAGE,
            });
        }
        let (local_mr, local_off) = local;
        local_mr.locate(local_off, len)?;
        sim.sleep(profile.post_wr_cpu);

        let now = self.runtime.kernel().now();
        let nic_done = self.runtime.nic(self.inner.node).process_flow(
            now,
            self.inner.ctx_key(),
            WrKind::Read,
            self.inner.flow,
        );
        self.observe_wr_batch(sim, now, nic_done);
        let read_posted_ns = now.as_nanos();
        // The read request itself is a small packet to the remote node.
        let req_arrive = self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            remote.node,
            RC_HEADER_BYTES,
            nic_done,
            self.inner.flow,
        );

        let runtime = self.runtime.clone();
        let local_node = self.inner.node;
        let send_cq = self.inner.send_cq.clone();
        let qpn = self.inner.qpn;
        let peer_ctx = self.peer_ctx_key();
        let self_ctx = self.inner.ctx_key();
        let flow = self.inner.flow;
        self.runtime.kernel().schedule(req_arrive, move || {
            let now = runtime.kernel().now();
            // The target NIC serves the read passively: pipeline occupancy
            // plus a QP-context touch, no remote CPU.
            let serve = runtime
                .nic(remote.node)
                .process_flow(now, peer_ctx, WrKind::RemoteDma, flow);
            let data = match remote_region(&runtime, remote, len) {
                Some(mr) => mr.capture(remote.offset, len).expect("bounds checked"),
                None => {
                    // Bad rkey or bounds: remote access error completion.
                    let completion = Completion {
                        wr_id,
                        status: WcStatus::Flushed,
                        opcode: WcOpcode::Read,
                        byte_len: 0,
                        src_node: remote.node,
                        src_qp: QpNum(0),
                        qp: qpn,
                        imm: None,
                        posted_ns: read_posted_ns,
                        deposited_ns: 0,
                    };
                    runtime
                        .kernel()
                        .schedule(serve, move || send_cq.deposit(completion));
                    return;
                }
            };
            let wire = wire_bytes(QpType::Rc, len);
            let back = runtime
                .cluster()
                .fabric()
                .transfer_flow(remote.node, local_node, wire, serve, flow);
            let runtime2 = runtime.clone();
            runtime.kernel().schedule(back, move || {
                let now = runtime2.kernel().now();
                let done =
                    runtime2
                        .nic(local_node)
                        .process_flow(now, self_ctx, WrKind::RecvMatch, flow);
                local_mr
                    .land(local_off, data)
                    .expect("bounds checked at post time");
                let completion = Completion {
                    wr_id,
                    status: WcStatus::Success,
                    opcode: WcOpcode::Read,
                    byte_len: len,
                    src_node: remote.node,
                    src_qp: QpNum(0),
                    qp: qpn,
                    imm: None,
                    posted_ns: read_posted_ns,
                    deposited_ns: 0,
                };
                runtime2
                    .kernel()
                    .schedule(done, move || send_cq.deposit(completion));
            });
        });
        Ok(())
    }

    /// Posts an RDMA Write (`ibv_post_send` with `IBV_WR_RDMA_WRITE`):
    /// pushes the local buffer into `remote`. RC only. The target CPU is
    /// never involved; consumers poll memory (see
    /// [`MemoryRegion::wait_update`]).
    pub fn post_write(
        &self,
        sim: &SimContext,
        wr_id: u64,
        local: (MemoryRegion, usize),
        remote: RemoteAddr,
        len: usize,
    ) -> Result<()> {
        self.check_one_sided("post_write")?;
        let profile = self.runtime.profile();
        if len > MAX_RC_MESSAGE {
            return Err(VerbsError::MessageTooLarge {
                len,
                max: MAX_RC_MESSAGE,
            });
        }
        let (local_mr, local_off) = local;
        let payload = local_mr.capture(local_off, len)?;
        sim.sleep(profile.post_wr_cpu);

        let now = self.runtime.kernel().now();
        let nic_done = self.runtime.nic(self.inner.node).process_flow(
            now,
            self.inner.ctx_key(),
            WrKind::Write,
            self.inner.flow,
        );
        self.observe_wr_batch(sim, now, nic_done);
        let write_posted_ns = now.as_nanos();
        let wire = wire_bytes(QpType::Rc, len);
        let deliver = self.ordered_delivery(self.runtime.cluster().fabric().transfer_flow(
            self.inner.node,
            remote.node,
            wire,
            nic_done,
            self.inner.flow,
        ));

        let runtime = self.runtime.clone();
        let send_cq = self.inner.send_cq.clone();
        let qpn = self.inner.qpn;
        let ack_latency = profile.rc_ack_latency;
        let peer_ctx = self.peer_ctx_key();
        let flow = self.inner.flow;
        self.runtime.kernel().schedule(deliver, move || {
            let now = runtime.kernel().now();
            let served = runtime
                .nic(remote.node)
                .process_flow(now, peer_ctx, WrKind::RemoteDma, flow);
            match remote_region(&runtime, remote, len) {
                Some(mr) => {
                    mr.land(remote.offset, payload).expect("bounds checked");
                    let mr2 = mr.clone();
                    let runtime2 = runtime.clone();
                    runtime.kernel().schedule(served, move || {
                        mr2.signal_update();
                        let completion = Completion {
                            wr_id,
                            status: WcStatus::Success,
                            opcode: WcOpcode::Write,
                            byte_len: len,
                            src_node: remote.node,
                            src_qp: QpNum(0),
                            qp: qpn,
                            imm: None,
                            posted_ns: write_posted_ns,
                            deposited_ns: 0,
                        };
                        runtime2
                            .kernel()
                            .schedule_in(ack_latency, move || send_cq.deposit(completion));
                    });
                }
                None => {
                    let completion = Completion {
                        wr_id,
                        status: WcStatus::Flushed,
                        opcode: WcOpcode::Write,
                        byte_len: 0,
                        src_node: remote.node,
                        src_qp: QpNum(0),
                        qp: qpn,
                        imm: None,
                        posted_ns: write_posted_ns,
                        deposited_ns: 0,
                    };
                    runtime
                        .kernel()
                        .schedule(served, move || send_cq.deposit(completion));
                }
            }
        });
        Ok(())
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
        // Lazy persistent-fault enforcement: a QP (re)built inside an open
        // kill window dies on first use, so reconnects cannot outrun the
        // fault (the recovery layer's retry budget sees every failure).
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
        if let Some(b) = self.inner.shared.get() {
            let mut last = b.slot.order.lock();
            let t = deliver.max(*last);
            *last = t;
            return t;
        }
        let mut last = self.inner.last_delivery.lock();
        let t = deliver.max(*last);
        *last = t;
        t
    }

    fn local_send_completion(&self, wr: &SendWr, posted_ns: u64) -> Completion {
        Completion {
            wr_id: wr.wr_id,
            status: WcStatus::Success,
            opcode: WcOpcode::Send,
            byte_len: wr.len,
            src_node: self.inner.node,
            src_qp: self.inner.qpn,
            qp: self.inner.qpn,
            imm: None,
            posted_ns,
            deposited_ns: 0,
        }
    }
}

/// Wire bytes for a message of `len` payload bytes on transport `ty`.
fn wire_bytes(ty: QpType, len: usize) -> usize {
    match ty {
        QpType::Ud => len + UD_HEADER_BYTES,
        QpType::Rc => len + RC_HEADER_BYTES * len.div_ceil(UD_MTU).max(1),
    }
}

/// The region a one-sided operation on `[remote.offset, +len)` targets, if
/// the rkey resolves and the range — `offset` and `len` arrive over the
/// wire — lies inside it. `None` is a remote access error.
fn remote_region(runtime: &VerbsRuntime, remote: RemoteAddr, len: usize) -> Option<MemoryRegion> {
    let mr = runtime.lookup_mr(remote.rkey)?;
    mr.locate(remote.offset, len).is_ok().then_some(mr)
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

/// Delivery event: an inbound Send arrives at `dest`. `posted_ns` is the
/// virtual time the sender posted the work request, for the end-to-end
/// message-latency histogram.
#[allow(clippy::too_many_arguments)]
fn deliver_send(
    runtime: Arc<VerbsRuntime>,
    dest: AddressHandle,
    payload: Payload,
    imm: Option<u32>,
    src: AddressHandle,
    sender_ctx: Option<(CompletionQueue, u64)>,
    attempt: u32,
    posted_ns: u64,
) {
    let now = runtime.kernel().now();
    let reliable = sender_ctx.is_some();
    let Some(qp) = runtime.lookup_qp(dest.node, dest.qpn) else {
        // Unknown QP: UD drops; RC would eventually retry out. Treat both as
        // a drop with a counter.
        observe_unmatched(&runtime, dest.node, now);
        return;
    };
    // Lazy persistent-fault enforcement at the receiver: a target QP
    // inside an open kill window is forced into the error state before
    // the delivery is matched (see `check_sendable`).
    runtime.enforce_kill_window(&qp);
    let st = *qp.state.lock();
    if st == QpState::Error {
        // Target QP was killed (fault injection): an RC sender gets its
        // work request flushed in error; a UD datagram drops silently.
        if let Some((send_cq, wr_id)) = sender_ctx {
            let completion = Completion {
                wr_id,
                status: WcStatus::Flushed,
                opcode: WcOpcode::Send,
                byte_len: payload.len,
                src_node: dest.node,
                src_qp: dest.qpn,
                qp: src.qpn,
                imm: None,
                posted_ns,
                deposited_ns: 0,
            };
            runtime
                .kernel()
                .schedule(now, move || send_cq.deposit(completion));
        } else {
            observe_unmatched(&runtime, dest.node, now);
        }
        return;
    }
    if st < QpState::ReadyToReceive {
        observe_unmatched(&runtime, dest.node, now);
        return;
    }
    // Receive matching occupies the *target* QP's context — the aliased
    // slot key when the target is multiplexed (identical to the natural
    // `node << 32 | qpn` key otherwise).
    let nic_done = runtime
        .nic(dest.node)
        .process_flow(now, qp.ctx_key(), WrKind::RecvMatch, qp.flow);
    // A receiver-pause fault freezes receive matching: the queue looks
    // empty, so RC takes the RNR-retry path and UD drops unmatched.
    let rwr = if runtime.recv_paused(dest.node, now.as_nanos()) {
        None
    } else {
        qp.recv_queue.lock().pop()
    };
    match rwr {
        Some(rwr) => {
            if payload.len > rwr.len {
                // Message larger than the posted buffer.
                let completion = Completion {
                    wr_id: rwr.wr_id,
                    status: WcStatus::LocalLengthError,
                    opcode: WcOpcode::Recv,
                    byte_len: payload.len,
                    src_node: src.node,
                    src_qp: src.qpn,
                    qp: dest.qpn,
                    imm,
                    posted_ns,
                    deposited_ns: 0,
                };
                let recv_cq = qp.recv_cq.clone();
                runtime
                    .kernel()
                    .schedule(nic_done, move || recv_cq.deposit(completion));
                return;
            }
            let byte_len = payload.len;
            rwr.mr
                .land(rwr.offset, payload)
                .expect("receive buffer bounds checked at post time");
            runtime.rt_obs.msg_latency[dest.node]
                .record(now.as_nanos().saturating_sub(posted_ns));
            let completion = Completion {
                wr_id: rwr.wr_id,
                status: WcStatus::Success,
                opcode: WcOpcode::Recv,
                byte_len,
                src_node: src.node,
                src_qp: src.qpn,
                qp: dest.qpn,
                imm,
                posted_ns,
                deposited_ns: 0,
            };
            let recv_cq = qp.recv_cq.clone();
            runtime
                .kernel()
                .schedule(nic_done, move || recv_cq.deposit(completion));
            if let Some((send_cq, wr_id)) = sender_ctx {
                // The hardware ACK completes the reliable send.
                let ack = nic_done + runtime.profile().rc_ack_latency;
                let completion = Completion {
                    wr_id,
                    status: WcStatus::Success,
                    opcode: WcOpcode::Send,
                    byte_len,
                    src_node: dest.node,
                    src_qp: dest.qpn,
                    qp: src.qpn,
                    imm: None,
                    posted_ns,
                    deposited_ns: 0,
                };
                runtime
                    .kernel()
                    .schedule(ack, move || send_cq.deposit(completion));
            }
        }
        None => {
            if !reliable {
                // §2.2.1: an unmatched Send on UD is dropped.
                observe_unmatched(&runtime, dest.node, now);
                return;
            }
            if attempt >= RNR_RETRY_LIMIT {
                let (send_cq, wr_id) = sender_ctx.expect("reliable implies sender ctx");
                let completion = Completion {
                    wr_id,
                    status: WcStatus::RetryExceeded,
                    opcode: WcOpcode::Send,
                    byte_len: payload.len,
                    src_node: dest.node,
                    src_qp: dest.qpn,
                    qp: src.qpn,
                    imm: None,
                    posted_ns,
                    deposited_ns: 0,
                };
                runtime
                    .kernel()
                    .schedule(now, move || send_cq.deposit(completion));
                return;
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
            let retry_at = now + RNR_RETRY_DELAY;
            let rt = runtime.clone();
            runtime.kernel().schedule(retry_at, move || {
                deliver_send(rt, dest, payload, imm, src, sender_ctx, attempt + 1, posted_ns);
            });
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
            queue.push(wr(slot));
        }
        assert_eq!((queue.len, queue.runs.len()), (36, 3));
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert!(popped.iter().all(|wr| wr.offset as u64 == wr.wr_id));
        let order: Vec<u64> = popped.iter().map(|wr| wr.wr_id / 64).collect();
        assert_eq!((order, queue.len), (slots, 0));
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
