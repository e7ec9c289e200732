//! The communication endpoint abstraction (§4.2).
//!
//! An endpoint bundles RDMA resources (Queue Pairs, completion queues,
//! registered buffers) with the transmission logic for one transport
//! design, hiding transport-level intricacies from the operators. Every
//! endpoint participating in a query plan has a unique integer id, used like
//! a TCP port/address pair.
//!
//! Four implementations mirror the paper's designs:
//!
//! * [`sr_rc`] — RDMA Send/Receive over Reliable Connection with stateless
//!   credit-based flow control (§4.4.1),
//! * [`sr_ud`] — RDMA Send/Receive over Unreliable Datagram with message
//!   counting for termination and software error handling (§4.4.2),
//! * [`rd_rc`] — one-sided RDMA Read over Reliable Connection with the
//!   FreeArr/ValidArr circular message queues (§4.4.3),
//! * [`wr_rc`] — the RDMA Write endpoint the paper lists as future work
//!   (§7), implemented here as an extension.
//!
//! Each of the four files holds the protocol the paper describes for it
//! and nothing else; what all of them need in the same shape lives once
//! in the private `frame` module:
//!
//! | frame piece | used by | what the transport still owns |
//! |---|---|---|
//! | `Layout` (windows, ring slots → pinned and Figure 9b bytes; the footprint's one source) | all four, and the exchange's footprint | how many buffers and ring slots its protocol needs |
//! | `RcHalf` (peer slots by node id, per-peer RC QPs, post lock) | `sr_rc`, `rd_rc`, `wr_rc`, both halves | which CQs its QPs complete into |
//! | `Cq` (batched drain over pooled scratch) | all four | what one completion means |
//! | `SendWindow` (registered pool + completions owed per window) | all four send halves | when a destination is done: send ack (`sr_*`), write ack (`wr_rc`), FreeArr release (`rd_rc`) |
//! | `Watchdog` (deadline, typed stall, the exchange's `Abort`, credit-stall bracket) | all four | the readiness check and what to block on |
//! | `SlotRings` / `RingProducer` / `InlineWrites` (per thread and ring, announcements queued behind the write in flight go out as one write when its ack is reaped, before the thread blocks, or on a `Depleted` send, unless that one queued toward a ring its reader has not released from yet: it waits for the first release) | `rd_rc`, `wr_rc` on both sides; `sr_rc` for the credit write | what a slot names: free buffer, filled buffer, grant; whether it coalesces (`rd_rc`'s ValidArr) |
//! | `SourceBook` (per source by peer slot: received, declared, credit posted and written back; standing, the write-back decision, the audit hooks) | all four receive halves | when standing means done; where a repost goes and how owed credit travels |
//! | `data_header`, `deliver`, `expect_success` | all four | the `counter` and `remote_addr` of its header, and the node a delivery names |
//!
//! The two traits declare only the calls an operator makes. What an
//! endpoint costs before any traffic moves — the bytes it registers
//! (Figure 9b) and its connection setup (Figure 12) — follows from its
//! `Layout`, and the exchange reads it from there once per build
//! (`Exchange::registered_bytes`, `Exchange::charge_setup`); its id comes
//! from the exchange's id layout.
//!
//! All endpoint functions are thread-safe; the single-endpoint (SE)
//! operator configuration shares one endpoint among all worker threads and
//! pays for that sharing in lock contention that the simulator charges in
//! virtual time.

mod frame;
pub mod rd_rc;
pub mod sr_rc;
pub mod sr_ud;
pub mod wr_rc;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_audit::{AuditHandle, BufId};
use rshuffle_obs::{names, Counter, EventKind, Histogram, Labels, Obs, Stage};
use rshuffle_simnet::{NodeId, SimContext, SimDuration};
use rshuffle_verbs::{Context, QueuePair};

use crate::buffer::{Buffer, StreamState};
use crate::error::Result;
pub(crate) use frame::Abort;
use frame::Watchdog;

/// An [`AuditHandle`] for `ctx`'s node, wired to the runtime's installed
/// protocol auditor — or a no-op handle when none is installed.
pub(crate) fn audit_handle(ctx: &Context) -> AuditHandle {
    AuditHandle::new(ctx.runtime().auditor(), ctx.node() as u32)
}

/// Cluster-wide identity of `buf` for the auditor: its pool's `rkey`
/// plus the window offset (rkeys come from a global counter, so the
/// pair is unique across nodes).
pub(crate) fn buf_id(buf: &Buffer) -> BufId {
    BufId {
        rkey: buf.region().rkey(),
        offset: buf.offset() as u64,
    }
}

/// What the four transports read of an exchange's configuration:
/// computed once per build by [`crate::ExchangeConfig`], with every pool
/// already scaled for the threads that share an endpoint, and also what
/// the exchange sizes each node's footprint from. Each transport reads
/// the fields its protocol has and ignores the rest.
#[derive(Clone, Debug)]
pub(crate) struct Params {
    /// RC transmission window (header + payload); UD windows are the MTU.
    pub message_size: usize,
    /// RC: buffers per peer on the side that owns the data buffers — the
    /// sender for Send/Receive and RDMA Read, the receiver for RDMA Write.
    pub buffers_per_peer: usize,
    /// `sr_rc`: receives kept posted per peer.
    pub recv_depth_per_peer: usize,
    /// `sr_ud`: send windows per endpoint.
    pub ud_send_buffers: usize,
    /// `sr_ud`: receive window granted to each source.
    pub ud_recv_window: usize,
    /// `sr_rc`, `sr_ud`: return credit every this many releases (Figure 8).
    pub credit_writeback_frequency: u32,
    /// `sr_ud`: extra CPU per post under the shared-QP lock — the QP
    /// state cache line bouncing between the cores that share an SE
    /// endpoint (the "excessive contention" of Table 1, §5.1.3). Zero for
    /// dedicated (ME) endpoints.
    pub ud_post_overhead: SimDuration,
    /// `sr_ud`: group sends go out as one native switch multicast (§7).
    pub ud_native_multicast: bool,
    /// Every wait gives up with [`crate::ShuffleError::Stalled`] after
    /// this long without progress.
    pub stall_timeout: SimDuration,
    /// `sr_ud`: how long to wait for counted stragglers at end of stream
    /// before declaring a network error (§4.4.2).
    pub depleted_timeout: SimDuration,
    /// Flow epoch stamped on every outgoing header and required of every
    /// accepted arrival (0 outside recovery).
    pub epoch: u16,
    /// The exchange's abort, which every wait hears; `None` for the
    /// parameters a footprint is sized from, which build nothing.
    pub abort: Option<Abort>,
}

impl Params {
    /// A watchdog over this exchange's stall budget and abort.
    pub(crate) fn watchdog(&self, sim: &SimContext, what: &'static str) -> Watchdog<'_> {
        Watchdog::new(sim, self.stall_timeout, self.abort.as_ref(), what)
    }
}

/// How a reliable-connection transport plugs into the one wiring routine
/// of [`crate::Exchange::build`]: implemented by the transport's send
/// endpoint, with its receive endpoint as associated type. Both halves
/// are constructed by `new(ctx, id, peers, params)`.
pub(crate) trait RcTransport: SendEndpoint + Sized + 'static {
    type Receiver: ReceiveEndpoint + 'static;

    /// The two Queue Pairs of the connection from `self` to `recv`, which
    /// lives on node `peer` and knows this sender's node as `src`.
    fn qp_pair<'a>(
        &'a self,
        peer: NodeId,
        recv: &'a Self::Receiver,
        src: NodeId,
    ) -> (&'a QueuePair, &'a QueuePair);

    /// The out-of-band exchange once the pair is connected: ring and
    /// credit addresses, initial credit or grants (§4.2).
    fn handshake(&self, peer: NodeId, recv: &Self::Receiver, src: NodeId) -> Result<()>;
}

/// Unique identifier of an endpoint within a query plan (§4.2: "used
/// similarly to a port and address pair in a TCP/IP connection").
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct EndpointId(pub u32);

/// A destination lane's `(bytes, messages)` counter handles.
type LaneCounters = (Arc<Counter>, Arc<Counter>);

/// Send-side observability handles shared by all four transports:
/// per-lane traffic counters (`{node,lane}`), credit-stall accounting
/// (Figure 8) and FreeArr/grant-ring poll counts for the one-sided
/// designs. Handles are cached so the hot path is a relaxed atomic RMW.
pub(crate) struct SendObs {
    obs: Arc<Obs>,
    node: u32,
    /// Lazily-created `(bytes, messages)` counters per destination lane,
    /// indexed by node.
    lanes: Mutex<Vec<Option<LaneCounters>>>,
    credit_stalls: Arc<Counter>,
    credit_stall_ns: Arc<Counter>,
    credit_stall_hist: Arc<Histogram>,
    freearr_polls: Arc<Counter>,
}

impl SendObs {
    pub(crate) fn new(ctx: &Context, id: EndpointId) -> SendObs {
        let obs = ctx.runtime().obs().clone();
        let node = ctx.node() as u32;
        let ep = Labels::endpoint(node, id.0);
        SendObs {
            node,
            lanes: Mutex::default(),
            credit_stalls: obs.metrics.counter(names::EP_CREDIT_STALLS, ep),
            credit_stall_ns: obs.metrics.counter(names::EP_CREDIT_STALL_NS, ep),
            credit_stall_hist: obs.metrics.histogram(names::EP_CREDIT_STALL_HIST_NS, ep),
            freearr_polls: obs.metrics.counter(names::EP_FREEARR_POLLS, ep),
            obs,
        }
    }

    /// Counts one data message of `bytes` payload pushed toward `dest`.
    pub(crate) fn sent(&self, dest: NodeId, bytes: u64) {
        let mut lanes = self.lanes.lock();
        if lanes.len() <= dest {
            lanes.resize(dest + 1, None);
        }
        let (b, m) = lanes[dest].get_or_insert_with(|| {
            let l = Labels::lane(self.node, dest as u32);
            (
                self.obs.metrics.counter(names::EP_BYTES_SENT, l),
                self.obs.metrics.counter(names::EP_MESSAGES_SENT, l),
            )
        });
        b.add(bytes);
        m.inc();
    }

    /// Marks the beginning of a credit stall on the calling thread's
    /// track; returns the start timestamp for [`SendObs::stall_end`].
    pub(crate) fn stall_begin(&self, sim: &SimContext) -> u64 {
        let at = sim.now().as_nanos();
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            at,
            EventKind::CreditStallBegin,
            0,
        );
        at
    }

    /// Closes a credit stall opened by [`SendObs::stall_begin`],
    /// feeding the total, the per-stall histogram, the credit-wait
    /// stage histogram and the recorder.
    pub(crate) fn stall_end(&self, sim: &SimContext, started_ns: u64) {
        let now = sim.now().as_nanos();
        let dur = now.saturating_sub(started_ns);
        self.credit_stalls.inc();
        self.credit_stall_ns.add(dur);
        self.credit_stall_hist.record(dur);
        self.obs.record_stage(Stage::CreditWait, self.node, dur);
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            now,
            EventKind::CreditStallEnd,
            dur,
        );
    }

    /// Counts one FreeArr / grant-ring poll; `progress` reports whether
    /// a release notification was consumed.
    pub(crate) fn freearr_poll(&self, sim: &SimContext, progress: bool) {
        self.freearr_polls.inc();
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::FreeArrPoll,
            progress as u64,
        );
    }
}

/// Receive-side observability handles: accepted traffic counters
/// (`{node,endpoint}`) and ValidArr poll counts for the one-sided
/// designs.
pub(crate) struct RecvObs {
    obs: Arc<Obs>,
    bytes: Arc<Counter>,
    /// This endpoint's own payload total: the `bytes` series is shared by
    /// every attempt that reuses the endpoint id.
    bytes_received: AtomicU64,
    messages: Arc<Counter>,
    validarr_polls: Arc<Counter>,
    stale_drops: Arc<Counter>,
}

impl RecvObs {
    pub(crate) fn new(ctx: &Context, id: EndpointId) -> RecvObs {
        let obs = ctx.runtime().obs().clone();
        let ep = Labels::endpoint(ctx.node() as u32, id.0);
        RecvObs {
            bytes: obs.metrics.counter(names::EP_BYTES_RECEIVED, ep),
            bytes_received: AtomicU64::new(0),
            messages: obs.metrics.counter(names::EP_MESSAGES_RECEIVED, ep),
            validarr_polls: obs.metrics.counter(names::EP_VALIDARR_POLLS, ep),
            stale_drops: obs.metrics.counter(names::EP_STALE_EPOCH_DROPS, ep),
            obs,
        }
    }

    /// Counts one accepted data message of `bytes` payload.
    pub(crate) fn received(&self, bytes: u64) {
        self.bytes.add(bytes);
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        self.messages.inc();
    }

    /// Payload bytes accepted by this endpoint so far.
    pub(crate) fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Counts one arrival fenced off by the epoch check: a leftover of
    /// a failed flow attempt, recycled without delivery.
    pub(crate) fn stale_drop(&self) {
        self.stale_drops.inc();
    }

    /// Counts one ValidArr scan; `progress` is how many announcements
    /// the scan consumed (the event's argument).
    pub(crate) fn validarr_poll(&self, sim: &SimContext, progress: u64) {
        self.validarr_polls.inc();
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::ValidArrPoll,
            progress,
        );
    }
}

/// A buffer handed out by [`ReceiveEndpoint::get_data`], and handed back
/// whole to [`ReceiveEndpoint::release`]: it names where it came from and
/// how its slot goes home, so the endpoint looks nothing up again.
pub struct Delivery {
    /// Whether the source has more data after this buffer.
    pub state: StreamState,
    /// The node the transport received this buffer from: the
    /// completion's source for Send/Receive and RDMA Read, the peer
    /// behind the announcing ring for RDMA Write.
    pub src: NodeId,
    /// The sending worker thread, from the wire header's `src_tid`
    /// field; with [`Delivery::src`] it identifies the `(src node, src
    /// thread)` flow for the recovery layer's ledger.
    pub src_tid: u16,
    /// The buffer's offset at the remote endpoint, for the one-sided
    /// designs (§4.4.3) to return; zero otherwise.
    pub(crate) remote: u64,
    /// The local RDMA-registered buffer holding the payload.
    pub local: Buffer,
}

/// The data-transmitting half of an endpoint (§4.2): GETFREE and SEND,
/// plus the drain a phase-scheduled sender waits on.
pub trait SendEndpoint: Send + Sync {
    /// Schedules `buf` for transmission to every node in `dest`. The buffer
    /// must not be touched after `send` returns. `state` signals whether
    /// this is the final buffer ([`StreamState::Depleted`]) for those
    /// destinations. Does not block on the network (only on flow control).
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()>;

    /// Returns an RDMA-registered buffer usable in a subsequent
    /// [`SendEndpoint::send`]. Blocks while all transmission buffers are in
    /// use.
    fn get_free(&self, sim: &SimContext) -> Result<Buffer>;

    /// Blocks until the traffic this endpoint already pushed toward
    /// `dest` has drained as far as its flow-control protocol can
    /// observe — used by phase-scheduled senders so one super-round's
    /// messages leave the fabric while the next one sends, before the
    /// barrier after it.
    ///
    /// The reliable designs wait for nothing: their small per-peer buffer
    /// pools bound what is outstanding toward one destination to
    /// `buffers_per_peer` messages. `rd_rc` sends the announcements the
    /// caller queued toward `dest`; the others keep the default, a no-op. Phased, they stay
    /// exactly-once (`tests/phase_identity.rs`) and `Exchange::build`
    /// accepts them; `bench adaptive`'s oracle runs them phased on both
    /// incast rows and never picks them. The UD design, whose credit
    /// window is deliberately deep, overrides this with a credit-return
    /// wait.
    fn quiesce(&self, _sim: &SimContext, _dest: NodeId) -> Result<()> {
        Ok(())
    }

    /// Whether each connection delivers reliably and in order, so that a
    /// data message may itself be the [`StreamState::Depleted`] one (the
    /// RC designs); UD's separate marker carries the count that sees loss.
    fn ordered(&self) -> bool {
        false
    }
}

/// The data-receiving half of an endpoint (§4.2): GETDATA and RELEASE,
/// plus the payload count the throughput metric reads.
pub trait ReceiveEndpoint: Send + Sync {
    /// Returns the next delivered buffer, blocking until one is available.
    /// Returns `Ok(None)` once every source has signalled
    /// [`StreamState::Depleted`] and all data has been handed out — at that
    /// point every concurrent caller observes `None`.
    ///
    /// # Errors
    ///
    /// [`crate::ShuffleError::NetworkErrorRestartQuery`] if an unreliable
    /// transport lost messages and the wait for outstanding packets timed
    /// out (§4.4.2).
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>>;

    /// Takes back what [`ReceiveEndpoint::get_data`] handed out: returns
    /// the local buffer for reuse and credits, or for the one-sided
    /// designs frees the remote buffer at, the node it came from.
    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()>;

    /// Total payload bytes received so far (drives the throughput metric).
    fn bytes_received(&self) -> u64;
}
