//! Runtime protocol-invariant auditor for the shuffle endpoints.
//!
//! The paper's correctness argument rests on three delicate protocols:
//! absolute-credit flow control (§4.4.1), message-counting termination
//! via `Depleted` counters (§4.4.2), and the FreeArr/ValidArr circular
//! queue state machine (Algorithm 3, §4.4.3). A bug in any of them used
//! to surface only as a wrong byte count or a chaos-test hang. This
//! crate turns each protocol rule into a checkable invariant:
//!
//! * **Credit conservation** — per flow-control lane, the absolute
//!   credit value a receiver announces never regresses, never exceeds
//!   the receives it actually posted, is never overdrawn by the sender,
//!   and (for reliably-written RC credit slots) is written back whenever
//!   the write-back rule owes it — a lost write-back is caught online
//!   even though absolute credit eventually self-heals.
//! * **Buffer lifecycle** — a sender may only send a buffer it took via
//!   GETFREE and may only recycle a buffer it sent; a receiver releases
//!   every delivered buffer exactly once.
//! * **`Depleted` counter consistency** — the counter a sender
//!   announces must equal the number of data messages it actually sent
//!   to that destination, and a receiver must never count more
//!   messages from a source than the source declared.
//! * **Nothing after `Depleted`** — on a reliable connection a sender
//!   posts nothing after the message that declared end of stream.
//! * **Ring state machine** — FreeArr/ValidArr/grant rings never hold
//!   more in-flight entries than their capacity (a producer overwriting
//!   an unconsumed slot would corrupt the queue), and ValidArr entries
//!   are fully drained at clean termination.
//! * **Virtual-time monotonicity** — events observed by the auditor
//!   carry non-decreasing virtual timestamps within an epoch.
//!
//! Every violation is a typed [`AuditViolation`] naming the offending
//! lane/slot/source plus the virtual timestamp, and is simultaneously
//! fed to the PR-1 observability layer as an
//! `EventKind::AuditViolation` recorder event and an
//! [`AUDIT_VIOLATIONS`] metric. Both are created lazily on the first
//! violation, so a healthy run produces byte-identical snapshots and
//! traces with or without an auditor installed.
//!
//! The auditor is cross-side by construction: identities are derived
//! from shared RDMA facts (an MR's `rkey` plus a byte offset), which
//! both the producer and the consumer of a protocol object know
//! independently. Endpoints call hooks through an [`AuditHandle`],
//! which is a no-op (one branch on an `Option`) when no auditor is
//! installed.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_obs::{EventKind, KeyMap, KeySet, Labels, Obs, HW_TRACK};

/// Metric name for the total number of audit violations `{node}`.
pub const AUDIT_VIOLATIONS: &str = "audit.violations";

/// Upper bound on stored violations per auditor; beyond this they still
/// reach the recorder and the [`AUDIT_VIOLATIONS`] metric but are not
/// stored, so a pathological run cannot exhaust memory.
pub const MAX_VIOLATIONS: usize = 4096;

/// Identifies one credit flow-control lane.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CreditLane {
    /// An RC credit slot: the credit MR's `rkey` plus the byte offset
    /// of the 8-byte slot the receiver RDMA-writes into. Both sides
    /// compute the same key (the sender owns the MR, the receiver holds
    /// its remote descriptor).
    Slot {
        /// Remote key of the credit memory region.
        rkey: u32,
        /// Byte offset of this peer's slot within the region.
        offset: u64,
    },
    /// A UD credit lane: the data-sending endpoint and the node of the
    /// data receiver that grants it credit datagrams.
    Ud {
        /// Endpoint id of the data sender.
        sender: u64,
        /// Node id of the data receiver granting credits.
        dest: u64,
    },
}

impl fmt::Display for CreditLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CreditLane::Slot { rkey, offset } => write!(f, "rc-slot[rkey={rkey},off={offset}]"),
            CreditLane::Ud { sender, dest } => write!(f, "ud[ep={sender}->node={dest}]"),
        }
    }
}

/// Which circular queue a [`RingKey`] refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RingKind {
    /// ValidArr: producer announces filled buffers (Alg. 3 / §7).
    ValidArr,
    /// FreeArr: consumer returns drained buffer offsets (§4.4.3).
    FreeArr,
    /// Grant ring: receiver grants writable remote offsets (§7).
    Grant,
}

/// Identity of one circular queue, shared by producer and consumer:
/// the ring MR's `rkey` plus the base byte offset of the ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RingKey {
    /// Remote key of the memory region holding the ring slots.
    pub rkey: u32,
    /// Byte offset of slot 0 within the region.
    pub base: u64,
}

impl fmt::Display for RingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rkey={},base={}", self.rkey, self.base)
    }
}

/// Identity of one message buffer: the pool MR's `rkey` plus the byte
/// offset of the buffer window inside it. Unique cluster-wide because
/// `rkey`s are allocated from a global counter.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct BufId {
    /// Remote key of the buffer pool memory region.
    pub rkey: u32,
    /// Byte offset of the buffer within the pool.
    pub offset: u64,
}

impl fmt::Display for BufId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rkey={},off={}", self.rkey, self.offset)
    }
}

/// A named protocol-invariant violation with the offending lane/slot
/// and the virtual timestamp at which it was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// A sender consumed more credits than its receiver ever granted.
    CreditOverdraft {
        /// The flow-control lane.
        lane: CreditLane,
        /// Cumulative messages sent on the lane.
        consumed: u64,
        /// Cumulative credit granted by the receiver.
        granted: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// An absolute credit announcement went backwards (§4.4.1 credits
    /// are cumulative and must be non-decreasing).
    CreditRegression {
        /// The flow-control lane.
        lane: CreditLane,
        /// Previously announced credit.
        previous: u64,
        /// The regressed announcement.
        granted: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A receiver granted more credit than receives it had posted.
    CreditOverGrant {
        /// The flow-control lane.
        lane: CreditLane,
        /// The announced credit.
        granted: u64,
        /// Receives actually posted.
        posted: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A release left a reliably-written RC credit slot owing a
    /// write-back — at least `frequency` receives posted since the last
    /// grant, and the sender's unspent credit (granted − received) within
    /// its declared in-flight sends plus half the bootstrap window — and
    /// the next event on the lane found it still unannounced.
    CreditWritebackLost {
        /// The flow-control lane.
        lane: CreditLane,
        /// Receives posted so far.
        posted: u64,
        /// Last credit announced.
        granted: u64,
        /// Data messages received on the lane.
        received: u64,
        /// The sends in flight the latest received message declared.
        in_flight: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A sender posted a buffer it did not hold (send after release /
    /// send without GETFREE).
    UseAfterFree {
        /// The buffer.
        buf: BufId,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A send buffer was recycled (completion reaped) while not in the
    /// sent state — a duplicate or spurious completion.
    DoubleFree {
        /// The buffer.
        buf: BufId,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A receiver released a buffer it was not holding.
    DoubleRelease {
        /// The buffer.
        buf: BufId,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// A receiver delivered a buffer that was already delivered and not
    /// yet released.
    DoubleDelivery {
        /// The buffer.
        buf: BufId,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// At clean termination a buffer never completed its lifecycle: a
    /// GETFREE buffer that was never sent, or a delivered buffer that
    /// was never released.
    BufferLeak {
        /// The buffer.
        buf: BufId,
        /// True for a receive-side leak (delivered, never released).
        held: bool,
    },
    /// A ring producer ran ahead of the consumer by more than the ring
    /// capacity — it would overwrite an unconsumed slot.
    RingOverwrite {
        /// The ring.
        ring: RingKey,
        /// The ring kind.
        kind: RingKind,
        /// Entries produced so far.
        produced: u64,
        /// Entries consumed so far.
        consumed: u64,
        /// Ring capacity in slots.
        capacity: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// At clean termination a ValidArr ring still held announced but
    /// unconsumed entries (or consumed more than was produced).
    RingImbalance {
        /// The ring.
        ring: RingKey,
        /// The ring kind.
        kind: RingKind,
        /// Entries produced.
        produced: u64,
        /// Entries consumed.
        consumed: u64,
    },
    /// A receiver counted more data messages from a source than the
    /// source declared in its `Depleted` counter (§4.4.2).
    DepletedOverrun {
        /// Node id of the source.
        src: u64,
        /// Messages counted.
        received: u64,
        /// Messages the source declared.
        expected: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
    /// The `Depleted` counter a sender announced does not match the
    /// data messages it actually sent to that destination, or at clean
    /// termination a receiver's count differs from the declaration.
    DepletedMismatch {
        /// Endpoint or node id of the sender (context-dependent).
        src: u64,
        /// The announced counter.
        declared: u64,
        /// Messages actually sent/received.
        actual: u64,
        /// Virtual nanoseconds (0 when detected at finalize).
        at_ns: u64,
    },
    /// An audited event carried a virtual timestamp earlier than one
    /// already observed in this epoch.
    TimeRegression {
        /// The regressed timestamp.
        at_ns: u64,
        /// The latest timestamp seen before it.
        last_ns: u64,
    },
    /// A sender posted a message on a reliable connection after its
    /// `Depleted` one, which the receiver may already count as the end.
    DataAfterDepleted {
        /// Node id of the destination.
        dest: u64,
        /// Virtual nanoseconds.
        at_ns: u64,
    },
}

/// Every violation's short code, in numeric-code order: a violation's
/// [`AuditViolation::code_id`] is its code's position here plus one.
const CODES: [&str; 15] = [
    "credit_overdraft",
    "credit_regression",
    "credit_over_grant",
    "credit_writeback_lost",
    "use_after_free",
    "double_free",
    "double_release",
    "double_delivery",
    "buffer_leak",
    "ring_overwrite",
    "ring_imbalance",
    "depleted_overrun",
    "depleted_mismatch",
    "time_regression",
    "data_after_depleted",
];

impl AuditViolation {
    /// Stable short code used in error messages and trace `arg`s.
    pub fn code(&self) -> &'static str {
        CODES[self.rank()]
    }

    /// Numeric code recorded as the `arg` of the
    /// `EventKind::AuditViolation` recorder event.
    pub fn code_id(&self) -> u64 {
        self.rank() as u64 + 1
    }

    /// This violation's position in [`CODES`].
    fn rank(&self) -> usize {
        match self {
            AuditViolation::CreditOverdraft { .. } => 0,
            AuditViolation::CreditRegression { .. } => 1,
            AuditViolation::CreditOverGrant { .. } => 2,
            AuditViolation::CreditWritebackLost { .. } => 3,
            AuditViolation::UseAfterFree { .. } => 4,
            AuditViolation::DoubleFree { .. } => 5,
            AuditViolation::DoubleRelease { .. } => 6,
            AuditViolation::DoubleDelivery { .. } => 7,
            AuditViolation::BufferLeak { .. } => 8,
            AuditViolation::RingOverwrite { .. } => 9,
            AuditViolation::RingImbalance { .. } => 10,
            AuditViolation::DepletedOverrun { .. } => 11,
            AuditViolation::DepletedMismatch { .. } => 12,
            AuditViolation::TimeRegression { .. } => 13,
            AuditViolation::DataAfterDepleted { .. } => 14,
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::CreditOverdraft {
                lane,
                consumed,
                granted,
                at_ns,
            } => write!(
                f,
                "credit overdraft on {lane}: consumed {consumed} > granted {granted} at {at_ns}ns"
            ),
            AuditViolation::CreditRegression {
                lane,
                previous,
                granted,
                at_ns,
            } => write!(
                f,
                "credit regression on {lane}: {granted} after {previous} at {at_ns}ns"
            ),
            AuditViolation::CreditOverGrant {
                lane,
                granted,
                posted,
                at_ns,
            } => write!(
                f,
                "over-grant on {lane}: granted {granted} > posted {posted} at {at_ns}ns"
            ),
            AuditViolation::CreditWritebackLost {
                lane,
                posted,
                granted,
                received,
                in_flight,
                at_ns,
            } => {
                write!(
                    f,
                    "lost credit write-back on {lane}: posted {posted}, granted {granted}, \
                     received {received}, in flight {in_flight} at {at_ns}ns"
                )
            }
            AuditViolation::UseAfterFree { buf, at_ns } => {
                write!(f, "send of unowned buffer {buf} at {at_ns}ns")
            }
            AuditViolation::DoubleFree { buf, at_ns } => {
                write!(f, "recycle of unsent buffer {buf} at {at_ns}ns")
            }
            AuditViolation::DoubleRelease { buf, at_ns } => {
                write!(f, "double release of buffer {buf} at {at_ns}ns")
            }
            AuditViolation::DoubleDelivery { buf, at_ns } => {
                write!(f, "double delivery of buffer {buf} at {at_ns}ns")
            }
            AuditViolation::BufferLeak { buf, held } => write!(
                f,
                "buffer leak at termination: {buf} ({})",
                if *held {
                    "delivered, never released"
                } else {
                    "taken, never sent"
                }
            ),
            AuditViolation::RingOverwrite {
                ring,
                kind,
                produced,
                consumed,
                capacity,
                at_ns,
            } => {
                write!(
                    f,
                    "{kind:?} ring overwrite [{ring}]: produced {produced} − consumed {consumed} \
                     > capacity {capacity} at {at_ns}ns"
                )
            }
            AuditViolation::RingImbalance {
                ring,
                kind,
                produced,
                consumed,
            } => write!(
                f,
                "{kind:?} ring imbalance at termination [{ring}]: produced {produced}, \
                 consumed {consumed}"
            ),
            AuditViolation::DepletedOverrun {
                src,
                received,
                expected,
                at_ns,
            } => write!(
                f,
                "Depleted overrun from node {src}: received {received} > declared {expected} \
                 at {at_ns}ns"
            ),
            AuditViolation::DepletedMismatch {
                src,
                declared,
                actual,
                at_ns,
            } => write!(
                f,
                "Depleted counter mismatch for source {src}: declared {declared}, \
                 actual {actual} at {at_ns}ns"
            ),
            AuditViolation::TimeRegression { at_ns, last_ns } => {
                write!(f, "virtual time regression: {at_ns}ns after {last_ns}ns")
            }
            AuditViolation::DataAfterDepleted { dest, at_ns } => {
                write!(f, "send to node {dest} after its Depleted at {at_ns}ns")
            }
        }
    }
}

#[derive(Default)]
struct CreditState {
    granted: Option<u64>,
    /// The sender's running count of messages sent on the lane — for a
    /// UD lane also the count its `Depleted` declaration must match.
    consumed: u64,
    posted: u64,
    /// Data messages the receiver took in on the lane, and the sends in
    /// flight the latest of them declared.
    received: u64,
    in_flight: u64,
    /// The receives posted when the first credit was granted.
    window: u64,
    /// A release made a write-back due and no grant has followed yet.
    owed: bool,
    /// Write-back frequency for reliably-written RC slots; `None` for
    /// lanes whose announcements may be legally lost (UD datagrams).
    frequency: Option<u64>,
}

impl CreditState {
    /// The lost write-back this state shows when one was owed.
    fn lost(&self, lane: CreditLane, at_ns: u64) -> Option<AuditViolation> {
        self.owed.then_some(AuditViolation::CreditWritebackLost {
            lane,
            posted: self.posted,
            granted: self.granted.unwrap_or(0),
            received: self.received,
            in_flight: self.in_flight,
            at_ns,
        })
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum SendBufState {
    Taken,
    Sent,
}

#[derive(Copy, Clone)]
struct RingState {
    kind: RingKind,
    capacity: u64,
    produced: u64,
    consumed: u64,
}

#[derive(Default)]
struct DepletedState {
    received: u64,
    expected: Option<u64>,
}

#[derive(Default)]
struct AuditState {
    last_ns: u64,
    time_flagged: bool,
    credits: KeyMap<CreditLane, CreditState>,
    send_bufs: KeyMap<BufId, SendBufState>,
    recv_held: KeyMap<BufId, bool>,
    /// Registered rings; an entry into any other ring is not audited.
    rings: KeyMap<RingKey, RingState>,
    /// Per-source receive counts at a receiver, keyed by
    /// `(receiving node, source node)`.
    depleted: KeyMap<(u64, u64), DepletedState>,
    /// `(send pool rkey, destination)` connections that sent `Depleted`.
    closed: KeySet<(u32, usize)>,
    violations: Vec<AuditViolation>,
}

/// The shared invariant checker: one per [`VerbsRuntime`], installed via
/// `runtime.enable_audit()` and consulted by every endpoint through an
/// [`AuditHandle`].
///
/// [`VerbsRuntime`]: https://docs.rs/rshuffle-verbs
pub struct ShuffleAuditor {
    state: Mutex<AuditState>,
    obs: Option<Arc<Obs>>,
}

impl ShuffleAuditor {
    /// Creates an auditor that reports violations into `obs` (recorder
    /// event + metric) in addition to storing them.
    pub fn new(obs: Option<Arc<Obs>>) -> Arc<ShuffleAuditor> {
        Arc::new(ShuffleAuditor {
            state: Mutex::new(AuditState::default()),
            obs,
        })
    }

    /// Starts a fresh protocol epoch (one shuffle attempt): clears all
    /// per-run lane/buffer/ring state and resets the monotonicity
    /// watermark, keeping accumulated violations. Called by
    /// `Exchange::build` so restarted attempts do not inherit stale
    /// slot state.
    pub fn begin_epoch(&self) {
        let mut st = self.state.lock();
        st.last_ns = 0;
        st.time_flagged = false;
        st.credits.clear();
        st.send_bufs.clear();
        st.recv_held.clear();
        st.rings.clear();
        st.depleted.clear();
        st.closed.clear();
    }

    /// All violations recorded so far (across epochs).
    pub fn violations(&self) -> Vec<AuditViolation> {
        self.state.lock().violations.clone()
    }

    /// Runs end-of-run checks and returns every violation recorded.
    ///
    /// With `clean = true` the run is claimed to have terminated
    /// normally, so lifecycle completeness is also enforced: no buffer
    /// taken-but-never-sent or delivered-but-never-released, ValidArr
    /// rings fully drained, and every known `Depleted` declaration
    /// matched exactly. With `clean = false` (the run ended in a typed
    /// error) only violations already observed online are returned —
    /// an aborted attempt legally leaves state in flight.
    pub fn finalize(&self, clean: bool) -> Vec<AuditViolation> {
        let mut st = self.state.lock();
        if clean {
            let mut found: Vec<AuditViolation> = Vec::new();
            for (&buf, &state) in &st.send_bufs {
                if state == SendBufState::Taken {
                    found.push(AuditViolation::BufferLeak { buf, held: false });
                }
            }
            for (&buf, &held) in &st.recv_held {
                if held {
                    found.push(AuditViolation::BufferLeak { buf, held: true });
                }
            }
            for (&ring, rs) in &st.rings {
                if rs.kind == RingKind::ValidArr && rs.produced != rs.consumed {
                    found.push(AuditViolation::RingImbalance {
                        ring,
                        kind: RingKind::ValidArr,
                        produced: rs.produced,
                        consumed: rs.consumed,
                    });
                }
            }
            for (&(_, src), ds) in &st.depleted {
                if let Some(expected) = ds.expected {
                    if ds.received != expected {
                        found.push(AuditViolation::DepletedMismatch {
                            src,
                            declared: expected,
                            actual: ds.received,
                            at_ns: 0,
                        });
                    }
                }
            }
            // Deterministic report order regardless of hash iteration.
            found.sort_by_key(|v| (v.code_id(), format!("{v}")));
            let at_ns = st.last_ns;
            for v in found {
                self.record(&mut st, 0, at_ns, v);
            }
        }
        st.violations.clone()
    }

    fn record(&self, st: &mut AuditState, node: u32, at_ns: u64, v: AuditViolation) {
        if let Some(obs) = &self.obs {
            obs.recorder.event(
                node,
                HW_TRACK,
                at_ns,
                EventKind::AuditViolation,
                v.code_id(),
            );
            obs.metrics
                .counter(AUDIT_VIOLATIONS, Labels::node(node))
                .inc();
        }
        if st.violations.len() < MAX_VIOLATIONS {
            st.violations.push(v);
        }
    }
}

/// Per-endpoint handle through which protocol hooks reach the shared
/// [`ShuffleAuditor`]. When no auditor is installed every hook is a
/// single branch on an `Option` — cheap enough to leave compiled in.
#[derive(Clone)]
pub struct AuditHandle {
    auditor: Option<Arc<ShuffleAuditor>>,
    node: u32,
}

impl AuditHandle {
    /// A handle for the endpoint of `node`, auditing into `auditor`
    /// when one is installed.
    pub fn new(auditor: Option<Arc<ShuffleAuditor>>, node: u32) -> AuditHandle {
        AuditHandle { auditor, node }
    }

    /// Applies one hook's `rule` to the shared state, if an auditor is
    /// installed, and records the violation it returns. An event stamped
    /// `Some(at_ns)` is first checked for virtual-time monotonicity;
    /// registrations carry no time.
    #[inline]
    fn check(
        &self,
        at_ns: Option<u64>,
        rule: impl FnOnce(&mut AuditState) -> Option<AuditViolation>,
    ) {
        let Some(auditor) = &self.auditor else {
            return;
        };
        let mut st = auditor.state.lock();
        if let Some(at_ns) = at_ns {
            if at_ns >= st.last_ns {
                st.last_ns = at_ns;
            } else if !st.time_flagged {
                st.time_flagged = true;
                let last_ns = st.last_ns;
                let v = AuditViolation::TimeRegression { at_ns, last_ns };
                auditor.record(&mut st, self.node, at_ns, v);
            }
        }
        if let Some(v) = rule(&mut st) {
            auditor.record(&mut st, self.node, at_ns.unwrap_or(0), v);
        }
    }

    /// Registers a credit lane; `frequency` is the write-back period
    /// for reliably-written RC slots and `None` for lossy (UD) lanes.
    #[inline]
    pub fn credit_lane(&self, lane: CreditLane, frequency: Option<u64>) {
        self.check(None, |st| {
            let entry = st.credits.entry(lane).or_default();
            entry.frequency = frequency.or(entry.frequency);
            None
        });
    }

    /// The receiver announced an absolute credit value on `lane`.
    #[inline]
    pub fn credit_granted(&self, lane: CreditLane, granted: u64, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.credits.entry(lane).or_default();
            entry.owed = false;
            if entry.granted.is_none() {
                entry.window = entry.posted;
            }
            match entry
                .granted
                .replace(entry.granted.map_or(granted, |g| g.max(granted)))
            {
                Some(previous) if granted < previous => Some(AuditViolation::CreditRegression {
                    lane,
                    previous,
                    granted,
                    at_ns,
                }),
                _ => (entry.frequency.is_some() && granted > entry.posted).then_some(
                    AuditViolation::CreditOverGrant {
                        lane,
                        granted,
                        posted: entry.posted,
                        at_ns,
                    },
                ),
            }
        });
    }

    /// The receiver posted `n` more receives backing `lane`. A
    /// reliably-written slot then owes a write-back when at least
    /// `frequency` receives were posted since the last grant and the
    /// sender's unspent credit is within its declared in-flight sends plus
    /// half the bootstrap window. The endpoint announces an owed grant in
    /// the same atomic step as the post, so one still owed at the lane's
    /// next post was lost.
    #[inline]
    pub fn receives_posted(&self, lane: CreditLane, n: u64, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.credits.entry(lane).or_default();
            entry.posted += n;
            let (Some(frequency), Some(granted)) = (entry.frequency, entry.granted) else {
                return None;
            };
            let lost = entry.lost(lane, at_ns);
            // An over-grant has already been reported; it owes nothing.
            let reserve = entry.in_flight + entry.window / 2;
            entry.owed = entry.posted.saturating_sub(granted) >= frequency
                && granted.saturating_sub(entry.received) <= reserve;
            lost
        });
    }

    /// The receiver took in a data message on `lane` whose sender had
    /// `in_flight` sends outstanding toward it when it posted it.
    #[inline]
    pub fn credit_received(&self, lane: CreditLane, in_flight: u64, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.credits.entry(lane).or_default();
            (entry.received, entry.in_flight) = (entry.received + 1, in_flight);
            None
        });
    }

    /// The source behind `lane` announced end-of-stream: no further
    /// receives will be posted or credit announced, so a write-back the
    /// last release owed must already have been announced.
    #[inline]
    pub fn credit_lane_closed(&self, lane: CreditLane, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            st.credits.entry(lane).or_default().lost(lane, at_ns)
        });
    }

    /// The sender's cumulative message count on `lane` reached
    /// `consumed`.
    #[inline]
    pub fn credit_consumed(&self, lane: CreditLane, consumed: u64, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.credits.entry(lane).or_default();
            entry.consumed = entry.consumed.max(consumed);
            let granted = entry.granted?;
            let v = AuditViolation::CreditOverdraft {
                lane,
                consumed,
                granted,
                at_ns,
            };
            (consumed > granted).then_some(v)
        });
    }

    /// A sender took `buf` via GETFREE.
    #[inline]
    pub fn buffer_taken(&self, buf: BufId, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            st.send_bufs.insert(buf, SendBufState::Taken);
            None
        });
    }

    /// A sender posted `buf` to the fabric.
    #[inline]
    pub fn buffer_sent(&self, buf: BufId, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let was = st.send_bufs.insert(buf, SendBufState::Sent);
            (was != Some(SendBufState::Taken))
                .then_some(AuditViolation::UseAfterFree { buf, at_ns })
        });
    }

    /// A sender reaped the completion for `buf`, returning it to the
    /// free pool.
    #[inline]
    pub fn buffer_recycled(&self, buf: BufId, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let was = st.send_bufs.remove(&buf);
            (was != Some(SendBufState::Sent)).then_some(AuditViolation::DoubleFree { buf, at_ns })
        });
    }

    /// A receiver handed `buf` to the operator.
    #[inline]
    pub fn delivered(&self, buf: BufId, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let held = st.recv_held.insert(buf, true) == Some(true);
            held.then_some(AuditViolation::DoubleDelivery { buf, at_ns })
        });
    }

    /// A receiver released `buf` back to the transport.
    #[inline]
    pub fn released(&self, buf: BufId, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let held = st.recv_held.insert(buf, false) == Some(true);
            (!held).then_some(AuditViolation::DoubleRelease { buf, at_ns })
        });
    }

    /// Registers a circular queue of `capacity` slots; its owner, the
    /// consuming side, does this once.
    #[inline]
    pub fn ring(&self, ring: RingKey, kind: RingKind, capacity: u64) {
        self.check(None, |st| {
            st.rings.insert(
                ring,
                RingState {
                    kind,
                    capacity,
                    produced: 0,
                    consumed: 0,
                },
            );
            None
        });
    }

    /// The producer announced one entry into `ring`.
    #[inline]
    pub fn ring_produced(&self, ring: RingKey, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.rings.get_mut(&ring)?;
            entry.produced += 1;
            let RingState {
                kind,
                capacity,
                produced,
                consumed,
            } = *entry;
            (produced.saturating_sub(consumed) > capacity).then_some(
                AuditViolation::RingOverwrite {
                    ring,
                    kind,
                    produced,
                    consumed,
                    capacity,
                    at_ns,
                },
            )
        });
    }

    /// The consumer drained one entry from `ring`.
    #[inline]
    pub fn ring_consumed(&self, ring: RingKey, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            st.rings.get_mut(&ring)?.consumed += 1;
            None
        });
    }

    /// A sender announced its `Depleted` counter `declared` to `dest`. It
    /// must equal the data messages counted on the UD credit lane from
    /// `sender` to `dest`, which advances once per message sent.
    #[inline]
    pub fn depleted_announced(&self, sender: u64, dest: u64, declared: u64, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let lane = CreditLane::Ud { sender, dest };
            let actual = st.credits.get(&lane).map_or(0, |c| c.consumed);
            (declared != actual).then_some(AuditViolation::DepletedMismatch {
                src: sender,
                declared,
                actual,
                at_ns,
            })
        });
    }

    /// A sender on reliable connections from its pool `rkey` posted a message
    /// to each of `dest`, `depleted` if it ends the stream: nothing may follow.
    #[inline]
    pub fn ordered_send(&self, rkey: u32, dest: &[usize], depleted: bool, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let late = dest.iter().find(|&&d| st.closed.contains(&(rkey, d)));
            let late = late.map(|&d| d as u64);
            if depleted {
                st.closed.extend(dest.iter().map(|&d| (rkey, d)));
            }
            late.map(|dest| AuditViolation::DataAfterDepleted { dest, at_ns })
        });
    }

    /// A receiver's per-source message count advanced (`expected` set
    /// once the source's `Depleted` declaration arrives).
    #[inline]
    pub fn counted_receive(&self, src: u64, received: u64, expected: Option<u64>, at_ns: u64) {
        self.check(Some(at_ns), |st| {
            let entry = st.depleted.entry((self.node as u64, src)).or_default();
            entry.received = entry.received.max(received);
            entry.expected = expected.or(entry.expected);
            let (received, expected) = (entry.received, entry.expected?);
            let v = AuditViolation::DepletedOverrun {
                src,
                received,
                expected,
                at_ns,
            };
            (received > expected).then_some(v)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> CreditLane {
        CreditLane::Slot { rkey: 7, offset: 8 }
    }

    fn auditor() -> (Arc<ShuffleAuditor>, AuditHandle) {
        let a = ShuffleAuditor::new(None);
        let h = AuditHandle::new(Some(a.clone()), 0);
        (a, h)
    }

    #[test]
    fn clean_credit_protocol_passes() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(4));
        h.receives_posted(lane(), 8, 0);
        h.credit_granted(lane(), 8, 0);
        for sent in 1..=8 {
            h.credit_consumed(lane(), sent, sent * 10);
            h.credit_received(lane(), 2, sent * 10);
        }
        // The fourth release owes the write-back, announced with it.
        for _ in 0..4 {
            h.receives_posted(lane(), 1, 90);
        }
        h.credit_granted(lane(), 12, 100);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert!(a.finalize(true).is_empty());
    }

    #[test]
    fn overdraft_regression_overgrant_are_caught() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(4));
        h.receives_posted(lane(), 4, 0);
        h.credit_granted(lane(), 4, 0);
        h.credit_consumed(lane(), 5, 10);
        h.credit_granted(lane(), 3, 20);
        h.credit_granted(lane(), 9, 30);
        let codes: Vec<_> = a.violations().iter().map(|v| v.code()).collect();
        assert!(codes.contains(&"credit_overdraft"), "{codes:?}");
        assert!(codes.contains(&"credit_regression"), "{codes:?}");
        assert!(codes.contains(&"credit_over_grant"), "{codes:?}");
    }

    #[test]
    fn skipped_writeback_is_caught_online() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(2));
        h.receives_posted(lane(), 2, 0);
        h.credit_granted(lane(), 2, 0);
        h.credit_received(lane(), 1, 5);
        h.credit_received(lane(), 1, 5);
        // Two releases re-post receives; the write-back that should have
        // announced credit 4 is "lost". The next re-post finds it still
        // owed and must fire.
        h.receives_posted(lane(), 1, 10);
        h.receives_posted(lane(), 1, 20);
        assert!(a.violations().is_empty());
        h.receives_posted(lane(), 1, 30);
        assert_eq!(a.violations()[0].code(), "credit_writeback_lost");
    }

    #[test]
    fn skipped_writeback_is_caught_at_lane_close() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(2));
        h.receives_posted(lane(), 2, 0);
        h.credit_granted(lane(), 2, 0);
        h.credit_received(lane(), 1, 5);
        h.credit_received(lane(), 1, 5);
        // The releases make a write-back due (posted 4) but the
        // announcement is "lost", and the stream ends before a third
        // re-post could find it still owed.
        h.receives_posted(lane(), 1, 10);
        h.receives_posted(lane(), 1, 20);
        assert!(a.violations().is_empty());
        h.credit_lane_closed(lane(), 30);
        assert_eq!(a.violations()[0].code(), "credit_writeback_lost");
    }

    #[test]
    fn post_after_over_grant_reports_only_the_over_grant() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(4));
        h.receives_posted(lane(), 2, 0);
        h.credit_granted(lane(), 5, 10);
        // Granted is ahead of posted: no write-back is owed, and the gap
        // must not wrap around into one.
        h.receives_posted(lane(), 1, 20);
        let codes: Vec<_> = a.violations().iter().map(|v| v.code()).collect();
        assert_eq!(codes, vec!["credit_over_grant"]);
    }

    #[test]
    fn clean_lane_close_with_partial_period_is_clean() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(2));
        h.receives_posted(lane(), 2, 0);
        h.credit_granted(lane(), 2, 0);
        h.credit_received(lane(), 1, 5);
        h.credit_received(lane(), 1, 5);
        h.receives_posted(lane(), 1, 10);
        h.receives_posted(lane(), 1, 20);
        h.credit_granted(lane(), 4, 20);
        // One release into the next period when the source depletes:
        // below the frequency, so nothing was owed.
        h.receives_posted(lane(), 1, 30);
        h.credit_lane_closed(lane(), 40);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
    }

    #[test]
    fn a_write_back_the_sender_does_not_need_is_not_owed() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(2));
        h.receives_posted(lane(), 8, 0);
        h.credit_granted(lane(), 8, 0);
        h.credit_received(lane(), 1, 5);
        // Past the frequency, but 7 of 8 credits unspent is more than one
        // send in flight plus half the window of 8: no write-back is due.
        for at_ns in [10, 20, 30] {
            h.receives_posted(lane(), 1, at_ns);
        }
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        // Three more arrivals leave 4 unspent, within 1 + 4: the next
        // release owes the write-back, and a close without it is a loss.
        for at_ns in [50, 50, 50] {
            h.credit_received(lane(), 1, at_ns);
        }
        h.receives_posted(lane(), 1, 60);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        h.credit_lane_closed(lane(), 70);
        assert_eq!(a.violations()[0].code(), "credit_writeback_lost");
    }

    #[test]
    fn buffer_lifecycle_violations() {
        let (a, h) = auditor();
        let b = BufId {
            rkey: 1,
            offset: 64,
        };
        h.buffer_taken(b, 0);
        h.buffer_sent(b, 1);
        h.buffer_recycled(b, 2);
        assert!(a.violations().is_empty());
        h.buffer_sent(b, 3); // never re-taken
        h.buffer_recycled(b, 4);
        h.buffer_recycled(b, 5); // double free
        let codes: Vec<_> = a.violations().iter().map(|v| v.code()).collect();
        assert_eq!(codes, vec!["use_after_free", "double_free"]);
    }

    #[test]
    fn release_state_machine() {
        let (a, h) = auditor();
        let b = BufId { rkey: 2, offset: 0 };
        h.delivered(b, 0);
        h.released(b, 1);
        h.delivered(b, 2);
        h.delivered(b, 3); // double delivery
        h.released(b, 4);
        h.released(b, 5); // double release
        let codes: Vec<_> = a.violations().iter().map(|v| v.code()).collect();
        assert_eq!(codes, vec!["double_delivery", "double_release"]);
    }

    #[test]
    fn ring_overwrite_and_imbalance() {
        let (a, h) = auditor();
        let r = RingKey { rkey: 3, base: 0 };
        h.ring(r, RingKind::ValidArr, 2);
        h.ring_produced(r, 0);
        h.ring_produced(r, 1);
        h.ring_consumed(r, 2);
        h.ring_produced(r, 3);
        assert!(a.violations().is_empty());
        h.ring_produced(r, 4); // 3 in flight > capacity 2
        assert_eq!(a.violations()[0].code(), "ring_overwrite");
        let finals = a.finalize(true);
        assert!(
            finals.iter().any(|v| v.code() == "ring_imbalance"),
            "{finals:?}"
        );
    }

    #[test]
    fn depleted_counting() {
        let (a, h) = auditor();
        send_ud(&h, 1, 0);
        send_ud(&h, 2, 1);
        h.depleted_announced(4, 1, 2, 2);
        h.counted_receive(0, 1, None, 3);
        h.counted_receive(0, 2, Some(2), 4);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        h.counted_receive(0, 3, None, 5);
        assert_eq!(a.violations()[0].code(), "depleted_overrun");
        let (a2, h2) = auditor();
        send_ud(&h2, 1, 0);
        h2.depleted_announced(4, 1, 0, 1);
        assert_eq!(a2.violations()[0].code(), "depleted_mismatch");
    }

    #[test]
    fn epoch_reset_clears_lanes_but_keeps_violations() {
        let (a, h) = auditor();
        h.credit_lane(lane(), Some(1));
        h.receives_posted(lane(), 1, 0);
        h.credit_granted(lane(), 3, 0); // over-grant
        assert_eq!(a.violations().len(), 1);
        a.begin_epoch();
        h.credit_lane(lane(), Some(1));
        h.receives_posted(lane(), 1, 0);
        h.credit_granted(lane(), 1, 0);
        assert_eq!(a.violations().len(), 1, "old lane state must not leak");
    }

    /// One UD data message from endpoint 4 to node 1, as `sr_ud` reports
    /// it: the credit lane's running count.
    fn send_ud(h: &AuditHandle, sent: u64, at_ns: u64) {
        h.credit_consumed(CreditLane::Ud { sender: 4, dest: 1 }, sent, at_ns);
    }

    /// A whole verdict: `(code_id, code, Display)` of each violation, in
    /// report order.
    type Verdict = &'static [(u64, &'static str, &'static str)];

    /// A scripted hook sequence, what the auditor reports while it runs,
    /// and what `finalize(true)` appends to that.
    struct Row {
        name: &'static str,
        script: fn(&AuditHandle),
        online: Verdict,
        added: Verdict,
    }

    const VERDICTS: &[Row] = &[
        Row {
            name: "clean",
            script: |h| {
                let ud = CreditLane::Ud { sender: 4, dest: 1 };
                h.credit_lane(ud, None);
                h.credit_granted(ud, 2, 0);
                h.credit_lane(lane(), Some(2));
                h.receives_posted(lane(), 2, 0);
                h.credit_granted(lane(), 2, 0);
                h.credit_consumed(lane(), 1, 10);
                h.credit_consumed(lane(), 2, 20);
                h.receives_posted(lane(), 2, 30);
                h.credit_granted(lane(), 4, 30);
                h.credit_lane_closed(lane(), 40);
                let b = BufId { rkey: 1, offset: 64 };
                h.buffer_taken(b, 50);
                h.buffer_sent(b, 51);
                h.buffer_recycled(b, 52);
                h.delivered(b, 53);
                h.released(b, 54);
                let r = RingKey { rkey: 3, base: 0 };
                h.ring(r, RingKind::ValidArr, 2);
                h.ring_produced(r, 60);
                h.ring_produced(r, 61);
                h.ring_consumed(r, 62);
                h.ring_consumed(r, 63);
                send_ud(h, 1, 70);
                send_ud(h, 2, 71);
                h.depleted_announced(4, 1, 2, 71);
                h.counted_receive(4, 1, None, 72);
                h.counted_receive(4, 2, Some(2), 73);
                h.ordered_send(5, &[2, 3], false, 80);
                h.ordered_send(5, &[2, 3], true, 81);
                h.ordered_send(6, &[2], true, 82);
            },
            online: &[],
            added: &[],
        },
        Row {
            name: "credit_overdraft",
            script: |h| {
                h.credit_lane(lane(), Some(4));
                h.receives_posted(lane(), 4, 0);
                h.credit_granted(lane(), 4, 0);
                h.credit_consumed(lane(), 4, 10);
                h.credit_consumed(lane(), 5, 20);
            },
            online: &[
                (
                    1,
                    "credit_overdraft",
                    "credit overdraft on rc-slot[rkey=7,off=8]: consumed 5 > granted 4 at 20ns",
                ),
            ],
            added: &[],
        },
        Row {
            name: "credit_regression",
            script: |h| {
                h.credit_lane(lane(), Some(4));
                h.receives_posted(lane(), 4, 0);
                h.credit_granted(lane(), 4, 0);
                h.credit_granted(lane(), 3, 10);
                h.credit_granted(lane(), 4, 20);
            },
            online: &[
                (
                    2,
                    "credit_regression",
                    "credit regression on rc-slot[rkey=7,off=8]: 3 after 4 at 10ns",
                ),
            ],
            added: &[],
        },
        Row {
            name: "credit_over_grant",
            script: |h| {
                h.credit_lane(lane(), Some(4));
                h.receives_posted(lane(), 2, 0);
                h.credit_granted(lane(), 3, 10);
                // A lossy lane announces whatever it likes.
                let ud = CreditLane::Ud { sender: 4, dest: 1 };
                h.credit_lane(ud, None);
                h.credit_granted(ud, 9, 20);
            },
            online: &[
                (
                    3,
                    "credit_over_grant",
                    "over-grant on rc-slot[rkey=7,off=8]: granted 3 > posted 2 at 10ns",
                ),
            ],
            added: &[],
        },
        Row {
            name: "credit_writeback_lost",
            script: |h| {
                h.credit_lane(lane(), Some(2));
                h.receives_posted(lane(), 2, 0);
                h.credit_granted(lane(), 2, 0);
                h.credit_received(lane(), 1, 5);
                h.credit_received(lane(), 1, 5);
                h.receives_posted(lane(), 1, 10);
                h.receives_posted(lane(), 1, 20);
                h.receives_posted(lane(), 1, 30);
                // The same loss, caught only when the lane closes.
                let other = CreditLane::Slot { rkey: 7, offset: 16 };
                h.credit_lane(other, Some(2));
                h.receives_posted(other, 2, 40);
                h.credit_granted(other, 2, 40);
                h.credit_received(other, 2, 45);
                h.credit_received(other, 2, 45);
                h.receives_posted(other, 2, 50);
                h.credit_lane_closed(other, 60);
            },
            online: &[
                (
                    4,
                    "credit_writeback_lost",
                    "lost credit write-back on rc-slot[rkey=7,off=8]: posted 5, granted 2, received 2, in flight 1 at 30ns",
                ),
                (
                    4,
                    "credit_writeback_lost",
                    "lost credit write-back on rc-slot[rkey=7,off=16]: posted 4, granted 2, received 2, in flight 2 at 60ns",
                ),
            ],
            added: &[],
        },
        Row {
            name: "use_after_free",
            script: |h| {
                let b = BufId { rkey: 1, offset: 64 };
                h.buffer_taken(b, 0);
                h.buffer_sent(b, 1);
                h.buffer_recycled(b, 2);
                h.buffer_sent(b, 3);
                h.buffer_recycled(b, 4);
            },
            online: &[
                (5, "use_after_free", "send of unowned buffer rkey=1,off=64 at 3ns"),
            ],
            added: &[],
        },
        Row {
            name: "double_free",
            script: |h| {
                let b = BufId { rkey: 1, offset: 64 };
                h.buffer_taken(b, 0);
                h.buffer_sent(b, 1);
                h.buffer_recycled(b, 2);
                h.buffer_recycled(b, 3);
            },
            online: &[
                (6, "double_free", "recycle of unsent buffer rkey=1,off=64 at 3ns"),
            ],
            added: &[],
        },
        Row {
            name: "double_release",
            script: |h| {
                let b = BufId { rkey: 2, offset: 0 };
                h.delivered(b, 0);
                h.released(b, 1);
                h.released(b, 2);
            },
            online: &[
                (7, "double_release", "double release of buffer rkey=2,off=0 at 2ns"),
            ],
            added: &[],
        },
        Row {
            name: "double_delivery",
            script: |h| {
                let b = BufId { rkey: 2, offset: 0 };
                h.delivered(b, 0);
                h.delivered(b, 1);
                h.released(b, 2);
            },
            online: &[
                (8, "double_delivery", "double delivery of buffer rkey=2,off=0 at 1ns"),
            ],
            added: &[],
        },
        Row {
            name: "buffer_leak",
            script: |h| {
                h.buffer_taken(BufId { rkey: 1, offset: 128 }, 0);
                h.buffer_taken(BufId { rkey: 1, offset: 0 }, 1);
                h.delivered(BufId { rkey: 2, offset: 0 }, 2);
            },
            online: &[],
            added: &[
                (9, "buffer_leak", "buffer leak at termination: rkey=1,off=0 (taken, never sent)"),
                (
                    9,
                    "buffer_leak",
                    "buffer leak at termination: rkey=1,off=128 (taken, never sent)",
                ),
                (
                    9,
                    "buffer_leak",
                    "buffer leak at termination: rkey=2,off=0 (delivered, never released)",
                ),
            ],
        },
        Row {
            name: "ring_overwrite",
            script: |h| {
                let r = RingKey { rkey: 3, base: 0 };
                h.ring(r, RingKind::FreeArr, 2);
                h.ring_produced(r, 0);
                h.ring_produced(r, 1);
                h.ring_consumed(r, 2);
                h.ring_produced(r, 3);
                h.ring_produced(r, 4);
            },
            online: &[
                (
                    10,
                    "ring_overwrite",
                    "FreeArr ring overwrite [rkey=3,base=0]: produced 4 − consumed 1 > capacity 2 at 4ns",
                ),
            ],
            added: &[],
        },
        Row {
            name: "ring_imbalance",
            script: |h| {
                let valid = RingKey { rkey: 3, base: 64 };
                h.ring(valid, RingKind::ValidArr, 4);
                h.ring_produced(valid, 0);
                h.ring_produced(valid, 1);
                h.ring_consumed(valid, 2);
                // Only ValidArr must drain by the end.
                let grant = RingKey { rkey: 3, base: 0 };
                h.ring(grant, RingKind::Grant, 4);
                h.ring_produced(grant, 3);
            },
            online: &[],
            added: &[
                (
                    11,
                    "ring_imbalance",
                    "ValidArr ring imbalance at termination [rkey=3,base=64]: produced 2, consumed 1",
                ),
            ],
        },
        Row {
            name: "depleted_overrun",
            script: |h| {
                h.counted_receive(4, 1, None, 0);
                h.counted_receive(4, 2, Some(1), 1);
            },
            online: &[
                (
                    12,
                    "depleted_overrun",
                    "Depleted overrun from node 4: received 2 > declared 1 at 1ns",
                ),
            ],
            added: &[
                (
                    13,
                    "depleted_mismatch",
                    "Depleted counter mismatch for source 4: declared 1, actual 2 at 0ns",
                ),
            ],
        },
        Row {
            name: "depleted_mismatch",
            script: |h| {
                send_ud(h, 1, 0);
                h.depleted_announced(4, 1, 2, 1);
                h.counted_receive(5, 1, Some(3), 2);
            },
            online: &[
                (
                    13,
                    "depleted_mismatch",
                    "Depleted counter mismatch for source 4: declared 2, actual 1 at 1ns",
                ),
            ],
            added: &[
                (
                    13,
                    "depleted_mismatch",
                    "Depleted counter mismatch for source 5: declared 3, actual 1 at 0ns",
                ),
            ],
        },
        Row {
            name: "time_regression",
            script: |h| {
                let b = BufId { rkey: 1, offset: 0 };
                h.buffer_taken(b, 100);
                h.buffer_sent(b, 50);
                h.buffer_recycled(b, 40);
            },
            online: &[
                (14, "time_regression", "virtual time regression: 50ns after 100ns"),
            ],
            added: &[],
        },
        Row {
            name: "data_after_depleted",
            script: |h| {
                h.ordered_send(5, &[2], true, 0);
                // Another pool's connection to the same node is its own.
                h.ordered_send(6, &[2], false, 1);
                h.ordered_send(5, &[3, 2], false, 2);
                h.ordered_send(5, &[2], true, 3);
            },
            online: &[
                (15, "data_after_depleted", "send to node 2 after its Depleted at 2ns"),
                (15, "data_after_depleted", "send to node 2 after its Depleted at 3ns"),
            ],
            added: &[],
        },
    ];

    fn verdict(found: &[AuditViolation]) -> Vec<(u64, &'static str, String)> {
        found
            .iter()
            .map(|v| (v.code_id(), v.code(), v.to_string()))
            .collect()
    }

    fn owned(rows: Verdict) -> Vec<(u64, &'static str, String)> {
        rows.iter()
            .map(|&(id, code, text)| (id, code, text.to_string()))
            .collect()
    }

    /// Every violation kind and a clean run, as whole verdicts: nothing
    /// the auditor reports — which rule fires, its numeric and short
    /// codes, its message, the order — may change under a refactor.
    #[test]
    fn verdict_table_holds() {
        let mut kinds: Vec<&str> = VERDICTS.iter().map(|row| row.name).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds.len(),
            16,
            "one row per violation kind, plus a clean one"
        );
        for row in VERDICTS {
            let named = row.online.iter().chain(row.added).any(|v| v.1 == row.name);
            assert!(
                named || row.name == "clean",
                "row {} never reports its kind",
                row.name
            );
            let (a, h) = auditor();
            (row.script)(&h);
            assert_eq!(
                verdict(&a.violations()),
                owned(row.online),
                "{} online",
                row.name
            );
            let mut finalized = owned(row.online);
            finalized.extend(owned(row.added));
            assert_eq!(
                verdict(&a.finalize(true)),
                finalized,
                "{} finalized",
                row.name
            );
        }
    }

    #[test]
    fn time_regression_flagged_once_per_epoch() {
        let (a, h) = auditor();
        h.buffer_taken(BufId { rkey: 1, offset: 0 }, 100);
        h.buffer_sent(BufId { rkey: 1, offset: 0 }, 50);
        h.buffer_recycled(BufId { rkey: 1, offset: 0 }, 40);
        let codes: Vec<_> = a.violations().iter().map(|v| v.code()).collect();
        assert_eq!(codes.iter().filter(|c| **c == "time_regression").count(), 1);
    }
}
