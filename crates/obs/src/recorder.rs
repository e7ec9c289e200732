//! Bounded flight recorder: typed events and spans stamped with virtual
//! time, kept in a drop-oldest ring per track.
//!
//! A *track* is one timeline in the exported trace — `(node, tid)` maps
//! directly onto Chrome trace `pid`/`tid`. Track 0 on each node is the
//! hardware track (NIC pipeline, fault injection); simulated threads get
//! `tid = thread index + 1`.
//!
//! The simulation kernel runs one simulated thread at a time, so the
//! single mutex here is effectively uncontended and recording order is
//! deterministic for a fixed seed.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use parking_lot::Mutex;

/// Hardware track id (`tid` 0) used for NIC and fault-injection events.
pub const HW_TRACK: u32 = 0;

/// Default per-track ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The typed event taxonomy recorded by the shuffle stack.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A Send work request was posted (`arg` = payload bytes).
    SendPosted,
    /// A Receive work request was posted (`arg` = buffer bytes).
    RecvPosted,
    /// A completion was polled from a CQ (`arg` = byte length).
    CompletionPolled,
    /// A sender began stalling for send credits (`arg` = destination).
    CreditStallBegin,
    /// The stall ended (`arg` = stall nanoseconds).
    CreditStallEnd,
    /// Receiver-not-ready hardware retry on an RC QP (`arg` = attempt).
    RnrRetry,
    /// A UD datagram was dropped in the network (`arg` = 0) or arrived
    /// with no matching posted receive (`arg` = 1).
    UdDrop,
    /// A UD datagram was reordered by fault injection.
    UdReordered,
    /// The NIC had to fetch a QP context from host memory (`arg` = QP
    /// context key) — the cache-thrashing signal behind Figure 11.
    QpCacheMiss,
    /// A queue pair changed state (`arg` = encoded `from << 8 | to`).
    QpTransition,
    /// One poll of a FreeArr slot in the RDMA Read circular queue
    /// (`arg` = slot index).
    FreeArrPoll,
    /// One poll of a ValidArr slot (`arg` = slot index).
    ValidArrPoll,
    /// A simulated thread finished (`arg` = busy nanoseconds).
    ThreadFinished,
    /// An operator fragment drained to its sink (`arg` = rows).
    FragmentDone,
    /// An injected fault became active (`arg` = `fault_code << 32 | node`).
    FaultBegin,
    /// An injected fault window ended (`arg` = `fault_code << 32 | node`).
    FaultEnd,
    /// A queue pair was forced into the error state by fault injection
    /// (`arg` = QP number).
    QpKilled,
    /// The restart orchestrator tore a fragment down for a retry
    /// (`arg` = attempt number, starting at 1).
    QueryRestart,
    /// A restarted fragment completed successfully (`arg` = recovery
    /// latency in nanoseconds, measured from the first failure).
    QueryRecovered,
    /// The protocol auditor observed an invariant violation (`arg` =
    /// the violation's numeric code).
    AuditViolation,
    /// The workload scheduler admitted a query (`arg` = query id).
    QueryAdmitted,
    /// The workload scheduler deferred a query — no free slot or not
    /// enough registered-memory budget (`arg` = query id).
    QueryDeferred,
    /// A scheduled query completed and released its slot, memory and
    /// flow weight (`arg` = query id).
    QueryCompleted,
    /// The recovery orchestrator re-established a failed queue pair
    /// (`arg` = reconnect attempt number, starting at 1).
    QpReconnect,
    /// A partially-retried flow resumed past its delivered watermark
    /// (`arg` = the flow's new epoch).
    FlowResumed,
    /// The orchestrator began a per-flow partial retry (`arg` = the
    /// attempt's epoch).
    PartialRetry,
    /// The query degraded mid-run to a sturdier shuffle configuration
    /// (`arg` = the new configuration's algorithm code).
    QueryDegraded,
    /// A sender thread entered a new communication phase of a
    /// phase-scheduled exchange (`arg` = phase index).
    PhaseBegin,
}

impl EventKind {
    /// Stable display name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SendPosted => "send_posted",
            EventKind::RecvPosted => "recv_posted",
            EventKind::CompletionPolled => "completion_polled",
            EventKind::CreditStallBegin => "credit_stall_begin",
            EventKind::CreditStallEnd => "credit_stall_end",
            EventKind::RnrRetry => "rnr_retry",
            EventKind::UdDrop => "ud_drop",
            EventKind::UdReordered => "ud_reordered",
            EventKind::QpCacheMiss => "qp_cache_miss",
            EventKind::QpTransition => "qp_transition",
            EventKind::FreeArrPoll => "freearr_poll",
            EventKind::ValidArrPoll => "validarr_poll",
            EventKind::ThreadFinished => "thread_finished",
            EventKind::FragmentDone => "fragment_done",
            EventKind::FaultBegin => "fault_begin",
            EventKind::FaultEnd => "fault_end",
            EventKind::QpKilled => "qp_killed",
            EventKind::QueryRestart => "query_restart",
            EventKind::QueryRecovered => "query_recovered",
            EventKind::AuditViolation => "audit_violation",
            EventKind::QueryAdmitted => "query_admitted",
            EventKind::QueryDeferred => "query_deferred",
            EventKind::QueryCompleted => "query_completed",
            EventKind::QpReconnect => "qp_reconnect",
            EventKind::FlowResumed => "flow_resumed",
            EventKind::PartialRetry => "partial_retry",
            EventKind::QueryDegraded => "query_degraded",
            EventKind::PhaseBegin => "phase_begin",
        }
    }
}

/// One recorded entry: an instantaneous event or a completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A point event at `at_ns` (virtual nanoseconds).
    Instant {
        /// Virtual timestamp in nanoseconds.
        at_ns: u64,
        /// What happened.
        kind: EventKind,
        /// Kind-specific argument (see [`EventKind`] docs).
        arg: u64,
    },
    /// A named interval `[start_ns, end_ns]` in virtual time.
    Span {
        /// Interval name (shown as the slice label in trace viewers).
        name: String,
        /// Virtual start, nanoseconds.
        start_ns: u64,
        /// Virtual end, nanoseconds.
        end_ns: u64,
    },
}

#[derive(Default)]
struct Track {
    name: String,
    ring: VecDeque<Record>,
    dropped: u64,
}

#[derive(Default)]
struct RecorderState {
    tracks: BTreeMap<(u32, u32), Track>,
}

/// The flight recorder. Cheap to record into, bounded in memory, and
/// exportable as a `chrome://tracing` JSON document (see
/// [`crate::trace::chrome_trace`]).
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder whose per-track rings hold at most `capacity`
    /// records (oldest records are dropped and counted).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            state: Mutex::new(RecorderState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Names a track for trace exports (e.g. the simulated thread name).
    pub fn name_track(&self, node: u32, tid: u32, name: &str) {
        let mut st = self.state.lock();
        st.tracks.entry((node, tid)).or_default().name = name.to_string();
    }

    /// Records a point event on `(node, tid)` at virtual time `at_ns`.
    #[inline]
    pub fn event(&self, node: u32, tid: u32, at_ns: u64, kind: EventKind, arg: u64) {
        self.push(node, tid, Record::Instant { at_ns, kind, arg });
    }

    /// Records a completed span on `(node, tid)`.
    #[inline]
    pub fn span(&self, node: u32, tid: u32, name: &str, start_ns: u64, end_ns: u64) {
        self.push(
            node,
            tid,
            Record::Span {
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
            },
        );
    }

    fn push(&self, node: u32, tid: u32, rec: Record) {
        let mut st = self.state.lock();
        let track = st.tracks.entry((node, tid)).or_default();
        if track.ring.len() == self.capacity {
            track.ring.pop_front();
            track.dropped += 1;
        }
        track.ring.push_back(rec);
    }

    /// Copies out one track's records in recording order.
    pub fn records(&self, node: u32, tid: u32) -> Vec<Record> {
        self.state
            .lock()
            .tracks
            .get(&(node, tid))
            .map(|t| t.ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// All tracks, in `(node, tid)` order:
    /// `(node, tid, name, records, dropped)`.
    pub fn dump(&self) -> Vec<(u32, u32, String, Vec<Record>, u64)> {
        self.state
            .lock()
            .tracks
            .iter()
            .map(|(&(node, tid), t)| {
                (
                    node,
                    tid,
                    t.name.clone(),
                    t.ring.iter().cloned().collect(),
                    t.dropped,
                )
            })
            .collect()
    }

    /// Total records currently held across all rings.
    pub fn len(&self) -> usize {
        self.state.lock().tracks.values().map(|t| t.ring.len()).sum()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.event(0, 1, i, EventKind::SendPosted, i);
        }
        let records = rec.records(0, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            Record::Instant {
                at_ns: 3,
                kind: EventKind::SendPosted,
                arg: 3
            }
        );
        let dump = rec.dump();
        assert_eq!(dump[0].4, 3, "three oldest records dropped");
    }

    #[test]
    fn spans_clamp_negative_duration() {
        let rec = FlightRecorder::new(16);
        rec.span(1, 2, "backwards", 10, 5);
        match &rec.records(1, 2)[0] {
            Record::Span { start_ns, end_ns, .. } => {
                assert_eq!((*start_ns, *end_ns), (10, 10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
