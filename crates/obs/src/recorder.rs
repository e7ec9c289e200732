//! Bounded flight recorder: typed events and spans stamped with virtual
//! time, kept in a drop-oldest ring per track.
//!
//! A *track* is one timeline in the exported trace — `(node, tid)` maps
//! directly onto Chrome trace `pid`/`tid`. Track 0 on each node is the
//! hardware track (NIC pipeline, fault injection); simulated threads get
//! `tid = thread index + 1`.
//!
//! A ring holds 17-byte slots, not [`Record`]s: a span's name and end
//! sit in a per-track table that loses its front whenever a span slot
//! falls off the ring, and [`FlightRecorder::records`] decodes both.
//!
//! The simulation kernel runs one simulated thread at a time, so the
//! single mutex here is effectively uncontended and recording order is
//! deterministic for a fixed seed.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::KeyMap;

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
    /// flow (`arg` = query id).
    QueryCompleted,
    /// The recovery orchestrator re-established a failed queue pair
    /// (`arg` = reconnect attempt number, starting at 1).
    QpReconnect,
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

/// One ring entry: 17 bytes, against 40 for a [`Record`]. An instant
/// is stored whole; a span (`kind` is `None`) keeps its start here and
/// its name and end in the track's span table, `arg` being its sequence
/// number among the spans recorded on the track.
#[repr(C, packed)]
#[derive(Copy, Clone)]
struct Slot {
    at_ns: u64,
    arg: u64,
    kind: Option<EventKind>,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 17);

struct Track {
    node: u32,
    tid: u32,
    name: String,
    ring: VecDeque<Slot>,
    /// `(name, end_ns)` of every span slot in the ring, oldest first.
    spans: VecDeque<(Box<str>, u64)>,
    /// Sequence number of `spans[0]`: the spans that fell off the ring.
    spans_dropped: u64,
    dropped: u64,
}

impl Track {
    fn push(&mut self, slot: Slot, capacity: usize) {
        if self.ring.len() == capacity {
            if let Some(Slot { kind: None, .. }) = self.ring.pop_front() {
                self.spans.pop_front();
                self.spans_dropped += 1;
            }
            self.dropped += 1;
        }
        self.ring.push_back(slot);
    }

    fn push_span(&mut self, name: &str, start_ns: u64, end_ns: u64, capacity: usize) {
        let arg = self.spans_dropped + self.spans.len() as u64;
        let slot = Slot {
            at_ns: start_ns,
            arg,
            kind: None,
        };
        self.push(slot, capacity);
        self.spans.push_back((name.into(), end_ns));
    }

    fn records(&self) -> Vec<Record> {
        let decode = |&Slot { at_ns, arg, kind }: &Slot| match kind {
            Some(kind) => Record::Instant { at_ns, kind, arg },
            None => {
                let (name, end_ns) = &self.spans[(arg - self.spans_dropped) as usize];
                Record::Span {
                    name: name.to_string(),
                    start_ns: at_ns,
                    end_ns: *end_ns,
                }
            }
        };
        self.ring.iter().map(decode).collect()
    }
}

/// Tracks in the order they were first recorded into, found by
/// `(node, tid)`; only [`FlightRecorder::dump`] sorts them.
#[derive(Default)]
struct RecorderState {
    index: KeyMap<(u32, u32), usize>,
    tracks: Vec<Track>,
}

impl RecorderState {
    /// Track `(node, tid)`, created on first use.
    fn track(&mut self, node: u32, tid: u32) -> &mut Track {
        let tracks = &mut self.tracks;
        let at = *self.index.entry((node, tid)).or_insert_with(|| {
            tracks.push(Track {
                node,
                tid,
                name: String::new(),
                ring: VecDeque::new(),
                spans: VecDeque::new(),
                spans_dropped: 0,
                dropped: 0,
            });
            tracks.len() - 1
        });
        &mut self.tracks[at]
    }
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
        self.state.lock().track(node, tid).name = name.to_string();
    }

    /// Records a point event on `(node, tid)` at virtual time `at_ns`.
    #[inline]
    pub fn event(&self, node: u32, tid: u32, at_ns: u64, kind: EventKind, arg: u64) {
        let slot = Slot {
            at_ns,
            arg,
            kind: Some(kind),
        };
        self.state.lock().track(node, tid).push(slot, self.capacity);
    }

    /// Records a completed span on `(node, tid)`.
    #[inline]
    pub fn span(&self, node: u32, tid: u32, name: &str, start_ns: u64, end_ns: u64) {
        let end_ns = end_ns.max(start_ns);
        let mut st = self.state.lock();
        let track = st.track(node, tid);
        track.push_span(name, start_ns, end_ns, self.capacity);
    }

    /// Copies out one track's records in recording order.
    pub fn records(&self, node: u32, tid: u32) -> Vec<Record> {
        let st = self.state.lock();
        let track = st.index.get(&(node, tid)).map(|&at| &st.tracks[at]);
        track.map_or_else(Vec::new, Track::records)
    }

    /// All tracks, in `(node, tid)` order:
    /// `(node, tid, name, records, dropped)`.
    pub fn dump(&self) -> Vec<(u32, u32, String, Vec<Record>, u64)> {
        let st = self.state.lock();
        let mut tracks: Vec<&Track> = st.tracks.iter().collect();
        tracks.sort_unstable_by_key(|t| (t.node, t.tid));
        let dump = tracks
            .into_iter()
            .map(|t| (t.node, t.tid, t.name.clone(), t.records(), t.dropped));
        dump.collect()
    }

    /// Total records currently held across all rings.
    pub fn len(&self) -> usize {
        self.state.lock().tracks.iter().map(|t| t.ring.len()).sum()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ring as it was kept before slots: whole [`Record`]s in a
    /// drop-oldest `VecDeque` per track, tracks in first-use order.
    struct RecordRing {
        capacity: usize,
        tracks: Vec<(u32, u32, String, VecDeque<Record>, u64)>,
    }

    impl RecordRing {
        fn track(&mut self, node: u32, tid: u32) -> &mut (u32, u32, String, VecDeque<Record>, u64) {
            let tracks = &mut self.tracks;
            let at = tracks.iter().position(|t| (t.0, t.1) == (node, tid));
            let at = at.unwrap_or_else(|| {
                tracks.push((node, tid, String::new(), VecDeque::new(), 0));
                tracks.len() - 1
            });
            &mut tracks[at]
        }

        fn push(&mut self, node: u32, tid: u32, rec: Record) {
            let capacity = self.capacity;
            let track = self.track(node, tid);
            if track.3.len() == capacity {
                track.3.pop_front();
                track.4 += 1;
            }
            track.3.push_back(rec);
        }

        fn dump(&self) -> Vec<(u32, u32, String, Vec<Record>, u64)> {
            let mut dump: Vec<_> = self
                .tracks
                .iter()
                .map(|t| (t.0, t.1, t.2.clone(), t.3.iter().cloned().collect(), t.4))
                .collect();
            dump.sort_unstable_by_key(|t| (t.0, t.1));
            dump
        }
    }

    const KINDS: [EventKind; 4] = [
        EventKind::SendPosted,
        EventKind::CompletionPolled,
        EventKind::QpCacheMiss,
        EventKind::PhaseBegin,
    ];
    const NAMES: [&str; 3] = ["", "thread", "credit_stall"];

    proptest! {
        /// Random events, spans and track names on random tracks read
        /// back exactly as the whole-record ring kept them, drops
        /// included, and the span table holds one entry per span slot.
        #[test]
        fn slots_decode_to_the_record_ring(
            capacity in 1usize..=8,
            ops in prop::collection::vec(any::<u64>(), 0..200),
        ) {
            let rec = FlightRecorder::new(capacity);
            let mut model = RecordRing { capacity, tracks: Vec::new() };
            for op in ops {
                let (node, tid) = ((op >> 2) as u32 % 3, (op >> 4) as u32 % 3);
                let at_ns = (op >> 8) % 1000;
                let arg = op >> 20;
                let name = NAMES[(op >> 6) as usize % NAMES.len()];
                match op % 3 {
                    0 => {
                        let kind = KINDS[(op >> 18) as usize % KINDS.len()];
                        rec.event(node, tid, at_ns, kind, arg);
                        model.push(node, tid, Record::Instant { at_ns, kind, arg });
                    }
                    1 => {
                        let end_ns = (op >> 32) % 1000;
                        rec.span(node, tid, name, at_ns, end_ns);
                        let span = Record::Span {
                            name: name.to_string(),
                            start_ns: at_ns,
                            end_ns: end_ns.max(at_ns),
                        };
                        model.push(node, tid, span);
                    }
                    _ => {
                        rec.name_track(node, tid, name);
                        model.track(node, tid).2 = name.to_string();
                    }
                }
            }
            let want = model.dump();
            prop_assert_eq!(rec.dump(), want.clone());
            for (node, tid, _, records, _) in &want {
                prop_assert_eq!(&rec.records(*node, *tid), records);
            }
            prop_assert_eq!(rec.len(), want.iter().map(|t| t.3.len()).sum::<usize>());
            for track in &rec.state.lock().tracks {
                let span_slots = track.ring.iter().filter(|s| s.kind.is_none()).count();
                prop_assert_eq!(track.spans.len(), span_slots);
            }
        }
    }

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

    #[test]
    fn dump_is_in_track_order_whatever_order_tracks_appear_in() {
        let rec = FlightRecorder::new(16);
        // Thread tracks first, the hardware track late, and a thread track
        // recorded under a node that is not its own (the recovery
        // coordinator records on node 0 with its own track id).
        rec.event(2, 7, 1, EventKind::SendPosted, 0);
        rec.event(1, 3, 2, EventKind::SendPosted, 0);
        rec.name_track(0, 9, "coordinator");
        rec.event(0, 9, 3, EventKind::QueryRestart, 1);
        rec.event(1, HW_TRACK, 4, EventKind::QpCacheMiss, 5);
        rec.event(2, 7, 5, EventKind::CompletionPolled, 0);
        rec.event(0, 2, 6, EventKind::SendPosted, 0);
        let dump = rec.dump();
        let order: Vec<(u32, u32, usize)> = dump.iter().map(|t| (t.0, t.1, t.3.len())).collect();
        let want = [(0, 2, 1), (0, 9, 1), (1, 0, 1), (1, 3, 1), (2, 7, 2)];
        assert_eq!(order, want);
        assert_eq!(dump[1].2, "coordinator");
        // Records keep their recording order within a track.
        let at: Vec<u64> = rec
            .records(2, 7)
            .iter()
            .map(|r| match r {
                Record::Instant { at_ns, .. } => *at_ns,
                Record::Span { start_ns, .. } => *start_ns,
            })
            .collect();
        assert_eq!(at, [1, 5]);
        assert_eq!(rec.len(), 6);
    }

    #[test]
    fn records_of_an_unknown_track_are_empty() {
        let rec = FlightRecorder::new(16);
        assert!(rec.is_empty());
        rec.event(1, 3, 2, EventKind::SendPosted, 0);
        for (node, tid) in [(1, 2), (3, 1), (0, 3)] {
            assert!(rec.records(node, tid).is_empty(), "({node}, {tid})");
        }
        assert_eq!(rec.dump().len(), 1);
    }
}
