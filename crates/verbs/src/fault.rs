//! Deterministic fault injection: virtual-time-scheduled failure events.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s, each anchored at
//! a virtual-time offset from the start of the simulation. The plan is
//! installed when the [`crate::VerbsRuntime`] is created: window-style
//! faults (UD loss bursts, receiver pauses) become static schedules the
//! delivery hot paths consult, while state-mutating faults (link flaps,
//! degradation, stragglers, QP failures) are executed by the simulation
//! kernel's event queue at exactly their trigger time. Every activation
//! and deactivation is recorded as a `fault_begin`/`fault_end` event on
//! the affected node's hardware track and counted in the `fault.injected`
//! series, so traces show precisely which fault a latency cliff or a
//! query restart corresponds to.
//!
//! Determinism: the plan itself is data, the kernel's event queue is
//! ordered by `(time, seq)`, and window checks are pure functions of the
//! virtual clock — two runs with the same plan and seed are
//! byte-identical.

use std::fmt;

use rshuffle_simnet::{NodeId, SimDuration};

/// Which Queue Pairs a persistent QP-failure window kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpScope {
    /// Only Reliable Connection QPs fail (links stay up for UD traffic).
    Rc,
    /// Every QP on the node fails, regardless of transport service.
    All,
}

/// One scheduled failure on `node`, anchored `at` virtual time after
/// simulation start. A window fault ends `duration` later; the one-shot
/// QP failure has none. Built by the [`FaultPlan`] methods, one per kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub(crate) node: NodeId,
    pub(crate) at: SimDuration,
    pub(crate) duration: Option<SimDuration>,
    pub(crate) kind: FaultKind,
}

/// What fails, with what only that kind of failure needs to know.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FaultKind {
    /// The node's switch port goes down. InfiniBand links are lossless, so
    /// in-window traffic stalls (and resumes at recovery) rather than
    /// dropping — long flaps therefore surface as endpoint stall timeouts,
    /// short ones as latency spikes.
    LinkFlap,
    /// The node's port runs at `bandwidth_factor` (0 < factor ≤ 1) of
    /// nominal bandwidth with `extra_latency` added one way per message.
    LinkDegrade {
        bandwidth_factor: f64,
        extra_latency: SimDuration,
    },
    /// UD datagrams sent from the node are dropped with `drop_probability`,
    /// sampled per datagram (burst loss, §4.4.2).
    UdLossBurst { drop_probability: f64 },
    /// Every `SimContext::sleep` on the node stretches by `slowdown` (> 1:
    /// a straggling CPU).
    Straggler { slowdown: f64 },
    /// Receives on the node stop matching incoming messages, as if the
    /// application stopped posting receives: RC senders take the RNR-retry
    /// path, UD datagrams drop unmatched.
    ReceiverPause,
    /// Every RC QP on the node transitions to the error state at `at`;
    /// queued receives are flushed with error status and subsequent sends
    /// targeting the node complete with a flush error.
    QpFailure,
    /// A *persistent* QP fault: every QP in `scope` on the node fails at
    /// `at`, and any QP used on the node while the window is open is forced
    /// into the error state on first touch. Unlike the one-shot `QpFailure`,
    /// QPs rebuilt inside the window keep failing — the fault models
    /// a broken HCA port rather than a transient glitch, and is what drives
    /// retry budgets and algorithm degradation in the recovery layer.
    QpFailureWindow { scope: QpScope },
}

impl FaultEvent {
    /// The node this fault targets.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// When the fault activates (offset from simulation start).
    pub fn at(&self) -> SimDuration {
        self.at
    }

    /// Stable numeric code used in the `fault_begin`/`fault_end` trace
    /// events (`arg = code << 32 | node`).
    pub fn code(&self) -> u64 {
        self.tag().0
    }

    /// The code, and the name [`fmt::Display`] prints.
    fn tag(&self) -> (u64, &'static str) {
        match self.kind {
            FaultKind::LinkFlap => (1, "link-flap"),
            FaultKind::LinkDegrade { .. } => (2, "link-degrade"),
            FaultKind::UdLossBurst { .. } => (3, "ud-loss-burst"),
            FaultKind::Straggler { .. } => (4, "straggler"),
            FaultKind::ReceiverPause => (5, "receiver-pause"),
            FaultKind::QpFailure => (6, "qp-failure"),
            FaultKind::QpFailureWindow { .. } => (7, "qp-failure-window"),
        }
    }

    /// The trace-event argument: fault code in the high word, node in
    /// the low word.
    pub fn obs_arg(&self) -> u64 {
        (self.code() << 32) | self.node as u64
    }
}

impl fmt::Display for FaultEvent {
    /// Human-readable one-line form, used by the chaos bench table and
    /// `diag` instead of the numeric [`FaultEvent::code`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |d: SimDuration| d.as_nanos() as f64 / 1_000.0;
        let (name, node) = (self.tag().1, self.node);
        write!(f, "{name}(node {node} @ {:.0}µs", us(self.at))?;
        if let Some(duration) = self.duration {
            write!(f, " for {:.0}µs", us(duration))?;
        }
        match self.kind {
            FaultKind::LinkDegrade {
                bandwidth_factor,
                extra_latency,
            } => write!(
                f,
                ", {:.0}% bw, +{:.1}µs",
                bandwidth_factor * 100.0,
                us(extra_latency)
            )?,
            FaultKind::UdLossBurst { drop_probability } => write!(f, ", p={drop_probability}")?,
            FaultKind::Straggler { slowdown } => write!(f, ", {slowdown}x")?,
            FaultKind::QpFailureWindow { scope } => f.write_str(match scope {
                QpScope::Rc => ", rc",
                QpScope::All => ", all",
            })?,
            FaultKind::LinkFlap | FaultKind::ReceiverPause | FaultKind::QpFailure => {}
        }
        f.write_str(")")
    }
}

/// A deterministic schedule of failures for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events, in the order they were added.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a `kind` fault on `node` at `at`, `duration` long if a window.
    fn with(
        mut self,
        node: NodeId,
        at: SimDuration,
        duration: Option<SimDuration>,
        kind: FaultKind,
    ) -> Self {
        self.events.push(FaultEvent {
            node,
            at,
            duration,
            kind,
        });
        self
    }

    /// Adds a link flap (port down for `duration` starting at `at`).
    pub fn link_flap(self, node: NodeId, at: SimDuration, duration: SimDuration) -> Self {
        self.with(node, at, Some(duration), FaultKind::LinkFlap)
    }

    /// Adds a link degradation window.
    pub fn link_degrade(
        self,
        node: NodeId,
        at: SimDuration,
        duration: SimDuration,
        bandwidth_factor: f64,
        extra_latency: SimDuration,
    ) -> Self {
        let kind = FaultKind::LinkDegrade {
            bandwidth_factor,
            extra_latency,
        };
        self.with(node, at, Some(duration), kind)
    }

    /// Adds a burst UD loss window on `node`'s outgoing datagrams.
    pub fn ud_loss_burst(
        self,
        node: NodeId,
        at: SimDuration,
        duration: SimDuration,
        drop_probability: f64,
    ) -> Self {
        let kind = FaultKind::UdLossBurst { drop_probability };
        self.with(node, at, Some(duration), kind)
    }

    /// Adds a straggler window (CPU work on `node` stretched by
    /// `slowdown`).
    pub fn straggler(
        self,
        node: NodeId,
        at: SimDuration,
        duration: SimDuration,
        slowdown: f64,
    ) -> Self {
        let kind = FaultKind::Straggler { slowdown };
        self.with(node, at, Some(duration), kind)
    }

    /// Adds a receiver-pause window on `node`.
    pub fn receiver_pause(self, node: NodeId, at: SimDuration, duration: SimDuration) -> Self {
        self.with(node, at, Some(duration), FaultKind::ReceiverPause)
    }

    /// Adds an RC QP failure on `node` at `at`.
    pub fn qp_failure(self, node: NodeId, at: SimDuration) -> Self {
        self.with(node, at, None, FaultKind::QpFailure)
    }

    /// Adds a persistent QP failure window on `node`: in-scope QPs fail
    /// at `at` and any QP used during the window fails on first touch.
    pub fn qp_failure_window(
        self,
        node: NodeId,
        at: SimDuration,
        duration: SimDuration,
        scope: QpScope,
    ) -> Self {
        let kind = FaultKind::QpFailureWindow { scope };
        self.with(node, at, Some(duration), kind)
    }
}

/// A `[start, end)` window with a payload, consulted by delivery paths.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    pub(crate) node: NodeId,
    pub(crate) start: SimDuration,
    pub(crate) end: SimDuration,
}

impl Window {
    pub(crate) fn contains(&self, node: NodeId, now_ns: u64) -> bool {
        node == self.node && now_ns >= self.start.as_nanos() && now_ns < self.end.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let plan = FaultPlan::new()
            .link_flap(0, SimDuration::from_micros(10), SimDuration::from_micros(5))
            .qp_failure(1, SimDuration::from_micros(20));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].node(), 0);
        assert_eq!(plan.events[0].code(), 1);
        assert_eq!(plan.events[1].node(), 1);
        assert_eq!(plan.events[1].code(), 6);
        assert_eq!(plan.events[1].obs_arg(), (6 << 32) | 1);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn qp_failure_window_event_shape() {
        let plan = FaultPlan::new().qp_failure_window(
            2,
            SimDuration::from_micros(30),
            SimDuration::from_micros(100),
            QpScope::Rc,
        );
        assert_eq!(plan.events[0].node(), 2);
        assert_eq!(plan.events[0].at(), SimDuration::from_micros(30));
        assert_eq!(plan.events[0].code(), 7);
        assert_eq!(plan.events[0].obs_arg(), (7 << 32) | 2);
    }

    #[test]
    fn display_is_human_readable() {
        let us = SimDuration::from_micros;
        let plan = FaultPlan::new()
            .qp_failure_window(1, us(20), us(150), QpScope::All)
            .qp_failure(0, us(5))
            .link_flap(3, us(10), us(40))
            .link_degrade(2, us(10), us(40), 0.25, SimDuration::from_nanos(1_500))
            .ud_loss_burst(0, us(1), us(2), 0.5)
            .straggler(1, us(1), us(2), 4.0)
            .receiver_pause(2, us(3), us(4));
        let shown: Vec<String> = plan.events.iter().map(FaultEvent::to_string).collect();
        let expected = [
            "qp-failure-window(node 1 @ 20µs for 150µs, all)",
            "qp-failure(node 0 @ 5µs)",
            "link-flap(node 3 @ 10µs for 40µs)",
            "link-degrade(node 2 @ 10µs for 40µs, 25% bw, +1.5µs)",
            "ud-loss-burst(node 0 @ 1µs for 2µs, p=0.5)",
            "straggler(node 1 @ 1µs for 2µs, 4x)",
            "receiver-pause(node 2 @ 3µs for 4µs)",
        ];
        assert_eq!(shown, expected);
    }

    #[test]
    fn window_is_half_open() {
        let w = Window {
            node: 2,
            start: SimDuration::from_nanos(100),
            end: SimDuration::from_nanos(200),
        };
        assert!(!w.contains(2, 99));
        assert!(w.contains(2, 100));
        assert!(w.contains(2, 199));
        assert!(!w.contains(2, 200));
        assert!(!w.contains(1, 150));
    }
}
