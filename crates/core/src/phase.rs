//! Phase-scheduled all-to-all: contention-free communication rounds.
//!
//! A naive N×N repartition lets every node push to every other node at
//! once; on an oversubscribed fat-tree the shared ingress port of each
//! receiver (and the leaf downlink in front of it) then serves up to
//! N−1 concurrent senders and collapses under incast. Rödiger et al.
//! ("High-Speed Query Processing over High-Speed Networks") keep RDMA
//! shuffles at line rate by scheduling the transfer at the application
//! layer into *phases*: in each round every node sends to exactly one
//! peer and receives from exactly one peer, so no link in the fabric
//! ever carries more than one bulk flow per direction.
//!
//! Two schedule constructions, both pure functions of their inputs
//! (deterministic — same matrix, same schedule):
//!
//! * **Naive** ([`PhasePolicy::Naive`]): the classic Latin-square
//!   rotation, phase `p` pairing `src → (src + p) mod N`. All present
//!   pairs are covered exactly once in at most `N` phases.
//! * **Skew-aware** ([`PhasePolicy::SkewAware`]): heavy *sources*
//!   (row total above [`HEAVY_SOURCE_FACTOR`] × the mean row) are
//!   exempted from the schedule entirely and stream unphased, while the
//!   remaining near-uniform sources follow the rotation. The insight:
//!   source-volume skew creates no ingress contention — one heavy
//!   sender spraying a repartition hash touches every destination port
//!   exactly once at a time — so forcing it through the lockstep
//!   barrier only stretches every round to the heavy row's edge and
//!   serialises the cluster behind the tail. Exempting it adds at most
//!   `k` extra concurrent senders per ingress port (`k` = number of
//!   heavy sources, < N/2 by construction and in practice a handful),
//!   which stays below any realistic incast knee, while the schedule
//!   keeps the remaining (N−k)² flows contention-free. On a uniform
//!   matrix no source is exempt and the schedule degenerates to the
//!   naive rotation.
//!
//! [`PhaseRunner`] executes a schedule at run time: an abortable
//! generation barrier (same shape as `simnet::SimBarrier`, plus an
//! [`abort`](PhaseRunner::abort) escape hatch) that all sender threads
//! cross between rounds, so a fault on any worker releases the whole
//! barrier instead of deadlocking the remaining senders.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_obs::{names, Counter, EventKind, Histogram, Labels, Obs};
use rshuffle_simnet::{Gate, Kernel, NodeId, SimContext, SimDuration};

use crate::error::{Result, ShuffleError};

/// Whether, and how, an [`crate::Exchange`] phase-schedules its
/// all-to-all transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PhasePolicy {
    /// No phasing: the operator interleaves destinations freely, the
    /// run is byte-identical to the pre-phase code path.
    #[default]
    Off,
    /// Latin-square rotation over the node set (uniform phases).
    Naive,
    /// Latin-square rotation over the *constrained* sources only:
    /// sources whose estimated row total exceeds
    /// [`HEAVY_SOURCE_FACTOR`] × the mean row are exempted and stream
    /// unphased (source skew causes no ingress contention, so phasing
    /// the tail-dominating sender is pure cost).
    SkewAware,
}

/// A source whose estimated row total exceeds this factor times the
/// mean row total is exempted from a [`PhasePolicy::SkewAware`]
/// schedule and transmits unphased. At most `N / factor` sources can
/// exceed the threshold, so the constrained majority always exists.
pub const HEAVY_SOURCE_FACTOR: f64 = 2.0;

/// Phases per barrier crossing (a *super-round*). The cluster-wide
/// barrier exists to bound how far senders drift apart in the
/// schedule: if every sender is within `G − 1` phases of the slowest,
/// an ingress port serves at most `G` bulk senders at once. Crossing
/// the barrier only every `G` phases therefore keeps the port load
/// within any incast knee ≥ `G` while (a) paying the barrier wake only
/// `1/G` as often and (b) letting a lane that ran long in one phase
/// catch up inside the super-round instead of stretching every peer's
/// round to the per-phase maximum. The per-destination endpoint
/// quiesce still paces each phase, so drift inside a super-round is
/// additionally bounded by the send window.
pub const PHASE_GROUP: usize = 3;

impl PhasePolicy {
    /// Parses `"off"`, `"naive"`, `"skew"` / `"skew-aware"`
    /// (case-insensitive).
    pub fn parse(name: &str) -> Option<PhasePolicy> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Some(PhasePolicy::Off),
            "naive" => Some(PhasePolicy::Naive),
            "skew" | "skew-aware" | "skewaware" => Some(PhasePolicy::SkewAware),
            _ => None,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PhasePolicy::Off => "off",
            PhasePolicy::Naive => "naive",
            PhasePolicy::SkewAware => "skew-aware",
        }
    }

    /// `true` when the policy actually schedules phases.
    pub fn enabled(&self) -> bool {
        !matches!(self, PhasePolicy::Off)
    }
}

/// One scheduled round: the `(src, dst, bytes)` edges active in it.
/// Within a phase no node appears twice as a source and no node twice
/// as a destination (a partial matching), so every fabric port serves
/// at most one bulk flow per direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Active `(src, dst, estimated bytes)` transfers, sorted by src.
    pub edges: Vec<(NodeId, NodeId, u64)>,
}

impl Phase {
    /// Sum of the phase's edge weights (bytes crossing the fabric).
    pub fn total_bytes(&self) -> u64 {
        self.edges.iter().map(|&(_, _, b)| b).sum()
    }

    /// Heaviest single edge — the phase's *length*: with every edge
    /// running contention-free at line rate, the round ends when its
    /// largest transfer does.
    pub fn max_edge_bytes(&self) -> u64 {
        self.edges.iter().map(|&(_, _, b)| b).max().unwrap_or(0)
    }
}

/// A complete phase schedule for one transmission: an ordered sequence
/// of partial matchings covering every nonzero `(src, dst)` pair of the
/// transfer matrix exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSchedule {
    nodes: usize,
    policy: PhasePolicy,
    phases: Vec<Phase>,
    /// `dest[phase][src]` — the destination `src` serves in `phase`
    /// (`None` when it sits the round out).
    dest: Vec<Vec<Option<NodeId>>>,
    /// Sources exempted from the schedule (heavy rows under
    /// [`PhasePolicy::SkewAware`]); they transmit unphased and never
    /// cross the barrier. Always all-false for the naive rotation.
    free: Vec<bool>,
}

impl PhaseSchedule {
    /// Builds a schedule for the `nodes × nodes` transfer matrix
    /// `bytes` (`bytes[src][dst]`, zero meaning "no transfer"). Self
    /// edges (`src == dst`) are legal — loopback traffic never crosses
    /// the fabric but the operator still sends it somewhere, so it is
    /// scheduled like any other edge.
    ///
    /// Returns a [`ShuffleError::Config`] if `bytes` is not square or
    /// the policy is [`PhasePolicy::Off`] (an Off exchange must not
    /// build a schedule at all — constructing one anyway is a wiring
    /// bug, not a quiet no-op).
    pub fn build(policy: PhasePolicy, bytes: &[Vec<u64>]) -> Result<PhaseSchedule> {
        let nodes = bytes.len();
        if bytes.iter().any(|row| row.len() != nodes) {
            return Err(ShuffleError::Config(format!(
                "phase schedule: transfer matrix must be square ({nodes} rows)"
            )));
        }
        let free = match policy {
            PhasePolicy::Off => {
                return Err(ShuffleError::Config(
                    "phase schedule requested with PhasePolicy::Off".to_string(),
                ))
            }
            PhasePolicy::Naive => vec![false; nodes],
            PhasePolicy::SkewAware => heavy_sources(bytes),
        };
        let phases = rotation_phases(bytes, &free);
        let mut dest = vec![vec![None; nodes]; phases.len()];
        for (p, phase) in phases.iter().enumerate() {
            for &(src, dst, _) in &phase.edges {
                dest[p][src] = Some(dst);
            }
        }
        Ok(PhaseSchedule {
            nodes,
            policy,
            phases,
            dest,
            free,
        })
    }

    /// Uniform all-to-all estimate for `nodes` nodes: every ordered
    /// pair (including self) weighted equally. The schedule then covers
    /// the complete matrix, so an operator following it can route any
    /// hash outcome.
    pub fn uniform_bytes(nodes: usize) -> Vec<Vec<u64>> {
        vec![vec![1; nodes]; nodes]
    }

    /// Transfer-matrix estimate from per-source totals (e.g. the
    /// Zipf-skewed per-node volumes of `bench::skew`): a repartition
    /// hash spreads each source's rows uniformly over all
    /// destinations, so row `src` gets `total / nodes` per destination,
    /// clamped to ≥ 1 so every pair stays schedulable.
    pub fn estimate_from_source_totals(totals: &[u64]) -> Vec<Vec<u64>> {
        let nodes = totals.len();
        totals
            .iter()
            .map(|&t| vec![(t / nodes.max(1) as u64).max(1); nodes])
            .collect()
    }

    /// Number of scheduled rounds.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Cluster size the schedule was built for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Policy that produced the schedule.
    pub fn policy(&self) -> PhasePolicy {
        self.policy
    }

    /// The scheduled rounds, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Destination `src` serves in round `phase`, if any.
    pub fn dest_of(&self, phase: usize, src: NodeId) -> Option<NodeId> {
        self.dest.get(phase).and_then(|row| row.get(src)).copied().flatten()
    }

    /// `true` when `src` is exempted from the schedule (a heavy source
    /// under [`PhasePolicy::SkewAware`]): it transmits unphased and
    /// must not be counted as a barrier party.
    pub fn is_free(&self, src: NodeId) -> bool {
        self.free.get(src).copied().unwrap_or(false)
    }

    /// The exempted (unphased) sources, in node order.
    pub fn free_sources(&self) -> Vec<NodeId> {
        self.free
            .iter()
            .enumerate()
            .filter_map(|(n, &f)| f.then_some(n))
            .collect()
    }

    /// Length of the longest round (heaviest single edge over all
    /// phases) — what a skew-aware schedule minimises.
    pub fn worst_phase_len(&self) -> u64 {
        self.phases.iter().map(Phase::max_edge_bytes).max().unwrap_or(0)
    }
}

/// Latin-square rotation over the sources that are not `free`: phase `p`
/// pairs `src → (src + p) mod N`. Each of the `N` rotations is a perfect
/// matching on the complete graph (with self loops at `p = 0`),
/// restricted here to the pairs actually present in the matrix;
/// rotations with no present pairs are dropped.
fn rotation_phases(bytes: &[Vec<u64>], free: &[bool]) -> Vec<Phase> {
    let n = bytes.len();
    let mut phases = Vec::new();
    for p in 0..n {
        let mut edges = Vec::new();
        for (src, row) in bytes.iter().enumerate() {
            if free[src] {
                continue;
            }
            let dst = (src + p) % n;
            if row[dst] > 0 {
                edges.push((src, dst, row[dst]));
            }
        }
        if !edges.is_empty() {
            phases.push(Phase { edges });
        }
    }
    phases
}

/// The sources a skew-aware schedule exempts.
///
/// Sources whose row total exceeds [`HEAVY_SOURCE_FACTOR`] × the mean
/// (over rows with any traffic) are marked *free*: a barrier schedule
/// would stretch every round to the heavy row's edge and pay the
/// per-round fixed cost `N` times on the critical path, yet a single
/// heavy sender spreads a repartition hash across every destination
/// and never concentrates on one ingress port — phasing it buys
/// nothing. The constrained (near-uniform) sources follow the same
/// Latin-square rotation as the naive schedule, restricted to their
/// rows, so the bulk of the matrix stays contention-free while each
/// free source adds at most one extra flow to any port. A uniform
/// matrix exempts nobody and the result equals the naive rotation.
fn heavy_sources(bytes: &[Vec<u64>]) -> Vec<bool> {
    let totals: Vec<u64> = bytes.iter().map(|row| row.iter().sum()).collect();
    let active = totals.iter().filter(|&&t| t > 0).count();
    let mean = if active == 0 {
        0.0
    } else {
        totals.iter().sum::<u64>() as f64 / active as f64
    };
    totals
        .iter()
        .map(|&t| mean > 0.0 && (t as f64) > HEAVY_SOURCE_FACTOR * mean)
        .collect()
}

/// Runtime coordinator for a phased transmission: all sender threads of
/// the exchange cross a generation barrier between rounds, so round
/// `p + 1` traffic never enters the fabric while round `p` is still
/// draining. The barrier is *abortable*: a worker that hits an error
/// calls [`abort`](PhaseRunner::abort), which releases every current
/// and future waiter with a typed error instead of leaving the
/// survivors parked forever — fault-injected phased runs must fail the
/// query, not hang the simulation.
pub struct PhaseRunner {
    schedule: PhaseSchedule,
    parties: usize,
    timeout: SimDuration,
    state: Mutex<BarrierState>,
    aborted: AtomicBool,
    obs: PhaseObs,
}

struct BarrierState {
    arrived: usize,
    gate: Arc<Gate<()>>,
}

struct PhaseObs {
    obs: Arc<Obs>,
    phases_run: Arc<Counter>,
    barrier_wait: Arc<Histogram>,
}

/// Barrier wake handoff, matching `simnet::SimBarrier`.
const BARRIER_WAKE_LATENCY: SimDuration = SimDuration::from_nanos(100);

impl PhaseRunner {
    /// Builds a runner for `schedule`, crossed by `parties` sender
    /// threads (every lane of every sending node). `timeout` bounds a
    /// single barrier wait; a thread that waits longer aborts the
    /// whole runner (some peer died without reporting). Publishes
    /// `exchange.phases_run` / `exchange.phase_barrier_wait_ns` and
    /// per-phase trace instants into `obs`.
    pub fn with_obs(
        kernel: &Kernel,
        schedule: PhaseSchedule,
        parties: usize,
        timeout: SimDuration,
        obs: Arc<Obs>,
    ) -> Arc<PhaseRunner> {
        let gate = Arc::new(Gate::new(kernel, BARRIER_WAKE_LATENCY));
        let phase_obs = PhaseObs {
            phases_run: obs.metrics.counter(names::EXCHANGE_PHASES_RUN, Labels::GLOBAL),
            barrier_wait: obs
                .metrics
                .histogram(names::EXCHANGE_PHASE_BARRIER_WAIT_NS, Labels::GLOBAL),
            obs,
        };
        Arc::new(PhaseRunner {
            schedule,
            parties: parties.max(1),
            timeout,
            state: Mutex::new(BarrierState { arrived: 0, gate }),
            aborted: AtomicBool::new(false),
            obs: phase_obs,
        })
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// Sender threads expected at every barrier crossing.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all parties have arrived, then releases everyone
    /// into round `phase`. Returns an error (after waking all peers) if
    /// the runner was aborted or the wait exceeded the timeout.
    pub fn wait(&self, sim: &SimContext, phase: usize) -> Result<()> {
        if self.aborted.load(Ordering::Acquire) {
            return Err(ShuffleError::Stalled("phase barrier aborted"));
        }
        let started = sim.now();
        let gate = {
            let mut st = self.state.lock();
            st.arrived += 1;
            if st.arrived == self.parties {
                st.arrived = 0;
                let full = std::mem::replace(
                    &mut st.gate,
                    Arc::new(Gate::new(sim.kernel(), BARRIER_WAKE_LATENCY)),
                );
                for _ in 0..self.parties - 1 {
                    full.push(());
                }
                None
            } else {
                Some(st.gate.clone())
            }
        };
        if let Some(gate) = gate {
            match gate.recv_timeout(sim, self.timeout) {
                rshuffle_simnet::RecvTimeout::Value(()) => {}
                rshuffle_simnet::RecvTimeout::TimedOut => {
                    self.abort();
                    return Err(ShuffleError::Stalled("phase barrier timed out"));
                }
            }
        }
        if self.aborted.load(Ordering::Acquire) {
            return Err(ShuffleError::Stalled("phase barrier aborted"));
        }
        let po = &self.obs;
        po.phases_run.inc();
        po.barrier_wait
            .record(sim.now().as_nanos().saturating_sub(started.as_nanos()));
        po.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::PhaseBegin,
            phase as u64,
        );
        Ok(())
    }

    /// Aborts the runner: wakes every thread currently parked at the
    /// barrier and turns every future [`wait`](PhaseRunner::wait) into
    /// an immediate error. Idempotent.
    pub fn abort(&self) {
        if self.aborted.swap(true, Ordering::AcqRel) {
            return;
        }
        let st = self.state.lock();
        for _ in 0..self.parties {
            st.gate.push(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_set(s: &PhaseSchedule) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = s
            .phases()
            .iter()
            .flat_map(|p| p.edges.iter().map(|&(s, d, _)| (s, d)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Builds or panics — keeps the data-path unwrap/expect lint clean.
    fn build(policy: PhasePolicy, bytes: &[Vec<u64>]) -> PhaseSchedule {
        match PhaseSchedule::build(policy, bytes) {
            Ok(s) => s,
            Err(e) => panic!("schedule must build: {e}"),
        }
    }

    #[test]
    fn naive_covers_complete_matrix_once() {
        let n = 5;
        let s = build(PhasePolicy::Naive, &PhaseSchedule::uniform_bytes(n));
        assert_eq!(s.num_phases(), n);
        let pairs = pair_set(&s);
        assert_eq!(pairs.len(), n * n);
        let mut deduped = pairs.clone();
        deduped.dedup();
        assert_eq!(pairs, deduped, "every pair exactly once");
    }

    #[test]
    fn phases_are_partial_matchings() {
        let mut bytes = PhaseSchedule::uniform_bytes(6);
        bytes[0][3] = 1000;
        bytes[2][3] = 400;
        for policy in [PhasePolicy::Naive, PhasePolicy::SkewAware] {
            let s = build(policy, &bytes);
            for phase in s.phases() {
                let mut srcs: Vec<_> = phase.edges.iter().map(|e| e.0).collect();
                let mut dsts: Vec<_> = phase.edges.iter().map(|e| e.1).collect();
                srcs.sort_unstable();
                dsts.sort_unstable();
                let (ls, ld) = (srcs.len(), dsts.len());
                srcs.dedup();
                dsts.dedup();
                assert_eq!(ls, srcs.len(), "{policy:?}: src repeated in a phase");
                assert_eq!(ld, dsts.len(), "{policy:?}: dst repeated in a phase");
            }
        }
    }

    #[test]
    fn skew_aware_exempts_heavy_sources_and_rotates_the_rest() {
        let mut bytes = PhaseSchedule::uniform_bytes(8);
        bytes[1][4] = 1 << 20;
        bytes[1][5] = 1 << 19;
        bytes[6][4] = 1 << 18;
        let naive = build(PhasePolicy::Naive, &bytes);
        let skew = build(PhasePolicy::SkewAware, &bytes);
        // Row 1 dominates the matrix and is exempted; row 6's bump stays
        // under HEAVY_SOURCE_FACTOR × mean and remains constrained.
        assert_eq!(skew.free_sources(), vec![1]);
        assert!(!skew.is_free(6));
        // Scheduled pairs = all present pairs minus the free source's rows.
        let expected: Vec<(NodeId, NodeId)> = pair_set(&naive)
            .into_iter()
            .filter(|&(s, _)| !skew.is_free(s))
            .collect();
        assert_eq!(pair_set(&skew), expected, "constrained pairs covered once");
        // With the heavy row out of the schedule, no phase ever waits on it.
        assert!(skew.worst_phase_len() <= naive.worst_phase_len());
        assert_eq!(skew.worst_phase_len(), 1 << 18);
    }

    #[test]
    fn skew_aware_on_uniform_matrix_equals_naive() {
        let bytes = PhaseSchedule::uniform_bytes(6);
        let naive = build(PhasePolicy::Naive, &bytes);
        let skew = build(PhasePolicy::SkewAware, &bytes);
        assert!(skew.free_sources().is_empty());
        assert_eq!(naive.phases(), skew.phases());
    }

    #[test]
    fn off_policy_refuses_to_build() {
        let err = PhaseSchedule::build(PhasePolicy::Off, &PhaseSchedule::uniform_bytes(2));
        assert!(matches!(err, Err(ShuffleError::Config(_))));
    }

    #[test]
    fn dest_of_matches_edges() {
        let s = build(PhasePolicy::Naive, &PhaseSchedule::uniform_bytes(4));
        for (p, phase) in s.phases().iter().enumerate() {
            for &(src, dst, _) in &phase.edges {
                assert_eq!(s.dest_of(p, src), Some(dst));
            }
        }
        assert_eq!(s.dest_of(99, 0), None);
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [PhasePolicy::Off, PhasePolicy::Naive, PhasePolicy::SkewAware] {
            assert_eq!(PhasePolicy::parse(p.label()), Some(p));
        }
        assert_eq!(PhasePolicy::parse("bogus"), None);
    }
}
