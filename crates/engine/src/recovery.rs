//! The query coordinator: one recovery ladder from epoch-fenced
//! per-flow retry up to the paper's query restart (§4.4.2).
//!
//! The shuffling operators never retransmit: when the transport loses
//! data (UD message loss), a Queue Pair fails, or flow control stops
//! making progress, every endpoint surfaces a typed [`ShuffleError`]
//! instead of hanging. The coordinator here is the layer above that
//! contract. It runs a cluster-wide shuffle as a sequence of *attempts*,
//! collects every worker's result, and answers a transient failure with
//! the cheapest rung that can still finish the query:
//!
//! 1. **Epoch-fenced per-flow retry.** Receivers track a delivered-row
//!    watermark per flow (`(source node, source thread, destination
//!    node)`). On a QP-shaped failure the exchange is rebuilt with a
//!    bumped wire epoch and a fresh endpoint-id range; senders
//!    fast-forward past the watermarked rows (the deterministic child
//!    replay plus deterministic partition hash make the skip exact), and
//!    the epoch field in every message header fences off any straggler
//!    from the failed attempt. Work delivered before the failure is
//!    *kept*, not redone, and delivery stays exactly-once.
//! 2. **QP reconnect with backoff.** Before resuming, the coordinator
//!    probes the failed node by tearing down and re-establishing an RC
//!    Queue Pair ([`rshuffle_verbs::ConnectionManager::reconnect_rc`])
//!    and pushing one message through it, retrying under a capped
//!    exponential [`BackoffSchedule`] up to a per-episode budget. The
//!    resume only proceeds once the fabric demonstrably carries traffic
//!    again; a still-broken fabric surfaces as
//!    [`ShuffleError::RetryBudgetExhausted`] instead of a doomed retry.
//! 3. **Graceful degradation.** When the retry budget is exhausted the
//!    query steps down a sturdiness ladder ([`degrade`]) — one-sided RC
//!    designs fall back to two-sided RC, two-sided RC falls back to the
//!    UD design that does not depend on the broken connections — and
//!    resumes *mid-query* on the sturdier algorithm, still keeping the
//!    watermarked rows (every design delivers the same row set per
//!    destination).
//! 4. **Full restart** — the paper's own answer, and the only rung for
//!    datagram loss, multicast patterns and exhausted partial budgets:
//!    discard the generation, rebuild, back off (capped exponential, in
//!    virtual time, so recovery latency is measurable and
//!    deterministic) and replay the source from row zero. A policy with
//!    `max_partial_retries: 0` is exactly §4.4.2.
//!
//! Exactly-once delivery holds per *generation*, not per attempt: the
//! `sink` closure is told which generation each batch belongs to, and
//! only the generation the report names survives.
//!
//! All recovery activity is observable: `engine.restarts`,
//! `engine.recovery_ns`, `engine.partial_retries`,
//! `engine.qp_reconnects`, `engine.degraded`, `engine.kept_bytes` and
//! `engine.redone_bytes` counters, plus `query_restart`,
//! `query_recovered`, `partial_retry`, `qp_reconnect`, `flow_resumed`,
//! `query_degraded` flight-recorder events on the coordinator track. On
//! a healthy run none of this machinery executes and the wire traffic
//! is byte-identical to the pre-recovery stack (epoch 0 in every
//! header).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{
    CostModel, EndpointImpl, Exchange, ExchangeConfig, Operator, RowBatch, ShuffleAlgorithm,
    ShuffleError, StreamState,
};
use rshuffle_obs::{names, EventKind, Labels};
use rshuffle_simnet::{Gate, NodeId, SimContext, SimDuration};
use rshuffle_verbs::{ConnectionManager, QpType, RecvWr, SendWr, VerbsRuntime, WcStatus};

/// Payload bytes pushed through a probe QP to prove the fabric carries
/// traffic again.
const PROBE_BYTES: usize = 64;
/// Polling cadence while waiting for the probe send completion.
const PROBE_POLL: SimDuration = SimDuration::from_micros(2);
/// How long one probe waits for its send completion before counting
/// the attempt as failed.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_micros(200);
/// First backoff delay of a query's schedule (probe retries and full
/// restarts), and the cap it doubles up to.
const INITIAL_BACKOFF: SimDuration = SimDuration::from_micros(50);
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(1);
/// Least endpoint-id distance between consecutive rebuild attempts of
/// one query.
const MIN_ATTEMPT_ID_STRIDE: u32 = 4096;

/// Endpoint-id distance between consecutive rebuild attempts of a query
/// whose exchange mints `ids_minted` ids
/// ([`ExchangeConfig::endpoint_ids`]): wide enough that a retried flow
/// never aliases a fenced-off attempt's ids.
pub(crate) fn attempt_id_stride(ids_minted: u32) -> u32 {
    ids_minted.next_power_of_two().max(MIN_ATTEMPT_ID_STRIDE)
}

/// A capped exponential backoff schedule in virtual time: starts at
/// `initial`, doubles on every [`next`](BackoffSchedule::next) call and
/// saturates at `max` — monotone non-decreasing until the cap.
#[derive(Clone, Debug)]
pub struct BackoffSchedule {
    initial: SimDuration,
    max: SimDuration,
    cur: SimDuration,
}

impl BackoffSchedule {
    /// Creates the schedule: `initial` first, doubling to `max`.
    pub fn new(initial: SimDuration, max: SimDuration) -> Self {
        BackoffSchedule {
            initial,
            max,
            cur: initial,
        }
    }

    /// Returns the next delay and advances the schedule.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> SimDuration {
        let base = self.cur.min(self.max);
        self.cur = (base * 2).min(self.max);
        base
    }

    /// Rewinds the schedule to its initial delay (a new failure episode).
    pub fn reset(&mut self) {
        self.cur = self.initial;
    }
}

/// One rung down the sturdiness ladder: the same endpoint mode on a
/// less fragile transport, or `None` when already on the sturdiest
/// design.
///
/// One-sided RC designs (`MQ/RD`, `MQ/WR`) depend on remote descriptor
/// rings *and* per-peer connections; they fall back to two-sided RC
/// (`MQ/SR`). Two-sided RC still depends on per-peer connections; it
/// falls back to the single unreliable-datagram Queue Pair (`SQ/SR`),
/// which carries no connection state to break. `SQ/SR` has nowhere
/// sturdier to go.
pub fn degrade(algorithm: ShuffleAlgorithm) -> Option<ShuffleAlgorithm> {
    match algorithm.imp {
        EndpointImpl::MqRd | EndpointImpl::MqWr => Some(ShuffleAlgorithm {
            mode: algorithm.mode,
            imp: EndpointImpl::MqSr,
        }),
        EndpointImpl::MqSr => Some(ShuffleAlgorithm {
            mode: algorithm.mode,
            imp: EndpointImpl::SqSr,
        }),
        EndpointImpl::SqSr => None,
    }
}

/// Retry policy for [`run_shuffle_with_recovery`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Partial (same-generation) retries before escalating to a full
    /// restart. Degradation rungs count against this budget too.
    pub max_partial_retries: u32,
    /// Reconnect probes per failed node per failure episode; exhaustion
    /// surfaces [`ShuffleError::RetryBudgetExhausted`] and triggers
    /// degradation.
    pub reconnect_budget: u32,
    /// Whether the query may step down the [`degrade`] ladder when the
    /// reconnect budget is exhausted.
    pub allow_degradation: bool,
    /// Full restarts (discard everything, new generation) before the
    /// query gives up.
    pub max_full_restarts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_partial_retries: 4,
            reconnect_budget: 5,
            allow_degradation: true,
            max_full_restarts: 2,
        }
    }
}

/// Outcome of a recoverable query run, readable after `Cluster::run`.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Unique rows delivered to sinks in the surviving generation.
    pub rows: u64,
    /// Payload bytes of those rows.
    pub bytes: u64,
    /// Partial retries performed (epoch bumps that kept prior work).
    pub partial_retries: u32,
    /// Reconnect probe attempts across all failure episodes.
    pub qp_reconnects: u32,
    /// The rungs taken down the ladder, in order (empty = never
    /// degraded).
    pub degradations: Vec<ShuffleAlgorithm>,
    /// The design the query finished (or gave up) on.
    pub final_algorithm: ShuffleAlgorithm,
    /// Full restarts performed (generation bumps that discarded work).
    pub full_restarts: u32,
    /// The surviving generation (the one the query gave up in, on
    /// failure); sinks must discard batches tagged with any earlier one.
    pub generation: u32,
    /// Sink-visible bytes that bought no new rows: batches of discarded
    /// generations plus receiver-side duplicate drops.
    pub redone_bytes: u64,
    /// Watermarked bytes carried across partial retries instead of
    /// being replayed (summed over retries).
    pub kept_bytes: u64,
    /// Virtual time from the first observed failure to completion;
    /// `None` when no attempt failed.
    pub recovery: Option<SimDuration>,
    /// The representative error of each failed attempt, in order.
    pub attempt_errors: Vec<ShuffleError>,
    /// `Some(e)` when the query gave up; `None` on success.
    pub failure: Option<ShuffleError>,
}

impl RecoveryReport {
    pub(crate) fn new(algorithm: ShuffleAlgorithm) -> Self {
        RecoveryReport {
            rows: 0,
            bytes: 0,
            partial_retries: 0,
            qp_reconnects: 0,
            degradations: Vec::new(),
            final_algorithm: algorithm,
            full_restarts: 0,
            generation: 0,
            redone_bytes: 0,
            kept_bytes: 0,
            recovery: None,
            attempt_errors: Vec::new(),
            failure: None,
        }
    }

    /// True when some attempt delivered the query to completion.
    pub fn succeeded(&self) -> bool {
        self.failure.is_none()
    }
}

/// Delivered-row watermarks per flow `(src node, src thread, dst
/// node)`. The single source of truth for how far each flow got:
/// senders fast-forward to these counts on resume, receivers advance
/// them as unique rows reach the sink.
#[derive(Default)]
struct FlowLedger {
    rows: Mutex<BTreeMap<(usize, u16, usize), u64>>,
}

impl FlowLedger {
    fn get(&self, key: (usize, u16, usize)) -> u64 {
        self.rows.lock().get(&key).copied().unwrap_or(0)
    }

    /// Rows sender `(src, tid)` skips on resume for the group targeting
    /// `members`: the minimum delivered watermark across them.
    fn resume_skip(&self, src: usize, tid: usize, members: &[NodeId]) -> u64 {
        members
            .iter()
            .map(|&d| self.get((src, tid as u16, d)))
            .min()
            .unwrap_or(0)
    }

    fn advance(&self, key: (usize, u16, usize), n: u64) {
        *self.rows.lock().entry(key).or_insert(0) += n;
    }

    fn total_rows(&self) -> u64 {
        self.rows.lock().values().sum()
    }

    fn clear(&self) {
        self.rows.lock().clear();
    }
}

/// Shared accounting the recovery receive workers write into.
#[derive(Default)]
struct RecvAccounting {
    /// Rows and bytes delivered to the sink, per generation.
    per_generation: Mutex<BTreeMap<u32, (u64, u64)>>,
    /// Receiver-side duplicate rows dropped (bytes).
    dedup_dropped_bytes: Mutex<u64>,
    /// Outstanding per-flow duplicate drops, keyed
    /// `(dst node, src node, src tid)`; seeded before each resumed
    /// attempt, normally all zero (the sender skip is exact).
    pending_drops: Mutex<BTreeMap<(usize, usize, u16), u64>>,
}

/// Whether `config`'s transmission groups admit per-flow retry: every
/// group must target exactly one node and no two groups of a sender may
/// share a destination, so the per-destination row sequence is a
/// deterministic function of the source rows and the partition hash.
/// Multicast and broadcast patterns fall back to the full restart.
fn partial_eligible(config: &ExchangeConfig) -> bool {
    config.groups.iter().all(|g| {
        let mut seen = BTreeSet::new();
        g.iter().all(|members| members.len() == 1 && seen.insert(members[0]))
    })
}

/// Whether `e` looks like a broken Queue Pair (as opposed to datagram
/// loss or corrupt protocol state): a verbs-level failure, an errored
/// completion or a stall, with the runtime recording which nodes had
/// QPs forced into the error state. Only these failures are worth a
/// targeted reconnect; everything else goes to the full restart.
fn qp_shaped(e: &ShuffleError, runtime: &VerbsRuntime) -> bool {
    matches!(
        e,
        ShuffleError::Verbs(_) | ShuffleError::CompletionError(_) | ShuffleError::Stalled(_)
    ) && !runtime.failed_qp_nodes().is_empty()
}

/// Whether an error is worth a fresh attempt. Configuration errors and
/// impossible memory budgets are deterministic and would fail
/// identically; everything else (message loss, stalls, completion
/// errors, verbs failures) is transient fabric state that a rebuilt
/// exchange escapes.
fn restartable(e: &ShuffleError) -> bool {
    !matches!(
        e,
        ShuffleError::Config(_) | ShuffleError::BudgetImpossible { .. }
    )
}

/// How one attempt ended, as told to [`AttemptHooks::after_attempt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AttemptEnd {
    /// The attempt delivered the query to completion.
    Success,
    /// The attempt failed and the query goes on: a probe, a backoff or
    /// a rebuild follows (a fabric that never answers the probe can
    /// still end the query afterwards, holding nothing).
    Retry,
    /// The query gave up: non-restartable error, exhausted budgets, or
    /// the exchange would not build.
    Failure,
}

/// Per-attempt callbacks of the coordinator loop: the seam the
/// multi-query scheduler plugs into. `before_attempt` runs on the
/// coordinator thread before each exchange is built (admission — may
/// block in virtual time; an `Err` fails the query without running the
/// attempt); `after_attempt` runs once the attempt's outcome is known
/// (release). A recovering query therefore gives its slot back and
/// re-enters admission at the back of the queue instead of holding
/// resources while it probes or backs off.
pub(crate) struct AttemptHooks {
    pub(crate) before_attempt: BeforeAttempt,
    pub(crate) after_attempt: AfterAttempt,
}

type BeforeAttempt = Box<dyn Fn(&SimContext) -> Result<(), ShuffleError> + Send + Sync>;
type AfterAttempt = Box<dyn Fn(&SimContext, AttemptEnd) + Send + Sync>;

impl Default for AttemptHooks {
    fn default() -> Self {
        AttemptHooks {
            before_attempt: Box::new(|_| Ok(())),
            after_attempt: Box::new(|_, _| {}),
        }
    }
}

/// What one worker of an attempt reports to the coordinator.
type WorkerResult = Result<(), ShuffleError>;

/// Shared factory producing the source operator for a (generation,
/// node). Partial retries reuse the generation, so the factory must be
/// deterministic: the same `(generation, node)` yields the same rows in
/// the same order.
pub(crate) type GenSourceFactory = Arc<dyn Fn(u32, NodeId) -> Arc<dyn Operator> + Send + Sync>;

/// Shared sink receiving every delivered `(generation, node, tid,
/// batch)`. Rows within one generation are delivered exactly once; a
/// full restart bumps the generation and the caller must discard all
/// earlier generations.
pub(crate) type GenSink = Arc<dyn Fn(u32, NodeId, usize, &RowBatch) + Send + Sync>;

/// Runs a cluster-wide shuffle query under `policy`, recovering from
/// partial failures without discarding delivered work where possible.
///
/// For every attempt the coordinator (a simulated thread on node 0)
/// builds a fresh [`Exchange`] from `config`, spawns `config.threads`
/// send workers pumping `make_source(generation, node)` through the
/// shuffle operator and `config.threads` receive workers streaming
/// `row_size`-byte rows into `sink` on every node, then blocks until
/// all workers report. On a QP-shaped failure it (1) probes the failed
/// node with reconnect-with-backoff, (2) resumes the query under a
/// bumped epoch with senders fast-forwarded past the delivered
/// watermarks, (3) steps down the [`degrade`] ladder when the reconnect
/// budget is exhausted, and otherwise — or once the partial budget is
/// spent — (4) tears the exchange down, backs off and replays a new
/// generation from scratch.
///
/// `sink` receives `(generation, node, tid, batch)`; rows are delivered
/// exactly once per generation and only the final generation (see
/// [`RecoveryReport::generation`]) survives. `make_source(generation,
/// node)` must be deterministic per `(generation, node)`.
///
/// The returned report is populated when the simulation completes.
pub fn run_shuffle_with_recovery(
    runtime: &Arc<VerbsRuntime>,
    config: &ExchangeConfig,
    policy: RecoveryPolicy,
    row_size: usize,
    make_source: impl Fn(u32, NodeId) -> Arc<dyn Operator> + Send + Sync + 'static,
    sink: impl Fn(u32, NodeId, usize, &RowBatch) + Send + Sync + 'static,
) -> Arc<Mutex<RecoveryReport>> {
    let hooks = AttemptHooks::default();
    let (make_source, sink) = (Arc::new(make_source), Arc::new(sink));
    run_query(runtime, config, policy, row_size, make_source, sink, hooks)
}

/// The coordinator loop behind [`run_shuffle_with_recovery`], with the
/// per-attempt [`AttemptHooks`] that [`crate::workload::run_workload`]
/// fills with the scheduler's admit and release.
pub(crate) fn run_query(
    runtime: &Arc<VerbsRuntime>,
    config: &ExchangeConfig,
    policy: RecoveryPolicy,
    row_size: usize,
    make_source: GenSourceFactory,
    sink: GenSink,
    hooks: AttemptHooks,
) -> Arc<Mutex<RecoveryReport>> {
    let report = Arc::new(Mutex::new(RecoveryReport::new(config.algorithm)));
    let out = report.clone();
    let runtime = runtime.clone();
    let config = config.clone();
    let cluster = runtime.cluster().clone();
    let obs = cluster.obs().clone();
    cluster.clone().spawn(0, "query-coordinator", move |sim| {
        let cost = CostModel::from_profile(runtime.profile());
        let m = &obs.metrics;
        let partial_ctr = m.counter(names::ENGINE_PARTIAL_RETRIES, Labels::node(0));
        let reconnect_ctr = m.counter(names::ENGINE_QP_RECONNECTS, Labels::node(0));
        let degraded_ctr = m.counter(names::ENGINE_DEGRADED, Labels::node(0));
        let redone_ctr = m.counter(names::ENGINE_REDONE_BYTES, Labels::node(0));
        let kept_ctr = m.counter(names::ENGINE_KEPT_BYTES, Labels::node(0));
        let restarts_ctr = m.counter(names::ENGINE_RESTARTS, Labels::node(0));
        let recovery_ctr = m.counter(names::ENGINE_RECOVERY_NS, Labels::node(0));
        let track = sim.id().track();

        // `rep.final_algorithm` and `rep.generation` are the loop's own
        // state, so every exit reports the design and generation the
        // query was on.
        let mut rep = RecoveryReport::new(config.algorithm);
        let ledger = Arc::new(FlowLedger::default());
        let accounting = Arc::new(RecvAccounting::default());
        let eligible = partial_eligible(&config);
        let id_stride = attempt_id_stride(config.endpoint_ids());
        let mut epoch = 0u16;
        let mut rebuilds = 0u32;
        let mut first_failure = None;
        let mut backoff = BackoffSchedule::new(INITIAL_BACKOFF, MAX_BACKOFF);
        loop {
            // Admission (may block in virtual time); a hook error fails
            // the query before any resource is built.
            if let Err(e) = (hooks.before_attempt)(&sim) {
                rep.failure = Some(e);
                break;
            }
            let mut attempt_cfg = config.clone();
            attempt_cfg.algorithm = rep.final_algorithm;
            attempt_cfg.epoch = epoch;
            attempt_cfg.endpoint_id_base = config
                .endpoint_id_base
                .wrapping_add(rebuilds.wrapping_mul(id_stride));
            let attempt_started = sim.now();
            let exchange = match Exchange::build(&runtime, &attempt_cfg) {
                Ok(ex) => Arc::new(ex),
                Err(e) => {
                    (hooks.after_attempt)(&sim, AttemptEnd::Failure);
                    rep.failure = Some(e);
                    break;
                }
            };
            let done: Gate<WorkerResult> = Gate::new(cluster.kernel(), SimDuration::ZERO);
            let expected = spawn_attempt(
                &cluster,
                &exchange,
                &cost,
                rep.generation,
                rebuilds,
                row_size,
                &make_source,
                &sink,
                &ledger,
                &accounting,
                &done,
            );
            let mut first_err: Option<ShuffleError> = None;
            for _ in 0..expected {
                if let Err(e) = done.recv(&sim) {
                    first_err.get_or_insert(e);
                }
            }
            obs.recorder.span(
                0,
                track,
                &format!("recovery-attempt:g{}e{epoch}", rep.generation),
                attempt_started.as_nanos(),
                sim.now().as_nanos(),
            );
            // The attempt is over (every worker has pushed its result):
            // return the generation's pinned memory before any rebuild,
            // so a flow-tagged query never holds two exchanges' worth of
            // the scheduler's budget across a reconnect. A no-op for
            // untagged exchanges.
            exchange.release(&runtime);
            let Some(e) = first_err else {
                {
                    let per_gen = accounting.per_generation.lock();
                    (rep.rows, rep.bytes) =
                        per_gen.get(&rep.generation).copied().unwrap_or((0, 0));
                    rep.redone_bytes = per_gen
                        .iter()
                        .filter(|(g, _)| **g != rep.generation)
                        .map(|(_, v)| v.1)
                        .sum::<u64>()
                        + *accounting.dedup_dropped_bytes.lock();
                }
                redone_ctr.add(rep.redone_bytes);
                if let Some(at) = first_failure {
                    let recovery = sim.now() - at;
                    rep.recovery = Some(recovery);
                    recovery_ctr.add(recovery.as_nanos());
                    obs.recorder.event(
                        0,
                        track,
                        sim.now().as_nanos(),
                        EventKind::QueryRecovered,
                        recovery.as_nanos(),
                    );
                }
                (hooks.after_attempt)(&sim, AttemptEnd::Success);
                break;
            };
            first_failure.get_or_insert(sim.now());
            rep.attempt_errors.push(e.clone());
            // Rungs 1–3 answer a QP-shaped failure while the partial
            // budget lasts; rung 4 answers any restartable one.
            let partial = eligible
                && rep.partial_retries < policy.max_partial_retries
                && qp_shaped(&e, &runtime);
            let restart = restartable(&e) && rep.full_restarts < policy.max_full_restarts;
            if !(partial || restart) {
                (hooks.after_attempt)(&sim, AttemptEnd::Failure);
                rep.failure = Some(e);
                break;
            }
            // The slot goes back before any probe or backoff.
            (hooks.after_attempt)(&sim, AttemptEnd::Retry);
            let mut resumed = false;
            if partial {
                let probed = probe_failed_nodes(
                    &sim,
                    &runtime,
                    cluster.nodes(),
                    &policy,
                    &mut backoff,
                    &obs,
                    track,
                    &reconnect_ctr,
                    &mut rep.qp_reconnects,
                );
                match probed {
                    Ok(()) => resumed = true,
                    Err(budget_err) => {
                        // Rung 3: the fabric would not come back — step
                        // down the ladder and resume on a design that
                        // does not need the broken resource.
                        rep.attempt_errors.push(budget_err.clone());
                        match degrade(rep.final_algorithm) {
                            Some(next) if policy.allow_degradation => {
                                rep.final_algorithm = next;
                                rep.degradations.push(next);
                                degraded_ctr.inc();
                                obs.recorder.event(
                                    0,
                                    track,
                                    sim.now().as_nanos(),
                                    EventKind::QueryDegraded,
                                    algo_code(next),
                                );
                                runtime.clear_failed_qp_nodes();
                                resumed = true;
                            }
                            _ if rep.full_restarts >= policy.max_full_restarts => {
                                rep.failure = Some(budget_err);
                                break;
                            }
                            _ => {}
                        }
                    }
                }
            }
            if resumed {
                rep.partial_retries += 1;
                partial_ctr.inc();
                epoch = epoch.wrapping_add(1);
                rebuilds += 1;
                let kept = ledger.total_rows() * row_size as u64;
                rep.kept_bytes += kept;
                kept_ctr.add(kept);
                seed_pending_drops(&config, &ledger, &accounting);
                obs.recorder.event(
                    0,
                    track,
                    sim.now().as_nanos(),
                    EventKind::PartialRetry,
                    epoch as u64,
                );
                backoff.reset();
                continue;
            }
            // Rung 4: the paper's full restart — discard the generation.
            // Its budget was checked above, before the release or after
            // the failed probe.
            rep.full_restarts += 1;
            restarts_ctr.inc();
            rep.generation += 1;
            epoch = epoch.wrapping_add(1);
            rebuilds += 1;
            ledger.clear();
            accounting.pending_drops.lock().clear();
            runtime.clear_failed_qp_nodes();
            obs.recorder.event(
                0,
                track,
                sim.now().as_nanos(),
                EventKind::QueryRestart,
                rep.full_restarts as u64,
            );
            sim.sleep(backoff.next());
        }
        *out.lock() = rep;
    });
    report
}

/// Stable code for a design in flight-recorder events: its Table 1
/// index, or 6 for the future-work Write designs.
fn algo_code(a: ShuffleAlgorithm) -> u64 {
    ShuffleAlgorithm::ALL
        .iter()
        .position(|x| *x == a)
        .map(|i| i as u64)
        .unwrap_or(6)
}

/// Probes every node the runtime recorded as QP-failed: tears down and
/// re-establishes a dedicated RC QP pair to a healthy peer and pushes
/// one message through it, retrying under `backoff` up to the
/// per-episode budget. Clears the failed-node set on success so the
/// next failure episode classifies freshly.
#[allow(clippy::too_many_arguments)]
fn probe_failed_nodes(
    sim: &SimContext,
    runtime: &Arc<VerbsRuntime>,
    nodes: usize,
    policy: &RecoveryPolicy,
    backoff: &mut BackoffSchedule,
    obs: &Arc<rshuffle_obs::Obs>,
    track: u32,
    reconnect_ctr: &Arc<rshuffle_obs::Counter>,
    reconnects: &mut u32,
) -> Result<(), ShuffleError> {
    for node in runtime.failed_qp_nodes() {
        let peer = (node + 1) % nodes;
        let ctx_a = runtime.context(node);
        let ctx_b = runtime.context(peer);
        let send_cq = ctx_a.create_cq();
        let qa = ctx_a.create_qp(QpType::Rc, send_cq.clone(), ctx_a.create_cq());
        let qb = ctx_b.create_qp(QpType::Rc, ctx_b.create_cq(), ctx_b.create_cq());
        let mr_a = ctx_a.register_untimed(PROBE_BYTES);
        let mr_b = ctx_b.register_untimed(PROBE_BYTES);
        let mut attempts = 0u32;
        let mut healthy = false;
        while attempts < policy.reconnect_budget {
            attempts += 1;
            *reconnects += 1;
            reconnect_ctr.inc();
            obs.recorder.event(
                0,
                track,
                sim.now().as_nanos(),
                EventKind::QpReconnect,
                attempts as u64,
            );
            if probe_once(sim, &qa, &qb, &send_cq, &mr_a, &mr_b).is_ok() {
                healthy = true;
                break;
            }
            sim.sleep(backoff.next());
        }
        runtime.deregister_untimed(&mr_a);
        runtime.deregister_untimed(&mr_b);
        if !healthy {
            return Err(ShuffleError::RetryBudgetExhausted { node, attempts });
        }
    }
    runtime.clear_failed_qp_nodes();
    Ok(())
}

/// One reconnect-and-send round trip over the probe QP pair: reset both
/// ends, reconnect (charging the modelled per-QP setup cost), post a
/// receive on the peer and push one message, then wait for the send
/// completion. Any verbs error, errored completion or timeout means the
/// fabric is still broken.
fn probe_once(
    sim: &SimContext,
    qa: &rshuffle_verbs::QueuePair,
    qb: &rshuffle_verbs::QueuePair,
    send_cq: &rshuffle_verbs::CompletionQueue,
    mr_a: &rshuffle_verbs::MemoryRegion,
    mr_b: &rshuffle_verbs::MemoryRegion,
) -> Result<(), ShuffleError> {
    ConnectionManager::reconnect_rc(sim, qa, qb.address_handle())?;
    ConnectionManager::reconnect_rc(sim, qb, qa.address_handle())?;
    qb.post_recv(
        sim,
        RecvWr {
            wr_id: 0,
            mr: mr_b.clone(),
            offset: 0,
            len: PROBE_BYTES,
        },
    )?;
    qa.post_send(
        sim,
        SendWr {
            wr_id: 0,
            mr: mr_a.clone(),
            offset: 0,
            len: PROBE_BYTES,
            imm: None,
            ah: None,
        },
    )?;
    let deadline = sim.now() + PROBE_TIMEOUT;
    loop {
        if let Some(c) = send_cq.poll(sim, 1).into_iter().next() {
            return if c.status == WcStatus::Success {
                Ok(())
            } else {
                Err(ShuffleError::CompletionError("probe send failed"))
            };
        }
        if sim.now() >= deadline {
            return Err(ShuffleError::Stalled("probe send completion"));
        }
        sim.sleep(PROBE_POLL);
    }
}

/// Seeds the receiver-side duplicate-drop counts for a resumed attempt:
/// for every flow, the delivered watermark minus what the sender will
/// skip (the minimum watermark across the group's members). With
/// single-member groups — the eligibility condition — sender skips are
/// exact and every seeded count is zero; the mechanism stays armed as a
/// guard regardless.
fn seed_pending_drops(
    config: &ExchangeConfig,
    ledger: &FlowLedger,
    accounting: &RecvAccounting,
) {
    let mut drops = accounting.pending_drops.lock();
    drops.clear();
    for (src, groups) in config.groups.iter().enumerate() {
        for tid in 0..config.threads {
            for members in groups.iter() {
                let skip = ledger.resume_skip(src, tid, members);
                for &d in members {
                    let excess = ledger.get((src, tid as u16, d)).saturating_sub(skip);
                    if excess > 0 {
                        *drops.entry((d, src, tid as u16)).or_insert(0) += excess;
                    }
                }
            }
        }
    }
}

/// Spawns send and receive workers for one attempt; returns how many
/// results the coordinator must collect. Senders are seeded with resume
/// skips from the ledger (all zero on a fresh generation); receivers
/// track per-flow watermarks and deliver straight to the
/// generation-tagged sink.
#[allow(clippy::too_many_arguments)]
fn spawn_attempt(
    cluster: &rshuffle_simnet::Cluster,
    exchange: &Arc<Exchange>,
    cost: &CostModel,
    generation: u32,
    rebuild: u32,
    row_size: usize,
    make_source: &GenSourceFactory,
    sink: &GenSink,
    ledger: &Arc<FlowLedger>,
    accounting: &Arc<RecvAccounting>,
    done: &Gate<WorkerResult>,
) -> usize {
    let threads = exchange.threads();
    let mut expected = 0;
    for node in 0..cluster.nodes() {
        let source = make_source(generation, node);
        if let Some(shuffle) = exchange.shuffle_operator(node, source, cost.clone()) {
            let skips: Vec<Vec<u64>> = (0..threads)
                .map(|tid| {
                    exchange.groups[node]
                        .iter()
                        .map(|members| ledger.resume_skip(node, tid, members))
                        .collect()
                })
                .collect();
            let op: Arc<dyn Operator> = Arc::new(shuffle.with_resume_skip(skips));
            for tid in 0..threads {
                let name = format!("r{rebuild}-shuffle-{node}-{tid}");
                let (op, done) = (op.clone(), done.clone());
                // A send worker pumps the shuffle operator until
                // depletion or error and reports the outcome.
                cluster.spawn(node, &name, move |sim: SimContext| {
                    let result = loop {
                        match op.next(&sim, tid) {
                            Ok((StreamState::Depleted, _)) => break Ok(()),
                            Ok(_) => {}
                            Err(e) => break Err(e),
                        }
                    };
                    done.push(result);
                });
                expected += 1;
            }
        }
        if !exchange.recv[node].is_empty() {
            for tid in 0..threads {
                let name = format!("r{rebuild}-recv-{node}-{tid}");
                let exchange = exchange.clone();
                let sink = sink.clone();
                let ledger = ledger.clone();
                let accounting = accounting.clone();
                let cost = cost.clone();
                let done = done.clone();
                cluster.spawn(node, &name, move |sim: SimContext| {
                    let result = recovery_recv_loop(
                        &sim,
                        &exchange,
                        node,
                        tid,
                        generation,
                        row_size,
                        &cost,
                        &sink,
                        &ledger,
                        &accounting,
                    );
                    done.push(result);
                });
                expected += 1;
            }
        }
    }
    expected
}

/// The recovery receive worker: pulls deliveries straight off the
/// endpoint (no [`rshuffle::ReceiveOperator`] — watermarks are per
/// flow, which batching would blur), drops any leading duplicate rows
/// the dedup guard demands, hands unique rows to the sink and advances
/// the flow's watermark.
#[allow(clippy::too_many_arguments)]
fn recovery_recv_loop(
    sim: &SimContext,
    exchange: &Exchange,
    node: NodeId,
    tid: usize,
    generation: u32,
    row_size: usize,
    cost: &CostModel,
    sink: &GenSink,
    ledger: &Arc<FlowLedger>,
    accounting: &Arc<RecvAccounting>,
) -> WorkerResult {
    let lanes = &exchange.recv[node];
    let ep = &lanes[tid % lanes.len()];
    while let Some(delivery) = ep.get_data(sim)? {
        let len = delivery.local.len();
        if len % row_size != 0 {
            return Err(ShuffleError::Config(format!(
                "received {len} bytes, not a multiple of {row_size}-byte rows"
            )));
        }
        let rows_in = (len / row_size) as u64;
        let Some(src_node) = exchange.source_node(delivery.src) else {
            return Err(ShuffleError::Corrupt(format!(
                "delivery from endpoint {}, which is no sender of this attempt",
                delivery.src.0
            )));
        };
        let flow = (src_node, delivery.src_tid, node);
        let drop_now = {
            let mut drops = accounting.pending_drops.lock();
            match drops.get_mut(&(node, src_node, delivery.src_tid)) {
                Some(pending) => {
                    let d = (*pending).min(rows_in);
                    *pending -= d;
                    d
                }
                None => 0,
            }
        };
        sim.sleep(cost.copy_time(len));
        let mut batch = RowBatch::new(row_size, (rows_in - drop_now) as usize);
        delivery
            .local
            .with_payload(|p| batch.extend_rows(&p[(drop_now as usize) * row_size..]))?;
        ep.release(sim, delivery.remote, delivery.local, delivery.src)?;
        if drop_now > 0 {
            *accounting.dedup_dropped_bytes.lock() += drop_now * row_size as u64;
        }
        if !batch.is_empty() {
            let n = batch.rows() as u64;
            let b = batch.bytes() as u64;
            sink(generation, node, tid, &batch);
            ledger.advance(flow, n);
            let mut per_gen = accounting.per_generation.lock();
            let entry = per_gen.entry(generation).or_insert((0, 0));
            entry.0 += n;
            entry.1 += b;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Generator;
    use rshuffle_simnet::DeviceProfile;

    #[test]
    fn backoff_base_schedule_doubles_to_cap() {
        let us = SimDuration::from_micros;
        let mut b = BackoffSchedule::new(us(50), us(400));
        assert_eq!(b.next(), us(50));
        assert_eq!(b.next(), us(100));
        assert_eq!(b.next(), us(200));
        assert_eq!(b.next(), us(400));
        assert_eq!(b.next(), us(400), "saturates at the cap");
        b.reset();
        assert_eq!(b.next(), us(50));
    }

    #[test]
    fn attempt_id_ranges_are_disjoint_whatever_the_exchange_mints() {
        // What 33 nodes x 64 lanes mint: past the 4 096 floor.
        let minted = 4224;
        let stride = attempt_id_stride(minted);
        assert_eq!(stride, 8192);
        for attempt in 0..4 {
            assert!(attempt * stride + minted <= (attempt + 1) * stride);
        }
        // Everything the suites and benches run sits on the floor: 3
        // nodes x 2 lanes mint 12.
        assert_eq!(attempt_id_stride(12), 4096);
        assert_eq!(attempt_id_stride(4096), 4096);
    }

    #[test]
    fn degradation_ladder_matches_table() {
        assert_eq!(
            degrade(ShuffleAlgorithm::MEMQ_RD),
            Some(ShuffleAlgorithm::MEMQ_SR)
        );
        assert_eq!(
            degrade(ShuffleAlgorithm::MEMQ_SR),
            Some(ShuffleAlgorithm::MESQ_SR)
        );
        assert_eq!(degrade(ShuffleAlgorithm::MESQ_SR), None);
        assert_eq!(
            degrade(ShuffleAlgorithm::SEMQ_RD),
            Some(ShuffleAlgorithm::SEMQ_SR)
        );
        assert_eq!(
            degrade(ShuffleAlgorithm::SEMQ_SR),
            Some(ShuffleAlgorithm::SESQ_SR)
        );
        assert_eq!(degrade(ShuffleAlgorithm::SESQ_SR), None);
    }

    #[test]
    fn fault_free_recovery_run_is_clean() {
        let nodes = 2;
        let threads = 2;
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, nodes, threads);
        config.message_size = 4096;
        let runtime = config.build_runtime(DeviceProfile::edr());
        let delivered = Arc::new(Mutex::new(0u64));
        let d = delivered.clone();
        let report = run_shuffle_with_recovery(
            &runtime,
            &config,
            RecoveryPolicy::default(),
            16,
            |_, _| Arc::new(Generator::new(500, 2, 7)) as Arc<dyn Operator>,
            move |_, _, _, batch| *d.lock() += batch.rows() as u64,
        );
        runtime.cluster().run();
        let rep = report.lock();
        assert!(rep.succeeded(), "failure: {:?}", rep.failure);
        assert_eq!(rep.partial_retries, 0);
        assert_eq!(rep.full_restarts, 0);
        assert_eq!(rep.qp_reconnects, 0);
        assert_eq!(rep.redone_bytes, 0);
        assert_eq!(rep.kept_bytes, 0);
        assert_eq!(rep.rows, (nodes * threads * 500) as u64);
        assert_eq!(rep.rows, *delivered.lock());
        assert_eq!(rep.final_algorithm, ShuffleAlgorithm::MEMQ_SR);
    }
}
