//! Multi-query workload driver: runs N shuffle queries through the
//! admission scheduler on one simulated cluster.
//!
//! Each query gets its own coordinator (the recovery ladder of
//! [`crate::recovery`]) that calls [`Scheduler::admit`] /
//! [`Scheduler::release`] around each attempt: every attempt —
//! including a partial retry or a restart after a transient failure —
//! re-enters admission at the back of the queue, returns its registered
//! memory, and leaves the fabric's running flows while probing or
//! backing off. Queries are isolated on the shared fabric by their
//! [`FlowId`] (the query id) and by disjoint endpoint-id spaces
//! ([`ENDPOINT_ID_STRIDE`]).

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{ExchangeConfig, Operator, RowBatch, ShuffleError};
use rshuffle_obs::{names, Labels, Obs};
use rshuffle_sched::{Admission, QueryRequest, ReleaseOutcome, Scheduler};
use rshuffle_simnet::{FlowId, NodeId, SimContext, SimDuration, SimTime};
use rshuffle_verbs::VerbsRuntime;

use crate::recovery::{attempt_id_stride, run_query, RecoveryPolicy, RecoveryReport};

/// Gap between the endpoint-id spaces of consecutive query ids: room
/// for 32768 endpoints per query, far above any simulated plan.
pub const ENDPOINT_ID_STRIDE: u32 = 1 << 16;

/// One query of a workload.
#[derive(Clone)]
pub struct QuerySpec {
    /// Query id; doubles as the fabric flow id and scales the
    /// endpoint-id base. Must be unique within the workload.
    pub id: u32,
    /// The exchange to run. `flow` and `endpoint_id_base` are
    /// overwritten from `id`.
    pub config: ExchangeConfig,
    /// Recovery policy for transient failures. Every rebuild it allows
    /// takes its own endpoint-id range inside the query's
    /// [`ENDPOINT_ID_STRIDE`]: at most 15 in total, fewer for an exchange
    /// that mints more than 4 096 ids.
    pub policy: RecoveryPolicy,
    /// Row size streamed by the receive operators.
    pub row_size: usize,
}

impl QuerySpec {
    /// A query with the default recovery policy.
    pub fn new(id: u32, config: ExchangeConfig, row_size: usize) -> Self {
        QuerySpec {
            id,
            config,
            policy: RecoveryPolicy::default(),
            row_size,
        }
    }
}

/// `spec`'s endpoint-id base, or a typed error when the id space cannot
/// hold the query: each rebuild its policy allows takes a fresh range
/// above the base, as wide as the coordinator spaces its attempts
/// (`attempt_id_stride`), and all of them must end below the next
/// query's base (and inside `u32`).
fn endpoint_id_base(spec: &QuerySpec) -> Result<u32, ShuffleError> {
    let policy = &spec.policy;
    let attempts = policy.max_partial_retries as u64 + policy.max_full_restarts as u64 + 1;
    let stride = attempt_id_stride(spec.config.endpoint_ids());
    if attempts * stride as u64 > ENDPOINT_ID_STRIDE as u64 {
        return Err(ShuffleError::Config(format!(
            "query {}: {attempts} attempts of {stride} endpoint ids each overrun \
             the query's {ENDPOINT_ID_STRIDE}-id space",
            spec.id
        )));
    }
    spec.id.checked_mul(ENDPOINT_ID_STRIDE).ok_or_else(|| {
        ShuffleError::Config(format!(
            "query id {} is past the endpoint-id space",
            spec.id
        ))
    })
}

/// Virtual-time milestones of one query's trip through the scheduler,
/// populated while the simulation runs.
#[derive(Clone, Debug, Default)]
pub struct QueryTiming {
    /// When the query first requested admission.
    pub submitted: Option<SimTime>,
    /// When its first admission was granted.
    pub first_admitted: Option<SimTime>,
    /// When it completed successfully (`None` on failure).
    pub completed: Option<SimTime>,
    /// Total admission-queue wait across all attempts.
    pub queue_wait: SimDuration,
    /// Admissions granted (attempts started).
    pub admissions: u32,
}

impl QueryTiming {
    /// Submission-to-completion virtual latency, once finished.
    pub fn latency(&self) -> Option<SimDuration> {
        Some(self.completed? - self.submitted?)
    }
}

/// A query that goes through the admission scheduler: what the
/// coordinator admits before each attempt and releases after it.
pub(crate) struct Scheduled {
    pub(crate) scheduler: Arc<Scheduler>,
    pub(crate) request: QueryRequest,
    pub(crate) timing: Arc<Mutex<QueryTiming>>,
}

impl Scheduled {
    /// Waits for admission (in virtual time), noting the milestones.
    pub(crate) fn admit(&self, sim: &SimContext) -> Result<Admission, ShuffleError> {
        self.timing.lock().submitted.get_or_insert(sim.now());
        let adm = self.scheduler.admit(sim, &self.request)?;
        let mut t = self.timing.lock();
        t.first_admitted.get_or_insert(adm.admitted_at);
        t.queue_wait += adm.queue_wait();
        t.admissions += 1;
        Ok(adm)
    }

    /// Gives `adm` back; a completed query's submission-to-completion
    /// latency feeds the perf-trajectory percentile reports.
    pub(crate) fn release(
        &self,
        sim: &SimContext,
        adm: Admission,
        outcome: ReleaseOutcome,
        obs: &Obs,
    ) {
        self.scheduler.release(sim, adm, outcome);
        if outcome == ReleaseOutcome::Completed {
            let mut t = self.timing.lock();
            t.completed = Some(sim.now());
            if let Some(sub) = t.submitted {
                obs.metrics
                    .histogram(names::ENGINE_QUERY_LATENCY_NS, Labels::GLOBAL)
                    .record((sim.now() - sub).as_nanos());
            }
        }
    }
}

/// Handle to one workload query's results, readable after
/// `Cluster::run`.
pub struct WorkloadHandle {
    /// The query id.
    pub query: u32,
    /// The coordinator's report (rows, retries, restarts, failure).
    pub report: Arc<Mutex<RecoveryReport>>,
    /// Scheduler-side timing milestones.
    pub timing: Arc<Mutex<QueryTiming>>,
}

/// Runs every query of `queries` through `scheduler` on `runtime`'s
/// cluster. Returns one handle per query (same order); results are
/// valid after `runtime.cluster().run()`.
///
/// `make_source(query, generation, node)` builds the source operator and
/// `sink(query, generation, node, tid, batch)` receives every delivered
/// batch — per-query, so sinks can keep generations apart exactly like
/// [`crate::recovery::run_shuffle_with_recovery`]'s do. A spec whose id
/// or policy does not fit the endpoint-id space fails with
/// [`ShuffleError::Config`] in its report and never asks for admission.
pub fn run_workload(
    runtime: &Arc<VerbsRuntime>,
    scheduler: &Arc<Scheduler>,
    queries: Vec<QuerySpec>,
    make_source: impl Fn(u32, u32, NodeId) -> Arc<dyn Operator> + Send + Sync + 'static,
    sink: impl Fn(u32, u32, NodeId, usize, &RowBatch) + Send + Sync + 'static,
) -> Vec<WorkloadHandle> {
    type SourceFactory = Arc<dyn Fn(u32, u32, NodeId) -> Arc<dyn Operator> + Send + Sync>;
    type WorkloadSink = Arc<dyn Fn(u32, u32, NodeId, usize, &RowBatch) + Send + Sync>;
    let make_source: SourceFactory = Arc::new(make_source);
    let sink: WorkloadSink = Arc::new(sink);
    let nodes = runtime.cluster().nodes();
    let mut handles = Vec::with_capacity(queries.len());
    for spec in queries {
        let query = spec.id;
        let timing = Arc::new(Mutex::new(QueryTiming::default()));
        let mut config = spec.config.clone();
        config.flow = FlowId(spec.id);
        config.endpoint_id_base = match endpoint_id_base(&spec) {
            Ok(base) => base,
            Err(e) => {
                let mut report = RecoveryReport::new(config.algorithm);
                report.failure = Some(e);
                handles.push(WorkloadHandle {
                    query,
                    report: Arc::new(Mutex::new(report)),
                    timing,
                });
                continue;
            }
        };
        let request = QueryRequest {
            id: spec.id,
            mem_per_node: (0..nodes)
                .map(|n| config.registered_bytes_estimate(runtime.profile(), n))
                .collect(),
        };
        let ms = make_source.clone();
        let sk = sink.clone();
        let report = run_query(
            runtime,
            &config,
            spec.policy,
            spec.row_size,
            Arc::new(move |generation, node| ms(query, generation, node)),
            Arc::new(move |generation, node, tid, batch| sk(query, generation, node, tid, batch)),
            Some(Scheduled {
                scheduler: scheduler.clone(),
                request,
                timing: timing.clone(),
            }),
        );
        handles.push(WorkloadHandle {
            query,
            report,
            timing,
        });
    }
    handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Generator;
    use rshuffle::ShuffleAlgorithm;
    use rshuffle_sched::SchedulerConfig;
    use rshuffle_simnet::DeviceProfile;

    fn spec(id: u32, nodes: usize, threads: usize) -> QuerySpec {
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, nodes, threads);
        config.message_size = 4096;
        QuerySpec::new(id, config, 16)
    }

    #[test]
    fn two_queries_complete_and_release_everything() {
        let nodes = 2;
        let threads = 2;
        let config = spec(0, nodes, threads).config;
        let runtime = config.build_runtime(DeviceProfile::edr());
        let sched = Scheduler::new(&runtime, SchedulerConfig::default());
        let handles = run_workload(
            &runtime,
            &sched,
            vec![spec(0, nodes, threads), spec(1, nodes, threads)],
            |query, _, _| Arc::new(Generator::new(200, 2, 7 + query as u64)) as Arc<dyn Operator>,
            |_, _, _, _, _| {},
        );
        runtime.cluster().run();
        for h in &handles {
            let rep = h.report.lock();
            assert!(rep.succeeded(), "query {}: {:?}", h.query, rep.failure);
            assert_eq!(rep.rows, (nodes * threads * 200) as u64);
            let t = h.timing.lock();
            assert!(t.latency().is_some());
            assert_eq!(t.admissions, 1);
        }
        assert_eq!(sched.running(), 0);
        assert_eq!(sched.queued(), 0);
        for node in 0..nodes {
            assert_eq!(
                runtime.registered_bytes(node),
                0,
                "all query memory returned on node {node}"
            );
            assert_eq!(runtime.resident_bytes(node), 0, "and its storage");
            assert_eq!(sched.reserved_bytes(node), 0);
        }
    }

    #[test]
    fn memory_estimate_matches_actual_registration() {
        // The admission controller budgets on the estimate; it is only
        // sound if the estimate equals what Exchange::build really pins.
        for algorithm in ShuffleAlgorithm::ALL {
            let nodes = 3;
            let mut config = ExchangeConfig::repartition(algorithm, nodes, 2);
            config.message_size = 4096;
            let runtime = config.build_runtime(DeviceProfile::edr());
            let exchange = rshuffle::Exchange::build(&runtime, &config)
                .unwrap_or_else(|e| panic!("{algorithm}: Exchange::build failed: {e}"));
            for node in 0..nodes {
                assert_eq!(
                    config.registered_bytes_estimate(runtime.profile(), node),
                    runtime.registered_bytes(node),
                    "{algorithm} node {node}"
                );
            }
            drop(exchange);
        }
    }

    #[test]
    fn budget_impossible_query_fails_fast_others_proceed() {
        let nodes = 2;
        let threads = 2;
        let config = spec(0, nodes, threads).config;
        let runtime = config.build_runtime(DeviceProfile::edr());
        let sched = Scheduler::new(
            &runtime,
            SchedulerConfig {
                // Far below any exchange's need: every query is
                // budget-impossible.
                mem_budget_per_node: Some(1024),
                ..SchedulerConfig::default()
            },
        );
        let handles = run_workload(
            &runtime,
            &sched,
            vec![spec(0, nodes, threads)],
            |_, _, _| Arc::new(Generator::new(50, 2, 7)) as Arc<dyn Operator>,
            |_, _, _, _, _| {},
        );
        runtime.cluster().run();
        let rep = handles[0].report.lock();
        assert!(matches!(
            rep.failure,
            Some(ShuffleError::BudgetImpossible { .. })
        ));
        assert_eq!(rep.full_restarts, 0, "budget errors must not burn restarts");
    }
}
