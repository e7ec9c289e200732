//! Multi-query admission scheduler and fabric resource governor.
//!
//! Parallel database systems never run one query at a time: a shuffle
//! operator shares the NIC, the switch ports and — most scarce of all —
//! the RDMA-registrable memory with every co-running exchange (the paper
//! motivates its memory-frugal designs with exactly this multi-tenancy,
//! §4.3/Figure 9b). This crate adds the missing coordination layer on
//! top of the simulated cluster:
//!
//! * **Admission control** — a configurable concurrency limit over a
//!   FIFO queue. Admission is strict head-of-queue: a query that does
//!   not fit blocks every query behind it, which is what makes the
//!   policy starvation-free.
//! * **Registered-memory governance** — an optional per-node byte
//!   budget. A query declares its per-node requirement up front (from
//!   [`rshuffle::ExchangeConfig::registered_bytes_estimate`]); if the
//!   requirement can never fit — even running alone — admission fails
//!   with the typed [`ShuffleError::BudgetImpossible`] instead of
//!   queueing forever. Otherwise the query waits until enough memory is
//!   released.
//! * **Fabric fairness** — each admitted query's [`FlowId`] is entered
//!   into the cluster's [`FlowTable`] with its weight, switching the NIC
//!   and switch-port arbiters ([`rshuffle_simnet::FairResource`]) into
//!   weighted-fair mode for the duration of the query.
//! * **Attribution** — queue-wait, run time and each query's share of
//!   NIC/port busy time land in the unified metrics registry under
//!   `sched.*` series tagged with a `query` label, and admission
//!   decisions are marked in the flight recorder
//!   (`query_admitted`/`query_deferred`/`query_completed`).
//!
//! The scheduler is **passive shared state**: it owns no simulated
//! thread. All decisions execute on the calling query-coordinator
//! threads, so a single-query workload at concurrency limit 1 is
//! byte-identical in virtual time to the unscheduled path (proved by
//! `tests/sched_identity.rs` in the umbrella crate).

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::ShuffleError;
use rshuffle_obs::{names, Counter, EventKind, Histogram, Labels, Obs};
use rshuffle_simnet::{FlowId, FlowTable, Gate, SimContext, SimDuration, SimTime};
use rshuffle_verbs::VerbsRuntime;

/// Static configuration of a [`Scheduler`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Maximum queries running at once (≥ 1).
    pub max_concurrent: usize,
    /// Per-node registered-memory budget in bytes; `None` = ungoverned.
    pub mem_budget_per_node: Option<usize>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent: usize::MAX,
            mem_budget_per_node: None,
        }
    }
}

/// One query's admission request.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Query id; doubles as the fabric [`FlowId`] (must not be
    /// `u32::MAX`, which is the untagged sentinel).
    pub id: u32,
    /// Weighted-fair bandwidth weight (0 is clamped to 1).
    pub weight: u64,
    /// Registered-memory requirement per node, in bytes. Length must
    /// equal the cluster's node count.
    pub mem_per_node: Vec<usize>,
}

impl QueryRequest {
    /// A weight-1 request with no declared memory need.
    pub fn new(id: u32, nodes: usize) -> Self {
        QueryRequest {
            id,
            weight: 1,
            mem_per_node: vec![0; nodes],
        }
    }
}

/// Proof of admission, returned by [`Scheduler::admit`] and consumed by
/// [`Scheduler::release`]. Holds the resources that release must return.
#[derive(Debug)]
pub struct Admission {
    /// The admitted query's id.
    pub query: u32,
    /// When the request entered the queue.
    pub queued_at: SimTime,
    /// When the slot (and memory) was granted.
    pub admitted_at: SimTime,
    mem: Vec<usize>,
}

impl Admission {
    /// How long the query waited in the admission queue.
    pub fn queue_wait(&self) -> SimDuration {
        self.admitted_at - self.queued_at
    }
}

/// Why a query is giving its slot back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The query finished; record completion metrics and attribution.
    Completed,
    /// A restartable attempt failed; the query will re-enter admission
    /// at the back of the queue.
    Requeued,
    /// The query gave up (restart budget exhausted or non-restartable
    /// error).
    Failed,
}

struct Waiter {
    id: u32,
    weight: u64,
    mem: Vec<usize>,
    gate: Gate<()>,
}

struct SchedState {
    running: usize,
    /// Bytes currently reserved from the budget, per node.
    reserved: Vec<usize>,
    /// High-water mark of `reserved`, per node.
    reserved_peak: Vec<usize>,
    queue: VecDeque<Waiter>,
}

/// The admission controller and resource governor. Passive shared
/// state — it owns no simulated thread; admission and release run on the
/// calling query-coordinator threads, so an uncontended scheduler adds
/// zero virtual time.
pub struct Scheduler {
    cfg: SchedulerConfig,
    runtime: Arc<VerbsRuntime>,
    flows: Arc<FlowTable>,
    obs: Arc<Obs>,
    state: Mutex<SchedState>,
    admitted: Arc<Counter>,
    deferred: Arc<Counter>,
    completed: Arc<Counter>,
    wait_hist: Arc<Histogram>,
    /// Per-node peak-reservation counters; monotone adds keep each equal
    /// to the high-water mark.
    mem_peak: Vec<Arc<Counter>>,
}

impl Scheduler {
    /// Creates a scheduler governing `runtime`'s cluster.
    pub fn new(runtime: &Arc<VerbsRuntime>, cfg: SchedulerConfig) -> Arc<Scheduler> {
        assert!(cfg.max_concurrent >= 1, "concurrency limit must be >= 1");
        let nodes = runtime.cluster().nodes();
        let obs = runtime.obs().clone();
        let mem_peak = (0..nodes)
            .map(|n| {
                obs.metrics
                    .counter(names::SCHED_MEM_RESERVED_PEAK, Labels::node(n as u32))
            })
            .collect();
        Arc::new(Scheduler {
            cfg,
            flows: runtime.cluster().flows().clone(),
            admitted: obs.metrics.counter(names::SCHED_ADMITTED, Labels::GLOBAL),
            deferred: obs.metrics.counter(names::SCHED_DEFERRED, Labels::GLOBAL),
            completed: obs.metrics.counter(names::SCHED_COMPLETED, Labels::GLOBAL),
            wait_hist: obs
                .metrics
                .histogram(names::SCHED_QUEUE_WAIT_HIST_NS, Labels::GLOBAL),
            mem_peak,
            obs,
            state: Mutex::new(SchedState {
                running: 0,
                reserved: vec![0; nodes],
                reserved_peak: vec![0; nodes],
                queue: VecDeque::new(),
            }),
            runtime: runtime.clone(),
        })
    }

    /// This scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Bytes currently reserved from the budget on `node`.
    pub fn reserved_bytes(&self, node: usize) -> usize {
        self.state.lock().reserved[node]
    }

    /// High-water mark of budget reservations on `node`.
    pub fn reserved_bytes_peak(&self, node: usize) -> usize {
        self.state.lock().reserved_peak[node]
    }

    /// Queries currently holding an execution slot.
    pub fn running(&self) -> usize {
        self.state.lock().running
    }

    /// Queries waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Requests admission for `req`, blocking in virtual time until a
    /// slot (and, under a memory budget, the declared bytes) is granted.
    ///
    /// # Errors
    ///
    /// [`ShuffleError::BudgetImpossible`] when some node's requirement
    /// exceeds the per-node budget outright — such a query could never
    /// run and queueing it would deadlock the head of the queue.
    /// [`ShuffleError::Config`] when the request is malformed (wrong
    /// `mem_per_node` length, or the reserved `u32::MAX` id).
    pub fn admit(&self, sim: &SimContext, req: &QueryRequest) -> Result<Admission, ShuffleError> {
        let nodes = self.runtime.cluster().nodes();
        if req.mem_per_node.len() != nodes {
            return Err(ShuffleError::Config(format!(
                "query {}: {} memory declarations for {} nodes",
                req.id,
                req.mem_per_node.len(),
                nodes
            )));
        }
        if !FlowId(req.id).is_tagged() {
            return Err(ShuffleError::Config(
                "query id u32::MAX is reserved for untagged traffic".into(),
            ));
        }
        if let Some(budget) = self.cfg.mem_budget_per_node {
            for (node, &required) in req.mem_per_node.iter().enumerate() {
                if required > budget {
                    return Err(ShuffleError::BudgetImpossible {
                        node,
                        required,
                        budget,
                    });
                }
            }
        }
        let queued_at = sim.now();
        let gate: Gate<()> = Gate::new(sim.kernel(), SimDuration::ZERO);
        {
            let mut st = self.state.lock();
            st.queue.push_back(Waiter {
                id: req.id,
                weight: req.weight.max(1),
                mem: req.mem_per_node.clone(),
                gate: gate.clone(),
            });
            self.grant_ready(&mut st);
        }
        // The cooperative kernel runs one thread at a time, so nothing
        // can slip between this emptiness check and the blocking recv.
        if gate.is_empty() {
            self.deferred.inc();
            self.obs.recorder.event(
                sim.node() as u32,
                sim.id().track(),
                sim.now().as_nanos(),
                EventKind::QueryDeferred,
                req.id as u64,
            );
            gate.recv(sim);
        } else {
            gate.recv(sim);
        }
        let admitted_at = sim.now();
        let wait = admitted_at - queued_at;
        self.admitted.inc();
        self.obs
            .metrics
            .counter(names::SCHED_QUEUE_WAIT_NS, Labels::query(req.id))
            .add(wait.as_nanos());
        self.wait_hist.record(wait.as_nanos());
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            admitted_at.as_nanos(),
            EventKind::QueryAdmitted,
            req.id as u64,
        );
        Ok(Admission {
            query: req.id,
            queued_at,
            admitted_at,
            mem: req.mem_per_node.clone(),
        })
    }

    /// Returns `adm`'s slot, budget reservation and pinned memory (every
    /// region registered under the query's flow tag is deregistered),
    /// clears the query's fairness weight, and grants newly-fitting
    /// waiters. On [`ReleaseOutcome::Completed`] the query's run time
    /// and its attributed share of NIC/port busy time are recorded.
    pub fn release(&self, sim: &SimContext, adm: Admission, outcome: ReleaseOutcome) {
        let flow = FlowId(adm.query);
        self.runtime.deregister_flow(flow);
        self.flows.clear_weight(flow);
        {
            let mut st = self.state.lock();
            st.running -= 1;
            for (node, &m) in adm.mem.iter().enumerate() {
                st.reserved[node] -= m;
            }
            self.grant_ready(&mut st);
        }
        if outcome != ReleaseOutcome::Completed {
            return;
        }
        self.completed.inc();
        let run = sim.now() - adm.admitted_at;
        let q = Labels::query(adm.query);
        self.obs
            .metrics
            .counter(names::SCHED_RUN_NS, q)
            .add(run.as_nanos());
        let cluster = self.runtime.cluster();
        let mut nic_busy = SimDuration::ZERO;
        let mut port_busy = SimDuration::ZERO;
        for node in 0..cluster.nodes() {
            nic_busy += cluster.nic(node).flow_busy(flow);
            port_busy += cluster.fabric().egress_flow_busy(node, flow)
                + cluster.fabric().ingress_flow_busy(node, flow);
        }
        self.obs
            .metrics
            .counter(names::SCHED_NIC_BUSY_NS, q)
            .add(nic_busy.as_nanos());
        self.obs
            .metrics
            .counter(names::SCHED_PORT_BUSY_NS, q)
            .add(port_busy.as_nanos());
        self.obs.recorder.event(
            sim.node() as u32,
            sim.id().track(),
            sim.now().as_nanos(),
            EventKind::QueryCompleted,
            adm.query as u64,
        );
    }

    /// Admits from the head of the queue while the head fits. Strictly
    /// in-order: a head that does not fit blocks everything behind it
    /// (no starvation; ordering is arrival's, not the allocator's).
    fn grant_ready(&self, st: &mut SchedState) {
        while let Some(head) = st.queue.front() {
            if st.running >= self.cfg.max_concurrent {
                break;
            }
            if let Some(budget) = self.cfg.mem_budget_per_node {
                let fits = head
                    .mem
                    .iter()
                    .enumerate()
                    .all(|(node, &m)| st.reserved[node] + m <= budget);
                if !fits {
                    break;
                }
            }
            let w = st.queue.pop_front().expect("front() was Some");
            st.running += 1;
            for (node, &m) in w.mem.iter().enumerate() {
                st.reserved[node] += m;
                if st.reserved[node] > st.reserved_peak[node] {
                    let delta = st.reserved[node] - st.reserved_peak[node];
                    st.reserved_peak[node] = st.reserved[node];
                    self.mem_peak[node].add(delta as u64);
                }
            }
            self.flows.set_weight(FlowId(w.id), w.weight);
            w.gate.push(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rshuffle_simnet::{Cluster, DeviceProfile};
    use rshuffle_verbs::{ConnectionManager, QpType, RecvWr};

    fn runtime(nodes: usize) -> Arc<VerbsRuntime> {
        VerbsRuntime::new(Cluster::new(nodes, DeviceProfile::edr()))
    }

    fn req(id: u32, mem: Vec<usize>) -> QueryRequest {
        QueryRequest {
            id,
            weight: 1,
            mem_per_node: mem,
        }
    }

    #[test]
    fn impossible_budget_is_a_typed_error_not_a_hang() {
        let rt = runtime(2);
        let sched = Scheduler::new(
            &rt,
            SchedulerConfig {
                mem_budget_per_node: Some(1000),
                ..SchedulerConfig::default()
            },
        );
        let got = Arc::new(Mutex::new(None));
        let g = got.clone();
        rt.cluster().spawn(0, "q0", move |sim| {
            *g.lock() = Some(sched.admit(&sim, &req(0, vec![500, 1001])));
        });
        rt.cluster().run();
        let result = got.lock().take().expect("coordinator ran");
        match result {
            Err(ShuffleError::BudgetImpossible {
                node,
                required,
                budget,
            }) => {
                assert_eq!((node, required, budget), (1, 1001, 1000));
            }
            other => panic!("expected BudgetImpossible, got {other:?}"),
        }
    }

    #[test]
    fn over_budget_query_waits_for_release() {
        let rt = runtime(1);
        let sched = Scheduler::new(
            &rt,
            SchedulerConfig {
                mem_budget_per_node: Some(1000),
                ..SchedulerConfig::default()
            },
        );
        let log = Arc::new(Mutex::new(Vec::new()));
        let hold = SimDuration::from_micros(10);
        for id in 0..2u32 {
            let sched = sched.clone();
            let log = log.clone();
            rt.cluster().spawn(0, &format!("q{id}"), move |sim| {
                let adm = sched.admit(&sim, &req(id, vec![700])).unwrap();
                log.lock().push((id, "admitted", sim.now().as_nanos()));
                sim.sleep(hold);
                sched.release(&sim, adm, ReleaseOutcome::Completed);
            });
        }
        rt.cluster().run();
        let log = log.lock();
        // 700 + 700 > 1000: the second query must wait out the first.
        assert_eq!(log[0], (0, "admitted", 0));
        assert_eq!(log[1].0, 1);
        assert!(
            log[1].2 >= hold.as_nanos(),
            "q1 admitted at {} before q0 released",
            log[1].2
        );
        assert_eq!(sched.reserved_bytes(0), 0, "all reservations returned");
        assert_eq!(sched.reserved_bytes_peak(0), 700);
    }

    #[test]
    fn concurrency_limit_serializes() {
        let rt = runtime(1);
        let sched = Scheduler::new(
            &rt,
            SchedulerConfig {
                max_concurrent: 1,
                ..SchedulerConfig::default()
            },
        );
        let windows = Arc::new(Mutex::new(Vec::new()));
        for id in 0..3u32 {
            let sched = sched.clone();
            let windows = windows.clone();
            rt.cluster().spawn(0, &format!("q{id}"), move |sim| {
                let adm = sched.admit(&sim, &QueryRequest::new(id, 1)).unwrap();
                let start = sim.now().as_nanos();
                sim.sleep(SimDuration::from_micros(5));
                windows.lock().push((id, start, sim.now().as_nanos()));
                sched.release(&sim, adm, ReleaseOutcome::Completed);
            });
        }
        rt.cluster().run();
        let windows = windows.lock().clone();
        assert_eq!(windows.len(), 3);
        for pair in windows.windows(2) {
            assert!(
                pair[1].1 >= pair[0].2,
                "queries overlapped under limit 1: {windows:?}"
            );
        }
        // FIFO: spawn order is admission order.
        assert_eq!(
            windows.iter().map(|w| w.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let rt = runtime(1);
        let sched = Scheduler::new(
            &rt,
            SchedulerConfig {
                max_concurrent: 1,
                ..SchedulerConfig::default()
            },
        );
        let order = Arc::new(Mutex::new(Vec::new()));
        // q0 occupies the slot; q1 and q2 queue behind it in spawn order.
        for id in 0..3u32 {
            let sched = sched.clone();
            let order = order.clone();
            rt.cluster().spawn(0, &format!("q{id}"), move |sim| {
                let adm = sched.admit(&sim, &QueryRequest::new(id, 1)).unwrap();
                order.lock().push(id);
                sim.sleep(SimDuration::from_micros(3));
                sched.release(&sim, adm, ReleaseOutcome::Completed);
            });
        }
        rt.cluster().run();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn weights_registered_while_running_cleared_after() {
        let rt = runtime(1);
        let flows = rt.cluster().flows().clone();
        let sched = Scheduler::new(&rt, SchedulerConfig::default());
        let observed = Arc::new(Mutex::new(None));
        let obs2 = observed.clone();
        let f = flows.clone();
        rt.cluster().spawn(0, "q7", move |sim| {
            let mut r = QueryRequest::new(7, 1);
            r.weight = 3;
            let adm = sched.admit(&sim, &r).unwrap();
            *obs2.lock() = Some(f.share(FlowId(7)));
            sched.release(&sim, adm, ReleaseOutcome::Completed);
        });
        rt.cluster().run();
        assert_eq!(observed.lock().take(), Some(Some((3, 3))));
        assert!(flows.is_empty(), "weight cleared on release");
    }

    #[test]
    fn requeued_admission_keeps_budget_exact_across_reconnect_cycles() {
        // The recovery orchestrator re-admits a query once per rebuild
        // (partial retry, degradation rung, or full restart), releasing
        // the attempt as Requeued in between. Each cycle must return the
        // previous reservation before taking the next, so the per-node
        // budget never double-counts a reconnecting query and the peak
        // stays at a single admission's worth.
        let rt = runtime(2);
        let sched = Scheduler::new(
            &rt,
            SchedulerConfig {
                mem_budget_per_node: Some(1000),
                ..SchedulerConfig::default()
            },
        );
        let s2 = sched.clone();
        rt.cluster().spawn(0, "recovering-query", move |sim| {
            for cycle in 0..4 {
                let adm = s2.admit(&sim, &req(9, vec![700, 700])).unwrap();
                assert_eq!(s2.reserved_bytes(0), 700, "cycle {cycle}");
                assert_eq!(s2.reserved_bytes(1), 700, "cycle {cycle}");
                s2.release(&sim, adm, ReleaseOutcome::Requeued);
                assert_eq!(
                    s2.reserved_bytes(0),
                    0,
                    "cycle {cycle}: budget returned between attempts"
                );
            }
            let adm = s2.admit(&sim, &req(9, vec![700, 700])).unwrap();
            s2.release(&sim, adm, ReleaseOutcome::Completed);
        });
        rt.cluster().run();
        assert_eq!(sched.reserved_bytes(0), 0);
        assert_eq!(sched.reserved_bytes(1), 0);
        assert_eq!(
            sched.reserved_bytes_peak(0),
            700,
            "reconnect cycles must not double-count the budget"
        );
    }

    #[test]
    fn release_deregisters_the_querys_memory() {
        let rt = runtime(1);
        let sched = Scheduler::new(&rt, SchedulerConfig::default());
        let rt2 = rt.clone();
        rt.cluster().spawn(0, "q3", move |sim| {
            let adm = sched.admit(&sim, &QueryRequest::new(3, 1)).unwrap();
            let ctx = rt2.context_flow(0, FlowId(3));
            let mr = ctx.register_untimed(4096);
            assert_eq!(rt2.registered_bytes(0), 4096);
            // The query's memory is in use — written, and half of it posted
            // as a receive — and a handle to it outlives the release.
            let cq = ctx.create_cq();
            let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq);
            ConnectionManager::activate_untimed(&qp, None).unwrap();
            let posted = RecvWr {
                wr_id: 0,
                mr: mr.clone(),
                offset: 2048,
                len: 2048,
            };
            qp.post_recv_untimed(posted).unwrap();
            mr.write(0, &[1; 64]).unwrap();
            assert_eq!((rt2.resident_bytes(0), qp.posted_receives()), (4096, 1));
            sched.release(&sim, adm, ReleaseOutcome::Completed);
            assert_eq!(rt2.registered_bytes(0), 0, "flow memory returned");
            assert_eq!(rt2.resident_bytes(0), 0, "and the storage behind it");
            assert_eq!(qp.posted_receives(), 0, "no receive names it any more");
        });
        rt.cluster().run();
        assert_eq!(rt.registered_bytes_peak(0), 4096);
    }
}
