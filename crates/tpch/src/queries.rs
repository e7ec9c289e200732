//! Physical plans for TPC-H Q3, Q4 and Q10 (§5.2).
//!
//! The plans follow the structure a commercial optimizer produces for the
//! paper's random-placement setup: selections are pushed below the
//! shuffles, both join inputs are hash-repartitioned on the join key, and
//! aggregation runs locally after the final join (the tiny global merge of
//! partial aggregates is done by the coordinator and is not part of the
//! measured fragment time).
//!
//! * **Q4** — ORDERS ⋉ LINEITEM (EXISTS) on the order key, COUNT(*) by
//!   order priority. The "local data" variant runs without any shuffle on a
//!   co-partitioned database (Figure 14a/b).
//! * **Q3** — CUSTOMER ⋈ ORDERS on the customer key (semi: the customer
//!   side carries no payload after pre-projection), then ⋈ LINEITEM on the
//!   order key, SUM(revenue) by order (three tables, two shuffle rounds
//!   plus a re-shuffle of the first join's output).
//! * **Q10** — ORDERS ⋈ LINEITEM on the order key, re-shuffled on the
//!   customer key into CUSTOMER (⋈ the replicated NATION locally),
//!   SUM(revenue) by customer (four tables).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{
    CostModel, Exchange, ExchangeConfig, Operator, ShuffleAlgorithm, TransmissionGroups,
};
use rshuffle_engine::{
    drive_to_sink, Filter, HashAggregate, HashJoin, HashSemiJoin, MemScan, Project,
};
use rshuffle_simnet::{Cluster, DeviceProfile, SimDuration};
use rshuffle_verbs::{FaultConfig, VerbsRuntime};

use crate::gen::{self, Dataset};

/// Which query to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryId {
    /// TPC-H Q3 (shipping priority).
    Q3,
    /// TPC-H Q4 (order priority checking).
    Q4,
    /// TPC-H Q10 (returned item reporting).
    Q10,
}

/// Transport for the query's shuffles.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryTransport {
    /// One of the RDMA shuffle designs (the paper evaluates MESQ/SR).
    Rdma(ShuffleAlgorithm),
    /// The MPI baseline.
    Mpi,
    /// No shuffling: the database is co-partitioned ("local data",
    /// Figure 14a/b; only meaningful for Q4).
    LocalData,
}

impl std::fmt::Display for QueryTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryTransport::Rdma(a) => write!(f, "{a}"),
            QueryTransport::Mpi => write!(f, "MPI"),
            QueryTransport::LocalData => write!(f, "local data"),
        }
    }
}

/// Result of a query run.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// End-to-end response time (all fragments drained).
    pub response_time: SimDuration,
    /// Globally merged aggregate: group key → aggregate value
    /// (Q4: priority → count; Q3: orderkey → revenue; Q10: custkey →
    /// revenue).
    pub groups: HashMap<u64, i64>,
}

/// Q3/Q10 constants.
const MKTSEGMENT_BUILDING: u8 = 0;

fn revenue(price: i64, discount_bp: i64) -> i64 {
    price * (10_000 - discount_bp) / 10_000
}

/// Builds the exchange of one shuffle stage.
fn build_stage(runtime: &Arc<VerbsRuntime>, transport: QueryTransport, threads: usize) -> Exchange {
    let nodes = runtime.cluster().nodes();
    let groups: Vec<TransmissionGroups> = (0..nodes)
        .map(|_| TransmissionGroups::partition(nodes))
        .collect();
    match transport {
        QueryTransport::Rdma(algorithm) => {
            let cfg = ExchangeConfig::with_groups(algorithm, threads, groups);
            Exchange::build(runtime, &cfg).expect("stage exchange builds")
        }
        QueryTransport::Mpi => rshuffle_baselines::mpi::build(runtime, groups, 64 * 1024, threads)
            .expect("mpi stage builds"),
        QueryTransport::LocalData => unreachable!("local plans build no stages"),
    }
}

/// Shared aggregate sink: folds per-node partial aggregates into the
/// global map (the coordinator's trivial final merge).
type GroupSink = Arc<Mutex<HashMap<u64, i64>>>;

#[allow(clippy::too_many_arguments)]
fn collect_groups(
    runtime: &Arc<VerbsRuntime>,
    node: usize,
    name: &str,
    op: Arc<dyn Operator>,
    threads: usize,
    key_at: usize,
    val_at: usize,
    sink: GroupSink,
) {
    drive_to_sink(
        runtime.cluster(),
        node,
        name,
        op,
        threads,
        move |_, batch| {
            let mut sink = sink.lock();
            for row in batch.iter() {
                let k = u64::from_le_bytes(row[key_at..key_at + 8].try_into().expect("8 bytes"));
                let v = i64::from_le_bytes(row[val_at..val_at + 8].try_into().expect("8 bytes"));
                *sink.entry(k).or_insert(0) += v;
            }
        },
    );
}

/// Runs `query` over `dataset` on a fresh simulated cluster.
///
/// # Panics
///
/// Panics if `transport` is [`QueryTransport::LocalData`] for a query other
/// than Q4 (Q3 and Q10 join on different keys, so co-partitioning without
/// replication is impossible — §5.2.2).
pub fn run_query(
    profile: DeviceProfile,
    dataset: &Dataset,
    query: QueryId,
    transport: QueryTransport,
    threads: usize,
) -> QueryResult {
    let nodes = dataset.lineitem.len();
    let cluster = Cluster::new(nodes, profile);
    let runtime = VerbsRuntime::with_faults(
        cluster,
        FaultConfig {
            ud_reorder_probability: 0.05,
            ..FaultConfig::default()
        },
    );
    let cost = CostModel::from_profile(runtime.profile());
    let scan_bw = runtime.profile().memcpy_bandwidth;
    let hash_cost = runtime.profile().hash_per_tuple;
    let tick = SimDuration::from_nanos(2);
    let groups: GroupSink = Arc::new(Mutex::new(HashMap::new()));
    // Every stage is a partition among all nodes, so each node has both
    // halves: a sender fragment `source` → SHUFFLE through `stage`, and a
    // RECEIVE operator producing `row_size`-byte rows.
    let shuffle = |stage: &Exchange, node: usize, name: &str, source: Arc<dyn Operator>| {
        let op = stage
            .shuffle_operator(node, source, cost.clone())
            .expect("every node of a partition stage sends");
        let name = format!("{name}-{node}");
        drive_to_sink(
            runtime.cluster(),
            node,
            &name,
            Arc::new(op),
            threads,
            |_, _| {},
        );
    };
    let receive = |stage: &Exchange, node: usize, row_size: usize| -> Arc<dyn Operator> {
        let op = stage
            .receive_operator(node, row_size, 2048, cost.clone())
            .expect("every node of a partition stage receives");
        Arc::new(op)
    };

    match (query, transport) {
        (QueryId::Q4, QueryTransport::LocalData) => {
            for node in 0..nodes {
                let (li_src, o_src) = q4_sources(dataset, node, threads, scan_bw, tick);
                let semi = Arc::new(HashSemiJoin::new(
                    runtime.kernel(),
                    li_src,
                    o_src,
                    q_key8,
                    q_key8,
                    threads,
                    hash_cost,
                ));
                let agg = q4_aggregate(&runtime, semi, threads, hash_cost);
                collect_groups(
                    &runtime,
                    node,
                    &format!("q4-agg-{node}"),
                    agg,
                    threads,
                    0,
                    8,
                    groups.clone(),
                );
            }
        }
        (QueryId::Q4, transport) => {
            let li_stage = build_stage(&runtime, transport, threads);
            let o_stage = build_stage(&runtime, transport, threads);
            for node in 0..nodes {
                let (li_src, o_src) = q4_sources(dataset, node, threads, scan_bw, tick);
                shuffle(&li_stage, node, "q4-li", li_src);
                shuffle(&o_stage, node, "q4-o", o_src);
                let li_recv = receive(&li_stage, node, 8);
                let o_recv = receive(&o_stage, node, 9);
                let semi = Arc::new(HashSemiJoin::new(
                    runtime.kernel(),
                    li_recv,
                    o_recv,
                    q_key8,
                    q_key8,
                    threads,
                    hash_cost,
                ));
                let agg = q4_aggregate(&runtime, semi, threads, hash_cost);
                collect_groups(
                    &runtime,
                    node,
                    &format!("q4-agg-{node}"),
                    agg,
                    threads,
                    0,
                    8,
                    groups.clone(),
                );
            }
        }
        (QueryId::Q3, QueryTransport::LocalData) | (QueryId::Q10, QueryTransport::LocalData) => {
            panic!("Q3/Q10 join on different keys; co-partitioning is impossible (§5.2.2)")
        }
        (QueryId::Q3, transport) => {
            let cut = gen::date(1995, 3, 15);
            let c_stage = build_stage(&runtime, transport, threads);
            let o_stage = build_stage(&runtime, transport, threads);
            let j_stage = build_stage(&runtime, transport, threads);
            let li_stage = build_stage(&runtime, transport, threads);
            for node in 0..nodes {
                // Customer: σ(mktsegment = BUILDING) → π(custkey) → shuffle.
                let c_scan = Arc::new(MemScan::new(
                    dataset.customer[node].clone(),
                    threads,
                    scan_bw,
                ));
                let c_filt = Arc::new(Filter::new(
                    c_scan,
                    |r| gen::c_mktsegment(r) == MKTSEGMENT_BUILDING,
                    tick,
                ));
                let c_proj = Arc::new(Project::new(
                    c_filt,
                    8,
                    |r, out| out.extend_from_slice(&r[0..8]),
                    tick,
                ));
                shuffle(&c_stage, node, "q3-c", c_proj);

                // Orders: σ(orderdate < cut) → π(custkey, okey, date, prio)
                // partitioned on the customer key.
                let o_scan = Arc::new(MemScan::new(dataset.orders[node].clone(), threads, scan_bw));
                let o_filt = Arc::new(Filter::new(
                    o_scan,
                    move |r| gen::o_orderdate(r) < cut,
                    tick,
                ));
                let o_proj = Arc::new(Project::new(
                    o_filt,
                    21,
                    |r, out| {
                        out.extend_from_slice(&gen::o_custkey(r).to_le_bytes());
                        out.extend_from_slice(&gen::o_orderkey(r).to_le_bytes());
                        out.extend_from_slice(&gen::o_orderdate(r).to_le_bytes());
                        out.push(gen::o_shippriority(r));
                    },
                    tick,
                ));
                shuffle(&o_stage, node, "q3-o", o_proj);

                // Join 1 (semi on custkey) → re-key output on the order key
                // → shuffle.
                let c_recv = receive(&c_stage, node, 8);
                let o_recv = receive(&o_stage, node, 21);
                let semi = Arc::new(HashSemiJoin::new(
                    runtime.kernel(),
                    c_recv,
                    o_recv,
                    q_key8,
                    q_key8,
                    threads,
                    hash_cost,
                ));
                let rekey = Arc::new(Project::new(
                    semi,
                    13,
                    |r, out| out.extend_from_slice(&r[8..21]),
                    tick,
                ));
                shuffle(&j_stage, node, "q3-j", rekey);

                // Lineitem: σ(shipdate > cut) → π(okey, revenue) → shuffle.
                let li_scan = Arc::new(MemScan::new(
                    dataset.lineitem[node].clone(),
                    threads,
                    scan_bw,
                ));
                let li_filt = Arc::new(Filter::new(
                    li_scan,
                    move |r| gen::l_shipdate(r) > cut,
                    tick,
                ));
                let li_proj = Arc::new(Project::new(
                    li_filt,
                    16,
                    |r, out| {
                        out.extend_from_slice(&gen::l_orderkey(r).to_le_bytes());
                        out.extend_from_slice(
                            &revenue(gen::l_extendedprice(r), gen::l_discount(r)).to_le_bytes(),
                        );
                    },
                    tick,
                ));
                shuffle(&li_stage, node, "q3-li", li_proj);

                // Join 2 on the order key, then SUM(revenue) by order.
                let j_recv = receive(&j_stage, node, 13);
                let li_recv = receive(&li_stage, node, 16);
                let join = Arc::new(HashJoin::new(
                    runtime.kernel(),
                    j_recv,
                    li_recv,
                    q_key8,
                    q_key8,
                    |orders_row, li_row, out| {
                        out.extend_from_slice(&li_row[0..16]); // okey, revenue
                        out.extend_from_slice(&orders_row[8..13]); // date, prio
                    },
                    21,
                    threads,
                    hash_cost,
                ));
                let agg = Arc::new(HashAggregate::new(
                    runtime.kernel(),
                    join,
                    q_key8,
                    |row| {
                        let mut acc = row[0..8].to_vec(); // okey
                        acc.extend_from_slice(&row[8..16]); // revenue
                        acc.extend_from_slice(&row[16..21]); // date, prio
                        acc
                    },
                    |acc, row| {
                        let cur = i64::from_le_bytes(acc[8..16].try_into().expect("8 bytes"));
                        let add = i64::from_le_bytes(row[8..16].try_into().expect("8 bytes"));
                        acc[8..16].copy_from_slice(&(cur + add).to_le_bytes());
                    },
                    21,
                    threads,
                    hash_cost,
                ));
                collect_groups(
                    &runtime,
                    node,
                    &format!("q3-agg-{node}"),
                    agg,
                    threads,
                    0,
                    8,
                    groups.clone(),
                );
            }
        }
        (QueryId::Q10, transport) => {
            let lo = gen::date(1993, 10, 1);
            let hi = gen::date(1994, 1, 1);
            let o_stage = build_stage(&runtime, transport, threads);
            let li_stage = build_stage(&runtime, transport, threads);
            let j_stage = build_stage(&runtime, transport, threads);
            let c_stage = build_stage(&runtime, transport, threads);
            for node in 0..nodes {
                // Orders: σ(date ∈ [lo, hi)) → π(okey, custkey) on okey.
                let o_scan = Arc::new(MemScan::new(dataset.orders[node].clone(), threads, scan_bw));
                let o_filt = Arc::new(Filter::new(
                    o_scan,
                    move |r| (lo..hi).contains(&gen::o_orderdate(r)),
                    tick,
                ));
                let o_proj = Arc::new(Project::new(
                    o_filt,
                    16,
                    |r, out| {
                        out.extend_from_slice(&gen::o_orderkey(r).to_le_bytes());
                        out.extend_from_slice(&gen::o_custkey(r).to_le_bytes());
                    },
                    tick,
                ));
                shuffle(&o_stage, node, "q10-o", o_proj);

                // Lineitem: σ(returnflag = 'R') → π(okey, revenue) on okey.
                let li_scan = Arc::new(MemScan::new(
                    dataset.lineitem[node].clone(),
                    threads,
                    scan_bw,
                ));
                let li_filt =
                    Arc::new(Filter::new(li_scan, |r| gen::l_returnflag(r) == b'R', tick));
                let li_proj = Arc::new(Project::new(
                    li_filt,
                    16,
                    |r, out| {
                        out.extend_from_slice(&gen::l_orderkey(r).to_le_bytes());
                        out.extend_from_slice(
                            &revenue(gen::l_extendedprice(r), gen::l_discount(r)).to_le_bytes(),
                        );
                    },
                    tick,
                ));
                shuffle(&li_stage, node, "q10-li", li_proj);

                // Join 1 on okey → π(custkey, revenue) re-shuffled on the
                // customer key.
                let o_recv = receive(&o_stage, node, 16);
                let li_recv = receive(&li_stage, node, 16);
                let join1 = Arc::new(HashJoin::new(
                    runtime.kernel(),
                    o_recv,
                    li_recv,
                    q_key8,
                    q_key8,
                    |o_row, li_row, out| {
                        out.extend_from_slice(&o_row[8..16]); // custkey
                        out.extend_from_slice(&li_row[8..16]); // revenue
                    },
                    16,
                    threads,
                    hash_cost,
                ));
                shuffle(&j_stage, node, "q10-j", join1);

                // Customer ⋈ NATION locally (NATION is replicated), then
                // shuffled on the customer key.
                let n_scan = Arc::new(MemScan::new(dataset.nation.clone(), threads, scan_bw));
                let c_scan = Arc::new(MemScan::new(
                    dataset.customer[node].clone(),
                    threads,
                    scan_bw,
                ));
                let c_nation = Arc::new(HashJoin::new(
                    runtime.kernel(),
                    n_scan,
                    c_scan,
                    |n| u32::from_le_bytes(n[0..4].try_into().expect("4 bytes")) as u64,
                    |c| gen::c_nationkey(c) as u64,
                    |_n_row, c_row, out| {
                        out.extend_from_slice(&c_row[0..8]); // custkey
                    },
                    8,
                    threads,
                    hash_cost,
                ));
                shuffle(&c_stage, node, "q10-c", c_nation);

                // Final join on custkey, SUM(revenue) by customer.
                let c_recv = receive(&c_stage, node, 8);
                let j_recv = receive(&j_stage, node, 16);
                let join2 = Arc::new(HashJoin::new(
                    runtime.kernel(),
                    c_recv,
                    j_recv,
                    q_key8,
                    q_key8,
                    |_c_row, j_row, out| out.extend_from_slice(&j_row[0..16]),
                    16,
                    threads,
                    hash_cost,
                ));
                let agg = Arc::new(HashAggregate::new(
                    runtime.kernel(),
                    join2,
                    q_key8,
                    |row| row[0..16].to_vec(),
                    |acc, row| {
                        let cur = i64::from_le_bytes(acc[8..16].try_into().expect("8 bytes"));
                        let add = i64::from_le_bytes(row[8..16].try_into().expect("8 bytes"));
                        acc[8..16].copy_from_slice(&(cur + add).to_le_bytes());
                    },
                    16,
                    threads,
                    hash_cost,
                ));
                collect_groups(
                    &runtime,
                    node,
                    &format!("q10-agg-{node}"),
                    agg,
                    threads,
                    0,
                    8,
                    groups.clone(),
                );
            }
        }
    }

    runtime.cluster().run();
    let response_time = runtime.kernel().now() - rshuffle_simnet::SimTime::ZERO;
    let groups = std::mem::take(&mut *groups.lock());
    QueryResult {
        response_time,
        groups,
    }
}

/// Q4 source fragments on one node: the filtered/projected LINEITEM and
/// ORDERS streams.
fn q4_sources(
    dataset: &Dataset,
    node: usize,
    threads: usize,
    scan_bw: f64,
    tick: SimDuration,
) -> (Arc<dyn Operator>, Arc<dyn Operator>) {
    let lo = gen::date(1993, 7, 1);
    let hi = gen::date(1993, 10, 1);
    let li_scan = Arc::new(MemScan::new(
        dataset.lineitem[node].clone(),
        threads,
        scan_bw,
    ));
    let li_filt = Arc::new(Filter::new(
        li_scan,
        |r| gen::l_commitdate(r) < gen::l_receiptdate(r),
        tick,
    ));
    let li_proj = Arc::new(Project::new(
        li_filt,
        8,
        |r, out| out.extend_from_slice(&r[0..8]),
        tick,
    ));
    let o_scan = Arc::new(MemScan::new(dataset.orders[node].clone(), threads, scan_bw));
    let o_filt = Arc::new(Filter::new(
        o_scan,
        move |r| (lo..hi).contains(&gen::o_orderdate(r)),
        tick,
    ));
    let o_proj = Arc::new(Project::new(
        o_filt,
        9,
        |r, out| {
            out.extend_from_slice(&gen::o_orderkey(r).to_le_bytes());
            out.push(gen::o_orderpriority(r));
        },
        tick,
    ));
    (li_proj, o_proj)
}

/// Q4's aggregation: COUNT(*) by order priority over the semi-join output.
fn q4_aggregate(
    runtime: &Arc<VerbsRuntime>,
    semi: Arc<dyn Operator>,
    threads: usize,
    hash_cost: SimDuration,
) -> Arc<dyn Operator> {
    Arc::new(HashAggregate::new(
        runtime.kernel(),
        semi,
        |row| row[8] as u64, // o_orderpriority
        |row| {
            let mut acc = (row[8] as u64).to_le_bytes().to_vec();
            acc.extend_from_slice(&1i64.to_le_bytes());
            acc
        },
        |acc, _row| {
            let cur = i64::from_le_bytes(acc[8..16].try_into().expect("8 bytes"));
            acc[8..16].copy_from_slice(&(cur + 1).to_le_bytes());
        },
        16,
        threads,
        hash_cost,
    ))
}

fn q_key8(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[0..8].try_into().expect("8 bytes"))
}

/// Host-side reference execution for validation: computes the same
/// aggregate map directly from the generated data.
pub fn reference(dataset: &Dataset, query: QueryId) -> HashMap<u64, i64> {
    let mut out = HashMap::new();
    match query {
        QueryId::Q4 => {
            let lo = gen::date(1993, 7, 1);
            let hi = gen::date(1993, 10, 1);
            let mut has_late_line = std::collections::HashSet::new();
            for frag in &dataset.lineitem {
                for r in frag.iter() {
                    if gen::l_commitdate(r) < gen::l_receiptdate(r) {
                        has_late_line.insert(gen::l_orderkey(r));
                    }
                }
            }
            for frag in &dataset.orders {
                for r in frag.iter() {
                    if (lo..hi).contains(&gen::o_orderdate(r))
                        && has_late_line.contains(&gen::o_orderkey(r))
                    {
                        *out.entry(gen::o_orderpriority(r) as u64).or_insert(0) += 1;
                    }
                }
            }
        }
        QueryId::Q3 => {
            let cut = gen::date(1995, 3, 15);
            let mut building = std::collections::HashSet::new();
            for frag in &dataset.customer {
                for r in frag.iter() {
                    if gen::c_mktsegment(r) == MKTSEGMENT_BUILDING {
                        building.insert(gen::c_custkey(r));
                    }
                }
            }
            let mut qualifying_orders = std::collections::HashSet::new();
            for frag in &dataset.orders {
                for r in frag.iter() {
                    if gen::o_orderdate(r) < cut && building.contains(&gen::o_custkey(r)) {
                        qualifying_orders.insert(gen::o_orderkey(r));
                    }
                }
            }
            for frag in &dataset.lineitem {
                for r in frag.iter() {
                    if gen::l_shipdate(r) > cut && qualifying_orders.contains(&gen::l_orderkey(r)) {
                        *out.entry(gen::l_orderkey(r)).or_insert(0) +=
                            revenue(gen::l_extendedprice(r), gen::l_discount(r));
                    }
                }
            }
        }
        QueryId::Q10 => {
            let lo = gen::date(1993, 10, 1);
            let hi = gen::date(1994, 1, 1);
            let mut order_cust = HashMap::new();
            for frag in &dataset.orders {
                for r in frag.iter() {
                    if (lo..hi).contains(&gen::o_orderdate(r)) {
                        order_cust.insert(gen::o_orderkey(r), gen::o_custkey(r));
                    }
                }
            }
            for frag in &dataset.lineitem {
                for r in frag.iter() {
                    if gen::l_returnflag(r) == b'R' {
                        if let Some(&ck) = order_cust.get(&gen::l_orderkey(r)) {
                            *out.entry(ck).or_insert(0) +=
                                revenue(gen::l_extendedprice(r), gen::l_discount(r));
                        }
                    }
                }
            }
        }
    }
    out
}
