//! End-to-end shuffle correctness: every algorithm × every pattern moves
//! every row to exactly the right node(s), under virtual time, including
//! out-of-order UD delivery; injected loss triggers the query-restart
//! error.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{
    default_partition_hash, CostModel, EndpointImpl, EndpointMode, Exchange, ExchangeConfig,
    Operator, RowBatch, ShuffleAlgorithm, ShuffleError, StreamState, TransmissionGroups,
};
use rshuffle_simnet::{Cluster, DeviceProfile, SimContext};
use rshuffle_verbs::{FaultConfig, VerbsRuntime};

const ROW: usize = 16;

/// Deterministic row: 8-byte key, 8-byte provenance tag.
fn make_row(node: usize, tid: usize, seq: usize) -> [u8; ROW] {
    let mut row = [0u8; ROW];
    // A mixed key so partitions are non-trivial.
    let key = (seq as u64)
        .wrapping_mul(0x517C_C1B7_2722_0A95)
        .wrapping_add((node as u64) << 7)
        .wrapping_add(tid as u64);
    row[0..8].copy_from_slice(&key.to_le_bytes());
    let tag = ((node as u64) << 48) | ((tid as u64) << 32) | seq as u64;
    row[8..16].copy_from_slice(&tag.to_le_bytes());
    row
}

/// A fixed, thread-partitioned row source.
struct TestSource {
    batches: Vec<Mutex<Vec<RowBatch>>>,
}

impl TestSource {
    fn new(node: usize, threads: usize, rows_per_thread: usize) -> Self {
        let batches = (0..threads)
            .map(|tid| {
                let mut all = Vec::new();
                let mut batch = RowBatch::new(ROW, 256);
                for seq in 0..rows_per_thread {
                    batch.push_row(&make_row(node, tid, seq));
                    if batch.rows() == 256 {
                        all.push(std::mem::replace(&mut batch, RowBatch::new(ROW, 256)));
                    }
                }
                if !batch.is_empty() {
                    all.push(batch);
                }
                all.reverse(); // Pop from the back in order.
                Mutex::new(all)
            })
            .collect();
        TestSource { batches }
    }
}

impl Operator for TestSource {
    fn next(&self, _sim: &SimContext, tid: usize) -> rshuffle::Result<(StreamState, RowBatch)> {
        let mut q = self.batches[tid].lock();
        match q.pop() {
            Some(b) if q.is_empty() => Ok((StreamState::Depleted, b)),
            Some(b) => Ok((StreamState::MoreData, b)),
            None => Ok((StreamState::Depleted, RowBatch::new(ROW, 0))),
        }
    }
}

struct RunResult {
    /// Rows received per node (raw 16-byte rows).
    received: Vec<Vec<[u8; ROW]>>,
    /// Errors raised by any worker.
    errors: Vec<ShuffleError>,
}

#[derive(Copy, Clone, PartialEq)]
enum Pattern {
    Repartition,
    Broadcast,
}

fn run_shuffle(
    algorithm: ShuffleAlgorithm,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    rows_per_thread: usize,
    faults: FaultConfig,
) -> RunResult {
    let mut config = match pattern {
        Pattern::Repartition => ExchangeConfig::repartition(algorithm, nodes, threads),
        Pattern::Broadcast => ExchangeConfig::broadcast(algorithm, nodes, threads),
    };
    // Small RC messages so the tests exercise many buffers.
    config.message_size = 4096;
    config.buffers_per_peer = 4;
    run_exchange(&config, faults, |_| rows_per_thread)
}

/// Builds `config`'s exchange over a fresh EDR cluster and runs both
/// operators of every node to completion, node `n` sending
/// `rows_on(n)` rows per thread.
fn run_exchange(
    config: &ExchangeConfig,
    faults: FaultConfig,
    rows_on: impl Fn(usize) -> usize,
) -> RunResult {
    let (nodes, threads) = (config.groups.len(), config.threads);
    let cluster = Cluster::new(nodes, DeviceProfile::edr());
    let runtime = VerbsRuntime::with_faults(cluster, faults);
    let exchange = Exchange::build(&runtime, config).expect("exchange builds");
    let cost = CostModel::from_profile(runtime.profile());

    let received: Arc<Vec<Mutex<Vec<[u8; ROW]>>>> =
        Arc::new((0..nodes).map(|_| Mutex::new(Vec::new())).collect());
    let errors: Arc<Mutex<Vec<ShuffleError>>> = Arc::new(Mutex::new(Vec::new()));

    for node in 0..nodes {
        let source = Arc::new(TestSource::new(node, threads, rows_on(node)));
        let shuffle = exchange
            .shuffle_operator(node, source, cost.clone())
            .map(Arc::new);
        let receive = exchange
            .receive_operator(node, ROW, 256, cost.clone())
            .map(Arc::new);
        for tid in 0..threads {
            if let Some(shuffle) = shuffle.clone() {
                let errs = errors.clone();
                runtime
                    .cluster()
                    .spawn(node, &format!("send-{node}-{tid}"), move |sim| {
                        if let Err(e) = shuffle.next(&sim, tid) {
                            errs.lock().push(e);
                        }
                    });
            }
            let Some(receive) = receive.clone() else {
                continue;
            };
            let sink = received.clone();
            let errs = errors.clone();
            runtime
                .cluster()
                .spawn(node, &format!("recv-{node}-{tid}"), move |sim| loop {
                    match receive.next(&sim, tid) {
                        Ok((state, batch)) => {
                            let mut out = sink[node].lock();
                            for row in batch.iter() {
                                out.push(row.try_into().expect("16-byte row"));
                            }
                            if state == StreamState::Depleted {
                                break;
                            }
                        }
                        Err(e) => {
                            errs.lock().push(e);
                            break;
                        }
                    }
                });
        }
    }
    runtime.cluster().run();
    let result = RunResult {
        received: received.iter().map(|m| m.lock().clone()).collect(),
        errors: errors.lock().clone(),
    };
    result
}

/// Expected destination rows per node for the repartition pattern.
fn expected_repartition(
    nodes: usize,
    threads: usize,
    rows_per_thread: usize,
) -> Vec<Vec<[u8; ROW]>> {
    let mut out = vec![Vec::new(); nodes];
    for node in 0..nodes {
        let groups = TransmissionGroups::repartition(node, nodes);
        for tid in 0..threads {
            for seq in 0..rows_per_thread {
                let row = make_row(node, tid, seq);
                let g = (default_partition_hash(&row) % groups.len() as u64) as usize;
                let dest = groups.group(g)[0];
                out[dest].push(row);
            }
        }
    }
    out
}

fn sorted(mut v: Vec<[u8; ROW]>) -> Vec<[u8; ROW]> {
    v.sort_unstable();
    v
}

fn no_reorder() -> FaultConfig {
    FaultConfig {
        ud_reorder_probability: 0.0,
        ..FaultConfig::default()
    }
}

fn all_algorithms() -> Vec<ShuffleAlgorithm> {
    let mut v = ShuffleAlgorithm::ALL.to_vec();
    v.push(ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::MqWr,
    });
    v.push(ShuffleAlgorithm {
        mode: EndpointMode::Single,
        imp: EndpointImpl::MqWr,
    });
    v
}

#[test]
fn repartition_delivers_every_row_to_the_hashed_node() {
    let (nodes, threads, rows) = (3, 2, 1500);
    let expected = expected_repartition(nodes, threads, rows);
    for algorithm in all_algorithms() {
        let result = run_shuffle(
            algorithm,
            Pattern::Repartition,
            nodes,
            threads,
            rows,
            no_reorder(),
        );
        assert!(
            result.errors.is_empty(),
            "{algorithm}: workers errored: {:?}",
            result.errors
        );
        for (node, want) in expected.iter().enumerate() {
            assert_eq!(
                sorted(result.received[node].clone()),
                sorted(want.clone()),
                "{algorithm}: node {node} received the wrong multiset"
            );
        }
    }
}

#[test]
fn broadcast_delivers_every_row_to_every_other_node() {
    let (nodes, threads, rows) = (3, 2, 600);
    for algorithm in all_algorithms() {
        let result = run_shuffle(
            algorithm,
            Pattern::Broadcast,
            nodes,
            threads,
            rows,
            no_reorder(),
        );
        assert!(
            result.errors.is_empty(),
            "{algorithm}: workers errored: {:?}",
            result.errors
        );
        for node in 0..nodes {
            let mut expected = Vec::new();
            for src in 0..nodes {
                if src == node {
                    continue;
                }
                for tid in 0..threads {
                    for seq in 0..rows {
                        expected.push(make_row(src, tid, seq));
                    }
                }
            }
            assert_eq!(
                sorted(result.received[node].clone()),
                sorted(expected),
                "{algorithm}: node {node} missed broadcast rows"
            );
        }
    }
}

#[test]
fn native_multicast_broadcast_delivers_every_row() {
    // §7 extension: switch-level multicast must preserve broadcast
    // semantics exactly, including under reordering.
    let (nodes, threads, rows) = (4, 2, 800);
    let faults = FaultConfig {
        ud_reorder_probability: 0.3,
        ..no_reorder()
    };
    let mut config = ExchangeConfig::broadcast(ShuffleAlgorithm::MESQ_SR, nodes, threads);
    config.ud_native_multicast = true;
    let result = run_exchange(&config, faults, |_| rows);
    assert!(result.errors.is_empty(), "errors: {:?}", result.errors);
    for node in 0..nodes {
        let mut expected = Vec::new();
        for src in 0..nodes {
            if src == node {
                continue;
            }
            for tid in 0..threads {
                for seq in 0..rows {
                    expected.push(make_row(src, tid, seq));
                }
            }
        }
        assert_eq!(
            sorted(result.received[node].clone()),
            sorted(expected),
            "native multicast lost rows at node {node}"
        );
    }
}

#[test]
fn mesq_sr_handles_out_of_order_delivery() {
    // Heavy reordering: Depleted datagrams routinely overtake data, which
    // exercises the counting-based termination of §4.4.2.
    let faults = FaultConfig {
        ud_drop_probability: 0.0,
        ud_reorder_probability: 0.6,
        ud_reorder_window: rshuffle_simnet::SimDuration::from_micros(40),
        seed: 2024,
        ..FaultConfig::default()
    };
    let (nodes, threads, rows) = (3, 2, 1500);
    let result = run_shuffle(
        ShuffleAlgorithm::MESQ_SR,
        Pattern::Repartition,
        nodes,
        threads,
        rows,
        faults,
    );
    assert!(result.errors.is_empty(), "errors: {:?}", result.errors);
    let expected = expected_repartition(nodes, threads, rows);
    for (node, want) in expected.iter().enumerate() {
        assert_eq!(
            sorted(result.received[node].clone()),
            sorted(want.clone()),
            "node {node} under reordering"
        );
    }
}

#[test]
fn sesq_sr_handles_out_of_order_delivery() {
    let faults = FaultConfig {
        ud_drop_probability: 0.0,
        ud_reorder_probability: 0.5,
        ud_reorder_window: rshuffle_simnet::SimDuration::from_micros(25),
        seed: 7,
        ..FaultConfig::default()
    };
    let (nodes, threads, rows) = (3, 2, 800);
    let result = run_shuffle(
        ShuffleAlgorithm::SESQ_SR,
        Pattern::Repartition,
        nodes,
        threads,
        rows,
        faults,
    );
    assert!(result.errors.is_empty(), "errors: {:?}", result.errors);
}

#[test]
fn ud_packet_loss_triggers_query_restart() {
    let faults = FaultConfig {
        ud_drop_probability: 0.02,
        ud_reorder_probability: 0.0,
        seed: 99,
        ..FaultConfig::default()
    };
    let result = run_shuffle(
        ShuffleAlgorithm::MESQ_SR,
        Pattern::Repartition,
        3,
        2,
        2000,
        faults,
    );
    assert!(
        result
            .errors
            .iter()
            .any(|e| matches!(e, ShuffleError::NetworkErrorRestartQuery { .. })),
        "2% loss must surface as a restart error, got: {:?}",
        result.errors
    );
}

#[test]
fn rc_algorithms_are_loss_free_by_construction() {
    // The same fault config only drops UD datagrams; RC traffic is immune.
    let faults = FaultConfig {
        ud_drop_probability: 0.5,
        ud_reorder_probability: 0.0,
        seed: 1,
        ..FaultConfig::default()
    };
    let (nodes, threads, rows) = (3, 2, 800);
    let expected = expected_repartition(nodes, threads, rows);
    for algorithm in [ShuffleAlgorithm::MEMQ_SR, ShuffleAlgorithm::MEMQ_RD] {
        let result = run_shuffle(
            algorithm,
            Pattern::Repartition,
            nodes,
            threads,
            rows,
            faults.clone(),
        );
        assert!(result.errors.is_empty(), "{algorithm}: {:?}", result.errors);
        for (node, want) in expected.iter().enumerate() {
            assert_eq!(
                sorted(result.received[node].clone()),
                sorted(want.clone()),
                "{algorithm}: node {node}"
            );
        }
    }
}

#[test]
fn multicast_groups_deliver_to_each_group_member() {
    // Figure 3b: node 0 multicasts to {1, 2} and {3}; other nodes stay
    // quiet senders with a trivial group to keep the exchange symmetric.
    let nodes = 4;
    let threads = 2;
    let groups: Vec<TransmissionGroups> = (0..nodes)
        .map(|me| {
            if me == 0 {
                TransmissionGroups::new(vec![vec![1, 2], vec![3]])
            } else {
                TransmissionGroups::repartition(me, nodes)
            }
        })
        .collect();
    let mut config = ExchangeConfig::with_groups(ShuffleAlgorithm::MEMQ_SR, threads, groups);
    config.message_size = 4096;
    let rows = 1200;
    let result = run_exchange(
        &config,
        no_reorder(),
        |node| if node == 0 { rows } else { 40 },
    );
    assert!(result.errors.is_empty(), "errors: {:?}", result.errors);

    // Node 0's rows that hash to group 0 must appear on BOTH node 1 and 2;
    // group-1 rows only on node 3.
    let mut expect: HashMap<usize, Vec<[u8; ROW]>> = HashMap::new();
    for tid in 0..threads {
        for seq in 0..rows {
            let row = make_row(0, tid, seq);
            let g = (default_partition_hash(&row) % 2) as usize;
            if g == 0 {
                expect.entry(1).or_default().push(row);
                expect.entry(2).or_default().push(row);
            } else {
                expect.entry(3).or_default().push(row);
            }
        }
    }
    for target in [1usize, 2, 3] {
        let got: Vec<[u8; ROW]> = result.received[target]
            .iter()
            .copied()
            .filter(|r| node_of(r) == 0)
            .collect();
        assert_eq!(
            sorted(got),
            sorted(expect.remove(&target).unwrap_or_default()),
            "multicast rows from node 0 at node {target}"
        );
    }
}

fn node_of(row: &[u8; ROW]) -> usize {
    let tag = u64::from_le_bytes(row[8..16].try_into().expect("8 bytes"));
    (tag >> 48) as usize
}
