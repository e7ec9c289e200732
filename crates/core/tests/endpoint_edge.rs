//! Edge-path tests for the endpoint implementations: setup-cost
//! accounting, configuration validation and buffer bookkeeping.

use std::sync::Arc;

use rshuffle::{
    Exchange, ExchangeConfig, PhasePolicy, ShuffleAlgorithm, ShuffleError, StreamState,
    TransmissionGroups,
};
use rshuffle_simnet::{Cluster, DeviceProfile, SimTime};
use rshuffle_verbs::VerbsRuntime;

fn runtime(nodes: usize) -> Arc<VerbsRuntime> {
    VerbsRuntime::new(Cluster::new(nodes, DeviceProfile::edr()))
}

#[test]
fn exchange_rejects_mismatched_group_count() {
    let rt = runtime(3);
    let config = ExchangeConfig::with_groups(
        ShuffleAlgorithm::MESQ_SR,
        2,
        vec![TransmissionGroups::repartition(0, 3)], // Only 1 of 3.
    );
    let err = Exchange::build(&rt, &config).err().expect("must fail");
    assert!(matches!(err, ShuffleError::Config(_)));
}

#[test]
fn exchange_rejects_out_of_range_destination() {
    let rt = runtime(2);
    let config = ExchangeConfig::with_groups(
        ShuffleAlgorithm::MEMQ_SR,
        2,
        vec![
            TransmissionGroups::new(vec![vec![5]]), // Node 5 does not exist.
            TransmissionGroups::repartition(1, 2),
        ],
    );
    let err = Exchange::build(&rt, &config).err().expect("must fail");
    assert!(matches!(err, ShuffleError::Config(_)));
}

#[test]
fn exchange_rejects_bad_lane_count() {
    let rt = runtime(2);
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 2, 4);
    config.lanes_override = Some(9); // More lanes than threads.
    assert!(Exchange::build(&rt, &config).is_err());
}

#[test]
fn rejected_configuration_pins_nothing() {
    // Phasing needs singleton groups and a broadcast has none. The build
    // must refuse before any endpoint registers its pools: endpoints never
    // release on their own, so a late refusal would leave them pinned.
    for algorithm in ShuffleAlgorithm::ALL {
        let rt = runtime(3);
        let mut config = ExchangeConfig::broadcast(algorithm, 3, 2);
        config.phase = PhasePolicy::Naive;
        let err = Exchange::build(&rt, &config).err().expect("must fail");
        assert!(
            matches!(err, ShuffleError::Config(_)),
            "{algorithm}: {err:?}"
        );
        for node in 0..3 {
            assert_eq!(
                rt.registered_bytes(node),
                0,
                "{algorithm}: node {node} left pinned"
            );
        }
    }
}

#[test]
fn setup_cost_scales_with_queue_pair_count() {
    // Figure 12's mechanism: MQ endpoints pay per-peer connection costs,
    // so their setup grows with the cluster while SQ setup does not.
    let setup_ms = |algorithm, nodes| {
        let rt = runtime(nodes);
        let config = ExchangeConfig::repartition(algorithm, nodes, 4);
        let exchange = Arc::new(Exchange::build(&rt, &config).expect("builds"));
        let ex = exchange.clone();
        rt.cluster().spawn(0, "setup", move |sim| {
            ex.charge_setup(&sim, 0);
        });
        rt.cluster().run();
        (rt.kernel().now() - SimTime::ZERO).as_millis_f64()
    };
    let mq_small = setup_ms(ShuffleAlgorithm::MEMQ_SR, 2);
    let mq_large = setup_ms(ShuffleAlgorithm::MEMQ_SR, 8);
    let sq_small = setup_ms(ShuffleAlgorithm::MESQ_SR, 2);
    let sq_large = setup_ms(ShuffleAlgorithm::MESQ_SR, 8);
    assert!(
        mq_large > mq_small * 3.0,
        "MQ setup must grow with peers: {mq_small} -> {mq_large}"
    );
    assert!(
        sq_large < sq_small * 2.0,
        "SQ setup must stay near-flat: {sq_small} -> {sq_large}"
    );
    assert!(mq_large > sq_large, "MQ must cost more than SQ at scale");
}

#[test]
fn ud_registers_under_a_mebibyte_at_defaults() {
    // §5.1.2: "The RDMA Send/Receive algorithm in the Unreliable Datagram
    // protocol ... requires under 1 MiB of pinned memory" (send side,
    // per endpoint).
    let rt = runtime(8);
    let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, 8, 14);
    let exchange = Exchange::build(&rt, &config).expect("builds");
    for lane in &exchange.send[0] {
        assert!(
            lane.registered_bytes() < 1 << 20,
            "UD send endpoint pins {} bytes",
            lane.registered_bytes()
        );
    }
}

#[test]
fn credit_writeback_frequency_one_works() {
    // Figure 8's leftmost point: write back after every receive.
    let rt = runtime(2);
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, 2, 2);
    config.credit_writeback_frequency = 1;
    config.message_size = 4096;
    let exchange = Exchange::build(&rt, &config).expect("builds");
    let cost = rshuffle::CostModel::from_profile(rt.profile());
    for node in 0..2 {
        let src = Arc::new(rshuffle_test_source(node));
        let sh = exchange
            .shuffle_operator(node, src, cost.clone())
            .expect("sends");
        rshuffle_engine_drive(&rt, node, Arc::new(sh), 2);
        let rc = exchange
            .receive_operator(node, 16, 512, cost.clone())
            .expect("receives");
        rshuffle_engine_drive(&rt, node, Arc::new(rc), 2);
    }
    rt.cluster().run();
    assert_eq!(
        exchange.bytes_received(0) + exchange.bytes_received(1),
        2 * 2 * 5_000 * 16
    );
}

// -- small local helpers (avoid an engine dev-dependency cycle) --

struct FixedSource {
    rows: Vec<parking_lot::Mutex<usize>>,
    node: usize,
}

fn rshuffle_test_source(node: usize) -> FixedSource {
    FixedSource {
        rows: (0..2).map(|_| parking_lot::Mutex::new(0)).collect(),
        node,
    }
}

impl rshuffle::Operator for FixedSource {
    fn next(
        &self,
        _sim: &rshuffle_simnet::SimContext,
        tid: usize,
    ) -> rshuffle::Result<(StreamState, rshuffle::RowBatch)> {
        let mut done = self.rows[tid].lock();
        let take = 500.min(5_000 - *done);
        let mut batch = rshuffle::RowBatch::new(16, take);
        for i in 0..take {
            let mut row = [0u8; 16];
            let key = (*done + i) as u64 ^ ((self.node as u64) << 32);
            row[0..8].copy_from_slice(&key.to_le_bytes());
            batch.push_row(&row);
        }
        *done += take;
        let state = if *done >= 5_000 {
            StreamState::Depleted
        } else {
            StreamState::MoreData
        };
        Ok((state, batch))
    }
}

fn rshuffle_engine_drive(
    rt: &Arc<VerbsRuntime>,
    node: usize,
    op: Arc<dyn rshuffle::Operator>,
    threads: usize,
) {
    for tid in 0..threads {
        let op = op.clone();
        rt.cluster()
            .spawn(node, &format!("w{node}-{tid}"), move |sim| loop {
                let (state, _batch) = op.next(&sim, tid).expect("operator");
                if state == StreamState::Depleted {
                    break;
                }
            });
    }
}
