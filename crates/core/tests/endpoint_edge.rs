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
        config.phase = PhasePolicy::SkewAware;
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

/// Builds `algorithm` on a fresh 3-node runtime with credit written back
/// every `frequency` releases; a refusal must be typed and pin nothing.
fn built(algorithm: ShuffleAlgorithm, frequency: u32) -> Result<(), String> {
    let rt = runtime(3);
    let mut config = ExchangeConfig::repartition(algorithm, 3, 2);
    config.credit_writeback_frequency = frequency;
    match Exchange::build(&rt, &config) {
        Ok(_) => Ok(()),
        Err(ShuffleError::Config(why)) => {
            assert!(why.contains("credit_writeback_frequency"), "{why}");
            for node in 0..3 {
                assert_eq!(
                    rt.registered_bytes(node),
                    0,
                    "{algorithm}: node {node} pinned"
                );
            }
            Err(why)
        }
        Err(other) => panic!("{algorithm} at frequency {frequency}: {other:?}"),
    }
}

#[test]
fn a_credit_writeback_frequency_of_zero_is_refused() {
    // Every design that writes credit back would never write it.
    for algorithm in ShuffleAlgorithm::ALL {
        let refused = built(algorithm, 0);
        let writes_back = algorithm.to_string().ends_with("/SR");
        assert_eq!(refused.is_err(), writes_back, "{algorithm}: {refused:?}");
    }
}

#[test]
fn a_credit_writeback_frequency_past_the_receive_depth_is_refused() {
    // MQ/SR: a sender blocked at its grant of `recv_depth_per_peer` (16)
    // is refilled only if that many releases make a write-back due. An
    // SE endpoint serves both threads, so its depth is twice as deep.
    assert!(built(ShuffleAlgorithm::MEMQ_SR, 16).is_ok());
    assert!(built(ShuffleAlgorithm::MEMQ_SR, 17).is_err());
    assert!(built(ShuffleAlgorithm::SEMQ_SR, 32).is_ok());
    assert!(built(ShuffleAlgorithm::SEMQ_SR, 33).is_err());
}

#[test]
fn a_credit_writeback_frequency_past_the_ud_window_is_refused() {
    // SQ/SR: the same bound against the UD receive window (16).
    assert!(built(ShuffleAlgorithm::MESQ_SR, 16).is_ok());
    assert!(built(ShuffleAlgorithm::MESQ_SR, 17).is_err());
    assert!(built(ShuffleAlgorithm::SESQ_SR, 32).is_ok());
    assert!(built(ShuffleAlgorithm::SESQ_SR, 33).is_err());
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
    // per endpoint). Node 0 sends to the other seven and hears from no
    // one, so all it registers is one send endpoint per lane.
    let (nodes, lanes) = (8, 14);
    let rt = runtime(nodes);
    let mut groups = vec![TransmissionGroups::new(Vec::new()); nodes];
    groups[0] = TransmissionGroups::repartition(0, nodes);
    let config = ExchangeConfig::with_groups(ShuffleAlgorithm::MESQ_SR, lanes, groups);
    let exchange = Exchange::build(&rt, &config).expect("builds");
    assert_eq!(exchange.send[0].len(), lanes);
    let per_endpoint = exchange.registered_bytes(0) / lanes;
    assert!(
        per_endpoint < 1 << 20,
        "UD send endpoint pins {per_endpoint} bytes"
    );
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

#[test]
fn a_send_to_no_destination_is_a_config_error() {
    // One transport each — sr_rc, sr_ud (unicast and native multicast),
    // rd_rc, wr_rc: a send with an empty destination list is refused as a
    // configuration error, not a panic that takes the kernel down.
    let wr = ShuffleAlgorithm::parse("MEMQ/WR").expect("WR parses");
    let designs = [
        (ShuffleAlgorithm::MEMQ_SR, false),
        (ShuffleAlgorithm::MESQ_SR, false),
        (ShuffleAlgorithm::MESQ_SR, true),
        (ShuffleAlgorithm::MEMQ_RD, false),
        (wr, false),
    ];
    for (algorithm, multicast) in designs {
        let rt = runtime(2);
        let mut config = ExchangeConfig::repartition(algorithm, 2, 1);
        config.ud_native_multicast = multicast;
        let exchange = Exchange::build(&rt, &config).expect("builds");
        let send = exchange.send[0][0].clone();
        let sent = Arc::new(parking_lot::Mutex::new(None));
        let out = sent.clone();
        rt.cluster().spawn(0, "sender", move |sim| {
            let buf = send.get_free(&sim);
            *out.lock() =
                Some(buf.and_then(|buf| send.send(&sim, buf, &[], StreamState::MoreData)));
        });
        rt.cluster().run();
        let sent = sent.lock().take();
        assert!(
            matches!(sent, Some(Err(ShuffleError::Config(_)))),
            "{algorithm} (multicast {multicast}): {sent:?}"
        );
    }
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
