//! The NIC pipeline and fabric port models, called directly: pure
//! host-side ledger arithmetic, no simulated threads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rshuffle_simnet::nic::WrKind;
use rshuffle_simnet::{
    DeviceProfile, Fabric, FlowTable, IncastModel, NicModel, SimDuration, SimTime, Topology,
};

/// `NicModel::process` over 1 000 rotating QP contexts — more than the
/// EDR cache holds, so hits and misses both occur. Host ns per call.
pub fn nic_process_ns() -> f64 {
    const CALLS: u64 = 500_000;
    let nic = NicModel::new(&DeviceProfile::edr());
    let mut at = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..CALLS {
        at = nic.process(black_box(at), i % 1000, WrKind::SendRc);
    }
    let ns = start.elapsed().as_nanos() as f64;
    let stats = nic.stats();
    assert_eq!(
        stats.work_requests, CALLS,
        "nic driver: every call is one WR"
    );
    assert!(
        stats.qp_cache_misses > 0 && at > SimTime::ZERO,
        "nic driver: 1 000 contexts must miss the cache and occupy the pipeline"
    );
    ns / CALLS as f64
}

/// `Fabric::transfer` of 4 KiB messages on the 64-node 4:1 fat tree with
/// incast, every node sending to a rotating peer. Host ns per call.
pub fn fabric_transfer_ns() -> f64 {
    const CALLS: usize = 300_000;
    const NODES: usize = 64;
    let profile = DeviceProfile::edr();
    let fabric = Fabric::with_topology(
        NODES,
        &profile,
        Arc::new(FlowTable::new()),
        Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4)),
    );
    let mut delivered = SimTime::ZERO;
    let start = Instant::now();
    for i in 0..CALLS {
        let from = i % NODES;
        let to = (from + 1 + (i / NODES) % (NODES - 1)) % NODES;
        let depart = SimTime::ZERO + SimDuration::from_nanos(i as u64 * 50);
        delivered = delivered.max(fabric.transfer(from, to, 4096, black_box(depart)));
    }
    let ns = start.elapsed().as_nanos() as f64;
    let wire = profile.wire_time(4096) * (CALLS / NODES) as u64;
    assert!(
        delivered >= SimTime::ZERO + wire,
        "fabric driver: a port cannot deliver faster than its line rate"
    );
    ns / CALLS as f64
}
