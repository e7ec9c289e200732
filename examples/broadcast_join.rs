//! Broadcast join: replicate a small dimension table to every node with the
//! broadcast transmission pattern (Figure 3c), then join the local fact
//! fragments against it — the classic use of the broadcast shuffle in
//! parallel database systems.
//!
//! ```sh
//! cargo run --release --example broadcast_join
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rshuffle_repro::engine::{drive_to_sink, HashJoin, MemScan, Table};
use rshuffle_repro::rshuffle::{CostModel, Exchange, ExchangeConfig, ShuffleAlgorithm};
use rshuffle_repro::simnet::{Cluster, DeviceProfile, SimDuration};
use rshuffle_repro::verbs::VerbsRuntime;

fn main() {
    let nodes = 4;
    let threads = 2;
    let dim_rows_per_node = 5_000u64; // Each node owns a slice of the dimension.
    let fact_rows_per_node = 200_000u64;

    let cluster = Cluster::new(nodes, DeviceProfile::edr());
    let runtime = VerbsRuntime::new(cluster);
    let config = ExchangeConfig::broadcast(ShuffleAlgorithm::MESQ_SR, nodes, threads);
    let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
    let cost = CostModel::from_profile(runtime.profile());
    let matches = Arc::new(AtomicU64::new(0));

    for node in 0..nodes {
        // Dimension fragment: keys [node*D, (node+1)*D), value = key * 3.
        let mut dim = Table::builder(16);
        for i in 0..dim_rows_per_node {
            let key = node as u64 * dim_rows_per_node + i;
            let mut row = [0u8; 16];
            row[0..8].copy_from_slice(&key.to_le_bytes());
            row[8..16].copy_from_slice(&(key * 3).to_le_bytes());
            dim.push(&row);
        }
        // Broadcast the local dimension slice to every other node.
        let dim_scan = Arc::new(MemScan::new(dim.build(), threads, 8e9));
        let shuffle = exchange
            .shuffle_operator(node, dim_scan, cost.clone())
            .expect("every node broadcasts");
        drive_to_sink(
            runtime.cluster(),
            node,
            &format!("bcast-{node}"),
            Arc::new(shuffle),
            threads,
            |_, _| {},
        );

        // Fact fragment: keys drawn from OTHER nodes' dimension slices, so
        // matches require the broadcast to have worked.
        let mut fact = Table::builder(16);
        for i in 0..fact_rows_per_node {
            let key = (i * 7 + node as u64) % (dim_rows_per_node * nodes as u64);
            let mut row = [0u8; 16];
            row[0..8].copy_from_slice(&key.to_le_bytes());
            row[8..16].copy_from_slice(&i.to_le_bytes());
            fact.push(&row);
        }
        let fact_scan = Arc::new(MemScan::new(fact.build(), threads, 8e9));

        // Build side: the received (remote) dimension slices.
        let received_dim = exchange
            .receive_operator(node, 16, 2048, cost.clone())
            .expect("every node receives the others' slices");
        let join = Arc::new(HashJoin::new(
            runtime.kernel(),
            Arc::new(received_dim),
            fact_scan,
            |d| u64::from_le_bytes(d[0..8].try_into().unwrap()),
            |f| u64::from_le_bytes(f[0..8].try_into().unwrap()),
            |d, f, out| {
                out.extend_from_slice(&f[0..8]);
                out.extend_from_slice(&d[8..16]); // dimension payload
            },
            16,
            threads,
            SimDuration::from_nanos(4),
        ));
        let m = matches.clone();
        drive_to_sink(
            runtime.cluster(),
            node,
            &format!("join-{node}"),
            join,
            threads,
            move |_, batch| {
                // Verify the dimension payload arrived intact: value = key*3.
                for row in batch.iter() {
                    let key = u64::from_le_bytes(row[0..8].try_into().unwrap());
                    let val = u64::from_le_bytes(row[8..16].try_into().unwrap());
                    assert_eq!(val, key * 3, "broadcast corrupted the dimension");
                }
                m.fetch_add(batch.rows() as u64, Ordering::Relaxed);
            },
        );
    }

    runtime.cluster().run();
    let total = matches.load(Ordering::Relaxed);
    // Fact keys referencing the LOCAL dimension slice do not match (the
    // broadcast excludes self per Figure 3c), so expect roughly
    // (nodes-1)/nodes of all fact rows to join.
    println!(
        "broadcast join produced {total} matches across {nodes} nodes in {}",
        runtime.kernel().now()
    );
    let expected_min =
        fact_rows_per_node * nodes as u64 * (nodes as u64 - 1) / nodes as u64 * 9 / 10;
    assert!(
        total >= expected_min,
        "too few matches: {total} < {expected_min}"
    );
    println!("dimension payloads verified on every matched row");
}
