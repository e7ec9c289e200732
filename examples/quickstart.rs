//! Quickstart: repartition a synthetic table across a simulated 4-node EDR
//! cluster with the paper's winning MESQ/SR design and print the receive
//! throughput.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use rshuffle_repro::engine::{drive_exchange, Generator};
use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_repro::simnet::{Cluster, DeviceProfile};
use rshuffle_repro::verbs::VerbsRuntime;

fn main() {
    let nodes = 4;
    let threads = 4;
    let rows_per_thread = 200_000; // 16-byte rows.

    // 1. A simulated EDR InfiniBand cluster and its verbs runtime.
    let cluster = Cluster::new(nodes, DeviceProfile::edr());
    let runtime = VerbsRuntime::new(cluster);

    // 2. Build and wire the shuffle endpoints: MESQ/SR = one UD queue pair
    //    per worker thread, RDMA Send/Receive, credit flow control.
    let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, threads);
    let exchange = Exchange::build(&runtime, &config).expect("exchange builds");

    // 3. On every node: a generator feeding the SHUFFLE operator, and the
    //    RECEIVE operator draining inbound buffers as 16-byte rows in
    //    batches of 2048 (nothing downstream here, so the sink is a no-op).
    let source =
        |node| Arc::new(Generator::new(rows_per_thread, threads, node as u64)) as Arc<dyn Operator>;
    drive_exchange(&runtime, &exchange, 16, 2048, source, |_, _, _| {});

    // 4. Run the virtual-time simulation to completion.
    runtime.cluster().run();

    let elapsed = runtime.kernel().now();
    let mut total: u64 = 0;
    for node in 0..nodes {
        total += exchange.bytes_received(node);
    }
    println!(
        "shuffled {:.1} MiB across {nodes} nodes in {elapsed} of virtual time",
        total as f64 / (1 << 20) as f64
    );
    println!(
        "receive throughput per node: {:.2} GiB/s",
        total as f64 / nodes as f64 / elapsed.as_secs_f64() / (1u64 << 30) as f64
    );
}
