//! Failure injection: run the MESQ/SR shuffle over an Unreliable Datagram
//! fabric that actually loses packets, observe the counting-based
//! termination detect the loss (§4.4.2), and restart the query — the
//! paper's recovery strategy ("we treat this as a network error and
//! restart the query").
//!
//! ```sh
//! cargo run --release --example loss_and_restart
//! ```

use std::sync::Arc;

use rshuffle_obs::names;
use rshuffle_repro::engine::{drive_exchange, Generator};
use rshuffle_repro::rshuffle::{
    Exchange, ExchangeConfig, Operator, ShuffleAlgorithm, ShuffleError,
};
use rshuffle_repro::simnet::{Cluster, DeviceProfile};
use rshuffle_repro::verbs::{FaultConfig, VerbsRuntime};

/// One attempt: returns Ok(bytes shuffled) or the first worker error.
fn attempt(drop_probability: f64, seed: u64) -> Result<u64, ShuffleError> {
    let nodes = 3;
    let threads = 2;
    let cluster = Cluster::new(nodes, DeviceProfile::edr());
    let runtime = VerbsRuntime::with_faults(
        cluster,
        FaultConfig {
            ud_drop_probability: drop_probability,
            ud_reorder_probability: 0.2,
            seed,
            ..FaultConfig::default()
        },
    );
    let config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, nodes, threads);
    let exchange = Exchange::build(&runtime, &config).expect("exchange builds");
    let source = |node| Arc::new(Generator::new(60_000, threads, node as u64)) as Arc<dyn Operator>;
    let fragment_stats = drive_exchange(&runtime, &exchange, 16, 2048, source, |_, _, _| {});
    runtime.cluster().run();

    let counted = |series| runtime.obs().metrics.counter_total(series);
    println!(
        "  attempt: {} datagrams lost in the network, {} reordered",
        counted(names::VERBS_UD_DROPPED),
        counted(names::VERBS_UD_REORDERED)
    );
    for stats in &fragment_stats {
        let stats = stats.lock();
        if let Some(e) = stats.errors.first() {
            return Err(e.clone());
        }
    }
    Ok((0..nodes).map(|n| exchange.bytes_received(n)).sum())
}

fn main() {
    println!("run 1: lossy network (0.5% datagram loss)");
    let mut seed = 1u64;
    let mut attempts = 0;
    loop {
        attempts += 1;
        // First attempt over a lossy fabric; retries get a healthy one
        // (the loss events of §4.4.2 are rare bit errors, not congestion).
        let p = if attempts == 1 { 0.005 } else { 0.0 };
        match attempt(p, seed) {
            Ok(bytes) => {
                println!(
                    "query finished after {attempts} attempt(s): {:.1} MiB shuffled",
                    bytes as f64 / (1 << 20) as f64
                );
                assert!(attempts > 1, "the lossy first attempt should have failed");
                break;
            }
            Err(e) => {
                println!("  query failed ({e}); restarting");
                seed += 1;
            }
        }
        assert!(attempts < 5, "restart loop must converge");
    }
}
