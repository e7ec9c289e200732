//! Quick calibration probe: prints receive throughput for every transport
//! at one configuration. Not a paper figure; used to sanity-check the cost
//! model against the paper's reference points.

use rshuffle::ShuffleAlgorithm;
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::DeviceProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile_name = args.get(1).map(String::as_str).unwrap_or("edr");
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let pattern = match args.get(3).map(String::as_str) {
        Some("broadcast") => Pattern::Broadcast,
        _ => Pattern::Repartition,
    };
    let profile = DeviceProfile::by_name(profile_name).expect("fdr|edr");

    let transports: Vec<Transport> = ShuffleAlgorithm::ALL
        .iter()
        .map(|&a| Transport::Rdma(a))
        .chain([Transport::Mpi, Transport::Ipoib])
        .collect();

    println!(
        "profile={} nodes={nodes} pattern={pattern:?} (volume per node: {} MiB)",
        profile.name,
        rshuffle_bench::workload::default_volume() >> 20
    );
    for t in transports {
        let mut cfg = WorkloadConfig::new(profile.clone(), nodes, t);
        cfg.set_pattern(pattern);
        let started = std::time::Instant::now();
        let r = run_shuffle_workload(&cfg);
        println!(
            "{:>10}: {:>7.2} GiB/s  response {:>10}  reg {:>8} KiB  errs {}  [{:?} wall]",
            t.to_string(),
            r.gib_per_sec(),
            format!("{}", r.response_time),
            r.registered_bytes_per_node / 1024,
            r.errors.len(),
            started.elapsed()
        );
    }
}
