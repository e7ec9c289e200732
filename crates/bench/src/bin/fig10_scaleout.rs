//! Figure 10: receive throughput when changing the number of nodes in the
//! cluster — repartition and broadcast, FDR and EDR, the six RDMA designs
//! plus MPI and IPoIB, with the qperf line as the peak reference.

use rshuffle::ShuffleAlgorithm;
use rshuffle_baselines::qperf_peak_bandwidth;
use rshuffle_bench::report::Figure;
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::profile::GIB;
use rshuffle_simnet::DeviceProfile;

fn main() {
    let cluster_sizes = [2usize, 4, 8, 16];
    let transports: Vec<Transport> = [
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::MEMQ_RD,
        ShuffleAlgorithm::MESQ_SR,
        ShuffleAlgorithm::SEMQ_SR,
        ShuffleAlgorithm::SEMQ_RD,
        ShuffleAlgorithm::SESQ_SR,
    ]
    .into_iter()
    .map(Transport::Rdma)
    .chain([Transport::Mpi, Transport::Ipoib])
    .collect();

    let cases = [
        ("fig10a", DeviceProfile::fdr(), Pattern::Repartition),
        ("fig10b", DeviceProfile::fdr(), Pattern::Broadcast),
        ("fig10c", DeviceProfile::edr(), Pattern::Repartition),
        ("fig10d", DeviceProfile::edr(), Pattern::Broadcast),
    ];
    for (id, profile, pattern) in cases {
        let mut fig = Figure::new(
            id,
            &format!(
                "{:?} throughput vs cluster size, {} InfiniBand",
                pattern, profile.name
            ),
            "nodes",
            "receive throughput per node (GiB/s)",
        );
        for &t in &transports {
            let mut points = Vec::new();
            for &n in &cluster_sizes {
                let mut cfg = WorkloadConfig::new(profile.clone(), n, t);
                cfg.set_pattern(pattern);
                if pattern == Pattern::Broadcast {
                    // Every node transmits its fragment to n-1 peers; keep
                    // total simulated traffic bounded.
                    cfg.bytes_per_node =
                        (rshuffle_bench::workload::default_volume() / (n - 1)).max(4 << 20);
                }
                let r = run_shuffle_workload(&cfg);
                assert!(r.errors.is_empty(), "{t} n={n}: {:?}", r.errors);
                points.push((n as f64, r.gib_per_sec()));
                eprintln!("[{id}] {t} n={n}: {:.2} GiB/s", r.gib_per_sec());
            }
            fig.push(&t.to_string(), points);
        }
        if pattern == Pattern::Repartition {
            // qperf does not support the broadcast pattern (§5.1.3).
            let q = qperf_peak_bandwidth(&profile, 64 * 1024) / GIB;
            fig.push(
                "qperf",
                cluster_sizes.iter().map(|&n| (n as f64, q)).collect(),
            );
        }
        fig.emit();
    }
}
