//! Ablation: the RDMA Write endpoint the paper leaves as future work (§7),
//! compared against the published one-sided (MQ/RD) and two-sided (MQ/SR)
//! designs on both patterns.

use rshuffle::{EndpointImpl, EndpointMode, ShuffleAlgorithm};
use rshuffle_bench::report::Figure;
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::DeviceProfile;

fn main() {
    let profile = DeviceProfile::edr();
    let memq_wr = ShuffleAlgorithm {
        mode: EndpointMode::Multi,
        imp: EndpointImpl::MqWr,
    };
    let algorithms = [
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::MEMQ_RD,
        memq_wr,
        ShuffleAlgorithm::MESQ_SR,
    ];
    let mut fig = Figure::new(
        "ablate_write",
        "RDMA Write endpoint ablation, 8 nodes, EDR (x: 0 = repartition, 1 = broadcast)",
        "pattern (0=repartition, 1=broadcast)",
        "receive throughput per node (GiB/s)",
    );
    for a in algorithms {
        let mut points = Vec::new();
        for (x, pattern) in [(0.0, Pattern::Repartition), (1.0, Pattern::Broadcast)] {
            let mut cfg = WorkloadConfig::new(profile.clone(), 8, Transport::Rdma(a));
            cfg.set_pattern(pattern);
            if pattern == Pattern::Broadcast {
                cfg.bytes_per_node = (cfg.bytes_per_node / 7).max(4 << 20);
            }
            let r = run_shuffle_workload(&cfg);
            assert!(r.errors.is_empty(), "{a} {pattern:?}: {:?}", r.errors);
            points.push((x, r.gib_per_sec()));
            eprintln!(
                "[ablate_write] {a} {pattern:?}: {:.2} GiB/s",
                r.gib_per_sec()
            );
        }
        fig.push(&a.to_string(), points);
    }
    fig.emit();
}
