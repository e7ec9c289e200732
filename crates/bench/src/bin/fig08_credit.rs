//! Figure 8: performance of the MQ/SR and SQ/SR algorithms when changing
//! the credit write-back frequency (8 nodes, 16 buffers per thread per
//! remote node; FDR and EDR).

use rshuffle::ShuffleAlgorithm;
use rshuffle_baselines::qperf_peak_bandwidth;
use rshuffle_bench::report::Figure;
use rshuffle_bench::{run_shuffle_workload, Transport, WorkloadConfig};
use rshuffle_simnet::profile::GIB;
use rshuffle_simnet::DeviceProfile;

fn main() {
    let freqs = [1u32, 2, 3, 4, 8, 16];
    let algorithms = [
        ShuffleAlgorithm::SEMQ_SR,
        ShuffleAlgorithm::MEMQ_SR,
        ShuffleAlgorithm::SESQ_SR,
        ShuffleAlgorithm::MESQ_SR,
    ];
    for (sub, profile) in [
        ("fig08a", DeviceProfile::fdr()),
        ("fig08b", DeviceProfile::edr()),
    ] {
        let mut fig = Figure::new(
            sub,
            &format!(
                "Credit write-back frequency vs receive throughput, 8 nodes, {} InfiniBand",
                profile.name
            ),
            "frequency of credit update",
            "receive throughput per node (GiB/s)",
        );
        for a in algorithms {
            let mut points = Vec::new();
            for &f in &freqs {
                let mut cfg = WorkloadConfig::new(profile.clone(), 8, Transport::Rdma(a));
                cfg.exchange.credit_writeback_frequency = f;
                // §5.1.1: each thread registers 16 RDMA buffers per remote
                // node.
                cfg.exchange.buffers_per_peer = 16;
                let r = run_shuffle_workload(&cfg);
                assert!(r.errors.is_empty(), "{a} freq {f}: {:?}", r.errors);
                points.push((f as f64, r.gib_per_sec()));
                // The last MESQ/SR run at the highest frequency keeps its
                // full snapshot in the figure record: the credit-stall
                // series is the evidence behind this figure.
                if a == ShuffleAlgorithm::MESQ_SR && f == *freqs.last().unwrap() {
                    fig.attach_metrics(r.metrics.clone());
                }
            }
            fig.push(&a.to_string(), points);
        }
        // Reference lines: MPI (frequency-independent) and qperf.
        let mpi = run_shuffle_workload(&WorkloadConfig::new(profile.clone(), 8, Transport::Mpi));
        fig.push(
            "MPI",
            freqs
                .iter()
                .map(|&f| (f as f64, mpi.gib_per_sec()))
                .collect(),
        );
        let qperf = qperf_peak_bandwidth(&profile, 64 * 1024) / GIB;
        fig.push("qperf", freqs.iter().map(|&f| (f as f64, qperf)).collect());
        fig.emit();
    }
}
