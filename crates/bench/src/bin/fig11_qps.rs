//! Figure 11: effect of many Queue Pairs — repartition on 16 nodes (EDR),
//! sweeping the number of endpoints per operator, which controls the
//! number of Queue Pairs (Table 1).

use rshuffle::{EndpointImpl, EndpointMode, ShuffleAlgorithm};
use rshuffle_bench::report::Figure;
use rshuffle_bench::{run_shuffle_workload, Transport, WorkloadConfig};
use rshuffle_simnet::DeviceProfile;

fn main() {
    let profile = DeviceProfile::edr();
    let nodes = 16usize;
    let threads = profile.threads_per_node; // 14
    let lane_sweep = [1usize, 2, 7, 14];

    let mut fig = Figure::new(
        "fig11",
        "Number of Queue Pairs per operator vs throughput, 16 nodes, EDR",
        "queue pairs per operator",
        "receive throughput per node (GiB/s)",
    );
    for imp in [EndpointImpl::SqSr, EndpointImpl::MqSr, EndpointImpl::MqRd] {
        let mut points = Vec::new();
        for &lanes in &lane_sweep {
            // The lane count interpolates between SE (1) and ME (threads);
            // the algorithm's mode field only picks the default.
            let algorithm = ShuffleAlgorithm {
                mode: if lanes == 1 {
                    EndpointMode::Single
                } else {
                    EndpointMode::Multi
                },
                imp,
            };
            let mut cfg = WorkloadConfig::new(profile.clone(), nodes, Transport::Rdma(algorithm));
            cfg.exchange.lanes_override = Some(lanes);
            let r = run_shuffle_workload(&cfg);
            assert!(
                r.errors.is_empty(),
                "{algorithm} lanes {lanes}: {:?}",
                r.errors
            );
            let qps = match imp {
                EndpointImpl::SqSr => lanes,
                _ => lanes * (nodes - 1),
            };
            points.push((qps as f64, r.gib_per_sec()));
            eprintln!(
                "[fig11] {imp:?} lanes={lanes} qps={qps}: {:.2} GiB/s",
                r.gib_per_sec()
            );
        }
        let label = match imp {
            EndpointImpl::SqSr => "SQ/SR",
            EndpointImpl::MqSr => "MQ/SR",
            EndpointImpl::MqRd => "MQ/RD",
            EndpointImpl::MqWr => "MQ/WR",
        };
        fig.push(label, points);
    }
    let _ = threads;
    fig.emit();
}
