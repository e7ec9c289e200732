//! Whole-query cells that sit in no workload: the fourth transport
//! (MEMQ/WR), Q4 with no network at all, Q4 over the MPI baseline, and
//! the simulated qperf against the paper's two line-rate figures.

use rshuffle::{EndpointImpl, EndpointMode, ShuffleAlgorithm};
use rshuffle_baselines::qperf::qperf_peak_bandwidth;
use rshuffle_simnet::DeviceProfile;
use rshuffle_tpch::queries::reference;
use rshuffle_tpch::{run_query, Placement, QueryId, QueryTransport};

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::workloads::shuffle::{run_cell, ShuffleSpec};
use crate::workloads::{tpch, Ctx};

const GIB: f64 = (1u64 << 30) as f64;
/// Scale factor of the Q4 driver datasets (whole cluster).
const Q4_SCALE: f64 = 0.08;

pub fn run(seed: u64, tracer: &Tracer, layers: &mut Values) {
    // MEMQ/WR, EDR, N = 8, 8 MiB/node: guards `wr_rc` through refactors.
    let wr = ShuffleSpec {
        bytes_per_node: 8 << 20,
        ..ShuffleSpec::new(
            DeviceProfile::edr(),
            8,
            ShuffleAlgorithm {
                mode: EndpointMode::Multi,
                imp: EndpointImpl::MqWr,
            },
        )
    };
    let quiet = Tracer::new(tracer.origin(), false);
    let ctx = Ctx {
        tracer: &quiet,
        traced: false,
        sabotage: false,
        volume_div: 1,
    };
    let it = run_cell(&wr, seed, &ctx);
    assert_eq!(it.failed, 0, "MEMQ/WR driver: {:?}", it.notes);
    let per_node_gib = it.payload_mib / 1024.0 / wr.nodes as f64;
    layers.insert(
        "core.endpoint.wr_rc_virt_gibps",
        per_node_gib / (it.virt_ns as f64 / 1e9),
    );

    // Q4 on a co-partitioned database: the engine with no network.
    let edr = DeviceProfile::edr();
    let threads = edr.threads_per_node;
    let local_data = tpch::generate(Q4_SCALE, Placement::CoPartitioned, seed);
    let (local, local_host_s) = tracer.span("engine.local_q4", None, || {
        run_query(
            edr.clone(),
            &local_data,
            QueryId::Q4,
            QueryTransport::LocalData,
            threads,
        )
    });
    assert_eq!(
        local.groups,
        reference(&local_data, QueryId::Q4),
        "local Q4 driver: wrong answer"
    );
    layers.insert(
        "engine.local_q4_virt_ms",
        local.response_time.as_millis_f64(),
    );
    layers.insert("engine.local_q4_host_s", local_host_s);

    // Q4 over MPI ÷ Q4 over MESQ/SR (the paper's headline "up to 2×").
    let random = tpch::generate(Q4_SCALE, Placement::Random, seed);
    let answer = reference(&random, QueryId::Q4);
    let mut virt_ms = [0.0; 2];
    for (slot, transport) in [
        QueryTransport::Mpi,
        QueryTransport::Rdma(ShuffleAlgorithm::MESQ_SR),
    ]
    .into_iter()
    .enumerate()
    {
        let r = run_query(edr.clone(), &random, QueryId::Q4, transport, threads);
        assert_eq!(r.groups, answer, "Q4 over {transport}: wrong answer");
        virt_ms[slot] = r.response_time.as_millis_f64();
    }
    layers.insert("baselines.mpi_q4_slowdown", virt_ms[0] / virt_ms[1]);

    // The only reference *numbers* the repo holds: qperf at 11.5 GiB/s
    // (EDR) and 6 GiB/s (FDR). Mean absolute error of the two, percent.
    let err = |profile: DeviceProfile, paper_gibps: f64| {
        let measured = qperf_peak_bandwidth(&profile, 64 * 1024) / GIB;
        assert!(measured > 0.0, "qperf driver: nothing arrived");
        (measured - paper_gibps).abs() / paper_gibps * 100.0
    };
    layers.insert(
        "baselines.qperf_err_pct",
        (err(DeviceProfile::edr(), 11.5) + err(DeviceProfile::fdr(), 6.0)) / 2.0,
    );
}
