//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names;
//! `check.sh` fails when the two drift apart.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, per workload, with tracing off.
/// `failed_share` (ops_failed / ops) is printed beside these but travels
/// in the result line's `attempted` / `failed`, because a relative bound
/// on a metric that is always 0 bounds nothing.
pub const END_TO_END: &[MetricDef] = &[
    m("virt_response_ms", "ms"),
    m("host_wall_s", "s"),
    m("setup_s", "s"),
    m("host_peak_rss_mib", "MiB"),
];

/// Single layers, from the traced run. Rows that do not apply to a
/// workload (e.g. `tpch.*` on a shuffle row) read 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("simnet.kernel.threads", "count"),
    m("simnet.kernel.ctx_switches_per_mib", "1/MiB"),
    m("simnet.kernel.sys_share", "ratio"),
    m("simnet.kernel.handoff_ns", "ns"),
    m("simnet.kernel.gate_wake_ns", "ns"),
    m("simnet.kernel.event_ns", "ns"),
    m("simnet.kernel.virt_busy_share", "ratio"),
    m("simnet.nic.work_requests", "count"),
    m("simnet.nic.qp_cache_miss_ratio", "ratio"),
    m("simnet.nic.process_ns", "ns"),
    m("simnet.net.ingress_util", "ratio"),
    m("simnet.net.egress_util", "ratio"),
    m("simnet.net.transfer_ns", "ns"),
    m("verbs.msgs", "count"),
    m("verbs.msg_latency_p50_ns", "ns"),
    m("verbs.msg_latency_p99_ns", "ns"),
    m("verbs.ud_reordered", "count"),
    m("verbs.ud_dropped", "count"),
    m("verbs.rnr_retries", "count"),
    m("verbs.post_poll_host_ns", "ns"),
    m("verbs.post_poll_virt_ns", "ns"),
    m("core.virt_gibps_per_node", "GiB/s"),
    m("core.endpoint.msgs_sent", "count"),
    m("core.endpoint.credit_stalls", "count"),
    m("core.endpoint.credit_stall_share", "ratio"),
    m("core.endpoint.ring_polls_per_msg", "ratio"),
    m("core.endpoint.stale_epoch_drops", "count"),
    m("core.stage.credit_wait_p50_ns", "ns"),
    m("core.stage.wr_batch_p50_ns", "ns"),
    m("core.stage.post_to_completion_p50_ns", "ns"),
    m("core.stage.cq_wait_p50_ns", "ns"),
    m("core.endpoint.wr_rc_virt_gibps", "GiB/s"),
    m("core.exchange.build_s", "s"),
    m("core.exchange.registered_mib_per_node", "MiB"),
    m("core.operator.send_cpu_s", "s"),
    m("core.operator.recv_cpu_s", "s"),
    m("core.buffer.take_recycle_ns", "ns"),
    m("engine.rows", "count"),
    m("engine.source_cpu_s", "s"),
    m("engine.local_q4_virt_ms", "ms"),
    m("engine.local_q4_host_s", "s"),
    m("engine.recovery.partial_retries", "count"),
    m("engine.recovery.full_restarts", "count"),
    m("engine.recovery.qp_reconnects", "count"),
    m("engine.recovery.redone_mib", "MiB"),
    m("engine.recovery.virt_ms", "ms"),
    m("tpch.gen_s", "s"),
    m("tpch.reference_s", "s"),
    m("tpch.q4_virt_ms", "ms"),
    m("tpch.q3_virt_ms", "ms"),
    m("tpch.q10_virt_ms", "ms"),
    m("baselines.mpi_q4_slowdown", "ratio"),
    m("baselines.qperf_err_pct", "%"),
    m("obs.snapshot_s", "s"),
    m("obs.series", "count"),
    m("trace.handoff_residual_share", "ratio"),
    m("trace.overhead_pct", "%"),
    m("host.calib_ms", "ms"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
