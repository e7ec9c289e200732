//! The six workloads. Each one is a closed loop with one query in flight:
//! an *iteration* sets the workload's queries up from nothing, runs them
//! (the measured section: only the calls that advance virtual time) and
//! checks every output. `main` repeats iterations for `--seconds`.

pub mod recovery;
pub mod shuffle;
pub mod tpch;

use rshuffle_obs::{HistogramSnapshot, Snapshot};

use crate::host::Usage;
use crate::metrics::Values;
use crate::spans::Tracer;

/// What one iteration is told.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    /// Wrap operators in [`crate::ops::Timed`] this iteration.
    pub traced: bool,
    /// `--self-check`: lose one row in one sink.
    pub sabotage: bool,
    /// Divide every volume by this (16 for the warm-up query).
    pub volume_div: usize,
}

/// What one iteration reports.
#[derive(Default)]
pub struct Iteration {
    /// Host seconds from nothing to the start of the measured section.
    pub setup_s: f64,
    /// Host seconds of the measured section.
    pub wall_s: f64,
    /// Virtual response time, summed over the iteration's queries.
    pub virt_ns: u64,
    /// Operations attempted and failed (see README: one receive fragment,
    /// or one TPC-H query).
    pub ops: u64,
    pub failed: u64,
    /// Payload MiB delivered to sinks.
    pub payload_mib: f64,
    /// Process CPU and context switches over the measured section.
    pub usage: Usage,
    /// Per-layer values (filled when the tracer is on).
    pub layers: Values,
    /// Why operations failed.
    pub notes: Vec<String>,
}

pub trait Workload {
    fn iteration(&mut self, seed: u64, ctx: &Ctx<'_>) -> Iteration;
}

pub const NAMES: [&str; 6] = [
    "repart_ud",
    "repart_rc_small",
    "bcast_rd_fdr16",
    "tpch_mix",
    "fattree64_phased",
    "recovery_mix",
];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "repart_ud" => Box::new(shuffle::repart_ud()),
        "repart_rc_small" => Box::new(shuffle::repart_rc_small()),
        "bcast_rd_fdr16" => Box::new(shuffle::bcast_rd_fdr16()),
        "fattree64_phased" => Box::new(shuffle::fattree64_phased()),
        "tpch_mix" => Box::new(tpch::TpchMix::default()),
        "recovery_mix" => Box::new(recovery::RecoveryMix),
        _ => return None,
    })
}

/// Sum of a counter over every label set it was recorded under.
pub fn counter_sum(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(key, _)| series_is(key, name))
        .map(|(_, v)| *v)
        .sum()
}

/// A histogram merged over every label set it was recorded under.
pub fn histogram_merged(snapshot: &Snapshot, name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    for (key, h) in &snapshot.histograms {
        if series_is(key, name) {
            out.merge(h);
        }
    }
    out
}

fn series_is(key: &str, name: &str) -> bool {
    key.strip_prefix(name)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The obs-sourced per-layer rows, read from the registry snapshot taken
/// after the query ran. A workload of several queries concatenates their
/// snapshots first, so counts add up and histograms merge. `send_threads`
/// and `virt_ns` scale the credit-stall share.
pub fn obs_layers(snapshot: &Snapshot, send_threads: u64, virt_ns: u64, layers: &mut Values) {
    use rshuffle_obs::names as n;
    let c = |name| counter_sum(snapshot, name) as f64;
    let mut set = |name: &'static str, v: f64| {
        layers.insert(name, v);
    };
    set("simnet.kernel.threads", c(n::KERNEL_THREADS_FINISHED));
    set("simnet.nic.work_requests", c(n::NIC_WORK_REQUESTS));
    set("verbs.ud_reordered", c(n::VERBS_UD_REORDERED));
    set("verbs.ud_dropped", c(n::VERBS_UD_DROPPED));
    set("verbs.rnr_retries", c(n::VERBS_RNR_RETRIES));
    set("core.endpoint.msgs_sent", c(n::EP_MESSAGES_SENT));
    set("core.endpoint.credit_stalls", c(n::EP_CREDIT_STALLS));
    set(
        "core.endpoint.stale_epoch_drops",
        c(n::EP_STALE_EPOCH_DROPS),
    );
    set("engine.rows", c(n::ENGINE_ROWS));
    set(
        "obs.series",
        (snapshot.counters.len() + snapshot.histograms.len()) as f64,
    );
    let latency = histogram_merged(snapshot, n::VERBS_MSG_LATENCY_NS);
    set("verbs.msgs", latency.count as f64);
    set("verbs.msg_latency_p50_ns", latency.p50() as f64);
    set("verbs.msg_latency_p99_ns", latency.p99() as f64);
    let busy = c(n::KERNEL_BUSY_NS);
    set(
        "simnet.kernel.virt_busy_share",
        ratio(busy, busy + c(n::KERNEL_IDLE_NS)),
    );
    let misses = c(n::NIC_QP_CACHE_MISSES);
    set(
        "simnet.nic.qp_cache_miss_ratio",
        ratio(misses, misses + c(n::NIC_QP_CACHE_HITS)),
    );
    set(
        "core.endpoint.credit_stall_share",
        ratio(c(n::EP_CREDIT_STALL_NS), (send_threads * virt_ns) as f64),
    );
    set(
        "core.endpoint.ring_polls_per_msg",
        ratio(
            c(n::EP_FREEARR_POLLS) + c(n::EP_VALIDARR_POLLS),
            c(n::EP_MESSAGES_SENT),
        ),
    );
    for (name, series) in [
        ("core.stage.credit_wait_p50_ns", n::STAGE_CREDIT_WAIT_NS),
        ("core.stage.wr_batch_p50_ns", n::STAGE_WR_BATCH_NS),
        (
            "core.stage.post_to_completion_p50_ns",
            n::STAGE_POST_TO_COMPLETION_NS,
        ),
        ("core.stage.cq_wait_p50_ns", n::STAGE_CQ_WAIT_NS),
    ] {
        set(name, histogram_merged(snapshot, series).p50() as f64);
    }
}
