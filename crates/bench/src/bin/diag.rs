//! Diagnostic probe: per-run fabric/NIC utilization, thread stats, the
//! full unified metrics snapshot and a Chrome-trace dump for one
//! transport. Not a paper figure.
//!
//! Usage: `diag [ALGORITHM] [NODES] [TRACE_PATH] [FAULT]`
//! (defaults: `MESQ/SR 8 trace.json` with no injected fault); the run is
//! the §5.1 workload exactly as `shufflebench` and the figures run it.
//! `diag --topology [NODES] [OVERSUB] [HOSTS_PER_LEAF]` dumps the
//! fabric layout; `diag --phases [NODES] [THETA]` dumps the phase
//! schedule (per-phase byte totals, exempted sources) together with the
//! advisor's signal→decision table for the same shape.
//! `diag --timeline [ALGORITHM] [NODES] [PROFILE] [PATTERN] [MIB] [NODE]`
//! runs one shuffle — by default the benchmark's `bcast_rd_fdr16` shape,
//! `MEMQ/RD 16 fdr broadcast 2 0` — with node `NODE`'s NIC pipeline and
//! ports recording their reservations, and prints the busy share of each
//! per sixteenth of the run.
//! `FAULT` selects a canned ride-out-able fault plan (`link-flap`,
//! `link-degrade` or `straggler`) whose injection markers then appear on
//! the hardware track of the exported trace; the active plan is echoed
//! in the header. Faults needing the recovery orchestrator (QP failures,
//! UD bursts) belong to `bench chaos` instead.
//!
//! The trace file is in the Chrome Trace Event Format: open it at
//! `chrome://tracing` or <https://ui.perfetto.dev> (drag-and-drop the
//! file). Processes map to simulated nodes; thread 0 is the node's
//! hardware track (NIC pipeline, QP transitions, fault injection) and
//! the remaining threads are the simulated worker threads, with credit
//! stalls, completions and fragment spans on their own tracks.

use rshuffle::{AdvisorSignals, AlgorithmAdvisor, PhasePolicy, PhaseSchedule, ShuffleAlgorithm};
use rshuffle_bench::cli::{or_usage, pattern, transport, value, Args};
use rshuffle_bench::skew::zipf_partition_rows;
use rshuffle_bench::workload::ROW_BYTES;
use rshuffle_bench::{
    run_shuffle_workload, run_shuffle_workload_on, workload_runtime, Pattern, Transport,
    WorkloadConfig,
};
use rshuffle_simnet::{DeviceProfile, IncastModel, SimDuration, SimTime, Topology};
use rshuffle_verbs::FaultPlan;

const USAGE: &str = "diag [ALGORITHM] [NODES] [TRACE_PATH] [link-flap|link-degrade|straggler]
       diag --topology [NODES] [OVERSUB] [HOSTS_PER_LEAF]
       diag --phases [NODES] [THETA]
       diag --timeline [ALGORITHM] [NODES] [fdr|edr] [repartition|broadcast] [MIB] [NODE]";

/// Canned fault plans selectable by name. Diagnostic runs drive the
/// exchange without the `run_shuffle_with_recovery` coordinator, so only
/// faults the transports ride out in-place are offered here.
fn canned_plan(name: &str) -> Option<FaultPlan> {
    let us = SimDuration::from_micros;
    match name {
        "link-flap" => Some(FaultPlan::new().link_flap(1, us(10), us(150))),
        "link-degrade" => Some(FaultPlan::new().link_degrade(1, us(5), us(400), 0.25, us(2))),
        "straggler" => Some(FaultPlan::new().straggler(2, us(5), us(500), 4.0)),
        _ => None,
    }
}

/// `diag --phases [NODES] [THETA]`: build the schedule a phased
/// exchange would follow for a Zipf-skewed repartition of that size and
/// dump it round by round, then show how the advisor reads the same
/// shape. No workload runs.
fn dump_phases(mut args: Args) -> Result<(), String> {
    let nodes: usize = args.positional("NODES", value)?.unwrap_or(16);
    let theta: f64 = args.positional("THETA", value)?.unwrap_or(0.5);
    args.finish()?;
    let bytes_per_node = 8usize << 20;
    let totals = zipf_partition_rows((nodes * bytes_per_node / 16) as u64, nodes, theta, 0x5CA1E);
    let matrix = PhaseSchedule::estimate_from_source_totals(&totals);
    let schedule =
        PhaseSchedule::build(&matrix).map_err(|e| format!("cannot build schedule: {e}"))?;
    println!(
        "{} schedule, N={nodes}, Zipf θ={theta} (row estimates in 16-byte rows):",
        PhasePolicy::SkewAware.label()
    );
    let free = schedule.free_sources();
    if free.is_empty() {
        println!("  exempted sources: none");
    } else {
        println!(
            "  exempted sources (stream unphased): {:?} — row totals {:?}",
            free,
            free.iter().map(|&n| totals[n]).collect::<Vec<_>>()
        );
    }
    println!(
        "  {:>5} {:>7} {:>14} {:>14}",
        "phase", "edges", "total bytes", "max edge"
    );
    for (p, phase) in schedule.phases().iter().enumerate() {
        println!(
            "  {p:>5} {:>7} {:>14} {:>14}",
            phase.edges.len(),
            phase.total_bytes(),
            phase.max_edge_bytes()
        );
    }
    println!(
        "  {} phases, worst round {} bytes",
        schedule.num_phases(),
        schedule.worst_phase_len()
    );

    // The advisor's view of the same shape, a repartition on the
    // congested fat tree, and its rule-by-rule decision trail.
    let topology = Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4));
    let mut signals = AdvisorSignals::baseline();
    signals.oversubscription = topology.oversubscription();
    signals.incast = topology.incast().is_some();
    let advice = AlgorithmAdvisor::advise(&signals);
    println!("--- advisor decision table ---");
    print!("{}", AlgorithmAdvisor::table(&signals, &advice));
    Ok(())
}

/// `diag --topology [NODES] [OVERSUB] [HOSTS_PER_LEAF]`: dump the simulated
/// fabric layout (leaf/spine structure, per-link capacities,
/// oversubscription) without running a workload.
fn dump_topology(mut args: Args) -> Result<(), String> {
    let nodes: usize = args.positional("NODES", value)?.unwrap_or(16);
    let oversub: f64 = args.positional("OVERSUB", value)?.unwrap_or(4.0);
    let hosts: usize = args.positional("HOSTS_PER_LEAF", value)?.unwrap_or(16);
    args.finish()?;
    let bandwidth = DeviceProfile::edr().payload_bandwidth;
    println!(
        "single-switch: {}",
        Topology::SingleSwitch.describe(nodes, bandwidth)
    );
    println!(
        "fat-tree:      {}",
        Topology::fat_tree(hosts, oversub).describe(nodes, bandwidth)
    );
    Ok(())
}

/// `diag --timeline`: the busy share of one node's NIC pipeline, egress
/// and ingress port per sixteenth of one run. Reservations are kept only
/// on this path; the run's virtual time is the same without them.
fn timeline(mut args: Args) -> Result<(), String> {
    let rd = (Transport::Rdma, ShuffleAlgorithm::MEMQ_RD);
    let (over, algorithm) = args.positional("ALGORITHM", transport)?.unwrap_or(rd);
    let nodes: usize = args.positional("NODES", value)?.unwrap_or(16);
    let profile = args.positional("PROFILE", DeviceProfile::by_name)?;
    let shape = args
        .positional("PATTERN", pattern)?
        .unwrap_or(Pattern::Broadcast);
    let mib: usize = args.positional("MIB", value)?.unwrap_or(2);
    let node: usize = args.positional("NODE", value)?.unwrap_or(0);
    args.finish()?;
    if node >= nodes {
        return Err(format!("node {node} is not among {nodes} nodes"));
    }
    let mut cfg = WorkloadConfig::new(profile.unwrap_or_else(DeviceProfile::fdr), nodes, algorithm);
    (cfg.transport, cfg.bytes_per_node) = (over, mib << 20);
    cfg.set_pattern(shape);
    let runtime = workload_runtime(&cfg);
    runtime.nic(node).record();
    runtime.cluster().fabric().record(node);
    let r = run_shuffle_workload_on(&cfg, runtime.clone()).map_err(|e| e.to_string())?;
    let [egress, ingress] = runtime.cluster().fabric().recorded(node);
    let nic = runtime.nic(node).recorded();
    let end = r.response_time.as_nanos();
    println!(
        "{}, {nodes} {} nodes, {shape:?}, {mib} MiB/node: response {}, node {node}",
        cfg.design(),
        cfg.profile.name,
        r.response_time
    );
    println!(
        "{:>9} {:>9} {:>8} {:>8} {:>8}",
        "from_us", "to_us", "nic", "egress", "ingress"
    );
    for k in 0..16 {
        let (from, to) = (end * k / 16, end * (k + 1) / 16);
        let busy = |log: &[(SimTime, SimTime)]| {
            let overlap = log.iter().map(|&(s, e)| {
                let (s, e) = (s.as_nanos().max(from), e.as_nanos().min(to));
                e.saturating_sub(s)
            });
            100.0 * overlap.sum::<u64>() as f64 / (to - from).max(1) as f64
        };
        println!(
            "{:>9.1} {:>9.1} {:>7.1}% {:>7.1}% {:>7.1}%",
            from as f64 / 1e3,
            to as f64 / 1e3,
            busy(&nic),
            busy(&egress),
            busy(&ingress)
        );
    }
    Ok(())
}

/// `diag [ALGORITHM] [NODES] [TRACE_PATH] [FAULT]`: the configuration to
/// run and where the trace goes.
fn workload(mut args: Args) -> Result<(WorkloadConfig, String), String> {
    let mesq = (Transport::Rdma, ShuffleAlgorithm::MESQ_SR);
    let (over, algorithm) = args.positional("ALGORITHM", transport)?.unwrap_or(mesq);
    let nodes: usize = args.positional("NODES", value)?.unwrap_or(8);
    let trace_path = args.positional("TRACE_PATH", value)?;
    let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), nodes, algorithm);
    cfg.transport = over;
    if let Some(plan) = args.positional("FAULT", canned_plan)? {
        cfg.exchange.faults.plan = plan;
    }
    args.finish()?;
    Ok((cfg, trace_path.unwrap_or_else(|| "trace.json".to_string())))
}

fn main() {
    let mut args = Args::from_env();
    if args.flag("--phases") {
        return or_usage(dump_phases(args), USAGE);
    }
    if args.flag("--topology") {
        return or_usage(dump_topology(args), USAGE);
    }
    if args.flag("--timeline") {
        return or_usage(timeline(args), USAGE);
    }
    let (cfg, trace_path) = or_usage(workload(args), USAGE);
    if cfg.exchange.faults.plan.is_empty() {
        println!("fault plan: none");
    } else {
        for ev in &cfg.exchange.faults.plan.events {
            println!("fault plan: {ev}");
        }
    }

    let threads = cfg.exchange.threads;
    let rows_per_thread = cfg.bytes_per_node / ROW_BYTES / threads;
    let r = or_usage(run_shuffle_workload(&cfg).map_err(|e| e.to_string()), USAGE);
    let runtime = &r.runtime;
    let t_end = runtime.kernel().now();
    // Datagrams lost, unmatched, reordered; RNR retries: `verbs.*` in the snapshot.
    println!(
        "total received {:.2} MiB (expected {:.2} MiB)",
        r.bytes_received_per_node * cfg.nodes() as f64 / 1048576.0,
        (rows_per_thread * threads * ROW_BYTES * cfg.nodes()) as f64 / 1048576.0,
    );
    println!(
        "{}: {:.2} GiB/s per node, response {}",
        cfg.design(),
        r.gib_per_sec(),
        r.response_time
    );
    for e in &r.errors {
        println!("worker error: {e}");
    }
    let node = 0usize;
    println!(
        "node {node}: egress {:.1}%  ingress {:.1}%",
        runtime.cluster().fabric().egress_utilization(node, t_end) * 100.0,
        runtime.cluster().fabric().ingress_utilization(node, t_end) * 100.0
    );
    let n = runtime.nic(node).stats();
    println!(
        "  nic: wrs {}  qp hits {}  misses {}",
        n.work_requests, n.qp_cache_hits, n.qp_cache_misses
    );
    // Thread busy/idle summary for node 0.
    let mut send_busy = (0.0, 0.0);
    let mut recv_busy = (0.0, 0.0);
    for st in runtime.kernel().stats() {
        if st.node != 0 {
            continue;
        }
        let total = st.busy.as_secs_f64() + st.idle.as_secs_f64();
        if st.name.starts_with('s') {
            send_busy.0 += st.busy.as_secs_f64();
            send_busy.1 += total;
        } else {
            recv_busy.0 += st.busy.as_secs_f64();
            recv_busy.1 += total;
        }
    }
    println!(
        "  send threads busy {:.0}%  recv threads busy {:.0}%",
        100.0 * send_busy.0 / send_busy.1.max(1e-12),
        100.0 * recv_busy.0 / recv_busy.1.max(1e-12)
    );

    // Unified metrics snapshot: every counter and histogram the stack
    // recorded, across all tiers (NIC, kernel, verbs, endpoints, engine).
    let obs = runtime.obs();
    println!("--- metrics snapshot ---");
    println!("{}", obs.snapshot_json());

    // Latency percentile digest of every non-empty histogram series.
    let snapshot = obs.metrics.snapshot();
    println!("--- histogram percentiles ---");
    println!(
        "{:<55} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "series", "count", "p50", "p90", "p99", "p999", "max"
    );
    for (key, h) in &snapshot.histograms {
        if h.count == 0 {
            continue;
        }
        let s = h.summary();
        println!(
            "{key:<55} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            s.count, s.p50, s.p90, s.p99, s.p999, s.max
        );
    }

    // Stage-span breakdown: where a message's lifetime goes, merged
    // across nodes (credit wait -> WR batching -> post-to-completion ->
    // CQ wait).
    let stages = rshuffle_bench::perf::stage_summaries(&snapshot);
    let total_mean: f64 = stages.iter().map(|(_, s)| s.mean * s.count as f64).sum();
    println!("--- stage breakdown (all nodes) ---");
    println!(
        "{:<30} {:>9} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "stage", "count", "mean(ns)", "p50", "p99", "p999", "share"
    );
    for (name, s) in &stages {
        let share = if total_mean > 0.0 {
            s.mean * s.count as f64 / total_mean * 100.0
        } else {
            0.0
        };
        println!(
            "{name:<30} {:>9} {:>12.1} {:>10} {:>10} {:>10} {share:>7.1}%",
            s.count, s.mean, s.p50, s.p99, s.p999
        );
    }

    // Flight-recorder export for chrome://tracing / Perfetto.
    let trace = obs.chrome_trace_json();
    match std::fs::write(&trace_path, &trace) {
        Ok(()) => println!(
            "wrote {} ({} bytes) — open at chrome://tracing or https://ui.perfetto.dev",
            trace_path,
            trace.len()
        ),
        Err(e) => eprintln!("failed to write {trace_path}: {e}"),
    }
}
