//! Diagnostic probe: per-run fabric/NIC utilization, thread stats, the
//! full unified metrics snapshot and a Chrome-trace dump for one
//! transport. Not a paper figure.
//!
//! Usage: `diag [ALGORITHM] [NODES] [TRACE_PATH] [FAULT]`
//! (defaults: `MESQ_SR 8 trace.json` with no injected fault).
//! `diag --topology [NODES] [OVERSUB] [HOSTS_PER_LEAF]` dumps the
//! fabric layout; `diag --phases [NODES] [POLICY] [THETA]` dumps a
//! phase schedule (per-phase byte totals, exempted sources) together
//! with the advisor's signal→decision table for the same shape.
//! `FAULT` selects a canned ride-out-able fault plan (`link-flap`,
//! `link-degrade` or `straggler`) whose injection markers then appear on
//! the hardware track of the exported trace; the active plan is echoed
//! in the header. Faults needing the recovery orchestrator (QP failures,
//! UD bursts) belong to the `chaos` binary instead.
//!
//! The trace file is in the Chrome Trace Event Format: open it at
//! `chrome://tracing` or <https://ui.perfetto.dev> (drag-and-drop the
//! file). Processes map to simulated nodes; thread 0 is the node's
//! hardware track (NIC pipeline, QP transitions, fault injection) and
//! the remaining threads are the simulated worker threads, with credit
//! stalls, completions and fragment spans on their own tracks.

use rshuffle::{AdvisorSignals, AlgorithmAdvisor, PhasePolicy, PhaseSchedule, ShuffleAlgorithm};
use rshuffle_bench::skew::{skew_ratio, zipf_partition_rows};
use rshuffle_bench::{Transport, WorkloadConfig};
use rshuffle_simnet::{DeviceProfile, IncastModel, SimDuration, Topology};
use rshuffle_verbs::FaultPlan;

/// Canned fault plans selectable by name. Diagnostic runs drive the
/// exchange directly, without the `run_shuffle_with_recovery`
/// coordinator, so only faults the transports ride out in-place are
/// offered here.
fn canned_plan(name: &str) -> Option<FaultPlan> {
    let us = SimDuration::from_micros;
    match name {
        "link-flap" => Some(FaultPlan::new().link_flap(1, us(10), us(150))),
        "link-degrade" => Some(FaultPlan::new().link_degrade(1, us(5), us(400), 0.25, us(2))),
        "straggler" => Some(FaultPlan::new().straggler(2, us(5), us(500), 4.0)),
        _ => None,
    }
}

/// `diag --phases [NODES] [POLICY] [THETA]`: build the schedule a phased
/// exchange would follow for a Zipf-skewed repartition of that size and
/// dump it round by round, then show how the advisor reads the same
/// shape. No workload runs.
fn dump_phases(args: &[String]) {
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(16);
    let policy = args
        .get(1)
        .and_then(|s| PhasePolicy::parse(s))
        .unwrap_or(PhasePolicy::SkewAware);
    let theta: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let bytes_per_node = 8usize << 20;
    let totals = zipf_partition_rows(
        (nodes * bytes_per_node / 16) as u64,
        nodes,
        theta,
        0x5CA1E,
    );
    let matrix = PhaseSchedule::estimate_from_source_totals(&totals);
    let schedule = match PhaseSchedule::build(policy, &matrix) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot build schedule: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} schedule, N={nodes}, Zipf θ={theta} (row estimates in 16-byte rows):",
        policy.label()
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

    // The advisor's view of the same shape: congested fat tree, the
    // measured skew ratio, and its rule-by-rule decision trail.
    let topology = Topology::fat_tree(16, 4.0).with_incast(IncastModel::new(4));
    let mut signals = AdvisorSignals::baseline(nodes, 4, 16 * 1024);
    signals.oversubscription = topology.oversubscription();
    signals.incast = topology.incast().is_some();
    signals.skew = skew_ratio(&totals);
    let advice = AlgorithmAdvisor::advise(&signals);
    println!("--- advisor decision table ---");
    print!("{}", AlgorithmAdvisor::table(&signals, &advice));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--phases") {
        dump_phases(&args[2..]);
        return;
    }
    if args.get(1).is_some_and(|a| a == "--topology") {
        // `diag --topology [NODES] [OVERSUB] [HOSTS_PER_LEAF]`: dump the
        // simulated fabric layout (leaf/spine structure, per-link
        // capacities, oversubscription) without running a workload.
        let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
        let oversub: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4.0);
        let hosts: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(16);
        let profile = DeviceProfile::edr();
        println!(
            "single-switch: {}",
            rshuffle_simnet::Topology::SingleSwitch.describe(nodes, profile.payload_bandwidth)
        );
        println!(
            "fat-tree:      {}",
            rshuffle_simnet::Topology::fat_tree(hosts, oversub)
                .describe(nodes, profile.payload_bandwidth)
        );
        return;
    }
    let alg = args
        .get(1)
        .and_then(|s| ShuffleAlgorithm::parse(s))
        .unwrap_or(ShuffleAlgorithm::MESQ_SR);
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let trace_path = args
        .get(3)
        .cloned()
        .unwrap_or_else(|| "trace.json".to_string());

    let mut cfg = WorkloadConfig::new(DeviceProfile::edr(), nodes, Transport::Rdma(alg));
    if let Some(name) = args.get(4) {
        match canned_plan(name) {
            Some(plan) => cfg.exchange.faults.plan = plan,
            None => {
                eprintln!("unknown fault plan {name:?}; known: link-flap, link-degrade, straggler");
                std::process::exit(2);
            }
        }
    }
    if cfg.exchange.faults.plan.is_empty() {
        println!("fault plan: none");
    } else {
        for ev in &cfg.exchange.faults.plan.events {
            println!("fault plan: {ev}");
        }
    }

    // Inline a copy of the workload with extra reporting.
    let threads = cfg.exchange.threads;
    let cluster = rshuffle_simnet::Cluster::new(nodes, cfg.profile.clone());
    let runtime = rshuffle_verbs::VerbsRuntime::with_faults(cluster, cfg.exchange.faults.clone());
    let cost = rshuffle::CostModel::from_profile(runtime.profile());
    let rows_per_thread = cfg.bytes_per_node / 16 / threads;
    let exchange = rshuffle::Exchange::build(&runtime, &cfg.exchange).unwrap();
    for (node, group) in cfg.exchange.groups.iter().enumerate() {
        let gen = std::sync::Arc::new(rshuffle_engine::Generator::new(
            rows_per_thread,
            threads,
            node as u64,
        ));
        let shuffle = std::sync::Arc::new(rshuffle::ShuffleOperator::with_lanes(
            gen,
            exchange.send[node].clone(),
            group.clone(),
            threads,
            cost.clone(),
        ));
        rshuffle_engine::drive_to_sink(
            runtime.cluster(),
            node,
            &format!("s{node}"),
            shuffle,
            threads,
            |_, _| {},
        );
        let recv = std::sync::Arc::new(rshuffle::ReceiveOperator::with_lanes(
            exchange.recv[node].clone(),
            16,
            2048,
            threads,
            cost.clone(),
        ));
        rshuffle_engine::drive_to_sink(
            runtime.cluster(),
            node,
            &format!("r{node}"),
            recv,
            threads,
            |_, _| {},
        );
    }
    runtime.cluster().run();
    let t_end = runtime.kernel().now();
    let bytes = exchange.bytes_received(0);
    let total: u64 = (0..nodes).map(|n| exchange.bytes_received(n)).sum();
    println!(
        "total received {:.2} MiB (expected {:.2} MiB); stats {:?}",
        total as f64 / 1048576.0,
        (rows_per_thread * threads * 16 * nodes) as f64 / 1048576.0,
        runtime.stats()
    );
    println!(
        "{alg}: {:.2} GiB/s per node, response {}",
        bytes as f64 / t_end.as_secs_f64() / (1u64 << 30) as f64,
        rshuffle_simnet::SimDuration::from_nanos(t_end.as_nanos())
    );
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
