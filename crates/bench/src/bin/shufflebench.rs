//! `shufflebench` — run any single shuffle configuration from the command
//! line and print the paper's receive-throughput metric ([`USAGE`]).
//!
//! `--emit` writes the run as a machine-readable perf-trajectory record
//! (schema `rshuffle-bench/1`) including per-stage latency digests.

use rshuffle::ShuffleAlgorithm;
use rshuffle_bench::cli::{or_usage, transport, value, Args};
use rshuffle_bench::perf::{emit, stage_summaries, BenchResult, BenchRun, MetricRow};
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::{DeviceProfile, SimDuration};
use serde::Value;

const USAGE: &str = "shufflebench [--profile fdr|edr] [--nodes N] [--threads T]
                    [--algorithm MESQ/SR|MEMQ/SR|MEMQ/RD|SEMQ/SR|SEMQ/RD|SESQ/SR|MEMQ/WR|mpi|ipoib]
                    [--pattern repartition|broadcast] [--mib M]
                    [--msg-size BYTES] [--credit-freq F] [--lanes L]
                    [--compute-us X] [--drop-prob P]
                    [--native-multicast] [--zero-copy | --copy] [--emit BENCH.json]";

/// The configuration and pattern the command line asks for, and where to
/// emit the report.
fn configuration(mut args: Args) -> Result<(WorkloadConfig, Pattern, Option<String>), String> {
    let parse_pattern = |s: &str| match s {
        "repartition" => Some(Pattern::Repartition),
        "broadcast" => Some(Pattern::Broadcast),
        _ => None,
    };
    let profile = args.option("--profile", DeviceProfile::by_name)?;
    let nodes = args.option("--nodes", value)?.unwrap_or(8);
    let design = args.option("--algorithm", transport)?;
    let design = design.unwrap_or(Transport::Rdma(ShuffleAlgorithm::MESQ_SR));
    let mut cfg = WorkloadConfig::new(profile.unwrap_or_else(DeviceProfile::edr), nodes, design);
    if let Some(threads) = args.option("--threads", value)? {
        cfg.exchange.threads = threads;
    }
    let pattern = args
        .option("--pattern", parse_pattern)?
        .unwrap_or(Pattern::Repartition);
    cfg.set_pattern(pattern);
    if let Some(mib) = args.option("--mib", value::<usize>)? {
        cfg.bytes_per_node = mib << 20;
    }
    if let Some(size) = args.option("--msg-size", value)? {
        cfg.exchange.message_size = size;
    }
    if let Some(frequency) = args.option("--credit-freq", value)? {
        cfg.exchange.credit_writeback_frequency = frequency;
    }
    cfg.exchange.lanes_override = args.option("--lanes", value)?;
    let compute_us: f64 = args.option("--compute-us", value)?.unwrap_or(0.0);
    cfg.compute_per_batch = SimDuration::from_nanos((compute_us * 1000.0) as u64);
    cfg.exchange.faults.ud_drop_probability = args.option("--drop-prob", value)?.unwrap_or(0.0);
    cfg.exchange.ud_native_multicast = args.flag("--native-multicast");
    cfg.zero_copy = match (args.flag("--zero-copy"), args.flag("--copy")) {
        (true, true) => return Err("--zero-copy and --copy exclude each other".to_string()),
        (true, false) => Some(true),
        (false, true) => Some(false),
        (false, false) => None,
    };
    let emit_path = args.option("--emit", value)?;
    args.finish()?;
    Ok((cfg, pattern, emit_path))
}

fn main() {
    let (cfg, pattern, emit_path) = or_usage(configuration(Args::from_env()), USAGE);
    let transport = cfg.transport;

    println!(
        "{} | {} nodes x {} threads | {:?} | {} MiB/node | msg {} KiB",
        transport,
        cfg.nodes(),
        cfg.exchange.threads,
        pattern,
        cfg.bytes_per_node >> 20,
        cfg.exchange.message_size >> 10
    );
    let r = run_shuffle_workload(&cfg);
    println!(
        "receive throughput per node: {:.3} GiB/s  (response {}, pinned {} KiB/node)",
        r.gib_per_sec(),
        r.response_time,
        r.registered_bytes_per_node / 1024
    );
    let mut failed = !r.errors.is_empty();
    if let Some(path) = emit_path {
        let run = BenchRun {
            bench: "shufflebench".to_string(),
            config: vec![
                ("nodes".to_string(), Value::UInt(cfg.nodes() as u64)),
                (
                    "threads".to_string(),
                    Value::UInt(cfg.exchange.threads as u64),
                ),
                (
                    "bytes_per_node".to_string(),
                    Value::UInt(cfg.bytes_per_node as u64),
                ),
                (
                    "message_size".to_string(),
                    Value::UInt(cfg.exchange.message_size as u64),
                ),
                ("pattern".to_string(), Value::Str(format!("{:?}", pattern))),
            ],
            results: vec![BenchResult {
                id: transport.to_string(),
                metrics: vec![
                    MetricRow::higher("gib_per_sec", r.gib_per_sec()),
                    MetricRow::lower("response_ns", r.response_time.as_nanos() as f64),
                    MetricRow::info("registered_bytes", r.registered_bytes_per_node as f64),
                ],
                stages: stage_summaries(&r.runtime.obs().metrics.snapshot()),
            }],
        };
        match emit(&path, vec![run]) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("shufflebench: {e}");
                failed = true;
            }
        }
    }
    if !r.errors.is_empty() {
        println!("worker errors ({}):", r.errors.len());
        for e in r.errors.iter().take(4) {
            println!("  - {e}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
