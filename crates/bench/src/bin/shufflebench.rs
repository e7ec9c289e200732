//! `shufflebench` — run any single shuffle configuration from the command
//! line and print the paper's receive-throughput metric.
//!
//! ```text
//! shufflebench [--profile fdr|edr] [--nodes N] [--threads T]
//!              [--algorithm MESQ/SR|...|mpi|ipoib] [--pattern repartition|broadcast]
//!              [--mib M] [--msg-size BYTES] [--credit-freq F] [--lanes L]
//!              [--compute-us X] [--drop-prob P] [--native-multicast]
//!              [--zero-copy | --copy] [--emit BENCH.json]
//! ```
//!
//! `--emit` writes the run as a machine-readable perf-trajectory record
//! (schema `rshuffle-bench/1`) including per-stage latency digests.

use rshuffle::ShuffleAlgorithm;
use rshuffle_bench::perf::{
    stage_summaries, take_emit_flag, BenchReport, BenchResult, BenchRun, MetricRow,
};
use rshuffle_bench::{run_shuffle_workload, Pattern, Transport, WorkloadConfig};
use rshuffle_simnet::{DeviceProfile, SimDuration};
use serde::Value;

fn usage() -> ! {
    eprintln!(
        "usage: shufflebench [--profile fdr|edr] [--nodes N] [--threads T]\n\
         \x20                   [--algorithm MESQ/SR|MEMQ/SR|MEMQ/RD|SEMQ/SR|SEMQ/RD|SESQ/SR|MEMQ/WR|mpi|ipoib]\n\
         \x20                   [--pattern repartition|broadcast] [--mib M]\n\
         \x20                   [--msg-size BYTES] [--credit-freq F] [--lanes L]\n\
         \x20                   [--compute-us X] [--drop-prob P]\n\
         \x20                   [--native-multicast] [--zero-copy | --copy]"
    );
    std::process::exit(2);
}

fn main() {
    let (args, emit) = take_emit_flag(std::env::args().skip(1).collect());
    let mut profile = DeviceProfile::edr();
    let mut nodes = 8usize;
    let mut threads: Option<usize> = None;
    let mut transport = Transport::Rdma(ShuffleAlgorithm::MESQ_SR);
    let mut pattern = Pattern::Repartition;
    let mut mib: Option<usize> = None;
    let mut msg_size: Option<usize> = None;
    let mut credit_freq: Option<u32> = None;
    let mut lanes: Option<usize> = None;
    let mut compute_us = 0.0f64;
    let mut drop_prob = 0.0f64;
    let mut native_multicast = false;
    let mut zero_copy: Option<bool> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--profile" => {
                profile = DeviceProfile::by_name(value()).unwrap_or_else(|| usage());
            }
            "--nodes" => nodes = value().parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = Some(value().parse().unwrap_or_else(|_| usage())),
            "--algorithm" => {
                let v = value();
                transport = match v.to_ascii_lowercase().as_str() {
                    "mpi" => Transport::Mpi,
                    "ipoib" => Transport::Ipoib,
                    other => Transport::Rdma(
                        ShuffleAlgorithm::parse(other).unwrap_or_else(|| usage()),
                    ),
                };
            }
            "--pattern" => {
                pattern = match value().as_str() {
                    "repartition" => Pattern::Repartition,
                    "broadcast" => Pattern::Broadcast,
                    _ => usage(),
                };
            }
            "--mib" => mib = Some(value().parse().unwrap_or_else(|_| usage())),
            "--msg-size" => msg_size = Some(value().parse().unwrap_or_else(|_| usage())),
            "--credit-freq" => credit_freq = Some(value().parse().unwrap_or_else(|_| usage())),
            "--lanes" => lanes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--compute-us" => compute_us = value().parse().unwrap_or_else(|_| usage()),
            "--drop-prob" => drop_prob = value().parse().unwrap_or_else(|_| usage()),
            "--native-multicast" => native_multicast = true,
            "--zero-copy" => zero_copy = Some(true),
            "--copy" => zero_copy = Some(false),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let mut cfg = WorkloadConfig::new(profile, nodes, transport);
    if let Some(t) = threads {
        cfg.exchange.threads = t;
    }
    cfg.set_pattern(pattern);
    if let Some(m) = mib {
        cfg.bytes_per_node = m << 20;
    }
    if let Some(s) = msg_size {
        cfg.exchange.message_size = s;
    }
    if let Some(f) = credit_freq {
        cfg.exchange.credit_writeback_frequency = f;
    }
    cfg.exchange.lanes_override = lanes;
    cfg.compute_per_batch = SimDuration::from_nanos((compute_us * 1000.0) as u64);
    cfg.exchange.faults.ud_drop_probability = drop_prob;
    cfg.exchange.ud_native_multicast = native_multicast;
    cfg.zero_copy = zero_copy;

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
    if let Some(path) = emit {
        let mut report = BenchReport::new();
        report.benches.push(BenchRun {
            bench: "shufflebench".to_string(),
            config: vec![
                ("nodes".to_string(), Value::UInt(cfg.nodes() as u64)),
                ("threads".to_string(), Value::UInt(cfg.exchange.threads as u64)),
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
                stages: stage_summaries(&r.metrics),
            }],
        });
        match report.write(&path) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("shufflebench: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !r.errors.is_empty() {
        println!("worker errors ({}):", r.errors.len());
        for e in r.errors.iter().take(4) {
            println!("  - {e}");
        }
        std::process::exit(1);
    }
}
