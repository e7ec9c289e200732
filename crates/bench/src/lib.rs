//! Benchmark harness for the paper's evaluation (§5).
//!
//! [`workload`] drives the synthetic receive-throughput experiment that
//! §5.1 uses everywhere: every node scans a synthetic table R(a, b) and
//! repartitions (or broadcasts) it by R.a; the metric is receive throughput
//! per node. [`experiments`] registers every experiment the repo records —
//! the paper's table and figures, the ablations, the later matrices — for
//! the one `bench` runner; [`perf`] is the `rshuffle-bench/1` report they
//! all emit and `perfdiff` compares; [`cli`] is the argument parser of the
//! four binaries in `src/bin/`.

pub mod cli;
pub mod experiments;
pub mod perf;
pub mod skew;
pub mod workload;

pub use workload::{run_shuffle_workload, Pattern, Transport, WorkloadConfig, WorkloadResult};
