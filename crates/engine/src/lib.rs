//! A pull-based, vectorized, thread-parallel query engine — the substrate
//! the paper's Pythia prototype provides (§5: "a prototype open-source
//! in-memory query engine").
//!
//! Operators implement [`rshuffle::Operator`]: a `NEXT(tid)` call returning
//! a batch of fixed-width rows plus a stream state (Figure 1 of the paper).
//! The engine contributes:
//!
//! * [`Table`] — an in-memory row store with thread-partitioned scans,
//! * relational operators: [`MemScan`], [`Generator`], [`Filter`],
//!   [`Project`], [`HashJoin`], [`HashAggregate`], [`ComputeStage`],
//! * [`exec`] — fragment drivers that pump pipelines to completion on
//!   simulated worker threads and report timing,
//! * [`recovery`] — the query coordinator: recovers from transient
//!   shuffle failures with the cheapest rung of one ladder, from a
//!   per-flow retry up to rebuilding the exchange and re-running the
//!   query (§4.4.2), with capped virtual-time backoff,
//! * [`workload`] — a multi-query driver that runs N queries through the
//!   admission scheduler ([`rshuffle_sched`]) on one shared cluster.

#![warn(missing_docs)]

pub mod exec;
pub mod ops;
pub mod recovery;
pub mod table;
pub mod workload;

pub use exec::{drive_exchange, drive_to_sink, FragmentStats};
pub use ops::{
    ComputeStage, Filter, Generator, HashAggregate, HashJoin, HashSemiJoin, MemScan, Project,
};
pub use recovery::{
    degrade, run_shuffle_with_recovery, BackoffSchedule, RecoveryPolicy, RecoveryReport,
};
pub use table::Table;
pub use workload::{run_workload, QuerySpec, QueryTiming, WorkloadHandle, ENDPOINT_ID_STRIDE};
