//! An InfiniBand-verbs-like RDMA API over the simulated fabric.
//!
//! This crate mirrors the `ibv_*` programming interface described in §2.2.3
//! of the paper closely enough that the shuffling algorithms above it read
//! like their C++ originals:
//!
//! * [`VerbsRuntime`] — one per cluster; hands out per-node [`Context`]s.
//! * [`MemoryRegion`] — registered, "pinned" memory that RDMA operations
//!   target. Registering is untimed; endpoints charge the pinning cost.
//! * [`QueuePair`] — Reliable Connection (RC) or Unreliable Datagram (UD),
//!   with the standard RESET→INIT→RTR→RTS state machine.
//! * [`CompletionQueue`] — completions are polled (`poll`) or awaited
//!   (`next`), both charging CPU cost.
//!
//! Semantics faithful to the hardware (§2.2):
//! * RC is reliable and ordered, supports Send/Receive, RDMA Read and RDMA
//!   Write, messages up to 1 GiB, and one QP speaks to exactly one peer QP.
//! * UD is connectionless and unordered, supports only Send/Receive with
//!   messages up to the 4 KiB MTU; a Send that finds no posted Receive at
//!   the destination is **dropped**; delivery may be reordered (seeded,
//!   deterministic) and optionally lossy for failure-injection tests.
//! * Every work request occupies the node's NIC pipeline and touches the QP
//!   context cache, so designs with many QPs thrash exactly as on real FDR
//!   hardware.

#![warn(missing_docs)]

pub mod cm;
pub mod cq;
pub mod error;
pub mod fault;
pub mod mr;
pub mod qp;
pub mod runtime;
pub mod types;

pub use cm::ConnectionManager;
pub use cq::{Completion, CompletionQueue, WcOpcode, WcStatus};
pub use error::{Result, VerbsError};
pub use fault::{FaultEvent, FaultPlan, QpScope};
pub use mr::{MemoryRegion, RemoteAddr};
pub use qp::{AddressHandle, QueuePair, RecvWr, SendWr, SharedQpSlot};
pub use runtime::{Context, FaultConfig, VerbsRuntime};
pub use types::{QpNum, QpState, QpType};

pub use rshuffle_simnet::NodeId;
