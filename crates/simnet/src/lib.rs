//! Deterministic virtual-time cluster simulator.
//!
//! This crate provides the hardware substrate for the RDMA shuffling
//! reproduction: a cooperative virtual-time kernel that runs *real*,
//! blocking-style algorithm code as stackful fibers on one host thread while
//! a single global virtual clock governs timing, a full-bisection switch
//! model with per-port bandwidth arbitration, a NIC model with a Queue Pair
//! context cache, and CPU cost helpers.
//!
//! The design goal is determinism: at most one simulated thread executes at a
//! time, the runnable entity with the minimum virtual timestamp always runs
//! next, and ties are broken by (event sequence, thread id). Two runs with
//! the same seed produce bit-identical timings on any machine.
//!
//! Supported target: x86_64 Linux — the fiber switch in the private `fiber`
//! module (the crate's only `unsafe`) is a SysV x86_64 register swap, and any
//! other target is a compile error naming it. Code running on the kernel
//! must never hold a host lock across [`SimContext::sleep`] or
//! [`Gate::recv`], and event actions must not block (see [`kernel`]).
//!
//! # Example
//!
//! ```
//! use rshuffle_simnet::{Kernel, SimDuration};
//!
//! let kernel = Kernel::new();
//! let k = kernel.clone();
//! kernel.spawn(0, "worker", move |sim| {
//!     sim.sleep(SimDuration::from_micros(5));
//!     assert_eq!(sim.now().as_nanos(), 5_000);
//! });
//! kernel.run();
//! ```

#![warn(missing_docs)]

pub mod cluster;
mod fiber;
pub mod kernel;
pub mod lru;
pub mod net;
pub mod nic;
pub mod profile;
pub mod resource;
pub mod sync;
pub mod time;

pub use cluster::Cluster;
pub use kernel::{Gate, Kernel, Listener, Notify, SimContext, SimThreadId, ThreadStats, Waitable};
pub use net::{Fabric, IncastModel, Topology};
pub use nic::{FairResource, FlowId, FlowTable, NicModel};
pub use profile::{DeviceProfile, MAX_RC_MESSAGE, UD_MTU};
pub use resource::Resource;
/// The unseeded integer hasher every id-keyed table of the stack uses
/// (declared below the simulator, in `rshuffle_obs`, for the recorder).
pub use rshuffle_obs::{KeyHasher, KeyMap, KeySet};
pub use sync::{BarrierError, SimBarrier, SimMutex};
pub use time::{SimDuration, SimTime};

/// Identifier of a simulated node (machine) in the cluster.
pub type NodeId = usize;

#[cfg(test)]
/// The workspace's pin files (`tests/pins/`), for the unit tests that
/// hold exact values.
#[path = "../../../tests/common/pins.rs"]
mod pins;
