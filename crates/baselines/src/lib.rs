//! Comparison baselines from the paper's evaluation (§5.1):
//!
//! * [`mpi`] — an MVAPICH-style MPI library: Send/Receive over Reliable
//!   Connection with eager-copy / rendezvous protocols and a per-process
//!   progress engine that serializes all library calls. This is what makes
//!   MPI unable to fully overlap communication and computation in
//!   Figures 13–14.
//! * [`ipoib`] — TCP/IP over InfiniBand: the kernel network stack charges
//!   CPU per byte on both sides and all inbound traffic serializes through
//!   a soft-IRQ path capped well below line rate (the paper profiles ~2/3
//!   of all cycles inside `send`/`recv`).
//! * [`qperf`] — the peak-bandwidth probe: a sender that blasts one
//!   registered buffer and a receiver that reposts receives and never looks
//!   at the data. Defines the dashed reference line of Figure 10.
//!
//! The MPI and IPoIB baselines implement the same
//! [`SendEndpoint`](rshuffle::SendEndpoint) /
//! [`ReceiveEndpoint`](rshuffle::ReceiveEndpoint) traits as the six RDMA
//! designs and hand back the same [`Exchange`](rshuffle::Exchange) —
//! [`mpi::build`] and [`ipoib::build`] wrap the endpoints of the SEMQ/SR
//! exchange they are built on — so the benchmark harness drives all of
//! them identically. A wrapper decorates the calls its library taxes and
//! passes the rest through; the registered bytes and connection setup it
//! reports are the exchange's, those of the SEMQ/SR endpoints underneath.

#![warn(missing_docs)]

pub mod ipoib;
pub mod mpi;
pub mod qperf;

pub use qperf::qperf_peak_bandwidth;
