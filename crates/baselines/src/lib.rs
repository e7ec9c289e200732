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
//! designs and hand back the same [`Exchange`] —
//! [`mpi::build`] and [`ipoib::build`] wrap the endpoints of the SEMQ/SR
//! exchange they are built on — so the benchmark harness drives all of
//! them identically. A wrapper decorates the calls its library taxes and
//! passes the rest through; the registered bytes and connection setup it
//! reports are the exchange's, those of the SEMQ/SR endpoints underneath.

#![warn(missing_docs)]

pub mod ipoib;
pub mod mpi;
pub mod qperf;

use std::sync::Arc;

use rshuffle::{Exchange, ExchangeConfig, Result, ShuffleAlgorithm, TransmissionGroups};
use rshuffle_verbs::VerbsRuntime;

pub use qperf::qperf_peak_bandwidth;

/// The SEMQ/SR exchange both libraries sit on: one endpoint per node
/// serving every thread of the process, so its pools scale with the
/// thread count, with eight receives posted per peer and credit written
/// back every `credit_writeback_frequency` receives.
fn semq_sr(
    runtime: &Arc<VerbsRuntime>,
    groups: Vec<TransmissionGroups>,
    message_size: usize,
    threads: usize,
    credit_writeback_frequency: u32,
) -> Result<Exchange> {
    let mut config = ExchangeConfig::with_groups(ShuffleAlgorithm::SEMQ_SR, threads.max(1), groups);
    config.message_size = message_size;
    config.recv_depth_per_peer = 8;
    config.credit_writeback_frequency = credit_writeback_frequency;
    Exchange::build(runtime, &config)
}

#[cfg(test)]
mod tests {
    use rshuffle::{ShuffleError, TransmissionGroups};
    use rshuffle_simnet::{Cluster, DeviceProfile};
    use rshuffle_verbs::VerbsRuntime;

    /// Groups for two nodes on a three-node cluster are the exchange's
    /// typed configuration error, for either library.
    #[test]
    fn a_wrong_group_count_is_a_config_error() {
        let runtime = VerbsRuntime::new(Cluster::new(3, DeviceProfile::edr()));
        let builds = [crate::mpi::build, crate::ipoib::build];
        for (name, build) in ["mpi", "ipoib"].into_iter().zip(builds) {
            let groups = (0..2).map(|me| TransmissionGroups::repartition(me, 2));
            match build(&runtime, groups.collect(), 4096, 2) {
                Err(ShuffleError::Config(why)) => assert!(why.contains("group"), "{name}: {why}"),
                other => panic!("{name}: expected a Config error, got {:?}", other.err()),
            }
        }
    }
}
