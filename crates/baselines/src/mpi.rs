//! An MVAPICH-style MPI baseline (§5.1: "One comparison baseline is the
//! MVAPICH2 implementation of the ubiquitous MPI library that uses RDMA
//! for communication").
//!
//! The library is built on the same Send/Receive-over-RC machinery as the
//! SEMQ/SR endpoint, with the overheads that distinguish an MPI
//! implementation from a bespoke shuffling operator:
//!
//! * **Eager protocol**: small messages are copied into library-internal
//!   buffers (an extra memcpy on the send side and on the receive side).
//! * **Rendezvous protocol**: messages above the eager threshold block the
//!   sender for an RTS/CTS round trip before data moves.
//! * **Progress engine**: one lock per process serializes every library
//!   call (`MPI_THREAD_MULTIPLE` semantics), so communication only
//!   progresses while some thread sits inside the library — the reason MPI
//!   "fail\[s\] to completely overlap communication and computation"
//!   (§5.1.6).
//! * Per-message matching cost (tag/rank lookup).

use std::sync::Arc;

use rshuffle::endpoint::{Delivery, ReceiveEndpoint, SendEndpoint};
use rshuffle::{Buffer, CostModel, Exchange, Result, StreamState, TransmissionGroups};
use rshuffle_simnet::{NodeId, SimContext, SimDuration, SimMutex};
use rshuffle_verbs::VerbsRuntime;

/// Eager threshold: messages up to this size are copied eagerly, larger
/// ones go through the rendezvous handshake (MVAPICH2's default order of
/// magnitude).
const EAGER_THRESHOLD: usize = 16 * 1024;

/// MPI-library cost constants (taken from the device profile).
#[derive(Clone, Debug)]
struct MpiCosts {
    per_message: SimDuration,
    rendezvous_rtt: SimDuration,
    copy: CostModel,
}

/// The sending half of the MPI baseline (`MPI_Send`).
pub struct MpiSendEndpoint {
    inner: Arc<dyn SendEndpoint>,
    progress: SimMutex,
    costs: MpiCosts,
}

impl SendEndpoint for MpiSendEndpoint {
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        // The library's CPU work (matching, copies, handshakes) is
        // serialized by the progress engine; blocking network waits happen
        // outside the lock so cross-node progress cannot deadlock.
        let guard = self.progress.lock(sim);
        for _ in dest {
            sim.sleep(self.costs.per_message);
            if buf.len() <= EAGER_THRESHOLD {
                // Eager: copy into the library's internal buffer.
                sim.sleep(self.costs.copy.copy_time(buf.len()));
            } else {
                // Rendezvous: RTS/CTS round trip before the data moves.
                sim.sleep(self.costs.rendezvous_rtt);
            }
        }
        drop(guard);
        self.inner.send(sim, buf, dest, state)
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.inner.get_free(sim)
    }
}

/// The receiving half of the MPI baseline (`MPI_Irecv` + wait).
pub struct MpiReceiveEndpoint {
    inner: Arc<dyn ReceiveEndpoint>,
    progress: SimMutex,
    costs: MpiCosts,
}

impl ReceiveEndpoint for MpiReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        // Block for data outside the lock (an `MPI_Wait` spin), then charge
        // the library's matching + delivery copy under the progress lock.
        let d = self.inner.get_data(sim)?;
        if let Some(ref delivery) = d {
            let guard = self.progress.lock(sim);
            sim.sleep(self.costs.per_message);
            // The eager path copies out of library buffers; rendezvous
            // transfers land in place but still pay an unpack/match pass.
            sim.sleep(self.costs.copy.copy_time(delivery.local.len()));
            drop(guard);
        }
        Ok(d)
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        // Reposting and credit write-back are non-blocking library calls.
        let guard = self.progress.lock(sim);
        let r = self.inner.release(sim, delivery);
        drop(guard);
        r
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// Builds a cluster-wide MPI communicator for the given per-node groups:
/// one rank per node, a single logical endpoint pair per rank (the library
/// is process-level) behind the rank's shared progress engine.
pub fn build(
    runtime: &Arc<VerbsRuntime>,
    groups: Vec<TransmissionGroups>,
    message_size: usize,
    threads: usize,
) -> Result<Exchange> {
    let profile = runtime.profile();
    let costs = MpiCosts {
        per_message: profile.mpi_per_message,
        rendezvous_rtt: profile.mpi_rendezvous_rtt,
        copy: CostModel::from_profile(profile),
    };
    // The library endpoint is one per rank, writing credit back every
    // second receive.
    let mut exchange = crate::semq_sr(runtime, groups, message_size, threads, 2)?;
    for (send, recv) in exchange.send.iter_mut().zip(&mut exchange.recv) {
        let progress = SimMutex::new(runtime.kernel(), SimDuration::from_nanos(100));
        for ep in send {
            *ep = Arc::new(MpiSendEndpoint {
                inner: ep.clone(),
                progress: progress.clone(),
                costs: costs.clone(),
            });
        }
        for ep in recv {
            *ep = Arc::new(MpiReceiveEndpoint {
                inner: ep.clone(),
                progress: progress.clone(),
                costs: costs.clone(),
            });
        }
    }
    Ok(exchange)
}
