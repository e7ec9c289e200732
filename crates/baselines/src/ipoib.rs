//! The IPoIB baseline: TCP/IP sockets over InfiniBand (§5.1: "This
//! reflects the performance from a network upgrade without any changes in
//! software").
//!
//! The transport rides the same fabric, but the kernel network stack taxes
//! it twice:
//!
//! * every byte costs CPU on the sending and the receiving side
//!   (`TCP_CPU_PER_BYTE`; the paper profiles the IPoIB run at ~2/3 of all
//!   cycles inside `send`/`recv`), and
//! * all inbound traffic at a node serializes through a soft-IRQ/interrupt
//!   path whose effective bandwidth (`ipoib_bandwidth`) is well below line
//!   rate.
//!
//! The socket buffers are the SEMQ/SR endpoints' pools, so the exchange
//! reports their bytes, and their setup cost, as the registered memory
//! and connection setup of the sockets. Figure 12 measures the six RDMA
//! designs only and charges no baseline's setup.

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::endpoint::{Delivery, ReceiveEndpoint, SendEndpoint};
use rshuffle::{Buffer, Exchange, Result, StreamState, TransmissionGroups};
use rshuffle_simnet::{NodeId, Resource, SimContext, SimDuration};
use rshuffle_verbs::VerbsRuntime;

/// Kernel TCP/IP stack CPU cost per byte, either direction.
const TCP_CPU_PER_BYTE: SimDuration = SimDuration::from_nanos(1);

/// The kernel stack's per-node receive path.
#[derive(Clone)]
struct TcpStack {
    /// Per-node soft-IRQ path shared by every inbound stream.
    softirq: Arc<Mutex<Resource>>,
    softirq_bandwidth: f64,
}

/// The sending half of the IPoIB baseline (`send(2)`).
pub struct IpoibSendEndpoint {
    inner: Arc<dyn SendEndpoint>,
}

impl SendEndpoint for IpoibSendEndpoint {
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        // Kernel send path: per-byte CPU for every destination copy.
        let per_dest =
            SimDuration::from_nanos(TCP_CPU_PER_BYTE.as_nanos() * buf.len().max(1) as u64);
        sim.sleep(per_dest * dest.len() as u64);
        self.inner.send(sim, buf, dest, state)
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.inner.get_free(sim)
    }
}

/// The receiving half of the IPoIB baseline (`select(2)` + `recv(2)`).
pub struct IpoibReceiveEndpoint {
    inner: Arc<dyn ReceiveEndpoint>,
    stack: TcpStack,
}

impl ReceiveEndpoint for IpoibReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        let d = self.inner.get_data(sim)?;
        if let Some(ref delivery) = d {
            let bytes = delivery.local.len().max(1);
            // Soft-IRQ serialization: all inbound bytes of this node share
            // one kernel path capped below line rate.
            let end = {
                let mut softirq = self.stack.softirq.lock();
                softirq
                    .reserve(
                        sim.now(),
                        rshuffle_simnet::resource::transfer_time(
                            bytes,
                            self.stack.softirq_bandwidth,
                        ),
                    )
                    .end
            };
            if end > sim.now() {
                sim.sleep(end - sim.now());
            }
            // recv(2) copies out of kernel buffers.
            sim.sleep(SimDuration::from_nanos(
                TCP_CPU_PER_BYTE.as_nanos() * bytes as u64,
            ));
        }
        Ok(d)
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        self.inner.release(sim, delivery)
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// Builds a cluster-wide IPoIB exchange for the given per-node groups: one
/// socket pair per node pair, a shared kernel stack per node.
pub fn build(
    runtime: &Arc<VerbsRuntime>,
    groups: Vec<TransmissionGroups>,
    message_size: usize,
    threads: usize,
) -> Result<Exchange> {
    // One socket pair per node pair is the SEMQ/SR design, and TCP
    // acknowledges (here: writes credit back for) every segment.
    let mut exchange = crate::semq_sr(runtime, groups, message_size, threads, 1)?;
    for ep in exchange.send.iter_mut().flatten() {
        *ep = Arc::new(IpoibSendEndpoint { inner: ep.clone() });
    }
    for lanes in &mut exchange.recv {
        let stack = TcpStack {
            softirq: Arc::new(Mutex::new(Resource::new())),
            softirq_bandwidth: runtime.profile().ipoib_bandwidth,
        };
        for ep in lanes {
            *ep = Arc::new(IpoibReceiveEndpoint {
                inner: ep.clone(),
                stack: stack.clone(),
            });
        }
    }
    Ok(exchange)
}
