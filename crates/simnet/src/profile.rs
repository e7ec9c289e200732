//! Device profiles: calibration constants for the simulated clusters.
//!
//! The paper evaluates two shared clusters (§5): one with 56 Gb/s FDR
//! InfiniBand (2× Intel Xeon E5-2670v2, 10 worker threads per query
//! fragment) and one with 100 Gb/s EDR InfiniBand (2× E5-2680v4, 14 worker
//! threads). The constants below are calibrated so that the *reference*
//! measurements reported in the paper hold: the qperf line sits at ≈6 GiB/s
//! (FDR) and ≈11.5 GiB/s (EDR), and the EDR NIC caches context for many more
//! Queue Pairs than the FDR NIC (Kalia et al., FaSST/OSDI '16), which is the
//! paper's explanation for why the MQ algorithms stop degrading on EDR
//! (§5.1.3).

use crate::resource::transfer_time;
use crate::time::SimDuration;

/// One GiB in bytes, used for bandwidth constants.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Maximum message size of the Unreliable Datagram service — the MTU
/// (§2.2.2: 4 KiB). A property of InfiniBand, not of a NIC generation.
pub const UD_MTU: usize = 4096;

/// Maximum message size of the Reliable Connection service (Table 1).
pub const MAX_RC_MESSAGE: usize = 1 << 30;

/// Calibration constants for one cluster generation.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Human-readable name ("FDR", "EDR").
    pub name: &'static str,
    /// Achievable payload bandwidth per port direction, bytes/second.
    pub payload_bandwidth: f64,
    /// Worker threads per query fragment (one per CPU core used).
    pub threads_per_node: usize,

    /// Queue Pair contexts the NIC can cache on chip.
    pub qp_cache_entries: usize,
    /// Extra NIC processing time per work request on a QP-cache miss
    /// (PCIe round trip to fetch the context from host memory).
    pub qp_cache_miss: SimDuration,
    /// NIC pipeline occupancy per send/read work request.
    pub wr_nic: SimDuration,
    /// NIC pipeline occupancy for a work request absorbed into an earlier
    /// doorbell (WQE fetch amortized across the chain; the coalescing
    /// window itself is a driver constant in [`crate::nic`]).
    pub wr_nic_batched: SimDuration,
    /// NIC pipeline occupancy to match an incoming message to a posted
    /// receive.
    pub wr_recv_match: SimDuration,
    /// One-way switch/port latency per message.
    pub switch_latency: SimDuration,
    /// Extra latency until the sender-side completion of a *reliable* send
    /// (the hardware ACK round trip).
    pub rc_ack_latency: SimDuration,
    /// Latency of a local (loopback) delivery that never crosses the wire.
    pub loopback_latency: SimDuration,

    /// CPU cost of posting one work request (`ibv_post_send`/`_recv`).
    pub post_wr_cpu: SimDuration,
    /// CPU cost of one completion-queue poll (`ibv_poll_cq`).
    pub poll_cq_cpu: SimDuration,
    /// Wakeup latency from a hardware completion to a polling thread
    /// observing it.
    pub completion_latency: SimDuration,
    /// Single-core memcpy bandwidth, bytes/second.
    pub memcpy_bandwidth: f64,
    /// CPU cost of hashing one tuple in the shuffle operator.
    pub hash_per_tuple: SimDuration,

    /// Connection-manager cost to create and connect one RC Queue Pair
    /// (includes the out-of-band exchange over TCP).
    pub rc_qp_setup: SimDuration,
    /// Connection-manager cost to create one UD Queue Pair and exchange its
    /// address handle.
    pub ud_qp_setup: SimDuration,
    /// Fixed per-endpoint initialization cost (allocation + bookkeeping).
    pub endpoint_setup: SimDuration,
    /// Memory registration cost per GiB of pinned memory.
    pub mr_register_per_gib: SimDuration,

    /// Effective bandwidth cap of the IPoIB path (interrupt + soft-IRQ
    /// bound), bytes/second.
    pub ipoib_bandwidth: f64,
    /// MPI library overhead per message (matching, tag lookup, progress).
    pub mpi_per_message: SimDuration,
    /// MPI rendezvous handshake round-trip (RTS/CTS) for large messages.
    pub mpi_rendezvous_rtt: SimDuration,
    /// Per-sharing-thread CPU cost of posting on a Queue Pair shared by
    /// multiple cores (QP state cache line bouncing). Multiplied by the
    /// thread count for single-endpoint UD designs; this is the
    /// `ibv_post_send` contention that bottlenecks SESQ/SR (§5.1.3).
    pub sq_contention_per_thread: SimDuration,
}

impl DeviceProfile {
    /// The 56 Gb/s FDR InfiniBand cluster (Intel Xeon E5-2670v2, 10 worker
    /// threads per fragment).
    pub fn fdr() -> Self {
        DeviceProfile {
            name: "FDR",
            payload_bandwidth: 6.2 * GIB,
            threads_per_node: 10,
            qp_cache_entries: 28,
            qp_cache_miss: SimDuration::from_nanos(1_500),
            wr_nic: SimDuration::from_nanos(260),
            wr_nic_batched: SimDuration::from_nanos(90),
            wr_recv_match: SimDuration::from_nanos(120),
            switch_latency: SimDuration::from_nanos(300),
            rc_ack_latency: SimDuration::from_nanos(1_800),
            loopback_latency: SimDuration::from_nanos(600),
            post_wr_cpu: SimDuration::from_nanos(160),
            poll_cq_cpu: SimDuration::from_nanos(90),
            completion_latency: SimDuration::from_nanos(250),
            memcpy_bandwidth: 7.0 * GIB,
            hash_per_tuple: SimDuration::from_nanos(5),
            rc_qp_setup: SimDuration::from_micros(1_200),
            ud_qp_setup: SimDuration::from_micros(1_500),
            endpoint_setup: SimDuration::from_micros(1_000),
            mr_register_per_gib: SimDuration::from_millis(280),
            ipoib_bandwidth: 1.85 * GIB,
            mpi_per_message: SimDuration::from_nanos(1_400),
            mpi_rendezvous_rtt: SimDuration::from_micros(2),
            sq_contention_per_thread: SimDuration::from_nanos(60),
        }
    }

    /// The 100 Gb/s EDR InfiniBand cluster (Intel Xeon E5-2680v4, 14 worker
    /// threads per fragment).
    pub fn edr() -> Self {
        DeviceProfile {
            name: "EDR",
            payload_bandwidth: 11.9 * GIB,
            threads_per_node: 14,
            qp_cache_entries: 640,
            qp_cache_miss: SimDuration::from_nanos(450),
            wr_nic: SimDuration::from_nanos(160),
            wr_nic_batched: SimDuration::from_nanos(50),
            wr_recv_match: SimDuration::from_nanos(80),
            switch_latency: SimDuration::from_nanos(230),
            rc_ack_latency: SimDuration::from_nanos(1_200),
            loopback_latency: SimDuration::from_nanos(450),
            post_wr_cpu: SimDuration::from_nanos(130),
            poll_cq_cpu: SimDuration::from_nanos(70),
            completion_latency: SimDuration::from_nanos(200),
            memcpy_bandwidth: 8.5 * GIB,
            hash_per_tuple: SimDuration::from_nanos(4),
            rc_qp_setup: SimDuration::from_micros(1_150),
            ud_qp_setup: SimDuration::from_micros(1_400),
            endpoint_setup: SimDuration::from_micros(900),
            mr_register_per_gib: SimDuration::from_millis(240),
            ipoib_bandwidth: 3.9 * GIB,
            mpi_per_message: SimDuration::from_nanos(1_100),
            mpi_rendezvous_rtt: SimDuration::from_nanos(1_500),
            sq_contention_per_thread: SimDuration::from_nanos(12),
        }
    }

    /// Looks a profile up by name (case-insensitive `"fdr"` / `"edr"`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "fdr" => Some(Self::fdr()),
            "edr" => Some(Self::edr()),
            _ => None,
        }
    }

    /// Serialization time of `bytes` on one port direction.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        transfer_time(bytes, self.payload_bandwidth)
    }

    /// Memory registration time for `bytes` of pinned memory.
    pub fn mr_register_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(
            (self.mr_register_per_gib.as_nanos() as f64 * bytes as f64 / GIB) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edr_is_faster_than_fdr() {
        let fdr = DeviceProfile::fdr();
        let edr = DeviceProfile::edr();
        assert!(edr.payload_bandwidth > fdr.payload_bandwidth);
        assert!(edr.qp_cache_entries > fdr.qp_cache_entries);
        assert!(edr.threads_per_node > fdr.threads_per_node);
    }

    #[test]
    fn qperf_reference_bandwidths() {
        // Calibration anchor: the paper's qperf measurements.
        let fdr = DeviceProfile::fdr();
        let edr = DeviceProfile::edr();
        assert!((5.8..6.5).contains(&(fdr.payload_bandwidth / GIB)));
        assert!((11.0..12.0).contains(&(edr.payload_bandwidth / GIB)));
    }

    #[test]
    fn wire_time_scales_linearly() {
        let p = DeviceProfile::edr();
        let t1 = p.wire_time(64 * 1024);
        let t2 = p.wire_time(128 * 1024);
        let ratio = t2.as_nanos() as f64 / t1.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(DeviceProfile::by_name("FDR").unwrap().name, "FDR");
        assert_eq!(DeviceProfile::by_name("edr").unwrap().name, "EDR");
        assert!(DeviceProfile::by_name("qdr").is_none());
    }

    #[test]
    fn registration_cost_matches_paper_scale() {
        // §5.1.5: registering the operator's buffers takes < 5 ms.
        let p = DeviceProfile::edr();
        let cost = p.mr_register_time(16 << 20); // 16 MiB of buffers.
        assert!(cost.as_millis_f64() < 5.0);
    }
}
