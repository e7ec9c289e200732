//! The qperf-style peak-bandwidth probe (§5.1: "the sender in qperf only
//! registers a single buffer for data transfer and keeps posting RDMA Send
//! requests. The receiver continuously posts RDMA Receive requests in an
//! infinite loop and never accesses the transmitted data").
//!
//! The measurement defines the dashed "line rate" reference of Figure 10.
//! It deliberately skips everything a real shuffle must do: no hashing, no
//! copies into transmission buffers, no flow-control protocol, no data
//! consumption.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rshuffle_simnet::{Cluster, DeviceProfile};
use rshuffle_verbs::{
    ConnectionManager, FaultConfig, QpType, RecvWr, SendWr, VerbsRuntime, WcStatus,
};

/// Measures peak point-to-point receive bandwidth (bytes/second) with
/// `message_size`-byte RC messages over `profile`'s hardware.
pub fn qperf_peak_bandwidth(profile: &DeviceProfile, message_size: usize) -> f64 {
    let cluster = Cluster::new(2, profile.clone());
    let runtime = VerbsRuntime::with_faults(
        cluster,
        FaultConfig {
            ud_reorder_probability: 0.0,
            ..FaultConfig::default()
        },
    );

    // Enough traffic to amortize ramp-up.
    let messages: u64 = (256 << 20) as u64 / message_size as u64;
    let window: usize = 64;

    let ctx_s = runtime.context(0);
    let ctx_r = runtime.context(1);
    let cq_s = ctx_s.create_cq();
    let cq_r = ctx_r.create_cq();
    let qp_s = ctx_s.create_qp(QpType::Rc, cq_s.clone(), cq_s.clone());
    let qp_r = ctx_r.create_qp(QpType::Rc, cq_r.clone(), cq_r.clone());
    ConnectionManager::activate_untimed(&qp_s, Some(qp_r.address_handle())).expect("connect");
    ConnectionManager::activate_untimed(&qp_r, Some(qp_s.address_handle())).expect("connect");

    // qperf registers a single send buffer...
    let send_mr = ctx_s.register_untimed(message_size);
    // ...and a ring of receive buffers it never reads.
    let recv_mr = ctx_r.register_untimed(message_size * window);
    let first = RecvWr {
        wr_id: 0,
        mr: recv_mr.clone(),
        offset: 0,
        len: message_size,
    };
    qp_r.post_recv_run_untimed(first, (1, message_size), window)
        .expect("prepost");

    let bytes_done = Arc::new(AtomicU64::new(0));
    let finished_at = Arc::new(AtomicU64::new(0));

    // Receiver: repost blindly, never touch the data.
    {
        let qp_r = qp_r.clone();
        let recv_mr = recv_mr.clone();
        let bytes_done = bytes_done.clone();
        let finished_at = finished_at.clone();
        runtime.cluster().spawn(1, "qperf-recv", move |sim| {
            for _ in 0..messages {
                let c = cq_r.next(&sim);
                assert_eq!(c.status, WcStatus::Success);
                bytes_done.fetch_add(c.byte_len as u64, Ordering::Relaxed);
                qp_r.post_recv(
                    &sim,
                    RecvWr {
                        wr_id: c.wr_id,
                        mr: recv_mr.clone(),
                        offset: c.wr_id as usize,
                        len: message_size,
                    },
                )
                .expect("repost");
            }
            finished_at.store(sim.now().as_nanos(), Ordering::Relaxed);
        });
    }

    // Sender: keep `window/2` sends in flight from the single buffer.
    runtime.cluster().spawn(0, "qperf-send", move |sim| {
        let inflight_target = window / 2;
        let mut inflight = 0usize;
        for _ in 0..messages {
            while inflight >= inflight_target {
                let c = cq_s.next(&sim);
                assert_eq!(c.status, WcStatus::Success);
                inflight -= 1;
            }
            qp_s.post_send(
                &sim,
                SendWr {
                    wr_id: 0,
                    mr: send_mr.clone(),
                    offset: 0,
                    len: message_size,
                    imm: None,
                    ah: None,
                },
            )
            .expect("post");
            inflight += 1;
        }
        while inflight > 0 {
            let _ = cq_s.next(&sim);
            inflight -= 1;
        }
    });

    runtime.cluster().run();
    let bytes = bytes_done.load(Ordering::Relaxed) as f64;
    let secs = finished_at.load(Ordering::Relaxed) as f64 / 1e9;
    assert!(secs > 0.0, "measurement finished instantly");
    bytes / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rshuffle_simnet::profile::GIB;

    #[test]
    fn qperf_fdr_hits_reference_line() {
        let bw = qperf_peak_bandwidth(&DeviceProfile::fdr(), 64 * 1024) / GIB;
        // The paper's qperf line sits at ≈6 GiB/s on FDR.
        assert!((5.4..6.4).contains(&bw), "FDR qperf measured {bw:.2} GiB/s");
    }

    #[test]
    fn qperf_edr_hits_reference_line() {
        let bw = qperf_peak_bandwidth(&DeviceProfile::edr(), 64 * 1024) / GIB;
        // ≈11.5 GiB/s on EDR.
        assert!(
            (10.5..12.0).contains(&bw),
            "EDR qperf measured {bw:.2} GiB/s"
        );
    }

    #[test]
    fn tiny_messages_are_rate_limited() {
        // At 512 B the per-work-request NIC occupancy exceeds the wire
        // serialization time, so throughput is message-rate-bound and falls
        // well below line rate (4 KiB and larger stay wire-bound, as on
        // real hardware).
        let tiny = qperf_peak_bandwidth(&DeviceProfile::edr(), 512);
        let large = qperf_peak_bandwidth(&DeviceProfile::edr(), 64 * 1024);
        assert!(
            tiny < large * 0.5,
            "tiny {tiny} not rate-limited vs large {large}"
        );
    }
}
