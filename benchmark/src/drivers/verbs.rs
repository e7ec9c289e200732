//! `verbs`: one RC Queue Pair pair, one simulated thread per side,
//! `post_send` of 4 KiB messages and `poll_into` of their completions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rshuffle_simnet::{Cluster, DeviceProfile, SimTime};
use rshuffle_verbs::{
    ConnectionManager, FaultConfig, QpType, RecvWr, SendWr, VerbsRuntime, WcStatus,
};

/// Returns (host ns, virtual ns) per message.
pub fn post_poll() -> (f64, f64) {
    const MESSAGES: u64 = 4_000;
    const SIZE: usize = 4096;
    const WINDOW: usize = 32;
    let runtime = VerbsRuntime::with_faults(
        Cluster::new(2, DeviceProfile::edr()),
        FaultConfig::default(),
    );
    let (ctx_s, ctx_r) = (runtime.context(0), runtime.context(1));
    let (cq_s, cq_r) = (ctx_s.create_cq(), ctx_r.create_cq());
    let qp_s = ctx_s.create_qp(QpType::Rc, cq_s.clone(), cq_s.clone());
    let qp_r = ctx_r.create_qp(QpType::Rc, cq_r.clone(), cq_r.clone());
    ConnectionManager::activate_untimed(&qp_s, Some(qp_r.address_handle())).expect("connect");
    ConnectionManager::activate_untimed(&qp_r, Some(qp_s.address_handle())).expect("connect");
    let send_mr = ctx_s.register_untimed(SIZE);
    let recv_mr = ctx_r.register_untimed(SIZE * WINDOW);
    let recv_wr = move |slot: u64| RecvWr {
        wr_id: slot,
        mr: recv_mr.clone(),
        offset: slot as usize * SIZE,
        len: SIZE,
    };
    for slot in 0..WINDOW as u64 {
        qp_r.post_recv_untimed(recv_wr(slot)).expect("prepost");
    }

    let arrived = Arc::new(AtomicU64::new(0));
    {
        let arrived = arrived.clone();
        runtime.cluster().spawn(1, "recv", move |sim| {
            let mut scratch = Vec::new();
            let mut seen = 0;
            while seen < MESSAGES {
                if cq_r.poll_into(&sim, &mut scratch, WINDOW) == 0 {
                    scratch.push(cq_r.next(&sim));
                }
                for c in &scratch {
                    assert_eq!(c.status, WcStatus::Success);
                    arrived.fetch_add(c.byte_len as u64, Ordering::Relaxed);
                    qp_r.post_recv(&sim, recv_wr(c.wr_id)).expect("repost");
                }
                seen += scratch.len() as u64;
            }
        });
    }
    runtime.cluster().spawn(0, "send", move |sim| {
        let mut scratch = Vec::new();
        let mut inflight = 0;
        for _ in 0..MESSAGES {
            while inflight >= WINDOW / 2 {
                if cq_s.poll_into(&sim, &mut scratch, WINDOW) == 0 {
                    scratch.push(cq_s.next(&sim));
                }
                inflight -= scratch.len();
            }
            let wr = SendWr {
                wr_id: 0,
                mr: send_mr.clone(),
                offset: 0,
                len: SIZE,
                imm: None,
                ah: None,
            };
            qp_s.post_send(&sim, wr).expect("post");
            inflight += 1;
        }
        while inflight > 0 {
            cq_s.next(&sim);
            inflight -= 1;
        }
    });

    let start = Instant::now();
    runtime.cluster().run();
    let host_ns = start.elapsed().as_nanos() as f64;
    let virt_ns = (runtime.kernel().now() - SimTime::ZERO).as_nanos();
    assert_eq!(
        arrived.load(Ordering::Relaxed),
        MESSAGES * SIZE as u64,
        "verbs driver: every posted byte must arrive"
    );
    assert!(virt_ns > 0, "verbs driver: virtual time must advance");
    (host_ns / MESSAGES as f64, virt_ns as f64 / MESSAGES as f64)
}
