//! End-to-end transport semantics tests for the verbs layer: real bytes
//! moving between simulated nodes under virtual time.
//!
//! Untimed resource setup (QPs, CQs, MRs, connections) happens on the host
//! thread before the simulation starts; simulated threads then exercise the
//! timed data path. This mirrors how the shuffle operators are driven by
//! the benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_obs::names;
use rshuffle_simnet::{Cluster, DeviceProfile, SimContext, SimDuration};
use rshuffle_verbs::{
    AddressHandle, Completion, CompletionQueue, ConnectionManager, FaultConfig, QpNum, QpScope,
    QpType, QueuePair, RecvWr, RemoteAddr, SendWr, VerbsError, VerbsRuntime, WcOpcode, WcStatus,
};

/// A delivery counter the application cannot observe directly, read from
/// the registry.
fn counted(rt: &VerbsRuntime, series: &'static str) -> u64 {
    rt.obs().metrics.counter_total(series)
}

fn runtime(nodes: usize) -> Arc<VerbsRuntime> {
    // Reordering off by default for deterministic latency assertions.
    let faults = FaultConfig {
        ud_reorder_probability: 0.0,
        ..FaultConfig::default()
    };
    VerbsRuntime::with_faults(Cluster::new(nodes, DeviceProfile::edr()), faults)
}

/// Creates a connected RC pair: (qp on node a, its cq, qp on node b, its cq).
fn rc_pair(
    rt: &Arc<VerbsRuntime>,
    a: usize,
    b: usize,
) -> (QueuePair, CompletionQueue, QueuePair, CompletionQueue) {
    let ctx_a = rt.context(a);
    let ctx_b = rt.context(b);
    let cq_a = ctx_a.create_cq();
    let cq_b = ctx_b.create_cq();
    let qp_a = ctx_a.create_qp(QpType::Rc, cq_a.clone(), cq_a.clone());
    let qp_b = ctx_b.create_qp(QpType::Rc, cq_b.clone(), cq_b.clone());
    ConnectionManager::activate_untimed(&qp_a, Some(qp_b.address_handle())).unwrap();
    ConnectionManager::activate_untimed(&qp_b, Some(qp_a.address_handle())).unwrap();
    (qp_a, cq_a, qp_b, cq_b)
}

/// Creates a ready UD QP with its CQ on `node`.
fn ud_qp(rt: &Arc<VerbsRuntime>, node: usize) -> (QueuePair, CompletionQueue) {
    let ctx = rt.context(node);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq.clone());
    ConnectionManager::activate_untimed(&qp, None).unwrap();
    (qp, cq)
}

#[test]
fn rc_send_recv_delivers_bytes() {
    let rt = runtime(2);
    let (qp_s, cq_s, qp_r, cq_r) = rc_pair(&rt, 0, 1);
    let recv_mr = rt.context(1).register_untimed(4096);
    let send_mr = rt.context(0).register_untimed(4096);
    send_mr.write(0, b"hello rdma!").unwrap();
    let received = Arc::new(Mutex::new(Vec::new()));

    let out = received.clone();
    let mr = recv_mr.clone();
    rt.cluster().spawn(1, "receiver", move |sim| {
        qp_r.post_recv(
            &sim,
            RecvWr {
                wr_id: 1,
                mr: mr.clone(),
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
        let c = cq_r.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
        assert_eq!(c.opcode, WcOpcode::Recv);
        assert_eq!(c.byte_len, 11);
        assert_eq!(c.src_node, 0);
        assert_eq!(c.imm, Some(99));
        out.lock().extend(mr.read(0, 11).unwrap());
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        // Give the receiver a moment to post its receive.
        sim.sleep(SimDuration::from_micros(10));
        qp_s.post_send(
            &sim,
            SendWr {
                wr_id: 7,
                mr: send_mr,
                offset: 0,
                len: 11,
                imm: Some(99),
                ah: None,
            },
        )
        .unwrap();
        let c = cq_s.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
        assert_eq!(c.opcode, WcOpcode::Send);
    });

    rt.cluster().run();
    assert_eq!(received.lock().as_slice(), b"hello rdma!");
}

#[test]
fn rc_is_ordered_fifo() {
    let rt = runtime(2);
    let (qp_s, cq_s, qp_r, cq_r) = rc_pair(&rt, 0, 1);
    let recv_mr = rt.context(1).register_untimed(64 * 64);
    let send_mr = rt.context(0).register_untimed(64);
    let order = Arc::new(Mutex::new(Vec::new()));

    let order2 = order.clone();
    let mr = recv_mr.clone();
    rt.cluster().spawn(1, "receiver", move |sim| {
        for i in 0..64u64 {
            qp_r.post_recv(
                &sim,
                RecvWr {
                    wr_id: i,
                    mr: mr.clone(),
                    offset: (i as usize) * 64,
                    len: 64,
                },
            )
            .unwrap();
        }
        for _ in 0..64 {
            let c = cq_r.next(&sim);
            assert_eq!(c.status, WcStatus::Success);
            let slot = c.wr_id as usize * 64;
            order2.lock().push(mr.read(slot, 1).unwrap()[0]);
        }
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(20));
        for i in 0..64u8 {
            send_mr.write(0, &[i]).unwrap();
            qp_s.post_send(
                &sim,
                SendWr {
                    wr_id: i as u64,
                    mr: send_mr.clone(),
                    offset: 0,
                    len: 1,
                    imm: None,
                    ah: None,
                },
            )
            .unwrap();
            // Wait for the send completion so reusing the buffer is legal.
            let c = cq_s.next(&sim);
            assert_eq!(c.status, WcStatus::Success);
        }
    });

    rt.cluster().run();
    let seen = order.lock().clone();
    assert_eq!(
        seen,
        (0..64u8).collect::<Vec<_>>(),
        "RC must deliver in order"
    );
}

#[test]
fn ud_unmatched_send_is_dropped() {
    let rt = runtime(2);
    let (qp_r, cq_r) = ud_qp(&rt, 1);
    let (qp_s, cq_s) = ud_qp(&rt, 0);
    let dest = qp_r.address_handle();
    let send_mr = rt.context(0).register_untimed(256);

    rt.cluster().spawn(1, "receiver", move |sim| {
        // Deliberately post NO receive; wait long enough for the message to
        // arrive and be dropped.
        sim.sleep(SimDuration::from_millis(1));
        assert_eq!(cq_r.depth(), 0, "no completion without a posted receive");
        drop(qp_r);
    });
    rt.cluster().spawn(0, "sender", move |sim| {
        qp_s.post_send(
            &sim,
            SendWr {
                wr_id: 1,
                mr: send_mr,
                offset: 0,
                len: 100,
                imm: None,
                ah: Some(dest),
            },
        )
        .unwrap();
        // The sender still gets its local completion (buffer consumed).
        let c = cq_s.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
    });
    rt.cluster().run();
    assert_eq!(counted(&rt, names::VERBS_UD_UNMATCHED), 1);
}

#[test]
fn ud_rejects_messages_over_mtu() {
    let rt = runtime(2);
    let (qp, _cq) = ud_qp(&rt, 0);
    let mr = rt.context(0).register_untimed(8192);
    rt.cluster().spawn(0, "sender", move |sim| {
        let err = qp
            .post_send(
                &sim,
                SendWr {
                    wr_id: 1,
                    mr,
                    offset: 0,
                    len: 4097,
                    imm: None,
                    ah: Some(AddressHandle {
                        node: 1,
                        qpn: rshuffle_verbs::QpNum(999),
                    }),
                },
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::MessageTooLarge { max: 4096, .. }));
    });
    rt.cluster().run();
}

#[test]
fn ud_one_qp_receives_from_many_senders() {
    let n = 5;
    let rt = runtime(n);
    let (qp_r, cq_r) = ud_qp(&rt, 0);
    let dest = qp_r.address_handle();
    let recv_mr = rt.context(0).register_untimed(4096 * 64);
    let total = Arc::new(AtomicU64::new(0));

    let total2 = total.clone();
    let mr = recv_mr.clone();
    rt.cluster().spawn(0, "receiver", move |sim| {
        for i in 0..64u64 {
            qp_r.post_recv(
                &sim,
                RecvWr {
                    wr_id: i,
                    mr: mr.clone(),
                    offset: (i as usize) * 4096,
                    len: 4096,
                },
            )
            .unwrap();
        }
        let mut senders_seen = std::collections::HashSet::new();
        for _ in 0..(n - 1) * 4 {
            let c = cq_r.next(&sim);
            assert_eq!(c.status, WcStatus::Success);
            senders_seen.insert(c.src_node);
            total2.fetch_add(c.byte_len as u64, Ordering::SeqCst);
        }
        assert_eq!(senders_seen.len(), n - 1, "one UD QP hears every peer");
    });

    for node in 1..n {
        let (qp_s, cq_s) = ud_qp(&rt, node);
        let mr = rt.context(node).register_untimed(4096);
        rt.cluster()
            .spawn(node, &format!("sender{node}"), move |sim| {
                sim.sleep(SimDuration::from_micros(50));
                for k in 0..4u64 {
                    qp_s.post_send(
                        &sim,
                        SendWr {
                            wr_id: k,
                            mr: mr.clone(),
                            offset: 0,
                            len: 1000,
                            imm: None,
                            ah: Some(dest),
                        },
                    )
                    .unwrap();
                    let _ = cq_s.next(&sim);
                }
            });
    }
    rt.cluster().run();
    assert_eq!(total.load(Ordering::SeqCst), (n as u64 - 1) * 4 * 1000);
}

#[test]
fn rdma_read_pulls_remote_memory() {
    let rt = runtime(2);
    let (qp_reader, cq_reader, _qp_passive, _cq_passive) = rc_pair(&rt, 0, 1);
    let remote_mr = rt.context(1).register_untimed(1024);
    remote_mr.write(128, b"passive data").unwrap();
    let remote = RemoteAddr {
        node: 1,
        rkey: remote_mr.rkey(),
        offset: 128,
    };
    let local = rt.context(0).register_untimed(1024);

    let local2 = local.clone();
    rt.cluster().spawn(0, "reader", move |sim| {
        sim.sleep(SimDuration::from_micros(10));
        qp_reader
            .post_read(&sim, 42, (local2.clone(), 0), remote, 12)
            .unwrap();
        let c = cq_reader.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
        assert_eq!(c.opcode, WcOpcode::Read);
        assert_eq!(c.byte_len, 12);
        assert_eq!(local2.read(0, 12).unwrap(), b"passive data".to_vec());
    });
    // Note: the passive side never spawns a thread at all — the defining
    // property of one-sided communication.
    rt.cluster().run();
}

#[test]
fn rdma_write_updates_remote_memory_and_signals() {
    let rt = runtime(2);
    let (qp_writer, cq_writer, _qp_passive, _cq_passive) = rc_pair(&rt, 0, 1);
    let target_mr = rt.context(1).register_untimed(64);
    let remote = RemoteAddr {
        node: 1,
        rkey: target_mr.rkey(),
        offset: 0,
    };
    let local = rt.context(0).register_untimed(64);
    local.write(0, b"written").unwrap();

    let target2 = target_mr.clone();
    rt.cluster().spawn(1, "poller", move |sim| {
        // Poll local memory for the remote write (ValidArr-style).
        let update = target2.listen();
        let deadline = sim.now() + SimDuration::from_millis(1);
        assert!(sim.wait_any(&[&update], Some(deadline)));
        assert_eq!(target2.read(0, 7).unwrap(), b"written".to_vec());
    });
    rt.cluster().spawn(0, "writer", move |sim| {
        sim.sleep(SimDuration::from_micros(10));
        qp_writer
            .post_write(&sim, 1, (local, 0), remote, 7)
            .unwrap();
        let c = cq_writer.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
        assert_eq!(c.opcode, WcOpcode::Write);
    });

    rt.cluster().run();
}

#[test]
fn one_sided_ops_rejected_on_ud() {
    let rt = runtime(2);
    let (qp, _cq) = ud_qp(&rt, 0);
    let mr = rt.context(0).register_untimed(64);
    rt.cluster().spawn(0, "t", move |sim| {
        let remote = RemoteAddr {
            node: 1,
            rkey: 1,
            offset: 0,
        };
        let err = qp
            .post_read(&sim, 1, (mr.clone(), 0), remote, 8)
            .unwrap_err();
        assert!(matches!(err, VerbsError::UnsupportedOp { .. }));
        let err = qp
            .post_write(&sim, 1, (mr.clone(), 0), remote, 8)
            .unwrap_err();
        assert!(matches!(err, VerbsError::UnsupportedOp { .. }));
    });
    rt.cluster().run();
}

#[test]
fn post_send_requires_rts() {
    let rt = runtime(2);
    let ctx = rt.context(0);
    let cq = ctx.create_cq();
    let qp = ctx.create_qp(QpType::Ud, cq.clone(), cq.clone());
    let mr = ctx.register_untimed(64);
    rt.cluster().spawn(0, "t", move |sim| {
        let err = qp
            .post_send(
                &sim,
                SendWr {
                    wr_id: 1,
                    mr: mr.clone(),
                    offset: 0,
                    len: 8,
                    imm: None,
                    ah: Some(AddressHandle {
                        node: 1,
                        qpn: rshuffle_verbs::QpNum(1),
                    }),
                },
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidState { .. }));
        // post_recv is also rejected in RESET.
        let err = qp
            .post_recv(
                &sim,
                RecvWr {
                    wr_id: 1,
                    mr,
                    offset: 0,
                    len: 8,
                },
            )
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidState { .. }));
    });
    rt.cluster().run();
}

#[test]
fn rc_rnr_retries_until_receive_is_posted() {
    let rt = runtime(2);
    let (qp_s, cq_s, qp_r, cq_r) = rc_pair(&rt, 0, 1);
    let recv_mr = rt.context(1).register_untimed(4096);
    let send_mr = rt.context(0).register_untimed(64);

    rt.cluster().spawn(1, "late-receiver", move |sim| {
        // Post the receive LATE: after the message has already arrived and
        // been RNR-ed at least once.
        sim.sleep(SimDuration::from_micros(60));
        qp_r.post_recv(
            &sim,
            RecvWr {
                wr_id: 5,
                mr: recv_mr,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
        let c = cq_r.next(&sim);
        assert_eq!(c.status, WcStatus::Success, "retry must eventually deliver");
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        qp_s.post_send(
            &sim,
            SendWr {
                wr_id: 1,
                mr: send_mr,
                offset: 0,
                len: 64,
                imm: None,
                ah: None,
            },
        )
        .unwrap();
        let c = cq_s.next(&sim);
        assert_eq!(c.status, WcStatus::Success);
    });

    rt.cluster().run();
    assert!(
        counted(&rt, names::VERBS_RNR_RETRIES) >= 1,
        "at least one RNR retry expected"
    );
}

/// A reliable connection delivers in posted order, receiver-not-ready
/// retries included: a Send that lands while an earlier one waits out its
/// RNR retry waits behind it (as go-back-N retransmission keeps it), even
/// when a receive was posted in between. Delivered ahead, a `Depleted`
/// marker would end the receiver's stream before the data it follows.
#[test]
fn rc_sends_behind_an_rnr_retry_keep_their_posted_order() {
    let rt = runtime(2);
    let (qp_s, cq_s, qp_r, cq_r) = rc_pair(&rt, 0, 1);
    let recv_mr = rt.context(1).register_untimed(128);
    let send_mr = rt.context(0).register_untimed(128);
    send_mr.write(0, &[1; 64]).unwrap();
    send_mr.write(64, &[2; 64]).unwrap();
    let landed = recv_mr.clone();

    rt.cluster().spawn(1, "receiver", move |sim| {
        // After the first Send was refused, before its retry.
        sim.sleep(SimDuration::from_micros(5));
        for slot in 0..2 {
            let wr = RecvWr {
                wr_id: slot,
                mr: recv_mr.clone(),
                offset: 64 * slot as usize,
                len: 64,
            };
            qp_r.post_recv(&sim, wr).unwrap();
        }
        for _ in 0..2 {
            assert_eq!(cq_r.next(&sim).status, WcStatus::Success);
        }
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        for (wr_id, at) in [(1, 0), (2, 8)] {
            let wr = SendWr {
                wr_id,
                mr: send_mr.clone(),
                offset: 64 * (wr_id as usize - 1),
                len: 64,
                imm: None,
                ah: None,
            };
            sim.sleep(SimDuration::from_micros(at));
            qp_s.post_send(&sim, wr).unwrap();
        }
        let acked: Vec<(u64, WcStatus)> = (0..2)
            .map(|_| cq_s.next(&sim))
            .map(|c| (c.wr_id, c.status))
            .collect();
        assert_eq!(acked, [(1, WcStatus::Success), (2, WcStatus::Success)]);
    });

    rt.cluster().run();
    assert!(
        counted(&rt, names::VERBS_RNR_RETRIES) >= 1,
        "the first Send met RNR"
    );
    assert_eq!(
        landed.read(0, 64).unwrap(),
        [1; 64],
        "first receive holds the first Send"
    );
    assert_eq!(landed.read(64, 64).unwrap(), [2; 64]);
}

#[test]
fn rc_sender_fails_if_receiver_never_posts() {
    let rt = runtime(2);
    let (qp_s, cq_s, _qp_r, _cq_r) = rc_pair(&rt, 0, 1);
    let send_mr = rt.context(0).register_untimed(64);

    rt.cluster().spawn(0, "sender", move |sim| {
        qp_s.post_send(
            &sim,
            SendWr {
                wr_id: 1,
                mr: send_mr,
                offset: 0,
                len: 64,
                imm: None,
                ah: None,
            },
        )
        .unwrap();
        let c = cq_s.next(&sim);
        assert_eq!(
            c.status,
            WcStatus::RetryExceeded,
            "RNR retries must exhaust when no receive is ever posted"
        );
    });
    rt.cluster().run();
}

#[test]
fn ud_loss_injection_loses_datagrams() {
    let faults = FaultConfig {
        ud_drop_probability: 0.5,
        ud_reorder_probability: 0.0,
        seed: 1234,
        ..FaultConfig::default()
    };
    let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), faults);
    let (qp_r, cq_r) = ud_qp(&rt, 1);
    let (qp_s, cq_s) = ud_qp(&rt, 0);
    let dest = qp_r.address_handle();
    let recv_mr = rt.context(1).register_untimed(4096 * 128);
    let send_mr = rt.context(0).register_untimed(4096);
    let delivered = Arc::new(AtomicU64::new(0));

    let d = delivered.clone();
    rt.cluster().spawn(1, "receiver", move |sim| {
        for i in 0..128u64 {
            qp_r.post_recv(
                &sim,
                RecvWr {
                    wr_id: i,
                    mr: recv_mr.clone(),
                    offset: i as usize * 4096,
                    len: 4096,
                },
            )
            .unwrap();
        }
        // Count whatever arrives within a grace period.
        let mut got = Vec::new();
        let grace = |sim: &SimContext| sim.now() + SimDuration::from_micros(200);
        while cq_r.drain_into(&sim, &mut got, 128, grace(&sim), &[]) > 0 {
            d.fetch_add(got.len() as u64, Ordering::SeqCst);
        }
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(30));
        for k in 0..100u64 {
            qp_s.post_send(
                &sim,
                SendWr {
                    wr_id: k,
                    mr: send_mr.clone(),
                    offset: 0,
                    len: 512,
                    imm: None,
                    ah: Some(dest),
                },
            )
            .unwrap();
            let _ = cq_s.next(&sim);
        }
    });

    rt.cluster().run();
    let got = delivered.load(Ordering::SeqCst);
    let lost = counted(&rt, names::VERBS_UD_DROPPED);
    assert_eq!(
        got + lost,
        100,
        "every datagram is delivered or counted lost"
    );
    assert!(lost > 20 && lost < 80, "≈50% loss expected, got {lost}");
}

#[test]
fn ud_reordering_shuffles_delivery_order() {
    let faults = FaultConfig {
        ud_drop_probability: 0.0,
        ud_reorder_probability: 0.5,
        ud_reorder_window: SimDuration::from_micros(50),
        seed: 99,
        ..FaultConfig::default()
    };
    let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), faults);
    let (qp_r, cq_r) = ud_qp(&rt, 1);
    let (qp_s, cq_s) = ud_qp(&rt, 0);
    let dest = qp_r.address_handle();
    let recv_mr = rt.context(1).register_untimed(4096 * 64);
    let send_mr = rt.context(0).register_untimed(4096);
    let order = Arc::new(Mutex::new(Vec::new()));

    let o = order.clone();
    rt.cluster().spawn(1, "receiver", move |sim| {
        for i in 0..64u64 {
            qp_r.post_recv(
                &sim,
                RecvWr {
                    wr_id: i,
                    mr: recv_mr.clone(),
                    offset: i as usize * 4096,
                    len: 4096,
                },
            )
            .unwrap();
        }
        for _ in 0..64 {
            let c = cq_r.next(&sim);
            // The sequence number travels in the immediate data.
            o.lock().push(c.imm.unwrap());
        }
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(30));
        for k in 0..64u32 {
            qp_s.post_send(
                &sim,
                SendWr {
                    wr_id: k as u64,
                    mr: send_mr.clone(),
                    offset: 0,
                    len: 256,
                    imm: Some(k),
                    ah: Some(dest),
                },
            )
            .unwrap();
            let _ = cq_s.next(&sim);
        }
    });

    rt.cluster().run();
    let seen = order.lock().clone();
    assert_eq!(seen.len(), 64, "reordering must not lose datagrams");
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    assert_ne!(seen, sorted, "with 50% jitter some datagrams must reorder");
}

#[test]
fn fault_plan_qp_failure_flushes_receives_and_senders() {
    use rshuffle_verbs::FaultPlan;
    let faults = FaultConfig {
        ud_reorder_probability: 0.0,
        plan: FaultPlan::new().qp_failure(1, SimDuration::from_micros(50)),
        ..FaultConfig::default()
    };
    let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), faults);
    let (qp_s, cq_s, qp_r, cq_r) = rc_pair(&rt, 0, 1);
    let recv_mr = rt.context(1).register_untimed(4096);
    let send_mr = rt.context(0).register_untimed(4096);

    // The receiver posts a receive before the failure, then polls: it must
    // observe a flushed completion, not hang.
    rt.cluster().spawn(1, "receiver", move |sim| {
        qp_r.post_recv(
            &sim,
            RecvWr {
                wr_id: 1,
                mr: recv_mr.clone(),
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
        let c = cq_r.next(&sim);
        assert_eq!(c.status, WcStatus::Flushed, "queued receive is flushed");
        assert_eq!(c.opcode, WcOpcode::Recv);
    });

    // The sender posts after the failure: its send completes in error.
    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(100));
        qp_s.post_send(
            &sim,
            SendWr {
                wr_id: 7,
                mr: send_mr,
                offset: 0,
                len: 64,
                imm: None,
                ah: None,
            },
        )
        .unwrap();
        let c = cq_s.next(&sim);
        assert_eq!(c.status, WcStatus::Flushed, "send to a dead QP flushes");
    });

    rt.cluster().run();
}

#[test]
fn fault_plan_ud_loss_burst_drops_only_in_window() {
    use rshuffle_verbs::FaultPlan;
    // Certain loss inside [1ms, 2ms), zero outside: the window boundary is
    // what is under test, so drop probability is 1.0.
    let faults = FaultConfig {
        ud_drop_probability: 0.0,
        ud_reorder_probability: 0.0,
        plan: FaultPlan::new().ud_loss_burst(
            0,
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            1.0,
        ),
        ..FaultConfig::default()
    };
    let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), faults);
    let (qp_r, cq_r) = ud_qp(&rt, 1);
    let (qp_s, cq_s) = ud_qp(&rt, 0);
    let dest = qp_r.address_handle();
    let recv_mr = rt.context(1).register_untimed(64 * 512);
    let send_mr = rt.context(0).register_untimed(64);
    let delivered = Arc::new(AtomicU64::new(0));

    let delivered2 = delivered.clone();
    rt.cluster().spawn(1, "receiver", move |sim| {
        for i in 0..64u64 {
            qp_r.post_recv(
                &sim,
                RecvWr {
                    wr_id: i,
                    mr: recv_mr.clone(),
                    offset: (i as usize) * 64,
                    len: 64,
                },
            )
            .unwrap();
        }
        // Drain until well past the burst window.
        let mut got = Vec::new();
        while sim.now() < rshuffle_simnet::SimTime::ZERO + SimDuration::from_millis(4) {
            let deadline = sim.now() + SimDuration::from_micros(100);
            let n = cq_r.drain_into(&sim, &mut got, 64, deadline, &[]);
            delivered2.fetch_add(n as u64, Ordering::Relaxed);
        }
    });

    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(10));
        // 10 datagrams before the window, 10 inside, 10 after.
        for phase in 0..3u64 {
            for k in 0..10u64 {
                qp_s.post_send(
                    &sim,
                    SendWr {
                        wr_id: phase * 10 + k,
                        mr: send_mr.clone(),
                        offset: 0,
                        len: 48,
                        imm: Some((phase * 10 + k) as u32),
                        ah: Some(dest),
                    },
                )
                .unwrap();
                let _ = cq_s.next(&sim);
            }
            sim.sleep(SimDuration::from_millis(1));
        }
    });

    rt.cluster().run();
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        20,
        "exactly the in-window datagrams are lost"
    );
    assert_eq!(counted(&rt, names::VERBS_UD_DROPPED), 10);
}

/// Everything a completion-queue entry says apart from its two timestamps:
/// `(status, opcode, byte_len, src_node, src_qp, qp, imm)`.
type Entry = (WcStatus, WcOpcode, usize, usize, QpNum, QpNum, Option<u32>);

/// `c` as an [`Entry`], having checked `posted_ns`: the instant the work
/// request was posted, or 0 for the flush of a receive nobody matched.
fn entry(c: &Completion, posted_at: u64) -> Entry {
    let unknown = (c.status, c.opcode) == (WcStatus::Flushed, WcOpcode::Recv);
    assert_eq!(c.posted_ns, if unknown { 0 } else { posted_at }, "{c:?}");
    (
        c.status, c.opcode, c.byte_len, c.src_node, c.src_qp, c.qp, c.imm,
    )
}

/// What the requester (node 0, QP [`A`]) posts at the target (node 1, QP
/// [`B`]): an 11-byte message or one-sided transfer, `wr_id` 7.
#[derive(Clone, Copy)]
enum Verb {
    /// Send with immediate 99.
    Send,
    /// The same Send as a multicast to this many members, each of them
    /// the target's QP.
    Multicast(usize),
    /// One-sided, at `offset` of the target's 64-byte region, or of one
    /// nobody registered.
    Read {
        known_rkey: bool,
        offset: usize,
    },
    Write {
        known_rkey: bool,
        offset: usize,
    },
}

/// What is wrong at the target or on the way to it.
#[derive(Clone, Copy, PartialEq)]
enum Trouble {
    None,
    /// Every datagram is lost in the network.
    Lossy,
    /// The target's RC QPs are forced into the error state before the post.
    Killed,
}

const A: QpNum = QpNum(1);
const B: QpNum = QpNum(2);
/// One-sided completions name no remote QP.
const Z: QpNum = QpNum(0);
const LEN: usize = 11;

/// One way a work request can end: its name, the service, the receive the
/// target posted (its capacity), the trouble, the verb, and the entries
/// expected in the requester's completion queue — or the error the post is
/// refused with — and in the target's.
type Row = (
    &'static str,
    QpType,
    Option<usize>,
    Trouble,
    Verb,
    Result<Vec<Entry>, VerbsError>,
    Vec<Entry>,
);

#[test]
fn every_completion_carries_the_whole_entry() {
    use Trouble::{Killed, Lossy};
    use WcOpcode::{Read, Recv, Send, Write};
    use WcStatus::{Flushed, LocalLengthError, RemoteInvalidRequest, RetryExceeded, Success};
    let read = |known_rkey, offset| Verb::Read { known_rkey, offset };
    let write = |known_rkey, offset| Verb::Write { known_rkey, offset };
    let imm = Some(99);
    let ud_local: Entry = (Success, Send, LEN, 0, A, A, None);
    #[rustfmt::skip]
    let table: Vec<Row> = vec![
        ("rc send", QpType::Rc, Some(64), Trouble::None, Verb::Send,
            Ok(vec![(Success, Send, LEN, 1, B, A, None)]), vec![(Success, Recv, LEN, 0, A, B, imm)]),
        ("ud send", QpType::Ud, Some(64), Trouble::None, Verb::Send,
            Ok(vec![ud_local]), vec![(Success, Recv, LEN, 0, A, B, imm)]),
        ("ud send lost in the network", QpType::Ud, Some(64), Lossy, Verb::Send,
            Ok(vec![ud_local]), vec![]),
        ("ud send unmatched", QpType::Ud, None, Trouble::None, Verb::Send,
            Ok(vec![ud_local]), vec![]),
        ("rc send to a killed qp", QpType::Rc, Some(64), Killed, Verb::Send,
            Ok(vec![(Flushed, Send, LEN, 1, B, A, None)]), vec![(Flushed, Recv, 0, 1, B, B, None)]),
        ("rc send, rnr retries exhausted", QpType::Rc, None, Trouble::None, Verb::Send,
            Ok(vec![(RetryExceeded, Send, LEN, 1, B, A, None)]), vec![]),
        ("rc send longer than the receive", QpType::Rc, Some(8), Trouble::None, Verb::Send,
            Ok(vec![(RemoteInvalidRequest, Send, LEN, 1, B, A, None)]),
            vec![(LocalLengthError, Recv, LEN, 0, A, B, imm)]),
        ("ud send longer than the receive", QpType::Ud, Some(8), Trouble::None, Verb::Send,
            Ok(vec![ud_local]), vec![(LocalLengthError, Recv, LEN, 0, A, B, imm)]),
        // A multicast to one member is a UD send, entry for entry.
        ("ud multicast to one member", QpType::Ud, Some(64), Trouble::None, Verb::Multicast(1),
            Ok(vec![ud_local]), vec![(Success, Recv, LEN, 0, A, B, imm)]),
        ("ud multicast to one member, lost in the network", QpType::Ud, Some(64), Lossy,
            Verb::Multicast(1), Ok(vec![ud_local]), vec![]),
        ("ud multicast to one member, unmatched", QpType::Ud, None, Trouble::None,
            Verb::Multicast(1), Ok(vec![ud_local]), vec![]),
        ("ud multicast to one member, longer than the receive", QpType::Ud, Some(8), Trouble::None,
            Verb::Multicast(1), Ok(vec![ud_local]), vec![(LocalLengthError, Recv, LEN, 0, A, B, imm)]),
        ("ud multicast to no member", QpType::Ud, Some(64), Trouble::None, Verb::Multicast(0),
            Err(VerbsError::MissingAddressHandle), vec![]),
        ("read", QpType::Rc, None, Trouble::None, read(true, 0),
            Ok(vec![(Success, Read, LEN, 1, Z, A, None)]), vec![]),
        ("read, bad rkey", QpType::Rc, None, Trouble::None, read(false, 0),
            Ok(vec![(Flushed, Read, 0, 1, Z, A, None)]), vec![]),
        ("read, out of bounds", QpType::Rc, None, Trouble::None, read(true, 60),
            Ok(vec![(Flushed, Read, 0, 1, Z, A, None)]), vec![]),
        ("write", QpType::Rc, None, Trouble::None, write(true, 0),
            Ok(vec![(Success, Write, LEN, 1, Z, A, None)]), vec![]),
        ("write, bad rkey", QpType::Rc, None, Trouble::None, write(false, 0),
            Ok(vec![(Flushed, Write, 0, 1, Z, A, None)]), vec![]),
        ("write, out of bounds", QpType::Rc, None, Trouble::None, write(true, 60),
            Ok(vec![(Flushed, Write, 0, 1, Z, A, None)]), vec![]),
    ];
    for (name, service, recv, trouble, verb, at_requester, at_target) in table {
        let faults = FaultConfig {
            ud_reorder_probability: 0.0,
            ud_drop_probability: if trouble == Lossy { 1.0 } else { 0.0 },
            ..FaultConfig::default()
        };
        let rt = VerbsRuntime::with_faults(Cluster::new(2, DeviceProfile::edr()), faults);
        let (qp_a, cq_a, qp_b, cq_b) = match service {
            QpType::Rc => rc_pair(&rt, 0, 1),
            QpType::Ud => {
                let ((qp_a, cq_a), (qp_b, cq_b)) = (ud_qp(&rt, 0), ud_qp(&rt, 1));
                (qp_a, cq_a, qp_b, cq_b)
            }
        };
        assert_eq!((qp_a.qpn(), qp_b.qpn()), (A, B));
        let local = rt.context(0).register_untimed(64);
        local.write(0, b"hello rdma!").unwrap();
        let target = rt.context(1).register_untimed(64);
        if let Some(len) = recv {
            qp_b.post_recv_untimed(RecvWr {
                wr_id: 5,
                mr: target.clone(),
                offset: 0,
                len,
            })
            .unwrap();
        }
        if trouble == Killed {
            rt.fail_qps(1, QpScope::Rc);
        }
        let rkey = target.rkey();
        let remote = move |known_rkey, offset| RemoteAddr {
            node: 1,
            rkey: if known_rkey { rkey } else { 9_999 },
            offset,
        };
        let b = qp_b.address_handle();
        let ah = (service == QpType::Ud).then_some(b);
        let ack_latency = rt.profile().rc_ack_latency.as_nanos();
        rt.cluster().spawn(0, "requester", move |sim| {
            sim.sleep(SimDuration::from_micros(10));
            let before = sim.now().as_nanos();
            let send = SendWr {
                wr_id: 7,
                mr: local.clone(),
                offset: 0,
                len: LEN,
                imm,
                ah,
            };
            let posted = match verb {
                Verb::Send => qp_a.post_send(&sim, send),
                Verb::Multicast(members) => {
                    let send = SendWr { ah: None, ..send };
                    qp_a.post_send_multicast(&sim, send, &vec![b; members])
                }
                Verb::Read { known_rkey, offset } => {
                    qp_a.post_read(&sim, 7, (local, 0), remote(known_rkey, offset), LEN)
                }
                Verb::Write { known_rkey, offset } => {
                    qp_a.post_write(&sim, 7, (local, 0), remote(known_rkey, offset), LEN)
                }
            };
            let posted_at = sim.now().as_nanos();
            assert_eq!(posted, at_requester.clone().map(|_| ()), "{name}");
            // A refused post is refused before its CPU cost is charged.
            if posted.is_err() {
                assert_eq!(posted_at, before, "{name}: time passed");
            }
            let at_requester = at_requester.unwrap_or_default();
            // Past the last receiver-not-ready retry (7 x 20 µs).
            sim.sleep(SimDuration::from_millis(1));
            let mut deposits = Vec::new();
            for (side, cq, wr_id, expected) in [
                ("requester", &cq_a, 7, &at_requester),
                ("target", &cq_b, 5, &at_target),
            ] {
                let polled = cq.poll(&sim, 8);
                let entries: Vec<Entry> = polled.iter().map(|c| entry(c, posted_at)).collect();
                assert_eq!(&entries, expected, "{name}: {side}");
                assert!(polled.iter().all(|c| c.wr_id == wr_id), "{name}: {side}");
                for c in &polled {
                    let after = c.deposited_ns.saturating_sub(posted_at);
                    println!("{name}: {side} {:?} +{after}ns", entry(c, posted_at));
                }
                deposits.push(polled.first().map(|c| c.deposited_ns));
            }
            // A reliable sender hears of the match, fit or overrun, one
            // ACK latency after it.
            if let (QpType::Rc, Verb::Send, Trouble::None, [Some(answered), Some(matched)]) =
                (service, verb, trouble, &deposits[..])
            {
                assert_eq!(answered - matched, ack_latency, "{name}");
            }
        });
        rt.cluster().run();
    }
}

/// A pool posted as one run is matched window by window, oldest first, on
/// either service; a failing QP flushes what of it is still posted, no more.
#[test]
fn a_pool_posted_as_one_run_is_matched_window_by_window() {
    const WINDOW: usize = 64;
    const POOL: usize = 16;
    const MESSAGES: usize = 5;
    const ID_STEP: u64 = 3;
    for service in [QpType::Ud, QpType::Rc] {
        let rt = runtime(2);
        let (qp_s, cq_s, qp_r, cq_r) = match service {
            QpType::Rc => rc_pair(&rt, 0, 1),
            QpType::Ud => {
                let ((qp_s, cq_s), (qp_r, cq_r)) = (ud_qp(&rt, 0), ud_qp(&rt, 1));
                (qp_s, cq_s, qp_r, cq_r)
            }
        };
        let pool = rt.context(1).register_pool_untimed(WINDOW, POOL);
        let first = RecvWr {
            wr_id: 0,
            mr: pool.clone(),
            offset: 0,
            len: WINDOW,
        };
        qp_r.post_recv_run_untimed(first, (ID_STEP, WINDOW), POOL)
            .unwrap();
        assert_eq!(
            (qp_r.posted_receives(), qp_r.posted_receive_runs()),
            (POOL, 1)
        );
        let send_mr = rt.context(0).register_untimed(WINDOW);
        let ah = (service == QpType::Ud).then(|| qp_r.address_handle());
        rt.cluster().spawn(0, "sender", move |sim| {
            for i in 0..MESSAGES {
                send_mr.write(0, &[i as u8 + 1]).unwrap();
                let wr = SendWr {
                    wr_id: i as u64,
                    mr: send_mr.clone(),
                    offset: 0,
                    len: 1,
                    imm: None,
                    ah,
                };
                qp_s.post_send(&sim, wr).unwrap();
                assert_eq!(cq_s.next(&sim).status, WcStatus::Success);
            }
        });
        let rt_r = rt.clone();
        rt.cluster().spawn(1, "receiver", move |sim| {
            for i in 0..MESSAGES {
                let c = cq_r.next(&sim);
                assert_eq!(
                    (c.status, c.wr_id),
                    (WcStatus::Success, i as u64 * ID_STEP),
                    "{service:?}"
                );
                assert_eq!(pool.read(i * WINDOW, 2).unwrap(), [i as u8 + 1, 0]);
            }
            assert_eq!(qp_r.posted_receives(), POOL - MESSAGES);
            rt_r.fail_qps(1, QpScope::All);
            let flushed: Vec<_> = cq_r
                .poll(&sim, 2 * POOL)
                .iter()
                .map(|c| (c.status, c.wr_id))
                .collect();
            let rest = (MESSAGES..POOL).map(|i| (WcStatus::Flushed, i as u64 * ID_STEP));
            assert_eq!(flushed, rest.collect::<Vec<_>>(), "{service:?}");
            assert_eq!(qp_r.posted_receives(), 0);
        });
        rt.cluster().run();
    }
}

/// A fault seed under which, at drop probability one half, the second of
/// three fates drawn is the only loss.
const MULTICAST_SEED: u64 = 7;

/// One multicast work request to three members, the second member's copy
/// lost: one local completion, one receive completion at each of the other
/// two, the fates drawn in member order.
#[test]
fn multicast_completes_once_locally_and_once_per_surviving_member() {
    let faults = FaultConfig {
        ud_reorder_probability: 0.0,
        ud_drop_probability: 0.5,
        seed: MULTICAST_SEED,
        ..FaultConfig::default()
    };
    let rt = VerbsRuntime::with_faults(Cluster::new(4, DeviceProfile::edr()), faults);
    let (qp_s, cq_s) = ud_qp(&rt, 0);
    let members: Vec<_> = (1..4).map(|node| ud_qp(&rt, node)).collect();
    let dests: Vec<AddressHandle> = members.iter().map(|(qp, _)| qp.address_handle()).collect();
    for (node, (qp, _)) in (1..4).zip(&members) {
        qp.post_recv_untimed(RecvWr {
            wr_id: 5,
            mr: rt.context(node).register_untimed(64),
            offset: 0,
            len: 64,
        })
        .unwrap();
    }
    let local = rt.context(0).register_untimed(64);
    let rt2 = rt.clone();
    rt.cluster().spawn(0, "sender", move |sim| {
        sim.sleep(SimDuration::from_micros(10));
        let wr = SendWr {
            wr_id: 7,
            mr: local,
            offset: 0,
            len: LEN,
            imm: Some(99),
            ah: None,
        };
        qp_s.post_send_multicast(&sim, wr, &dests).unwrap();
        let posted_at = sim.now().as_nanos();
        sim.sleep(SimDuration::from_millis(1));
        let s = qp_s.qpn();
        let at = |cq: &CompletionQueue| -> Vec<Entry> {
            let polled = cq.poll(&sim, 8);
            polled.iter().map(|c| entry(c, posted_at)).collect()
        };
        assert_eq!(
            at(&cq_s),
            [(WcStatus::Success, WcOpcode::Send, LEN, 0, s, s, None)]
        );
        let got: Vec<Vec<Entry>> = members.iter().map(|(_, cq)| at(cq)).collect();
        let copy = |m: usize| {
            (
                WcStatus::Success,
                WcOpcode::Recv,
                LEN,
                0,
                s,
                dests[m].qpn,
                Some(99),
            )
        };
        println!("multicast: {got:?}");
        assert_eq!(got, [vec![copy(0)], vec![], vec![copy(2)]]);
        assert_eq!(counted(&rt2, names::VERBS_UD_DROPPED), 1);
    });
    rt.cluster().run();
}
