//! RDMA Send/Receive over the Reliable Connection service (§4.4.1).
//!
//! The data-delivery guarantee of RC requires every arriving Send to match a
//! posted Receive, so the sender and the receiver synchronize through a
//! **stateless credit mechanism**: the receiver issues credit only after a
//! Receive has been posted, and transmits the *absolute* credit (total
//! Receives posted on the connection so far) rather than a relative delta.
//! Credit travels from receiver to sender as an RDMA Write into a dedicated
//! credit region at the sender (inlined to save a DMA fetch). The write-back
//! is amortized over `credit_writeback_frequency` Receives —
//! the trade-off studied in Figure 8.
//!
//! Each endpoint holds one Queue Pair per peer (Θ(n) per endpoint, the "MQ"
//! design) and associates all of them with a single completion queue to
//! amortize polling.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rshuffle_audit::CreditLane;
use rshuffle_simnet::{NodeId, Notify, SimContext};
use rshuffle_verbs::{
    Completion, Context, MemoryRegion, QueuePair, RecvWr, RemoteAddr, SendWr, WcOpcode,
};

use crate::buffer::{Buffer, MsgKind, StreamState};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, region_base, state_notify, Cq, InlineWrites, Layout,
    RcHalf, SendWindow, Sources,
};
use crate::endpoint::{
    buf_id, Delivery, EndpointId, Params, RcTransport, ReceiveEndpoint, RecvObs, SendEndpoint,
    SendObs,
};
use crate::error::{Result, ShuffleError};

/// The audit identity of the credit slot at `addr`.
fn credit_lane(addr: &RemoteAddr) -> CreditLane {
    CreditLane::Slot {
        rkey: addr.rkey,
        offset: addr.offset as u64,
    }
}

/// What the send half pins toward `peers` destinations: the send pool and
/// one absolute credit counter per peer (rings of a single slot).
pub(crate) fn send_layout(cfg: &Params, peers: usize) -> Layout {
    Layout {
        window: cfg.message_size,
        buffers: cfg.buffers_per_peer * peers,
        rings: peers,
        ring_cap: 1,
        inline_writes: false,
    }
}

/// What the receive half pins for `srcs` sources: the posted-receive pool
/// and the scratch its credit writes are sourced from.
pub(crate) fn recv_layout(cfg: &Params, srcs: usize) -> Layout {
    Layout {
        window: cfg.message_size,
        buffers: cfg.recv_depth_per_peer * srcs,
        rings: 0,
        ring_cap: 0,
        inline_writes: true,
    }
}

/// SEND endpoint: RDMA Send/Receive over Reliable Connection.
pub struct SrRcSendEndpoint {
    half: RcHalf,
    send_cq: Cq,
    window: SendWindow,
    /// Absolute credit per peer, RDMA-written by the remote receiver.
    credit_mr: MemoryRegion,
    /// Data messages sent per peer.
    sent: Mutex<Vec<u64>>,
    obs: SendObs,
    cfg: Params,
}

impl SrRcSendEndpoint {
    /// Creates the endpoint with its per-peer QPs (unconnected; the
    /// exchange builder wires them to the matching receive endpoints).
    pub(crate) fn new(ctx: &Context, id: EndpointId, peers: Vec<NodeId>, cfg: Params) -> Self {
        let layout = send_layout(&cfg, peers.len());
        let send_cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, peers, &send_cq, &send_cq);
        SrRcSendEndpoint {
            window: SendWindow::register(ctx, &layout),
            credit_mr: ctx.register_untimed(layout.ring_bytes()),
            sent: Mutex::new(vec![0; half.peers()]),
            obs: SendObs::new(ctx, id),
            half,
            send_cq,
            cfg,
        }
    }

    /// Where the receiver behind peer slot `pi` RDMA-Writes its credit.
    fn credit_slot(&self, pi: usize) -> RemoteAddr {
        RemoteAddr {
            offset: 8 * pi,
            ..region_base(&self.credit_mr)
        }
    }

    /// Blocks until peer `pi` has granted credit beyond `sent`. The wait is
    /// woken by the receiver's credit RDMA Write landing in the credit
    /// region; running out of credit is the Figure 8 stall.
    fn wait_for_credit(&self, sim: &SimContext, pi: usize) -> Result<()> {
        let has_credit = || -> Result<Option<()>> {
            let credit = self.credit_mr.read_u64(8 * pi)?;
            Ok((credit > self.sent.lock()[pi]).then_some(()))
        };
        self.cfg.watchdog(sim, "waiting for send credit").wait(
            sim,
            Some(&self.obs),
            || self.credit_mr.listen(),
            has_credit,
            |written, abort, deadline| {
                sim.wait_any(&[&written, abort], Some(deadline));
                Ok(())
            },
        )
    }
}

impl SendEndpoint for SrRcSendEndpoint {
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        assert!(!dest.is_empty(), "send needs at least one destination");
        buf.write_header(&data_header(self.half.id, self.cfg.epoch, &buf, state))?;
        self.window.launch(sim, &buf, dest.len());
        for &d in dest {
            let pi = self.half.index_of(d)?;
            self.wait_for_credit(sim, pi)?;
            let sent_now = {
                let mut sent = self.sent.lock();
                sent[pi] += 1;
                sent[pi]
            };
            self.half.audit.credit_consumed(
                credit_lane(&self.credit_slot(pi)),
                sent_now,
                sim.now().as_nanos(),
            );
            let guard = self.half.lock_post(sim);
            self.half.qp(pi).post_send(
                sim,
                SendWr {
                    wr_id: buf.offset() as u64,
                    mr: buf.region().clone(),
                    offset: buf.offset(),
                    len: buf.message_len(),
                    imm: None,
                    ah: None,
                },
            )?;
            drop(guard);
            self.obs.sent(d, buf.len() as u64);
        }
        Ok(())
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        self.cfg
            .watchdog(sim, "waiting for a free send buffer")
            .wait(
                sim,
                None,
                || self.window.listen(),
                || Ok(self.window.take(sim)),
                |freed, abort, deadline| {
                    let reap = |c: &Completion| {
                        expect_success(
                            c,
                            "reliable send failed (receiver never posted a receive?)",
                        )?;
                        self.window.complete(sim, c.wr_id)
                    };
                    self.send_cq
                        .drain(sim, deadline, &[&freed, abort], reap)
                        .map(drop)
                },
            )
    }
}

/// RECEIVE endpoint: RDMA Send/Receive over Reliable Connection.
pub struct SrRcReceiveEndpoint {
    half: RcHalf,
    srcs: Sources,
    recv_cq: Cq,
    /// Send-side CQ of the receive QPs (credit write-backs), drained lazily
    /// through the handled path (statuses checked, never swallowed).
    ctrl_cq: Cq,
    pool_mr: MemoryRegion,
    /// Deliveries decoded from a batched CQ drain, waiting for a
    /// `get_data` caller.
    pending: Mutex<VecDeque<Delivery>>,
    /// Notified whenever a receive completion is decoded or the last
    /// credit write-back completes, so callers blocked on a CQ another
    /// caller drained hear of it.
    changed: Notify,
    /// Credit write-backs posted but not yet seen to complete. Must drain
    /// to zero at end of stream — a swallowed control completion turns
    /// into a typed error instead of silence.
    ctrl_outstanding: AtomicU64,
    /// Absolute receives posted per source (the credit value).
    posted: Mutex<Vec<u64>>,
    /// Releases since the last credit write-back, per source.
    releases: Mutex<Vec<u32>>,
    /// Where each source's send endpoint keeps my credit slot.
    credit_remote: Mutex<Vec<Option<RemoteAddr>>>,
    credit_writes: InlineWrites,
    obs: RecvObs,
    cfg: Params,
}

impl SrRcReceiveEndpoint {
    /// Creates the endpoint with one QP per source.
    pub(crate) fn new(ctx: &Context, id: EndpointId, srcs: Vec<NodeId>, cfg: Params) -> Self {
        let layout = recv_layout(&cfg, srcs.len());
        let recv_cq = Cq::new(ctx);
        let ctrl_cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, srcs, &ctrl_cq, &recv_cq);
        let n = half.peers();
        SrRcReceiveEndpoint {
            srcs: Sources::new(n),
            pool_mr: ctx.register_pool_untimed(layout.window, layout.buffers),
            pending: Mutex::new(VecDeque::new()),
            changed: state_notify(ctx),
            ctrl_outstanding: AtomicU64::new(0),
            posted: Mutex::new(vec![0; n]),
            releases: Mutex::new(vec![0; n]),
            credit_remote: Mutex::new(vec![None; n]),
            credit_writes: InlineWrites::register(ctx),
            obs: RecvObs::new(ctx, id),
            half,
            recv_cq,
            ctrl_cq,
            cfg,
        }
    }

    /// Wires the remote credit slot for `src` and posts the initial receive
    /// pool on that connection. Returns the initial credit granted.
    fn bootstrap_src(&self, src: NodeId, credit_slot: RemoteAddr) -> Result<u64> {
        let si = self.half.index_of(src)?;
        self.credit_remote.lock()[si] = Some(credit_slot);
        // Source `si`'s `depth` windows of the pool, named by their offsets.
        let (depth, window) = (self.cfg.recv_depth_per_peer, self.cfg.message_size);
        let offset = depth * si * window;
        let first = RecvWr {
            wr_id: offset as u64,
            mr: self.pool_mr.clone(),
            offset,
            len: window,
        };
        let step = (window as u64, window);
        self.half.qp(si).post_recv_run_untimed(first, step, depth)?;
        let credit = depth as u64;
        self.posted.lock()[si] = credit;
        // Bootstrap happens outside the measured window, at virtual 0.
        let lane = credit_lane(&credit_slot);
        let audit = &self.half.audit;
        audit.credit_lane(lane, Some(self.cfg.credit_writeback_frequency as u64));
        audit.receives_posted(lane, credit, 0);
        audit.credit_granted(lane, credit, 0);
        Ok(credit)
    }
}

impl RcTransport for SrRcSendEndpoint {
    type Receiver = SrRcReceiveEndpoint;

    fn qp_pair<'a>(
        &'a self,
        peer: NodeId,
        recv: &'a SrRcReceiveEndpoint,
        src: NodeId,
    ) -> (&'a QueuePair, &'a QueuePair) {
        (self.half.qp_for(peer), recv.half.qp_for(src))
    }

    /// The receiver posts its initial receives and learns where to write
    /// credit; the sender is seeded with the credit that grants.
    fn handshake(&self, peer: NodeId, recv: &SrRcReceiveEndpoint, src: NodeId) -> Result<()> {
        let pi = self.half.index_of(peer)?;
        let credit = recv.bootstrap_src(src, self.credit_slot(pi))?;
        self.credit_mr.write_u64(8 * pi, credit)?;
        Ok(())
    }
}

impl ReceiveEndpoint for SrRcReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        self.cfg
            .watchdog(sim, "receive endpoint made no progress")
            .wait(
                sim,
                None,
                || self.changed.listen(),
                || {
                    if let Some(d) = self.pending.lock().pop_front() {
                        return Ok(Some(Some(d)));
                    }
                    if self.srcs.all_depleted() && self.recv_cq.depth() == 0 {
                        // Deliveries a concurrent drainer is still decoding will be
                        // handed out by that thread's own later calls; this caller
                        // is done once the outstanding credit write-backs complete
                        // cleanly (a swallowed control completion surfaces here).
                        self.finish_ctrl(sim)?;
                        return Ok(Some(None));
                    }
                    Ok(None)
                },
                |changed, abort, deadline| {
                    let decode = |c: &Completion| self.on_receive(sim, c);
                    self.recv_cq
                        .drain(sim, deadline, &[&changed, abort], decode)
                        .map(drop)
                },
            )
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        let si = self.half.index_of(delivery.src)?;
        let local = &delivery.local;
        self.half
            .audit
            .released(buf_id(local), sim.now().as_nanos());
        self.recycle_slot(sim, si, local)
    }

    fn bytes_received(&self) -> u64 {
        self.obs.bytes_received()
    }
}

impl SrRcReceiveEndpoint {
    /// Reposts `local`'s slot on connection `si` and runs the credit
    /// write-back protocol for it — the shared tail of the normal
    /// [`ReceiveEndpoint::release`] path and the stale-epoch drop path
    /// (which recycles without delivering).
    fn recycle_slot(&self, sim: &SimContext, si: usize, local: &Buffer) -> Result<()> {
        if self.srcs.is_depleted(si) {
            // The source announced end-of-stream on this connection: no
            // further Send can arrive, so reposting a receive and writing
            // back credit would be pure tail overhead whose completions
            // `finish_ctrl` would then have to sit out at end of stream.
            return Ok(());
        }
        // Repost the buffer on the connection it came from.
        self.half.qp(si).post_recv(
            sim,
            RecvWr {
                wr_id: local.offset() as u64,
                mr: local.region().clone(),
                offset: local.offset(),
                len: local.window(),
            },
        )?;
        let slot = self.credit_remote.lock()[si];
        // The write-back decision, the audited receive count and the
        // audited grant must be one atomic step: with several receiver
        // threads releasing concurrently, interleaving the hooks would
        // let the auditor observe `posted` running ahead of `granted` by
        // more than one write-back period even though no write-back was
        // lost. The RDMA write itself stays outside the lock.
        let (credit_now, write_back) = {
            let mut posted = self.posted.lock();
            posted[si] += 1;
            let credit_now = posted[si];
            let write_back = {
                let mut releases = self.releases.lock();
                releases[si] += 1;
                releases[si].is_multiple_of(self.cfg.credit_writeback_frequency)
            };
            // A saboteur may swallow exactly one write-back: the protocol
            // "forgets" to announce credit and only the auditor's gap check
            // can notice, because absolute credit self-heals (§4.4.1).
            #[cfg(feature = "saboteur")]
            let write_back = write_back
                && !crate::sabotage::take(crate::sabotage::Sabotage::SkipCreditWriteback);
            if let Some(slot) = &slot {
                let lane = credit_lane(slot);
                let now = sim.now().as_nanos();
                self.half.audit.receives_posted(lane, 1, now);
                if write_back {
                    self.half.audit.credit_granted(lane, credit_now, now);
                }
            }
            (credit_now, write_back)
        };
        if write_back {
            let slot =
                slot.ok_or_else(|| ShuffleError::Config("credit slot not bootstrapped".into()))?;
            // RDMA-Write the absolute credit into the sender's credit slot.
            // The grant was already audited under the `posted` lock above;
            // auditing it again here would reorder grants across threads.
            self.ctrl_outstanding.fetch_add(1, Ordering::SeqCst);
            self.credit_writes
                .post(sim, self.half.qp(si), slot, credit_now)?;
        }
        // Lazily drain credit-write completions so the control CQ does not
        // grow without bound — through the handled path, so an errored
        // write-back surfaces instead of being swallowed.
        if self.ctrl_cq.depth() > 8 {
            self.ctrl_cq.poll(sim, |c| self.on_ctrl(c))?;
        }
        Ok(())
    }

    /// Decodes one receive completion into a [`Delivery`] on the pending
    /// queue. The depleted flag is flipped only *after* the delivery is
    /// queued, so `all_depleted` can never race ahead of a delivery that is
    /// still being decoded from the same batch.
    fn on_receive(&self, sim: &SimContext, c: &Completion) -> Result<()> {
        expect_success(c, "receive completed in error")?;
        let buf = Buffer::try_new(
            self.pool_mr.clone(),
            c.wr_id as usize,
            self.cfg.message_size,
        )?;
        let header = buf.read_header()?;
        if header.kind != MsgKind::Data {
            return Err(ShuffleError::Corrupt(
                "RC data connection delivered a non-data message".into(),
            ));
        }
        let si = self.half.index_of(c.src_node).map_err(|_| {
            ShuffleError::Corrupt(format!(
                "completion from unknown source node {}",
                c.src_node
            ))
        })?;
        // Delivered or dropped, the completion changed what other callers
        // wait for: the pending queue, or the CQ they wait to see empty.
        self.changed.notify();
        if header.epoch != self.cfg.epoch {
            // A leftover from a fenced-off flow attempt: recycle the
            // slot (repost + credit) without delivering or counting.
            self.obs.stale_drop();
            return self.recycle_slot(sim, si, &buf);
        }
        let src = c.src_node;
        let delivery = deliver(sim, &self.obs, &self.half.audit, &header, buf, src, 0)?;
        self.pending.lock().push_back(delivery);
        if header.state == StreamState::Depleted {
            self.srcs.mark_depleted(si);
            // Depletion closes the lane: releases stop recycling, so
            // this is the auditor's last chance to see a write-back
            // boundary that was reached but never announced.
            if let Some(slot) = &self.credit_remote.lock()[si] {
                self.half
                    .audit
                    .credit_lane_closed(credit_lane(slot), sim.now().as_nanos());
            }
        }
        Ok(())
    }

    /// Accounts one completion of the control CQ against the credit
    /// write-backs posted.
    fn on_ctrl(&self, c: &Completion) -> Result<()> {
        // A saboteur may swallow control completions the way the old
        // code did (`let _ = ctrl_cq.poll(..)`): the outstanding count
        // then never drains and `finish_ctrl` reports a typed stall.
        #[cfg(feature = "saboteur")]
        if crate::sabotage::take(crate::sabotage::Sabotage::SwallowCtrlCompletion) {
            return Ok(());
        }
        expect_success(c, "credit write-back completed in error")?;
        if c.opcode != WcOpcode::Write {
            return Err(ShuffleError::CompletionError(
                "unexpected opcode on the credit control CQ",
            ));
        }
        match self.ctrl_outstanding.fetch_sub(1, Ordering::SeqCst) {
            0 => Err(ShuffleError::CompletionError(
                "credit control CQ delivered more completions than writes posted",
            )),
            1 => {
                self.changed.notify();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Blocks until every posted credit write-back has completed cleanly.
    /// Called once per `get_data` caller at end of stream; a write-back
    /// whose completion was lost or errored turns into a typed error here
    /// instead of silently leaking CQ entries.
    fn finish_ctrl(&self, sim: &SimContext) -> Result<()> {
        let what = "credit write-back completions never arrived";
        self.cfg.watchdog(sim, what).wait(
            sim,
            None,
            || self.changed.listen(),
            || {
                let idle =
                    self.ctrl_outstanding.load(Ordering::SeqCst) == 0 && self.ctrl_cq.depth() == 0;
                Ok(idle.then_some(()))
            },
            |changed, abort, deadline| {
                let account = |c: &Completion| self.on_ctrl(c);
                self.ctrl_cq
                    .drain(sim, deadline, &[&changed, abort], account)
                    .map(drop)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rshuffle_simnet::{Cluster, DeviceProfile, SimDuration};
    use rshuffle_verbs::VerbsRuntime;

    use super::*;
    use crate::{ExchangeConfig, ShuffleAlgorithm};

    #[test]
    fn sender_without_credit_reports_stall() {
        // A send endpoint whose peer never grants credit must fail with
        // `Stalled` instead of hanging (flow-control bug detection).
        let rt = VerbsRuntime::new(Cluster::new(2, DeviceProfile::edr()));
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_SR, 2, 1);
        config.stall_timeout = SimDuration::from_micros(200);
        let params = config.params(rt.profile());
        let ep = Arc::new(SrRcSendEndpoint::new(
            &rt.context(0),
            EndpointId(0),
            vec![1],
            params,
        ));
        // No handshake: the peer "never" posts receives.
        rt.cluster().spawn(0, "sender", move |sim| {
            let Ok(buf) = ep.get_free(&sim) else {
                panic!("buffers start free");
            };
            let err = ep.send(&sim, buf, &[1], StreamState::MoreData).unwrap_err();
            assert!(matches!(err, ShuffleError::Stalled(_)), "got {err:?}");
        });
        rt.cluster().run();
    }
}
