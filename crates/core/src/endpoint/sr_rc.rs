//! RDMA Send/Receive over the Reliable Connection service (§4.4.1).
//!
//! The data-delivery guarantee of RC requires every arriving Send to match a
//! posted Receive, so the sender and the receiver synchronize through a
//! **stateless credit mechanism**: the receiver issues credit only after a
//! Receive has been posted, and transmits the *absolute* credit (total
//! Receives posted on the connection so far) rather than a relative delta.
//! Credit travels from receiver to sender as an RDMA Write into a dedicated
//! credit region at the sender (inlined to save a DMA fetch). Each costs a
//! work request on both NICs, so it goes back only when due: at least
//! `credit_writeback_frequency` releases after the last (Figure 8), once the
//! sender's unspent credit is within its sends in flight (each data header's
//! `counter`) plus half the window. A sender blocked at its grant is refilled
//! within `recv_depth_per_peer` releases.
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
    RcHalf, SendWindow, SourceBook,
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
    /// Per peer: data messages sent, and the completions of them reaped.
    sent: Mutex<Vec<(u64, u64)>>,
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
            sent: Mutex::new(vec![(0, 0); half.peers()]),
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
            Ok((credit > self.sent.lock()[pi].0).then_some(()))
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
        self.window.launch(sim, &buf, dest.len())?;
        let (depleted, now) = (state == StreamState::Depleted, sim.now().as_nanos());
        (self.half.audit).ordered_send(self.window.region().rkey(), dest, depleted, now);
        let mut header = data_header(self.half.id, self.cfg.epoch, &buf, state);
        for &d in dest {
            let pi = self.half.index_of(d)?;
            self.wait_for_credit(sim, pi)?;
            let (sent_now, reaped) = {
                let peer = &mut self.sent.lock()[pi];
                peer.0 += 1;
                *peer
            };
            // How deep the pipeline toward `d` runs, which sizes the
            // receiver's write-back. A rewrite copies a window an earlier
            // post of a group send still shares, so only a new value is.
            if header.counter != sent_now - reaped {
                header.counter = sent_now - reaped;
                buf.write_header(&header)?;
            }
            self.half.audit.credit_consumed(
                credit_lane(&self.credit_slot(pi)),
                sent_now,
                sim.now().as_nanos(),
            );
            let guard = self.half.post_lock.lock(sim);
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

    fn ordered(&self) -> bool {
        true
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
                        self.sent.lock()[self.half.index_of(c.src_node)?].1 += 1;
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
    book: SourceBook,
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
        SrRcReceiveEndpoint {
            book: SourceBook::new(ctx, &cfg, half.peers()),
            pool_mr: ctx.register_pool_untimed(layout.window, layout.buffers),
            pending: Mutex::new(VecDeque::new()),
            changed: state_notify(ctx),
            ctrl_outstanding: AtomicU64::new(0),
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
        self.book.open(si, credit_lane(&credit_slot), credit);
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
                    if self.book.all_declared() && self.recv_cq.depth() == 0 {
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
        if self.book.declared(si) {
            // The source announced end-of-stream on this connection: no
            // further Send can arrive, so nothing goes back to it (nor in
            // `rd_rc` or `wr_rc`): a reposted receive and a credit write
            // would be tail overhead that `finish_ctrl` has to sit out.
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
        if let Some((credit, lane)) = self.book.release(sim.now().as_nanos(), si) {
            // RDMA-Write the absolute credit into the sender's credit slot,
            // the one its lane names on its node. The grant was already
            // audited under the book's lock; auditing it again here would
            // reorder grants across threads.
            let CreditLane::Slot { rkey, offset } = lane else {
                return Err(ShuffleError::Config("not a credit slot".into()));
            };
            let (node, offset) = (self.half.peer(si), offset as usize);
            let slot = RemoteAddr { node, rkey, offset };
            self.ctrl_outstanding.fetch_add(1, Ordering::SeqCst);
            self.credit_writes
                .post(sim, self.half.qp(si), None, slot, &[credit])?;
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
    /// queue. A `Depleted` source is declared only *after* the delivery is
    /// queued, so `all_declared` can never race ahead of a delivery that is
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
        (self.book).receive(sim.now().as_nanos(), si, header.counter, None);
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
            self.book.declare(sim.now().as_nanos(), si);
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

    use rshuffle_obs::{names, EventKind, Labels, Record};

    use super::*;
    use crate::operator::{CostModel, Operator, RowBatch};
    use crate::{Exchange, ExchangeConfig, ShuffleAlgorithm, TransmissionGroups};

    /// `config` built over a fresh EDR runtime.
    fn build(config: &ExchangeConfig) -> (Arc<VerbsRuntime>, Exchange) {
        let rt = VerbsRuntime::new(Cluster::new(config.groups.len(), DeviceProfile::edr()));
        match Exchange::build(&rt, config) {
            Ok(exchange) => (rt, exchange),
            Err(e) => panic!("the configuration does not build: {e:?}"),
        }
    }

    /// Runs `body` as a simulated thread of `node`; an error fails the test.
    fn spawn(
        rt: &VerbsRuntime,
        node: NodeId,
        body: impl FnOnce(&SimContext) -> Result<()> + Send + 'static,
    ) {
        rt.cluster().spawn(node, "endpoint-test", move |sim| {
            if let Err(e) = body(&sim) {
                panic!("node {node}: {e:?}");
            }
        });
    }

    /// Runs [`build`]'s exchange of `config`: every sending lane thread
    /// sends `msgs` full messages to its whole transmission group, the last
    /// one `Depleted`, and every receiving lane thread releases what it
    /// gets after holding it for `hold`. Returns the runtime once the
    /// cluster ran dry.
    fn run(config: &ExchangeConfig, msgs: usize, hold: SimDuration) -> Arc<VerbsRuntime> {
        let (rt, exchange) = build(config);
        for (node, lanes) in exchange.send.iter().enumerate() {
            for ep in lanes {
                let (ep, dest) = (ep.clone(), config.groups[node].destinations());
                spawn(&rt, node, move |sim| {
                    for i in 1..=msgs {
                        let mut buf = ep.get_free(sim)?;
                        buf.push(&vec![0; buf.remaining()])?;
                        let state = match i == msgs {
                            true => StreamState::Depleted,
                            false => StreamState::MoreData,
                        };
                        ep.send(sim, buf, &dest, state)?;
                    }
                    Ok(())
                });
            }
        }
        for (node, lanes) in exchange.recv.iter().enumerate() {
            for ep in lanes {
                let ep = ep.clone();
                spawn(&rt, node, move |sim| {
                    while let Some(delivery) = ep.get_data(sim)? {
                        sim.sleep(hold);
                        ep.release(sim, delivery)?;
                    }
                    Ok(())
                });
            }
        }
        rt.cluster().run();
        rt
    }

    /// One MEMQ/SR lane from node 0 to node 1: node 0 sends, node 1 only
    /// receives, with credit written back at most every `frequency`
    /// releases.
    fn one_flow(frequency: u32) -> ExchangeConfig {
        let groups = vec![
            TransmissionGroups::new(vec![vec![1]]),
            TransmissionGroups::new(vec![]),
        ];
        let mut config = ExchangeConfig::with_groups(ShuffleAlgorithm::MEMQ_SR, 1, groups);
        config.message_size = 4096;
        config.credit_writeback_frequency = frequency;
        config
    }

    /// The credit write-backs that reached node 0 in a [`one_flow`] run of
    /// `msgs` messages: each lands as one passive work request on its NIC,
    /// beside the one work request per send.
    fn write_backs(frequency: u32, msgs: usize) -> u64 {
        let rt = run(&one_flow(frequency), msgs, SimDuration::ZERO);
        let work = rt
            .obs()
            .metrics
            .counter(names::NIC_WORK_REQUESTS, Labels::node(0));
        work.get() - msgs as u64
    }

    #[test]
    fn a_flow_that_never_runs_short_draws_no_write_back() {
        // Granted 16, a sender with at most its 2 buffers in flight is
        // short once 2 + 16 / 2 credits or fewer are left unspent: a flow
        // of 5 never gets there and costs no credit write-back at all,
        // where the old rule wrote one back every second release.
        assert_eq!(write_backs(2, 5), 0);
        // Past that point the write-backs come, and the flow completes.
        assert!(write_backs(2, 40) > 0);
    }

    #[test]
    fn a_source_blocked_at_its_grant_is_refilled_at_a_frequency_of_the_depth() {
        // Frequency 16 = `recv_depth_per_peer`, and a receiver slow enough
        // that the sender spends each grant whole and waits: the 16
        // releases after the last write-back make the next one due. No
        // `Stalled`, and every message arrives.
        let msgs = 5 * 16 + 3;
        let rt = run(&one_flow(16), msgs, SimDuration::from_micros(2));
        let received = rt.obs().metrics.counter_total(names::EP_MESSAGES_RECEIVED);
        assert_eq!(received, msgs as u64);
        assert!(rt.obs().metrics.counter_total(names::EP_CREDIT_STALLS) > 0);
    }

    /// Once source A's `Depleted` message has landed, releasing A's queued
    /// deliveries posts no receive and writes no credit back to A, while
    /// source B, still open, is credited: the RC twin of `sr_ud`'s test of
    /// the same name.
    #[test]
    fn a_declared_source_gets_no_more_credit() {
        // A (node 0) sends its whole bootstrap grant, the last message
        // `Depleted`; B (node 1) sends four more than its grant. Node 2
        // starts receiving once both grants have landed, and takes them in
        // one drain: A has declared, B has not. B's last four land while
        // node 2 releases the first 32, 5 µs apart, and wait in the CQ
        // until it is done.
        let to_2 = || TransmissionGroups::new(vec![vec![2]]);
        let groups = vec![to_2(), to_2(), TransmissionGroups::new(vec![])];
        let mut config = ExchangeConfig::with_groups(ShuffleAlgorithm::MEMQ_SR, 1, groups);
        config.message_size = 4096;
        let (rt, exchange) = build(&config);
        let depth = config.recv_depth_per_peer;
        for (node, msgs) in [(0, depth), (1, depth + 4)] {
            let ep = exchange.send[node][0].clone();
            spawn(&rt, node, move |sim| {
                for i in 1..=msgs {
                    let buf = ep.get_free(sim)?;
                    let state = match i == msgs {
                        true => StreamState::Depleted,
                        false => StreamState::MoreData,
                    };
                    ep.send(sim, buf, &[2], state)?;
                }
                Ok(())
            });
        }
        let ep = exchange.recv[2][0].clone();
        spawn(&rt, 2, move |sim| {
            sim.sleep(SimDuration::from_micros(100));
            while let Some(delivery) = ep.get_data(sim)? {
                sim.sleep(SimDuration::from_micros(5));
                ep.release(sim, delivery)?;
            }
            Ok(())
        });
        rt.cluster().run();
        let work = |node| {
            let counter = rt
                .obs()
                .metrics
                .counter(names::NIC_WORK_REQUESTS, Labels::node(node));
            counter.get() as usize
        };
        // Credit write-backs landed at A and at B, beside their sends.
        let (at_a, at_b) = (work(0) - depth, work(1) - depth - 4);
        assert_eq!(at_a, 0);
        assert!(at_b > 0);
        // Node 2 reposted a receive for each of B's first `depth` releases
        // and for none of A's or of B's last four.
        let tracks = rt.obs().recorder.dump();
        let records = tracks.iter().filter(|t| t.0 == 2).flat_map(|t| t.3.iter());
        let reposted = |r: &&Record| matches!(r, Record::Instant { kind, .. } if *kind == EventKind::RecvPosted);
        assert_eq!(records.filter(reposted).count(), depth);
    }

    /// `rows` 16-byte rows for each worker thread, in batches of 2048.
    struct Rows(Vec<Mutex<usize>>);

    impl Operator for Rows {
        fn next(&self, _sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
            let mut left = self.0[tid].lock();
            let take = (*left).min(2048);
            let mut batch = RowBatch::new(16, take);
            for row in *left - take..*left {
                batch.push_row(&(row as u128).to_le_bytes());
            }
            *left -= take;
            let state = match *left {
                0 => StreamState::Depleted,
                _ => StreamState::MoreData,
            };
            Ok((state, batch))
        }
    }

    #[test]
    fn a_deep_broadcast_pipeline_stalls_on_credit_no_more_than_before() {
        // Two threads broadcasting 16 KiB messages among 8 nodes through
        // the SHUFFLE and RECEIVE operators keep up to 14 sends in flight
        // toward each peer: the write-back must come early enough that
        // they wait for credit no more often than when it came every
        // second release, which was never. (A plain half-window rule,
        // unspent credit below 8, stalls them 196 times here.)
        let (nodes, threads) = (8, 2);
        let mut config = ExchangeConfig::broadcast(ShuffleAlgorithm::MEMQ_SR, nodes, threads);
        config.message_size = 16 << 10;
        let (rt, exchange) = build(&config);
        let cost = CostModel::from_profile(rt.profile());
        for node in 0..nodes {
            let rows = Arc::new(Rows((0..threads).map(|_| Mutex::new(1 << 15)).collect()));
            let (Some(shuffle), Some(receive)) = (
                exchange.shuffle_operator(node, rows, cost.clone()),
                exchange.receive_operator(node, 16, 2048, cost.clone()),
            ) else {
                panic!("node {node} both sends and receives in a broadcast");
            };
            let ops: [Arc<dyn Operator>; 2] = [Arc::new(shuffle), Arc::new(receive)];
            for (op, tid) in ops
                .iter()
                .flat_map(|op| (0..threads).map(move |tid| (op.clone(), tid)))
            {
                spawn(&rt, node, move |sim| {
                    while op.next(sim, tid)?.0 == StreamState::MoreData {}
                    Ok(())
                });
            }
        }
        rt.cluster().run();
        let stalls = rt.obs().metrics.counter_total(names::EP_CREDIT_STALLS);
        assert_eq!(stalls, 0, "credit stalls");
    }

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
