//! One-sided RDMA Write over the Reliable Connection service.
//!
//! This endpoint is the extension the paper's §7 lists as future work
//! ("we plan to implement an endpoint based on the RDMA Write primitive to
//! evaluate its performance"). It inverts the RDMA Read design of §4.4.3:
//! the **receiver** owns the data buffers and stays passive; the sender
//! pushes payloads directly into granted remote buffers with RDMA Write and
//! then announces them through the receiver's `ValidArr` ring. Buffer
//! grants flow back through a `FreeArr`-style ring at the sender.
//!
//! Compared to RDMA Read, the sender's *staging* buffer is reusable as soon
//! as its own write completes — no remote consumption round trip — but
//! every multicast destination costs a full extra data transmission, and
//! flow control stalls when a receiver is slow to re-grant buffers.

use parking_lot::Mutex;
use rshuffle_audit::{BufId, RingKind};
use rshuffle_simnet::{NodeId, SimContext};
use rshuffle_verbs::{Completion, Context, MemoryRegion, QueuePair, RemoteAddr};

use crate::buffer::{Buffer, MsgHeader, MsgKind, StreamState};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, expect_write_ack, region_base, Cq, Layout, RcHalf,
    RingProducer, SendWindow, SlotRings, SourceBook, INLINE_WR_BASE,
};
use crate::endpoint::{
    buf_id, Delivery, EndpointId, Params, RcTransport, ReceiveEndpoint, RecvObs, SendEndpoint,
    SendObs,
};
use crate::error::{Result, ShuffleError};

/// What either half pins toward `peers` peers: `buffers_per_peer` windows
/// per peer (staging buffers at the sender, the data buffers senders
/// write into at the receiver) and per peer one ring that holds a peer's
/// share of the buffers plus two slots of slack.
pub(crate) fn layout(cfg: &Params, peers: usize) -> Layout {
    Layout {
        window: cfg.message_size,
        buffers: cfg.buffers_per_peer * peers,
        rings: peers,
        ring_cap: cfg.buffers_per_peer + 2,
        inline_writes: true,
    }
}

/// SEND endpoint: pushes payloads into remote buffers with RDMA Write.
pub struct WrRcSendEndpoint {
    half: RcHalf,
    /// Acks of the data writes and of the ValidArr announcements.
    send_cq: Cq,
    /// Local staging buffers the operators fill.
    window: SendWindow,
    /// Grant rings: the receiver on peer `i` RDMA-Writes offsets of its
    /// free remote buffers into ring `i`.
    grants: SlotRings,
    /// The peers' `ValidArr` rings this endpoint announces writes into.
    valid_rings: RingProducer,
    /// Each peer's data pool, once wired.
    remote_pools: Mutex<Vec<Option<RemoteAddr>>>,
    obs: SendObs,
    cfg: Params,
}

impl WrRcSendEndpoint {
    /// Creates the endpoint with its staging pool, grant rings and per-peer
    /// QPs.
    pub(crate) fn new(ctx: &Context, id: EndpointId, peers: Vec<NodeId>, cfg: Params) -> Self {
        let layout = layout(&cfg, peers.len());
        let send_cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, peers, &send_cq, &send_cq);
        WrRcSendEndpoint {
            window: SendWindow::register(ctx, &layout),
            grants: SlotRings::register(ctx, RingKind::Grant, &layout),
            valid_rings: RingProducer::register(ctx, half.peers(), layout.ring_cap, false),
            remote_pools: Mutex::new(vec![None; half.peers()]),
            obs: SendObs::new(ctx, id),
            half,
            send_cq,
            cfg,
        }
    }

    /// Pops one granted remote buffer offset for peer `pi`, blocking while
    /// none is granted. Grant exhaustion is this transport's flow-control
    /// stall, bracketed like the SR credit stalls.
    fn take_grant(&self, sim: &SimContext, pi: usize) -> Result<u64> {
        self.cfg
            .watchdog(sim, "waiting for remote buffer grant")
            .wait(
                sim,
                Some(&self.obs),
                || self.grants.region().listen(),
                || {
                    let grant = self.grants.try_consume(sim, pi)?;
                    self.obs.freearr_poll(sim, grant.is_some());
                    Ok(grant)
                },
                |granted, abort, deadline| {
                    sim.wait_any(&[&granted, abort], Some(deadline));
                    Ok(())
                },
            )
    }
}

impl SendEndpoint for WrRcSendEndpoint {
    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        let header = data_header(self.half.id, self.cfg.epoch, &buf, state);
        self.window.launch(sim, &buf, dest.len())?;
        let (depleted, now) = (state == StreamState::Depleted, sim.now().as_nanos());
        (self.half.audit).ordered_send(self.window.region().rkey(), dest, depleted, now);
        for &d in dest {
            let pi = self.half.index_of(d)?;
            let pool = self.remote_pools.lock()[pi]
                .ok_or_else(|| ShuffleError::Config("receiver data pool not wired".into()))?;
            let remote_off = self.take_grant(sim, pi)?;
            // The receiver re-grants its own buffer; record its offset so
            // RELEASE can hand it back.
            buf.write_header(&MsgHeader {
                remote_addr: remote_off,
                ..header
            })?;
            // Push the payload into the granted remote buffer...
            let target = RemoteAddr {
                offset: remote_off as usize,
                ..pool
            };
            let guard = self.half.post_lock.lock(sim);
            self.half.qp(pi).post_write(
                sim,
                buf.offset() as u64,
                (buf.region().clone(), buf.offset()),
                target,
                buf.message_len(),
            )?;
            // ...then announce it through the ValidArr ring (ordered after
            // the data on the same reliable connection). The ring does not
            // coalesce: an announcement rides its data write's doorbell and
            // is acked only behind the data, so a queue behind it would wait.
            (self.valid_rings).announce(sim, &self.half, pi, remote_off, depleted)?;
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
            .watchdog(sim, "waiting for a free staging buffer")
            .wait(
                sim,
                None,
                || self.window.listen(),
                || Ok(self.window.take(sim)),
                |freed, abort, deadline| {
                    let reap = |c: &Completion| {
                        expect_success(c, "RDMA write failed")?;
                        // Ring announcements need no bookkeeping; a staging
                        // buffer is reusable once its own writes completed.
                        if c.wr_id >= INLINE_WR_BASE {
                            return Ok(());
                        }
                        self.window.complete(sim, c.wr_id)
                    };
                    self.send_cq
                        .drain(sim, deadline, &[&freed, abort], reap)
                        .map(drop)
                },
            )
    }
}

/// RECEIVE endpoint: passive target of RDMA Writes.
pub struct WrRcReceiveEndpoint {
    half: RcHalf,
    book: SourceBook,
    /// Acks of the grant writes.
    ctrl_cq: Cq,
    /// Data buffers remote senders write into; per-source partitions.
    pool_mr: MemoryRegion,
    /// `ValidArr`: per-source rings announcing filled buffers.
    valid_arr: SlotRings,
    /// The sources' grant rings this endpoint hands buffers back through.
    grant_rings: RingProducer,
    obs: RecvObs,
    cfg: Params,
}

impl WrRcReceiveEndpoint {
    /// Creates the endpoint: data pool, `ValidArr` and per-source QPs.
    pub(crate) fn new(ctx: &Context, id: EndpointId, srcs: Vec<NodeId>, cfg: Params) -> Self {
        let layout = layout(&cfg, srcs.len());
        let ctrl_cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, srcs, &ctrl_cq, &ctrl_cq);
        WrRcReceiveEndpoint {
            book: SourceBook::new(ctx, &cfg, half.peers()),
            pool_mr: ctx.register_pool_untimed(layout.window, layout.buffers),
            valid_arr: SlotRings::register(ctx, RingKind::ValidArr, &layout),
            grant_rings: RingProducer::register(ctx, half.peers(), layout.ring_cap, false),
            obs: RecvObs::new(ctx, id),
            half,
            ctrl_cq,
            cfg,
        }
    }

    /// Re-grants the (receiver-owned) buffer at `offset` to the sender
    /// behind source slot `si`.
    fn grant_back(&self, sim: &SimContext, si: usize, offset: u64) -> Result<()> {
        let id = BufId {
            rkey: self.pool_mr.rkey(),
            offset,
        };
        self.half.audit.released(id, sim.now().as_nanos());
        // The sender may overwrite the buffer from here on: what it holds
        // is dead, and its storage goes back to the runtime.
        self.pool_mr.discard(offset as usize, self.cfg.message_size);
        (self.grant_rings).announce(sim, &self.half, si, offset, false)?;
        // Keep the control CQ bounded, checking every grant-write ack
        // instead of swallowing them.
        if self.ctrl_cq.depth() > 16 {
            self.ctrl_cq
                .poll(sim, |c| expect_write_ack(c, "buffer grant write failed"))?;
        }
        Ok(())
    }

    /// Scans the `ValidArr` rings for an announced buffer.
    fn scan_valid_arr(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        for si in 0..self.half.peers() {
            let Some(offset) = self.valid_arr.try_consume(sim, si)? else {
                continue;
            };
            self.obs.validarr_poll(sim, 1);
            let buf =
                Buffer::try_new(self.pool_mr.clone(), offset as usize, self.cfg.message_size)?;
            let header = buf.read_header()?;
            if header.kind != MsgKind::Data {
                return Err(ShuffleError::Corrupt(
                    "ValidArr announced a buffer without a data header".into(),
                ));
            }
            if header.epoch != self.cfg.epoch {
                // Leftover announcement from a fenced-off attempt:
                // re-grant the buffer to its sender without handing it
                // to the operator. `grant_back` audits a release, so
                // record the matching delivery to keep the ledger
                // balanced.
                self.obs.stale_drop();
                self.half
                    .audit
                    .delivered(buf_id(&buf), sim.now().as_nanos());
                self.grant_back(sim, si, offset)?;
                continue;
            }
            if header.state == StreamState::Depleted {
                self.book.declare(sim.now().as_nanos(), si);
            }
            let src = self.half.peer(si);
            return deliver(sim, &self.obs, &self.half.audit, &header, buf, src, offset).map(Some);
        }
        self.obs.validarr_poll(sim, 0);
        Ok(None)
    }
}

impl RcTransport for WrRcSendEndpoint {
    type Receiver = WrRcReceiveEndpoint;

    fn qp_pair<'a>(
        &'a self,
        peer: NodeId,
        recv: &'a WrRcReceiveEndpoint,
        src: NodeId,
    ) -> (&'a QueuePair, &'a QueuePair) {
        (self.half.qp_for(peer), recv.half.qp_for(src))
    }

    /// The receiver learns its ring among the sender's grant rings and
    /// grants its share of the data pool; the sender learns the data pool,
    /// its ring in the receiver's `ValidArr` and those initial grants.
    fn handshake(&self, peer: NodeId, recv: &WrRcReceiveEndpoint, src: NodeId) -> Result<()> {
        let (pi, si) = (self.half.index_of(peer)?, recv.half.index_of(src)?);
        assert_eq!(
            self.grants.cap(),
            recv.valid_arr.cap(),
            "ring capacities must agree"
        );
        let share = recv.cfg.buffers_per_peer;
        let initial: Vec<u64> = (si * share..(si + 1) * share)
            .map(|k| (k * recv.cfg.message_size) as u64)
            .collect();
        recv.grant_rings
            .wire(si, self.grants.base(pi), initial.len() as u64);
        self.valid_rings.wire(pi, recv.valid_arr.base(si), 0);
        self.remote_pools.lock()[pi] = Some(region_base(&recv.pool_mr));
        self.grants.seed(pi, &initial)
    }
}

impl ReceiveEndpoint for WrRcReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        self.cfg.watchdog(sim, "WR receive made no progress").wait(
            sim,
            None,
            || self.valid_arr.region().listen(),
            || {
                if let Some(d) = self.scan_valid_arr(sim)? {
                    return Ok(Some(Some(d)));
                }
                let done = self.book.all_declared() && self.valid_arr.all_empty()?;
                Ok(done.then_some(None))
            },
            |announced, abort, deadline| {
                sim.wait_any(&[&announced, abort], Some(deadline));
                Ok(())
            },
        )
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        let si = self.half.index_of(delivery.src)?;
        #[cfg(feature = "saboteur")]
        if crate::sabotage::take(crate::sabotage::Sabotage::DoubleGrant) {
            self.grant_back(sim, si, delivery.remote)?;
        }
        self.grant_back(sim, si, delivery.remote)
    }

    fn bytes_received(&self) -> u64 {
        self.obs.bytes_received()
    }
}
