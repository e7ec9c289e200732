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
use rshuffle_verbs::{Context, MemoryRegion, QueuePair, RemoteAddr};

use crate::buffer::{Buffer, MsgHeader, MsgKind, StreamState};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, expect_write_ack, region_base, Cq, Layout, RcHalf,
    RingProducer, SendWindow, SlotRings, Sources, Watchdog, INLINE_WR_BASE, POLL_INTERVAL,
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
        let half = RcHalf::new(ctx, id, &peers, &send_cq, &send_cq, &layout);
        WrRcSendEndpoint {
            window: SendWindow::register(ctx, &layout),
            grants: SlotRings::register(ctx, RingKind::Grant, &layout),
            valid_rings: RingProducer::register(ctx, peers.len(), layout.ring_cap),
            remote_pools: Mutex::new(vec![None; peers.len()]),
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
        let mut drained = false;
        Watchdog::fixed(
            sim,
            self.cfg.stall_timeout,
            POLL_INTERVAL * 32,
            "waiting for remote buffer grant",
        )
        .wait(
            sim,
            Some(&self.obs),
            || {
                let grant = self.grants.try_consume(sim, pi)?;
                self.obs.freearr_poll(sim, grant.is_some());
                Ok(grant)
            },
            |slice| {
                // Clear stale wake tokens and re-check once before every
                // sleep.
                if drained {
                    self.grants.region().wait_update_timeout(sim, slice);
                } else {
                    self.grants.region().drain_updates();
                }
                drained = !drained;
                Ok(false)
            },
        )
    }
}

impl SendEndpoint for WrRcSendEndpoint {
    fn id(&self) -> EndpointId {
        self.half.id
    }

    fn send(
        &self,
        sim: &SimContext,
        buf: Buffer,
        dest: &[NodeId],
        state: StreamState,
    ) -> Result<()> {
        assert!(!dest.is_empty(), "send needs at least one destination");
        let header = data_header(self.half.id, self.cfg.epoch, &buf, state);
        self.window.launch(sim, &buf, dest.len());
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
            let guard = self.half.lock_post(sim);
            self.half.qp(pi).post_write(
                sim,
                buf.offset() as u64,
                (buf.region().clone(), buf.offset()),
                target,
                buf.message_len(),
            )?;
            // ...then announce it through the ValidArr ring (ordered after
            // the data on the same reliable connection).
            let slot = self.valid_rings.claim(sim, pi)?;
            self.valid_rings
                .publish(sim, self.half.qp(pi), slot, remote_off)?;
            drop(guard);
            self.obs.sent(d, buf.len() as u64);
        }
        Ok(())
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        Watchdog::backoff(
            sim,
            self.cfg.stall_timeout,
            POLL_INTERVAL * 8,
            "waiting for a free staging buffer",
        )
        .wait(
            sim,
            None,
            || Ok(self.window.take(sim)),
            |slice| {
                self.send_cq.drain(sim, slice, |c| {
                    expect_success(c, "RDMA write failed")?;
                    // Ring announcements need no bookkeeping; a staging
                    // buffer is reusable once its own writes completed.
                    if c.wr_id >= INLINE_WR_BASE {
                        return Ok(());
                    }
                    self.window.complete(sim, c.wr_id)
                })
            },
        )
    }

    fn registered_bytes(&self) -> usize {
        self.half.registered_bytes()
    }

    fn charge_setup(&self, sim: &SimContext) {
        self.half.charge_setup(sim);
    }
}

/// RECEIVE endpoint: passive target of RDMA Writes.
pub struct WrRcReceiveEndpoint {
    half: RcHalf,
    srcs: Sources,
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
        let half = RcHalf::new(ctx, id, &srcs, &ctrl_cq, &ctrl_cq, &layout);
        WrRcReceiveEndpoint {
            srcs: Sources::new(srcs.len()),
            pool_mr: ctx.register_pool_untimed(layout.window, layout.buffers),
            valid_arr: SlotRings::register(ctx, RingKind::ValidArr, &layout),
            grant_rings: RingProducer::register(ctx, srcs.len(), layout.ring_cap),
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
        let slot = self.grant_rings.claim(sim, si)?;
        self.grant_rings
            .publish(sim, self.half.qp(si), slot, offset)?;
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
            self.srcs.learn(header.src, si);
            if header.state == StreamState::Depleted {
                self.srcs.mark_depleted(si);
            }
            return deliver(sim, &self.obs, &self.half.audit, &header, buf, offset).map(Some);
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
        recv.grant_rings.wire(
            si,
            RingKind::Grant,
            self.grants.base(pi),
            initial.len() as u64,
        );
        self.valid_rings
            .wire(pi, RingKind::ValidArr, recv.valid_arr.base(si), 0);
        self.remote_pools.lock()[pi] = Some(region_base(&recv.pool_mr));
        self.grants.seed(pi, &initial)
    }
}

impl ReceiveEndpoint for WrRcReceiveEndpoint {
    fn id(&self) -> EndpointId {
        self.half.id
    }

    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        Watchdog::fixed(
            sim,
            self.cfg.stall_timeout,
            POLL_INTERVAL * 32,
            "WR receive made no progress",
        )
        .wait(
            sim,
            None,
            || {
                if let Some(d) = self.scan_valid_arr(sim)? {
                    return Ok(Some(Some(d)));
                }
                let done = self.srcs.all_depleted() && self.valid_arr.all_empty()?;
                Ok(done.then_some(None))
            },
            |slice| {
                self.valid_arr.region().drain_updates();
                self.valid_arr.region().wait_update_timeout(sim, slice);
                Ok(false)
            },
        )
    }

    fn release(
        &self,
        sim: &SimContext,
        remote: u64,
        _local: Buffer,
        src: EndpointId,
    ) -> Result<()> {
        let si = self.srcs.slot_of(src)?;
        #[cfg(feature = "saboteur")]
        if crate::sabotage::take(crate::sabotage::Sabotage::DoubleGrant) {
            self.grant_back(sim, si, remote)?;
        }
        self.grant_back(sim, si, remote)
    }

    fn bytes_received(&self) -> u64 {
        self.obs.bytes_received()
    }

    fn registered_bytes(&self) -> usize {
        self.half.registered_bytes()
    }

    fn charge_setup(&self, sim: &SimContext) {
        self.half.charge_setup(sim);
    }
}
