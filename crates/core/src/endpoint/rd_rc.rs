//! One-sided RDMA Read over the Reliable Connection service (§4.4.3,
//! Algorithm 3).
//!
//! The data sender stays completely **passive**: it fills registered
//! buffers and announces them by RDMA-Writing the buffer address into the
//! receiver's `ValidArr` circular queue. The receiver pulls the data with
//! RDMA Read into a local buffer from its `LocalArr` stack, and returns the
//! remote buffer by RDMA-Writing its address into the sender's `FreeArr`
//! circular queue. Both queues live in registered memory and are polled —
//! no two-sided operation is ever used for data.
//!
//! Buffer-reuse rule (the broadcast pitfall of §5.1.3): a buffer sent to a
//! transmission group of `k` nodes is reusable only after **all** `k`
//! receivers have pushed it through their `FreeArr`; a single slow receiver
//! therefore starves the sender of free buffers, which is exactly why the
//! MQ/RD designs degrade in the broadcast pattern.

use std::collections::VecDeque;

use parking_lot::Mutex;
use rshuffle_audit::RingKind;
use rshuffle_simnet::{NodeId, SimContext};
use rshuffle_verbs::{Completion, Context, MemoryRegion, QueuePair, RemoteAddr, WcOpcode};

use crate::buffer::{Buffer, StreamState};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, expect_write_ack, region_base, Cq, Layout, RcHalf,
    RingProducer, SendWindow, SlotRings, Sources, Watchdog, POLL_INTERVAL,
};
use crate::endpoint::{
    buf_id, Delivery, EndpointId, Params, RcTransport, ReceiveEndpoint, RecvObs, SendEndpoint,
    SendObs,
};
use crate::error::{Result, ShuffleError};

/// What either half pins toward `peers` peers: a pool of
/// `buffers_per_peer` windows per peer, and per peer one ring that can
/// hold every buffer of the pool (a broadcast may put all of them in
/// front of one peer) plus two slots of slack.
pub(crate) fn layout(cfg: &Params, peers: usize) -> Layout {
    let buffers = cfg.buffers_per_peer * peers;
    Layout {
        window: cfg.message_size,
        buffers,
        rings: peers,
        ring_cap: buffers + 2,
        inline_writes: true,
    }
}

/// SEND endpoint: passive one-sided source (Algorithm 3, SEND/GETFREE).
pub struct RdRcSendEndpoint {
    half: RcHalf,
    /// Acks of the ValidArr announcement writes.
    send_cq: Cq,
    /// Registered data buffers remote receivers read from.
    window: SendWindow,
    /// `FreeArr`: one ring per peer, written remotely with the addresses
    /// of buffers that peer is done reading.
    free_arr: SlotRings,
    /// The peers' `ValidArr` rings this endpoint announces buffers into.
    valid_rings: RingProducer,
    obs: SendObs,
    cfg: Params,
}

impl RdRcSendEndpoint {
    /// Creates the endpoint: data pool, `FreeArr` rings and one QP per
    /// peer.
    pub(crate) fn new(ctx: &Context, id: EndpointId, peers: Vec<NodeId>, cfg: Params) -> Self {
        let layout = layout(&cfg, peers.len());
        let send_cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, peers, &send_cq, &send_cq);
        RdRcSendEndpoint {
            window: SendWindow::register(ctx, &layout),
            free_arr: SlotRings::register(ctx, RingKind::FreeArr, &layout),
            valid_rings: RingProducer::register(ctx, half.peers(), layout.ring_cap),
            obs: SendObs::new(ctx, id),
            half,
            send_cq,
            cfg,
        }
    }

    /// Scans the `FreeArr` rings for release notifications; a buffer is
    /// recycled once every reader has released it. Returns whether any
    /// notification was consumed.
    fn scan_free_arr(&self, sim: &SimContext) -> Result<bool> {
        let mut progress = false;
        for pi in 0..self.half.peers() {
            while let Some(offset) = self.free_arr.try_consume(sim, pi)? {
                progress = true;
                self.window.complete(sim, offset)?;
            }
        }
        self.obs.freearr_poll(sim, progress);
        Ok(progress)
    }
}

impl SendEndpoint for RdRcSendEndpoint {
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
            let slot = self.valid_rings.claim(sim, pi)?;
            #[cfg(feature = "saboteur")]
            if crate::sabotage::take(crate::sabotage::Sabotage::DropValidArrUpdate) {
                // The buffer stays marked outstanding but its announcement
                // never reaches the peer's ValidArr.
                self.obs.sent(d, buf.len() as u64);
                continue;
            }
            let guard = self.half.lock_post(sim);
            self.valid_rings
                .publish(sim, self.half.qp(pi), slot, buf.offset() as u64)?;
            drop(guard);
            self.obs.sent(d, buf.len() as u64);
        }
        // Keep the write-completion queue bounded, checking every ack.
        if self.send_cq.depth() > 16 {
            self.send_cq.poll(sim, |c| {
                expect_write_ack(c, "ValidArr announcement write failed")
            })?;
        }
        Ok(())
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        Watchdog::fixed(
            sim,
            self.cfg.stall_timeout,
            POLL_INTERVAL * 32,
            "waiting for FreeArr notifications",
        )
        .wait(
            sim,
            None,
            || loop {
                if let Some(buf) = self.window.take(sim) {
                    return Ok(Some(buf));
                }
                if !self.scan_free_arr(sim)? {
                    return Ok(None);
                }
            },
            |slice| {
                // Sleep until the next release lands in the FreeArr (early
                // wake), re-scanning on a bounded slice as a safety net.
                self.free_arr.region().drain_updates();
                if self.scan_free_arr(sim)? {
                    return Ok(true);
                }
                self.free_arr.region().wait_update_timeout(sim, slice);
                Ok(false)
            },
        )
    }
}

/// RECEIVE endpoint: active one-sided reader (Algorithm 3,
/// GETDATA/RELEASE).
pub struct RdRcReceiveEndpoint {
    half: RcHalf,
    srcs: Sources,
    /// Read completions and acks of the FreeArr release writes.
    cq: Cq,
    /// Deliveries decoded from a batched CQ drain, waiting for a
    /// `get_data` caller.
    pending: Mutex<VecDeque<Delivery>>,
    /// `ValidArr`: one ring per source, written remotely with full-buffer
    /// addresses.
    valid_arr: SlotRings,
    /// Local destination buffers for RDMA Reads.
    pool_mr: MemoryRegion,
    /// The sources' `FreeArr` rings this endpoint returns buffers through.
    free_rings: RingProducer,
    state: Mutex<RecvState>,
    obs: RecvObs,
    cfg: Params,
}

struct RecvState {
    /// Each source's data pool, once wired.
    remote_pools: Vec<Option<RemoteAddr>>,
    /// `LocalArr`: unused local buffers per source.
    local: Vec<Vec<Buffer>>,
    /// In-flight RDMA Reads per source.
    in_flight: Vec<u32>,
}

impl RdRcReceiveEndpoint {
    /// Creates the endpoint: `ValidArr`, local read buffers and one QP per
    /// source.
    pub(crate) fn new(ctx: &Context, id: EndpointId, srcs: Vec<NodeId>, cfg: Params) -> Self {
        let n = srcs.len();
        let layout = layout(&cfg, n);
        let cq = Cq::new(ctx);
        let half = RcHalf::new(ctx, id, srcs, &cq, &cq);
        let pool_mr = ctx.register_pool_untimed(layout.window, layout.buffers);
        let local = (0..n)
            .map(|si| {
                (0..cfg.buffers_per_peer)
                    .map(|k| {
                        let slot = si * cfg.buffers_per_peer + k;
                        Buffer::new(pool_mr.clone(), slot * layout.window, layout.window)
                    })
                    .collect()
            })
            .collect();
        RdRcReceiveEndpoint {
            srcs: Sources::new(n),
            pending: Mutex::new(VecDeque::new()),
            valid_arr: SlotRings::register(ctx, RingKind::ValidArr, &layout),
            pool_mr,
            free_rings: RingProducer::register(ctx, n, layout.ring_cap),
            state: Mutex::new(RecvState {
                remote_pools: vec![None; n],
                local,
                in_flight: vec![0; n],
            }),
            obs: RecvObs::new(ctx, id),
            half,
            cq,
            cfg,
        }
    }

    /// Issues RDMA Reads for every announced buffer that has a local buffer
    /// available (Algorithm 3, GETDATA lines 19–24).
    fn issue_reads(&self, sim: &SimContext) -> Result<()> {
        let mut issued = 0u64;
        for si in 0..self.half.peers() {
            loop {
                let (remote, local_buf) = {
                    let mut st = self.state.lock();
                    let Some(pool) = st.remote_pools[si] else {
                        break;
                    };
                    let Some(local_buf) = st.local[si].pop() else {
                        break;
                    };
                    let Some(remote_off) = self.valid_arr.try_consume(sim, si)? else {
                        st.local[si].push(local_buf);
                        break;
                    };
                    st.in_flight[si] += 1;
                    let remote = RemoteAddr {
                        offset: remote_off as usize,
                        ..pool
                    };
                    (remote, local_buf)
                };
                let wr_id = ((si as u64) << 32) | local_buf.offset() as u64;
                let guard = self.half.lock_post(sim);
                self.half.qp(si).post_read(
                    sim,
                    wr_id,
                    (self.pool_mr.clone(), local_buf.offset()),
                    remote,
                    self.cfg.message_size,
                )?;
                drop(guard);
                issued += 1;
            }
        }
        self.obs.validarr_poll(sim, issued);
        Ok(())
    }

    /// RDMA-Writes `remote` into source `si`'s `FreeArr` ring — the
    /// shared tail of [`ReceiveEndpoint::release`] and the stale-epoch
    /// drop path (which returns the remote buffer without delivering).
    fn push_free(&self, sim: &SimContext, si: usize, remote: u64) -> Result<()> {
        let slot = self.free_rings.claim(sim, si)?;
        let guard = self.half.lock_post(sim);
        self.free_rings
            .publish(sim, self.half.qp(si), slot, remote)?;
        drop(guard);
        Ok(())
    }

    /// Returns `buf` to source `si`'s `LocalArr`. What it holds was
    /// consumed (or fenced off), so its storage goes back to the runtime
    /// until the next read lands in it.
    fn requeue_local(&self, si: usize, buf: Buffer) {
        buf.region().discard(buf.offset(), buf.window());
        self.state.lock().local[si].push(buf);
    }

    /// Decodes one completion: FreeArr write acks are checked and skipped,
    /// stale-epoch reads recycled, live reads queued as pending deliveries.
    fn on_completion(&self, sim: &SimContext, c: &Completion) -> Result<()> {
        expect_success(c, "RDMA read failed")?;
        match c.opcode {
            WcOpcode::Write => return Ok(()), // FreeArr release ack.
            WcOpcode::Read => {}
            _ => {
                return Err(ShuffleError::CompletionError(
                    "unexpected completion opcode on RD endpoint",
                ))
            }
        }
        let si = (c.wr_id >> 32) as usize;
        if si >= self.half.peers() {
            return Err(ShuffleError::Corrupt(format!(
                "read completion names out-of-range source slot {si}"
            )));
        }
        let local_off = (c.wr_id & 0xFFFF_FFFF) as usize;
        let buf = Buffer::try_new(self.pool_mr.clone(), local_off, self.cfg.message_size)?;
        let header = buf.read_header()?;
        {
            let mut st = self.state.lock();
            st.in_flight[si] =
                st.in_flight[si]
                    .checked_sub(1)
                    .ok_or(ShuffleError::CompletionError(
                        "more read completions than reads posted",
                    ))?;
        }
        if header.epoch != self.cfg.epoch {
            // Leftover announcement from a fenced-off attempt:
            // hand the remote buffer straight back through the
            // FreeArr and requeue the local one, no delivery.
            self.obs.stale_drop();
            self.push_free(sim, si, header.remote_addr)?;
            self.requeue_local(si, buf);
            return Ok(());
        }
        let (src, remote) = (c.src_node, header.remote_addr);
        let delivery = deliver(sim, &self.obs, &self.half.audit, &header, buf, src, remote)?;
        if header.state == StreamState::Depleted {
            self.srcs.mark_depleted(si);
        }
        self.pending.lock().push_back(delivery);
        Ok(())
    }

    fn fully_done(&self) -> Result<bool> {
        let reads_landed = self.state.lock().in_flight.iter().all(|&n| n == 0);
        Ok(self.srcs.all_depleted() && reads_landed && self.valid_arr.all_empty()?)
    }
}

impl RcTransport for RdRcSendEndpoint {
    type Receiver = RdRcReceiveEndpoint;

    fn qp_pair<'a>(
        &'a self,
        peer: NodeId,
        recv: &'a RdRcReceiveEndpoint,
        src: NodeId,
    ) -> (&'a QueuePair, &'a QueuePair) {
        (self.half.qp_for(peer), recv.half.qp_for(src))
    }

    /// The receiver learns the sender's data pool and its ring in the
    /// sender's `FreeArr`; the sender learns its ring in the receiver's
    /// `ValidArr`.
    fn handshake(&self, peer: NodeId, recv: &RdRcReceiveEndpoint, src: NodeId) -> Result<()> {
        let (pi, si) = (self.half.index_of(peer)?, recv.half.index_of(src)?);
        assert_eq!(
            self.free_arr.cap(),
            recv.valid_arr.cap(),
            "FreeArr/ValidArr ring capacities must agree"
        );
        recv.free_rings.wire(si, self.free_arr.base(pi), 0);
        recv.state.lock().remote_pools[si] = Some(region_base(self.window.region()));
        self.valid_rings.wire(pi, recv.valid_arr.base(si), 0);
        Ok(())
    }
}

impl ReceiveEndpoint for RdRcReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        let mut watchdog = Watchdog::fixed(
            sim,
            self.cfg.stall_timeout,
            POLL_INTERVAL * 32,
            "RD receive made no progress",
        );
        loop {
            if let Some(d) = self.pending.lock().pop_front() {
                return Ok(Some(d));
            }
            self.issue_reads(sim)?;
            // With reads in flight, the completion queue wakes us early; if
            // the pipeline is empty, wait for the next ValidArr
            // announcement instead so issue latency stays flat.
            let in_flight: u32 = self.state.lock().in_flight.iter().sum();
            if in_flight == 0 && self.cq.depth() == 0 {
                if self.fully_done()? {
                    return Ok(None);
                }
                watchdog.expired(sim)?;
                self.valid_arr.region().drain_updates();
                if self.valid_arr.all_empty()? {
                    self.valid_arr
                        .region()
                        .wait_update_timeout(sim, watchdog.slice());
                }
                continue;
            }
            let slice = POLL_INTERVAL * 64;
            if !self.cq.drain(sim, slice, |c| self.on_completion(sim, c))? {
                if self.fully_done()? {
                    return Ok(None);
                }
                watchdog.expired(sim)?;
            }
        }
    }

    fn release(&self, sim: &SimContext, delivery: Delivery) -> Result<()> {
        let si = self.half.index_of(delivery.src)?;
        self.half
            .audit
            .released(buf_id(&delivery.local), sim.now().as_nanos());
        self.push_free(sim, si, delivery.remote)?;
        self.requeue_local(si, delivery.local);
        Ok(())
    }

    fn bytes_received(&self) -> u64 {
        self.obs.bytes_received()
    }
}
