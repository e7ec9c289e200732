//! One-sided RDMA Read over the Reliable Connection service (§4.4.3,
//! Algorithm 3).
//!
//! The data sender stays completely **passive**: it fills registered
//! buffers and announces them by RDMA-Writing the buffer's window and the
//! message's length into the receiver's `ValidArr` circular queue. The
//! receiver pulls exactly the message's bytes with RDMA Read into a local
//! buffer from its `LocalArr` stack, and returns the remote buffer by
//! RDMA-Writing its address into the sender's `FreeArr` circular queue. Both queues live in registered memory and are polled —
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
use rshuffle_simnet::{NodeId, Notify, SimContext, Waitable};
use rshuffle_verbs::{Completion, Context, MemoryRegion, QueuePair, RemoteAddr, WcOpcode};

use crate::buffer::{Buffer, StreamState, HEADER_LEN};
use crate::endpoint::frame::{
    data_header, deliver, expect_success, expect_write_ack, region_base, state_notify, Cq, Layout,
    RcHalf, RingProducer, SendWindow, SlotRings, SourceBook,
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

/// A `ValidArr` announcement, one ring slot's `u64`: the window of the
/// source's pool that holds a message in the high half, the message's wire
/// length ([`Buffer::message_len`]: header plus payload) in the low half.
/// The receiver's RDMA Read moves that many bytes, not the whole window.
/// An RC message is at most `MAX_RC_MESSAGE` (1 GiB), so a window index
/// and a length each fit 32 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Announcement {
    window: u32,
    len: u32,
}

impl Announcement {
    /// What announces `buf`, header written, from its sender's pool.
    fn of(buf: &Buffer) -> Announcement {
        Announcement {
            window: (buf.offset() / buf.window()) as u32,
            len: buf.message_len() as u32,
        }
    }

    fn encode(self) -> u64 {
        u64::from(self.window) << 32 | u64::from(self.len)
    }

    fn decode(value: u64) -> Announcement {
        Announcement {
            window: (value >> 32) as u32,
            len: value as u32,
        }
    }
}

/// A source's data pool as its receiver learned it in the handshake.
#[derive(Clone, Copy)]
struct RemotePool {
    base: RemoteAddr,
    /// How many windows of `Params::message_size` bytes it holds.
    windows: usize,
}

impl RemotePool {
    /// Where the message an announcement `value` names lies, and its
    /// length. The value comes off the wire: one that names no window of
    /// the pool, or a length outside `[HEADER_LEN, window]`, is corrupt.
    fn locate(&self, value: u64, window: usize) -> Result<(RemoteAddr, usize)> {
        let Announcement { window: w, len } = Announcement::decode(value);
        let (w, len) = (w as usize, len as usize);
        if w >= self.windows || !(HEADER_LEN..=window).contains(&len) {
            return Err(ShuffleError::Corrupt(format!(
                "ValidArr announcement {value:#x} names no message in {} windows of {window} bytes",
                self.windows
            )));
        }
        let offset = w * window;
        Ok((
            RemoteAddr {
                offset,
                ..self.base
            },
            len,
        ))
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
            valid_rings: RingProducer::register(ctx, half.peers(), layout.ring_cap, true),
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
        buf.write_header(&data_header(self.half.id, self.cfg.epoch, &buf, state))?;
        self.window.launch(sim, &buf, dest.len())?;
        let (depleted, now) = (state == StreamState::Depleted, sim.now().as_nanos());
        (self.half.audit).ordered_send(self.window.region().rkey(), dest, depleted, now);
        let announcement = Announcement::of(&buf).encode();
        for &d in dest {
            let pi = self.half.index_of(d)?;
            (self.valid_rings).announce(sim, &self.half, pi, announcement, depleted)?;
            self.obs.sent(d, buf.len() as u64);
        }
        // Reap the announcement acks, checking each, when one may send
        // what this thread queued behind its write, or to keep the queue
        // bounded.
        let depth = self.send_cq.depth();
        if depth > 16 || depth > 0 && self.valid_rings.waiting(sim) {
            self.send_cq.poll(sim, |c| {
                expect_write_ack(c, "ValidArr announcement write failed")?;
                self.valid_rings.acked(sim, &self.half, c.wr_id)
            })?;
        }
        Ok(())
    }

    fn ordered(&self) -> bool {
        true
    }

    fn get_free(&self, sim: &SimContext) -> Result<Buffer> {
        // Only a release landing in the FreeArr frees a buffer, and it
        // wakes every waiter; whoever scans first recycles for all.
        self.cfg
            .watchdog(sim, "waiting for FreeArr notifications")
            .wait(
                sim,
                None,
                || self.free_arr.region().listen(),
                || loop {
                    if let Some(buf) = self.window.take(sim) {
                        return Ok(Some(buf));
                    }
                    if !self.scan_free_arr(sim)? {
                        return Ok(None);
                    }
                },
                |released, abort, deadline| {
                    // Only announced buffers come back.
                    self.valid_rings.flush_mine(sim, &self.half, None)?;
                    sim.wait_any(&[&released, abort], Some(deadline));
                    Ok(())
                },
            )
    }

    fn quiesce(&self, sim: &SimContext, dest: NodeId) -> Result<()> {
        let pi = self.half.index_of(dest)?;
        self.valid_rings.flush_mine(sim, &self.half, Some(pi))
    }
}

/// RECEIVE endpoint: active one-sided reader (Algorithm 3,
/// GETDATA/RELEASE).
pub struct RdRcReceiveEndpoint {
    half: RcHalf,
    book: SourceBook,
    /// Read completions and acks of the FreeArr release writes.
    cq: Cq,
    /// Deliveries decoded from a batched CQ drain, waiting for a
    /// `get_data` caller.
    pending: Mutex<VecDeque<Delivery>>,
    /// Notified whenever a delivery joins `pending` or a local buffer is
    /// returned, so callers blocked while another caller drained the CQ
    /// or held the buffers hear of it.
    changed: Notify,
    /// `ValidArr`: one ring per source, written remotely with
    /// [`Announcement`]s of full buffers.
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
    remote_pools: Vec<Option<RemotePool>>,
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
            book: SourceBook::new(ctx, &cfg, n),
            pending: Mutex::new(VecDeque::new()),
            changed: state_notify(ctx),
            valid_arr: SlotRings::register(ctx, RingKind::ValidArr, &layout),
            pool_mr,
            free_rings: RingProducer::register(ctx, n, layout.ring_cap, false),
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
                let (remote, len, local_buf) = {
                    let mut st = self.state.lock();
                    let Some(pool) = st.remote_pools[si] else {
                        break;
                    };
                    let Some(local_buf) = st.local[si].pop() else {
                        break;
                    };
                    let Some(value) = self.valid_arr.try_consume(sim, si)? else {
                        st.local[si].push(local_buf);
                        break;
                    };
                    let (remote, len) = pool.locate(value, self.cfg.message_size)?;
                    st.in_flight[si] += 1;
                    (remote, len, local_buf)
                };
                let wr_id = ((si as u64) << 32) | local_buf.offset() as u64;
                let guard = self.half.post_lock.lock(sim);
                self.half.qp(si).post_read(
                    sim,
                    wr_id,
                    (self.pool_mr.clone(), local_buf.offset()),
                    remote,
                    len,
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
        let _posting = self.half.post_lock.lock(sim);
        self.free_rings.announce(sim, &self.half, si, remote, false)
    }

    /// Returns `buf` to source `si`'s `LocalArr`. What it holds was
    /// consumed (or fenced off), so its storage goes back to the runtime
    /// until the next read lands in it.
    fn requeue_local(&self, si: usize, buf: Buffer) {
        buf.region().discard(buf.offset(), buf.window());
        self.state.lock().local[si].push(buf);
        self.changed.notify();
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
        // The read moved the announced length; the header must agree.
        if HEADER_LEN + header.payload_len as usize != c.byte_len {
            return Err(ShuffleError::Corrupt(format!(
                "a {}-byte read holds a {}-byte payload",
                c.byte_len, header.payload_len
            )));
        }
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
            self.book.declare(sim.now().as_nanos(), si);
        }
        self.pending.lock().push_back(delivery);
        self.changed.notify();
        Ok(())
    }

    fn fully_done(&self) -> Result<bool> {
        let reads_landed = self.state.lock().in_flight.iter().all(|&n| n == 0);
        Ok(self.book.all_declared() && reads_landed && self.valid_arr.all_empty()?)
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
        let pool = self.window.region();
        recv.state.lock().remote_pools[si] = Some(RemotePool {
            base: region_base(pool),
            windows: pool.len() / self.cfg.message_size,
        });
        self.valid_rings.wire(pi, recv.valid_arr.base(si), 0);
        Ok(())
    }
}

impl ReceiveEndpoint for RdRcReceiveEndpoint {
    fn get_data(&self, sim: &SimContext) -> Result<Option<Delivery>> {
        let watchdog = self.cfg.watchdog(sim, "RD receive made no progress");
        loop {
            watchdog.aborted()?;
            let (announced, changed) = (self.valid_arr.region().listen(), self.changed.listen());
            if let Some(d) = self.pending.lock().pop_front() {
                return Ok(Some(d));
            }
            self.issue_reads(sim)?;
            let (in_flight, can_read) = {
                let st = self.state.lock();
                let free = st.local.iter().any(|local| !local.is_empty());
                (st.in_flight.iter().sum::<u32>(), free)
            };
            let decode = |c: &Completion| self.on_completion(sim, c);
            if in_flight == 0 && self.cq.depth() > 0 {
                // Only release-write acks are queued, and no completion
                // is owed: take them without waiting for more.
                self.cq.poll(sim, decode)?;
                continue;
            }
            if in_flight == 0 && self.fully_done()? {
                return Ok(None);
            }
            watchdog.expired(sim)?;
            // A ValidArr announcement gets its read issued as it lands,
            // reads in flight or not, if a local buffer can take it; with
            // no read in flight, no CQ poll is paid for.
            let deadline = watchdog.deadline();
            let sources: [&dyn Waitable; 3] = [&announced, &changed, watchdog.abort_source()];
            if in_flight == 0 {
                sim.wait_any(&sources, Some(deadline));
            } else {
                let also = if can_read {
                    &sources[..]
                } else {
                    &sources[1..]
                };
                self.cq.drain(sim, deadline, also, decode)?;
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rshuffle_obs::{EventKind, Record};
    use rshuffle_simnet::{DeviceProfile, SimDuration};
    use rshuffle_verbs::{ConnectionManager, VerbsRuntime};

    use super::*;
    use crate::endpoint::frame::data_header;
    use crate::{Exchange, ExchangeConfig, ShuffleAlgorithm};

    /// The virtual times of `track`'s ValidArr scans that issued a read.
    fn reads_issued(runtime: &VerbsRuntime, node: u32, track: u32) -> Vec<u64> {
        let tracks = runtime.obs().recorder.dump();
        let mine = tracks.iter().filter(|t| (t.0, t.1) == (node, track));
        mine.flat_map(|t| t.3.iter())
            .filter_map(|r| match r {
                Record::Instant {
                    at_ns,
                    kind: EventKind::ValidArrPoll,
                    arg: 1..,
                } => Some(*at_ns),
                _ => None,
            })
            .collect()
    }

    /// A ValidArr announcement that lands while another source's read is
    /// in flight gets its read issued as it lands — not when that read
    /// completes, nor when a CQ poll slice runs out.
    #[test]
    fn an_announcement_during_a_read_is_read_at_once() {
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_RD, 3, 1);
        // Each message fills its 512 KiB window, so each read moves ~40 µs
        // of EDR wire.
        config.message_size = 512 << 10;
        let runtime = config.build_runtime(DeviceProfile::edr());
        let Ok(exchange) = Exchange::build(&runtime, &config) else {
            panic!("the exchange builds");
        };
        // Node 1 announces a buffer at 0, node 2 one at 10 µs.
        for (node, at) in [(1, 0), (2, 10)] {
            let send = exchange.send[node][0].clone();
            runtime.cluster().spawn(node, "sender", move |sim| {
                sim.sleep(SimDuration::from_micros(at));
                let Ok(mut buf) = send.get_free(&sim) else {
                    panic!("node {node} has a free buffer");
                };
                assert!(buf.push(&vec![7; buf.remaining()]).is_ok());
                assert!(send.send(&sim, buf, &[0], StreamState::MoreData).is_ok());
            });
        }
        let recv = exchange.recv[0][0].clone();
        let seen = Arc::new(Mutex::new((0, Vec::with_capacity(2))));
        let out = seen.clone();
        runtime.cluster().spawn(0, "receiver", move |sim| {
            out.lock().0 = sim.id().track();
            for _ in 0..2 {
                let Ok(Some(delivery)) = recv.get_data(&sim) else {
                    panic!("two deliveries arrive");
                };
                out.lock().1.push((delivery.src, sim.now().as_nanos()));
                assert!(recv.release(&sim, delivery).is_ok());
            }
        });
        runtime.cluster().run();
        let (track, delivered) = &*seen.lock();
        // When each read went out: the ValidArr scans that issued one.
        let issued = reads_issued(&runtime, 0, *track);
        assert_eq!(issued.len(), 2, "one read per announcement: {issued:?}");
        assert_eq!(delivered.iter().map(|d| d.0).collect::<Vec<_>>(), [1, 2]);
        // Node 2's read goes out within the announcement's write latency
        // plus the region poll, while node 1's read is still on the wire.
        assert!(
            issued[1] < 13_000,
            "node 2's read issued at {} ns",
            issued[1]
        );
        assert!(issued[1] < delivered[0].1, "{issued:?} {delivered:?}");
    }

    /// A header-only `Depleted` message costs a header's read, not a
    /// window's: the read completes within the header's wire time plus the
    /// read's round trip, far under the ~40 µs a 512 KiB window takes.
    #[test]
    fn a_depleted_marker_reads_one_header_not_a_window() {
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_RD, 2, 1);
        config.message_size = 512 << 10;
        let profile = DeviceProfile::edr();
        let runtime = config.build_runtime(profile.clone());
        let Ok(exchange) = Exchange::build(&runtime, &config) else {
            panic!("the exchange builds");
        };
        let send = exchange.send[1][0].clone();
        runtime.cluster().spawn(1, "sender", move |sim| {
            let Ok(buf) = send.get_free(&sim) else {
                panic!("node 1 has a free buffer");
            };
            assert!(send.send(&sim, buf, &[0], StreamState::Depleted).is_ok());
        });
        let recv = exchange.recv[0][0].clone();
        let seen = Arc::new(Mutex::new((0, 0)));
        let out = seen.clone();
        runtime.cluster().spawn(0, "receiver", move |sim| {
            let Ok(Some(delivery)) = recv.get_data(&sim) else {
                panic!("the Depleted marker arrives");
            };
            assert_eq!(delivery.state, StreamState::Depleted);
            assert_eq!(delivery.local.len(), 0);
            *out.lock() = (sim.id().track(), sim.now().as_nanos());
            assert!(recv.release(&sim, delivery).is_ok());
        });
        runtime.cluster().run();
        let (track, delivered) = *seen.lock();
        let issued = reads_issued(&runtime, 0, track);
        assert_eq!(issued.len(), 1, "one read: {issued:?}");
        // Out to the source and back, a switch and a NIC each way, then
        // the completion: the read's latency without its payload.
        let round_trip = (profile.switch_latency + profile.wr_nic + profile.qp_cache_miss) * 2
            + profile.completion_latency;
        let bound = profile.wire_time(HEADER_LEN) + round_trip;
        let took = delivered - issued[0];
        assert!(
            took <= bound.as_nanos(),
            "the header's read took {took} ns, over {bound:?}"
        );
        assert!(bound < profile.wire_time(config.message_size));
    }

    /// A sender out of buffers announces what it queued before it blocks:
    /// it sends nothing more here, so nobody reaps the acks its queued
    /// announcements wait for, and the receivers would stall on them.
    #[test]
    fn a_sender_out_of_buffers_announces_its_queue_before_blocking() {
        let mut config = ExchangeConfig::broadcast(ShuffleAlgorithm::MEMQ_RD, 3, 1);
        config.buffers_per_peer = 1;
        config.stall_timeout = SimDuration::from_millis(1);
        let runtime = config.build_runtime(DeviceProfile::edr());
        let Ok(exchange) = Exchange::build(&runtime, &config) else {
            panic!("the exchange builds");
        };
        let send = exchange.send[1][0].clone();
        runtime.cluster().spawn(1, "sender", move |sim| {
            // Two buffers, one per peer: the second's announcements queue
            // behind the first's writes.
            for _ in 0..2 {
                let Ok(mut buf) = send.get_free(&sim) else {
                    panic!("a free buffer");
                };
                assert!(buf.push(&[7; 64]).is_ok());
                assert!(send.send(&sim, buf, &[0, 2], StreamState::MoreData).is_ok());
            }
            assert!(send.get_free(&sim).is_ok(), "a buffer comes back");
        });
        let got = Arc::new(Mutex::new(Vec::with_capacity(4)));
        for node in [0, 2] {
            let (recv, out) = (exchange.recv[node][0].clone(), got.clone());
            runtime.cluster().spawn(node, "receiver", move |sim| {
                for _ in 0..2 {
                    let delivery = recv.get_data(&sim);
                    out.lock()
                        .push(delivery.as_ref().ok().map(|d| d.as_ref().map(|d| d.src)));
                    if let Ok(Some(d)) = delivery {
                        assert!(recv.release(&sim, d).is_ok());
                    }
                }
            });
        }
        runtime.cluster().run();
        assert_eq!(*got.lock(), [Some(Some(1)); 4], "each receiver gets both");
    }

    /// A sender and a receiver half of node 1 → node 0 with `window`-byte
    /// buffers, wired as `Exchange::build` wires a pair, and left unstarted.
    fn wired_pair(window: usize) -> (Arc<VerbsRuntime>, RdRcSendEndpoint, RdRcReceiveEndpoint) {
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MEMQ_RD, 2, 1);
        config.message_size = window;
        let runtime = config.build_runtime(DeviceProfile::edr());
        let params = config.params(runtime.profile());
        let send =
            RdRcSendEndpoint::new(&runtime.context(1), EndpointId(1), vec![0], params.clone());
        let recv = RdRcReceiveEndpoint::new(&runtime.context(0), EndpointId(2), vec![1], params);
        let (qp_s, qp_r) = send.qp_pair(0, &recv, 1);
        let wired = ConnectionManager::activate_untimed(qp_s, Some(qp_r.address_handle()))
            .and_then(|()| ConnectionManager::activate_untimed(qp_r, Some(qp_s.address_handle())));
        assert!(wired.is_ok(), "the pair connects");
        assert!(send.handshake(0, &recv, 1).is_ok(), "the pair shakes hands");
        (runtime, send, recv)
    }

    const WINDOW: usize = 4096;

    /// The announcement of the 64-byte message [`read_announced`] puts in
    /// window 1 of node 1's pool.
    const EXACT: Announcement = Announcement {
        window: 1,
        len: HEADER_LEN as u32 + 64,
    };

    /// What node 0's first `get_data` makes of `announced` in its ValidArr
    /// slot 0 — written there straight, as if node 1 had RDMA-written it —
    /// while window 1 of node 1's pool holds a 64-byte message: the
    /// delivered payload's length, or the error.
    fn read_announced(announced: Announcement) -> Result<Option<usize>> {
        let (runtime, send, recv) = wired_pair(WINDOW);
        let mut buf = Buffer::new(send.window.region().clone(), WINDOW, WINDOW);
        assert!(buf.push(&[7; 64]).is_ok());
        let header = data_header(send.half.id, 0, &buf, StreamState::MoreData);
        assert!(buf.write_header(&header).is_ok());
        assert_eq!(Announcement::of(&buf), EXACT);
        let slot = recv.valid_arr.base(0).offset;
        let value = announced.encode() + 1;
        assert!(recv.valid_arr.region().write_u64(slot, value).is_ok());
        let got = Arc::new(Mutex::new(None));
        let out = got.clone();
        runtime.cluster().spawn(0, "receiver", move |sim| {
            let delivered = recv.get_data(&sim).map(|d| d.map(|d| d.local.len()));
            *out.lock() = Some(delivered);
        });
        runtime.cluster().run();
        let got = got.lock().take();
        got.unwrap_or_else(|| panic!("get_data returned"))
    }

    /// An announcement off the wire that names no window of the source's
    /// pool, or a length the window cannot hold or the header exceeds, is
    /// a typed `Corrupt`, never a read out of bounds or a panic.
    #[test]
    fn an_announcement_outside_the_pool_is_corrupt() {
        assert_eq!(read_announced(EXACT), Ok(Some(64)));
        let (windows, len) = (2, EXACT.len);
        for bad in [
            Announcement {
                window: windows,
                len,
            },
            Announcement {
                window: u32::MAX,
                len,
            },
            Announcement {
                len: HEADER_LEN as u32 - 1,
                ..EXACT
            },
            Announcement {
                len: WINDOW as u32 + 1,
                ..EXACT
            },
        ] {
            let got = read_announced(bad);
            assert!(
                matches!(got, Err(ShuffleError::Corrupt(_))),
                "{bad:?}: {got:?}"
            );
        }
    }

    /// A read whose length the message's own header disagrees with is a
    /// typed `Corrupt`, not a delivery cut short or padded.
    #[test]
    fn a_read_whose_header_disagrees_with_its_announcement_is_corrupt() {
        assert_eq!(read_announced(EXACT), Ok(Some(64)));
        for len in [
            EXACT.len - 8,
            EXACT.len + 8,
            HEADER_LEN as u32,
            WINDOW as u32,
        ] {
            let got = read_announced(Announcement { len, ..EXACT });
            assert!(
                matches!(got, Err(ShuffleError::Corrupt(_))),
                "{len}: {got:?}"
            );
        }
    }
}
