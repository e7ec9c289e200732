//! Completion queues.
//!
//! The NIC reports finished work requests by depositing [`Completion`]
//! entries; the application retrieves them with [`CompletionQueue::poll`]
//! (the analogue of `ibv_poll_cq`, non-blocking) or blocks with
//! [`CompletionQueue::next`]. Both charge the polling CPU cost from the
//! device profile. Multiple Queue Pairs may share one completion queue —
//! the paper associates all QPs of an endpoint with a single CQ "to
//! amortize the cost of polling" (§4.4.1).

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_obs::{EventKind, Obs, Stage};
use rshuffle_simnet::{Gate, Kernel, SimContext, SimDuration, SimTime, Waitable};

use crate::types::QpNum;
use crate::NodeId;

/// Status of a completed work request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// The request completed successfully.
    Success,
    /// The inbound message was larger than the posted receive buffer.
    LocalLengthError,
    /// A reliable send exhausted its receiver-not-ready retries (the peer
    /// never posted a matching Receive).
    RetryExceeded,
    /// The QP transitioned to the error state; the request was flushed.
    Flushed,
    /// The responder refused the request (`IBV_WC_REM_INV_REQ_ERR`): a
    /// reliable Send longer than the Receive it matched.
    RemoteInvalidRequest,
}

/// Which operation a completion refers to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WcOpcode {
    /// A Send work request completed (buffer reusable).
    Send,
    /// A Receive work request completed (buffer holds a message).
    Recv,
    /// An RDMA Read completed (local buffer holds remote data).
    Read,
    /// An RDMA Write completed (remote memory updated).
    Write,
}

/// One completion-queue entry (the analogue of `ibv_wc`).
#[derive(Clone, Debug)]
pub struct Completion {
    /// The application-chosen identifier of the work request.
    pub wr_id: u64,
    /// Outcome of the request.
    pub status: WcStatus,
    /// Operation kind.
    pub opcode: WcOpcode,
    /// Bytes transferred (receives and reads).
    pub byte_len: usize,
    /// For receives: the sender's node.
    pub src_node: NodeId,
    /// For receives: the sender's QP number (meaningful on UD, where one
    /// local QP hears from many peers).
    pub src_qp: QpNum,
    /// The local QP this completion belongs to.
    pub qp: QpNum,
    /// Immediate data carried by the message, if any (the shuffle endpoints
    /// inline the credit value here to save a DMA, §4.4.1).
    pub imm: Option<u32>,
    /// Virtual ns the originating work request was posted; 0 when the
    /// post time is unknown (e.g. error flushes). Drives the
    /// post-to-completion stage histogram.
    pub posted_ns: u64,
    /// Virtual ns the completion was deposited into the CQ (stamped by
    /// the queue itself). Drives the CQ-wait stage histogram.
    pub deposited_ns: u64,
}

impl Completion {
    /// The entry owed for work request `wr_id`, an `opcode` posted on local
    /// QP `qp` at `posted_ns` (0: unknown), the far side's node and QP being
    /// `(src_node, src_qp)`. Successful and empty until
    /// [`Completion::outcome`] says otherwise; [`CompletionQueue::deposit`]
    /// stamps `deposited_ns`.
    pub(crate) fn new(
        wr_id: u64,
        opcode: WcOpcode,
        (src_node, src_qp): (NodeId, QpNum),
        qp: QpNum,
        posted_ns: u64,
    ) -> Self {
        Completion {
            wr_id,
            status: WcStatus::Success,
            opcode,
            byte_len: 0,
            src_node,
            src_qp,
            qp,
            imm: None,
            posted_ns,
            deposited_ns: 0,
        }
    }

    /// How the request ended and the bytes it moved.
    pub(crate) fn outcome(mut self, status: WcStatus, byte_len: usize) -> Self {
        (self.status, self.byte_len) = (status, byte_len);
        self
    }
}

struct CqInner {
    gate: Gate<Completion>,
    poll_cost: SimDuration,
    kernel: Kernel,
    obs: Option<Arc<Obs>>,
    /// Completions already paid for by an earlier poll charge. One
    /// `ibv_poll_cq` call retrieves every queued entry for a single CPU
    /// cost; consumers that then take entries one at a time (the blocking
    /// [`CompletionQueue::next`] family) must not be billed again for the
    /// remainder of that burst.
    prepaid: Mutex<usize>,
}

impl CqInner {
    /// Charges one poll cost unless a previous charge already covered this
    /// retrieval (burst semantics of `ibv_poll_cq`): when the queue holds
    /// `k` entries at charge time, the first retrieval pays and the next
    /// `k - 1` ride along free.
    fn charge_poll(&self, ctx: &SimContext) {
        {
            let mut prepaid = self.prepaid.lock();
            if *prepaid > 0 {
                *prepaid -= 1;
                return;
            }
        }
        // Never sleep while holding the lock: the kernel may run another
        // sim thread that polls this CQ during the charge.
        ctx.sleep(self.poll_cost);
        *self.prepaid.lock() = self.gate.len().saturating_sub(1);
    }
    /// One flight-recorder event per retrieved completion, on the
    /// polling thread's track, plus the post→completion and
    /// completion→poll stage latencies. Pure recording — never advances
    /// virtual time.
    fn observe_polled(&self, ctx: &SimContext, c: &Completion) {
        if let Some(obs) = &self.obs {
            let node = ctx.node() as u32;
            let now = ctx.now().as_nanos();
            obs.recorder.event(
                node,
                ctx.id().track(),
                now,
                EventKind::CompletionPolled,
                c.byte_len as u64,
            );
            if c.posted_ns > 0 && c.deposited_ns >= c.posted_ns {
                obs.record_stage(Stage::PostToCompletion, node, c.deposited_ns - c.posted_ns);
            }
            if c.deposited_ns > 0 && now >= c.deposited_ns {
                obs.record_stage(Stage::CqWait, node, now - c.deposited_ns);
            }
        }
    }
}

/// A completion queue, shareable across QPs and threads.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl CompletionQueue {
    /// Creates a completion queue. `completion_latency` models the delay
    /// from hardware completion to a polling thread observing it;
    /// `poll_cost` is the CPU cost per poll call.
    pub fn new(kernel: &Kernel, completion_latency: SimDuration, poll_cost: SimDuration) -> Self {
        CompletionQueue {
            inner: Arc::new(CqInner {
                gate: Gate::new(kernel, completion_latency),
                poll_cost,
                kernel: kernel.clone(),
                obs: kernel.obs(),
                prepaid: Mutex::new(0),
            }),
        }
    }

    /// Non-blocking poll: drains up to `max` completions, charging one poll
    /// cost. Mirrors `ibv_poll_cq`. Prefer [`CompletionQueue::poll_into`]
    /// on hot paths — it reuses caller scratch instead of allocating.
    pub fn poll(&self, ctx: &SimContext, max: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        self.poll_into(ctx, &mut out, max);
        out
    }

    /// Non-blocking batched drain into caller-owned scratch: clears `out`,
    /// then moves up to `max` queued completions into it, charging one poll
    /// cost for the whole drain (`ibv_poll_cq` batch semantics). Returns
    /// the number of completions retrieved.
    pub fn poll_into(&self, ctx: &SimContext, out: &mut Vec<Completion>, max: usize) -> usize {
        out.clear();
        // A fresh poll call supersedes any burst credit from earlier
        // one-at-a-time consumption.
        *self.inner.prepaid.lock() = 0;
        ctx.sleep(self.inner.poll_cost);
        while out.len() < max {
            match self.inner.gate.try_recv() {
                Some(c) => out.push(c),
                None => break,
            }
        }
        for c in out.iter() {
            self.inner.observe_polled(ctx, c);
        }
        out.len()
    }

    /// Blocking batched drain into caller-owned scratch: clears `out`,
    /// waits until a completion is queued, one of `also` is ready or
    /// `deadline` passes, then drains up to `max` queued completions —
    /// all for a single poll cost. Returns the number retrieved (zero at
    /// the deadline, or when only `also` woke the caller). This is the
    /// endpoint wait-loop workhorse: one charge per burst, no allocation.
    ///
    /// A completion wakes one waiting drainer; `also` is how a drainer
    /// hears that another thread changed what it waits for.
    pub fn drain_into(
        &self,
        ctx: &SimContext,
        out: &mut Vec<Completion>,
        max: usize,
        deadline: SimTime,
        also: &[&dyn Waitable],
    ) -> usize {
        out.clear();
        if max == 0 {
            return 0;
        }
        *self.inner.prepaid.lock() = 0;
        ctx.sleep(self.inner.poll_cost);
        ctx.wait_any(&[&self.inner.gate, &also], Some(deadline));
        while out.len() < max {
            match self.inner.gate.try_recv() {
                Some(c) => out.push(c),
                None => break,
            }
        }
        for c in out.iter() {
            self.inner.observe_polled(ctx, c);
        }
        out.len()
    }

    /// Blocks until one completion is available and returns it.
    ///
    /// Burst pricing: if a previous charge already covered this entry (the
    /// queue held several completions when it was paid), no additional
    /// poll cost is charged (the private `CqInner::charge_poll`).
    pub fn next(&self, ctx: &SimContext) -> Completion {
        self.inner.charge_poll(ctx);
        let c = self.inner.gate.recv(ctx);
        self.inner.observe_polled(ctx, &c);
        c
    }

    /// Number of completions currently queued.
    pub fn depth(&self) -> usize {
        self.inner.gate.len()
    }

    /// Deposits a completion (called by the simulated NIC), stamping the
    /// deposit time for the CQ-wait stage histogram.
    pub(crate) fn deposit(&self, mut c: Completion) {
        c.deposited_ns = self.inner.kernel.now().as_nanos();
        self.inner.gate.push(c);
    }

    /// Has the simulated NIC deposit `c` at virtual time `at`.
    pub(crate) fn complete_at(&self, at: SimTime, c: Completion) {
        let cq = self.clone();
        self.inner.kernel.schedule(at, move || cq.deposit(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rshuffle_simnet::Kernel;

    fn cq(kernel: &Kernel) -> CompletionQueue {
        CompletionQueue::new(
            kernel,
            SimDuration::from_nanos(200),
            SimDuration::from_nanos(50),
        )
    }

    fn dummy(wr_id: u64) -> Completion {
        Completion::new(wr_id, WcOpcode::Send, (0, QpNum(0)), QpNum(0), 0)
    }

    #[test]
    fn poll_drains_up_to_max() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        for i in 0..5 {
            cq.deposit(dummy(i));
        }
        let cq2 = cq.clone();
        kernel.spawn(0, "poller", move |sim| {
            let batch = cq2.poll(&sim, 3);
            assert_eq!(batch.len(), 3);
            assert_eq!(batch[0].wr_id, 0);
            let rest = cq2.poll(&sim, 10);
            assert_eq!(rest.len(), 2);
            // Two polls at 50ns each.
            assert_eq!(sim.now().as_nanos(), 100);
        });
        kernel.run();
    }

    #[test]
    fn next_blocks_until_deposit() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        let cq2 = cq.clone();
        kernel.spawn(0, "waiter", move |sim| {
            let c = cq2.next(&sim);
            assert_eq!(c.wr_id, 7);
            // Deposit at 1000 + 200 completion latency; poll cost charged
            // before blocking.
            assert_eq!(sim.now().as_nanos(), 1_200);
        });
        let cq3 = cq.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || {
            cq3.deposit(dummy(7));
        });
        kernel.run();
    }

    #[test]
    fn empty_poll_still_costs_cpu() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        kernel.spawn(0, "poller", move |sim| {
            assert!(cq.poll(&sim, 8).is_empty());
            assert_eq!(sim.now().as_nanos(), 50);
        });
        kernel.run();
    }

    #[test]
    fn burst_of_next_calls_charges_one_poll_cost() {
        // A burst queued before the consumer runs: real `ibv_poll_cq`
        // retrieves it all for one call's CPU cost, so a blocking next()
        // per entry must charge one poll cost total, not one per entry.
        for burst in [3, 8] {
            let kernel = Kernel::new();
            let cq = cq(&kernel);
            for i in 0..burst {
                cq.deposit(dummy(i));
            }
            let cq2 = cq.clone();
            kernel.spawn(0, "consumer", move |sim| {
                for i in 0..burst {
                    let c = cq2.next(&sim);
                    assert_eq!(c.wr_id, i);
                }
                // One 50ns charge for the whole burst.
                assert_eq!(sim.now().as_nanos(), 50);
                // The burst credit is spent: the next charge is a fresh one.
                cq2.deposit(dummy(99));
                let c = cq2.next(&sim);
                assert_eq!(c.wr_id, 99);
                assert_eq!(sim.now().as_nanos(), 100);
            });
            kernel.run();
        }
    }

    #[test]
    fn poll_into_reuses_scratch_and_charges_once() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        for i in 0..5 {
            cq.deposit(dummy(i));
        }
        let cq2 = cq.clone();
        kernel.spawn(0, "poller", move |sim| {
            let mut scratch = Vec::with_capacity(8);
            assert_eq!(cq2.poll_into(&sim, &mut scratch, 8), 5);
            assert_eq!(scratch.len(), 5);
            assert_eq!(scratch[4].wr_id, 4);
            assert_eq!(sim.now().as_nanos(), 50);
            // Scratch is cleared on reuse, capacity retained.
            assert_eq!(cq2.poll_into(&sim, &mut scratch, 8), 0);
            assert!(scratch.is_empty());
            assert_eq!(sim.now().as_nanos(), 100);
        });
        kernel.run();
    }

    #[test]
    fn drain_into_blocks_then_drains_queued_burst() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        let cq2 = cq.clone();
        kernel.spawn(0, "drainer", move |sim| {
            let mut scratch = Vec::new();
            // Blocks for the first completion, then picks up the rest of
            // the burst for the same single charge.
            let n = cq2.drain_into(&sim, &mut scratch, 8, SimTime::from_nanos(5_000), &[]);
            assert_eq!(n, 3);
            // Deposits at 1000, +200 completion latency, poll cost charged
            // before blocking.
            assert_eq!(sim.now().as_nanos(), 1_200);
            // The deadline path returns zero after charging and waiting
            // until the deadline.
            assert_eq!(
                cq2.drain_into(&sim, &mut scratch, 8, SimTime::from_nanos(1_350), &[]),
                0
            );
            assert_eq!(sim.now().as_nanos(), 1_350);
        });
        let cq3 = cq.clone();
        kernel.schedule(SimTime::from_nanos(1_000), move || {
            for i in 0..3 {
                cq3.deposit(dummy(i));
            }
        });
        kernel.run();
    }

    #[test]
    fn poll_resets_stale_burst_credit() {
        let kernel = Kernel::new();
        let cq = cq(&kernel);
        for i in 0..4 {
            cq.deposit(dummy(i));
        }
        let cq2 = cq.clone();
        kernel.spawn(0, "mixed", move |sim| {
            // next() pays once and prepays the other three...
            let _ = cq2.next(&sim);
            assert_eq!(sim.now().as_nanos(), 50);
            // ...but an explicit poll is a fresh ibv_poll_cq call: it
            // charges again and supersedes the leftover credit.
            assert_eq!(cq2.poll(&sim, 8).len(), 3);
            assert_eq!(sim.now().as_nanos(), 100);
            cq2.deposit(dummy(9));
            let _ = cq2.next(&sim);
            assert_eq!(sim.now().as_nanos(), 150);
        });
        kernel.run();
    }
}
