//! The parallel, vectorized pull-based operator model and the paper's
//! SHUFFLE and RECEIVE operators (§4.3, Algorithms 1 and 2).
//!
//! Every operator implements a `NEXT(tid)` function returning a batch of
//! tuples plus a stream state; worker threads pass their id so operator
//! state and output buffers stay thread-partitioned (Figure 1).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_simnet::{DeviceProfile, NodeId, SimContext, SimDuration};

use crate::buffer::{Buffer, StreamState};
use crate::endpoint::{ReceiveEndpoint, SendEndpoint};
use crate::error::{Result, ShuffleError};
use crate::group::TransmissionGroups;
use crate::ledger::FlowLedger;
use crate::phase::PhaseRunner;

/// A vectorized batch of fixed-width rows.
#[derive(Clone, Debug)]
pub struct RowBatch {
    row_size: usize,
    data: Vec<u8>,
}

impl RowBatch {
    /// Creates an empty batch for `row_size`-byte rows, pre-allocating room
    /// for `capacity_rows`.
    pub fn new(row_size: usize, capacity_rows: usize) -> Self {
        assert!(row_size > 0, "rows must have positive width");
        RowBatch {
            row_size,
            data: Vec::with_capacity(row_size * capacity_rows),
        }
    }

    /// Row width in bytes.
    pub fn row_size(&self) -> usize {
        self.row_size
    }

    /// Number of rows in the batch.
    pub fn rows(&self) -> usize {
        self.data.len() / self.row_size
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly `row_size` bytes.
    #[inline]
    pub fn push_row(&mut self, row: &[u8]) {
        assert_eq!(row.len(), self.row_size, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Appends the row `write` appends to the vector it is handed — the
    /// batch's own storage, so the row is written once, in place. `write`
    /// must only append. A row of any other width than `row_size` is
    /// taken back out and reported as [`ShuffleError::Config`]: the batch
    /// is left as it was.
    #[inline]
    pub fn write_row(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let start = self.data.len();
        write(&mut self.data);
        let written = self.data.len().wrapping_sub(start);
        if written != self.row_size {
            self.data.truncate(start);
            return Err(ShuffleError::Config(format!(
                "a {written}-byte row written into a batch of {}-byte rows",
                self.row_size
            )));
        }
        Ok(())
    }

    /// Appends `bytes` of whole rows (e.g. a received buffer payload).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of the row size.
    pub fn extend_rows(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len() % self.row_size,
            0,
            "payload is not whole rows ({} bytes, {}-byte rows)",
            bytes.len(),
            self.row_size
        );
        self.data.extend_from_slice(bytes);
    }

    /// Returns row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.row_size..(i + 1) * self.row_size]
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.row_size)
    }

    /// Removes all rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

/// A parallel, vectorized pull-based operator (Figure 1).
pub trait Operator: Send + Sync {
    /// Returns the next batch for worker `tid`, along with whether more
    /// data may follow. After returning [`StreamState::Depleted`] the
    /// operator must keep returning `Depleted` with empty batches.
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)>;
}

/// CPU cost constants the operators charge while processing tuples.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cost of hashing one tuple.
    pub hash_per_tuple: SimDuration,
    /// Single-core copy bandwidth, bytes/second.
    pub memcpy_bandwidth: f64,
}

impl CostModel {
    /// Extracts the cost constants from a device profile.
    pub fn from_profile(p: &DeviceProfile) -> Self {
        CostModel {
            hash_per_tuple: p.hash_per_tuple,
            memcpy_bandwidth: p.memcpy_bandwidth,
        }
    }

    /// CPU time to copy `bytes`.
    pub fn copy_time(&self, bytes: usize) -> SimDuration {
        rshuffle_simnet::resource::transfer_time(bytes, self.memcpy_bandwidth)
    }
}

/// Hash function assigning a tuple to a transmission group: the paper
/// partitions on an 8-byte key at the start of the row (R.a / the join
/// key). Fibonacci hashing spreads sequential keys.
pub fn default_partition_hash(row: &[u8]) -> u64 {
    let key = if row.len() >= 8 {
        u64::from_le_bytes(row[0..8].try_into().expect("8 bytes"))
    } else {
        row.iter().fold(0u64, |h, &b| (h << 8) | b as u64)
    };
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The SHUFFLE operator (Algorithm 1): hashes every tuple of its child to a
/// transmission group and transmits full buffers through a communication
/// endpoint.
pub struct ShuffleOperator {
    child: Arc<dyn Operator>,
    /// `endpoint[0]` for SE; `endpoint[tid]` for ME.
    endpoints: Vec<Arc<dyn SendEndpoint>>,
    groups: TransmissionGroups,
    /// Threads still running per lane; the last thread of a lane propagates
    /// Depleted on it (Algorithm 1 lines 14–17; with one lane this is the
    /// paper's "last thread" rule).
    lane_remaining: Vec<AtomicUsize>,
    /// Rows to silently drop per `(tid, group)` before transmitting again:
    /// [`ShuffleOperator::resume_from`] seeds them from the receivers'
    /// watermarks so a partial retry does not resend rows that already
    /// arrived (all zeros on a fresh run). Worker `tid`'s `next` takes its
    /// row for good: a second call finds `None` and touches nothing.
    resume_skip: Vec<Mutex<Option<Vec<u64>>>>,
    threads: usize,
    cost: CostModel,
    /// Phase-scheduled transmission: the cluster-wide runner plus this
    /// node's id in the schedule. `None` (the default) opens every
    /// destination from the first row: Algorithm 1's interleaved order.
    phases: Option<(Arc<PhaseRunner>, NodeId)>,
}

impl ShuffleOperator {
    /// Creates the operator for `threads` workers over any number of
    /// endpoint lanes (1 ≤ lanes ≤ threads: one for SE, `threads` for ME);
    /// worker `tid` uses lane `tid % lanes`. This is the knob swept in
    /// Figure 11 (the number of endpoints controls the number of Queue
    /// Pairs). What [`crate::Exchange::shuffle_operator`] is written in:
    /// take the operator from the exchange, which knows its own lanes,
    /// groups and threads.
    ///
    /// # Panics
    ///
    /// Panics if the lane count is out of range.
    pub fn with_lanes(
        child: Arc<dyn Operator>,
        endpoints: Vec<Arc<dyn SendEndpoint>>,
        groups: TransmissionGroups,
        threads: usize,
        cost: CostModel,
    ) -> Self {
        let lanes = endpoints.len();
        assert!(
            (1..=threads).contains(&lanes),
            "need between 1 and {threads} endpoint lanes, got {lanes}"
        );
        let n_groups = groups.len();
        let lane_remaining = (0..lanes)
            .map(|l| AtomicUsize::new((0..threads).filter(|t| t % lanes == l).count()))
            .collect();
        ShuffleOperator {
            child,
            endpoints,
            groups,
            lane_remaining,
            resume_skip: (0..threads)
                .map(|_| Mutex::new(Some(vec![0; n_groups])))
                .collect(),
            threads,
            cost,
            phases: None,
        }
    }

    /// Resumes `node`'s fragment where `ledger` says its flows got to:
    /// worker `tid` silently drops its first rows hashing to each group,
    /// as many as the group's members all received from it. Because the
    /// child replays rows in the same order and the partition hash is
    /// deterministic, this fast-forwards a retried flow past everything
    /// the receivers already consumed.
    pub fn resume_from(self, ledger: &FlowLedger, node: NodeId) -> Self {
        for (tid, skip) in self.resume_skip.iter().enumerate() {
            let groups = self.groups.iter();
            *skip.lock() = Some(groups.map(|to| ledger.resume_skip(node, tid, to)).collect());
        }
        self
    }

    /// Switches transmission to the phase-scheduled order: stage all rows
    /// per destination, then open one destination per schedule phase,
    /// crossing `runner`'s cluster-wide barrier between phases. `node` is
    /// this operator's node id in the schedule; a source the schedule
    /// leaves free streams with every destination open all the same.
    /// [`crate::Exchange::shuffle_operator`] calls this when it is phased.
    pub fn with_phases(mut self, runner: Arc<PhaseRunner>, node: NodeId) -> Self {
        self.phases = Some((runner, node));
        self
    }

    /// Algorithm 1's loop. Each routed row goes into its destination's
    /// outbox once the destination is open: unphased, every destination
    /// is open from the first row; phased, the fragment is staged and
    /// each destination opens at its phase.
    fn transmit(
        &self,
        sim: &SimContext,
        tid: usize,
        phases: Option<&(Arc<PhaseRunner>, NodeId)>,
    ) -> Result<()> {
        let Some(mut skip) = self.resume_skip[tid].lock().take() else {
            return Ok(());
        };
        let lane = Lane {
            sim,
            target: self.endpoints[tid % self.endpoints.len()].as_ref(),
            tid,
        };
        let route = |row: &[u8], skip: &mut [u64]| {
            let dest = (default_partition_hash(row) % self.groups.len() as u64) as usize;
            if skip[dest] > 0 {
                skip[dest] -= 1;
                return None;
            }
            Some(dest)
        };
        let open = phases.is_none();
        let mut outboxes = Vec::new();
        outboxes.resize_with(if open { self.groups.len() } else { 0 }, Outbox::default);
        // Phased, the child's batches are kept and each destination's rows
        // counted as `(length, rows)` runs (a batch's rows are one width; a
        // length per 16-byte row would be half the staging), to be routed
        // again through the same skips.
        let mut batches = Vec::new();
        let mut runs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.groups.len()];
        let mut restage_skip = skip.clone();
        loop {
            let (state, batch) = self.child.next(sim, tid)?;
            if !batch.is_empty() {
                sim.sleep(self.cost.hash_per_tuple * batch.rows() as u64);
                if open {
                    // The copy into RDMA-registered memory. Unlike the
                    // phased charge below it counts rows the resume skip
                    // drops: kept, as evening the two out moves virtual time.
                    sim.sleep(self.cost.copy_time(batch.bytes()));
                }
            }
            for row in batch.iter() {
                let Some(dest) = route(row, &mut skip) else {
                    continue;
                };
                if open {
                    outboxes[dest].put(&lane, self.groups.group(dest), row, row.len())?;
                    continue;
                }
                match runs[dest].last_mut() {
                    Some((len, rows)) if *len == row.len() => *rows += 1,
                    _ => runs[dest].push((row.len(), 1)),
                }
            }
            batches.extend((!open).then_some(batch));
            if state == StreamState::Depleted {
                break;
            }
        }
        if let Some((runner, node)) = phases {
            let schedule = runner.schedule();
            // `Exchange::build` enforces singleton groups under phasing;
            // map each destination node back to its group index.
            let mut group_of: Vec<Option<usize>> = vec![None; schedule.nodes()];
            for (i, g) in self.groups.iter().enumerate() {
                if g.len() == 1 && g[0] < group_of.len() {
                    group_of[g[0]] = Some(i);
                }
            }
            // Stage each row once, in plain memory, into a slot sized to
            // exactly its destination's rows, dropping each batch behind
            // it. The copy into RDMA-registered buffers is charged per
            // phase below.
            let mut staged: Vec<Vec<u8>> = runs
                .iter()
                .map(|runs| Vec::with_capacity(runs.iter().map(|(len, rows)| len * rows).sum()))
                .collect();
            for batch in batches {
                for row in batch.iter() {
                    if let Some(dest) = route(row, &mut restage_skip) {
                        staged[dest].extend_from_slice(row);
                    }
                }
            }
            // One destination per phase. The barrier is crossed once per
            // super-round (every PHASE_GROUP phases): inside a super-round
            // lanes drift at most PHASE_GROUP − 1 phases apart, so an
            // ingress port never serves more than PHASE_GROUP bulk senders
            // — still under the incast knee — while slow lanes catch up
            // without stretching every peer's round. A super-round's
            // traffic leaves the fabric before the lane crosses the next
            // barrier: the destinations it opened are drained there, all
            // at once, and not one credit round trip per phase.
            let mut opened = Vec::with_capacity(crate::phase::PHASE_GROUP);
            for p in 0..schedule.num_phases() {
                if p % crate::phase::PHASE_GROUP == 0 {
                    lane.quiesce(&mut opened)?;
                    runner.wait(sim, p)?;
                }
                let Some(dest_node) = schedule.dest_of(p, *node) else {
                    continue;
                };
                let Some(dest) = group_of.get(dest_node).copied().flatten() else {
                    continue;
                };
                // Open `dest`: its slot drains run by run through an outbox
                // of its own, which the phase's end frees.
                let rows = std::mem::take(&mut staged[dest]);
                if !rows.is_empty() {
                    sim.sleep(self.cost.copy_time(rows.len()));
                }
                let (mut outbox, to) = (Outbox::default(), self.groups.group(dest));
                let mut at = 0;
                for (len, n) in std::mem::take(&mut runs[dest]) {
                    outbox.put(&lane, to, &rows[at..at + len * n], len)?;
                    at += len * n;
                }
                outbox.send(&lane, to)?;
                opened.push(dest_node);
            }
            lane.quiesce(&mut opened)?;
            // Rows for a group no phase takes this node to would be lost.
            if let Some(dest) = staged.iter().position(|rows| !rows.is_empty()) {
                return Err(ShuffleError::Config(format!(
                    "no phase sends node {node} to group {dest} {:?}: {} staged bytes would be lost",
                    self.groups.group(dest),
                    staged[dest].len()
                )));
            }
        }
        // Send every open message, freeing its rows as it goes.
        for (mut outbox, to) in outboxes.into_iter().zip(self.groups.iter()) {
            outbox.send(&lane, to)?;
        }
        // Propagate Depleted: the last thread of each lane closes that
        // lane's endpoint (Algorithm 1, lines 14–17).
        if self.lane_remaining[tid % self.endpoints.len()].fetch_sub(1, Ordering::SeqCst) == 1 {
            for d in self.groups.destinations() {
                let buf = lane.take()?;
                lane.target.send(sim, buf, &[d], StreamState::Depleted)?;
            }
        }
        Ok(())
    }
}

impl Operator for ShuffleOperator {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        assert!(tid < self.threads, "tid {tid} out of range");
        // `next` consumes the whole child stream and returns only at
        // Depleted (or on an error), so the per-row state — the skip
        // counters, the outboxes — is call-local and the row path takes no
        // lock. A source the skew-aware schedule exempted is no barrier
        // party: it streams with every destination open.
        let phases = self.phases.as_ref();
        let phases = phases.filter(|(runner, node)| !runner.schedule().is_free(*node));
        let res = self.transmit(sim, tid, phases);
        // Peers blocked on the barrier fail fast instead of timing out.
        if let (Err(_), Some((runner, _))) = (&res, phases) {
            runner.abort();
        }
        res.map(|()| (StreamState::Depleted, RowBatch::new(1, 0)))
    }
}

/// Worker `tid`'s endpoint lane: what its outboxes take windows from and
/// send through.
struct Lane<'a> {
    sim: &'a SimContext,
    target: &'a dyn SendEndpoint,
    tid: usize,
}

impl Lane<'_> {
    /// A free window, tagged with the worker that fills it.
    fn take(&self) -> Result<Buffer> {
        let mut buf = self.target.get_free(self.sim)?;
        buf.set_tag(self.tid as u16);
        Ok(buf)
    }

    /// Waits until the traffic sent toward each of `dests` has drained,
    /// and empties `dests`.
    fn quiesce(&self, dests: &mut Vec<NodeId>) -> Result<()> {
        dests
            .drain(..)
            .try_for_each(|dest| self.target.quiesce(self.sim, dest))
    }
}

/// One destination's message in the making: the window, taken when the
/// message's first row arrives, and the rows gathered for it in plain
/// memory, written into the window once per message (a write into
/// registered memory takes the region's lock and resolves the window) at
/// the row where pushing each row on its own would have sent it.
#[derive(Default)]
struct Outbox {
    buf: Option<Buffer>,
    rows: Vec<u8>,
}

impl Outbox {
    /// Gathers `run`, rows of `len` bytes for the group `to`; a streamed
    /// row is a run of one, and one that fits is one compare and one copy.
    #[inline]
    fn put(&mut self, lane: &Lane, to: &[NodeId], run: &[u8], len: usize) -> Result<()> {
        match &self.buf {
            Some(buf) if buf.capacity().saturating_sub(self.rows.len()) >= run.len() => {
                self.rows.extend_from_slice(run);
                Ok(())
            }
            _ => self.cut(lane, to, run, len),
        }
    }

    /// The one cut rule, where pushing the rows one by one would end a
    /// message: a row that no longer fits sends the window and takes the
    /// next, and after a send the row goes in whether it fits or not.
    #[cold]
    #[inline(never)]
    fn cut(&mut self, lane: &Lane, to: &[NodeId], mut run: &[u8], len: usize) -> Result<()> {
        while !run.is_empty() {
            let Some(buf) = &self.buf else {
                let buf = self.buf.insert(lane.take()?);
                self.rows.reserve_exact(buf.capacity());
                continue;
            };
            let room = buf.capacity().saturating_sub(self.rows.len());
            if room < len && !self.rows.is_empty() {
                self.send(lane, to)?;
                continue;
            }
            let (now, rest) = run.split_at(run.len().min((room / len).max(1) * len));
            self.rows.extend_from_slice(now);
            run = rest;
        }
        Ok(())
    }

    /// Sends the open message, if there is one.
    fn send(&mut self, lane: &Lane, to: &[NodeId]) -> Result<()> {
        let Some(mut buf) = self.buf.take() else {
            return Ok(());
        };
        buf.push(&self.rows)?;
        self.rows.clear();
        lane.target.send(lane.sim, buf, to, StreamState::MoreData)
    }
}

/// The RECEIVE operator (Algorithm 2): copies delivered buffers into
/// thread-partitioned output batches.
pub struct ReceiveOperator {
    endpoints: Vec<Arc<dyn ReceiveEndpoint>>,
    row_size: usize,
    /// Return a batch once it holds at least this many rows.
    batch_rows: usize,
    threads: usize,
    cost: CostModel,
    /// Where a recording RECEIVE counts each batch it hands out: the
    /// ledger, and its node (every flow's destination).
    recorder: Option<(Arc<FlowLedger>, NodeId)>,
}

impl ReceiveOperator {
    /// Creates the operator for `threads` workers producing `row_size`-byte
    /// rows in batches of `batch_rows`, over any number of endpoint lanes
    /// (1 ≤ lanes ≤ threads); worker `tid` uses lane `tid % lanes`. What
    /// [`crate::Exchange::receive_operator`] is written in.
    pub fn with_lanes(
        endpoints: Vec<Arc<dyn ReceiveEndpoint>>,
        row_size: usize,
        batch_rows: usize,
        threads: usize,
        cost: CostModel,
    ) -> Self {
        let lanes = endpoints.len();
        assert!(
            (1..=threads).contains(&lanes),
            "need between 1 and {threads} endpoint lanes, got {lanes}"
        );
        ReceiveOperator {
            endpoints,
            row_size,
            batch_rows,
            threads,
            cost,
            recorder: None,
        }
    }

    /// Makes this `node`'s recording RECEIVE: each delivery is a batch of
    /// its own, and handing it out advances the delivery's flow
    /// `(src node, src thread, node)` in `ledger`. What
    /// [`crate::Exchange::recording_receive_operator`] is written in.
    pub(crate) fn recording(mut self, ledger: Arc<FlowLedger>, node: NodeId) -> Self {
        self.batch_rows = 1;
        self.recorder = Some((ledger, node));
        self
    }
}

impl Operator for ReceiveOperator {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        assert!(tid < self.threads, "tid {tid} out of range");
        let target = &self.endpoints[tid % self.endpoints.len()];
        let mut out = RowBatch::new(self.row_size, 0);
        loop {
            let Some(delivery) = target.get_data(sim)? else {
                return Ok((StreamState::Depleted, out));
            };
            let len = delivery.local.len();
            if len % self.row_size != 0 {
                return Err(ShuffleError::Config(format!(
                    "received {len} bytes, not a multiple of {}-byte rows",
                    self.row_size
                )));
            }
            let (src, src_tid) = (delivery.src, delivery.src_tid);
            // Sized once, on the first delivery: the batch goes out as soon
            // as it holds `batch_rows` rows, so at one message size it
            // never holds more than that plus one delivery and never grows.
            if out.is_empty() {
                out = RowBatch::new(self.row_size, self.batch_rows + len / self.row_size);
            }
            // Copy out of RDMA-registered memory (Algorithm 2, line 8) and
            // charge the copy.
            sim.sleep(self.cost.copy_time(len));
            delivery.local.with_payload(|p| out.extend_rows(p))?;
            target.release(sim, delivery)?;
            if out.rows() >= self.batch_rows {
                if let Some((ledger, node)) = &self.recorder {
                    ledger.advance((src, src_tid, *node), out.rows() as u64);
                }
                return Ok((StreamState::MoreData, out));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rshuffle_obs::Obs;
    use rshuffle_simnet::Kernel;
    use rshuffle_verbs::MemoryRegion;

    use super::*;
    use crate::buffer::HEADER_LEN;
    use crate::endpoint::Delivery;
    use crate::phase::{PhasePolicy, PhaseSchedule};

    /// Payload bytes of a [`Counting`] endpoint's windows.
    const PAYLOAD: usize = 100;

    /// What a [`Counting`] endpoint was asked: a window, or the send of
    /// one with `len` payload bytes in `state`.
    #[derive(Debug, PartialEq)]
    enum Call {
        GetFree,
        Send(usize, StreamState),
    }

    /// A send endpoint toward node 1 that records its calls and hands out
    /// windows of [`PAYLOAD`] bytes over one test region.
    struct Counting {
        region: MemoryRegion,
        calls: Mutex<Vec<Call>>,
    }

    impl SendEndpoint for Counting {
        fn send(
            &self,
            _: &SimContext,
            buf: Buffer,
            dest: &[NodeId],
            state: StreamState,
        ) -> Result<()> {
            assert_eq!(dest, [1]);
            self.calls.lock().push(Call::Send(buf.len(), state));
            Ok(())
        }

        fn get_free(&self, _: &SimContext) -> Result<Buffer> {
            self.calls.lock().push(Call::GetFree);
            Ok(Buffer::new(self.region.clone(), 0, HEADER_LEN + PAYLOAD))
        }
    }

    /// A child handing worker 0 one batch per `(row width, rows)` entry.
    struct Batches(Mutex<Vec<(usize, usize)>>);

    impl Operator for Batches {
        fn next(&self, _: &SimContext, _: usize) -> Result<(StreamState, RowBatch)> {
            let mut left = self.0.lock();
            if left.is_empty() {
                return Ok((StreamState::Depleted, RowBatch::new(1, 0)));
            }
            let (width, rows) = left.remove(0);
            let mut batch = RowBatch::new(width, rows);
            for row in 0..rows {
                batch.push_row(&vec![row as u8; width]);
            }
            Ok((StreamState::MoreData, batch))
        }
    }

    /// A [`Counting`] endpoint over a fresh test region.
    fn counting(kernel: &Kernel) -> Arc<Counting> {
        Arc::new(Counting {
            region: MemoryRegion::new_for_tests(kernel, 0, 1, HEADER_LEN + PAYLOAD),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// A runner for `parties` workers over a schedule whose one phase
    /// takes node 0 to node 1.
    fn one_phase(kernel: &Kernel, parties: usize, timeout: SimDuration) -> Arc<PhaseRunner> {
        let schedule = PhaseSchedule::build(PhasePolicy::Naive, &[vec![0, 1], vec![0, 0]]).unwrap();
        PhaseRunner::with_obs(kernel, schedule, parties, timeout, Obs::new())
    }

    /// The SHUFFLE cuts rows into messages where pushing them row by row
    /// would, whether each row goes out as it arrives or the fragment is
    /// staged and sent in its phase: a row that no longer fits sends the
    /// window and takes the next, runs of 16- and 24-byte rows alike.
    #[test]
    fn both_orders_cut_where_row_by_row_pushing_would() {
        use Call::{GetFree, Send};
        use StreamState::{Depleted, MoreData};
        for phased in [false, true] {
            let kernel = Kernel::new();
            let endpoint = counting(&kernel);
            // 16 x 9 straddles the first boundary; 24 x 4 and 24 x 1 each
            // take what is left of a window and spill into the next.
            let runs = vec![(16, 9), (24, 4), (16, 3), (24, 1), (16, 2)];
            let op = ShuffleOperator::with_lanes(
                Arc::new(Batches(Mutex::new(runs))),
                vec![endpoint.clone()],
                TransmissionGroups::new(vec![vec![1]]),
                1,
                CostModel::from_profile(&DeviceProfile::edr()),
            );
            // Node 0 sends everything to node 1, in the schedule's one phase.
            let op = match phased {
                true => op.with_phases(one_phase(&kernel, 1, SimDuration::from_millis(1)), 0),
                false => op,
            };
            kernel.spawn(0, "shuffle", move |sim| {
                let (state, batch) = op.next(&sim, 0).unwrap();
                assert_eq!((state, batch.rows()), (StreamState::Depleted, 0));
            });
            kernel.run();
            assert_eq!(
                *endpoint.calls.lock(),
                [
                    GetFree,
                    Send(96, MoreData),
                    GetFree,
                    Send(96, MoreData),
                    GetFree,
                    Send(96, MoreData),
                    GetFree,
                    Send(56, MoreData),
                    GetFree,
                    Send(0, Depleted),
                ],
                "phased: {phased}"
            );
        }
    }

    /// Rows hashed to a group that no phase takes the node to are a
    /// typed error naming the group, not rows silently left behind: the
    /// schedule here reaches node 1 and not node 0 itself.
    #[test]
    fn phased_rows_no_phase_reaches_are_an_error() {
        let kernel = Kernel::new();
        let endpoint = counting(&kernel);
        // Rows 0..4 of `Batches` hash to group `row % 2`: two for node 0,
        // two for node 1.
        let op = ShuffleOperator::with_lanes(
            Arc::new(Batches(Mutex::new(vec![(16, 4)]))),
            vec![endpoint.clone()],
            TransmissionGroups::partition(2),
            1,
            CostModel::from_profile(&DeviceProfile::edr()),
        )
        .with_phases(one_phase(&kernel, 1, SimDuration::from_millis(1)), 0);
        let result = Arc::new(Mutex::new(None));
        let slot = result.clone();
        kernel.spawn(0, "phased-shuffle", move |sim| {
            *slot.lock() = Some(op.next(&sim, 0).map(|(state, _)| state));
        });
        kernel.run();
        let result = result.lock().take().expect("the shuffle returned");
        assert!(
            matches!(&result, Err(ShuffleError::Config(msg)) if msg.contains("group 0 [0]")),
            "{result:?}"
        );
        // Node 1's rows went out in their phase; nothing was declared done.
        assert_eq!(
            *endpoint.calls.lock(),
            [Call::GetFree, Call::Send(32, StreamState::MoreData)]
        );
    }

    /// A worker that has returned Depleted returns it again at once. Its
    /// second `next` neither closes the shared lane under a peer that has
    /// not run yet (unphased) nor waits alone at the barrier until it
    /// times out (phased).
    #[test]
    fn a_second_next_after_depleted_touches_nothing() {
        use Call::{GetFree, Send};
        use StreamState::{Depleted, MoreData};
        for phased in [false, true] {
            let kernel = Kernel::new();
            let endpoint = counting(&kernel);
            // SE: two workers on one lane. Worker 0 takes both rows and
            // calls `next` twice; worker 1 starts a millisecond later.
            let op = ShuffleOperator::with_lanes(
                Arc::new(Batches(Mutex::new(vec![(16, 2)]))),
                vec![endpoint.clone()],
                TransmissionGroups::new(vec![vec![1]]),
                2,
                CostModel::from_profile(&DeviceProfile::edr()),
            );
            let op = Arc::new(match phased {
                true => op.with_phases(one_phase(&kernel, 2, SimDuration::from_millis(100)), 0),
                false => op,
            });
            let returned = Arc::new(Mutex::new(Vec::new()));
            for tid in 0..2 {
                let (op, endpoint, returned) = (op.clone(), endpoint.clone(), returned.clone());
                kernel.spawn(0, "shuffle", move |sim| {
                    sim.sleep(SimDuration::from_millis(tid as u64));
                    for _ in tid..2 {
                        let next = op
                            .next(&sim, tid)
                            .map(|(state, batch)| (state, batch.rows()));
                        let calls = endpoint.calls.lock().len();
                        returned.lock().push((tid, next.ok(), calls));
                    }
                });
            }
            kernel.run();
            let returned = std::mem::take(&mut *returned.lock());
            assert!(
                returned
                    .iter()
                    .all(|(_, next, _)| *next == Some((Depleted, 0))),
                "phased: {phased}: {returned:?}"
            );
            if !phased {
                // Worker 0's second call sent nothing: the lane stays open
                // until worker 1 has run.
                assert_eq!(returned[..2], [(0, Some((Depleted, 0)), 2); 2]);
            }
            assert_eq!(
                *endpoint.calls.lock(),
                [GetFree, Send(32, MoreData), GetFree, Send(0, Depleted)],
                "phased: {phased}"
            );
        }
    }

    /// What a [`Draining`] endpoint was asked, beside the number of
    /// barrier crossings before it: a send toward a node, or a drain.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        Send(NodeId, StreamState),
        Quiesce(NodeId),
    }

    /// A send endpoint that records its sends and drains, each with the
    /// phase barrier crossings `obs` counted before it.
    struct Draining {
        region: MemoryRegion,
        obs: Arc<Obs>,
        steps: Mutex<Vec<(u64, Step)>>,
    }

    impl Draining {
        fn record(&self, step: Step) {
            let crossed = self
                .obs
                .metrics
                .counter_total(rshuffle_obs::names::EXCHANGE_PHASES_RUN);
            self.steps.lock().push((crossed, step));
        }
    }

    impl SendEndpoint for Draining {
        fn send(
            &self,
            _: &SimContext,
            _: Buffer,
            dest: &[NodeId],
            state: StreamState,
        ) -> Result<()> {
            self.record(Step::Send(dest[0], state));
            Ok(())
        }

        fn get_free(&self, _: &SimContext) -> Result<Buffer> {
            Ok(Buffer::new(self.region.clone(), 0, HEADER_LEN + PAYLOAD))
        }

        fn quiesce(&self, _: &SimContext, dest: NodeId) -> Result<()> {
            self.record(Step::Quiesce(dest));
            Ok(())
        }
    }

    /// A phased lane drains each super-round once, where it ends: every
    /// destination the super-round opened is quiesced after the last of
    /// its sends and before the next barrier crossing, and every
    /// destination is quiesced before its Depleted marker.
    #[test]
    fn a_super_round_drains_after_its_sends_and_before_the_next_barrier() {
        use crate::phase::PHASE_GROUP;
        use StreamState::{Depleted, MoreData};
        const NODES: usize = 2 * PHASE_GROUP;
        let kernel = Kernel::new();
        let obs = Obs::new();
        let endpoint = Arc::new(Draining {
            region: MemoryRegion::new_for_tests(&kernel, 0, 1, HEADER_LEN + PAYLOAD),
            obs: obs.clone(),
            steps: Mutex::new(Vec::new()),
        });
        // Node 0 of the naive rotation serves node `p` in phase `p`: two
        // super-rounds of PHASE_GROUP destinations each.
        let uniform = PhaseSchedule::uniform_bytes(NODES);
        let schedule = PhaseSchedule::build(PhasePolicy::Naive, &uniform).unwrap();
        let runner = PhaseRunner::with_obs(&kernel, schedule, 1, SimDuration::from_millis(1), obs);
        let op = ShuffleOperator::with_lanes(
            Arc::new(Batches(Mutex::new(vec![(16, 200)]))),
            vec![endpoint.clone()],
            TransmissionGroups::partition(NODES),
            1,
            CostModel::from_profile(&DeviceProfile::edr()),
        )
        .with_phases(runner, 0);
        kernel.spawn(0, "phased-shuffle", move |sim| {
            op.next(&sim, 0).unwrap();
        });
        kernel.run();
        let steps = std::mem::take(&mut *endpoint.steps.lock());
        let sent = |dest| {
            let sends = steps.iter().enumerate();
            sends.filter(move |(_, (_, s))| *s == Step::Send(dest, MoreData))
        };
        for dest in 0..NODES {
            let round = (dest / PHASE_GROUP + 1) as u64;
            assert!(
                sent(dest).all(|(_, (crossed, _))| *crossed == round),
                "node {dest} is sent in super-round {round}: {steps:?}"
            );
            let drains: Vec<_> = (steps.iter().enumerate())
                .filter(|(_, (_, s))| *s == Step::Quiesce(dest))
                .collect();
            let depleted = (steps.iter())
                .position(|(_, s)| *s == Step::Send(dest, Depleted))
                .expect("every destination is declared done");
            assert!(
                drains.len() == 1 && drains[0].0 < depleted,
                "node {dest} is drained once, before its Depleted marker: {steps:?}"
            );
            let (at, (crossed, _)) = drains[0];
            // After every send of its super-round, toward any node, and
            // before the barrier that opens the next.
            let last_send = (steps.iter().enumerate())
                .filter(|(_, (c, s))| *c == round && matches!(s, Step::Send(_, MoreData)))
                .map(|(i, _)| i)
                .max();
            assert!(sent(dest).count() > 0, "node {dest} is sent rows");
            assert!(
                *crossed == round && last_send < Some(at),
                "node {dest} is drained after super-round {round}'s sends: {steps:?}"
            );
        }
    }

    /// A receive endpoint handing out one delivery per `(sending node,
    /// sending thread, payload bytes)` entry of `left`, in order.
    struct Delivering {
        region: MemoryRegion,
        left: Mutex<Vec<(NodeId, u16, usize)>>,
    }

    impl ReceiveEndpoint for Delivering {
        fn get_data(&self, _: &SimContext) -> Result<Option<Delivery>> {
            let mut left = self.left.lock();
            if left.is_empty() {
                return Ok(None);
            }
            let (src, src_tid, len) = left.remove(0);
            let mut local = Buffer::new(self.region.clone(), 0, HEADER_LEN + PAYLOAD);
            local.push(&vec![7; len])?;
            Ok(Some(Delivery {
                state: StreamState::MoreData,
                src,
                src_tid,
                remote: 0,
                local,
            }))
        }

        fn release(&self, _: &SimContext, _: Delivery) -> Result<()> {
            Ok(())
        }

        fn bytes_received(&self) -> u64 {
            0
        }
    }

    /// A [`Delivering`] endpoint over a fresh test region.
    fn delivering(kernel: &Kernel, left: Vec<(NodeId, u16, usize)>) -> Arc<Delivering> {
        Arc::new(Delivering {
            region: MemoryRegion::new_for_tests(kernel, 0, 1, HEADER_LEN + PAYLOAD),
            left: Mutex::new(left),
        })
    }

    /// Pulls worker 0 of `op` until it fails or hands out an empty
    /// Depleted batch; returns each call's outcome as `(state, rows)`, or
    /// the error, beside the ledger's total once the call returned.
    fn pump(kernel: &Kernel, op: ReceiveOperator, ledger: &Arc<FlowLedger>) -> Vec<String> {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let (out, ledger) = (calls.clone(), ledger.clone());
        kernel.spawn(0, "receive", move |sim| loop {
            let next = op.next(&sim, 0);
            let stop = !matches!(&next, Ok((StreamState::MoreData, _)));
            let next = next.map(|(state, batch)| (state, batch.rows()));
            out.lock().push(format!("{next:?} {}", ledger.total_rows()));
            if stop {
                break;
            }
        });
        kernel.run();
        let calls = calls.lock().clone();
        calls
    }

    /// RECEIVE allocates each batch once, on its first delivery, for
    /// `batch_rows` plus one delivery: at one message size the batch
    /// that overshoots `batch_rows` keeps the capacity it was made with
    /// instead of doubling, and an empty end-of-stream batch allocates
    /// nothing.
    #[test]
    fn receive_batch_is_sized_once_on_its_first_delivery() {
        // 10-byte rows, ten to a delivery; a batch goes out at 32 rows,
        // so the fourth delivery overshoots it.
        const ROW: usize = 10;
        let kernel = Kernel::new();
        let op = ReceiveOperator::with_lanes(
            vec![delivering(&kernel, vec![(0, 0, PAYLOAD); 9])],
            ROW,
            32,
            1,
            CostModel::from_profile(&DeviceProfile::edr()),
        );
        let batches = Arc::new(Mutex::new(Vec::new()));
        let out = batches.clone();
        kernel.spawn(0, "receive", move |sim| loop {
            let (state, batch) = op.next(&sim, 0).unwrap();
            let capacity = batch.data.capacity();
            out.lock().push((state, batch.rows(), capacity));
            if state == StreamState::Depleted && batch.is_empty() {
                break;
            }
        });
        kernel.run();
        use StreamState::{Depleted, MoreData};
        let sized = (32 + PAYLOAD / ROW) * ROW;
        assert_eq!(
            *batches.lock(),
            [
                (MoreData, 40, sized),
                (MoreData, 40, sized),
                (Depleted, 10, sized),
                (Depleted, 0, 0),
            ]
        );
    }

    /// The recording RECEIVE hands out each delivery as a batch of its
    /// own, whatever `batch_rows` says, and advances the delivery's flow
    /// as it returns the batch: two sending nodes x two threads are four
    /// watermarks under the nodes the deliveries name. A zero-length
    /// delivery hands out nothing and counts nothing.
    #[test]
    fn recording_receive_counts_each_delivery_under_its_senders_node() {
        const ROW: usize = 10;
        let kernel = Kernel::new();
        let deliveries = vec![
            (0, 0, 30),
            (0, 1, 50),
            (2, 0, 0),
            (2, 0, 20),
            (2, 1, 100),
            (0, 0, 10),
        ];
        let ledger = Arc::new(FlowLedger::default());
        let op = ReceiveOperator::with_lanes(
            vec![delivering(&kernel, deliveries)],
            ROW,
            32,
            1,
            CostModel::from_profile(&DeviceProfile::edr()),
        )
        .recording(ledger.clone(), 1);
        assert_eq!(
            pump(&kernel, op, &ledger),
            [
                "Ok((MoreData, 3)) 3",
                "Ok((MoreData, 5)) 8",
                "Ok((MoreData, 2)) 10",
                "Ok((MoreData, 10)) 20",
                "Ok((MoreData, 1)) 21",
                "Ok((Depleted, 0)) 21",
            ]
        );
        let watermark = |src, tid| ledger.resume_skip(src, tid, &[1]);
        assert_eq!(
            [
                watermark(0, 0),
                watermark(0, 1),
                watermark(2, 0),
                watermark(2, 1)
            ],
            [4, 5, 2, 10]
        );
    }

    /// A send endpoint that keeps each data message's destination, the
    /// worker that filled it, and its payload.
    struct Sent {
        region: MemoryRegion,
        messages: Mutex<Vec<(NodeId, u16, Vec<u8>)>>,
    }

    impl SendEndpoint for Sent {
        fn send(&self, _: &SimContext, buf: Buffer, dest: &[NodeId], _: StreamState) -> Result<()> {
            if !buf.is_empty() {
                let payload = buf.with_payload(|p| p.to_vec())?;
                self.messages.lock().push((dest[0], buf.tag(), payload));
            }
            Ok(())
        }

        fn get_free(&self, _: &SimContext) -> Result<Buffer> {
            Ok(Buffer::new(self.region.clone(), 0, HEADER_LEN + PAYLOAD))
        }
    }

    /// A child handing each worker its rows in one Depleted batch.
    struct PerWorker(Vec<Mutex<Option<RowBatch>>>);

    impl Operator for PerWorker {
        fn next(&self, _: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
            let batch = self.0[tid].lock().take();
            Ok((StreamState::Depleted, batch.unwrap_or(RowBatch::new(1, 0))))
        }
    }

    /// The partial-retry round trip: two recording RECEIVEs (nodes 1 and
    /// 2) write what node 0's two workers got through, and a SHUFFLE
    /// resumed from the ledger skips exactly those rows per `(worker,
    /// group)` and sends the rest, in order.
    #[test]
    fn a_shuffle_resumed_from_the_ledger_sends_what_no_receiver_counted() {
        const ROW: usize = 16;
        let kernel = Kernel::new();
        let cost = CostModel::from_profile(&DeviceProfile::edr());
        let ledger = Arc::new(FlowLedger::default());
        // Node 0's worker 0 got 3 rows to node 1 and 2 to node 2 through;
        // worker 1 got 1 row to node 1.
        let received = [
            (1, vec![(0, 0, 3 * ROW), (0, 1, ROW)]),
            (2, vec![(0, 0, 2 * ROW)]),
        ];
        for (node, deliveries) in received {
            let op = ReceiveOperator::with_lanes(
                vec![delivering(&kernel, deliveries)],
                ROW,
                1,
                1,
                cost.clone(),
            )
            .recording(ledger.clone(), node);
            pump(&kernel, op, &ledger);
        }
        // Worker `tid` replays 20 rows keyed `100 * tid + i`.
        let row = |tid: usize, i: usize| {
            let mut row = [0; ROW];
            row[..8].copy_from_slice(&((100 * tid + i) as u64).to_le_bytes());
            row
        };
        let child = PerWorker(
            (0..2)
                .map(|tid| {
                    let mut batch = RowBatch::new(ROW, 20);
                    (0..20).for_each(|i| batch.push_row(&row(tid, i)));
                    Mutex::new(Some(batch))
                })
                .collect(),
        );
        let endpoint = Arc::new(Sent {
            region: MemoryRegion::new_for_tests(&kernel, 0, 1, HEADER_LEN + PAYLOAD),
            messages: Mutex::new(Vec::new()),
        });
        let op = Arc::new(
            ShuffleOperator::with_lanes(
                Arc::new(child),
                vec![endpoint.clone()],
                TransmissionGroups::new(vec![vec![1], vec![2]]),
                2,
                cost,
            )
            .resume_from(&ledger, 0),
        );
        for tid in 0..2 {
            let op = op.clone();
            kernel.spawn(0, "shuffle", move |sim| {
                op.next(&sim, tid).unwrap();
            });
        }
        kernel.run();
        let mut sent = std::collections::BTreeMap::<_, Vec<u8>>::new();
        for (dest, tid, payload) in endpoint.messages.lock().iter() {
            sent.entry((*tid as usize, *dest))
                .or_default()
                .extend(payload);
        }
        let skips = [[3, 2], [1, 0]];
        for (tid, skip) in skips.into_iter().enumerate() {
            for (group, dest) in [1, 2].into_iter().enumerate() {
                let to_dest = (0..20)
                    .map(|i| row(tid, i))
                    .filter(|r| default_partition_hash(r) % 2 == group as u64);
                let expected: Vec<u8> = to_dest.skip(skip[group]).flatten().collect();
                assert!(!expected.is_empty(), "worker {tid} sends node {dest} rows");
                assert_eq!(sent[&(tid, dest)], expected, "worker {tid} to node {dest}");
            }
        }
    }

    #[test]
    fn write_row_keeps_a_whole_row_and_takes_back_any_other() {
        let mut batch = RowBatch::new(4, 2);
        batch.push_row(&[1, 2, 3, 4]);
        assert!(batch
            .write_row(|out| out.extend_from_slice(&[5, 6, 7, 8]))
            .is_ok());
        for width in [0, 3, 5, 8] {
            let wrote = batch.write_row(|out| out.resize(out.len() + width, 9));
            assert!(
                matches!(wrote, Err(ShuffleError::Config(_))),
                "{width}: {wrote:?}"
            );
        }
        let rows: Vec<&[u8]> = batch.iter().collect();
        assert_eq!(rows, [[1, 2, 3, 4], [5, 6, 7, 8]]);
    }
}
