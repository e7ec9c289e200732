//! The parallel, vectorized pull-based operator model and the paper's
//! SHUFFLE and RECEIVE operators (§4.3, Algorithms 1 and 2).
//!
//! Every operator implements a `NEXT(tid)` function returning a batch of
//! tuples plus a stream state; worker threads pass their id so operator
//! state and output buffers stay thread-partitioned (Figure 1).

use std::iter::repeat_n;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_simnet::{DeviceProfile, NodeId, SimContext, SimDuration};

use crate::buffer::{Buffer, StreamState};
use crate::endpoint::{ReceiveEndpoint, SendEndpoint};
use crate::error::{Result, ShuffleError};
use crate::group::TransmissionGroups;
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
    /// the recovery orchestrator seeds this with the receivers' delivered
    /// watermarks so a partial retry does not resend rows that already
    /// arrived. All zeros (no skipping) on a fresh run. Worker `tid` takes
    /// its row out for the duration of `next` and puts it back on return.
    resume_skip: Vec<Mutex<Vec<u64>>>,
    threads: usize,
    cost: CostModel,
    /// Phase-scheduled transmission: the cluster-wide runner plus this
    /// node's id in the schedule. `None` (the default) keeps the classic
    /// interleaved Algorithm 1 transmission order.
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
                .map(|_| Mutex::new(vec![0; n_groups]))
                .collect(),
            threads,
            cost,
            phases: None,
        }
    }

    /// Seeds per-`(tid, group)` resume skips: worker `tid` silently drops
    /// its first `skip[tid][group]` rows hashing to `group` instead of
    /// transmitting them. Because the child replays rows in the same order
    /// and the partition hash is deterministic, this fast-forwards a
    /// retried flow past everything the receivers already consumed.
    ///
    /// # Panics
    ///
    /// Panics if `skip` is not `threads x groups`.
    pub fn with_resume_skip(self, skip: Vec<Vec<u64>>) -> Self {
        assert_eq!(skip.len(), self.threads, "need one skip row per thread");
        for (tid, per_group) in skip.into_iter().enumerate() {
            let mut slot = self.resume_skip[tid].lock();
            assert_eq!(per_group.len(), slot.len(), "need one skip per group");
            *slot = per_group;
        }
        self
    }

    /// Switches transmission to the phase-scheduled order: stage all rows
    /// per destination, then transmit one destination per schedule phase,
    /// crossing `runner`'s cluster-wide barrier between phases. `node` is
    /// this operator's node id in the schedule.
    /// [`crate::Exchange::shuffle_operator`] calls this where the schedule
    /// wants it.
    pub fn with_phases(mut self, runner: Arc<PhaseRunner>, node: NodeId) -> Self {
        self.phases = Some((runner, node));
        self
    }

    fn endpoint(&self, tid: usize) -> &Arc<dyn SendEndpoint> {
        &self.endpoints[tid % self.endpoints.len()]
    }

    /// The phase-scheduled transmission loop. Any error aborts the runner
    /// (in the caller) so peers blocked on the barrier fail fast instead
    /// of timing out.
    fn next_phased(
        &self,
        sim: &SimContext,
        tid: usize,
        runner: &Arc<PhaseRunner>,
        node: NodeId,
        skip: &mut [u64],
    ) -> Result<(StreamState, RowBatch)> {
        let target = self.endpoint(tid).clone();
        let schedule = runner.schedule();
        // `Exchange::build` enforces singleton groups under phasing; map
        // each destination node back to its group index.
        let mut group_of: Vec<Option<usize>> = vec![None; schedule.nodes()];
        for i in 0..self.groups.len() {
            let g = self.groups.group(i);
            if g.len() == 1 && g[0] < group_of.len() {
                group_of[g[0]] = Some(i);
            }
        }
        // Stage: hash every row of the child into its destination bin
        // (plain memory; the copy into RDMA-registered buffers is charged
        // per phase below, so total CPU cost matches the unphased path).
        let mut staged: Vec<Vec<u8>> = vec![Vec::new(); self.groups.len()];
        // Row lengths as `(length, rows)` runs: a batch's rows are all one
        // width, and a length per 16-byte row would be half the staging.
        let mut staged_lens: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.groups.len()];
        loop {
            let (state, batch) = self.child.next(sim, tid)?;
            if !batch.is_empty() {
                sim.sleep(self.cost.hash_per_tuple * batch.rows() as u64);
            }
            for row in batch.iter() {
                let dest = (default_partition_hash(row) % self.groups.len() as u64) as usize;
                if skip[dest] > 0 {
                    skip[dest] -= 1;
                    continue;
                }
                staged[dest].extend_from_slice(row);
                match staged_lens[dest].last_mut() {
                    Some((len, rows)) if *len == row.len() => *rows += 1,
                    _ => staged_lens[dest].push((row.len(), 1)),
                }
            }
            if state == StreamState::Depleted {
                break;
            }
        }
        // Transmit: one destination per phase. The barrier is crossed
        // once per super-round (every PHASE_GROUP phases): inside a
        // super-round lanes drift at most PHASE_GROUP − 1 phases apart,
        // so an ingress port never serves more than PHASE_GROUP bulk
        // senders — still under the incast knee — while slow lanes
        // catch up without stretching every peer's round.
        for p in 0..schedule.num_phases() {
            if p % crate::phase::PHASE_GROUP == 0 {
                runner.wait(sim, p)?;
            }
            let Some(dest_node) = schedule.dest_of(p, node) else {
                continue;
            };
            let Some(dest) = group_of.get(dest_node).copied().flatten() else {
                continue;
            };
            let bytes = std::mem::take(&mut staged[dest]);
            let lens = std::mem::take(&mut staged_lens[dest]);
            if !bytes.is_empty() {
                sim.sleep(self.cost.copy_time(bytes.len()));
                // Walk the rows to find where each message ends — a row
                // that no longer fits sends the buffer and takes the next
                // one, exactly where pushing row by row would — and write
                // a message's rows into its buffer in one piece.
                let mut cur: Option<Buffer> = None;
                let (mut start, mut end) = (0usize, 0usize);
                for len in lens.into_iter().flat_map(|(len, rows)| repeat_n(len, rows)) {
                    let mut buf = match cur.take() {
                        Some(b) => b,
                        None => {
                            let mut b = target.get_free(sim)?;
                            b.set_tag(tid as u16);
                            b
                        }
                    };
                    if buf.capacity().saturating_sub(end - start) < len {
                        buf.push(&bytes[start..end])?;
                        start = end;
                        target.send(sim, buf, self.groups.group(dest), StreamState::MoreData)?;
                        buf = target.get_free(sim)?;
                        buf.set_tag(tid as u16);
                    }
                    end += len;
                    cur = Some(buf);
                }
                if let Some(mut buf) = cur {
                    if end > start {
                        buf.push(&bytes[start..end])?;
                        target.send(sim, buf, self.groups.group(dest), StreamState::MoreData)?;
                    }
                }
            }
            // A phase is only contention-free if the previous one has left
            // the fabric: wait for the endpoint to drain toward this
            // destination before reporting the phase done.
            target.quiesce(sim, dest_node)?;
        }
        // Propagate Depleted (same last-thread-per-lane rule as the
        // unphased path).
        let lane = tid % self.endpoints.len();
        let last = self.lane_remaining[lane].fetch_sub(1, Ordering::SeqCst) == 1;
        if last {
            for d in self.groups.destinations() {
                let mut buf = target.get_free(sim)?;
                buf.set_tag(tid as u16);
                target.send(sim, buf, &[d], StreamState::Depleted)?;
            }
        }
        Ok((StreamState::Depleted, RowBatch::new(1, 0)))
    }
}

impl ShuffleOperator {
    /// The classic interleaved Algorithm 1 transmission loop.
    fn next_streamed(
        &self,
        sim: &SimContext,
        tid: usize,
        skip: &mut [u64],
    ) -> Result<(StreamState, RowBatch)> {
        let target = self.endpoint(tid).clone();
        // Per transmission group: the buffer being filled, and the rows
        // staged for it. Rows are staged in plain memory and written into
        // the registered window once per message (a write into registered
        // memory takes the region's lock and resolves the window); the
        // buffer is still taken when its first row arrives and sent when a
        // row no longer fits, so the endpoint sees the same calls at the
        // same rows.
        let mut outbuf: Vec<Option<Buffer>> = vec![None; self.groups.len()];
        let mut staged: Vec<Vec<u8>> = vec![Vec::new(); self.groups.len()];
        let flush = |mut buf: Buffer, rows: &mut Vec<u8>, dest: usize| -> Result<()> {
            buf.push(rows)?;
            rows.clear();
            target.send(sim, buf, self.groups.group(dest), StreamState::MoreData)
        };
        loop {
            let (state, batch) = self.child.next(sim, tid)?;
            if !batch.is_empty() {
                // Charge hashing and the copy into RDMA-registered memory.
                sim.sleep(self.cost.hash_per_tuple * batch.rows() as u64);
                sim.sleep(self.cost.copy_time(batch.bytes()));
            }
            for row in batch.iter() {
                let dest = (default_partition_hash(row) % self.groups.len() as u64) as usize;
                if skip[dest] > 0 {
                    skip[dest] -= 1;
                    continue;
                }
                let (slot, rows) = (&mut outbuf[dest], &mut staged[dest]);
                if let Some(full) =
                    slot.take_if(|b| b.capacity().saturating_sub(rows.len()) < row.len())
                {
                    flush(full, rows, dest)?;
                }
                if slot.is_none() {
                    let b = slot.insert(target.get_free(sim)?);
                    b.set_tag(tid as u16);
                    rows.reserve_exact(b.capacity());
                }
                rows.extend_from_slice(row);
            }
            if state == StreamState::Depleted {
                break;
            }
        }
        // Flush every partial buffer, freeing its staging as it goes.
        for (dest, (buf, mut rows)) in outbuf.into_iter().zip(staged).enumerate() {
            if let Some(buf) = buf.filter(|_| !rows.is_empty()) {
                flush(buf, &mut rows, dest)?;
            }
        }
        // Propagate Depleted: the last thread of each lane closes that
        // lane's endpoint (Algorithm 1, lines 14–17).
        let lane = tid % self.endpoints.len();
        let last = self.lane_remaining[lane].fetch_sub(1, Ordering::SeqCst) == 1;
        if last {
            for d in self.groups.destinations() {
                let mut buf = target.get_free(sim)?;
                buf.set_tag(tid as u16);
                target.send(sim, buf, &[d], StreamState::Depleted)?;
            }
        }
        Ok((StreamState::Depleted, RowBatch::new(1, 0)))
    }
}

impl Operator for ShuffleOperator {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        assert!(tid < self.threads, "tid {tid} out of range");
        // `next` consumes the whole child stream and returns only at
        // Depleted (or on an error), so the per-row state — the skip
        // counters here, the output buffers in the loops — is call-local
        // and the row path takes no lock.
        let mut skip = std::mem::take(&mut *self.resume_skip[tid].lock());
        let res = match &self.phases {
            // A source the skew-aware schedule exempted streams through
            // the ordinary unphased path: it is not a barrier party and
            // owes the schedule nothing. (The exchange does not phase
            // such a source's operator in the first place; the guard is
            // for whoever calls `with_phases` on every node.)
            Some((runner, node)) if !runner.schedule().is_free(*node) => {
                let res = self.next_phased(sim, tid, runner, *node, &mut skip);
                if res.is_err() {
                    runner.abort();
                }
                res
            }
            _ => self.next_streamed(sim, tid, &mut skip),
        };
        *self.resume_skip[tid].lock() = skip;
        res
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
        }
    }

    fn endpoint(&self, tid: usize) -> &Arc<dyn ReceiveEndpoint> {
        &self.endpoints[tid % self.endpoints.len()]
    }
}

impl Operator for ReceiveOperator {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        assert!(tid < self.threads, "tid {tid} out of range");
        let target = self.endpoint(tid).clone();
        let mut out = RowBatch::new(self.row_size, self.batch_rows);
        loop {
            match target.get_data(sim)? {
                Some(delivery) => {
                    if delivery.local.len() % self.row_size != 0 {
                        return Err(ShuffleError::Config(format!(
                            "received {} bytes, not a multiple of {}-byte rows",
                            delivery.local.len(),
                            self.row_size
                        )));
                    }
                    // Copy out of RDMA-registered memory (Algorithm 2,
                    // line 8) and charge the copy.
                    sim.sleep(self.cost.copy_time(delivery.local.len()));
                    delivery.local.with_payload(|p| out.extend_rows(p))?;
                    target.release(sim, delivery.remote, delivery.local, delivery.src)?;
                    if out.rows() >= self.batch_rows {
                        return Ok((StreamState::MoreData, out));
                    }
                }
                None => return Ok((StreamState::Depleted, out)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
