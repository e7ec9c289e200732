//! Relational operators over the pull-based vectorized interface.
//!
//! Each operator charges a calibrated CPU cost per batch so that query
//! fragments consume realistic virtual time; the constants follow the cost
//! model of the device profiles (memory-bandwidth-bound scans, a few
//! nanoseconds per hashed tuple).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{Operator, Result, RowBatch, ShuffleError, StreamState};
use rshuffle_simnet::{resource::transfer_time, SimBarrier, SimContext, SimDuration};

use crate::table::Table;

/// Default rows per vectorized batch.
pub const BATCH_ROWS: usize = 1024;

/// Extracts an unsigned 64-bit key from a row (hash keys, group keys).
pub type RowKeyFn = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;
/// Emits a joined output row from a build row and a probe row.
pub type JoinEmitFn = Arc<dyn Fn(&[u8], &[u8], &mut Vec<u8>) + Send + Sync>;
/// Folds a row into its group accumulator.
pub type FoldFn = Arc<dyn Fn(&mut Vec<u8>, &[u8]) + Send + Sync>;
/// Builds the initial accumulator for a new group.
pub type InitFn = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// Scans a [`Table`] fragment, block-partitioned across threads.
pub struct MemScan {
    table: Table,
    threads: usize,
    /// Next row index per thread.
    cursor: Vec<AtomicUsize>,
    /// Memory scan bandwidth per core, bytes/second.
    scan_bandwidth: f64,
}

impl MemScan {
    /// Creates a scan over `table` for `threads` workers. `scan_bandwidth`
    /// is the per-core sequential read bandwidth (bytes/s).
    pub fn new(table: Table, threads: usize, scan_bandwidth: f64) -> Self {
        MemScan {
            cursor: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            table,
            threads,
            scan_bandwidth,
        }
    }
}

impl Operator for MemScan {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let range = self.table.thread_range(tid, self.threads);
        let mut batch = RowBatch::new(self.table.row_size(), BATCH_ROWS);
        let start = range.start + self.cursor[tid].load(Ordering::Relaxed);
        let end = (start + BATCH_ROWS).min(range.end);
        for i in start..end {
            batch.push_row(self.table.row(i));
        }
        self.cursor[tid].fetch_add(end.saturating_sub(start), Ordering::Relaxed);
        if !batch.is_empty() {
            sim.sleep(transfer_time(batch.bytes(), self.scan_bandwidth));
        }
        let state = if end >= range.end {
            StreamState::Depleted
        } else {
            StreamState::MoreData
        };
        Ok((state, batch))
    }
}

/// Generates the synthetic table R(a, b) of §5.1 on the fly: two 8-byte
/// integer attributes, `a` uniformly distributed and randomized.
pub struct Generator {
    rows_per_thread: usize,
    cursor: Vec<AtomicUsize>,
    /// Seed mixed into the key stream (vary per node).
    seed: u64,
    /// Generation cost per tuple (a memory-bandwidth-bound scan surrogate).
    per_tuple: SimDuration,
}

impl Generator {
    /// Creates a generator emitting `rows_per_thread` rows on each of
    /// `threads` workers.
    pub fn new(rows_per_thread: usize, threads: usize, seed: u64) -> Self {
        Generator {
            rows_per_thread,
            cursor: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            seed,
            per_tuple: SimDuration::from_nanos(1),
        }
    }

    /// The 16-byte row for `(seed, tid, seq)`: a = splitmix64 stream
    /// (uniform, randomized), b = sequence tag.
    pub fn row(seed: u64, tid: usize, seq: usize) -> [u8; 16] {
        let mut x = seed ^ ((tid as u64) << 40) ^ seq as u64;
        // splitmix64 finalizer: uniform key distribution.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let mut row = [0u8; 16];
        row[0..8].copy_from_slice(&x.to_le_bytes());
        row[8..16].copy_from_slice(&(seq as u64).to_le_bytes());
        row
    }
}

impl Operator for Generator {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let done = self.cursor[tid].load(Ordering::Relaxed);
        let take = BATCH_ROWS.min(self.rows_per_thread - done);
        let mut batch = RowBatch::new(16, take);
        for seq in done..done + take {
            batch.push_row(&Self::row(self.seed, tid, seq));
        }
        self.cursor[tid].fetch_add(take, Ordering::Relaxed);
        if take > 0 {
            sim.sleep(self.per_tuple * take as u64);
        }
        let state = if done + take >= self.rows_per_thread {
            StreamState::Depleted
        } else {
            StreamState::MoreData
        };
        Ok((state, batch))
    }
}

/// Filters rows by a predicate.
pub struct Filter<F> {
    child: Arc<dyn Operator>,
    pred: F,
    per_tuple: SimDuration,
}

impl<F: Fn(&[u8]) -> bool + Send + Sync> Filter<F> {
    /// Creates a filter charging `per_tuple` CPU per input row.
    pub fn new(child: Arc<dyn Operator>, pred: F, per_tuple: SimDuration) -> Self {
        Filter {
            child,
            pred,
            per_tuple,
        }
    }
}

impl<F: Fn(&[u8]) -> bool + Send + Sync> Operator for Filter<F> {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if batch.is_empty() {
            return Ok((state, batch));
        }
        sim.sleep(self.per_tuple * batch.rows() as u64);
        let mut out = RowBatch::new(batch.row_size(), batch.rows());
        for row in batch.iter() {
            if (self.pred)(row) {
                out.push_row(row);
            }
        }
        Ok((state, out))
    }
}

/// Projects each row to a new (usually narrower) row.
pub struct Project<F> {
    child: Arc<dyn Operator>,
    out_size: usize,
    f: F,
    per_tuple: SimDuration,
}

impl<F: Fn(&[u8], &mut Vec<u8>) + Send + Sync> Project<F> {
    /// Creates a projection producing `out_size`-byte rows; `f` appends the
    /// projected row bytes for each input row.
    pub fn new(child: Arc<dyn Operator>, out_size: usize, f: F, per_tuple: SimDuration) -> Self {
        Project {
            child,
            out_size,
            f,
            per_tuple,
        }
    }
}

impl<F: Fn(&[u8], &mut Vec<u8>) + Send + Sync> Operator for Project<F> {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if batch.is_empty() {
            return Ok((state, RowBatch::new(self.out_size, 0)));
        }
        sim.sleep(self.per_tuple * batch.rows() as u64);
        let mut out = RowBatch::new(self.out_size, batch.rows());
        let mut scratch = Vec::with_capacity(self.out_size);
        for row in batch.iter() {
            scratch.clear();
            (self.f)(row, &mut scratch);
            if scratch.len() != self.out_size {
                return Err(ShuffleError::Config(format!(
                    "projection produced {} bytes, expected {}",
                    scratch.len(),
                    self.out_size
                )));
            }
            out.push_row(&scratch);
        }
        Ok((state, out))
    }
}

/// In-memory hash join: builds a shared hash table from the build child,
/// then streams the probe child (Grace-style, one partition per node after
/// shuffling).
pub struct HashJoin {
    build: Arc<dyn Operator>,
    probe: Arc<dyn Operator>,
    build_key: RowKeyFn,
    probe_key: RowKeyFn,
    /// Emits the joined output row.
    emit: JoinEmitFn,
    out_size: usize,
    table: Mutex<HashMap<u64, Vec<Vec<u8>>>>,
    barrier: SimBarrier,
    /// Whether each thread has completed the build phase.
    built: Vec<AtomicBool>,
    hash_cost: SimDuration,
}

impl HashJoin {
    /// Creates a hash join for `threads` workers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &rshuffle_simnet::Kernel,
        build: Arc<dyn Operator>,
        probe: Arc<dyn Operator>,
        build_key: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
        probe_key: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
        emit: impl Fn(&[u8], &[u8], &mut Vec<u8>) + Send + Sync + 'static,
        out_size: usize,
        threads: usize,
        hash_cost: SimDuration,
    ) -> Self {
        HashJoin {
            build,
            probe,
            build_key: Arc::new(build_key),
            probe_key: Arc::new(probe_key),
            emit: Arc::new(emit),
            out_size,
            table: Mutex::new(HashMap::new()),
            barrier: SimBarrier::new(kernel, threads),
            built: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            hash_cost,
        }
    }

    /// Drains the build child on this thread and inserts into the shared
    /// table; all threads must pass through before probing starts.
    fn build_phase(&self, sim: &SimContext, tid: usize) -> Result<()> {
        loop {
            let (state, batch) = self.build.next(sim, tid)?;
            if !batch.is_empty() {
                sim.sleep(self.hash_cost * batch.rows() as u64);
                let mut table = self.table.lock();
                for row in batch.iter() {
                    table
                        .entry((self.build_key)(row))
                        .or_default()
                        .push(row.to_vec());
                }
            }
            if state == StreamState::Depleted {
                break;
            }
        }
        self.barrier.wait(sim);
        Ok(())
    }
}

impl Operator for HashJoin {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        if !self.built[tid].load(Ordering::SeqCst) {
            self.build_phase(sim, tid)?;
            self.built[tid].store(true, Ordering::SeqCst);
        }
        let mut out = RowBatch::new(self.out_size, BATCH_ROWS);
        let mut scratch = Vec::with_capacity(self.out_size);
        loop {
            if out.rows() >= BATCH_ROWS {
                return Ok((StreamState::MoreData, out));
            }
            let (state, batch) = self.probe.next(sim, tid)?;
            if !batch.is_empty() {
                sim.sleep(self.hash_cost * batch.rows() as u64);
                let table = self.table.lock();
                for row in batch.iter() {
                    if let Some(matches) = table.get(&(self.probe_key)(row)) {
                        for build_row in matches {
                            scratch.clear();
                            (self.emit)(build_row, row, &mut scratch);
                            out.push_row(&scratch);
                        }
                    }
                }
            }
            if state == StreamState::Depleted {
                return Ok((StreamState::Depleted, out));
            }
        }
    }
}

/// Hash semi-join: passes probe rows through when their key exists on the
/// build side (the EXISTS subquery of TPC-H Q4, and the
/// customer-qualification join of Q3 where the build side carries no
/// payload).
pub struct HashSemiJoin {
    build: Arc<dyn Operator>,
    probe: Arc<dyn Operator>,
    build_key: RowKeyFn,
    probe_key: RowKeyFn,
    keys: Mutex<std::collections::HashSet<u64>>,
    barrier: SimBarrier,
    built: Vec<AtomicBool>,
    hash_cost: SimDuration,
}

impl HashSemiJoin {
    /// Creates a semi-join for `threads` workers.
    pub fn new(
        kernel: &rshuffle_simnet::Kernel,
        build: Arc<dyn Operator>,
        probe: Arc<dyn Operator>,
        build_key: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
        probe_key: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
        threads: usize,
        hash_cost: SimDuration,
    ) -> Self {
        HashSemiJoin {
            build,
            probe,
            build_key: Arc::new(build_key),
            probe_key: Arc::new(probe_key),
            keys: Mutex::new(std::collections::HashSet::new()),
            barrier: SimBarrier::new(kernel, threads),
            built: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            hash_cost,
        }
    }
}

impl Operator for HashSemiJoin {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        if !self.built[tid].load(Ordering::SeqCst) {
            loop {
                let (state, batch) = self.build.next(sim, tid)?;
                if !batch.is_empty() {
                    sim.sleep(self.hash_cost * batch.rows() as u64);
                    let mut keys = self.keys.lock();
                    for row in batch.iter() {
                        keys.insert((self.build_key)(row));
                    }
                }
                if state == StreamState::Depleted {
                    break;
                }
            }
            self.barrier.wait(sim);
            self.built[tid].store(true, Ordering::SeqCst);
        }
        let (state, batch) = self.probe.next(sim, tid)?;
        if batch.is_empty() {
            return Ok((state, batch));
        }
        sim.sleep(self.hash_cost * batch.rows() as u64);
        let keys = self.keys.lock();
        let mut out = RowBatch::new(batch.row_size(), batch.rows());
        for row in batch.iter() {
            if keys.contains(&(self.probe_key)(row)) {
                out.push_row(row);
            }
        }
        Ok((state, out))
    }
}

/// Hash aggregation: drains the child, groups by key, then emits the
/// aggregated groups (partitioned across threads).
pub struct HashAggregate {
    child: Arc<dyn Operator>,
    key: RowKeyFn,
    /// Folds a row into the accumulator for its group.
    fold: FoldFn,
    /// Initial accumulator for a new group.
    init: InitFn,
    out_size: usize,
    groups: Mutex<HashMap<u64, Vec<u8>>>,
    barrier: SimBarrier,
    /// Sorted group keys, filled once after aggregation.
    emit_order: Mutex<Vec<u64>>,
    emit_cursor: AtomicUsize,
    /// Whether each thread has completed the aggregation phase.
    aggregated: Vec<AtomicBool>,
    hash_cost: SimDuration,
}

impl HashAggregate {
    /// Creates a hash aggregation for `threads` workers producing
    /// `out_size`-byte accumulator rows.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &rshuffle_simnet::Kernel,
        child: Arc<dyn Operator>,
        key: impl Fn(&[u8]) -> u64 + Send + Sync + 'static,
        init: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
        fold: impl Fn(&mut Vec<u8>, &[u8]) + Send + Sync + 'static,
        out_size: usize,
        threads: usize,
        hash_cost: SimDuration,
    ) -> Self {
        HashAggregate {
            child,
            key: Arc::new(key),
            fold: Arc::new(fold),
            init: Arc::new(init),
            out_size,
            groups: Mutex::new(HashMap::new()),
            barrier: SimBarrier::new(kernel, threads),
            emit_order: Mutex::new(Vec::new()),
            emit_cursor: AtomicUsize::new(0),
            aggregated: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            hash_cost,
        }
    }
}

impl Operator for HashAggregate {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        if !self.aggregated[tid].load(Ordering::SeqCst) {
            loop {
                let (state, batch) = self.child.next(sim, tid)?;
                if !batch.is_empty() {
                    sim.sleep(self.hash_cost * batch.rows() as u64);
                    let mut groups = self.groups.lock();
                    for row in batch.iter() {
                        let k = (self.key)(row);
                        match groups.get_mut(&k) {
                            Some(acc) => (self.fold)(acc, row),
                            None => {
                                groups.insert(k, (self.init)(row));
                            }
                        }
                    }
                }
                if state == StreamState::Depleted {
                    break;
                }
            }
            if self.barrier.wait(sim) {
                let mut keys: Vec<u64> = self.groups.lock().keys().copied().collect();
                keys.sort_unstable();
                *self.emit_order.lock() = keys;
            }
            self.barrier.wait(sim);
            self.aggregated[tid].store(true, Ordering::SeqCst);
        }
        // Emit: threads grab group slots round-robin.
        let order = self.emit_order.lock();
        let groups = self.groups.lock();
        let mut out = RowBatch::new(self.out_size, BATCH_ROWS);
        loop {
            let i = self.emit_cursor.fetch_add(1, Ordering::SeqCst);
            if i >= order.len() {
                return Ok((StreamState::Depleted, out));
            }
            let acc = &groups[&order[i]];
            debug_assert_eq!(acc.len(), self.out_size);
            out.push_row(acc);
            if out.rows() >= BATCH_ROWS {
                return Ok((StreamState::MoreData, out));
            }
        }
    }
}

/// Adds a fixed compute cost per pulled batch — the knob of Figure 13
/// ("average time to retrieve next batch of data").
pub struct ComputeStage {
    child: Arc<dyn Operator>,
    per_batch: SimDuration,
}

impl ComputeStage {
    /// Wraps `child`, charging `per_batch` of CPU work per `next` call.
    pub fn new(child: Arc<dyn Operator>, per_batch: SimDuration) -> Self {
        ComputeStage { child, per_batch }
    }
}

impl Operator for ComputeStage {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if self.per_batch > SimDuration::ZERO && !batch.is_empty() {
            sim.sleep(self.per_batch);
        }
        Ok((state, batch))
    }
}
