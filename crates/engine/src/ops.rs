//! Relational operators over the pull-based vectorized interface.
//!
//! Each operator charges a calibrated CPU cost per batch so that query
//! fragments consume realistic virtual time; the constants follow the cost
//! model of the device profiles (memory-bandwidth-bound scans, a few
//! nanoseconds per hashed tuple).

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{Operator, Result, RowBatch, ShuffleError, StreamState};
use rshuffle_simnet::{
    resource::transfer_time, KeyMap, KeySet, SimBarrier, SimContext, SimDuration,
};

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
        let start = (range.start + self.cursor[tid].load(Ordering::Relaxed)).min(range.end);
        let end = (start + BATCH_ROWS).min(range.end);
        let mut batch = RowBatch::new(self.table.row_size(), end - start);
        batch.extend_rows(self.table.row_run(start..end));
        self.cursor[tid].fetch_add(end - start, Ordering::Relaxed);
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
        for row in batch.iter() {
            out.write_row(|to| (self.f)(row, to))?;
        }
        Ok((state, out))
    }
}

/// The build side of a [`HashJoin`]: every build row back to back in one
/// arena, in the order it was built, and per key a chain through those
/// rows — `chains` holds a key's first and last row, `next` each row's
/// successor under its key. A key's matches come out in build order.
#[derive(Default)]
struct JoinTable {
    row_size: usize,
    arena: Vec<u8>,
    next: Vec<usize>,
    chains: KeyMap<u64, (usize, usize)>,
}

/// The end of a chain.
const CHAIN_END: usize = usize::MAX;

impl JoinTable {
    /// Appends the rows of `batch` under their `key`s.
    fn insert(&mut self, batch: &RowBatch, key: &RowKeyFn) -> Result<()> {
        if self.arena.is_empty() {
            self.row_size = batch.row_size();
        } else if batch.row_size() != self.row_size {
            return Err(ShuffleError::Config(format!(
                "join build side changed from {}-byte to {}-byte rows",
                self.row_size,
                batch.row_size()
            )));
        }
        for row in batch.iter() {
            let at = self.next.len();
            self.arena.extend_from_slice(row);
            self.next.push(CHAIN_END);
            match self.chains.entry(key(row)) {
                Entry::Occupied(mut chain) => {
                    let last = &mut chain.get_mut().1;
                    self.next[*last] = at;
                    *last = at;
                }
                Entry::Vacant(chain) => {
                    chain.insert((at, at));
                }
            }
        }
        Ok(())
    }

    /// The rows built under `key`, in build order.
    fn matches(&self, key: u64) -> impl Iterator<Item = &[u8]> {
        let mut at = self.chains.get(&key).map_or(CHAIN_END, |&(first, _)| first);
        std::iter::from_fn(move || {
            if at == CHAIN_END {
                return None;
            }
            let row = &self.arena[at * self.row_size..(at + 1) * self.row_size];
            at = self.next[at];
            Some(row)
        })
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
    table: Mutex<JoinTable>,
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
            table: Mutex::default(),
            barrier: SimBarrier::new(kernel, threads, SimDuration::ZERO),
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
                self.table.lock().insert(&batch, &self.build_key)?;
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
        loop {
            if out.rows() >= BATCH_ROWS {
                return Ok((StreamState::MoreData, out));
            }
            let (state, batch) = self.probe.next(sim, tid)?;
            if !batch.is_empty() {
                sim.sleep(self.hash_cost * batch.rows() as u64);
                let table = self.table.lock();
                for row in batch.iter() {
                    for build_row in table.matches((self.probe_key)(row)) {
                        out.write_row(|to| (self.emit)(build_row, row, to))?;
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
    keys: Mutex<KeySet<u64>>,
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
            keys: Mutex::default(),
            barrier: SimBarrier::new(kernel, threads, SimDuration::ZERO),
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
    groups: Mutex<KeyMap<u64, Vec<u8>>>,
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
            groups: Mutex::default(),
            barrier: SimBarrier::new(kernel, threads, SimDuration::ZERO),
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
                        match groups.entry((self.key)(row)) {
                            Entry::Occupied(acc) => (self.fold)(acc.into_mut(), row),
                            Entry::Vacant(slot) => {
                                slot.insert((self.init)(row));
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
            out.write_row(|to| to.extend_from_slice(acc))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drive_to_sink;
    use proptest::prelude::*;
    use rshuffle_simnet::{Cluster, DeviceProfile, Kernel};

    const HASH: SimDuration = SimDuration::from_nanos(4);
    const SCAN: f64 = 8e9;

    /// The 16-byte row `(a, b)`.
    fn pair(a: u64, b: u64) -> [u8; 16] {
        let mut row = [0u8; 16];
        row[..8].copy_from_slice(&a.to_le_bytes());
        row[8..].copy_from_slice(&b.to_le_bytes());
        row
    }

    /// A table of `(key, tag)` rows.
    fn keyed(rows: &[(u64, u64)]) -> Table {
        let mut b = Table::builder(16);
        for &(key, tag) in rows {
            b.push(&pair(key, tag));
        }
        b.build()
    }

    fn word(row: &[u8], at: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&row[at..at + 8]);
        u64::from_le_bytes(b)
    }

    fn key(row: &[u8]) -> u64 {
        word(row, 0)
    }

    fn scan(rows: &[(u64, u64)], threads: usize) -> Arc<dyn Operator> {
        Arc::new(MemScan::new(keyed(rows), threads, SCAN))
    }

    /// What a fragment's sink was handed.
    struct Pulled {
        /// Every non-empty batch, with the worker that pulled it, in the
        /// order the sink saw them.
        batches: Vec<(usize, RowBatch)>,
        errors: Vec<ShuffleError>,
    }

    impl Pulled {
        /// Every 16-byte row as `(word 0, word 1)`, in sink order.
        fn pairs(&self) -> Vec<(u64, u64)> {
            let rows = self.batches.iter().flat_map(|(_, batch)| batch.iter());
            rows.map(|row| (word(row, 0), word(row, 8))).collect()
        }
    }

    /// Pulls the operator `make` builds to depletion on `threads` workers
    /// of a one-node cluster.
    fn pull(threads: usize, make: impl FnOnce(&Kernel) -> Arc<dyn Operator>) -> Pulled {
        let cluster = Cluster::new(1, DeviceProfile::edr());
        let op = make(cluster.kernel());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let stats = drive_to_sink(&cluster, 0, "op", op, threads, move |tid, batch| {
            sink.lock().push((tid, batch.clone()))
        });
        cluster.run();
        let errors = std::mem::take(&mut stats.lock().errors);
        let batches = std::mem::take(&mut *seen.lock());
        Pulled { batches, errors }
    }

    /// An equi-join on word 0 emitting `(build tag, probe tag)`.
    fn tag_join(
        kernel: &Kernel,
        build: &[(u64, u64)],
        probe: &[(u64, u64)],
        threads: usize,
    ) -> Arc<dyn Operator> {
        Arc::new(HashJoin::new(
            kernel,
            scan(build, threads),
            scan(probe, threads),
            key,
            key,
            |b, p, out| {
                out.extend_from_slice(&b[8..16]);
                out.extend_from_slice(&p[8..16]);
            },
            16,
            threads,
            HASH,
        ))
    }

    /// The join's answer the slow way: per probe row in order, every
    /// build row with its key in build order.
    fn nested_loop(build: &[(u64, u64)], probe: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for &(pk, pt) in probe {
            for &(bk, bt) in build {
                if bk == pk {
                    out.push((bt, pt));
                }
            }
        }
        out
    }

    #[test]
    fn hash_join_gives_duplicate_build_keys_in_build_order() {
        // 3 000 build rows over seven keys: each key's chain crosses
        // build batches.
        let build: Vec<(u64, u64)> = (0..3_000).map(|i| (i % 7, i)).collect();
        let probe: Vec<(u64, u64)> = [3, 0, 6, 3, 9].into_iter().zip(10_000..).collect();
        let pulled = pull(1, |k| tag_join(k, &build, &probe, 1));
        assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
        let got = pulled.pairs();
        assert_eq!(got.len(), 4 * 3_000 / 7 + 1);
        assert_eq!(got, nested_loop(&build, &probe));
    }

    #[test]
    fn hash_join_probe_misses_and_an_empty_build_side_emit_nothing() {
        let build: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let probe: Vec<(u64, u64)> = (100..2_100).map(|i| (i, i)).collect();
        for (build, probe) in [(&build[..], &probe[..]), (&[][..], &build[..])] {
            let pulled = pull(2, |k| tag_join(k, build, probe, 2));
            assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
            assert!(
                pulled.batches.is_empty(),
                "{} batches",
                pulled.batches.len()
            );
        }
    }

    #[test]
    fn semi_join_passes_exactly_the_probe_rows_whose_key_was_built() {
        // Multiples of three, each built twice.
        let build: Vec<(u64, u64)> = (0..800).map(|i| (i / 2 * 3, i)).collect();
        let probe: Vec<(u64, u64)> = (0..1_500).map(|i| (i, i + 7)).collect();
        let built = |k: u64| k.is_multiple_of(3) && k < 1_200;
        let mut expected: Vec<(u64, u64)> =
            probe.iter().copied().filter(|&(k, _)| built(k)).collect();
        for threads in [1, 3] {
            let pulled = pull(threads, |k| {
                let build = scan(&build, threads);
                let probe = scan(&probe, threads);
                Arc::new(HashSemiJoin::new(k, build, probe, key, key, threads, HASH))
            });
            assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
            let mut got = pulled.pairs();
            if threads > 1 {
                got.sort_unstable();
                expected.sort_unstable();
            }
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn hash_aggregate_emits_each_group_once_in_key_order_across_threads() {
        // 2 500 groups (more than two output batches), four rows each,
        // arriving in a scrambled order.
        let rows: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 7_919 % 2_500, 1)).collect();
        let pulled = pull(3, |k| {
            Arc::new(HashAggregate::new(
                k,
                scan(&rows, 3),
                key,
                |row| {
                    let mut acc = Vec::with_capacity(16);
                    acc.extend_from_slice(row);
                    acc
                },
                |acc, row| {
                    let sum = word(acc, 8) + word(row, 8);
                    acc[8..16].copy_from_slice(&sum.to_le_bytes());
                },
                16,
                3,
                HASH,
            ))
        });
        assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
        assert!(pulled.batches.len() >= 3);
        for (_, batch) in &pulled.batches {
            assert!(batch.rows() <= BATCH_ROWS);
        }
        let expected: Vec<(u64, u64)> = (0..2_500).map(|k| (k, 4)).collect();
        assert_eq!(pulled.pairs(), expected);
    }

    /// Whether some worker stopped, and every one that did stopped on a
    /// typed configuration error.
    fn config_errors(pulled: &Pulled) -> bool {
        let config = |e: &ShuffleError| matches!(e, ShuffleError::Config(_));
        !pulled.errors.is_empty() && pulled.errors.iter().all(config)
    }

    #[test]
    fn a_join_emitting_the_wrong_width_is_a_typed_error() {
        let rows: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let pulled = pull(2, |k| {
            Arc::new(HashJoin::new(
                k,
                scan(&rows, 2),
                scan(&rows, 2),
                key,
                key,
                |b, _, out| out.extend_from_slice(&b[..15]),
                16,
                2,
                HASH,
            ))
        });
        assert!(config_errors(&pulled), "{:?}", pulled.errors);
        assert!(pulled.batches.is_empty());
    }

    #[test]
    fn an_aggregate_of_the_wrong_width_is_a_typed_error() {
        let rows: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1)).collect();
        // A short first accumulator, and one fold that grows its group's.
        let short_init = |row: &[u8]| {
            let mut acc = Vec::with_capacity(16);
            acc.extend_from_slice(&row[..8]);
            acc
        };
        let whole_init = |row: &[u8]| {
            let mut acc = Vec::with_capacity(16);
            acc.extend_from_slice(row);
            acc
        };
        let grow_five = |acc: &mut Vec<u8>, row: &[u8]| {
            if key(row) == 5 && acc.len() == 16 {
                acc.push(0);
            }
        };
        for short in [true, false] {
            let pulled = pull(2, |k| -> Arc<dyn Operator> {
                let child = scan(&rows, 2);
                if short {
                    Arc::new(HashAggregate::new(
                        k,
                        child,
                        key,
                        short_init,
                        |_, _| {},
                        16,
                        2,
                        HASH,
                    ))
                } else {
                    Arc::new(HashAggregate::new(
                        k, child, key, whole_init, grow_five, 16, 2, HASH,
                    ))
                }
            });
            assert!(
                config_errors(&pulled),
                "short init {short}: {:?}",
                pulled.errors
            );
            // Whatever was emitted is whole groups of the right width.
            for (_, batch) in &pulled.batches {
                assert_eq!(batch.row_size(), 16);
            }
        }
    }

    #[test]
    fn memscan_hands_out_every_row_once_in_bounded_batches() {
        for rows in [0, 3, BATCH_ROWS, 5_000] {
            let table: Vec<(u64, u64)> = (0..rows as u64).map(|i| (i, i)).collect();
            let blocks = keyed(&table);
            for threads in 1..=5 {
                let pulled = pull(threads, |_| scan(&table, threads));
                assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
                let mut next = vec![None; threads];
                for (tid, batch) in &pulled.batches {
                    assert!((1..=BATCH_ROWS).contains(&batch.rows()));
                    // A worker's batches walk its own block in order.
                    let range = blocks.thread_range(*tid, threads);
                    for row in batch.iter() {
                        let at = key(row) as usize;
                        let expected = next[*tid].unwrap_or(range.start);
                        assert_eq!(at, expected, "{rows} rows, {threads} threads, worker {tid}");
                        next[*tid] = Some(at + 1);
                    }
                }
                let mut seen: Vec<(u64, u64)> = pulled.pairs();
                seen.sort_unstable();
                assert_eq!(seen, table, "{rows} rows, {threads} threads");
            }
        }
    }

    proptest! {
        /// The join against a nested-loop join over keys drawn from a few
        /// values, so that most keys repeat many times: the same rows in
        /// the same order on one worker, the same multiset on several.
        #[test]
        fn hash_join_agrees_with_a_nested_loop_join(
            build_keys in prop::collection::vec(0u64..6, 0..300),
            probe_keys in prop::collection::vec(0u64..8, 0..300),
            threads in 1usize..4,
        ) {
            let build: Vec<(u64, u64)> = build_keys.into_iter().zip(0..).collect();
            let probe: Vec<(u64, u64)> = probe_keys.into_iter().zip(1_000..).collect();
            let pulled = pull(threads, |k| tag_join(k, &build, &probe, threads));
            prop_assert!(pulled.errors.is_empty(), "{:?}", pulled.errors);
            let (mut got, mut expected) = (pulled.pairs(), nested_loop(&build, &probe));
            if threads > 1 {
                got.sort_unstable();
                expected.sort_unstable();
            }
            prop_assert_eq!(got, expected);
        }
    }
}
