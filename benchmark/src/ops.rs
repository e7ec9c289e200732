//! Benchmark-side `Operator` wrappers: output checking that can fail,
//! per-thread CPU records for the traced run, and seeded receiver jitter.
//!
//! Checking keeps, per receive fragment, a row count and an
//! order-independent wrapping-sum checksum — once where the sender hashes
//! a row to its destination, once where the sink drains it. The two must
//! agree for the fragment's operation to count as succeeded.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rshuffle::{
    default_partition_hash, Operator, Result, RowBatch, StreamState, TransmissionGroups,
};
use rshuffle_simnet::{SimContext, SimDuration};

use crate::host::thread_cpu_ns;
use crate::spans::{Open, Tracer};

/// splitmix64: the benchmark's only random stream; every generator,
/// Zipf, jitter and fault seed is derived from `--seed` through it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row count plus wrapping sum of per-row hashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub rows: u64,
    pub sum: u64,
}

impl Tally {
    pub fn add_row(&mut self, row: &[u8]) {
        let mut h = 0u64;
        for word in row.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h = (h.rotate_left(23) ^ u64::from_le_bytes(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a simulated thread panicked while tallying rows")
}

/// Per-destination-node tallies of what one node's senders generated.
pub type Expected = Arc<Mutex<Vec<Tally>>>;

pub fn new_expected(nodes: usize) -> Expected {
    Arc::new(Mutex::new(vec![Tally::default(); nodes]))
}

/// Wraps a sender's source: tallies every row under each node of the
/// transmission group the SHUFFLE operator will hash it to.
pub struct CheckedSource {
    child: Arc<dyn Operator>,
    groups: TransmissionGroups,
    expected: Expected,
}

impl CheckedSource {
    pub fn new(child: Arc<dyn Operator>, groups: TransmissionGroups, expected: Expected) -> Self {
        CheckedSource {
            child,
            groups,
            expected,
        }
    }
}

impl Operator for CheckedSource {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if !batch.is_empty() {
            let mut expected = locked(&self.expected);
            for row in batch.iter() {
                let group = (default_partition_hash(row) % self.groups.len() as u64) as usize;
                for &node in self.groups.group(group) {
                    expected[node].add_row(row);
                }
            }
        }
        Ok((state, batch))
    }
}

/// What the sinks of one query drained, per receiving node. `--self-check`
/// arms `drop_one`, which loses exactly one row in one sink.
pub struct Sinks {
    received: Vec<Mutex<Tally>>,
    drop_one: AtomicBool,
}

impl Sinks {
    pub fn new(nodes: usize, drop_one: bool) -> Arc<Sinks> {
        Arc::new(Sinks {
            received: (0..nodes).map(|_| Mutex::new(Tally::default())).collect(),
            drop_one: AtomicBool::new(drop_one),
        })
    }

    pub fn drain(&self, node: usize, batch: &RowBatch) {
        let mut tally = locked(&self.received[node]);
        for row in batch.iter() {
            if self.drop_one.swap(false, Ordering::Relaxed) {
                continue;
            }
            tally.add_row(row);
        }
    }

    pub fn received(&self, node: usize) -> Tally {
        *locked(&self.received[node])
    }
}

/// Fragments whose drained rows differ from what the senders generated
/// for them.
pub fn mismatched_fragments(expected: &[Expected], sinks: &Sinks) -> u64 {
    let nodes = expected.len();
    (0..nodes)
        .filter(|&node| {
            let mut want = Tally::default();
            for src in expected {
                want.merge(&locked(src)[node]);
            }
            want != sinks.received(node)
        })
        .count() as u64
}

/// One simulated thread's record inside one operator.
#[derive(Default)]
struct ThreadRecord {
    cpu_ns: AtomicU64,
    calls: AtomicU64,
    first_us: AtomicU64,
    last_us: AtomicU64,
}

/// Traced run only: accumulates thread CPU (`CLOCK_THREAD_CPUTIME_ID`)
/// and call count around every `next` of the wrapped operator.
pub struct Timed {
    inner: Arc<dyn Operator>,
    origin: Instant,
    records: Vec<ThreadRecord>,
}

impl Timed {
    pub fn new(inner: Arc<dyn Operator>, threads: usize, origin: Instant) -> Arc<Timed> {
        Arc::new(Timed {
            inner,
            origin,
            records: (0..threads).map(|_| ThreadRecord::default()).collect(),
        })
    }

    /// Total CPU seconds over all threads.
    pub fn cpu_s(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.cpu_ns.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Files one record per simulated thread under `parent`.
    pub fn record_threads(&self, tracer: &Tracer, name: &str, node: usize, parent: &Open) {
        for (tid, r) in self.records.iter().enumerate() {
            tracer.thread_record(
                &format!("{name}[node={node},tid={tid}]"),
                parent,
                r.first_us.load(Ordering::Relaxed) as f64,
                r.last_us.load(Ordering::Relaxed) as f64,
                r.cpu_ns.load(Ordering::Relaxed),
                r.calls.load(Ordering::Relaxed),
            );
        }
    }
}

impl Operator for Timed {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let rec = &self.records[tid];
        if rec.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            rec.first_us
                .store(self.origin.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        let before = thread_cpu_ns();
        let out = self.inner.next(sim, tid);
        rec.cpu_ns
            .fetch_add(thread_cpu_ns() - before, Ordering::Relaxed);
        rec.last_us
            .store(self.origin.elapsed().as_micros() as u64, Ordering::Relaxed);
        out
    }
}

/// Seeded, uniformly distributed per-batch delay at the receiving
/// fragment: the OS-scheduling noise of a shared cluster, which is what
/// starves the one-sided designs of free buffers under broadcast (§5.1.3).
pub struct Jitter {
    child: Arc<dyn Operator>,
    max_ns: u64,
    state: AtomicU64,
}

impl Jitter {
    pub fn new(child: Arc<dyn Operator>, max: SimDuration, seed: u64) -> Self {
        Jitter {
            child,
            max_ns: max.as_nanos(),
            state: AtomicU64::new(seed),
        }
    }
}

impl Operator for Jitter {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        let (state, batch) = self.child.next(sim, tid)?;
        if !batch.is_empty() {
            // One simulated thread runs at a time, in an order fixed by
            // the seed, so the draws are reproducible.
            let draw = mix(self.state.fetch_add(1, Ordering::Relaxed), 0x71);
            sim.sleep(SimDuration::from_nanos(draw % (self.max_ns + 1)));
        }
        Ok((state, batch))
    }
}

/// Seeded query-dispatch skew: a node's fragment threads start their
/// first `next` a fixed few microseconds late, as fragments of a real
/// query reach their nodes at slightly different times.
pub struct Dispatch {
    child: Arc<dyn Operator>,
    delay: SimDuration,
    started: Vec<AtomicBool>,
}

impl Dispatch {
    pub fn new(child: Arc<dyn Operator>, threads: usize, delay: SimDuration) -> Self {
        Dispatch {
            child,
            delay,
            started: (0..threads).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl Operator for Dispatch {
    fn next(&self, sim: &SimContext, tid: usize) -> Result<(StreamState, RowBatch)> {
        if !self.started[tid].swap(true, Ordering::Relaxed) {
            sim.sleep(self.delay);
        }
        self.child.next(sim, tid)
    }
}
