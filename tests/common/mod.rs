//! What the chaos, conformance, mux-identity, phase-identity and
//! recovery suites share: the small seeded cluster they all run, the rows
//! its generators emit, and a sink that collects what was delivered.
//! Every item is used by every one of the five.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::engine::Generator;
use rshuffle_repro::rshuffle::{ExchangeConfig, RowBatch, ShuffleAlgorithm};
use rshuffle_repro::simnet::SimDuration;
use rshuffle_repro::verbs::{FaultConfig, FaultPlan};

pub const NODES: usize = 3;
pub const THREADS: usize = 2;
pub const ROW: usize = 16;

pub fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// A repartition among the suite cluster at 4 KiB messages. Given a fault
/// plan (an empty one too) the query also runs under seed 42 with short
/// watchdogs, so that injected faults surface quickly in virtual time.
pub fn small_config(algorithm: ShuffleAlgorithm, plan: Option<FaultPlan>) -> ExchangeConfig {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    if let Some(plan) = plan {
        config.stall_timeout = SimDuration::from_millis(2);
        config.depleted_timeout = us(500);
        config.faults = FaultConfig {
            seed: 42,
            plan,
            ..FaultConfig::default()
        };
    }
    config
}

/// Every row the suite cluster's generators emit at `rows_per_thread`,
/// sorted; node `n`'s generator is seeded with `seed(n)`.
pub fn expected_rows(rows_per_thread: usize, seed: impl Fn(usize) -> u64) -> Vec<[u8; ROW]> {
    let mut rows = Vec::with_capacity(NODES * THREADS * rows_per_thread);
    for node in 0..NODES {
        for tid in 0..THREADS {
            for seq in 0..rows_per_thread {
                rows.push(Generator::row(seed(node), tid, seq));
            }
        }
    }
    rows.sort_unstable();
    rows
}

/// The rows delivered to a query's sinks, under whatever key tells
/// deliveries apart: the generation, `(query, generation)`, or `()` where
/// there is one attempt. Clones share the rows.
#[derive(Clone)]
pub struct Collector<K>(Arc<Mutex<HashMap<K, Vec<[u8; ROW]>>>>);

impl<K> Default for Collector<K> {
    fn default() -> Self {
        Collector(Arc::default())
    }
}

impl<K: Hash + Eq> Collector<K> {
    /// Appends every row of `batch` under `key`.
    pub fn push(&self, key: K, batch: &RowBatch) {
        let mut map = self.0.lock();
        let rows = map.entry(key).or_default();
        for row in batch.iter() {
            rows.push(row.try_into().expect("16-byte row"));
        }
    }

    /// The rows collected under `key`, sorted.
    pub fn sorted(&self, key: &K) -> Vec<[u8; ROW]> {
        let mut rows = self.0.lock().get(key).cloned().unwrap_or_default();
        rows.sort_unstable();
        rows
    }
}
