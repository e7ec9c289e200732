//! What the chaos, conformance, mux-identity, phase-identity and
//! recovery suites share: the small seeded cluster they all run and the
//! rows its generators emit. Every item is used by every one of the five.
//!
//! The harnesses live beside this file, one concern each, and a suite
//! includes the ones it uses (`#[path = "common/…"] mod …;` at its root,
//! so that they find each other as `super::…`): `run.rs` — the [`Run`] a
//! harness returns and the collecting sink; `wired.rs` — an exchange
//! driven directly; `coordinated.rs` — a query under the recovery ladder.
//! No `allow(dead_code)` anywhere: an item a suite does not use is a
//! warning in that suite, so a file holds only what all its includers use.
//!
//! [`Run`]: super::run::Run

use rshuffle_repro::engine::Generator;
use rshuffle_repro::rshuffle::{ExchangeConfig, ShuffleAlgorithm};
use rshuffle_repro::simnet::SimDuration;
use rshuffle_repro::verbs::{FaultConfig, FaultPlan};

use super::run::ROW;

pub const NODES: usize = 3;
pub const THREADS: usize = 2;

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
