//! `recovery_mix`: all six designs in sequence, each shuffling through
//! `engine::recovery::run_shuffle_with_recovery` while every Queue Pair
//! of node 1 is down for a window in the middle of the query. The only
//! workload where operations *can* fail: epoch fence, dedup, reconnect
//! back-off and partial retry must contain the outage (at least one
//! partial retry, no full restart) and deliver exactly once in the
//! winning generation.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use rshuffle::{ExchangeConfig, Operator, ShuffleAlgorithm, TransmissionGroups};
use rshuffle_engine::{run_shuffle_with_recovery, Generator, RecoveryPolicy};
use rshuffle_obs::Snapshot;
use rshuffle_simnet::{DeviceProfile, SimDuration, SimTime};
use rshuffle_verbs::{FaultConfig, FaultPlan, QpScope};

use super::shuffle::ROW_BYTES;
use super::{obs_layers, Ctx, Iteration, Workload};
use crate::host::Usage;
use crate::ops::{mismatched_fragments, mix, new_expected, CheckedSource, Expected, Sinks, Timed};

const NODES: usize = 8;
const THREADS: usize = 4;
const ROWS_PER_THREAD: usize = 32 * 1024;
/// The outage: node 1, all QP types, `[OUTAGE_AT, OUTAGE_AT + OUTAGE_FOR)`.
const OUTAGE_AT: SimDuration = SimDuration::from_micros(50);
const OUTAGE_FOR: SimDuration = SimDuration::from_micros(300);

pub struct RecoveryMix;

/// Per generation: what each node's senders generated, and what the
/// sinks drained.
type Generations<T> = Arc<Mutex<HashMap<u32, T>>>;

impl Workload for RecoveryMix {
    fn iteration(&mut self, seed: u64, ctx: &Ctx<'_>) -> Iteration {
        let tracer = ctx.tracer;
        let mut it = Iteration::default();
        let rows_per_thread = ROWS_PER_THREAD / ctx.volume_div;
        let mut merged = Snapshot::default();
        let (mut partial, mut full, mut reconnects) = (0u32, 0u32, 0u32);
        let (mut redone_bytes, mut recovery_ns) = (0u64, 0u64);
        let mut source_cpu_s = 0.0;

        for (i, algorithm) in ShuffleAlgorithm::ALL.into_iter().enumerate() {
            it.ops += NODES as u64;
            let setup = tracer.begin("setup", None);
            let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
            config.message_size = 4096;
            config.stall_timeout = SimDuration::from_millis(2);
            config.depleted_timeout = SimDuration::from_micros(500);
            config.faults = FaultConfig {
                seed: mix(seed, 0xFA00 + i as u64),
                plan: FaultPlan::new().qp_failure_window(1, OUTAGE_AT, OUTAGE_FOR, QpScope::All),
                ..FaultConfig::default()
            };
            let (runtime, _) = tracer.span("verbs.runtime_new", Some(&setup), || {
                config.build_runtime(DeviceProfile::edr())
            });

            // A partial retry replays a generation's sources from row
            // zero, so every source built for a (generation, node) starts
            // a fresh tally and the last one — the attempt that ran to
            // depletion — is the one compared.
            let expected: Generations<Vec<Expected>> = Arc::default();
            let sinks: Generations<Arc<Sinks>> = Arc::default();
            let timers: Arc<Mutex<Vec<Arc<Timed>>>> = Arc::default();
            let make_source = {
                let (expected, timers) = (expected.clone(), timers.clone());
                let (traced, origin) = (ctx.traced, tracer.origin());
                move |generation: u32, node: usize| {
                    let mut generator: Arc<dyn Operator> = Arc::new(Generator::new(
                        rows_per_thread,
                        THREADS,
                        mix(seed, 0x6E00 + node as u64),
                    ));
                    if traced {
                        let t = Timed::new(generator, THREADS, origin);
                        timers.lock().expect("timers lock").push(t.clone());
                        generator = t;
                    }
                    let tally = new_expected(NODES);
                    expected
                        .lock()
                        .expect("expected lock")
                        .entry(generation)
                        .or_insert_with(|| (0..NODES).map(|_| new_expected(NODES)).collect())
                        [node] = tally.clone();
                    Arc::new(CheckedSource::new(
                        generator,
                        TransmissionGroups::repartition(node, NODES),
                        tally,
                    )) as Arc<dyn Operator>
                }
            };
            let sink = {
                let sinks = sinks.clone();
                // `--self-check` sabotages the first design only.
                let sabotage = ctx.sabotage && i == 0;
                move |generation: u32, node: usize, _tid: usize, batch: &rshuffle::RowBatch| {
                    let per_gen = sinks
                        .lock()
                        .expect("sinks lock")
                        .entry(generation)
                        .or_insert_with(|| Sinks::new(NODES, sabotage))
                        .clone();
                    per_gen.drain(node, batch);
                }
            };
            let (report, _) = tracer.span("engine.spawn_fragments", Some(&setup), || {
                run_shuffle_with_recovery(
                    &runtime,
                    &config,
                    RecoveryPolicy {
                        max_partial_retries: 6,
                        max_full_restarts: 6,
                        ..RecoveryPolicy::default()
                    },
                    ROW_BYTES,
                    make_source,
                    sink,
                )
            });
            it.setup_s += tracer.end(&setup);

            let before = Usage::now();
            let run = tracer.begin("simnet.run", None);
            let ran = catch_unwind(AssertUnwindSafe(|| runtime.cluster().run()));
            it.wall_s += tracer.end(&run);
            let used = Usage::now().since(&before);
            it.usage.user_s += used.user_s;
            it.usage.sys_s += used.sys_s;
            it.usage.ctx_switches += used.ctx_switches;
            it.virt_ns += (runtime.kernel().now() - SimTime::ZERO).as_nanos();

            tracer.span("verify", None, || {
                let rep = report.lock().clone();
                it.payload_mib += rep.bytes as f64 / (1u64 << 20) as f64;
                partial += rep.partial_retries;
                full += rep.full_restarts;
                reconnects += rep.qp_reconnects;
                redone_bytes += rep.redone_bytes;
                recovery_ns += rep.recovery.map_or(0, |r| r.as_nanos());
                let why = if ran.is_err() {
                    Some("a simulated thread panicked".to_string())
                } else if let Some(e) = &rep.failure {
                    Some(format!("gave up: {e}"))
                } else if rep.partial_retries < 1 || rep.full_restarts != 0 {
                    Some(format!(
                        "not contained ({} partial retries, {} full restarts)",
                        rep.partial_retries, rep.full_restarts
                    ))
                } else {
                    None
                };
                let expected = expected.lock().expect("expected lock");
                let sinks = sinks.lock().expect("sinks lock");
                match (
                    why,
                    expected.get(&rep.generation),
                    sinks.get(&rep.generation),
                ) {
                    (None, Some(expected), Some(sinks)) => {
                        let bad = mismatched_fragments(expected, sinks);
                        if bad > 0 {
                            it.failed += bad;
                            it.notes.push(format!(
                                "{algorithm}: {bad} fragment(s) not exactly-once in generation {}",
                                rep.generation
                            ));
                        }
                    }
                    (why, _, _) => {
                        it.failed += NODES as u64;
                        it.notes.push(format!(
                            "{algorithm}: {}",
                            why.unwrap_or_else(|| "winning generation delivered nothing".into())
                        ));
                    }
                }
            });

            if tracer.on() {
                let (snapshot, snapshot_s) =
                    tracer.span("obs.snapshot", None, || runtime.obs().metrics.snapshot());
                *it.layers.entry("obs.snapshot_s").or_insert(0.0) += snapshot_s;
                merged.counters.extend(snapshot.counters);
                merged.histograms.extend(snapshot.histograms);
                for t in timers.lock().expect("timers lock").iter() {
                    source_cpu_s += t.cpu_s();
                }
            }
        }

        if tracer.on() {
            let l = &mut it.layers;
            // Six queries: shares are taken against their summed response.
            obs_layers(&merged, (NODES * THREADS) as u64, it.virt_ns, l);
            l.insert("engine.source_cpu_s", source_cpu_s);
            l.insert("engine.recovery.partial_retries", partial as f64);
            l.insert("engine.recovery.full_restarts", full as f64);
            l.insert("engine.recovery.qp_reconnects", reconnects as f64);
            l.insert(
                "engine.recovery.redone_mib",
                redone_bytes as f64 / (1u64 << 20) as f64,
            );
            l.insert("engine.recovery.virt_ms", recovery_ns as f64 / 1e6);
        }
        it
    }
}
