//! Fragment drivers: pump a pipeline to completion on simulated worker
//! threads and report per-fragment statistics.

use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle::{CostModel, Exchange, Operator, RowBatch, ShuffleError, StreamState};
use rshuffle_obs::{names, EventKind, Labels};
use rshuffle_simnet::{Cluster, NodeId, SimTime};
use rshuffle_verbs::VerbsRuntime;

/// Statistics from driving one fragment.
///
/// This struct is a legacy per-fragment view; the same rollups also land
/// in the cluster's [`rshuffle_obs::MetricsRegistry`] under the
/// `engine.rows` / `engine.bytes` / `engine.errors` series labelled with
/// the fragment's node.
#[derive(Clone, Debug, Default)]
pub struct FragmentStats {
    /// Rows that reached the sink.
    pub rows: u64,
    /// Payload bytes that reached the sink.
    pub bytes: u64,
    /// Virtual time the last worker finished at.
    pub finished_at: SimTime,
    /// Errors raised by workers.
    pub errors: Vec<ShuffleError>,
}

/// Spawns `threads` workers on `node` that pull `op` to depletion,
/// streaming every batch into `sink` (which may be a no-op). Statistics are
/// accumulated into the returned handle, readable after
/// [`Cluster::run`].
pub fn drive_to_sink(
    cluster: &Cluster,
    node: NodeId,
    name: &str,
    op: Arc<dyn Operator>,
    threads: usize,
    sink: impl Fn(usize, &RowBatch) + Send + Sync + 'static,
) -> Arc<Mutex<FragmentStats>> {
    let stats = Arc::new(Mutex::new(FragmentStats::default()));
    let sink = Arc::new(sink);
    let obs = cluster.obs().clone();
    let labels = Labels::node(node as u32);
    let rows_ctr = obs.metrics.counter(names::ENGINE_ROWS, labels);
    let bytes_ctr = obs.metrics.counter(names::ENGINE_BYTES, labels);
    let errors_ctr = obs.metrics.counter(names::ENGINE_ERRORS, labels);
    for tid in 0..threads {
        let op = op.clone();
        let stats = stats.clone();
        let sink = sink.clone();
        let obs = obs.clone();
        let rows_ctr = rows_ctr.clone();
        let bytes_ctr = bytes_ctr.clone();
        let errors_ctr = errors_ctr.clone();
        let span_name = format!("fragment:{name}");
        cluster.spawn(node, &format!("{name}-{tid}"), move |sim| {
            let started = sim.now();
            let mut worker_rows = 0u64;
            loop {
                match op.next(&sim, tid) {
                    Ok((state, batch)) => {
                        if !batch.is_empty() {
                            rows_ctr.add(batch.rows() as u64);
                            bytes_ctr.add(batch.bytes() as u64);
                            worker_rows += batch.rows() as u64;
                            let mut s = stats.lock();
                            s.rows += batch.rows() as u64;
                            s.bytes += batch.bytes() as u64;
                            sink(tid, &batch);
                        }
                        if state == StreamState::Depleted {
                            let mut s = stats.lock();
                            s.finished_at = s.finished_at.max(sim.now());
                            break;
                        }
                    }
                    Err(e) => {
                        errors_ctr.inc();
                        let mut s = stats.lock();
                        s.errors.push(e);
                        s.finished_at = s.finished_at.max(sim.now());
                        break;
                    }
                }
            }
            let track = sim.id().track();
            let now = sim.now().as_nanos();
            obs.recorder.span(
                sim.node() as u32,
                track,
                &span_name,
                started.as_nanos(),
                now,
            );
            obs.recorder.event(
                sim.node() as u32,
                track,
                now,
                EventKind::FragmentDone,
                worker_rows,
            );
        });
    }
    stats
}

/// Spawns both fragments of `exchange` on every node of `runtime`'s
/// cluster, node by node: `make_source(node)` feeding the node's SHUFFLE
/// operator, and its RECEIVE operator streaming `row_size`-byte rows in
/// batches of `batch_rows` into `sink(node, tid, batch)`, at the
/// profile's CPU costs. A node that sends (receives) nothing gets no
/// SHUFFLE (RECEIVE) fragment. Returns the fragments' statistics in
/// spawn order, readable after [`Cluster::run`].
pub fn drive_exchange(
    runtime: &Arc<VerbsRuntime>,
    exchange: &Exchange,
    row_size: usize,
    batch_rows: usize,
    make_source: impl Fn(NodeId) -> Arc<dyn Operator>,
    sink: impl Fn(NodeId, usize, &RowBatch) + Send + Sync + 'static,
) -> Vec<Arc<Mutex<FragmentStats>>> {
    let cluster = runtime.cluster();
    let threads = exchange.threads();
    let cost = CostModel::from_profile(runtime.profile());
    let sink = Arc::new(sink);
    let mut stats = Vec::new();
    for node in 0..cluster.nodes() {
        if let Some(shuffle) = exchange.shuffle_operator(node, make_source(node), cost.clone()) {
            let name = format!("shuffle-{node}");
            let shuffle = Arc::new(shuffle);
            stats.push(drive_to_sink(
                cluster,
                node,
                &name,
                shuffle,
                threads,
                |_, _| {},
            ));
        }
        if let Some(receive) = exchange.receive_operator(node, row_size, batch_rows, cost.clone()) {
            let name = format!("receive-{node}");
            let sink = sink.clone();
            let deliver = move |tid: usize, batch: &RowBatch| sink(node, tid, batch);
            stats.push(drive_to_sink(
                cluster,
                node,
                &name,
                Arc::new(receive),
                threads,
                deliver,
            ));
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ComputeStage, Filter, Generator, HashAggregate, HashJoin, MemScan, Project};
    use crate::table::Table;
    use rshuffle_simnet::{DeviceProfile, SimDuration};

    fn cluster() -> Cluster {
        Cluster::new(1, DeviceProfile::edr())
    }

    /// Little-endian u64 at `row[at..at + 8]`.
    fn le_u64(row: &[u8], at: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&row[at..at + 8]);
        u64::from_le_bytes(b)
    }

    fn key(row: &[u8]) -> u64 {
        le_u64(row, 0)
    }

    #[test]
    fn generator_emits_exact_row_count() {
        let c = cluster();
        let gen = Arc::new(Generator::new(5000, 3, 42));
        let stats = drive_to_sink(&c, 0, "gen", gen, 3, |_, _| {});
        c.run();
        let s = stats.lock();
        assert_eq!(s.rows, 15_000);
        assert_eq!(s.bytes, 15_000 * 16);
        assert!(s.errors.is_empty());
    }

    #[test]
    fn generator_keys_are_distinct_and_spread() {
        // splitmix64 over distinct inputs yields distinct outputs.
        let mut keys: Vec<u64> = (0..10_000)
            .map(|seq| key(&Generator::row(7, 0, seq)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
        // Roughly uniform: each quartile of the key space gets 15–35%.
        let q = u64::MAX / 4;
        for quartile in 0..4u64 {
            let count = keys
                .iter()
                .filter(|&&k| k / q.max(1) == quartile || (quartile == 3 && k / q.max(1) > 3))
                .count();
            assert!(
                (1_500..=3_500).contains(&count),
                "quartile {quartile} holds {count} of 10000"
            );
        }
    }

    #[test]
    fn memscan_visits_every_row_once() {
        let mut b = Table::builder(8);
        for i in 0..10_000u64 {
            b.push(&i.to_le_bytes());
        }
        let table = b.build();
        let c = cluster();
        let scan = Arc::new(MemScan::new(table, 4, 8e9));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let stats = drive_to_sink(&c, 0, "scan", scan, 4, move |_, batch| {
            for row in batch.iter() {
                seen2
                    .lock()
                    .push(le_u64(row, 0));
            }
        });
        c.run();
        assert!(stats.lock().errors.is_empty());
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn scan_time_tracks_bandwidth() {
        let mut b = Table::builder(16);
        for i in 0..100_000u64 {
            b.push(&[i.to_le_bytes(), i.to_le_bytes()].concat());
        }
        let table = b.build();
        let c = cluster();
        // 1.6 MB at 8 GB/s on one thread ≈ 200 µs.
        let scan = Arc::new(MemScan::new(table, 1, 8e9));
        drive_to_sink(&c, 0, "scan", scan, 1, |_, _| {});
        c.run();
        let us = c.kernel().now().as_nanos() as f64 / 1e3;
        assert!((150.0..300.0).contains(&us), "scan took {us} µs");
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let c = cluster();
        let gen = Arc::new(Generator::new(4000, 2, 1));
        let filter = Arc::new(Filter::new(
            gen,
            |row| key(row).is_multiple_of(2),
            SimDuration::from_nanos(2),
        ));
        let stats = drive_to_sink(&c, 0, "filter", filter, 2, |_, _| {});
        c.run();
        let rows = stats.lock().rows;
        // ~50% selectivity on a uniform key.
        assert!((3_200..4_800).contains(&rows), "kept {rows} of 8000");
    }

    #[test]
    fn project_narrows_rows() {
        let c = cluster();
        let gen = Arc::new(Generator::new(1000, 1, 1));
        let proj = Arc::new(Project::new(
            gen,
            8,
            |row, out| out.extend_from_slice(&row[0..8]),
            SimDuration::from_nanos(1),
        ));
        let stats = drive_to_sink(&c, 0, "proj", proj, 1, |_, batch| {
            assert_eq!(batch.row_size(), 8);
        });
        c.run();
        let s = stats.lock();
        assert_eq!(s.rows, 1000);
        assert_eq!(s.bytes, 8000);
    }

    #[test]
    fn hash_join_matches_equal_keys() {
        let c = cluster();
        // Build: keys 0..1000 (one row each); probe: keys 0..2000.
        let mut b = Table::builder(8);
        for i in 0..1000u64 {
            b.push(&i.to_le_bytes());
        }
        let build = Arc::new(MemScan::new(b.build(), 2, 8e9));
        let mut p = Table::builder(8);
        for i in 0..2000u64 {
            p.push(&i.to_le_bytes());
        }
        let probe = Arc::new(MemScan::new(p.build(), 2, 8e9));
        let join = Arc::new(HashJoin::new(
            c.kernel(),
            build,
            probe,
            key,
            key,
            |b, p, out| {
                out.extend_from_slice(&b[0..8]);
                out.extend_from_slice(&p[0..8]);
            },
            16,
            2,
            SimDuration::from_nanos(4),
        ));
        let stats = drive_to_sink(&c, 0, "join", join, 2, |_, batch| {
            for row in batch.iter() {
                assert_eq!(row[0..8], row[8..16], "join key mismatch");
            }
        });
        c.run();
        let s = stats.lock();
        assert!(s.errors.is_empty(), "{:?}", s.errors);
        assert_eq!(s.rows, 1000, "exactly the matching keys join");
    }

    #[test]
    fn hash_join_handles_duplicate_build_keys() {
        let c = cluster();
        let mut b = Table::builder(8);
        for _ in 0..3 {
            for i in 0..10u64 {
                b.push(&i.to_le_bytes());
            }
        }
        let build = Arc::new(MemScan::new(b.build(), 1, 8e9));
        let mut p = Table::builder(8);
        for i in 0..10u64 {
            p.push(&i.to_le_bytes());
        }
        let probe = Arc::new(MemScan::new(p.build(), 1, 8e9));
        let join = Arc::new(HashJoin::new(
            c.kernel(),
            build,
            probe,
            key,
            key,
            |b, _p, out| out.extend_from_slice(&b[0..8]),
            8,
            1,
            SimDuration::from_nanos(4),
        ));
        let stats = drive_to_sink(&c, 0, "join", join, 1, |_, _| {});
        c.run();
        assert_eq!(stats.lock().rows, 30, "3 build duplicates × 10 probe keys");
    }

    #[test]
    fn hash_aggregate_sums_groups() {
        let c = cluster();
        // 16-byte rows: key % 8 in [0..8), value = 1.
        let mut b = Table::builder(16);
        for i in 0..4000u64 {
            let mut row = Vec::new();
            row.extend_from_slice(&(i % 8).to_le_bytes());
            row.extend_from_slice(&1u64.to_le_bytes());
            b.push(&row);
        }
        let scan = Arc::new(MemScan::new(b.build(), 2, 8e9));
        let agg = Arc::new(HashAggregate::new(
            c.kernel(),
            scan,
            key,
            |row| {
                let mut acc = row[0..8].to_vec();
                acc.extend_from_slice(
                    &le_u64(row, 8).to_le_bytes(),
                );
                acc
            },
            |acc, row| {
                let cur = le_u64(acc, 8);
                let add = le_u64(row, 8);
                acc[8..16].copy_from_slice(&(cur + add).to_le_bytes());
            },
            16,
            2,
            SimDuration::from_nanos(4),
        ));
        let groups = Arc::new(Mutex::new(Vec::new()));
        let g2 = groups.clone();
        let stats = drive_to_sink(&c, 0, "agg", agg, 2, move |_, batch| {
            for row in batch.iter() {
                g2.lock().push((
                    le_u64(row, 0),
                    le_u64(row, 8),
                ));
            }
        });
        c.run();
        assert!(stats.lock().errors.is_empty());
        let mut groups = groups.lock().clone();
        groups.sort_unstable();
        assert_eq!(groups.len(), 8);
        for (k, sum) in groups {
            assert!(k < 8);
            assert_eq!(sum, 500, "group {k}");
        }
    }

    #[test]
    fn semi_join_passes_only_matching_probes() {
        use crate::ops::HashSemiJoin;
        let c = cluster();
        let mut b = Table::builder(8);
        for i in (0..1000u64).step_by(2) {
            b.push(&i.to_le_bytes()); // Even keys only.
        }
        let build = Arc::new(MemScan::new(b.build(), 2, 8e9));
        let mut p = Table::builder(8);
        for i in 0..1000u64 {
            p.push(&i.to_le_bytes());
        }
        let probe = Arc::new(MemScan::new(p.build(), 2, 8e9));
        let semi = Arc::new(HashSemiJoin::new(
            c.kernel(),
            build,
            probe,
            key,
            key,
            2,
            SimDuration::from_nanos(4),
        ));
        let stats = drive_to_sink(&c, 0, "semi", semi, 2, |_, batch| {
            for row in batch.iter() {
                assert_eq!(key(row) % 2, 0, "odd key leaked through the semi join");
            }
        });
        c.run();
        assert_eq!(stats.lock().rows, 500);
    }

    #[test]
    fn semi_join_with_empty_build_side_emits_nothing() {
        use crate::ops::HashSemiJoin;
        let c = cluster();
        let build = Arc::new(MemScan::new(Table::empty(8), 1, 8e9));
        let mut p = Table::builder(8);
        for i in 0..100u64 {
            p.push(&i.to_le_bytes());
        }
        let probe = Arc::new(MemScan::new(p.build(), 1, 8e9));
        let semi = Arc::new(HashSemiJoin::new(
            c.kernel(),
            build,
            probe,
            key,
            key,
            1,
            SimDuration::from_nanos(4),
        ));
        let stats = drive_to_sink(&c, 0, "semi", semi, 1, |_, _| {});
        c.run();
        assert_eq!(stats.lock().rows, 0);
    }

    #[test]
    fn compute_stage_slows_the_pipeline() {
        let run = |per_batch| {
            let c = cluster();
            let gen = Arc::new(Generator::new(10_240, 1, 1));
            let staged = Arc::new(ComputeStage::new(gen, per_batch));
            drive_to_sink(&c, 0, "stage", staged, 1, |_, _| {});
            c.run();
            c.kernel().now()
        };
        let fast = run(SimDuration::ZERO);
        let slow = run(SimDuration::from_micros(10));
        // 10 batches of 1024 rows at +10 µs each.
        let delta = (slow - fast).as_nanos();
        assert_eq!(delta, 100_000, "compute stage must add exactly 10×10µs");
    }
}
