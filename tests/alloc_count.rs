//! Steady-state allocation gate for the endpoint hot paths.
//!
//! The hot-path speed pass moved every endpoint onto pooled registered
//! buffers, reusable CQ scratch and cached address handles, so the
//! per-message allocation count of a query must not grow when the
//! endpoints process more messages: whatever the pipeline allocates per
//! row is a small pinned constant (engine batching), not a function of
//! the endpoint design. This harness installs a counting global
//! allocator, runs every algorithm at two sizes, and pins the marginal
//! allocations-per-row slope. An endpoint that starts allocating per
//! message (a `to_vec()` on the send path, a rebuilt AH vector per
//! multicast, a fresh completion `Vec` per poll) blows the bound. The
//! same counter holds `Exchange::build` to its ring depth and a hash
//! join's build side to its row count; its live-bytes high-water mark
//! holds the phased SHUFFLE's staging to the bytes it stages, and its
//! live bytes hold the flight recorder, a histogram series and the NIC's
//! QP-context cache to what they have recorded.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rshuffle_obs::{EventKind, FlightRecorder, Labels, MetricsRegistry};
use rshuffle_repro::engine::{
    drive_to_sink, run_shuffle_with_recovery, Generator, HashJoin, MemScan, RecoveryPolicy, Table,
};
use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, Operator, PhasePolicy, ShuffleAlgorithm};
use rshuffle_repro::simnet::lru::LruSet;
use rshuffle_repro::simnet::{Cluster, DeviceProfile, SimDuration};

/// Counts every allocation (alloc, alloc_zeroed, realloc) a thread of
/// the test binary makes, and the bytes it holds live on the heap with
/// their high-water mark. Frees are not counted as allocations: that
/// gate is on churn. The counters are per thread because the simulation
/// runs on the thread that drives it (simulated threads are fibers on
/// it), while the test harness allocates on its own threads whenever a
/// test starts or ends: counted process-wide, that landed in whatever
/// window another test had open, a few allocations or a kilobyte at a
/// time.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Signed: a block this thread frees may have been allocated by another.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `bytes` to the live heap and raises the high-water mark.
fn grow(bytes: usize) {
    let live = LIVE.get() + bytes as i64;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrink(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as i64);
}

// SAFETY: every method hands its caller's arguments to `System` unchanged
// and returns what `System` returns; the counters beside it are
// constant-initialised thread-locals with no destructor, which allocate
// nothing and stay readable while a thread exits.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    /// A moving reallocation holds both blocks until it has copied the
    /// old one: the high-water mark sees the new block before the old
    /// one goes.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 3;
const THREADS: usize = 2;

/// Runs one repartition query and returns the allocations made while
/// the simulation ran (setup/teardown excluded — the gate is on the
/// steady state, not on building the exchange).
fn allocs_during_run(algorithm: ShuffleAlgorithm, rows_per_thread: usize) -> u64 {
    let mut config = ExchangeConfig::repartition(algorithm, NODES, THREADS);
    config.message_size = 4096;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let policy = RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts: 0,
        ..RecoveryPolicy::default()
    };
    let pending = coordinated::spawn(&runtime, &config, policy, rows_per_thread);
    let before = ALLOCS.get();
    runtime.cluster().run();
    let after = ALLOCS.get();
    let run = pending.finish();
    assert!(
        run.report.failure.is_none(),
        "{algorithm}: query failed: {:?}",
        run.report.failure
    );
    let expected = NODES * THREADS * rows_per_thread;
    assert_eq!(
        run.delivered[&0].len(),
        expected,
        "{algorithm}: wrong row count"
    );
    after - before
}

/// Marginal allocations per extra row, pinned per algorithm. The
/// pipeline's genuine per-row cost (engine batch assembly, row copies
/// into output batches) measures at 0.03–0.12 allocations per row
/// across the designs; the bound sits just above that so a hot path
/// that starts allocating per row — or several times per message —
/// blows it immediately instead of drifting up unnoticed.
const MAX_ALLOCS_PER_ROW: f64 = 0.2;

#[test]
fn steady_state_allocations_do_not_scale_with_messages() {
    for algorithm in ShuffleAlgorithm::ALL {
        // Warm-up run so lazily initialized process state (thread-local
        // buffers, logger, histogram tables) is not billed to the
        // smaller run.
        let _ = allocs_during_run(algorithm, 200);
        let small = allocs_during_run(algorithm, 200);
        let large = allocs_during_run(algorithm, 600);
        let extra_rows = (NODES * THREADS * 400) as f64;
        let slope = (large.saturating_sub(small)) as f64 / extra_rows;
        eprintln!(
            "{algorithm}: {small} allocs @200 rows/thread, {large} @600, \
             slope {slope:.4} allocs/row"
        );
        assert!(
            slope <= MAX_ALLOCS_PER_ROW,
            "{algorithm}: steady-state allocations scale with messages \
             ({slope:.3} allocs/row > {MAX_ALLOCS_PER_ROW}); an endpoint \
             hot path is allocating per message"
        );
    }
}

/// The WR extension rides the same pooled buffers; gate it too.
#[test]
fn wr_extension_allocations_do_not_scale_with_messages() {
    for name in ["MEMQ/WR", "SEMQ/WR"] {
        let algorithm = ShuffleAlgorithm::parse(name).expect("WR variant parses");
        let _ = allocs_during_run(algorithm, 200);
        let small = allocs_during_run(algorithm, 200);
        let large = allocs_during_run(algorithm, 600);
        let extra_rows = (NODES * THREADS * 400) as f64;
        let slope = (large.saturating_sub(small)) as f64 / extra_rows;
        eprintln!("{name}: slope {slope:.4} allocs/row");
        assert!(
            slope <= MAX_ALLOCS_PER_ROW,
            "{name}: steady-state allocations scale with messages \
             ({slope:.3} allocs/row)"
        );
    }
}

/// Heap allocations made by one `Exchange::build` of `algorithm` on eight
/// nodes with every receive ring `depth` windows deep.
fn allocs_during_build(algorithm: ShuffleAlgorithm, depth: usize) -> u64 {
    let mut config = ExchangeConfig::repartition(algorithm, 8, 2);
    config.message_size = 4096;
    config.ud_recv_window = depth;
    config.recv_depth_per_peer = depth;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let before = ALLOCS.get();
    let exchange = Exchange::build(&runtime, &config);
    let after = ALLOCS.get();
    assert!(exchange.is_ok(), "{algorithm} at depth {depth} builds");
    after - before
}

/// Set-up does not scale with ring depth: an endpoint hands its Queue
/// Pair the receive pool as one run, so a pool 64 (16) times as deep
/// costs `Exchange::build` not one allocation more. The deterministic
/// stand-in for `core.exchange.build_s`, which no test can pin.
#[test]
fn exchange_build_allocations_do_not_scale_with_ring_depth() {
    let designs = [
        (ShuffleAlgorithm::MESQ_SR, 1024),
        (ShuffleAlgorithm::MEMQ_SR, 256),
    ];
    for (algorithm, deep) in designs {
        let _ = allocs_during_build(algorithm, 16);
        let (shallow, deep) = (
            allocs_during_build(algorithm, 16),
            allocs_during_build(algorithm, deep),
        );
        eprintln!("{algorithm}: {shallow} allocs to build at depth 16, {deep} deep");
        assert_eq!(shallow, deep, "{algorithm}: build allocates per window");
    }
}

/// Heap allocations made while one worker drives a `HashJoin` whose
/// build side holds `rows` rows of distinct keys and whose probe side is
/// empty: the cost of building the join table.
fn allocs_during_join_build(rows: u64) -> u64 {
    let cluster = Cluster::new(1, DeviceProfile::edr());
    let mut build = Table::builder(16);
    for i in 0..rows {
        build.push(&[i.to_le_bytes(), (!i).to_le_bytes()].concat());
    }
    let scan = |table| -> Arc<dyn Operator> { Arc::new(MemScan::new(table, 1, 8e9)) };
    let key = |row: &[u8]| u64::from_le_bytes(row[..8].try_into().expect("8-byte key"));
    let join = HashJoin::new(
        cluster.kernel(),
        scan(build.build()),
        scan(Table::empty(16)),
        key,
        key,
        |b, _, out| out.extend_from_slice(b),
        16,
        1,
        SimDuration::from_nanos(4),
    );
    let stats = drive_to_sink(&cluster, 0, "join", Arc::new(join), 1, |_, _| {});
    let before = ALLOCS.get();
    cluster.run();
    let after = ALLOCS.get();
    let stats = stats.lock();
    assert!(
        stats.errors.is_empty() && stats.rows == 0,
        "{:?}",
        stats.errors
    );
    after - before
}

/// A join's build side grows by amortised doubling: four times the rows
/// cost the arena, the chains and the key table a few more growth steps
/// (and the scan six more batches), not an allocation per row — which
/// two per build row (a copied row and a one-row list per key) were.
/// The deterministic stand-in for the host time a build row costs.
#[test]
fn join_build_allocations_do_not_scale_with_build_rows() {
    let _ = allocs_during_join_build(2_048);
    let (small, large) = (
        allocs_during_join_build(2_048),
        allocs_during_join_build(8_192),
    );
    eprintln!("join build: {small} allocs over 2048 rows, {large} over 8192");
    assert!(
        large.saturating_sub(small) <= 32,
        "building over 6 144 more rows took {} more allocations",
        large.saturating_sub(small)
    );
}

/// The phased run: 32 nodes of two threads. Besides the staging, two
/// things on the heap grow with the volume, each a share of it that falls
/// with the node count: the rows of the phase in flight, which are also
/// still staged (1/31), and the thread between its two staging passes,
/// which still holds its batches (1/64).
const PHASED_NODES: usize = 32;
const PHASED_ROWS_PER_THREAD: [usize; 2] = [8_192, 32_768];

/// Runs one phased MESQ/SR repartition of `rows_per_thread` rows per
/// thread whose sinks keep nothing, and returns how far the live heap
/// rose above where it stood when the simulation started, with the bytes
/// the SHUFFLE staged.
fn peak_heap_growth_during_phased_run(rows_per_thread: usize) -> (u64, u64) {
    let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::MESQ_SR, PHASED_NODES, THREADS);
    config.message_size = 4096;
    config.phase = PhasePolicy::SkewAware;
    let runtime = config.build_runtime(DeviceProfile::edr());
    let policy = RecoveryPolicy {
        max_partial_retries: 0,
        max_full_restarts: 0,
        ..RecoveryPolicy::default()
    };
    let report = run_shuffle_with_recovery(
        &runtime,
        &config,
        policy,
        run::ROW,
        move |_, node| {
            Arc::new(Generator::new(rows_per_thread, THREADS, node as u64)) as Arc<dyn Operator>
        },
        |_, _, _, _| {},
    );
    let start = LIVE.get();
    PEAK.set(start);
    runtime.cluster().run();
    let growth = (PEAK.get() - start) as u64;
    let report = report.lock();
    let rows = PHASED_NODES * THREADS * rows_per_thread;
    assert!(report.succeeded(), "query failed: {:?}", report.failure);
    assert_eq!(report.rows, rows as u64, "wrong row count");
    (growth, (rows * run::ROW) as u64)
}

/// The phased SHUFFLE stages every row before its first phase, so its
/// staging is what the live heap's peak grows by with the volume. Staged
/// once, at exactly the size each destination is sent, four times the
/// rows raise the peak by 1.04 x the extra staged bytes. Grown by
/// doubling, one `Vec` per destination, they raised it by 1.86 x
/// (measured before the staging was sized): up to twice each
/// destination's rows, and both blocks of a moving reallocation.
#[test]
fn phased_staging_holds_each_row_once() {
    let [small, large] = PHASED_ROWS_PER_THREAD;
    let _ = peak_heap_growth_during_phased_run(small);
    let (small_peak, small_staged) = peak_heap_growth_during_phased_run(small);
    let (large_peak, large_staged) = peak_heap_growth_during_phased_run(large);
    let ratio = large_peak.saturating_sub(small_peak) as f64 / (large_staged - small_staged) as f64;
    eprintln!(
        "phased MESQ/SR: peak heap +{small_peak} B staging {small_staged} B, \
         +{large_peak} B staging {large_staged} B: {ratio:.3} x the extra staged bytes"
    );
    assert!(
        ratio <= 1.1,
        "the peak heap grew by {ratio:.3} x the extra staged bytes (at most 1.1): \
         the phased SHUFFLE holds staged rows more than once"
    );
}

/// Runs `f` and returns what it built with the bytes that stay live on
/// the heap while the result is held.
fn live_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.get();
    let built = f();
    (built, (LIVE.get() - before).max(0) as u64)
}

/// A ring slot is 17 bytes: 10 000 instants grow a 2^14-slot ring to its
/// full capacity, and the recorder then holds at most 24 bytes a slot.
/// Whole 40-byte `Record`s held 40.
#[test]
fn flight_recorder_ring_holds_at_most_24_bytes_a_slot() {
    const RING: usize = 1 << 14;
    let (recorder, bytes) = live_growth(|| {
        let recorder = FlightRecorder::new(RING);
        for i in 0..10_000u64 {
            recorder.event(0, 1, i, EventKind::SendPosted, i);
        }
        recorder
    });
    assert_eq!(recorder.len(), 10_000);
    let per_slot = bytes as f64 / RING as f64;
    eprintln!("flight recorder: {bytes} B for a {RING}-slot ring, {per_slot:.1} B a slot");
    assert!(
        per_slot <= 24.0,
        "the flight recorder holds {per_slot:.1} B per ring slot (at most 24)"
    );
}

/// A histogram series allocates its buckets an octave at a time: one
/// recorded value leaves it under 2 KiB. All 976 buckets up front held
/// ~7.8 KiB.
#[test]
fn a_histogram_series_holds_only_the_octaves_it_has_seen() {
    let registry = MetricsRegistry::new();
    // The registry's first map node is not the series' cost.
    let _warm = registry.histogram("warm", Labels::GLOBAL);
    let (series, bytes) = live_growth(|| {
        let series = registry.histogram("lat", Labels::node(0));
        series.record(4096);
        series
    });
    assert_eq!(series.count(), 1);
    eprintln!("histogram series with one value: {bytes} B");
    assert!(
        bytes < 2048,
        "a one-value histogram series holds {bytes} B (under 2 KiB)"
    );
}

/// The NIC's QP-context cache grows its index and slab with the keys it
/// is touched with: a 2^16-entry cache holds nothing before its first
/// lookup, where it used to reserve both at full capacity.
#[test]
fn an_untouched_qp_cache_holds_nothing() {
    let (cache, bytes) = live_growth(|| LruSet::<u64>::new(1 << 16));
    assert!(cache.is_empty());
    eprintln!("untouched 2^16-entry LruSet: {bytes} B");
    assert!(
        bytes < 1024,
        "an untouched LruSet holds {bytes} B (under 1 KiB)"
    );
}
