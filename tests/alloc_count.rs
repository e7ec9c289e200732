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
//! join's build side to its row count.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::engine::{drive_to_sink, HashJoin, MemScan, RecoveryPolicy, Table};
use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, Operator, ShuffleAlgorithm};
use rshuffle_repro::simnet::{Cluster, DeviceProfile, SimDuration};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made by the
/// test binary. Frees are not counted: the gate is on allocation churn.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocator counter is process-wide; serialize the tests so one
/// run's churn cannot leak into another's window.
static COUNT_LOCK: Mutex<()> = Mutex::new(());

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
    let before = ALLOCS.load(Ordering::SeqCst);
    runtime.cluster().run();
    let after = ALLOCS.load(Ordering::SeqCst);
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
    let _guard = COUNT_LOCK.lock();
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
    let _guard = COUNT_LOCK.lock();
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
    let before = ALLOCS.load(Ordering::SeqCst);
    let exchange = Exchange::build(&runtime, &config);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(exchange.is_ok(), "{algorithm} at depth {depth} builds");
    after - before
}

/// Set-up does not scale with ring depth: an endpoint hands its Queue
/// Pair the receive pool as one run, so a pool 64 (16) times as deep
/// costs `Exchange::build` not one allocation more. The deterministic
/// stand-in for `core.exchange.build_s`, which no test can pin.
#[test]
fn exchange_build_allocations_do_not_scale_with_ring_depth() {
    let _guard = COUNT_LOCK.lock();
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
    let before = ALLOCS.load(Ordering::SeqCst);
    cluster.run();
    let after = ALLOCS.load(Ordering::SeqCst);
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
    let _guard = COUNT_LOCK.lock();
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
