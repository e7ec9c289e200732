//! What a harness run leaves behind: every suite that drives a shuffle
//! through `wired` or `coordinated` gets one [`Run`] back.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use rshuffle_repro::audit::AuditViolation;
use rshuffle_repro::rshuffle::RowBatch;
use rshuffle_repro::verbs::VerbsRuntime;

pub const ROW: usize = 16;

/// The rows delivered to a query's sinks, under whatever key tells
/// deliveries apart: the generation, or `(query, generation)`. Clones
/// share the rows.
#[derive(Clone)]
pub struct Collector<K> {
    rows: Arc<Mutex<HashMap<K, Vec<[u8; ROW]>>>>,
    /// Rows to make room for when a key first appears.
    rows_per_key: usize,
}

impl<K> Default for Collector<K> {
    fn default() -> Self {
        Collector::sized(0)
    }
}

impl<K> Collector<K> {
    /// A collector expecting `rows_per_key` rows under each key, so that
    /// collecting them costs the same two allocations per key whatever
    /// the volume (`tests/alloc_count.rs` measures through this sink).
    pub fn sized(rows_per_key: usize) -> Self {
        Collector {
            rows: Arc::default(),
            rows_per_key,
        }
    }
}

impl<K: Hash + Eq> Collector<K> {
    /// Appends every row of `batch` under `key`.
    pub fn push(&self, key: K, batch: &RowBatch) {
        let mut map = self.rows.lock();
        let rows = map
            .entry(key)
            .or_insert_with(|| Vec::with_capacity(self.rows_per_key));
        for row in batch.iter() {
            rows.push(row.try_into().expect("16-byte row"));
        }
    }

    /// Everything collected so far, each key's rows sorted.
    pub fn into_sorted(self) -> HashMap<K, Vec<[u8; ROW]>> {
        let mut map = std::mem::take(&mut *self.rows.lock());
        map.values_mut().for_each(|rows| rows.sort_unstable());
        map
    }
}

/// One finished run. `report` is the coordinator's `RecoveryReport`, or
/// — on the wired path, which has no coordinator — the `Exchange` the
/// run went over.
pub struct Run<R> {
    /// Rows that reached a sink, sorted, per generation (0 on the wired
    /// path). A generation that delivered nothing has no entry.
    pub delivered: HashMap<u32, Vec<[u8; ROW]>>,
    /// The metrics snapshot, taken after the auditor's verdict.
    pub snapshot: String,
    /// The Chrome trace.
    pub trace: String,
    /// Final virtual time.
    pub end_ns: u64,
    /// The auditor's verdict (clean-termination checks included when the
    /// run is `clean`); empty when the runtime has no auditor.
    pub violations: Vec<AuditViolation>,
    pub report: R,
}

impl<R> Run<R> {
    /// Collects what a finished simulation on `runtime` left behind.
    pub fn collect(
        runtime: &VerbsRuntime,
        delivered: Collector<u32>,
        clean: bool,
        report: R,
    ) -> Run<R> {
        let violations = runtime.auditor().map_or(Vec::new(), |a| a.finalize(clean));
        let obs = runtime.obs();
        Run {
            delivered: delivered.into_sorted(),
            snapshot: obs.snapshot_json(),
            trace: obs.chrome_trace_json(),
            end_ns: runtime.kernel().now().as_nanos(),
            violations,
            report,
        }
    }
}

/// The two artifacts are tens of kilobytes of JSON; a failed assertion
/// that prints a run wants their sizes, not their text. Written by hand
/// for a second reason: it reads every field, where a suite reads the
/// few it asserts on — a derived `Debug` does not count as a read, and a
/// field some suite never read would be a `dead_code` warning there.
impl<R: fmt::Debug> fmt::Debug for Run<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: HashMap<u32, usize> = self.delivered.iter().map(|(k, v)| (*k, v.len())).collect();
        f.debug_struct("Run")
            .field("rows", &rows)
            .field("snapshot_bytes", &self.snapshot.len())
            .field("trace_bytes", &self.trace.len())
            .field("end_ns", &self.end_ns)
            .field("violations", &self.violations)
            .field("report", &self.report)
            .finish()
    }
}
