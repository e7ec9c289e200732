//! Lock-cheap metrics registry: atomic counters and log-linear
//! histograms keyed by `node/lane/endpoint` labels.
//!
//! Hot paths hold an `Arc<Counter>` / `Arc<Histogram>` handle obtained
//! once from the [`MetricsRegistry`]; recording is then a single atomic
//! RMW with no lock. The registry itself is only locked when a handle is
//! first created or when a [`Snapshot`] is taken.
//!
//! Snapshots are deterministic: metrics are emitted in lexicographic
//! `(name, labels)` order, so two runs that perform the same recordings
//! produce byte-identical JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::{Serialize, Value};

/// Sentinel meaning "this label dimension is not set".
pub const NO_LABEL: u32 = u32::MAX;

/// Label set identifying one metric series: which node, which lane
/// (destination / channel index) and which endpoint the sample belongs
/// to. Unset dimensions use [`NO_LABEL`] and are omitted from rendered
/// keys.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Labels {
    /// Node (simulated machine) the sample was taken on.
    pub node: u32,
    /// Lane: destination index / channel within the shuffle.
    pub lane: u32,
    /// Endpoint identifier (matches `EndpointId` in the core crate).
    pub endpoint: u32,
    /// Query (tenant) the sample is attributed to — set by the multi-query
    /// scheduler; [`NO_LABEL`] for single-query runs, so every series key
    /// that existed before the scheduler landed renders unchanged.
    pub query: u32,
}

impl Labels {
    /// No labels at all: a process-global series.
    pub const GLOBAL: Labels = Labels {
        node: NO_LABEL,
        lane: NO_LABEL,
        endpoint: NO_LABEL,
        query: NO_LABEL,
    };

    /// A per-node series.
    pub fn node(node: u32) -> Labels {
        Labels {
            node,
            ..Labels::GLOBAL
        }
    }

    /// A per-node, per-lane series.
    pub fn lane(node: u32, lane: u32) -> Labels {
        Labels {
            node,
            lane,
            ..Labels::GLOBAL
        }
    }

    /// A per-node, per-endpoint series.
    pub fn endpoint(node: u32, endpoint: u32) -> Labels {
        Labels {
            node,
            endpoint,
            ..Labels::GLOBAL
        }
    }

    /// A per-query (tenant) series.
    pub fn query(query: u32) -> Labels {
        Labels {
            query,
            ..Labels::GLOBAL
        }
    }

    /// Renders the label suffix, e.g. `{node=2,lane=0}`. Empty string
    /// when no dimension is set.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if self.node != NO_LABEL {
            parts.push(format!("node={}", self.node));
        }
        if self.lane != NO_LABEL {
            parts.push(format!("lane={}", self.lane));
        }
        if self.endpoint != NO_LABEL {
            parts.push(format!("endpoint={}", self.endpoint));
        }
        if self.query != NO_LABEL {
            parts.push(format!("query={}", self.query));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two octave (log-linear bucketing, the
/// HdrHistogram layout): every recorded value keeps its top
/// `SUB_BUCKET_BITS + 1` significant bits, bounding the quantization
/// error of any percentile estimate to `1/SUB_BUCKETS` (6.25%) before
/// in-bucket interpolation.
pub const SUB_BUCKET_BITS: usize = 4;
/// `2^SUB_BUCKET_BITS`.
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Number of histogram buckets. Values below [`SUB_BUCKETS`] get one
/// exact bucket each (bucket 0 holds exact zeros); every octave
/// `[2^o, 2^(o+1))` for `o in SUB_BUCKET_BITS..64` is split into
/// [`SUB_BUCKETS`] linear sub-buckets. The top octave's upper edge is
/// open so `u64::MAX` lands in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BUCKET_BITS) * SUB_BUCKETS;

/// Index of the bucket a value falls into. Total function over `u64`,
/// monotone, and exact for every value with at most
/// `SUB_BUCKET_BITS + 1` significant bits (`bucket_lower_bound`
/// round-trips it).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (octave - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS + (octave - SUB_BUCKET_BITS) * SUB_BUCKETS + sub
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = SUB_BUCKET_BITS + (i - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    ((SUB_BUCKETS as u64) + sub) << (octave - SUB_BUCKET_BITS)
}

/// Inclusive upper bound of bucket `i` (the last bucket's edge is open,
/// so it reports `u64::MAX`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 < HISTOGRAM_BUCKETS {
        bucket_lower_bound(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// Octaves of [`SUB_BUCKETS`] buckets each, the exact values below
/// [`SUB_BUCKETS`] counting as the first.
const OCTAVES: usize = HISTOGRAM_BUCKETS / SUB_BUCKETS;

/// A log-linear histogram whose buckets are allocated one octave at a
/// time, on the octave's first value: a series costs ~1 KiB plus 128 B
/// per octave it has seen. Recording is a handful of relaxed atomic
/// operations with no lock, and allocates only on an octave's first
/// value — safe on the per-message hot path.
#[derive(Debug)]
pub struct Histogram {
    octaves: [OnceLock<Box<[AtomicU64; SUB_BUCKETS]>>; OCTAVES],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            octaves: std::array::from_fn(|_| OnceLock::new()),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let i = bucket_index(value);
        let octave = self.octaves[i / SUB_BUCKETS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        octave[i % SUB_BUCKETS].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Wrapping on purpose: the sum is diagnostic, not load-bearing.
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = (self.octaves.iter().enumerate())
            .filter_map(|(o, octave)| Some((o * SUB_BUCKETS, octave.get()?)))
            .flat_map(|(first, octave)| (first..).zip(octave.iter()))
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`]. Only non-empty buckets are
/// kept, as `(inclusive lower bound, count)` pairs in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets: `(inclusive lower bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Value at quantile `q` in `[0, 1]`, by rank-walk over the buckets
    /// with linear interpolation inside the target bucket. The result is
    /// clamped to the observed `[min, max]`, monotone in `q`, and exact
    /// whenever the target bucket holds a single distinct value. Returns
    /// 0 on an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lb, n) in &self.buckets {
            if seen + n >= rank {
                let lo = lb.max(self.min);
                let hi = bucket_upper_bound(bucket_index(lb)).min(self.max);
                if hi <= lo || n == 1 {
                    return lo;
                }
                // Spread the bucket's n samples evenly over [lo, hi];
                // the target rank is sample `pos` (0-based) of those.
                let pos = (rank - seen - 1) as u128;
                let est = lo + ((hi - lo) as u128 * pos / (n - 1) as u128) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Folds `other` into `self`: bucket-wise union, counts add, sum
    /// wraps, min/max widen. Merging is associative and commutative, so
    /// per-node snapshots can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut buckets: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lb, n) in &other.buckets {
            *buckets.entry(lb).or_insert(0) += n;
        }
        self.buckets = buckets.into_iter().collect();
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact percentile summary for reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            p999: self.p999(),
        }
    }

    /// The distribution recorded since `earlier` (bucket-wise and
    /// scalar-wise difference; min/max are taken from `self` since the
    /// true interval extrema are not recoverable).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for (lb, n) in &earlier.buckets {
            let e = buckets.entry(*lb).or_insert(0);
            *e = e.saturating_sub(*n);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: buckets.into_iter().filter(|&(_, n)| n > 0).collect(),
        }
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::UInt(self.sum)),
            ("min".to_string(), Value::UInt(self.min)),
            ("max".to_string(), Value::UInt(self.max)),
            (
                "buckets".to_string(),
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|&(lb, n)| Value::Array(vec![Value::UInt(lb), Value::UInt(n)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Percentile digest of one histogram series, as written into bench
/// reports and the `perfdiff` baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Mean of the recorded values.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl Serialize for HistogramSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("min".to_string(), Value::UInt(self.min)),
            ("max".to_string(), Value::UInt(self.max)),
            ("mean".to_string(), Value::Float(self.mean)),
            ("p50".to_string(), Value::UInt(self.p50)),
            ("p90".to_string(), Value::UInt(self.p90)),
            ("p99".to_string(), Value::UInt(self.p99)),
            ("p999".to_string(), Value::UInt(self.p999)),
        ])
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// Registry of named metric series. Handle creation and snapshots take
/// a lock; recording through the returned handles does not.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<(&'static str, Labels), Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns (creating if needed) the counter for `(name, labels)`.
    ///
    /// Panics if the series already exists as a histogram.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Arc<Counter> {
        let mut m = self.metrics.lock();
        match m
            .entry((name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            Metric::Histogram(_) => panic!("metric {name} already registered as a histogram"),
        }
    }

    /// Returns (creating if needed) the histogram for `(name, labels)`.
    ///
    /// Panics if the series already exists as a counter.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Arc<Histogram> {
        let mut m = self.metrics.lock();
        match m
            .entry((name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            Metric::Counter(_) => panic!("metric {name} already registered as a counter"),
        }
    }

    /// Sum of a counter's value across every label combination it was
    /// recorded under (e.g. total bytes over all lanes).
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.metrics
            .lock()
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => c.get(),
                Metric::Histogram(_) => 0,
            })
            .sum()
    }

    /// Merged distribution of a histogram across every label
    /// combination it was recorded under (empty snapshot if none).
    pub fn histogram_merged(&self, name: &'static str) -> HistogramSnapshot {
        let m = self.metrics.lock();
        let mut out = HistogramSnapshot::empty();
        for ((n, _), metric) in m.iter() {
            if *n == name {
                if let Metric::Histogram(h) = metric {
                    out.merge(&h.snapshot());
                }
            }
        }
        out
    }

    /// Takes a deterministic point-in-time snapshot of every series.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock();
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for ((name, labels), metric) in m.iter() {
            let key = format!("{name}{}", labels.render());
            match metric {
                Metric::Counter(c) => counters.push((key, c.get())),
                Metric::Histogram(h) => histograms.push((key, h.snapshot())),
            }
        }
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// Deterministic point-in-time view of a [`MetricsRegistry`]: every
/// series in lexicographic `(name, labels)` order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `name{labels}` → value, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `name{labels}` → distribution, sorted by key.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter by its rendered key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by its rendered key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h)
    }

    /// The activity between `earlier` and `self`. Series absent from
    /// `earlier` are taken whole; series that vanished are dropped.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let ec: BTreeMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let eh: BTreeMap<&str, &HistogramSnapshot> = earlier
            .histograms
            .iter()
            .map(|(k, h)| (k.as_str(), h))
            .collect();
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(ec.get(k.as_str()).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match eh.get(k.as_str()) {
                        Some(e) => h.delta(e),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// A copy of the snapshot with every series whose name starts with
    /// `prefix` removed. Used to compare runs modulo an optional
    /// instrumentation layer (e.g. `without_prefix("stage.")`).
    pub fn without_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| !k.starts_with(prefix))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| !k.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// Renders the snapshot as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Octave-at-a-time buckets snapshot exactly as one dense array
        /// of [`HISTOGRAM_BUCKETS`] counters would.
        #[test]
        fn snapshot_matches_dense_buckets(
            raw in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let h = Histogram::new();
            let mut dense = [0u64; HISTOGRAM_BUCKETS];
            let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
            for r in &raw {
                // Spread the values over every octave, not just the top.
                let v = r >> (r % 64);
                h.record(v);
                dense[bucket_index(v)] += 1;
                sum = sum.wrapping_add(v);
                (min, max) = (min.min(v), max.max(v));
            }
            let buckets = (0..HISTOGRAM_BUCKETS)
                .filter(|&i| dense[i] > 0)
                .map(|i| (bucket_lower_bound(i), dense[i]))
                .collect();
            let count = raw.len() as u64;
            let min = if count == 0 { 0 } else { min };
            let want = HistogramSnapshot { count, sum, min, max, buckets };
            prop_assert_eq!(h.snapshot(), want);
        }
    }

    #[test]
    fn bucket_index_edges() {
        // Values below SUB_BUCKETS get one exact bucket each.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32); // 33 shares [32, 34) with 32
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index((1 << 32) - 1), 463);
        assert_eq!(bucket_index(1 << 32), 464);
        assert_eq!(bucket_index((1 << 63) - 1), 959);
        assert_eq!(bucket_index(1 << 63), 960);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_tight() {
        // Octave boundaries and their neighbours, across the range.
        let mut prev = 0usize;
        for shift in 4..64 {
            for v in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1] {
                let i = bucket_index(v);
                assert!(i >= prev, "bucket_index not monotone at {v}");
                assert!(bucket_lower_bound(i) <= v);
                assert!(v <= bucket_upper_bound(i));
                // Relative bucket width stays within 1/SUB_BUCKETS.
                let width = bucket_upper_bound(i) - bucket_lower_bound(i);
                assert!(width <= bucket_lower_bound(i).max(1) / SUB_BUCKETS as u64 + 1);
                prev = i;
            }
        }
    }

    #[test]
    fn bucket_bounds_round_trip() {
        for i in 0..HISTOGRAM_BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 1), (31u64 << 59, 1)]);
        // Wrapping sum: 0 + MAX.
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("z.last", Labels::GLOBAL).add(3);
        r.counter("a.first", Labels::node(1)).add(1);
        r.counter("a.first", Labels::node(0)).add(2);
        let s = r.snapshot();
        let keys: Vec<&str> = s.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.first{node=0}", "a.first{node=1}", "z.last"]);
        assert_eq!(s.counter("a.first{node=0}"), Some(2));
        assert_eq!(s.to_json(), r.snapshot().to_json());
    }

    #[test]
    fn handles_share_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("hits", Labels::GLOBAL);
        let b = r.counter("hits", Labels::GLOBAL);
        a.inc();
        b.add(2);
        assert_eq!(r.counter_total("hits"), 3);
    }

    #[test]
    fn counter_total_sums_labels() {
        let r = MetricsRegistry::new();
        r.counter("bytes", Labels::lane(0, 0)).add(10);
        r.counter("bytes", Labels::lane(0, 1)).add(5);
        r.counter("other", Labels::GLOBAL).add(100);
        assert_eq!(r.counter_total("bytes"), 15);
    }

    #[test]
    fn snapshot_delta() {
        let r = MetricsRegistry::new();
        let c = r.counter("n", Labels::GLOBAL);
        let h = r.histogram("lat", Labels::GLOBAL);
        c.add(5);
        h.record(7);
        let before = r.snapshot();
        c.add(2);
        h.record(7);
        h.record(100);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("n"), Some(2));
        let dh = d.histogram("lat").unwrap();
        assert_eq!(dh.count, 2);
        assert_eq!(dh.buckets, vec![(7, 1), (100, 1)]);
    }

    #[test]
    fn percentiles_exact_for_distinct_small_values() {
        let h = Histogram::new();
        // 100 distinct values, 1k..100k: log-linear quantization keeps
        // every percentile within one bucket width (6.25%).
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        let p50 = s.p50() as f64;
        let p99 = s.p99() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.07, "p50={p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99={p99}");
        assert_eq!(s.percentile(0.0), 1000);
        assert_eq!(s.percentile(1.0), 100_000);
        // Monotone in q.
        let mut last = 0;
        for i in 0..=100 {
            let p = s.percentile(i as f64 / 100.0);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn percentile_single_value() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(777);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 777);
        assert_eq!(s.p999(), 777);
        assert_eq!(HistogramSnapshot::empty().p99(), 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(5);
        b.record(1 << 20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.min, 5);
        assert_eq!(m.max, 1 << 20);
        assert_eq!(m.sum, 10 + 20 + 5 + (1 << 20));
        // Identity + commutativity.
        let mut e = HistogramSnapshot::empty();
        e.merge(&m);
        assert_eq!(e, m);
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ba, m);
    }

    #[test]
    fn histogram_merged_spans_labels() {
        let r = MetricsRegistry::new();
        r.histogram("lat", Labels::node(0)).record(10);
        r.histogram("lat", Labels::node(1)).record(30);
        r.histogram("other", Labels::GLOBAL).record(999);
        let m = r.histogram_merged("lat");
        assert_eq!(m.count, 2);
        assert_eq!(m.min, 10);
        assert_eq!(m.max, 30);
    }

    #[test]
    fn without_prefix_filters_series() {
        let r = MetricsRegistry::new();
        r.counter("stage.credit_wait_ns.count", Labels::GLOBAL).inc();
        r.counter("verbs.msgs", Labels::GLOBAL).inc();
        r.histogram("stage.cq_wait_ns", Labels::node(0)).record(1);
        r.histogram("verbs.msg_latency_ns", Labels::node(0)).record(1);
        let s = r.snapshot().without_prefix("stage.");
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.histograms.len(), 1);
        assert!(s.counter("verbs.msgs").is_some());
        assert!(s.histogram("verbs.msg_latency_ns{node=0}").is_some());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", Labels::GLOBAL);
        r.histogram("x", Labels::GLOBAL);
    }
}
