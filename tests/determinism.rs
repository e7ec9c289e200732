//! Tier-1 determinism tests for the observability layer: the same
//! configuration must produce byte-identical metrics snapshots and
//! Chrome traces, for every shuffle algorithm. This is the contract
//! that makes flight-recorder diffs meaningful: any divergence between
//! two runs is a real behavioural difference, never scheduler noise.

#[path = "common/pins.rs"]
mod pins;
#[path = "common/run.rs"]
mod run;
#[path = "common/wired.rs"]
mod wired;

use rshuffle_repro::rshuffle::{ExchangeConfig, ShuffleAlgorithm};
use rshuffle_repro::simnet::{Cluster, DeviceProfile};
use rshuffle_repro::verbs::{FaultConfig, VerbsRuntime};

/// Runs a small repartition and returns the serialized observability
/// artifacts: (metrics snapshot JSON, Chrome-trace JSON).
fn run_observed(algorithm: ShuffleAlgorithm) -> (String, String) {
    let (snap, trace, _) = run_observed_staged(algorithm, true);
    (snap, trace)
}

/// Like [`run_observed`], with the per-stage latency histograms on or
/// off. Returns (snapshot JSON, trace JSON, final virtual time ns).
fn run_observed_staged(algorithm: ShuffleAlgorithm, histograms: bool) -> (String, String, u64) {
    let nodes = 2;
    let threads = 2;
    let rows_per_thread = 2_000;
    let cluster = Cluster::new(nodes, DeviceProfile::edr());
    // Fault injection exercises the RNG-dependent paths (UD reorder),
    // which is exactly where nondeterminism would sneak in.
    let runtime = VerbsRuntime::with_faults(
        cluster,
        FaultConfig {
            ud_reorder_probability: 0.1,
            ..FaultConfig::default()
        },
    );
    runtime.obs().set_stage_histograms(histograms);
    let config = ExchangeConfig::repartition(algorithm, nodes, threads);
    let run = wired::run(&runtime, &config, rows_per_thread);
    (run.snapshot, run.trace, run.end_ns)
}

#[test]
fn snapshots_and_traces_are_deterministic_for_every_algorithm() {
    for algorithm in ShuffleAlgorithm::ALL {
        let (snap_a, trace_a) = run_observed(algorithm);
        let (snap_b, trace_b) = run_observed(algorithm);
        assert_eq!(
            snap_a, snap_b,
            "{algorithm}: same-seed runs must produce byte-identical metrics snapshots"
        );
        assert_eq!(
            trace_a, trace_b,
            "{algorithm}: same-seed runs must produce byte-identical Chrome traces"
        );
    }
}

/// Zero-perturbation contract of the stage instrumentation: recording
/// stage histograms must not move a single virtual-time event.
/// Same-seed runs with recording on vs off must end at the same
/// virtual instant and agree byte-for-byte on every metric
/// series outside the `stage.` namespace itself.
#[test]
fn stage_recording_is_virtual_time_invisible_for_every_algorithm() {
    for algorithm in ShuffleAlgorithm::ALL {
        let (snap_on, _, end_on) = run_observed_staged(algorithm, true);
        let (snap_off, _, end_off) = run_observed_staged(algorithm, false);
        assert_eq!(
            end_on, end_off,
            "{algorithm}: stage recording perturbed the final virtual time"
        );
        // Re-parse the snapshots and compare modulo the stage series:
        // with recording off those series must simply be absent, with
        // nothing else shifted.
        let strip = |json: &str| {
            let snap = parse_snapshot(json);
            snap.without_prefix("stage.").to_json()
        };
        assert_eq!(
            strip(&snap_on),
            strip(&snap_off),
            "{algorithm}: stage recording changed a non-stage metric series"
        );
        // And the instrumentation actually recorded something when on.
        assert!(
            snap_on.contains("stage.wr_batch_ns"),
            "{algorithm}: stage histograms enabled but no stage series recorded"
        );
        assert!(
            !snap_off.contains("\"stage."),
            "{algorithm}: disabled stage recording still registered stage series"
        );
    }
}

/// Rebuilds a [`rshuffle_obs::Snapshot`] from its JSON rendering (the
/// counters and histogram keys are enough for prefix filtering; the
/// full histograms are carried through verbatim).
fn parse_snapshot(json: &str) -> rshuffle_obs::Snapshot {
    let root = serde_json::from_str(json).expect("snapshot JSON parses");
    let serde::Value::Object(fields) = root else {
        panic!("snapshot root is an object");
    };
    let mut snap = rshuffle_obs::Snapshot::default();
    for (section, value) in fields {
        let serde::Value::Object(entries) = value else {
            panic!("snapshot section {section} is an object");
        };
        for (key, v) in entries {
            match section.as_str() {
                "counters" => {
                    let serde::Value::UInt(c) = v else {
                        panic!("counter {key} is numeric");
                    };
                    snap.counters.push((key, c));
                }
                "histograms" => {
                    // Prefix filtering only needs the key; reuse the
                    // rendered histogram via an empty placeholder and
                    // compare on the re-rendered JSON of the filtered
                    // key set plus counters.
                    let serde::Value::Object(hf) = v else {
                        panic!("histogram {key} is an object");
                    };
                    let get = |k: &str| hf.iter().find(|(n, _)| n == k).map(|(_, val)| val.clone());
                    let num = |k: &str| match get(k) {
                        Some(serde::Value::UInt(u)) => u,
                        other => panic!("histogram {key}.{k}: {other:?}"),
                    };
                    let serde::Value::Array(bs) = get("buckets").expect("buckets") else {
                        panic!("histogram {key}.buckets is an array");
                    };
                    let buckets = bs
                        .into_iter()
                        .map(|b| {
                            let serde::Value::Array(pair) = b else {
                                panic!("bucket is a pair");
                            };
                            match (&pair[0], &pair[1]) {
                                (serde::Value::UInt(lb), serde::Value::UInt(n)) => (*lb, *n),
                                other => panic!("bucket pair: {other:?}"),
                            }
                        })
                        .collect();
                    let hist = rshuffle_obs::HistogramSnapshot {
                        count: num("count"),
                        sum: num("sum"),
                        min: num("min"),
                        max: num("max"),
                        buckets,
                    };
                    snap.histograms.push((key, hist));
                }
                other => panic!("unknown snapshot section {other}"),
            }
        }
    }
    snap
}

#[test]
fn snapshot_covers_required_series() {
    // One representative SR run must surface the headline metrics the
    // paper's figures are built from.
    let (snap, trace) = run_observed(ShuffleAlgorithm::MESQ_SR);
    for name in [
        "endpoint.bytes_sent",
        "endpoint.messages_sent",
        "endpoint.bytes_received",
        "endpoint.credit_stalls",
        "nic.work_requests",
        "nic.qp_cache_hits",
        "verbs.msg_latency_ns",
        "engine.rows",
    ] {
        assert!(snap.contains(name), "snapshot missing series {name:?}");
    }
    // The trace must be a Chrome-trace array with the mandatory keys.
    assert!(trace.trim_start().starts_with('['));
    assert!(trace.trim_end().ends_with(']'));
    for key in ["\"name\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\""] {
        assert!(trace.contains(key), "trace missing key {key}");
    }
}

/// FNV-1a over the snapshot text: a dependency-free digest that is
/// stable across platforms and toolchains.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `n` with its digits in groups of three, as the pins are written.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (at, digit) in digits.chars().enumerate() {
        if at > 0 && (digits.len() - at).is_multiple_of(3) {
            out.push('_');
        }
        out.push(digit);
    }
    out
}

/// `(final virtual time ns, snapshot digest)` per design, one row of
/// `tests/pins/determinism.txt` each: `ShuffleAlgorithm::ALL` in order,
/// recorded at commit 5c67394 — the last kernel that ran every simulated
/// thread as an OS thread — then the §7 RDMA Write designs MEMQ/WR and
/// SEMQ/WR, which sit outside `ALL`, recorded at commit cdbd027, before
/// the endpoint frame was extracted from `wr_rc.rs`. The schedule order is
/// a pure function of the kernel's `(time, seq)` / `(time, tid)` queues,
/// so a kernel rewrite must reproduce these exactly; a change to a cost
/// model or a metric moves them on purpose and re-records them.
#[test]
fn virtual_time_and_snapshot_match_the_pinned_schedule() {
    let wr = ["MEMQ/WR", "SEMQ/WR"].map(|name| ShuffleAlgorithm::parse(name).expect("WR design"));
    let measured: Vec<String> = ShuffleAlgorithm::ALL
        .into_iter()
        .chain(wr)
        .map(|algorithm| {
            let (snap, _, end_ns) = run_observed_staged(algorithm, true);
            format!("({}, {})", grouped(end_ns), grouped(fnv1a(&snap)))
        })
        .collect();
    pins::check("determinism.txt", &measured);
}
