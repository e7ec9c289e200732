//! Validates the committed perf baselines: every file a `PERF_GATES` row
//! of `ci.sh` names must parse under the current `rshuffle-bench/1`
//! schema, carry explicit metric directions, and — trivially — show zero
//! regressions when diffed against itself; the experiments the row hands
//! to `bench` must be registered. `BENCH_0008.json` must also cover the
//! full smoke matrix (six algorithms at both concurrency levels and both
//! message sizes). If a schema change ever breaks this test, re-record
//! the baseline with the row's `bench … --smoke --emit` in the same
//! commit.

use rshuffle_bench::experiments::REGISTRY;
use rshuffle_bench::perf::{diff_reports, Direction, ParsedReport, SCHEMA};

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} is readable: {e}"))
}

fn baseline_text() -> String {
    repo_file("BENCH_0008.json")
}

/// `(baseline file, experiment ids)` of every `PERF_GATES` row.
fn perf_gates() -> Vec<(String, Vec<String>)> {
    let ci = repo_file("ci.sh");
    let rows = ci
        .split("PERF_GATES=(")
        .nth(1)
        .expect("ci.sh has a PERF_GATES table");
    let rows = rows.split("\n)").next().expect("the table is closed");
    let gates: Vec<_> = rows
        .lines()
        .filter_map(|row| {
            let mut columns = row.trim().trim_matches('"').split_whitespace().skip(1);
            let baseline = columns.next()?.to_string();
            let experiments = columns.next()?.split(',').map(str::to_string).collect();
            Some((baseline, experiments))
        })
        .collect();
    assert!(gates.len() >= 4, "PERF_GATES rows: {gates:?}");
    gates
}

#[test]
fn committed_baseline_parses_under_current_schema() {
    for (baseline, experiments) in perf_gates() {
        let report = ParsedReport::parse(&repo_file(&baseline))
            .unwrap_or_else(|e| panic!("{baseline} parses: {e}"));
        assert_eq!(report.schema, SCHEMA);
        for id in &experiments {
            assert!(
                REGISTRY.iter().any(|e| e.id == id),
                "{baseline}: {id:?} is not registered"
            );
            let gated = report
                .metrics
                .iter()
                .any(|m| m.key.0 == *id && m.direction != Direction::Informational);
            assert!(gated, "{baseline} gates no metric of {id:?}");
        }
    }

    let report = ParsedReport::parse(&baseline_text()).expect("baseline parses");
    // Every algorithm must appear in both the concurrency matrix and the
    // message-size sweep, at every smoke point.
    for alg in [
        "MESQ/SR", "MEMQ/SR", "MEMQ/RD", "SEMQ/SR", "SEMQ/RD", "SESQ/SR",
    ] {
        for id in [
            format!("{alg}/N=1"),
            format!("{alg}/N=2"),
            format!("{alg}/msg=16KiB"),
            format!("{alg}/msg=64KiB"),
        ] {
            assert!(
                report.metrics.iter().any(|m| m.key.1 == id),
                "baseline missing result row {id:?}"
            );
        }
    }

    // The headline metrics the gate protects must all be present with
    // sane (positive, finite) values.
    for metric in ["p50_ns", "p99_ns", "makespan_ns", "agg_mbps", "gib_per_sec"] {
        let values: Vec<f64> = report
            .metrics
            .iter()
            .filter(|m| m.key.2 == metric)
            .map(|m| m.value)
            .collect();
        assert!(!values.is_empty(), "baseline missing metric {metric:?}");
        for v in values {
            assert!(v.is_finite() && v > 0.0, "{metric}: non-positive value {v}");
        }
    }
}

#[test]
fn committed_baseline_gates_hot_path_stage_latencies() {
    // The hot-path pass promoted the sender-side stage latencies to
    // gated metrics on the large-message sweep rows; a re-recorded
    // baseline that silently drops them would un-gate the doorbell and
    // CQ batching wins.
    let report = ParsedReport::parse(&baseline_text()).expect("baseline parses");
    for stage in ["stage.wr_batch_ns_p50", "stage.post_to_completion_ns_p50"] {
        let gated = report
            .metrics
            .iter()
            .filter(|m| m.key.2 == stage && m.direction == Direction::LowerIsBetter)
            .count();
        assert!(
            gated >= 6,
            "baseline gates only {gated} rows of {stage} (want one per algorithm)"
        );
    }
}

#[test]
fn baseline_diffed_against_itself_has_no_regressions() {
    for (baseline, _) in perf_gates() {
        let report = ParsedReport::parse(&repo_file(&baseline)).expect("baseline parses");
        let lines = diff_reports(&report, &report, 10.0);
        assert_eq!(lines.len(), report.metrics.len());
        for l in lines {
            assert!(
                !l.regressed,
                "{baseline}: self-diff regressed on {}/{} {}",
                l.bench, l.id, l.metric
            );
            assert_eq!(l.delta_pct, 0.0);
        }
    }
}
