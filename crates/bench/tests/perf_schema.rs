//! Validates the committed perf baseline `BENCH_0008.json`: it must
//! parse under the current `rshuffle-bench/1` schema, cover the full
//! smoke matrix (six algorithms at both concurrency levels and both
//! message sizes), carry explicit metric directions, and — trivially —
//! show zero regressions when diffed against itself. If a schema change
//! ever breaks this test, re-record the baseline with `perfdiff
//! --record BENCH_0008.json` in the same commit.

use rshuffle_bench::perf::{diff_reports, Direction, ParsedReport, SCHEMA};

fn baseline_text() -> String {
    let path = format!("{}/../../BENCH_0008.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline BENCH_0008.json is readable: {e}"))
}

#[test]
fn committed_baseline_parses_under_current_schema() {
    let report = ParsedReport::parse(&baseline_text()).expect("baseline parses");
    assert_eq!(report.schema, SCHEMA);
    assert!(
        !report.metrics.is_empty(),
        "baseline carries no gated metrics"
    );

    // Every algorithm must appear in both the concurrency matrix and the
    // message-size sweep, at every smoke point.
    for alg in ["MESQ/SR", "MEMQ/SR", "MEMQ/RD", "SEMQ/SR", "SEMQ/RD", "SESQ/SR"] {
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
    let report = ParsedReport::parse(&baseline_text()).expect("baseline parses");
    let lines = diff_reports(&report, &report, 10.0);
    assert_eq!(lines.len(), report.metrics.len());
    for l in lines {
        assert!(
            !l.regressed,
            "self-diff regressed on {}/{} {}",
            l.bench, l.id, l.metric
        );
        assert_eq!(l.delta_pct, 0.0);
    }
}
