//! Validates the committed perf baselines: the file of every `PERF_GATES`
//! row of `ci.sh` (`BENCH_<GATE>.json`) must parse under the current
//! `rshuffle-bench/1` schema, hold a compared row of every experiment the
//! row hands to `bench` (each of them registered), and diff unchanged
//! against itself. `BENCH_SMOKE.json` must also cover the full smoke
//! matrix (six algorithms at both concurrency levels and both message
//! sizes). If a schema change ever breaks this test, re-record the
//! baselines with `RSHUFFLE_BLESS=1 ./ci.sh` in the same commit.

use rshuffle_bench::experiments::REGISTRY;
use rshuffle_bench::perf::{diff_reports, Direction, ParsedReport, SCHEMA};

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} is readable: {e}"))
}

fn smoke_baseline() -> ParsedReport {
    ParsedReport::parse(&repo_file("BENCH_SMOKE.json")).expect("BENCH_SMOKE.json parses")
}

/// `(baseline file, experiment ids)` of every `PERF_GATES` row
/// (`gate experiments`); a gate's baseline is `BENCH_<GATE>.json`.
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
            let mut columns = row.trim().trim_matches('"').split_whitespace();
            let baseline = format!("BENCH_{}.json", columns.next()?.to_uppercase());
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
            let compared = report
                .metrics
                .iter()
                .any(|m| m.key.0 == *id && m.direction != Direction::Host);
            assert!(compared, "{baseline} holds no compared row of {id:?}");
        }
    }

    let report = smoke_baseline();
    // Every algorithm must appear in both the concurrency matrix and the
    // message-size sweep, at every smoke point.
    for alg in [
        "MESQ/SR", "MEMQ/SR", "MEMQ/RD", "SEMQ/RD", "SEMQ/SR", "SESQ/SR",
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

    // The headline metrics must all be present with sane (positive,
    // finite) values.
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
fn committed_baseline_holds_hot_path_stage_digests() {
    // The sender-side batching stages are what the hot-path pass made
    // fast; every Figure 9 row must carry both digests, which the gate
    // compares field by field.
    let report = smoke_baseline();
    let rows = report.metrics.iter().filter(|m| m.key.0 == "fig09_msgsize");
    let mut ids: Vec<&str> = rows.map(|m| m.key.1.as_str()).collect();
    ids.dedup();
    assert_eq!(ids.len(), 12, "six designs at two message sizes: {ids:?}");
    for id in ids {
        for stage in ["stage.wr_batch_ns", "stage.post_to_completion_ns"] {
            let fields = report
                .metrics
                .iter()
                .filter(|m| m.key.1 == id && m.key.2.starts_with(&format!("{stage}.")))
                .count();
            assert_eq!(fields, 8, "fig09_msgsize/{id} lacks the {stage} digest");
        }
    }
}

#[test]
fn baseline_diffed_against_itself_is_unchanged() {
    for (baseline, _) in perf_gates() {
        let report = ParsedReport::parse(&repo_file(&baseline)).expect("baseline parses");
        let lines = diff_reports(&report, &report);
        assert_eq!(lines.len(), report.metrics.len());
        for l in lines {
            assert!(!l.changed, "{baseline}: self-diff changed {:?}", l.key);
        }
    }
}
