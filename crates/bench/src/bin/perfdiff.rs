//! `perfdiff` — the perf-trajectory regression gate.
//!
//! Compares a candidate `rshuffle-bench/1` report (written by
//! `bench … --emit`) against a committed baseline and fails (exit 1)
//! when any gated metric moves past the tolerance in its bad direction:
//! `*_ns` latencies up, throughput down. It measures nothing itself: the
//! simulator is deterministic, so an unmodified tree reproduces its
//! baseline exactly and any perf change shows up as an exact
//! virtual-time delta.
//!
//! `--scale-latency X` multiplies every lower-is-better candidate metric
//! by `X` before comparing — a fault injection for the gate itself:
//! `--scale-latency 2` must always fail.

use rshuffle_bench::cli::{or_usage, value, Args};
use rshuffle_bench::perf::{diff_reports, Direction, ParsedReport};

const USAGE: &str = "perfdiff --against BASELINE.json --candidate FILE \
                     [--tolerance-pct P] [--scale-latency X] [-v]";

fn read(path: &str) -> ParsedReport {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| ParsedReport::parse(&text).map_err(|e| format!("{path}: {e}")));
    parsed.unwrap_or_else(|e| {
        eprintln!("perfdiff: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let status = or_usage(compare(Args::from_env()), USAGE);
    std::process::exit(status);
}

/// Parses the command line, compares, prints; the exit status.
fn compare(mut args: Args) -> Result<i32, String> {
    let against: String = args
        .option("--against", value)?
        .ok_or("--against is required")?;
    let candidate: String = args
        .option("--candidate", value)?
        .ok_or("--candidate is required")?;
    let tolerance_pct: f64 = args.option("--tolerance-pct", value)?.unwrap_or(10.0);
    let scale_latency: f64 = args.option("--scale-latency", value)?.unwrap_or(1.0);
    let verbose = args.flag("-v");
    args.finish()?;
    let baseline = read(&against);
    let mut cand = read(&candidate);

    if scale_latency != 1.0 {
        for m in &mut cand.metrics {
            if m.direction == Direction::LowerIsBetter {
                m.value *= scale_latency;
            }
        }
        eprintln!("perfdiff: injected {scale_latency}x latency scale into the candidate");
    }

    let lines = diff_reports(&baseline, &cand, tolerance_pct);
    let regressions = lines.iter().filter(|l| l.regressed).count();
    println!(
        "perfdiff: {} metrics vs {against} (commit {}), tolerance {tolerance_pct}%",
        lines.len(),
        baseline.commit
    );
    for l in lines.iter().filter(|l| l.regressed || verbose) {
        let marker = if l.regressed { "REGRESSED" } else { "ok" };
        match l.cand {
            Some(c) => println!(
                "  [{marker}] {}/{} {}: {:.1} -> {:.1} ({:+.2}%)",
                l.bench, l.id, l.metric, l.base, c, l.delta_pct
            ),
            None => println!(
                "  [{marker}] {}/{} {}: {:.1} -> missing",
                l.bench, l.id, l.metric, l.base
            ),
        }
    }
    if regressions == 0 {
        println!("perfdiff: PASS — no gated metric moved past the tolerance");
    } else {
        println!("perfdiff: FAIL — {regressions} regression(s) past {tolerance_pct}%");
    }
    Ok(i32::from(regressions > 0))
}
