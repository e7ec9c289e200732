//! `perfdiff` — the perf-trajectory gate.
//!
//! Compares a candidate `rshuffle-bench/1` report (written by
//! `bench … --emit`) with a committed baseline and fails (exit 1) when
//! any row differs: a value whose bits moved either way, a changed
//! direction tag, or a row only one report holds. Every field of every
//! stage digest is a row. Rows both reports tag `host` (wall clock,
//! resident memory) are left out. It measures nothing itself: the
//! simulator is deterministic, so an unmodified tree reproduces its
//! baseline exactly and any change to virtual time is named row by row,
//! labelled better or worse by the row's direction tag. `-v` prints the
//! unchanged rows too.

use rshuffle_bench::cli::{or_usage, value, Args};
use rshuffle_bench::perf::{diff_reports, ParsedReport};

const USAGE: &str = "perfdiff --against BASELINE.json --candidate FILE [-v]";

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
    let verbose = args.flag("-v");
    args.finish()?;
    let baseline = read(&against);
    let lines = diff_reports(&baseline, &read(&candidate));
    let changed = lines.iter().filter(|l| l.changed).count();
    println!(
        "perfdiff: {} rows vs {against} (commit {})",
        lines.len(),
        baseline.commit
    );
    let shown = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
    for l in lines.iter().filter(|l| l.changed || verbose) {
        let (bench, id, metric) = &l.key;
        // A few ns on a row of milliseconds is a move too: print it legibly.
        let delta = match (l.base, l.cand) {
            (Some(b), Some(c)) if b != 0.0 && l.changed => match (c - b) / b * 100.0 {
                pct if pct.abs() >= 0.01 => format!(" {pct:+.2}%"),
                pct => format!(" {pct:+.1e}%"),
            },
            _ => String::new(),
        };
        let (marker, verdict) = if l.changed {
            ("CHANGED", l.verdict())
        } else {
            ("same", "")
        };
        println!(
            "  [{marker}] {bench}/{id} {metric}: {} -> {}{delta} {verdict}",
            shown(l.base),
            shown(l.cand)
        );
    }
    if changed == 0 {
        println!("perfdiff: PASS — every row equals the baseline");
    } else {
        println!("perfdiff: FAIL — {changed} row(s) changed");
    }
    Ok(i32::from(changed > 0))
}
