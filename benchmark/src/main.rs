//! The repo's benchmark: one workload per process, two clocks.
//!
//! ```text
//! rshuffle-benchmark --workload W --seed N --seconds S --trace 0|1
//!                    [--out DIR] [--self-check]
//! ```
//!
//! Repeats the workload's iteration (set-up, measured section, output
//! check) for `S` seconds after one warm-up at 1/16 volume, prints every
//! metric as `name value unit`, and ends with one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for what each metric means.

mod drivers;
mod host;
mod metrics;
mod ops;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use metrics::{median, MetricDef, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use workloads::{Ctx, Iteration};

/// Volume divisor of the warm-up query (first touch of allocator arenas
/// and thread stacks).
const WARMUP_DIV: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    self_check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rshuffle-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--self-check]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(value()),
            "--self-check" => args.self_check = true,
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || (args.trace && args.self_check) {
        usage();
    }
    args
}

fn json_metrics(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        let v = values.get(def.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push('}');
    out
}

fn column(iterations: &[&Iteration], f: impl Fn(&Iteration) -> f64) -> Vec<f64> {
    iterations.iter().map(|it| f(it)).collect()
}

/// The per-layer rows of a traced run: the last traced iteration's own
/// rows plus the host shares of all measured sections. Prints the
/// decomposition of that iteration's `simnet.run` span.
fn layer_rows(all: &[&Iteration], traced: &[Iteration], untraced: &[Iteration]) -> Values {
    let last = traced
        .last()
        .expect("the traced run has a traced iteration");
    let mut layers = last.layers.clone();
    let cpu: f64 = all.iter().map(|it| it.usage.cpu_s()).sum();
    let sys: f64 = all.iter().map(|it| it.usage.sys_s).sum();
    layers.insert(
        "simnet.kernel.sys_share",
        if cpu > 0.0 { sys / cpu } else { 0.0 },
    );
    layers.insert(
        "simnet.kernel.ctx_switches_per_mib",
        median(&column(all, |it| {
            it.usage.ctx_switches as f64 / it.payload_mib.max(f64::MIN_POSITIVE)
        })),
    );
    // Fastest against fastest: with two to four samples a side, one slow
    // iteration would otherwise pass for tracing overhead.
    let fastest = |its: &[Iteration]| its.iter().map(|it| it.wall_s).fold(f64::INFINITY, f64::min);
    let (traced_s, untraced_s) = (fastest(traced), fastest(untraced));
    layers.insert(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );

    // CPU inside the wrapped operators, then what is left of the span.
    let rows = [
        ("engine source", "engine.source_cpu_s"),
        ("benchmark checks", "bench.check_cpu_s"),
        ("core send", "core.operator.send_cpu_s"),
        ("core receive", "core.operator.recv_cpu_s"),
    ]
    .map(|(label, name)| (label, last.layers.get(name).copied().unwrap_or(0.0)));
    let residual = last.wall_s - rows.iter().map(|(_, s)| s).sum::<f64>();
    layers.insert("trace.handoff_residual_share", residual / last.wall_s);
    println!(
        "# decomposition of the last traced simnet.run span ({:.3} s wall)",
        last.wall_s
    );
    for (label, s) in rows.into_iter().chain([("hand-off residual", residual)]) {
        println!(
            "#   {label:<18} {s:>8.3} s  {:>5.1} %",
            s / last.wall_s * 100.0
        );
    }
    layers
}

fn main() {
    let origin = Instant::now();
    let pinned = host::pin_to_last_cpu();
    host::steady_malloc();
    let args = parse_args();
    let Some(mut workload) = workloads::by_name(&args.workload) else {
        usage()
    };
    let tracer = Tracer::new(origin, args.trace);
    let calib_ms = if args.trace {
        host::calibrate_ms()
    } else {
        0.0
    };

    // Warm-up: one query at 1/16 volume, not recorded.
    tracer.set_iteration(0);
    let warmup = Instant::now();
    workload.iteration(
        args.seed,
        &Ctx {
            tracer: &tracer,
            traced: false,
            sabotage: false,
            volume_div: WARMUP_DIV,
        },
    );
    let warmup_s = warmup.elapsed().as_secs_f64();
    let startup_s = origin.elapsed().as_secs_f64();

    // Closed loop, one query in flight: start iterations for `--seconds`.
    // The traced run alternates untraced and traced iterations, so that
    // the overhead of tracing is measured inside one process. The
    // self-check runs one sabotaged iteration.
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let loop_start = Instant::now();
    let mut rss_mib = 0.0;
    let mut n = 0u32;
    loop {
        n += 1;
        tracer.set_iteration(n);
        let trace_this = args.trace && n.is_multiple_of(2);
        let it = workload.iteration(
            args.seed,
            &Ctx {
                tracer: &tracer,
                traced: trace_this,
                sabotage: args.self_check,
                volume_div: 1,
            },
        );
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(it);
        if n == 1 {
            // Taken after the warm-up and one full iteration, so that it
            // does not depend on how many iterations the machine fits into
            // `--seconds` (the heap creeps up a little with each one).
            rss_mib = host::peak_rss_mib();
        }
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            n >= 2
        };
        if args.self_check || (enough && loop_start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    let measured_s = loop_start.elapsed().as_secs_f64();
    let rss_exit_mib = host::peak_rss_mib();

    let all: Vec<&Iteration> = untraced.iter().chain(&traced).collect();
    let virt_ms = column(&all, |it| it.virt_ns as f64 / 1e6);
    let virt_repeats = virt_ms.iter().all(|v| *v == virt_ms[0]);
    let ops: u64 = all.iter().map(|it| it.ops).sum();
    let failed: u64 = all.iter().map(|it| it.failed).sum();
    let host_wall_s = median(&column(&untraced.iter().collect::<Vec<_>>(), |it| {
        it.wall_s
    }));

    let mut e2e = Values::new();
    e2e.insert("virt_response_ms", median(&virt_ms));
    e2e.insert("host_wall_s", host_wall_s);
    // Process start to the end of the warm-up happens once; everything an
    // iteration builds before its measured section happens every
    // iteration, so its median is taken.
    e2e.insert(
        "setup_s",
        startup_s + median(&column(&all, |it| it.setup_s)),
    );
    e2e.insert("host_peak_rss_mib", rss_mib);

    let mut layers = Values::new();
    if args.trace {
        layers = layer_rows(&all, &traced, &untraced);
        layers.insert("host.calib_ms", calib_ms);
        drivers::run_all(args.seed, &tracer, &mut layers);
    }

    for it in &all {
        println!(
            "# iteration setup_s {:.4} wall_s {:.4}",
            it.setup_s, it.wall_s
        );
        for note in &it.notes {
            println!("# failed: {note}");
        }
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .map_or("s", |d| d.unit)
    };
    println!("workload {} -", args.workload);
    println!("seed {} -", args.seed);
    println!("pinned {} -", u8::from(pinned));
    println!(
        "cpus {} count",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("samples {} count", untraced.len());
    println!("traced_samples {} count", traced.len());
    println!("measured_s {measured_s} s");
    println!(
        "measured_wall_s {} s",
        column(&all, |it| it.wall_s).iter().sum::<f64>()
    );
    println!("startup_s {startup_s} s");
    println!("warmup_s {warmup_s} s");
    println!("host_peak_rss_exit_mib {rss_exit_mib} MiB");
    println!("virt_repeats {} -", u8::from(virt_repeats));
    println!("ops {ops} count");
    println!("ops_failed {failed} count");
    println!("failed_share {} ratio", failed as f64 / ops as f64);
    for (name, v) in e2e.iter().chain(&layers) {
        println!("{name} {v} {}", unit_of(name));
    }

    let correct = failed == 0 && virt_repeats;
    let shown = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace { &layers } else { &e2e };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(shown, values)
    );
    if let Some(dir) = &args.out {
        let write = |file: String, text: &str| {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, text))
            {
                eprintln!("cannot write {file}: {e}");
                std::process::exit(2);
            }
        };
        if args.trace {
            write(
                format!("{dir}/trace-{}.json", args.workload),
                &tracer.to_json(&args.workload, args.seed),
            );
            write(format!("{dir}/{}.trace.json", args.workload), &result);
        } else {
            write(format!("{dir}/{}.json", args.workload), &result);
        }
    }
    println!("{result}");
    if args.self_check && failed > 0 {
        // The sabotage was caught: that is the non-zero exit asked for.
        std::process::exit(1);
    }
}
