//! `bench <id>… [--smoke] [--emit FILE]` — the one experiment runner
//! (see [`rshuffle_bench::experiments`]).

use rshuffle_bench::cli::{or_usage, Args};
use rshuffle_bench::experiments::{parse, run, usage};

fn main() {
    let invocation = or_usage(parse(Args::from_env()), &usage());
    std::process::exit(run(invocation));
}
