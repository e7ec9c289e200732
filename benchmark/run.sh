#!/usr/bin/env bash
# Builds the benchmark and runs workloads, each as its own process.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--self-check]
#
# Without --workload all six run in turn. Every metric is printed as
# `name value unit`; the last line of each workload is its JSON result,
# also written to benchmark/out/. --trace (or --trace 1) makes the traced
# run: per-layer metrics and benchmark/out/trace-<workload>.json.
# The binary pins itself to the last CPU it is allowed on and prints
# `pinned 0` when it could not, so that unpinned numbers are never
# mistaken for comparable ones (see README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(repart_ud repart_rc_small bcast_rd_fdr16 tpch_mix fattree64_phased recovery_mix)
seed=1
seconds=10
trace=0
extra=()

while (($#)); do
    case "$1" in
        --workload) workloads=("${2:?--workload needs a name}"); shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
        --trace)
            if [[ "${2-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        --self-check) extra+=(--self-check); shift ;;
        *) echo "usage: $0 [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--self-check]" >&2
           exit 2 ;;
    esac
done

# The checkout holds sources only: build here, offline, optimised.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/rshuffle-benchmark"

for workload in "${workloads[@]}"; do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$here/out" ${extra[@]+"${extra[@]}"}
done
