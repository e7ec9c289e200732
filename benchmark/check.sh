#!/usr/bin/env bash
# Checks the benchmark against itself on one tree:
#
#   1. the names in BENCHMARK.json are the names the binary prints;
#   2. two full sets (untraced three times over, traced once, same seed)
#      agree within the bounds of BENCHMARK.json: virt_response_ms,
#      attempted, failed and every count or virtual per-layer row
#      bit-identical, the medians of the host metrics within their bound,
#      tracing overhead under 10 %;
#   3. a second seed changes the virtual response yet still verifies;
#   4. --self-check (one row lost in one sink) is caught.
#
# Names the offending metric/workload pair and exits non-zero on failure.
#
#   benchmark/check.sh [--seed S] [--seconds N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=1
seconds=10
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "usage: $0 [--seed S] [--seconds N]" >&2; exit 2 ;;
    esac
done

# Three untraced rounds, the two sets taking turns, so that the slow drift
# of a shared machine lands on both alike; medians are compared.
rm -rf "$here/out"
for round in 1 2 3; do
    for set in set1 set2; do
        "$here/run.sh" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
        mkdir -p "$here/out/$set/$round"
        mv "$here"/out/*.json "$here/out/$set/$round/"
    done
done
for set in set1 set2; do
    "$here/run.sh" --seed "$seed" --seconds "$seconds" --trace 1 >/dev/null
    mv "$here"/out/*.json "$here/out/$set/"
done
"$here/run.sh" --seed "$((seed + 1))" --seconds 1 --trace 0 >/dev/null
mkdir -p "$here/out/seed2"
mv "$here"/out/*.json "$here/out/seed2/"

for workload in repart_ud tpch_mix recovery_mix; do
    if "$here/run.sh" --workload "$workload" --seed "$seed" --self-check >/dev/null; then
        echo "FAIL $workload: --self-check lost a row and nobody noticed" >&2
        exit 1
    fi
done
rm -f "$here"/out/*.json

python3 - "$here" <<'PY'
import json, statistics, sys
from pathlib import Path

here = Path(sys.argv[1])
manifest = json.loads((here.parent / "BENCHMARK.json").read_text())
bounds = {m["name"]: (m["bound"], m["better"]) for m in manifest["end_to_end"]}
layer_names = [m["name"] for m in manifest["per_layer"]]
# Rows measured on the host clock; every other per-layer row is a count
# or a virtual time and repeats bit-for-bit per seed.
host_clock = {
    "simnet.kernel.ctx_switches_per_mib", "simnet.kernel.sys_share", "simnet.kernel.handoff_ns",
    "simnet.kernel.gate_wake_ns", "simnet.kernel.event_ns", "simnet.nic.process_ns",
    "simnet.net.transfer_ns", "verbs.post_poll_host_ns", "core.exchange.build_s",
    "core.operator.send_cpu_s", "core.operator.recv_cpu_s", "core.buffer.take_recycle_ns",
    "engine.source_cpu_s", "engine.local_q4_host_s", "tpch.gen_s", "tpch.reference_s",
    "obs.snapshot_s", "trace.handoff_residual_share", "trace.overhead_pct", "host.calib_ms",
}
exact = set(layer_names) - host_clock
failures = []

def load(directory, workload, suffix=""):
    return json.loads((here / "out" / directory / f"{workload}{suffix}.json").read_text())

for w in (x["name"] for x in manifest["workloads"]):
    rounds = {s: [load(f"{s}/{r}", w) for r in (1, 2, 3)] for s in ("set1", "set2")}
    a = rounds["set1"][0]
    ta, tb = load("set1", w, ".trace"), load("set2", w, ".trace")
    if sorted(a["metrics"]) != sorted(bounds):
        failures.append(f"{w}: end-to-end names differ from BENCHMARK.json")
    if sorted(ta["metrics"]) != sorted(layer_names):
        failures.append(f"{w}: per-layer names differ from BENCHMARK.json")
    for r in rounds["set1"] + rounds["set2"] + [ta, tb]:
        if not r["correct"] or r["failed"] != 0:
            failures.append(f"{w}: {r['failed']} of {r['attempted']} operations failed")
    for name, (bound, _) in bounds.items():
        xs, ys = ([r["metrics"][name]["value"] for r in rounds[s]] for s in ("set1", "set2"))
        if name == "virt_response_ms":
            if set(xs) != set(ys) or len(set(xs)) != 1:
                failures.append(f"{w}/{name}: {xs} vs {ys}, must be bit-identical")
            continue
        x, y = statistics.median(xs), statistics.median(ys)
        if abs(x - y) > bound * min(x, y):
            failures.append(f"{w}/{name}: medians {x} vs {y}, beyond {bound:.0%}")
    for name in sorted(exact):
        x, y = ta["metrics"][name]["value"], tb["metrics"][name]["value"]
        if x != y:
            failures.append(f"{w}/{name}: {x} vs {y}, must be bit-identical")
    # The estimate rests on a few iterations a side and is noisy both
    # ways; a real overhead of 10 % shows in both traced runs.
    overhead = min(t["metrics"]["trace.overhead_pct"]["value"] for t in (ta, tb))
    if overhead >= 10:
        failures.append(f"{w}/trace.overhead_pct: {overhead:.1f} %, must stay under 10 %")
    other = load("seed2", w)
    if not other["correct"]:
        failures.append(f"{w}: the second seed does not verify")
    if other["metrics"]["virt_response_ms"]["value"] == a["metrics"]["virt_response_ms"]["value"]:
        failures.append(f"{w}/virt_response_ms: the second seed changed nothing")

for f in failures:
    print("FAIL", f)
print(f"check: {len(failures)} failure(s)")
sys.exit(1 if failures else 0)
PY
