#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lint-clean clippy.
# Run from the repo root. Pass --offline via CARGO_FLAGS if needed.
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=${CARGO_FLAGS:-}

cargo build --release $CARGO_FLAGS

# The whole workspace in one run: the umbrella package's integration
# suite (tests/) plus every crate's own — the simnet kernel/fiber and
# verbs transport tests that guard the scheduler, sched admission, core
# end-to-end, obs, audit, engine, tpch. 31 s on the fiber kernel. The
# umbrella suite used to run a second time on its own
# (`cargo test -q`, 21 s) before this; the workspace run is a superset.
cargo test -q --workspace $CARGO_FLAGS
cargo clippy --workspace $CARGO_FLAGS -- -D warnings

# Feature matrix: the audit feature auto-installs the protocol invariant
# auditor on every Exchange::build; the whole suite (chaos, conformance,
# determinism) must stay green — and byte-identical — with it on.
cargo test -q --features audit $CARGO_FLAGS
cargo clippy --workspace --all-targets --features audit $CARGO_FLAGS -- -D warnings

# Mutation smoke: each compile-time saboteur breaks one protocol step and
# must be caught by the auditor as a *named* violation, never a hang.
cargo test -q --features saboteur --test mutation $CARGO_FLAGS
cargo clippy --workspace --all-targets --features saboteur $CARGO_FLAGS -- -D warnings

# Panic-free data path: endpoint hot paths and the query coordinator
# (engine::recovery) propagate typed ShuffleErrors; unwrap/expect would
# turn a poisoned ring slot or a failed reconnect into a process abort.
if grep -rnE '\.(unwrap|expect)\(' crates/core/src/endpoint/ crates/engine/src/ \
  crates/core/src/phase.rs crates/core/src/advisor.rs; then
  echo "ERROR: unwrap()/expect() on an engine, endpoint, phase or advisor data path (see above)" >&2
  exit 1
fi

# Rows at row speed: the engine's operators key their tables through the
# unseeded `KeyHasher` aliases (std's SipHash was 11 % of tpch_mix's host
# time) and give no row a heap allocation of its own (a `to_vec()` per
# build row was two allocations per row, with the join's per-key lists).
if grep -HnE 'Hash(Map|Set)<u64' crates/engine/src/ops.rs | grep -v 'BuildHasherDefault<KeyHasher>' ||
  grep -Hn 'to_vec()' crates/engine/src/ops.rs; then
  echo "ERROR: an engine operator keys a table with SipHash or copies a row into a Vec (see above);" >&2
  echo "       use KeyMap / KeySet, and write rows into the output batch or the join arena" >&2
  exit 1
fi

# Allocation-free hot paths: the endpoints run on pooled registered
# buffers, reusable CQ scratch and cached address handles, so fresh
# heap allocations (`to_vec()`, `Vec::new(`) in the endpoint sources
# are almost always a hot-path regression. Deliberate setup-time sites
# carry an `alloc-ok: <reason>` comment on the same line.
if grep -rn 'to_vec()\|Vec::new(' crates/core/src/endpoint/ | grep -v 'alloc-ok'; then
  echo "ERROR: unpooled allocation in an endpoint source (see above);" >&2
  echo "       pool it, or annotate a genuine setup-time site with 'alloc-ok: <reason>'" >&2
  exit 1
fi

# One seam: `Exchange::shuffle_operator` / `receive_operator` are the only
# builders of the two operators (lanes, groups, threads, the phase runner
# exactly where the schedule wants it). The constructors under them stay
# `pub` for the frozen `benchmark/` alone — not scanned here — until
# ROADMAP 1a moves it; every other caller goes through the exchange.
if wired=$(grep -rlE 'ShuffleOperator::with_lanes|ReceiveOperator::with_lanes|\.with_phases\(' \
  crates src tests examples | grep -v '^crates/core/src/'); then
  echo "ERROR: SHUFFLE/RECEIVE operators wired by hand outside crates/core/src/ in:" >&2
  echo "$wired" >&2
  echo "       use Exchange::shuffle_operator / Exchange::receive_operator" >&2
  exit 1
fi

# One completion constructor: every work request's completion is built by
# `Completion::new(..).outcome(..)` (crates/verbs/src/cq.rs). A
# ten-field literal per outcome is how two of them come to disagree on a
# field no endpoint reads.
if copies=$(grep -rl 'Completion {' crates/verbs/src | grep -v '/cq\.rs$'); then
  echo "ERROR: a Completion { .. } literal in crates/verbs/src outside cq.rs, in:" >&2
  echo "$copies" >&2
  echo "       use Completion::new(..).outcome(..)" >&2
  exit 1
fi

# A pool, not its windows: an endpoint hands its Queue Pair a receive pool
# as one run (`QueuePair::post_recv_run_untimed`). A per-window bootstrap
# loop is O(peers x ring depth) host time per `Exchange::build` — 3.1 M
# posts on the 64-node cell — and can leave a refused pool half posted.
if grep -rn 'post_recv_untimed(' crates/core/src/endpoint/; then
  echo "ERROR: an endpoint posts its receive pool window by window (see above);" >&2
  echo "       hand the Queue Pair the pool: post_recv_run_untimed(first, step, count)" >&2
  exit 1
fi

# Chaos smoke: a composite fault plan (link flap + straggler + QP failure
# + UD loss burst) plus a partial-recovery plan (whole-node QP-failure
# window) across all six algorithms; fails unless every query recovers
# with exactly-once row delivery, and the partial-recovery plan is
# contained without a full restart.
bench_bin() {
  cargo run -q --release -p rshuffle-bench --bin "$1" $CARGO_FLAGS -- "${@:2}"
}
bench_bin bench chaos --smoke

# One host thread: simulated threads are fibers (crates/simnet/src/fiber.rs).
# An OS thread per simulated thread must not come back through a side door.
if grep -rn 'thread::Builder\|thread::spawn' crates/simnet/src; then
  echo "ERROR: crates/simnet/src spawns OS threads (see above); simulated threads are fibers" >&2
  exit 1
fi

# Perf-trajectory gates, one row each: `bench <experiments> --smoke --emit`
# runs the deterministic smoke configuration of each experiment — which
# checks its own invariants and exits non-zero when one breaks — and
# perfdiff compares the report against the committed baseline; any gated
# metric (latency up, throughput down) past the 10% tolerance fails the
# build, naming the gate. Where the last column says so the gate then
# checks itself: the same candidate with an injected 2x slowdown must be
# caught, or the gate is dead weight.
#   smoke    — the concurrency matrix (1 and 2 co-running queries per
#              algorithm through the admission scheduler: queries must
#              genuinely overlap in virtual time and the registered-memory
#              budget must hold on every node) and the message-size smoke.
#   scale    — the 32-node crossover-pair sweep over the fat-tree fabric,
#              with and without the QP cap, on its deterministic
#              virtual-time metrics (qp_count and lease waits ride along
#              as informational rows).
#   adaptive — the phased-vs-unphased sweep (N = 128/256 under Zipf skew on
#              the congested fat tree — phased MESQ/SR must stay strictly
#              faster) and the advisor-vs-oracle matrix (picks within the
#              acceptance band on >= 90% of rows). The experiment enforces
#              both itself; perfdiff pins the actual numbers.
#   figures  — the paper's figures and the ablations: each sweep's first
#              and last x at 4 MiB/node, TPC-H at SF 0.01/node.
# gate | baseline | experiments emitting the candidate | self-check
PERF_GATES=(
  "smoke    BENCH_0008.json       concurrency,fig09_msgsize yes"
  "scale    BENCH_SCALE_0010.json scale                     no"
  "adaptive BENCH_0010.json       adaptive                  yes"
  "figures  BENCH_FIGS_0018.json  fig08_credit,fig10_scaleout,fig11_qps,fig12_setup,fig13_compute,fig14_tpch,ablate_write,ablate_multicast,ablate_zerocopy no"
)
PERF_TMP=$(mktemp -d /tmp/rshuffle-perf.XXXXXX)
trap 'rm -rf "$PERF_TMP"' EXIT
perf_gate() {
  local gate=$1 baseline=$2 experiments=$3 selfcheck=$4 cand="$PERF_TMP/$1.json"
  local diff=(perfdiff --against "$baseline" --tolerance-pct 10 --candidate "$cand")
  local started=$SECONDS
  bench_bin bench ${experiments//,/ } --smoke --emit "$cand" >/dev/null &&
    bench_bin "${diff[@]}" || {
    echo "ERROR: perf gate '$gate' failed against $baseline" >&2
    exit 1
  }
  # Host time is gated nowhere: a set-up regression at N = 256 shows here.
  echo "perf gate '$gate': $((SECONDS - started)) s wall"
  if [ "$selfcheck" = yes ] &&
    bench_bin "${diff[@]}" --scale-latency 2 >/dev/null 2>&1; then
    echo "ERROR: perf gate '$gate': perfdiff failed to catch an injected 2x regression" >&2
    exit 1
  fi
}
for row in "${PERF_GATES[@]}"; do
  perf_gate $row
done

# Host-memory ceiling: the smoke's N = 256 cells are the largest thing
# this script runs. They peaked at 2909 MiB resident when registered
# memory started to follow live windows (EXPERIMENTS.md, "Host memory");
# 1.25x that fails the build — the ~14 GiB they used to take got the
# run OOM-killed in a 16 GiB sandbox.
ADAPT_RSS_CEILING_MIB=3636
awk -v ceiling="$ADAPT_RSS_CEILING_MIB" '
  /"host_peak_rss_mib": [0-9]/ { gsub(/[^0-9.]/, "", $2); peak = $2 }
  END {
    if (peak + 0 <= 0 || peak + 0 > ceiling) {
      printf "ERROR: adaptive --smoke peaked at %s MiB resident (ceiling %d MiB)\n", peak, ceiling > "/dev/stderr"
      exit 1
    }
  }' "$PERF_TMP/adaptive.json"

# The frozen surface: `benchmark/` is a workspace of its own that names
# layer crates by path and `pub` items by name, and no other leg compiles
# it. A change to the crate graph or to a name it uses fails here and not
# first in the benchmark pipeline. Cargo rewrites the committed lock file
# when the crate graph has moved under it; that file is frozen too.
frozen=0
CARGO_TARGET_DIR="$PERF_TMP/benchmark-target" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml || frozen=$?
git checkout -- benchmark/Cargo.lock
if [ "$frozen" -ne 0 ]; then
  echo "ERROR: benchmark/ no longer builds against this tree (see above)" >&2
  exit 1
fi

# Documentation gate: rshuffle-sched is #![warn(missing_docs)]; deny all
# rustdoc warnings in every workspace member (a plain `cargo doc` only
# documents the umbrella package) so the public surface stays documented.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q $CARGO_FLAGS
