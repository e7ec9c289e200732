#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lint-clean clippy.
# Run from the repo root. Pass --offline via CARGO_FLAGS if needed.
# RSHUFFLE_BLESS=1 re-records the pin files of tests/pins/ (first test run)
# and each perf gate's BENCH_<GATE>.json; every later leg runs without it and
# must reproduce them, and the run fails, listing what it rewrote.
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=${CARGO_FLAGS:-}
BLESS=${RSHUFFLE_BLESS:-}
unset RSHUFFLE_BLESS
PERF_TMP=$(mktemp -d /tmp/rshuffle-perf.XXXXXX)
trap 'rm -rf "$PERF_TMP"' EXIT
touch "$PERF_TMP/start"

# One layout: rustfmt holds every first-party package, the root one and
# each under crates/. The vendored drop-ins (vendor/) and the frozen
# benchmark/ workspace keep theirs.
FIRST_PARTY=(-p rshuffle-repro)
for manifest in crates/*/Cargo.toml; do
  FIRST_PARTY+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
cargo fmt --check "${FIRST_PARTY[@]}"

cargo build --release $CARGO_FLAGS

# The whole workspace in one run: the umbrella package's integration
# suite (tests/) plus every crate's own — the simnet kernel/fiber and
# verbs transport tests that guard the scheduler, sched admission, core
# end-to-end, obs, audit, engine, tpch. 31 s on the fiber kernel. Every
# suite runs before the leg fails, so one pass names every moved pin row.
RSHUFFLE_BLESS=$BLESS cargo test -q --workspace --no-fail-fast $CARGO_FLAGS
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

# Index, don't hash: the tables a message or a row passes through are keyed
# by ids the simulator hands out (node, QP number, rkey, endpoint, window)
# or by the engine's u64 keys, and hash through the workspace's one
# unseeded `KeyHasher` (`rshuffle_simnet::KeyMap` / `KeySet`) — std's
# SipHash was 11 % of tpch_mix's and 10 % of fattree64_phased's host time
# (the kernel's straggler table is read on every simulated sleep).
# What is per peer is a vector indexed by node id, the recorder sorts its
# tracks only when it dumps them, and no engine row gets a heap allocation
# of its own (a `to_vec()` per build row was two allocations per row).
ID_KEYED=(crates/core/src/endpoint crates/simnet/src/nic.rs crates/simnet/src/lru.rs
  crates/simnet/src/kernel.rs crates/verbs/src/runtime.rs crates/verbs/src/mr.rs crates/obs/src/recorder.rs
  crates/engine/src/ops.rs crates/audit/src)
if grep -rnE 'Hash(Map|Set)<' "${ID_KEYED[@]}" ||
  grep -rn 'Mutex<HashMap<NodeId' crates/core/src/endpoint/ ||
  grep -Hn 'BTreeMap' crates/obs/src/recorder.rs ||
  grep -Hn 'to_vec()' crates/engine/src/ops.rs; then
  echo "ERROR: an id- or key-indexed table hashes with SipHash, the recorder keeps a BTreeMap," >&2
  echo "       or an engine operator copies a row into a Vec (see above); use" >&2
  echo "       rshuffle_simnet::KeyMap / KeySet, a vector indexed by node id, and write rows" >&2
  echo "       into the output batch or the join arena" >&2
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
# `pub` for the frozen `benchmark/` alone — not scanned here — until the
# ROADMAP item "Thaw the `benchmark/` surface once" moves it; every other
# caller goes through the exchange.
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

# One wire path for one receiver or many: a multicast is the unicast path
# with more members — `Fabric::transfer_group` in simnet, the one datagram
# body behind `post_send` and `post_send_multicast` in verbs, one more
# target of `sr_ud`'s send. The second, laxer copy each layer used to hold
# skipped the control lane, the incast model and a degraded receiver.
if forked=$(grep -rlE 'transfer_multicast_flow|send_native_multicast' crates); then
  echo "ERROR: a separate multicast send path is back in:" >&2
  echo "$forked" >&2
  echo "       send to a group through Fabric::transfer_group and QueuePair::post_send_multicast" >&2
  exit 1
fi

# One rule, one place: each auditor hook is one `AuditHandle` method that
# hands its rule to one helper (the `Option` branch, the lock, the
# virtual-time check, the recording). The private twin each hook used to
# forward to is how two copies of a protocol rule drift apart; a UD
# `Depleted` declaration is checked against the credit lane's count, not
# against a second table of the same sends.
HOOKS='credit_lane|credit_granted|receives_posted|credit_received|credit_lane_closed|credit_consumed|buffer_taken|buffer_sent|buffer_recycled|delivered|released|ring|ring_produced|ring_consumed|depleted_announced|counted_receive'
twice=$(grep -rnoE "fn ($HOOKS)\(" crates/audit/src | awk -F: 'seen[$3]++ { print $1 ": " $3 }')
if [ -n "$twice" ]; then
  echo "ERROR: an auditor hook is defined more than once, in:" >&2
  echo "$twice" >&2
  echo "       write each rule once, in its AuditHandle method" >&2
  exit 1
fi
if sent=$(grep -rlwE 'data_sent|sent_data' crates); then
  echo "ERROR: a second count of UD data sends is back in:" >&2
  echo "$sent" >&2
  echo "       the Depleted check reads the UD credit lane's consumed count" >&2
  exit 1
fi

# One SHUFFLE loop: `ShuffleOperator` reads its child in one place, and a
# phase schedule only decides when each destination opens. The streamed
# and the phased loop it replaced each carried their own copy of the
# buffer taking, the message cut and the Depleted tail.
reads=$(grep -o 'self\.child\.next(' crates/core/src/operator.rs | wc -l)
if [ "$reads" -gt 1 ]; then
  echo "ERROR: crates/core/src/operator.rs calls self.child.next( $reads times;" >&2
  echo "       ShuffleOperator has one transmit loop, phased or not" >&2
  exit 1
fi
if forked=$(grep -rlwE 'next_streamed|next_phased' crates); then
  echo "ERROR: a second SHUFFLE transmit loop is back in:" >&2
  echo "$forked" >&2
  echo "       open destinations in ShuffleOperator's one loop instead" >&2
  exit 1
fi

# Every layer names what dies without it (DESIGN.md §20, "The layer
# ledger"). The ones whose only callers were their own tests, or whose job
# another layer already did, are gone: the stage-span switch, the
# coordinator's attempt hooks (it calls the scheduler itself), a recorder
# event nothing emitted, a CQ wait nothing called, a flow-tagged memory
# sweep (an attempt's memory goes back by its build's resource marks) and
# a timed gate receive (a timed wait is `SimContext::wait_any`). The phase
# runner crosses a `simnet::SimBarrier`; a barrier of its own is a second copy.
# The UD endpoint is one `SrUdChannel` handed out as both traits, not two
# half types over a shared state; the phase schedule has one policy (the
# rotation with heavy sources exempted, which on a uniform matrix is the
# plain rotation); a recording RECEIVE is `ReceiveOperator::recording`.
# The advisor has two rules, both graded by `bench adaptive`: a broadcast
# probes MESQ/SR against SEMQ/SR, everything else is MESQ/SR alone, phased
# on an oversubscribed tree with incast. The scale, message-size, memory
# and thread rules, their constants, the signals only they read and the
# phased finalist filter ranked nothing the oracle confirmed.
# What a receive half knows of each source is one `frame::SourceBook`, by
# peer slot: the depleted flags, the RC credit table and the UD count
# table by endpoint id it replaced each kept a part of it.
# Recovery has no probe of its own: the rebuilt exchange is the probe,
# and a QP brought up inside a failure window fails the build.
LEDGER_DELETED='AttemptHooks|AttemptEnd|set_stage_spans|stage_span\(|FlowResumed|next_timeout'
LEDGER_DELETED+='|deregister_flow|mr_flows|RecvTimeout|recv_timeout'
LEDGER_DELETED+='|UdShared|SrUdSendEndpoint|SrUdReceiveEndpoint|send_half|recv_half'
LEDGER_DELETED+='|recording_receive_operator|PhasePolicy::Naive'
LEDGER_DELETED+='|LARGE_CLUSTER|LARGE_MESSAGE|TIGHT_HEADROOM|mem_headroom|co_runners'
LEDGER_DELETED+='|peer_independent_state'
LEDGER_DELETED+='|SrcCredit|SrcCount|mark_depleted|all_depleted|is_depleted|struct Sources|Sources::new|by_endpoint'
LEDGER_DELETED+='|probe_failed_nodes|probe_once|PROBE_BYTES|PROBE_TIMEOUT|reconnect_rc'
if revived=$(grep -rlE "$LEDGER_DELETED" crates); then
  echo "ERROR: a layer the ledger deleted is back in:" >&2
  echo "$revived" >&2
  echo "       give it a row in DESIGN.md §20 that names what dies without it, or leave it out" >&2
  exit 1
fi
if grep -Hn 'Gate::new' crates/core/src/phase.rs; then
  echo "ERROR: crates/core/src/phase.rs builds a barrier of its own (see above);" >&2
  echo "       PhaseRunner waits on its simnet::SimBarrier" >&2
  exit 1
fi

# One RECEIVE: the query coordinator runs both fragments of every attempt
# on the exchange's own operators. A recording RECEIVE writes the flow
# ledger and a resumed SHUFFLE reads it (crates/core/src/ledger.rs). The
# coordinator's private receive loop was a second copy of Algorithm 2, with
# a second per-generation tally of the same rows and a skip matrix of its
# own; two test-only counts (the QP cache's hit statistics) went by the
# rule of the layer ledger.
if revived=$(grep -rlwE 'recovery_recv_loop|RecvAccounting|with_resume_skip|hit_stats' crates); then
  echo "ERROR: a folded receive path or a test-only count is back in:" >&2
  echo "$revived" >&2
  echo "       record with ReceiveOperator::recording, resume with ShuffleOperator::resume_from" >&2
  exit 1
fi
if copies=$(grep -rl 'get_data(' crates/engine/src); then
  echo "ERROR: the engine pulls deliveries off an endpoint itself, in:" >&2
  echo "$copies" >&2
  echo "       take them through the exchange's RECEIVE operator (Algorithm 2, crates/core)" >&2
  exit 1
fi

# The endpoint traits are §4.2's calls (GetFree/Send, GetData/Release):
# an endpoint's id, registered bytes and setup cost are facts of its
# layout, which `Exchange::build` reads once through the transports'
# layout functions (`ExchangeConfig::footprint`). A method per impl
# restating them is how fifteen copies of three numbers come to disagree.
if restated=$(grep -rlE 'fn id\(&self\) -> EndpointId|fn registered_bytes\(&self\)|fn charge_setup\(&self' \
  crates/core/src/endpoint/ crates/baselines/src/ || grep -rl 'setup_cost' crates/core/src/endpoint/); then
  echo "ERROR: an endpoint restates its id, registered bytes or setup cost, in:" >&2
  echo "$restated" >&2
  echo "       read them off the exchange: Exchange::registered_bytes / charge_setup" >&2
  exit 1
fi

# RELEASE takes back what GETDATA handed out (§4.2, Algorithm 2): a
# delivery names the node the transport received it from, so no receive
# half maps a wire endpoint id back to a slot or a node, and no release
# takes an endpoint id to look up again.
if remapped=$(grep -rlE 'slot_of\(|fn learn\(|node_of\(|source_node' crates/core/src/ ||
  grep -rlPz 'fn release\([^)]*EndpointId' crates/core/src/ crates/baselines/src/); then
  echo "ERROR: the receive path maps an endpoint id to a slot or node again, in:" >&2
  echo "$remapped" >&2
  echo "       read the node off Delivery::src and hand the delivery back to release" >&2
  exit 1
fi

# Chaos: the full matrix (one plan per fault class — link flap and
# degrade, straggler, receiver pause, QP failure, UD loss burst — plus a
# partial-recovery whole-node QP-failure window) and the smoke's
# composite plan (flap + straggler + QP failure + UD burst), across all
# six algorithms, 0.1 s each; fails unless every query recovers with
# exactly-once row delivery, and the partial-recovery plan is contained
# without a full restart.
bench_bin() {
  cargo run -q --release -p rshuffle-bench --bin "$1" $CARGO_FLAGS -- "${@:2}"
}
bench_bin bench chaos
bench_bin bench chaos --smoke

# `diag --timeline` records each watched node's NIC pipeline and ports;
# recording must time nothing, so its response equals shufflebench's for
# the same shape. (awk reads to the end: diag dies of SIGPIPE otherwise.)
response() { awk '/response / && !done { sub(/.*response /, ""); sub(/[,)].*/, ""); print; done = 1 }'; }
traced=$(bench_bin diag --timeline MEMQ/RD 4 fdr broadcast 1 all | response)
plain=$(bench_bin shufflebench --profile fdr --nodes 4 --algorithm MEMQ/RD --pattern broadcast --mib 1 | response)
if [ -z "$plain" ] || [ "$traced" != "$plain" ]; then
  echo "ERROR: diag --timeline answered '$traced', shufflebench '$plain': recording moved virtual time" >&2
  exit 1
fi

# One host thread: simulated threads are fibers (crates/simnet/src/fiber.rs).
# An OS thread per simulated thread must not come back through a side door.
if grep -rn 'thread::Builder\|thread::spawn' crates/simnet/src; then
  echo "ERROR: crates/simnet/src spawns OS threads (see above); simulated threads are fibers" >&2
  exit 1
fi

# Perf-trajectory gates, one row each: `bench <experiments> --smoke --emit`
# runs the deterministic smoke configuration of each experiment — which
# checks its own invariants and exits non-zero when one breaks — and
# perfdiff holds the report equal to the gate's BENCH_<GATE>.json: every
# row and every stage-digest field, bit for bit, either way, but the rows
# tagged `host` (wall clock, resident memory). Every gate runs before the
# build fails, naming each failing one and each changed row.
#   smoke    — the concurrency matrix (1 and 2 co-running queries per algorithm
#              through the admission scheduler, overlapping in virtual time
#              within the memory budget of every node) and the message sizes.
#   scale    — the 32-node crossover-pair sweep over the fat-tree fabric,
#              with and without the QP cap.
#   adaptive — the phased-vs-unphased sweep (N = 128/256 under Zipf skew on the
#              congested fat tree; phased MESQ/SR must stay strictly faster; the
#              fattree64_phased benchmark's N = 64, 1 MiB/node shape is held
#              exactly but ungated) and the advisor-vs-oracle matrix (MESQ/SR
#              alone, phased on the incast tree, for every repartition row; a
#              microprobe of MESQ/SR against SEMQ/SR for the broadcast row; picks
#              within the acceptance band on >= 90% of rows, the
#              incast/skew/N=64/1MiB row at that same benchmark shape among
#              them), both enforced by the experiment itself.
#   figs     — the paper's figures and the ablations: each sweep's first
#              and last x at 4 MiB/node, TPC-H at SF 0.01/node.
# gate | experiments emitting the candidate
PERF_GATES=(
  "smoke    concurrency,fig09_msgsize"
  "scale    scale"
  "adaptive adaptive"
  "figs     fig08_credit,fig10_scaleout,fig11_qps,fig12_setup,fig13_compute,fig14_tpch,ablate_write,ablate_multicast,ablate_zerocopy"
)
failed=()
perf_gate() {
  local gate=$1 baseline="BENCH_${1^^}.json" cand="$PERF_TMP/$1.json" started=$SECONDS
  if ! bench_bin bench ${2//,/ } --smoke --emit "$cand" >/dev/null; then
    failed+=("'$gate': bench ${2//,/ } failed")
  elif ! bench_bin perfdiff --against "$baseline" --candidate "$cand"; then
    if [ "$BLESS" = 1 ]; then cp "$cand" "$baseline"; else failed+=("'$gate' against $baseline"); fi
  fi
  # Host time is gated nowhere: a set-up regression at N = 256 shows here.
  echo "perf gate '$gate': $((SECONDS - started)) s wall"
}
for row in "${PERF_GATES[@]}"; do perf_gate $row; done
[ ${#failed[@]} -eq 0 ] || { printf 'ERROR: perf gate %s\n' "${failed[@]}" >&2; exit 1; }

# Host-memory ceiling: the smoke's N = 256 cells are the largest thing
# this script runs. They peak at 2234 MiB resident since recorder slots,
# histogram buckets, CQ scratch and QP-cache tables grew by use (2402 MiB
# before; 2856 MiB before the phased SHUFFLE staged each row once;
# EXPERIMENTS.md, "Host memory"); 1.25x that fails the build — the
# ~14 GiB they took before registered memory followed live windows got
# the run OOM-killed in a 16 GiB sandbox.
ADAPT_RSS_CEILING_MIB=2793
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

if [ "$BLESS" = 1 ]; then
  echo "ERROR: RSHUFFLE_BLESS=1 rewrote, for review:" $(find tests/pins BENCH_*.json -newer "$PERF_TMP/start") >&2
  exit 1
fi
