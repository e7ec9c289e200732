//! Property tests for the fair NIC arbiter ([`FairResource`]) in
//! isolation: for random flow counts and demand patterns, granted
//! bandwidth shares converge to equal shares, no flow starves, and the
//! untagged path stays bit-identical to the plain FIFO [`Resource`].

use proptest::prelude::*;
use rshuffle_repro::simnet::{FairResource, FlowId, FlowTable, Resource, SimDuration, SimTime};

const HORIZON_NS: u64 = 20_000_000; // 20 ms of virtual time

/// Closed-loop demand: every one of `quantum_ns.len()` running flows
/// re-issues a `quantum_ns[i]`-long reservation the moment its previous
/// one completes, until the horizon. Returns per-flow busy time and the
/// sum of all durations.
fn run_closed_loop(quantum_ns: &[u64]) -> (Vec<SimDuration>, SimDuration) {
    let table = FlowTable::new();
    for i in 0..quantum_ns.len() {
        table.start(FlowId(i as u32));
    }
    let mut fair = FairResource::new();
    let mut next_arrival: Vec<SimTime> = vec![SimTime::ZERO; quantum_ns.len()];
    let mut issued = SimDuration::ZERO;
    // The flow whose next request arrives earliest goes next (ties by
    // flow id) — the deterministic analogue of event order.
    while let Some((i, &at)) = next_arrival
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t.as_nanos() < HORIZON_NS)
        .min_by_key(|&(i, &t)| (t, i))
    {
        let duration = SimDuration::from_nanos(quantum_ns[i]);
        let r = fair.reserve_flow(at, duration, FlowId(i as u32), &table);
        assert!(r.start >= at, "reservation granted before its arrival");
        assert_eq!(r.end, r.start + duration, "duration not honored");
        next_arrival[i] = r.end;
        issued += duration;
    }
    let busy: Vec<SimDuration> = (0..quantum_ns.len())
        .map(|i| fair.busy_for(FlowId(i as u32)))
        .collect();
    assert_eq!(
        fair.busy_total(),
        issued,
        "busy accounting lost or invented time"
    );
    (busy, issued)
}

proptest! {
    /// Untagged reservations through the fair arbiter are bit-identical
    /// to the plain FIFO resource, for any arrival/duration pattern —
    /// the "no running flow" guarantee.
    #[test]
    fn untagged_path_matches_plain_fifo(
        gaps in prop::collection::vec(0u64..5_000, 48),
        durs in prop::collection::vec(1u64..10_000, 48),
    ) {
        let table = FlowTable::new();
        let mut fair = FairResource::new();
        let mut fifo = Resource::default();
        let mut now = SimTime::ZERO;
        for (&gap, &dur) in gaps.iter().zip(&durs) {
            now += SimDuration::from_nanos(gap);
            let duration = SimDuration::from_nanos(dur);
            let a = fair.reserve_flow(now, duration, FlowId::NONE, &table);
            let b = fifo.reserve(now, duration);
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
        }
        prop_assert_eq!(fair.free_at(), fifo.free_at());
    }

    /// A flow with no co-runner is never paced, however many idle flows
    /// are running beside it: its schedule is plain FIFO, so starting a
    /// lone query cannot change its trace.
    #[test]
    fn solo_flow_is_never_paced(
        idle in 0u32..16,
        gaps in prop::collection::vec(0u64..5_000, 48),
        durs in prop::collection::vec(1u64..10_000, 48),
    ) {
        let table = FlowTable::new();
        for flow in 7..=7 + idle {
            table.start(FlowId(flow));
        }
        let mut fair = FairResource::new();
        let mut fifo = Resource::default();
        let mut now = SimTime::ZERO;
        for (&gap, &dur) in gaps.iter().zip(&durs) {
            now += SimDuration::from_nanos(gap);
            let duration = SimDuration::from_nanos(dur);
            let a = fair.reserve_flow(now, duration, FlowId(7), &table);
            let b = fifo.reserve(now, duration);
            prop_assert_eq!(a.start, b.start, "solo flow was paced");
            prop_assert_eq!(a.end, b.end);
        }
    }

    /// Under saturating closed-loop demand from every flow, granted
    /// shares converge to equal shares whatever each flow's request
    /// size: every flow's busy time lands within 2.5× of every other's,
    /// and the resource stays mostly busy. (The arbiter is an *eager
    /// online* approximation — it never reorders or delays a grant beyond
    /// one quantum — and the closed-loop harness issues one request per
    /// flow at a time, so perfect shares and 100% utilization are
    /// unattainable by construction; the bounds pin the approximation.)
    #[test]
    fn shares_converge_to_equal(
        flows in 2usize..5,
        quanta in prop::collection::vec(500u64..4_000, 4),
    ) {
        let (busy, issued) = run_closed_loop(&quanta[..flows]);
        // Work conservation: closed-loop demand keeps the pipe full, so
        // nearly the entire horizon is granted (boundary effects only).
        prop_assert!(
            issued.as_nanos() >= HORIZON_NS * 70 / 100,
            "arbiter left the resource idle under saturating demand: \
             {} of {HORIZON_NS} ns granted",
            issued.as_nanos()
        );
        let lo = busy.iter().min().map_or(0, |b| b.as_nanos()) as f64;
        let hi = busy.iter().max().map_or(0, |b| b.as_nanos()) as f64;
        prop_assert!(
            hi <= lo * 2.5,
            "shares diverged: quanta {quanta:?}, busy {busy:?}, spread {lo:.0}..{hi:.0}"
        );
    }

    /// No starvation: every flow — even one asking for 500 ns at a time
    /// against rivals asking for 4 µs — receives at least a quarter of its
    /// equal share of the horizon.
    #[test]
    fn no_flow_starves(
        flows in 2usize..5,
        quanta in prop::collection::vec(500u64..4_000, 4),
    ) {
        let (busy, _) = run_closed_loop(&quanta[..flows]);
        let entitled = HORIZON_NS as f64 / flows as f64;
        for (i, b) in busy.iter().enumerate() {
            prop_assert!(
                b.as_nanos() as f64 >= entitled * 0.25,
                "flow {i} starved: {} ns of {entitled:.0} entitled, quanta {quanta:?}",
                b.as_nanos()
            );
        }
    }
}
