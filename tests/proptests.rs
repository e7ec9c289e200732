//! Property-based tests over the core data structures and invariants.

#[path = "common/coordinated.rs"]
mod coordinated;
#[path = "common/run.rs"]
mod run;

use proptest::prelude::*;
use rshuffle_repro::engine::BackoffSchedule;
use rshuffle_repro::rshuffle::{
    default_partition_hash, MsgHeader, MsgKind, RowBatch, StreamState, TransmissionGroups,
    HEADER_LEN,
};
use rshuffle_repro::simnet::lru::LruSet;
use rshuffle_repro::simnet::{Resource, SimDuration, SimTime};

proptest! {
    /// The message header codec round-trips every field combination.
    #[test]
    fn msg_header_roundtrip(
        src in any::<u32>(),
        kind in 0u8..2,
        state in 0u8..2,
        payload_len in any::<u32>(),
        counter in any::<u64>(),
        remote_addr in any::<u64>(),
        epoch in any::<u16>(),
        src_tid in any::<u16>(),
    ) {
        let header = MsgHeader {
            src,
            kind: if kind == 0 { MsgKind::Data } else { MsgKind::Credit },
            state: if state == 0 { StreamState::MoreData } else { StreamState::Depleted },
            payload_len,
            counter,
            remote_addr,
            epoch,
            src_tid,
        };
        let mut bytes = [0u8; HEADER_LEN];
        header.encode(&mut bytes);
        prop_assert_eq!(MsgHeader::decode(&bytes), Ok(header));
    }

    /// Wire-header decoding is total: extreme counter values round-trip
    /// without truncation, short slices and garbage tags surface as
    /// [`ShuffleError::Corrupt`] instead of panicking, and trailing bytes
    /// beyond the header are ignored.
    #[test]
    fn msg_header_decode_is_total(
        cut in 0usize..HEADER_LEN,
        kind_tag in any::<u8>(),
        state_tag in any::<u8>(),
        tail in 0usize..64,
        payload_delta in 0u32..4,
        counter_delta in 0u64..4,
    ) {
        use rshuffle_repro::rshuffle::ShuffleError;

        // Edge-of-range values: payload_len and counter hugging their
        // type maxima must survive the codec bit-exactly (a truncating
        // cast in either direction would wrap these first).
        let header = MsgHeader {
            src: u32::MAX,
            kind: MsgKind::Data,
            state: StreamState::Depleted,
            payload_len: u32::MAX - payload_delta,
            counter: u64::MAX - counter_delta,
            remote_addr: u64::MAX,
            epoch: u16::MAX,
            src_tid: u16::MAX,
        };
        let mut bytes = vec![0u8; HEADER_LEN + tail];
        header.encode(&mut bytes);
        prop_assert_eq!(MsgHeader::decode(&bytes), Ok(header));

        // Any strict prefix of a header is corruption, not a panic.
        prop_assert!(matches!(
            MsgHeader::decode(&bytes[..cut]),
            Err(ShuffleError::Corrupt(_))
        ));

        // Unknown enum tags are corruption; known tags decode.
        bytes[4] = kind_tag;
        bytes[5] = state_tag;
        let decoded = MsgHeader::decode(&bytes);
        if kind_tag < 2 && state_tag < 2 {
            let h = decoded.clone();
            prop_assert!(h.is_ok());
            prop_assert_eq!(decoded.unwrap().payload_len, header.payload_len);
        } else {
            prop_assert!(matches!(decoded, Err(ShuffleError::Corrupt(_))));
        }
    }

    /// RowBatch preserves rows exactly, in order.
    #[test]
    fn row_batch_roundtrip(rows in prop::collection::vec(any::<[u8; 8]>(), 0..200)) {
        let mut batch = RowBatch::new(8, rows.len());
        for r in &rows {
            batch.push_row(r);
        }
        prop_assert_eq!(batch.rows(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(batch.row(i), r.as_slice());
        }
        let collected: Vec<&[u8]> = batch.iter().collect();
        prop_assert_eq!(collected.len(), rows.len());
    }

    /// The LRU set agrees with a naive reference model.
    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..16,
        keys in prop::collection::vec(0u64..32, 1..300),
    ) {
        let mut lru = LruSet::new(capacity);
        let mut model: Vec<u64> = Vec::new(); // Front = most recent.
        for &k in &keys {
            let hit = lru.touch(k);
            let model_hit = model.contains(&k);
            prop_assert_eq!(hit, model_hit, "key {} divergence", k);
            model.retain(|&x| x != k);
            model.insert(0, k);
            model.truncate(capacity);
            prop_assert_eq!(lru.len(), model.len());
        }
    }

    /// Repartition groups cover every node but the sender, exactly once.
    #[test]
    fn repartition_groups_partition_the_cluster(n in 2usize..32, me_raw in 0usize..32) {
        let me = me_raw % n;
        let g = TransmissionGroups::repartition(me, n);
        prop_assert_eq!(g.len(), n - 1);
        let mut seen: Vec<usize> = g.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..n).filter(|&p| p != me).collect();
        prop_assert_eq!(seen, expected);
        prop_assert!(!g.targets(me));
    }

    /// The partition hash spreads arbitrary keys across groups without
    /// leaving any group starved (within loose statistical bounds).
    #[test]
    fn partition_hash_spreads_keys(seed in any::<u64>()) {
        let groups = 8u64;
        let mut counts = [0u64; 8];
        for i in 0..4096u64 {
            let key = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut row = [0u8; 16];
            row[0..8].copy_from_slice(&key.to_le_bytes());
            counts[(default_partition_hash(&row) % groups) as usize] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            prop_assert!((256..=1024).contains(&c), "group {} got {}", g, c);
        }
    }

    /// A FIFO resource never overlaps reservations and never loses time.
    #[test]
    fn resource_reservations_are_fifo_and_exact(
        durations in prop::collection::vec(1u64..10_000, 1..100),
    ) {
        let mut r = Resource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        for &d in &durations {
            let res = r.reserve(SimTime::ZERO, SimDuration::from_nanos(d));
            prop_assert!(res.start >= prev_end || prev_end == SimTime::ZERO);
            prop_assert_eq!((res.end - res.start).as_nanos(), d);
            prop_assert!(res.start >= prev_end);
            prev_end = res.end;
            total += d;
        }
        prop_assert_eq!(r.busy_total().as_nanos(), total);
        prop_assert_eq!(prev_end.as_nanos(), total, "back-to-back work leaves no gaps");
    }

    /// Virtual-time arithmetic is associative over mixed operations.
    #[test]
    fn sim_time_arithmetic(a in 0u64..1 << 40, b in 0u64..1 << 20, c in 0u64..1 << 20) {
        let t = SimTime::from_nanos(a);
        let d1 = SimDuration::from_nanos(b);
        let d2 = SimDuration::from_nanos(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert_eq!(((t + d1) - t), d1);
        prop_assert_eq!((t + d1 + d2) - (t + d1), d2);
    }

    /// Every u64 lands in a log-linear bucket that contains it, buckets
    /// are monotone in the value, and for values past the linear range
    /// the bucket is never wider than 1/16th of the value (the 6.25%
    /// quantization-error contract of the latency histograms).
    #[test]
    fn histogram_buckets_contain_and_bound_values(raw in any::<u64>(), shift in 0u32..64) {
        use rshuffle_obs::metrics::{bucket_index, bucket_lower_bound, bucket_upper_bound};
        // Mix small and huge magnitudes: `any::<u64>()` almost never
        // produces small values, so scale by a random shift.
        let v = raw >> shift;
        let i = bucket_index(v);
        let lb = bucket_lower_bound(i);
        let ub = bucket_upper_bound(i);
        prop_assert!(lb <= v && v <= ub, "value {} outside bucket [{}, {}]", v, lb, ub);
        if v < 16 {
            prop_assert_eq!(lb, ub, "sub-16 values get exact buckets");
        } else if ub < u64::MAX {
            prop_assert!(
                (ub - lb) as u128 * 16 <= lb as u128 + 16,
                "bucket [{}, {}] wider than 6.25% of its base", lb, ub
            );
        }
        // Monotone: the next value up never maps to an earlier bucket.
        if v < u64::MAX {
            prop_assert!(bucket_index(v + 1) >= i);
        }
    }

    /// Merging two histogram snapshots is exactly equivalent to having
    /// recorded both value streams into one histogram, and merge is
    /// commutative with the empty snapshot as identity.
    #[test]
    fn histogram_merge_equals_combined_recording(
        xs in prop::collection::vec(0u64..1 << 48, 0..100),
        ys in prop::collection::vec(0u64..1 << 48, 0..100),
    ) {
        use rshuffle_obs::{Histogram, HistogramSnapshot};
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for &x in &xs { a.record(x); combined.record(x); }
        for &y in &ys { b.record(y); combined.record(y); }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        if !xs.is_empty() || !ys.is_empty() {
            prop_assert_eq!(&ab, &combined.snapshot());
        }
        prop_assert_eq!(&ab.count, &ba.count);
        prop_assert_eq!(&ab.buckets, &ba.buckets);
        let mut id = sa.clone();
        id.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(&id, &sa);
    }

    /// Percentile estimates stay inside [min, max], are monotone in the
    /// quantile, and land within the quantization bound (6.25% + integer
    /// slack) of the exact order statistic.
    #[test]
    fn histogram_percentiles_track_order_statistics(
        values in prop::collection::vec(1u64..1 << 40, 1..200),
    ) {
        use rshuffle_obs::Histogram;
        let h = Histogram::new();
        for &v in &values { h.record(v); }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = snap.percentile(q);
            prop_assert!(est >= sorted[0] && est <= sorted[sorted.len() - 1]);
            prop_assert!(est >= prev, "percentile must be monotone in q");
            prev = est;
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let err = est.abs_diff(truth);
            prop_assert!(
                err as u128 * 16 <= truth as u128 + 16,
                "q={} estimate {} too far from exact {}", q, est, truth
            );
        }
    }
}

/// Shuffling a random workload through random multicast groups delivers
/// every row to exactly the nodes of its hashed group (a smaller, randomized
/// version of the end-to-end suite; kept to a few cases for runtime).
#[test]
fn random_multicast_groups_deliver_exactly() {
    use parking_lot::Mutex;
    use rshuffle_repro::engine::drive_exchange;
    use rshuffle_repro::rshuffle::{Exchange, ExchangeConfig, Operator, ShuffleAlgorithm};
    use rshuffle_repro::simnet::{Cluster, DeviceProfile, SimContext};
    use rshuffle_repro::verbs::VerbsRuntime;
    use std::sync::Arc;

    struct Source {
        rows: Vec<Mutex<Vec<[u8; 16]>>>,
    }

    impl Operator for Source {
        fn next(
            &self,
            _sim: &SimContext,
            tid: usize,
        ) -> rshuffle_repro::rshuffle::Result<(StreamState, RowBatch)> {
            let mut batch = RowBatch::new(16, 128);
            let mut q = self.rows[tid].lock();
            for _ in 0..128 {
                match q.pop() {
                    Some(r) => batch.push_row(r.as_slice()),
                    None => return Ok((StreamState::Depleted, batch)),
                }
            }
            Ok((StreamState::MoreData, batch))
        }
    }

    for seed in [3u64, 17, 99] {
        let nodes = 4;
        let threads = 2;
        // Random (but valid) multicast groups per sender, derived from the
        // seed: group k of node s targets a nonempty subset.
        let mk_groups = |s: usize| {
            let mut gs = Vec::new();
            let mut x = seed.wrapping_mul(s as u64 + 1).wrapping_add(7);
            for _ in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut members: Vec<usize> = (0..nodes)
                    .filter(|&p| p != s && (x >> p) & 1 == 1)
                    .collect();
                if members.is_empty() {
                    members.push((s + 1) % nodes);
                }
                gs.push(members);
            }
            TransmissionGroups::new(gs)
        };
        let groups: Vec<TransmissionGroups> = (0..nodes).map(mk_groups).collect();

        let cluster = Cluster::new(nodes, DeviceProfile::edr());
        let runtime = VerbsRuntime::new(cluster);
        let mut config =
            ExchangeConfig::with_groups(ShuffleAlgorithm::MEMQ_SR, threads, groups.clone());
        config.message_size = 4096;
        let exchange = Exchange::build(&runtime, &config).expect("builds");

        let mut expected: Vec<Vec<[u8; 16]>> = vec![Vec::new(); nodes];
        let mut sources = Vec::new();
        for (node, node_groups) in groups.iter().enumerate() {
            let mut per_thread: Vec<Vec<[u8; 16]>> = vec![Vec::new(); threads];
            for i in 0..3000u64 {
                let mut row = [0u8; 16];
                let key = seed ^ (node as u64) << 32 ^ i.wrapping_mul(0x2545F4914F6CDD1D);
                row[0..8].copy_from_slice(&key.to_le_bytes());
                row[8..16].copy_from_slice(&i.to_le_bytes());
                per_thread[(i % threads as u64) as usize].push(row);
                let g = (default_partition_hash(&row) % node_groups.len() as u64) as usize;
                for &dest in node_groups.group(g) {
                    expected[dest].push(row);
                }
            }
            sources.push(Arc::new(Source {
                rows: per_thread.into_iter().map(Mutex::new).collect(),
            }));
        }

        let received: Arc<Vec<Mutex<Vec<[u8; 16]>>>> =
            Arc::new((0..nodes).map(|_| Mutex::new(Vec::new())).collect());
        let sink = received.clone();
        drive_exchange(
            &runtime,
            &exchange,
            16,
            256,
            |node| sources[node].clone() as Arc<dyn Operator>,
            move |node, _, batch| {
                let mut out = sink[node].lock();
                for row in batch.iter() {
                    out.push(row.try_into().unwrap());
                }
            },
        );
        runtime.cluster().run();
        for node in 0..nodes {
            let mut got = received[node].lock().clone();
            let mut want = expected[node].clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}, node {node}");
        }
    }
}

/// UD flow control under arbitrary loss schedules: whatever burst-loss
/// windows and reorder probability the fabric throws at the SQ/SR design,
/// (a) the credit protocol never overruns the granted receive window — a
/// healthy receiver never sees a datagram arrive without a posted receive,
/// which is the observable form of "credits never go negative" — and (b)
/// message counting detects every dropped data datagram: a query either
/// delivers every row exactly once (after bounded restarts) or surfaces a
/// typed transport error. Silent row loss is the one outcome that must be
/// impossible.
///
/// The vendored proptest shim has a fixed case count, so this drives the
/// full stack over a hand-rolled deterministic sample of 12 schedules.
#[test]
fn ud_loss_schedules_never_overrun_credit_or_lose_rows_silently() {
    use rshuffle_repro::engine::{Generator, RecoveryPolicy};
    use rshuffle_repro::rshuffle::{ExchangeConfig, ShuffleAlgorithm, ShuffleError};
    use rshuffle_repro::simnet::DeviceProfile;
    use rshuffle_repro::verbs::{FaultConfig, FaultPlan};

    let nodes = 2;
    let threads = 2;
    let rows_per_thread = 400;
    let us = SimDuration::from_micros;
    let mut rng = TestRng::deterministic("proptests::ud_loss_schedules");
    for case in 0..12 {
        let seed = rng.next_u64();
        let n_windows = (rng.next_u64() % 3) as usize;
        let windows: Vec<(u64, u64, f64, usize)> = (0..n_windows)
            .map(|_| {
                (
                    rng.next_u64() % 200,                          // start µs
                    1 + rng.next_u64() % 99,                       // duration µs
                    0.05 + (rng.next_u64() % 950) as f64 / 1000.0, // drop p in 0.05..1.0
                    (rng.next_u64() % 2) as usize,                 // victim node
                )
            })
            .collect();
        let reorder = (rng.next_u64() % 300) as f64 / 1000.0;
        let mut plan = FaultPlan::new();
        for &(at, dur, p, node) in &windows {
            plan = plan.ud_loss_burst(node, us(at), us(dur), p);
        }
        let mut config = ExchangeConfig::repartition(ShuffleAlgorithm::SESQ_SR, nodes, threads);
        config.stall_timeout = SimDuration::from_millis(2);
        config.depleted_timeout = us(500);
        config.faults = FaultConfig {
            seed,
            ud_reorder_probability: reorder,
            plan,
            ..FaultConfig::default()
        };
        let runtime = config.build_runtime(DeviceProfile::edr());
        let policy = RecoveryPolicy {
            max_partial_retries: 0,
            max_full_restarts: 3,
            ..RecoveryPolicy::default()
        };
        let run = coordinated::spawn(&runtime, &config, policy, rows_per_thread).finish();
        let rep = &run.report;
        let counted = |series| runtime.obs().metrics.counter_total(series);
        use rshuffle_obs::names::{VERBS_UD_DROPPED, VERBS_UD_REORDERED, VERBS_UD_UNMATCHED};
        match &rep.failure {
            None => {
                // Success means exactly-once: the winning generation holds the
                // full generated multiset, drops notwithstanding.
                let mut expected = Vec::new();
                for node in 0..nodes {
                    for tid in 0..threads {
                        for seq in 0..rows_per_thread {
                            expected.push(Generator::row(node as u64, tid, seq));
                        }
                    }
                }
                expected.sort_unstable();
                let got = run
                    .delivered
                    .get(&rep.generation)
                    .cloned()
                    .unwrap_or_default();
                prop_assert_eq!(
                    got,
                    expected,
                    "case {}: loss schedule produced silent row corruption (restarts: {}, drops: {})",
                    case,
                    rep.full_restarts,
                    counted(VERBS_UD_DROPPED)
                );
            }
            Some(e) => {
                prop_assert!(
                    !matches!(e, ShuffleError::Config(_)),
                    "case {}: loss must surface as a transport error, got {:?}",
                    case,
                    e
                );
            }
        }
        if rep.succeeded() && rep.full_restarts == 0 {
            // No attempt was torn down mid-stream, so every datagram that
            // reached a receiver must have found a posted receive: the
            // absolute-credit window was never overrun even when credit
            // datagrams were dropped or reordered.
            prop_assert_eq!(
                counted(VERBS_UD_UNMATCHED),
                0,
                "case {}: credit window overrun: {} unmatched datagrams (drops: {}, reorders: {})",
                case,
                counted(VERBS_UD_UNMATCHED),
                counted(VERBS_UD_DROPPED),
                counted(VERBS_UD_REORDERED)
            );
        }
    }
}

/// Deterministic pseudo-shuffle key (splitmix64 finalizer) so credit
/// delivery order can be permuted reproducibly from a proptest seed.
fn shuffle_key(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    /// Model of the SQ/SR UD flow-control protocol (paper §4.4.1): the
    /// receiver announces an *absolute* cumulative credit counter each time
    /// it posts a batch of receives, and the sender max-merges whatever
    /// credit messages actually arrive. Under arbitrary credit-message
    /// drops and reordering the sender must never transmit a datagram
    /// without a posted receive (credit never goes negative), and the
    /// end-of-stream message count must flag every dropped data datagram.
    #[test]
    fn absolute_credit_max_merge_never_overruns(
        grants in prop::collection::vec(1u64..64, 1..40),
        drop_credit in prop::collection::vec(any::<bool>(), 1..40),
        reorder_seed in any::<u64>(),
        drop_data in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        // Receiver side: post receives in batches, announcing the running
        // total as the credit counter.
        let mut posted = 0u64;
        let mut announcements = Vec::with_capacity(grants.len());
        for &g in &grants {
            posted += g;
            announcements.push(posted);
        }
        // The fabric drops some credit messages (never the last one, which
        // in the real protocol is retransmitted with the Depleted
        // writeback) and delivers the rest in arbitrary order.
        let last = *announcements.last().unwrap();
        let mut delivered: Vec<u64> = announcements
            .iter()
            .copied()
            .zip(drop_credit.iter().cycle())
            .filter(|&(c, &d)| c == last || !d)
            .map(|(c, _)| c)
            .collect();
        delivered.sort_by_key(|&c| shuffle_key(reorder_seed, c));

        // Sender side: max-merge the absolute counter, transmit while
        // credit remains.
        let mut granted = 0u64;
        let mut sent = 0u64;
        for c in delivered {
            granted = granted.max(c);
            while sent < granted {
                sent += 1;
                prop_assert!(
                    sent <= posted,
                    "datagram {} transmitted with only {} receives posted",
                    sent,
                    posted
                );
            }
        }
        // Dropped or reordered credit can stall the sender but never push
        // consumption past what the receiver granted.
        prop_assert!(sent <= posted);
        // Because every announcement eventually arrives (the writeback
        // path), the sender drains the whole stream.
        prop_assert_eq!(sent, posted);

        // Data-loss detection: the sender stamps `sent` into its Depleted
        // header; the receiver counts arrivals. Any dropped data datagram
        // must produce a mismatch — silent loss is impossible.
        let lost = (0..sent)
            .filter(|i| drop_data[(*i as usize) % drop_data.len()])
            .count() as u64;
        let received = sent - lost;
        prop_assert_eq!(
            received == sent,
            lost == 0,
            "message counting must detect exactly the dropped datagrams"
        );
    }
}

proptest! {
    /// The recovery layer's reconnect/restart backoff: delays start at
    /// `initial`, double each step, never exceed `max`, and are monotone
    /// non-decreasing until the cap is reached — after which they stay
    /// pinned at the cap. `reset` rewinds to the first delay.
    #[test]
    fn backoff_schedule_is_capped_and_monotone(
        initial_ns in 1u64..100_000,
        extra_ns in 0u64..1_000_000,
        steps in 1usize..64,
    ) {
        let initial = SimDuration::from_nanos(initial_ns);
        let max = SimDuration::from_nanos(initial_ns + extra_ns);
        let mut sched = BackoffSchedule::new(initial, max);
        let mut prev = SimDuration::from_nanos(0);
        let mut capped = false;
        for step in 0..steps {
            let d = sched.next();
            prop_assert!(d <= max, "step {} delay {:?} exceeds cap {:?}", step, d, max);
            prop_assert!(d >= prev, "step {} delay {:?} shrank below {:?}", step, d, prev);
            if step == 0 {
                prop_assert_eq!(d, initial, "the schedule must start at the initial delay");
            }
            if capped {
                prop_assert_eq!(d, max, "once capped, the delay must stay at the cap");
            }
            capped = d == max;
            prev = d;
        }
        sched.reset();
        prop_assert_eq!(sched.next(), initial, "reset must rewind to the initial delay");
    }

    /// A rebuild loop driven by the schedule can never hang: spending a
    /// reconnect budget of `n` builds sleeps at most `n × max` of
    /// virtual time before the loop exits — which the recovery layer
    /// then converts into the typed
    /// [`ShuffleError::RetryBudgetExhausted`] rather than retrying
    /// forever.
    #[test]
    fn backoff_budget_exhaustion_is_time_bounded(
        initial_ns in 1u64..100_000,
        extra_ns in 0u64..1_000_000,
        budget in 1u32..32,
    ) {
        let initial = SimDuration::from_nanos(initial_ns);
        let max = SimDuration::from_nanos(initial_ns + extra_ns);
        let mut sched = BackoffSchedule::new(initial, max);
        let mut slept = SimDuration::from_nanos(0);
        let mut attempts = 0u32;
        while attempts < budget {
            attempts += 1;
            slept += sched.next();
        }
        prop_assert_eq!(attempts, budget);
        prop_assert!(
            slept <= max * (budget as u64),
            "budget {} slept {:?}, more than {} × {:?}",
            budget, slept, budget, max
        );
    }
}
