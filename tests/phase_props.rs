//! Property-based contracts for the phase scheduler.
//!
//! A phase schedule decomposes the N×N transfer matrix into rounds.
//! Whatever the matrix (holes, skew, self edges), these invariants must
//! hold:
//!
//! * every round is a partial matching (no source or destination serves
//!   twice in one round), and no exempted source ever appears;
//! * the rounds cover every nonzero pair of every *constrained* source
//!   exactly once, at its weight (exempt are exactly the rows above
//!   `HEAVY_SOURCE_FACTOR` × the mean active row, never all of them);
//! * building twice from the same matrix yields the identical schedule;
//! * each round is one offset of the Latin-square rotation, in rotation
//!   order, and the longest round is the heaviest constrained edge.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;
use rshuffle_repro::rshuffle::{PhaseSchedule, HEAVY_SOURCE_FACTOR};

/// Maximum matrix dimension the properties explore.
const MAX_N: usize = 10;

/// Shapes a flat sample of `MAX_N * MAX_N` draws into a random square
/// transfer matrix: dimension `1..=MAX_N`, weights `1..1000` with
/// roughly a third of the entries absent (zero = no transfer).
fn matrix_from(n: usize, raw: &[u64]) -> Vec<Vec<u64>> {
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let draw = raw[i * MAX_N + j] % 1500;
                    draw.saturating_sub(500)
                })
                .collect()
        })
        .collect()
}

fn nonzero_pairs(bytes: &[Vec<u64>]) -> BTreeMap<(usize, usize), u64> {
    let mut pairs = BTreeMap::new();
    for (src, row) in bytes.iter().enumerate() {
        for (dst, &b) in row.iter().enumerate() {
            if b > 0 {
                pairs.insert((src, dst), b);
            }
        }
    }
    pairs
}

proptest! {
    /// Every round is a partial matching, and the `dest_of` lookup
    /// agrees with the edge list.
    #[test]
    fn phases_are_partial_matchings(
        n in 1usize..=MAX_N,
        raw in prop::collection::vec(any::<u64>(), MAX_N * MAX_N),
    ) {
        let bytes = matrix_from(n, &raw);
        let schedule = PhaseSchedule::build(&bytes).expect("schedule builds");
        for (p, phase) in schedule.phases().iter().enumerate() {
            let mut srcs = HashSet::new();
            let mut dsts = HashSet::new();
            for &(src, dst, b) in &phase.edges {
                prop_assert!(b > 0, "zero-weight edge scheduled");
                prop_assert!(
                    !schedule.is_free(src),
                    "phase {p}: exempted source {src} scheduled"
                );
                prop_assert!(srcs.insert(src), "phase {p}: source {src} serves twice");
                prop_assert!(dsts.insert(dst), "phase {p}: destination {dst} served twice");
                prop_assert_eq!(schedule.dest_of(p, src), Some(dst));
            }
            prop_assert!(!phase.edges.is_empty(), "empty phase {p}");
        }
    }

    /// The union of all rounds is exactly the nonzero pairs of the
    /// constrained sources, each once, at its weight. Exempt are exactly
    /// the rows above `HEAVY_SOURCE_FACTOR` × the mean active row, and
    /// never all of them.
    #[test]
    fn coverage_is_exact(
        n in 1usize..=MAX_N,
        raw in prop::collection::vec(any::<u64>(), MAX_N * MAX_N),
    ) {
        let bytes = matrix_from(n, &raw);
        let all_pairs = nonzero_pairs(&bytes);
        let schedule = PhaseSchedule::build(&bytes).expect("schedule builds");
        // The exemption rule itself: free ⟺ row total above the factor ×
        // mean of active rows — and a sole active source is its own mean,
        // so somebody always remains.
        let totals: Vec<u64> = bytes.iter().map(|r| r.iter().sum()).collect();
        let active = totals.iter().filter(|&&t| t > 0).count();
        if active > 0 {
            let mean = totals.iter().sum::<u64>() as f64 / active as f64;
            for (src, &t) in totals.iter().enumerate() {
                prop_assert_eq!(
                    schedule.is_free(src),
                    (t as f64) > HEAVY_SOURCE_FACTOR * mean,
                    "source {} misclassified (total {}, mean {})",
                    src, t, mean
                );
            }
            prop_assert!(
                totals
                    .iter()
                    .enumerate()
                    .any(|(s, &t)| t > 0 && !schedule.is_free(s)),
                "every active source exempted"
            );
        }
        let expected: BTreeMap<(usize, usize), u64> = all_pairs
            .iter()
            .filter(|((src, _), _)| !schedule.is_free(*src))
            .map(|(&k, &v)| (k, v))
            .collect();
        let mut got = BTreeMap::new();
        for phase in schedule.phases() {
            for &(src, dst, b) in &phase.edges {
                prop_assert!(
                    got.insert((src, dst), b).is_none(),
                    "pair ({src}, {dst}) scheduled twice"
                );
            }
        }
        prop_assert_eq!(&got, &expected, "coverage");
    }

    /// Same matrix in, same schedule out — phase order, edge order,
    /// everything.
    #[test]
    fn schedules_are_deterministic(
        n in 1usize..=MAX_N,
        raw in prop::collection::vec(any::<u64>(), MAX_N * MAX_N),
    ) {
        let bytes = matrix_from(n, &raw);
        let a = PhaseSchedule::build(&bytes).expect("schedule builds");
        let b = PhaseSchedule::build(&bytes).expect("schedule builds");
        prop_assert_eq!(a, b, "non-deterministic schedule");
    }

    /// Every constrained source in a round sends along that round's
    /// rotation offset (`dst = (src + offset) mod N`), the rounds come in
    /// increasing offset, and the longest round equals the heaviest
    /// single transfer the constrained sources carry (a round can never
    /// end before its largest edge does).
    #[test]
    fn phases_follow_the_rotation_and_the_longest_is_the_heaviest_edge(
        n in 1usize..=MAX_N,
        raw in prop::collection::vec(any::<u64>(), MAX_N * MAX_N),
    ) {
        let bytes = matrix_from(n, &raw);
        let schedule = PhaseSchedule::build(&bytes).expect("schedule builds");
        let mut last_offset = None;
        for (p, phase) in schedule.phases().iter().enumerate() {
            let (src, dst, _) = phase.edges[0];
            let offset = (dst + n - src) % n;
            for &(src, dst, _) in &phase.edges {
                prop_assert_eq!(
                    dst,
                    (src + offset) % n,
                    "phase {} source {} leaves the rotation offset {}",
                    p, src, offset
                );
            }
            prop_assert!(
                last_offset < Some(offset),
                "phase {p}: offset {offset} out of rotation order"
            );
            last_offset = Some(offset);
        }
        let heaviest_constrained = nonzero_pairs(&bytes)
            .iter()
            .filter(|((src, _), _)| !schedule.is_free(*src))
            .map(|(_, &b)| b)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(schedule.worst_phase_len(), heaviest_constrained);
    }
}
