//! Skewed-workload generators for the scale-out experiments.
//!
//! Real repartition exchanges are rarely uniform: join keys follow
//! power-law distributions, so a few partitions (and hence a few
//! receiving nodes) absorb a disproportionate share of the data. This
//! module generates that perturbation deterministically from a seed so
//! the scale benchmarks can replay it bit-for-bit:
//! [`zipf_weights`] / [`zipf_partition_rows`] are Zipfian partition
//! histograms with a configurable exponent `theta` (0 = uniform;
//! ~1 = classic web-like skew). The heavy ranks are assigned to
//! partition ids by a seeded permutation so the hot partition moves
//! around the cluster as the seed changes. (A node that straggles is a
//! fault, not a workload shape: `FaultPlan::straggler`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Normalized Zipf weights for `partitions` ranks with exponent `theta`:
/// rank `k` (1-based) gets weight proportional to `1 / k^theta`. The
/// returned vector sums to 1.0 (up to floating-point rounding) and is
/// sorted heaviest-first (rank order, *not* partition order — see
/// [`zipf_partition_rows`] for the seeded placement).
///
/// `theta = 0` is exactly uniform; larger exponents concentrate mass in
/// the leading ranks monotonically.
///
/// # Panics
///
/// Panics if `partitions` is zero or `theta` is negative/non-finite.
pub fn zipf_weights(partitions: usize, theta: f64) -> Vec<f64> {
    assert!(partitions > 0, "zipf_weights: need at least one partition");
    assert!(
        theta >= 0.0 && theta.is_finite(),
        "zipf_weights: exponent {theta} out of range"
    );
    let raw: Vec<f64> = (1..=partitions).map(|k| (k as f64).powf(-theta)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Splits `total_rows` across `partitions` partitions by Zipf(`theta`),
/// with the heavy ranks placed on a seeded permutation of the partition
/// ids. Row counts are integral and sum to exactly `total_rows`
/// (largest-remainder apportionment), and the whole histogram is a pure
/// function of its arguments — the same seed replays the same skew.
///
/// # Panics
///
/// Panics if `partitions` is zero or `theta` is negative/non-finite.
pub fn zipf_partition_rows(total_rows: u64, partitions: usize, theta: f64, seed: u64) -> Vec<u64> {
    let weights = zipf_weights(partitions, theta);
    // Integral apportionment: floor everything, then hand the leftover
    // rows to the largest remainders (ties to the lower rank — still a
    // pure function of the inputs).
    let mut rows: Vec<u64> = weights
        .iter()
        .map(|w| (w * total_rows as f64).floor() as u64)
        .collect();
    let assigned: u64 = rows.iter().sum();
    let mut leftover = total_rows - assigned;
    let mut by_remainder: Vec<usize> = (0..partitions).collect();
    by_remainder.sort_by(|&a, &b| {
        let ra = weights[a] * total_rows as f64 - rows[a] as f64;
        let rb = weights[b] * total_rows as f64 - rows[b] as f64;
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &idx in by_remainder.iter().cycle().take(partitions.max(1)) {
        if leftover == 0 {
            break;
        }
        rows[idx] += 1;
        leftover -= 1;
    }
    // Seeded Fisher–Yates permutation: which partition id holds rank k.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placement: Vec<usize> = (0..partitions).collect();
    for i in (1..partitions).rev() {
        let j = rng.gen_range(0..=i);
        placement.swap(i, j);
    }
    let mut out = vec![0u64; partitions];
    for (rank, &pid) in placement.iter().enumerate() {
        out[pid] = rows[rank];
    }
    out
}

/// Max-to-mean ratio of a partition histogram: 1.0 for a perfectly
/// uniform split, growing with skew. Returns 0.0 for an empty or
/// all-zero histogram.
pub fn skew_ratio(rows: &[u64]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let total: u64 = rows.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / rows.len() as f64;
    let max = rows.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

/// Per-node volume skew for the workload driver: the cluster's total
/// table volume is split across the nodes' local fragments by a seeded
/// Zipf histogram instead of evenly (see
/// [`zipf_partition_rows`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewSpec {
    /// Zipf exponent (0 = uniform; ~1 = classic web-like skew).
    pub theta: f64,
    /// Placement seed: which nodes hold the heavy fragments.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_theta_splits_evenly() {
        let rows = zipf_partition_rows(1000, 8, 0.0, 7);
        assert_eq!(rows.iter().sum::<u64>(), 1000);
        for &r in &rows {
            assert_eq!(r, 125, "theta=0 must split exactly evenly: {rows:?}");
        }
        assert!((skew_ratio(&rows) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_theta_concentrates_mass() {
        let rows = zipf_partition_rows(100_000, 16, 1.2, 3);
        assert_eq!(rows.iter().sum::<u64>(), 100_000);
        assert!(
            skew_ratio(&rows) > 4.0,
            "theta=1.2 over 16 partitions must be strongly skewed, got ratio {}",
            skew_ratio(&rows)
        );
    }

    #[test]
    fn seed_moves_the_hot_partition() {
        let a = zipf_partition_rows(10_000, 32, 1.0, 1);
        let b = zipf_partition_rows(10_000, 32, 1.0, 2);
        let hot = |rows: &[u64]| {
            rows.iter()
                .enumerate()
                .max_by_key(|(i, &r)| (r, usize::MAX - i))
                .map(|(i, _)| i)
        };
        // Same multiset of counts, different placement (with 32 slots two
        // seeds landing the maximum on the same id is a 1/32 accident —
        // these two seeds differ).
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "placement must not change the histogram shape");
        assert_ne!(hot(&a), hot(&b), "seed must move the heavy partition");
    }
}
