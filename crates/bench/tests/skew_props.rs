//! Property-based tests for the skewed-workload generators: seeded
//! determinism, skew-parameter monotonicity and partition-histogram
//! sanity across the whole parameter space the scale benchmarks sweep.

use proptest::prelude::*;
use rshuffle_bench::skew::{skew_ratio, zipf_partition_rows, zipf_weights};

proptest! {
    /// The partition histogram is a pure function of its arguments.
    #[test]
    fn zipf_rows_are_seed_deterministic(
        total in 0u64..1_000_000,
        partitions in 1usize..128,
        theta_c in 0u32..250,
        seed in any::<u64>(),
    ) {
        let theta = theta_c as f64 / 100.0;
        let a = zipf_partition_rows(total, partitions, theta, seed);
        let b = zipf_partition_rows(total, partitions, theta, seed);
        prop_assert_eq!(a, b);
    }

    /// Histogram sanity: right length, exact total, and a uniform split
    /// at theta = 0 (every partition within one row of the mean).
    #[test]
    fn zipf_rows_histogram_sanity(
        total in 0u64..1_000_000,
        partitions in 1usize..128,
        theta_c in 0u32..250,
        seed in any::<u64>(),
    ) {
        let theta = theta_c as f64 / 100.0;
        let rows = zipf_partition_rows(total, partitions, theta, seed);
        prop_assert_eq!(rows.len(), partitions);
        prop_assert_eq!(rows.iter().sum::<u64>(), total);
        if theta_c == 0 {
            let floor = total / partitions as u64;
            for &r in &rows {
                prop_assert!(r == floor || r == floor + 1,
                    "theta=0 must be uniform up to apportionment: {} vs mean {}", r, floor);
            }
        }
    }

    /// A larger exponent concentrates strictly more mass in the heaviest
    /// rank (monotonicity of the analytic weights, which the integral
    /// apportionment inherits up to rounding).
    #[test]
    fn zipf_skew_is_monotone_in_theta(
        partitions in 2usize..128,
        lo_c in 0u32..200,
        delta_c in 25u32..100,
    ) {
        let lo = lo_c as f64 / 100.0;
        let hi = (lo_c + delta_c) as f64 / 100.0;
        let w_lo = zipf_weights(partitions, lo);
        let w_hi = zipf_weights(partitions, hi);
        // Weights are rank-ordered: index 0 is the heaviest rank.
        prop_assert!(w_hi[0] > w_lo[0],
            "raising theta {} -> {} must concentrate rank 1: {} vs {}",
            lo, hi, w_lo[0], w_hi[0]);
        // And the integral histograms agree once rounding noise is
        // above a row per partition.
        let rows_lo = zipf_partition_rows(1_000_000, partitions, lo, 42);
        let rows_hi = zipf_partition_rows(1_000_000, partitions, hi, 42);
        prop_assert!(skew_ratio(&rows_hi) + 1e-9 >= skew_ratio(&rows_lo),
            "skew ratio must not decrease: {} vs {}",
            skew_ratio(&rows_lo), skew_ratio(&rows_hi));
    }
}
