//! Property-based tests for statistical invariants.

use proptest::prelude::*;
use synrd_stats::{mean, pearson, ranks, spearman, special, variance};

fn finite_vec(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// Pearson stays in [-1, 1] and is symmetric.
    #[test]
    fn pearson_bounded_symmetric(x in finite_vec(2..=100), y in finite_vec(2..=100)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let r = pearson(x, y).unwrap();
        prop_assert!((-1.0..=1.0).contains(&r));
        let r2 = pearson(y, x).unwrap();
        prop_assert!((r - r2).abs() < 1e-9);
    }

    /// Pearson is invariant under positive affine transforms.
    #[test]
    fn pearson_affine_invariant(x in finite_vec(3..=50), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        let y: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        let r = pearson(&x, &y).unwrap();
        // x vs its own affine image: correlation 1 (or 0 for constant x).
        prop_assert!(r == 0.0 || (r - 1.0).abs() < 1e-6, "r = {r}");
    }

    /// Spearman is invariant under strictly monotone transforms.
    #[test]
    fn spearman_monotone_invariant(x in finite_vec(3..=60), y in finite_vec(3..=60)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let before = spearman(x, y).unwrap();
        let y_mono: Vec<f64> = y.iter().map(|v| v / 1e6 + (v / 1e6).powi(3)).collect();
        let after = spearman(x, &y_mono).unwrap();
        prop_assert!((before - after).abs() < 1e-6, "{before} vs {after}");
    }

    /// Ranks form a permutation-like average ranking: sum preserved.
    #[test]
    fn ranks_sum_preserved(x in finite_vec(1..=80)) {
        let r = ranks(&x);
        let expected: f64 = (1..=x.len()).map(|i| i as f64).sum();
        prop_assert!((r.iter().sum::<f64>() - expected).abs() < 1e-9);
    }

    /// Sample variance is non-negative; mean lies within [min, max].
    #[test]
    fn moments_sane(x in finite_vec(2..=100)) {
        let v = variance(&x).unwrap();
        prop_assert!(v >= -1e-9);
        let m = mean(&x);
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    /// Normal quantile inverts the CDF across the open unit interval.
    #[test]
    fn normal_quantile_round_trip(p in 0.001f64..0.999) {
        let x = special::normal_quantile(p);
        prop_assert!((special::normal_cdf(x) - p).abs() < 1e-5);
    }

    /// t CDF is monotone in its argument.
    #[test]
    fn t_cdf_monotone(a in -10.0f64..10.0, delta in 0.01f64..5.0, df in 1.0f64..100.0) {
        let lo = special::t_cdf(a, df);
        let hi = special::t_cdf(a + delta, df);
        prop_assert!(hi >= lo - 1e-12);
    }
}
