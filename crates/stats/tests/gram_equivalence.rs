//! Differential tests pinning the four-row blocked `Matrix::gram` against
//! the row-at-a-time oracle `Matrix::gram_naive`, and the logistic fit over
//! the blocked kernels against `logistic_naive`, bit for bit.
//!
//! The blocked Gram keeps each entry's ascending-row add chain, so any
//! reassociation (a pairwise sum, partial sums per block) would show in the
//! low bits. Row counts cover every remainder mod 4 (n = 0..=9 and larger
//! n with n mod 4 ≠ 0), with and without weights, and the values include
//! `+0.0` and `-0.0`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_stats::logistic::logistic_naive;
use synrd_stats::{logistic, LogisticOptions, Matrix};

fn bits(m: &Matrix) -> Vec<u64> {
    (0..m.n_rows())
        .flat_map(|r| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

/// An `n × k` matrix whose entries mix ordinary values with `+0.0` and
/// `-0.0`, and `n` weights likewise.
fn fixture(n: usize, k: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut value = || match rng.gen_range(0u32..6) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-3.0..3.0),
    };
    let data: Vec<f64> = (0..n * k).map(|_| value()).collect();
    let weights: Vec<f64> = (0..n).map(|_| value()).collect();
    (Matrix::from_rows(n, k, data).unwrap(), weights)
}

fn assert_gram_matches(x: &Matrix, w: &[f64]) {
    for weights in [None, Some(w)] {
        let blocked = x.gram(weights).unwrap();
        let naive = x.gram_naive(weights).unwrap();
        assert_eq!(
            bits(&blocked),
            bits(&naive),
            "{} x {} weighted {}",
            x.n_rows(),
            x.n_cols(),
            weights.is_some()
        );
    }
}

#[test]
fn blocked_gram_matches_naive_at_every_remainder() {
    for n in (0..=9).chain([13, 31, 102, 257]) {
        for k in [0usize, 1, 2, 3, 5, 8, 17] {
            let (x, w) = fixture(n, k, (n * 100 + k) as u64);
            assert_gram_matches(&x, &w);
        }
    }
}

#[test]
fn signed_zero_products_sum_from_the_same_start() {
    // Column 0 is -0.0 and column 1 is 1.0, so every term of entry (0, 1)
    // is -0.0: the entry is +0.0 only because the chain starts from the
    // +0.0 of a zeroed matrix. A kernel that started a block's partial sum
    // from its first term would still agree here, but one that started the
    // whole chain from -0.0 (the neutral element of a float `sum`) would
    // not.
    for n in 0..=9 {
        let data = (0..n).flat_map(|_| [-0.0, 1.0]).collect();
        let x = Matrix::from_rows(n, 2, data).unwrap();
        assert_gram_matches(&x, &vec![1.0; n]);
        if n > 0 {
            assert_eq!(x.gram(None).unwrap().at(0, 1).to_bits(), 0.0f64.to_bits());
        }
    }
}

#[test]
fn weight_length_is_checked() {
    let (x, _) = fixture(6, 3, 1);
    assert!(x.gram(Some(&[1.0; 5])).is_err());
    assert!(x.gram_naive(Some(&[1.0; 5])).is_err());
}

proptest! {
    /// Random shapes and seeds.
    #[test]
    fn gram_equivalence(n in 0usize..120, k in 0usize..12, seed in 0u64..1_000_000) {
        let (x, w) = fixture(n, k, seed);
        assert_gram_matches(&x, &w);
    }

    /// A whole IRLS fit through the blocked Gram and the factor-once
    /// inverse equals the fit through both oracles, bit for bit.
    #[test]
    fn logistic_matches_naive_kernels(n in 20usize..150, k in 1usize..6, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * (k + 1));
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(1.0);
            let mut eta = -0.3;
            for j in 0..k {
                let v = f64::from(rng.gen_range(0u32..5));
                eta += v * (0.4 - 0.2 * j as f64);
                data.push(v);
            }
            let p = 1.0 / (1.0 + (-eta).exp());
            y.push(f64::from(rng.gen::<f64>() < p));
        }
        let x = Matrix::from_rows(n, k + 1, data).unwrap();
        let options = LogisticOptions::default();
        let fit = logistic(&x, &y, options);
        let oracle = logistic_naive(&x, &y, options);
        match (fit, oracle) {
            (Ok(a), Ok(b)) => {
                let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(to_bits(&a.coefficients), to_bits(&b.coefficients));
                prop_assert_eq!(to_bits(&a.std_errors), to_bits(&b.std_errors));
                prop_assert_eq!(a.iterations, b.iterations);
            }
            (a, b) => prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err())),
        }
    }
}
