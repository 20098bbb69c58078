//! Differential proptests pinning the rank/histogram split search
//! bit-identical to the retained sort-based oracle: `DecisionTree::fit`
//! against `DecisionTree::fit_naive`, and `RandomForest::fit` (index
//! bootstraps) against `RandomForest::fit_naive` (row-cloning bootstraps).
//!
//! Cases cover random shapes down to n = 1, continuous and integer-coded
//! columns, heavy ties, ±0.0, constant columns, extreme magnitudes (whose
//! midpoint thresholds round onto a neighbour or overflow to ±∞), every
//! `max_features` setting and a range of depths and min-split values. Each
//! case asserts equal fitted structure (every threshold printed exactly),
//! bit-equal `predict_proba` on training and probe rows, and an equal next
//! RNG draw, so the two paths consumed the same stream.
//!
//! Requires the `naive-reference` feature (CI runs this at
//! `PROPTEST_CASES=1024`).

#![cfg(feature = "naive-reference")]

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use synrd_ml::{DecisionTree, ForestOptions, RandomForest, TreeOptions};

/// Shape and hyperparameters: rows, features, data seed, depth, min split,
/// feature subsampling (`None`, or `Some(k)` with k = 0 and k > d included).
type Case = (usize, usize, u64, usize, usize, Option<usize>);

fn case() -> impl Strategy<Value = Case> {
    (
        (1usize..=300, 1usize..=6, 0u64..u64::MAX),
        (1usize..=9, 0usize..=12, 0usize..=8),
    )
        .prop_map(|((n, d, seed), (depth, min_split, k))| {
            let max_features = if k == 0 { None } else { Some(k - 1) };
            (n, d, seed, depth, min_split, max_features)
        })
}

/// One column of `n` values of a randomly chosen kind.
fn column(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    match rng.gen_range(0u32..6) {
        // Continuous.
        0 => (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect(),
        // Integer codes with heavy ties.
        1 => {
            let codes = rng.gen_range(1u32..5);
            (0..n).map(|_| f64::from(rng.gen_range(0..codes))).collect()
        }
        // Constant.
        2 => vec![rng.gen::<f64>(); n],
        // Signed zeros among a few small values.
        3 => {
            let pool = [-0.0, 0.0, 0.0, -0.0, 1.0, -1.0];
            (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
        }
        // Extremes: adjacent floats, overflowing midpoints, infinities and
        // subnormals.
        4 => {
            let pool = [
                1.0,
                1.0 + f64::EPSILON,
                1.0 - f64::EPSILON / 2.0,
                f64::MAX,
                f64::MAX / 2.0 * 1.5,
                -f64::MAX,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE / 4.0,
                -f64::MIN_POSITIVE / 4.0,
                0.0,
            ];
            (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
        }
        // Coarse continuous: a handful of repeated reals.
        _ => {
            let levels: Vec<f64> = (0..rng.gen_range(1usize..8))
                .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                .collect();
            (0..n)
                .map(|_| levels[rng.gen_range(0..levels.len())])
                .collect()
        }
    }
}

/// Row-major features and 0/1 labels: all-zero, all-one, noise, or a
/// noisy rule on the first column.
fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let columns: Vec<Vec<f64>> = (0..d).map(|_| column(n, &mut rng)).collect();
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect();
    let mode = rng.gen_range(0u32..4);
    let y = x
        .iter()
        .map(|row| {
            let label = match mode {
                0 => false,
                1 => true,
                2 => rng.gen::<f64>() < 0.5,
                _ => (row[0] > 0.0) != (rng.gen::<f64>() < 0.15),
            };
            f64::from(u8::from(label))
        })
        .collect();
    (x, y)
}

/// Training rows plus probes that mix columns across rows, so thresholds
/// are exercised off the training points too.
fn probes(x: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let d = x[0].len();
    let mut rows = x.to_vec();
    for _ in 0..x.len().max(8) {
        rows.push(
            (0..d)
                .map(|f| {
                    let a = x[rng.gen_range(0..x.len())][f];
                    let b = x[rng.gen_range(0..x.len())][f];
                    if rng.gen::<bool>() {
                        a
                    } else {
                        0.5 * a + 0.5 * b
                    }
                })
                .collect(),
        );
    }
    rows
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

proptest! {
    #[test]
    fn binned_tree_is_bit_identical((n, d, seed, depth, min_split, max_features) in case()) {
        let (x, y) = dataset(n, d, seed);
        let options = TreeOptions { max_depth: depth, min_samples_split: min_split, max_features };
        let mut a = ChaCha8Rng::seed_from_u64(seed.rotate_left(17));
        let mut b = a.clone();
        let binned = DecisionTree::fit(&x, &y, options, &mut a).expect("valid input");
        let naive = DecisionTree::fit_naive(&x, &y, options, &mut b).expect("valid input");
        prop_assert_eq!(format!("{binned:?}"), format!("{naive:?}"));
        let rows = probes(&x, seed);
        prop_assert_eq!(bits(&binned.predict_proba(&rows)), bits(&naive.predict_proba(&rows)));
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn binned_forest_is_bit_identical(
        (n, d, seed, depth, min_split, max_features) in case(),
        n_trees in 0usize..=4,
    ) {
        let (x, y) = dataset(n, d, seed);
        let options = ForestOptions {
            n_trees,
            tree: TreeOptions { max_depth: depth, min_samples_split: min_split, max_features },
        };
        let mut a = ChaCha8Rng::seed_from_u64(seed.rotate_left(29));
        let mut b = a.clone();
        let binned = RandomForest::fit(&x, &y, options, &mut a).expect("valid input");
        let naive = RandomForest::fit_naive(&x, &y, options, &mut b).expect("valid input");
        prop_assert_eq!(format!("{binned:?}"), format!("{naive:?}"));
        let rows = probes(&x, seed);
        let (p, q) = (binned.predict_proba(&rows), naive.predict_proba(&rows));
        // A zero-tree forest predicts NaN (0/0) on both paths.
        prop_assert_eq!(
            p.iter().map(|v| v.is_nan() || n_trees > 0).collect::<Vec<_>>(),
            vec![true; p.len()]
        );
        if n_trees > 0 {
            prop_assert_eq!(bits(&p), bits(&q));
        }
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}

/// The jeong2021 fit shape in miniature: integer-coded survey items, 20
/// trees, depth 8, min split 10, √d features.
#[test]
fn jeong_shaped_forest_is_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(2021);
    let (n, d) = (400, 20);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|j| f64::from(rng.gen_range(0..2 + j as u32 % 6)))
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| f64::from(u8::from(r[1] + r[4] + r[7] > 4.0 || rng.gen::<f64>() < 0.1)))
        .collect();
    let options = ForestOptions {
        n_trees: 20,
        tree: TreeOptions {
            max_depth: 8,
            min_samples_split: 10,
            max_features: None,
        },
    };
    let mut a = ChaCha8Rng::seed_from_u64(7);
    let mut b = a.clone();
    let binned = RandomForest::fit(&x, &y, options, &mut a).unwrap();
    let naive = RandomForest::fit_naive(&x, &y, options, &mut b).unwrap();
    assert_eq!(format!("{binned:?}"), format!("{naive:?}"));
    assert_eq!(
        bits(&binned.predict_proba(&x)),
        bits(&naive.predict_proba(&x))
    );
    assert_eq!(a.gen::<u64>(), b.gen::<u64>());
}
