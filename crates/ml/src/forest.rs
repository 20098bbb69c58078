//! Random forest: bagged Gini trees with √d feature subsampling.
//!
//! A fit rank-encodes the training set once ([`crate::tree`] describes the
//! rank/histogram split search) and bootstraps each tree by row *index*: it
//! draws `n` indices from `rng.gen_range(0..n)`, exactly the stream the
//! row-cloning bootstrap drew, and grows the tree on that index list
//! without copying a row. The row-cloning fit is kept as `fit_naive` under
//! the `naive-reference` feature as the differential oracle.

use crate::error::{validate_xy, Result};
use crate::tree::{DecisionTree, RankedFeatures, Scratch, TreeOptions};
use rand::Rng;

/// Hyperparameters for the forest.
#[derive(Debug, Clone, Copy)]
pub struct ForestOptions {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree options; `max_features = None` here means √d.
    pub tree: TreeOptions,
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            n_trees: 30,
            tree: TreeOptions {
                max_depth: 10,
                min_samples_split: 8,
                max_features: None,
            },
        }
    }
}

/// Per-tree options: `max_features = None` becomes ⌈√d⌉.
fn tree_options(options: &ForestOptions, d: usize) -> TreeOptions {
    let max_features = options
        .tree
        .max_features
        .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
        .max(1);
    TreeOptions {
        max_features: Some(max_features),
        ..options.tree
    }
}

/// A fitted random forest predicting P(y = 1 | x) as the mean of its trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fit with bootstrap rows per tree and √d features per node.
    ///
    /// # Panics
    /// On NaN features (they have no rank).
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: ForestOptions,
        rng: &mut R,
    ) -> Result<RandomForest> {
        let d = validate_xy(x, y)?;
        let tree_options = tree_options(&options, d);
        let data = RankedFeatures::new(x, y);
        let mut scratch = Scratch::for_data(&data);
        let n = x.len();
        let mut trees = Vec::with_capacity(options.n_trees);
        let mut rows: Vec<usize> = Vec::with_capacity(n);
        for _ in 0..options.n_trees {
            rows.clear();
            rows.extend((0..n).map(|_| rng.gen_range(0..n)));
            trees.push(DecisionTree::fit_rows(
                &data,
                &mut rows,
                tree_options,
                &mut scratch,
                rng,
            )?);
        }
        Ok(RandomForest { trees })
    }

    /// [`RandomForest::fit`] with row-cloning bootstraps and the retained
    /// sort-based trees (the differential oracle for the binned fit).
    #[cfg(any(test, feature = "naive-reference"))]
    pub fn fit_naive<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: ForestOptions,
        rng: &mut R,
    ) -> Result<RandomForest> {
        let d = validate_xy(x, y)?;
        let tree_options = tree_options(&options, d);
        let n = x.len();
        let mut trees = Vec::with_capacity(options.n_trees);
        let mut bx: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut by: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..options.n_trees {
            bx.clear();
            by.clear();
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            trees.push(DecisionTree::fit_naive(&bx, &by, tree_options, rng)?);
        }
        Ok(RandomForest { trees })
    }

    /// Mean tree probability for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        self.trees
            .iter()
            .map(|t| t.predict_proba_row(row))
            .sum::<f64>()
            / self.trees.len() as f64
    }

    /// Mean tree probabilities for many rows.
    pub fn predict_proba(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_proba_row(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beats_chance_on_noisy_linear_data() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 600;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| f64::from(r[0] + 0.5 * r[1] + 0.1 * (rng.gen::<f64>() - 0.5) > 0.75))
            .collect();
        let forest = RandomForest::fit(&x, &y, ForestOptions::default(), &mut rng).unwrap();
        let preds = forest.predict_proba(&x);
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, &t)| (**p > 0.5) == (t == 1.0))
            .count() as f64
            / n as f64;
        assert!(acc > 0.9, "train accuracy = {acc}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 7) as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(i % 3 == 0)).collect();
        let forest = RandomForest::fit(&x, &y, ForestOptions::default(), &mut rng).unwrap();
        for p in forest.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn index_bootstrap_matches_row_cloning() {
        let mut gen = StdRng::seed_from_u64(8);
        let x: Vec<Vec<f64>> = (0..250)
            .map(|_| {
                (0..6)
                    .map(|j| f64::from(gen.gen_range(0u32..3 + j)))
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| f64::from(r[0] + r[3] > 3.0 || gen.gen::<f64>() < 0.1))
            .collect();
        let options = ForestOptions {
            n_trees: 5,
            ..ForestOptions::default()
        };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let binned = RandomForest::fit(&x, &y, options, &mut a).unwrap();
        let naive = RandomForest::fit_naive(&x, &y, options, &mut b).unwrap();
        for (p, q) in binned.predict_proba(&x).iter().zip(naive.predict_proba(&x)) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
