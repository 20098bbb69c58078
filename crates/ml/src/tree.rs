//! CART-style binary decision tree with Gini impurity.
//!
//! One of Jeong et al.'s three model families (via [`crate::forest`]). The
//! implementation supports per-node feature subsampling so the forest gets
//! decorrelated trees.
//!
//! # Split search over ranks
//!
//! Features are rank-encoded once per fit ([`RankedFeatures`]): each
//! feature keeps its sorted distinct values, and each row stores a `u32`
//! rank into them. A node is a list of row indices. For each candidate
//! feature the node fills per-rank `(rows, positives)` histograms and sweeps
//! the non-empty ranks in ascending order; the candidate threshold between
//! adjacent non-empty ranks `p < r` is `0.5 * (values[p] + values[r])`.
//!
//! This is bit-identical to sorting `(value, label)` pairs at every node:
//! labels are 0/1, so the left and right sums are exact integers in `f64`,
//! the sweep visits the same boundaries in the same order with the same
//! counts, and the `gain > best` tie-break, per-node `shuffle` and
//! recursion order are unchanged, so gains, thresholds and the RNG stream
//! all match. Children take rows whose value is `<= threshold`, as before.
//! The sort-based search is kept as `fit_naive` under the
//! `naive-reference` feature as the differential oracle.

use crate::error::{validate_xy, MlError, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyperparameters for tree induction.
#[derive(Debug, Clone, Copy)]
pub struct TreeOptions {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features tried per node; `None` = all.
    pub max_features: Option<usize>,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            max_depth: 8,
            min_samples_split: 10,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted decision tree predicting P(y = 1 | x).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
}

impl DecisionTree {
    /// Fit on row-major features and 0/1 labels.
    ///
    /// # Panics
    /// On NaN features (they have no rank).
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: TreeOptions,
        rng: &mut R,
    ) -> Result<DecisionTree> {
        validate_xy(x, y)?;
        let data = RankedFeatures::new(x, y);
        let mut scratch = Scratch::for_data(&data);
        let mut rows: Vec<usize> = (0..x.len()).collect();
        DecisionTree::fit_rows(&data, &mut rows, options, &mut scratch, rng)
    }

    /// Grow a tree on the rows `rows` (indices into `data`, duplicates
    /// allowed, any order) — the shared core of [`DecisionTree::fit`] and
    /// the forest's bootstrap trees.
    pub(crate) fn fit_rows<R: Rng + ?Sized>(
        data: &RankedFeatures,
        rows: &mut [usize],
        options: TreeOptions,
        scratch: &mut Scratch,
        rng: &mut R,
    ) -> Result<DecisionTree> {
        check_depth(&options)?;
        let root = grow(data, rows, 0, &options, scratch, rng);
        Ok(DecisionTree {
            root,
            n_features: data.n_features(),
        })
    }

    /// [`DecisionTree::fit`] through the retained sort-based split search
    /// (the differential oracle for the binned one).
    #[cfg(any(test, feature = "naive-reference"))]
    pub fn fit_naive<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        options: TreeOptions,
        rng: &mut R,
    ) -> Result<DecisionTree> {
        let d = validate_xy(x, y)?;
        check_depth(&options)?;
        let idx: Vec<usize> = (0..x.len()).collect();
        let root = grow_naive(x, y, &idx, 0, &options, rng);
        Ok(DecisionTree {
            root,
            n_features: d,
        })
    }

    /// Predicted probability for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicted probabilities for many rows.
    pub fn predict_proba(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_proba_row(r)).collect()
    }
}

fn check_depth(options: &TreeOptions) -> Result<()> {
    if options.max_depth == 0 {
        return Err(MlError::InvalidParameter {
            name: "max_depth",
            value: 0.0,
        });
    }
    Ok(())
}

/// A validated training set, rank-encoded once per fit.
#[derive(Debug, Clone)]
pub(crate) struct RankedFeatures {
    n_rows: usize,
    /// Per feature, the distinct values in ascending order (`-0.0` and
    /// `0.0` are one value).
    values: Vec<Vec<f64>>,
    /// Column-major ranks: `ranks[f * n_rows + i]` indexes `values[f]`.
    ranks: Vec<u32>,
    /// Labels as 0/1 integers.
    labels: Vec<u32>,
}

impl RankedFeatures {
    /// Encode `x` (validated by [`validate_xy`], at least one row) and its
    /// 0/1 labels `y`.
    ///
    /// # Panics
    /// On NaN features, or more than `u32::MAX` rows.
    pub(crate) fn new(x: &[Vec<f64>], y: &[f64]) -> RankedFeatures {
        let n_rows = x.len();
        // Ranks and per-node counts are `u32`.
        assert!(u32::try_from(n_rows).is_ok(), "more than u32::MAX rows");
        let d = x.first().map_or(0, Vec::len);
        let mut values = Vec::with_capacity(d);
        let mut ranks = Vec::with_capacity(d * n_rows);
        let mut column = Vec::with_capacity(n_rows);
        for f in 0..d {
            column.clear();
            column.extend(x.iter().map(|row| row[f]));
            let mut distinct = column.clone();
            distinct.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            distinct.dedup_by(|a, b| a == b);
            ranks.extend(
                column
                    .iter()
                    .map(|&v| distinct.partition_point(|&u| u < v) as u32),
            );
            values.push(distinct);
        }
        let labels = y.iter().map(|&v| u32::from(v == 1.0)).collect();
        RankedFeatures {
            n_rows,
            values,
            ranks,
            labels,
        }
    }

    fn n_features(&self) -> usize {
        self.values.len()
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// Reusable per-fit buffers for [`grow`].
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `(rows, positives)` per rank of the feature being searched.
    hist: Vec<[u32; 2]>,
    /// Candidate features of the current node.
    features: Vec<usize>,
    /// Right-hand rows during a stable partition.
    right: Vec<usize>,
}

impl Scratch {
    pub(crate) fn for_data(data: &RankedFeatures) -> Scratch {
        let widest = data.values.iter().map(Vec::len).max().unwrap_or(0);
        Scratch {
            hist: vec![[0, 0]; widest],
            ..Scratch::default()
        }
    }
}

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// Best split found so far: `(feature, threshold, gain)`.
type Best = Option<(usize, f64, f64)>;

/// Offer the boundary between adjacent non-empty ranks `lo < hi` of
/// feature `f`, with `left_n` rows (`left_pos` positive) at ranks `<= lo`.
fn offer(
    best: &mut Best,
    f: usize,
    values: &[f64],
    (lo, hi): (usize, usize),
    (left_n, left_pos): (u32, u32),
    (total, pos, parent_gini): (f64, f64, f64),
) {
    let left_n = f64::from(left_n);
    let left_pos = f64::from(left_pos);
    let right_pos = pos - left_pos;
    let right_n = total - left_n;
    let weighted =
        (left_n / total) * gini(left_pos, left_n) + (right_n / total) * gini(right_pos, right_n);
    let gain = parent_gini - weighted;
    // Zero-gain splits are allowed (XOR-style problems have no first-level
    // gain); depth and the purity check bound the tree.
    if best.map_or(gain >= -1e-12, |(_, _, g)| gain > g) {
        *best = Some((f, 0.5 * (values[lo] + values[hi]), gain));
    }
}

fn grow<R: Rng + ?Sized>(
    data: &RankedFeatures,
    rows: &mut [usize],
    depth: usize,
    options: &TreeOptions,
    scratch: &mut Scratch,
    rng: &mut R,
) -> Node {
    let labels = &data.labels;
    let total = rows.len() as f64;
    let pos = f64::from(rows.iter().map(|&i| labels[i]).sum::<u32>());
    let prob = if total > 0.0 { pos / total } else { 0.5 };
    let pure = pos == 0.0 || pos == total;
    if depth >= options.max_depth || rows.len() < options.min_samples_split || pure {
        return Node::Leaf { prob };
    }

    // Candidate features (subsampled for forests).
    let d = data.n_features();
    let features = &mut scratch.features;
    features.clear();
    features.extend(0..d);
    if let Some(k) = options.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(d));
    }

    let node = (total, pos, gini(pos, total));
    let mut best: Best = None;
    for &f in features.iter() {
        let values = &data.values[f];
        let column = data.column(f);
        let hist = &mut scratch.hist[..values.len()];
        hist.fill([0, 0]);
        for &i in rows.iter() {
            let h = &mut hist[column[i] as usize];
            h[0] += 1;
            h[1] += labels[i];
        }
        let (mut left_n, mut left_pos) = (0u32, 0u32);
        let mut prev = None;
        for (r, &[n, p]) in hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if let Some(lo) = prev {
                offer(&mut best, f, values, (lo, r), (left_n, left_pos), node);
            }
            left_n += n;
            left_pos += p;
            prev = Some(r);
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Node::Leaf { prob };
    };
    // Ranks below `cut` hold exactly the values `<= threshold`.
    let cut = data.values[feature].partition_point(|&v| v <= threshold) as u32;
    let column = data.column(feature);
    let right = &mut scratch.right;
    right.clear();
    let mut n_left = 0;
    for j in 0..rows.len() {
        let i = rows[j];
        if column[i] < cut {
            rows[n_left] = i;
            n_left += 1;
        } else {
            right.push(i);
        }
    }
    rows[n_left..].copy_from_slice(right);
    if n_left == 0 || n_left == rows.len() {
        return Node::Leaf { prob };
    }
    let (left_rows, right_rows) = rows.split_at_mut(n_left);
    Node::Split {
        feature,
        threshold,
        left: Box::new(grow(data, left_rows, depth + 1, options, scratch, rng)),
        right: Box::new(grow(data, right_rows, depth + 1, options, scratch, rng)),
    }
}

/// The sort-based split search the binned [`grow`] replaced: every node
/// re-sorts `(value, label)` pairs per candidate feature. Retained as the
/// differential oracle.
#[cfg(any(test, feature = "naive-reference"))]
fn grow_naive<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    depth: usize,
    options: &TreeOptions,
    rng: &mut R,
) -> Node {
    let total = idx.len() as f64;
    let pos: f64 = idx.iter().map(|&i| y[i]).sum();
    let prob = if total > 0.0 { pos / total } else { 0.5 };
    let pure = pos == 0.0 || pos == total;
    if depth >= options.max_depth || idx.len() < options.min_samples_split || pure {
        return Node::Leaf { prob };
    }

    // Candidate features (subsampled for forests).
    let d = x[0].len();
    let mut features: Vec<usize> = (0..d).collect();
    if let Some(k) = options.max_features {
        features.shuffle(rng);
        features.truncate(k.max(1).min(d));
    }

    let parent_gini = gini(pos, total);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    let mut values: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
    for &f in &features {
        values.clear();
        values.extend(idx.iter().map(|&i| (x[i][f], y[i])));
        values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        // Sweep split points between distinct values.
        let mut left_pos = 0.0;
        let mut left_n = 0.0;
        for w in 0..values.len().saturating_sub(1) {
            left_pos += values[w].1;
            left_n += 1.0;
            if values[w].0 == values[w + 1].0 {
                continue;
            }
            let right_pos = pos - left_pos;
            let right_n = total - left_n;
            let weighted = (left_n / total) * gini(left_pos, left_n)
                + (right_n / total) * gini(right_pos, right_n);
            let gain = parent_gini - weighted;
            if best.map_or(gain >= -1e-12, |(_, _, g)| gain > g) {
                let threshold = 0.5 * (values[w].0 + values[w + 1].0);
                best = Some((f, threshold, gain));
            }
        }
    }

    match best {
        None => Node::Leaf { prob },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| x[i][feature] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return Node::Leaf { prob };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow_naive(x, y, &left_idx, depth + 1, options, rng)),
                right: Box::new(grow_naive(x, y, &right_idx, depth + 1, options, rng)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_a_threshold_rule() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| f64::from(i >= 100)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, TreeOptions::default(), &mut rng).unwrap();
        assert!(tree.predict_proba_row(&[5.0]) < 0.1);
        assert!(tree.predict_proba_row(&[150.0]) > 0.9);
    }

    #[test]
    fn learns_xor_with_depth() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            x.push(vec![a, b]);
            y.push(f64::from((a != b) as u8));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&x, &y, TreeOptions::default(), &mut rng).unwrap();
        assert!(tree.predict_proba_row(&[0.0, 1.0]) > 0.9);
        assert!(tree.predict_proba_row(&[1.0, 1.0]) < 0.1);
    }

    #[test]
    fn respects_max_depth_one() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(i >= 50)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let opts = TreeOptions {
            max_depth: 1,
            ..TreeOptions::default()
        };
        let tree = DecisionTree::fit(&x, &y, opts, &mut rng).unwrap();
        // A stump still separates this data.
        assert!(tree.predict_proba_row(&[0.0]) < 0.2);
        assert!(tree.predict_proba_row(&[99.0]) > 0.8);
    }

    #[test]
    fn validation_errors() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(DecisionTree::fit(&[], &[], TreeOptions::default(), &mut rng).is_err());
        assert!(DecisionTree::fit(&[vec![1.0]], &[2.0], TreeOptions::default(), &mut rng).is_err());
        let zero_depth = TreeOptions {
            max_depth: 0,
            ..TreeOptions::default()
        };
        assert!(DecisionTree::fit(&[vec![1.0]], &[1.0], zero_depth, &mut rng).is_err());
    }

    #[test]
    fn ranks_merge_signed_zeros_and_sort_values() {
        let x = vec![
            vec![0.0, 3.0],
            vec![-0.0, -1.0],
            vec![2.5, 3.0],
            vec![-4.0, 7.0],
        ];
        let y = vec![0.0, 1.0, 1.0, 0.0];
        let data = RankedFeatures::new(&x, &y);
        assert_eq!(data.values[0], vec![-4.0, 0.0, 2.5]);
        assert_eq!(data.column(0), &[1, 1, 2, 0]);
        assert_eq!(data.values[1], vec![-1.0, 3.0, 7.0]);
        assert_eq!(data.column(1), &[1, 0, 1, 2]);
        assert_eq!(data.labels, vec![0, 1, 1, 0]);
    }

    #[test]
    fn binned_tree_matches_the_sort_sweep() {
        // Continuous and integer-coded columns.
        let mut gen = StdRng::seed_from_u64(7);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                vec![
                    gen.gen::<f64>(),
                    f64::from(gen.gen_range(0u32..5)),
                    gen.gen::<f64>() * 10.0 - 5.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| f64::from(r[0] + 0.2 * r[1] + 0.05 * r[2] > 0.9))
            .collect();
        for max_features in [None, Some(1), Some(2)] {
            let opts = TreeOptions {
                max_depth: 6,
                min_samples_split: 2,
                max_features,
            };
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            let binned = DecisionTree::fit(&x, &y, opts, &mut a).unwrap();
            let naive = DecisionTree::fit_naive(&x, &y, opts, &mut b).unwrap();
            for row in &x {
                let (p, q) = (binned.predict_proba_row(row), naive.predict_proba_row(row));
                assert_eq!(p.to_bits(), q.to_bits());
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
