//! Jeong et al. (2021): racial bias in classifiers predicting 9th-grade math
//! performance (HSLS:09). 8 findings (ids 56–63): accuracy / FPR / FNR /
//! predicted-base-rate comparisons between the privileged (White/Asian) and
//! disadvantaged (Black/Hispanic/Native American) groups, for a logistic
//! regression and a random forest.
//!
//! Each statistic *re-runs the paper's whole pipeline* on the dataset it is
//! given: train/test split, model training, per-group evaluation — so
//! running it on synthetic data reproduces the full analysis, as the
//! methodology requires.

use crate::error::Result;
use crate::finding::{Check, Finding, FindingType as FT};
use crate::publication::Publication;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{BenchmarkDataset, ColumnAccess, Dataset};
use synrd_ml::{
    group_metrics, train_test_split, ForestOptions, Metrics, RandomForest, TreeOptions,
};
use synrd_stats::{logistic, LogisticOptions, Matrix};

/// Which model family a finding evaluates.
#[derive(Clone, Copy, PartialEq)]
enum Model {
    Logistic,
    Forest,
}

/// Row-major features, binary labels, and per-row group ids.
type SupervisedData = (Vec<Vec<f64>>, Vec<f64>, Vec<u32>);

/// Feature matrix (everything except the label and the protected attribute),
/// labels, and group ids.
fn prepare(ds: &Dataset) -> Result<SupervisedData> {
    let d = ds.n_attrs();
    let race = ds.domain().index_of("race_group")?;
    let label = ds.domain().index_of("top50")?;
    let mut features: Vec<Vec<f64>> = vec![Vec::with_capacity(d - 2); ds.n_rows()];
    for a in 0..d {
        if a == race || a == label {
            continue;
        }
        // Codes as numeric features; the survey items are ordinal anyway.
        let mut r = 0;
        ds.packed_column(a)?.for_each_code(|code| {
            features[r].push(f64::from(code));
            r += 1;
        });
    }
    let mut y: Vec<f64> = Vec::with_capacity(ds.n_rows());
    ds.packed_column(label)?
        .for_each_code(|c| y.push(f64::from(c)));
    let groups: Vec<u32> = ds.decode_column(race)?;
    Ok((features, y, groups))
}

/// One memoized pipeline run: dataset fingerprint, model family, and the
/// (privileged, disadvantaged) group metrics it produced.
type MemoEntry = (u64, Model, (Metrics, Metrics));

thread_local! {
    /// Memo of the last pipeline run per thread: the benchmark evaluates all
    /// eight findings on the same dataset in sequence, and four findings
    /// share each model family — this avoids retraining 4× per draw.
    /// Keyed by a content fingerprint so address reuse cannot alias.
    static PIPELINE_MEMO: std::cell::RefCell<Vec<MemoEntry>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Cheap content fingerprint of a dataset (FNV over the label and group
/// columns plus dimensions) for the pipeline memo.
fn fingerprint(ds: &Dataset) -> Result<u64> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(ds.n_rows() as u64);
    mix(ds.n_attrs() as u64);
    for name in ["top50", "race_group", "ses"] {
        let idx = ds.domain().index_of(name)?;
        ds.packed_column(idx)?.for_each_code(|c| mix(u64::from(c)));
    }
    Ok(h)
}

/// Train the model and return (privileged, disadvantaged) test metrics.
/// Group code 0 = privileged, 1 = disadvantaged (generator convention).
fn run_pipeline(ds: &Dataset, model: Model) -> Result<(Metrics, Metrics)> {
    let key = fingerprint(ds)?;
    let cached = PIPELINE_MEMO.with(|memo| {
        memo.borrow()
            .iter()
            .find(|(k, m, _)| *k == key && *m == model)
            .map(|(_, _, r)| *r)
    });
    if let Some(result) = cached {
        return Ok(result);
    }
    let result = run_pipeline_uncached(ds, model)?;
    PIPELINE_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        // Keep only the current dataset's entries (one per model family).
        memo.retain(|(k, _, _)| *k == key);
        memo.push((key, model, result));
    });
    Ok(result)
}

/// Fixed internal seed: the pipeline is part of the finding definition.
const PIPELINE_SEED: u64 = 0x4a31_2021;

/// The pipeline's random-forest hyperparameters (`max_features = None`
/// means √d per node).
pub const FOREST_OPTIONS: ForestOptions = ForestOptions {
    n_trees: 20,
    tree: TreeOptions {
        max_depth: 8,
        min_samples_split: 10,
        max_features: None,
    },
};

/// The pipeline's train/test split of one dataset, and its RNG in the state
/// the model fit draws from.
pub struct PipelineSplit {
    /// Training features (row-major numeric codes).
    pub x_train: Vec<Vec<f64>>,
    /// Training labels (0/1).
    pub y_train: Vec<f64>,
    /// Test features.
    pub x_test: Vec<Vec<f64>>,
    /// Test labels.
    pub y_test: Vec<f64>,
    /// Test group ids (0 = privileged, 1 = disadvantaged).
    pub groups_test: Vec<u32>,
    /// The fixed-seed pipeline RNG after the split.
    pub rng: StdRng,
}

/// The pipeline's 70/30 (train, test) row split of `n` rows, and its RNG
/// after the split.
fn split_rows(n: usize) -> Result<(Vec<usize>, Vec<usize>, StdRng)> {
    let mut rng = StdRng::seed_from_u64(PIPELINE_SEED);
    let (train, test) = train_test_split(n, 0.3, &mut rng)?;
    Ok((train, test, rng))
}

/// Featurize `ds` and split it 70/30 as every pipeline run does.
pub fn pipeline_split(ds: &Dataset) -> Result<PipelineSplit> {
    let (x, y, groups) = prepare(ds)?;
    let (train, test, rng) = split_rows(x.len())?;
    Ok(PipelineSplit {
        x_train: train.iter().map(|&i| x[i].clone()).collect(),
        y_train: train.iter().map(|&i| y[i]).collect(),
        x_test: test.iter().map(|&i| x[i].clone()).collect(),
        y_test: test.iter().map(|&i| y[i]).collect(),
        groups_test: test.iter().map(|&i| groups[i]).collect(),
        rng,
    })
}

/// The pipeline's split as logistic designs: an intercept column, then the
/// same features as [`pipeline_split`] in the same order.
pub struct LogisticSplit {
    /// Training design (`1`, then the feature codes).
    pub x_train: Matrix,
    /// Training labels (0/1).
    pub y_train: Vec<f64>,
    /// Test design.
    pub x_test: Matrix,
    /// Test labels.
    pub y_test: Vec<f64>,
    /// Test group ids (0 = privileged, 1 = disadvantaged).
    pub groups_test: Vec<u32>,
}

/// Split `ds` as [`pipeline_split`] does and write both designs column by
/// column straight from the packed storage: one decode per feature, no
/// row-major copy and no transpose.
pub fn logistic_split(ds: &Dataset) -> Result<LogisticSplit> {
    let race = ds.domain().index_of("race_group")?;
    let label = ds.domain().index_of("top50")?;
    let (train, test, _) = split_rows(ds.n_rows())?;
    let features: Vec<usize> = (0..ds.n_attrs())
        .filter(|&a| a != race && a != label)
        .collect();
    let k = features.len() + 1;
    let (mut x_train, mut x_test) = (vec![1.0; train.len() * k], vec![1.0; test.len() * k]);
    let mut codes = Vec::new();
    for (j, &a) in features.iter().enumerate() {
        ds.decode_column_into(a, &mut codes)?;
        for (x, rows) in [(&mut x_train, &train), (&mut x_test, &test)] {
            for (t, &r) in rows.iter().enumerate() {
                x[t * k + j + 1] = f64::from(codes[r]);
            }
        }
    }
    let labels = ds.decode_column(label)?;
    let groups = ds.decode_column(race)?;
    let y = |rows: &[usize]| rows.iter().map(|&r| f64::from(labels[r])).collect();
    Ok(LogisticSplit {
        x_train: Matrix::from_rows(train.len(), k, x_train)?,
        y_train: y(&train),
        x_test: Matrix::from_rows(test.len(), k, x_test)?,
        y_test: y(&test),
        groups_test: test.iter().map(|&r| groups[r]).collect(),
    })
}

fn run_pipeline_uncached(ds: &Dataset, model: Model) -> Result<(Metrics, Metrics)> {
    let (scores, y_test, groups_test) = match model {
        Model::Logistic => {
            let split = logistic_split(ds)?;
            let fit = logistic(&split.x_train, &split.y_train, LogisticOptions::default())?;
            let scores = (0..split.x_test.n_rows())
                .map(|t| {
                    let features = &split.x_test.row(t)[1..];
                    let eta: f64 = fit.coefficients[0]
                        + features
                            .iter()
                            .zip(&fit.coefficients[1..])
                            .map(|(a, b)| a * b)
                            .sum::<f64>();
                    1.0 / (1.0 + (-eta).exp())
                })
                .collect();
            (scores, split.y_test, split.groups_test)
        }
        Model::Forest => {
            let mut split = pipeline_split(ds)?;
            let forest = RandomForest::fit(
                &split.x_train,
                &split.y_train,
                FOREST_OPTIONS,
                &mut split.rng,
            )?;
            (
                forest.predict_proba(&split.x_test),
                split.y_test,
                split.groups_test,
            )
        }
    };
    let by_group = group_metrics(&scores, &y_test, &groups_test, 2)?;
    Ok((by_group[0], by_group[1]))
}

fn metric_finding(
    id: u32,
    name: &'static str,
    kind: FT,
    check: Check,
    model: Model,
    extract: fn(&Metrics, &Metrics) -> Vec<f64>,
) -> Finding {
    Finding::new(
        id,
        name,
        kind,
        check,
        Box::new(move |ds: &Dataset| {
            let (privileged, disadvantaged) = run_pipeline(ds, model)?;
            Ok(extract(&privileged, &disadvantaged))
        }),
    )
}

/// The Jeong et al. 2021 publication.
pub struct Jeong2021;

impl Publication for Jeong2021 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Jeong2021
    }

    fn findings(&self) -> Vec<Finding> {
        vec![
            metric_finding(
                56,
                "logistic accuracy is comparable across groups",
                FT::LogisticAccuracy,
                Check::Tolerance { alpha: 0.08 },
                Model::Logistic,
                |p, d| vec![p.accuracy - d.accuracy],
            ),
            metric_finding(
                57,
                "forest accuracy is comparable across groups",
                FT::LogisticAccuracy,
                Check::Tolerance { alpha: 0.08 },
                Model::Forest,
                |p, d| vec![p.accuracy - d.accuracy],
            ),
            metric_finding(
                58,
                "logistic FPR: privileged get the benefit of the doubt",
                FT::LogisticFpr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![p.fpr, d.fpr],
            ),
            metric_finding(
                59,
                "forest FPR: privileged get the benefit of the doubt",
                FT::LogisticFpr,
                Check::Order,
                Model::Forest,
                |p, d| vec![p.fpr, d.fpr],
            ),
            metric_finding(
                60,
                "logistic FNR: disadvantaged are under-estimated",
                FT::LogisticFnr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![d.fnr, p.fnr],
            ),
            metric_finding(
                61,
                "forest FNR: disadvantaged are under-estimated",
                FT::LogisticFnr,
                Check::Order,
                Model::Forest,
                |p, d| vec![d.fnr, p.fnr],
            ),
            metric_finding(
                62,
                "logistic predicted base rate favors the privileged",
                FT::LogisticPbr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![p.pbr, d.pbr],
            ),
            metric_finding(
                63,
                "forest predicted base rate favors the privileged",
                FT::LogisticPbr,
                Check::Order,
                Model::Forest,
                |p, d| vec![p.pbr, d.pbr],
            ),
        ]
    }
}
