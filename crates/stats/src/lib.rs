//! # synrd-stats — statistics substrate for epistemic-parity findings
//!
//! Every finding in the benchmark is a statistical quantity computed twice —
//! once on real data, once on DP synthetic data. This crate provides those
//! computations:
//!
//! * [`descriptive`] — means, quantiles, proportions (finding type
//!   *Descriptive Statistics*);
//! * [`correlation`] — Pearson / Spearman with the paper's |r| > 0.7
//!   "strong" convention;
//! * [`regression`] / [`logistic`](mod@logistic) — OLS/WLS and IRLS logistic regression
//!   with standard errors (coefficient-comparison finding types);
//! * [`mediation`](mod@mediation) — PROCESS-style moderation/mediation via OLS;
//! * [`hypothesis`] — the two-proportion z-test;
//! * [`bootstrap`] — standard and Bayesian (Dirichlet-weight) bootstrap, the
//!   paper's control condition;
//! * [`special`] / [`linalg`] — numerical underpinnings.

#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in numeric kernels
pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod error;
pub mod hypothesis;
pub mod linalg;
pub mod logistic;
pub mod mediation;
pub mod regression;
pub mod special;

pub use correlation::{is_strong, pearson, ranks, spearman};
pub use descriptive::{
    iqr, mean, mean_difference, median, quantile, std_dev, variance, weighted_mean,
};
pub use error::{Result, StatsError};
pub use hypothesis::{two_proportion_z, TestResult};
pub use linalg::Matrix;
pub use logistic::{logistic, logistic_columns, odds_ratio_2x2, LogisticFit, LogisticOptions};
pub use mediation::{mediation, moderation, Mediation, Moderation};
pub use regression::{ols, ols_columns, wls, LinearFit};
