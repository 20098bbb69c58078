//! Shared statistic helpers for the paper modules.
//!
//! All helpers use the *NaN convention*: statistics over empty groups return
//! NaN rather than erroring, because on heavily-noised synthetic data a
//! subgroup can vanish; [`crate::finding::Finding::reproduced`] then counts
//! the finding as not reproduced, which is the paper's semantics.
//!
//! Subgroup statistics read a [`Subset`] row view of the dataset, never a
//! [`Dataset::filter_rows`] copy: the view returns the same values in the
//! same summation order without re-packing every column per call.

use crate::error::Result;
use synrd_data::{Dataset, Domain, Subset};
use synrd_stats::{logistic_columns, ols_columns, pearson, spearman, LinearFit, LogisticFit};

/// The reads a finding statistic makes, implemented by a whole [`Dataset`]
/// and by a [`Subset`] of one, so each helper below has one code path for
/// both.
pub(crate) trait Table {
    fn domain(&self) -> &Domain;
    fn numeric_column(&self, attr: usize) -> synrd_data::Result<Vec<f64>>;
    fn decode_column(&self, attr: usize) -> synrd_data::Result<Vec<u32>>;
    fn proportion(&self, attr: usize, code: u32) -> synrd_data::Result<f64>;
    fn mean_of(&self, attr: usize) -> synrd_data::Result<f64>;
}

macro_rules! table_impl {
    ($($t:ty),*) => {$(
        impl Table for $t {
            fn domain(&self) -> &Domain {
                <$t>::domain(self)
            }
            fn numeric_column(&self, attr: usize) -> synrd_data::Result<Vec<f64>> {
                <$t>::numeric_column(self, attr)
            }
            fn decode_column(&self, attr: usize) -> synrd_data::Result<Vec<u32>> {
                <$t>::decode_column(self, attr)
            }
            fn proportion(&self, attr: usize, code: u32) -> synrd_data::Result<f64> {
                <$t>::proportion(self, attr, code)
            }
            fn mean_of(&self, attr: usize) -> synrd_data::Result<f64> {
                <$t>::mean_of(self, attr)
            }
        }
    )*};
}

table_impl!(Dataset, Subset<'_>);

/// Numeric column by attribute name.
pub(crate) fn col(ds: &impl Table, name: &str) -> Result<Vec<f64>> {
    let idx = ds.domain().index_of(name)?;
    Ok(ds.numeric_column(idx)?)
}

/// Raw codes by attribute name.
pub(crate) fn codes(ds: &impl Table, name: &str) -> Result<Vec<u32>> {
    let idx = ds.domain().index_of(name)?;
    Ok(ds.decode_column(idx)?)
}

/// Proportion of rows with `attr == code`; NaN for an empty subgroup.
pub(crate) fn prop(ds: &impl Table, name: &str, code: u32) -> Result<f64> {
    let idx = ds.domain().index_of(name)?;
    Ok(ds.proportion(idx, code)?)
}

/// Mean of a named numeric column; NaN for an empty subgroup.
pub(crate) fn mean(ds: &impl Table, name: &str) -> Result<f64> {
    let idx = ds.domain().index_of(name)?;
    Ok(ds.mean_of(idx)?)
}

/// The rows of `ds` whose code of the named attribute satisfies `keep`.
pub(crate) fn rows_where<'a>(
    ds: &'a Dataset,
    name: &str,
    keep: impl FnMut(u32) -> bool,
) -> Result<Subset<'a>> {
    let idx = ds.domain().index_of(name)?;
    Ok(ds.subset(idx, keep)?)
}

/// The rows where every `(attr, code)` condition holds (at least one).
fn subgroup<'a>(ds: &'a Dataset, conditions: &[(&str, u32)]) -> Result<Subset<'a>> {
    let ((name, code), rest) = conditions
        .split_first()
        .expect("a subgroup needs at least one condition");
    let mut sub = rows_where(ds, name, |c| c == *code)?;
    for &(name, code) in rest {
        sub = sub.and(ds.domain().index_of(name)?, |c| c == code)?;
    }
    Ok(sub)
}

/// Mean of the numeric column `value` among rows where every `(attr, code)`
/// condition holds; NaN for empty groups.
pub(crate) fn mean_where(ds: &Dataset, conditions: &[(&str, u32)], value: &str) -> Result<f64> {
    let sub = subgroup(ds, conditions)?;
    if sub.is_empty() {
        return Ok(f64::NAN);
    }
    mean(&sub, value)
}

/// Proportion of `target_code` in `target` among rows matching conditions.
pub(crate) fn prop_where(
    ds: &Dataset,
    conditions: &[(&str, u32)],
    target: &str,
    target_code: u32,
) -> Result<f64> {
    let sub = subgroup(ds, conditions)?;
    if sub.is_empty() {
        return Ok(f64::NAN);
    }
    prop(&sub, target, target_code)
}

/// Pearson correlation of two named columns.
pub(crate) fn pearson_named(ds: &impl Table, a: &str, b: &str) -> Result<f64> {
    Ok(pearson(&col(ds, a)?, &col(ds, b)?)?)
}

/// Spearman correlation of two named columns.
pub(crate) fn spearman_named(ds: &Dataset, a: &str, b: &str) -> Result<f64> {
    Ok(spearman(&col(ds, a)?, &col(ds, b)?)?)
}

/// OLS of `y` on named predictors (intercept included; coefficient i+1
/// corresponds to predictor i).
pub(crate) fn ols_named(ds: &Dataset, y: &str, xs: &[&str]) -> Result<LinearFit> {
    let yv = col(ds, y)?;
    let cols: Vec<Vec<f64>> = xs.iter().map(|x| col(ds, x)).collect::<Result<_>>()?;
    Ok(ols_columns(&cols, &yv)?)
}

/// Logistic regression of binary `y` on named predictors.
pub(crate) fn logistic_named(ds: &impl Table, y: &str, xs: &[&str]) -> Result<LogisticFit> {
    let yv = col(ds, y)?;
    let cols: Vec<Vec<f64>> = xs.iter().map(|x| col(ds, x)).collect::<Result<_>>()?;
    Ok(logistic_columns(&cols, &yv)?)
}

/// Log odds ratio of `outcome == 1` for `exposure == 1` vs `exposure == 0`,
/// from the 2×2 table with the Haldane–Anscombe correction.
pub(crate) fn log_odds_ratio(ds: &impl Table, exposure: &str, outcome: &str) -> Result<f64> {
    let e = codes(ds, exposure)?;
    let o = codes(ds, outcome)?;
    let mut table = [0.0f64; 4]; // [e1o1, e1o0, e0o1, e0o0]
    for (ev, ov) in e.iter().zip(&o) {
        let idx = match (ev, ov) {
            (1, 1) => 0,
            (1, 0) => 1,
            (0, 1) => 2,
            _ => 3,
        };
        table[idx] += 1.0;
    }
    Ok(synrd_stats::odds_ratio_2x2(table[0], table[1], table[2], table[3]).ln())
}

/// Pearson correlation between two named columns *within* a subgroup.
pub(crate) fn pearson_where(
    ds: &Dataset,
    conditions: &[(&str, u32)],
    a: &str,
    b: &str,
) -> Result<f64> {
    let sub = subgroup(ds, conditions)?;
    if sub.n_rows() < 3 {
        return Ok(f64::NAN);
    }
    pearson_named(&sub, a, b)
}
