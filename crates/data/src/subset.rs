//! Row views: statistics on a subgroup without copying it.
//!
//! A finding such as "P(stem_asp_11 = 1 | stem_asp_9 = 1, ses = 0)" reads
//! one column over a subgroup. [`Dataset::filter_rows`] answers it by
//! materializing the subgroup — every column re-packed, the domain cloned —
//! to read a single proportion. A [`Subset`] holds only the ascending row
//! indices of the subgroup and reads the parent's packed columns through
//! [`ColumnAccess::for_each_at`].
//!
//! Every statistic returns exactly what the same call returns on the
//! `filter_rows` output for the same predicate: the same values, summed in
//! the same (ascending-row) order, and the same errors. The differential
//! proptest `tests/subset_equivalence.rs` pins this bit for bit.
//!
//! Row sets are built by column sweeps: [`Dataset::subset`] streams one
//! column with [`ColumnAccess::for_each_code`], and [`Subset::and`]
//! narrows the set with a cursor walk over another column. Neither pays
//! the per-cell word division of [`RowRef::get`](crate::RowRef::get).

use crate::dataset::Dataset;
use crate::domain::Domain;
use crate::error::Result;
use crate::packed::ColumnAccess;

/// A subgroup of a [`Dataset`]'s rows, read in place.
#[derive(Debug, Clone)]
pub struct Subset<'a> {
    parent: &'a Dataset,
    /// Ascending indices of the kept rows in `parent`.
    rows: Vec<u32>,
}

impl Dataset {
    /// The rows whose code of attribute `attr` satisfies `keep`, as a view.
    /// `ds.subset(a, p)` keeps the rows `ds.filter_rows(|r| p(r.get(a)))`
    /// keeps; narrow further with [`Subset::and`].
    ///
    /// # Errors
    /// [`DataError::AttributeIndexOutOfBounds`](crate::DataError) for a bad
    /// `attr` (where `filter_rows` would panic inside the predicate).
    ///
    /// # Panics
    /// If the dataset has more than `u32::MAX` rows.
    pub fn subset(&self, attr: usize, mut keep: impl FnMut(u32) -> bool) -> Result<Subset<'_>> {
        let col = self.packed_column(attr)?;
        assert!(
            u32::try_from(self.n_rows()).is_ok(),
            "a row view indexes at most u32::MAX rows"
        );
        // Branch-free compaction: write every row index, advance past the
        // kept ones (subgroup membership is a coin flip to the predictor).
        let mut rows = vec![0u32; self.n_rows()];
        let (mut len, mut r) = (0, 0u32);
        col.for_each_code(|c| {
            rows[len] = r;
            len += usize::from(keep(c));
            r += 1;
        });
        rows.truncate(len);
        Ok(Subset { parent: self, rows })
    }
}

impl<'a> Subset<'a> {
    /// Keep only the rows whose code of `attr` also satisfies `keep`.
    ///
    /// # Errors
    /// [`DataError::AttributeIndexOutOfBounds`](crate::DataError) for a bad
    /// `attr`.
    pub fn and(self, attr: usize, mut keep: impl FnMut(u32) -> bool) -> Result<Subset<'a>> {
        let col = self.parent.packed_column(attr)?;
        let mut rows = vec![0u32; self.rows.len()];
        let (mut len, mut i) = (0, 0);
        col.for_each_at(&self.rows, |c| {
            rows[len] = self.rows[i];
            len += usize::from(keep(c));
            i += 1;
        });
        rows.truncate(len);
        Ok(Subset {
            parent: self.parent,
            rows,
        })
    }

    /// The parent dataset's schema (a subgroup keeps every attribute).
    pub fn domain(&self) -> &'a Domain {
        self.parent.domain()
    }

    /// Number of rows in the subgroup.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the subgroup has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One attribute's codes over the subgroup, in row order.
    pub fn decode_column(&self, attr: usize) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(self.rows.len());
        self.parent
            .packed_column(attr)?
            .for_each_at(&self.rows, |c| out.push(c));
        Ok(out)
    }

    /// Numeric interpretation of a column over the subgroup
    /// (see [`Dataset::numeric_column`]).
    ///
    /// # Errors
    /// [`DataError::NotNumeric`](crate::DataError) for a categorical
    /// attribute with at least one row in the subgroup.
    pub fn numeric_column(&self, attr: usize) -> Result<Vec<f64>> {
        let attribute = self.domain().attribute(attr)?;
        self.decode_column(attr)?
            .into_iter()
            .map(|c| attribute.numeric(c))
            .collect()
    }

    /// Count of each code of one attribute over the subgroup.
    pub fn value_counts(&self, attr: usize) -> Result<Vec<f64>> {
        let card = self.domain().cardinality(attr)?;
        let mut counts = vec![0u64; card];
        self.parent
            .packed_column(attr)?
            .for_each_at(&self.rows, |c| counts[c as usize] += 1);
        Ok(counts.into_iter().map(|c| c as f64).collect())
    }

    /// Mean of the numeric interpretation of an attribute over the
    /// subgroup; NaN when it is empty.
    pub fn mean_of(&self, attr: usize) -> Result<f64> {
        let vals = self.numeric_column(attr)?;
        if vals.is_empty() {
            return Ok(f64::NAN);
        }
        Ok(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Proportion of the subgroup's rows whose attribute equals `code`; NaN
    /// when it is empty.
    pub fn proportion(&self, attr: usize, code: u32) -> Result<f64> {
        let col = self.parent.packed_column(attr)?;
        if self.rows.is_empty() {
            return Ok(f64::NAN);
        }
        let mut hits = 0u64;
        col.for_each_at(&self.rows, |c| hits += u64::from(c == code));
        Ok(hits as f64 / self.rows.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Attribute, DataError, Dataset, Domain};

    fn toy() -> Dataset {
        let domain = Domain::new(vec![
            Attribute::binary("treated"),
            Attribute::ordinal("score", 5),
            Attribute::categorical("site", vec!["a".into(), "b".into()]),
        ]);
        Dataset::new(
            domain,
            vec![
                vec![0, 1, 1, 0, 1],
                vec![0, 4, 3, 1, 4],
                vec![1, 0, 1, 1, 0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn subset_reads_the_filtered_rows() {
        let ds = toy();
        let treated = ds.subset(0, |c| c == 1).unwrap();
        assert_eq!(treated.n_rows(), 3);
        assert_eq!(treated.decode_column(1).unwrap(), vec![4, 3, 4]);
        assert_eq!(treated.proportion(1, 4).unwrap(), 2.0 / 3.0);
        assert_eq!(treated.mean_of(1).unwrap(), 11.0 / 3.0);
        assert_eq!(
            treated.value_counts(1).unwrap(),
            vec![0.0, 0.0, 0.0, 1.0, 2.0]
        );
        let high = treated.and(1, |c| c == 4).unwrap();
        assert_eq!(high.decode_column(2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn empty_subset_is_nan_and_errors_match_filter_rows() {
        let ds = toy();
        let none = ds.subset(1, |c| c > 4).unwrap();
        assert!(none.is_empty());
        assert!(none.proportion(0, 1).unwrap().is_nan());
        assert!(none.mean_of(0).unwrap().is_nan());
        // Categorical means error only when a row is there to convert, as
        // on a filtered dataset.
        assert!(none.mean_of(2).unwrap().is_nan());
        assert!(matches!(
            ds.subset(0, |_| true).unwrap().mean_of(2),
            Err(DataError::NotNumeric(_))
        ));
        assert!(matches!(
            ds.subset(9, |_| true),
            Err(DataError::AttributeIndexOutOfBounds { index: 9, len: 3 })
        ));
    }
}
