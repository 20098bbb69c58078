//! Differential proptest pinning the [`Subset`] row view against its
//! oracle, [`Dataset::filter_rows`]: for the same predicate, every view
//! statistic must equal the statistic of the filtered copy bit for bit
//! (`f64::to_bits`), and every error must be the same error.
//!
//! Domains mix every attribute kind: plain ordinals, ordinals with
//! non-integer scores (so a reordered mean sum would show in the low bits),
//! categoricals (whose means error) and binaries, at cardinalities that
//! stress the packing, including cardinality 1 (width 0, no words stored).
//! Predicates are conjunctions of one to three per-attribute conditions,
//! including ones that keep nothing and ones that keep everything.

use proptest::prelude::*;
use synrd_data::{Attribute, Dataset, Domain, Result, Subset};

const CARDS: [usize; 8] = [1, 2, 3, 5, 16, 17, 65, 100];

/// One attribute: `(kind, cardinality)`; kind 0 ordinal, 1 scored ordinal,
/// 2 categorical, 3 binary (cardinality forced to 2).
fn attribute(i: usize, kind: u32, card: usize) -> Attribute {
    let name = format!("a{i}");
    match kind {
        0 => Attribute::ordinal(name, card),
        1 => Attribute::ordinal_scored(
            name,
            (0..card)
                .map(|k| ((k as f64 + 0.5) * 1.7 + i as f64).sin() * 3.1)
                .collect(),
        ),
        2 => Attribute::categorical(name, (0..card).map(|k| format!("c{k}")).collect()),
        _ => Attribute::binary(name),
    }
}

/// A random domain and a column-major sample over it (0–300 rows).
fn dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u32..4, 0usize..CARDS.len()), 1..=5).prop_flat_map(|spec| {
        let domain = Domain::new(
            spec.iter()
                .enumerate()
                .map(|(i, &(kind, c))| attribute(i, kind, CARDS[c]))
                .collect(),
        );
        let row: Vec<_> = domain
            .attributes()
            .iter()
            .map(|a| 0u32..a.cardinality() as u32)
            .collect();
        proptest::collection::vec(row, 0..=300).prop_map(move |rows| {
            let mut cols = vec![Vec::with_capacity(rows.len()); domain.len()];
            for row in &rows {
                for (c, &v) in cols.iter_mut().zip(row) {
                    c.push(v);
                }
            }
            Dataset::new(domain.clone(), cols).unwrap()
        })
    })
}

/// One per-attribute condition: keep rows whose code of `attr` passes.
#[derive(Debug, Clone, Copy)]
struct Cond {
    attr: usize,
    /// 0 keeps nothing, 1 keeps everything, 2 `==`, 3 `>=`, 4 same parity.
    mode: u32,
    code: u32,
}

impl Cond {
    fn keep(self, c: u32) -> bool {
        match self.mode {
            0 => false,
            1 => true,
            2 => c == self.code,
            3 => c >= self.code,
            _ => c % 2 == self.code % 2,
        }
    }
}

fn conds() -> impl Strategy<Value = Vec<(usize, u32, u32)>> {
    proptest::collection::vec((0usize..5, 0u32..5, 0u32..6), 1..=3)
}

fn view<'a>(ds: &'a Dataset, conds: &[Cond]) -> Result<Subset<'a>> {
    let (first, rest) = conds.split_first().expect("at least one condition");
    let mut view = ds.subset(first.attr, |c| first.keep(c))?;
    for &cond in rest {
        view = view.and(cond.attr, |c| cond.keep(c))?;
    }
    Ok(view)
}

/// Results compared bit for bit: values as `to_bits`, errors as values.
fn bits(r: Result<f64>) -> Result<u64> {
    r.map(f64::to_bits)
}

fn all_bits(r: Result<Vec<f64>>) -> Result<Vec<u64>> {
    r.map(|v| v.into_iter().map(f64::to_bits).collect())
}

proptest! {
    /// Every view statistic equals the filtered-copy statistic, for every
    /// attribute (plus one out-of-range index) and every code (plus one
    /// out-of-range code).
    #[test]
    fn subset_equivalence(ds in dataset(), raw in conds()) {
        let d = ds.n_attrs();
        let conds: Vec<Cond> = raw
            .iter()
            .map(|&(a, mode, code)| Cond { attr: a % d, mode, code })
            .collect();
        let sub = view(&ds, &conds).unwrap();
        let oracle = ds.filter_rows(|r| conds.iter().all(|c| c.keep(r.get(c.attr))));

        prop_assert_eq!(sub.n_rows(), oracle.n_rows());
        prop_assert_eq!(sub.is_empty(), oracle.is_empty());
        prop_assert_eq!(sub.domain(), oracle.domain());
        for attr in 0..=d {
            prop_assert_eq!(sub.decode_column(attr), oracle.decode_column(attr));
            prop_assert_eq!(bits(sub.mean_of(attr)), bits(oracle.mean_of(attr)));
            prop_assert_eq!(
                all_bits(sub.numeric_column(attr)),
                all_bits(oracle.numeric_column(attr))
            );
            prop_assert_eq!(
                all_bits(sub.value_counts(attr)),
                all_bits(oracle.value_counts(attr))
            );
            let card = ds.domain().cardinality(attr).unwrap_or(1) as u32;
            for code in 0..=card {
                prop_assert_eq!(
                    bits(sub.proportion(attr, code)),
                    bits(oracle.proportion(attr, code))
                );
            }
        }
    }

    /// A condition on an out-of-range attribute is an error, not a panic,
    /// whether it starts the view or narrows it.
    #[test]
    fn bad_attribute_is_an_error(ds in dataset(), extra in 0usize..3) {
        let bad = ds.n_attrs() + extra;
        prop_assert!(ds.subset(bad, |_| true).is_err());
        prop_assert!(ds.subset(0, |_| true).unwrap().and(bad, |_| true).is_err());
    }
}
