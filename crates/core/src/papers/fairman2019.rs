//! Fairman, Furr-Holden & Johnson (2019): marijuana as the first substance
//! used (NSDUH). 19 findings (ids 19–37), heavy on temporal mean-difference
//! comparisons across survey years — the shape that makes this large-n,
//! small-domain dataset noise-sensitive at low ε. Also supplies the paper's
//! Figure 1 visual finding.

use crate::error::Result;
use crate::finding::{Check, Finding, FindingType as FT};
use crate::papers::helpers::*;
use crate::publication::Publication;
use crate::visual::VisualFinding;
use synrd_data::{BenchmarkDataset, Dataset};

/// Code of "marijuana" in `first_substance`.
const MJ: u32 = 3;
/// Code of "cigarettes".
const CIG: u32 = 2;
/// Code of "alcohol".
const ALC: u32 = 1;
/// Code of "other".
const OTHER: u32 = 4;

/// Proportion using `substance` first within a year-quarter window
/// (year codes 0..16 split into 4 quarters).
fn first_rate_in_quarter(ds: &Dataset, substance: u32, quarter: u32) -> Result<f64> {
    let lo = quarter * 4;
    let hi = lo + 4;
    let sub = rows_where(ds, "year", |y| y >= lo && y < hi)?;
    prop(&sub, "first_substance", substance)
}

/// Rate of severe outcomes (severity code >= 5) among rows whose first
/// substance is `substance`.
fn severe_rate(ds: &Dataset, substance: u32) -> Result<f64> {
    let sub = rows_where(ds, "first_substance", |c| c == substance)?;
    if sub.is_empty() {
        return Ok(f64::NAN);
    }
    let outcome = sub.domain().index_of("outcome")?;
    let counts = sub.value_counts(outcome)?;
    let total: f64 = counts.iter().sum();
    Ok(counts[5..].iter().sum::<f64>() / total)
}

/// The Fairman et al. 2019 publication.
pub struct Fairman2019;

impl Publication for Fairman2019 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Fairman2019
    }

    fn findings(&self) -> Vec<Finding> {
        let race_vs_white = |id: u32, name: &'static str, race: u32, white_higher: bool| {
            Finding::new(
                id,
                name,
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(move |ds: &Dataset| {
                    let a = prop_where(ds, &[("race", race)], "first_substance", MJ)?;
                    let w = prop_where(ds, &[("race", 0)], "first_substance", MJ)?;
                    Ok(if white_higher { vec![w, a] } else { vec![a, w] })
                }),
            )
        };
        vec![
            Finding::new(
                19,
                "marijuana-first more likely among males",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("sex", 0)], "first_substance", MJ)?,
                        prop_where(ds, &[("sex", 1)], "first_substance", MJ)?,
                    ])
                }),
            ),
            race_vs_white(20, "marijuana-first: Black > White", 1, false),
            race_vs_white(21, "marijuana-first: AIAN > White", 4, false),
            race_vs_white(22, "marijuana-first: multiracial > White", 6, false),
            race_vs_white(23, "marijuana-first: Hispanic > White", 2, false),
            race_vs_white(24, "marijuana-first: White > Asian", 3, true),
            Finding::new(
                25,
                "marijuana-first rises from early to late years",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        first_rate_in_quarter(ds, MJ, 3)?,
                        first_rate_in_quarter(ds, MJ, 0)?,
                    ])
                }),
            ),
            Finding::new(
                26,
                "cigarette-first declines from early to late years",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        first_rate_in_quarter(ds, CIG, 0)?,
                        first_rate_in_quarter(ds, CIG, 3)?,
                    ])
                }),
            ),
            Finding::new(
                27,
                "marijuana-first increases monotonically across year quarters",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| (0..4).map(|q| first_rate_in_quarter(ds, MJ, q)).collect()),
            ),
            Finding::new(
                28,
                "cigarette-first decreases monotonically across year quarters",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| (0..4).map(|q| first_rate_in_quarter(ds, CIG, q)).collect()),
            ),
            Finding::new(
                29,
                "alcohol-first stays stable across year quarters",
                FT::MeanDifferenceTemporal,
                Check::Tolerance { alpha: 0.025 },
                Box::new(|ds| (0..4).map(|q| first_rate_in_quarter(ds, ALC, q)).collect()),
            ),
            Finding::new(
                30,
                "heavy outcomes: marijuana-first > alcohol-first",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| Ok(vec![severe_rate(ds, MJ)?, severe_rate(ds, ALC)?])),
            ),
            Finding::new(
                31,
                "heavy outcomes: marijuana-first > cigarette-first",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| Ok(vec![severe_rate(ds, MJ)?, severe_rate(ds, CIG)?])),
            ),
            Finding::new(
                32,
                "adjusted odds of heavy use favor marijuana-first",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    // ln OR of severe outcome for mj-first vs everyone else,
                    // against alcohol-first vs everyone else.
                    let first = ds.domain().index_of("first_substance")?;
                    let outcome = ds.domain().index_of("outcome")?;
                    let ln_or = |code: u32| -> Result<f64> {
                        let mut t = [0.0f64; 4];
                        for r in 0..ds.n_rows() {
                            let row = ds.row(r);
                            let e = u32::from(row.get(first) == code);
                            let o = u32::from(row.get(outcome) >= 5);
                            let idx = match (e, o) {
                                (1, 1) => 0,
                                (1, 0) => 1,
                                (0, 1) => 2,
                                _ => 3,
                            };
                            t[idx] += 1.0;
                        }
                        Ok(synrd_stats::odds_ratio_2x2(t[0], t[1], t[2], t[3]).ln())
                    };
                    Ok(vec![ln_or(MJ)?, ln_or(ALC)?])
                }),
            ),
            Finding::new(
                33,
                "marijuana-first more common among older youths",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let older = rows_where(ds, "age", |c| c >= 8)?;
                    let younger = rows_where(ds, "age", |c| c < 4)?;
                    Ok(vec![
                        prop(&older, "first_substance", MJ)?,
                        prop(&younger, "first_substance", MJ)?,
                    ])
                }),
            ),
            Finding::new(
                34,
                "severity among marijuana-first rises with age group",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    let age = ds.domain().index_of("age")?;
                    let rate = |lo: u32, hi: u32| -> Result<f64> {
                        let sub = rows_where(ds, "first_substance", |c| c == MJ)?
                            .and(age, |a| a >= lo && a < hi)?;
                        if sub.n_rows() < 10 {
                            return Ok(f64::NAN);
                        }
                        let outcome = sub.domain().index_of("outcome")?;
                        let counts = sub.value_counts(outcome)?;
                        let total: f64 = counts.iter().sum();
                        Ok(counts[5..].iter().sum::<f64>() / total)
                    };
                    Ok(vec![rate(12, 18)?, rate(0, 6)?])
                }),
            ),
            Finding::new(
                35,
                "overall marijuana-first initiation rate",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.008 },
                Box::new(|ds| Ok(vec![prop(ds, "first_substance", MJ)?])),
            ),
            Finding::new(
                36,
                "other-substance-first stays rare and stable",
                FT::MeanDifferenceTemporal,
                Check::Tolerance { alpha: 0.006 },
                Box::new(|ds| {
                    (0..4)
                        .map(|q| first_rate_in_quarter(ds, OTHER, q))
                        .collect()
                }),
            ),
            Finding::new(
                37,
                "marijuana-first trend correlates with survey year",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| {
                    let year = col(ds, "year")?;
                    let first = codes(ds, "first_substance")?;
                    let indicator: Vec<f64> = first.iter().map(|&c| f64::from(c == MJ)).collect();
                    Ok(vec![synrd_stats::pearson(&year, &indicator)?])
                }),
            ),
        ]
    }

    fn visual(&self) -> Option<VisualFinding> {
        Some(VisualFinding::fairman_figure1())
    }
}
