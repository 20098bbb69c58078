//! Saw, Chang & Chan (2018): cross-sectional and longitudinal disparities in
//! STEM career aspirations (HSLS:09). 15 findings (ids 90–104), including
//! the benchmark-wide hard finding **#96**: persistence/emergence rates by
//! SES ("31.9% and 29.9% ... than their high SES peers (45.1% and 9.0%)"),
//! a six-component conditional statistic that demands 3-way structure from
//! the synthesizer.

use crate::error::Result;
use crate::finding::{Check, Finding, FindingType as FT};
use crate::papers::helpers::*;
use crate::publication::Publication;
use synrd_data::{BenchmarkDataset, Dataset};

/// P(stem_asp_11 = 1 | stem_asp_9 = given, ses = ses_code).
fn transition_rate(ds: &Dataset, asp9: u32, ses_code: u32) -> Result<f64> {
    prop_where(
        ds,
        &[("stem_asp_9", asp9), ("ses", ses_code)],
        "stem_asp_11",
        1,
    )
}

/// The Saw et al. 2018 publication.
pub struct Saw2018;

impl Publication for Saw2018 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Saw2018
    }

    fn findings(&self) -> Vec<Finding> {
        vec![
            Finding::new(
                90,
                "boys aspire to STEM careers more than girls in 9th grade",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("sex", 0)], "stem_asp_9", 1)?,
                        prop_where(ds, &[("sex", 1)], "stem_asp_9", 1)?,
                    ])
                }),
            ),
            Finding::new(
                91,
                "the 9th-grade gender gap is large (~20 points)",
                FT::MeanDifferenceBetweenClass,
                Check::Tolerance { alpha: 0.04 },
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("sex", 0)], "stem_asp_9", 1)?
                            - prop_where(ds, &[("sex", 1)], "stem_asp_9", 1)?,
                    ])
                }),
            ),
            Finding::new(
                92,
                "high-SES students aspire more than low-SES students",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("ses", 3)], "stem_asp_9", 1)?,
                        prop_where(ds, &[("ses", 0)], "stem_asp_9", 1)?,
                    ])
                }),
            ),
            Finding::new(
                93,
                "persistence far exceeds emergence",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("stem_asp_9", 1)], "stem_asp_11", 1)?,
                        prop_where(ds, &[("stem_asp_9", 0)], "stem_asp_11", 1)?,
                    ])
                }),
            ),
            Finding::new(
                94,
                "overall aspiration declines from 9th to 11th grade",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop(ds, "stem_asp_9", 1)?,
                        prop(ds, "stem_asp_11", 1)?,
                    ])
                }),
            ),
            Finding::new(
                95,
                "boys persist in their aspirations more than girls",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("stem_asp_9", 1), ("sex", 0)], "stem_asp_11", 1)?,
                        prop_where(ds, &[("stem_asp_9", 1), ("sex", 1)], "stem_asp_11", 1)?,
                    ])
                }),
            ),
            Finding::new(
                96,
                "lower-SES groups have fewer persisters and emergers [HARD]",
                FT::MeanDifferenceBetweenClass,
                Check::Tolerance { alpha: 0.035 },
                Box::new(|ds| {
                    Ok(vec![
                        transition_rate(ds, 1, 0)?, // persist | low SES (0.299)
                        transition_rate(ds, 1, 1)?, // persist | low-middle (0.319)
                        transition_rate(ds, 1, 3)?, // persist | high (0.451)
                        transition_rate(ds, 0, 0)?, // emerge | low (0.054)
                        transition_rate(ds, 0, 1)?, // emerge | low-middle (0.061)
                        transition_rate(ds, 0, 3)?, // emerge | high (0.090)
                    ])
                }),
            ),
            Finding::new(
                97,
                "emergence rises with SES",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| Ok(vec![transition_rate(ds, 0, 3)?, transition_rate(ds, 0, 0)?])),
            ),
            Finding::new(
                98,
                "Asian students aspire more than White students",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("race", 3)], "stem_asp_9", 1)?,
                        prop_where(ds, &[("race", 0)], "stem_asp_9", 1)?,
                    ])
                }),
            ),
            Finding::new(
                99,
                "White students aspire more than Black students",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("race", 0)], "stem_asp_9", 1)?,
                        prop_where(ds, &[("race", 1)], "stem_asp_9", 1)?,
                    ])
                }),
            ),
            Finding::new(
                100,
                "math achievement predicts persistence",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    let math = ds.domain().index_of("math9")?;
                    let persisters = |math_keep: fn(u32) -> bool| -> Result<f64> {
                        let sub = rows_where(ds, "stem_asp_9", |c| c == 1)?.and(math, math_keep)?;
                        prop(&sub, "stem_asp_11", 1)
                    };
                    Ok(vec![persisters(|m| m >= 9)?, persisters(|m| m < 5)?])
                }),
            ),
            Finding::new(
                101,
                "low-SES Black/Hispanic boys trail high-SES White boys",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let race = ds.domain().index_of("race")?;
                    let ses = ds.domain().index_of("ses")?;
                    let boys = |race_keep: fn(u32) -> bool, ses_keep: fn(u32) -> bool| {
                        let sub = rows_where(ds, "sex", |c| c == 0)?
                            .and(race, race_keep)?
                            .and(ses, ses_keep)?;
                        prop(&sub, "stem_asp_9", 1)
                    };
                    Ok(vec![
                        boys(|r| r == 0, |s| s == 3)?,
                        boys(|r| r == 1 || r == 2, |s| s <= 1)?,
                    ])
                }),
            ),
            Finding::new(
                102,
                "girls emerge into STEM aspirations less than boys",
                FT::MeanDifferenceTemporal,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("stem_asp_9", 0), ("sex", 0)], "stem_asp_11", 1)?,
                        prop_where(ds, &[("stem_asp_9", 0), ("sex", 1)], "stem_asp_11", 1)?,
                    ])
                }),
            ),
            Finding::new(
                103,
                "SES and parental education move together",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| Ok(vec![pearson_named(ds, "ses", "parent_edu")?])),
            ),
            Finding::new(
                104,
                "about a fifth of 9th graders aspire to STEM careers",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.015 },
                Box::new(|ds| Ok(vec![prop(ds, "stem_asp_9", 1)?])),
            ),
        ]
    }
}
