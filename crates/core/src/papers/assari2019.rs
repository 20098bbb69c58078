//! Assari & Bazargan (2019): baseline obesity and 25-year cerebrovascular
//! mortality, with race-specific effects (ACL study). 18 findings, including
//! the benchmark-wide hard finding **#4** ("people had 12.53 years of
//! schooling at baseline, 95% CI 12.34–12.73") whose tolerance band is the
//! CI half-width over a 21-level variable.

use crate::finding::{Check, Finding, FindingType as FT};
use crate::papers::helpers::*;
use crate::publication::Publication;
use synrd_data::BenchmarkDataset;

/// The Assari & Bazargan 2019 publication.
pub struct Assari2019;

impl Publication for Assari2019 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Assari2019
    }

    fn findings(&self) -> Vec<Finding> {
        vec![
            Finding::new(
                1,
                "share of women in the sample",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.05 },
                Box::new(|ds| Ok(vec![prop(ds, "sex", 1)?])),
            ),
            Finding::new(
                2,
                "mean baseline age",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 2.5 },
                Box::new(|ds| {
                    let idx = ds.domain().index_of("age")?;
                    Ok(vec![ds.mean_of(idx)?])
                }),
            ),
            Finding::new(
                3,
                "baseline obesity prevalence",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.04 },
                Box::new(|ds| Ok(vec![prop(ds, "obesity", 1)?])),
            ),
            Finding::new(
                4,
                "mean years of schooling 12.53 (95% CI 12.34-12.73) [HARD]",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.098 },
                Box::new(|ds| {
                    let idx = ds.domain().index_of("education")?;
                    Ok(vec![ds.mean_of(idx)?])
                }),
            ),
            Finding::new(
                5,
                "obesity not associated with cerebrovascular death overall",
                FT::CorrelationPearson,
                Check::Tolerance { alpha: 0.04 },
                Box::new(|ds| Ok(vec![pearson_named(ds, "obesity", "cerebro_death")?])),
            ),
            Finding::new(
                6,
                "obesity-death association stronger for Black than White",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        pearson_where(ds, &[("race", 1)], "obesity", "cerebro_death")?,
                        pearson_where(ds, &[("race", 0)], "obesity", "cerebro_death")?,
                    ])
                }),
            ),
            Finding::new(
                7,
                "obesity predicts death among Black respondents (adjusted)",
                FT::FixedCoefficientSign,
                Check::Sign,
                Box::new(|ds| {
                    // Multivariable model within the Black subsample, as in
                    // the paper's race-specific analysis: obesity coefficient
                    // adjusted for age and smoking.
                    let black = rows_where(ds, "race", |c| c == 1)?;
                    if black.n_rows() < 50 {
                        return Ok(vec![f64::NAN]);
                    }
                    let fit =
                        logistic_named(&black, "cerebro_death", &["obesity", "age", "smoking"])?;
                    Ok(vec![fit.coefficients[1]])
                }),
            ),
            Finding::new(
                8,
                "obesity odds ratio larger for Black than White",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    let black = rows_where(ds, "race", |c| c == 1)?;
                    let white = rows_where(ds, "race", |c| c == 0)?;
                    Ok(vec![
                        log_odds_ratio(&black, "obesity", "cerebro_death")?,
                        log_odds_ratio(&white, "obesity", "cerebro_death")?,
                    ])
                }),
            ),
            Finding::new(
                9,
                "death rises with age",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let older = rows_where(ds, "age", |c| c >= 11)?;
                    let younger = rows_where(ds, "age", |c| c < 6)?;
                    Ok(vec![
                        prop(&older, "cerebro_death", 1)?,
                        prop(&younger, "cerebro_death", 1)?,
                    ])
                }),
            ),
            Finding::new(
                10,
                "death higher among smokers",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("smoking", 1)], "cerebro_death", 1)?,
                        prop_where(ds, &[("smoking", 0)], "cerebro_death", 1)?,
                    ])
                }),
            ),
            Finding::new(
                11,
                "death higher with hypertension",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        prop_where(ds, &[("hypertension", 1)], "cerebro_death", 1)?,
                        prop_where(ds, &[("hypertension", 0)], "cerebro_death", 1)?,
                    ])
                }),
            ),
            Finding::new(
                12,
                "education is protective for death",
                FT::FixedCoefficientSign,
                Check::Sign,
                Box::new(|ds| Ok(vec![pearson_named(ds, "education", "cerebro_death")?])),
            ),
            Finding::new(
                13,
                "Black respondents report lower income",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        mean_where(ds, &[("race", 1)], "income")?,
                        mean_where(ds, &[("race", 0)], "income")?,
                    ])
                }),
            ),
            Finding::new(
                14,
                "Black respondents report fewer education years",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    Ok(vec![
                        mean_where(ds, &[("race", 1)], "education")?,
                        mean_where(ds, &[("race", 0)], "education")?,
                    ])
                }),
            ),
            Finding::new(
                15,
                "chronic conditions track worse self-rated health",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| {
                    Ok(vec![pearson_named(
                        ds,
                        "chronic_conditions",
                        "self_rated_health",
                    )?])
                }),
            ),
            Finding::new(
                16,
                "depression higher with multiple chronic conditions",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let many = rows_where(ds, "chronic_conditions", |c| c >= 2)?;
                    let few = rows_where(ds, "chronic_conditions", |c| c < 2)?;
                    Ok(vec![
                        prop(&many, "depression", 1)?,
                        prop(&few, "depression", 1)?,
                    ])
                }),
            ),
            Finding::new(
                17,
                "cerebrovascular death rate",
                FT::DescriptiveStatistics,
                Check::Tolerance { alpha: 0.012 },
                Box::new(|ds| Ok(vec![prop(ds, "cerebro_death", 1)?])),
            ),
            Finding::new(
                18,
                "chronic conditions accumulate with age",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| Ok(vec![pearson_named(ds, "age", "chronic_conditions")?])),
            ),
        ]
    }
}
