//! Pierce & Quiroz (2019): who matters most? Social support, social strain,
//! and emotions (ACL). 14 findings (ids 76–89) built around two regressions —
//! positive emotions on the three support scales, negative emotions on the
//! three strain scales — with income/education/age controls, mirroring the
//! paper's mixed-effects models (approximated by OLS with wave controls; see
//! DESIGN.md §3).

use crate::error::Result;
use crate::finding::{Check, Finding, FindingType as FT};
use crate::papers::helpers::*;
use crate::publication::Publication;
use synrd_data::{BenchmarkDataset, Dataset};
use synrd_stats::LinearFit;

/// pos_emotions ~ spouse_support + child_support + friend_support + controls.
fn positive_model(ds: &Dataset) -> Result<LinearFit> {
    ols_named(
        ds,
        "pos_emotions",
        &[
            "spouse_support",
            "child_support",
            "friend_support",
            "income",
            "education",
            "age",
        ],
    )
}

/// neg_emotions ~ spouse_strain + child_strain + friend_strain + controls.
fn negative_model(ds: &Dataset) -> Result<LinearFit> {
    ols_named(
        ds,
        "neg_emotions",
        &[
            "spouse_strain",
            "child_strain",
            "friend_strain",
            "income",
            "education",
            "age",
        ],
    )
}

/// The Pierce & Quiroz 2019 publication.
pub struct Pierce2019;

impl Publication for Pierce2019 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Pierce2019
    }

    fn findings(&self) -> Vec<Finding> {
        vec![
            Finding::new(
                76,
                "spousal support increases positive emotions",
                FT::FixedCoefficientSign,
                Check::Sign,
                Box::new(|ds| Ok(vec![positive_model(ds)?.coefficients[1]])),
            ),
            Finding::new(
                77,
                "spousal strain increases negative emotions",
                FT::CoefficientDifference,
                Check::Sign,
                Box::new(|ds| Ok(vec![negative_model(ds)?.coefficients[1]])),
            ),
            Finding::new(
                78,
                "child-based strain increases negative emotions",
                FT::CoefficientDifference,
                Check::Sign,
                Box::new(|ds| Ok(vec![negative_model(ds)?.coefficients[2]])),
            ),
            Finding::new(
                79,
                "spousal support outweighs friend support",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    let fit = positive_model(ds)?;
                    Ok(vec![fit.coefficients[1], fit.coefficients[3]])
                }),
            ),
            Finding::new(
                80,
                "spousal support outweighs child support",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    let fit = positive_model(ds)?;
                    Ok(vec![fit.coefficients[1], fit.coefficients[2]])
                }),
            ),
            Finding::new(
                81,
                "spousal strain outweighs child strain",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    let fit = negative_model(ds)?;
                    Ok(vec![fit.coefficients[1], fit.coefficients[2]])
                }),
            ),
            Finding::new(
                82,
                "child strain outweighs friend strain",
                FT::CoefficientDifference,
                Check::Order,
                Box::new(|ds| {
                    let fit = negative_model(ds)?;
                    Ok(vec![fit.coefficients[2], fit.coefficients[3]])
                }),
            ),
            Finding::new(
                83,
                "friend strain has no reliable effect",
                FT::CoefficientDifference,
                Check::Tolerance { alpha: 0.06 },
                Box::new(|ds| Ok(vec![negative_model(ds)?.coefficients[3]])),
            ),
            Finding::new(
                84,
                "positive emotions correlate with spousal support",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| Ok(vec![pearson_named(ds, "pos_emotions", "spouse_support")?])),
            ),
            Finding::new(
                85,
                "negative emotions correlate with spousal strain",
                FT::CorrelationPearson,
                Check::Sign,
                Box::new(|ds| Ok(vec![pearson_named(ds, "neg_emotions", "spouse_strain")?])),
            ),
            Finding::new(
                86,
                "high spousal support raises positive emotions",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let hi = rows_where(ds, "spouse_support", |c| c >= 5)?;
                    let lo = rows_where(ds, "spouse_support", |c| c < 3)?;
                    Ok(vec![mean(&hi, "pos_emotions")?, mean(&lo, "pos_emotions")?])
                }),
            ),
            Finding::new(
                87,
                "high spousal strain raises negative emotions",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let hi = rows_where(ds, "spouse_strain", |c| c >= 5)?;
                    let lo = rows_where(ds, "spouse_strain", |c| c < 3)?;
                    Ok(vec![mean(&hi, "neg_emotions")?, mean(&lo, "neg_emotions")?])
                }),
            ),
            Finding::new(
                88,
                "spousal support effect survives the controls",
                FT::CoefficientDifference,
                Check::Sign,
                Box::new(|ds| Ok(vec![positive_model(ds)?.coefficients[1]])),
            ),
            Finding::new(
                89,
                "high friend support raises positive emotions",
                FT::MeanDifferenceBetweenClass,
                Check::Order,
                Box::new(|ds| {
                    let hi = rows_where(ds, "friend_support", |c| c >= 5)?;
                    let lo = rows_where(ds, "friend_support", |c| c < 3)?;
                    Ok(vec![mean(&hi, "pos_emotions")?, mean(&lo, "pos_emotions")?])
                }),
            ),
        ]
    }
}
