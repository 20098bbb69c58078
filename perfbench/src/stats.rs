//! Order statistics used by every reported timing.

/// Percentile levels a tail is reported at, highest first. Capped at p99 so
/// the reported level stays put when a faster build completes more
/// operations in the same run length.
const TAIL_LEVELS: [f64; 3] = [99.0, 90.0, 50.0];

/// Nearest-rank percentile of `values` (`level` in 0..=100). `NaN` when empty.
pub fn percentile(values: &[f64], level: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((level / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The tail of a latency sample: the highest level of [`TAIL_LEVELS`] that
/// leaves at least ten samples above it, with its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level, e.g. `99.0`.
    pub level: f64,
    /// Value at that level (`NaN` when no level qualifies).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub count: usize,
}

/// The highest level of [`TAIL_LEVELS`] that leaves at least ten of `count`
/// samples above it.
pub fn tail_level(count: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| samples_beyond(count, level) >= 10)
}

/// The tail of `values` at a level chosen beforehand (see [`tail_level`]),
/// so that runs completing different numbers of operations report the same
/// percentile.
pub fn tail_at(values: &[f64], level: Option<f64>) -> Tail {
    let count = values.len();
    match level {
        Some(level) => Tail {
            level,
            value: percentile(values, level),
            count,
        },
        None => Tail {
            level: f64::NAN,
            value: f64::NAN,
            count,
        },
    }
}

/// Samples strictly above the nearest-rank `level` percentile of `count`.
fn samples_beyond(count: usize, level: f64) -> usize {
    let rank = ((level / 100.0) * count as f64).ceil() as usize;
    count.saturating_sub(rank.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tail(values: &[f64]) -> Tail {
        tail_at(values, tail_level(values.len()))
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_is_highest_level_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                level: 99.0,
                value: 990.0,
                count: 1000
            }
        );
        // 999 samples: p99 leaves 9 above it, so the rule falls back to p90.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.level, t.value, t.count), (90.0, 900.0, 999));
        // 100 samples: p90 leaves exactly 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).level, 90.0);
        // 20 samples: only the median qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&v).level, tail(&v).value), (50.0, 10.0));
        // Too few for any level.
        let t = tail(&[1.0; 19]);
        assert!(t.level.is_nan() && t.value.is_nan());
        assert_eq!(t.count, 19);
        // A level fixed from a smaller count still has ten samples beyond it.
        let v: Vec<f64> = (1..=1500).map(f64::from).collect();
        let t = tail_at(&v, tail_level(999));
        assert_eq!((t.level, t.value, t.count), (90.0, 1350.0, 1500));
    }
}
