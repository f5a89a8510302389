//! Order statistics: the estimators every reported figure goes through.
//!
//! Timings are kept as integer nanoseconds so that self times computed as
//! differences of medians add back up to the top boundary exactly.

/// Lower median of integer samples (the middle element of the sorted
/// samples, or the lower of the two middle ones); `0` for no samples.
#[must_use]
pub fn median_ns(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

/// Nearest-rank percentile `p` in `(0, 100]` of integer samples: the
/// smallest sample with at least `p` % of the samples at or below it;
/// `0` for no samples.
#[must_use]
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of real values (mean of the two middle values for an even
/// count); `NaN` for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value of a robust straight line through `(steal share, value)`
/// points at zero steal: a Theil–Sen line, whose slope is the median of
/// the slopes between every two points at least a tick of steal apart and
/// whose intercept is the median of `value - slope * steal`. Hypervisor
/// steal slows a window of the timed phase roughly in proportion to the
/// share stolen, so this reads the program's own speed even from a run
/// with few quiet windows, and is the plain median when no window lost
/// anything. `NaN` for no points.
#[must_use]
pub fn at_zero_steal(points: &[(f64, f64)]) -> f64 {
    let mut slopes = Vec::new();
    for (i, &(x0, y0)) in points.iter().enumerate() {
        for &(x1, y1) in &points[i + 1..] {
            if (x1 - x0).abs() >= MIN_STEAL_STEP {
                slopes.push((y1 - y0) / (x1 - x0));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median(&slopes)
    };
    let residuals: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    median(&residuals)
}

/// Steal shares closer than this are treated as equal when fitting
/// [`at_zero_steal`] (one clock tick of a 250 ms window on two CPUs is
/// 0.02).
const MIN_STEAL_STEP: f64 = 0.01;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_pinned_on_fixed_inputs() {
        assert_eq!(median_ns(&[]), 0);
        assert_eq!(median_ns(&[7]), 7);
        assert_eq!(median_ns(&[9, 1, 5]), 5);
        // Even count: the lower of the two middle samples.
        assert_eq!(median_ns(&[4, 1, 3, 2]), 2);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_is_pinned_on_fixed_inputs() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&samples, 99.0), 990);
        assert_eq!(percentile_ns(&samples, 50.0), 500);
        assert_eq!(percentile_ns(&samples, 100.0), 1000);
        // Fewer than 100 samples: p99 is the maximum.
        assert_eq!(percentile_ns(&[5, 3, 8, 1], 99.0), 8);
        assert_eq!(percentile_ns(&[], 99.0), 0);
    }

    #[test]
    fn zero_steal_value_is_pinned_on_fixed_inputs() {
        // On the line y = 40 - 100 x, with one window far off it.
        let points = [
            (0.0, 40.0),
            (0.1, 30.0),
            (0.2, 20.0),
            (0.3, 10.0),
            (0.1, 90.0),
        ];
        assert!((at_zero_steal(&points) - 40.0).abs() < 1e-9);
        // No steal at all: the plain median.
        assert_eq!(at_zero_steal(&[(0.0, 3.0), (0.0, 1.0), (0.0, 2.0)]), 2.0);
        assert!(at_zero_steal(&[]).is_nan());
    }
}
