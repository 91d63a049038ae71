//! Empirical quantile estimation.
//!
//! Uses the linear-interpolation estimator (R's "type 7", the default in
//! most statistical software): for a sorted sample `x[0..n]` and
//! probability `p`, the estimate interpolates between the order statistics
//! bracketing rank `p * (n - 1)`.

/// Estimates the `p`-quantile of an already **sorted** slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use treadmill_stats::quantile::quantile_of_sorted;
///
/// let data = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(quantile_of_sorted(&data, 0.0), 10.0);
/// assert_eq!(quantile_of_sorted(&data, 0.5), 25.0);
/// assert_eq!(quantile_of_sorted(&data, 1.0), 40.0);
/// ```
// floor/ceil of `p * (n-1)` fit in usize by construction (p ≤ 1).
#[allow(clippy::cast_possible_truncation)]
pub fn quantile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "quantile probability {p} outside [0, 1]");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Sorts a copy of `samples` and estimates the `p`-quantile.
///
/// Prefer [`quantile_of_sorted`] inside loops to avoid repeated sorting.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_of_sorted(&sorted, p)
}

/// Estimates several quantiles of one sample with a single sort.
///
/// # Panics
///
/// Panics if `samples` is empty or any probability is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use treadmill_stats::quantile::quantiles;
///
/// let data: Vec<f64> = (1..=100).map(f64::from).collect();
/// let qs = quantiles(&data, &[0.5, 0.99]);
/// assert!((qs[0] - 50.5).abs() < 1e-9);
/// assert!((qs[1] - 99.01).abs() < 1e-9);
/// ```
pub fn quantiles(samples: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    ps.iter().map(|&p| quantile_of_sorted(&sorted, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_element() {
        assert_eq!(quantile_of_sorted(&[42.0], 0.0), 42.0);
        assert_eq!(quantile_of_sorted(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let data = [0.0, 10.0];
        assert_eq!(quantile_of_sorted(&data, 0.25), 2.5);
        assert_eq!(quantile_of_sorted(&data, 0.75), 7.5);
    }

    #[test]
    fn unsorted_helper_sorts() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn matches_known_percentiles() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&data, 0.95) - 950.05).abs() < 1e-9);
        assert!((quantile(&data, 0.999) - 999.001).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        quantile_of_sorted(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_p_panics() {
        quantile_of_sorted(&[1.0], 1.5);
    }

    proptest! {
        #[test]
        fn quantile_is_monotone_in_p(
            mut data in prop::collection::vec(-1e6f64..1e6, 1..100),
            p1 in 0.0f64..1.0,
            p2 in 0.0f64..1.0,
        ) {
            data.sort_by(f64::total_cmp);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(quantile_of_sorted(&data, lo) <= quantile_of_sorted(&data, hi) + 1e-9);
        }

        #[test]
        fn quantile_within_range(
            mut data in prop::collection::vec(-1e6f64..1e6, 1..100),
            p in 0.0f64..=1.0,
        ) {
            data.sort_by(f64::total_cmp);
            let q = quantile_of_sorted(&data, p);
            prop_assert!(q >= data[0] - 1e-9);
            prop_assert!(q <= data[data.len() - 1] + 1e-9);
        }

    }
}
