//! Basic summary statistics.

/// Arithmetic mean (0.0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (0.0 for fewer than two values).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Mean with a 95% confidence interval half-width (normal approximation,
/// as used for the error bars of Fig 11).
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    let m = mean(values);
    if values.len() < 2 {
        return (m, 0.0);
    }
    let half = 1.96 * std_dev(values) / (values.len() as f64).sqrt();
    (m, half)
}

/// The `p`-th percentile (0..=100) using linear interpolation. NaN samples
/// are dropped (like [`crate::Cdf::new`]); an all-NaN or empty input
/// reports 0.0 rather than panicking in the sort.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let clamped = p.clamp(0.0, 100.0) / 100.0;
    let idx = clamped * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138).abs() < 0.01);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[]), 0.0);
        let (m, ci) = mean_ci95(&[]);
        assert_eq!((m, ci), (0.0, 0.0));
    }

    #[test]
    fn single_sample_inputs_are_defined() {
        // n < 2: the CI half-width must be exactly 0, never NaN.
        let (m, ci) = mean_ci95(&[7.5]);
        assert_eq!((m, ci), (7.5, 0.0));
        assert_eq!(std_dev(&[7.5]), 0.0);
        assert_eq!(percentile(&[7.5], 0.0), 7.5);
        assert_eq!(percentile(&[7.5], 100.0), 7.5);
    }

    #[test]
    fn percentile_drops_nans_instead_of_panicking() {
        assert_eq!(percentile(&[f64::NAN, 1.0, 3.0], 100.0), 3.0);
        assert_eq!(median(&[f64::NAN, 2.0]), 2.0);
        // All-NaN input degrades to the empty-input contract.
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), 0.0);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let (_, ci_small) = mean_ci95(&small);
        let (_, ci_large) = mean_ci95(&large);
        assert!(ci_large < ci_small);
    }
}
