//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from (unsorted) samples; NaNs are dropped.
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples ≤ x.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample value with F(x) ≥ q (q in [0, 1]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest and largest samples.
    pub fn range(&self) -> (f64, f64) {
        match (self.sorted.first(), self.sorted.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_below_is_monotone_and_exact() {
        let cdf = Cdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert_eq!(cdf.fraction_below(1.0), 0.25);
        assert_eq!(cdf.fraction_below(2.0), 0.75);
        assert_eq!(cdf.fraction_below(3.0), 1.0);
        assert_eq!(cdf.fraction_below(99.0), 1.0);
    }

    #[test]
    fn quantiles_hit_samples() {
        let cdf = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.01), 1.0);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(0.99), 99.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
    }

    #[test]
    fn nan_samples_are_dropped() {
        let cdf = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_below(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), 0.0);
        assert_eq!(cdf.range(), (0.0, 0.0));
    }
}
