//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples, held as its sorted distinct values
/// with the count of samples at or below each — so a CDF built from a
/// value→count map costs its distinct values, not its samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Distinct sample values, ascending in [`f64::total_cmp`] order.
    values: Vec<f64>,
    /// `cumulative[i]`: the samples at or below `values[i]`.
    cumulative: Vec<usize>,
}

impl Cdf {
    /// Build from (unsorted) samples; NaNs are dropped.
    pub fn new(samples: Vec<f64>) -> Cdf {
        Cdf::from_counts(samples.into_iter().map(|v| (v, 1)))
    }

    /// Build from `(value, count)` pairs in any order, a value's counts
    /// adding up wherever it repeats; NaNs are dropped. Answers exactly
    /// what [`Cdf::new`] answers over each value repeated `count` times.
    pub fn from_counts(counts: impl IntoIterator<Item = (f64, usize)>) -> Cdf {
        let mut pairs: Vec<(f64, usize)> = counts
            .into_iter()
            .filter(|&(v, n)| !v.is_nan() && n > 0)
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cdf = Cdf {
            values: Vec::new(),
            cumulative: Vec::new(),
        };
        for (value, n) in pairs {
            let below = cdf.len();
            if cdf
                .values
                .last()
                .is_some_and(|last| last.total_cmp(&value).is_eq())
            {
                cdf.cumulative.pop();
            } else {
                cdf.values.push(value);
            }
            cdf.cumulative.push(below + n);
        }
        cdf
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sample at 0-based `rank` of the sorted samples (`rank < len`).
    fn at_rank(&self, rank: usize) -> f64 {
        self.values[self.cumulative.partition_point(|&n| n <= rank)]
    }

    /// F(x): fraction of samples ≤ x.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let distinct = self.values.partition_point(|&v| v <= x);
        let below = distinct.checked_sub(1).map_or(0, |i| self.cumulative[i]);
        below as f64 / self.len() as f64
    }

    /// Inverse CDF: the smallest sample value with F(x) ≥ q (q in [0, 1]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.len();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as usize)
            .saturating_sub(1)
            .min(n - 1);
        self.at_rank(rank)
    }

    /// The `p`-th percentile (0..=100), linearly interpolated between the
    /// samples around its rank: bit for bit [`crate::percentile`] over the
    /// same samples (0.0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let clamped = p.clamp(0.0, 100.0) / 100.0;
        let idx = clamped * (self.len() - 1) as f64;
        let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
        if lo == hi {
            self.at_rank(lo)
        } else {
            let frac = idx - lo as f64;
            self.at_rank(lo) * (1.0 - frac) + self.at_rank(hi) * frac
        }
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest and largest samples.
    pub fn range(&self) -> (f64, f64) {
        match (self.values.first(), self.values.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(cdf.percentile(50.0), 0.0);
        assert_eq!(cdf.range(), (0.0, 0.0));
        assert!(Cdf::from_counts([(1.0, 0), (f64::NAN, 3)]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The counted form is the same CDF: whatever samples a case draws
        // (few distinct values, so values repeat), the CDF of their
        // value→count pairs — in a scrambled order, a value split over
        // several pairs — answers every method exactly as the CDF of the
        // samples and as the sorted samples read directly, and its
        // percentile as `stats::percentile`.
        #[test]
        fn from_counts_answers_exactly_as_the_samples(
            samples in proptest::collection::vec(0u64..40, 0..120),
            probes in proptest::collection::vec(0u64..4_400, 8..9),
        ) {
            let samples: Vec<f64> = samples.iter().map(|&x| x as f64 / 4.0 - 2.0).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let mut pairs: Vec<(f64, usize)> = Vec::new();
            for &x in samples.iter().rev() {
                match pairs.iter_mut().find(|(v, n)| *v == x && *n < 3) {
                    Some((_, n)) => *n += 1,
                    None => pairs.push((x, 1)),
                }
            }
            let n = sorted.len();
            let ends = (sorted.first(), sorted.last());
            for cdf in [Cdf::from_counts(pairs), Cdf::new(samples.clone())] {
                prop_assert_eq!(cdf.len(), n);
                prop_assert_eq!(cdf.is_empty(), n == 0);
                let range = (ends.0.copied().unwrap_or(0.0), ends.1.copied().unwrap_or(0.0));
                prop_assert_eq!(cdf.range(), range);
                for &probe in &probes {
                    let (q, x, p) = (probe as f64 / 4_000.0, probe as f64 / 400.0 - 3.0, probe as f64 / 40.0);
                    let rank = ((q.min(1.0) * n as f64).ceil() as usize).saturating_sub(1);
                    let quantile = sorted.get(rank.min(n.saturating_sub(1))).copied();
                    prop_assert_eq!(cdf.quantile(q).to_bits(), quantile.unwrap_or(0.0).to_bits());
                    let below = sorted.partition_point(|&v| v <= x) as f64 / n.max(1) as f64;
                    prop_assert_eq!(cdf.fraction_below(x).to_bits(), below.to_bits());
                    prop_assert_eq!(
                        cdf.percentile(p).to_bits(),
                        crate::percentile(&samples, p).to_bits()
                    );
                }
            }
        }
    }
}
