//! Mergeable (monoid) summaries for streaming, at-scale scans.
//!
//! The materialized scan path keeps every per-record result in memory and
//! derives statistics afterwards; at a million records that design — not
//! the protocol — becomes the bottleneck. This module provides the
//! summaries a streaming path folds instead: each is a commutative monoid
//! under [`Merge`], so a scan can be split into chunks, folded on any
//! number of workers in any order, and merged into **bit-for-bit** the
//! same value a serial pass produces.
//!
//! ## Why exact moments instead of running (Welford/Chan) updates
//!
//! The textbook streaming mean (`mean += (x - mean) / n`) and its pairwise
//! merge are *not* associative in floating point: regrouping the samples
//! regroups the divisions and shifts the low bits, so worker count and
//! chunk size would leak into the result. The metrics the scanners stream
//! (byte counts, round trips, class counts, chain depths) are
//! integer-valued, and sums of integers are **exact** in an IEEE double up
//! to 2^53 — far beyond a million 100-kB chains. [`StreamSummary`]
//! therefore accumulates exact raw moments (count, Σx, Σx²) and derives
//! mean/variance on demand: the same running statistics Welford maintains,
//! but with a merge that is exactly associative *and* commutative on the
//! integer-valued data the scanners produce, which is what lets the engine
//! fold shard summaries in any order.
//!
//! ## Writing a summary
//!
//! A count summary is a struct whose fields are each a [`Merge`]: integers
//! add; arrays, tuples and `Vec`s merge element-wise (a shorter `Vec`
//! grows with identities); a `BTreeMap` or `HashMap` is the union of its
//! keys, merging the values of a key both sides hold; and a value that is
//! a function of its key (a parent certificate's key algorithm) is a
//! [`Same`]. [`impl_merge!`](crate::impl_merge) writes the struct's
//! `identity` and `merge` from an exhaustive destructure, so a field left
//! out fails to compile. Every summary's law test calls
//! [`assert_merge_laws`].
//!
//! Three summaries keep a hand-written merge: [`StreamSummary`] (float
//! min/max from ±∞), [`HistogramSketch`] (its identity adopts the other
//! side's bucket layout) and the quicreach `ScanSummary` (its callers
//! write `initial_size` as a plain `usize`).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::hash::{BuildHasher, Hash};

/// A commutative monoid: an identity element plus an associative,
/// commutative combine step.
///
/// Implementations must satisfy, bit-for-bit on scanner-produced values:
/// `identity().merge(x) == x`, `x.merge(y) == y.merge(x)`, and
/// `(x.merge(y)).merge(z) == x.merge(y.merge(z))`. The streaming engine
/// relies on these laws to fold per-chunk summaries on any worker in any
/// order; the analysis proptests pin them.
pub trait Merge: Sized {
    /// The neutral element (an empty summary).
    fn identity() -> Self;

    /// Fold `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Merge an iterator of summaries into one.
    fn merge_all(parts: impl IntoIterator<Item = Self>) -> Self {
        let mut acc = Self::identity();
        for part in parts {
            acc.merge(&part);
        }
        acc
    }
}

// ------------------------------------------------------- generic impls --

macro_rules! merge_by_adding {
    ($($int:ty),+) => {
        $(impl Merge for $int {
            fn identity() -> Self {
                0
            }

            fn merge(&mut self, other: &Self) {
                *self += *other;
            }
        })+
    };
}
merge_by_adding!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl<T: Merge, const N: usize> Merge for [T; N] {
    fn identity() -> Self {
        std::array::from_fn(|_| T::identity())
    }

    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

macro_rules! merge_tuple {
    ($($name:ident $index:tt),+) => {
        impl<$($name: Merge),+> Merge for ($($name,)+) {
            fn identity() -> Self {
                ($($name::identity(),)+)
            }

            fn merge(&mut self, other: &Self) {
                $(self.$index.merge(&other.$index);)+
            }
        }
    };
}
merge_tuple!(A 0);
merge_tuple!(A 0, B 1);
merge_tuple!(A 0, B 1, C 2);
merge_tuple!(A 0, B 1, C 2, D 3);

/// Element-wise; the shorter side grows with identities first.
impl<T: Merge> Merge for Vec<T> {
    fn identity() -> Self {
        Vec::new()
    }

    fn merge(&mut self, other: &Self) {
        if self.len() < other.len() {
            self.resize_with(other.len(), T::identity);
        }
        for (mine, theirs) in self.iter_mut().zip(other) {
            mine.merge(theirs);
        }
    }
}

/// The union of the keys; a key both sides hold merges its values.
impl<K: Ord + Clone, V: Merge> Merge for BTreeMap<K, V> {
    fn identity() -> Self {
        BTreeMap::new()
    }

    fn merge(&mut self, other: &Self) {
        for (key, theirs) in other {
            let mine = self.entry(key.clone()).or_insert_with(V::identity);
            mine.merge(theirs);
        }
    }
}

/// The union of the keys; a key both sides hold merges its values.
impl<K: Eq + Hash + Clone, V: Merge, S: BuildHasher + Default> Merge for HashMap<K, V, S> {
    fn identity() -> Self {
        HashMap::default()
    }

    fn merge(&mut self, other: &Self) {
        for (key, theirs) in other {
            let mine = self.entry(key.clone()).or_insert_with(V::identity);
            mine.merge(theirs);
        }
    }
}

/// A value that is a function of where it is kept (its map key, its
/// group), so every part that saw it saw the same one. The identity is
/// unset; a merge adopts the other side's value while unset and asserts
/// the two equal once both are set, so parts that disagree fail loudly
/// instead of keeping whichever merged first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Same<T>(Option<T>);

impl<T> Same<T> {
    /// The value, once any part has set it.
    pub fn get(&self) -> Option<&T> {
        self.0.as_ref()
    }
}

impl<T: Clone + PartialEq + Debug> Same<T> {
    /// Set the value, or assert it equals the one already set.
    pub fn set(&mut self, value: T) {
        match &self.0 {
            Some(mine) => assert_eq!(*mine, value, "a Same value differs between its parts"),
            None => self.0 = Some(value),
        }
    }
}

impl<T: Clone + PartialEq + Debug> Merge for Same<T> {
    fn identity() -> Self {
        Same(None)
    }

    fn merge(&mut self, other: &Self) {
        if let Some(theirs) = &other.0 {
            self.set(theirs.clone());
        }
    }
}

/// Implement [`Merge`] for a struct field by field: the identity is every
/// field's identity, and a merge reads the other side through an
/// exhaustive `let Struct { a, b } = other` (no `..`) and merges each
/// field into its own, so a field left out of the list fails to compile:
///
/// ```compile_fail
/// use quicert_analysis::impl_merge;
///
/// struct Tally {
///     hits: u64,
///     misses: u64,
/// }
///
/// impl_merge! { Tally { hits } }
/// ```
///
/// A field of a foreign type that cannot implement `Merge` lists that
/// type's fields in turn, merged through the same exhaustive destructure:
/// `impl_merge! { Cell { sums: FieldSizes { subject, issuer }, count } }`.
///
/// ```
/// use quicert_analysis::{impl_merge, Merge};
///
/// #[derive(Debug, PartialEq)]
/// struct Tally {
///     hits: u64,
///     by_class: [usize; 2],
/// }
///
/// impl_merge! { Tally { hits, by_class } }
///
/// let mut tally = Tally { hits: 2, by_class: [1, 1] };
/// tally.merge(&Tally { hits: 1, by_class: [0, 1] });
/// assert_eq!(tally, Tally { hits: 3, by_class: [1, 2] });
/// assert_eq!(Tally::identity(), Tally { hits: 0, by_class: [0, 0] });
/// ```
#[macro_export]
macro_rules! impl_merge {
    (@identity) => {
        $crate::Merge::identity()
    };
    (@identity $outer:ident { $($part:ident),+ }) => {
        $outer { $($part: $crate::Merge::identity()),+ }
    };
    (@merge $mine:expr, $theirs:ident) => {
        $crate::Merge::merge(&mut $mine, $theirs)
    };
    (@merge $mine:expr, $theirs:ident, $outer:ident { $($part:ident),+ }) => {{
        let $outer { $($part),+ } = $theirs;
        $($crate::Merge::merge(&mut $mine.$part, $part);)+
    }};
    ($ty:ident { $($field:ident $(: $outer:ident { $($part:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::Merge for $ty {
            fn identity() -> Self {
                $ty { $($field: $crate::impl_merge!(@identity $($outer { $($part),+ })?)),+ }
            }

            fn merge(&mut self, other: &Self) {
                let $ty { $($field),+ } = other;
                $($crate::impl_merge!(@merge self.$field, $field $(, $outer { $($part),+ })?);)+
            }
        }
    };
}

/// Check the [`Merge`] laws on a sample cut into three parts: identity on
/// both sides, commutativity, associativity, and that the merge of the
/// parts' summaries equals the summary of the whole sample. `of` folds a
/// sample into its summary. Panics, naming the law, on the first broken.
pub fn assert_merge_laws<S: Clone, T: Merge + Clone + PartialEq + Debug>(
    of: impl Fn(&[S]) -> T,
    parts: [&[S]; 3],
) {
    let merged = |mut mine: T, theirs: &T| {
        mine.merge(theirs);
        mine
    };
    let [a, b, c] = parts.map(&of);
    assert_eq!(merged(T::identity(), &a), a, "left identity");
    assert_eq!(merged(a.clone(), &T::identity()), a, "right identity");
    let ab = merged(a.clone(), &b);
    assert_eq!(ab, merged(b.clone(), &a), "commutativity");
    let ab_c = merged(ab, &c);
    assert_eq!(ab_c, merged(a, &merged(b, &c)), "associativity");
    assert_eq!(ab_c, of(&parts.concat()), "the merged parts are the whole");
}

// -------------------------------------------------------- StreamSummary --

/// Streaming count/mean/min/max (plus variance) over `f64` samples in
/// constant memory.
///
/// Accumulates exact raw moments; see the module docs for why this merges
/// bit-for-bit where a running Welford/Chan update would not. NaN samples
/// are dropped, mirroring [`crate::Cdf::new`]. Merged by hand: the float
/// min/max start at ±∞, and an empty side adopts the other whole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl StreamSummary {
    /// An empty summary.
    pub fn new() -> StreamSummary {
        StreamSummary {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Summarise a whole sample at once.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> StreamSummary {
        let mut s = StreamSummary::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Fold in one sample (NaNs are dropped).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty, like [`crate::mean`]).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Smallest sample (0.0 when empty, like [`crate::Cdf::range`]).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample variance (n−1 denominator; 0.0 for fewer than two samples,
    /// like [`crate::std_dev`]). Derived from the exact raw moments and
    /// clamped at zero against cancellation.
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation (0.0 for fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Default for StreamSummary {
    fn default() -> Self {
        StreamSummary::new()
    }
}

impl Merge for StreamSummary {
    fn identity() -> Self {
        StreamSummary::new()
    }

    fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ------------------------------------------------------ HistogramSketch --

/// A deterministic fixed-bin histogram sketch with exact quantile error
/// bounds.
///
/// Samples land in `bins` equal-width buckets over `[lo, hi)`; everything
/// below `lo` or at/above `hi` is counted in dedicated underflow/overflow
/// buckets whose quantile estimates fall back to the tracked exact
/// min/max. Two sketches over the same layout merge by bucket-wise `u64`
/// addition — exactly associative and commutative, so shard summaries can
/// be folded in any order.
///
/// **Error bound:** for any rank that lands in a regular bucket,
/// [`HistogramSketch::quantile`] returns that bucket's lower edge clamped
/// into the observed `[min, max]`, while the exact sample at the same rank
/// lies inside the bucket — so the estimate is within one
/// [`HistogramSketch::bin_width`] of the exact [`crate::Cdf`] quantile
/// (pinned by a proptest). Merged by hand: the layout-free identity adopts
/// the other side's bucket layout, and two laid-out sketches must share
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSketch {
    lo: f64,
    bin_width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    stats: StreamSummary,
}

impl HistogramSketch {
    /// A sketch over `[lo, hi)` with `bins` equal-width buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> HistogramSketch {
        assert!(hi > lo, "empty sketch range [{lo}, {hi})");
        assert!(bins > 0, "sketch needs at least one bin");
        HistogramSketch {
            lo,
            bin_width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            stats: StreamSummary::new(),
        }
    }

    /// Bucket width (the quantile error bound).
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Fold in one sample (NaNs are dropped). Panics on a layout-free
    /// sketch ([`Merge::identity`]): give it a bucket layout with
    /// [`HistogramSketch::new`] first — allowing the push would let the
    /// sample vanish in a later merge and break the identity law.
    pub fn push(&mut self, x: f64) {
        assert!(
            !self.bins.is_empty(),
            "pushing into a layout-free HistogramSketch (construct with HistogramSketch::new)"
        );
        if x.is_nan() {
            return;
        }
        self.stats.push(x);
        if x < self.lo {
            self.underflow += 1;
        } else {
            match self.bins.get_mut(((x - self.lo) / self.bin_width) as usize) {
                Some(bucket) => *bucket += 1,
                None => self.overflow += 1,
            }
        }
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether no sample has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The exact count/mean/min/max of everything folded in.
    pub fn stats(&self) -> &StreamSummary {
        &self.stats
    }

    /// Inverse CDF estimate: a value within one bucket width of the exact
    /// [`crate::Cdf::quantile`] at `q` (0.0 when empty, like the `Cdf`).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // The same rank convention as Cdf::quantile: the smallest sample
        // with F(x) >= q.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64)
            .saturating_sub(1)
            .min(total - 1);
        if rank == total - 1 {
            // The top rank is the largest sample, which is tracked exactly.
            return self.stats.max();
        }
        let mut seen = self.underflow;
        if rank < seen {
            return self.stats.min();
        }
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if rank < seen {
                let edge = self.lo + i as f64 * self.bin_width;
                // The exact sample lies inside this bucket and inside the
                // observed range; clamping tightens the estimate without
                // ever moving it further than one bucket width away.
                return edge.clamp(self.stats.min(), self.stats.max());
            }
        }
        self.stats.max()
    }

    /// Median estimate.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x`, up to one bucket of rounding (exact for
    /// `x` on a bucket edge inside `[lo, hi)`).
    ///
    /// Outside the bucketed range only the extremes are exact: below the
    /// observed minimum the answer is 0, at or above the observed maximum
    /// it is 1. In between, under/overflowed samples are resolved
    /// conservatively (underflow counts as below once `x ≥ lo`; overflow
    /// counts as above until `x ≥ max`), so for `x` between `hi` and the
    /// maximum the estimate is a lower bound.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        if x >= self.stats.max() {
            return 1.0;
        }
        if x < self.lo {
            return 0.0;
        }
        let full_buckets = (((x - self.lo) / self.bin_width) as usize).min(self.bins.len());
        let below: u64 = self.underflow + self.bins[..full_buckets].iter().sum::<u64>();
        below as f64 / total as f64
    }

    fn same_layout(&self, other: &Self) -> bool {
        self.lo == other.lo
            && self.bin_width == other.bin_width
            && self.bins.len() == other.bins.len()
    }
}

impl Merge for HistogramSketch {
    /// The identity adopts the other operand's bucket layout on merge, so
    /// one neutral element serves every layout.
    fn identity() -> Self {
        HistogramSketch {
            lo: 0.0,
            bin_width: 0.0,
            bins: Vec::new(),
            underflow: 0,
            overflow: 0,
            stats: StreamSummary::new(),
        }
    }

    fn merge(&mut self, other: &Self) {
        if other.bins.is_empty() {
            return;
        }
        if self.bins.is_empty() {
            *self = other.clone();
            return;
        }
        assert!(
            self.same_layout(other),
            "merging histogram sketches with different bucket layouts"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;

    #[test]
    fn stream_summary_matches_whole_sample_statistics() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = StreamSummary::of(samples.iter().copied());
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.mean(), crate::mean(&samples));
        assert!((s.std_dev() - crate::std_dev(&samples)).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_summary_is_defined() {
        let s = StreamSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        let mut merged = StreamSummary::identity();
        merged.merge(&s);
        assert_eq!(merged, s);
    }

    #[test]
    fn stream_summary_drops_nans() {
        let s = StreamSummary::of([1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 4.0);
    }

    #[test]
    fn merge_is_exact_on_integer_valued_samples() {
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 37) % 257) as f64).collect();
        let whole = StreamSummary::of(samples.iter().copied());
        for chunk in [1usize, 3, 64, 1000] {
            let merged = StreamSummary::merge_all(
                samples
                    .chunks(chunk)
                    .map(|c| StreamSummary::of(c.iter().copied())),
            );
            assert_eq!(whole, merged, "chunk {chunk}");
        }
    }

    #[test]
    fn sketch_counts_every_sample_once() {
        let mut h = HistogramSketch::new(0.0, 100.0, 10);
        for x in [-5.0, 0.0, 9.99, 10.0, 55.0, 99.9, 100.0, 1e9, f64::NAN] {
            h.push(x);
        }
        assert_eq!(h.count(), 8); // NaN dropped.
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2); // 100.0 and 1e9.
        assert_eq!(h.bins.iter().sum::<u64>(), 5);
    }

    #[test]
    fn sketch_quantiles_stay_within_one_bin_of_exact() {
        let samples: Vec<f64> = (0..5000).map(|i| ((i * i) % 977) as f64).collect();
        let cdf = Cdf::new(samples.clone());
        let mut h = HistogramSketch::new(0.0, 1000.0, 100);
        for &x in &samples {
            h.push(x);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = cdf.quantile(q);
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= h.bin_width(),
                "q={q}: sketch {est} vs exact {exact} (bin width {})",
                h.bin_width()
            );
        }
    }

    #[test]
    fn empty_sketch_is_defined() {
        let h = HistogramSketch::new(0.0, 10.0, 5);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.fraction_below(3.0), 0.0);
    }

    #[test]
    fn sketch_merge_is_bucketwise_and_layout_checked() {
        let samples: Vec<f64> = (0..300).map(|i| (i % 97) as f64).collect();
        let mut whole = HistogramSketch::new(0.0, 100.0, 20);
        for &x in &samples {
            whole.push(x);
        }
        let merged = HistogramSketch::merge_all(samples.chunks(7).map(|c| {
            let mut h = HistogramSketch::new(0.0, 100.0, 20);
            for &x in c {
                h.push(x);
            }
            h
        }));
        assert_eq!(whole, merged);
        // The identity is neutral on both sides.
        let mut left = HistogramSketch::identity();
        left.merge(&whole);
        assert_eq!(left, whole);
        let mut right = whole.clone();
        right.merge(&HistogramSketch::identity());
        assert_eq!(right, whole);
    }

    #[test]
    #[should_panic(expected = "layout-free")]
    fn sketch_push_rejects_the_layout_free_identity() {
        // A sample pushed into the layout-free identity would be silently
        // dropped by a later merge's emptiness check; refuse it instead so
        // the identity law can never be violated.
        HistogramSketch::identity().push(5.0);
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn sketch_merge_rejects_mismatched_layouts() {
        let mut a = HistogramSketch::new(0.0, 100.0, 10);
        a.push(1.0);
        let mut b = HistogramSketch::new(0.0, 200.0, 10);
        b.push(1.0);
        a.merge(&b);
    }

    #[test]
    fn fraction_below_is_exact_on_bucket_edges() {
        let mut h = HistogramSketch::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.push(i as f64);
        }
        assert_eq!(h.fraction_below(50.0), 0.5);
        assert_eq!(h.fraction_below(100.0), 1.0);
        assert_eq!(h.fraction_below(-1.0), 0.0);
    }

    #[test]
    fn fraction_below_counts_overflowed_samples_at_the_extremes() {
        let mut h = HistogramSketch::new(0.0, 100.0, 10);
        h.push(50.0);
        h.push(40_000.0); // overflow bucket
        assert_eq!(h.fraction_below(60.0), 0.5);
        // At/above the tracked maximum the answer is exact, overflow
        // included.
        assert_eq!(h.fraction_below(40_000.0), 1.0);
        assert_eq!(h.fraction_below(1e9), 1.0);
        // Between hi and max the overflowed sample resolves as above.
        assert_eq!(h.fraction_below(500.0), 0.5);
    }
}
