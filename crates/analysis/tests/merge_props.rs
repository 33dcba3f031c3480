//! Property tests for the streaming sketch algebra: the [`Merge`] monoid
//! laws (identity, commutativity, associativity — bit-for-bit on the
//! integer-valued metrics the scanners stream) of the summaries and of
//! every generic impl a summary's fields merge through, and the histogram
//! sketch's one-bin-width quantile error bound against the exact [`Cdf`].

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use quicert_analysis::{assert_merge_laws, Cdf, HistogramSketch, Merge, Same, StreamSummary};

/// Build a summary from integer-valued samples (what the scanners stream:
/// byte counts, round trips, chain depths).
fn summary_of(samples: &[u64]) -> StreamSummary {
    StreamSummary::of(samples.iter().map(|&x| x as f64))
}

fn sketch_of(samples: &[u64]) -> HistogramSketch {
    let mut h = HistogramSketch::new(0.0, 4_096.0, 64);
    for &x in samples {
        h.push(x as f64);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_summary_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(summary_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn histogram_sketch_merge_laws(
        xs in proptest::collection::vec(0u64..6_000, 0..40),
        ys in proptest::collection::vec(0u64..6_000, 0..40),
        zs in proptest::collection::vec(0u64..6_000, 0..40),
    ) {
        assert_merge_laws(sketch_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn sketch_quantiles_track_the_exact_cdf_within_one_bin(
        samples in proptest::collection::vec(0u64..4_000, 1..400),
        q in 0.0f64..1.0,
    ) {
        let sketch = sketch_of(&samples);
        let cdf = Cdf::new(samples.iter().map(|&x| x as f64).collect());
        let exact = cdf.quantile(q);
        let est = sketch.quantile(q);
        prop_assert!(
            (est - exact).abs() <= sketch.bin_width(),
            "q={}: sketch {} vs exact {} (bin width {})",
            q, est, exact, sketch.bin_width()
        );
        // The endpoints are exact, not just bounded.
        prop_assert_eq!(sketch.quantile(0.0), cdf.quantile(0.0));
        prop_assert_eq!(sketch.quantile(1.0), cdf.quantile(1.0));
    }

    #[test]
    fn summary_chunking_is_invariant(
        samples in proptest::collection::vec(0u64..100_000, 0..300),
        chunk in 1usize..64,
    ) {
        let whole = summary_of(&samples);
        let chunked = StreamSummary::merge_all(samples.chunks(chunk).map(summary_of));
        prop_assert_eq!(whole, chunked, "chunk size {}", chunk);
    }
}

// ------------------------------------------------------- generic impls --
//
// Each `of` folds a sample by hand, without `merge`, so the law checker's
// last law holds the generic merge to an independent whole.

fn sum_of(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

/// Signed sums, negative ones included.
fn signed_sum_of(xs: &[u64]) -> i64 {
    xs.iter().map(|&x| x as i64 - 2_500).sum()
}

/// Each sample counted into one of four slots, weighted by its value.
fn array_of(xs: &[u64]) -> [[u32; 2]; 4] {
    let mut slots = [[0; 2]; 4];
    for &x in xs {
        slots[x as usize % 4][usize::from(x % 7 == 0)] += x as u32;
    }
    slots
}

/// Three sums of three integer types.
fn tuple_of(xs: &[u64]) -> (u64, usize, i32) {
    let count = xs.iter().filter(|&&x| x % 3 == 0).count();
    let signed: i32 = xs.iter().map(|&x| x as i32 - 2_500).sum();
    (sum_of(xs), count, signed)
}

/// Samples counted per value modulo 16.
fn btree_of(xs: &[u64]) -> BTreeMap<u8, usize> {
    let mut counts = BTreeMap::new();
    for &x in xs {
        *counts.entry((x % 16) as u8).or_default() += 1;
    }
    counts
}

/// Samples summed per value modulo 16.
fn hash_of(xs: &[u64]) -> HashMap<u16, u64, RandomState> {
    let mut sums = HashMap::default();
    for &x in xs {
        *sums.entry((x % 16) as u16).or_default() += x;
    }
    sums
}

/// Samples counted per position `x / 500`: parts of different lengths.
fn vec_of(xs: &[u64]) -> Vec<usize> {
    let mut counts = Vec::new();
    for &x in xs {
        let slot = x as usize / 500;
        if counts.len() <= slot {
            counts.resize(slot + 1, 0);
        }
        counts[slot] += 1;
    }
    counts
}

/// Per value modulo 16, a count beside a value that is a function of the
/// key.
fn same_of(xs: &[u64]) -> BTreeMap<u8, (usize, Same<u64>)> {
    let mut groups: BTreeMap<u8, (usize, Same<u64>)> = BTreeMap::new();
    for &x in xs {
        let key = (x % 16) as u8;
        let (count, value) = groups.entry(key).or_insert_with(Merge::identity);
        *count += 1;
        value.set(u64::from(key) * 7);
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integer_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(sum_of, [&xs, &ys, &zs]);
        assert_merge_laws(signed_sum_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn array_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(array_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn tuple_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(tuple_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn btree_map_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(btree_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn hash_map_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(hash_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn vec_merge_laws_over_unequal_lengths(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(vec_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn same_merge_laws(
        xs in proptest::collection::vec(0u64..5_000, 0..40),
        ys in proptest::collection::vec(0u64..5_000, 0..40),
        zs in proptest::collection::vec(0u64..5_000, 0..40),
    ) {
        assert_merge_laws(same_of, [&xs, &ys, &zs]);
    }
}

#[test]
#[should_panic(expected = "a Same value differs between its parts")]
fn same_rejects_parts_that_disagree() {
    let part = |value| {
        let mut same = Same::identity();
        same.set(value);
        same
    };
    let mut merged = part(3u32);
    merged.merge(&part(4));
}
