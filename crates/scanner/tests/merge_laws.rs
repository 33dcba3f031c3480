//! Property tests for the certificate and compression summaries the engine
//! folds: the [`Merge`] monoid laws (identity, commutativity, associativity)
//! and the merge of three parts equalling the summary of the whole — bit
//! for bit, over rows a real world yields, partitioned any way a case draws.

use std::sync::OnceLock;

use proptest::prelude::*;

use quicert_analysis::Merge;
use quicert_compress::Algorithm;
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_scanner::compression::{
    self, CompressionProbe, CompressionSupport, StudySummary, SyntheticCompression,
};
use quicert_scanner::https_scan::{self, CertificateSummary, HttpsObservation};
use quicert_scanner::quicreach::rank_group_width;

/// What the summaries fold, per record of one small world.
struct Rows {
    domains: usize,
    observed: Vec<(DomainRecord, Option<HttpsObservation>)>,
    probed: Vec<[CompressionProbe; 3]>,
    studied: Vec<SyntheticCompression>,
}

fn rows() -> &'static Rows {
    static ROWS: OnceLock<Rows> = OnceLock::new();
    ROWS.get_or_init(|| {
        let world = World::streaming(WorldConfig {
            domains: 300,
            seed: 0x3E26,
        });
        let records = world.domain_chunk(1, world.config.domains);
        let observe = |r: &DomainRecord| (r.clone(), https_scan::observe(&world, r));
        let studied = records
            .iter()
            .filter(|r| compression::in_study_sample(r, 3))
            .filter_map(|r| {
                compression::study(&world, r, Algorithm::Brotli, CertificateEra::Hybrid)
            });
        // Zlib and zstd are rare (Meta's services offer all three): add
        // the first two such services of a larger population, so every
        // algorithm has ratios to merge.
        let larger = World::streaming(WorldConfig {
            domains: 40_000,
            seed: 0x3E26,
        });
        let mut services = Vec::new();
        larger.quic_chunk_into(1, 40_000, &mut services);
        let all_three = services.iter().filter(|r| {
            let offered = &r.quic.as_ref().expect("a QUIC service").compression_support;
            offered.len() == Algorithm::ALL.len()
        });
        let mut probed: Vec<_> = records
            .iter()
            .filter_map(|r| compression::probe_row(&world, r))
            .collect();
        probed.extend(
            all_three
                .take(2)
                .filter_map(|r| compression::probe_row(&larger, r)),
        );
        Rows {
            domains: world.config.domains,
            observed: records.iter().map(observe).collect(),
            probed,
            studied: studied.collect(),
        }
    })
}

#[test]
fn every_algorithm_has_ratios_to_merge() {
    let support = support_of(&(0..rows().probed.len()).collect::<Vec<_>>());
    for (algorithm, lengths) in Algorithm::ALL.iter().zip(&support.ratios) {
        assert!(!lengths.is_empty(), "{algorithm}");
    }
}

fn certificates_of(picks: &[usize]) -> CertificateSummary {
    let rows = rows();
    let mut summary = CertificateSummary::seeded();
    for &i in picks {
        let (record, observation) = &rows.observed[i % rows.observed.len()];
        summary.push(record, observation.as_ref(), rank_group_width(rows.domains));
    }
    summary
}

fn support_of(picks: &[usize]) -> CompressionSupport {
    let rows = &rows().probed;
    let mut support = CompressionSupport::identity();
    for &i in picks {
        support.push(&rows[i % rows.len()]);
    }
    support
}

fn study_of(picks: &[usize]) -> StudySummary {
    let rows = &rows().studied;
    let mut study = StudySummary::identity();
    for &i in picks {
        study.push(&rows[i % rows.len()]);
    }
    study
}

/// The monoid laws of one [`Merge`] summary, plus the merge of three
/// parts equalling the summary of the whole.
fn assert_merge_laws<S: Merge + Clone + PartialEq + std::fmt::Debug>(
    of: impl Fn(&[usize]) -> S,
    parts: [&[usize]; 3],
) -> Result<(), TestCaseError> {
    let [a, b, c] = parts.map(&of);
    // Identity on both sides.
    let mut left = S::identity();
    left.merge(&a);
    prop_assert_eq!(&left, &a);
    let mut right = a.clone();
    right.merge(&S::identity());
    prop_assert_eq!(&right, &a);
    // Commutativity.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    prop_assert_eq!(&ab, &ba);
    // Associativity.
    let mut ab_c = ab;
    ab_c.merge(&c);
    let mut bc = b;
    bc.merge(&c);
    let mut a_bc = a;
    a_bc.merge(&bc);
    prop_assert_eq!(&ab_c, &a_bc);
    // And the merge is the summary of the whole.
    prop_assert_eq!(ab_c, of(&parts.concat()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certificate_summary_merge_laws(
        xs in proptest::collection::vec(0usize..300, 0..60),
        ys in proptest::collection::vec(0usize..300, 0..60),
        zs in proptest::collection::vec(0usize..300, 0..60),
    ) {
        assert_merge_laws(certificates_of, [&xs, &ys, &zs])?;
    }

    #[test]
    fn compression_support_merge_laws(
        xs in proptest::collection::vec(0usize..1_000, 0..40),
        ys in proptest::collection::vec(0usize..1_000, 0..40),
        zs in proptest::collection::vec(0usize..1_000, 0..40),
    ) {
        assert_merge_laws(support_of, [&xs, &ys, &zs])?;
    }

    #[test]
    fn study_summary_merge_laws(
        xs in proptest::collection::vec(0usize..1_000, 0..40),
        ys in proptest::collection::vec(0usize..1_000, 0..40),
        zs in proptest::collection::vec(0usize..1_000, 0..40),
    ) {
        assert_merge_laws(study_of, [&xs, &ys, &zs])?;
    }
}
