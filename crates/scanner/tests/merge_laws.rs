//! Property tests for the summaries the engine folds: the [`Merge`] monoid
//! laws (identity, commutativity, associativity) and the merge of three
//! parts equalling the summary of the whole, bit for bit — over rows a real
//! world yields (certificates, compression), or over arbitrary draws where
//! the laws are about the fold alone (quicreach, era joins, warm scans).

use std::sync::OnceLock;

use proptest::prelude::*;

use quicert_analysis::{assert_merge_laws, Merge};
use quicert_compress::Algorithm;
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::compression::{
    self, CompressionProbe, CompressionSupport, StudySummary, SyntheticCompression,
};
use quicert_scanner::https_scan::{self, CertificateSummary, HttpsObservation};
use quicert_scanner::quicreach::{
    rank_group_width, EraJoin, QuicReachResult, QuicReachSummary, WarmAggregate,
};

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

/// A result from five arbitrary draws — any class, rank, byte counts
/// and round trips, not only those a scan produces: the merge laws are
/// about the fold.
fn result_of(draw: &[u64]) -> QuicReachResult {
    let classes = [
        HandshakeClass::OneRtt,
        HandshakeClass::Retry,
        HandshakeClass::MultiRtt,
        HandshakeClass::Amplification,
        HandshakeClass::Unreachable,
    ];
    let wire = draw[2] as usize % 12_000;
    QuicReachResult {
        rank: 1 + draw[1] as usize % 2_000,
        class: classes[draw[0] as usize % 5],
        amplification: wire as f64 / 1362.0,
        wire_received: wire,
        tls_received: draw[3] as usize % 9_000,
        padding_received: 0,
        rtt_count: (draw[4] % 6) as u32,
        fault_drops: draw[4] % 3,
        fault_corruptions: 0,
        fault_duplications: 0,
        client_transmissions: 1,
        server_transmissions: 1,
        stall_ns: 0,
    }
}

fn summary_of(draws: &[u64]) -> QuicReachSummary {
    let results: Vec<_> = draws.chunks_exact(5).map(result_of).collect();
    QuicReachSummary::from_results(1362, 2_000, &results)
}

/// An era join of the services `draws` describes: classical as drawn,
/// and each later era moving every service's class and round trips by
/// a draw-dependent step, paired service for service.
fn join_of(draws: &[u64]) -> EraJoin {
    let eras: [Vec<QuicReachResult>; 3] = std::array::from_fn(|era| {
        let moved = |draw: &[u64]| {
            let mut draw = draw.to_vec();
            draw[0] += era as u64 * draw[3];
            draw[4] += era as u64;
            result_of(&draw)
        };
        draws.chunks_exact(5).map(moved).collect()
    });
    let mut join = EraJoin::identity();
    for (index, rows) in eras.iter().enumerate() {
        join.summaries[index] = QuicReachSummary::from_results(1362, 2_000, rows);
        for (classical, now) in eras[0].iter().zip(rows) {
            join.tallies[index].push(classical, now);
        }
    }
    join
}

/// A warm aggregate from ten arbitrary field values each — any values,
/// not only those a scan produces: the merge laws are about the fold.
fn warm_aggregate_of(f: &[u64]) -> WarmAggregate {
    let mut agg = WarmAggregate::identity();
    for f in f.chunks_exact(10) {
        let n = |i: usize| f[i] as usize;
        agg.total += n(0);
        agg.cold_reachable += n(1);
        agg.resumed += n(2);
        agg.resumed_over_budget += n(3);
        agg.resumed_with_cert_bytes += n(4);
        agg.cold_cert_bytes += f[5];
        agg.warm_cert_bytes += f[6];
        agg.cold_multi_rtt += n(7);
        agg.multi_rtt_saved_a_round += n(8);
        agg.multi_rtt_rtts_saved += f[9] as i64 - 500_000;
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certificate_summary_merge_laws(
        xs in proptest::collection::vec(0usize..300, 0..60),
        ys in proptest::collection::vec(0usize..300, 0..60),
        zs in proptest::collection::vec(0usize..300, 0..60),
    ) {
        assert_merge_laws(certificates_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn compression_support_merge_laws(
        xs in proptest::collection::vec(0usize..1_000, 0..40),
        ys in proptest::collection::vec(0usize..1_000, 0..40),
        zs in proptest::collection::vec(0usize..1_000, 0..40),
    ) {
        assert_merge_laws(support_of, [&xs, &ys, &zs]);
    }

    #[test]
    fn study_summary_merge_laws(
        xs in proptest::collection::vec(0usize..1_000, 0..40),
        ys in proptest::collection::vec(0usize..1_000, 0..40),
        zs in proptest::collection::vec(0usize..1_000, 0..40),
    ) {
        assert_merge_laws(study_of, [&xs, &ys, &zs]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quicreach_summary_merge_laws(
        xs in proptest::collection::vec(0u64..1_000_000, 0..40),
        ys in proptest::collection::vec(0u64..1_000_000, 0..40),
        zs in proptest::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let cut = |v: &Vec<u64>| v.len() / 5 * 5;
        let parts = [&xs[..cut(&xs)], &ys[..cut(&ys)], &zs[..cut(&zs)]];
        assert_merge_laws(summary_of, parts);
    }

    #[test]
    fn era_join_merge_laws(
        xs in proptest::collection::vec(0u64..1_000_000, 0..40),
        ys in proptest::collection::vec(0u64..1_000_000, 0..40),
        zs in proptest::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let cut = |v: &Vec<u64>| v.len() / 5 * 5;
        let parts = [&xs[..cut(&xs)], &ys[..cut(&ys)], &zs[..cut(&zs)]];
        assert_merge_laws(join_of, parts);
    }

    #[test]
    fn warm_aggregate_merge_laws(
        xs in proptest::collection::vec(0u64..1_000_000, 10..11),
        ys in proptest::collection::vec(0u64..1_000_000, 10..11),
        zs in proptest::collection::vec(0u64..1_000_000, 10..11),
    ) {
        assert_merge_laws(warm_aggregate_of, [&xs, &ys, &zs]);
    }
}
