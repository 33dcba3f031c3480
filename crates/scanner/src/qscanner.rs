//! Certificate collection over QUIC (QScanner, §3.2) and the
//! QUIC-vs-HTTPS consistency check.

use quicert_analysis::{impl_merge, Merge};
use quicert_pki::{CertificateEra, DomainRecord, World};

use crate::https_scan::ChainSummary;

/// Per-service result of the QUIC certificate fetch.
#[derive(Debug, Clone)]
pub struct QuicCertObservation {
    /// Service rank.
    pub rank: usize,
    /// The chain served over QUIC.
    pub summary: ChainSummary,
    /// Whether it matches the chain seen over HTTPS.
    pub matches_https: bool,
    /// Why it differs, when it does.
    pub(crate) difference: Option<CertDifference>,
}

/// Why a QUIC chain differed from the HTTPS chain (§3.2: 2.83% rotations,
/// 0.47% other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CertDifference {
    /// Rotated between the two scans.
    Rotation,
    /// Genuinely different deployment.
    Other,
}

/// Consistency summary across all QUIC services: four counts, so [`Merge`]
/// is exact and a pumped pass folds the serial report bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Services compared.
    pub total: usize,
    /// Identical chains.
    pub same: usize,
    /// Differences attributed to rotation.
    pub rotated: usize,
    /// Differences with other causes.
    pub other: usize,
}

impl ConsistencyReport {
    /// Fraction of services with identical chains (the paper's 96.7%).
    pub fn same_rate(&self) -> f64 {
        self.same as f64 / self.total.max(1) as f64
    }

    /// Fold one service's observation in.
    pub fn push(&mut self, obs: &QuicCertObservation) {
        self.total += 1;
        match obs.difference {
            None => self.same += 1,
            Some(CertDifference::Rotation) => self.rotated += 1,
            Some(CertDifference::Other) => self.other += 1,
        }
    }
}

impl_merge! { ConsistencyReport { total, same, rotated, other } }

/// Fetch the certificate chain of one QUIC service.
pub fn fetch(world: &World, record: &DomainRecord) -> Option<QuicCertObservation> {
    let quic = record.quic.as_ref()?;
    let chain = world.quic_chain_era(record, CertificateEra::Classical)?;
    let https_chain = world.https_chain_era(record, CertificateEra::Classical)?;
    let matches_https = chain.leaf.der() == https_chain.leaf.der();
    // A small residue differs for reasons other than rotation (0.47% in the
    // paper); we derive it deterministically from the domain seed.
    let other_diff = !quic.rotated_cert && record.seed % 10_000 < 47;
    let difference = if quic.rotated_cert {
        Some(CertDifference::Rotation)
    } else if other_diff {
        Some(CertDifference::Other)
    } else {
        None
    };
    Some(QuicCertObservation {
        rank: record.rank,
        summary: ChainSummary::of(&chain, quic.chain_id),
        matches_https: matches_https && difference.is_none(),
        difference,
    })
}

/// Fetch all QUIC chains of a world and compute the consistency report: a
/// serial [`fetch`] per QUIC service of the population derived as one
/// chunk, each folded in with [`ConsistencyReport::push`] — the pump-free
/// reference.
pub fn scan(world: &World) -> (Vec<QuicCertObservation>, ConsistencyReport) {
    let records = world.domain_chunk(1, world.config.domains);
    let services = records.iter().filter(|record| record.has_quic());
    let observations: Vec<_> = services.filter_map(|record| fetch(world, record)).collect();
    let mut report = ConsistencyReport::identity();
    for obs in &observations {
        report.push(obs);
    }
    (observations, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quicert_analysis::assert_merge_laws;
    use quicert_pki::WorldConfig;

    /// Reports from four arbitrary counts each — any values, not only
    /// those a scan produces: the merge laws are about the fold.
    fn report_of(f: &[u64]) -> ConsistencyReport {
        let mut report = ConsistencyReport::identity();
        for counts in f.chunks_exact(4) {
            let n = |i: usize| counts[i] as usize;
            report.total += n(0);
            report.same += n(1);
            report.rotated += n(2);
            report.other += n(3);
        }
        report
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn consistency_report_merge_laws(
            xs in proptest::collection::vec(0u64..1_000_000, 4..5),
            ys in proptest::collection::vec(0u64..1_000_000, 4..5),
            zs in proptest::collection::vec(0u64..1_000_000, 4..5),
        ) {
            assert_merge_laws(report_of, [&xs, &ys, &zs]);
        }
    }

    #[test]
    fn consistency_matches_section_3_2() {
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 20_000,
            seed: 55,
        });
        let (observations, report) = scan(&world);
        assert_eq!(report.total, observations.len());
        assert_eq!(report.total, report.same + report.rotated + report.other);
        // Paper: 96.7% identical, ~2.8% rotation, ~0.5% other.
        assert!(
            (report.same_rate() - 0.967).abs() < 0.015,
            "{}",
            report.same_rate()
        );
        let rot_rate = report.rotated as f64 / report.total as f64;
        assert!((rot_rate - 0.028).abs() < 0.01, "{rot_rate}");
        let other_rate = report.other as f64 / report.total as f64;
        assert!(other_rate < 0.012, "{other_rate}");
    }

    #[test]
    fn rotated_chains_really_differ() {
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 20_000,
            seed: 56,
        });
        let (observations, _) = scan(&world);
        for obs in &observations {
            if obs.difference == Some(CertDifference::Rotation) {
                assert!(!obs.matches_https);
            }
        }
        assert!(observations.iter().any(|o| o.matches_https));
    }
}
