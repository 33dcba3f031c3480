//! Post-quantum certificate-era experiments: what the paper's measurements
//! look like after the PKI migrates to ML-DSA / hybrid chains.
//!
//! Three views, all fed from the engine's cached artifacts:
//!
//! * [`era_matrix`] — handshake classes per `(era, profile)` at the default
//!   Initial size, with the 1-RTT→multi-RTT shift, the added round trips
//!   and the amplification-budget violations relative to the classical era
//!   of the same profile, from one era join per profile;
//! * [`one_rtt_survivors`] — the headline population shift on the ideal
//!   profile: which 1-RTT deployments survive each era;
//! * [`compression_degradation`] — the §4.2 synthetic study per era,
//!   measuring how the brotli profile's classical certificate dictionary
//!   degrades on incompressible ML-DSA material.

use quicert_analysis::{mean, render_table, Table};
use quicert_compress::Algorithm;
use quicert_netsim::NetworkProfile;
use quicert_pki::{CertificateEra, DomainRecord};
use quicert_quic::amplification;
use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::compression::in_study_sample;
use quicert_scanner::quicreach::ScanSummary;

use crate::Campaign;

/// One cell of the era × profile scenario matrix.
#[derive(Debug, Clone)]
pub struct EraProfileRow {
    /// The PKI generation scanned.
    pub era: CertificateEra,
    /// The link-condition overlay scanned under.
    pub profile: NetworkProfile,
    /// Class counts at the campaign's default Initial size.
    pub summary: ScanSummary,
    /// Mean round trips to completion across reachable services.
    pub mean_rtts: f64,
    /// Completed handshakes whose first flight exceeded the 3× budget
    /// (buggy accounting survives every era; see §4.1/§4.3).
    pub budget_violations: usize,
    /// Services classified 1-RTT in the classical era of this profile but
    /// multi-RTT in this era (0 on the classical rows by construction).
    pub one_rtt_to_multi: usize,
    /// Mean round trips added relative to the classical era, over services
    /// that completed in both.
    pub mean_added_rtts: f64,
}

/// Every `(era, profile)` pair at the default Initial size: one cached
/// era join per profile ([`crate::ScanEngine::era_join`]), which probes
/// each service in every era in one pass and tallies each era against the
/// classical one service for service.
pub fn era_matrix(campaign: &Campaign) -> Vec<EraProfileRow> {
    let engine = campaign.engine();
    let mut rows = Vec::new();
    for &profile in NetworkProfile::ALL.iter() {
        let join = engine.era_join(campaign.scenario().with_profile(profile));
        for &era in CertificateEra::ALL.iter() {
            let (summary, tally) = join.era(era);
            rows.push(EraProfileRow {
                era,
                profile,
                summary: summary.shard.classes,
                mean_rtts: summary.shard.rtts.mean(),
                budget_violations: summary.over_budget,
                one_rtt_to_multi: tally
                    .transitions(HandshakeClass::OneRtt, HandshakeClass::MultiRtt),
                mean_added_rtts: tally.mean_added_rtts(),
            });
        }
    }
    rows
}

/// Render the era × profile matrix.
pub fn render_era_matrix(rows: &[EraProfileRow]) -> String {
    let mut t = Table::new(&[
        "era",
        "profile",
        "reachable",
        "1-RTT %",
        "multi %",
        "ampl %",
        "unreach %",
        "mean RTTs",
        "+RTTs",
        "1RTT->multi",
        "over 3x",
    ]);
    for row in rows {
        t.row(&[
            row.era.name().to_string(),
            row.profile.name().to_string(),
            row.summary.reachable().to_string(),
            format!(
                "{:.2}",
                row.summary.share_of_reachable(HandshakeClass::OneRtt)
            ),
            format!(
                "{:.1}",
                row.summary.share_of_reachable(HandshakeClass::MultiRtt)
            ),
            format!(
                "{:.1}",
                row.summary
                    .share_of_reachable(HandshakeClass::Amplification)
            ),
            format!(
                "{:.1}",
                row.summary.share_of_all(HandshakeClass::Unreachable)
            ),
            format!("{:.2}", row.mean_rtts),
            format!("{:+.2}", row.mean_added_rtts),
            row.one_rtt_to_multi.to_string(),
            row.budget_violations.to_string(),
        ]);
    }
    format!(
        "Certificate-era matrix — handshake classes per era and network profile\n{}",
        render_table(&t)
    )
}

// -------------------------------------------------------- 1-RTT survivors --

/// The headline population shift: what happens to the (already rare) fast
/// handshakes when the PKI migrates.
#[derive(Debug, Clone, Copy)]
pub struct OneRttShift {
    /// The era compared against classical.
    pub era: CertificateEra,
    /// Services completing in one round trip within budget, classically.
    pub classical_one_rtt: usize,
    /// Of those, still 1-RTT in this era.
    pub survivors: usize,
    /// Of those, now multi-RTT.
    pub to_multi_rtt: usize,
    /// Of those, now amplifying (buggy accounting hides the extra bytes).
    pub to_amplification: usize,
}

/// Compute the 1-RTT survivorship per era on the ideal profile, from the
/// ideal cell's era join.
pub fn one_rtt_survivors(campaign: &Campaign) -> Vec<OneRttShift> {
    let ideal = campaign.scenario().with_profile(NetworkProfile::Ideal);
    let join = campaign.engine().era_join(ideal);
    [CertificateEra::Hybrid, CertificateEra::PostQuantum]
        .into_iter()
        .map(|era| {
            let tally = join.era(era).1;
            let from_one_rtt = |to| tally.transitions(HandshakeClass::OneRtt, to);
            OneRttShift {
                era,
                classical_one_rtt: join.era(CertificateEra::Classical).0.shard.classes.one_rtt,
                survivors: from_one_rtt(HandshakeClass::OneRtt),
                to_multi_rtt: from_one_rtt(HandshakeClass::MultiRtt),
                to_amplification: from_one_rtt(HandshakeClass::Amplification),
            }
        })
        .collect()
}

/// Render the survivorship table.
pub fn render_one_rtt_survivors(shifts: &[OneRttShift]) -> String {
    let mut t = Table::new(&[
        "era",
        "classical 1-RTT",
        "still 1-RTT",
        "now multi-RTT",
        "now amplifying",
    ]);
    for s in shifts {
        t.row(&[
            s.era.name().to_string(),
            s.classical_one_rtt.to_string(),
            s.survivors.to_string(),
            s.to_multi_rtt.to_string(),
            s.to_amplification.to_string(),
        ]);
    }
    format!(
        "PQ migration — 1-RTT survivorship on the ideal profile\n{}",
        render_table(&t)
    )
}

// ------------------------------------------------- compression degradation --

/// Chains per era whose DER is n-gram-matched against the dictionary for
/// the coverage column (an O(bytes) scan per chain, so it runs on a small
/// fixed sample rather than the whole study population).
const COVERAGE_SAMPLE: usize = 16;

/// The §4.2 synthetic compression study, aggregated for one era.
#[derive(Debug, Clone, Copy)]
pub struct EraCompression {
    /// The PKI generation compressed.
    pub era: CertificateEra,
    /// Chains sampled.
    pub chains: usize,
    /// Mean original (uncompressed) chain size, bytes.
    pub mean_original: f64,
    /// Mean compressed/original ratio.
    pub mean_ratio: f64,
    /// Median ratio.
    pub median_ratio: f64,
    /// Share of compressed chains fitting the 3× budget at the campaign's
    /// default Initial, percent.
    pub under_limit_pct: f64,
    /// Mean [`quicert_compress::dict::coverage`] over the first
    /// `COVERAGE_SAMPLE` sampled chains: the share of chain bytes the
    /// brotli profile's classical certificate dictionary has n-grams for.
    /// This is *why* the ratio degrades — ML-DSA keys and signatures are
    /// material the dictionary has never seen.
    pub mean_dict_coverage: f64,
}

/// Compress the sampled chain population once per era with the brotli
/// profile (the only one shipping a certificate dictionary).
pub fn compression_degradation(campaign: &Campaign, stride: usize) -> Vec<EraCompression> {
    let limit = amplification::limit(campaign.scenario().initial_size);
    let world = campaign.world();
    // The coverage sample: the study sample's first chains, derived by
    // walking the sampled ranks.
    let sampled = |record: &DomainRecord| in_study_sample(record, stride);
    let sample: Vec<DomainRecord> = (1..=world.config.domains)
        .step_by(stride.max(1))
        .flat_map(|rank| world.domain_chunk(rank, 1))
        .filter(sampled)
        .take(COVERAGE_SAMPLE)
        .collect();
    CertificateEra::ALL
        .iter()
        .map(|&era| {
            let study = campaign
                .engine()
                .compression_study(era, Algorithm::Brotli, stride);
            let coverages: Vec<f64> = sample
                .iter()
                .filter_map(|record| world.https_chain_era(record, era))
                .map(|chain| quicert_compress::dict::coverage(&chain.concatenated_der()))
                .collect();
            EraCompression {
                era,
                chains: study.chains(),
                mean_original: study.mean_original(),
                mean_ratio: study.mean_ratio(),
                median_ratio: study.ratio_cdf().percentile(50.0),
                under_limit_pct: study.under(limit) as f64 / study.chains().max(1) as f64 * 100.0,
                mean_dict_coverage: mean(&coverages),
            }
        })
        .collect()
}

/// Render the per-era compression table.
pub fn render_compression_degradation(rows: &[EraCompression]) -> String {
    let mut t = Table::new(&[
        "era",
        "chains",
        "mean B",
        "mean ratio",
        "median ratio",
        "under 3x %",
        "dict cov %",
    ]);
    for row in rows {
        t.row(&[
            row.era.name().to_string(),
            row.chains.to_string(),
            format!("{:.0}", row.mean_original),
            format!("{:.3}", row.mean_ratio),
            format!("{:.3}", row.median_ratio),
            format!("{:.1}", row.under_limit_pct),
            format!("{:.1}", row.mean_dict_coverage * 100.0),
        ]);
    }
    format!(
        "PQ compression — brotli dictionary performance per era\n{}",
        render_table(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(7).with_domains(2_000))
    }

    #[test]
    fn matrix_spans_every_era_and_profile() {
        let c = campaign();
        let rows = era_matrix(&c);
        assert_eq!(
            rows.len(),
            CertificateEra::ALL.len() * NetworkProfile::ALL.len()
        );
        let cell = |era, profile| {
            rows.iter()
                .find(|r| r.era == era && r.profile == profile)
                .unwrap()
        };
        for &profile in NetworkProfile::ALL.iter() {
            let classical = cell(CertificateEra::Classical, profile);
            // The classical row is its own baseline: no shift, no delta.
            assert_eq!(classical.one_rtt_to_multi, 0, "{profile}");
            assert!(classical.mean_added_rtts.abs() < 1e-12, "{profile}");
            for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
                let row = cell(era, profile);
                // PQC chains travel at the Handshake level, so on loss-free
                // paths the era never costs reachability. Under loss the
                // much longer flights expose more drop opportunities, so a
                // small unreachability delta is expected there.
                if profile == NetworkProfile::Lossy {
                    let delta = row
                        .summary
                        .unreachable
                        .abs_diff(classical.summary.unreachable);
                    assert!(
                        delta * 20 <= classical.summary.total().max(1),
                        "{era}/{profile}: unreachable {} vs {}",
                        row.summary.unreachable,
                        classical.summary.unreachable
                    );
                } else {
                    assert_eq!(
                        row.summary.unreachable, classical.summary.unreachable,
                        "{era}/{profile}"
                    );
                }
                // …but it costs round trips.
                assert!(
                    row.mean_added_rtts > 0.3,
                    "{era}/{profile}: +{:.2} RTTs",
                    row.mean_added_rtts
                );
                // Long-fat jitter already classifies every reachable
                // handshake as multi-RTT classically (see the profile
                // matrix), so the class count can only grow on the other
                // profiles; the added-RTT assertion above carries the
                // long-fat claim.
                if profile == NetworkProfile::LongFat {
                    assert!(
                        row.summary.multi_rtt >= classical.summary.multi_rtt,
                        "{era}/{profile}"
                    );
                } else {
                    assert!(
                        row.summary.multi_rtt > classical.summary.multi_rtt,
                        "{era}/{profile}"
                    );
                }
            }
        }
    }

    #[test]
    fn classical_ideal_cell_is_the_campaign_default_artifact() {
        let c = campaign();
        let rows = era_matrix(&c);
        let ideal_classical = rows
            .iter()
            .find(|r| r.era == CertificateEra::Classical && r.profile == NetworkProfile::Ideal)
            .unwrap();
        let default_summary = c.engine().quicreach(c.scenario()).shard.classes;
        assert_eq!(ideal_classical.summary, default_summary);
    }

    #[test]
    fn one_rtt_population_shifts_to_multi_rtt() {
        let c = campaign();
        let shifts = one_rtt_survivors(&c);
        assert_eq!(shifts.len(), 2);
        for s in &shifts {
            assert!(s.classical_one_rtt > 0, "{}", s.era);
            assert_eq!(
                s.survivors + s.to_multi_rtt + s.to_amplification,
                s.classical_one_rtt,
                "{}: a 1-RTT service stays reachable in every era",
                s.era
            );
            // The defining result: the (already rare) 1-RTT population all
            // but disappears once chains carry ML-DSA material.
            assert!(
                s.to_multi_rtt + s.to_amplification > s.survivors,
                "{}: {} survivors of {}",
                s.era,
                s.survivors,
                s.classical_one_rtt
            );
        }
    }

    #[test]
    fn compression_cannot_rescue_pq_chains() {
        let c = campaign();
        let rows = compression_degradation(&c, 25);
        assert_eq!(rows.len(), 3);
        let by = |era| rows.iter().find(|r| r.era == era).copied().unwrap();
        let classical = by(CertificateEra::Classical);
        let hybrid = by(CertificateEra::Hybrid);
        let pq = by(CertificateEra::PostQuantum);
        // §4.2: compression keeps nearly everything under the limit today…
        assert!(
            classical.under_limit_pct > 90.0,
            "{}",
            classical.under_limit_pct
        );
        // …but ML-DSA bytes neither compress nor fit.
        assert!(pq.mean_ratio > classical.mean_ratio + 0.15);
        assert!(hybrid.mean_ratio > classical.mean_ratio + 0.15);
        assert!(pq.under_limit_pct < 50.0, "{}", pq.under_limit_pct);
        assert!(pq.mean_original > 2.0 * classical.mean_original);
        assert!(hybrid.mean_original > pq.mean_original);
        // The mechanism: the dictionary covers a fair share of classical
        // chain bytes but almost none of the ML-DSA material.
        assert!(
            classical.mean_dict_coverage > 3.0 * pq.mean_dict_coverage,
            "dict coverage {} vs {}",
            classical.mean_dict_coverage,
            pq.mean_dict_coverage
        );
    }

    #[test]
    fn renders_mention_every_axis_value() {
        let c = campaign();
        let matrix = render_era_matrix(&era_matrix(&c));
        for era in CertificateEra::ALL {
            assert!(matrix.contains(era.name()), "missing {era}");
        }
        for profile in NetworkProfile::ALL {
            assert!(matrix.contains(profile.name()), "missing {profile}");
        }
        let survivors = render_one_rtt_survivors(&one_rtt_survivors(&c));
        assert!(survivors.contains("post-quantum"));
        let compression = render_compression_degradation(&compression_degradation(&c, 25));
        assert!(compression.contains("hybrid"));
    }
}
