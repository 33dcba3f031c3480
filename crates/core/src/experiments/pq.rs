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

use super::class_share;
use crate::Campaign;

/// The era × profile scenario matrix at the default Initial size, one
/// cached era join per profile ([`crate::ScanEngine::era_join`]), which
/// probes each service in every era in one pass and tallies each era
/// against the classical one service for service: class shares
/// (`class_share`), mean round trips, the round trips added over the
/// classical era (over services that completed in both), the services
/// that were 1-RTT classically but multi-RTT in this era (0 on the
/// classical rows by construction), and the completed handshakes whose
/// first flight exceeded the 3× budget (buggy accounting survives every
/// era; see §4.1/§4.3).
pub fn era_matrix(campaign: &Campaign) -> String {
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
    for profile in NetworkProfile::ALL {
        let join = campaign
            .engine()
            .era_join(campaign.scenario().with_profile(profile));
        for era in CertificateEra::ALL {
            let (summary, tally) = join.era(era);
            let classes = &summary.shard.classes;
            let share = |class| class_share(classes, class);
            t.row(&[
                era.name().to_string(),
                profile.name().to_string(),
                classes.reachable().to_string(),
                share(HandshakeClass::OneRtt),
                share(HandshakeClass::MultiRtt),
                share(HandshakeClass::Amplification),
                share(HandshakeClass::Unreachable),
                format!("{:.2}", summary.shard.rtts.mean()),
                format!("{:+.2}", tally.mean_added_rtts()),
                tally
                    .transitions(HandshakeClass::OneRtt, HandshakeClass::MultiRtt)
                    .to_string(),
                summary.over_budget.to_string(),
            ]);
        }
    }
    format!(
        "Certificate-era matrix — handshake classes per era and network profile\n{}",
        render_table(&t)
    )
}

// -------------------------------------------------------- 1-RTT survivors --

/// The headline population shift on the ideal profile, from the ideal
/// cell's era join: of the services completing in one round trip within
/// budget classically, how many are still 1-RTT in each post-quantum era,
/// how many are now multi-RTT and how many now amplify (buggy accounting
/// hides the extra bytes).
pub fn one_rtt_survivors(campaign: &Campaign) -> String {
    let ideal = campaign.scenario().with_profile(NetworkProfile::Ideal);
    let join = campaign.engine().era_join(ideal);
    let classical_one_rtt = join.era(CertificateEra::Classical).0.shard.classes.one_rtt;
    let mut t = Table::new(&[
        "era",
        "classical 1-RTT",
        "still 1-RTT",
        "now multi-RTT",
        "now amplifying",
    ]);
    for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
        let tally = join.era(era).1;
        let from_one_rtt = |to| tally.transitions(HandshakeClass::OneRtt, to).to_string();
        t.row(&[
            era.name().to_string(),
            classical_one_rtt.to_string(),
            from_one_rtt(HandshakeClass::OneRtt),
            from_one_rtt(HandshakeClass::MultiRtt),
            from_one_rtt(HandshakeClass::Amplification),
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

/// Mean [`quicert_compress::dict::coverage`] per era (in
/// [`CertificateEra::ALL`] order) over the study sample's first
/// `COVERAGE_SAMPLE` chains: the share of chain bytes the brotli
/// profile's classical certificate dictionary has n-grams for. This is
/// *why* the ratio degrades — ML-DSA keys and signatures are material the
/// dictionary has never seen.
fn dict_coverage(campaign: &Campaign, stride: usize) -> [f64; 3] {
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
    CertificateEra::ALL.map(|era| {
        let coverages: Vec<f64> = sample
            .iter()
            .filter_map(|record| world.https_chain_era(record, era))
            .map(|chain| quicert_compress::dict::coverage(&chain.concatenated_der()))
            .collect();
        mean(&coverages)
    })
}

/// The §4.2 synthetic study once per era with the brotli profile (the only
/// one shipping a certificate dictionary), from the engine's cached study
/// ([`crate::ScanEngine::compression_study`]): chains sampled, mean
/// original size, mean and median compressed/original ratio, the share of
/// compressed chains fitting the 3× budget at the campaign's default
/// Initial, and the dictionary's coverage of the chain bytes.
pub fn compression_degradation(campaign: &Campaign, stride: usize) -> String {
    let limit = amplification::limit(campaign.scenario().initial_size);
    let mut t = Table::new(&[
        "era",
        "chains",
        "mean B",
        "mean ratio",
        "median ratio",
        "under 3x %",
        "dict cov %",
    ]);
    let coverage = dict_coverage(campaign, stride);
    for (era, coverage) in CertificateEra::ALL.into_iter().zip(coverage) {
        let study = campaign
            .engine()
            .compression_study(era, Algorithm::Brotli, stride);
        let chains = study.chains();
        t.row(&[
            era.name().to_string(),
            chains.to_string(),
            format!("{:.0}", study.mean_original()),
            format!("{:.3}", study.mean_ratio()),
            format!("{:.3}", study.ratio_cdf().percentile(50.0)),
            format!(
                "{:.1}",
                study.under(limit) as f64 / chains.max(1) as f64 * 100.0
            ),
            format!("{:.1}", coverage * 100.0),
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
    use crate::experiments::table_rows;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(7).with_domains(2_000))
    }

    #[test]
    fn matrix_spans_every_era_and_profile() {
        let c = campaign();
        assert_eq!(
            table_rows(&era_matrix(&c)),
            CertificateEra::ALL.len() * NetworkProfile::ALL.len()
        );
        for &profile in NetworkProfile::ALL.iter() {
            let join = c.engine().era_join(c.scenario().with_profile(profile));
            let (classical, baseline) = join.era(CertificateEra::Classical);
            let classical = &classical.shard.classes;
            // The classical row is its own baseline: no shift, no delta.
            let shift = baseline.transitions(HandshakeClass::OneRtt, HandshakeClass::MultiRtt);
            assert_eq!(shift, 0, "{profile}");
            assert!(baseline.mean_added_rtts().abs() < 1e-12, "{profile}");
            for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
                let (summary, tally) = join.era(era);
                let row = &summary.shard.classes;
                // PQC chains travel at the Handshake level, so on loss-free
                // paths the era never costs reachability. Under loss the
                // much longer flights expose more drop opportunities, so a
                // small unreachability delta is expected there.
                if profile == NetworkProfile::Lossy {
                    let delta = row.unreachable.abs_diff(classical.unreachable);
                    assert!(
                        delta * 20 <= classical.total().max(1),
                        "{era}/{profile}: unreachable {} vs {}",
                        row.unreachable,
                        classical.unreachable
                    );
                } else {
                    assert_eq!(row.unreachable, classical.unreachable, "{era}/{profile}");
                }
                // …but it costs round trips.
                assert!(
                    tally.mean_added_rtts() > 0.3,
                    "{era}/{profile}: +{:.2} RTTs",
                    tally.mean_added_rtts()
                );
                // Long-fat jitter already classifies every reachable
                // handshake as multi-RTT classically (see the profile
                // matrix), so the class count can only grow on the other
                // profiles; the added-RTT assertion above carries the
                // long-fat claim.
                if profile == NetworkProfile::LongFat {
                    assert!(row.multi_rtt >= classical.multi_rtt, "{era}/{profile}");
                } else {
                    assert!(row.multi_rtt > classical.multi_rtt, "{era}/{profile}");
                }
            }
        }
    }

    #[test]
    fn classical_ideal_cell_is_the_campaign_default_artifact() {
        let c = campaign();
        let ideal = c.scenario().with_profile(NetworkProfile::Ideal);
        let join = c.engine().era_join(ideal);
        let ideal_classical = join.era(CertificateEra::Classical).0.shard.classes;
        let default_summary = c.engine().quicreach(c.scenario()).shard.classes;
        assert_eq!(ideal_classical, default_summary);
    }

    #[test]
    fn one_rtt_population_shifts_to_multi_rtt() {
        let c = campaign();
        assert_eq!(table_rows(&one_rtt_survivors(&c)), 2);
        let ideal = c.scenario().with_profile(NetworkProfile::Ideal);
        let join = c.engine().era_join(ideal);
        let classical_one_rtt = join.era(CertificateEra::Classical).0.shard.classes.one_rtt;
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            let from_one_rtt = |to| join.era(era).1.transitions(HandshakeClass::OneRtt, to);
            let survivors = from_one_rtt(HandshakeClass::OneRtt);
            let to_multi_rtt = from_one_rtt(HandshakeClass::MultiRtt);
            let to_amplification = from_one_rtt(HandshakeClass::Amplification);
            assert!(classical_one_rtt > 0, "{era}");
            assert_eq!(
                survivors + to_multi_rtt + to_amplification,
                classical_one_rtt,
                "{era}: a 1-RTT service stays reachable in every era"
            );
            // The defining result: the (already rare) 1-RTT population all
            // but disappears once chains carry ML-DSA material.
            assert!(
                to_multi_rtt + to_amplification > survivors,
                "{era}: {survivors} survivors of {classical_one_rtt}"
            );
        }
    }

    #[test]
    fn compression_cannot_rescue_pq_chains() {
        let c = campaign();
        let limit = amplification::limit(c.scenario().initial_size);
        let study = |era| c.engine().compression_study(era, Algorithm::Brotli, 25);
        let under_limit_pct = |era| {
            let study = study(era);
            study.under(limit) as f64 / study.chains().max(1) as f64 * 100.0
        };
        let (classical, hybrid, pq) = (
            study(CertificateEra::Classical),
            study(CertificateEra::Hybrid),
            study(CertificateEra::PostQuantum),
        );
        // §4.2: compression keeps nearly everything under the limit today…
        let classical_under = under_limit_pct(CertificateEra::Classical);
        assert!(classical_under > 90.0, "{classical_under}");
        // …but ML-DSA bytes neither compress nor fit.
        assert!(pq.mean_ratio() > classical.mean_ratio() + 0.15);
        assert!(hybrid.mean_ratio() > classical.mean_ratio() + 0.15);
        let pq_under = under_limit_pct(CertificateEra::PostQuantum);
        assert!(pq_under < 50.0, "{pq_under}");
        assert!(pq.mean_original() > 2.0 * classical.mean_original());
        assert!(hybrid.mean_original() > pq.mean_original());
        // The mechanism: the dictionary covers a fair share of classical
        // chain bytes but almost none of the ML-DSA material.
        let [classical_coverage, _hybrid, pq_coverage] = dict_coverage(&c, 25);
        assert!(
            classical_coverage > 3.0 * pq_coverage,
            "dict coverage {classical_coverage} vs {pq_coverage}"
        );
    }

    #[test]
    fn renders_mention_every_axis_value() {
        let c = campaign();
        let matrix = era_matrix(&c);
        for era in CertificateEra::ALL {
            assert!(matrix.contains(era.name()), "missing {era}");
        }
        for profile in NetworkProfile::ALL {
            assert!(matrix.contains(profile.name()), "missing {profile}");
        }
        let survivors = one_rtt_survivors(&c);
        assert!(survivors.contains("post-quantum"));
        let compression = compression_degradation(&c, 25);
        assert!(compression.contains("hybrid"));
    }
}
