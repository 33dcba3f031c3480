//! Session-resumption experiments: the §5 mitigation measured against the
//! cold population the rest of the report characterises.
//!
//! Three sections, each rendered from the engine's cached warm-scan
//! aggregates ([`crate::ScanEngine::warm_scan`]):
//!
//! * [`resumption_matrix`] — cold vs resumed handshakes per
//!   [`NetworkProfile`], at the default Initial size;
//! * [`policy_comparison`] — the [`ResumptionPolicy`] axis on the default
//!   profile (cold-only baseline, working resumption, expired tickets);
//! * [`budget_sweep`] — resumed handshakes against the 3× amplification
//!   budget across Initial sizes.

use quicert_analysis::{render_table, Table};
use quicert_netsim::NetworkProfile;
use quicert_session::ResumptionPolicy;

use crate::Campaign;

/// The warm scan (warm-after-first-visit policy) at the default Initial
/// size under every [`NetworkProfile`]: cold vs resumed handshakes per
/// profile.
pub fn resumption_matrix(campaign: &Campaign) -> String {
    let warm = campaign
        .scenario()
        .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
    let mut t = Table::new(&[
        "profile",
        "reachable",
        "resumed",
        "cert B cold",
        "cert B warm",
        "over 3x",
        "multi-RTT",
        "saved>=1RTT",
        "mean saved",
    ]);
    for profile in NetworkProfile::ALL {
        let agg = campaign.engine().warm_scan(warm.with_profile(profile));
        t.row(&[
            profile.name().to_string(),
            agg.cold_reachable.to_string(),
            agg.resumed.to_string(),
            agg.cold_cert_bytes.to_string(),
            agg.warm_cert_bytes.to_string(),
            agg.resumed_over_budget.to_string(),
            agg.cold_multi_rtt.to_string(),
            agg.multi_rtt_saved_a_round.to_string(),
            format!("{:.2}", agg.mean_rtts_saved_multi()),
        ]);
    }
    format!(
        "Resumption matrix — cold vs resumed handshakes at the default Initial\n{}",
        render_table(&t)
    )
}

/// The [`ResumptionPolicy`] axis at the default profile and Initial size:
/// the cold-only baseline pays the chain twice, the warm policy skips it,
/// and the expired policy demonstrates the deterministic fallback.
pub fn policy_comparison(campaign: &Campaign) -> String {
    let mut t = Table::new(&[
        "policy",
        "reachable",
        "resumed",
        "cert B warm",
        "warm bytes saved %",
    ]);
    for policy in ResumptionPolicy::ALL {
        let agg = campaign
            .engine()
            .warm_scan(campaign.scenario().with_policy(policy));
        let saved = if agg.cold_cert_bytes == 0 {
            0.0
        } else {
            (1.0 - agg.warm_cert_bytes as f64 / agg.cold_cert_bytes as f64) * 100.0
        };
        t.row(&[
            policy.name().to_string(),
            agg.cold_reachable.to_string(),
            agg.resumed.to_string(),
            agg.warm_cert_bytes.to_string(),
            format!("{saved:.1}"),
        ]);
    }
    format!(
        "Resumption policies — revisit cost on the default profile\n{}",
        render_table(&t)
    )
}

/// The Initial sizes the budget sweep probes (sweep endpoints + default).
const BUDGET_SWEEP_SIZES: [usize; 3] = [1200, 1362, 1472];

/// Resumed handshakes against the 3× amplification budget across Initial
/// sizes on the ideal profile (they fit by construction; this measures
/// it).
pub fn budget_sweep(campaign: &Campaign) -> String {
    let warm = campaign
        .scenario()
        .with_profile(NetworkProfile::Ideal)
        .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
    let mut t = Table::new(&["initial", "resumed", "over 3x"]);
    for initial_size in BUDGET_SWEEP_SIZES {
        let agg = campaign
            .engine()
            .warm_scan(warm.with_initial_size(initial_size));
        t.row(&[
            initial_size.to_string(),
            agg.resumed.to_string(),
            agg.resumed_over_budget.to_string(),
        ]);
    }
    format!(
        "Resumed handshakes vs the 3x budget per Initial size\n{}",
        render_table(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table_rows;
    use crate::CampaignConfig;
    use quicert_scanner::quicreach::{self, ProbeScratch};

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(7).with_domains(2_000))
    }

    #[test]
    fn matrix_meets_the_acceptance_criteria_on_every_profile() {
        let c = campaign();
        let warm = c
            .scenario()
            .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        for profile in NetworkProfile::ALL {
            let agg = c.engine().warm_scan(warm.with_profile(profile));
            // Resumed handshakes never carry certificate bytes.
            assert_eq!(
                agg.resumed_with_cert_bytes, 0,
                "{}: certs on resumed wire",
                profile
            );
            // The certificate-free flight fits the 3x budget by
            // construction. The lossy profile is the one place the paper's
            // resend-amplification bug can still surface — a dropped client
            // ack makes buggy servers resend the (tiny) flight without
            // charging it — so over-budget cases there stay a rare tail
            // rather than an exact zero.
            if profile == NetworkProfile::Lossy {
                assert!(
                    agg.resumed_over_budget * 20 <= agg.resumed,
                    "{}: {}/{} resumed flights over budget",
                    profile,
                    agg.resumed_over_budget,
                    agg.resumed
                );
            } else {
                assert_eq!(
                    agg.resumed_over_budget, 0,
                    "{}: resumed flight over budget",
                    profile
                );
            }
            // The reachable population overwhelmingly resumes.
            assert!(
                agg.resumed * 10 >= agg.cold_reachable * 9,
                "{}: {}/{} resumed",
                profile,
                agg.resumed,
                agg.cold_reachable
            );
            // Warm wire sheds certificate bytes wholesale.
            assert!(agg.warm_cert_bytes * 10 < agg.cold_cert_bytes);
            // The cold multi-RTT population shaves at least one round trip.
            assert!(agg.cold_multi_rtt > 0, "{}", profile);
            match profile {
                // Deterministic timing: the guarantee is per-service.
                NetworkProfile::Ideal | NetworkProfile::Tunneled => {
                    assert_eq!(
                        agg.multi_rtt_saved_a_round, agg.cold_multi_rtt,
                        "{}: every multi-RTT service must save a round",
                        profile
                    );
                    assert!(agg.mean_rtts_saved_multi() >= 1.0, "{}", profile);
                }
                // Under loss a dropped warm datagram can cost a
                // retransmission round, so the guarantee is aggregate.
                NetworkProfile::Lossy => {
                    assert!(
                        agg.multi_rtt_saved_a_round * 10 >= agg.cold_multi_rtt * 9,
                        "{}: {}/{} multi-RTT services saved a round",
                        profile,
                        agg.multi_rtt_saved_a_round,
                        agg.cold_multi_rtt
                    );
                    assert!(agg.mean_rtts_saved_multi() >= 0.9, "{}", profile);
                }
                // Long-fat jitter collapses the timing classes (every
                // completed handshake reads as multi-RTT, see the profile
                // matrix experiment), so "multi-RTT" there includes
                // one-round services with nothing left to save. The
                // per-service claim holds on the genuinely multi-round
                // population, checked below against the raw artifact.
                NetworkProfile::LongFat => {}
            }
        }

        // Long-fat, per-service, on services that really took extra wire
        // rounds cold (rtt_count >= 3 cannot be jitter: jitter adds at most
        // one nominal round to a one-round handshake).
        let long_fat = c
            .scenario()
            .with_profile(NetworkProfile::LongFat)
            .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        let records = c.world().domain_chunk(1, c.world().config.domains);
        let mut scratch = ProbeScratch::with_memo(false);
        let deep: Vec<_> = records
            .iter()
            .filter(|r| r.has_quic())
            .map(|r| quicreach::warm_service(c.world(), r, long_fat, &mut scratch))
            .filter(|r| r.cold.rtt_count >= 3)
            .collect();
        assert!(
            !deep.is_empty(),
            "long-fat has genuinely multi-round services"
        );
        for r in deep {
            assert!(
                r.rtts_saved >= 1,
                "long-fat rank {}: cold {} RTTs, warm {}",
                r.rank,
                r.cold.rtt_count,
                r.warm.rtt_count
            );
        }
    }

    #[test]
    fn policy_axis_separates_baseline_mitigation_and_fallback() {
        let c = campaign();
        assert_eq!(
            table_rows(&policy_comparison(&c)),
            ResumptionPolicy::ALL.len()
        );
        let by = |p| *c.engine().warm_scan(c.scenario().with_policy(p));
        let cold = by(ResumptionPolicy::ColdOnly);
        let warm = by(ResumptionPolicy::WarmAfterFirstVisit);
        let expired = by(ResumptionPolicy::TicketExpired);
        // Baseline: nothing resumes, the chain is paid again in full.
        assert_eq!(cold.resumed, 0);
        assert!(cold.warm_cert_bytes >= cold.cold_cert_bytes * 9 / 10);
        // Mitigation: everything reachable resumes, no cert bytes.
        assert!(warm.resumed * 10 >= warm.cold_reachable * 9);
        assert_eq!(warm.warm_cert_bytes, 0);
        // Expired tickets: offered but rejected — full fallback.
        assert_eq!(expired.resumed, 0);
        assert!(expired.warm_cert_bytes >= expired.cold_cert_bytes * 9 / 10);
    }

    #[test]
    fn budget_sweep_never_exceeds_three_x() {
        let c = campaign();
        let rendered = budget_sweep(&c);
        assert_eq!(table_rows(&rendered), 3);
        let warm = c
            .scenario()
            .with_profile(NetworkProfile::Ideal)
            .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        for initial_size in BUDGET_SWEEP_SIZES {
            let agg = c.engine().warm_scan(warm.with_initial_size(initial_size));
            assert!(agg.resumed > 0, "size {initial_size}");
            assert_eq!(agg.resumed_over_budget, 0, "size {initial_size}");
        }
        assert!(!rendered.is_empty());
    }

    #[test]
    fn renders_mention_every_axis_value() {
        let c = campaign();
        let matrix = resumption_matrix(&c);
        for p in NetworkProfile::ALL {
            assert!(matrix.contains(p.name()), "missing {p}");
        }
        let policies = policy_comparison(&c);
        for p in ResumptionPolicy::ALL {
            assert!(policies.contains(p.name()), "missing {p}");
        }
    }
}
