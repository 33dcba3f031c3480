//! Session-resumption experiments: the §5 mitigation measured against the
//! cold population the rest of the report characterises.
//!
//! Three views, all fed from the engine's cached warm-scan artifacts:
//!
//! * [`resumption_matrix`] — cold vs resumed handshakes per
//!   [`NetworkProfile`], at the default Initial size;
//! * [`policy_comparison`] — the [`ResumptionPolicy`] axis on the default
//!   profile (cold-only baseline, working resumption, expired tickets);
//! * [`budget_sweep`] — resumed handshakes against the 3× amplification
//!   budget across Initial sizes (they fit by construction; this measures
//!   it).

use quicert_analysis::{render_table, Table};
use quicert_netsim::NetworkProfile;
use quicert_scanner::quicreach::WarmAggregate;
use quicert_session::ResumptionPolicy;

use crate::Campaign;

// ------------------------------------------------------- profile matrix --

/// One row of the resumption scenario matrix: the warm scan under one
/// [`NetworkProfile`] with working resumption.
#[derive(Debug, Clone)]
pub struct ResumptionRow {
    /// The link-condition overlay scanned under.
    pub profile: NetworkProfile,
    /// Aggregate cold-vs-warm measurements.
    pub agg: WarmAggregate,
}

/// Run the warm scan (warm-after-first-visit policy) at the default Initial
/// size under every [`NetworkProfile`].
pub fn resumption_matrix(campaign: &Campaign) -> Vec<ResumptionRow> {
    let warm = campaign
        .scenario()
        .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
    NetworkProfile::ALL
        .iter()
        .map(|&profile| ResumptionRow {
            profile,
            agg: *campaign.engine().warm_scan(warm.with_profile(profile)),
        })
        .collect()
}

/// Render the per-profile matrix.
pub fn render_resumption_matrix(rows: &[ResumptionRow]) -> String {
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
    for row in rows {
        t.row(&[
            row.profile.name().to_string(),
            row.agg.cold_reachable.to_string(),
            row.agg.resumed.to_string(),
            row.agg.cold_cert_bytes.to_string(),
            row.agg.warm_cert_bytes.to_string(),
            row.agg.resumed_over_budget.to_string(),
            row.agg.cold_multi_rtt.to_string(),
            row.agg.multi_rtt_saved_a_round.to_string(),
            format!("{:.2}", row.agg.mean_rtts_saved_multi()),
        ]);
    }
    format!(
        "Resumption matrix — cold vs resumed handshakes at the default Initial\n{}",
        render_table(&t)
    )
}

// -------------------------------------------------------- policy sweep --

/// One row of the policy comparison: the warm scan on the default profile
/// under one [`ResumptionPolicy`].
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The ticket policy of the revisit.
    pub policy: ResumptionPolicy,
    /// Aggregate cold-vs-warm measurements.
    pub agg: WarmAggregate,
}

/// Sweep the [`ResumptionPolicy`] axis at the default profile and Initial
/// size: the cold-only baseline pays the chain twice, the warm policy skips
/// it, and the expired policy demonstrates the deterministic fallback.
pub fn policy_comparison(campaign: &Campaign) -> Vec<PolicyRow> {
    ResumptionPolicy::ALL
        .iter()
        .map(|&policy| PolicyRow {
            policy,
            agg: *campaign
                .engine()
                .warm_scan(campaign.scenario().with_policy(policy)),
        })
        .collect()
}

/// Render the policy comparison.
pub fn render_policy_comparison(rows: &[PolicyRow]) -> String {
    let mut t = Table::new(&[
        "policy",
        "reachable",
        "resumed",
        "cert B warm",
        "warm bytes saved %",
    ]);
    for row in rows {
        let saved = if row.agg.cold_cert_bytes == 0 {
            0.0
        } else {
            (1.0 - row.agg.warm_cert_bytes as f64 / row.agg.cold_cert_bytes as f64) * 100.0
        };
        t.row(&[
            row.policy.name().to_string(),
            row.agg.cold_reachable.to_string(),
            row.agg.resumed.to_string(),
            row.agg.warm_cert_bytes.to_string(),
            format!("{saved:.1}"),
        ]);
    }
    format!(
        "Resumption policies — revisit cost on the default profile\n{}",
        render_table(&t)
    )
}

// -------------------------------------------------------- budget sweep --

/// Resumed handshakes vs the 3× budget at one Initial size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPoint {
    /// Client Initial size.
    pub initial_size: usize,
    /// Resumed handshakes at this size.
    pub resumed: usize,
    /// Of those, first flights exceeding 3× (0 by construction).
    pub over_budget: usize,
}

/// The default sizes the budget sweep probes (sweep endpoints + default).
pub const BUDGET_SWEEP_SIZES: [usize; 3] = [1200, 1362, 1472];

/// Measure resumed handshakes against the amplification budget across
/// Initial sizes on the ideal profile.
pub fn budget_sweep(campaign: &Campaign, sizes: &[usize]) -> Vec<BudgetPoint> {
    let warm = campaign
        .scenario()
        .with_profile(NetworkProfile::Ideal)
        .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
    sizes
        .iter()
        .map(|&initial_size| {
            let agg = campaign
                .engine()
                .warm_scan(warm.with_initial_size(initial_size));
            BudgetPoint {
                initial_size,
                resumed: agg.resumed,
                over_budget: agg.resumed_over_budget,
            }
        })
        .collect()
}

/// Render the budget sweep.
pub fn render_budget_sweep(points: &[BudgetPoint]) -> String {
    let mut t = Table::new(&["initial", "resumed", "over 3x"]);
    for p in points {
        t.row(&[
            p.initial_size.to_string(),
            p.resumed.to_string(),
            p.over_budget.to_string(),
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
    use crate::CampaignConfig;
    use quicert_scanner::quicreach;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(7).with_domains(2_000))
    }

    #[test]
    fn matrix_meets_the_acceptance_criteria_on_every_profile() {
        let c = campaign();
        for row in resumption_matrix(&c) {
            // Resumed handshakes never carry certificate bytes.
            assert_eq!(
                row.agg.resumed_with_cert_bytes, 0,
                "{}: certs on resumed wire",
                row.profile
            );
            // The certificate-free flight fits the 3x budget by
            // construction. The lossy profile is the one place the paper's
            // resend-amplification bug can still surface — a dropped client
            // ack makes buggy servers resend the (tiny) flight without
            // charging it — so over-budget cases there stay a rare tail
            // rather than an exact zero.
            if row.profile == NetworkProfile::Lossy {
                assert!(
                    row.agg.resumed_over_budget * 20 <= row.agg.resumed,
                    "{}: {}/{} resumed flights over budget",
                    row.profile,
                    row.agg.resumed_over_budget,
                    row.agg.resumed
                );
            } else {
                assert_eq!(
                    row.agg.resumed_over_budget, 0,
                    "{}: resumed flight over budget",
                    row.profile
                );
            }
            // The reachable population overwhelmingly resumes.
            assert!(
                row.agg.resumed * 10 >= row.agg.cold_reachable * 9,
                "{}: {}/{} resumed",
                row.profile,
                row.agg.resumed,
                row.agg.cold_reachable
            );
            // Warm wire sheds certificate bytes wholesale.
            assert!(row.agg.warm_cert_bytes * 10 < row.agg.cold_cert_bytes);
            // The cold multi-RTT population shaves at least one round trip.
            assert!(row.agg.cold_multi_rtt > 0, "{}", row.profile);
            match row.profile {
                // Deterministic timing: the guarantee is per-service.
                NetworkProfile::Ideal | NetworkProfile::Tunneled => {
                    assert_eq!(
                        row.agg.multi_rtt_saved_a_round, row.agg.cold_multi_rtt,
                        "{}: every multi-RTT service must save a round",
                        row.profile
                    );
                    assert!(row.agg.mean_rtts_saved_multi() >= 1.0, "{}", row.profile);
                }
                // Under loss a dropped warm datagram can cost a
                // retransmission round, so the guarantee is aggregate.
                NetworkProfile::Lossy => {
                    assert!(
                        row.agg.multi_rtt_saved_a_round * 10 >= row.agg.cold_multi_rtt * 9,
                        "{}: {}/{} multi-RTT services saved a round",
                        row.profile,
                        row.agg.multi_rtt_saved_a_round,
                        row.agg.cold_multi_rtt
                    );
                    assert!(row.agg.mean_rtts_saved_multi() >= 0.9, "{}", row.profile);
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
        let deep: Vec<_> = records
            .iter()
            .filter(|r| r.has_quic())
            .map(|r| quicreach::warm_service(c.world(), r, long_fat))
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
        let rows = policy_comparison(&c);
        assert_eq!(rows.len(), ResumptionPolicy::ALL.len());
        let by = |p: ResumptionPolicy| rows.iter().find(|r| r.policy == p).map(|r| r.agg).unwrap();
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
        let points = budget_sweep(&c, &BUDGET_SWEEP_SIZES);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.resumed > 0, "size {}", p.initial_size);
            assert_eq!(p.over_budget, 0, "size {}", p.initial_size);
        }
        assert!(!render_budget_sweep(&points).is_empty());
    }

    #[test]
    fn renders_mention_every_axis_value() {
        let c = campaign();
        let matrix = render_resumption_matrix(&resumption_matrix(&c));
        for p in NetworkProfile::ALL {
            assert!(matrix.contains(p.name()), "missing {p}");
        }
        let policies = render_policy_comparison(&policy_comparison(&c));
        for p in ResumptionPolicy::ALL {
            assert!(policies.contains(p.name()), "missing {p}");
        }
    }
}
