//! Chaos-grid experiments: the fault-injection axis swept as a grid and
//! the *cost* of loss recovery surfaced as first-class measurements.
//!
//! The paper measures handshakes on well-behaved paths; real scans cross
//! paths that drop, duplicate and corrupt datagrams. The chaos axis
//! overlays a [`FaultPlan`] on every probe wire and asks what recovery
//! costs: extra round trips over the fault-free baseline, client and
//! server retransmissions, and time spent stalled against the 3×
//! amplification budget while the server waits for address validation.
//!
//! Two sections, both rendered from the engine's cached summaries:
//!
//! * `fault_grid` — the [`FaultPlan::LADDER`] swept per `(era, profile)`
//!   cell of `GRID_ERAS` × `GRID_PROFILES`, each rung compared against the
//!   fault-free rung of the same cell;
//! * `resumption_under_faults` — whether session resumption still pays
//!   off once the wire misbehaves, per ladder rung, with working
//!   resumption ([`ResumptionPolicy::WarmAfterFirstVisit`]).

use quicert_analysis::{render_table, Table};
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::CertificateEra;
use quicert_session::ResumptionPolicy;

use crate::Campaign;

/// The eras the grid sweeps: the classical baseline and the post-quantum
/// era whose multi-datagram flights give loss the most surface to hit.
pub(crate) const GRID_ERAS: [CertificateEra; 2] =
    [CertificateEra::Classical, CertificateEra::PostQuantum];

/// The profiles the grid sweeps. Ideal keeps the plan as the only fault
/// source (clean attribution); lossy stacks the plan on a path that
/// already drops, probing how the overlays compound.
pub(crate) const GRID_PROFILES: [NetworkProfile; 2] =
    [NetworkProfile::Ideal, NetworkProfile::Lossy];

/// The chaos grid: the [`FaultPlan::LADDER`] over every `(era, profile)`
/// cell, one cached [`quicert_scanner::QuicReachSummary`] per faulted rung
/// and the era matrix's cell as the fault-free one. Rows arrive grouped by
/// `(era, profile)` with the ladder in intensity order, baseline first.
/// Per rung: reachable services, mean round trips and the round trips
/// *added* over the fault-free rung (the headline recovery cost), client
/// (PTO-driven) and server retransmissions, the datagrams the fault
/// injectors dropped, duplicated and corrupted, and the simulated time
/// servers spent amplification-stalled — nonzero only when loss eats the
/// client ack that would have validated the address.
pub(crate) fn fault_grid(campaign: &Campaign) -> String {
    let engine = campaign.engine();
    let mut t = Table::new(&[
        "era",
        "profile",
        "plan",
        "reach",
        "mean RTTs",
        "added RTTs",
        "cli rtx",
        "srv rtx",
        "drops",
        "dups",
        "corrupt",
        "stall ms",
    ]);
    for era in GRID_ERAS {
        for profile in GRID_PROFILES {
            let cell = campaign
                .scenario()
                .with_era(era)
                .with_profile(profile)
                .with_plan(FaultPlan::NONE);
            // The fault-free rung is a cell of the era matrix: its join
            // probed it already.
            let join = engine.era_join(cell);
            let baseline = &join.era(era).0.shard;
            for plan in FaultPlan::LADDER {
                let faulted =
                    (plan != FaultPlan::NONE).then(|| engine.quicreach(cell.with_plan(plan)));
                let shard = faulted.as_ref().map_or(baseline, |summary| &summary.shard);
                t.row(&[
                    era.to_string(),
                    profile.name().to_string(),
                    plan.to_string(),
                    shard.classes.reachable().to_string(),
                    format!("{:.3}", shard.rtts.mean()),
                    format!("{:+.3}", shard.rtts.mean() - baseline.rtts.mean()),
                    shard.client_retransmissions.to_string(),
                    shard.server_retransmissions.to_string(),
                    shard.fault_drops.to_string(),
                    shard.fault_duplications.to_string(),
                    shard.fault_corruptions.to_string(),
                    format!("{:.1}", shard.stall_ns_total as f64 / 1e6),
                ]);
            }
        }
    }
    format!(
        "Chaos grid — loss-recovery cost per fault plan (vs the fault-free rung)\n{}",
        render_table(&t)
    )
}

// -------------------------------------------- resumption under faults --

/// The ladder swept with working resumption on the campaign's default era
/// and the ideal profile, each plan overlaid on both visits: does the
/// mitigation survive a misbehaving wire?
pub(crate) fn resumption_under_faults(campaign: &Campaign) -> String {
    let policy = ResumptionPolicy::WarmAfterFirstVisit;
    let base = campaign
        .scenario()
        .with_profile(NetworkProfile::Ideal)
        .with_policy(policy);
    let mut t = Table::new(&[
        "plan",
        "policy",
        "reachable",
        "resumed",
        "over 3x",
        "cert B warm",
        "mean saved",
    ]);
    for plan in FaultPlan::LADDER {
        let agg = campaign.engine().warm_scan(base.with_plan(plan));
        t.row(&[
            plan.to_string(),
            policy.name().to_string(),
            agg.cold_reachable.to_string(),
            agg.resumed.to_string(),
            agg.resumed_over_budget.to_string(),
            agg.warm_cert_bytes.to_string(),
            format!("{:.2}", agg.mean_rtts_saved_multi()),
        ]);
    }
    format!(
        "Resumption under faults — the mitigation on a misbehaving wire\n{}",
        render_table(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table_rows;
    use crate::CampaignConfig;
    use quicert_scanner::QuicReachShard;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(9).with_domains(1_200))
    }

    /// What the grid reads for one rung of `era`'s ideal cell: the era
    /// matrix's cell for the fault-free rung, the rung's own quicreach
    /// summary otherwise.
    fn rung(c: &Campaign, era: CertificateEra, plan: FaultPlan) -> QuicReachShard {
        let cell = c
            .scenario()
            .with_era(era)
            .with_profile(NetworkProfile::Ideal)
            .with_plan(FaultPlan::NONE);
        if plan == FaultPlan::NONE {
            c.engine().era_join(cell).era(era).0.shard.clone()
        } else {
            c.engine().quicreach(cell.with_plan(plan)).shard.clone()
        }
    }

    #[test]
    fn recovery_cost_scales_with_fault_intensity() {
        let c = campaign();
        let classical = |plan| rung(&c, CertificateEra::Classical, plan);
        let none = classical(FaultPlan::NONE);
        let light = classical(FaultPlan::LIGHT);
        let heavy = classical(FaultPlan::HEAVY);
        let storm = classical(FaultPlan::DUP_STORM);
        let added_rtts = |shard: &QuicReachShard| shard.rtts.mean() - none.rtts.mean();

        // The fault-free rung is its own baseline: zero faults, zero
        // retransmissions, zero added round trips on the ideal profile.
        assert_eq!(none.fault_drops + none.fault_duplications, 0);
        assert_eq!(none.retransmissions(), 0);
        assert_eq!(added_rtts(&none), 0.0);

        // Cost rises monotonically with the ladder.
        assert!(light.fault_drops > 0, "light plan drops datagrams");
        assert!(heavy.fault_drops > light.fault_drops);
        assert!(heavy.retransmissions() > light.retransmissions());
        assert!(heavy.retransmissions() > 0);
        assert!(
            added_rtts(&heavy) > 0.0,
            "recovery costs round trips: {:+.3}",
            added_rtts(&heavy)
        );

        // The duplication storm duplicates without dropping — the
        // previously dead duplicating injector, live in the grid.
        assert!(storm.fault_duplications > 0);
        assert_eq!(storm.fault_drops, 0);
        assert_eq!(
            storm.retransmissions(),
            0,
            "duplication alone never forces a retransmission"
        );
    }

    #[test]
    fn every_rung_is_measured_against_its_own_cells_fault_free_scan() {
        let c = campaign();
        // An independent pass per era, on an engine of its own.
        let fresh = campaign();
        for era in GRID_ERAS {
            let own = fresh.engine().quicreach(c.scenario().with_era(era));
            let own = &own.shard;
            let none = rung(&c, era, FaultPlan::NONE);
            let none_mean = none.rtts.mean();
            assert_eq!(none.classes.reachable(), own.classes.reachable(), "{era}");
            assert_eq!(none_mean.to_bits(), own.rtts.mean().to_bits(), "{era}");
            for plan in &FaultPlan::LADDER[1..] {
                let mean = rung(&c, era, *plan).rtts.mean();
                let added = mean - own.rtts.mean();
                assert_eq!(
                    (mean - none_mean).to_bits(),
                    added.to_bits(),
                    "{era} {plan}"
                );
            }
        }
    }

    #[test]
    fn resumption_survives_the_ladder() {
        let c = campaign();
        assert_eq!(
            table_rows(&resumption_under_faults(&c)),
            FaultPlan::LADDER.len()
        );
        let base = c
            .scenario()
            .with_profile(NetworkProfile::Ideal)
            .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        for plan in FaultPlan::LADDER {
            let agg = c.engine().warm_scan(base.with_plan(plan));
            // Resumption keeps working under every plan — but heavy loss
            // eats some tickets and warm flights, so the bar scales with
            // intensity: ≥90% on benign rungs, a clear majority even on
            // the heavy rung.
            let (num, den) = if plan == FaultPlan::HEAVY {
                (2, 3)
            } else {
                (9, 10)
            };
            assert!(
                agg.resumed * den >= agg.cold_reachable * num,
                "{plan}: {}/{} resumed",
                agg.resumed,
                agg.cold_reachable
            );
            assert_eq!(agg.resumed_with_cert_bytes, 0, "{plan}");
        }
    }

    #[test]
    fn renders_mention_every_ladder_rung() {
        let c = campaign();
        let grid = fault_grid(&c);
        assert_eq!(
            table_rows(&grid),
            GRID_ERAS.len() * GRID_PROFILES.len() * FaultPlan::LADDER.len()
        );
        let resumption = resumption_under_faults(&c);
        for plan in FaultPlan::LADDER {
            assert!(grid.contains(plan.name), "grid missing {plan}");
            assert!(resumption.contains(plan.name), "resumption missing {plan}");
        }
        assert!(grid.contains("added RTTs"));
    }
}
