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
//! Two views, both fed from the engine's cached artifacts:
//!
//! * `fault_grid` — the [`FaultPlan::LADDER`] swept per `(era, profile)`
//!   cell, each rung compared against the fault-free rung of the same cell;
//! * `resumption_under_faults` — whether session resumption still pays
//!   off once the wire misbehaves, per ladder rung and
//!   [`ResumptionPolicy`].

use quicert_analysis::{render_table, Table};
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::CertificateEra;
use quicert_scanner::quicreach::WarmAggregate;
use quicert_session::ResumptionPolicy;

use crate::Campaign;

/// One cell of the chaos grid: the whole population scanned under one
/// `(plan, era, profile)` combination, with recovery cost measured against
/// the fault-free plan of the same `(era, profile)` cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosCell {
    /// The fault overlay scanned under.
    pub plan: FaultPlan,
    /// The certificate era scanned against.
    pub era: CertificateEra,
    /// The link-condition overlay underneath the plan.
    pub profile: NetworkProfile,
    /// Services reaching any class but Unreachable.
    pub reachable: usize,
    /// Mean handshake round trips.
    pub mean_rtts: f64,
    /// Mean round trips *added* by the plan over the fault-free rung of
    /// the same `(era, profile)` cell — the headline recovery cost.
    pub added_rtts: f64,
    /// Client Initial retransmissions (PTO-driven) across the population.
    pub client_retransmissions: u64,
    /// Server flight retransmissions across the population.
    pub server_retransmissions: u64,
    /// Datagrams the fault injectors dropped.
    pub fault_drops: u64,
    /// Datagrams the fault injectors delivered twice.
    pub fault_duplications: u64,
    /// Datagrams the fault injectors corrupted.
    pub fault_corruptions: u64,
    /// Total simulated time servers spent amplification-stalled, in
    /// milliseconds. Nonzero only when loss eats the client ack that
    /// would have validated the address.
    pub stall_ms_total: f64,
}

/// The eras the default grid sweeps: the classical baseline and the
/// post-quantum era whose multi-datagram flights give loss the most
/// surface to hit.
pub(crate) const GRID_ERAS: [CertificateEra; 2] =
    [CertificateEra::Classical, CertificateEra::PostQuantum];

/// The profiles the default grid sweeps. Ideal keeps the plan as the only
/// fault source (clean attribution); lossy stacks the plan on a path that
/// already drops, probing how the overlays compound.
pub(crate) const GRID_PROFILES: [NetworkProfile; 2] =
    [NetworkProfile::Ideal, NetworkProfile::Lossy];

/// Sweep the [`FaultPlan::LADDER`] over every `(era, profile)` cell, one
/// cached [`quicert_scanner::QuicReachSummary`] per faulted rung and the
/// era matrix's cell as the fault-free one. Rows arrive grouped by
/// `(era, profile)` with the ladder in intensity order, baseline first.
pub(crate) fn fault_grid(
    campaign: &Campaign,
    eras: &[CertificateEra],
    profiles: &[NetworkProfile],
) -> Vec<ChaosCell> {
    let engine = campaign.engine();
    let mut cells = Vec::new();
    for &era in eras {
        for &profile in profiles {
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
                cells.push(ChaosCell {
                    plan,
                    era,
                    profile,
                    reachable: shard.classes.reachable(),
                    mean_rtts: shard.rtts.mean(),
                    added_rtts: shard.rtts.mean() - baseline.rtts.mean(),
                    client_retransmissions: shard.client_retransmissions,
                    server_retransmissions: shard.server_retransmissions,
                    fault_drops: shard.fault_drops,
                    fault_duplications: shard.fault_duplications,
                    fault_corruptions: shard.fault_corruptions,
                    stall_ms_total: shard.stall_ns_total as f64 / 1e6,
                });
            }
        }
    }
    cells
}

/// [`fault_grid`] over the default [`GRID_ERAS`] × [`GRID_PROFILES`] axes.
pub(crate) fn fault_grid_default(campaign: &Campaign) -> Vec<ChaosCell> {
    fault_grid(campaign, &GRID_ERAS, &GRID_PROFILES)
}

/// Render the chaos grid.
pub(crate) fn render_fault_grid(cells: &[ChaosCell]) -> String {
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
    for c in cells {
        t.row(&[
            c.era.to_string(),
            c.profile.name().to_string(),
            c.plan.to_string(),
            c.reachable.to_string(),
            format!("{:.3}", c.mean_rtts),
            format!("{:+.3}", c.added_rtts),
            c.client_retransmissions.to_string(),
            c.server_retransmissions.to_string(),
            c.fault_drops.to_string(),
            c.fault_duplications.to_string(),
            c.fault_corruptions.to_string(),
            format!("{:.1}", c.stall_ms_total),
        ]);
    }
    format!(
        "Chaos grid — loss-recovery cost per fault plan (vs the fault-free rung)\n{}",
        render_table(&t)
    )
}

// -------------------------------------------- resumption under faults --

/// One row of the resumption-under-faults sweep: the cold-then-warm scan
/// with one [`FaultPlan`] overlaid on both visits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosResumptionRow {
    /// The fault overlay scanned under.
    pub plan: FaultPlan,
    /// The ticket policy of the revisit.
    pub policy: ResumptionPolicy,
    /// Aggregate cold-vs-warm measurements.
    pub agg: WarmAggregate,
}

/// Sweep the ladder with working resumption on the campaign's default era
/// and the ideal profile: does the mitigation survive a misbehaving wire?
pub(crate) fn resumption_under_faults(campaign: &Campaign) -> Vec<ChaosResumptionRow> {
    let policy = ResumptionPolicy::WarmAfterFirstVisit;
    let base = campaign
        .scenario()
        .with_profile(NetworkProfile::Ideal)
        .with_policy(policy);
    FaultPlan::LADDER
        .iter()
        .map(|&plan| ChaosResumptionRow {
            plan,
            policy,
            agg: *campaign.engine().warm_scan(base.with_plan(plan)),
        })
        .collect()
}

/// Render the resumption-under-faults sweep.
pub(crate) fn render_resumption_under_faults(rows: &[ChaosResumptionRow]) -> String {
    let mut t = Table::new(&[
        "plan",
        "policy",
        "reachable",
        "resumed",
        "over 3x",
        "cert B warm",
        "mean saved",
    ]);
    for row in rows {
        t.row(&[
            row.plan.to_string(),
            row.policy.name().to_string(),
            row.agg.cold_reachable.to_string(),
            row.agg.resumed.to_string(),
            row.agg.resumed_over_budget.to_string(),
            row.agg.warm_cert_bytes.to_string(),
            format!("{:.2}", row.agg.mean_rtts_saved_multi()),
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
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(9).with_domains(1_200))
    }

    /// Total retransmissions, both directions.
    fn retransmissions(c: &ChaosCell) -> u64 {
        c.client_retransmissions + c.server_retransmissions
    }

    fn cell(cells: &[ChaosCell], plan: FaultPlan) -> &ChaosCell {
        cells
            .iter()
            .find(|c| {
                c.plan == plan
                    && c.era == CertificateEra::Classical
                    && c.profile == NetworkProfile::Ideal
            })
            .expect("grid holds every ladder rung")
    }

    #[test]
    fn recovery_cost_scales_with_fault_intensity() {
        let c = campaign();
        let cells = fault_grid(&c, &[CertificateEra::Classical], &[NetworkProfile::Ideal]);
        assert_eq!(cells.len(), FaultPlan::LADDER.len());

        let none = cell(&cells, FaultPlan::NONE);
        let light = cell(&cells, FaultPlan::LIGHT);
        let heavy = cell(&cells, FaultPlan::HEAVY);
        let storm = cell(&cells, FaultPlan::DUP_STORM);

        // The fault-free rung is its own baseline: zero faults, zero
        // retransmissions, zero added round trips on the ideal profile.
        assert_eq!(none.fault_drops + none.fault_duplications, 0);
        assert_eq!(retransmissions(none), 0);
        assert_eq!(none.added_rtts, 0.0);

        // Cost rises monotonically with the ladder.
        assert!(light.fault_drops > 0, "light plan drops datagrams");
        assert!(heavy.fault_drops > light.fault_drops);
        assert!(retransmissions(heavy) > retransmissions(light));
        assert!(retransmissions(heavy) > 0);
        assert!(
            heavy.added_rtts > 0.0,
            "recovery costs round trips: {:+.3}",
            heavy.added_rtts
        );

        // The duplication storm duplicates without dropping — the
        // previously dead duplicating injector, live in the grid.
        assert!(storm.fault_duplications > 0);
        assert_eq!(storm.fault_drops, 0);
        assert_eq!(
            retransmissions(storm),
            0,
            "duplication alone never forces a retransmission"
        );
    }

    #[test]
    fn every_rung_is_measured_against_its_own_cells_fault_free_scan() {
        let c = campaign();
        let cells = fault_grid(&c, &GRID_ERAS, &[NetworkProfile::Ideal]);
        // An independent pass per era, on an engine of its own.
        let fresh = campaign();
        for era in GRID_ERAS {
            let own = fresh.engine().quicreach(c.scenario().with_era(era));
            let own = &own.shard;
            let rung = |plan| {
                let found = cells.iter().find(|x| x.era == era && x.plan == plan);
                found.expect("grid holds every ladder rung")
            };
            let none = rung(FaultPlan::NONE);
            assert_eq!(none.reachable, own.classes.reachable(), "{era}");
            assert_eq!(none.mean_rtts.to_bits(), own.rtts.mean().to_bits(), "{era}");
            assert_eq!(none.added_rtts, 0.0, "{era}");
            for plan in &FaultPlan::LADDER[1..] {
                let cell = rung(*plan);
                let added = cell.mean_rtts - own.rtts.mean();
                assert_eq!(cell.added_rtts.to_bits(), added.to_bits(), "{era} {plan}");
            }
        }
    }

    #[test]
    fn resumption_survives_the_ladder() {
        let c = campaign();
        let rows = resumption_under_faults(&c);
        assert_eq!(rows.len(), FaultPlan::LADDER.len());
        for row in &rows {
            // Resumption keeps working under every plan — but heavy loss
            // eats some tickets and warm flights, so the bar scales with
            // intensity: ≥90% on benign rungs, a clear majority even on
            // the heavy rung.
            let (num, den) = if row.plan == FaultPlan::HEAVY {
                (2, 3)
            } else {
                (9, 10)
            };
            assert!(
                row.agg.resumed * den >= row.agg.cold_reachable * num,
                "{}: {}/{} resumed",
                row.plan,
                row.agg.resumed,
                row.agg.cold_reachable
            );
            assert_eq!(row.agg.resumed_with_cert_bytes, 0, "{}", row.plan);
        }
    }

    #[test]
    fn renders_mention_every_ladder_rung() {
        let c = campaign();
        let grid = render_fault_grid(&fault_grid(
            &c,
            &[CertificateEra::Classical],
            &[NetworkProfile::Ideal],
        ));
        let resumption = render_resumption_under_faults(&resumption_under_faults(&c));
        for plan in FaultPlan::LADDER {
            assert!(grid.contains(plan.name), "grid missing {plan}");
            assert!(resumption.contains(plan.name), "resumption missing {plan}");
        }
        assert!(grid.contains("added RTTs"));
    }
}
