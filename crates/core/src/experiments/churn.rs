//! The "Ecosystem churn" experiment: the paper's headline distributions
//! re-measured along a deterministic churn timeline through the resident
//! [`CampaignService`].
//!
//! The paper scans one instant of a living ecosystem. This experiment
//! replays that ecosystem's life: certificates rotate and get revoked,
//! CA dictionaries drift, and providers migrate eras mid-campaign
//! (Chou & Cao's PQC-migration study is the motivating longitudinal
//! question). Each row is one tick's snapshot — served by a delta scan
//! that re-probed only the churned segments, bit-identical to a full
//! rescan — showing how the 1-RTT share collapses and the chain-size
//! distribution inflates as the era migration rolls through providers.

use quicert_churn::ChurnConfig;
use quicert_pki::world::Provider;
use quicert_pki::CertificateEra;
use quicert_quic::handshake::HandshakeClass;

use quicert_analysis::{render_table, Table};

use super::class_share;
use crate::service::{CampaignService, ServiceConfig, Snapshot, TickStats};
use crate::Campaign;

/// One scanned tick of the churn timeline.
#[derive(Debug, Clone)]
struct ChurnTickRow {
    /// The measured snapshot.
    snapshot: Snapshot,
    /// What the scan cost (delta-vs-full probe accounting).
    stats: TickStats,
}

/// The demo era-migration timeline for a campaign: sparse per-rank churn
/// every tick, Cloudflare migrating to hybrid at tick 2, Google at tick
/// 3, and Meta plus the self-hosted long tail to post-quantum at tick 5.
/// Fully derived from the campaign's world config, so the experiment is
/// deterministic per campaign.
pub fn era_migration_config(campaign: &Campaign) -> ServiceConfig {
    let world = &campaign.config().world;
    let churn = ChurnConfig::new(world.seed ^ 0x00C4_2A17, world.domains)
        .with_migration(2, Provider::Cloudflare, CertificateEra::Hybrid)
        .with_migration(3, Provider::Google, CertificateEra::Hybrid)
        .with_migration(5, Provider::Meta, CertificateEra::PostQuantum)
        .with_migration(5, Provider::SelfHosted, CertificateEra::PostQuantum);
    // Per-tick churn volume is fixed (sparse), so segments scale with the
    // population to keep non-migration ticks genuine deltas.
    ServiceConfig::new(campaign.config().clone(), churn)
        .with_segment_size((world.domains / 50).clamp(32, 1024))
}

/// The timeline's pass: snapshot every tick in `0..=ticks` of
/// [`era_migration_config`]'s timeline through the delta-scan path and
/// pair each snapshot with its scan stats.
fn timeline_rows(campaign: &Campaign, ticks: u64) -> Vec<ChurnTickRow> {
    let mut service = CampaignService::new(era_migration_config(campaign));
    // Every tick is new to the service, so each is scanned and logged.
    (0..=ticks)
        .filter_map(|tick| {
            let snapshot = service.snapshot_at(tick);
            let stats = service.tick_log().last().filter(|s| s.tick == tick)?;
            Some(ChurnTickRow {
                snapshot: (*snapshot).clone(),
                stats: *stats,
            })
        })
        .collect()
}

/// The era-migration timeline over `0..=ticks`: per-tick handshake-class
/// shares, chain-size quantiles, and the delta-scan probe accounting.
pub(crate) fn churn_timeline(campaign: &Campaign, ticks: u64) -> String {
    let mut t = Table::new(&[
        "tick",
        "churned",
        "1-RTT %",
        "multi %",
        "quic chain p50",
        "p90",
        "probed",
        "of full",
        "segments",
        "stek",
    ]);
    for row in timeline_rows(campaign, ticks) {
        let classes = &row.snapshot.reach.classes;
        let stats = &row.stats;
        t.row(&[
            row.snapshot.tick.to_string(),
            stats.changed_ranks.to_string(),
            class_share(classes, HandshakeClass::OneRtt),
            class_share(classes, HandshakeClass::MultiRtt),
            format!("{:.0}", row.snapshot.funnel.quic_chain_der.quantile(0.5)),
            format!("{:.0}", row.snapshot.funnel.quic_chain_der.quantile(0.9)),
            stats.probed.to_string(),
            stats.full_probe_count.to_string(),
            format!("{}/{}", stats.dirty_segments, stats.total_segments),
            row.snapshot.stek_epoch.to_string(),
        ]);
    }
    format!(
        "Ecosystem churn — delta scans along an era-migration timeline \
         (each row bit-identical to a full rescan at that tick)\n{}",
        render_table(&t)
    )
}

/// Render one snapshot as a point-in-time report block (the service's
/// `report_at`).
pub(crate) fn render_snapshot(snapshot: &Snapshot) -> String {
    let classes = &snapshot.reach.classes;
    format!(
        "Snapshot at tick {} (STEK epoch {})\n\
         funnel: {} attempted, {} TLS-reachable, {} QUIC\n\
         reachable {} | 1-RTT {}% | multi-RTT {}% | amplification-limited {}%\n\
         chain DER p50 {:.0} B, p90 {:.0} B, p99 {:.0} B",
        snapshot.tick,
        snapshot.stek_epoch,
        snapshot.funnel.total,
        snapshot.funnel.tls_reachable,
        snapshot.funnel.quic_services,
        classes.reachable(),
        class_share(classes, HandshakeClass::OneRtt),
        class_share(classes, HandshakeClass::MultiRtt),
        class_share(classes, HandshakeClass::Amplification),
        snapshot.funnel.chain_der.quantile(0.5),
        snapshot.funnel.chain_der.quantile(0.9),
        snapshot.funnel.chain_der.quantile(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(31).with_domains(800))
    }

    #[test]
    fn timeline_rows_cover_every_tick_and_shift_the_distributions() {
        let c = campaign();
        let rows = timeline_rows(&c, 5);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].snapshot.tick, 0);
        // Tick 0 scans everything (first fold); later sparse ticks are
        // true deltas.
        assert!(rows[1].stats.probed < rows[1].stats.full_probe_count);
        // By tick 5 every provider has migrated, so the QUIC chain-size
        // distribution inflates wholesale.
        let p50_before = rows[0].snapshot.funnel.quic_chain_der.quantile(0.5);
        let p50_after = rows[5].snapshot.funnel.quic_chain_der.quantile(0.5);
        assert!(
            p50_after > p50_before * 2.0,
            "p50 {p50_before} -> {p50_after}"
        );
        // And the 1-RTT share collapses: post-quantum chains do not fit
        // the amplification budget in one flight.
        let one_rtt_before = rows[0]
            .snapshot
            .reach
            .classes
            .share_of_reachable(HandshakeClass::OneRtt);
        let one_rtt_after = rows[5]
            .snapshot
            .reach
            .classes
            .share_of_reachable(HandshakeClass::OneRtt);
        assert!(
            one_rtt_after < one_rtt_before,
            "1-RTT {one_rtt_before} -> {one_rtt_after}"
        );
    }

    #[test]
    fn renders_mention_the_key_columns() {
        let c = campaign();
        let rendered = churn_timeline(&c, 2);
        assert!(rendered.contains("Ecosystem churn"));
        assert!(rendered.contains("1-RTT %"));
        assert!(rendered.contains("chain p50"));
        let rows = timeline_rows(&c, 2);
        let snap = render_snapshot(&rows[2].snapshot);
        assert!(snap.contains("Snapshot at tick 2"));
        assert!(snap.contains("chain DER p50"));
    }
}
