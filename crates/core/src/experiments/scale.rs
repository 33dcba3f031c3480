//! The "Population scale" experiment: the paper's headline measurements
//! recomputed at growing population sizes through the streaming scan path.
//!
//! The paper scans ~1M domains; the per-record artefacts top out far
//! earlier because every layer holds per-record vectors. Each row here
//! builds a [`quicert_pki::World::streaming`] population of the requested size — never
//! materialized — and pumps it through [`ScanEngine::stream_https_scan`]
//! and [`ScanEngine::quicreach`], so memory stays bounded by one claimed
//! chunk of records per worker while the summaries (funnel counters,
//! handshake-class shares, chain-size quantile sketches) are bit-for-bit
//! what a materialized scan of the same population would produce.

use std::sync::Arc;

use quicert_pki::WorldConfig;
use quicert_scanner::https_scan::HttpsScanShard;
use quicert_scanner::quicreach::QuicReachSummary;

use quicert_analysis::{render_table, Table};
use quicert_quic::handshake::HandshakeClass;

use super::class_share;
use crate::engine::ScanEngine;
use crate::Campaign;

/// The paper-scale population ladder: the full report and the
/// `examples/at_scale` tour measure at these absolute sizes.
pub const PAPER_SCALE_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Resolve a requested size ladder: `0` entries derive from the campaign's
/// own world size as `[n/2, n, 5n]`, so tests and small reports scale
/// their ladder down while explicit requests (the `repro` harness passes
/// [`PAPER_SCALE_SIZES`]) measure the absolute populations.
pub(crate) fn resolve_sizes(requested: [usize; 3], world_domains: usize) -> [usize; 3] {
    let n = world_domains.max(2);
    let derived = [n / 2, n, 5 * n];
    let mut sizes = [0usize; 3];
    for (i, (&req, der)) in requested.iter().zip(derived).enumerate() {
        sizes[i] = if req == 0 { der } else { req };
    }
    sizes
}

/// Stream one population size with a campaign's scan parameters (same
/// seed, Initial size and workers — only the domain count varies): the
/// streamed §3.1 funnel and chain-size summary, and the streamed quicreach
/// summary at the campaign's default Initial size.
fn scale_row(
    campaign: &Campaign,
    population: usize,
) -> (Arc<HttpsScanShard>, Arc<QuicReachSummary>) {
    let config = WorldConfig {
        domains: population,
        ..campaign.config().world.clone()
    };
    let engine = ScanEngine::streaming(
        config,
        campaign.scenario().initial_size,
        campaign.config().workers,
    )
    .with_scenario(campaign.scenario());
    (
        engine.stream_https_scan(),
        engine.quicreach(engine.scenario()),
    )
}

/// The population-scale ladder, one streamed row per size: adoption
/// funnel, handshake-class shares among reachable services, and chain-size
/// quantiles from the streaming sketches (64-byte quantile error bound).
pub fn population_scale(campaign: &Campaign, sizes: &[usize]) -> String {
    let mut t = Table::new(&[
        "population",
        "TLS",
        "QUIC",
        "reachable",
        "ampl %",
        "multi %",
        "1-RTT %",
        "unreach %",
        "chain p50",
        "p90",
        "p99",
    ]);
    for &population in sizes {
        let (funnel, reach) = scale_row(campaign, population);
        let classes = &reach.shard.classes;
        t.row(&[
            population.to_string(),
            funnel.tls_reachable.to_string(),
            funnel.quic_services.to_string(),
            classes.reachable().to_string(),
            class_share(classes, HandshakeClass::Amplification),
            class_share(classes, HandshakeClass::MultiRtt),
            class_share(classes, HandshakeClass::OneRtt),
            class_share(classes, HandshakeClass::Unreachable),
            format!("{:.0}", funnel.chain_der.quantile(0.5)),
            format!("{:.0}", funnel.chain_der.quantile(0.9)),
            format!("{:.0}", funnel.chain_der.quantile(0.99)),
        ]);
    }
    format!(
        "Population scale — streamed scans in bounded memory \
         (summaries only, no per-record artifacts)\n{}",
        render_table(&t)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;
    use quicert_scanner::quicreach::QuicReachShard;
    use quicert_scanner::{https_scan, quicreach, Scenario};

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(13).with_domains(1_000))
    }

    #[test]
    fn sizes_resolve_relative_or_absolute() {
        assert_eq!(resolve_sizes([0, 0, 0], 1_000), [500, 1_000, 5_000]);
        assert_eq!(
            resolve_sizes([10_000, 0, 1_000_000], 1_000),
            [10_000, 1_000, 1_000_000]
        );
    }

    #[test]
    fn scale_rows_stream_without_materializing() {
        let c = campaign();
        let [small, large] = [400, 1_000].map(|n| scale_row(&c, n));
        for (population, (funnel, reach)) in [(400, &small), (1_000, &large)] {
            assert!(funnel.total == population as u64);
            assert!(funnel.quic_services > 0);
            assert_eq!(reach.shard.total() as u64, funnel.quic_services);
            // Chain-size quantiles are populated and ordered.
            let (p50, p99) = (
                funnel.chain_der.quantile(0.5),
                funnel.chain_der.quantile(0.99),
            );
            assert!(p50 > 500.0, "p50 {p50}");
            assert!(p99 >= p50);
        }
        // More population, more services.
        assert!(large.0.quic_services > small.0.quic_services);
        let rendered = population_scale(&c, &[400, 1_000]);
        assert!(rendered.contains("Population scale"));
        assert!(rendered.contains("400"));
    }

    #[test]
    fn scale_row_at_the_campaign_size_matches_the_materialized_scan() {
        // The ladder row whose population equals the campaign's own world
        // must agree exactly with the scanners' whole-world scans of that
        // world — a serial per-record map, no engine — same seed, same
        // records, different memory model.
        let c = campaign();
        let (funnel, reach) = scale_row(&c, 1_000);
        let initial = c.scenario().initial_size;
        assert_eq!(c.scenario().cold(), Scenario::at(initial));
        let rows = quicreach::scan(c.world(), initial);
        let materialized = QuicReachShard::from_results(initial, &rows).classes;
        assert_eq!(reach.shard.classes, materialized);
        let report = https_scan::scan(c.world());
        assert_eq!(funnel.tls_reachable as usize, report.observations.len());
        assert_eq!(funnel.resolved as usize, report.resolved);
    }
}
