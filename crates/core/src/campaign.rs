//! A measurement campaign: one world plus the [`ScanEngine`] computing and
//! caching every scan artifact the report and experiments consume.

use quicert_pki::{World, WorldConfig};
use quicert_scanner::Scenario;
use quicert_session::ResumptionPolicy;

use crate::engine::ScanEngine;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// The [`Scenario`] the campaign's engine defaults to: what every
    /// axis-unaware scan runs under. The default — the paper's 1362-byte
    /// Initial (close to Firefox's 1357), classical era, ideal path, no
    /// faults, revisited warm after the first visit — reproduces
    /// axis-unaware campaigns byte-for-byte; the report's matrices scan
    /// explicit eras, profiles and plans regardless of it, and only
    /// warm-scan artifacts read the resumption policy.
    pub scenario: Scenario,
    /// Scan worker threads: `0` resolves to one per available core, `1`
    /// forces the serial path. Results are bit-for-bit identical at any
    /// setting.
    pub workers: usize,
}

impl CampaignConfig {
    /// A small configuration for tests and examples (2k domains).
    pub fn small() -> Self {
        CampaignConfig::standard().with_domains(2_000)
    }

    /// The default 1:50-scale configuration (20k domains).
    pub fn standard() -> Self {
        CampaignConfig {
            world: WorldConfig::default(),
            scenario: Scenario::at(1362).with_policy(ResumptionPolicy::WarmAfterFirstVisit),
            workers: 0,
        }
    }

    /// Override the seed (useful for replication runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.world.seed = seed;
        self
    }

    /// Override the number of domains.
    pub fn with_domains(mut self, domains: usize) -> Self {
        self.world.domains = domains;
        self
    }

    /// Override the scan worker count (`0` = one per available core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::standard()
    }
}

/// One measurement campaign.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
    engine: ScanEngine,
}

impl Campaign {
    /// A campaign over `config`: the engine over its world, defaulting to
    /// its scenario. Nothing is derived until a scan asks.
    pub fn new(config: CampaignConfig) -> Campaign {
        let (initial, workers) = (config.scenario.initial_size, config.workers);
        let engine = ScanEngine::streaming(config.world.clone(), initial, workers)
            .with_scenario(config.scenario);
        Campaign { config, engine }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The scan engine holding every cached artifact; every scan family is
    /// requested here — `campaign.engine().https_scan()`,
    /// `campaign.engine().quicreach(campaign.scenario().with_era(..))`.
    pub fn engine(&self) -> &ScanEngine {
        &self.engine
    }

    /// The campaign's default [`Scenario`] (the configured axes at the
    /// default Initial size): scan under it as-is or vary one axis.
    pub fn scenario(&self) -> Scenario {
        self.engine.scenario()
    }

    /// The campaign's world.
    pub fn world(&self) -> &World {
        self.engine.world()
    }

    /// The rank-group width used for Figs 12/13 (the paper uses 100k groups
    /// over 1M domains; scaled worlds use domains/10).
    pub(crate) fn rank_group_width(&self) -> usize {
        (self.config.world.domains / 10).max(1)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use quicert_compress::Algorithm;

    #[test]
    fn artifacts_are_cached() {
        let campaign = Campaign::new(CampaignConfig::small().with_seed(5));
        // Every artifact family returns the same allocation on re-request.
        let engine = campaign.engine();
        assert!(Arc::ptr_eq(&engine.https_scan(), &engine.https_scan()));
        let scenario = campaign.scenario();
        assert!(Arc::ptr_eq(
            &engine.quicreach(scenario),
            &engine.quicreach(scenario)
        ));
        // The default scenario is the configured axes at the default size.
        assert_eq!(scenario, campaign.config().scenario);
        assert!(Arc::ptr_eq(
            &engine.warm_scan(scenario),
            &engine.warm_scan(scenario)
        ));
        assert!(Arc::ptr_eq(&engine.qscanner(), &engine.qscanner()));
        assert!(Arc::ptr_eq(
            &engine.compression_support(),
            &engine.compression_support()
        ));
        assert!(Arc::ptr_eq(
            &engine.compression_study(scenario.era, Algorithm::Brotli, 50),
            &engine.compression_study(scenario.era, Algorithm::Brotli, 50)
        ));
        assert!(Arc::ptr_eq(&engine.telescope(2), &engine.telescope(2)));
        assert!(Arc::ptr_eq(
            &engine.meta_pop(false, 0),
            &engine.meta_pop(false, 0)
        ));
        assert!(!engine.quicreach(scenario).is_empty());
    }

    #[test]
    fn rank_group_width_scales() {
        let c = Campaign::new(CampaignConfig::small().with_domains(5_000));
        assert_eq!(c.rank_group_width(), 500);
    }

    #[test]
    fn campaign_streaming_accessors_match_the_materialized_artifacts() {
        use quicert_scanner::https_scan::{self, HttpsScanShard};
        use quicert_scanner::quicreach::{self, QuicReachShard};

        // Held to the scanners' own whole-world scans — no engine, no pump,
        // no memo — not to the engine's collected artefacts, which ride the
        // same loop as the summaries.
        let campaign = Campaign::new(CampaignConfig::small().with_seed(5).with_domains(1_000));
        let (engine, scenario) = (campaign.engine(), campaign.scenario());
        assert_eq!(scenario.cold(), Scenario::at(scenario.initial_size));
        let oracle = quicreach::scan(campaign.world(), scenario.initial_size);
        let streamed = engine.stream_quicreach(scenario);
        assert_eq!(
            *streamed,
            QuicReachShard::from_results(scenario.initial_size, &oracle)
        );
        assert!(Arc::ptr_eq(&streamed, &engine.stream_quicreach(scenario)));
        assert_eq!(*engine.quicreach(scenario), oracle);
        assert_eq!(
            *engine.stream_https_scan(),
            HttpsScanShard::from_report(&https_scan::scan(campaign.world()))
        );
    }

    #[test]
    fn worker_count_does_not_change_artifacts() {
        let serial = Campaign::new(CampaignConfig::small().with_seed(5).with_workers(1));
        let parallel = Campaign::new(CampaignConfig::small().with_seed(5).with_workers(8));
        assert_eq!(
            *serial.engine().quicreach(serial.scenario()),
            *parallel.engine().quicreach(parallel.scenario())
        );
        assert_eq!(
            serial.engine().https_scan().observations.len(),
            parallel.engine().https_scan().observations.len()
        );
    }
}
