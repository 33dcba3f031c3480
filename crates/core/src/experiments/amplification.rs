//! Amplification-potential experiments: Fig 9 (telescope), the §4.3 ZMap
//! scan, Fig 11 (Meta before/after disclosure) and Table 3 (historical
//! policies).

use std::sync::Arc;

use quicert_analysis::{mean_ci95, render_table, Cdf, Table};
use quicert_netsim::{SimDuration, Wire};
use quicert_pki::ecosystem::{ChainId, LeafParams};
use quicert_pki::{CertificateEra, Provider};
use quicert_quic::{run_spoofed_probe, LimitPolicy, ServerBehavior, ServerConfig};
use quicert_scanner::telescope_scan::BackscatterSession;
use quicert_scanner::zmap::{MetaService, ZmapResult};
use quicert_x509::KeyAlgorithm;

use crate::Campaign;

// ----------------------------------------------------------------- Fig 9 --

/// Fig 9: telescope amplification CDFs per hypergiant.
#[derive(Debug)]
pub struct Fig9 {
    /// All reconstructed sessions, shared with the campaign's artifact.
    pub sessions: Arc<Vec<BackscatterSession>>,
}

/// Collect backscatter sessions (spoofed probes against hypergiants) from
/// the campaign's cached artifact.
pub fn fig9(campaign: &Campaign, per_provider: usize) -> Fig9 {
    Fig9 {
        sessions: campaign.engine().telescope(per_provider),
    }
}

impl Fig9 {
    /// The amplification CDF of one provider.
    pub fn cdf(&self, provider: Provider) -> Cdf {
        Cdf::new(
            self.sessions
                .iter()
                .filter(|s| s.provider == provider)
                .map(|s| s.amplification)
                .collect(),
        )
    }

    /// Render headline numbers per provider.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["provider", "sessions", "median x", "p90 x", "max x"]);
        for provider in [Provider::Cloudflare, Provider::Google, Provider::Meta] {
            let cdf = self.cdf(provider);
            t.row(&[
                format!("{provider:?}"),
                cdf.len().to_string(),
                format!("{:.1}", cdf.median()),
                format!("{:.1}", cdf.quantile(0.9)),
                format!("{:.1}", cdf.range().1),
            ]);
        }
        format!(
            "Fig 9 — telescope amplification (resends included)\n{}",
            render_table(&t)
        )
    }
}

// ------------------------------------------------------------ ZMap (§4.3) --

/// The §4.3 active scan of a Meta point-of-presence.
#[derive(Debug)]
pub struct MetaPopScan {
    /// Per-host results, shared with the campaign's artifact.
    pub results: Arc<Vec<ZmapResult>>,
}

/// Scan the Meta PoP (pre- or post-disclosure fleet) from the campaign's
/// cached artifact.
pub fn meta_pop_scan(campaign: &Campaign, post_disclosure: bool) -> MetaPopScan {
    MetaPopScan {
        results: campaign.engine().meta_pop(post_disclosure, 0),
    }
}

impl MetaPopScan {
    /// Mean response bytes per service group.
    pub(crate) fn group_mean_bytes(&self, service: MetaService) -> f64 {
        let bytes: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.service == service)
            .map(|r| r.response_bytes as f64)
            .collect();
        quicert_analysis::mean(&bytes)
    }

    /// Render the three groups.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["group", "domains", "mean bytes", "mean x"]);
        for service in [
            MetaService::None,
            MetaService::Facebook,
            MetaService::InstagramWhatsapp,
        ] {
            let factors: Vec<f64> = self
                .results
                .iter()
                .filter(|r| r.service == service)
                .map(|r| r.amplification)
                .collect();
            t.row(&[
                format!("{service:?}"),
                service.domains().to_string(),
                format!("{:.0}", self.group_mean_bytes(service)),
                format!("{:.1}", quicert_analysis::mean(&factors)),
            ]);
        }
        format!(
            "§4.3 — Meta PoP /24 single-Initial scan\n{}",
            render_table(&t)
        )
    }
}

// ---------------------------------------------------------------- Fig 11 --

/// Fig 11: mean amplification per host octet with 95% CIs, before and
/// after the responsible disclosure.
#[derive(Debug)]
pub struct Fig11 {
    /// (octet, mean amplification, CI95 half-width) pre-disclosure.
    pub before: Vec<(u8, f64, f64)>,
    /// Same, post-disclosure.
    pub after: Vec<(u8, f64, f64)>,
}

/// Probe each PoP host `reps` times (certificate deployments vary slightly
/// per repetition, yielding the paper's confidence intervals).
pub fn fig11(campaign: &Campaign, reps: usize) -> Fig11 {
    let run = |post: bool| -> Vec<(u8, f64, f64)> {
        let mut per_octet: Vec<(u8, Vec<f64>)> = Vec::new();
        for rep in 0..reps.max(1) {
            let results = campaign.engine().meta_pop(post, rep as u64);
            for r in results.iter() {
                if r.service == MetaService::None {
                    continue;
                }
                match per_octet.iter_mut().find(|(o, _)| *o == r.octet) {
                    Some((_, v)) => v.push(r.amplification),
                    None => per_octet.push((r.octet, vec![r.amplification])),
                }
            }
        }
        per_octet
            .into_iter()
            .map(|(octet, factors)| {
                let (mean, ci) = mean_ci95(&factors);
                (octet, mean, ci)
            })
            .collect()
    };
    Fig11 {
        before: run(false),
        after: run(true),
    }
}

impl Fig11 {
    /// Mean amplification across all served octets.
    pub(crate) fn overall_mean(values: &[(u8, f64, f64)]) -> f64 {
        let means: Vec<f64> = values.iter().map(|(_, m, _)| *m).collect();
        quicert_analysis::mean(&means)
    }

    /// Render the before/after comparison.
    pub fn render(&self) -> String {
        format!(
            "Fig 11 — Meta per-host amplification: before disclosure mean {:.1}x \
             (max {:.1}x), after disclosure mean {:.1}x (max {:.1}x)\n",
            Self::overall_mean(&self.before),
            self.before.iter().map(|(_, m, _)| *m).fold(0.0, f64::max),
            Self::overall_mean(&self.after),
            self.after.iter().map(|(_, m, _)| *m).fold(0.0, f64::max),
        )
    }
}

// --------------------------------------------------------------- Table 3 --

/// Table 3: the historical anti-amplification policies, each exercised
/// against a spoofing adversary.
#[derive(Debug)]
pub struct Table3 {
    /// (policy, observed amplification factor for a spoofed probe).
    pub rows: Vec<(LimitPolicy, f64)>,
}

/// Run the ablation: the same (well-behaved) server under each policy.
pub fn table3(campaign: &Campaign) -> Table3 {
    let world = campaign.world();
    let chain = world.ecosystem.issue_era(
        ChainId::LeR3X1Cross,
        CertificateEra::Classical,
        LeafParams {
            common_name: "policy-ablation.example".into(),
            extra_sans: vec![],
            key: KeyAlgorithm::Rsa2048,
            scts: 2,
            seed: 0x7AB3,
        },
    );
    let rows = LimitPolicy::HISTORY
        .iter()
        .map(|&policy| {
            let mut behavior = ServerBehavior::rfc_compliant();
            behavior.limit_policy = policy;
            // Generous retransmission budget so the *policy* is the
            // binding constraint, as in the drafts' threat model.
            behavior.max_transmissions = 6;
            let config = ServerConfig {
                behavior,
                chain: chain.clone(),
                leaf_key: KeyAlgorithm::Rsa2048,
                compression_support: vec![],
                resumption: None,
                seed: 0x7AB3,
            };
            let mut wire = Wire::ideal(SimDuration::from_millis(15));
            let out = run_spoofed_probe(
                1252,
                std::net::Ipv4Addr::new(44, 1, 1, 1),
                std::net::Ipv4Addr::new(198, 51, 100, 77),
                config,
                &mut wire,
                0x7AB3,
            );
            (policy, out.amplification())
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Render the policy table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["policy", "spoofed-probe amplification"]);
        for (policy, amp) in &self.rows {
            t.row(&[policy.label().to_string(), format!("{amp:.1}x")]);
        }
        format!(
            "Table 3 — historical anti-amplification policies\n{}",
            render_table(&t)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(31).with_domains(12_000))
    }

    #[test]
    fn fig9_ordering_matches_paper() {
        let c = campaign();
        let fig = fig9(&c, 8);
        let meta = fig.cdf(Provider::Meta);
        let cf = fig.cdf(Provider::Cloudflare);
        let google = fig.cdf(Provider::Google);
        assert!(meta.range().1 > 15.0, "meta max {}", meta.range().1);
        assert!(cf.median() < 10.0);
        assert!(google.median() < 10.0);
        assert!(!fig.render().is_empty());
    }

    #[test]
    fn meta_pop_groups_match_section_4_3() {
        let c = campaign();
        let scan = meta_pop_scan(&c, false);
        assert!(scan.group_mean_bytes(MetaService::None) < 150.0);
        let fb = scan.group_mean_bytes(MetaService::Facebook);
        let ig = scan.group_mean_bytes(MetaService::InstagramWhatsapp);
        // Paper: ~7k vs ~35k.
        assert!((4_000.0..14_000.0).contains(&fb), "facebook {fb}");
        assert!(ig > 25_000.0, "instagram {ig}");
        assert!(!scan.render().is_empty());
    }

    #[test]
    fn fig11_disclosure_reduces_amplification() {
        let c = campaign();
        let fig = fig11(&c, 3);
        let before = Fig11::overall_mean(&fig.before);
        let after = Fig11::overall_mean(&fig.after);
        assert!(before > after + 3.0, "before {before} after {after}");
        // Fig 11(b): post-disclosure mean ~5x, still above the limit.
        assert!((3.0..9.5).contains(&after), "after {after}");
        assert!(fig.before.iter().all(|(_, _, ci)| *ci >= 0.0));
    }

    #[test]
    fn table3_policies_tighten_over_time() {
        let c = campaign();
        let t = table3(&c);
        assert_eq!(t.rows.len(), 4);
        let amp_of = |p: LimitPolicy| {
            t.rows
                .iter()
                .find(|(policy, _)| *policy == p)
                .map(|(_, a)| *a)
                .unwrap()
        };
        let unlimited = amp_of(LimitPolicy::Unlimited);
        let bytes3x = amp_of(LimitPolicy::ThreeTimesBytes);
        assert!(unlimited > bytes3x, "{unlimited} > {bytes3x}");
        assert!(bytes3x <= 3.0 + 1e-9, "final policy respects 3x: {bytes3x}");
        // The packet/datagram-count policies sit in between (they bound
        // packets, not bytes, so can exceed 3x in bytes).
        let pkts = amp_of(LimitPolicy::ThreePackets);
        let dgrams = amp_of(LimitPolicy::ThreeDatagrams);
        assert!(pkts <= unlimited && dgrams <= unlimited);
        assert!(!t.render().is_empty());
    }
}
