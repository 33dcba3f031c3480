//! Handshake-classification experiments: Figs 3, 4, 5, 12, 13 and the
//! §4.1 reachability analysis.

use quicert_analysis::{render_table, Cdf, Table};
use quicert_netsim::NetworkProfile;
use quicert_quic::amplification;
use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::quicreach::{self, QuicReachResult, ScanSummary};

use crate::Campaign;

// ----------------------------------------------------------------- Fig 3 --

/// Fig 3: handshake classes per client Initial size.
#[derive(Debug)]
pub struct Fig3 {
    /// One summary per swept size (1200..=1472 step 10).
    pub bars: Vec<ScanSummary>,
}

/// Summarise the campaign's cached quicreach artefact at every swept
/// Initial size (each a pass of its own the first time it is asked for).
pub fn fig3(campaign: &Campaign) -> Fig3 {
    let bar = |&size: &usize| {
        let scenario = campaign.scenario().with_initial_size(size);
        quicreach::summarize(size, &campaign.engine().quicreach(scenario))
    };
    Fig3 {
        bars: quicreach::sweep_sizes().iter().map(bar).collect(),
    }
}

impl Fig3 {
    /// The bar at a given Initial size.
    pub fn at(&self, initial_size: usize) -> Option<&ScanSummary> {
        self.bars.iter().find(|b| b.initial_size == initial_size)
    }

    /// Render the stacked-bar data.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "initial",
            "amplification",
            "multi-RTT",
            "RETRY",
            "1-RTT",
            "unreachable",
        ]);
        for bar in self.bars.iter() {
            t.row(&[
                bar.initial_size.to_string(),
                bar.amplification.to_string(),
                bar.multi_rtt.to_string(),
                bar.retry.to_string(),
                bar.one_rtt.to_string(),
                bar.unreachable.to_string(),
            ]);
        }
        format!(
            "Fig 3 — handshake classes vs Initial size\n{}",
            render_table(&t)
        )
    }
}

// ----------------------------------------------------------------- Fig 4 --

/// Fig 4: CDF of first-RTT amplification factors for handshakes that
/// exceed the limit (the paper's 165k amplifying services).
pub fn fig4(campaign: &Campaign) -> Cdf {
    Cdf::new(
        campaign
            .engine()
            .quicreach(campaign.scenario())
            .iter()
            .filter(|r| r.class == HandshakeClass::Amplification)
            .map(|r| r.amplification)
            .collect(),
    )
}

/// Render Fig 4 headline numbers.
pub(crate) fn render_fig4(cdf: &Cdf) -> String {
    format!(
        "Fig 4 — first-RTT amplification (amplifying handshakes, n={}): \
         min {:.2}x, median {:.2}x, p99 {:.2}x, max {:.2}x\n",
        cdf.len(),
        cdf.range().0,
        cdf.median(),
        cdf.quantile(0.99),
        cdf.range().1,
    )
}

// ----------------------------------------------------------------- Fig 5 --

/// Fig 5: per-handshake payload split for multi-RTT handshakes.
#[derive(Debug)]
pub struct Fig5 {
    /// (TLS payload bytes, total received bytes) per multi-RTT handshake,
    /// ascending by total.
    pub handshakes: Vec<(usize, usize)>,
    /// The 3× limit at the default Initial size.
    pub limit: usize,
}

/// Compute Fig 5.
pub fn fig5(campaign: &Campaign) -> Fig5 {
    let mut handshakes: Vec<(usize, usize)> = campaign
        .engine()
        .quicreach(campaign.scenario())
        .iter()
        .filter(|r| r.class == HandshakeClass::MultiRtt)
        .map(|r| (r.tls_received, r.wire_received))
        .collect();
    handshakes.sort_by_key(|(_, wire)| *wire);
    Fig5 {
        handshakes,
        limit: amplification::limit(campaign.scenario().initial_size),
    }
}

impl Fig5 {
    /// Share of multi-RTT handshakes whose TLS payload alone exceeds the
    /// limit (paper: 87%).
    pub fn tls_alone_exceeds(&self) -> f64 {
        let n = self
            .handshakes
            .iter()
            .filter(|(tls, _)| *tls > self.limit)
            .count();
        n as f64 / self.handshakes.len().max(1) as f64
    }

    /// Render the headline numbers.
    pub fn render(&self) -> String {
        format!(
            "Fig 5 — multi-RTT payloads (n={}): TLS alone exceeds the {} B \
             limit in {:.1}% of handshakes\n",
            self.handshakes.len(),
            self.limit,
            self.tls_alone_exceeds() * 100.0,
        )
    }
}

// ----------------------------------------------------------- Figs 12/13 --

/// Per-rank-group service shares (Fig 12) and class shares (Fig 13).
#[derive(Debug, PartialEq)]
pub struct RankGroupRow {
    /// Group index (0 = most popular).
    pub group: usize,
    /// Domains in the group.
    pub domains: usize,
    /// QUIC service share, percent of domains.
    pub quic_share: f64,
    /// HTTPS-only share, percent of domains.
    pub https_only_share: f64,
    /// Handshake class shares among the group's reachable QUIC services
    /// (amplification, multi, retry, one-rtt), in percent.
    pub class_shares: [f64; 4],
}

/// Compute Figs 12 and 13 from the cached HTTPS scan (who serves QUIC,
/// who HTTPS only) and the default-size quicreach scan (classes).
pub fn rank_groups(campaign: &Campaign) -> Vec<RankGroupRow> {
    let width = campaign.rank_group_width();
    let domains = campaign.world().config.domains;
    let results = campaign.engine().quicreach(campaign.scenario());
    let group_count = domains.div_ceil(width);
    let mut rows: Vec<RankGroupRow> = (0..group_count)
        .map(|group| RankGroupRow {
            group,
            domains: width.min(domains - group * width),
            quic_share: 0.0,
            https_only_share: 0.0,
            class_shares: [0.0; 4],
        })
        .collect();
    let mut quic_counts = vec![0usize; group_count];
    let mut https_counts = vec![0usize; group_count];
    for o in &campaign.engine().https_scan().observations {
        let counts = if o.is_quic {
            &mut quic_counts
        } else {
            &mut https_counts
        };
        counts[(o.rank - 1) / width] += 1;
    }
    let mut class_counts = vec![[0usize; 4]; group_count];
    let mut reachable = vec![0usize; group_count];
    for r in results.iter() {
        let g = (r.rank - 1) / width;
        let idx = match r.class {
            HandshakeClass::Amplification => 0,
            HandshakeClass::MultiRtt => 1,
            HandshakeClass::Retry => 2,
            HandshakeClass::OneRtt => 3,
            HandshakeClass::Unreachable => continue,
        };
        class_counts[g][idx] += 1;
        reachable[g] += 1;
    }
    for (g, row) in rows.iter_mut().enumerate() {
        let n = row.domains.max(1) as f64;
        row.quic_share = quic_counts[g] as f64 / n * 100.0;
        row.https_only_share = https_counts[g] as f64 / n * 100.0;
        let total = reachable[g].max(1) as f64;
        for (i, share) in row.class_shares.iter_mut().enumerate() {
            *share = class_counts[g][i] as f64 / total * 100.0;
        }
    }
    rows
}

/// Render Figs 12 and 13.
pub fn render_rank_groups(rows: &[RankGroupRow]) -> String {
    let mut t = Table::new(&[
        "group",
        "QUIC %",
        "HTTPS-only %",
        "ampl %",
        "multi %",
        "retry %",
        "1-RTT %",
    ]);
    for row in rows {
        t.row(&[
            row.group.to_string(),
            format!("{:.1}", row.quic_share),
            format!("{:.1}", row.https_only_share),
            format!("{:.2}", row.class_shares[0]),
            format!("{:.2}", row.class_shares[1]),
            format!("{:.2}", row.class_shares[2]),
            format!("{:.2}", row.class_shares[3]),
        ]);
    }
    format!("Figs 12/13 — per rank group\n{}", render_table(&t))
}

// ------------------------------------------------------ network profiles --

/// One row of the network-profile scenario matrix: the default-size scan
/// repeated under one [`NetworkProfile`].
#[derive(Debug, Clone)]
pub(crate) struct ProfileRow {
    /// The link-condition overlay scanned under.
    pub profile: NetworkProfile,
    /// Class counts at the campaign's default Initial size.
    pub summary: ScanSummary,
    /// Total datagrams the profile's fault injectors dropped across all
    /// probes (0 on the ideal profile).
    pub fault_drops: u64,
    /// Total datagrams the profile's fault injectors corrupted.
    pub fault_corruptions: u64,
}

/// Scan the QUIC population at the default Initial size under every
/// [`NetworkProfile`]. On a default (ideal-profile) campaign the ideal row
/// shares the cached default-scan artifact — same `(profile, size)` cache
/// key — so only the non-ideal profiles cost new handshakes; a campaign
/// configured with a non-ideal default profile scans its ideal row fresh.
pub(crate) fn profile_matrix(campaign: &Campaign) -> Vec<ProfileRow> {
    let initial = campaign.scenario().initial_size;
    NetworkProfile::ALL
        .iter()
        .map(|&profile| {
            let results = campaign
                .engine()
                .quicreach(campaign.scenario().with_profile(profile));
            ProfileRow {
                profile,
                summary: quicreach::summarize(initial, &results),
                fault_drops: results.iter().map(|r| r.fault_drops).sum(),
                fault_corruptions: results.iter().map(|r| r.fault_corruptions).sum(),
            }
        })
        .collect()
}

/// Render the scenario matrix: class shares among reachable services,
/// unreachability against the full population, and the per-profile fault
/// counters.
pub(crate) fn render_profile_matrix(rows: &[ProfileRow]) -> String {
    let mut t = Table::new(&[
        "profile",
        "reachable",
        "ampl %",
        "multi %",
        "retry %",
        "1-RTT %",
        "unreach %",
        "drops",
        "corrupt",
    ]);
    for row in rows {
        t.row(&[
            row.profile.name().to_string(),
            row.summary.reachable().to_string(),
            format!(
                "{:.1}",
                row.summary
                    .share_of_reachable(HandshakeClass::Amplification)
            ),
            format!(
                "{:.1}",
                row.summary.share_of_reachable(HandshakeClass::MultiRtt)
            ),
            format!(
                "{:.2}",
                row.summary.share_of_reachable(HandshakeClass::Retry)
            ),
            format!(
                "{:.2}",
                row.summary.share_of_reachable(HandshakeClass::OneRtt)
            ),
            format!(
                "{:.1}",
                row.summary.share_of_all(HandshakeClass::Unreachable)
            ),
            row.fault_drops.to_string(),
            row.fault_corruptions.to_string(),
        ]);
    }
    format!(
        "Network-profile matrix — handshake classes at the default Initial\n{}",
        render_table(&t)
    )
}

// ----------------------------------------------------- §4.1 reachability --

/// Reachability drop between the smallest and largest Initial sizes,
/// overall and for the top rank buckets.
#[derive(Debug)]
pub struct Reachability {
    /// (bucket label, reachable at 1200, reachable at 1472).
    pub buckets: Vec<(&'static str, usize, usize)>,
}

/// Compute the reachability experiment from the cached per-size artifacts
/// (free once the Fig 3 sweep has run — both sizes are sweep endpoints).
pub fn reachability(campaign: &Campaign) -> Reachability {
    let at = |size| {
        campaign
            .engine()
            .quicreach(campaign.scenario().with_initial_size(size))
    };
    let (small, large) = (at(1200), at(1472));
    let count = |results: &[QuicReachResult], lo: usize, hi: usize| {
        results
            .iter()
            .filter(|r| r.rank >= lo && r.rank <= hi && r.class != HandshakeClass::Unreachable)
            .count()
    };
    let n = campaign.world().config.domains;
    Reachability {
        buckets: vec![
            ("top-1k", count(&small, 1, 1_000), count(&large, 1, 1_000)),
            (
                "top-10k",
                count(&small, 1, 10_000),
                count(&large, 1, 10_000),
            ),
            ("all", count(&small, 1, n), count(&large, 1, n)),
        ],
    }
}

impl Reachability {
    /// Relative drop for a bucket, in percent.
    pub(crate) fn drop_pct(&self, label: &str) -> f64 {
        self.buckets
            .iter()
            .find(|(l, _, _)| *l == label)
            .map(|(_, small, large)| {
                (*small as f64 - *large as f64) / (*small).max(1) as f64 * 100.0
            })
            .unwrap_or(0.0)
    }

    /// Render.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["bucket", "reachable @1200", "reachable @1472", "drop %"]);
        for (label, small, large) in &self.buckets {
            t.row(&[
                label.to_string(),
                small.to_string(),
                large.to_string(),
                format!("{:.1}", self.drop_pct(label)),
            ]);
        }
        format!("§4.1 — reachability vs Initial size\n{}", render_table(&t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;

    fn campaign() -> Campaign {
        Campaign::new(CampaignConfig::small().with_seed(7).with_domains(2_500))
    }

    fn fig3_campaign(workers: usize) -> Campaign {
        let config = CampaignConfig::small().with_seed(0xD37E);
        Campaign::new(config.with_domains(1_200).with_workers(workers))
    }

    #[test]
    fn fig3_is_bit_identical_across_worker_counts() {
        let reference = fig3(&fig3_campaign(1)).bars;
        assert_eq!(reference.len(), quicreach::sweep_sizes().len());
        for workers in [2, 8] {
            assert_eq!(
                fig3(&fig3_campaign(workers)).bars,
                reference,
                "Fig 3 diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn fig3_reads_the_per_size_quicreach_cache() {
        let c = fig3_campaign(2);
        let fig = fig3(&c);
        let cache = |name| {
            let labels = [("family", "quicreach")];
            let registry = c.engine().metrics_registry();
            registry.labeled_counter(name, &labels, "").get()
        };
        let passes = cache("quicert_engine_cache_misses_total");
        assert_eq!(passes, quicreach::sweep_sizes().len() as u64);
        // The reachability sizes were already computed by the sweep.
        let at_1200 = c.engine().quicreach(c.scenario().with_initial_size(1200));
        let at_1472 = c.engine().quicreach(c.scenario().with_initial_size(1472));
        assert_eq!(cache("quicert_engine_cache_misses_total"), passes);
        assert_eq!(fig.at(1200), Some(&quicreach::summarize(1200, &at_1200)));
        assert_eq!(fig.at(1472), Some(&quicreach::summarize(1472, &at_1472)));
        assert!(!fig.render().is_empty());
    }

    #[test]
    fn fig4_amplification_band_matches_paper() {
        let c = campaign();
        let cdf = fig4(&c);
        assert!(cdf.len() > 50);
        // Fig 4: factors sit between 3 and ~5.5.
        assert!(cdf.range().0 > 3.0);
        assert!(cdf.range().1 < 6.5, "max {}", cdf.range().1);
        assert!(!render_fig4(&cdf).is_empty());
    }

    #[test]
    fn fig5_tls_dominates_multi_rtt() {
        let c = campaign();
        let fig = fig5(&c);
        assert!(!fig.handshakes.is_empty());
        // Paper: TLS payload alone exceeds the limit in 87% of cases.
        let share = fig.tls_alone_exceeds();
        assert!(share > 0.70, "tls-exceeds share {share}");
        // And received totals always exceed the limit for multi-RTT.
        let over = fig
            .handshakes
            .iter()
            .filter(|(_, wire)| *wire > fig.limit)
            .count() as f64
            / fig.handshakes.len() as f64;
        assert!(over > 0.9, "wire-over share {over}");
    }

    #[test]
    fn rank_group_shares_are_stable() {
        let c = campaign();
        let rows = rank_groups(&c);
        assert_eq!(rows.len(), 10);
        let shares: Vec<f64> = rows.iter().map(|r| r.quic_share).collect();
        let mean = quicert_analysis::mean(&shares);
        let sd = quicert_analysis::std_dev(&shares);
        // Fig 12: ~17-21% QUIC per group with small deviation (σ=3 in the
        // paper; small worlds are noisier).
        assert!((10.0..28.0).contains(&mean), "mean {mean}");
        assert!(sd < 6.0, "sd {sd}");
        assert!(!render_rank_groups(&rows).is_empty());
    }

    #[test]
    fn rank_groups_equal_the_population_walk() {
        // 5,123 domains in groups of 512: ten full groups and a last one of
        // three. The reference is the walk over every record that
        // `rank_groups` did before it read the cached HTTPS scan.
        let c = Campaign::new(CampaignConfig::small().with_seed(7).with_domains(5_123));
        let width = c.rank_group_width();
        let records = c.world().domain_chunk(1, c.world().config.domains);
        let results = c.engine().quicreach(c.scenario());
        let mut reference: Vec<RankGroupRow> = (0..11)
            .map(|group| RankGroupRow {
                group,
                domains: 0,
                quic_share: 0.0,
                https_only_share: 0.0,
                class_shares: [0.0; 4],
            })
            .collect();
        let mut services = [[0usize; 2]; 11];
        for d in &records {
            let g = (d.rank - 1) / width;
            reference[g].domains += 1;
            if d.has_quic() {
                services[g][0] += 1;
            } else if d.has_https() {
                services[g][1] += 1;
            }
        }
        let mut classes = [[0usize; 4]; 11];
        for r in results.iter() {
            let idx = match r.class {
                HandshakeClass::Amplification => 0,
                HandshakeClass::MultiRtt => 1,
                HandshakeClass::Retry => 2,
                HandshakeClass::OneRtt => 3,
                HandshakeClass::Unreachable => continue,
            };
            classes[(r.rank - 1) / width][idx] += 1;
        }
        for (g, row) in reference.iter_mut().enumerate() {
            let n = row.domains as f64;
            row.quic_share = services[g][0] as f64 / n * 100.0;
            row.https_only_share = services[g][1] as f64 / n * 100.0;
            let reachable = classes[g].iter().sum::<usize>().max(1) as f64;
            for (share, count) in row.class_shares.iter_mut().zip(classes[g]) {
                *share = count as f64 / reachable * 100.0;
            }
        }
        assert_eq!(reference[10].domains, 3);
        assert_eq!(rank_groups(&c), reference);
    }

    #[test]
    fn profile_matrix_spans_every_profile() {
        let c = campaign();
        let rows = profile_matrix(&c);
        assert_eq!(rows.len(), NetworkProfile::ALL.len());

        let row = |p: NetworkProfile| rows.iter().find(|r| r.profile == p).unwrap();
        let ideal = row(NetworkProfile::Ideal);
        // The ideal row IS the campaign's default scan artifact.
        let default_summary = quicreach::summarize(
            c.scenario().initial_size,
            &c.engine().quicreach(c.scenario()),
        );
        assert_eq!(ideal.summary, default_summary);
        assert_eq!(ideal.fault_drops, 0);
        assert_eq!(ideal.fault_corruptions, 0);

        // Lossy paths exercise the fault injectors and lose some services.
        let lossy = row(NetworkProfile::Lossy);
        assert!(lossy.fault_drops > 0);
        assert!(lossy.summary.unreachable >= ideal.summary.unreachable);

        // A long fat path changes delay but not reachability; its jitter
        // defeats the timing-based 1-RTT classification entirely.
        let long_fat = row(NetworkProfile::LongFat);
        assert_eq!(long_fat.summary.reachable(), ideal.summary.reachable());
        assert_eq!(long_fat.summary.one_rtt, 0);

        // Universal tunneling pushes more services over the MTU.
        let tunneled = row(NetworkProfile::Tunneled);
        assert!(tunneled.summary.unreachable >= ideal.summary.unreachable);

        let rendered = render_profile_matrix(&rows);
        for p in NetworkProfile::ALL {
            assert!(rendered.contains(p.name()), "missing row {p}");
        }
    }

    #[test]
    fn top_group_has_more_one_rtt() {
        let c = Campaign::new(CampaignConfig::small().with_seed(11).with_domains(8_000));
        let rows = rank_groups(&c);
        let top = rows[0].class_shares[3];
        let rest: Vec<f64> = rows[1..].iter().map(|r| r.class_shares[3]).collect();
        let rest_mean = quicert_analysis::mean(&rest);
        // Fig 13: 3.02% vs <1% in the paper.
        assert!(top > rest_mean, "top {top} vs rest {rest_mean}");
    }
}
