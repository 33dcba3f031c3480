//! Handshake-classification experiments: Figs 3, 4, 5, 12, 13 and the
//! §4.1 reachability analysis.

use quicert_analysis::{render_table, Table};
use quicert_netsim::NetworkProfile;
use quicert_quic::amplification;
use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::https_scan::service_set;
use quicert_scanner::quicreach::{self, QuicReachSummary, ScanSummary};

use super::class_share;
use crate::Campaign;

/// The class counts of the campaign's cached quicreach summary at every
/// swept Initial size (each a pass of its own the first time it is asked
/// for).
pub(crate) fn sweep_bars(campaign: &Campaign) -> Vec<ScanSummary> {
    let bar = |&size: &usize| {
        let scenario = campaign.scenario().with_initial_size(size);
        campaign.engine().quicreach(scenario).shard.classes
    };
    quicreach::sweep_sizes().iter().map(bar).collect()
}

/// Fig 3: handshake classes per client Initial size, as stacked-bar data.
pub fn fig3(campaign: &Campaign) -> String {
    let mut t = Table::new(&[
        "initial",
        "amplification",
        "multi-RTT",
        "RETRY",
        "1-RTT",
        "unreachable",
    ]);
    for bar in sweep_bars(campaign) {
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

/// Fig 3's bar at the campaign's default Initial size alone.
pub(crate) fn fig3_default_size(campaign: &Campaign) -> String {
    let summary = campaign.engine().quicreach(campaign.scenario());
    let classes = summary.shard.classes;
    format!(
        "Fig 3 (default size only) — ampl {} / multi {} / retry {} / 1-RTT {}\n",
        classes.amplification, classes.multi_rtt, classes.retry, classes.one_rtt
    )
}

/// Fig 4: first-RTT amplification factors of the handshakes that exceed
/// the limit (the paper's 165k amplifying services).
pub(crate) fn fig4(campaign: &Campaign) -> String {
    let cdf = campaign
        .engine()
        .quicreach(campaign.scenario())
        .amplification_cdf();
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

/// Share of multi-RTT handshakes whose TLS payload alone exceeds the limit
/// (paper: 87%).
fn tls_alone_exceeds(summary: &QuicReachSummary) -> f64 {
    let multi_rtt = summary.shard.classes.multi_rtt;
    summary.multi_rtt_tls_over_limit as f64 / multi_rtt.max(1) as f64
}

/// Fig 5: how the multi-RTT handshakes' payloads sit against the 3× limit
/// at the default Initial size.
pub(crate) fn fig5(campaign: &Campaign) -> String {
    let summary = campaign.engine().quicreach(campaign.scenario());
    format!(
        "Fig 5 — multi-RTT payloads (n={}): TLS alone exceeds the {} B \
         limit in {:.1}% of handshakes\n",
        summary.shard.classes.multi_rtt,
        amplification::limit(campaign.scenario().initial_size),
        tls_alone_exceeds(&summary) * 100.0,
    )
}

/// Figs 12 and 13 per rank group, in percent: each service set's share of
/// the group's domains (by [`service_set`]) and the handshake class shares
/// (amplification, multi-RTT, Retry, 1-RTT) among its reachable QUIC
/// services. Who serves QUIC and who HTTPS only is the certificate
/// summary's; the classes are the default-size quicreach summary's.
fn group_shares(campaign: &Campaign) -> Vec<([f64; 2], [f64; 4])> {
    let domains = campaign.world().config.domains;
    let width = quicreach::rank_group_width(domains);
    let summary = campaign.engine().quicreach(campaign.scenario());
    let services = &campaign.engine().certificates().rank_groups;
    (0..domains.div_ceil(width))
        .map(|group| {
            let n = width.min(domains - group * width).max(1) as f64;
            let counts = services.get(group).copied().unwrap_or_default();
            let classes = summary.rank_groups.get(group).copied().unwrap_or_default();
            let reachable = classes.iter().sum::<usize>().max(1) as f64;
            (
                counts.map(|count| count as f64 / n * 100.0),
                classes.map(|count| count as f64 / reachable * 100.0),
            )
        })
        .collect()
}

/// Figs 12 and 13: service and handshake class shares per rank group.
pub fn rank_groups(campaign: &Campaign) -> String {
    let mut t = Table::new(&[
        "group",
        "QUIC %",
        "HTTPS-only %",
        "ampl %",
        "multi %",
        "retry %",
        "1-RTT %",
    ]);
    for (group, (services, classes)) in group_shares(campaign).into_iter().enumerate() {
        t.row(&[
            group.to_string(),
            format!("{:.1}", services[service_set(true)]),
            format!("{:.1}", services[service_set(false)]),
            format!("{:.2}", classes[0]),
            format!("{:.2}", classes[1]),
            format!("{:.2}", classes[2]),
            format!("{:.2}", classes[3]),
        ]);
    }
    format!("Figs 12/13 — per rank group\n{}", render_table(&t))
}

// ------------------------------------------------------ network profiles --

/// The network-profile scenario matrix: the QUIC population at the default
/// Initial size under every [`NetworkProfile`], in the campaign's era. Each
/// row is that era's summary in the profile's cell of the era matrix
/// ([`crate::ScanEngine::era_join`]), so the matrices share every probe:
/// class shares (`class_share`) and the profile's fault counters.
pub(crate) fn profile_matrix(campaign: &Campaign) -> String {
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
    for profile in NetworkProfile::ALL {
        let cell = campaign.scenario().with_profile(profile);
        let join = campaign.engine().era_join(cell);
        let shard = &join.era(cell.era).0.shard;
        let share = |class| class_share(&shard.classes, class);
        t.row(&[
            profile.name().to_string(),
            shard.classes.reachable().to_string(),
            share(HandshakeClass::Amplification),
            share(HandshakeClass::MultiRtt),
            share(HandshakeClass::Retry),
            share(HandshakeClass::OneRtt),
            share(HandshakeClass::Unreachable),
            shard.fault_drops.to_string(),
            shard.fault_corruptions.to_string(),
        ]);
    }
    format!(
        "Network-profile matrix — handshake classes at the default Initial\n{}",
        render_table(&t)
    )
}

/// §4.1: the reachability drop between the smallest and largest Initial
/// sizes, overall and for the top rank buckets, from the cached per-size
/// summaries (free once the Fig 3 sweep has run — both sizes are sweep
/// endpoints).
pub fn reachability(campaign: &Campaign) -> String {
    let at = |size| {
        campaign
            .engine()
            .quicreach(campaign.scenario().with_initial_size(size))
    };
    let (small, large) = (at(1200), at(1472));
    let all = |summary: &QuicReachSummary| summary.shard.classes.reachable();
    let mut t = Table::new(&["bucket", "reachable @1200", "reachable @1472", "drop %"]);
    // `reachable_top` counts within the top 1k and the top 10k ranks.
    for (label, small, large) in [
        ("top-1k", small.reachable_top[0], large.reachable_top[0]),
        ("top-10k", small.reachable_top[1], large.reachable_top[1]),
        ("all", all(&small), all(&large)),
    ] {
        let drop = (small as f64 - large as f64) / small.max(1) as f64 * 100.0;
        t.row(&[
            label.to_string(),
            small.to_string(),
            large.to_string(),
            format!("{drop:.1}"),
        ]);
    }
    format!("§4.1 — reachability vs Initial size\n{}", render_table(&t))
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
        let reference = sweep_bars(&fig3_campaign(1));
        assert_eq!(reference.len(), quicreach::sweep_sizes().len());
        for workers in [2, 8] {
            assert_eq!(
                sweep_bars(&fig3_campaign(workers)),
                reference,
                "Fig 3 diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn fig3_reads_the_per_size_quicreach_cache() {
        let c = fig3_campaign(2);
        let bars = sweep_bars(&c);
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
        let at = |size| bars.iter().find(|bar| bar.initial_size == size);
        assert_eq!(at(1200), Some(&at_1200.shard.classes));
        assert_eq!(at(1472), Some(&at_1472.shard.classes));
    }

    #[test]
    fn fig4_amplification_band_matches_paper() {
        let c = campaign();
        let cdf = c.engine().quicreach(c.scenario()).amplification_cdf();
        assert!(cdf.len() > 50);
        // Fig 4: factors sit between 3 and ~5.5.
        assert!(cdf.range().0 > 3.0);
        assert!(cdf.range().1 < 6.5, "max {}", cdf.range().1);
    }

    #[test]
    fn fig5_tls_dominates_multi_rtt() {
        let c = campaign();
        let summary = c.engine().quicreach(c.scenario());
        let multi_rtt = summary.shard.classes.multi_rtt;
        assert!(multi_rtt > 0);
        // Paper: TLS payload alone exceeds the limit in 87% of cases.
        let share = tls_alone_exceeds(&summary);
        assert!(share > 0.70, "tls-exceeds share {share}");
        // And received totals always exceed the limit for multi-RTT.
        let over = summary.multi_rtt_wire_over_limit as f64 / multi_rtt as f64;
        assert!(over > 0.9, "wire-over share {over}");
    }

    #[test]
    fn rank_group_shares_are_stable() {
        let c = campaign();
        let groups = group_shares(&c);
        assert_eq!(groups.len(), 10);
        let shares: Vec<f64> = groups
            .iter()
            .map(|(services, _)| services[service_set(true)])
            .collect();
        let mean = quicert_analysis::mean(&shares);
        let sd = quicert_analysis::std_dev(&shares);
        // Fig 12: ~17-21% QUIC per group with small deviation (σ=3 in the
        // paper; small worlds are noisier).
        assert!((10.0..28.0).contains(&mean), "mean {mean}");
        assert!(sd < 6.0, "sd {sd}");
    }

    #[test]
    fn rank_groups_equal_the_population_walk() {
        // 5,123 domains in groups of 512: ten full groups and a last one of
        // three. The reference is the walk over every record that
        // `rank_groups` did before it read the cached HTTPS scan, and over
        // the per-record quicreach rows it read before the summary.
        let c = Campaign::new(CampaignConfig::small().with_seed(7).with_domains(5_123));
        let width = quicreach::rank_group_width(c.world().config.domains);
        let records = c.world().domain_chunk(1, c.world().config.domains);
        let results = quicreach::scan(c.world(), c.scenario().initial_size);
        let mut domains = [0usize; 11];
        let mut services = [[0usize; 2]; 11];
        for d in &records {
            let g = (d.rank - 1) / width;
            domains[g] += 1;
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
        let reference: Vec<([f64; 2], [f64; 4])> = (0..11)
            .map(|g| {
                let n = domains[g] as f64;
                let reachable = classes[g].iter().sum::<usize>().max(1) as f64;
                (
                    services[g].map(|count| count as f64 / n * 100.0),
                    classes[g].map(|count| count as f64 / reachable * 100.0),
                )
            })
            .collect();
        assert_eq!(domains[10], 3);
        assert_eq!(group_shares(&c), reference);
    }

    #[test]
    fn profile_matrix_spans_every_profile() {
        let c = campaign();
        let row = |profile| {
            let cell = c.scenario().with_profile(profile);
            c.engine().era_join(cell).era(cell.era).0.shard.clone()
        };
        let ideal = row(NetworkProfile::Ideal);
        // The ideal row IS the campaign's default scan.
        let default_summary = c.engine().quicreach(c.scenario()).shard.classes;
        assert_eq!(ideal.classes, default_summary);
        assert_eq!(ideal.fault_drops, 0);
        assert_eq!(ideal.fault_corruptions, 0);

        // Lossy paths exercise the fault injectors and lose some services.
        let lossy = row(NetworkProfile::Lossy);
        assert!(lossy.fault_drops > 0);
        assert!(lossy.classes.unreachable >= ideal.classes.unreachable);

        // A long fat path changes delay but not reachability; its jitter
        // defeats the timing-based 1-RTT classification entirely.
        let long_fat = row(NetworkProfile::LongFat);
        assert_eq!(long_fat.classes.reachable(), ideal.classes.reachable());
        assert_eq!(long_fat.classes.one_rtt, 0);

        // Universal tunneling pushes more services over the MTU.
        let tunneled = row(NetworkProfile::Tunneled);
        assert!(tunneled.classes.unreachable >= ideal.classes.unreachable);

        let rendered = profile_matrix(&c);
        for p in NetworkProfile::ALL {
            assert!(rendered.contains(p.name()), "missing row {p}");
        }
    }

    #[test]
    fn top_group_has_more_one_rtt() {
        let c = Campaign::new(CampaignConfig::small().with_seed(11).with_domains(8_000));
        let groups = group_shares(&c);
        let top = groups[0].1[3];
        let rest: Vec<f64> = groups[1..].iter().map(|(_, classes)| classes[3]).collect();
        let rest_mean = quicert_analysis::mean(&rest);
        // Fig 13: 3.02% vs <1% in the paper.
        assert!(top > rest_mean, "top {top} vs rest {rest_mean}");
    }
}
