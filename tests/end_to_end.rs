//! End-to-end integration: the full campaign pipeline across all crates.

use quicert::core::experiments::{amplification, certs, compression, handshakes};
use quicert::core::{full_report, Campaign, CampaignConfig, ReportOptions};
use quicert::quic::handshake::HandshakeClass;
use quicert::scanner::quicreach;

fn campaign() -> Campaign {
    Campaign::new(CampaignConfig::small().with_domains(3_000).with_seed(0xE2E))
}

#[test]
fn headline_numbers_reproduce_the_paper_shape() {
    let c = campaign();
    let summary = c.engine().quicreach(c.scenario()).shard.classes;

    // Fig 3 at the default Initial: amplification dominates, then
    // multi-RTT; Retry and 1-RTT are rare.
    assert!(summary.amplification > summary.multi_rtt);
    assert!(summary.multi_rtt > 10 * summary.one_rtt.max(1) / 2);
    assert!(summary.one_rtt < summary.reachable() / 20);
    assert!(summary.retry <= summary.one_rtt);

    // Fig 6: QUIC chains are smaller.
    let fig6 = certs::fig6(&c);
    assert!(fig6.quic.median() < fig6.https_only.median());

    // Fig 4: complete-handshake amplification is bounded.
    let fig4 = handshakes::fig4(&c);
    assert!(fig4.range().1 < 7.0);

    // Fig 5: TLS payload is the dominant cause of multi-RTT.
    let fig5 = handshakes::fig5(&c);
    assert!(fig5.tls_alone_exceeds() > 0.6);
}

#[test]
fn cloudflare_padding_constant_is_size_independent() {
    // §4.1: the stray padding of the missing-coalescence behaviour is a
    // constant, independent of the TLS payload size.
    let c = campaign();
    let world = c.world();
    let records = world.domain_chunk(1, world.config.domains);
    let mut paddings = std::collections::HashSet::new();
    for record in records
        .iter()
        .filter(|d| {
            let cloudflare_like = quicert::pki::world::BehaviorKind::CloudflareLike;
            d.has_quic()
                && d.quic
                    .as_ref()
                    .is_some_and(|q| q.behavior == cloudflare_like)
        })
        .take(20)
    {
        let result = quicreach::scan_service(world, record, c.scenario());
        if result.class == HandshakeClass::Amplification {
            paddings.insert(result.padding_received);
        }
    }
    assert!(
        paddings.len() <= 3,
        "stray padding should be near-constant, saw {paddings:?}"
    );
}

#[test]
fn compression_study_and_table1_are_consistent() {
    let c = campaign();
    let t1 = compression::table1(&c);
    // Brotli ratio measured in-the-wild matches the synthetic study's
    // ballpark (paper: 73% vs ~65%).
    let study = compression::compression_study(&c, quicert::compress::Algorithm::Brotli, 20);
    let wild = t1.mean_ratio(quicert::compress::Algorithm::Brotli);
    assert!(
        (wild - study.ratios.median()).abs() < 0.25,
        "wild {wild} vs study {}",
        study.ratios.median()
    );
}

#[test]
fn table3_shows_monotone_policy_tightening_in_bytes() {
    let c = campaign();
    let t3 = amplification::table3(&c);
    let final_policy = t3.rows.last().unwrap();
    assert!(final_policy.1 <= 3.0 + 1e-9);
    assert!(t3.rows[0].1 > final_policy.1);
}

#[test]
fn full_report_runs_end_to_end() {
    let c = Campaign::new(CampaignConfig::small().with_domains(1_200).with_seed(7));
    let report = full_report(
        &c,
        ReportOptions {
            telescope_per_provider: 2,
            fig11_reps: 1,
            compression_stride: 40,
            full_sweep: false,
            guidance_mitigation: false,
            network_profiles: true,
            resumption: true,
            pq_eras: true,
            population_scale: true,
            chaos: true,
            churn: true,
            scale_sizes: [0, 0, 0],
        },
    );
    assert!(
        report.len() > 2_000,
        "report has substance: {}",
        report.len()
    );
}
