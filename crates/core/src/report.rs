//! The full campaign report: every table and figure rendered to text.

use quicert_compress::Algorithm;

use crate::experiments::{
    amplification, certs, chaos, churn, compression, guidance, handshakes, pq, resumption, scale,
};
use crate::Campaign;

/// Tunables for the full report (how much work the expensive experiments
/// do; the defaults scale with the world size).
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Spoofed probes per hypergiant for Fig 9.
    pub telescope_per_provider: usize,
    /// Repetitions for Fig 11 confidence intervals.
    pub fig11_reps: usize,
    /// Sampling stride for the compression study.
    pub compression_stride: usize,
    /// Include the full Fig 3 sweep (29 sizes × all services) instead of
    /// just the default-size bar.
    pub full_sweep: bool,
    /// Include the §5 client-mitigation and loss experiments (they re-probe
    /// the multi-RTT population).
    pub guidance_mitigation: bool,
    /// Include the network-profile scenario matrix (it re-scans the QUIC
    /// population once per non-ideal [`quicert_netsim::NetworkProfile`]).
    pub network_profiles: bool,
    /// Include the session-resumption section (cold-vs-warm scans per
    /// network profile, the policy axis, and the budget sweep — each warm
    /// scan probes every service twice).
    pub resumption: bool,
    /// Include the post-quantum certificate-era section (it re-scans the
    /// QUIC population once per `(era, profile)` cell and compresses the
    /// sampled chain population once per era).
    pub pq_eras: bool,
    /// Include the population-scale section: the headline measurements
    /// recomputed at growing population sizes through the streaming
    /// (bounded-memory) scan path.
    pub population_scale: bool,
    /// Include the chaos fault-grid section: the [`quicert_netsim::FaultPlan`]
    /// ladder swept per `(era, profile)` cell with its loss-recovery cost
    /// (added round trips, retransmissions, amplification stalls), plus
    /// session resumption re-measured under every rung. Each grid cell
    /// re-scans the QUIC population once.
    pub chaos: bool,
    /// Include the ecosystem-churn section: the resident campaign service
    /// replaying an era-migration timeline with per-tick delta scans
    /// (each tick re-probes only the churned population segments).
    pub churn: bool,
    /// The population ladder for the scale section; `0` entries derive
    /// from the campaign's world size as `[n/2, n, 5n]`. The `repro`
    /// harness passes [`scale::PAPER_SCALE_SIZES`] (10k/100k/1M) here.
    pub scale_sizes: [usize; 3],
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            telescope_per_provider: 10,
            fig11_reps: 3,
            compression_stride: 10,
            full_sweep: true,
            guidance_mitigation: true,
            network_profiles: true,
            resumption: true,
            pq_eras: true,
            population_scale: true,
            chaos: true,
            churn: true,
            scale_sizes: [0, 0, 0],
        }
    }
}

/// One toggleable report section: its enable-flag accessor and its name.
type ToggledSection = (fn(&ReportOptions) -> bool, &'static str);

/// The toggleable report sections, in the order [`full_report`] renders
/// them. [`ReportOptions::skipped`] derives from this table, so the
/// skipped-section list always follows the report's canonical section order
/// no matter how the toggles are declared or queried.
const TOGGLED_SECTIONS: [ToggledSection; 8] = [
    (|o| o.full_sweep, "Fig 3 full Initial-size sweep"),
    (
        |o| o.guidance_mitigation,
        "§5 client mitigation and loss study",
    ),
    (|o| o.network_profiles, "network-profile scenario matrix"),
    (|o| o.resumption, "session-resumption section"),
    (|o| o.pq_eras, "post-quantum certificate-era section"),
    (|o| o.chaos, "chaos fault-grid section"),
    (|o| o.population_scale, "population-scale streaming section"),
    (|o| o.churn, "ecosystem-churn timeline section"),
];

impl ReportOptions {
    /// The names of the report sections these options disable — so callers
    /// can say *what* a partial report omits instead of omitting silently.
    /// The list follows the report's canonical section order.
    pub fn skipped(&self) -> Vec<&'static str> {
        TOGGLED_SECTIONS
            .iter()
            .filter(|(enabled, _)| !enabled(self))
            .map(|&(_, name)| name)
            .collect()
    }
}

/// Produce the full plain-text report reproducing every table and figure.
pub fn full_report(campaign: &Campaign, options: ReportOptions) -> String {
    let mut out = String::new();
    let world = campaign.world();
    out.push_str(&format!(
        "== quicert campaign: {} domains, seed {:#x} ==\n\n",
        world.config.domains,
        campaign.config().world.seed
    ));

    // §3.1 funnel.
    let funnel = &campaign.engine().certificates().funnel;
    out.push_str(&format!(
        "§3.1 funnel — resolved {} / {}, A records {}, TLS-reachable {}, \
         QUIC services {}\n",
        funnel.resolved, funnel.total, funnel.a_records, funnel.tls_reachable, funnel.quic_services,
    ));

    // §3.2 QScanner consistency check.
    let consistency = campaign.engine().qscanner();
    out.push_str(&format!(
        "§3.2 QScanner consistency — {:.1}% of {} QUIC chains match HTTPS \
         ({} rotated, {} other)\n\n",
        consistency.same_rate() * 100.0,
        consistency.total,
        consistency.rotated,
        consistency.other,
    ));

    out.push_str(&certs::fig2b(campaign).render());
    out.push('\n');

    if options.full_sweep {
        out.push_str(&handshakes::fig3(campaign).render());
    } else {
        let summary = campaign
            .engine()
            .quicreach(campaign.scenario())
            .shard
            .classes;
        out.push_str(&format!(
            "Fig 3 (default size only) — ampl {} / multi {} / retry {} / 1-RTT {}\n",
            summary.amplification, summary.multi_rtt, summary.retry, summary.one_rtt
        ));
    }
    out.push('\n');

    out.push_str(&compression::table1(campaign).render());
    out.push('\n');

    out.push_str(&handshakes::render_fig4(&handshakes::fig4(campaign)));
    out.push_str(&handshakes::fig5(campaign).render());
    out.push('\n');

    out.push_str(&certs::fig6(campaign).render());
    out.push_str(&certs::fig7(campaign, true).render("QUIC services"));
    out.push_str(&certs::fig7(campaign, false).render("HTTPS-only services"));
    out.push_str(&certs::render_fig8(&certs::fig8(campaign)));
    out.push_str(&certs::table2(campaign).render());
    out.push_str(&certs::fig14(campaign).render());
    out.push('\n');

    out.push_str(
        &compression::compression_study(campaign, Algorithm::Brotli, options.compression_stride)
            .render(),
    );
    out.push('\n');

    out.push_str(&amplification::fig9(campaign, options.telescope_per_provider).render());
    out.push_str(&amplification::meta_pop_scan(campaign, false).render());
    out.push_str(&amplification::fig11(campaign, options.fig11_reps).render());
    out.push_str(&amplification::table3(campaign).render());
    out.push('\n');

    out.push_str(&handshakes::render_rank_groups(&handshakes::rank_groups(
        campaign,
    )));
    out.push_str(&handshakes::reachability(campaign).render());
    out.push('\n');

    // §5 guidance, as experiments.
    out.push_str(&guidance::render_server_ablation(
        &guidance::server_ablation(campaign),
    ));
    if options.guidance_mitigation {
        out.push_str(&guidance::client_mitigation(campaign.engine()).render());
        out.push_str(&guidance::loss_study(campaign, 0.25, 32).render());
    }

    // Beyond the paper: the same population under adverse link conditions.
    if options.network_profiles {
        out.push('\n');
        out.push_str(&handshakes::render_profile_matrix(
            &handshakes::profile_matrix(campaign),
        ));
    }

    // §5 session resumption: the mitigation that sidesteps the whole
    // certificate/amplification interplay, measured cold-vs-warm.
    if options.resumption {
        out.push('\n');
        out.push_str(&resumption::render_resumption_matrix(
            &resumption::resumption_matrix(campaign),
        ));
        out.push_str(&resumption::render_policy_comparison(
            &resumption::policy_comparison(campaign),
        ));
        out.push_str(&resumption::render_budget_sweep(&resumption::budget_sweep(
            campaign,
            &resumption::BUDGET_SWEEP_SIZES,
        )));
    }

    // Beyond the paper: the same population after the post-quantum PKI
    // migration (ML-DSA / hybrid chains, per Chou & Cao's TTFB study).
    if options.pq_eras {
        out.push('\n');
        out.push_str(&pq::render_era_matrix(&pq::era_matrix(campaign)));
        out.push_str(&pq::render_one_rtt_survivors(&pq::one_rtt_survivors(
            campaign,
        )));
        out.push_str(&pq::render_compression_degradation(
            &pq::compression_degradation(campaign, options.compression_stride),
        ));
    }

    // Beyond the paper: the fault-injection grid — what loss recovery
    // costs once the wire drops, duplicates and corrupts datagrams.
    if options.chaos {
        out.push('\n');
        out.push_str(&chaos::render_fault_grid(&chaos::fault_grid_default(
            campaign,
        )));
        out.push_str(&chaos::render_resumption_under_faults(
            &chaos::resumption_under_faults(campaign),
        ));
    }

    // At scale: the headline measurements at growing population sizes,
    // streamed through the bounded-memory scan path (summaries only).
    if options.population_scale {
        out.push('\n');
        let sizes = scale::resolve_sizes(options.scale_sizes, world.config.domains);
        out.push_str(&scale::render_population_scale(&scale::population_scale(
            campaign, &sizes,
        )));
    }

    // Beyond the paper: the same campaign as a resident service whose
    // population churns along a deterministic era-migration timeline,
    // measured per tick through delta scans.
    if options.churn {
        out.push('\n');
        out.push_str(&churn::render_churn(&churn::churn_timeline(
            campaign,
            REPORT_CHURN_TICKS,
        )));
    }

    out
}

/// Ticks the report's churn section replays — far enough to cover every
/// migration of [`churn::era_migration_config`]'s timeline.
const REPORT_CHURN_TICKS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;
    use quicert_netsim::{FaultPlan, NetworkProfile};
    use quicert_pki::CertificateEra;

    #[test]
    fn full_report_renders_every_section() {
        let campaign = Campaign::new(CampaignConfig::small().with_seed(3).with_domains(1_500));
        let report = full_report(
            &campaign,
            ReportOptions {
                telescope_per_provider: 2,
                fig11_reps: 1,
                compression_stride: 50,
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
        for needle in [
            "§3.1 funnel",
            "§3.2 QScanner consistency",
            "Fig 2b",
            "Fig 3",
            "Table 1",
            "Fig 4",
            "Fig 5",
            "Fig 6",
            "Fig 7",
            "Fig 8",
            "Table 2",
            "Fig 14",
            "compression study",
            "Fig 9",
            "Meta PoP",
            "Fig 11",
            "Table 3",
            "Figs 12/13",
            "reachability",
            "Network-profile matrix",
            "lossy",
            "long-fat",
            "tunneled",
            "Resumption matrix",
            "Resumption policies",
            "ticket-expired",
            "3x budget",
            "Certificate-era matrix",
            "1-RTT survivorship",
            "brotli dictionary performance",
            "post-quantum",
            "Chaos grid",
            "added RTTs",
            "dup-storm",
            "Resumption under faults",
            "Population scale",
            "Ecosystem churn",
        ] {
            assert!(report.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn the_report_pass_census_is_pinned() {
        // The report the benchmark renders (population scale and churn
        // off): how often each artifact family computed, and — on the
        // profiles whose wires draw randomness, so every probe simulates
        // and none replays — that each era × profile series counts every
        // QUIC service once per pass carrying its labels: the profile's
        // era join, plus one pass per faulted rung on the chaos grid's
        // cells. A section that probes a cell again fails here.
        let campaign = Campaign::new(
            CampaignConfig::small()
                .with_seed(3)
                .with_domains(800)
                .with_workers(1),
        );
        let options = ReportOptions {
            population_scale: false,
            churn: false,
            ..ReportOptions::default()
        };
        full_report(&campaign, options);
        let registry = campaign.engine().metrics_registry();
        let counter =
            |name, labels: &[(&str, &str)]| registry.labeled_counter(name, labels, "").get();
        let misses = |family| counter("quicert_engine_cache_misses_total", &[("family", family)]);
        let census = [
            ("certificates", 1),
            ("quicreach", 46),
            ("quicreach-eras", 4),
            ("warm", 12),
            ("compression-support", 1),
            ("compression-study", 3),
            ("telescope", 1),
            ("zmap", 6),
            ("qscanner", 1),
            ("stream-https", 0),
        ];
        for (family, want) in census {
            assert_eq!(misses(family), want, "{family}");
        }
        let services = campaign
            .engine()
            .quicreach(campaign.scenario())
            .shard
            .total() as u64;
        let rungs = FaultPlan::LADDER.len() as u64 - 1;
        for profile in [NetworkProfile::Lossy, NetworkProfile::LongFat] {
            for era in CertificateEra::ALL {
                let on_grid =
                    chaos::GRID_ERAS.contains(&era) && chaos::GRID_PROFILES.contains(&profile);
                let passes = 1 + if on_grid { rungs } else { 0 };
                let labels = [("era", era.name()), ("profile", profile.name())];
                let issued = counter("quicert_scan_probes_issued_total", &labels);
                assert_eq!(issued, services * passes, "{era}/{profile}");
            }
        }
    }

    #[test]
    fn every_toggle_is_honored_and_reported_as_skipped() {
        let defaults = ReportOptions::default();
        assert!(defaults.skipped().is_empty(), "defaults skip nothing");

        let partial = ReportOptions {
            full_sweep: false,
            guidance_mitigation: false,
            network_profiles: false,
            resumption: false,
            pq_eras: false,
            population_scale: false,
            chaos: false,
            churn: false,
            ..ReportOptions::default()
        };
        let skipped = partial.skipped();
        assert_eq!(skipped.len(), 8);
        assert!(skipped.iter().any(|s| s.contains("resumption")));

        // A report with everything off renders none of the toggled
        // sections (and still renders the always-on ones).
        let campaign = Campaign::new(CampaignConfig::small().with_seed(3).with_domains(1_200));
        let report = full_report(
            &campaign,
            ReportOptions {
                telescope_per_provider: 2,
                fig11_reps: 1,
                compression_stride: 50,
                ..partial
            },
        );
        assert!(!report.contains("Resumption matrix"));
        assert!(!report.contains("Network-profile matrix"));
        assert!(!report.contains("Certificate-era matrix"));
        assert!(!report.contains("Chaos grid"));
        assert!(!report.contains("Population scale"));
        assert!(!report.contains("Ecosystem churn"));
        assert!(report.contains("§3.1 funnel"));
    }

    #[test]
    fn skipped_sections_follow_the_reports_canonical_order() {
        // Every toggle off: the list is exactly the report's section order,
        // regardless of the order the toggles are declared or flipped in.
        let all_off = ReportOptions {
            full_sweep: false,
            guidance_mitigation: false,
            network_profiles: false,
            resumption: false,
            pq_eras: false,
            population_scale: false,
            chaos: false,
            churn: false,
            ..ReportOptions::default()
        };
        assert_eq!(
            all_off.skipped(),
            vec![
                "Fig 3 full Initial-size sweep",
                "§5 client mitigation and loss study",
                "network-profile scenario matrix",
                "session-resumption section",
                "post-quantum certificate-era section",
                "chaos fault-grid section",
                "population-scale streaming section",
                "ecosystem-churn timeline section",
            ]
        );

        // A subset keeps the same relative order: resumption (rendered
        // later) never precedes the sweep (rendered first), even though it
        // was "turned off first" here.
        let mut subset = ReportOptions {
            resumption: false,
            ..ReportOptions::default()
        };
        subset.full_sweep = false;
        assert_eq!(
            subset.skipped(),
            vec![
                "Fig 3 full Initial-size sweep",
                "session-resumption section"
            ]
        );
    }
}
