//! Quickstart: scan a small world, classify every QUIC handshake, and
//! print the paper's headline numbers, followed by a trimmed campaign
//! report that *says* which sections it skipped.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use quicert::core::{full_report, Campaign, CampaignConfig, ReportOptions};
use quicert::quic::handshake::HandshakeClass;
use quicert::scanner::quicreach;

fn main() {
    // 4k domains is enough for stable shares and runs in seconds.
    let campaign = Campaign::new(CampaignConfig::small().with_domains(4_000));
    let https = campaign.engine().https_scan();
    println!(
        "world: {} domains, {} QUIC services, {} HTTPS-only services",
        https.total,
        https.quic().count(),
        https.https_only().count(),
    );

    let results = campaign.engine().quicreach(campaign.scenario());
    let summary = quicreach::summarize(campaign.scenario().initial_size, &results);
    println!(
        "\nhandshake classes at Initial = {} bytes ({} reachable services):",
        summary.initial_size,
        summary.reachable()
    );
    for class in [
        HandshakeClass::Amplification,
        HandshakeClass::MultiRtt,
        HandshakeClass::Retry,
        HandshakeClass::OneRtt,
    ] {
        println!(
            "  {:<14} {:>6.2}%",
            class.label(),
            summary.share_of_reachable(class)
        );
    }

    println!("\npaper (Fig 3 @1362): Amplification 61%, Multi-RTT 38%, RETRY 0.07%, 1-RTT 0.75%");
    println!("take-away: a-priori DoS protection and fast 1-RTT handshakes are rare in the wild.");

    // A quick partial report: expensive sections off, and every skipped
    // section named up front instead of silently omitted.
    let options = ReportOptions {
        telescope_per_provider: 2,
        fig11_reps: 1,
        compression_stride: 40,
        full_sweep: false,
        guidance_mitigation: false,
        network_profiles: false,
        resumption: true,
        pq_eras: false,
        population_scale: false,
        chaos: false,
        churn: false,
        scale_sizes: [0, 0, 0],
    };
    let skipped = options.skipped();
    if skipped.is_empty() {
        println!("\n== full campaign report (no sections skipped) ==");
    } else {
        println!("\n== quick campaign report — skipped sections: ==");
        for section in &skipped {
            println!("  - {section}");
        }
    }
    println!("\n{}", full_report(&campaign, options));
}
