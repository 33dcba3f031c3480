//! Session resumption: cold-vs-warm handshake deltas across network
//! profiles, and the ticket-policy axis.
//!
//! The paper's §5 guidance is that resumption sidesteps the whole
//! certificate/amplification interplay: a resumed handshake authenticates
//! with a session ticket and never puts the chain on the wire. This example
//! scans the same population twice per profile — a cold, ticket-issuing
//! first visit and a warm revisit — and prints what the revisit saved.
//!
//! ```sh
//! cargo run --release --example resumption
//! ```

use quicert::core::experiments::resumption::{
    budget_sweep, policy_comparison, render_budget_sweep, render_policy_comparison,
    render_resumption_matrix, resumption_matrix, BUDGET_SWEEP_SIZES,
};
use quicert::core::{Campaign, CampaignConfig};

fn main() {
    let campaign = Campaign::new(CampaignConfig::small().with_domains(3_000));
    let funnel = &campaign.engine().certificates().funnel;
    println!(
        "world: {} domains, {} QUIC services\n",
        funnel.total, funnel.quic_services,
    );

    // Cold vs resumed per network profile (warm-after-first-visit policy).
    let matrix = resumption_matrix(&campaign);
    println!("{}", render_resumption_matrix(&matrix));

    // The policy axis: baseline, working mitigation, expired tickets.
    println!(
        "{}",
        render_policy_comparison(&policy_comparison(&campaign))
    );

    // Resumed flights vs the 3x anti-amplification budget per Initial size.
    println!(
        "{}",
        render_budget_sweep(&budget_sweep(&campaign, &BUDGET_SWEEP_SIZES))
    );

    // Headline deltas on the ideal profile.
    let ideal = &matrix[0].agg;
    println!(
        "ideal-path headline: {}/{} reachable services resumed; certificate bytes \
         {} -> {}; every cold multi-RTT handshake ({} services) saved >= 1 RTT \
         (mean {:.2}); {} resumed flights exceeded the 3x budget",
        ideal.resumed,
        ideal.cold_reachable,
        ideal.cold_cert_bytes,
        ideal.warm_cert_bytes,
        ideal.cold_multi_rtt,
        ideal.mean_rtts_saved_multi(),
        ideal.resumed_over_budget,
    );
    println!(
        "\ntake-away: the certificate chain is a *first-contact* cost — a ticket \
         cache turns the paper's multi-RTT population into 1-RTT revisits."
    );
}
