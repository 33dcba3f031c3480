//! The Fig 3 sweep: how the client Initial size (1200–1472 bytes) shifts
//! handshake classes, plus the §4.1 load-balancer reachability effect.
//!
//! ```sh
//! cargo run --release --example initial_size_sweep
//! ```

use quicert::core::experiments::handshakes;
use quicert::core::{Campaign, CampaignConfig};

fn main() {
    let campaign = Campaign::new(CampaignConfig::small().with_domains(3_000));

    print!("{}", handshakes::fig3(&campaign));
    println!(
        "paper: amplification is size-independent; multi-RTT shrinks and 1-RTT \
         grows (~1%) toward large Initials; reachability drops ~1.2%\n"
    );

    // The sweep's end bars, read off the engine's cached per-size scans.
    let reachable = |size| {
        let scenario = campaign.scenario().with_initial_size(size);
        campaign
            .engine()
            .quicreach(scenario)
            .shard
            .classes
            .reachable()
    };
    let (small, large) = (reachable(1200), reachable(1472));
    println!(
        "bar heights: {small} reachable at 1200 vs {large} at 1472 ({} services lost to \
         load-balancer encapsulation)\n",
        small.saturating_sub(large),
    );

    print!("{}", handshakes::reachability(&campaign));
    println!("paper: top-1k ranks lose 25% reachability, top-10k 12%, overall 1.2%");

    print!("\n{}", handshakes::rank_groups(&campaign));
    println!("paper (Figs 12/13): adoption and classes are flat across rank groups,");
    println!("except 1-RTT handshakes concentrating in the most popular ranks (3.02%).");
}
