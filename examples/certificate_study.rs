//! Certificate-ecosystem study: chain sizes, parent-chain consolidation,
//! crypto algorithm mix, and how much RFC 8879 compression helps — the
//! §4.2 arc of the paper (Figs 2b/6/7/8/14, Table 2, compression study).
//!
//! ```sh
//! cargo run --release --example certificate_study
//! ```

use quicert::compress::Algorithm;
use quicert::core::experiments::{certs, compression};
use quicert::core::{Campaign, CampaignConfig};

fn main() {
    let campaign = Campaign::new(CampaignConfig::small().with_domains(6_000));

    println!("{}", certs::fig2b(&campaign));

    print!("{}", certs::fig6(&campaign));
    println!("paper: medians 2329 B (QUIC) vs 4022 B (HTTPS-only); 35% over the limit\n");

    print!("{}", certs::fig7(&campaign, true));
    print!("{}", certs::fig7(&campaign, false));
    println!("paper: top-10 parent chains cover 96.5% (QUIC) vs 72% (HTTPS-only)\n");

    print!("{}", certs::fig8(&campaign));
    print!("{}", certs::table2(&campaign));
    print!("{}", certs::fig14(&campaign));

    println!();
    for algorithm in Algorithm::ALL {
        let study = compression::compression_study(&campaign, algorithm, 10);
        print!("[{algorithm}] {study}");
    }
    println!("\npaper: ~65% median compression rate keeps 99% of chains under the limit");
}
