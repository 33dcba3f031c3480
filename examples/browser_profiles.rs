//! Table 1: browser Initial sizes and certificate-compression support, and
//! what they imply for the amplification limit each browser grants servers.
//!
//! ```sh
//! cargo run --release --example browser_profiles
//! ```

use quicert::core::experiments::compression;
use quicert::core::{Campaign, CampaignConfig};
use quicert::tls::browser::{self, BrowserProfile};

fn main() {
    let campaign = Campaign::new(CampaignConfig::small().with_domains(4_000));

    print!("{}", compression::table1(&campaign));

    println!("\nimplied anti-amplification byte budgets (3x the Initial):");
    let profiles: Vec<BrowserProfile> = browser::all_profiles();
    for profile in profiles {
        match profile.initial_size {
            Some(size) => println!("  {:<10} 3 x {size} = {} bytes", profile.name, 3 * size),
            None => println!("  {:<10} (no QUIC deployment)", profile.name),
        }
    }
    let (lo, hi) = browser::common_amplification_limits();
    println!("\nthe paper's two reference limits: {lo} and {hi} bytes");
    println!("paper Table 1: brotli support 96% of services; zlib/zstd 0.05% (Meta)");
}
