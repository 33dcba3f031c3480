//! Amplification audit: what a spoofing adversary gets out of each
//! deployment — the §4.3 arc (Fig 9 telescope, the Meta PoP ZMap scan,
//! Fig 11 before/after disclosure, and the Table 3 policy ablation).
//!
//! ```sh
//! cargo run --release --example amplification_audit
//! ```

use quicert::core::experiments::amplification;
use quicert::core::{Campaign, CampaignConfig};

fn main() {
    let campaign = Campaign::new(CampaignConfig::small().with_domains(12_000));

    print!("{}", amplification::fig9(&campaign, 10));
    println!("paper: Cloudflare/Google mostly < 10x; Meta up to 45x\n");

    print!("{}", amplification::meta_pop_scan(&campaign, false));
    println!("paper: no-service <=150 B; facebook ~7 kB (>5x); IG/WA ~35 kB (>28x)\n");

    print!("{}", amplification::fig11(&campaign, 3));
    println!("paper: October 2022 rescan shows a homogeneous fleet at ~5x mean\n");

    print!("{}", amplification::table3(&campaign));
    println!("note: only the final 3x-bytes rule actually bounds reflected *bytes*.");
}
