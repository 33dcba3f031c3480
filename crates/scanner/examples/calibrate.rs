//! Calibration probe: per-group handshake class breakdown (dev tool).
use quicert_pki::{World, WorldConfig};
use quicert_scanner::quicreach::{self, ScanSummary};
use std::collections::HashMap;

fn main() {
    let world = World::streaming(WorldConfig {
        domains: 3_000,
        seed: 33,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let services = records.iter().filter(|record| record.has_quic());
    let results = quicreach::scan(&world, 1362);
    let mut summary = ScanSummary {
        initial_size: 1362,
        ..ScanSummary::default()
    };
    for result in &results {
        summary.add(result.class);
    }
    println!(
        "amp={} multi={} one={} retry={} unreach={}",
        summary.amplification,
        summary.multi_rtt,
        summary.one_rtt,
        summary.retry,
        summary.unreachable
    );
    // Per chain-id breakdown
    let mut by_chain: HashMap<String, (usize, HashMap<&'static str, usize>)> = HashMap::new();
    for (rec, res) in services.zip(results.iter()) {
        assert_eq!(rec.rank, res.rank);
        let q = rec.quic.as_ref().unwrap();
        let key = format!("{:?}/{:?}", q.chain_id, q.behavior);
        let entry = by_chain.entry(key).or_default();
        entry.0 += 1;
        *entry.1.entry(res.class.label()).or_default() += 1;
    }
    let mut keys: Vec<_> = by_chain.keys().cloned().collect();
    keys.sort();
    for k in keys {
        let (n, classes) = &by_chain[&k];
        println!("{k:55} n={n:5} {classes:?}");
    }
}
