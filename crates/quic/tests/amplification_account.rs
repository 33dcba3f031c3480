//! The passive view of the 3× rule and the server's own account agree.
//!
//! [`HandshakeOutcome::exceeds_limit`](quicert_quic::HandshakeOutcome::exceeds_limit)
//! is the paper's passive measurement (§4.1, Fig 4): first-flight bytes on
//! the wire against 3× the client's first datagram. `amplification_excess`
//! is what the server's `AmplificationBudget` recorded: the most bytes it
//! ever sent past `limit(received)` before validation. Over every QUIC
//! service of a 4k world, three eras and three Initial sizes on the ideal
//! profile, this holds the two views to each other and names the one
//! deployment family that breaks the limit.

use std::collections::HashMap;

use quicert_netsim::NetworkProfile;
use quicert_pki::{CertificateEra, Provider, World, WorldConfig};
use quicert_quic::{run_handshake, ClientConfig, LimitPolicy};
use quicert_scanner::behavior::{server_config_for_era, wire_for_profile};

#[test]
fn the_passive_view_and_the_servers_account_agree_on_who_breaks_3x() {
    let world = World::streaming(WorldConfig {
        domains: 4_000,
        seed: 0x3A3A,
    });
    let records = world.domain_chunk(1, world.config.domains);
    // (behaviour, provider) -> (handshakes with an excess, handshakes).
    let mut tally: HashMap<(&str, Provider), (usize, usize)> = HashMap::new();
    for record in records.iter().filter(|record| record.has_quic()) {
        let provider = record.quic.as_ref().expect("a QUIC service").provider;
        for era in CertificateEra::ALL {
            let chain = world.quic_chain_era(record, era).expect("a QUIC chain");
            for initial in [1200, 1362, 1472] {
                let server = server_config_for_era(&world, record, chain.clone(), era);
                let behavior = &server.behavior;
                let name = behavior.name;
                let charges_every_byte = behavior.count_padding
                    && behavior.count_resends
                    && behavior.limit_policy == LimitPolicy::RFC9000;
                let addr = World::server_addr(record);
                let client = ClientConfig::scanner(initial, addr, record.seed ^ initial as u64);
                let mut wire = wire_for_profile(record, NetworkProfile::Ideal);
                let out = run_handshake(client, server, &mut wire, record.seed);

                let case = || format!("rank {} {} at {initial}", record.rank, era.name());
                if charges_every_byte {
                    assert_eq!(out.amplification_excess, 0, "{name}, {}", case());
                }
                if out.exceeds_limit() {
                    assert!(out.amplification_excess > 0, "{name}, {}", case());
                }
                let (excess, handshakes) = tally.entry((name, provider)).or_default();
                *excess += usize::from(out.amplification_excess > 0);
                *handshakes += 1;
            }
        }
    }

    // At seed 0x3A3A, handshakes with an excess: cloudflare-like 4,986 of
    // 5,229 (its padded ACK and ServerHello datagrams go uncharged), and 0
    // of self-hosted rfc-compliant's 2,106, Google's 252 and Meta's
    // mvfst-like 36 (an ideal path needs no resends).
    let handshakes: usize = tally.values().map(|(_, n)| n).sum();
    assert_eq!(handshakes, 7_623);
    let violators: Vec<_> = tally
        .iter()
        .filter(|(_, (excess, _))| *excess > 0)
        .collect();
    assert_eq!(
        violators.iter().map(|(key, _)| **key).collect::<Vec<_>>(),
        [("cloudflare-like", Provider::Cloudflare)],
        "every (behaviour, provider) tally: {tally:?}"
    );
}
