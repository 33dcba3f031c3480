//! Byte-identity pin of everything the QUIC endpoints put on the wire.
//!
//! `fixtures/wire_digests.txt` holds FNV-1a digests of every datagram
//! payload, in both directions and in send order, of handshakes against the
//! first 64 QUIC services of a seed-`0x5CA1` world — each behaviour profile
//! × certificate era × fault plan — plus a cold-then-warm (NewSessionTicket
//! then PSK) resumption probe of 16 of them. The fixture digests the real
//! runner, `resume` included: each line is one `HandshakeScratch` observed
//! by a [`WireDigest`], which reads every datagram as its endpoint emits it,
//! before the fault injector drops, corrupts or copies it. The digests were
//! computed before the send path wrote packets straight into the outgoing
//! datagram and before the receive path borrowed from it; the goldens
//! downstream pin the same bytes only through sizes and handshake outcomes.
//! Every eighth client never acknowledges, so whole renumbered flight
//! retransmissions are covered fault-free too, and every fourth offers RFC
//! 8879 compression. `QUICERT_BLESS=1` rewrites the fixture after an
//! intentional change to what an endpoint sends.

use std::fmt::Write;

use quicert_compress::Algorithm;
use quicert_netsim::event::Direction;
use quicert_netsim::{FaultPlan, Observer, SimTime, Wire};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{ClientConfig, HandshakeScratch, ResumptionProbe, ServerBehavior, ServerConfig};
use quicert_scanner::behavior::base_latency;
use quicert_session::ResumptionHost;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wire_digests.txt"
);
const SERVICES: usize = 64;
const INITIAL: usize = 1362;

/// FNV-1a over every datagram an endpoint emits: direction, length,
/// payload.
struct WireDigest {
    hash: u64,
    datagrams: usize,
    bytes: usize,
}

impl WireDigest {
    fn new() -> Self {
        WireDigest {
            hash: 0xCBF2_9CE4_8422_2325,
            datagrams: 0,
            bytes: 0,
        }
    }

    /// The fixture line of this digest.
    fn line(&self, out: &mut String, label: &str) {
        let (hash, datagrams, bytes) = (self.hash, self.datagrams, self.bytes);
        writeln!(
            out,
            "{label} {hash:016x} {datagrams} datagrams {bytes} bytes"
        )
        .unwrap();
    }
}

impl Observer for WireDigest {
    fn sent(&mut self, direction: Direction, _at: SimTime, payload: &[u8]) {
        let direction = match direction {
            Direction::AtoB => b'>',
            Direction::BtoA => b'<',
        };
        let header = [&[direction][..], &(payload.len() as u32).to_le_bytes()];
        for byte in header.into_iter().chain([payload]).flatten() {
            self.hash = (self.hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.datagrams += 1;
        self.bytes += payload.len();
    }
}

fn behaviors() -> [ServerBehavior; 4] {
    [
        ServerBehavior::rfc_compliant(),
        ServerBehavior::cloudflare_like(),
        ServerBehavior::mvfst_like(8),
        ServerBehavior::retry_first(),
    ]
}

fn client_for(index: usize, record: &DomainRecord) -> ClientConfig {
    let mut client = ClientConfig::scanner(
        INITIAL,
        World::server_addr(record),
        record.seed ^ INITIAL as u64,
    );
    client.server_name = record.name.clone().into();
    if index % 4 == 1 {
        client.compression = Algorithm::ALL.to_vec();
    }
    client.send_acks = index % 8 != 7;
    client
}

fn server_for(
    world: &World,
    record: &DomainRecord,
    behavior: ServerBehavior,
    era: CertificateEra,
) -> ServerConfig {
    let quic = record.quic.as_ref().expect("a QUIC service");
    ServerConfig {
        behavior,
        chain: world.quic_chain_era(record, era).expect("a QUIC chain"),
        leaf_key: era.key(quic.leaf_key),
        compression_support: quic.compression_support.to_vec(),
        resumption: None,
        seed: record.seed,
    }
}

fn wire_for(record: &DomainRecord, plan: FaultPlan) -> Wire {
    let mut wire = Wire::ideal(base_latency(record));
    plan.apply(&mut wire);
    wire
}

fn digests() -> String {
    let world = World::streaming(WorldConfig {
        domains: 4_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let services: Vec<&DomainRecord> = records
        .iter()
        .filter(|record| record.has_quic())
        .take(SERVICES)
        .collect();
    assert_eq!(services.len(), SERVICES);
    let mut out = String::new();
    for behavior in behaviors() {
        for era in CertificateEra::ALL {
            for plan in [FaultPlan::NONE, FaultPlan::MODERATE] {
                let mut digest = WireDigest::new();
                let mut scratch = HandshakeScratch::observing(&mut digest);
                for (index, record) in services.iter().enumerate() {
                    scratch.run(
                        client_for(index, record),
                        server_for(&world, record, behavior.clone(), era),
                        &mut wire_for(record, plan),
                        record.seed,
                    );
                }
                digest.line(
                    &mut out,
                    &format!("{} {} {plan}", behavior.name, era.name()),
                );
            }
        }
    }

    // A cold visit against a ticket-issuing server, then a warm visit that
    // offers the ticket: NewSessionTicket, PSK ClientHello, resumed flight.
    let mut digest = WireDigest::new();
    let mut scratch = HandshakeScratch::observing(&mut digest);
    let mut resumed = 0;
    for record in services.iter().take(16) {
        let mut server = server_for(
            &world,
            record,
            ServerBehavior::rfc_compliant(),
            CertificateEra::Classical,
        );
        server.resumption = Some(ResumptionHost::issuing(record.seed ^ 0x57E4, 1_000_000));
        let probe = scratch.resume(ResumptionProbe {
            client: client_for(0, record),
            server,
            wire: wire_for(record, FaultPlan::NONE),
            seed: record.seed,
            warm_now_secs: 1_000_060,
            offer_ticket: true,
        });
        resumed += usize::from(probe.warm.resumed);
    }
    assert_eq!(resumed, 16, "every warm visit resumes");
    digest.line(&mut out, "cold-then-warm rfc-compliant classical");
    out
}

#[test]
fn every_datagram_of_every_profile_era_and_plan_keeps_its_bytes() {
    let actual = digests();
    if std::env::var_os("QUICERT_BLESS").is_some() {
        std::fs::write(FIXTURE, &actual).expect("write fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(actual.lines().count(), 4 * 3 * 2 + 1);
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "wire bytes changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
