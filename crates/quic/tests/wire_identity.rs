//! Byte-identity pin of everything the QUIC endpoints put on the wire.
//!
//! `fixtures/wire_digests.txt` holds FNV-1a digests of every datagram
//! payload, in both directions and in send order, of handshakes against the
//! first 64 QUIC services of a seed-`0x5CA1` world — each behaviour profile
//! × certificate era × fault plan — plus a cold-then-warm (NewSessionTicket
//! then PSK) pair of visits. They were computed before the send path wrote
//! packets straight into the outgoing datagram and before the receive path
//! borrowed from it; the goldens downstream pin the same bytes only through
//! sizes and handshake outcomes. Every eighth client never acknowledges, so
//! whole renumbered flight retransmissions are covered fault-free too, and
//! every fourth offers RFC 8879 compression. `QUICERT_BLESS=1` rewrites the
//! fixture after an intentional change to what an endpoint sends.

use std::cell::RefCell;
use std::fmt::Write;

use quicert_compress::Algorithm;
use quicert_netsim::{
    run_exchange, Datagram, Endpoint, ExchangeLimits, ExchangeScratch, FaultPlan, Outbox,
    SimDuration, SimRng, SimTime, Wire,
};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{ClientConfig, ClientConn, ServerBehavior, ServerConfig, ServerConn};
use quicert_scanner::behavior::base_latency;
use quicert_session::{ResumptionHost, SessionTicket};
use quicert_tls::PskOffer;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wire_digests.txt"
);
const SERVICES: usize = 64;
const INITIAL: usize = 1362;
/// The RNG stream label `HandshakeScratch::run` gives its exchange.
const HANDSHAKE_RNG_LABEL: u64 = 0x44_5348;

/// FNV-1a over every datagram offered to the wire: direction, length,
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

    fn absorb(&mut self, direction: u8, payload: &[u8]) {
        let header = [&[direction][..], &(payload.len() as u32).to_le_bytes()];
        for byte in header.into_iter().chain([payload]).flatten() {
            self.hash = (self.hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.datagrams += 1;
        self.bytes += payload.len();
    }
}

/// An endpoint whose every transmission is absorbed into a digest shared
/// with its peer's tap, so both directions interleave in send order.
struct Tap<'d, E> {
    inner: E,
    direction: u8,
    digest: &'d RefCell<WireDigest>,
}

impl<E: Endpoint> Tap<'_, E> {
    fn tapped(&mut self, out: &mut Outbox, call: impl FnOnce(&mut E, &mut Outbox)) {
        let before = out.len();
        call(&mut self.inner, out);
        let mut digest = self.digest.borrow_mut();
        for dgram in &out[before..] {
            digest.absorb(self.direction, &dgram.payload);
        }
    }
}

impl<E: Endpoint> Endpoint for Tap<'_, E> {
    fn start(&mut self, now: SimTime, out: &mut Outbox) {
        self.tapped(out, |e, out| e.start(now, out));
    }
    fn on_datagram(&mut self, dgram: &Datagram, now: SimTime, out: &mut Outbox) {
        self.tapped(out, |e, out| e.on_datagram(dgram, now, out));
    }
    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        self.tapped(out, |e, out| e.on_timer(now, out));
    }
    fn next_timer(&self) -> Option<SimTime> {
        self.inner.next_timer()
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// One handshake exactly as `HandshakeScratch::run` drives it, every
/// datagram absorbed into `digest`; hands the client back for its ticket.
fn tapped_handshake(
    client: ClientConfig,
    server: ServerConfig,
    mut wire: Wire,
    seed: u64,
    digest: &RefCell<WireDigest>,
) -> ClientConn {
    let mut a = Tap {
        inner: ClientConn::new(client),
        direction: b'>',
        digest,
    };
    let mut b = Tap {
        inner: ServerConn::new(server),
        direction: b'<',
        digest,
    };
    let limits = ExchangeLimits {
        deadline: SimTime::ZERO + SimDuration::from_secs(30),
        max_events: 10_000,
    };
    let mut rng = SimRng::new(seed ^ HANDSHAKE_RNG_LABEL);
    run_exchange(
        &mut a,
        &mut b,
        &mut wire,
        limits,
        &mut rng,
        &mut ExchangeScratch::default(),
    );
    a.inner
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
    let line = |out: &mut String, label: &str, digest: &RefCell<WireDigest>| {
        let d = digest.borrow();
        writeln!(
            out,
            "{label} {:016x} {} datagrams {} bytes",
            d.hash, d.datagrams, d.bytes
        )
        .unwrap();
    };

    for behavior in behaviors() {
        for era in CertificateEra::ALL {
            for plan in [FaultPlan::NONE, FaultPlan::MODERATE] {
                let digest = RefCell::new(WireDigest::new());
                for (index, record) in services.iter().enumerate() {
                    tapped_handshake(
                        client_for(index, record),
                        server_for(&world, record, behavior.clone(), era),
                        wire_for(record, plan),
                        record.seed,
                        &digest,
                    );
                }
                let label = format!("{} {} {plan}", behavior.name, era.name());
                line(&mut out, &label, &digest);
            }
        }
    }

    // Cold visit against a ticket-issuing server, then a warm visit that
    // offers the ticket: NewSessionTicket, PSK ClientHello, resumed flight.
    let digest = RefCell::new(WireDigest::new());
    let mut resumed = 0;
    for record in services.iter().take(16) {
        let host = ResumptionHost::issuing(record.seed ^ 0x57E4, 1_000_000);
        let mut server = server_for(
            &world,
            record,
            ServerBehavior::rfc_compliant(),
            CertificateEra::Classical,
        );
        server.resumption = Some(host);
        let mut client = client_for(0, record);
        let cold = tapped_handshake(
            client.clone(),
            server.clone(),
            wire_for(record, FaultPlan::NONE),
            record.seed,
            &digest,
        );
        let nst = cold.ticket.expect("the cold visit obtains a ticket");
        let ticket = SessionTicket {
            identity: nst.ticket,
            lifetime_secs: nst.lifetime_secs as u64,
            age_add: nst.age_add,
            obtained_at_secs: 1_000_000,
        };
        client.seed ^= 0x5245_5355_4D45_0001;
        client.psk = Some(PskOffer {
            identity: ticket.identity.clone(),
            obfuscated_age: ticket.obfuscated_age(1_000_060),
        });
        server.resumption = Some(host.revisited_at(1_000_060));
        let warm = tapped_handshake(
            client,
            server,
            wire_for(record, FaultPlan::NONE),
            record.seed ^ 0x5741_524D,
            &digest,
        );
        resumed += usize::from(warm.psk_accepted);
    }
    assert_eq!(resumed, 16, "every warm visit resumes");
    line(&mut out, "cold-then-warm rfc-compliant classical", &digest);
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
