//! A reused `HandshakeScratch` changes no outcome.
//!
//! A pump worker runs every probe it claims in one scratch: each exchange
//! rebuilds its client and server in the last one's buffers, emptied, and
//! the exchange recycles every datagram payload. Nothing of an exchange may
//! leak into the next. This holds a long sequence of exchanges of each kind
//! on one scratch — kept across every case, so buffers carry over from one
//! random service to the next — to the same calls each made on a fresh one:
//!
//! * complete handshakes ([`HandshakeScratch::run`]) over every certificate
//!   era (post-quantum first, so classical handshakes run in buffers a
//!   longer flight left behind), every rung of the fault ladder
//!   (duplication storms included: a copy is written into a recycled
//!   buffer), every server behaviour profile (Retry among them) and clients
//!   that acknowledge or, like a spoofing prober, never do — and the same
//!   handshake on a scratch with a counting [`Observer`], which must change
//!   nothing and see each datagram its endpoints emit exactly once;
//! * cold-then-warm resumption probes ([`HandshakeScratch::resume`]) with
//!   the ticket offered and accepted, offered past its lifetime and
//!   rejected, and not offered, over every era and rung; a fresh probe's
//!   warm visit is also held to the same visit run alone, so it shares
//!   nothing with its cold visit but the ticket;
//! * spoofed probes ([`HandshakeScratch::spoof`]) against every era, rung
//!   and server profile.

use std::cell::RefCell;
use std::sync::OnceLock;

use proptest::prelude::*;
use quicert_netsim::event::Direction;
use quicert_netsim::{FaultPlan, NetworkProfile, Observer, SimTime, Wire};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{
    ClientConfig, HandshakeOutcome, HandshakeScratch, ResumptionOutcome, ResumptionProbe,
    ServerBehavior, ServerConfig,
};
use quicert_scanner::behavior::{server_config_for_era, wire_for_profile};
use quicert_session::{ResumptionHost, SessionTicket, TicketConfig};
use quicert_tls::PskOffer;

/// The QUIC services of one small world, derived once.
fn services() -> &'static (World, Vec<DomainRecord>) {
    static WORLD: OnceLock<(World, Vec<DomainRecord>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let world = World::streaming(WorldConfig {
            domains: 3_000,
            seed: 0x5C2A,
        });
        let mut services = world.domain_chunk(1, world.config.domains);
        services.retain(DomainRecord::has_quic);
        (world, services)
    })
}

thread_local! {
    /// The one scratch every case of a property runs in.
    static SCRATCH: RefCell<HandshakeScratch> = RefCell::default();
}

/// The server's wall clock at a cold visit.
const COLD_SECS: u64 = 1_000_000;

/// `record`'s server in `era` on a wire under `plan`.
fn served(
    world: &World,
    record: &DomainRecord,
    era: CertificateEra,
    plan: FaultPlan,
) -> (ServerConfig, Wire) {
    let chain = world.quic_chain_era(record, era).expect("a QUIC chain");
    let mut wire = wire_for_profile(record, NetworkProfile::Ideal);
    plan.apply(&mut wire);
    (server_config_for_era(world, record, chain, era), wire)
}

/// `server`'s own behaviour and every named profile, Retry among them.
fn profiles(server: &ServerConfig) -> [ServerBehavior; 5] {
    [
        server.behavior.clone(),
        ServerBehavior::rfc_compliant(),
        ServerBehavior::cloudflare_like(),
        ServerBehavior::mvfst_like(8),
        ServerBehavior::retry_first(),
    ]
}

/// Counts the datagrams its exchanges' endpoints emit.
#[derive(Default)]
struct Sends(usize);

impl Observer for Sends {
    fn sent(&mut self, _: Direction, _: SimTime, _: &[u8]) {
        self.0 += 1;
    }
}

/// The warm visit of `probe` run alone on a fresh scratch: the probe's
/// client offering `cold`'s ticket, aged from the cold visit's clock, with
/// the seed tweak and RNG stream `HandshakeScratch::resume` gives a warm
/// visit, against the server revisited at the warm clock.
fn lone_warm_visit(probe: &ResumptionProbe, cold: &HandshakeOutcome) -> HandshakeOutcome {
    const WARM_SEED_TWEAK: u64 = 0x5245_5355_4D45_0001;
    const WARM_RNG_LABEL: u64 = 0x5741_524D;
    const HANDSHAKE_RNG_LABEL: u64 = 0x44_5348;
    let mut client = probe.client.clone();
    client.seed ^= WARM_SEED_TWEAK;
    client.psk = cold
        .ticket
        .clone()
        .filter(|_| probe.offer_ticket)
        .map(|ticket| {
            let ticket = SessionTicket {
                obtained_at_secs: COLD_SECS,
                ..ticket
            };
            PskOffer {
                obfuscated_age: ticket.obfuscated_age(probe.warm_now_secs),
                identity: ticket.identity,
            }
        });
    let mut server = probe.server.clone();
    server.resumption = server
        .resumption
        .map(|host| host.revisited_at(probe.warm_now_secs));
    let seed = probe.seed ^ WARM_RNG_LABEL ^ HANDSHAKE_RNG_LABEL;
    HandshakeScratch::default().run(client, server, &mut probe.wire.clone(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_reused_scratch_changes_no_outcome(pick in any::<u64>(), initial in 1200usize..1473) {
        let (world, services) = services();
        let record = &services[(pick % services.len() as u64) as usize];
        let seed = record.seed ^ pick;
        let eras = [CertificateEra::PostQuantum, CertificateEra::Hybrid, CertificateEra::Classical];
        for era in eras {
            for plan in FaultPlan::LADDER {
                let (own, wire) = served(world, record, era, plan);
                for behavior in profiles(&own) {
                    for acknowledging in [true, false] {
                        let addr = World::server_addr(record);
                        let mut client = ClientConfig::scanner(initial, addr, seed);
                        if !acknowledging {
                            client.send_acks = false;
                            client.max_initial_transmissions = 1;
                        }
                        let server = ServerConfig { behavior: behavior.clone(), ..own.clone() };
                        let case = format!("rank {}, {}, {}, {}, acknowledging {acknowledging}", record.rank, era.name(), plan.name, behavior.name);

                        let fresh = HandshakeScratch::default().run(client.clone(), server.clone(), &mut wire.clone(), seed);
                        let mut sends = Sends::default();
                        let observed = HandshakeScratch::observing(&mut sends).run(client.clone(), server.clone(), &mut wire.clone(), seed);
                        prop_assert_eq!(&observed, &fresh, "{} observed", &case);
                        // Each datagram is seen as its endpoint emits it: a
                        // copy the injector makes is never seen, a drop is.
                        let emitted = fresh.datagrams - fresh.fault_duplications as usize;
                        prop_assert_eq!(sends.0, emitted, "{} sends", &case);
                        let reused = SCRATCH.with(|scratch| {
                            scratch.borrow_mut().run(client, server, &mut wire.clone(), seed)
                        });
                        prop_assert_eq!(reused, fresh, "{}", &case);
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_scratch_resumes_as_a_fresh_one(pick in any::<u64>(), initial in 1200usize..1473) {
        let (world, services) = services();
        let record = &services[(pick % services.len() as u64) as usize];
        let seed = record.seed ^ pick;
        let config = TicketConfig::default();
        let within = COLD_SECS + 60;
        let expired = COLD_SECS + config.lifetime_secs + 2 * config.rotation_secs + 60;
        let visits = [("not offered", false, within), ("accepted", true, within), ("rejected", true, expired)];
        let eras = [CertificateEra::PostQuantum, CertificateEra::Hybrid, CertificateEra::Classical];
        for era in eras {
            for plan in FaultPlan::LADDER {
                for (visit, offer_ticket, warm_now_secs) in visits {
                    let (mut server, wire) = served(world, record, era, plan);
                    server.resumption = Some(ResumptionHost::issuing(seed ^ 0x57E4, COLD_SECS));
                    let mut client = ClientConfig::scanner(initial, World::server_addr(record), seed);
                    client.server_name = record.name.clone().into();
                    let probe = ResumptionProbe { client, server, wire, seed, warm_now_secs, offer_ticket };
                    let case = format!("rank {}, {}, {}, {visit}", record.rank, era.name(), plan.name);

                    let fresh = HandshakeScratch::default().resume(probe.clone());
                    let alone = ResumptionOutcome {
                        warm: lone_warm_visit(&probe, &fresh.cold),
                        offered_psk: offer_ticket && fresh.cold.ticket.is_some(),
                        ..fresh.clone()
                    };
                    prop_assert_eq!(&fresh, &alone, "{} run alone", &case);
                    if plan == FaultPlan::NONE && fresh.cold.ticket.is_some() {
                        prop_assert_eq!(fresh.offered_psk, offer_ticket, "{}", &case);
                        prop_assert_eq!(fresh.warm.resumed, visit == "accepted", "{}", &case);
                    }
                    let reused = SCRATCH.with(|scratch| scratch.borrow_mut().resume(probe));
                    prop_assert_eq!(reused, fresh, "{}", &case);
                }
            }
        }
    }

    #[test]
    fn a_reused_scratch_spoofs_as_a_fresh_one(pick in any::<u64>(), initial in 1200usize..1473) {
        let (world, services) = services();
        let record = &services[(pick % services.len() as u64) as usize];
        let seed = record.seed ^ pick;
        let victim = std::net::Ipv4Addr::new(44, 0, (pick >> 8) as u8, pick as u8);
        let eras = [CertificateEra::PostQuantum, CertificateEra::Hybrid, CertificateEra::Classical];
        for era in eras {
            for plan in FaultPlan::LADDER {
                let (own, wire) = served(world, record, era, plan);
                for behavior in profiles(&own) {
                    let name = behavior.name;
                    let server = ServerConfig { behavior, ..own.clone() };
                    let addr = World::server_addr(record);
                    let fresh = HandshakeScratch::default().spoof(initial, victim, addr, server.clone(), &mut wire.clone(), seed);
                    let reused = SCRATCH.with(|scratch| {
                        scratch.borrow_mut().spoof(initial, victim, addr, server, &mut wire.clone(), seed)
                    });
                    prop_assert_eq!(reused, fresh, "rank {}, {}, {}, {}", record.rank, era.name(), plan.name, name);
                }
            }
        }
    }
}
