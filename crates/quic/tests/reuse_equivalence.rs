//! A reused `HandshakeScratch` changes no outcome.
//!
//! A pump worker runs every probe it claims in one scratch: each handshake
//! rebuilds its client and server in the last one's buffers, emptied, and
//! the exchange recycles every datagram payload. Nothing of a handshake may
//! leak into the next. This holds a long sequence of handshakes on one
//! scratch — kept across every case, so buffers carry over from one random
//! service to the next — to the same probes each run on a fresh one, over
//! every certificate era (post-quantum first, so classical handshakes run
//! in buffers a longer flight left behind), every rung of the fault ladder
//! (duplication storms included: a copy is written into a recycled buffer),
//! every server behaviour profile (Retry among them) and clients that
//! acknowledge or, like a spoofing prober, never do.

use std::cell::RefCell;
use std::sync::OnceLock;

use proptest::prelude::*;
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{run_handshake, ClientConfig, HandshakeScratch, ServerBehavior};
use quicert_scanner::behavior::{server_config_for_era, wire_for_profile};

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
    /// The one scratch every case of the property runs in.
    static SCRATCH: RefCell<HandshakeScratch> = RefCell::default();
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
            let chain = world.quic_chain_era(record, era).expect("a QUIC chain");
            let served = server_config_for_era(world, record, chain, era);
            let behaviors = [
                served.behavior.clone(),
                ServerBehavior::rfc_compliant(),
                ServerBehavior::cloudflare_like(),
                ServerBehavior::mvfst_like(8),
                ServerBehavior::retry_first(),
            ];
            for plan in FaultPlan::LADDER {
                for behavior in &behaviors {
                    for acknowledging in [true, false] {
                        let addr = World::server_addr(record);
                        let mut client = ClientConfig::scanner(initial, addr, seed);
                        if !acknowledging {
                            client.send_acks = false;
                            client.max_initial_transmissions = 1;
                        }
                        let mut server = served.clone();
                        server.behavior = behavior.clone();
                        let mut wire = wire_for_profile(record, NetworkProfile::Ideal);
                        plan.apply(&mut wire);

                        let fresh = run_handshake(client.clone(), server.clone(), &mut wire.clone(), seed);
                        let reused = SCRATCH.with(|scratch| {
                            scratch.borrow_mut().run(client, server, &mut wire, seed)
                        });
                        prop_assert_eq!(
                            reused,
                            fresh,
                            "rank {}, {}, {}, {}, acknowledging {}",
                            record.rank,
                            era.name(),
                            plan.name,
                            behavior.name,
                            acknowledging
                        );
                    }
                }
            }
        }
    }
}
