//! Allocation budget of one simulated handshake — the bill every probe of
//! every scan pays.
//!
//! Counts, not timings — exact on any host. Before each flight byte was
//! written once per hop (TLS message → datagram → reassembly buffer), a
//! classical cold handshake cost ~216 allocations and ~114 kB allocated to
//! move a 3.4 kB flight; a post-quantum one ~534 allocations. Before a
//! handshake ran in a reused `HandshakeScratch`, every one cost ~27
//! (classical) or ~51 (post-quantum) allocations however many ran before
//! it; now a pump worker's handshakes allocate nothing once its scratch
//! has grown to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quicert_netsim::{FaultPlan, NetworkProfile, Wire};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{ClientConfig, HandshakeScratch, ResumptionProbe, ServerConfig};
use quicert_scanner::behavior::{server_config_for_era, wire_for_profile};
use quicert_session::ResumptionHost;

thread_local! {
    /// Allocations (fresh or grown) made by this thread, and their bytes.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SERVICES: usize = 512;
const INITIAL: usize = 1362;

/// One probe per service in `era` under `plan`, built as the scan pump
/// builds them.
fn probes(
    world: &World,
    services: &[&DomainRecord],
    era: CertificateEra,
    plan: FaultPlan,
) -> Vec<(ClientConfig, ServerConfig, Wire, u64)> {
    services
        .iter()
        .map(|record| {
            let mut wire = wire_for_profile(record, NetworkProfile::Ideal);
            plan.apply(&mut wire);
            (
                ClientConfig::scanner(
                    INITIAL,
                    World::server_addr(record),
                    record.seed ^ INITIAL as u64,
                ),
                server_config_for_era(
                    world,
                    record,
                    world.quic_chain_era(record, era).expect("a QUIC chain"),
                    era,
                ),
                wire,
                record.seed,
            )
        })
        .collect()
}

/// The first [`SERVICES`] QUIC services of a 20k world.
fn world_services() -> (World, Vec<DomainRecord>) {
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let mut services = world.domain_chunk(1, world.config.domains);
    services.retain(DomainRecord::has_quic);
    services.truncate(SERVICES);
    assert_eq!(services.len(), SERVICES);
    (world, services)
}

/// Mean (allocations, bytes allocated) per handshake of the first
/// [`SERVICES`] QUIC services in `era`, fault-free, each on a fresh
/// scratch. One handshake that is not counted runs first, so that what
/// the process's first exchange sets up once (the scheduler registering
/// its counters) is not billed to whichever test gets there first.
fn per_handshake(world: &World, services: &[&DomainRecord], era: CertificateEra) -> (f64, f64) {
    let probes = probes(world, services, era, FaultPlan::NONE);
    let (client, server, mut wire, seed) = probes[0].clone();
    HandshakeScratch::default().run(client, server, &mut wire, seed);
    let before = ALLOCATIONS.with(Cell::get);
    let completed = probes
        .into_iter()
        .map(|(client, server, mut wire, seed)| {
            HandshakeScratch::default().run(client, server, &mut wire, seed)
        })
        .filter(|outcome| outcome.completed)
        .count();
    let after = ALLOCATIONS.with(Cell::get);
    assert!(completed > SERVICES / 2);
    let n = SERVICES as f64;
    (
        (after.0 - before.0) as f64 / n,
        (after.1 - before.1) as f64 / n,
    )
}

#[test]
fn a_handshake_stays_within_its_allocation_budget() {
    let (world, services) = world_services();
    let services: Vec<&DomainRecord> = services.iter().collect();

    let (classical, classical_bytes) = per_handshake(&world, &services, CertificateEra::Classical);
    let (pq, pq_bytes) = per_handshake(&world, &services, CertificateEra::PostQuantum);
    eprintln!(
        "per handshake: classical {classical:.1} allocations / {classical_bytes:.0} B, \
         post-quantum {pq:.1} allocations / {pq_bytes:.0} B"
    );
    assert!(
        classical <= 28.0,
        "classical handshake: {classical} allocations"
    );
    assert!(
        classical_bytes <= 27_100.0,
        "classical handshake: {classical_bytes} bytes allocated"
    );
    assert!(pq <= 51.5, "post-quantum handshake: {pq} allocations");
}

/// Allocations made by the second of two runs of `pass` over the probes
/// of `era` under `plan`, both on one scratch: the first grows it to the
/// largest buffers any probe needs. The probes are built before the count
/// starts, as a scan builds each before it runs it.
fn warm_pass(
    world: &World,
    services: &[&DomainRecord],
    era: CertificateEra,
    plan: FaultPlan,
    mut pass: impl FnMut(&mut HandshakeScratch, Vec<(ClientConfig, ServerConfig, Wire, u64)>),
) -> u64 {
    let mut scratch = HandshakeScratch::default();
    pass(&mut scratch, probes(world, services, era, plan));
    let warm = probes(world, services, era, plan);
    let before = ALLOCATIONS.with(Cell::get);
    pass(&mut scratch, warm);
    ALLOCATIONS.with(Cell::get).0 - before.0
}

#[test]
fn a_cold_handshake_on_a_warm_scratch_allocates_nothing() {
    // The second pass, the same probes again, must not allocate at all:
    // every buffer, payload and list is the last handshake's, emptied.
    let (world, services) = world_services();
    let services: Vec<&DomainRecord> = services.iter().collect();
    for era in [CertificateEra::Classical, CertificateEra::PostQuantum] {
        for plan in [FaultPlan::NONE, FaultPlan::MODERATE] {
            let allocations = warm_pass(&world, &services, era, plan, |scratch, probes| {
                let completed = probes
                    .into_iter()
                    .map(|(client, server, mut wire, seed)| {
                        scratch.run(client, server, &mut wire, seed)
                    })
                    .filter(|outcome| outcome.completed)
                    .count();
                assert!(completed > SERVICES / 2, "{era} {}: {completed}", plan.name);
            });
            eprintln!(
                "{era}, {}: {allocations} allocations over {SERVICES} handshakes on a warm scratch",
                plan.name
            );
            assert_eq!(
                allocations, 0,
                "{era}, {}: a warm scratch allocated",
                plan.name
            );
        }
    }
}

/// A cold-then-warm resumption probe of each service in `era`, built as a
/// warm scan builds it: the record's name as SNI, a ticket-issuing server
/// and a warm visit inside the ticket's lifetime.
fn resumption_probes(
    world: &World,
    services: &[&DomainRecord],
    era: CertificateEra,
) -> Vec<ResumptionProbe> {
    let probes = probes(world, services, era, FaultPlan::NONE);
    let probes = services.iter().zip(probes);
    probes
        .map(|(record, (mut client, mut server, wire, seed))| {
            client.server_name = record.name.clone().into();
            server.resumption = Some(ResumptionHost::issuing(seed ^ 0x57E4, 1_000_000));
            ResumptionProbe {
                client,
                server,
                wire,
                seed,
                warm_now_secs: 1_000_060,
                offer_ticket: true,
            }
        })
        .collect()
}

#[test]
fn a_resumption_probe_on_a_warm_scratch_allocates_its_ticket_and_cold_config() {
    // Once a scratch has run the probes, a resumption probe allocates no
    // buffer: what it allocates is the configuration its cold visit runs
    // on a copy of (the SNI, the leaf's DER and the server's compression
    // list, when it has one) and five copies of the ticket identity: the
    // server's issuer, the client's parse of the NewSessionTicket, the
    // cold outcome, the warm visit's PSK offer and the server's parse of
    // that offer. The NewSessionTicket itself is written into the
    // server's kept 1-RTT buffer.
    let (world, services) = world_services();
    let services: Vec<&DomainRecord> = services.iter().collect();
    for era in [CertificateEra::Classical, CertificateEra::PostQuantum] {
        let mut scratch = HandshakeScratch::default();
        for probe in resumption_probes(&world, &services, era) {
            scratch.resume(probe);
        }
        let mut total = 0;
        for probe in resumption_probes(&world, &services, era) {
            let config = 2 + u64::from(!probe.server.compression_support.is_empty());
            let before = ALLOCATIONS.with(Cell::get);
            let out = scratch.resume(probe);
            let allocations = ALLOCATIONS.with(Cell::get).0 - before.0;
            assert!(
                out.offered_psk && out.warm.resumed,
                "{era}: a warm visit resumes"
            );
            assert_eq!(allocations, config + 5, "{era}: a warm resumption probe");
            total += allocations;
        }
        eprintln!("{era}: {total} allocations over {SERVICES} resumption probes on a warm scratch");
    }
}

#[test]
fn a_spoofed_probe_on_a_warm_scratch_allocates_nothing() {
    // A spoofed probe reads its outcome off the exchange and the server's
    // own connection ID, so on a scratch that has run the probes before it
    // allocates nothing at all.
    let (world, services) = world_services();
    let services: Vec<&DomainRecord> = services.iter().collect();
    let victim = std::net::Ipv4Addr::new(44, 0, 0, 1);
    for era in [CertificateEra::Classical, CertificateEra::PostQuantum] {
        for plan in [FaultPlan::NONE, FaultPlan::MODERATE] {
            let allocations = warm_pass(&world, &services, era, plan, |scratch, probes| {
                let reflected = probes
                    .into_iter()
                    .map(|(client, server, mut wire, seed)| {
                        scratch.spoof(INITIAL, victim, client.dst, server, &mut wire, seed)
                    })
                    .filter(|outcome| outcome.datagrams > 0)
                    .count();
                assert!(reflected > SERVICES / 2, "{era} {}: {reflected}", plan.name);
            });
            eprintln!(
                "{era}, {}: {allocations} allocations over {SERVICES} spoofed probes on a warm scratch",
                plan.name
            );
            assert_eq!(
                allocations, 0,
                "{era}, {}: a warm scratch allocated",
                plan.name
            );
        }
    }
}
