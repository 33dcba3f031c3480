//! Allocation budget of one simulated handshake — the bill every probe of
//! every scan pays.
//!
//! Counts, not timings — exact on any host. Before each flight byte was
//! written once per hop (TLS message → datagram → reassembly buffer), a
//! classical cold handshake cost ~216 allocations and ~114 kB allocated to
//! move a 3.4 kB flight; a post-quantum one ~534 allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quicert_netsim::NetworkProfile;
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::{run_handshake, ClientConfig};
use quicert_scanner::behavior::{server_config_for_era, wire_for_profile};

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

/// Mean (allocations, bytes allocated) per handshake of the first
/// [`SERVICES`] QUIC services in `era`, fault-free, probes built as the
/// scan pump builds them.
fn per_handshake(world: &World, services: &[&DomainRecord], era: CertificateEra) -> (f64, f64) {
    let probes: Vec<_> = services
        .iter()
        .map(|record| {
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
                wire_for_profile(record, NetworkProfile::Ideal),
                record.seed,
            )
        })
        .collect();
    assert_eq!(probes.len(), SERVICES);
    let before = ALLOCATIONS.with(Cell::get);
    let completed = probes
        .into_iter()
        .map(|(client, server, mut wire, seed)| run_handshake(client, server, &mut wire, seed))
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
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let services: Vec<&DomainRecord> = records
        .iter()
        .filter(|record| record.has_quic())
        .take(SERVICES)
        .collect();
    assert_eq!(services.len(), SERVICES);

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
