//! Allocation budget of the certificate path every workload pays: issuing
//! one HTTPS chain and summarising it.
//!
//! And the budget of the streamed funnel, which no longer pays that path:
//! a warm `https_scan::fold_iter` allocates its shard's two sketches and
//! nothing per record.
//!
//! And the budget of a QUIC pass's derivation: a warm `quic_chunk_into`
//! allocates for the services it yields and nothing for the other ranks.
//!
//! And the budget of one `compress` call on a warm thread: the serialised
//! LZ stream and the container, nothing else — the match tables belong to
//! the thread, not the call.
//!
//! Counts, not timings — exact on any host. Before the encoder wrote into
//! one buffer (`der::Writer`) and `Certificate::assemble` recorded field
//! sizes as it encoded, one chain cost ~459 allocations and its summary
//! ~1,108 more (every DN and extension of every certificate re-encoded).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quicert_compress::{compress, Algorithm};
use quicert_pki::{CertificateEra, World, WorldConfig};
use quicert_scanner::https_scan::{self, ChainSummary};
use quicert_tls::certificate_message;

thread_local! {
    /// Allocations (fresh or grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell<u64>`s with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        ALLOCATED_BYTES.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn issuing_and_summarising_a_chain_stays_within_its_allocation_budget() {
    const DOMAINS: u64 = 512;
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let (mut issue, mut summarise) = (0, 0);
    let tls = records.iter().filter(|r| r.has_https());
    for record in tls.take(DOMAINS as usize) {
        let (chain, n) = counted(|| {
            world
                .https_chain_era(record, CertificateEra::Classical)
                .expect("TLS domain")
        });
        issue += n;
        let chain_id = record.https.as_ref().expect("TLS domain").chain_id;
        let (summary, n) = counted(|| ChainSummary::of(&chain, chain_id));
        summarise += n;
        assert_eq!(summary.total_der, chain.total_der_len());
    }
    let mean = |total: u64| total as f64 / DOMAINS as f64;
    assert!(
        mean(issue) <= 60.0,
        "World::https_chain_era: {} allocations per chain",
        mean(issue)
    );
    assert!(
        mean(summarise) <= 4.0,
        "ChainSummary::of: {} allocations per chain",
        mean(summarise)
    );
    eprintln!(
        "allocations per chain: issue {:.1}, summarise {:.1}",
        mean(issue),
        mean(summarise)
    );
}

#[test]
fn a_warm_streamed_funnel_allocates_nothing_per_record() {
    // The first fold of a chunk issues one chain per chain class it meets;
    // the second looks every record up in the world's chain-shape
    // flyweight. What is left is the shard itself — a constant, whatever
    // the record count. (Issuing and summarising a chain per HTTPS record,
    // as the fold did before the flyweight, is ≈25 allocations a record.)
    let world = World::streaming(WorldConfig {
        domains: 4_096,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let (cold, cold_allocations) = counted(|| https_scan::fold_iter(&world, &records));
    let tls = cold.tls_reachable;
    assert!(tls > 3_000 && cold_allocations > world.chain_shape_classes() as u64);
    let classes = world.chain_shape_classes();

    let (warm, whole) = counted(|| https_scan::fold_iter(&world, &records));
    let (_, eighth) = counted(|| https_scan::fold_iter(&world, &records[..512]));
    assert_eq!(warm, cold, "a looked-up shape is the issued one");
    assert_eq!(
        world.chain_shape_classes(),
        classes,
        "a warm fold learns nothing"
    );
    assert_eq!(whole, eighth, "allocations grew with the record count");
    assert!(whole <= 4, "{whole} allocations for one shard");
    eprintln!(
        "streamed funnel over {tls} TLS domains: {cold_allocations} allocations cold \
         ({classes} chain classes), {whole} warm"
    );
}

#[test]
fn a_warm_quic_chunk_allocates_nothing_for_a_rank_it_passes_over() {
    // What a QUIC pass derives per claim. Every rank draws up to its QUIC
    // decision on the stack; only a QUIC service gets a record, whose name
    // and compression list are its two allocations (an empty list is
    // none). A buffer grown by the cold call is reused as is, so a rank
    // that is not a service costs no allocation at all.
    const RANKS: usize = 10_000;
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let mut services = Vec::new();
    world.quic_chunk_into(5_001, RANKS, &mut services);
    let quic = services.len() as u64;
    let ((), warm) = counted(|| world.quic_chunk_into(5_001, RANKS, &mut services));
    assert_eq!(services.len() as u64, quic);
    assert!(quic > 1_500 && quic < RANKS as u64 / 4, "{quic} services");
    // Measured: 4,100 allocations for 2,076 services (1.97 each: 52 are
    // self-hosted without brotli, so their list is empty). One allocation
    // per rank passed over would add ≈7,900.
    assert!(warm <= 2 * quic, "{warm} allocations for {quic} services");
    eprintln!(
        "warm quic_chunk_into over {RANKS} ranks: {quic} services, {warm} allocations \
         ({:.2} per service)",
        warm as f64 / quic as f64
    );
}

#[test]
fn a_warm_compress_call_allocates_its_output_and_no_table() {
    // What `certs_40k_survey` compresses: the Certificate message of a QUIC
    // service's chain, under each profile. The first pass sizes this
    // thread's match tables to the largest message; from then on a call
    // allocates the LZ stream and the container and nothing else. (A
    // 512 KiB bucket table plus 8 B per position, allocated per call, is
    // ~180x the length of a 3 KB message.)
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let messages: Vec<Vec<u8>> = records
        .iter()
        .filter(|record| record.has_quic())
        .take(256)
        .map(|record| {
            certificate_message(
                &world
                    .quic_chain_era(record, CertificateEra::Classical)
                    .expect("QUIC service"),
            )
        })
        .collect();
    for pass in ["cold", "warm"] {
        let (mut calls, mut allocations, mut bytes, mut input_bytes) = (0u64, 0, 0, 0);
        for message in &messages {
            for algorithm in Algorithm::ALL {
                let before = ALLOCATED_BYTES.with(Cell::get);
                let (container, n) = counted(|| compress(algorithm, message));
                let asked = ALLOCATED_BYTES.with(Cell::get) - before;
                if pass == "warm" {
                    assert_eq!(n, 2, "{algorithm}: {n} allocations in one call");
                    assert!(
                        asked <= 4 * message.len() as u64,
                        "{algorithm}: {asked} B allocated for {} B of input",
                        message.len()
                    );
                }
                assert!(container.len() < message.len());
                calls += 1;
                allocations += n;
                bytes += asked;
                input_bytes += message.len() as u64;
            }
        }
        eprintln!(
            "compress, {pass} thread: {:.2} allocations per call, {:.2} B allocated per \
             input byte, {calls} calls",
            allocations as f64 / calls as f64,
            bytes as f64 / input_bytes as f64
        );
    }
}
