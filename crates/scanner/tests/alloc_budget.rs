//! Allocation budget of the certificate path every workload pays: issuing
//! one HTTPS chain and summarising it.
//!
//! And the budget of the streamed funnel, which no longer pays that path:
//! a warm `https_scan::fold_iter` allocates its shard's two sketches and
//! nothing per record.
//!
//! And the budget of record derivation: a warm `quic_chunk_into`, and a
//! warm `domain_chunk_into` over another rank range, allocate nothing.
//!
//! And the budget of one `compress` call on a warm thread: the serialised
//! LZ stream and the container, nothing else — the match tables belong to
//! the thread, not the call.
//!
//! And the budget of one simulated probe on a warm `ProbeScratch`: what
//! building the probe hands its server — the leaf's DER and the
//! compression list — and nothing for the handshake itself.
//!
//! Counts, not timings — exact on any host. Before the encoder wrote into
//! one buffer (`der::Writer`) and recorded field sizes as it encoded, one
//! chain cost ~459 allocations and its summary ~1,108 more (every DN and
//! extension of every certificate re-encoded). Before a certificate was
//! its bytes alone — an owned field tree built beside the DER, the SANs
//! formatted one `String` each, the DER back-patched into a growing
//! buffer — issuing one cost 24–26 allocations, and cloning one 20.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quicert_compress::{compress, Algorithm};
use quicert_netsim::FaultPlan;
use quicert_pki::{CertificateEra, World, WorldConfig};
use quicert_scanner::https_scan::{self, ChainSummary};
use quicert_scanner::quicreach::{self, ProbeScratch};
use quicert_scanner::Scenario;
use quicert_tls::certificate_message_into;

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
    const DOMAINS: usize = 512;
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let (mut chains, mut summarise) = (0, 0);
    for era in CertificateEra::ALL {
        let tls = records.iter().filter(|r| r.has_https());
        for (i, record) in tls.take(DOMAINS).enumerate() {
            let (chain, n) = counted(|| world.https_chain_era(record, era).expect("TLS domain"));
            // The leaf's DER, allocated once at its measured size: the
            // parent chain is shared and the length tape is the thread's.
            // (The first chain of an era may also build its catalog, and
            // the thread's first grows the tape.)
            if i > 0 {
                assert_eq!(
                    n, 1,
                    "{era} chain {i}: World::https_chain_era made {n} allocations"
                );
            }
            let chain_id = record.https.as_ref().expect("TLS domain").chain_id;
            let (summary, n) = counted(|| ChainSummary::of(&chain, chain_id));
            summarise += n;
            chains += 1;
            assert_eq!(summary.total_der, chain.total_der_len());
        }
    }
    let mean = summarise as f64 / chains as f64;
    assert!(
        mean <= 4.0,
        "ChainSummary::of: {mean} allocations per chain"
    );
    eprintln!(
        "allocations per chain: issue 1 after the first of each era, summarise {mean:.1} \
         ({chains} chains)"
    );
}

#[test]
fn cloning_an_issued_chain_allocates_only_the_leafs_bytes() {
    // What every warm probe pays to hand its server a chain: the leaf's
    // DER is copied, the intermediates are shared.
    let world = World::streaming(WorldConfig {
        domains: 4_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let mut chains = 0;
    for record in records.iter().filter(|r| r.has_quic()).take(256) {
        for era in CertificateEra::ALL {
            let chain = world.quic_chain_era(record, era).expect("QUIC service");
            let (clone, n) = counted(|| chain.clone());
            assert_eq!(n, 1, "{era}: cloning a chain made {n} allocations");
            assert_eq!(clone, chain);
            chains += 1;
        }
    }
    eprintln!("cloned {chains} chains: 1 allocation each");
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
    // decision on the stack; only a QUIC service gets a record, written
    // over a slot of the buffer the cold call grew: its name into the
    // slot's name buffer, its compression list a constant. (Before the
    // slots were overwritten in place, this made 4,100 allocations for
    // 2,076 services: a name each, and a list for the 2,024 offering one.)
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
    assert_eq!(warm, 0, "{warm} allocations for {quic} services");
    eprintln!("warm quic_chunk_into over {RANKS} ranks: {quic} services, {warm} allocations");
}

#[test]
fn a_warm_domain_chunk_over_another_range_allocates_nothing() {
    // What a pump worker's buffer does from its second claim on: every
    // record of the new range is written over a record of the old one, so
    // no name buffer regrows and none is made.
    const RANKS: usize = 4_096;
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let mut records = Vec::new();
    world.domain_chunk_into(1, RANKS, &mut records);
    let ((), warm) = counted(|| world.domain_chunk_into(15_001, RANKS, &mut records));
    assert_eq!(records.len(), RANKS);
    assert_eq!(records[0], world.domain_chunk(15_001, 1)[0]);
    assert_eq!(warm, 0, "{warm} allocations for {RANKS} records");
    eprintln!("warm domain_chunk_into over {RANKS} other ranks: {warm} allocations");
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
            let chain = world.quic_chain_era(record, CertificateEra::Classical);
            let mut message = Vec::new();
            certificate_message_into(&mut message, &chain.expect("QUIC service"));
            message
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

#[test]
fn a_simulated_probe_on_a_warm_scratch_allocates_its_leaf_and_compression_list() {
    // Every probe of a chaos scan is simulated: the fault plan draws wire
    // randomness, so the memo is bypassed. On a scratch that one pass over
    // the chunk has grown, a probe allocates exactly what its builder hands
    // the server: the leaf's DER, and the compression list when it is not
    // empty. The handshake itself, its SNI and its wire allocate nothing.
    // (Before the handshake ran in the scratch, each probe made ~27 more.)
    let world = World::streaming(WorldConfig {
        domains: 20_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, 4_000);
    let scenario = Scenario::at(1362).with_plan(FaultPlan::MODERATE);
    let mut scratch = ProbeScratch::new();
    let scan = |scratch: &mut ProbeScratch| {
        let mut probes = 0;
        quicreach::scan_chunk(&world, &records, scenario, scratch, |_| probes += 1);
        probes
    };
    let probes = scan(&mut scratch);
    let (warm_probes, allocations) = counted(|| scan(&mut scratch));
    assert_eq!(warm_probes, probes);
    let services = records.iter().filter_map(|record| record.quic.as_ref());
    let lists = services
        .filter(|quic| !quic.compression_support.is_empty())
        .count() as u64;
    assert!(probes > 500 && lists > 0, "{probes} probes, {lists} lists");
    assert_eq!(
        allocations,
        probes + lists,
        "{probes} probes with {lists} compression lists made {allocations} allocations"
    );
    eprintln!(
        "warm chaos probes: {allocations} allocations for {probes} probes \
         ({:.2} per probe: one leaf each, {lists} compression lists)",
        allocations as f64 / probes as f64
    );
}
