//! Exact-count guards on the engine's two flyweight tables and on what a
//! resident service keeps: statements about *how many probes simulate*,
//! *how many classes are learned* and *how many bytes stay live*, never
//! about how long anything takes, so they hold on any host.
//!
//! One guard reads the process-wide `quicert_netsim_events_total`
//! counter and others the process-wide live heap, so every test in this
//! file takes `SERIAL` — nothing else in the process may run a handshake
//! or allocate while those deltas are being read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use quicert_churn::{ChurnConfig, ChurnEvent, Timeline};
use quicert_core::engine::host_parallelism;
use quicert_core::service::{TickStats, TICK_LOG_WINDOW};
use quicert_core::{CampaignConfig, CampaignService, ScanEngine, ServiceConfig};
use quicert_obs::MetricsRegistry;
use quicert_pki::world::Provider;
use quicert_pki::{CertificateEra, World, WorldConfig};
use quicert_scanner::quicreach;
use quicert_scanner::Scenario;

/// Heap bytes live in the process, and their high-water mark since the
/// last [`live_heap_and_reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches two static atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        Counting::grew(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The live heap now; the high-water mark restarts from it.
fn live_heap_and_reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed guard must not cascade into the others.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const BASE: Scenario = Scenario::at(1362);

fn streamed_100k(workers: usize) -> ScanEngine {
    let config = WorldConfig {
        domains: 100_000,
        seed: 0x6A4D,
    };
    ScanEngine::streaming(config, 1362, workers)
}

/// A second worker shares the first one's table, so it re-simulates only
/// the classes both met before either had stored them. (With per-worker
/// memos the 2-worker count was ≈1.36× the serial one.)
#[test]
fn a_second_worker_adds_almost_no_misses() {
    let _serial = serial();
    let misses = |workers| {
        let engine = streamed_100k(workers);
        let probed = engine.stream_quicreach(BASE).total() as u64;
        let totals = engine.pump_stats().expect("the scan pumped").totals();
        assert_eq!(totals.memo_hits + totals.memo_misses, probed);
        assert!(totals.distinct_classes <= totals.memo_misses);
        assert_eq!(totals.distinct_classes as usize, engine.memo_classes());
        totals.memo_misses
    };
    let (one, two) = (misses(1), misses(2));
    // Trivially true on a 1-CPU host, where the pump caps at one thread.
    assert!(
        two as f64 <= one as f64 * 1.05,
        "2 workers simulated {two} probes, 1 worker {one} (host_cpus {})",
        host_parallelism()
    );
}

/// A handshake class has no latency, no rank and no name: 100k domains
/// (≈20.8k QUIC services) are under three thousand classes, and nine
/// probes in ten replay. Serial, so the counts are a function of the
/// claiming alone. A per-record field creeping back into `ProbeClass` —
/// the wire's latency step was one until PR 22, at 9,180 misses here —
/// fails this three times over, not by a percent (measured: 2,038 misses,
/// hit ratio 0.902).
#[test]
fn a_hundred_thousand_domains_are_under_three_thousand_classes() {
    let _serial = serial();
    let engine = streamed_100k(1);
    let probed = engine.stream_quicreach(BASE).total() as u64;
    let totals = engine.pump_stats().expect("the scan pumped").totals();
    let (hits, misses) = (totals.memo_hits, totals.memo_misses);
    assert_eq!(hits + misses, probed);
    assert_eq!(totals.distinct_classes as usize, engine.memo_classes());
    let ratio = hits as f64 / probed as f64;
    eprintln!(
        "100k world: {probed} probed, {misses} misses, {} classes, hit ratio {ratio:.3}",
        engine.memo_classes()
    );
    assert!(misses <= 3_000, "{misses} misses of {probed} probes");
    assert!(ratio >= 0.85, "hit ratio {ratio:.3}");
}

/// The memo outlives the call: folding the same ranges again on the same
/// engine simulates nothing — not one exchange event.
#[test]
fn a_repeated_fold_simulates_nothing() {
    let _serial = serial();
    let engine = streamed_100k(2);
    let ranges: Vec<(usize, usize)> = (0..100).map(|i| (i * 1_000 + 1, 1_000)).collect();
    let fold = || {
        engine.fold_ranges(
            BASE,
            &ranges,
            World::domain_chunk_into,
            |records, scratch| quicreach::fold_chunk(engine.world(), records, BASE, scratch),
        )
    };
    let events = MetricsRegistry::global().counter("quicert_netsim_events_total", "");
    let first = fold();
    let before = events.get();
    assert!(before > 0, "the first fold simulated");
    let again = fold();
    assert_eq!(events.get(), before, "the second fold ran exchange events");
    assert_eq!(again, first);
    let totals = engine.pump_stats().expect("fold_ranges pumps").totals();
    assert_eq!((totals.memo_misses, totals.distinct_classes), (0, 0));
    assert_eq!(
        totals.memo_hits as usize,
        first.iter().map(|shard| shard.total()).sum::<usize>()
    );
}

/// After tick 0 a delta tick re-folds whole dirty segments but simulates
/// at most the records churn actually changed: their neighbours' classes
/// were stored by the tick-0 fold.
#[test]
fn a_delta_tick_simulates_at_most_its_changed_ranks() {
    let _serial = serial();
    let campaign = CampaignConfig::small()
        .with_domains(20_000)
        .with_seed(0x6A4D)
        .with_workers(2);
    let churn = ChurnConfig::new(0x7123, 20_000).with_rates(24, 12, 6);
    let mut service = CampaignService::new(ServiceConfig::new(campaign, churn));
    let registry = service.metrics_registry().clone();
    let misses = registry.counter("quicert_engine_memo_misses_total", "");
    service.snapshot_at(0);
    let at_tick_0 = misses.get();
    assert!(at_tick_0 > 0);
    let mut simulated = at_tick_0;
    for tick in 1..=12 {
        service.snapshot_at(tick);
        let stats = *service.tick_log().last().expect("the tick was scanned");
        let now = misses.get();
        assert!(!stats.full_rescan && !stats.all_changed);
        assert!(
            stats.probed > stats.changed_ranks,
            "tick {tick}: segments re-fold"
        );
        assert!(
            (now - simulated) as usize <= stats.changed_ranks,
            "tick {tick}: {} simulated for {} changed ranks ({} probed)",
            now - simulated,
            stats.changed_ranks,
            stats.probed
        );
        simulated = now;
    }
    // The bound above must not hold vacuously. A drift moves a deployment
    // onto another parent chain — a new key unless a record of that name
    // length already serves it — so twelve ticks of 12 drifts each teach
    // the memo some class (25 probes here); none at all would mean churned
    // records replay the class they had before the churn.
    assert!(
        simulated > at_tick_0,
        "144 drifted chains and not one new class: a stale replay?"
    );
}

/// Churn reaches the HTTPS chain only through an era migration, so the
/// tick-0 fold teaches the world's chain-shape flyweight every class the
/// funnel will ever look up: ticks and historical reads add none.
#[test]
fn a_tick_without_a_migration_adds_no_chain_shape_class() {
    let _serial = serial();
    let campaign = CampaignConfig::small()
        .with_domains(20_000)
        .with_seed(0x6A4D)
        .with_workers(2);
    let churn = ChurnConfig::new(0x7123, 20_000)
        .with_rates(24, 12, 6)
        .with_migration(9, Provider::Cloudflare, CertificateEra::Hybrid);
    let mut service = CampaignService::new(ServiceConfig::new(campaign, churn));
    let classes = |service: &CampaignService| service.engine().world().chain_shape_classes();
    assert_eq!(classes(&service), 0);
    service.snapshot_at(0);
    let learned = classes(&service);
    // One class per ≈10 TLS-reachable domains at this size.
    assert!(learned > 0 && learned * 8 < 20_000, "{learned}");
    for tick in [1, 2, 3, 5, 8] {
        service.snapshot_at(tick);
        assert_eq!(classes(&service), learned, "tick {tick}");
    }
    service.snapshot_at(4);
    service.full_rescan_at(6);
    assert_eq!(classes(&service), learned, "historical reads");
    // The migration moves every Cloudflare deployment to another era —
    // new keys, never stale ones — and is the last tick that can add.
    service.snapshot_at(9);
    let migrated = classes(&service);
    assert!(migrated > learned);
    service.snapshot_at(12);
    assert_eq!(classes(&service), migrated);
}

/// Serve ticks 0 and `now` on a `churn.domains`-rank service in 64-rank
/// segments at two workers, then read tick `now - 1` back: the read's peak
/// live heap over the heap before it, and its logged stats. The read must
/// equal a full rescan.
fn read_one_tick_back(churn: ChurnConfig, now: u64) -> (usize, TickStats) {
    let campaign = CampaignConfig::small()
        .with_domains(churn.domains)
        .with_seed(0x6A4D)
        .with_workers(2);
    let mut service =
        CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(64));
    service.snapshot_at(0);
    service.snapshot_at(now);
    let before = live_heap_and_reset_peak();
    let read = service.snapshot_at(now - 1);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let stats = *service.tick_log().last().expect("logged");
    assert!(stats.full_rescan && stats.tick == now - 1);
    assert_eq!(*read, service.full_rescan_at(now - 1));
    (peak, stats)
}

/// A read one tick behind the cache is served the way a delta tick is: its
/// peak live heap is per worker one chunk (the QUIC services of a 64-rank
/// segment) with its scratch, one 216 B reach summary per segment whose
/// QUIC services the tick churned (its 14 events touch 13 of the 313
/// segments here, 4 of them at a QUIC service), the undo list of the 14
/// ranks the tick churned and one clone of the cached funnel — not a
/// summary per segment (2.6 MB), no funnel per re-folded segment, and no
/// copy of the churn state's 8 B a domain. Measured: ≈+17 kB at 2 workers;
/// ≈+170–177 kB while a read cloned and rewound the churn state, and
/// ≈+207 kB while every re-folded segment also carried its own ≈8.4 kB
/// funnel, neither of which this budget admits.
#[test]
fn a_recent_read_peaks_at_its_refolded_segments() {
    let _serial = serial();
    const WORKERS: usize = 2;
    const SEGMENT: usize = 64;
    const SUMMARY: usize = 10_240;
    const REACH: usize = 256;
    let (peak, stats) = read_one_tick_back(ChurnConfig::new(0x7123, 20_000), 2);
    assert!(0 < stats.dirty_segments && stats.dirty_segments <= 14);
    // Per worker the QUIC services of one segment (one rank in ≈5, ≈300 B
    // each with its name), its scratch and two reach summaries in flight;
    // the re-folded segments' reach summaries, returned in order; and the
    // snapshot's funnel, a clone of the cached one.
    let budget = WORKERS * (SEGMENT * 128 + 2 * REACH) + 14 * REACH + SUMMARY;
    assert!(peak <= budget, "a read peaked at {peak} B over {budget} B");
    eprintln!(
        "recent read: peak live heap +{peak} B for {} re-folded segments (budget {budget} B)",
        stats.dirty_segments
    );
}

/// A read one tick back costs its span, not its population. One rotation
/// a tick, and the read tick picked so that it hits a QUIC service: the
/// read re-folds one segment on a 20k- and on an 80k-domain service, and
/// the two peaks of live heap differ by at most the span's one `churned`
/// flag per segment (313 vs 1,250) and a constant for the rest — the QUIC
/// services of the two re-folded segments and the two populations' cached
/// funnels. While a read cloned the churn state they differed by its 8 B a
/// domain, ≈480 kB.
#[test]
fn a_read_one_tick_back_peaks_the_same_at_20k_and_80k_domains() {
    let _serial = serial();
    const REST: usize = 4_096;
    let peak = |domains: usize| {
        let churn = ChurnConfig::new(0x7123, domains).with_rates(1, 0, 0);
        let (timeline, world) = (
            Timeline::new(churn.clone()),
            World::streaming(WorldConfig {
                domains,
                seed: 0x6A4D,
            }),
        );
        let rotates_quic = |tick: u64| match timeline.events_at(tick)[..] {
            [ChurnEvent::RotateCert { rank }, ..] => world.serves_quic(rank),
            _ => unreachable!("tick {tick} rotates one rank first"),
        };
        let now = (2..)
            .find(|&t| rotates_quic(t))
            .expect("an unbounded search");
        let (peak, stats) = read_one_tick_back(churn, now);
        assert_eq!(stats.dirty_segments, 1, "{domains} domains");
        (peak, stats.total_segments)
    };
    let ((small, small_segments), (large, large_segments)) = (peak(20_000), peak(80_000));
    let flags = large_segments - small_segments;
    eprintln!("read one tick back: peak +{small} B at 20k, +{large} B at 80k");
    assert!(
        large.abs_diff(small) <= flags + REST,
        "+{small} B at 20k, +{large} B at 80k (at most {flags} + {REST} B apart)"
    );
}

/// A read's cost follows the churn it spans, not the clock: read one tick
/// back at tick ≈100 and at tick ≈5,000 on the same service and it folds
/// the same number of records both times — the one segment that tick's
/// single rotation touched — where a refold from tick 0 folded the
/// population. The ticks are picked so that the rotated rank serves QUIC,
/// decided by its full derivation; a tick whose rotated rank serves none
/// leaves every segment clean, and reading it back folds nothing.
#[test]
fn a_read_one_tick_back_folds_as_much_at_tick_5000_as_at_tick_100() {
    let _serial = serial();
    const DOMAINS: usize = 2_048;
    const SEGMENT: usize = 64;
    let campaign = CampaignConfig::small()
        .with_domains(DOMAINS)
        .with_seed(0x6A4D)
        .with_workers(1);
    // One rotation a tick: every tick churns exactly one rank.
    let churn = ChurnConfig::new(0x7123, DOMAINS).with_rates(1, 0, 0);
    let timeline = Timeline::new(churn.clone());
    let mut service =
        CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(SEGMENT));
    let world = service.engine().world();
    let rotates_quic = |tick: u64| match timeline.events_at(tick)[..] {
        [ChurnEvent::RotateCert { rank }, ..] => world.domain_chunk(rank, 1)[0].has_quic(),
        _ => unreachable!("tick {tick} rotates one rank first"),
    };
    let first = |from: u64, quic: bool| {
        (from..)
            .find(|&t| rotates_quic(t) == quic)
            .expect("an unbounded search")
    };
    let early = first(100, true);
    // Past `early + 1`, so the tick read back is not a snapshot `early` left resident.
    let (quiet, late) = (first(early + 2, false), first(5_000, true));
    let folded = service
        .metrics_registry()
        .counter("quicert_engine_records_folded_total", "");
    let mut read_back = |now: u64| {
        service.snapshot_at(now);
        let before = folded.get();
        let read = service.snapshot_at(now - 1);
        let records = folded.get() - before;
        let logged = service.tick_log().last().map(|t| (t.tick, t.full_rescan));
        assert_eq!(logged, Some((now - 1, true)), "tick {} was read", now - 1);
        assert_eq!(*read, service.full_rescan_at(now - 1), "tick {}", now - 1);
        records
    };
    let (early, quiet, late) = (read_back(early), read_back(quiet), read_back(late));
    assert_eq!(
        early, late,
        "records folded by a read at tick ≈99 and ≈4,999"
    );
    assert_eq!(late, SEGMENT as u64);
    assert!(late < DOMAINS as u64);
    assert_eq!(quiet, 0, "a read whose rotated rank serves no QUIC");
}

/// Everything a resident service accumulates is a function of its
/// population, not of its clock: 10,000 ticks with a historical read every
/// 50, and the snapshot store, the tick log, the churn state, both
/// flyweight tables and the live heap itself all sit where they sat at
/// tick 2,000 — and what the service holds there fits a budget that one
/// funnel per segment would break.
#[test]
fn resident_state_stays_bounded_over_a_10000_tick_soak() {
    let _serial = serial();
    const DOMAINS: usize = 128;
    let campaign = CampaignConfig::small()
        .with_domains(DOMAINS)
        .with_seed(0xC4A7)
        .with_workers(1);
    let churn = ChurnConfig::new(0x7123, DOMAINS).with_migration(
        4,
        Provider::Cloudflare,
        CertificateEra::Hybrid,
    );
    let baseline = live_heap_and_reset_peak();
    let mut svc = CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(16));
    let registry = svc.metrics_registry().clone();
    let resident = registry.gauge("quicert_service_snapshots_resident", "");
    let hits = registry.counter("quicert_engine_memo_hits_total", "");
    let misses = registry.counter("quicert_engine_memo_misses_total", "");
    let mut shares = Vec::new();
    let (mut shape_classes, mut churn_bytes) = (0, 0);
    let mut at_2000 = (0, 0);
    for tick in 0..=10_000u64 {
        svc.snapshot_at(tick);
        if tick % 50 == 49 {
            // Long evicted from the snapshot store: a read spanning half
            // the clock (up to 5,000 ticks), whose churn touched every
            // segment.
            svc.snapshot_at(tick / 2);
            let read = svc.tick_log().last().expect("logged");
            assert!(read.full_rescan && read.dirty_segments == read.total_segments);
        }
        assert!(resident.get() <= 16.0, "tick {tick}");
        assert!(svc.tick_log().len() < 2 * TICK_LOG_WINDOW, "tick {tick}");
        assert!(svc.engine().memo_classes() <= quicreach::MEMO_CLASS_CAPACITY);
        match tick {
            // The migration tick is the last that can add a chain class;
            // the first tick sized the churn state for good.
            4 => {
                shape_classes = svc.engine().world().chain_shape_classes();
                churn_bytes = svc.state().heap_bytes();
                assert!(shape_classes > 0 && shape_classes <= quicreach::MEMO_CLASS_CAPACITY);
                assert!(churn_bytes <= 8 * DOMAINS + 64, "{churn_bytes}");
            }
            2_000 => at_2000 = (live_heap_and_reset_peak(), svc.engine().memo_classes()),
            _ => {}
        }
        if tick >= 4 {
            assert_eq!(svc.engine().world().chain_shape_classes(), shape_classes);
            assert_eq!(svc.state().heap_bytes(), churn_bytes, "tick {tick}");
        }
        if tick % 2_500 == 0 {
            shares.push(hits.get() as f64 / (hits.get() + misses.get()) as f64);
        }
    }
    // The memo keeps paying: its cumulative hit share never falls from one
    // quarter of the run to the next, and classes only ever enter through
    // a simulated probe.
    assert!(shares.windows(2).all(|w| w[0] <= w[1]), "{shares:?}");
    assert!(shares[4] > 0.9, "{shares:?}");
    assert!(svc.engine().memo_classes() as u64 <= misses.get());
    // 8,000 more ticks and 160 more reads moved the live heap by what the
    // memo learned since (≤ 512 B a class, rehash slack included) and 8 kB.
    let (live_then, classes_then) = at_2000;
    let learned = svc.engine().memo_classes() - classes_then;
    let live_now = live_heap_and_reset_peak();
    let held = live_then - baseline;
    eprintln!(
        "soak: live heap {live_then} B at tick 2,000 ({held} B held by the service), \
         {live_now} B at tick 10,000; \
         {learned} memo classes learned since, churn state {churn_bytes} B, \
         {shape_classes} chain classes, hit shares {shares:?}"
    );
    assert!(
        live_now <= live_then + learned * 512 + 8_192,
        "live heap {live_then} B at tick 2,000, {live_now} B at tick 10,000 ({learned} classes learned)"
    );
    // And what the service holds at tick 2,000 (16 snapshots, ≈1.5k logged
    // ticks, both tables, a reach summary per segment and one funnel) is
    // ≈812 kB over the heap it was built on. One ≈7.5 kB funnel cached per
    // segment put it at ≈872 kB.
    assert!(held <= 840_000, "the service held {held} B at tick 2,000");
}
