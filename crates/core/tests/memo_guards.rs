//! Exact-count guards on the engine-owned scenario-class memo: statements
//! about *how many probes simulate*, never about how long anything takes,
//! so they hold on any host.
//!
//! One guard reads the process-wide `quicert_netsim_events_total`
//! counter, so every test in this file takes `SERIAL` — nothing else in
//! the process may run a handshake while that delta is being read.

use std::sync::{Mutex, MutexGuard};

use quicert_churn::ChurnConfig;
use quicert_core::engine::host_parallelism;
use quicert_core::{CampaignConfig, CampaignService, ScanEngine, ServiceConfig};
use quicert_obs::MetricsRegistry;
use quicert_pki::WorldConfig;
use quicert_scanner::quicreach;
use quicert_scanner::Scenario;

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
        ..WorldConfig::default()
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

/// The memo outlives the call: folding the same ranges again on the same
/// engine simulates nothing — not one SimNet event.
#[test]
fn a_repeated_fold_simulates_nothing() {
    let _serial = serial();
    let engine = streamed_100k(2);
    let ranges: Vec<(usize, usize)> = (0..100).map(|i| (i * 1_000 + 1, 1_000)).collect();
    let fold = || {
        engine.fold_ranges(BASE, &ranges, |records, scratch| {
            quicreach::fold_chunk(engine.world(), records, BASE, scratch)
        })
    };
    let events = MetricsRegistry::global().counter("quicert_netsim_events_total", "");
    let first = fold();
    let before = events.get();
    assert!(before > 0, "the first fold simulated");
    let again = fold();
    assert_eq!(events.get(), before, "the second fold ran SimNet events");
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
    let mut simulated = misses.get();
    assert!(simulated > 0);
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
}
