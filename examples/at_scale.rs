//! Scanning at scale: a 100,000-record population streamed through the
//! bounded-memory scan path, plus the population-scale report section.
//!
//! ```sh
//! cargo run --release --example at_scale
//! ```
//!
//! The population is never held in memory: a `World` is only the
//! configuration and the CA ecosystem, each scan worker derives the rank
//! ranges it claims into one reused buffer (`domain_chunk_into`), and
//! every chunk folds into mergeable summaries (`QuicReachShard`,
//! `HttpsScanShard`) that are bit-for-bit identical to the per-record scans
//! of the same world — at any worker count and claim size.

use quicert::core::experiments::scale;
use quicert::core::{Campaign, CampaignConfig, ScanEngine};
use quicert::pki::WorldConfig;
use quicert::quic::handshake::HandshakeClass;

const POPULATION: usize = 100_000;
const INITIAL: usize = 1362;

fn main() {
    println!("== quicert at scale: {POPULATION} domains, streamed ==\n");

    // One streaming engine: the world shell costs nothing to build; the
    // scan workers claim record chunks off a shared cursor (adaptively
    // sized: large early, tapering near the tail) and keep only the folded
    // summaries.
    let engine = ScanEngine::streaming(
        WorldConfig {
            domains: POPULATION,
            ..WorldConfig::default()
        },
        INITIAL,
        0, // one worker per core
    );
    println!(
        "memory model: {} workers x one claimed chunk (at most {} records) in \
         flight",
        engine.workers(),
        quicert::core::engine::MAX_ADAPTIVE_CHUNK,
    );

    let funnel = engine.stream_https_scan();
    println!(
        "\n§3.1 funnel (streamed) — resolved {} / {}, A records {}, \
         TLS-reachable {}, QUIC services {}",
        funnel.resolved, funnel.total, funnel.a_records, funnel.tls_reachable, funnel.quic_services,
    );
    println!(
        "chain sizes — p50 {:.0} B, p90 {:.0} B, p99 {:.0} B (64-byte sketch \
         buckets), mean depth {:.2}",
        funnel.chain_der.quantile(0.5),
        funnel.chain_der.quantile(0.9),
        funnel.chain_der.quantile(0.99),
        funnel.chain_depth.mean(),
    );

    let reach = engine.stream_quicreach(engine.scenario());
    println!(
        "\nquicreach @{INITIAL} (streamed) — {} probed, {} reachable",
        reach.total(),
        reach.classes.reachable(),
    );
    for class in [
        HandshakeClass::Amplification,
        HandshakeClass::MultiRtt,
        HandshakeClass::Retry,
        HandshakeClass::OneRtt,
    ] {
        println!(
            "  {:>14}: {:5.2}% of reachable",
            format!("{class:?}"),
            reach.classes.share_of_reachable(class),
        );
    }
    println!(
        "  wire bytes/probe: mean {:.0}, max {:.0}; RTTs: mean {:.2}",
        reach.wire_received.mean(),
        reach.wire_received.max(),
        reach.rtts.mean(),
    );
    // The scenario-class flyweight: a record whose class the engine's memo
    // already held replayed the stored 88-byte result under its own rank;
    // only the misses were simulated (bit-identically — toggle with
    // `with_memoization(false)` and compare).
    if let Some(stats) = engine.pump_stats() {
        let totals = stats.totals();
        let (hits, misses) = (totals.memo_hits, totals.memo_misses);
        println!(
            "  flyweight memo: {hits} hits / {misses} misses ({} distinct classes); \
             {:.1}% of probes replayed instead of simulated",
            totals.distinct_classes,
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    // Campaign telemetry: everything above also landed on the engine's
    // metrics registry — cache hit/miss per artifact family, pump totals,
    // fresh-vs-replayed probe counters, and per-phase handshake timing
    // histograms, all in Prometheus exposition format.
    println!("\n== telemetry tour: the same campaign as a metrics registry ==\n");
    let rendered = engine.metrics_registry().render_prometheus();
    for line in rendered.lines() {
        // Skip the host-dependent wall-clock gauge; everything else is
        // derived from simulated time and deterministic counters.
        if !line.contains("_wall_") {
            println!("{line}");
        }
    }

    // The population-scale ladder exactly as the full report renders it
    // (10k and 100k here; pass PAPER_SCALE_SIZES to climb to 1M).
    let campaign = Campaign::new(CampaignConfig::standard().with_domains(2_000));
    let rows = scale::population_scale(&campaign, &[10_000, POPULATION]);
    println!("\n{}", scale::render_population_scale(&rows));
    println!(
        "note: every row above is summaries-only — no Vec of per-record \
         results exists on the streaming path."
    );
}
