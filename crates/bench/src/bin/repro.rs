//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p quicert-bench --bin repro            # 20k domains
//! cargo run --release -p quicert-bench --bin repro -- 100000  # bigger world
//! cargo run --release -p quicert-bench --bin repro -- 20000 42  # custom seed
//! cargo run --release -p quicert-bench --bin repro -- 20000 42 8  # 8 workers
//! ```
//!
//! The third argument is the scan worker count (0 = one per core, 1 =
//! serial); when absent, a `QUICERT_WORKERS` environment override is
//! honored (same semantics), so at-scale runs are tunable without code or
//! command-line edits. The report is bit-for-bit identical at any setting.
//!
//! `--ticks N` (or `QUICERT_TICKS=N`) additionally drives the resident
//! campaign service through `N` churn ticks after the report, printing
//! per-tick delta-scan stats to stderr — stdout stays the golden report.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use quicert_core::{full_report, Campaign, CampaignConfig, ReportOptions};

/// The `QUICERT_WORKERS` override (`0` = one worker per core), when set
/// and parseable.
fn env_workers() -> Option<usize> {
    std::env::var("QUICERT_WORKERS").ok()?.trim().parse().ok()
}

/// The `QUICERT_TICKS` override, when set and parseable.
fn env_ticks() -> Option<u64> {
    std::env::var("QUICERT_TICKS").ok()?.trim().parse().ok()
}

fn main() {
    // Positional args (domains, seed, workers) with one flag: `--ticks N`
    // may appear anywhere and is consumed before positional parsing.
    let mut ticks: Option<u64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == "--ticks" {
            ticks = raw.next().and_then(|a| a.parse().ok());
        } else if let Some(n) = arg.strip_prefix("--ticks=") {
            ticks = n.parse().ok();
        } else {
            positional.push(arg);
        }
    }
    let ticks = ticks.or_else(env_ticks);
    let mut args = positional.into_iter();
    let domains: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);
    let seed: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(0xC04E_2022);
    let workers: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .or_else(env_workers)
        .unwrap_or(0);

    eprintln!(
        "generating world: {domains} domains, seed {seed:#x}, workers {workers} (0 = auto) ..."
    );
    let campaign = Campaign::new(
        CampaignConfig::standard()
            .with_domains(domains)
            .with_seed(seed)
            .with_workers(workers),
    );
    eprintln!(
        "scanning with {} worker thread(s) ...",
        campaign.engine().workers(),
    );

    let options = ReportOptions {
        telescope_per_provider: 20,
        fig11_reps: 5,
        compression_stride: (domains / 2_000).max(1),
        full_sweep: true,
        guidance_mitigation: true,
        network_profiles: true,
        resumption: true,
        pq_eras: true,
        population_scale: true,
        chaos: true,
        churn: true,
        // The paper-scale ladder: 10k / 100k / 1M domains streamed in
        // bounded memory.
        scale_sizes: quicert_core::experiments::scale::PAPER_SCALE_SIZES,
    };
    // Pump observability: stream the campaign's own population once and
    // report what the pump workers did — first, so that the stats are this
    // pass's and not a later one's. Stats go to stderr so stdout stays the
    // golden report.
    campaign.engine().stream_quicreach(campaign.scenario());
    if let Some(stats) = campaign.engine().pump_stats() {
        let totals = stats.totals();
        eprintln!(
            "stream pump: {} worker(s) of {} requested, {} chunks, {} records, {:.3}s busy (max worker {:.3}s)",
            stats.effective_workers,
            stats.requested_workers,
            totals.chunks_claimed,
            totals.records_folded,
            totals.fold_seconds,
            stats.max_fold_seconds(),
        );
        eprintln!(
            "stream memo: {} hits, {} misses, {} distinct classes across workers",
            totals.memo_hits, totals.memo_misses, totals.distinct_classes,
        );
        for (i, w) in stats.workers.iter().enumerate() {
            eprintln!(
                "  worker {i}: {} chunks, {} records, {:.3}s, memo {}/{} ({} classes)",
                w.chunks_claimed,
                w.records_folded,
                w.fold_seconds,
                w.memo_hits,
                w.memo_misses,
                w.distinct_classes
            );
        }
    }

    let report = full_report(&campaign, options);
    println!("{report}");

    // The full campaign registry — every counter and histogram the scans
    // touched — renders to stderr on request; stdout stays the golden
    // report byte-for-byte either way.
    if std::env::var("QUICERT_METRICS").map(|v| v == "1") == Ok(true) {
        eprint!(
            "{}",
            campaign.engine().metrics_registry().render_prometheus()
        );
    }

    // Resident-service mode: drive the era-migration churn timeline for
    // `--ticks N` ticks through the delta-scan path, reporting what each
    // tick cost. All of it goes to stderr.
    if let Some(ticks) = ticks.filter(|&t| t > 0) {
        eprintln!("churn service: advancing {ticks} tick(s) through delta scans ...");
        let mut service = quicert_core::CampaignService::new(
            quicert_core::experiments::churn::era_migration_config(&campaign),
        );
        for tick in 0..=ticks {
            let snapshot = service.snapshot_at(tick);
            let reachable = snapshot.reach.classes.reachable();
            let Some(&stats) = service.tick_log().last() else {
                continue;
            };
            eprintln!(
                "  tick {}: {} event(s), {} rank(s) churned{}, probed {}/{} ({} of {} segments dirty), {} reachable",
                stats.tick,
                stats.events,
                stats.changed_ranks,
                if stats.all_changed {
                    " [era migration: all segments dirty]"
                } else {
                    ""
                },
                stats.probed,
                stats.full_probe_count,
                stats.dirty_segments,
                stats.total_segments,
                reachable,
            );
        }
    }
}
