//! `pump_profile` — time one streamed quicreach scan and dump the pump's
//! per-worker counters. The quick way to re-tune the adaptive chunk clamp
//! (`MIN_ADAPTIVE_CHUNK`/`MAX_ADAPTIVE_CHUNK` in `quicert_core::engine`)
//! on a new host: sweep fixed chunk sizes and compare against `0`.
//!
//! ```sh
//! cargo run --release -p quicert-bench --bin pump_profile -- 100000 1 0
//! #                                          domains ──┘      │  └─ chunk (0 = adaptive)
//! #                                          workers ─────────┘
//! ```

use std::time::Instant;

use quicert_core::ScanEngine;
use quicert_pki::WorldConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let chunk: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let config = WorldConfig {
        domains: n,
        seed: 0x5CA1,
        ..WorldConfig::default()
    };
    let engine = ScanEngine::streaming(config, 1362, workers).with_stream_chunk(chunk);
    let start = Instant::now();
    let shard = engine.stream_quicreach(engine.scenario());
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "stream_quicreach {n} @ {workers}w: {elapsed:.3}s ({} probed)",
        shard.total()
    );
    if let Some(stats) = engine.pump_stats() {
        let totals = stats.totals();
        eprintln!(
            "  pump: {}/{} workers, {} chunks, {} records, busy {:.3}s max {:.3}s",
            stats.effective_workers,
            stats.requested_workers,
            totals.chunks_claimed,
            totals.records_folded,
            totals.fold_seconds,
            stats.max_fold_seconds()
        );
        for (i, w) in stats.workers.iter().enumerate() {
            eprintln!(
                "  worker {i}: {} chunks, {} records, {:.3}s",
                w.chunks_claimed, w.records_folded, w.fold_seconds
            );
        }
    }
}
