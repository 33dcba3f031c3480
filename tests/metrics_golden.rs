//! Golden metrics-exposition regression: run a pinned serial streaming
//! campaign, render its engine registry in Prometheus text format, and
//! compare byte-for-byte against a checked-in snapshot.
//!
//! The registry is deterministic by construction — every value is a count
//! of deterministic work or a histogram over *simulated* time — except the
//! wall-clock gauges (the fold lump and its stage split), whose names carry
//! `_wall_` precisely so this test (and any other reproducible consumer)
//! can redact them by substring.
//! A drifted snapshot therefore means a metric was renamed, re-labelled,
//! re-binned, or its instrumentation points moved — all things a human
//! should see in review.
//!
//! To (re)generate the snapshot after an intentional metrics change:
//!
//! ```sh
//! QUICERT_BLESS=1 cargo test --test metrics_golden
//! ```

use std::fs;
use std::path::PathBuf;

use quicert::core::ScanEngine;
use quicert::pki::{CertificateEra, WorldConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Replace the value of every non-comment line whose metric name contains
/// `_wall_` — the registry's wall-clock (nondeterministic) series.
fn redact_wall_clock(rendered: &str) -> String {
    rendered
        .lines()
        .map(|line| {
            if !line.starts_with('#') && line.contains("_wall_") {
                let name = line.split_whitespace().next().unwrap_or(line);
                format!("{name} <wall-clock redacted>\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

/// The pinned campaign: a small streaming world scanned serially (one
/// worker, so chunk claiming and the memo's hit/miss split cannot race), with
/// a repeated request to exercise the cache-hit counters and a second era
/// to exercise labelled series.
fn pinned_campaign() -> ScanEngine {
    let engine = ScanEngine::streaming(
        WorldConfig {
            domains: 600,
            seed: 0x0B5E,
        },
        1362,
        1,
    );
    engine.quicreach(engine.scenario());
    engine.quicreach(engine.scenario()); // cache hit
    engine.quicreach(engine.scenario().with_era(CertificateEra::PostQuantum));
    engine.stream_https_scan();
    engine
}

fn pinned_registry_render() -> String {
    redact_wall_clock(&pinned_campaign().metrics_registry().render_prometheus())
}

#[test]
fn metrics_exposition_matches_golden_snapshot() {
    let golden_path = golden_dir().join("metrics.prom");
    let got = pinned_registry_render();

    if std::env::var_os("QUICERT_BLESS").is_some_and(|v| v != "0") {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&golden_path, &got).expect("write golden snapshot");
        eprintln!("blessed {} ({} bytes)", golden_path.display(), got.len());
        return;
    }

    let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run `QUICERT_BLESS=1 cargo test \
             --test metrics_golden` to generate it",
            golden_path.display()
        )
    });

    if got != want {
        let actual_path = golden_dir().join("metrics.actual.prom");
        let _ = fs::write(&actual_path, &got);
        let first_diff = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match first_diff {
            Some((line, (g, w))) => panic!(
                "metrics exposition drifted from the golden snapshot at line {}:\n  \
                 golden: {w}\n  actual: {g}\nfull output written to {}; if the \
                 change is intentional, re-bless with QUICERT_BLESS=1",
                line + 1,
                actual_path.display()
            ),
            None => panic!(
                "metrics exposition drifted from the golden snapshot (lengths {} vs \
                 {}); full output written to {}; if the change is intentional, \
                 re-bless with QUICERT_BLESS=1",
                got.len(),
                want.len(),
                actual_path.display()
            ),
        }
    }
}

#[test]
fn pinned_exposition_is_deterministic_across_campaigns() {
    // Two independent engines over the same configuration must render the
    // same registry bytes — the snapshot above only helps if this holds.
    assert_eq!(pinned_registry_render(), pinned_registry_render());
}

/// What a memo change may move in the snapshot is how a scenario's probes
/// *split* between simulated and replayed (and with it which handshakes the
/// phase histograms see) — never how many there are: per scenario,
/// issued + replayed is the probed services, and over the campaign so is
/// hits + misses.
#[test]
fn probe_counters_partition_the_probed_services() {
    let engine = pinned_campaign();
    let registry = engine.metrics_registry();
    let mut campaign_probes = 0;
    for era in [CertificateEra::Classical, CertificateEra::PostQuantum] {
        let probed = engine
            .quicreach(engine.scenario().with_era(era))
            .shard
            .total() as u64;
        let labels = [("era", era.name()), ("profile", "ideal")];
        let count = |name| registry.labeled_counter(name, &labels, "").get();
        let issued = count("quicert_scan_probes_issued_total");
        let replayed = count("quicert_scan_probes_replayed_total");
        assert!(probed > 0 && issued > 0);
        assert_eq!(issued + replayed, probed, "{era}");
        campaign_probes += probed;
    }
    let hits = registry.counter("quicert_engine_memo_hits_total", "").get();
    let misses = registry
        .counter("quicert_engine_memo_misses_total", "")
        .get();
    assert_eq!(hits + misses, campaign_probes);
}
