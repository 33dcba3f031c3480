//! Scan-engine throughput: the end-to-end quicreach scan at 1 / 2 / 4 / 8
//! workers, the batched (`SimNet`) vs per-probe exchange paths, the warm
//! (resumption) scan path, and the streaming pump at the paper's million
//! (and a ten-million stress row).
//!
//! Unlike the figure benches this harness also *persists* its measurements:
//! it writes a `BENCH_scan.json` to the workspace root so future changes
//! have a perf trajectory to compare against.
//!
//! Set `QUICERT_BENCH_SMOKE=1` (the CI default) to run a down-scaled smoke
//! configuration that finishes in seconds while still exercising every
//! timed path and emitting the same JSON shape.
//!
//! ```sh
//! cargo bench -p quicert-bench --bench scan_engine
//! QUICERT_BENCH_SMOKE=1 cargo bench -p quicert-bench --bench scan_engine
//! ```

use std::hint::black_box;
use std::time::Instant;

use quicert_churn::ChurnConfig;
use quicert_core::engine::host_parallelism;
use quicert_core::{CampaignConfig, CampaignService, PumpStats, ScanEngine, ServiceConfig};
use quicert_netsim::FaultPlan;
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_scanner::{quicreach, Scenario};
use quicert_session::ResumptionPolicy;

const SEED: u64 = 0x5CA1;
const INITIAL: usize = 1362;
/// The paper's baseline scenario at the bench's Initial size.
const BASE: Scenario = Scenario::at(INITIAL);

/// Bench scale: (domains, samples); the smoke configuration trades
/// statistical niceness for CI wall-clock.
fn scale() -> (usize, usize) {
    if smoke() {
        (600, 1)
    } else {
        (3_000, 3)
    }
}

fn smoke() -> bool {
    std::env::var_os("QUICERT_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Population for the streaming at-scale row: the paper's full million in
/// a real run, downscaled in smoke mode so CI still exercises the
/// streaming path end to end.
fn stream_population() -> usize {
    if smoke() {
        20_000
    } else {
        1_000_000
    }
}

/// Population for the ten-million stress row (smoke-scaled in CI).
fn stream_population_10m() -> usize {
    if smoke() {
        50_000
    } else {
        10_000_000
    }
}

/// Population for the chaos fault-grid rows: fault injection adds PTO
/// retransmission rounds per probe, so the rows run a smaller population
/// than the fault-free streaming rows.
fn chaos_population() -> usize {
    if smoke() {
        4_000
    } else {
        100_000
    }
}

fn world(domains: usize) -> World {
    World::generate(WorldConfig {
        domains,
        seed: SEED,
        ..WorldConfig::default()
    })
}

/// Mean seconds of `samples` runs of `f` (one warm-up run first).
fn time_mean(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..samples {
        f();
    }
    start.elapsed().as_secs_f64() / samples as f64
}

struct EngineRow {
    workers: usize,
    resolved_workers: usize,
    seconds: f64,
}

/// End-to-end: a fresh engine computes the default-size quicreach artifact
/// (world generation excluded from the timed region).
fn bench_engine(domains: usize, samples: usize, workers: usize) -> EngineRow {
    let mut resolved_workers = 0;
    let seconds = {
        // One warm-up plus `samples` timed runs, each on a fresh engine so
        // the artifact cache never short-circuits the scan.
        let mut run = || {
            let engine = ScanEngine::new(world(domains), INITIAL, workers);
            resolved_workers = engine.workers();
            black_box(engine.quicreach(engine.scenario()).len());
        };
        run();
        // World generation dominates engine construction; regenerate
        // outside the timed region by pre-building the engines.
        let mut engines: Vec<ScanEngine> = (0..samples)
            .map(|_| ScanEngine::new(world(domains), INITIAL, workers))
            .collect();
        let start = Instant::now();
        for engine in &mut engines {
            black_box(engine.quicreach(engine.scenario()).len());
        }
        start.elapsed().as_secs_f64() / samples as f64
    };
    EngineRow {
        workers,
        resolved_workers,
        seconds,
    }
}

struct StreamRow {
    population: usize,
    workers: usize,
    memoized: bool,
    seconds: f64,
    probed: usize,
    reachable: usize,
    pump: PumpStats,
    /// The engine's full metrics registry after the scan, rendered as one
    /// compact JSON object — each bench row carries its own snapshot.
    metrics_json: String,
}

/// One streamed scan of a never-materialized population at one requested
/// worker count, with the pump's own counters captured. `memoized` toggles
/// the scenario-class flyweight — the bypassed row is the A/B reference
/// the memoized rows are guarded against (results are bit-identical
/// either way; only the clock moves).
fn bench_stream(label: &str, population: usize, workers: usize, memoized: bool) -> StreamRow {
    let config = WorldConfig {
        domains: population,
        seed: SEED,
        ..WorldConfig::default()
    };
    let engine = ScanEngine::streaming(config, INITIAL, workers).with_memoization(memoized);
    // One timed pass only: at a million-plus records the run *is* the
    // statistics (smoke mode keeps the same shape).
    let start = Instant::now();
    let shard = engine.stream_quicreach(engine.scenario());
    let seconds = start.elapsed().as_secs_f64();
    black_box(shard.total());
    let pump = engine.pump_stats().unwrap_or_default();
    let metrics_json = engine.metrics_registry().render_json();
    let totals = pump.totals();
    let memo_note = if memoized { "memo" } else { "no-memo" };
    eprintln!(
        "{label:<10} {memo_note:<8} {seconds:>10.4} s  ({population} domains, {} probed, \
         {} reachable, {} workers of {} requested, {} chunks, \
         memo {} hits / {} misses / {} classes)",
        shard.total(),
        shard.classes.reachable(),
        pump.effective_workers,
        pump.requested_workers,
        totals.chunks_claimed,
        totals.memo_hits,
        totals.memo_misses,
        totals.distinct_classes
    );
    StreamRow {
        population,
        workers,
        memoized,
        seconds,
        probed: shard.total(),
        reachable: shard.classes.reachable(),
        pump,
        metrics_json,
    }
}

struct ChaosRow {
    plan: FaultPlan,
    seconds: f64,
    probed: usize,
    reachable: usize,
    client_retransmissions: u64,
    server_retransmissions: u64,
    fault_drops: u64,
    fault_duplications: u64,
    fault_corruptions: u64,
    stall_ms: f64,
}

/// One streamed chaos scan per ladder rung: the fault-free rung is the
/// baseline, the lossy rungs carry the recovery-cost counters the CI
/// guard reads (retransmissions must be nonzero under loss, zero without).
fn bench_chaos(population: usize, plan: FaultPlan) -> ChaosRow {
    let config = WorldConfig {
        domains: population,
        seed: SEED,
        ..WorldConfig::default()
    };
    let engine = ScanEngine::streaming(config, INITIAL, 8);
    let start = Instant::now();
    let shard = engine.stream_quicreach(engine.scenario().with_plan(plan));
    let seconds = start.elapsed().as_secs_f64();
    black_box(shard.total());
    eprintln!(
        "scan_chaos {:<10} {seconds:>10.4} s  ({population} domains, {} reachable, \
         {} cli rtx, {} srv rtx, {} drops, {} dups, {} corrupt)",
        plan.to_string(),
        shard.classes.reachable(),
        shard.client_retransmissions,
        shard.server_retransmissions,
        shard.fault_drops,
        shard.fault_duplications,
        shard.fault_corruptions,
    );
    ChaosRow {
        plan,
        seconds,
        probed: shard.total(),
        reachable: shard.classes.reachable(),
        client_retransmissions: shard.client_retransmissions,
        server_retransmissions: shard.server_retransmissions,
        fault_drops: shard.fault_drops,
        fault_duplications: shard.fault_duplications,
        fault_corruptions: shard.fault_corruptions,
        stall_ms: shard.stall_ns_total as f64 / 1e6,
    }
}

struct ChurnRow {
    population: usize,
    delta_seconds: f64,
    delta_probed: usize,
    full_seconds: f64,
    full_probed: usize,
    changed_ranks: usize,
    dirty_segments: usize,
    total_segments: usize,
}

/// The resident campaign's delta-scan path against a from-scratch full
/// rescan of the same churned tick. Tick 0 populates the segment cache
/// outside the timed region; tick 1 carries one tick of sparse churn, so
/// the delta re-folds a handful of segments while the full rescan pays
/// for the whole population. CI asserts the delta probes strictly fewer
/// records AND finishes faster (the two snapshots are bit-identical —
/// asserted inline).
fn bench_churn(population: usize) -> ChurnRow {
    let campaign = CampaignConfig::standard()
        .with_domains(population)
        .with_seed(SEED)
        .with_workers(8);
    let churn = ChurnConfig::new(SEED ^ 0x00C4_2A17, population);
    let mut service = CampaignService::new(
        ServiceConfig::new(campaign, churn).with_segment_size((population / 50).clamp(32, 1024)),
    );
    service.snapshot_at(0);
    let start = Instant::now();
    let delta = service.snapshot_at(1);
    let delta_seconds = start.elapsed().as_secs_f64();
    black_box(delta.reach.classes.reachable());
    let stats = *service
        .tick_log()
        .last()
        .expect("snapshot_at always logs a scan");
    let start = Instant::now();
    let full = service.full_rescan_at(1);
    let full_seconds = start.elapsed().as_secs_f64();
    black_box(full.reach.classes.reachable());
    assert_eq!(
        *delta, full,
        "delta scan diverged from the full rescan at tick 1"
    );
    eprintln!(
        "scan_churn delta      {delta_seconds:>10.4} s  ({population} domains, {} probed, \
         {} of {} segments, {} ranks churned)",
        stats.probed, stats.dirty_segments, stats.total_segments, stats.changed_ranks,
    );
    eprintln!(
        "scan_churn full       {full_seconds:>10.4} s  ({} probed, {:.2}x delta)",
        stats.full_probe_count,
        full_seconds / delta_seconds,
    );
    ChurnRow {
        population,
        delta_seconds,
        delta_probed: stats.probed,
        full_seconds,
        full_probed: stats.full_probe_count,
        changed_ranks: stats.changed_ranks,
        dirty_segments: stats.dirty_segments,
        total_segments: stats.total_segments,
    }
}

/// Serialize one streamed row as a JSON object. The per-row counters are
/// the engine's own metrics registry, embedded verbatim — the bench no
/// longer hand-serializes pump counters (the registry carries
/// `quicert_engine_*` totals, the `quicert_scan_*` probe split, and the
/// handshake-phase histograms).
fn stream_row_json(row: &StreamRow, speedup_vs_1w: f64, indent: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!("{indent}{{\n"));
    s.push_str(&format!("{indent}  \"workers\": {},\n", row.workers));
    s.push_str(&format!(
        "{indent}  \"effective_workers\": {},\n",
        row.pump.effective_workers
    ));
    s.push_str(&format!("{indent}  \"memoized\": {},\n", row.memoized));
    s.push_str(&format!("{indent}  \"population\": {},\n", row.population));
    s.push_str(&format!("{indent}  \"probed\": {},\n", row.probed));
    s.push_str(&format!("{indent}  \"reachable\": {},\n", row.reachable));
    s.push_str(&format!("{indent}  \"seconds\": {:.6},\n", row.seconds));
    s.push_str(&format!(
        "{indent}  \"speedup_vs_1w\": {speedup_vs_1w:.3},\n"
    ));
    s.push_str(&format!(
        "{indent}  \"fold_seconds_max\": {:.6},\n",
        row.pump.max_fold_seconds()
    ));
    s.push_str(&format!("{indent}  \"metrics\": {}\n", row.metrics_json));
    s.push_str(&format!("{indent}}}"));
    s
}

fn main() {
    let (domains, samples) = scale();
    let world = world(domains);
    let records: Vec<&DomainRecord> = world.quic_services().collect();
    eprintln!(
        "scan_engine bench: {domains} domains, {} QUIC services, Initial {INITIAL}, \
         {samples} samples",
        records.len()
    );

    // Batched (one SimNet per shard) vs per-probe (one exchange at a time),
    // both serial so the comparison isolates the scheduling path.
    let batched = time_mean(samples, || {
        black_box(quicreach::scan_records(&world, &records, BASE).len());
    });
    let per_probe = time_mean(samples, || {
        black_box(quicreach::scan_records_per_probe(&world, &records, BASE).len());
    });
    // The warm (resumption) path probes every service twice — cold visit
    // with ticket issuance, then the resumed revisit.
    let mut warm_resumed = 0usize;
    let warm = time_mean(samples, || {
        let results = quicreach::warm_scan(
            &world,
            &records,
            BASE.with_policy(ResumptionPolicy::WarmAfterFirstVisit),
        );
        warm_resumed = results.iter().filter(|r| r.resumed).count();
        black_box(results.len());
    });
    // The post-quantum era path: same scan, ML-DSA chains — an order of
    // magnitude more flight bytes to build, fragment and simulate.
    let pq = time_mean(samples, || {
        black_box(
            quicreach::scan_records(&world, &records, BASE.with_era(CertificateEra::PostQuantum))
                .len(),
        );
    });
    eprintln!("scan path  batched    {batched:>10.4} s");
    eprintln!(
        "scan path  per-probe  {per_probe:>10.4} s  ({:.2}x)",
        per_probe / batched
    );
    eprintln!(
        "scan path  warm       {warm:>10.4} s  ({warm_resumed} resumed, \
         {:.2}x batched cold)",
        warm / batched
    );
    eprintln!(
        "scan path  pq-era     {pq:>10.4} s  ({:.2}x batched classical)",
        pq / batched
    );

    // The engine end to end at 1 / 2 / 4 / 8 workers, each row with its
    // speedup over the 1-worker row. The engine caps spawned threads at
    // the host's cores, so oversubscribed rows report the serial (or
    // core-bound) time instead of regressing below it.
    let engine_rows: Vec<EngineRow> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| bench_engine(domains, samples, workers))
        .collect();
    let engine_w1 = engine_rows[0].seconds;
    for row in &engine_rows {
        eprintln!(
            "engine     workers={} (resolved {})  {:>10.4} s  ({:.2}x vs 1w)",
            row.workers,
            row.resolved_workers,
            row.seconds,
            engine_w1 / row.seconds
        );
    }

    // The streaming at-scale path: a never-materialized population pumped
    // through ScanEngine::stream_quicreach in bounded memory (one chunk
    // per worker plus the mergeable summaries). World generation is part
    // of the timed region by design — at scale the population exists only
    // as chunks derived inside the scan. Measured at 1 and 8 requested
    // workers so the artifact carries the parallel speedup on multi-core
    // hosts (single-core hosts cap both rows to one pump thread).
    // Row order: memoized serial (the headline), memo-bypassed serial (the
    // A/B reference the CI ratio guard reads), memoized at 8 workers.
    let stream_domains = stream_population();
    let scan_1m_rows: Vec<StreamRow> = [(1usize, true), (1, false), (8, true)]
        .into_iter()
        .map(|(workers, memoized)| bench_stream("scan_1m", stream_domains, workers, memoized))
        .collect();
    let memo_speedup_1w = scan_1m_rows[1].seconds / scan_1m_rows[0].seconds;
    eprintln!("scan_1m    memo speedup at 1 worker: {memo_speedup_1w:.2}x");
    let scan_10m_rows: Vec<StreamRow> =
        vec![bench_stream("scan_10m", stream_population_10m(), 8, true)];

    // The chaos axis: the fault-free rung as baseline, one lossy rung and
    // the duplication-only rung. CI asserts the MODERATE row recovers
    // (nonzero retransmissions) and the NONE row never pays for recovery.
    let chaos_rows: Vec<ChaosRow> = [FaultPlan::NONE, FaultPlan::MODERATE, FaultPlan::DUP_STORM]
        .into_iter()
        .map(|plan| bench_chaos(chaos_population(), plan))
        .collect();

    // The resident-service axis: delta scan vs full rescan of one sparse
    // churn tick. CI asserts the delta probes strictly fewer records and
    // is strictly faster.
    let churn_row = bench_churn(chaos_population());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"domains\": {domains},\n"));
    json.push_str(&format!("  \"quic_services\": {},\n", records.len()));
    json.push_str(&format!("  \"initial_size\": {INITIAL},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"host_cpus\": {},\n", host_parallelism()));
    json.push_str(&format!("  \"smoke\": {},\n", smoke()));
    json.push_str("  \"scan_paths\": {\n");
    json.push_str(&format!("    \"batched_seconds\": {batched:.6},\n"));
    json.push_str(&format!("    \"per_probe_seconds\": {per_probe:.6}\n"));
    json.push_str("  },\n");
    json.push_str("  \"scan_warm\": {\n");
    json.push_str(&format!("    \"seconds\": {warm:.6},\n"));
    json.push_str(&format!("    \"resumed\": {warm_resumed},\n"));
    json.push_str(&format!(
        "    \"policy\": \"{}\"\n",
        ResumptionPolicy::WarmAfterFirstVisit.name()
    ));
    json.push_str("  },\n");
    json.push_str("  \"scan_pq_era\": {\n");
    json.push_str(&format!("    \"seconds\": {pq:.6},\n"));
    json.push_str(&format!(
        "    \"era\": \"{}\"\n",
        CertificateEra::PostQuantum.name()
    ));
    json.push_str("  },\n");
    let scan_1m_w1 = scan_1m_rows[0].seconds;
    json.push_str("  \"scan_1m\": {\n");
    json.push_str(&format!("    \"population\": {stream_domains},\n"));
    json.push_str(&format!("    \"memo_speedup_1w\": {memo_speedup_1w:.3},\n"));
    json.push_str("    \"rows\": [\n");
    for (i, row) in scan_1m_rows.iter().enumerate() {
        let comma = if i + 1 < scan_1m_rows.len() { "," } else { "" };
        json.push_str(&stream_row_json(row, scan_1m_w1 / row.seconds, "      "));
        json.push_str(comma);
        json.push('\n');
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"scan_10m\": {\n");
    json.push_str(&format!(
        "    \"population\": {},\n",
        scan_10m_rows[0].population
    ));
    json.push_str("    \"rows\": [\n");
    for (i, row) in scan_10m_rows.iter().enumerate() {
        let comma = if i + 1 < scan_10m_rows.len() { "," } else { "" };
        // The 10m section has no 1-worker row of its own; speedup is
        // relative to itself (1.0) unless more rows are added later.
        json.push_str(&stream_row_json(
            row,
            scan_10m_rows[0].seconds / row.seconds,
            "      ",
        ));
        json.push_str(comma);
        json.push('\n');
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"scan_chaos\": {\n");
    json.push_str(&format!("    \"population\": {},\n", chaos_population()));
    json.push_str("    \"rows\": [\n");
    for (i, row) in chaos_rows.iter().enumerate() {
        let comma = if i + 1 < chaos_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "      {{\"plan\": \"{}\", \"seconds\": {:.6}, \"probed\": {}, \
             \"reachable\": {}, \"client_retransmissions\": {}, \
             \"server_retransmissions\": {}, \"fault_drops\": {}, \
             \"fault_duplications\": {}, \"fault_corruptions\": {}, \
             \"stall_ms\": {:.3}}}{comma}\n",
            row.plan,
            row.seconds,
            row.probed,
            row.reachable,
            row.client_retransmissions,
            row.server_retransmissions,
            row.fault_drops,
            row.fault_duplications,
            row.fault_corruptions,
            row.stall_ms,
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"scan_churn\": {\n");
    json.push_str(&format!("    \"population\": {},\n", churn_row.population));
    json.push_str(&format!(
        "    \"delta_seconds\": {:.6},\n",
        churn_row.delta_seconds
    ));
    json.push_str(&format!(
        "    \"delta_probed\": {},\n",
        churn_row.delta_probed
    ));
    json.push_str(&format!(
        "    \"full_seconds\": {:.6},\n",
        churn_row.full_seconds
    ));
    json.push_str(&format!(
        "    \"full_probed\": {},\n",
        churn_row.full_probed
    ));
    json.push_str(&format!(
        "    \"changed_ranks\": {},\n",
        churn_row.changed_ranks
    ));
    json.push_str(&format!(
        "    \"dirty_segments\": {},\n",
        churn_row.dirty_segments
    ));
    json.push_str(&format!(
        "    \"total_segments\": {}\n",
        churn_row.total_segments
    ));
    json.push_str("  },\n");
    json.push_str("  \"engine_end_to_end\": [\n");
    for (i, row) in engine_rows.iter().enumerate() {
        let comma = if i + 1 < engine_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"workers\": {}, \"resolved_workers\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_1w\": {:.3}}}{comma}\n",
            row.workers,
            row.resolved_workers,
            row.seconds,
            engine_w1 / row.seconds
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    println!("{json}");
}
