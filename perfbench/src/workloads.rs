//! The untraced run of each workload: the end-to-end metrics.
//!
//! Every workload has one unit op. A pass workload runs one discarded
//! warm-up pass (its result is the reference every timed pass must equal),
//! then timed passes until `--seconds` have elapsed, each on a **fresh**
//! engine / campaign so that artifact caches and the per-pump memo never
//! carry over. The two service workloads serve delta ticks, or historical
//! reads, on one resident service. Once per run, untimed, the result is
//! checked against an independent reference path. The system is driven
//! through its public functions only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use quicert_churn::ChurnConfig;
use quicert_core::service::Snapshot;
use quicert_core::{
    full_report, Campaign, CampaignConfig, CampaignService, ReportOptions, ScanEngine,
    ServiceConfig,
};
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_scanner::{compression, CompressionShard, HttpsScanShard, QuicReachShard};

use crate::metrics::{Kind, Workload, INITIAL, WORKERS};
use crate::sys::{median, peak_rss_mb, process_cpu_s, quantile, sim_digest};

/// Timed ops never fall below this, however short `--seconds` is. At the
/// `run_seconds` of `BENCHMARK.json` the time box decides, not this floor:
/// the driver's run budget leaves no room for ten 3-second reports per run.
const MIN_PASSES: usize = 3;

/// No population is scaled below one pump claim / service segment.
const MIN_POPULATION: usize = 256;

/// Ranks of the reference-path cross-check on the stream workloads.
const STREAM_REFERENCE_POPULATION: usize = 100_000;

/// Ranks of the materialized reference on the certificate survey.
const CERTS_REFERENCE_POPULATION: usize = 8_000;

/// Segment size of the resident service (its default, named here because
/// the per-tick cost depends on it).
pub const SERVICE_SEGMENT: usize = 256;

/// Delta ticks `service_50k_ticks` always serves. Its `sim_digest` and
/// exact counts cover exactly these, so they do not depend on how many more
/// ticks fit the time box.
pub const SERVICE_TICKS_FLOOR: u64 = 20;

/// Set-ups (construct + tick-0 fold) the service workload samples.
const SERVICE_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Divides every population (contract tests only; outputs are stamped
    /// `scaled` and never accepted as baselines).
    pub scale_div: usize,
    /// Harness-level fault for the negative test: the reference every pass
    /// is compared with comes from a different seed.
    pub inject_fault: bool,
}

impl RunArgs {
    pub fn population(&self) -> usize {
        (self.workload.population / self.scale_div).max(MIN_POPULATION)
    }
}

/// The world every workload scans: `domains` ranks of the default
/// population model under `seed`.
pub fn world_config(seed: u64, domains: usize) -> WorldConfig {
    WorldConfig {
        domains,
        seed,
        ..WorldConfig::default()
    }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub sim_digest: u64,
    /// Sample counts and other context for the detail line.
    pub notes: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("bench: CHECK FAILED: {what}");
        }
    }
}

/// Host-time samples of one run.
#[derive(Debug, Default)]
struct Samples {
    /// One per set-up (the warm-up's included).
    setup_s: Vec<f64>,
    /// Wall and process CPU of each timed op.
    op_s: Vec<f64>,
    op_cpu_s: Vec<f64>,
    /// Wall of the first full scan of the population in this process: one
    /// sample per run, so a note beside the metrics, not one of them.
    cold_scan_s: f64,
}

impl Samples {
    /// Run `op` as one timed unit op.
    fn timed<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let cpu = process_cpu_s();
        let begun = Instant::now();
        let result = op();
        self.op_s.push(begun.elapsed().as_secs_f64());
        self.op_cpu_s.push(process_cpu_s() - cpu);
        result
    }
}

/// What the timed loop produced: the warm-up's result, then one result
/// per timed pass.
struct Passes<R> {
    warmup: R,
    results: Vec<R>,
    samples: Samples,
}

/// Run the warm-up and the timed passes. `make` is the set-up (everything
/// before the first timed operation), `pass` the timed work.
fn run_passes<E, R>(
    args: &RunArgs,
    make: impl Fn(u64) -> E,
    mut pass: impl FnMut(&mut E) -> R,
) -> Passes<R> {
    let mut samples = Samples::default();
    let set_up = |samples: &mut Samples| {
        let begun = Instant::now();
        let subject = make(args.seed);
        samples.setup_s.push(begun.elapsed().as_secs_f64());
        subject
    };
    let begun = Instant::now();
    let warmup = pass(&mut set_up(&mut samples));
    samples.cold_scan_s = begun.elapsed().as_secs_f64();
    let mut results = Vec::new();
    let started = Instant::now();
    while another_pass(started, results.len(), MIN_PASSES, args.seconds) {
        let mut subject = set_up(&mut samples);
        results.push(samples.timed(|| pass(&mut subject)));
    }
    Passes {
        warmup,
        results,
        samples,
    }
}

/// Whether another pass runs: always up to `min`, then while the time box
/// that opened at `started` has room.
pub fn another_pass(started: Instant, done: usize, min: usize, seconds: f64) -> bool {
    done < min || started.elapsed().as_secs_f64() < seconds
}

/// The share of a run's ops at or below the reported op time and CPU.
///
/// Other tenants of this shared host only ever add time to an op, in bursts
/// of a second or so that cover anything from none to most of a run; the
/// lower quartile stays with the undisturbed ops until three quarters of a
/// run are disturbed, where the median gives way at one half. A change to
/// the code moves the whole distribution, its lower quartile included.
const OP_QUANTILE: f64 = 0.25;

/// The end-to-end metrics, the same four on every workload.
fn end_to_end(out: &mut RunResult, population: usize, samples: &Samples) {
    out.metrics = vec![
        ("setup_s", median(&samples.setup_s)),
        ("op_s_p25", quantile(&samples.op_s, OP_QUANTILE)),
        ("op_cpu_s_p25", quantile(&samples.op_cpu_s, OP_QUANTILE)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    out.notes.extend([
        ("population", population as f64),
        ("ops", samples.op_s.len() as f64),
        ("setups", samples.setup_s.len() as f64),
        ("cold_scan_s", samples.cold_scan_s),
        ("op_s_p50", median(&samples.op_s)),
        ("op_s_p75", quantile(&samples.op_s, 0.75)),
    ]);
    // A tail needs ten samples beyond it; only the tick workload has them.
    if samples.op_s.len() >= 100 {
        out.notes.push(("op_s_p90", quantile(&samples.op_s, 0.9)));
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    match args.workload.kind {
        Kind::Stream { workers, chaos } => stream(args, workers, chaos),
        Kind::Certs => certs(args),
        Kind::Report => report(args),
        Kind::Service { reads: false } => service_ticks(args),
        Kind::Service { reads: true } => service_reads(args),
    }
}

// ------------------------------------------------------------- streams --

pub fn fault_plan(chaos: bool) -> FaultPlan {
    if chaos {
        FaultPlan::MODERATE
    } else {
        FaultPlan::NONE
    }
}

/// One streamed quicreach scan through the engine's own pump.
pub fn engine_quicreach(engine: &ScanEngine, plan: FaultPlan) -> Arc<QuicReachShard> {
    engine.stream_quicreach_chaos(
        CertificateEra::Classical,
        NetworkProfile::Ideal,
        plan,
        INITIAL,
    )
}

/// The property of the input each stream workload relies on: a chaos plan
/// must bypass the memo entirely and must force loss recovery; a
/// fault-free plan must replay from the memo and never retransmit.
pub fn stream_input_holds(chaos: bool, shard: &QuicReachShard, memo: (u64, u64)) -> bool {
    if chaos {
        memo == (0, 0) && shard.retransmissions() > 0
    } else {
        memo.0 > 0 && memo.1 > 0 && shard.retransmissions() == 0
    }
}

fn stream(args: &RunArgs, workers: usize, chaos: bool) -> RunResult {
    let plan = fault_plan(chaos);
    let population = args.population();
    let scan = |engine: &mut ScanEngine| {
        let shard = engine_quicreach(engine, plan);
        let totals = engine.pump_stats().unwrap_or_default().totals();
        (shard, (totals.memo_hits, totals.memo_misses))
    };
    let passes = run_passes(
        args,
        |seed| ScanEngine::streaming(world_config(seed, population), INITIAL, workers),
        scan,
    );
    let mut out = RunResult::default();
    end_to_end(&mut out, population, &passes.samples);

    let reference = if args.inject_fault {
        let mut other =
            ScanEngine::streaming(world_config(args.seed ^ 1, population), INITIAL, workers);
        scan(&mut other).0
    } else {
        Arc::clone(&passes.warmup.0)
    };
    out.sim_digest = sim_digest(&*reference);
    for (shard, memo) in &passes.results {
        out.check(**shard == *reference, "pass result differs from pass 1");
        out.check(
            stream_input_holds(chaos, shard, *memo),
            "memo / retransmission counters contradict the workload's fault plan",
        );
    }

    // Reference path: memo off, one worker, against the workload's own
    // configuration on the same ranks.
    let ranks = (STREAM_REFERENCE_POPULATION / args.scale_div).min(population);
    let direct =
        ScanEngine::streaming(world_config(args.seed, ranks), INITIAL, 1).with_memoization(false);
    let own = ScanEngine::streaming(world_config(args.seed, ranks), INITIAL, workers);
    out.check(
        *engine_quicreach(&direct, plan) == *engine_quicreach(&own, plan),
        "streamed scan differs from the unmemoized serial reference",
    );
    out.notes.push(("reference_ranks", ranks as f64));
    out
}

// --------------------------------------------------------------- certs --

pub type CertsResult = (Arc<HttpsScanShard>, Arc<CompressionShard>);

/// The certificate survey through the engine's own pump: the §3.1 funnel
/// with chain sizes, then RFC 8879 compression support.
pub fn engine_certs(engine: &ScanEngine) -> CertsResult {
    (
        engine.stream_https_scan(),
        engine.stream_compression_support(),
    )
}

fn certs(args: &RunArgs) -> RunResult {
    let population = args.population();
    let passes = run_passes(
        args,
        |seed| ScanEngine::streaming(world_config(seed, population), INITIAL, WORKERS),
        |engine| engine_certs(engine),
    );
    let mut out = RunResult::default();
    end_to_end(&mut out, population, &passes.samples);

    let reference = if args.inject_fault {
        engine_certs(&ScanEngine::streaming(
            world_config(args.seed ^ 1, population),
            INITIAL,
            WORKERS,
        ))
    } else {
        passes.warmup.clone()
    };
    out.sim_digest = sim_digest(&reference);
    for result in &passes.results {
        out.check(*result == reference, "pass result differs from pass 1");
    }

    // Reference path: the materialized per-record scans of a generated
    // world, collated into the same shard types.
    let ranks = CERTS_REFERENCE_POPULATION.min(population);
    let streamed = engine_certs(&ScanEngine::streaming(
        world_config(args.seed, ranks),
        INITIAL,
        WORKERS,
    ));
    let materialized = ScanEngine::new(World::generate(world_config(args.seed, ranks)), INITIAL, 1);
    let services: Vec<&DomainRecord> = materialized.world().quic_services().collect();
    let probes = compression::probe_records(materialized.world(), &services);
    out.check(
        *streamed.0 == HttpsScanShard::from_report(&materialized.https_scan())
            && *streamed.1 == CompressionShard::from_probes(&probes),
        "streamed survey differs from the materialized reference",
    );
    out.notes.push(("reference_ranks", ranks as f64));
    out
}

// -------------------------------------------------------------- report --

/// The report the `repro` user sees, minus the two sections that re-scan
/// populations of their own (population ladder, churn timeline).
pub fn report_options() -> ReportOptions {
    ReportOptions {
        population_scale: false,
        churn: false,
        ..ReportOptions::default()
    }
}

pub fn campaign_config(args: &RunArgs, seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig::standard()
        .with_domains(args.population())
        .with_seed(seed)
        .with_workers(workers)
}

fn report(args: &RunArgs) -> RunResult {
    let population = args.population();
    let render = |campaign: &mut Campaign| full_report(campaign, report_options());
    let passes = run_passes(
        args,
        |seed| Campaign::new(campaign_config(args, seed, WORKERS)),
        render,
    );
    let mut out = RunResult::default();
    end_to_end(&mut out, population, &passes.samples);

    let reference = if args.inject_fault {
        render(&mut Campaign::new(campaign_config(
            args,
            args.seed ^ 1,
            WORKERS,
        )))
    } else {
        passes.warmup.clone()
    };
    out.sim_digest = sim_digest(&reference);
    for text in &passes.results {
        out.check(*text == reference, "report text differs from pass 1");
    }

    // Reference path: the same report rendered serially.
    let serial = render(&mut Campaign::new(campaign_config(args, args.seed, 1)));
    out.check(
        serial == passes.warmup,
        "report text differs from the serial reference",
    );
    out.notes.push(("report_bytes", passes.warmup.len() as f64));
    out
}

// ------------------------------------------------------------- service --

pub fn service_config(args: &RunArgs, seed: u64, workers: usize) -> ServiceConfig {
    ServiceConfig::new(
        campaign_config(args, seed, workers),
        ChurnConfig::new(seed ^ 0x00C4_2A17, args.population()),
    )
    .with_segment_size(SERVICE_SEGMENT)
}

/// Construct the service and fold tick 0 — the resident path's set-up,
/// and its first full scan of the population.
pub fn service_at_tick0(config: ServiceConfig) -> CampaignService {
    let mut service = CampaignService::new(config);
    black_box(service.snapshot_at(0));
    service
}

/// Set the resident service up (construct + tick-0 fold) several times, so
/// that `setup_s` is a median; the last one stays. Each is dropped before
/// the next is built, for `peak_rss_mb`.
fn resident_service(args: &RunArgs, samples: &mut Samples) -> CampaignService {
    let mut service = None;
    for _ in 0..SERVICE_SETUPS {
        drop(service.take());
        let begun = Instant::now();
        service = Some(service_at_tick0(service_config(args, args.seed, WORKERS)));
        samples.setup_s.push(begun.elapsed().as_secs_f64());
    }
    samples.cold_scan_s = samples.setup_s[0];
    service.expect("SERVICE_SETUPS > 0")
}

/// The reference path of both service workloads: `delta` (a snapshot the
/// delta path served) and `read` (a historical read, if the workload made
/// one) must equal from-scratch full rescans of their ticks.
fn check_against_full_rescans(
    args: &RunArgs,
    service: CampaignService,
    delta: &Snapshot,
    read: Option<&Snapshot>,
    out: &mut RunResult,
) {
    let mut reference = if args.inject_fault {
        service_at_tick0(service_config(args, args.seed ^ 1, WORKERS))
    } else {
        service
    };
    out.check(
        *delta == reference.full_rescan_at(delta.tick),
        "final delta snapshot differs from a full rescan",
    );
    if let Some(read) = read {
        out.check(
            *read == reference.full_rescan_at(read.tick),
            "historical read differs from a full rescan of that tick",
        );
    }
    out.notes.push(("final_tick", delta.tick as f64));
}

/// Writes: the clock moves one tick per op and each is served as a delta
/// scan of the segments that tick's churn dirtied.
fn service_ticks(args: &RunArgs) -> RunResult {
    let mut samples = Samples::default();
    let mut service = resident_service(args, &mut samples);
    let mut floor_snapshot = None;
    let mut last = service.snapshot_at(0);
    let started = Instant::now();
    while another_pass(
        started,
        samples.op_s.len(),
        SERVICE_TICKS_FLOOR as usize,
        args.seconds,
    ) {
        let tick = last.tick + 1;
        last = samples.timed(|| service.snapshot_at(tick));
        if tick == SERVICE_TICKS_FLOOR {
            floor_snapshot = Some(Arc::clone(&last));
        }
    }
    let mut out = RunResult::default();
    end_to_end(&mut out, args.population(), &samples);
    out.attempted = samples.op_s.len() as u64;
    out.check(
        Arc::ptr_eq(&last, &service.snapshot_at(last.tick)),
        "a re-read of a served tick was not memoized",
    );
    // The digest covers the floor's last tick, which every run serves; the
    // final tick depends on how many fit the time box.
    let floor_snapshot = floor_snapshot.expect("the floor's ticks were served");
    out.sim_digest = sim_digest(&*floor_snapshot);
    check_against_full_rescans(args, service, &last, None, &mut out);
    out
}

/// Reads beside writes: each cycle the clock skips a tick, serves the next
/// as a delta scan (untimed here) and then reads the skipped one back — a
/// never-scanned past tick, so a full refold from `ChurnState::at`.
fn service_reads(args: &RunArgs) -> RunResult {
    let mut samples = Samples::default();
    let mut service = resident_service(args, &mut samples);
    let mut first = None;
    let mut last = service.snapshot_at(0);
    let mut memoized_reads_ok = true;
    let started = Instant::now();
    while another_pass(started, samples.op_s.len(), MIN_PASSES, args.seconds) {
        let skipped = last.tick + 1;
        last = service.snapshot_at(skipped + 1);
        let read = samples.timed(|| service.snapshot_at(skipped));
        memoized_reads_ok &= Arc::ptr_eq(&read, &service.snapshot_at(skipped));
        first.get_or_insert((read, Arc::clone(&last)));
    }
    let mut out = RunResult::default();
    end_to_end(&mut out, args.population(), &samples);
    // A cycle is a delta tick and a read.
    out.attempted = 2 * samples.op_s.len() as u64;
    out.check(
        memoized_reads_ok,
        "a re-read of a served tick was not memoized",
    );
    // The digest covers the first cycle, which every run serves.
    let (first_read, first_delta) = first.expect("at least one cycle ran");
    out.sim_digest = sim_digest(&(&first_read, &first_delta));
    check_against_full_rescans(args, service, &last, Some(&first_read), &mut out);
    out
}
