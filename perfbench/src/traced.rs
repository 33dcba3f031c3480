//! The traced run of each workload: the per-layer metrics.
//!
//! The engine's pump is replaced by a hand-driven pump in this file that
//! records a span around every call into a layer (layer = crate), always
//! with one worker so that counts repeat exactly. The hand-pumped result
//! must equal the engine's. A substrate pass then times the lower calls
//! one by one over the first QUIC services of the workload's world. Spans
//! live in a preallocated `Vec` and are written out when the run ends; no
//! span is recorded inside the program itself.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use quicert_analysis::Merge;
use quicert_churn::{ChurnConfig, ChurnState, Timeline};
use quicert_compress::{compress_with, Algorithm};
use quicert_core::engine::{MAX_ADAPTIVE_CHUNK, MIN_ADAPTIVE_CHUNK};
use quicert_core::{full_report, Campaign, ReportOptions, ScanEngine, WorkerPumpStats};
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_obs::{Counter, MetricsRegistry};
use quicert_pki::{CertificateEra, DomainRecord, World};
use quicert_quic::{run_handshake_batch_into, ClientConfig, HandshakeOutcome, HandshakeProbe};
use quicert_scanner::behavior::wire_for_profile;
use quicert_scanner::quicreach::{self, ProbeScratch};
use quicert_scanner::{compression, https_scan, server_config_for_era, QuicReachShard};
use quicert_session::ResumptionPolicy;
use quicert_tls::{ServerFlight, ServerFlightParams};
use quicert_x509::CertificateChain;

use crate::metrics::{Kind, INITIAL, WORKERS};
use crate::sys::{median, sim_digest};
use crate::workloads::{
    another_pass, campaign_config, engine_quicreach, fault_plan, report_options, service_at_tick0,
    service_config, stream_input_holds, world_config, RunArgs, RunResult, SERVICE_TICKS_FLOOR,
};

/// Records per claim of the substrate pass and the replay timing — the
/// pump's claim everywhere but the last 2,048 ranks of a population.
const CLAIM: usize = MAX_ADAPTIVE_CHUNK;

/// QUIC services the substrate pass times the lower layers on.
const SUBSTRATE_SERVICES: usize = 2_048;

/// Chains the (slow) compressors and the warm scan are timed on.
const SUBSTRATE_SAMPLE: usize = 512;

/// Population of the metrics-on / metrics-off engine passes.
const OBS_POPULATION: usize = 100_000;

/// Span capacity reserved up front so that recording never reallocates
/// inside a timed region (a 1M-rank pass records about 12k spans).
const SPAN_CAPACITY: usize = 1 << 18;

// --------------------------------------------------------------- spans --

/// Identifier of a recorded span; `ROOT` is the parent of top-level spans.
type SpanId = u32;
const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn end(&mut self, id: SpanId) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let value = f();
        self.end(id);
        value
    }

    fn seconds(&self, id: SpanId) -> f64 {
        let span = &self.spans[id as usize - 1];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Total seconds of the children of `parent` named `name`.
    fn child_seconds(&self, parent: SpanId, name: &str) -> f64 {
        self.children(parent, name).sum()
    }

    /// Durations of the children of `parent` named `name`, in order. Spans
    /// are appended in begin order, so children sit after their parent.
    fn children<'a>(&'a self, parent: SpanId, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans[parent as usize..]
            .iter()
            .filter(move |s| s.parent == parent && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// A span's duration minus the part its child spans cover.
    fn self_seconds(&self, id: SpanId) -> f64 {
        let covered: f64 = self.spans[id as usize..]
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum();
        self.seconds(id) - covered
    }

    /// Write every span as one JSON line under the build directory (the
    /// driver points `CARGO_TARGET_DIR` inside the checkout).
    fn write(&self) -> std::io::Result<String> {
        let dir = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
        let dir = format!("{dir}/benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = format!("{dir}/trace-{}.jsonl", self.workload);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                file,
                "{{\"id\": {}, \"parent\": {}, \"workload\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, self.workload, s.name, s.start_ns, s.end_ns
            )?;
        }
        file.flush()?;
        Ok(path)
    }
}

// ------------------------------------------------------ global counters --

/// The process-wide `quicert_obs` counters the lower layers report into;
/// deltas around a section are that section's exact work counts.
struct LayerCounters {
    events: Arc<Counter>,
    timer_fires: Arc<Counter>,
    fault_drops: Arc<Counter>,
    records_generated: Arc<Counter>,
    chain_len_cache_hits: Arc<Counter>,
}

#[derive(Debug, Clone, Copy)]
struct CounterReading {
    events: u64,
    timer_fires: u64,
    fault_drops: u64,
    records_generated: u64,
    chain_len_cache_hits: u64,
}

impl LayerCounters {
    fn lookup() -> LayerCounters {
        // Registration is idempotent per name: these resolve to the very
        // counters netsim and pki increment.
        let counter = |name| MetricsRegistry::global().counter(name, "");
        LayerCounters {
            events: counter("quicert_netsim_events_total"),
            timer_fires: counter("quicert_netsim_timer_fires_total"),
            fault_drops: counter("quicert_netsim_fault_drops_total"),
            records_generated: counter("quicert_pki_records_generated_total"),
            chain_len_cache_hits: counter("quicert_pki_chain_len_cache_hits_total"),
        }
    }

    fn read(&self) -> CounterReading {
        CounterReading {
            events: self.events.get(),
            timer_fires: self.timer_fires.get(),
            fault_drops: self.fault_drops.get(),
            records_generated: self.records_generated.get(),
            chain_len_cache_hits: self.chain_len_cache_hits.get(),
        }
    }

    /// The work counts since `before`, as metrics.
    fn delta_metrics(&self, before: CounterReading, out: &mut RunResult) {
        let now = self.read();
        out.metrics.extend([
            ("netsim.events", (now.events - before.events) as f64),
            (
                "netsim.timer_fires",
                (now.timer_fires - before.timer_fires) as f64,
            ),
            (
                "netsim.fault_drops",
                (now.fault_drops - before.fault_drops) as f64,
            ),
            (
                "pki.derive_records",
                (now.records_generated - before.records_generated) as f64,
            ),
            (
                "pki.chain_len_cache_hits",
                (now.chain_len_cache_hits - before.chain_len_cache_hits) as f64,
            ),
        ]);
    }
}

// ------------------------------------------------------------ the pump --

/// The engine's adaptive claim at one worker: an eighth of the remaining
/// population, clamped. Mirrored here (the engine's own is private) so
/// that the hand pump forms exactly the engine's claims — memo misses
/// depend on which records share a claim.
fn adaptive_claim(remaining: usize) -> usize {
    (remaining / 8).clamp(MIN_ADAPTIVE_CHUNK, MAX_ADAPTIVE_CHUNK)
}

/// Pump ranks `1..=population` of `world` by hand: derive, fold, merge —
/// one span each per claim, under one `core.pump` root span. Returns the
/// root span and the merged summary.
fn hand_pump<S: Merge>(
    tracer: &mut Tracer,
    world: &World,
    population: usize,
    fold_name: &'static str,
    mut fold: impl FnMut(&[DomainRecord]) -> S,
) -> (SpanId, S) {
    let root = tracer.begin("core.pump", ROOT);
    let mut summary = S::identity();
    let mut buf: Vec<DomainRecord> = Vec::new();
    let mut first = 1;
    while first <= population {
        let claim = adaptive_claim(population + 1 - first);
        tracer.span("pki.derive", root, || {
            world.domain_chunk_into(first, claim, &mut buf)
        });
        let shard = tracer.span(fold_name, root, || fold(&buf));
        tracer.span("analysis.merge", root, || summary.merge(&shard));
        first += claim;
    }
    tracer.end(root);
    (root, summary)
}

/// What one pass through the engine's own pump cost, with its counters
/// summed over the pumps the pass ran.
struct EnginePass<R> {
    result: R,
    wall_s: f64,
    pump: WorkerPumpStats,
}

fn add_pump(total: &mut WorkerPumpStats, engine: &ScanEngine) {
    let stats = engine.pump_stats().unwrap_or_default().totals();
    total.chunks_claimed += stats.chunks_claimed;
    total.fold_seconds += stats.fold_seconds;
    total.memo_hits += stats.memo_hits;
    total.memo_misses += stats.memo_misses;
    total.distinct_classes += stats.distinct_classes;
}

/// The sums of one hand-pumped pass's spans (over its root spans).
#[derive(Debug, Default, Clone, Copy)]
struct PumpTimes {
    pump_s: f64,
    self_s: f64,
    derive_s: f64,
    fold_s: f64,
    merge_s: f64,
}

impl PumpTimes {
    fn add_root(&mut self, tracer: &Tracer, root: SpanId, fold_name: &str) {
        self.pump_s += tracer.seconds(root);
        self.self_s += tracer.self_seconds(root);
        self.derive_s += tracer.child_seconds(root, "pki.derive");
        self.fold_s += tracer.child_seconds(root, fold_name);
        self.merge_s += tracer.child_seconds(root, "analysis.merge");
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The legs of a round beside the engine's own pump at one worker. The 1M
/// replay scan is two workloads, so each traces its own side of it: `_1w`
/// the serial pump by hand, `_2w` what a second worker adds. A scan that is
/// one workload runs both legs.
#[derive(Debug, Clone, Copy)]
struct Legs {
    two_workers: bool,
    hand_pump: bool,
}

impl Legs {
    const BOTH: Legs = Legs {
        two_workers: true,
        hand_pump: true,
    };
}

/// Run the rounds of a pumped workload (streams, certificate survey) and
/// derive the metrics they share. A round is the engine's own pump at one
/// worker, then `legs` — alternated so that host drift hits all alike;
/// every figure is a median over rounds. Returns the engine's last serial
/// pass and the hand pump's fold seconds.
fn pumped_rounds<R: PartialEq>(
    args: &RunArgs,
    legs: Legs,
    counters: &LayerCounters,
    out: &mut RunResult,
    engine_pass: impl Fn(usize) -> EnginePass<R>,
    mut hand_pass: impl FnMut() -> (R, PumpTimes),
) -> (EnginePass<R>, f64) {
    let started = Instant::now();
    let (mut serial, mut parallel, mut hand) = (Vec::new(), Vec::new(), Vec::new());
    while another_pass(started, serial.len(), 1, args.seconds) {
        let one = engine_pass(1);
        if legs.two_workers {
            let two = engine_pass(WORKERS);
            out.check(
                two.result == one.result,
                "engine result differs between one and two workers",
            );
            parallel.push(two);
        }
        if legs.hand_pump {
            let before = counters.read();
            let (result, times) = hand_pass();
            if hand.is_empty() {
                // Exact counts come from the first hand-pumped pass.
                counters.delta_metrics(before, out);
            }
            out.check(
                result == one.result,
                "hand-pumped result differs from the engine's",
            );
            hand.push(times);
        }
        serial.push(one);
    }
    let serial_s = median_of(&serial, |p| p.wall_s);
    out.notes.push(("engine_1w_wall_s", serial_s));
    out.metrics.push(("traced_passes", serial.len() as f64));
    if legs.two_workers {
        let parallel_s = median_of(&parallel, |p| p.wall_s);
        let misses = |passes: &[EnginePass<R>]| median_of(passes, |p| p.pump.memo_misses as f64);
        out.metrics.extend([
            ("core.pump_speedup_2w", serial_s / parallel_s),
            (
                "core.pump_busy_s_2w",
                median_of(&parallel, |p| p.pump.fold_seconds),
            ),
            (
                "core.duplicated_misses_2w",
                misses(&parallel) - misses(&serial),
            ),
        ]);
        out.notes.push(("engine_2w_wall_s", parallel_s));
    }
    if legs.hand_pump {
        let pump_s = median_of(&hand, |p| p.pump_s);
        let attributed = median_of(&hand, |p| (p.derive_s + p.fold_s + p.merge_s) / p.pump_s);
        out.metrics.extend([
            ("pki.derive_s", median_of(&hand, |p| p.derive_s)),
            ("analysis.merge_s", median_of(&hand, |p| p.merge_s)),
            ("core.pump_s", pump_s),
            ("core.pump_self_s", median_of(&hand, |p| p.self_s)),
            ("core.pump_attributed_ratio", attributed),
            ("core.pump_overhead_s", serial_s - pump_s),
            ("trace_overhead_ratio", pump_s / serial_s),
            ("core.chunks_claimed", serial[0].pump.chunks_claimed as f64),
        ]);
        out.check(
            attributed >= 0.95,
            "derive + fold + merge account for less than 95% of the core.pump span",
        );
    }
    let last = serial.pop().expect("at least one round ran");
    (last, median_of(&hand, |p| p.fold_s))
}

// ------------------------------------------------------------- streams --

fn stream(args: &RunArgs, workers: usize, chaos: bool, tracer: &mut Tracer) -> RunResult {
    let legs = Legs {
        two_workers: chaos || workers > 1,
        hand_pump: chaos || workers == 1,
    };
    let plan = fault_plan(chaos);
    let population = args.population();
    let counters = LayerCounters::lookup();
    let mut out = RunResult::default();

    let world = World::streaming(world_config(args.seed, population));
    let fold = |records: &[DomainRecord], scratch: &mut ProbeScratch| {
        quicreach::fold_records_scratch_chaos(
            &world,
            records,
            INITIAL,
            NetworkProfile::Ideal,
            CertificateEra::Classical,
            plan,
            scratch,
        )
    };
    let mut scratch = ProbeScratch::with_memo(true);
    let (serial, fold_s) = pumped_rounds(
        args,
        legs,
        &counters,
        &mut out,
        |workers| {
            let engine =
                ScanEngine::streaming(world_config(args.seed, population), INITIAL, workers);
            let begun = Instant::now();
            let result = engine_quicreach(&engine, plan);
            let wall_s = begun.elapsed().as_secs_f64();
            let mut pump = WorkerPumpStats::default();
            add_pump(&mut pump, &engine);
            EnginePass {
                result: (*result).clone(),
                wall_s,
                pump,
            }
        },
        || {
            scratch = ProbeScratch::with_memo(true);
            let (root, mut shard) =
                hand_pump(tracer, &world, population, "scanner.fold", |records| {
                    fold(records, &mut scratch)
                });
            // The engine stamps the scan's Initial size on its merged result.
            shard.classes.initial_size = INITIAL;
            let mut times = PumpTimes::default();
            times.add_root(tracer, root, "scanner.fold");
            (shard, times)
        },
    );
    out.sim_digest = sim_digest(&serial.result);
    // The input property the workload stands on.
    let engine_memo = (serial.pump.memo_hits, serial.pump.memo_misses);
    out.check(
        stream_input_holds(chaos, &serial.result, engine_memo),
        "memo / retransmission counters contradict the workload's fault plan",
    );
    if !legs.hand_pump {
        return out;
    }

    // Memo effectiveness of the hand pump (identical to the engine's at
    // one worker).
    let (hits, misses, classes) = scratch.memo_stats();
    out.check(
        (hits, misses) == engine_memo,
        "hand-pump memo counters differ from the engine's",
    );
    out.metrics.extend([
        ("scanner.fold_s", fold_s),
        ("scanner.memo_hits", hits as f64),
        ("scanner.memo_misses", misses as f64),
        ("scanner.memo_classes", classes as f64),
        (
            "scanner.memo_hit_ratio",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        ),
    ]);

    // Replay cost: fold the first claims again on the warm scratch — every
    // probe is a memo hit, nothing is simulated. (Under a chaos plan the
    // memo is bypassed, so there is no replay to time.)
    if !chaos {
        let mut buf = Vec::new();
        let mut probes = 0usize;
        let mut replay_s = 0.0;
        for first in (1..=population.min(64 * CLAIM)).step_by(CLAIM) {
            world.domain_chunk_into(first, CLAIM, &mut buf);
            let begun = Instant::now();
            let shard = fold(&buf, &mut scratch);
            replay_s += begun.elapsed().as_secs_f64();
            probes += shard.total();
        }
        out.check(
            scratch.memo_stats().1 == misses,
            "replaying folded claims simulated new probes",
        );
        out.metrics.push((
            "scanner.replay_ns_per_probe",
            replay_s * 1e9 / probes as f64,
        ));
    }

    // What the engine's own telemetry costs: a serial pass with the
    // registry on against one with it off, and one snapshot render.
    let obs_population = (OBS_POPULATION / args.scale_div).min(population);
    let obs_pass = |metrics: bool| {
        let engine = ScanEngine::streaming(world_config(args.seed, obs_population), INITIAL, 1)
            .with_metrics(metrics);
        let begun = Instant::now();
        black_box(engine_quicreach(&engine, plan));
        (begun.elapsed().as_secs_f64(), engine)
    };
    let (off_s, _) = obs_pass(false);
    let (on_s, engine) = obs_pass(true);
    let begun = Instant::now();
    black_box(engine.metrics_registry().render_json());
    out.metrics.extend([
        ("obs.metrics_overhead_ratio", on_s / off_s),
        ("obs.render_json_us", begun.elapsed().as_secs_f64() * 1e6),
    ]);

    let substrate = substrate(args, chaos, &counters, &mut out);
    // Fold self time: what the fold spends outside simulation — classify,
    // memo, probe build, collate. A difference of two large numbers taken
    // minutes apart on a shared host; read it with that in mind.
    let simulated = if chaos {
        serial.result.total() as f64
    } else {
        misses as f64
    };
    out.metrics.push((
        "scanner.fold_self_s",
        fold_s - simulated * substrate.plan_handshake_us / 1e6,
    ));
    out
}

// --------------------------------------------------------------- certs --

fn certs(args: &RunArgs, tracer: &mut Tracer) -> RunResult {
    let population = args.population();
    let counters = LayerCounters::lookup();
    let mut out = RunResult::default();
    let world = World::streaming(world_config(args.seed, population));
    let (mut https_s, mut compression_s) = (Vec::new(), Vec::new());
    let (serial, _) = pumped_rounds(
        args,
        Legs::BOTH,
        &counters,
        &mut out,
        |workers| {
            let engine =
                ScanEngine::streaming(world_config(args.seed, population), INITIAL, workers);
            let mut pump = WorkerPumpStats::default();
            let begun = Instant::now();
            let funnel = engine.stream_https_scan();
            add_pump(&mut pump, &engine);
            let support = engine.stream_compression_support();
            let wall_s = begun.elapsed().as_secs_f64();
            add_pump(&mut pump, &engine);
            EnginePass {
                result: ((*funnel).clone(), (*support).clone()),
                wall_s,
                pump,
            }
        },
        || {
            // The engine runs one pump per scan family; so does the hand
            // pump.
            let (https_root, funnel) = hand_pump(
                tracer,
                &world,
                population,
                "scanner.https_fold",
                |records| https_scan::fold_iter(&world, records),
            );
            let (compression_root, support) = hand_pump(
                tracer,
                &world,
                population,
                "scanner.compression_fold",
                |records| compression::fold_iter(&world, records),
            );
            let mut times = PumpTimes::default();
            times.add_root(tracer, https_root, "scanner.https_fold");
            times.add_root(tracer, compression_root, "scanner.compression_fold");
            https_s.push(tracer.child_seconds(https_root, "scanner.https_fold"));
            compression_s.push(tracer.child_seconds(compression_root, "scanner.compression_fold"));
            ((funnel, support), times)
        },
    );
    out.sim_digest = sim_digest(&serial.result);
    out.metrics.extend([
        ("scanner.https_fold_s", median(&https_s)),
        ("scanner.compression_fold_s", median(&compression_s)),
    ]);
    substrate(args, false, &counters, &mut out);
    out
}

// -------------------------------------------------------------- report --

/// One report section that `ReportOptions` can switch on alone.
type Toggle = (&'static str, fn(&mut ReportOptions));

const REPORT_TOGGLES: [Toggle; 6] = [
    ("core.report_sweep_s", |o| o.full_sweep = true),
    ("core.report_guidance_s", |o| o.guidance_mitigation = true),
    ("core.report_profiles_s", |o| o.network_profiles = true),
    ("core.report_resumption_s", |o| o.resumption = true),
    ("core.report_pq_s", |o| o.pq_eras = true),
    ("core.report_chaos_s", |o| o.chaos = true),
];

fn report(args: &RunArgs, tracer: &mut Tracer) -> RunResult {
    let counters = LayerCounters::lookup();
    let before = counters.read();
    let mut out = RunResult::default();
    let all_off = ReportOptions {
        full_sweep: false,
        guidance_mitigation: false,
        network_profiles: false,
        resumption: false,
        pq_eras: false,
        chaos: false,
        ..report_options()
    };
    // Each report renders on a fresh serial campaign: artifact caches must
    // not let one section pay for another's scans.
    let mut render = |name: &'static str, options: ReportOptions| {
        let campaign = Campaign::new(campaign_config(args, args.seed, 1));
        let id = tracer.begin(name, ROOT);
        let text = full_report(&campaign, options);
        tracer.end(id);
        (tracer.seconds(id), text)
    };
    // The first render in a process pays for cold caches; discard it.
    render("core.report_warmup", all_off);
    let (base_s, base_text) = render("core.report_base", all_off);
    out.sim_digest = sim_digest(&base_text);
    out.metrics.push(("core.report_base_s", base_s));
    for (name, switch_on) in REPORT_TOGGLES {
        let mut options = all_off;
        switch_on(&mut options);
        let (seconds, text) = render(name, options);
        out.check(
            text.len() > base_text.len(),
            "a toggled report section rendered nothing",
        );
        out.metrics.push((name, seconds - base_s));
    }
    counters.delta_metrics(before, &mut out);
    out.metrics.push(("traced_passes", 1.0));
    substrate(args, false, &counters, &mut out);
    out
}

// ------------------------------------------------------------- service --

/// Cycles the traced `service_50k_reads` run always serves; its exact
/// counts and digest cover exactly these.
const SERVICE_READS_FLOOR: u64 = 3;

/// The resident timeline by hand at one worker: per step, `churn.advance`
/// (`advance_to`) and `core.service_scan` (`snapshot_at`, a delta scan) as
/// separate spans; with `reads` the clock moves two ticks per step and the
/// skipped one is then read back under `core.service_read`.
fn service(args: &RunArgs, reads: bool, tracer: &mut Tracer) -> RunResult {
    let counters = LayerCounters::lookup();
    let mut out = RunResult::default();
    let mut service = service_at_tick0(service_config(args, args.seed, 1));
    let floor = if reads {
        SERVICE_READS_FLOOR
    } else {
        SERVICE_TICKS_FLOOR
    };
    let before = counters.read();
    let logged = service.tick_log().len();
    let mut last = service.snapshot_at(0);
    let mut steps = 0;
    let root = tracer.begin("core.service_timeline", ROOT);
    let started = Instant::now();
    while another_pass(started, steps as usize, floor as usize, args.seconds) {
        let tick = last.tick + if reads { 2 } else { 1 };
        tracer.span("churn.advance", root, || service.advance_to(tick));
        last = tracer.span("core.service_scan", root, || service.snapshot_at(tick));
        if reads {
            tracer.span("core.service_read", root, || service.snapshot_at(tick - 1));
        }
        steps += 1;
        if steps == floor {
            // Counts and the digest cover the floor, which every run
            // serves; what follows depends on how much fits the time box.
            out.sim_digest = sim_digest(&*last);
            counters.delta_metrics(before, &mut out);
            let seconds = |name| tracer.children(root, name).sum::<f64>();
            let log = &service.tick_log()[logged..];
            let probed = |full_rescan| -> usize {
                let scans = log.iter().filter(|t| t.full_rescan == full_rescan);
                scans.map(|t| t.probed).sum()
            };
            if reads {
                out.metrics.push((
                    "core.service_read_us_per_probe",
                    seconds("core.service_read") * 1e6 / probed(true) as f64,
                ));
            } else {
                let full: usize = log.iter().map(|t| t.full_probe_count).sum();
                let events: usize = log.iter().map(|t| t.events).sum();
                out.check(
                    probed(true) == 0 && probed(false) < full,
                    "delta ticks fell back to full rescans",
                );
                out.metrics.extend([
                    ("churn.events_per_tick", events as f64 / floor as f64),
                    (
                        "core.service_probed_per_tick",
                        probed(false) as f64 / floor as f64,
                    ),
                    (
                        "core.service_delta_ratio",
                        probed(false) as f64 / full as f64,
                    ),
                    (
                        "core.service_us_per_probe",
                        seconds("core.service_scan") * 1e6 / probed(false) as f64,
                    ),
                ]);
            }
        }
    }
    tracer.end(root);
    out.check(
        *last == service.full_rescan_at(last.tick),
        "final delta snapshot differs from a full rescan",
    );
    let median_s = |name| median(&tracer.children(root, name).collect::<Vec<_>>());
    out.metrics.push(("traced_passes", steps as f64));
    if reads {
        out.metrics
            .push(("core.service_read_s", median_s("core.service_read")));
    } else {
        out.metrics.extend([
            ("churn.advance_us", median_s("churn.advance") * 1e6),
            ("core.service_scan_s", median_s("core.service_scan")),
        ]);
        substrate(args, false, &counters, &mut out);
    }
    out
}

// ----------------------------------------------------------- substrate --

/// What the substrate pass hands back to its caller.
struct Substrate {
    /// Mean microseconds per handshake under the workload's own plan, in
    /// the batches the pump would form.
    plan_handshake_us: f64,
}

/// Time `f` once per item; the median in microseconds and the outputs.
fn per_call_us<I, T>(
    items: impl IntoIterator<Item = I>,
    mut f: impl FnMut(I) -> T,
) -> (f64, Vec<T>) {
    let mut micros = Vec::new();
    let mut outputs = Vec::new();
    for item in items {
        let begun = Instant::now();
        let output = f(item);
        micros.push(begun.elapsed().as_secs_f64() * 1e6);
        outputs.push(output);
    }
    (median(&micros), outputs)
}

/// The median seconds of three runs of `f` — the substrate's sections are
/// tens of milliseconds long, short enough for one preemption to double
/// a single sample.
fn median_seconds_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let begun = Instant::now();
        last = Some(f());
        seconds.push(begun.elapsed().as_secs_f64());
    }
    (median(&seconds), last.expect("three runs"))
}

/// The probes `quicreach` would build for `services` — assembled here from
/// the same public pieces so that construction and simulation can be timed
/// apart.
fn probes_for(
    world: &World,
    services: &[DomainRecord],
    chains: &[CertificateChain],
    era: CertificateEra,
    plan: FaultPlan,
) -> Vec<HandshakeProbe> {
    services
        .iter()
        .zip(chains)
        .map(|(record, chain)| {
            let mut wire = wire_for_profile(record, NetworkProfile::Ideal);
            plan.apply(&mut wire);
            HandshakeProbe {
                client: ClientConfig::scanner(
                    INITIAL,
                    World::server_addr(record),
                    record.seed ^ INITIAL as u64,
                ),
                server: server_config_for_era(world, record, chain.clone(), era),
                wire,
                seed: record.seed,
            }
        })
        .collect()
}

/// Simulate `probes` in batches of the given sizes (cycled): the median
/// busy seconds of three runs, and the outcomes.
fn handshakes(probes: &[HandshakeProbe], batches: &[usize]) -> (f64, Vec<HandshakeOutcome>) {
    let mut runs = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        outcomes.clear();
        let mut busy_s = 0.0;
        let mut rest = probes;
        for &batch in batches.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (claim, tail) = rest.split_at(batch.clamp(1, rest.len()));
            let mut claim = claim.to_vec();
            rest = tail;
            let begun = Instant::now();
            run_handshake_batch_into(&mut claim, &mut outcomes);
            busy_s += begun.elapsed().as_secs_f64();
        }
        runs.push(busy_s);
    }
    (median(&runs), outcomes)
}

/// Time the lower layers' calls one by one over the first QUIC services
/// of the workload's world, classical and post-quantum.
fn substrate(
    args: &RunArgs,
    chaos: bool,
    counters: &LayerCounters,
    out: &mut RunResult,
) -> Substrate {
    let population = args.population();
    let world = World::streaming(world_config(args.seed, population));
    let mut services: Vec<DomainRecord> = Vec::new();
    let mut chunks: Vec<Vec<DomainRecord>> = Vec::new();
    // QUIC services per claim: the handshake batches the pump forms.
    let mut claims: Vec<usize> = Vec::new();
    let mut first = 1;
    while services.len() < SUBSTRATE_SERVICES && first <= population {
        let chunk = world.domain_chunk(first, CLAIM);
        let before = services.len();
        services.extend(chunk.iter().filter(|r| r.has_quic()).cloned());
        claims.push(services.len() - before);
        chunks.push(chunk);
        first += CLAIM;
    }
    let n = services.len() as f64;
    let sample = &services[..services.len().min(SUBSTRATE_SAMPLE)];
    let mb = |bytes: usize, seconds: f64| bytes as f64 / 1e6 / seconds;

    // pki: chain issuance per era.
    let issue = |era: CertificateEra| {
        per_call_us(&services, |record| {
            world
                .quic_chain_era(record, era)
                .expect("QUIC services have chains")
        })
    };
    let (issue_us, chains) = issue(CertificateEra::Classical);
    let (issue_pq_us, chains_pq) = issue(CertificateEra::PostQuantum);

    // x509: DER encoding of the whole chain.
    let (der_s, ders) = median_seconds_of_3(|| {
        chains
            .iter()
            .map(|c| c.concatenated_der())
            .collect::<Vec<_>>()
    });
    let der_bytes: usize = ders.iter().map(Vec::len).sum();
    out.metrics.extend([
        ("pki.chain_issue_us", issue_us),
        ("pki.chain_issue_pq_us", issue_pq_us),
        ("x509.der_encode_mb_per_s", mb(der_bytes, der_s)),
    ]);

    // compress: each RFC 8879 profile over the sampled chains.
    let sample_bytes: usize = ders[..sample.len()].iter().map(Vec::len).sum();
    for (name, algorithm) in [
        ("compress.zlib_mb_per_s", Algorithm::Zlib),
        ("compress.brotli_mb_per_s", Algorithm::Brotli),
        ("compress.zstd_mb_per_s", Algorithm::Zstd),
    ] {
        let begun = Instant::now();
        for der in &ders[..sample.len()] {
            black_box(compress_with(algorithm, der));
        }
        out.metrics
            .push((name, mb(sample_bytes, begun.elapsed().as_secs_f64())));
    }

    // tls: the server flight, per era.
    let flight = |era: CertificateEra, chains: &[CertificateChain]| {
        per_call_us(services.iter().zip(chains), |(record, chain)| {
            let quic = record.quic.as_ref().expect("a QUIC service");
            ServerFlight::build(&ServerFlightParams {
                chain,
                leaf_key: era.key(quic.leaf_key),
                compression: None,
                seed: record.seed,
            })
        })
        .0
    };
    out.metrics.extend([
        (
            "tls.flight_build_us",
            flight(CertificateEra::Classical, &chains),
        ),
        (
            "tls.flight_build_pq_us",
            flight(CertificateEra::PostQuantum, &chains_pq),
        ),
    ]);

    // scanner: probe construction around an already-issued chain.
    let (probe_build_us, _) =
        per_call_us(services.iter().zip(chains.clone()), |(record, chain)| {
            (
                server_config_for_era(&world, record, chain, CertificateEra::Classical),
                wire_for_profile(record, NetworkProfile::Ideal),
            )
        });
    out.metrics.push(("scanner.probe_build_us", probe_build_us));

    // quic + netsim: handshake simulation per era and plan in the pump's
    // own batches, and how the per-handshake cost moves with batch size.
    let classical = |plan| probes_for(&world, &services, &chains, CertificateEra::Classical, plan);
    let (clean_probes, lossy_probes) = (classical(FaultPlan::NONE), classical(FaultPlan::MODERATE));
    let events_of = |probes: &[HandshakeProbe]| {
        let before = counters.read().events;
        let (busy_s, outcomes) = handshakes(probes, &claims);
        // Three identical runs fed the counter.
        ((counters.read().events - before) / 3, busy_s, outcomes)
    };
    let (clean_events, clean_s, clean) = events_of(&clean_probes);
    let (lossy_events, lossy_s, lossy) = events_of(&lossy_probes);
    let (pq_s, _) = handshakes(
        &probes_for(
            &world,
            &services,
            &chains_pq,
            CertificateEra::PostQuantum,
            FaultPlan::NONE,
        ),
        &claims,
    );
    let (wide_s, _) = handshakes(&clean_probes, &[1024]);
    let (narrow_s, _) = handshakes(&clean_probes, &[64]);
    let (own, own_s, own_events) = if chaos {
        (&lossy, lossy_s, lossy_events)
    } else {
        (&clean, clean_s, clean_events)
    };
    let transmissions: u64 = own
        .iter()
        .map(|o| (o.client_transmissions + o.server_stats.flight_transmissions) as u64)
        .sum();
    out.metrics.extend([
        ("quic.handshake_us", clean_s * 1e6 / n),
        ("quic.handshake_chaos_us", lossy_s * 1e6 / n),
        ("quic.handshake_pq_us", pq_s * 1e6 / n),
        ("quic.batch_cliff_ratio", wide_s / narrow_s),
        ("quic.transmissions_per_handshake", transmissions as f64 / n),
        ("netsim.events_per_s", own_events as f64 / own_s),
    ]);

    // scanner: the warm (resumption) scan, two visits per service.
    let refs: Vec<&DomainRecord> = sample.iter().collect();
    let begun = Instant::now();
    black_box(quicreach::warm_scan_records(
        &world,
        &refs,
        INITIAL,
        NetworkProfile::Ideal,
        ResumptionPolicy::WarmAfterFirstVisit,
    ));
    out.metrics.push((
        "scanner.warm_scan_us",
        begun.elapsed().as_secs_f64() * 1e6 / refs.len() as f64,
    ));

    // analysis: merging one claim's summary into an accumulator.
    let mut scratch = ProbeScratch::with_memo(true);
    let shard = quicreach::fold_records_scratch(
        &world,
        &chunks[0],
        INITIAL,
        NetworkProfile::Ideal,
        CertificateEra::Classical,
        &mut scratch,
    );
    let mut summary = QuicReachShard::identity();
    const MERGES: usize = 4_096;
    let begun = Instant::now();
    for _ in 0..MERGES {
        summary.merge(black_box(&shard));
    }
    black_box(&summary);
    out.metrics.push((
        "analysis.merge_us",
        begun.elapsed().as_secs_f64() * 1e6 / MERGES as f64,
    ));

    // churn: overlaying twenty ticks of churn onto one claim of records.
    let timeline = Timeline::new(ChurnConfig::new(args.seed ^ 0x00C4_2A17, population));
    let state = ChurnState::at(&timeline, 20);
    let (apply_us, _) = per_call_us(chunks.iter_mut(), |chunk| state.apply_to_records(chunk));
    out.metrics.push(("churn.apply_us", apply_us));

    Substrate {
        plan_handshake_us: own_s * 1e6 / n,
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut tracer = Tracer::new(args.workload.name);
    let mut out = match args.workload.kind {
        Kind::Stream { workers, chaos } => stream(args, workers, chaos, &mut tracer),
        Kind::Certs => certs(args, &mut tracer),
        Kind::Report => report(args, &mut tracer),
        Kind::Service { reads } => service(args, reads, &mut tracer),
    };
    out.notes.push(("spans", tracer.spans.len() as f64));
    match tracer.write() {
        Ok(path) => eprintln!("bench: wrote {path}"),
        Err(error) => out.check(false, &format!("could not write the trace: {error}")),
    }
    out
}
