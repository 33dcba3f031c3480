//! The [`ScanEngine`]: one uniform, lazily-computed artifact store over one
//! worker-sharded population loop.
//!
//! Every scan artifact the report and the experiment modules consume — the
//! HTTPS certificate scan, quicreach classifications under *any* scenario,
//! the warm-scan and QScanner summaries, the compression support table and
//! synthetic study, telescope backscatter sessions and Meta-PoP ZMap scans
//! — is computed at most once per campaign, by its own pass, and shared
//! behind an [`Arc`]. Each family caches what its readers read: per-record
//! rows where several figures read them, a [`Merge`] summary where they
//! read counts. Experiments therefore never recompute a scan behind the
//! report's back: asking twice returns the same allocation.
//!
//! ## One loop, two doors, cached folds on top
//!
//! One worker loop (`run_pump`) is all that ever walks the population: each
//! worker claims rank ranges off an atomic cursor, derives those records
//! into a reused buffer and folds them into its own accumulator; a single
//! effective worker runs inline, without spawning. Its two doors are the
//! crate-private `ScanEngine::fold_population` (every rank, adaptively
//! sized claims, a [`Merge`] summary) and the public
//! [`ScanEngine::fold_ranges`] (an explicit range list, derived as its
//! caller names, one result per range); every service tick goes through
//! one. The cached families sit on top: *summarising* folds (`stream_*`,
//! [`ScanEngine::warm_scan`], [`ScanEngine::qscanner`]), one few-kilobyte
//! summary per worker, merged; and *collecting* folds
//! ([`ScanEngine::quicreach`], [`ScanEngine::https_scan`], …), which tag
//! each claim's per-record rows with the claim's first rank and sort and
//! flatten them once the pump is done. A family that reads nothing but QUIC
//! services (quicreach, warm, QScanner, compression support) derives only
//! those ([`World::quic_chunk_into`]); the HTTPS funnel and the compression
//! study derive every rank.
//!
//! The results are **bit-for-bit identical at any worker count and any
//! claim size** because every probe draws its randomness from a `SimRng`
//! stream forked off the campaign seed *per record* at world-generation
//! time (`record.seed`), never from a stream shared across records. A
//! claim boundary therefore cannot shift any draw: a worker probing records
//! `[a, b)` produces exactly the rows a serial run produces for them, rank
//! order restores the serial artefact, and the summaries are exactly
//! associative and commutative monoids under [`Merge`], so claiming order
//! cannot shift a bit either. Each scanner module's whole-world `scan` — a
//! serial map over its per-record function, no pump, no memo, no flyweight
//! — is the reference `tests/determinism_matrix.rs` holds the collected
//! artefacts and the summaries to, beside the worker × claim-size × memo
//! grid.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use quicert_analysis::Merge;
use quicert_compress::Algorithm;
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_obs::{Counter, Gauge, MetricsRegistry};
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_scanner::compression::{
    self, CompressionShard, CompressionSupport, SyntheticCompression,
};
use quicert_scanner::https_scan::{self, HttpsScanReport, HttpsScanShard};
use quicert_scanner::qscanner::{self, ConsistencyReport};
use quicert_scanner::quicreach::{
    self, ClassMemo, ProbeMetrics, ProbeScratch, QuicReachResult, QuicReachShard, WarmAggregate,
};
use quicert_scanner::telescope_scan::{self, BackscatterSession};
use quicert_scanner::zmap::{self, ZmapResult};
use quicert_scanner::Scenario;
use quicert_session::ResumptionPolicy;

/// Smallest chunk the adaptive pump claims: keeps per-claim overhead
/// (cursor traffic, scratch resets, one shard merge) amortised even at the
/// tail of the population.
pub const MIN_ADAPTIVE_CHUNK: usize = 64;

/// Largest chunk the adaptive pump claims. Deliberately modest, so the
/// tail of the population still spreads over the workers. Handshakes run
/// one session at a time, so a claim's size does not change what a probe
/// costs; claim overhead is one atomic `fetch_add` per chunk — noise even
/// at ten million records.
pub const MAX_ADAPTIVE_CHUNK: usize = 256;

/// The host's core count (1 when it cannot be determined). The pump never
/// spawns more threads than this — oversubscribing a small host made
/// 2-worker runs *slower* than serial.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The chunk a pump worker claims next under adaptive granularity: an
/// eighth of the remaining population per worker, clamped to
/// [[`MIN_ADAPTIVE_CHUNK`], [`MAX_ADAPTIVE_CHUNK`]]. Early claims are
/// large (cheap cursor traffic, good batching); tail claims shrink so no
/// worker sits idle while one drains a final oversized chunk.
fn adaptive_claim(remaining: usize, workers: usize) -> usize {
    (remaining / (workers * 8).max(1)).clamp(MIN_ADAPTIVE_CHUNK, MAX_ADAPTIVE_CHUNK)
}

/// One lazily-computed artifact family, keyed by scan parameters.
///
/// The first request for a key computes the artifact with its own pass —
/// no computation asks another family for anything — and every later
/// request returns the same `Arc` allocation. The pass runs outside the
/// lock, so another thread's request for another key never waits on it.
#[derive(Debug)]
struct ArtifactCache<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl<K: Eq + Hash, V> ArtifactCache<K, V> {
    /// A cache whose hit/miss counters carry `family` as their label on
    /// `registry`. Artifact requests are rare (once per campaign figure),
    /// so counting every lookup costs nothing measurable.
    fn new(registry: &MetricsRegistry, family: &str) -> Self {
        ArtifactCache {
            map: Mutex::new(HashMap::new()),
            hits: registry.labeled_counter(
                "quicert_engine_cache_hits_total",
                &[("family", family)],
                "Artifact requests answered from the engine cache",
            ),
            misses: registry.labeled_counter(
                "quicert_engine_cache_misses_total",
                &[("family", family)],
                "Artifact requests that had to compute their artifact",
            ),
        }
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(value) = relock(&self.map).get(&key) {
            self.hits.inc();
            return Arc::clone(value);
        }
        self.misses.inc();
        let value = Arc::new(compute());
        // First insertion wins so concurrent callers agree on one allocation.
        Arc::clone(relock(&self.map).entry(key).or_insert(value))
    }
}

/// Lock `mutex`, poisoned or not: a map insert or a stats assignment is
/// valid at every step, and a panicked fold must not wedge later requests.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counters one pump worker accumulated over the chunks it claimed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerPumpStats {
    /// Chunks this worker claimed off the shared cursor.
    pub chunks_claimed: u64,
    /// Ranks this worker's claims covered, clipped to the population —
    /// whether the pass derived every one or only its QUIC services.
    pub records_folded: u64,
    /// Wall-clock seconds spent generating and folding its chunks
    /// (excludes idle time waiting on the scope join).
    pub fold_seconds: f64,
    /// The part of `fold_seconds` spent deriving its chunks' records; the
    /// rest is the fold itself.
    pub derive_seconds: f64,
    /// Probes this worker replayed from the scenario-class memo instead of
    /// simulating (zero when the fold has no memo or bypassed it).
    pub memo_hits: u64,
    /// Probes this worker actually simulated while memoizing.
    pub memo_misses: u64,
    /// Scenario classes this worker added to the memo during the run
    /// (never more than its `memo_misses`).
    pub distinct_classes: u64,
}

/// What the pump did on one pass, summarising or collecting: per-worker
/// counters plus the resolved thread count. `repro` prints it right after
/// a streamed scan and `perfbench/` reads its memo and claim totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PumpStats {
    /// Workers the caller asked for.
    pub requested_workers: usize,
    /// Threads that actually pumped: the request capped at
    /// [`host_parallelism`].
    pub effective_workers: usize,
    /// Per-worker counters, in spawn order.
    pub workers: Vec<WorkerPumpStats>,
}

impl PumpStats {
    /// Every per-worker counter summed into one merged
    /// [`WorkerPumpStats`]: the run's totals, in the same shape as any
    /// single worker's share. Workers fill one shared table, first insert
    /// wins, so the `distinct_classes` total is the classes this pump
    /// added — one an earlier pump stored is not counted again.
    pub fn totals(&self) -> WorkerPumpStats {
        let mut totals = WorkerPumpStats::default();
        for w in &self.workers {
            totals.chunks_claimed += w.chunks_claimed;
            totals.records_folded += w.records_folded;
            totals.fold_seconds += w.fold_seconds;
            totals.derive_seconds += w.derive_seconds;
            totals.memo_hits += w.memo_hits;
            totals.memo_misses += w.memo_misses;
            totals.distinct_classes += w.distinct_classes;
        }
        totals
    }

    /// The busiest worker's fold seconds — the pump's critical path.
    pub fn max_fold_seconds(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.fold_seconds)
            .fold(0.0, f64::max)
    }
}

/// How a pump derives the records of a claim: [`World::domain_chunk_into`]
/// (every rank) or, for a family that reads nothing but QUIC services,
/// [`World::quic_chunk_into`] — which never builds the ≈79% of records such
/// a fold would skip.
type Derive = fn(&World, usize, usize, &mut Vec<DomainRecord>);

/// What a pump's workers claim off the shared cursor.
#[derive(Clone, Copy)]
enum Claims<'a> {
    /// Ranks `1..=total`, in adaptively sized claims ([`adaptive_claim`]).
    Population(usize),
    /// An explicit list of `(first_rank, len)` rank ranges, one claim each.
    Ranges(&'a [(usize, usize)]),
}

impl Claims<'_> {
    /// Claim the next `(tag, first_rank, len)` off `cursor` (which starts
    /// at 0), or `None` once everything is claimed. The tag orders a pass's
    /// claims: a population claim's first rank, an explicit range's list
    /// index. `size` is the worker's next population claim size, retuned
    /// here to what remains; explicit ranges ignore it.
    fn next(
        self,
        cursor: &AtomicUsize,
        size: &mut usize,
        workers: usize,
    ) -> Option<(usize, usize, usize)> {
        match self {
            Claims::Population(total) => {
                let claim = *size;
                let first = cursor.fetch_add(claim, Ordering::Relaxed) + 1;
                if first > total {
                    return None;
                }
                let done = first.saturating_add(claim - 1).min(total);
                *size = adaptive_claim(total - done, workers);
                Some((first, first, claim))
            }
            Claims::Ranges(ranges) => {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                ranges.get(index).map(|&(first, len)| (index, first, len))
            }
        }
    }
}

/// The pump's wall-clock stage series: `fold_wall_seconds` split into
/// deriving records and folding them.
const STAGE_WALL_SECONDS: &str = "quicert_engine_stage_wall_seconds_total";
const STAGE_WALL_HELP: &str = "Wall-clock seconds pump workers spent per stage of a chunk";

/// Pre-registered streaming-pump instruments on the engine's registry —
/// resolved once at construction so the pump's flush is a handful of
/// atomic adds, never a registry lock.
#[derive(Debug)]
struct EngineMetrics {
    chunks_claimed: Arc<Counter>,
    records_folded: Arc<Counter>,
    fold_wall_seconds: Arc<Gauge>,
    /// `fold_wall_seconds` split by stage: deriving records, folding them.
    derive_wall_seconds: Arc<Gauge>,
    fold_stage_wall_seconds: Arc<Gauge>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    memo_classes: Arc<Gauge>,
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            chunks_claimed: registry.counter(
                "quicert_engine_chunks_claimed_total",
                "Population chunks claimed off the streaming pump's cursor",
            ),
            records_folded: registry.counter(
                "quicert_engine_records_folded_total",
                "Records generated and folded by the streaming pump",
            ),
            // "wall" marks the registry's nondeterministic values: golden
            // renders redact exactly the lines carrying it.
            fold_wall_seconds: registry.gauge(
                "quicert_engine_fold_wall_seconds_total",
                "Wall-clock seconds pump workers spent generating and folding",
            ),
            derive_wall_seconds: registry.labeled_gauge(
                STAGE_WALL_SECONDS,
                &[("stage", "derive")],
                STAGE_WALL_HELP,
            ),
            fold_stage_wall_seconds: registry.labeled_gauge(
                STAGE_WALL_SECONDS,
                &[("stage", "fold")],
                STAGE_WALL_HELP,
            ),
            memo_hits: registry.counter(
                "quicert_engine_memo_hits_total",
                "Streamed probes answered from scenario-class memos",
            ),
            memo_misses: registry.counter(
                "quicert_engine_memo_misses_total",
                "Streamed probes simulated while memoizing",
            ),
            memo_classes: registry.gauge(
                "quicert_engine_memo_classes",
                "Scenario classes the last pump added to the engine's memo table",
            ),
        }
    }
}

/// The campaign's scan executor and artifact store.
#[derive(Debug)]
pub struct ScanEngine {
    world: World,
    workers: usize,
    // The one scenario-class memo (`None`: memoization off), shared by
    // every worker of every quicreach pump for as long as the engine lives.
    // A class carries no path latency (one representative per class,
    // rescaled on replay — `quicreach::scan_chunk`), so a million domains
    // are ≈5.5k entries.
    memo: Option<Arc<ClassMemo>>,
    scenario: Scenario,
    https: ArtifactCache<(), HttpsScanReport>,
    // Scan-family caches key on [`Scenario`] — every axis stores exact
    // integer/enum values, so no float keys anywhere.
    quicreach: ArtifactCache<Scenario, Vec<QuicReachResult>>,
    warm: ArtifactCache<Scenario, WarmAggregate>,
    compression_support: ArtifactCache<(), CompressionSupport>,
    compression_study: ArtifactCache<(CertificateEra, Algorithm, usize), Vec<SyntheticCompression>>,
    telescope: ArtifactCache<usize, Vec<BackscatterSession>>,
    zmap: ArtifactCache<(bool, u64), Vec<ZmapResult>>,
    qscanner: ArtifactCache<(), ConsistencyReport>,
    // Streaming-path caches hold *summaries*, never per-record vectors, so
    // a cached million-record scan costs a few kilobytes.
    stream_quicreach: ArtifactCache<Scenario, QuicReachShard>,
    stream_https: ArtifactCache<(), HttpsScanShard>,
    stream_compression: ArtifactCache<(), CompressionShard>,
    // What the pump did on its most recent pass.
    last_pump: Mutex<Option<PumpStats>>,
    // The campaign's metrics registry and its pre-registered pump
    // instruments; `metrics_enabled` gates the streaming-path flushes.
    registry: Arc<MetricsRegistry>,
    metrics: EngineMetrics,
    metrics_enabled: bool,
}

impl ScanEngine {
    /// Wrap a world. `workers == 0` resolves to one worker per
    /// available core; `workers == 1` forces the serial path. The default
    /// [`Scenario`] is the paper's baseline at `default_initial`, revisited
    /// warm under [`ResumptionPolicy::WarmAfterFirstVisit`]; replace it
    /// with `ScanEngine::with_scenario`.
    pub fn new(world: World, default_initial: usize, workers: usize) -> ScanEngine {
        let workers = match workers {
            0 => host_parallelism(),
            n => n,
        };
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = EngineMetrics::register(&registry);
        ScanEngine {
            world,
            workers,
            memo: Some(Arc::default()),
            scenario: Scenario::at(default_initial)
                .with_policy(ResumptionPolicy::WarmAfterFirstVisit),
            https: ArtifactCache::new(&registry, "https"),
            quicreach: ArtifactCache::new(&registry, "quicreach"),
            warm: ArtifactCache::new(&registry, "warm"),
            compression_support: ArtifactCache::new(&registry, "compression-support"),
            compression_study: ArtifactCache::new(&registry, "compression-study"),
            telescope: ArtifactCache::new(&registry, "telescope"),
            zmap: ArtifactCache::new(&registry, "zmap"),
            qscanner: ArtifactCache::new(&registry, "qscanner"),
            stream_quicreach: ArtifactCache::new(&registry, "stream-quicreach"),
            stream_https: ArtifactCache::new(&registry, "stream-https"),
            stream_compression: ArtifactCache::new(&registry, "stream-compression"),
            last_pump: Mutex::new(None),
            registry,
            metrics,
            metrics_enabled: true,
        }
    }

    /// An engine over a [`World::streaming`] of `config`. Every family
    /// derives its records by rank: the `stream_*` summaries in bounded
    /// memory, the per-record artefacts in memory that grows with the
    /// population, the telescope by a rank-order walk that stops at its
    /// last target.
    pub fn streaming(config: WorldConfig, default_initial: usize, workers: usize) -> ScanEngine {
        ScanEngine::new(World::streaming(config), default_initial, workers)
    }

    /// Enable or disable scenario-class memoization on the streaming scan
    /// path (on by default). Memoized and unmemoized runs fold bit-for-bit
    /// identical summaries — the toggle exists for A/B benching and for
    /// the determinism matrix to prove exactly that; there is no results
    /// reason to turn it off. Profiles that consume per-record randomness
    /// bypass the memo on their own either way.
    pub fn with_memoization(mut self, memoize: bool) -> ScanEngine {
        self.memo = memoize.then(Arc::default);
        self
    }

    /// Scenario classes resident in the engine's memo — never more than
    /// [`quicreach::MEMO_CLASS_CAPACITY`], however many pumps have run.
    pub fn memo_classes(&self) -> usize {
        self.memo.as_ref().map_or(0, |memo| memo.classes())
    }

    /// Enable or disable streaming-scan instrumentation (on by default).
    /// Metrics are a pure side channel — they read simulated time and
    /// counters the datapath maintains anyway, so summaries are bit-for-bit
    /// identical either way; the determinism matrix pins exactly that. The
    /// toggle exists for overhead A/B runs, not because anything depends
    /// on it.
    pub fn with_metrics(mut self, enabled: bool) -> ScanEngine {
        self.metrics_enabled = enabled;
        self
    }

    /// The campaign's metrics registry. Artifact-cache counters land here
    /// unconditionally; pump totals, probe counters and handshake-phase
    /// histograms land here while metrics are enabled. Render it with
    /// [`MetricsRegistry::render_prometheus`] or
    /// [`MetricsRegistry::render_json`].
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Replace the engine's default [`Scenario`] — the value
    /// [`ScanEngine::scenario`] hands out for callers to scan under or
    /// vary one axis of. The default (see [`ScanEngine::new`]) reproduces
    /// axis-unaware campaigns byte-for-byte.
    pub(crate) fn with_scenario(mut self, scenario: Scenario) -> ScanEngine {
        self.scenario = scenario;
        self
    }

    /// The world all scans run against.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The engine's default scenario: era, path profile, fault plan,
    /// Initial size and resumption policy in one value. Scan under it
    /// as-is, or vary one axis — `engine.scenario().with_era(..)`.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The §3.1 HTTPS certificate scan: one `(DNS outcome, observation)`
    /// row per domain off the pump, the funnel folded from them in rank order.
    pub fn https_scan(&self) -> Arc<HttpsScanReport> {
        self.https.get_or_compute((), || {
            let observe = |r: &DomainRecord| (r.dns, https_scan::observe(&self.world, r));
            let rows = self.collect(None, World::domain_chunk_into, |records, _| {
                records.iter().map(observe).collect()
            });
            https_scan::collate(rows)
        })
    }

    /// quicreach classifications of every QUIC service under one
    /// [`Scenario`] — one cached artifact per scenario (the resumption
    /// policy aside: cold scans never read it), so a grid revisiting a
    /// cell is free. Collected through the pump's one probe loop
    /// ([`quicreach::scan_chunk`], classes replayed as for the streamed
    /// scan): record for record [`quicreach::scan_service`]'s, on every axis.
    /// A reader that wants the summary folds it:
    /// [`QuicReachShard::from_results`] is bit-for-bit
    /// [`ScanEngine::stream_quicreach`] of the same scenario.
    pub fn quicreach(&self, scenario: Scenario) -> Arc<Vec<QuicReachResult>> {
        let scenario = scenario.cold();
        self.quicreach.get_or_compute(scenario, || {
            self.collect(
                Some(scenario),
                World::quic_chunk_into,
                |records, scratch| {
                    let mut rows = Vec::new();
                    quicreach::scan_chunk(&self.world, records, scenario, scratch, |row| {
                        rows.push(row)
                    });
                    rows
                },
            )
        })
    }

    /// The cold-then-warm resumption scan under one [`Scenario`], revisiting
    /// under its [`Scenario::warm_policy`], folded into one
    /// [`WarmAggregate`] per scenario: one [`quicreach::warm_service`] per
    /// QUIC service (a revisit is stateful: no class is ever replayed),
    /// pushed into its worker's aggregate and dropped. Under a fault plan
    /// this is how the chaos grid measures whether resumption still pays
    /// off once the wire drops and corrupts datagrams.
    pub fn warm_scan(&self, scenario: Scenario) -> Arc<WarmAggregate> {
        let scenario = scenario.with_policy(scenario.warm_policy());
        self.warm.get_or_compute(scenario, || {
            self.pump(None, World::quic_chunk_into, |records, _| {
                let mut agg = WarmAggregate::identity();
                for record in records.iter() {
                    agg.push(&quicreach::warm_service(&self.world, record, scenario));
                }
                agg
            })
        })
    }

    /// Table 1's measured half — per-algorithm support and achieved ratios
    /// plus the all-three count — from one probe row per QUIC service
    /// collected off the pump. The rows stay in rank order because each
    /// column's mean ratio is a float mean over them.
    pub fn compression_support(&self) -> Arc<CompressionSupport> {
        self.compression_support.get_or_compute((), || {
            let probe = |r: &DomainRecord| compression::probe_row(&self.world, r);
            let rows = self.collect(None, World::quic_chunk_into, |records, _| {
                records.iter().map(probe).collect()
            });
            compression::collate(&rows)
        })
    }

    /// The §4.2 synthetic compression study for one (era, algorithm,
    /// stride) — one cached artifact per triple, the sampled chains
    /// compressed as the pump passes them. Across eras this is how the
    /// report measures the Fig-9-style dictionary degrading on PQC chains.
    pub fn compression_study(
        &self,
        era: CertificateEra,
        algorithm: Algorithm,
        stride: usize,
    ) -> Arc<Vec<SyntheticCompression>> {
        self.compression_study
            .get_or_compute((era, algorithm, stride), || {
                let study = |r: &DomainRecord| compression::study(&self.world, r, algorithm, era);
                self.collect(None, World::domain_chunk_into, |records, _| {
                    let sampled = |r: &&DomainRecord| compression::in_study_sample(r, stride);
                    records.iter().filter(sampled).filter_map(study).collect()
                })
            })
    }

    /// Backscatter sessions of `per_provider` spoofed probes per hypergiant
    /// (Fig 9), at the first services of each in rank order, one session a
    /// probe. Computed serially, walking only the ranks that hold its
    /// targets, and cached whole.
    pub(crate) fn telescope(&self, per_provider: usize) -> Arc<Vec<BackscatterSession>> {
        self.telescope.get_or_compute(per_provider, || {
            telescope_scan::collect(
                &self.world,
                telescope_scan::default_dark_prefix(),
                per_provider,
            )
        })
    }

    /// The §4.3 Meta-PoP ZMap scan (Fig 11 uses `variation` for its
    /// per-repetition certificate-bundle jitter; the headline scan is
    /// variation 0).
    pub(crate) fn meta_pop(&self, post_disclosure: bool, variation: u64) -> Arc<Vec<ZmapResult>> {
        self.zmap.get_or_compute((post_disclosure, variation), || {
            let prefix = zmap::default_pop_prefix();
            zmap::scan_pop_with_variation(&self.world, prefix, post_disclosure, variation)
        })
    }

    /// The QScanner certificate pass folded into its TLS-vs-QUIC
    /// consistency report (§3.2): one [`qscanner::fetch`] per QUIC service,
    /// pushed into its worker's report and dropped.
    pub fn qscanner(&self) -> Arc<ConsistencyReport> {
        self.qscanner.get_or_compute((), || {
            self.pump(None, World::quic_chunk_into, |records, _| {
                let mut report = ConsistencyReport::identity();
                let fetched = records
                    .iter()
                    .filter_map(|r| qscanner::fetch(&self.world, r));
                for obs in fetched {
                    report.push(&obs);
                }
                report
            })
        })
    }

    // ------------------------------------------------------ streaming --

    /// What the pump did on its most recent pass, whichever family asked
    /// for it (a cached artifact hit does not touch the pump), or `None`
    /// before any pass. Read it right after the scan it should describe.
    pub fn pump_stats(&self) -> Option<PumpStats> {
        relock(&self.last_pump).clone()
    }

    /// The worker loop every population pass shares. `workers` threads — never
    /// more than [`host_parallelism`], nor than there are ranges to claim;
    /// a single effective worker runs inline without spawning — each build
    /// one accumulator and one [`ProbeScratch`], then claim rank ranges off
    /// an atomic cursor, `derive` each claim's records into a reused buffer
    /// and hand them to `fold` until the claims run out: no locks, no
    /// channel, and population derivation parallelises along with the
    /// probing. At no
    /// point does more than one claim of records per worker (plus its
    /// accumulator and scratch) exist in memory, so a million-record
    /// population streams through a few megabytes.
    ///
    /// The scratch is a handle on `memo` (the engine's table, the pass's
    /// own, or none) plus, under `Some(scenario)` while metrics are enabled,
    /// the scenario's [`ProbeMetrics`]; the families that probe nothing get
    /// a memo-less, metrics-less scratch they ignore, so nothing is
    /// registered or counted on their behalf. Returns the per-worker
    /// accumulators in spawn order after flushing the run's [`PumpStats`];
    /// a worker's panic resumes on the caller with its own message. A
    /// worker counts the ranks its claims cover, however few records
    /// `derive` built from them.
    fn run_pump<A, MA, F>(
        &self,
        claims: Claims<'_>,
        scenario: Option<Scenario>,
        memo: Option<&Arc<ClassMemo>>,
        derive: Derive,
        make_acc: MA,
        fold: F,
    ) -> Vec<A>
    where
        A: Send,
        MA: Fn() -> A + Sync,
        F: Fn(&mut A, usize, &mut [DomainRecord], &mut ProbeScratch) + Sync,
    {
        let requested = self.workers.max(1);
        let (effective, first_size) = match claims {
            Claims::Population(total) => {
                let effective = requested.min(host_parallelism());
                (effective, adaptive_claim(total, effective))
            }
            // Never more threads than ranges: a sparse delta tick folds a
            // handful of segments, and an idle tick folds none.
            Claims::Ranges(ranges) => (
                requested.min(ranges.len().max(1)).min(host_parallelism()),
                0,
            ),
        };
        let probe_metrics = scenario
            .filter(|_| self.metrics_enabled)
            .map(|scenario| ProbeMetrics::register(&self.registry, scenario));
        let cursor = AtomicUsize::new(0);
        let worker = || -> (A, WorkerPumpStats) {
            let mut acc = make_acc();
            let mut scratch = ProbeScratch::sharing(memo.cloned());
            if let Some(metrics) = &probe_metrics {
                scratch.set_metrics(metrics.clone());
            }
            let mut buf: Vec<DomainRecord> = Vec::new();
            let mut stats = WorkerPumpStats::default();
            let mut size = first_size;
            while let Some((tag, first, len)) = claims.next(&cursor, &mut size, effective) {
                let started = Instant::now();
                derive(&self.world, first, len, &mut buf);
                let derived = Instant::now();
                fold(&mut acc, tag, &mut buf, &mut scratch);
                stats.derive_seconds += (derived - started).as_secs_f64();
                stats.fold_seconds += started.elapsed().as_secs_f64();
                stats.chunks_claimed += 1;
                stats.records_folded += self.world.chunk_ranks(first, len).len() as u64;
            }
            (stats.memo_hits, stats.memo_misses, stats.distinct_classes) = scratch.memo_stats();
            (acc, stats)
        };

        let (accs, workers): (Vec<A>, Vec<WorkerPumpStats>) = if effective == 1 {
            [worker()].into_iter().unzip()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..effective).map(|_| scope.spawn(worker)).collect();
                let joined = handles.into_iter().map(|handle| {
                    let result = handle.join();
                    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                });
                joined.unzip()
            })
        };
        let stats = PumpStats {
            requested_workers: requested,
            effective_workers: effective,
            workers,
        };
        if self.metrics_enabled {
            let totals = stats.totals();
            self.metrics.chunks_claimed.add(totals.chunks_claimed);
            self.metrics.records_folded.add(totals.records_folded);
            self.metrics.fold_wall_seconds.add(totals.fold_seconds);
            self.metrics.derive_wall_seconds.add(totals.derive_seconds);
            self.metrics
                .fold_stage_wall_seconds
                .add(totals.fold_seconds - totals.derive_seconds);
            self.metrics.memo_hits.add(totals.memo_hits);
            self.metrics.memo_misses.add(totals.memo_misses);
            self.metrics
                .memo_classes
                .set(totals.distinct_classes as f64);
        }
        *relock(&self.last_pump) = Some(stats);
        accs
    }

    /// [`ScanEngine::fold_population`], scenario optional: the one
    /// population fold behind it and the scenario-less summarising
    /// families. Claims start at an eighth of the population per worker,
    /// clamped to [[`MIN_ADAPTIVE_CHUNK`], [`MAX_ADAPTIVE_CHUNK`]], and
    /// taper near the tail.
    fn pump<S, F>(&self, scenario: Option<Scenario>, derive: Derive, fold: F) -> S
    where
        S: Merge + Send,
        F: Fn(&mut [DomainRecord], &mut ProbeScratch) -> S + Sync,
    {
        S::merge_all(self.run_pump(
            Claims::Population(self.world.config.domains),
            scenario,
            scenario.and(self.memo.as_ref()),
            derive,
            S::identity,
            |local: &mut S, _, records, scratch| local.merge(&fold(records, scratch)),
        ))
    }

    /// The streaming quicreach scan under one [`Scenario`]: the whole
    /// population is pumped through the sharded workers in bounded memory,
    /// each claim deriving only its QUIC services (all the probe loop
    /// reads), and folded into one [`QuicReachShard`]. No `Vec` of
    /// per-record results is ever built on this path — the cache stores
    /// the summary itself, keyed like the [`ScanEngine::quicreach`] cache
    /// and bit-for-bit [`QuicReachShard::from_results`] of that artifact,
    /// at any worker count and claim size. A scenario that consumes
    /// per-probe wire randomness (a faulted plan, a lossy profile) bypasses
    /// scenario-class memoization regardless of the engine's memo toggle;
    /// the summary is the same bits either way.
    pub fn stream_quicreach(&self, scenario: Scenario) -> Arc<QuicReachShard> {
        let scenario = scenario.cold();
        self.stream_quicreach.get_or_compute(scenario, || {
            let fold = |records: &mut [DomainRecord], scratch: &mut ProbeScratch| {
                quicreach::fold_chunk(&self.world, records, scenario, scratch)
            };
            let mut shard = self.pump(Some(scenario), World::quic_chunk_into, fold);
            // An all-identity merge (empty population) never saw the
            // scan's Initial size; stamp it so the bar is labelled.
            shard.classes.initial_size = scenario.initial_size;
            shard
        })
    }

    /// Fold the whole population through the streaming pump — the claiming
    /// of [`ScanEngine::stream_quicreach`], the per-worker scratch of
    /// [`ScanEngine::fold_ranges`] — into one merged summary. Each claimed
    /// chunk is handed to `fold` mutably, so a resident caller can overlay
    /// churn before scanning; its result merges into its worker's
    /// accumulator at once, so however large the population, one summary
    /// per worker (plus the chunk in flight) is all that is ever live.
    /// Exact at any worker count and claim size because every summary is
    /// an exactly associative and commutative [`Merge`] monoid. Nothing is
    /// cached; simulated classes stay in the engine's memo.
    pub(crate) fn fold_population<S, F>(&self, scenario: Scenario, fold: F) -> S
    where
        S: Merge + Send,
        F: Fn(&mut [DomainRecord], &mut ProbeScratch) -> S + Sync,
    {
        self.pump(Some(scenario), World::domain_chunk_into, fold)
    }

    /// Fold an explicit list of `(first_rank, len)` rank ranges through the
    /// streaming pump's worker loop — same thread cap, same per-worker
    /// scratch (the engine's memo, `scenario`'s [`ProbeMetrics`]), same
    /// [`PumpStats`] flush as [`ScanEngine::stream_quicreach`] — and return
    /// one `fold` result per range, in input order. Each range is derived
    /// as one chunk by `derive` — [`World::domain_chunk_into`] (every rank)
    /// or [`World::quic_chunk_into`] (its QUIC services only) — and handed
    /// to `fold` mutably, so a resident caller can overlay churn before
    /// scanning. No result is cached, but the classes simulated stay in the
    /// engine's memo for later calls to replay; an overlay only reaches a
    /// probe through key fields, so none go stale.
    pub fn fold_ranges<R, F>(
        &self,
        scenario: Scenario,
        ranges: &[(usize, usize)],
        derive: Derive,
        fold: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut [DomainRecord], &mut ProbeScratch) -> R + Sync,
    {
        let claims = Claims::Ranges(ranges);
        self.pump_in_order(claims, Some(scenario), self.memo.as_ref(), derive, fold)
    }

    /// One pump pass with its per-claim `fold` results back in claim order,
    /// whichever worker folded which claim when: each is tagged with its
    /// claim ([`Claims::next`]), sorted once the pump is done, and stripped
    /// — [`ScanEngine::fold_ranges`] as is, flattened for an artefact.
    fn pump_in_order<R: Send>(
        &self,
        claims: Claims<'_>,
        scenario: Option<Scenario>,
        memo: Option<&Arc<ClassMemo>>,
        derive: Derive,
        fold: impl Fn(&mut [DomainRecord], &mut ProbeScratch) -> R + Sync,
    ) -> Vec<R> {
        let per_worker = self.run_pump(
            claims,
            scenario,
            memo,
            derive,
            Vec::new,
            |acc: &mut Vec<(usize, R)>, tag, records, scratch| {
                acc.push((tag, fold(records, scratch)))
            },
        );
        let mut tagged: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
        tagged.sort_unstable_by_key(|&(tag, _)| tag);
        tagged.into_iter().map(|(_, result)| result).collect()
    }

    /// One pass of the population, `rows` returning each claim's per-record
    /// rows off the records `derive` built: the artefact in rank order.
    /// Records are derived per pass, never borrowed, so a streaming engine
    /// collects the same rows. Under a scenario the probes share a memo
    /// that lives for the pass: a collected artefact's classes are never
    /// asked for again (its cache answers repeats), and a report's ≈13k
    /// left resident cost +26% of its peak RSS; ticks and reads do replay
    /// across pumps and keep the engine's.
    fn collect<R: Send>(
        &self,
        scenario: Option<Scenario>,
        derive: Derive,
        rows: impl Fn(&mut [DomainRecord], &mut ProbeScratch) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let memo = scenario.and(self.memo.as_ref()).map(|_| Arc::default());
        let population = Claims::Population(self.world.config.domains);
        let claims = self.pump_in_order(population, scenario, memo.as_ref(), derive, rows);
        // Sized once: grown by doubling, each artefact left its size in holes.
        let mut all = Vec::with_capacity(claims.iter().map(Vec::len).sum());
        all.extend(claims.into_iter().flatten());
        all
    }

    // ----------------------------------------------- frozen compat block --
    //
    // `perfbench/` is frozen and calls this positional signature (plus
    // three in `quicert_scanner::quicreach`). It builds a `Scenario` and
    // delegates, so a new axis never touches it; nothing else in the
    // workspace may call it — use [`ScanEngine::stream_quicreach`].

    #[doc(hidden)]
    pub fn stream_quicreach_chaos(
        &self,
        era: CertificateEra,
        profile: NetworkProfile,
        plan: FaultPlan,
        initial_size: usize,
    ) -> Arc<QuicReachShard> {
        let scenario = Scenario::at(initial_size)
            .with_era(era)
            .with_profile(profile)
            .with_plan(plan);
        self.stream_quicreach(scenario)
    }

    // ------------------------------------------- end frozen compat block --

    /// The streaming §3.1 HTTPS scan: funnel counters and chain-size
    /// sketches folded over the population in bounded memory. It is
    /// bit-for-bit
    /// [`HttpsScanShard::from_report`] of [`ScanEngine::https_scan`] —
    /// which issues every chain, where this fold looks each record's
    /// chain shape up in the world's flyweight
    /// ([`World::https_chain_shape`]) and issues one chain per class.
    pub fn stream_https_scan(&self) -> Arc<HttpsScanShard> {
        self.stream_https.get_or_compute((), || {
            self.pump(None, World::domain_chunk_into, |records, _| {
                https_scan::fold_iter(&self.world, &*records)
            })
        })
    }

    /// The streaming compression-support scan (Table 1 at scale): counts
    /// and exact byte totals per RFC 8879 algorithm, folded in bounded
    /// memory.
    pub fn stream_compression_support(&self) -> Arc<CompressionShard> {
        self.stream_compression.get_or_compute((), || {
            self.pump(None, World::quic_chunk_into, |records, _| {
                compression::fold_iter(&self.world, &*records)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::{Provider, WorldConfig};

    /// The paper's baseline at its reporting size; tests vary one axis.
    const BASE: Scenario = Scenario::at(1362);

    fn config() -> WorldConfig {
        WorldConfig {
            domains: 1_200,
            seed: 0xD37E,
        }
    }

    fn engine(workers: usize) -> ScanEngine {
        ScanEngine::streaming(config(), 1362, workers)
    }

    /// The whole population of `world`, derived as one chunk.
    fn population(world: &World) -> Vec<DomainRecord> {
        world.domain_chunk(1, world.config.domains)
    }

    /// The per-record oracle over a world: one memo-free, pump-free
    /// [`quicreach::scan_service`] per QUIC service.
    fn oracle(world: &World, scenario: Scenario) -> Vec<QuicReachResult> {
        let probe = |record| quicreach::scan_service(world, record, scenario);
        let records = population(world);
        records.iter().filter(|r| r.has_quic()).map(probe).collect()
    }

    #[test]
    fn collected_rows_are_in_rank_order_for_any_worker_count() {
        // Whichever worker claims what when — more workers than claims
        // included — the collected rows come back by rank.
        let ranks: Vec<usize> = (1..=1_200).collect();
        for workers in [1, 2, 3, 8, 64, 1000] {
            let engine = ScanEngine::streaming(config(), 1362, workers);
            let collected = engine.collect(None, World::domain_chunk_into, |records, _| {
                records.iter().map(|r| r.rank).collect()
            });
            assert_eq!(collected, ranks, "workers={workers}");
        }
    }

    #[test]
    fn per_domain_scans_are_bit_identical_across_worker_counts() {
        let serial = engine(1);
        let parallel = engine(8);
        assert_eq!(
            *serial.quicreach(Scenario::at(1242)),
            *parallel.quicreach(Scenario::at(1242))
        );

        let a = serial.https_scan();
        let b = parallel.https_scan();
        assert_eq!(a.resolved, b.resolved);
        assert_eq!(a.names_seen, b.names_seen);
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.summary.total_der, y.summary.total_der);
            assert_eq!(x.summary.chain_id, y.summary.chain_id);
        }

        let sa = serial.compression_support();
        let sb = parallel.compression_support();
        assert_eq!((sa.all_three, sa.total), (sb.all_three, sb.total));
        for (x, y) in sa.algorithms.iter().zip(&sb.algorithms) {
            assert_eq!(x.supported, y.supported);
            assert_eq!(x.total, y.total);
            assert_eq!(x.mean_ratio.to_bits(), y.mean_ratio.to_bits());
        }

        let ca = serial.compression_study(BASE.era, Algorithm::Brotli, 10);
        let cb = parallel.compression_study(BASE.era, Algorithm::Brotli, 10);
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb.iter()) {
            assert_eq!((x.original, x.compressed), (y.original, y.compressed));
        }
    }

    #[test]
    fn artifacts_are_shared_allocations() {
        let engine = engine(2);
        assert!(Arc::ptr_eq(&engine.https_scan(), &engine.https_scan()));
        // The default scenario is the baseline at the default Initial size
        // (cold scans never read its resumption policy).
        assert!(Arc::ptr_eq(
            &engine.quicreach(engine.scenario()),
            &engine.quicreach(BASE)
        ));
        assert!(Arc::ptr_eq(
            &engine.warm_scan(BASE),
            &engine.warm_scan(BASE)
        ));
        assert!(Arc::ptr_eq(
            &engine.compression_support(),
            &engine.compression_support()
        ));
        assert!(Arc::ptr_eq(
            &engine.compression_study(BASE.era, Algorithm::Zstd, 20),
            &engine.compression_study(BASE.era, Algorithm::Zstd, 20)
        ));
        assert!(Arc::ptr_eq(&engine.telescope(2), &engine.telescope(2)));
        assert!(Arc::ptr_eq(
            &engine.meta_pop(false, 0),
            &engine.meta_pop(false, 0)
        ));
        assert!(Arc::ptr_eq(&engine.qscanner(), &engine.qscanner()));
        // Distinct parameters are distinct artifacts.
        assert!(!Arc::ptr_eq(
            &engine.meta_pop(false, 0),
            &engine.meta_pop(true, 0)
        ));
    }

    /// Each scenario in `varied` (the baseline with one axis moved) is
    /// worker-invariant, cached under its own entry, and a distinct
    /// artifact from the baseline's.
    fn assert_cached_per_axis_and_worker_invariant(varied: &[Scenario]) {
        let serial = engine(1);
        let parallel = engine(8);
        let engine = engine(2);
        let base = engine.quicreach(BASE);
        for &scenario in varied {
            assert_eq!(
                *serial.quicreach(scenario),
                *parallel.quicreach(scenario),
                "{scenario:?} diverged across worker counts"
            );
            assert!(Arc::ptr_eq(
                &engine.quicreach(scenario),
                &engine.quicreach(scenario)
            ));
            assert!(!Arc::ptr_eq(&base, &engine.quicreach(scenario)));
        }
    }

    #[test]
    fn profiled_artifacts_are_cached_per_profile_and_worker_invariant() {
        assert_cached_per_axis_and_worker_invariant(&[
            BASE.with_profile(NetworkProfile::Lossy),
            BASE.with_profile(NetworkProfile::Tunneled),
        ]);
    }

    #[test]
    fn era_artifacts_are_cached_per_era_and_worker_invariant() {
        assert_cached_per_axis_and_worker_invariant(&[
            BASE.with_era(CertificateEra::Hybrid),
            BASE.with_era(CertificateEra::PostQuantum),
        ]);
        let engine = engine(2);
        assert!(!Arc::ptr_eq(
            &engine.compression_study(CertificateEra::Classical, Algorithm::Brotli, 20),
            &engine.compression_study(CertificateEra::PostQuantum, Algorithm::Brotli, 20)
        ));
    }

    #[test]
    fn chaos_artifacts_are_cached_per_plan_and_worker_invariant() {
        assert_cached_per_axis_and_worker_invariant(&[
            BASE.with_plan(FaultPlan::MODERATE),
            BASE.with_plan(FaultPlan::DUP_STORM),
        ]);
    }

    /// An engine built `with_scenario(steered)` answers its default
    /// requests — and a campaign over it runs its Fig 3 sweep — under the
    /// steered axes, matching a baseline engine's explicit request for the
    /// same scenario.
    fn assert_scenario_steers_default_requests(steered: Scenario) {
        let steered_engine = ScanEngine::streaming(config(), 1362, 2).with_scenario(steered);
        assert_eq!(steered_engine.scenario(), steered);
        let default = steered_engine.quicreach(steered_engine.scenario());
        assert_eq!(*default, *engine(2).quicreach(steered));
        let campaign = crate::Campaign::new(crate::CampaignConfig {
            world: config(),
            scenario: steered,
            workers: 2,
        });
        let fig3 = crate::experiments::handshakes::fig3(&campaign);
        let smallest = engine(2).quicreach(steered.with_initial_size(1200));
        assert_eq!(fig3.bars[0], quicreach::summarize(1200, &smallest));
    }

    #[test]
    fn engine_default_era_steers_era_unaware_requests() {
        assert_scenario_steers_default_requests(BASE.with_era(CertificateEra::PostQuantum));
    }

    #[test]
    fn engine_default_fault_plan_steers_plan_unaware_requests() {
        assert_scenario_steers_default_requests(BASE.with_plan(FaultPlan::LIGHT));
    }

    #[test]
    fn stream_chaos_matches_materialized_and_bypasses_memo() {
        let engine = engine(2);
        let faulted = BASE.with_plan(FaultPlan::MODERATE);
        let streamed = engine.stream_quicreach(faulted);
        let per_record = oracle(engine.world(), faulted);
        assert_eq!(*streamed, QuicReachShard::from_results(1362, &per_record));
        // The faulted probes draw wire randomness, so the streamed fold
        // must never have consulted the scenario-class memo — even though
        // the engine's memo toggle is on and the profile is Ideal.
        let stats = engine.pump_stats().expect("stream scan recorded stats");
        let totals = stats.totals();
        assert_eq!(
            (
                totals.memo_hits,
                totals.memo_misses,
                totals.distinct_classes
            ),
            (0, 0, 0),
            "faulted plans must bypass scenario-class memoization"
        );
        // The recovery-cost counters actually surface the plan's faults.
        assert!(streamed.fault_drops > 0, "moderate plan drops datagrams");
        assert!(
            streamed.retransmissions() > 0,
            "dropped flights force retransmissions"
        );
    }

    #[test]
    fn warm_scan_is_bit_identical_across_worker_counts() {
        let serial = engine(1);
        let reference = serial.warm_scan(serial.scenario());
        for workers in [2, 8] {
            let parallel = engine(workers);
            assert_eq!(
                *reference,
                *parallel.warm_scan(parallel.scenario()),
                "warm scan diverged at {workers} workers"
            );
        }
        // And under a non-default (profile, policy) pair.
        let expired = BASE
            .with_profile(NetworkProfile::Tunneled)
            .with_policy(ResumptionPolicy::TicketExpired);
        assert_eq!(*engine(1).warm_scan(expired), *engine(8).warm_scan(expired));
    }

    #[test]
    fn warm_artifacts_are_cached_per_profile_policy_and_size() {
        let engine = engine(2);
        let warm = BASE.with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        // The engine's default warm scan is the baseline revisited under
        // the default policy.
        assert!(Arc::ptr_eq(
            &engine.warm_scan(engine.scenario()),
            &engine.warm_scan(warm)
        ));
        // Distinct policies and sizes are distinct artifacts; a scenario
        // without a policy revisits cold-only.
        assert!(!Arc::ptr_eq(
            &engine.warm_scan(warm),
            &engine.warm_scan(BASE.with_policy(ResumptionPolicy::ColdOnly))
        ));
        assert!(!Arc::ptr_eq(
            &engine.warm_scan(warm),
            &engine.warm_scan(warm.with_initial_size(1250))
        ));
        assert!(Arc::ptr_eq(
            &engine.warm_scan(BASE),
            &engine.warm_scan(BASE.with_policy(ResumptionPolicy::ColdOnly))
        ));
        // Warm scans never touch the cold quicreach cache: the cold
        // artifact computed afterwards is built fresh and ticket-free.
        let cold = engine.quicreach(BASE);
        assert!(!cold.is_empty());
    }

    #[test]
    fn streaming_summaries_match_the_materialized_artifacts() {
        // Both sides of the engine — summaries and collected artefacts —
        // ride one loop, so each is held to the scanner's own whole-world
        // scan: a serial map over the per-record function, no pump, no
        // memo, no chain-shape flyweight.
        let engine = engine(2);
        let world = engine.world();
        let per_record = quicreach::scan(world, 1362);
        assert_eq!(
            *engine.stream_quicreach(BASE),
            QuicReachShard::from_results(1362, &per_record)
        );
        assert_eq!(*engine.quicreach(BASE), per_record);
        let report = https_scan::scan(world);
        assert_eq!(
            *engine.stream_https_scan(),
            HttpsScanShard::from_report(&report)
        );
        assert_eq!(format!("{:?}", engine.https_scan()), format!("{report:?}"));
        let records = population(world);
        let rows: Vec<_> = records
            .iter()
            .filter(|record| record.has_quic())
            .map(|record| compression::probe_row(world, record))
            .collect();
        assert_eq!(
            *engine.stream_compression_support(),
            CompressionShard::from_probes(&rows)
        );
        assert_eq!(
            format!("{:?}", engine.compression_support()),
            format!("{:?}", compression::scan(world))
        );
        assert_eq!(*engine.qscanner(), qscanner::scan(world).1);
    }

    #[test]
    fn streaming_engine_never_materializes_the_population() {
        // Every family derives its records by rank, a claim at a time, at
        // any claim size, and equals its serial per-record oracle over the
        // population derived as one chunk (the four scanners' own `scan`s
        // are `streaming_summaries_match_the_materialized_artifacts`).
        let engine = ScanEngine::streaming(config(), 1362, 2);
        let world = engine.world();
        let records = population(world);
        let services: Vec<&DomainRecord> = records.iter().filter(|r| r.has_quic()).collect();
        let streamed = engine.stream_quicreach(BASE);
        assert!(streamed.total() > 0);
        for size in [1usize, 64, 4096] {
            let ranges: Vec<_> = (1..=1_200).step_by(size).map(|r| (r, size)).collect();
            let folded =
                engine.fold_ranges(BASE, &ranges, World::domain_chunk_into, |chunk, scratch| {
                    quicreach::fold_chunk(world, chunk, BASE, scratch)
                });
            assert_eq!(QuicReachShard::merge_all(folded), *streamed, "chunk {size}");
        }
        // Never a report whose chains and counters disagree.
        let (funnel, report) = (engine.stream_https_scan(), engine.https_scan());
        assert_eq!(
            (report.total, report.resolved),
            (1_200, funnel.resolved as usize)
        );
        let warm = engine
            .scenario()
            .with_policy(engine.scenario().warm_policy());
        let mut revisited = WarmAggregate::identity();
        for record in &services {
            revisited.push(&quicreach::warm_service(world, record, warm));
        }
        assert_eq!(*engine.warm_scan(engine.scenario()), revisited);
        let studied: Vec<_> = records
            .iter()
            .filter(|r| compression::in_study_sample(r, 10))
            .filter_map(|r| compression::study(world, r, Algorithm::Brotli, BASE.era))
            .collect();
        assert_eq!(
            format!(
                "{:?}",
                engine.compression_study(BASE.era, Algorithm::Brotli, 10)
            ),
            format!("{studied:?}")
        );
        // Table 1's all-three row comes off the same probe rows as its
        // columns: never "0 of 0", and the streamed shard's count.
        let support = engine.compression_support();
        assert_eq!(support.total, services.len());
        assert_eq!(
            support.all_three as u64,
            engine.stream_compression_support().all_three
        );
        let serial = self::engine(1);

        // And the telescope, which a streaming engine once saw empty: the
        // first two services of each hypergiant (every one it has, when
        // fewer), whatever the worker count.
        let sessions = engine.telescope(2);
        for provider in [Provider::Cloudflare, Provider::Google, Provider::Meta] {
            let of_provider =
                |r: &&&DomainRecord| r.quic.as_ref().is_some_and(|q| q.provider == provider);
            let present = services.iter().filter(of_provider);
            let probed = sessions.iter().filter(|s| s.provider == provider);
            assert_eq!(probed.count(), present.count().min(2), "{provider:?}");
        }
        assert!(!sessions.is_empty());
        assert_eq!(
            format!("{sessions:?}"),
            format!("{:?}", serial.telescope(2))
        );
    }

    #[test]
    fn a_million_domain_streaming_engine_serves_fig9_at_paper_scale() {
        // Fig 9 at the paper's population: exactly `per_provider` sessions
        // for each hypergiant, from a walk that stops at the rank holding
        // the last target (the 4k and 20k worlds hold too few Meta PoPs).
        let engine = ScanEngine::streaming(
            WorldConfig {
                domains: 1_000_000,
                ..config()
            },
            1362,
            1,
        );
        let sessions = engine.telescope(10);
        for provider in [Provider::Cloudflare, Provider::Google, Provider::Meta] {
            let probed = sessions.iter().filter(|s| s.provider == provider);
            assert_eq!(probed.count(), 10, "{provider:?}");
        }
        assert_eq!(sessions.len(), 30);
    }

    #[test]
    fn streaming_artifacts_are_cached_summaries() {
        let engine = engine(2);
        assert!(Arc::ptr_eq(
            &engine.stream_quicreach(BASE),
            &engine.stream_quicreach(BASE)
        ));
        assert!(Arc::ptr_eq(
            &engine.stream_https_scan(),
            &engine.stream_https_scan()
        ));
        assert!(Arc::ptr_eq(
            &engine.stream_compression_support(),
            &engine.stream_compression_support()
        ));
        // Distinct axes are distinct summaries; the default request
        // shares the baseline entry.
        assert!(Arc::ptr_eq(
            &engine.stream_quicreach(engine.scenario()),
            &engine.stream_quicreach(BASE)
        ));
        assert!(!Arc::ptr_eq(
            &engine.stream_quicreach(BASE),
            &engine.stream_quicreach(Scenario::at(1250))
        ));
    }

    #[test]
    fn empty_population_streams_to_empty_summaries() {
        let engine = ScanEngine::streaming(
            WorldConfig {
                domains: 0,
                seed: 1,
            },
            1362,
            2,
        );
        let reach = engine.stream_quicreach(BASE);
        assert_eq!(reach.total(), 0);
        assert_eq!(reach.classes.initial_size, 1362);
        assert_eq!(engine.stream_https_scan().total, 0);
    }

    #[test]
    fn metrics_are_a_pure_side_channel_at_any_worker_count() {
        // Bit-identity with metrics on vs off, at 1, 2 and 8 workers: the
        // instrumented pump must fold exactly the summaries the bare pump
        // folds. (The full axes sweep lives in the determinism matrix.)
        let reference = engine(1).with_metrics(false).stream_quicreach(BASE);
        for workers in [1, 2, 8] {
            let on = engine(workers).with_metrics(true);
            let off = engine(workers).with_metrics(false);
            assert_eq!(
                *on.stream_quicreach(BASE),
                *reference,
                "metrics on diverged at {workers} workers"
            );
            assert_eq!(
                *off.stream_quicreach(BASE),
                *reference,
                "metrics off diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn the_pump_stages_sum_to_the_fold_wall_time() {
        // A pass deriving every rank and one deriving only QUIC services:
        // per worker the derive stage is a part of the fold lump, and the
        // flushed stage series add up to the lump's gauge within float
        // rounding (ε = 1e-9 of it).
        let engine = engine(2);
        engine.stream_https_scan();
        engine.stream_quicreach(BASE);
        let stats = engine.pump_stats().expect("a pump ran");
        for worker in &stats.workers {
            assert!(worker.derive_seconds <= worker.fold_seconds, "{worker:?}");
        }
        let registry = engine.metrics_registry();
        let stage = |stage| {
            registry
                .labeled_gauge(STAGE_WALL_SECONDS, &[("stage", stage)], "")
                .get()
        };
        let (derive, fold) = (stage("derive"), stage("fold"));
        let lump = registry
            .gauge("quicert_engine_fold_wall_seconds_total", "")
            .get();
        assert!(
            derive > 0.0 && fold > 0.0,
            "derive {derive} s, fold {fold} s"
        );
        assert!(
            (derive + fold - lump).abs() <= 1e-9 * lump,
            "derive {derive} s + fold {fold} s against {lump} s"
        );
    }

    #[test]
    fn registry_counters_mirror_the_pump_and_cache_activity() {
        let engine = engine(2);
        let first = engine.stream_quicreach(BASE);
        let again = engine.stream_quicreach(BASE);
        assert!(Arc::ptr_eq(&first, &again));

        let registry = engine.metrics_registry();
        let totals = engine.pump_stats().expect("a pump ran").totals();
        let counter = |name: &str| registry.counter(name, "").get();
        assert_eq!(
            counter("quicert_engine_chunks_claimed_total"),
            totals.chunks_claimed
        );
        assert_eq!(
            counter("quicert_engine_records_folded_total"),
            totals.records_folded
        );
        assert_eq!(counter("quicert_engine_memo_hits_total"), totals.memo_hits);
        assert_eq!(
            counter("quicert_engine_memo_misses_total"),
            totals.memo_misses
        );

        // The streaming probe counters carry the scan's era × profile
        // labels and split probed records into fresh vs replayed.
        let labels = [("era", "classical"), ("profile", "ideal")];
        let issued = registry
            .labeled_counter("quicert_scan_probes_issued_total", &labels, "")
            .get();
        let replayed = registry
            .labeled_counter("quicert_scan_probes_replayed_total", &labels, "")
            .get();
        assert_eq!(issued, totals.memo_misses);
        assert_eq!(replayed, totals.memo_hits);

        // One miss then one hit on the stream-quicreach artifact cache.
        let cache = [("family", "stream-quicreach")];
        assert_eq!(
            registry
                .labeled_counter("quicert_engine_cache_misses_total", &cache, "")
                .get(),
            1
        );
        assert_eq!(
            registry
                .labeled_counter("quicert_engine_cache_hits_total", &cache, "")
                .get(),
            1
        );

        // A collecting pass is a pump like any other: the counters now
        // read the sum of both passes, and its scenario's probe counters
        // account for every service it probed, replays included.
        let collected = engine.quicreach(BASE.with_era(CertificateEra::Hybrid));
        let pass = engine.pump_stats().expect("the collect pumped").totals();
        assert_eq!(pass.records_folded, 1_200);
        assert_eq!(
            counter("quicert_engine_chunks_claimed_total"),
            totals.chunks_claimed + pass.chunks_claimed
        );
        assert_eq!(
            counter("quicert_engine_records_folded_total"),
            totals.records_folded + pass.records_folded
        );
        assert_eq!(
            counter("quicert_engine_memo_hits_total"),
            totals.memo_hits + pass.memo_hits
        );
        assert_eq!(
            counter("quicert_engine_memo_misses_total"),
            totals.memo_misses + pass.memo_misses
        );
        let labels = [("era", "hybrid"), ("profile", "ideal")];
        let probes = |name| registry.labeled_counter(name, &labels, "").get();
        assert_eq!(probes("quicert_scan_probes_issued_total"), pass.memo_misses);
        assert_eq!(probes("quicert_scan_probes_replayed_total"), pass.memo_hits);
        assert_eq!(pass.memo_hits + pass.memo_misses, collected.len() as u64);
        assert!(pass.memo_hits > 0, "a collecting pass replays classes");

        // Disabled metrics freeze the pump counters (cache counters still
        // tick — they never threatened determinism in the first place).
        let off = super::tests::engine(2).with_metrics(false);
        off.stream_quicreach(BASE);
        off.quicreach(BASE.with_era(CertificateEra::Hybrid));
        assert_eq!(
            off.metrics_registry()
                .counter("quicert_engine_records_folded_total", "")
                .get(),
            0
        );
    }

    #[test]
    fn a_collected_scenario_leaves_its_stream_request_to_a_pass_of_its_own() {
        // A collecting pass fills its own cache and nothing else: its
        // classes lived for the pass, and the summary of the same scenario
        // is a second pass — bit-for-bit the artefact's summary.
        let engine = engine(2);
        let scenario = BASE.with_era(CertificateEra::PostQuantum);
        let collected = engine.quicreach(scenario);
        assert_eq!(engine.memo_classes(), 0);
        let folded = || {
            let registry = engine.metrics_registry();
            registry
                .counter("quicert_engine_records_folded_total", "")
                .get()
        };
        assert_eq!(folded(), 1_200);
        let summary = engine.stream_quicreach(scenario);
        assert_eq!(folded(), 2 * 1_200);
        assert_eq!(
            *summary,
            QuicReachShard::from_results(scenario.initial_size, &collected)
        );
    }

    #[test]
    fn a_panicking_fold_surfaces_its_own_message_and_the_engine_keeps_answering() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for workers in [1, 2] {
            let engine = ScanEngine::streaming(config(), 1362, workers);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                engine.fold_ranges(
                    BASE,
                    &[(1, 600), (601, 600)],
                    World::domain_chunk_into,
                    |records, _| {
                        if let Some(record) = records.iter().find(|record| record.rank == 700) {
                            panic!("rank {} refuses to fold", record.rank);
                        }
                        records.len()
                    },
                )
            }))
            .expect_err("the fold panics on rank 700");
            // The worker's own message — which record, which assertion —
            // not a generic "worker panicked".
            assert_eq!(
                panicked.downcast_ref::<String>().map(String::as_str),
                Some("rank 700 refuses to fold"),
                "workers={workers}"
            );
            // And the engine is not wedged: the next requests pump, cache
            // and report as if nothing had happened.
            assert_eq!(engine.stream_https_scan().total, 1_200);
            assert!(engine.quicreach(BASE).len() > 100);
            assert!(engine.pump_stats().is_some());
        }
    }

    #[test]
    fn scenario_less_folds_register_no_probe_instruments() {
        // The funnel and the compression scan have no scenario: they ride
        // the same pump with a memo-less, metrics-less scratch, so no probe
        // series is registered on their behalf and no memo traffic counted.
        let engine = engine(2);
        let funnel = engine.stream_https_scan();
        let memo = |engine: &ScanEngine| {
            let totals = engine.pump_stats().expect("a pump ran").totals();
            assert_eq!(totals.records_folded, 1_200);
            (
                totals.memo_hits,
                totals.memo_misses,
                totals.distinct_classes,
            )
        };
        assert_eq!(memo(&engine), (0, 0, 0));
        let support = engine.stream_compression_support();
        assert_eq!(memo(&engine), (0, 0, 0));
        assert!(funnel.quic_services > 0 && support.algorithms[0].total > 0);
        assert_eq!(engine.memo_classes(), 0);

        let rendered = engine.metrics_registry().render_prometheus();
        assert!(rendered.contains("quicert_engine_records_folded_total 2400"));
        for series in ["quicert_scan_probes_", "quicert_handshake_phase_seconds"] {
            assert!(!rendered.contains(series), "{series} registered");
        }
        // A scenario fold on the same engine is what registers them.
        engine.stream_quicreach(BASE);
        let rendered = engine.metrics_registry().render_prometheus();
        assert!(rendered.contains("quicert_scan_probes_issued_total"));
        assert!(rendered.contains("quicert_handshake_phase_seconds"));
    }

    #[test]
    fn fold_ranges_folds_each_range_once_in_input_order_on_the_pump() {
        let world_config = WorldConfig {
            domains: 1_200,
            seed: 0xD37E,
        };
        // Out of rank order on purpose, with a short tail range.
        let ranges = [(901, 300), (1, 400), (401, 500), (1_101, 400)];
        let reference = ScanEngine::streaming(world_config.clone(), 1362, 1);
        let whole = reference.stream_quicreach(BASE);
        for workers in [1, 2, 8] {
            let engine = ScanEngine::streaming(world_config.clone(), 1362, workers);
            let folded = engine.fold_ranges(
                BASE,
                &ranges,
                World::domain_chunk_into,
                |records, scratch| {
                    let first = records.first().map_or(0, |r| r.rank);
                    let shard = quicreach::fold_chunk(engine.world(), records, BASE, scratch);
                    (first, records.len(), shard)
                },
            );
            let spans: Vec<(usize, usize)> = folded.iter().map(|f| (f.0, f.1)).collect();
            assert_eq!(spans, [(901, 300), (1, 400), (401, 500), (1_101, 100)]);
            // Ranks 901..=1200 were folded twice (ranges 0 and 3 overlap);
            // the first three ranges tile the population exactly.
            let tiled = QuicReachShard::merge_all(folded.iter().take(3).map(|f| f.2.clone()));
            assert_eq!(tiled, *whole, "workers={workers}");

            // Same flush as a streamed scan: pump stats, pump counters and
            // the scenario's probe counters all saw exactly these records.
            let totals = engine.pump_stats().expect("fold_ranges pumps").totals();
            assert_eq!(totals.chunks_claimed, 4);
            assert_eq!(totals.records_folded, 1_300);
            let registry = engine.metrics_registry();
            assert_eq!(
                registry
                    .counter("quicert_engine_records_folded_total", "")
                    .get(),
                1_300
            );
            let labels = [("era", "classical"), ("profile", "ideal")];
            let probes = |name| registry.labeled_counter(name, &labels, "").get();
            assert_eq!(
                probes("quicert_scan_probes_issued_total")
                    + probes("quicert_scan_probes_replayed_total"),
                folded.iter().map(|f| f.2.total() as u64).sum::<u64>()
            );

            // The same ranges deriving only their QUIC services: each range
            // receives exactly the QUIC records of its full derivation, the
            // probes see what they saw, and the pump still covers every rank.
            let quic =
                engine.fold_ranges(BASE, &ranges, World::quic_chunk_into, |records, scratch| {
                    let shard = quicreach::fold_chunk(engine.world(), records, BASE, scratch);
                    (records.to_vec(), shard)
                });
            for (&(first, len), (services, _)) in ranges.iter().zip(&quic) {
                let mut full = engine.world().domain_chunk(first, len);
                full.retain(DomainRecord::has_quic);
                assert!(!full.is_empty());
                assert_eq!(*services, full, "range at {first}, workers={workers}");
            }
            assert_eq!(
                QuicReachShard::merge_all(quic.into_iter().map(|q| q.1)),
                QuicReachShard::merge_all(folded.into_iter().map(|f| f.2)),
                "workers={workers}"
            );
            let totals = engine.pump_stats().expect("fold_ranges pumps").totals();
            assert_eq!(totals.records_folded, 1_300);
        }
        // No ranges, no work — and no panic.
        let every_rank = World::domain_chunk_into;
        let none = reference.fold_ranges(BASE, &[], every_rank, |records, _| records.len());
        assert!(none.is_empty());
    }

    /// Pins the frozen compat block: each positional delegate `perfbench/`
    /// calls must equal its scenario form. The only caller of the four.
    #[test]
    fn compat_delegates_equal_their_scenario_forms() {
        let engine = engine(2);
        let world = engine.world();
        let records = population(world);
        let owned = records[..300].to_vec();
        let services: Vec<&DomainRecord> =
            records.iter().filter(|r| r.has_quic()).take(40).collect();
        let cells = [
            (
                CertificateEra::Classical,
                NetworkProfile::Ideal,
                FaultPlan::NONE,
            ),
            (
                CertificateEra::PostQuantum,
                NetworkProfile::Tunneled,
                FaultPlan::NONE,
            ),
            (
                CertificateEra::Hybrid,
                NetworkProfile::Lossy,
                FaultPlan::MODERATE,
            ),
        ];
        for (era, profile, plan) in cells {
            let unfaulted = BASE.with_era(era).with_profile(profile);
            let scenario = unfaulted.with_plan(plan);
            // A fresh scratch per call, so both sides simulate.
            let fresh = ProbeScratch::new;
            assert_eq!(
                quicreach::fold_records_scratch(world, &owned, 1362, profile, era, &mut fresh()),
                quicreach::fold_chunk(world, &owned, unfaulted, &mut fresh()),
                "fold_records_scratch {unfaulted:?}"
            );
            assert_eq!(
                quicreach::fold_records_scratch_chaos(
                    world,
                    &owned,
                    1362,
                    profile,
                    era,
                    plan,
                    &mut fresh()
                ),
                quicreach::fold_chunk(world, &owned, scenario, &mut fresh()),
                "fold_records_scratch_chaos {scenario:?}"
            );
            assert!(
                Arc::ptr_eq(
                    &engine.stream_quicreach_chaos(era, profile, plan, 1362),
                    &engine.stream_quicreach(scenario)
                ),
                "stream_quicreach_chaos {scenario:?}"
            );
            for policy in ResumptionPolicy::ALL {
                let scenario = BASE.with_profile(profile).with_policy(policy);
                let revisit =
                    |record: &&DomainRecord| quicreach::warm_service(world, record, scenario);
                assert_eq!(
                    quicreach::warm_scan_records(world, &services, 1362, profile, policy),
                    services.iter().map(revisit).collect::<Vec<_>>(),
                    "warm_scan_records {profile}/{policy}"
                );
            }
        }
    }
}
