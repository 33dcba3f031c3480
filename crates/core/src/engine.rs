//! The [`ScanEngine`]: one uniform, lazily-computed artifact store over one
//! worker-sharded population loop.
//!
//! Every scan artifact the report and the experiment modules consume — the
//! certificate figures' summary of the HTTPS scan, the quicreach summary of
//! *any* scenario and the era join of any cell, the warm-scan and QScanner
//! summaries, the compression support table and synthetic study, telescope
//! backscatter sessions and Meta-PoP ZMap scans — is computed at most once
//! per campaign, by its own pass, and shared behind an [`Arc`]. Each family
//! caches what its readers read: a [`Merge`] summary of exact counts,
//! except the telescope and ZMap scans, whose few sessions are rows.
//! Experiments therefore never recompute a scan behind the report's back:
//! asking twice returns the same allocation.
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
//! caller names, one result per range, in input order, beside one total
//! each worker merges into); every service tick goes through one. The
//! cached families sit on top: each worker folds its claims in place into
//! one summary ([`ScanEngine::certificates`],
//! [`ScanEngine::quicreach`], [`ScanEngine::era_join`],
//! [`ScanEngine::warm_scan`], [`ScanEngine::qscanner`],
//! [`ScanEngine::compression_support`], [`ScanEngine::compression_study`],
//! [`ScanEngine::stream_https_scan`]), and the workers' summaries merge. A
//! family that reads nothing but QUIC services (quicreach, era joins, warm,
//! QScanner, compression support) derives only those
//! ([`World::quic_chunk_into`]); the certificate figures, the funnel and
//! the compression study derive every rank.
//!
//! The results are **bit-for-bit identical at any worker count and any
//! claim size** because every probe draws its randomness from a `SimRng`
//! stream forked off the campaign seed *per record* at world-generation
//! time (`record.seed`), never from a stream shared across records. A
//! claim boundary therefore cannot shift any draw: a worker probing records
//! `[a, b)` produces exactly the rows a serial run produces for them, and
//! the summaries are exactly associative and commutative monoids under
//! [`Merge`], so claiming order cannot shift a bit either. Each scanner
//! module's per-record function, mapped serially over the population and
//! folded — no pump, no memo, no flyweight — is the reference
//! `tests/determinism_matrix.rs` holds every summary to, beside the worker
//! × claim-size × memo grid.

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
use quicert_scanner::compression::{self, CompressionShard, CompressionSupport, StudySummary};
use quicert_scanner::https_scan::{self, CertificateSummary, HttpsScanReport, HttpsScanShard};
use quicert_scanner::qscanner::{self, ConsistencyReport};
use quicert_scanner::quicreach::{
    self, ClassMemo, EraJoin, ProbeScratch, QuicReachShard, QuicReachSummary, WarmAggregate,
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

/// What the pump did on one pass: per-worker counters plus the resolved
/// thread count. `repro` prints it right after
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
    // every worker of every probing pump for as long as the engine lives.
    // A class carries no path latency (one representative per class,
    // rescaled on replay — `quicreach::scan_chunk`), so a million domains
    // are ≈5.5k entries.
    memo: Option<Arc<ClassMemo>>,
    scenario: Scenario,
    certificates: ArtifactCache<(), CertificateSummary>,
    // Scan-family caches key on [`Scenario`] — every axis stores exact
    // integer/enum values, so no float keys anywhere.
    quicreach: ArtifactCache<Scenario, QuicReachSummary>,
    eras: ArtifactCache<Scenario, EraJoin>,
    warm: ArtifactCache<Scenario, WarmAggregate>,
    compression_support: ArtifactCache<(), CompressionSupport>,
    compression_study: ArtifactCache<(CertificateEra, Algorithm, usize), StudySummary>,
    telescope: ArtifactCache<usize, Vec<BackscatterSession>>,
    zmap: ArtifactCache<(bool, u64), Vec<ZmapResult>>,
    qscanner: ArtifactCache<(), ConsistencyReport>,
    stream_https: ArtifactCache<(), HttpsScanShard>,
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
            certificates: ArtifactCache::new(&registry, "certificates"),
            quicreach: ArtifactCache::new(&registry, "quicreach"),
            eras: ArtifactCache::new(&registry, "quicreach-eras"),
            warm: ArtifactCache::new(&registry, "warm"),
            compression_support: ArtifactCache::new(&registry, "compression-support"),
            compression_study: ArtifactCache::new(&registry, "compression-study"),
            telescope: ArtifactCache::new(&registry, "telescope"),
            zmap: ArtifactCache::new(&registry, "zmap"),
            qscanner: ArtifactCache::new(&registry, "qscanner"),
            stream_https: ArtifactCache::new(&registry, "stream-https"),
            last_pump: Mutex::new(None),
            registry,
            metrics,
            metrics_enabled: true,
        }
    }

    /// An engine over a [`World::streaming`] of `config`. Every family
    /// derives its records by rank: the summaries in memory bounded by
    /// their distinct values, the telescope by a rank-order walk that stops
    /// at its last target.
    pub fn streaming(config: WorldConfig, default_initial: usize, workers: usize) -> ScanEngine {
        ScanEngine::new(World::streaming(config), default_initial, workers)
    }

    /// Enable or disable scenario-class memoization on every probing pass
    /// (on by default). Memoized and unmemoized runs fold bit-for-bit
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

    /// Enable or disable pump and probe instrumentation (on by default).
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

    /// The §3.1 HTTPS certificate scan folded into the
    /// [`CertificateSummary`] the certificate figures render: every rank
    /// derived, each TLS-reachable domain's chain issued
    /// ([`https_scan::observe`]) and pushed into its worker's summary. Its
    /// funnel is bit for bit [`ScanEngine::stream_https_scan`], which reads
    /// the chain shapes off the world's flyweight instead.
    pub fn certificates(&self) -> Arc<CertificateSummary> {
        self.certificates.get_or_compute((), || {
            let fold =
                |summary: &mut CertificateSummary, records: &mut [DomainRecord], _: &mut _| {
                    summary.merge(&https_scan::certificates(&self.world, &*records))
                };
            self.pump(false, World::domain_chunk_into, fold)
        })
    }

    /// The quicreach scan of every QUIC service under one [`Scenario`],
    /// folded into the [`QuicReachSummary`] its readers render — one cached
    /// summary per scenario (the resumption policy aside: cold scans never
    /// read it), so a grid revisiting a cell is free. Each worker folds its
    /// claims, deriving only their QUIC services, straight into its own
    /// summary through the one probe loop ([`quicreach::scan_chunk`], the
    /// engine's memo replaying classes), and the workers' summaries merge:
    /// bit-for-bit [`QuicReachSummary::from_results`] over
    /// [`quicreach::scan_service`] rows, at any worker count and claim
    /// size. A scenario that consumes per-probe wire randomness (a faulted
    /// plan, a lossy profile) bypasses the memo regardless of the engine's
    /// toggle; the summary is the same bits either way.
    pub fn quicreach(&self, scenario: Scenario) -> Arc<QuicReachSummary> {
        let scenario = scenario.cold();
        self.quicreach.get_or_compute(scenario, || {
            let fold = |summary: &mut QuicReachSummary, records: &mut _, scratch: &mut _| {
                summary.fold(&self.world, records, scenario, scratch)
            };
            let mut summary = self.pump(true, World::quic_chunk_into, fold);
            // An all-identity merge (empty population) never saw the
            // scan's Initial size; stamp it so the bar is labelled.
            summary.shard.classes.initial_size = scenario.initial_size;
            summary
        })
    }

    /// One `(profile, plan, Initial)` cell of `cell` probed in every
    /// [`CertificateEra`] by one pass ([`EraJoin::fold`]): each service
    /// under classical, hybrid and post-quantum, each era's summary equal
    /// to [`ScanEngine::quicreach`] of that era, plus each era's tally
    /// against classical, service for service. `cell`'s own era is
    /// ignored: one cached join per cell.
    pub fn era_join(&self, cell: Scenario) -> Arc<EraJoin> {
        let cell = cell.cold().with_era(CertificateEra::Classical);
        self.eras.get_or_compute(cell, || {
            let fold = |join: &mut EraJoin, records: &mut _, scratch: &mut _| {
                join.fold(&self.world, records, cell, scratch)
            };
            let mut join = self.pump(true, World::quic_chunk_into, fold);
            for summary in &mut join.summaries {
                summary.shard.classes.initial_size = cell.initial_size;
            }
            join
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
            let world = &self.world;
            let revisit = |agg: &mut WarmAggregate, records: &mut [_], scratch: &mut _| {
                for record in records.iter() {
                    agg.push(&quicreach::warm_service(world, record, scenario, scratch));
                }
            };
            self.pump(false, World::quic_chunk_into, revisit)
        })
    }

    /// Table 1's measured half — per-algorithm support, byte totals and
    /// achieved ratios plus the all-three count — folded from one
    /// [`compression::probe_row`] per QUIC service into its worker's
    /// [`CompressionSupport`].
    pub fn compression_support(&self) -> Arc<CompressionSupport> {
        self.compression_support.get_or_compute((), || {
            let probe =
                |support: &mut CompressionSupport, records: &mut [DomainRecord], _: &mut _| {
                    for row in records
                        .iter()
                        .filter_map(|r| compression::probe_row(&self.world, r))
                    {
                        support.push(&row);
                    }
                };
            self.pump(false, World::quic_chunk_into, probe)
        })
    }

    /// The §4.2 synthetic compression study for one (era, algorithm,
    /// stride) — one cached [`StudySummary`] per triple, each sampled chain
    /// compressed ([`compression::study`]) as the pump passes it. Across
    /// eras this is how the report measures the Fig-9-style dictionary
    /// degrading on PQC chains.
    pub fn compression_study(
        &self,
        era: CertificateEra,
        algorithm: Algorithm,
        stride: usize,
    ) -> Arc<StudySummary> {
        self.compression_study
            .get_or_compute((era, algorithm, stride), || {
                let study =
                    |summary: &mut StudySummary, records: &mut [DomainRecord], _: &mut _| {
                        let sampled = records
                            .iter()
                            .filter(|r| compression::in_study_sample(r, stride));
                        for chain in sampled
                            .filter_map(|r| compression::study(&self.world, r, algorithm, era))
                        {
                            summary.push(&chain);
                        }
                    };
                self.pump(false, World::domain_chunk_into, study)
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
            let fetch =
                |report: &mut ConsistencyReport, records: &mut [DomainRecord], _: &mut _| {
                    for obs in records
                        .iter()
                        .filter_map(|r| qscanner::fetch(&self.world, r))
                    {
                        report.push(&obs);
                    }
                };
            self.pump(false, World::quic_chunk_into, fetch)
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
    /// A pass that `probes` hands its workers a scratch on the engine's
    /// memo which, while metrics are enabled, reports every scan under its
    /// own era × profile labels; the other families get a memo-less,
    /// metrics-less scratch, whose buffers only the warm scan's revisits
    /// use, so nothing is registered or counted on their behalf. Returns
    /// the per-worker accumulators in spawn order after flushing the run's
    /// [`PumpStats`]; a worker's panic resumes on the caller with its own
    /// message. A worker counts the ranks its claims cover, however few
    /// records `derive` built from them.
    fn run_pump<A, MA, F>(
        &self,
        claims: Claims<'_>,
        probes: bool,
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
        let memo = self.memo.as_ref().filter(|_| probes);
        let cursor = AtomicUsize::new(0);
        let worker = || -> (A, WorkerPumpStats) {
            let mut acc = make_acc();
            let mut scratch = ProbeScratch::sharing(memo.cloned());
            if probes && self.metrics_enabled {
                scratch.report_to(Arc::clone(&self.registry));
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

    /// One pass of the whole population, each worker folding its claims in
    /// place into one accumulator of its own, the accumulators merged once
    /// the pump is done: however large the population, one summary per
    /// worker (plus the chunk in flight) is all that is ever live. Exact
    /// at any worker count and claim size because every summary is an
    /// exactly associative and commutative [`Merge`] monoid. Claims start
    /// at an eighth of the population per worker, clamped to
    /// [[`MIN_ADAPTIVE_CHUNK`], [`MAX_ADAPTIVE_CHUNK`]], and taper near the
    /// tail.
    fn pump<S, F>(&self, probes: bool, derive: Derive, fold: F) -> S
    where
        S: Merge + Send,
        F: Fn(&mut S, &mut [DomainRecord], &mut ProbeScratch) + Sync,
    {
        S::merge_all(self.run_pump(
            Claims::Population(self.world.config.domains),
            probes,
            derive,
            S::identity,
            |acc: &mut S, _, records, scratch| fold(acc, records, scratch),
        ))
    }

    /// Fold the whole population through the pump — the claiming of
    /// [`ScanEngine::quicreach`], the per-worker scratch of
    /// [`ScanEngine::fold_ranges`] — into one merged summary, each claim
    /// derived by `derive`. Each claimed chunk is handed to `fold` mutably,
    /// so a resident caller can overlay churn before scanning; its result
    /// merges into its worker's accumulator at once. Nothing is cached;
    /// simulated classes stay in the engine's memo.
    pub(crate) fn fold_population<S, F>(&self, derive: Derive, fold: F) -> S
    where
        S: Merge + Send,
        F: Fn(&mut [DomainRecord], &mut ProbeScratch) -> S + Sync,
    {
        self.pump(true, derive, |acc: &mut S, records, scratch| {
            acc.merge(&fold(records, scratch))
        })
    }

    /// Fold an explicit list of `(first_rank, len)` rank ranges through the
    /// pump's worker loop — same thread cap, same per-worker scratch (the
    /// engine's memo and registry), same [`PumpStats`] flush as
    /// [`ScanEngine::quicreach`] — and return one `fold` result per range,
    /// in input order whichever worker folded which range when, beside the
    /// merge of every worker's `S`. Each range is derived as one chunk by
    /// `derive` — [`World::domain_chunk_into`] (every rank) or
    /// [`World::quic_chunk_into`] (its QUIC services only) — and handed to
    /// `fold` mutably, so a resident caller can overlay churn before
    /// scanning, together with the claiming worker's own `S`: what a fold
    /// needs only as a total (a resident service's funnel) it merges there
    /// as the range is folded, so one `S` per worker is live, never one per
    /// range. A caller with nothing to total passes `()`. No result is
    /// cached, but the classes simulated stay in the engine's memo for later
    /// calls to replay; an overlay only reaches a probe through key fields,
    /// so none go stale.
    pub fn fold_ranges<R, S, F>(
        &self,
        ranges: &[(usize, usize)],
        derive: Derive,
        fold: F,
    ) -> (Vec<R>, S)
    where
        R: Send,
        S: Merge + Send,
        F: Fn(&mut S, &mut [DomainRecord], &mut ProbeScratch) -> R + Sync,
    {
        // Each result is tagged with its range's index ([`Claims::next`])
        // and sorted back into input order once the pump is done.
        let per_worker = self.run_pump(
            Claims::Ranges(ranges),
            true,
            derive,
            || (Vec::new(), S::identity()),
            |(results, total): &mut (Vec<(usize, R)>, S), index, records, scratch| {
                results.push((index, fold(total, records, scratch)))
            },
        );
        let (mut tagged, mut total) = (Vec::with_capacity(ranges.len()), S::identity());
        for (results, worker_total) in per_worker {
            tagged.extend(results);
            total.merge(&worker_total);
        }
        tagged.sort_unstable_by_key(|&(index, _)| index);
        (
            tagged.into_iter().map(|(_, result)| result).collect(),
            total,
        )
    }

    // ----------------------------------------------- frozen compat block --
    //
    // `perfbench/` is frozen and calls these signatures (plus three in
    // `quicert_scanner::quicreach`). Each delegates to the family that
    // replaced it, so a new axis never touches them; nothing else in the
    // workspace may call them — use [`ScanEngine::quicreach`],
    // [`ScanEngine::certificates`] and [`ScanEngine::compression_support`].

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
        Arc::new(self.quicreach(scenario).shard.clone())
    }

    /// The serial per-record HTTPS scan, [`https_scan::scan`], uncached.
    #[doc(hidden)]
    pub fn https_scan(&self) -> Arc<HttpsScanReport> {
        Arc::new(https_scan::scan(&self.world))
    }

    /// Table 1's counts and byte totals: [`ScanEngine::compression_support`]'s
    /// shard.
    #[doc(hidden)]
    pub fn stream_compression_support(&self) -> Arc<CompressionShard> {
        Arc::new(self.compression_support().shard.clone())
    }

    // ------------------------------------------- end frozen compat block --

    /// The streaming §3.1 HTTPS scan: funnel counters and chain-size
    /// sketches folded over the population in bounded memory. It is bit
    /// for bit the funnel of [`ScanEngine::certificates`] — which issues
    /// every chain, where this fold looks each record's chain shape up in
    /// the world's flyweight ([`World::https_chain_shape`]) and issues one
    /// chain per class.
    pub fn stream_https_scan(&self) -> Arc<HttpsScanShard> {
        self.stream_https.get_or_compute((), || {
            let fold = |shard: &mut HttpsScanShard, records: &mut [DomainRecord], _: &mut _| {
                https_scan::fold_into(&self.world, &*records, shard)
            };
            self.pump(false, World::domain_chunk_into, fold)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::{Provider, WorldConfig};
    use quicert_quic::HandshakeScratch;
    use quicert_scanner::quicreach::QuicReachResult;

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
        let fresh = HandshakeScratch::default;
        let probe = |record| quicreach::scan_service(world, record, scenario, &mut fresh());
        let records = population(world);
        records.iter().filter(|r| r.has_quic()).map(probe).collect()
    }

    #[test]
    fn per_domain_scans_are_bit_identical_across_worker_counts() {
        let serial = engine(1);
        let parallel = engine(8);
        assert_eq!(
            *serial.quicreach(Scenario::at(1242)),
            *parallel.quicreach(Scenario::at(1242))
        );

        assert_eq!(*serial.certificates(), *parallel.certificates());
        let (sa, sb) = (serial.compression_support(), parallel.compression_support());
        assert_eq!(*sa, *sb);
        for algorithm in Algorithm::ALL {
            let (x, y) = (sa.mean_ratio(algorithm), sb.mean_ratio(algorithm));
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            *serial.compression_study(BASE.era, Algorithm::Brotli, 10),
            *parallel.compression_study(BASE.era, Algorithm::Brotli, 10)
        );
    }

    #[test]
    fn artifacts_are_shared_allocations() {
        let engine = engine(2);
        assert!(Arc::ptr_eq(&engine.certificates(), &engine.certificates()));
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
        // One era join per cell, whatever era the request names.
        assert!(Arc::ptr_eq(
            &engine.era_join(BASE),
            &engine.era_join(BASE.with_era(CertificateEra::Hybrid))
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
        let bars = crate::experiments::handshakes::sweep_bars(&campaign);
        let smallest = engine(2).quicreach(steered.with_initial_size(1200));
        assert_eq!(bars[0], smallest.shard.classes);
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
        let streamed = engine.quicreach(faulted);
        let per_record = oracle(engine.world(), faulted);
        let want = QuicReachSummary::from_results(1362, 1_200, &per_record);
        assert_eq!(*streamed, want);
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
        assert!(
            streamed.shard.fault_drops > 0,
            "moderate plan drops datagrams"
        );
        assert!(
            streamed.shard.retransmissions() > 0,
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
        assert!(cold.shard.total() > 0);
    }

    #[test]
    fn the_certificate_funnel_is_the_flyweight_funnel() {
        // The figures' fold issues every chain; the funnel's own fold reads
        // chain shapes off the world's flyweight. Their funnels are the
        // same bits at any worker count.
        for workers in [1, 2, 8] {
            let engine = engine(workers);
            let summary = engine.certificates();
            assert!(summary.funnel.tls_reachable > 0);
            assert_eq!(
                summary.funnel,
                *engine.stream_https_scan(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn streaming_summaries_match_the_materialized_artifacts() {
        // Every summary rides one loop, so each is held to the scanner's
        // own whole-world scan: a serial map over the per-record function,
        // no pump, no memo, no chain-shape flyweight.
        let engine = engine(2);
        let world = engine.world();
        let per_record = quicreach::scan(world, 1362);
        let summary = engine.quicreach(BASE);
        assert_eq!(
            summary.shard,
            QuicReachShard::from_results(1362, &per_record)
        );
        assert_eq!(
            *summary,
            QuicReachSummary::from_results(1362, 1_200, &per_record)
        );
        let records = population(world);
        let rows: Vec<_> = records
            .iter()
            .filter(|record| record.has_quic())
            .filter_map(|record| compression::probe_row(world, record))
            .collect();
        let support = engine.compression_support();
        assert_eq!(support.shard, CompressionShard::from_probes(&rows));
        assert_eq!(*support, compression::scan(world));
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
        let streamed = engine.quicreach(BASE);
        assert!(streamed.shard.total() > 0);
        for size in [1usize, 64, 4096] {
            let ranges: Vec<_> = (1..=1_200).step_by(size).map(|r| (r, size)).collect();
            let (folded, ()) =
                engine.fold_ranges(&ranges, World::domain_chunk_into, |_, chunk, scratch| {
                    quicreach::fold_chunk(world, chunk, BASE, scratch)
                });
            let merged = QuicReachShard::merge_all(folded);
            assert_eq!(merged, streamed.shard, "chunk {size}");
        }
        let certificates = engine.certificates();
        let mut observed = CertificateSummary::seeded();
        for record in &records {
            let observation = https_scan::observe(world, record);
            observed.push(
                record,
                observation.as_ref(),
                quicreach::rank_group_width(1_200),
            );
        }
        assert_eq!(*certificates, observed);
        assert_eq!(certificates.funnel.total, 1_200);
        let warm = engine
            .scenario()
            .with_policy(engine.scenario().warm_policy());
        let mut revisited = WarmAggregate::identity();
        let mut scratch = ProbeScratch::with_memo(false);
        for record in &services {
            revisited.push(&quicreach::warm_service(world, record, warm, &mut scratch));
        }
        assert_eq!(*engine.warm_scan(engine.scenario()), revisited);
        let mut studied = StudySummary::identity();
        let sampled = records
            .iter()
            .filter(|r| compression::in_study_sample(r, 10));
        for chain in
            sampled.filter_map(|r| compression::study(world, r, Algorithm::Brotli, BASE.era))
        {
            studied.push(&chain);
        }
        assert_eq!(
            *engine.compression_study(BASE.era, Algorithm::Brotli, 10),
            studied
        );
        // Table 1's all-three row comes off the same probe rows as its
        // columns: never "0 of 0", and every service offering all three.
        let support = engine.compression_support();
        assert_eq!(support.total(), services.len() as u64);
        let offers = |r: &&&DomainRecord| {
            let offered = &r.quic.as_ref().expect("a QUIC service").compression_support;
            Algorithm::ALL.iter().all(|a| offered.contains(a))
        };
        let all_three = services.iter().filter(offers).count();
        assert_eq!(support.shard.all_three, all_three as u64);
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
            &engine.quicreach(BASE),
            &engine.quicreach(BASE)
        ));
        assert!(Arc::ptr_eq(
            &engine.stream_https_scan(),
            &engine.stream_https_scan()
        ));
        assert!(Arc::ptr_eq(
            &engine.compression_support(),
            &engine.compression_support()
        ));
        // Distinct axes are distinct summaries; the default request
        // shares the baseline entry.
        assert!(Arc::ptr_eq(
            &engine.quicreach(engine.scenario()),
            &engine.quicreach(BASE)
        ));
        assert!(!Arc::ptr_eq(
            &engine.quicreach(BASE),
            &engine.quicreach(Scenario::at(1250))
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
        let reach = engine.quicreach(BASE);
        assert_eq!(reach.shard.total(), 0);
        assert_eq!(reach.shard.classes.initial_size, 1362);
        let join = engine.era_join(BASE);
        for era in CertificateEra::ALL {
            assert_eq!(*join.era(era).0, *reach, "{era}");
        }
        assert_eq!(engine.stream_https_scan().total, 0);
    }

    #[test]
    fn metrics_are_a_pure_side_channel_at_any_worker_count() {
        // Bit-identity with metrics on vs off, at 1, 2 and 8 workers: the
        // instrumented pump must fold exactly the summaries the bare pump
        // folds. (The full axes sweep lives in the determinism matrix.)
        let reference = engine(1).with_metrics(false).quicreach(BASE);
        for workers in [1, 2, 8] {
            let on = engine(workers).with_metrics(true);
            let off = engine(workers).with_metrics(false);
            assert_eq!(
                *on.quicreach(BASE),
                *reference,
                "metrics on diverged at {workers} workers"
            );
            assert_eq!(
                *off.quicreach(BASE),
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
        engine.quicreach(BASE);
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
        let first = engine.quicreach(BASE);
        let again = engine.quicreach(BASE);
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

        // One miss then one hit on the quicreach artifact cache.
        let cache = [("family", "quicreach")];
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

        // A second scenario's pass: the counters now read the sum of both
        // passes, and its scenario's probe counters account for every
        // service it probed, replays included.
        let hybrid = engine.quicreach(BASE.with_era(CertificateEra::Hybrid));
        let pass = engine.pump_stats().expect("the scan pumped").totals();
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
        assert_eq!(
            pass.memo_hits + pass.memo_misses,
            hybrid.shard.total() as u64
        );
        assert!(pass.memo_hits > 0, "a pass replays classes");

        // Disabled metrics freeze the pump counters (cache counters still
        // tick — they never threatened determinism in the first place).
        let off = super::tests::engine(2).with_metrics(false);
        off.quicreach(BASE);
        off.quicreach(BASE.with_era(CertificateEra::Hybrid));
        assert_eq!(
            off.metrics_registry()
                .counter("quicert_engine_records_folded_total", "")
                .get(),
            0
        );
    }

    #[test]
    fn an_era_join_is_one_pass_whose_summaries_are_the_per_era_scans() {
        // Each service is probed once per era, all in one pass: on the
        // lossy profile (which simulates every probe) the issued counters
        // of each era read the QUIC services exactly, and each era's
        // summary is the same bits as that era's own quicreach pass on a
        // fresh engine.
        let engine = engine(2);
        let cell = BASE.with_profile(NetworkProfile::Lossy);
        let join = engine.era_join(cell);
        let registry = engine.metrics_registry();
        let folded = registry.counter("quicert_engine_records_folded_total", "");
        assert_eq!(folded.get(), 1_200, "one pass");
        let services = oracle(engine.world(), cell).len() as u64;
        for era in CertificateEra::ALL {
            let labels = [("era", era.name()), ("profile", "lossy")];
            let issued = registry.labeled_counter("quicert_scan_probes_issued_total", &labels, "");
            assert_eq!(issued.get(), services, "{era}");
            let own = self::engine(2).quicreach(cell.with_era(era));
            assert_eq!(*join.era(era).0, *own, "{era}");
        }
        // The cell's era is no part of its key.
        let post_quantum = cell.with_era(CertificateEra::PostQuantum);
        assert!(Arc::ptr_eq(&join, &engine.era_join(post_quantum)));
        assert_eq!(folded.get(), 1_200);
    }

    #[test]
    fn a_panicking_fold_surfaces_its_own_message_and_the_engine_keeps_answering() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for workers in [1, 2] {
            let engine = ScanEngine::streaming(config(), 1362, workers);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                engine.fold_ranges(
                    &[(1, 600), (601, 600)],
                    World::domain_chunk_into,
                    |_: &mut (), records, _| {
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
            assert!(engine.quicreach(BASE).shard.total() > 100);
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
        let support = engine.compression_support();
        assert_eq!(memo(&engine), (0, 0, 0));
        assert!(funnel.quic_services > 0 && support.total() > 0);
        assert_eq!(engine.memo_classes(), 0);

        let rendered = engine.metrics_registry().render_prometheus();
        assert!(rendered.contains("quicert_engine_records_folded_total 2400"));
        for series in ["quicert_scan_probes_", "quicert_handshake_phase_seconds"] {
            assert!(!rendered.contains(series), "{series} registered");
        }
        // A scenario fold on the same engine is what registers them.
        engine.quicreach(BASE);
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
        let whole = reference.quicreach(BASE);
        for workers in [1, 2, 8] {
            let engine = ScanEngine::streaming(world_config.clone(), 1362, workers);
            // Each worker also merges every shard it folds into its own
            // total, and the totals merge: the folded ranges, summed.
            let (folded, total) = engine.fold_ranges(
                &ranges,
                World::domain_chunk_into,
                |total: &mut QuicReachShard, records, scratch| {
                    let first = records.first().map_or(0, |r| r.rank);
                    let shard = quicreach::fold_chunk(engine.world(), records, BASE, scratch);
                    total.merge(&shard);
                    (first, records.len(), shard)
                },
            );
            let spans: Vec<(usize, usize)> = folded.iter().map(|f| (f.0, f.1)).collect();
            assert_eq!(spans, [(901, 300), (1, 400), (401, 500), (1_101, 100)]);
            // Ranks 901..=1200 were folded twice (ranges 0 and 3 overlap);
            // the first three ranges tile the population exactly.
            let tiled = QuicReachShard::merge_all(folded.iter().take(3).map(|f| f.2.clone()));
            assert_eq!(tiled, whole.shard, "workers={workers}");
            let summed = QuicReachShard::merge_all(folded.iter().map(|f| f.2.clone()));
            assert_eq!(total, summed, "workers={workers}");

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
            let (quic, ()) =
                engine.fold_ranges(&ranges, World::quic_chunk_into, |_, records, scratch| {
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
        let (none, ()) = reference.fold_ranges(&[], every_rank, |_, records, _| records.len());
        assert!(none.is_empty());
    }

    /// Pins the frozen compat block: each delegate `perfbench/` calls must
    /// equal the form that replaced it. The only caller of the six.
    #[test]
    fn compat_delegates_equal_their_scenario_forms() {
        let engine = engine(2);
        let world = engine.world();
        let report = engine.https_scan();
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", https_scan::scan(world))
        );
        assert_eq!(
            HttpsScanShard::from_report(&report),
            engine.certificates().funnel
        );
        assert_eq!(
            *engine.stream_compression_support(),
            engine.compression_support().shard
        );
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
            assert_eq!(
                *engine.stream_quicreach_chaos(era, profile, plan, 1362),
                engine.quicreach(scenario).shard,
                "stream_quicreach_chaos {scenario:?}"
            );
            for policy in ResumptionPolicy::ALL {
                let scenario = BASE.with_profile(profile).with_policy(policy);
                let revisit = |record: &&DomainRecord| {
                    let fresh = &mut ProbeScratch::with_memo(false);
                    quicreach::warm_service(world, record, scenario, fresh)
                };
                assert_eq!(
                    quicreach::warm_scan_records(world, &services, 1362, profile, policy),
                    services.iter().map(revisit).collect::<Vec<_>>(),
                    "warm_scan_records {profile}/{policy}"
                );
            }
        }
    }
}
