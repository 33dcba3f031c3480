//! The resident campaign service: a long-lived campaign whose population
//! churns along a deterministic timeline, serving point-in-time snapshots
//! through **delta scans**.
//!
//! A batch [`crate::Campaign`] scans one frozen world. The
//! [`CampaignService`] instead holds a `quicert_churn::Timeline`, the live
//! [`ChurnState`] and a cache — one quicreach summary per segment and the
//! population's merged §3.1 funnel — all valid at the tick `s` the cache
//! was last scanned at:
//!
//! * [`CampaignService::advance_to`] steps the churn state, as pure state
//!   transitions, and nothing else. It marks nothing: what churned since
//!   `s` is a question a scan asks the timeline when it runs.
//! * Every snapshot the cache does not hold is served by one fold. For a
//!   tick `t` under the churn state at `t`, it asks the timeline which
//!   **segments** a QUIC service of which churned in the ticks between `t`
//!   and `s`, re-probes **only those** — as explicit rank ranges through
//!   the streaming engine's own pump ([`ScanEngine::fold_ranges`]),
//!   deriving only their QUIC services ([`World::quic_chunk_into`]) — and
//!   merges the fresh reach summaries over the cached ones in segment
//!   order; the funnel is the cached one. Churn reaches a record only
//!   through its QUIC deployment ([`ChurnView::apply_to_records`]), and
//!   the funnel reads nothing of it but the era override: so churn on a
//!   rank without a QUIC deployment leaves its segment clean
//!   ([`World::serves_quic`] tells, with no record built), and only an era
//!   migration moves the funnel. Across one — whose records are only
//!   identifiable after derivation — and before the first scan, every
//!   segment re-folds with every rank derived, keeping its reach summary
//!   and merging its funnel into its worker's share of a new total.
//!   Because every summary merge is exactly associative and commutative
//!   (pinned by the worker/chunk-invariance suite), the result is
//!   **bit-identical to a full rescan** of the churned world at `t` — the
//!   load-bearing invariant, pinned in `determinism_matrix`.
//! * Every fold reads churn through one borrowed [`ChurnView`]. A **delta
//!   tick** ([`CampaignService::snapshot_at`] at or past the clock) is that
//!   fold under the live state's own view, which undoes nothing, after
//!   which its reach summaries replace their cached ones, a re-folded
//!   funnel replaces the cached total, and `s` moves to the clock. A
//!   **read** ([`CampaignService::read`], `&self`) is that fold under the
//!   live state seen at its tick ([`ChurnState::view_at`]: the live
//!   counters, minus an undo list of the ranks churned since the tick); it
//!   copies nothing of the population's counters and installs nothing, so
//!   a read absorbs no churn by construction. Reading `t` at clock `now`
//!   costs `|now − t| + |s − t|` churn ticks plus the segments they touch.
//!   `snapshot_at` keeps the last 16 snapshots served
//!   (`SNAPSHOT_CAPACITY`, evicted in the order they were first served)
//!   and logs every scan; any other past tick it serves through `read`.
//! * [`CampaignService::full_rescan_at`] is the reference every snapshot
//!   is tested against: the state replayed from tick 0
//!   ([`ChurnState::at`]) and the whole population streamed through the
//!   pump's per-worker accumulators (`ScanEngine::fold_population`). No
//!   serving path takes it.
//!
//! Re-folding a segment is neither re-simulating nor re-issuing it. Every
//! fold — tick-0, delta, historical read, full rescan —
//! runs on the one engine, whose scenario-class memo and whose world's
//! chain-shape flyweight live as long as the engine does. A tick replays
//! the handshake classes any earlier fold simulated and simulates at most
//! the records churn actually changed; and a fold across a migration looks
//! each record's chain shape up instead of issuing its certificates
//! (`https_scan::fold_into`), so a tick costs what churn changed — the
//! QUIC services of a re-folded segment, derived and probed or replayed —
//! not what the segment contains. The service needs no invalidation
//! protocol for either table: churn reaches a probe only through
//! `cert_generation`, `chain_id` drift and `era_override`, and an HTTPS
//! chain only through `era_override`, all of which the class keys cover,
//! so a churned record looks up a *different* class and an unchanged one
//! can never read a stale value. Because the service's own full rescan
//! shares both tables, carry-over is held to a flyweight-free reference
//! instead (`determinism_matrix`'s
//! `carried_memo_snapshots_equal_a_memo_free_reference`).
//!
//! Resident memory follows what churned, never the clock: reach summaries
//! are replaced in place and the funnel is one total, snapshots are capped
//! at 16, the tick log keeps a recent window ([`TICK_LOG_WINDOW`]), the
//! [`ChurnState`] is a page table sized once plus a page of counters for
//! every 256 ranks a churned rank falls in, and both flyweight tables are
//! bounded (`quicreach::MEMO_CLASS_CAPACITY`). A fold of every segment
//! holds one reach summary per segment and one funnel per worker, never
//! one per segment: each segment's funnel merges into the folding worker's
//! total as it is folded ([`ScanEngine::fold_ranges`]). A 10,000-tick soak
//! with interleaved historical reads pins all of it, beside guards on the
//! first fold's peak and on the churn state's pages at 20k and 200k
//! domains (`tests/memo_guards.rs`). Nothing resident shadows the
//! timeline: the churn a delta tick logs is re-derived from `events_at`
//! over `(s, now]`.
//!
//! The service holds no execution path and no registry of its own: its
//! `quicert_service_*` counters (ticks applied, records churned,
//! delta-vs-full probe volumes) register on the engine's registry, next to
//! the pump and probe counters its folds update.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use quicert_analysis::Merge;
use quicert_churn::{ChurnConfig, ChurnState, ChurnView, TickDelta, Timeline};
use quicert_obs::{Counter, Gauge, MetricsRegistry};
use quicert_pki::{DomainRecord, World};
use quicert_scanner::https_scan::{self, HttpsScanShard};
use quicert_scanner::quicreach::{self, ProbeScratch, QuicReachShard};
use quicert_scanner::Scenario;

use crate::campaign::CampaignConfig;
use crate::engine::ScanEngine;

/// Configuration of a resident campaign.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The scan parameters (world, Initial size, workers, profile, era,
    /// fault plan) — same knobs as a batch campaign.
    pub campaign: CampaignConfig,
    /// The churn timeline driving the population between ticks.
    pub churn: ChurnConfig,
    /// Ranks per delta-scan segment: the invalidation granularity. One
    /// churned QUIC service re-probes its whole segment's QUIC services, so
    /// smaller segments probe less per tick but cache more reach summaries
    /// (216 B each) and merge more per snapshot.
    pub segment_size: usize,
}

impl ServiceConfig {
    /// Wrap campaign parameters and a churn timeline with the default
    /// segment size (256 ranks).
    pub fn new(campaign: CampaignConfig, churn: ChurnConfig) -> ServiceConfig {
        ServiceConfig {
            campaign,
            churn,
            segment_size: 256,
        }
    }

    /// Override the delta-scan segment size (builder style).
    pub fn with_segment_size(mut self, segment_size: usize) -> ServiceConfig {
        self.segment_size = segment_size.max(1);
        self
    }
}

/// Snapshots a service keeps resident. A tick evicted from the store is
/// re-derived on request, so this trades memory against the cost of
/// re-reading ticks older than the last `SNAPSHOT_CAPACITY` served.
const SNAPSHOT_CAPACITY: usize = 16;

/// One point-in-time view of the churned campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The tick this snapshot measures.
    pub tick: u64,
    /// The quicreach summary of the churned population.
    pub reach: QuicReachShard,
    /// The §3.1 funnel and chain-size summary of the churned population.
    pub funnel: HttpsScanShard,
    /// The global session-ticket-key epoch at this tick.
    pub stek_epoch: u32,
}

/// What one scanned tick cost: churn volume and probe accounting for the
/// delta-vs-full comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// The scanned tick.
    pub tick: u64,
    /// Churn events applied since the previous scanned tick.
    pub events: usize,
    /// Distinct ranks churned since the previous scanned tick.
    pub changed_ranks: usize,
    /// An era migration fired, invalidating every segment.
    pub all_changed: bool,
    /// Segments re-folded by this scan.
    pub dirty_segments: usize,
    /// Total segments in the population.
    pub total_segments: usize,
    /// QUIC services actually re-probed by this scan.
    pub probed: usize,
    /// QUIC services a full rescan would have probed.
    pub full_probe_count: usize,
    /// Served off the live clock — a historical read, which re-folds the
    /// segments churned between its tick and the cache's last scan and
    /// absorbs no churn — rather than as a delta tick.
    pub full_rescan: bool,
}

/// What a serve re-folded, for a delta tick to install over its cache.
struct Refolded {
    /// The fresh reach summaries, by segment in segment order.
    reach: Vec<(usize, QuicReachShard)>,
    /// The merged funnel, when the span re-derived every rank.
    funnel: Option<HttpsScanShard>,
}

/// Scanned ticks [`CampaignService::tick_log`] always retains: the log is
/// trimmed back to this many entries whenever it reaches twice that, so
/// it holds the most recent 1,024–2,047 scans and a run's first 2,047
/// entries are never evicted.
pub const TICK_LOG_WINDOW: usize = 1_024;

/// The service's pre-registered `quicert_obs` instruments.
#[derive(Debug)]
struct ServiceMetrics {
    ticks_applied: Arc<Counter>,
    records_churned: Arc<Counter>,
    delta_probes: Arc<Counter>,
    full_probes: Arc<Counter>,
    delta_scans: Arc<Counter>,
    full_rescans: Arc<Counter>,
    snapshots_resident: Arc<Gauge>,
    tick_stages: StageWall,
    read_stages: StageWall,
}

/// Wall-clock seconds one serving path — `tick` (a delta tick) or `read`
/// (a historical read) — spent per stage: `churn` (on a tick stepping the
/// state in [`CampaignService::advance_to`], on a read building its view),
/// `fold` ([`ScanEngine::fold_ranges`] over the re-folded segments) and
/// `merge` (the snapshot's reach merge and its clone of the funnel).
#[derive(Debug)]
struct StageWall {
    churn: Arc<Gauge>,
    fold: Arc<Gauge>,
    merge: Arc<Gauge>,
}

impl StageWall {
    fn register(registry: &MetricsRegistry, path: &str) -> StageWall {
        let stage = |stage| {
            registry.labeled_gauge(
                "quicert_service_stage_wall_seconds_total",
                &[("stage", stage), ("path", path)],
                "Wall-clock seconds the service spent per stage of a delta tick or a read",
            )
        };
        StageWall {
            churn: stage("churn"),
            fold: stage("fold"),
            merge: stage("merge"),
        }
    }
}

/// Add the wall-clock seconds since `started` to `gauge`.
fn add_since(gauge: &Gauge, started: Instant) {
    gauge.add(started.elapsed().as_secs_f64());
}

impl ServiceMetrics {
    fn register(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            ticks_applied: registry.counter(
                "quicert_service_ticks_applied_total",
                "Churn ticks applied by the campaign service",
            ),
            records_churned: registry.counter(
                "quicert_service_records_churned_total",
                "Distinct ranks named by per-rank churn events",
            ),
            delta_probes: registry.counter(
                "quicert_service_delta_probes_total",
                "QUIC services re-probed by delta scans",
            ),
            full_probes: registry.counter(
                "quicert_service_full_probes_total",
                "QUIC services probed off the live clock (historical reads, full rescans)",
            ),
            delta_scans: registry.counter(
                "quicert_service_delta_scans_total",
                "Snapshots served by the delta-scan path",
            ),
            full_rescans: registry.counter(
                "quicert_service_full_rescans_total",
                "Snapshots folded off the live clock (historical reads, full rescans)",
            ),
            snapshots_resident: registry.gauge(
                "quicert_service_snapshots_resident",
                "Snapshots held in the service's bounded store",
            ),
            tick_stages: StageWall::register(registry, "tick"),
            read_stages: StageWall::register(registry, "read"),
        }
    }
}

/// A resident campaign: streaming engine + churn timeline + per-segment
/// reach cache and one funnel + bounded per-tick snapshot store.
#[derive(Debug)]
pub struct CampaignService {
    config: ServiceConfig,
    /// Holds the (never-materialised) world and executes every fold.
    engine: ScanEngine,
    timeline: Timeline,
    state: ChurnState,
    segment_size: usize,
    /// Cached per-segment quicreach summaries, all valid at `scanned_tick`;
    /// entry `i` covers ranks `[i*segment_size + 1, (i+1)*segment_size]`.
    /// Empty until the first delta scan folds every segment.
    segments: Vec<QuicReachShard>,
    /// The §3.1 funnel of the whole population at `scanned_tick`, merged
    /// when a fold last derived every rank: churn moves it only through an
    /// era migration.
    funnel: HttpsScanShard,
    /// The tick the segment cache was last scanned at.
    scanned_tick: u64,
    /// At most [`SNAPSHOT_CAPACITY`] snapshots, oldest-served first.
    snapshots: VecDeque<Arc<Snapshot>>,
    /// The most recent scans, fewer than `2 * TICK_LOG_WINDOW` of them.
    tick_log: Vec<TickStats>,
    metrics: ServiceMetrics,
}

impl CampaignService {
    /// Build the service. The world is held in streaming form — segments
    /// re-derive their records on demand, so resident memory is one reach
    /// summary per segment and one funnel, never the population.
    pub fn new(config: ServiceConfig) -> CampaignService {
        let segment_size = config.segment_size.max(1);
        let engine = ScanEngine::streaming(
            config.campaign.world.clone(),
            config.campaign.scenario.initial_size,
            config.campaign.workers,
        )
        .with_scenario(config.campaign.scenario.cold());
        let metrics = ServiceMetrics::register(engine.metrics_registry());
        let timeline = Timeline::new(config.churn.clone());
        CampaignService {
            config,
            engine,
            timeline,
            state: ChurnState::initial(),
            segment_size,
            segments: Vec::new(),
            funnel: HttpsScanShard::identity(),
            scanned_tick: 0,
            snapshots: VecDeque::with_capacity(SNAPSHOT_CAPACITY),
            tick_log: Vec::new(),
            metrics,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current tick of the service clock.
    pub fn tick(&self) -> u64 {
        self.state.tick
    }

    /// The churn state at the current tick.
    pub fn state(&self) -> &ChurnState {
        &self.state
    }

    /// The scenario every scan of this service runs under.
    pub fn scenario(&self) -> Scenario {
        self.engine.scenario()
    }

    /// The engine every fold of this service runs on — its world holds the
    /// chain-shape flyweight, it holds the scenario-class memo.
    pub fn engine(&self) -> &ScanEngine {
        &self.engine
    }

    /// The engine's metrics registry: the service's tick, churn and probe
    /// counters beside the pump and handshake instruments of its folds.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.engine.metrics_registry()
    }

    /// Stats of the most recent scanned ticks, in scan order: every scan
    /// of a run up to its 2,047th, the last 1,024 or more thereafter
    /// (`TICK_LOG_WINDOW`) — the log, like everything else resident, is
    /// bounded however long the clock runs.
    pub fn tick_log(&self) -> &[TickStats] {
        &self.tick_log
    }

    /// Advance the service clock to `tick`, stepping the churn state over
    /// every intervening churn tick. Nothing is marked and nothing is
    /// scanned: the next delta tick asks the timeline what churned since
    /// the cache's last scan. Ticks already applied are not re-applied (the
    /// clock is monotonic).
    pub fn advance_to(&mut self, tick: u64) {
        let started = Instant::now();
        while self.state.tick < tick {
            let delta = self.state.advance(&self.timeline);
            self.metrics.ticks_applied.inc();
            self.metrics
                .records_churned
                .add(delta.changed_ranks.len() as u64);
        }
        add_since(&self.metrics.tick_stages.churn, started);
    }

    /// The snapshot at `tick`, computed on first request and kept while it
    /// is among the last 16 (`SNAPSHOT_CAPACITY`) ticks served — the tick just
    /// served is always still resident. Every scan it runs is logged.
    ///
    /// * `tick >= self.tick()`: the clock advances and the snapshot is a
    ///   **delta tick** — the segments churned since the cache's last scan
    ///   (every one before the first and across an era migration) re-fold
    ///   under the live state and replace their cached reach summaries; a
    ///   fold of every segment replaces the cached funnel too.
    /// * `tick < self.tick()` and not resident: a **historical read**
    ///   ([`CampaignService::read`]), which leaves the clock, the churn
    ///   state and the segment cache as they were.
    pub fn snapshot_at(&mut self, tick: u64) -> Arc<Snapshot> {
        if let Some(snapshot) = self.snapshots.iter().find(|s| s.tick == tick) {
            return Arc::clone(snapshot);
        }
        let (snapshot, stats) = if tick < self.state.tick {
            self.read(tick)
        } else {
            self.advance_to(tick);
            let stages = &self.metrics.tick_stages;
            let (snapshot, refolded, stats) = self.serve(tick, &self.state.view(), stages);
            self.segments
                .resize_with(stats.total_segments, QuicReachShard::identity);
            for (segment, reach) in refolded.reach {
                self.segments[segment] = reach;
            }
            if let Some(funnel) = refolded.funnel {
                self.funnel = funnel;
            }
            self.scanned_tick = tick;
            self.metrics.delta_probes.add(stats.probed as u64);
            self.metrics.delta_scans.inc();
            (snapshot, stats)
        };
        if self.tick_log.len() + 1 == 2 * TICK_LOG_WINDOW {
            self.tick_log.drain(..TICK_LOG_WINDOW);
        }
        self.tick_log.push(stats);
        let snapshot = Arc::new(snapshot);
        if self.snapshots.len() == SNAPSHOT_CAPACITY {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(Arc::clone(&snapshot));
        self.metrics
            .snapshots_resident
            .set(self.snapshots.len() as f64);
        snapshot
    }

    /// A from-scratch full rescan of the churned world at `tick` — the
    /// reference every snapshot must match bit-for-bit: the churn state
    /// replayed from tick 0, and the whole population streamed through the
    /// pump's per-worker accumulators (`ScanEngine::fold_population`),
    /// no per-segment summary built. Does not consult or update the segment
    /// cache, and is not logged.
    pub fn full_rescan_at(&self, tick: u64) -> Snapshot {
        let replayed;
        let state = if tick == self.state.tick {
            &self.state
        } else {
            replayed = ChurnState::at(&self.timeline, tick);
            &replayed
        };
        let churn = state.view();
        let fold = self.segment_fold(&churn);
        let (reach_total, funnel_total): (QuicReachShard, HttpsScanShard) = self
            .engine
            .fold_population(World::domain_chunk_into, |records, scratch| {
                let mut funnel = HttpsScanShard::identity();
                (fold(&mut funnel, records, scratch), funnel)
            });
        self.metrics.full_probes.add(reach_total.total() as u64);
        self.metrics.full_rescans.inc();
        let (mut reach, mut funnel) = (QuicReachShard::identity(), HttpsScanShard::seeded());
        reach.merge(&reach_total);
        funnel.merge(&funnel_total);
        Snapshot {
            tick,
            reach,
            funnel,
            stek_epoch: churn.stek_epoch(),
        }
    }

    /// Read the snapshot at `tick <= self.tick()` off the live segment
    /// cache: the live state seen at `tick` through a [`ChurnView`], served
    /// like a delta tick with nothing installed, so a read absorbs no churn
    /// and reads may run concurrently. Its stats are marked `full_rescan`
    /// ("served off the live clock") and carry no churn of their own;
    /// [`CampaignService::snapshot_at`] stores and logs it.
    ///
    /// # Panics
    ///
    /// If `tick` is past the clock.
    pub fn read(&self, tick: u64) -> (Snapshot, TickStats) {
        assert!(tick <= self.tick(), "read of tick {tick} past the clock");
        let stages = &self.metrics.read_stages;
        let started = Instant::now();
        let churn = self.state.view_at(&self.timeline, tick);
        add_since(&stages.churn, started);
        let (snapshot, _, stats) = self.serve(tick, &churn, stages);
        self.metrics.full_probes.add(stats.probed as u64);
        self.metrics.full_rescans.inc();
        let stats = TickStats {
            events: 0,
            changed_ranks: 0,
            all_changed: false,
            full_rescan: true,
            ..stats
        };
        (snapshot, stats)
    }

    /// Serve `tick` under `churn`, the churn state at `tick`: re-fold the
    /// segments churned between `tick` and the cache's last scan and merge
    /// their reach summaries over the cached rest in segment order — exact,
    /// since an untouched segment's ranks carry the same churn at `tick` as
    /// at the scan. Only an era migration moves the funnel, so the span
    /// alone picks the fold: into an empty cache or across a migration,
    /// every rank of every segment, each segment's funnel merged into its
    /// worker's total as it is folded and the workers' totals into a new
    /// one; otherwise the churned segments' QUIC services beside the cached
    /// funnel. Returns the snapshot, what a delta tick installs and the
    /// stats it logs; the fold and the merge time into `stages`.
    fn serve(
        &self,
        tick: u64,
        churn: &ChurnView,
        stages: &StageWall,
    ) -> (Snapshot, Refolded, TickStats) {
        let (churned, span) = self.churned_between(tick, self.scanned_tick);
        let every = self.segments.is_empty() || span.all_changed;
        let refold: Vec<usize> = (0..churned.len())
            .filter(|&segment| every || churned[segment])
            .collect();
        let ranges: Vec<(usize, usize)> = refold
            .iter()
            // The population's last segment may be short; derivation
            // clamps the range to the population.
            .map(|&segment| (segment * self.segment_size + 1, self.segment_size))
            .collect();
        let (world, scenario) = (self.engine.world(), self.scenario());
        let started = Instant::now();
        let (reach, funnel) = if every {
            let every_rank = World::domain_chunk_into;
            let (reach, total) =
                self.engine
                    .fold_ranges(&ranges, every_rank, self.segment_fold(churn));
            let mut funnel = HttpsScanShard::seeded();
            funnel.merge(&total);
            (reach, Some(funnel))
        } else {
            let (reach, ()) =
                self.engine
                    .fold_ranges(&ranges, World::quic_chunk_into, |_, records, scratch| {
                        churn.apply_to_records(records);
                        quicreach::fold_chunk(world, records, scenario, scratch)
                    });
            (reach, None)
        };
        add_since(&stages.fold, started);
        let started = Instant::now();
        let mut merged = QuicReachShard::identity();
        let mut fresh = refold.iter().zip(&reach).peekable();
        for segment in 0..churned.len() {
            merged.merge(match fresh.next_if(|&(&at, _)| at == segment) {
                Some((_, reach)) => reach,
                None => &self.segments[segment],
            });
        }
        let funnel_now = funnel.clone().unwrap_or_else(|| self.funnel.clone());
        add_since(&stages.merge, started);
        let stats = TickStats {
            dirty_segments: refold.len(),
            probed: reach.iter().map(QuicReachShard::total).sum(),
            full_probe_count: merged.total(),
            ..span
        };
        let snapshot = Snapshot {
            tick,
            reach: merged,
            funnel: funnel_now,
            stek_epoch: churn.stek_epoch(),
        };
        let reach = refold.into_iter().zip(reach).collect();
        (snapshot, Refolded { reach, funnel }, stats)
    }

    /// What churned in the ticks between `a` and `b` (`(min, max]`): per
    /// segment, whether a QUIC service of it did — every one across an era
    /// migration, whose records are only identifiable after derivation —
    /// and `a`'s stats with the span's churn, each tick's [`TickDelta`] (as
    /// [`ChurnState::advance`] derives it) summed. A rank without a QUIC
    /// deployment absorbs its churn as a no-op
    /// ([`ChurnView::apply_to_records`]), so it is counted in the stats but
    /// leaves its segment clean.
    fn churned_between(&self, a: u64, b: u64) -> (Vec<bool>, TickStats) {
        let world = self.engine.world();
        let domains = self.config.campaign.world.domains;
        let mut churned = vec![false; domains.div_ceil(self.segment_size)];
        let total_segments = churned.len();
        let mut stats = TickStats {
            tick: a,
            total_segments,
            ..TickStats::default()
        };
        for tick in a.min(b) + 1..=a.max(b) {
            let delta = TickDelta::of(tick, &self.timeline.events_at(tick));
            stats.events += delta.events;
            stats.changed_ranks += delta.changed_ranks.len();
            stats.all_changed |= delta.all_changed;
            for rank in delta.changed_ranks {
                if world.serves_quic(rank) {
                    churned[(rank - 1) / self.segment_size] = true;
                }
            }
        }
        if stats.all_changed {
            churned.fill(true);
        }
        (churned, stats)
    }

    /// The fold every scan of this service that derives every rank hands
    /// the engine's pump: overlay `churn` on the derived records, then run
    /// the same scanner folds a streamed scan runs, returning the chunk's
    /// quicreach summary and merging its §3.1 funnel into `funnel`, the
    /// folding worker's total.
    fn segment_fold<'a>(
        &'a self,
        churn: &'a ChurnView<'a>,
    ) -> impl Fn(&mut HttpsScanShard, &mut [DomainRecord], &mut ProbeScratch) -> QuicReachShard + Sync + 'a
    {
        let (world, scenario) = (self.engine.world(), self.scenario());
        move |funnel, records, scratch| {
            churn.apply_to_records(records);
            let reach = quicreach::fold_chunk(world, records, scenario, scratch);
            https_scan::fold_into(world, records.iter(), funnel);
            reach
        }
    }

    /// Render a point-in-time report of the snapshot at `tick` (advancing
    /// and scanning as needed).
    pub fn report_at(&mut self, tick: u64) -> String {
        let snapshot = self.snapshot_at(tick);
        crate::experiments::churn::render_snapshot(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::world::Provider;
    use quicert_pki::CertificateEra;

    fn service(workers: usize) -> CampaignService {
        sized_service(workers, 600, 64)
    }

    fn sized_service(workers: usize, domains: usize, segment_size: usize) -> CampaignService {
        let campaign = CampaignConfig::small()
            .with_domains(domains)
            .with_seed(0xC4A7)
            .with_workers(workers);
        let churn = ChurnConfig::new(0x7123, domains).with_migration(
            4,
            Provider::Cloudflare,
            CertificateEra::Hybrid,
        );
        CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(segment_size))
    }

    #[test]
    fn tick_zero_snapshot_matches_the_batch_campaign() {
        let mut svc = service(2);
        let snapshot = svc.snapshot_at(0);
        let campaign = crate::Campaign::new(
            CampaignConfig::small()
                .with_domains(600)
                .with_seed(0xC4A7)
                .with_workers(2),
        );
        assert_eq!(
            snapshot.reach,
            campaign.engine().quicreach(campaign.scenario()).shard
        );
        assert_eq!(snapshot.funnel, *campaign.engine().stream_https_scan());
        assert_eq!(snapshot.stek_epoch, 0);
    }

    #[test]
    fn snapshots_are_memoized_per_tick() {
        let mut svc = service(1);
        let a = svc.snapshot_at(2);
        let b = svc.snapshot_at(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(svc.tick_log().len(), 1);
    }

    #[test]
    fn delta_scan_equals_full_rescan_at_each_tick() {
        let mut svc = service(2);
        for tick in [1, 2, 4, 5] {
            let delta = svc.snapshot_at(tick);
            let full = svc.full_rescan_at(tick);
            assert_eq!(*delta, full, "tick {tick}");
        }
    }

    #[test]
    fn delta_scans_probe_fewer_records_on_sparse_ticks() {
        let mut svc = service(2);
        svc.snapshot_at(0);
        svc.snapshot_at(1);
        let stats = svc.tick_log().last().copied().unwrap();
        assert!(!stats.full_rescan);
        assert!(
            stats.probed < stats.full_probe_count,
            "delta probed {} of {}",
            stats.probed,
            stats.full_probe_count
        );
        assert!(
            0 < stats.dirty_segments && stats.dirty_segments < stats.total_segments,
            "a sparse tick dirties a strict, non-empty segment subset ({} of {})",
            stats.dirty_segments,
            stats.total_segments
        );
    }

    #[test]
    fn a_tick_whose_churn_reaches_no_quic_service_refolds_nothing() {
        // One tick in ≈27 at 14 events: every churned rank is HTTPS-only or
        // unresolved by its full derivation. It logs its churn, re-folds
        // and probes nothing, and still equals a full rescan.
        let mut svc = service(2);
        let timeline = Timeline::new(svc.config().churn.clone());
        let world = svc.engine().world();
        let quiet = (5..1_000)
            .find(|&tick| {
                let events = timeline.events_at(tick);
                let mut ranks = events.iter().filter_map(|e| e.rank());
                ranks.all(|rank| !world.domain_chunk(rank, 1)[0].has_quic())
            })
            .expect("a tick with no QUIC service churned");
        svc.snapshot_at(quiet - 1);
        let snapshot = svc.snapshot_at(quiet);
        let stats = svc.tick_log()[1];
        assert!(!stats.full_rescan && stats.tick == quiet);
        assert!(stats.events > 0 && stats.changed_ranks > 0);
        assert_eq!((stats.dirty_segments, stats.probed), (0, 0));
        assert!(stats.full_probe_count > 0);
        assert_eq!(*snapshot, svc.full_rescan_at(quiet), "tick {quiet}");
    }

    #[test]
    fn churn_without_a_migration_never_moves_the_funnel() {
        // What caching the funnel once per era stands on: until the tick-4
        // migration every full rescan folds tick 0's funnel, bit for bit,
        // and so does every delta tick; the migration moves it, to what a
        // full rescan folds.
        let mut svc = service(2);
        let era = svc.snapshot_at(0).funnel.clone();
        for tick in 1..=3 {
            assert_eq!(svc.full_rescan_at(tick).funnel, era, "tick {tick}");
            assert_eq!(svc.snapshot_at(tick).funnel, era, "tick {tick}");
        }
        let migrated = svc.snapshot_at(4);
        assert_ne!(migrated.funnel, era);
        assert_eq!(migrated.funnel, svc.full_rescan_at(4).funnel);
    }

    #[test]
    fn an_overlay_without_a_migration_folds_the_funnel_of_the_derived_records() {
        // The same at record level: tick 3's churn rewrites QUIC fields of
        // the records it reaches, and the funnel folds none of them.
        let svc = service(1);
        let world = svc.engine().world();
        let state = ChurnState::at(&Timeline::new(svc.config().churn.clone()), 3);
        let (derived, overlaid) = (1..=600)
            .step_by(64)
            .map(|first| {
                let derived = world.domain_chunk(first, 64);
                let mut overlaid = derived.clone();
                state.apply_to_records(&mut overlaid);
                (derived, overlaid)
            })
            .find(|(derived, overlaid)| derived != overlaid)
            .expect("tick 3's state reaches a QUIC service");
        assert_eq!(
            https_scan::fold_iter(world, &overlaid),
            https_scan::fold_iter(world, &derived)
        );
    }

    #[test]
    fn era_migration_dirties_every_segment() {
        let mut svc = service(2);
        svc.snapshot_at(3);
        svc.snapshot_at(4); // migration tick
        let stats = svc.tick_log().last().copied().unwrap();
        assert!(stats.all_changed);
        assert_eq!(stats.dirty_segments, stats.total_segments);
    }

    #[test]
    fn historical_snapshots_replay_without_disturbing_the_clock() {
        let mut svc = service(1);
        let live = svc.snapshot_at(3);
        let historical = svc.snapshot_at(1);
        assert_eq!(svc.tick(), 3);
        assert!(historical.tick == 1 && live.tick == 3);
        // Memoized on re-request.
        assert!(Arc::ptr_eq(&historical, &svc.snapshot_at(1)));
        // And identical to a fresh service that never went past tick 1.
        let mut young = service(1);
        assert_eq!(*young.snapshot_at(1), *historical);
    }

    #[test]
    fn snapshot_store_stays_bounded_over_a_long_run_and_evicted_ticks_reread_equal() {
        let mut svc = sized_service(1, 128, 16);
        let resident = svc
            .metrics_registry()
            .gauge("quicert_service_snapshots_resident", "");
        let mut served = Vec::new();
        for tick in 1..=300 {
            served.push(svc.snapshot_at(tick));
            assert!(resident.get() <= SNAPSHOT_CAPACITY as f64, "tick {tick}");
            assert_eq!(resident.get(), svc.snapshots.len() as f64);
        }
        assert_eq!(resident.get(), SNAPSHOT_CAPACITY as f64);
        // The tick just served is resident; an early one was evicted and
        // comes back from a historical read, equal to what was served.
        assert!(Arc::ptr_eq(&served[299], &svc.snapshot_at(300)));
        for tick in [1, 4, 150] {
            let scans = svc.tick_log().len();
            let reread = svc.snapshot_at(tick);
            assert!(
                !Arc::ptr_eq(&served[tick as usize - 1], &reread),
                "tick {tick}"
            );
            assert!(svc.tick_log().len() > scans && svc.tick_log()[scans].full_rescan);
            assert_eq!(*served[tick as usize - 1], *reread, "tick {tick}");
        }
        assert_eq!(resident.get(), SNAPSHOT_CAPACITY as f64);
    }

    #[test]
    fn a_historical_read_leaves_pending_churn_to_the_next_delta_tick() {
        // advance(t+2) → read(t+1) → snapshot(t+2): the two ticks' churn
        // belongs to the delta tick that absorbs it, not to the read that
        // happened to be logged first — with a migration in the window
        // (ticks 3–4) and without (ticks 6–7).
        for (t, migrates) in [(2u64, true), (5, false)] {
            let mut svc = service(1);
            svc.snapshot_at(t);
            let timeline = Timeline::new(svc.config().churn.clone());
            let events: usize = (t + 1..=t + 2).map(|k| timeline.events_at(k).len()).sum();
            svc.advance_to(t + 2);
            svc.snapshot_at(t + 1);
            svc.snapshot_at(t + 2);
            let [.., read, delta] = svc.tick_log() else {
                panic!("two scans were logged");
            };
            assert!(read.full_rescan && read.tick == t + 1);
            assert_eq!((read.events, read.changed_ranks), (0, 0));
            assert!(!read.all_changed);
            // The read re-folded what tick t + 1 churned, and counts every
            // QUIC service of its snapshot as a full rescan would.
            assert!(read.probed <= read.full_probe_count);
            assert!(read.dirty_segments <= read.total_segments);
            assert!(!delta.full_rescan && delta.tick == t + 2);
            assert_eq!(delta.events, events);
            assert!(delta.changed_ranks > 0);
            assert_eq!(delta.all_changed, migrates);
            if migrates {
                assert_eq!(delta.dirty_segments, delta.total_segments);
            }
        }
    }

    #[test]
    fn a_read_at_the_clock_is_its_delta_tick_with_nothing_installed() {
        // Same span (1, 3], same fold, same snapshot; only the delta tick
        // installs its summaries, moves the scan and logs the churn.
        let mut svc = service(1);
        svc.snapshot_at(1);
        svc.advance_to(3);
        let (read, stats) = svc.read(3);
        assert!(stats.full_rescan && stats.tick == 3);
        assert_eq!((stats.events, stats.changed_ranks), (0, 0));
        assert_eq!((svc.scanned_tick, svc.tick_log().len()), (1, 1));
        assert_eq!(read, *svc.snapshot_at(3));
        let delta = svc.tick_log()[1];
        assert!(!delta.full_rescan && delta.events > 0 && svc.scanned_tick == 3);
        assert_eq!(
            (delta.dirty_segments, delta.probed, delta.full_probe_count),
            (stats.dirty_segments, stats.probed, stats.full_probe_count)
        );
    }

    #[test]
    fn the_tick_log_keeps_a_bounded_recent_window() {
        let mut svc = sized_service(1, 32, 16);
        for tick in 0..3 * TICK_LOG_WINDOW as u64 {
            svc.snapshot_at(tick);
            let log = svc.tick_log();
            assert!(log.len() < 2 * TICK_LOG_WINDOW);
            assert_eq!(log.last().map(|t| t.tick), Some(tick));
            // Nothing is evicted until the 2,048th scan, and the most
            // recent 1,024 scans are always there, oldest first.
            let kept = (tick as usize + 1).min(TICK_LOG_WINDOW);
            assert!(log.len() >= kept);
            assert!(log.windows(2).all(|w| w[0].tick + 1 == w[1].tick));
        }
    }

    #[test]
    fn service_probes_and_counters_land_on_the_engine_registry() {
        let mut svc = service(2);
        svc.snapshot_at(0);
        svc.snapshot_at(1);
        let probed: usize = svc.tick_log().iter().map(|t| t.probed).sum();
        assert!(probed > 0);
        // The folds ran on the engine's pump, so the streaming probe
        // counters account for every service the ticks probed…
        let registry = svc.metrics_registry();
        let labels = [("era", "classical"), ("profile", "ideal")];
        let probes = |name| registry.labeled_counter(name, &labels, "").get();
        assert_eq!(
            probes("quicert_scan_probes_issued_total")
                + probes("quicert_scan_probes_replayed_total"),
            probed as u64
        );
        // …and the service's own counters render from the same registry.
        let text = registry.render_prometheus();
        assert!(text.contains("quicert_service_ticks_applied_total 1"));
        assert!(text.contains("quicert_service_delta_scans_total 2"));
        assert!(text.contains(&format!("quicert_service_delta_probes_total {probed}")));
        assert!(text.contains("quicert_engine_records_folded_total"));
    }

    #[test]
    fn ticks_and_reads_time_their_stages_apart() {
        // A delta tick's stages land under `path="tick"` and a read's under
        // `path="read"`; neither path moves the other's series.
        let mut svc = service(1);
        let registry = Arc::clone(svc.metrics_registry());
        let series = |path| {
            ["churn", "fold", "merge"].map(|stage| {
                let labels = [("stage", stage), ("path", path)];
                let name = "quicert_service_stage_wall_seconds_total";
                registry.labeled_gauge(name, &labels, "").get()
            })
        };
        svc.snapshot_at(1);
        svc.snapshot_at(3);
        let ticked = series("tick");
        assert!(ticked.iter().all(|&seconds| seconds > 0.0), "{ticked:?}");
        assert_eq!(series("read"), [0.0; 3]);
        svc.snapshot_at(2);
        let read = series("read");
        assert!(read.iter().all(|&seconds| seconds > 0.0), "{read:?}");
        assert_eq!(series("tick"), ticked);
    }

    #[test]
    fn service_counters_account_scans() {
        let mut svc = service(1);
        svc.snapshot_at(2);
        svc.full_rescan_at(2);
        let text = svc.metrics_registry().render_prometheus();
        assert!(text.contains("quicert_service_ticks_applied_total 2"));
        assert!(text.contains("quicert_service_delta_scans_total 1"));
        assert!(text.contains("quicert_service_full_rescans_total 1"));
    }
}
