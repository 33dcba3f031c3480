//! # quicert-churn — deterministic ecosystem churn timeline
//!
//! The paper measures a *living* ecosystem: certificates rotate and get
//! revoked, CA dictionaries drift, session-ticket keys roll over and whole
//! providers migrate their PKI. This crate models that churn as a
//! **tick-indexed timeline of pure state transitions** over the generated
//! `quicert_pki::World`:
//!
//! * [`Timeline::events_at`] derives the events of any tick directly from
//!   `(seed, tick)` — no history needed, so any point in the campaign's
//!   life is reproducible from the configuration alone.
//! * [`ChurnState`] folds events into per-rank certificate generations,
//!   CA-dictionary drift counts, per-provider era overrides and a global
//!   STEK epoch. All per-event updates are commutative (additive counts
//!   and single-assignment-per-tick overrides), so applying one tick's
//!   events in any order yields the same state — pinned by a proptest.
//!   The per-rank counters live in pages of 256 ranks, each placed in one
//!   counter arena when a rank in it first churns, so a state's memory
//!   follows the ranks churned so far and never exceeds the dense form
//!   (8 bytes a domain) plus its page table of 4-byte offsets.
//! * [`ChurnView`] reads a past tick through a later state: the live
//!   counters borrowed, minus an undo list of the ranks churned in the
//!   ticks between ([`ChurnState::view_at`]). A past tick costs those
//!   ticks' events, not a copy of the population's counters.
//! * [`ChurnView::apply_to_records`] overlays a state onto derived
//!   [`DomainRecord`]s. The overlay only touches the churn fields of
//!   `QuicDeployment` (`cert_generation`, `chain_id`, `era_override`), so
//!   an empty state reproduces the pre-churn world byte-for-byte.
//!
//! The campaign service in `quicert_core` drives this timeline and runs
//! *delta scans*: only the QUIC services among the ranks named by
//! [`TickDelta::changed_ranks`] (plus every record of a migrated provider)
//! can fold differently, so
//! re-probing just those segments and merging with cached summaries is
//! bit-identical to a full rescan.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use quicert_netsim::SimRng;
use quicert_pki::world::Provider;
use quicert_pki::{CertificateEra, ChainId, DomainRecord};

/// One scheduled provider era migration: from `tick` onward, every QUIC
/// deployment of `provider` serves chains from `era` regardless of the
/// campaign's scan era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EraMigration {
    /// Tick at which the migration fires.
    pub tick: u64,
    /// Provider whose deployments migrate.
    pub provider: Provider,
    /// Era the provider migrates to.
    pub era: CertificateEra,
}

/// Configuration of a churn timeline. Everything is exact (integers and
/// enums), so a timeline is a pure function of this value.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Seed the per-tick event draws fork from.
    pub seed: u64,
    /// Population size — churned ranks are drawn uniformly from
    /// `1..=domains`. Ranks without a QUIC deployment absorb their events
    /// as no-ops (the real ecosystem's churn does not consult our scan
    /// list either).
    pub domains: usize,
    /// Certificate rotations (routine reissues) per tick.
    pub rotations_per_tick: usize,
    /// CA-dictionary drifts (a deployment moving to the next chain in its
    /// CA family's ring) per tick.
    pub drifts_per_tick: usize,
    /// Revocations (emergency reissues) per tick.
    pub revocations_per_tick: usize,
    /// Roll the global STEK epoch every this many ticks (0 = never).
    pub stek_rollover_every: u64,
    /// Scheduled provider era migrations. At most one per
    /// `(tick, provider)` pair — later duplicates are ignored so tick
    /// application stays order-independent.
    pub(crate) migrations: Vec<EraMigration>,
}

impl ChurnConfig {
    /// A quiet default: sparse rotation/drift/revocation, STEK rollover
    /// every 8 ticks, no migrations scheduled.
    pub fn new(seed: u64, domains: usize) -> ChurnConfig {
        ChurnConfig {
            seed,
            domains,
            rotations_per_tick: 8,
            drifts_per_tick: 4,
            revocations_per_tick: 2,
            stek_rollover_every: 8,
            migrations: Vec::new(),
        }
    }

    /// Schedule an era migration (builder style).
    pub fn with_migration(
        mut self,
        tick: u64,
        provider: Provider,
        era: CertificateEra,
    ) -> ChurnConfig {
        self.migrations.push(EraMigration {
            tick,
            provider,
            era,
        });
        self
    }

    /// Override the per-tick churn volume (builder style).
    pub fn with_rates(
        mut self,
        rotations: usize,
        drifts: usize,
        revocations: usize,
    ) -> ChurnConfig {
        self.rotations_per_tick = rotations;
        self.drifts_per_tick = drifts;
        self.revocations_per_tick = revocations;
        self
    }
}

/// One churn event. Per-rank events carry the rank they hit; global
/// events carry their payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Routine certificate reissue: the deployment's generation bumps, so
    /// its leaf bytes change while its chain topology stays put.
    RotateCert {
        /// Churned rank.
        rank: usize,
    },
    /// Emergency reissue after revocation — same byte-level effect as a
    /// rotation, tracked separately in the stats.
    Revoke {
        /// Churned rank.
        rank: usize,
    },
    /// CA-dictionary drift: the deployment moves one step along its CA
    /// family's chain ring (see [`drifted`]).
    DriftChain {
        /// Churned rank.
        rank: usize,
    },
    /// Global session-ticket-key epoch rollover. Cold scans are
    /// unaffected; resident warm campaigns key their ticket issuers on
    /// the epoch.
    StekRollover,
    /// A provider migrates its PKI to a new era.
    EraMigration {
        /// Provider whose deployments migrate.
        provider: Provider,
        /// Era the provider migrates to.
        era: CertificateEra,
    },
}

impl ChurnEvent {
    /// The rank a per-rank event churns (None for global events).
    pub fn rank(&self) -> Option<usize> {
        match self {
            ChurnEvent::RotateCert { rank }
            | ChurnEvent::Revoke { rank }
            | ChurnEvent::DriftChain { rank } => Some(*rank),
            ChurnEvent::StekRollover | ChurnEvent::EraMigration { .. } => None,
        }
    }
}

/// The deterministic event source: tick `t`'s events are a pure function
/// of `(config.seed, t)`, derived by forking the config seed with the
/// tick index. No state is threaded between ticks, so the timeline can be
/// sampled at any point without replaying history.
#[derive(Debug, Clone)]
pub struct Timeline {
    config: ChurnConfig,
}

impl Timeline {
    /// Wrap a configuration.
    pub fn new(config: ChurnConfig) -> Timeline {
        Timeline { config }
    }

    /// The configuration this timeline derives from.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// The events of one tick. Tick 0 is the as-generated world: it has
    /// no events by definition.
    pub fn events_at(&self, tick: u64) -> Vec<ChurnEvent> {
        let config = &self.config;
        if tick == 0 || config.domains == 0 {
            return Vec::new();
        }
        let mut rng = SimRng::new(config.seed).fork(tick);
        let draw_rank = |rng: &mut SimRng| 1 + rng.below(config.domains as u64) as usize;
        let mut events = Vec::with_capacity(
            config.rotations_per_tick + config.drifts_per_tick + config.revocations_per_tick + 2,
        );
        for _ in 0..config.rotations_per_tick {
            events.push(ChurnEvent::RotateCert {
                rank: draw_rank(&mut rng),
            });
        }
        for _ in 0..config.drifts_per_tick {
            events.push(ChurnEvent::DriftChain {
                rank: draw_rank(&mut rng),
            });
        }
        for _ in 0..config.revocations_per_tick {
            events.push(ChurnEvent::Revoke {
                rank: draw_rank(&mut rng),
            });
        }
        if config.stek_rollover_every > 0 && tick.is_multiple_of(config.stek_rollover_every) {
            events.push(ChurnEvent::StekRollover);
        }
        // First migration per provider wins, so one tick never carries two
        // conflicting assignments and application order cannot matter.
        let mut migrated: Vec<Provider> = Vec::new();
        for m in config.migrations.iter().filter(|m| m.tick == tick) {
            if !migrated.contains(&m.provider) {
                migrated.push(m.provider);
                events.push(ChurnEvent::EraMigration {
                    provider: m.provider,
                    era: m.era,
                });
            }
        }
        events
    }
}

/// Move `chain` `steps` steps along its CA family's drift ring.
///
/// Rings never cross the RSA/ECDSA boundary — the ECDSA-only issuers
/// (`LeE1Short`, `LeE1X2Cross`, `CloudflareEcc`) drift among themselves —
/// so a drifted deployment's leaf key stays valid for its new chain.
/// Chains outside any ring are fixed points.
pub fn drifted(chain: ChainId, steps: u32) -> ChainId {
    const LE_RSA: [ChainId; 3] = [
        ChainId::LeR3Short,
        ChainId::LeR3X1Cross,
        ChainId::LeR3X1Self,
    ];
    const LE_ECDSA: [ChainId; 2] = [ChainId::LeE1Short, ChainId::LeE1X2Cross];
    const GTS: [ChainId; 3] = [ChainId::Gts1C3, ChainId::Gts1D4, ChainId::Gts1P5];
    const DIGICERT: [ChainId; 2] = [ChainId::DigiCertTls, ChainId::DigiCertSha2WithRoot];
    const SECTIGO: [ChainId; 2] = [ChainId::SectigoUserTrust, ChainId::CPanelComodoRoot];
    const GODADDY: [ChainId; 2] = [ChainId::GoDaddyG2, ChainId::StarfieldG2];
    for ring in [&LE_RSA[..], &LE_ECDSA, &GTS, &DIGICERT, &SECTIGO, &GODADDY] {
        if let Some(at) = ring.iter().position(|&c| c == chain) {
            return ring[(at + steps as usize % ring.len()) % ring.len()];
        }
    }
    chain
}

/// What one applied tick changed — the delta a resident campaign's scan
/// layer needs to invalidate exactly the right summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickDelta {
    /// The tick this delta describes.
    pub tick: u64,
    /// Ranks hit by per-rank events this tick, sorted and deduplicated.
    pub changed_ranks: Vec<usize>,
    /// An era migration fired: the affected records are only identifiable
    /// after derivation (the provider lives on the derived record), so
    /// every cached summary must be considered changed.
    pub all_changed: bool,
    /// The STEK epoch rolled over (does not invalidate cold-scan
    /// summaries).
    pub stek_rollover: bool,
    /// Total events applied this tick.
    pub events: usize,
}

impl TickDelta {
    /// What `events`, the events of `tick`, change: the ranks of its
    /// per-rank events, sorted and deduplicated, and everything if an era
    /// migration fired. The one spelling of that rule —
    /// [`ChurnState::advance`] and a resident campaign's scans both read it.
    pub fn of(tick: u64, events: &[ChurnEvent]) -> TickDelta {
        let mut changed_ranks: Vec<usize> = events.iter().filter_map(ChurnEvent::rank).collect();
        changed_ranks.sort_unstable();
        changed_ranks.dedup();
        TickDelta {
            tick,
            changed_ranks,
            all_changed: events
                .iter()
                .any(|e| matches!(e, ChurnEvent::EraMigration { .. })),
            stek_rollover: events.contains(&ChurnEvent::StekRollover),
            events: events.len(),
        }
    }
}

/// Ranks per page of a [`ChurnState`]'s per-rank counters.
const PAGE_RANKS: usize = 256;

/// The page-table entry of a page none of whose ranks has churned.
const ABSENT: u32 = u32::MAX;

/// One rank's per-rank churn: certificate generation bumps (rotations +
/// revocations) and CA-dictionary drift steps — counted up in a
/// [`ChurnState`], or to subtract in a [`ChurnView`]'s undo list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    generations: u32,
    drifts: u32,
}

/// The accumulated churn state at one tick: everything needed to overlay
/// the timeline onto freshly derived records.
///
/// All per-event updates commute: generations and drift steps are
/// additive counters, the STEK epoch is a counter, and era overrides are
/// single-assignment per tick (enforced by [`Timeline::events_at`]).
/// [`ChurnState::at`] therefore equals any interleaving of
/// [`ChurnState::advance`] calls — pinned by tests here and a proptest in
/// `quicert_core`.
///
/// The per-rank counters are paged: the first [`ChurnState::advance`]
/// sizes a page table to the population, one 4-byte slot per `PAGE_RANKS`
/// (256) ranks — sixteen to a cache line — and a page of counters (8 bytes
/// a rank, the last page clamped to the population) is appended to one
/// counter arena when a rank in it first churns, its slot then holding
/// the page's offset in the arena. A lookup is two indexings, and a
/// state's memory follows the ranks churned so far — a few dozen pages
/// after a few ticks at any population, never more than the dense 8 bytes
/// a domain plus the page table however long the clock runs. Equality is *semantic*: a rank in an absent page, or past
/// the end of one, has count 0, so two states of one timeline at one tick
/// are equal however they were reached.
#[derive(Debug, Clone, Default)]
pub struct ChurnState {
    /// Last applied tick (0 = as-generated world).
    pub tick: u64,
    /// The population the page table was sized to (0 until the first
    /// [`ChurnState::advance`]).
    domains: usize,
    /// Page `i` holds the counters of ranks `i * PAGE_RANKS + 1..` from
    /// `counts[pages[i]]` on, and is [`ABSENT`] until one of them churns.
    pages: Vec<u32>,
    /// The counters of every page present, in the order first touched.
    counts: Vec<Counts>,
    /// Per-provider era overrides from migrations.
    era_overrides: HashMap<Provider, CertificateEra>,
    /// Global session-ticket-key epoch.
    pub stek_epoch: u32,
    /// Total events applied.
    pub events_applied: u64,
    /// Rotations applied.
    pub rotations: u64,
    /// Drifts applied.
    pub chain_drifts: u64,
    /// Revocations applied.
    pub revocations: u64,
}

/// A page of counters without its trailing zeros.
fn counted(counts: &[Counts]) -> &[Counts] {
    let zero = Counts::default();
    let len = counts
        .iter()
        .rposition(|c| *c != zero)
        .map_or(0, |at| at + 1);
    &counts[..len]
}

/// The era overrides of `timeline` at `tick`: every migration tick up to
/// it, applied oldest first, exactly as [`ChurnState::advance`] met them.
fn era_overrides_at(timeline: &Timeline, tick: u64) -> HashMap<Provider, CertificateEra> {
    let ticks: BTreeSet<u64> = timeline
        .config()
        .migrations
        .iter()
        .map(|m| m.tick)
        .collect();
    let mut overrides = HashMap::new();
    for at in ticks.into_iter().filter(|&at| at <= tick) {
        for event in timeline.events_at(at) {
            if let ChurnEvent::EraMigration { provider, era } = event {
                overrides.insert(provider, era);
            }
        }
    }
    overrides
}

impl PartialEq for ChurnState {
    fn eq(&self, other: &Self) -> bool {
        let slots = self.pages.len().max(other.pages.len());
        self.tick == other.tick
            && (0..slots).all(|page| counted(self.page(page)) == counted(other.page(page)))
            && self.era_overrides == other.era_overrides
            && self.stek_epoch == other.stek_epoch
            && self.events_applied == other.events_applied
            && self.rotations == other.rotations
            && self.chain_drifts == other.chain_drifts
            && self.revocations == other.revocations
    }
}

impl ChurnState {
    /// The pristine (tick-0) state.
    pub fn initial() -> ChurnState {
        ChurnState::default()
    }

    /// Apply one event. Commutative with every other event of the same
    /// tick (see the type-level invariant note).
    pub fn apply(&mut self, event: &ChurnEvent) {
        self.events_applied += 1;
        match *event {
            ChurnEvent::RotateCert { rank } => {
                self.counts_mut(rank).generations += 1;
                self.rotations += 1;
            }
            ChurnEvent::Revoke { rank } => {
                self.counts_mut(rank).generations += 1;
                self.revocations += 1;
            }
            ChurnEvent::DriftChain { rank } => {
                self.counts_mut(rank).drifts += 1;
                self.chain_drifts += 1;
            }
            ChurnEvent::StekRollover => self.stek_epoch += 1,
            ChurnEvent::EraMigration { provider, era } => {
                self.era_overrides.insert(provider, era);
            }
        }
    }

    /// Advance one tick, applying its events, and describe what changed.
    pub fn advance(&mut self, timeline: &Timeline) -> TickDelta {
        self.tick += 1;
        let events = timeline.events_at(self.tick);
        // Size the page table to the population once, up front, so no
        // later event ever reallocates it; pages come on first touch.
        let domains = timeline.config().domains;
        if self.domains < domains {
            self.size_to(domains);
        }
        for event in &events {
            self.apply(event);
        }
        TickDelta::of(self.tick, &events)
    }

    /// The state at `tick`, replayed from scratch — the reference
    /// [`ChurnState::advance`] and [`ChurnState::view_at`] must agree with
    /// at every tick.
    pub fn at(timeline: &Timeline, tick: u64) -> ChurnState {
        let mut state = ChurnState::initial();
        for _ in 0..tick {
            state.advance(timeline);
        }
        state
    }

    /// This state as it stands: a view with nothing to undo.
    pub fn view(&self) -> ChurnView<'_> {
        ChurnView {
            live: self,
            undo: Vec::new(),
            era_overrides: Cow::Borrowed(&self.era_overrides),
            stek_epoch: self.stek_epoch,
        }
    }

    /// This state — `timeline`'s, reached by [`ChurnState::advance`] —
    /// seen at `tick`: the view subtracts the generation and drift steps
    /// of every rank churned in `(tick, self.tick]`, counts the STEK
    /// rollovers of those ticks back and, if a migration fired among them,
    /// recomputes the era overrides from the timeline's schedule. It
    /// answers as [`ChurnState::at`]`(timeline, tick)` does, at the cost
    /// of the span's events; it holds one entry per distinct churned rank
    /// and copies nothing of the population's counters. A `tick` at or past
    /// the state's own is [`ChurnState::view`].
    pub fn view_at(&self, timeline: &Timeline, tick: u64) -> ChurnView<'_> {
        let mut view = self.view();
        let mut undo: BTreeMap<usize, Counts> = BTreeMap::new();
        let mut migrated = false;
        for at in tick + 1..=self.tick {
            for event in timeline.events_at(at) {
                match event {
                    ChurnEvent::RotateCert { rank } | ChurnEvent::Revoke { rank } => {
                        undo.entry(rank).or_default().generations += 1;
                    }
                    ChurnEvent::DriftChain { rank } => undo.entry(rank).or_default().drifts += 1,
                    ChurnEvent::StekRollover => view.stek_epoch -= 1,
                    ChurnEvent::EraMigration { .. } => migrated = true,
                }
            }
        }
        if migrated {
            view.era_overrides = Cow::Owned(era_overrides_at(timeline, tick));
        }
        view.undo = undo.into_iter().collect();
        view
    }

    /// Size the page table to a population of `domains` ranks. A page
    /// appended clamped to the old population's end moves to the end of
    /// the arena at its new length; pages touched before the state had a
    /// population (events applied by hand) are whole, and keep being read
    /// whole.
    fn size_to(&mut self, domains: usize) {
        let domains = match self.domains {
            0 => domains.max(self.pages.len() * PAGE_RANKS),
            _ => domains,
        };
        let slots = domains.div_ceil(PAGE_RANKS);
        if self.pages.len() < slots {
            self.pages.reserve_exact(slots - self.pages.len());
            self.pages.resize(slots, ABSENT);
        }
        let last = self.domains / PAGE_RANKS;
        let (old_len, at) = (self.page_len(last), self.pages.get(last).copied());
        self.domains = domains;
        if let Some(at) = at.filter(|&at| at != ABSENT && self.page_len(last) > old_len) {
            let moved = self.counts.len();
            let at = at as usize;
            self.counts.extend_from_within(at..at + old_len);
            self.counts
                .resize(moved + self.page_len(last), Counts::default());
            self.pages[last] = moved as u32;
        }
    }

    /// The number of counters page `page` holds: whole pages, but the
    /// population's last, which stops at its last rank.
    fn page_len(&self, page: usize) -> usize {
        match self.domains.checked_sub(page * PAGE_RANKS) {
            Some(left) if left > 0 => left.min(PAGE_RANKS),
            _ => PAGE_RANKS,
        }
    }

    /// The counters of page `page`: empty while none of its ranks churned.
    fn page(&self, page: usize) -> &[Counts] {
        match self.pages.get(page) {
            Some(&at) if at != ABSENT => &self.counts[at as usize..][..self.page_len(page)],
            _ => &[],
        }
    }

    /// The counters of one rank (zeros = never churned). A sized state
    /// stores no rank past its population, so a rank inside it indexes
    /// its present page directly; an unsized one has only whole pages.
    fn counts_of(&self, rank: usize) -> Counts {
        let at = rank.wrapping_sub(1);
        match self.pages.get(at / PAGE_RANKS) {
            Some(&start) if start != ABSENT && (self.domains == 0 || at < self.domains) => {
                self.counts[start as usize + at % PAGE_RANKS]
            }
            _ => Counts::default(),
        }
    }

    /// The counters of one rank, for an event to bump.
    fn counts_mut(&mut self, rank: usize) -> &mut Counts {
        if self.domains > 0 && rank > self.domains {
            // An event applied by hand past the population grows it.
            self.size_to(rank);
        }
        let at = rank - 1;
        let (page, offset) = (at / PAGE_RANKS, at % PAGE_RANKS);
        let start = match self.pages.get(page) {
            Some(&at) if at != ABSENT => at as usize,
            _ => self.touch(page),
        };
        &mut self.counts[start + offset]
    }

    /// Append page `page` to the arena on its first touch, zeroed, and
    /// return its offset; the table grows when the state was never sized
    /// to a population holding the page (events applied by hand). The
    /// arena doubles, but never past the dense population.
    #[cold]
    fn touch(&mut self, page: usize) -> usize {
        if self.pages.len() <= page {
            self.pages.resize(page + 1, ABSENT);
        }
        let (start, len) = (self.counts.len(), self.page_len(page));
        if self.counts.capacity() < start + len {
            let dense = self.domains.max(start + len);
            let target = (2 * self.counts.capacity()).clamp(start + len, dense);
            self.counts.reserve_exact(target - start);
        }
        self.counts.resize(start + len, Counts::default());
        self.pages[page] = start as u32;
        start
    }

    /// The era override of one provider, if it has migrated.
    pub fn era_of(&self, provider: Provider) -> Option<CertificateEra> {
        self.era_overrides.get(&provider).copied()
    }

    /// Ranks with at least one per-rank churn event so far, sorted.
    pub fn churned_ranks(&self) -> Vec<usize> {
        let ranks = (0..self.pages.len()).flat_map(|page| {
            let first = page * PAGE_RANKS + 1;
            let counts = self.page(page).iter().enumerate();
            counts
                .filter(|(_, counts)| **counts != Counts::default())
                .map(move |(offset, _)| first + offset)
        });
        ranks.collect()
    }

    /// Heap bytes this state holds: the page table (one 4 B slot per 256
    /// ranks of the population once the first tick has been applied), the
    /// counter arena (8 per rank of every page a churned rank has touched),
    /// and the (≤ one entry per provider) era-override table. It grows with
    /// the pages first touched, and never past the dense 8 bytes a domain
    /// plus the page table.
    pub fn heap_bytes(&self) -> usize {
        let table = self.pages.capacity() * std::mem::size_of::<u32>();
        let override_entry = std::mem::size_of::<(Provider, CertificateEra)>() + 1;
        table
            + self.counts.capacity() * std::mem::size_of::<Counts>()
            + self.era_overrides.capacity() * override_entry
    }

    /// Overlay the state onto freshly derived records: its own view's
    /// [`ChurnView::apply_to_records`].
    pub fn apply_to_records(&self, records: &mut [DomainRecord]) {
        self.view().apply_to_records(records);
    }
}

/// The churn state at one tick, read through a later state it borrows: the
/// live per-rank counters minus an undo list holding, for each distinct
/// rank churned since the tick, the steps to subtract, beside the era
/// overrides and the STEK epoch at the tick. Built by
/// [`ChurnState::view_at`] (a past tick) or [`ChurnState::view`] (the
/// state's own, with nothing to undo), it answers what derivation reads —
/// [`ChurnView::apply_to_records`] and [`ChurnView::stek_epoch`] — exactly
/// as the state replayed to its tick would.
#[derive(Debug)]
pub struct ChurnView<'a> {
    live: &'a ChurnState,
    /// The span's churned ranks, sorted, with their steps to undo.
    undo: Vec<(usize, Counts)>,
    /// The live state's overrides, or those at the tick when a migration
    /// fired in the span.
    era_overrides: Cow<'a, HashMap<Provider, CertificateEra>>,
    stek_epoch: u32,
}

impl ChurnView<'_> {
    /// What the span churned on `rank` (nothing for a rank it left alone).
    fn undone(&self, rank: usize) -> Counts {
        self.undo
            .binary_search_by_key(&rank, |&(churned, _)| churned)
            .map_or(Counts::default(), |at| self.undo[at].1)
    }

    /// The global session-ticket-key epoch at the view's tick.
    pub fn stek_epoch(&self) -> u32 {
        self.stek_epoch
    }

    /// Overlay the churn at the view's tick onto freshly derived records
    /// (any rank subset, in any order — the overlay is per-record). Records
    /// without a QUIC deployment absorb their churn as a no-op, byte for
    /// byte, so a resident service leaves a segment whose churned ranks
    /// serve no QUIC clean; an empty state leaves every record
    /// byte-identical.
    pub fn apply_to_records(&self, records: &mut [DomainRecord]) {
        for record in records {
            let rank = record.rank;
            if let Some(quic) = record.quic.as_mut() {
                let (live, undone) = (self.live.counts_of(rank), self.undone(rank));
                quic.cert_generation = live.generations - undone.generations;
                let steps = live.drifts - undone.drifts;
                if steps > 0 {
                    quic.chain_id = drifted(quic.chain_id, steps);
                }
                quic.era_override = self.era_overrides.get(&quic.provider).copied();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        Timeline::new(ChurnConfig::new(0x000C_4A11, 500).with_migration(
            3,
            Provider::Google,
            CertificateEra::Hybrid,
        ))
    }

    #[test]
    fn tick_zero_is_quiet() {
        assert!(timeline().events_at(0).is_empty());
        assert_eq!(ChurnState::at(&timeline(), 0), ChurnState::initial());
    }

    #[test]
    fn events_are_a_pure_function_of_seed_and_tick() {
        let t = timeline();
        for tick in 0..12 {
            assert_eq!(t.events_at(tick), t.events_at(tick), "tick {tick}");
        }
        let other = Timeline::new(ChurnConfig::new(0xD1FF, 500));
        assert_ne!(t.events_at(1), other.events_at(1));
    }

    #[test]
    fn advance_matches_replay_at_every_tick() {
        let t = timeline();
        let mut rolling = ChurnState::initial();
        for tick in 1..=10 {
            rolling.advance(&t);
            assert_eq!(rolling, ChurnState::at(&t, tick), "tick {tick}");
        }
    }

    #[test]
    fn equality_is_semantic_however_a_state_was_reached() {
        // `advance` sizes the page table to the population up front and
        // clamps the last page to it; events applied by hand grow the table
        // to their rank and allocate whole pages. Same events, same state —
        // and a counter that is still zero never tells them apart.
        let t = timeline();
        let mut by_hand = ChurnState::initial();
        for tick in 1..=6 {
            for event in &t.events_at(tick) {
                by_hand.apply(event);
            }
        }
        by_hand.tick = 6;
        let replayed = ChurnState::at(&t, 6);
        assert!(by_hand.page(1).len() > replayed.page(1).len());
        assert_eq!(by_hand, replayed);
        assert_eq!(by_hand.churned_ranks(), replayed.churned_ranks());
        // A real difference still shows.
        by_hand.apply(&ChurnEvent::DriftChain { rank: 500 });
        assert_ne!(by_hand, replayed);
    }

    #[test]
    fn a_view_of_the_live_state_answers_as_the_state_replayed_to_its_tick() {
        // Two migrations of one provider (the later must give way to the
        // earlier looking back), a second provider on the same tick, and
        // a STEK rollover every fourth tick.
        let mut config = ChurnConfig::new(0x000C_4A11, 500)
            .with_migration(3, Provider::Google, CertificateEra::Hybrid)
            .with_migration(11, Provider::Google, CertificateEra::PostQuantum)
            .with_migration(11, Provider::Meta, CertificateEra::Hybrid);
        config.stek_rollover_every = 4;
        let t = Timeline::new(config);
        let world = quicert_pki::World::streaming(quicert_pki::WorldConfig {
            domains: 500,
            seed: 9,
        });
        let population = world.domain_chunk(1, world.config.domains);
        let overlaid = |apply: &dyn Fn(&mut [DomainRecord])| {
            let mut records = population.clone();
            apply(&mut records);
            records
        };
        let mut live = ChurnState::initial();
        for now in 0..=24 {
            if now > 0 {
                live.advance(&t);
            }
            for tick in 0..=now {
                let (view, replayed) = (live.view_at(&t, tick), ChurnState::at(&t, tick));
                // Every rank's counters, QUIC service or not…
                for rank in 1..=500 {
                    let (counts, undone) = (live.counts_of(rank), view.undone(rank));
                    let seen = Counts {
                        generations: counts.generations - undone.generations,
                        drifts: counts.drifts - undone.drifts,
                    };
                    assert_eq!(
                        seen,
                        replayed.counts_of(rank),
                        "{now} -> {tick}, rank {rank}"
                    );
                }
                // …every record's overlay, the STEK epoch and the era
                // overrides.
                assert!(
                    overlaid(&|records| view.apply_to_records(records))
                        == overlaid(&|records| replayed.apply_to_records(records)),
                    "{now} -> {tick}"
                );
                assert_eq!(view.stek_epoch(), replayed.stek_epoch, "{now} -> {tick}");
                assert_eq!(
                    *view.era_overrides, replayed.era_overrides,
                    "{now} -> {tick}"
                );
            }
        }
        // The undo list holds one entry per distinct rank its span churned:
        // one tick back, that tick's changed ranks; back to tick 0, every
        // rank the clock churned.
        let ranks = |view: &ChurnView| view.undo.iter().map(|&(rank, _)| rank).collect::<Vec<_>>();
        let last = TickDelta::of(24, &t.events_at(24));
        assert_eq!(ranks(&live.view_at(&t, 23)), last.changed_ranks);
        assert_eq!(ranks(&live.view_at(&t, 0)), live.churned_ranks());
        // Looking back across tick 11 restores Google's first migration and
        // undoes Meta's.
        let back = live.view_at(&t, 10);
        assert_eq!(
            back.era_overrides.get(&Provider::Google),
            Some(&CertificateEra::Hybrid)
        );
        assert_eq!(back.era_overrides.get(&Provider::Meta), None);
        // A view at or past the clock undoes nothing.
        let ahead = live.view_at(&t, 30);
        assert!(ahead.undo.is_empty() && ahead.stek_epoch() == live.stek_epoch);
        assert!(matches!(ahead.era_overrides, Cow::Borrowed(_)));
    }

    #[test]
    fn resident_bytes_are_flat_in_the_tick() {
        // The page table (two slots for 500 ranks) and the pages churned
        // ranks have touched: the bytes never shrink and never pass the
        // dense 8 bytes a domain plus the table, and once every page is
        // touched only the (one entry per migrated provider) override
        // table can grow.
        let t = timeline();
        let mut state = ChurnState::initial();
        assert_eq!(state.heap_bytes(), 0);
        let dense = 8 * 500 + 2 * std::mem::size_of::<u32>();
        let mut last = 0;
        for tick in 1..=400 {
            state.advance(&t);
            let bytes = state.heap_bytes();
            assert!(
                last <= bytes && bytes <= dense + 64,
                "tick {tick}: {bytes} B"
            );
            last = bytes;
        }
        assert_eq!(
            state.churned_ranks().len(),
            500,
            "every rank churned by now"
        );
        assert!((dense..=dense + 64).contains(&last), "{last} B");
    }

    #[test]
    fn paged_counters_equal_a_naive_replay_at_every_tick() {
        // 200 ticks over two pages (ranks 1–256 and 257–500, the second
        // clamped to the population) and a migration at tick 3: every
        // rank's counters, read through the pages, equal a map replaying
        // `events_at` from scratch, and so do the churned ranks.
        let t = timeline();
        const { assert!(500 > PAGE_RANKS && 500 < 2 * PAGE_RANKS) };
        let mut naive: BTreeMap<usize, Counts> = BTreeMap::new();
        let mut state = ChurnState::initial();
        for tick in 1..=200 {
            state.advance(&t);
            for event in t.events_at(tick) {
                match event {
                    ChurnEvent::RotateCert { rank } | ChurnEvent::Revoke { rank } => {
                        naive.entry(rank).or_default().generations += 1;
                    }
                    ChurnEvent::DriftChain { rank } => naive.entry(rank).or_default().drifts += 1,
                    ChurnEvent::StekRollover | ChurnEvent::EraMigration { .. } => {}
                }
            }
            for rank in 1..=500 {
                let expected = naive.get(&rank).copied().unwrap_or_default();
                assert_eq!(state.counts_of(rank), expected, "tick {tick}, rank {rank}");
            }
            let churned: Vec<usize> = naive.keys().copied().collect();
            assert_eq!(state.churned_ranks(), churned, "tick {tick}");
        }
        assert!(state.churned_ranks().iter().any(|&rank| rank > PAGE_RANKS));
        assert_eq!(state.era_of(Provider::Google), Some(CertificateEra::Hybrid));
    }

    #[test]
    fn tick_application_is_order_independent() {
        let t = timeline();
        for tick in 1..=8 {
            let events = t.events_at(tick);
            let mut forward = ChurnState::at(&t, tick - 1);
            let mut backward = forward.clone();
            for e in &events {
                forward.apply(e);
            }
            for e in events.iter().rev() {
                backward.apply(e);
            }
            assert_eq!(forward, backward, "tick {tick}");
        }
    }

    #[test]
    fn migration_fires_once_and_sticks() {
        let t = timeline();
        assert!(ChurnState::at(&t, 2).era_overrides.is_empty());
        let at3 = ChurnState::at(&t, 3);
        assert_eq!(at3.era_of(Provider::Google), Some(CertificateEra::Hybrid));
        assert_eq!(
            ChurnState::at(&t, 9).era_of(Provider::Google),
            Some(CertificateEra::Hybrid)
        );
        assert_eq!(at3.era_of(Provider::Cloudflare), None);
    }

    #[test]
    fn duplicate_migrations_on_one_tick_keep_the_first() {
        let t = Timeline::new(
            ChurnConfig::new(7, 100)
                .with_migration(1, Provider::Meta, CertificateEra::PostQuantum)
                .with_migration(1, Provider::Meta, CertificateEra::Hybrid),
        );
        let migrations: Vec<_> = t
            .events_at(1)
            .into_iter()
            .filter(|e| matches!(e, ChurnEvent::EraMigration { .. }))
            .collect();
        assert_eq!(
            migrations,
            vec![ChurnEvent::EraMigration {
                provider: Provider::Meta,
                era: CertificateEra::PostQuantum
            }]
        );
    }

    #[test]
    fn stek_epoch_rolls_on_schedule() {
        let t = timeline();
        assert_eq!(ChurnState::at(&t, 7).stek_epoch, 0);
        assert_eq!(ChurnState::at(&t, 8).stek_epoch, 1);
        assert_eq!(ChurnState::at(&t, 16).stek_epoch, 2);
    }

    #[test]
    fn drift_rings_stay_within_their_ca_family() {
        // ECDSA-only chains drift among ECDSA-only chains.
        for steps in 0..8 {
            assert!(matches!(
                drifted(ChainId::LeE1Short, steps),
                ChainId::LeE1Short | ChainId::LeE1X2Cross
            ));
        }
        assert_eq!(drifted(ChainId::CloudflareEcc, 5), ChainId::CloudflareEcc);
        assert_eq!(drifted(ChainId::EnterpriseHuge, 3), ChainId::EnterpriseHuge);
        // A full lap returns home.
        assert_eq!(drifted(ChainId::Gts1C3, 3), ChainId::Gts1C3);
        assert_ne!(drifted(ChainId::Gts1C3, 1), ChainId::Gts1C3);
    }

    #[test]
    fn delta_names_every_changed_rank() {
        let t = timeline();
        let mut state = ChurnState::initial();
        let delta = state.advance(&t);
        let mut expected: Vec<usize> = t.events_at(1).iter().filter_map(ChurnEvent::rank).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(delta.changed_ranks, expected);
        assert!(!delta.all_changed);
        let delta3 = ChurnState::at(&t, 2).advance(&t);
        assert!(delta3.all_changed, "migration tick invalidates everything");
    }

    #[test]
    fn empty_overlay_is_the_identity() {
        let world = quicert_pki::World::streaming(quicert_pki::WorldConfig {
            domains: 64,
            seed: 9,
        });
        let population = world.domain_chunk(1, world.config.domains);
        let mut records = population.clone();
        ChurnState::initial().apply_to_records(&mut records);
        for (before, after) in population.iter().zip(&records) {
            assert_eq!(format!("{before:?}"), format!("{after:?}"));
        }
    }

    #[test]
    fn churn_on_a_rank_without_quic_leaves_its_record_byte_identical() {
        // What a resident service's clean segments stand on: whatever a
        // state holds — rotations, revocations, drifts, a migration of
        // every provider — a record without a QUIC deployment comes out of
        // the overlay as it went in.
        let world = quicert_pki::World::streaming(quicert_pki::WorldConfig {
            domains: 500,
            seed: 9,
        });
        let population = world.domain_chunk(1, world.config.domains);
        let mut config = ChurnConfig::new(0x000C_4A11, 500).with_rates(16, 16, 4);
        for provider in [
            Provider::Cloudflare,
            Provider::Google,
            Provider::Meta,
            Provider::SelfHosted,
        ] {
            config = config.with_migration(2, provider, CertificateEra::PostQuantum);
        }
        let t = Timeline::new(config);
        let mut state = ChurnState::initial();
        let (mut rotated, mut drifted) = (0, 0);
        for tick in 1..=12 {
            state.advance(&t);
            assert_eq!(!state.era_overrides.is_empty(), tick >= 2);
            let mut records = population.clone();
            state.apply_to_records(&mut records);
            for (before, after) in population.iter().zip(&records) {
                if !before.has_quic() {
                    assert_eq!(format!("{before:?}"), format!("{after:?}"), "tick {tick}");
                    let counts = state.counts_of(before.rank);
                    rotated += usize::from(counts.generations > 0);
                    drifted += usize::from(counts.drifts > 0);
                }
            }
        }
        // Not vacuous: ranks without QUIC did rotate and drift.
        assert!(rotated > 0 && drifted > 0, "{rotated} {drifted}");
    }

    #[test]
    fn overlay_sets_generation_drift_and_era() {
        let world = quicert_pki::World::streaming(quicert_pki::WorldConfig {
            domains: 64,
            seed: 9,
        });
        let population = world.domain_chunk(1, world.config.domains);
        let quic_rank = population
            .iter()
            .find(|r| r.has_quic())
            .expect("some QUIC service")
            .rank;
        let mut state = ChurnState::initial();
        state.apply(&ChurnEvent::RotateCert { rank: quic_rank });
        state.apply(&ChurnEvent::RotateCert { rank: quic_rank });
        state.apply(&ChurnEvent::DriftChain { rank: quic_rank });
        let mut records = population.clone();
        state.apply_to_records(&mut records);
        let quic = records[quic_rank - 1].quic.as_ref().unwrap();
        let original = population[quic_rank - 1].quic.as_ref().unwrap();
        assert_eq!(quic.cert_generation, 2);
        assert_eq!(quic.chain_id, drifted(original.chain_id, 1));
    }
}
