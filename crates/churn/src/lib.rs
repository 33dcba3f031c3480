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
//!   The per-rank counters are dense vectors sized to the population
//!   once (8 bytes a domain), so a state's memory is flat in the tick.
//!   [`ChurnState::rewind`] undoes ticks the same way, so a past tick is
//!   reached from a later state in the ticks between them, not from 0.
//! * [`ChurnState::apply_to_records`] overlays the state onto derived
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

use std::collections::{BTreeSet, HashMap};

use quicert_netsim::SimRng;
use quicert_pki::world::Provider;
use quicert_pki::{CertificateEra, ChainId, DomainRecord};

/// One scheduled provider era migration: from `tick` onward, every QUIC
/// deployment of `provider` serves chains from `era` regardless of the
/// campaign's scan era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraMigration {
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
    pub migrations: Vec<EraMigration>,
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
/// The per-rank counters are dense `Vec<u32>`s indexed by `rank - 1`,
/// sized to the population by the first [`ChurnState::advance`]: 8 bytes a
/// domain, allocated once, however long the clock runs — a resident
/// service's churn state is a function of the population, never of the
/// tick (hash maps grew to several times that as ranks saturated and
/// doubled transiently on every rehash). Equality is *semantic*: ranks
/// past the end of a vector have count 0, so two states of one timeline
/// at one tick are equal however they were reached.
#[derive(Debug, Clone, Default)]
pub struct ChurnState {
    /// Last applied tick (0 = as-generated world).
    pub tick: u64,
    /// Per-rank certificate generation bumps (rotations + revocations).
    generations: Vec<u32>,
    /// Per-rank CA-dictionary drift steps.
    drifts: Vec<u32>,
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

/// A per-rank counter vector without its trailing zeros.
fn counted(counts: &[u32]) -> &[u32] {
    let len = counts.iter().rposition(|&n| n != 0).map_or(0, |at| at + 1);
    &counts[..len]
}

/// Add one to `rank`'s counter, growing the vector when the state was
/// never sized to its population (events applied by hand).
fn bump(counts: &mut Vec<u32>, rank: usize) {
    if counts.len() < rank {
        counts.resize(rank, 0);
    }
    counts[rank - 1] += 1;
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
        self.tick == other.tick
            && counted(&self.generations) == counted(&other.generations)
            && counted(&self.drifts) == counted(&other.drifts)
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
                bump(&mut self.generations, rank);
                self.rotations += 1;
            }
            ChurnEvent::Revoke { rank } => {
                bump(&mut self.generations, rank);
                self.revocations += 1;
            }
            ChurnEvent::DriftChain { rank } => {
                bump(&mut self.drifts, rank);
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
        // Size the per-rank counters to the population once, up front, so
        // no later event ever reallocates them.
        let domains = timeline.config().domains;
        if self.generations.len() < domains {
            self.generations.resize(domains, 0);
            self.drifts.resize(domains, 0);
        }
        for event in &events {
            self.apply(event);
        }
        TickDelta::of(self.tick, &events)
    }

    /// The state at `tick`, replayed from scratch — the reference
    /// [`ChurnState::advance`] and [`ChurnState::rewind`] must agree with at
    /// every tick.
    pub fn at(timeline: &Timeline, tick: u64) -> ChurnState {
        let mut state = ChurnState::initial();
        for _ in 0..tick {
            state.advance(timeline);
        }
        state
    }

    /// Step this state — `timeline`'s, reached by [`ChurnState::advance`] —
    /// back to `tick`, undoing the events of every tick in
    /// `(tick, self.tick]`, newest first: per-rank counters, event tallies
    /// and the STEK epoch count down, and if a migration fired in that span
    /// the era overrides are recomputed from the timeline's schedule. The
    /// result equals [`ChurnState::at`]`(timeline, tick)`, heap bytes
    /// included, at the cost of `self.tick - tick` ticks instead of `tick`.
    /// A `tick` at or past the state's own leaves it alone.
    pub fn rewind(&mut self, timeline: &Timeline, tick: u64) {
        if tick >= self.tick {
            return;
        }
        if tick == 0 {
            // The as-generated world holds no counters at all.
            *self = ChurnState::initial();
            return;
        }
        let mut migrated = false;
        while self.tick > tick {
            for event in &timeline.events_at(self.tick) {
                self.events_applied -= 1;
                match *event {
                    ChurnEvent::RotateCert { rank } => {
                        self.generations[rank - 1] -= 1;
                        self.rotations -= 1;
                    }
                    ChurnEvent::Revoke { rank } => {
                        self.generations[rank - 1] -= 1;
                        self.revocations -= 1;
                    }
                    ChurnEvent::DriftChain { rank } => {
                        self.drifts[rank - 1] -= 1;
                        self.chain_drifts -= 1;
                    }
                    ChurnEvent::StekRollover => self.stek_epoch -= 1,
                    ChurnEvent::EraMigration { .. } => migrated = true,
                }
            }
            self.tick -= 1;
        }
        if migrated {
            self.era_overrides = era_overrides_at(timeline, tick);
        }
    }

    /// The certificate generation of one rank (0 = never churned).
    pub fn generation_of(&self, rank: usize) -> u32 {
        self.generations
            .get(rank.wrapping_sub(1))
            .copied()
            .unwrap_or(0)
    }

    /// The drift steps of one rank.
    pub fn drift_of(&self, rank: usize) -> u32 {
        self.drifts.get(rank.wrapping_sub(1)).copied().unwrap_or(0)
    }

    /// The era override of one provider, if it has migrated.
    pub fn era_of(&self, provider: Provider) -> Option<CertificateEra> {
        self.era_overrides.get(&provider).copied()
    }

    /// Whether any provider has migrated eras.
    pub fn any_migration(&self) -> bool {
        !self.era_overrides.is_empty()
    }

    /// Ranks with at least one per-rank churn event so far, sorted.
    pub fn churned_ranks(&self) -> Vec<usize> {
        let ranks = 1..=self.generations.len().max(self.drifts.len());
        ranks
            .filter(|&rank| self.generation_of(rank) > 0 || self.drift_of(rank) > 0)
            .collect()
    }

    /// Heap bytes this state holds: 8 per domain of the population once
    /// the first event has been applied, plus the (≤ one entry per
    /// provider) era-override table — flat in the tick.
    pub fn heap_bytes(&self) -> usize {
        let counters = self.generations.capacity() + self.drifts.capacity();
        let override_entry = std::mem::size_of::<(Provider, CertificateEra)>() + 1;
        counters * std::mem::size_of::<u32>() + self.era_overrides.capacity() * override_entry
    }

    /// Overlay the state onto freshly derived records (any rank subset,
    /// in any order — the overlay is per-record). Records without a QUIC
    /// deployment absorb their churn as a no-op, byte for byte, so a
    /// resident service leaves a segment whose churned ranks serve no QUIC
    /// clean; an empty state leaves every record byte-identical.
    pub fn apply_to_records(&self, records: &mut [DomainRecord]) {
        for record in records {
            let rank = record.rank;
            if let Some(quic) = record.quic.as_mut() {
                quic.cert_generation = self.generation_of(rank);
                let steps = self.drift_of(rank);
                if steps > 0 {
                    quic.chain_id = drifted(quic.chain_id, steps);
                }
                quic.era_override = self.era_of(quic.provider);
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
        // `advance` sizes the per-rank counters to the population up front;
        // events applied by hand grow them rank by rank. Same events, same
        // state — and a counter that is still zero never tells them apart.
        let t = timeline();
        let mut by_hand = ChurnState::initial();
        for tick in 1..=6 {
            for event in &t.events_at(tick) {
                by_hand.apply(event);
            }
        }
        by_hand.tick = 6;
        let replayed = ChurnState::at(&t, 6);
        assert!(by_hand.generations.len() < replayed.generations.len());
        assert_eq!(by_hand, replayed);
        assert_eq!(by_hand.churned_ranks(), replayed.churned_ranks());
        // A real difference still shows.
        by_hand.apply(&ChurnEvent::DriftChain { rank: 500 });
        assert_ne!(by_hand, replayed);
    }

    #[test]
    fn rewinding_the_live_state_equals_replaying_to_the_tick() {
        // Two migrations of one provider (the later must give way to the
        // earlier on the way back), a second provider on the same tick, and
        // a STEK rollover every fourth tick.
        let mut config = ChurnConfig::new(0x000C_4A11, 500)
            .with_migration(3, Provider::Google, CertificateEra::Hybrid)
            .with_migration(11, Provider::Google, CertificateEra::PostQuantum)
            .with_migration(11, Provider::Meta, CertificateEra::Hybrid);
        config.stek_rollover_every = 4;
        let t = Timeline::new(config);
        let mut live = ChurnState::initial();
        for now in 0..=24 {
            if now > 0 {
                live.advance(&t);
            }
            for tick in 0..=now {
                let mut rewound = live.clone();
                rewound.rewind(&t, tick);
                let replayed = ChurnState::at(&t, tick);
                assert_eq!(rewound, replayed, "{now} -> {tick}");
                assert_eq!(
                    rewound.heap_bytes(),
                    replayed.heap_bytes(),
                    "{now} -> {tick}"
                );
            }
        }
        // Rewinding forward is no rewind at all.
        let mut ahead = live.clone();
        ahead.rewind(&t, 30);
        assert_eq!(ahead, live);
    }

    #[test]
    fn resident_bytes_are_flat_in_the_tick() {
        // 8 bytes a domain, allocated by the first tick and never again.
        let t = timeline();
        let mut state = ChurnState::initial();
        assert_eq!(state.heap_bytes(), 0);
        state.advance(&t);
        let after_one = state.heap_bytes();
        assert!((8 * 500..=8 * 500 + 64).contains(&after_one), "{after_one}");
        for _ in 0..400 {
            state.advance(&t);
        }
        // Only the (one entry per migrated provider) override table grew.
        assert!(
            state.heap_bytes() <= after_one + 64,
            "{}",
            state.heap_bytes()
        );
        assert_eq!(
            state.churned_ranks().len(),
            500,
            "every rank churned by now"
        );
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
        assert!(!ChurnState::at(&t, 2).any_migration());
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
            ..Default::default()
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
            ..Default::default()
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
            assert_eq!(state.any_migration(), tick >= 2);
            let mut records = population.clone();
            state.apply_to_records(&mut records);
            for (before, after) in population.iter().zip(&records) {
                if !before.has_quic() {
                    assert_eq!(format!("{before:?}"), format!("{after:?}"), "tick {tick}");
                    rotated += usize::from(state.generation_of(before.rank) > 0);
                    drifted += usize::from(state.drift_of(before.rank) > 0);
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
            ..Default::default()
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
