//! QUIC handshake classification (quicreach with Retry support, §3.2).
//!
//! A scan is one handshake per service, each run to completion before the
//! next and sharing nothing with it. Every entry point takes the conditions
//! it scans under — era, path profile, fault plan, Initial size, resumption
//! policy — as one [`Scenario`], so a new condition is a new field there,
//! never a new entry point here.
//!
//! There is one population loop, [`scan_chunk`] — a chunk's shard
//! ([`fold_chunk`]), a scenario's [`QuicReachSummary`] and a cell's
//! [`EraJoin`] differ only in the sink its results land in — beside the
//! oracle it is held to ([`scan_service`], one memo-free probe of one
//! record, which [`scan`] maps over a world) and the cold-then-warm revisit
//! of one record ([`warm_service`]). All of them
//! build their probe through `probe_for` and read it back through
//! `QuicReachResult::from_outcome`, so the probe parameters and the
//! outcome→result mapping can never diverge between entry points.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use quicert_analysis::{impl_merge, Cdf, Merge, StreamSummary};
use quicert_netsim::{FastHashBuilder, FaultPlan, NetworkProfile, SimDuration};
use quicert_obs::{Counter, HandshakeTimeline, Histogram, MetricsRegistry, Phase};
use quicert_pki::{CertificateEra, ChainClass, ClassTable, DomainRecord, World};
use quicert_quic::amplification::{self, FACTOR};
use quicert_quic::handshake::{
    HandshakeClass, HandshakeOutcome, HandshakeProbe, ResumptionOutcome, ResumptionProbe,
};
use quicert_quic::{ClientConfig, HandshakeScratch};
use quicert_session::{ResumptionHost, ResumptionPolicy, TicketConfig};

use crate::behavior::{base_latency, server_config_for_era, wire_for_profile, BASE_LATENCY_MS};
use crate::scenario::Scenario;

/// The Initial sizes the paper sweeps: 1200 to 1472 bytes in steps of 10
/// (the upper bound is dictated by a 1500-byte MTU). Computed once and
/// shared — callers on the hot path (the per-size sweep, bench loops) were
/// previously rebuilding this constant list on every call.
pub fn sweep_sizes() -> &'static [usize] {
    static SIZES: OnceLock<Vec<usize>> = OnceLock::new();
    SIZES.get_or_init(|| {
        // 1472 is no step of 10 from 1200: the sweep ends on it anyway.
        (1200..1472).step_by(10).chain([1472]).collect()
    })
}

/// Classification result for one service at one Initial size.
#[derive(Debug, Clone, PartialEq)]
pub struct QuicReachResult {
    /// Service rank.
    pub rank: usize,
    /// Handshake class.
    pub class: HandshakeClass,
    /// Amplification factor during the first RTT.
    pub amplification: f64,
    /// Total server wire bytes.
    pub wire_received: usize,
    /// TLS payload bytes received (CRYPTO data).
    pub tls_received: usize,
    /// QUIC padding bytes received.
    pub padding_received: usize,
    /// Round trips to completion (0 when unreachable).
    pub rtt_count: u32,
    /// Datagrams the path's fault injectors dropped during the probe
    /// (always 0 on the ideal profile).
    pub fault_drops: u64,
    /// Datagrams the path's fault injectors corrupted during the probe.
    pub fault_corruptions: u64,
    /// Datagrams the path's fault injectors delivered twice.
    pub fault_duplications: u64,
    /// Client Initial transmissions (1 = no PTO retransmission).
    pub client_transmissions: u32,
    /// Server handshake-flight transmissions (1 = no retransmission).
    pub server_transmissions: u32,
    /// Time the server spent blocked on its anti-amplification budget, in
    /// simulated nanoseconds (0 when it never stalled or never resumed).
    pub stall_ns: u64,
}

impl QuicReachResult {
    fn from_outcome(rank: usize, out: &HandshakeOutcome) -> QuicReachResult {
        let stall_ns = match (out.timeline.stall_begin_ns, out.timeline.stall_end_ns) {
            (Some(begin), Some(end)) => end.saturating_sub(begin),
            _ => 0,
        };
        QuicReachResult {
            rank,
            class: out.classify(),
            amplification: out.amplification_first_flight(),
            wire_received: out.total_server_wire,
            tls_received: out.server_stats.tls_sent,
            padding_received: out.server_stats.padding_sent,
            rtt_count: out.rtt_count,
            fault_drops: out.fault_drops,
            fault_corruptions: out.fault_corruptions,
            fault_duplications: out.fault_duplications,
            client_transmissions: out.client_transmissions,
            server_transmissions: out.server_stats.flight_transmissions,
            stall_ns,
        }
    }

    /// Retransmissions this probe needed beyond the fault-free minimum of
    /// one transmission per side — the loss-recovery cost counter.
    pub fn retransmissions(&self) -> u64 {
        self.client_transmissions.saturating_sub(1) as u64
            + self.server_transmissions.saturating_sub(1) as u64
    }
}

/// Aggregated class counts at one Initial size (one bar of Fig 3).
///
/// Merged by hand: callers stamp `initial_size` as a plain `usize`, which
/// the identity's 0 adopts and later bars must equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Client Initial size.
    pub initial_size: usize,
    /// 1-RTT handshakes.
    pub one_rtt: usize,
    /// Retry handshakes.
    pub retry: usize,
    /// Multi-RTT handshakes.
    pub multi_rtt: usize,
    /// Amplifying handshakes.
    pub amplification: usize,
    /// Unreachable services.
    pub unreachable: usize,
}

impl ScanSummary {
    /// Reachable services (the height of a Fig 3 bar).
    pub fn reachable(&self) -> usize {
        self.one_rtt + self.retry + self.multi_rtt + self.amplification
    }

    /// Every probed service: reachable plus unreachable.
    pub fn total(&self) -> usize {
        self.reachable() + self.unreachable
    }

    /// Raw count for one class.
    pub fn count(&self, class: HandshakeClass) -> usize {
        match class {
            HandshakeClass::OneRtt => self.one_rtt,
            HandshakeClass::Retry => self.retry,
            HandshakeClass::MultiRtt => self.multi_rtt,
            HandshakeClass::Amplification => self.amplification,
            HandshakeClass::Unreachable => self.unreachable,
        }
    }

    /// Add one classified result.
    pub fn add(&mut self, class: HandshakeClass) {
        match class {
            HandshakeClass::OneRtt => self.one_rtt += 1,
            HandshakeClass::Retry => self.retry += 1,
            HandshakeClass::MultiRtt => self.multi_rtt += 1,
            HandshakeClass::Amplification => self.amplification += 1,
            HandshakeClass::Unreachable => self.unreachable += 1,
        }
    }

    /// Share of a class among **reachable** services, in percent — the
    /// denominator of the paper's Fig 3 class splits.
    ///
    /// [`HandshakeClass::Unreachable`] is not part of the reachable
    /// population, so its share here is 0 by definition; ask
    /// [`ScanSummary::share_of_all`] for it instead. An empty scan (or one
    /// where nothing was reachable) has no well-defined split and reports
    /// 0% for every class rather than dividing by zero.
    pub fn share_of_reachable(&self, class: HandshakeClass) -> f64 {
        if class == HandshakeClass::Unreachable {
            return 0.0;
        }
        let reachable = self.reachable();
        if reachable == 0 {
            return 0.0;
        }
        self.count(class) as f64 / reachable as f64 * 100.0
    }

    /// Share of a class among **all probed** services (reachable plus
    /// unreachable), in percent — the right denominator for unreachability
    /// rates (§4.1). An empty scan reports 0% for every class.
    pub fn share_of_all(&self, class: HandshakeClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.count(class) as f64 / total as f64 * 100.0
    }
}

impl Merge for ScanSummary {
    /// The identity carries `initial_size` 0 and adopts the other
    /// operand's size on merge; merging bars from different Initial sizes
    /// is a logic error.
    fn identity() -> Self {
        ScanSummary::default()
    }

    fn merge(&mut self, other: &Self) {
        if other.total() == 0 && other.initial_size == 0 {
            return;
        }
        if self.total() == 0 && self.initial_size == 0 {
            *self = *other;
            return;
        }
        assert_eq!(
            self.initial_size, other.initial_size,
            "merging ScanSummary bars from different Initial sizes"
        );
        self.one_rtt += other.one_rtt;
        self.retry += other.retry;
        self.multi_rtt += other.multi_rtt;
        self.amplification += other.amplification;
        self.unreachable += other.unreachable;
    }
}

// -------------------------------------------------------- streaming fold --

/// The mergeable summary one population chunk folds into on the streaming
/// quicreach path: class counts plus bounded-memory statistics over the
/// integer-valued wire metrics. Replaces the per-record
/// `Vec<QuicReachResult>` at scale — a million-record scan holds one of
/// these per worker instead of a million results.
///
/// All accumulated metrics are integer-valued (counts, bytes, round
/// trips), so [`Merge`] is exactly associative and commutative and the
/// streamed summary is bit-for-bit the one derived from a materialized
/// scan (see [`QuicReachShard::from_results`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuicReachShard {
    /// Handshake-class counts (one Fig 3 bar).
    pub classes: ScanSummary,
    /// Total server wire bytes per probed service.
    pub wire_received: StreamSummary,
    /// TLS payload bytes per probed service.
    pub tls_received: StreamSummary,
    /// Round trips per **reachable** service.
    pub rtts: StreamSummary,
    /// Datagrams dropped by the path's fault injectors.
    pub fault_drops: u64,
    /// Datagrams corrupted by the path's fault injectors.
    pub fault_corruptions: u64,
    /// Datagrams delivered twice by the path's fault injectors.
    pub fault_duplications: u64,
    /// Client Initial retransmissions beyond the first transmission,
    /// summed over the shard — half of the loss-recovery cost.
    pub client_retransmissions: u64,
    /// Server handshake-flight retransmissions beyond the first, summed
    /// over the shard — the other half of the loss-recovery cost.
    pub server_retransmissions: u64,
    /// Total simulated nanoseconds probes spent stalled on the server's
    /// anti-amplification budget.
    pub stall_ns_total: u64,
}

impl QuicReachShard {
    /// Fold one classified result in. Private because only
    /// [`QuicReachShard::from_results`] (which stamps the bar's Initial
    /// size first) can produce a shard that merges with engine summaries.
    fn push(&mut self, result: &QuicReachResult) {
        self.classes.add(result.class);
        self.wire_received.push(result.wire_received as f64);
        self.tls_received.push(result.tls_received as f64);
        if result.class != HandshakeClass::Unreachable {
            self.rtts.push(result.rtt_count as f64);
        }
        self.fault_drops += result.fault_drops;
        self.fault_corruptions += result.fault_corruptions;
        self.fault_duplications += result.fault_duplications;
        self.client_retransmissions += result.client_transmissions.saturating_sub(1) as u64;
        self.server_retransmissions += result.server_transmissions.saturating_sub(1) as u64;
        self.stall_ns_total += result.stall_ns;
    }

    /// Total retransmissions (client + server) across the shard.
    pub fn retransmissions(&self) -> u64 {
        self.client_retransmissions + self.server_retransmissions
    }

    /// Derive the summary from materialized per-record results — the
    /// reference the streaming path must match bit-for-bit.
    pub fn from_results(initial_size: usize, results: &[QuicReachResult]) -> QuicReachShard {
        let mut shard = QuicReachShard::identity();
        shard.classes.initial_size = initial_size;
        for result in results {
            shard.push(result);
        }
        shard
    }

    /// Services probed (reachable plus unreachable).
    pub fn total(&self) -> usize {
        self.classes.total()
    }
}

impl_merge! { QuicReachShard {
    classes, wire_received, tls_received, rtts, fault_drops, fault_corruptions, fault_duplications,
    client_retransmissions, server_retransmissions, stall_ns_total,
} }

// ------------------------------------------------------- figure summary --

/// The Figs 12/13 rank-group width over a population of `domains`: the
/// paper's 100k-domain groups over 1M domains, so ten groups at any scale.
pub fn rank_group_width(domains: usize) -> usize {
    (domains / 10).max(1)
}

/// The rank cut-offs §4.1 reports reachability under besides the whole
/// population: the top 1k and the top 10k.
const TOP_RANKS: [usize; 2] = [1_000, 10_000];

/// A class's column in [`QuicReachSummary::rank_groups`] (the Fig 13
/// order; an unreachable service has none, hence the last index) and its
/// row and column in [`EraTally`]'s transition table.
fn class_index(class: HandshakeClass) -> usize {
    match class {
        HandshakeClass::Amplification => 0,
        HandshakeClass::MultiRtt => 1,
        HandshakeClass::Retry => 2,
        HandshakeClass::OneRtt => 3,
        HandshakeClass::Unreachable => 4,
    }
}

/// One scenario's quicreach scan folded into what its readers render: the
/// [`QuicReachShard`] plus the parts of Figs 4, 5, 12/13, the §4.1
/// reachability buckets and the era matrix's budget column. Every part is
/// an exact count, so [`Merge`] is exactly associative and commutative and
/// the summary is the same bits at any worker count and claim size — held
/// to [`QuicReachSummary::from_results`] over [`scan_service`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QuicReachSummary {
    /// Class counts and the wire, round-trip and fault statistics.
    pub shard: QuicReachShard,
    /// Fig 4: Amplification-class handshakes per first-RTT amplification
    /// factor, keyed by the factor's bits.
    pub amplification_factors: HashMap<u64, usize, FastHashBuilder>,
    /// Fig 5: multi-RTT handshakes whose TLS payload alone exceeds the 3×
    /// limit of the scan's Initial.
    pub multi_rtt_tls_over_limit: usize,
    /// Fig 5: multi-RTT handshakes whose received wire bytes exceed it.
    pub multi_rtt_wire_over_limit: usize,
    /// Reachable services whose first flight exceeded the 3× budget.
    pub over_budget: usize,
    /// §4.1: reachable services ranked within the top 1k and the top 10k.
    pub reachable_top: [usize; 2],
    /// Figs 12/13: per rank group of [`rank_group_width`] ranks, its
    /// reachable services per class (amplification, multi-RTT, Retry,
    /// 1-RTT). A group with none may be missing from the tail.
    pub rank_groups: Vec<[usize; 4]>,
}

impl QuicReachSummary {
    /// Fold one classified result in; the shard's Initial size must be
    /// stamped first (the Fig 5 limit is its 3×).
    #[inline]
    fn push(&mut self, result: &QuicReachResult, group_width: usize) {
        self.shard.push(result);
        if result.class == HandshakeClass::Unreachable {
            return;
        }
        let limit = amplification::limit(self.shard.classes.initial_size);
        match result.class {
            HandshakeClass::Amplification => {
                let bits = result.amplification.to_bits();
                *self.amplification_factors.entry(bits).or_default() += 1;
            }
            HandshakeClass::MultiRtt => {
                self.multi_rtt_tls_over_limit += usize::from(result.tls_received > limit);
                self.multi_rtt_wire_over_limit += usize::from(result.wire_received > limit);
            }
            _ => {}
        }
        // A ratio of two integers, correctly rounded: exact against 3.
        self.over_budget += usize::from(result.amplification > FACTOR as f64);
        for (reachable, &top) in self.reachable_top.iter_mut().zip(&TOP_RANKS) {
            *reachable += usize::from(result.rank <= top);
        }
        let group = (result.rank - 1) / group_width;
        if self.rank_groups.len() <= group {
            self.rank_groups.resize(group + 1, [0; 4]);
        }
        self.rank_groups[group][class_index(result.class)] += 1;
    }

    /// Probe every QUIC service of one population chunk under `scenario`
    /// ([`scan_chunk`]) and fold the results in place — the engine keeps
    /// one summary per worker and folds each claim straight into it.
    pub fn fold(
        &mut self,
        world: &World,
        records: &[DomainRecord],
        scenario: Scenario,
        scratch: &mut ProbeScratch,
    ) {
        self.shard.classes.initial_size = scenario.initial_size;
        let width = rank_group_width(world.config.domains);
        scan_chunk(world, records, scenario, scratch, |row| {
            self.push(&row, width)
        });
    }

    /// The summary of materialized per-record results of a population of
    /// `domains` at `initial_size` — the reference the folds must match.
    pub fn from_results(
        initial_size: usize,
        domains: usize,
        results: &[QuicReachResult],
    ) -> QuicReachSummary {
        let mut summary = QuicReachSummary::identity();
        summary.shard.classes.initial_size = initial_size;
        for result in results {
            summary.push(result, rank_group_width(domains));
        }
        summary
    }

    /// Fig 4's CDF: every amplification factor counted as often as it was
    /// seen — the per-record CDF, built from the distinct factors.
    pub fn amplification_cdf(&self) -> Cdf {
        let factors = self.amplification_factors.iter();
        Cdf::from_counts(factors.map(|(&bits, &n)| (f64::from_bits(bits), n)))
    }
}

impl_merge! { QuicReachSummary {
    shard, amplification_factors, multi_rtt_tls_over_limit, multi_rtt_wire_over_limit, over_budget,
    reachable_top, rank_groups,
} }

// ------------------------------------------------------------ era join --

/// One era measured against the classical era, service for service: how
/// each classical class moved, and the round trips the era added where
/// both completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraTally {
    /// Services per (classical class, this era's class); read it with
    /// [`EraTally::transitions`].
    transitions: [[usize; 5]; 5],
    /// Round trips this era took minus the classical era's, summed over
    /// the services reachable in both.
    pub added_rtts: i64,
    /// Services reachable in both eras.
    pub both_reachable: usize,
}

impl EraTally {
    /// Pair one service's classical result with its result in this era.
    pub fn push(&mut self, classical: &QuicReachResult, now: &QuicReachResult) {
        assert_eq!(classical.rank, now.rank, "an era pair joins one service");
        self.transitions[class_index(classical.class)][class_index(now.class)] += 1;
        let reachable = |r: &QuicReachResult| r.class != HandshakeClass::Unreachable;
        if reachable(classical) && reachable(now) {
            self.added_rtts += i64::from(now.rtt_count) - i64::from(classical.rtt_count);
            self.both_reachable += 1;
        }
    }

    /// Services classified `from` classically and `to` in this era.
    pub fn transitions(&self, from: HandshakeClass, to: HandshakeClass) -> usize {
        self.transitions[class_index(from)][class_index(to)]
    }

    /// Mean round trips added over the services reachable in both eras (0
    /// when none is).
    pub fn mean_added_rtts(&self) -> f64 {
        if self.both_reachable == 0 {
            return 0.0;
        }
        self.added_rtts as f64 / self.both_reachable as f64
    }
}

impl_merge! { EraTally { transitions, added_rtts, both_reachable } }

/// One `(profile, plan, Initial)` cell probed under every
/// [`CertificateEra`]: each era's [`QuicReachSummary`] plus its
/// [`EraTally`] against the classical era (the classical tally is the
/// identity's diagonal), in [`CertificateEra::ALL`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct EraJoin {
    /// Per era, the summary of the cell scanned in that era.
    pub summaries: [QuicReachSummary; 3],
    /// Per era, the service-for-service tally against classical.
    pub tallies: [EraTally; 3],
}

impl EraJoin {
    /// The summary and tally of one era.
    pub fn era(&self, era: CertificateEra) -> (&QuicReachSummary, &EraTally) {
        let index = match era {
            CertificateEra::Classical => 0,
            CertificateEra::Hybrid => 1,
            CertificateEra::PostQuantum => 2,
        };
        (&self.summaries[index], &self.tallies[index])
    }

    /// Probe every QUIC service of one population chunk under `cell` in
    /// each era and fold the results in place: each era's rows into its
    /// summary, and each service's row in each era paired with its own
    /// classical row.
    pub fn fold(
        &mut self,
        world: &World,
        records: &[DomainRecord],
        cell: Scenario,
        scratch: &mut ProbeScratch,
    ) {
        let width = rank_group_width(world.config.domains);
        let rows = CertificateEra::ALL.map(|era| {
            let mut rows = Vec::new();
            scan_chunk(world, records, cell.with_era(era), scratch, |row| {
                rows.push(row)
            });
            rows
        });
        let eras = self.summaries.iter_mut().zip(&mut self.tallies);
        for ((summary, tally), era_rows) in eras.zip(&rows) {
            summary.shard.classes.initial_size = cell.initial_size;
            assert_eq!(
                era_rows.len(),
                rows[0].len(),
                "every era probes every service"
            );
            for (classical, now) in rows[0].iter().zip(era_rows) {
                summary.push(now, width);
                tally.push(classical, now);
            }
        }
    }
}

impl_merge! { EraJoin { summaries, tallies } }

/// The one-way latency every scenario class is simulated at: the slowest
/// step of the scanner's base range, so a timer that stays silent here
/// stays silent on every faster wire (see [`scan_chunk`]).
const CLASS_LATENCY: SimDuration = SimDuration::from_millis(*BASE_LATENCY_MS.end());

/// The scenario class of one cold streaming probe: every input that can
/// change a [`HandshakeOutcome`] under a deterministic network profile —
/// except the path's latency, which only stretches its clock.
///
/// The paper's core observation is that handshake behaviour is determined
/// by the chain and the amplification budget, not by domain identity — a
/// handful of provider configurations dominate the ecosystem — and that
/// its cost is counted in round trips. This key captures exactly that: two
/// records with equal `ProbeClass` exchange the same datagrams in the same
/// order, because every remaining per-record seed bit only fills
/// fixed-size fields (connection IDs, randoms, serial *bytes*) that the
/// outcome's counters and classification never read, and the record's
/// base latency (one of 40 steps, [`crate::behavior::base_latency`])
/// moves every event time by the same factor. The class is simulated once,
/// at `CLASS_LATENCY` (49 ms), and each member reads its own result off that
/// one by an integer rescale of the single time a [`QuicReachResult`]
/// carries; [`scan_chunk`] states when that is sound and checks it before
/// every insert.
///
/// Deliberately excluded: the server's certificate-compression support
/// (the quicreach client offers none, §3.2, so negotiation is always
/// `None`) and the record's address/name *bytes* — only their lengths
/// matter. The chain is represented by its [`ChainClass`] — the exact
/// DER-length inputs `quicert_pki` derives beside the issuer call itself,
/// the same key its chain-shape flyweight uses — rather than materialized
/// sizes, which keeps class derivation lock- and lookup-free on the
/// million-record path.
///
/// The key is what makes one [`ClassMemo`] sound across scenarios, pumps
/// and service ticks: it carries its own scenario axes (the era inside the
/// chain class, profile, Initial size), and churn reaches a probe only
/// through the chain class (`cert_generation` → serial width, drift →
/// `chain_id`, `era_override` → era), so a churned record is a *different
/// key*, never a stale entry. The fault plan is not a key field because
/// only [`FaultPlan::NONE`] folds ever consult the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeClass {
    /// The served QUIC chain: parent chain, effective era, leaf key and
    /// every length input of the leaf — the bytes the 3× budget is spent
    /// on.
    chain: ChainClass,
    /// The path overlay. Only RNG-free profiles reach the memo; the
    /// tunneled one adds encapsulation overhead to every client datagram.
    profile: NetworkProfile,
    /// The client Initial's size: the amplification budget's base, and
    /// what a tunnel's MTU is measured against.
    initial_size: usize,
    /// The operator: hypergiants resend without charging the budget.
    provider: quicert_pki::Provider,
    /// The server's behaviour family (coalescing, Retry, resend counts,
    /// PTO).
    behavior: quicert_pki::world::BehaviorKind,
    /// Whether a tunnelling load balancer sits in front (§4.1)…
    behind_lb: bool,
    /// …and the encapsulation bytes it adds before the internal MTU.
    lb_overhead: usize,
}

impl ProbeClass {
    /// Derive the class of a record; `None` when it serves no QUIC chain
    /// (never the case for a record that [`DomainRecord::has_quic`]). O(1)
    /// with no world lookups: everything is on the record.
    fn of(record: &DomainRecord, scenario: Scenario) -> Option<ProbeClass> {
        let quic = record.quic.as_ref()?;
        Some(ProbeClass {
            chain: ChainClass::quic(record, scenario.era)?,
            profile: scenario.profile,
            initial_size: scenario.initial_size,
            provider: quic.provider,
            behavior: quic.behavior,
            behind_lb: quic.behind_lb,
            lb_overhead: quic.lb_overhead,
        })
    }
}

/// Per-(era, profile) streaming-scan instruments: fresh-vs-replayed probe
/// counters plus one handshake-phase histogram per [`Phase`].
///
/// A [`ProbeScratch`] reporting into a registry registers one of these per
/// `(era, profile)` pair it scans, the first time it scans it, and the
/// fold updates the shared counters once per chunk. Everything observed is
/// derived from simulated time and pre-existing memo counters, so
/// reporting can never perturb a summary.
#[derive(Debug, Clone)]
struct ProbeMetrics {
    labels: (CertificateEra, NetworkProfile),
    issued: Arc<Counter>,
    replayed: Arc<Counter>,
    phases: [Arc<Histogram>; 4],
}

impl ProbeMetrics {
    /// Register (or re-acquire — registration is idempotent) the
    /// instruments labelled with `scenario`'s era × profile pair on
    /// `registry`.
    fn register(registry: &MetricsRegistry, scenario: Scenario) -> ProbeMetrics {
        let (era, profile) = (scenario.era, scenario.profile);
        let labels: &[(&str, &str)] = &[("era", era.name()), ("profile", profile.name())];
        let phases = Phase::ALL.map(|phase| {
            registry.labeled_histogram(
                "quicert_handshake_phase_seconds",
                &[
                    ("era", era.name()),
                    ("profile", profile.name()),
                    ("phase", phase.label()),
                ],
                "Simulated handshake phase durations by era and network profile",
                0.0,
                1.0,
                20,
            )
        });
        ProbeMetrics {
            labels: (era, profile),
            issued: registry.labeled_counter(
                "quicert_scan_probes_issued_total",
                labels,
                "Fresh handshake simulations run by the streaming scan",
            ),
            replayed: registry.labeled_counter(
                "quicert_scan_probes_replayed_total",
                labels,
                "Handshake outcomes replayed from the scenario-class memo",
            ),
            phases,
        }
    }
}

/// Scenario classes one [`ClassMemo`] holds at most (≈50 MB) — the
/// capacity every [`ClassTable`] in the tree is bounded at.
pub use quicert_pki::flyweight::CLASS_CAPACITY as MEMO_CLASS_CAPACITY;

/// The scenario-class flyweight table: one [`ClassOutcome`] per distinct
/// [`ProbeClass`], shared by every scratch that holds the `Arc` — the
/// scanner's instantiation of the tree's one [`ClassTable`]. The first
/// insert of a class wins; every member of a class simulates to the same
/// representative, so which worker won is invisible.
pub type ClassMemo = ClassTable<ProbeClass, ClassOutcome>;

/// What the memo keeps of a class representative simulated at
/// `CLASS_LATENCY`: the folded [`QuicReachResult`] without its rank, its
/// fault counters (a memoized wire injects none) and its time, the stall,
/// kept as a count of one-way latencies — 40 bytes a class, which is what
/// lets the table outlive its pump. `QuicReachResult::from_outcome` is a
/// pure function of the outcome that passes `rank` through, so a replay is
/// the stored outcome under the record's rank with its stall stretched to
/// the record's own latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassOutcome {
    class: HandshakeClass,
    amplification: f64,
    wire_received: u32,
    tls_received: u32,
    padding_received: u32,
    rtt_count: u32,
    client_transmissions: u32,
    server_transmissions: u32,
    stall_hops: u32,
}

impl ClassOutcome {
    /// The stored form of a representative's result, or `None` when it
    /// does not fit one exactly (a fault counter, a count past `u32`, a
    /// stall off the `CLASS_LATENCY` lattice): such a class is simulated
    /// on each member's own wire instead.
    fn of(result: &QuicReachResult) -> Option<ClassOutcome> {
        let faults = result.fault_drops + result.fault_corruptions + result.fault_duplications;
        let hop = CLASS_LATENCY.as_nanos();
        let narrow = |n: usize| u32::try_from(n).ok();
        if faults != 0 || !result.stall_ns.is_multiple_of(hop) {
            return None;
        }
        Some(ClassOutcome {
            class: result.class,
            amplification: result.amplification,
            wire_received: narrow(result.wire_received)?,
            tls_received: narrow(result.tls_received)?,
            padding_received: narrow(result.padding_received)?,
            rtt_count: result.rtt_count,
            client_transmissions: result.client_transmissions,
            server_transmissions: result.server_transmissions,
            stall_hops: u32::try_from(result.stall_ns / hop).ok()?,
        })
    }

    /// The class's result as `record`'s own probe measures it. Round
    /// trips, class, amplification and every byte count are scale-free;
    /// the one time in a result, `stall_ns`, is a whole number of one-way
    /// latencies and stretches with the path.
    fn replayed_for(&self, record: &DomainRecord) -> QuicReachResult {
        QuicReachResult {
            rank: record.rank,
            class: self.class,
            amplification: self.amplification,
            wire_received: self.wire_received as usize,
            tls_received: self.tls_received as usize,
            padding_received: self.padding_received as usize,
            rtt_count: self.rtt_count,
            fault_drops: 0,
            fault_corruptions: 0,
            fault_duplications: 0,
            client_transmissions: self.client_transmissions,
            server_transmissions: self.server_transmissions,
            stall_ns: u64::from(self.stall_hops) * base_latency(record).as_nanos(),
        }
    }
}

/// Per-worker state of the quicreach probe loop: a handle on a
/// scenario-class memo (see [`scan_chunk`]), this worker's share of its
/// counters, the registry it reports into, and the buffers its simulated
/// handshakes run in.
///
/// A pump worker's ([`ProbeScratch::sharing`]) memo is shared with every
/// other worker of its pass — the engine's one table, carried across pumps
/// and service ticks; a standalone scratch
/// ([`ProbeScratch::with_memo`]) owns a private one. Buffers survive from
/// one chunk to the next, their contents do not: `pending` is drained
/// before a fold returns, and every handshake rebuilds its connections in
/// the [`HandshakeScratch`]'s emptied buffers. So a reused scratch folds
/// exactly as a fresh one does — pinned by the fresh-vs-reused property
/// test here and, probe by probe, by `quicert-quic`'s reuse equivalence
/// test.
#[derive(Debug)]
pub struct ProbeScratch {
    /// Classes first simulated in the chunk being folded, stored into the
    /// memo once every record of the chunk has looked it up.
    pending: Vec<(ProbeClass, ClassOutcome)>,
    /// The buffers every simulated probe of this worker runs in.
    handshake: HandshakeScratch,
    memo: Option<Arc<ClassMemo>>,
    hits: u64,
    misses: u64,
    inserted: u64,
    /// The registry every scan reports into, under its own scenario's
    /// era × profile labels, and the instruments registered so far.
    registry: Option<Arc<MetricsRegistry>>,
    metrics: Vec<ProbeMetrics>,
}

impl ProbeScratch {
    /// An empty scratch with scenario-class memoization enabled.
    pub fn new() -> ProbeScratch {
        ProbeScratch::with_memo(true)
    }

    /// An empty scratch, memoizing into a private [`ClassMemo`] when
    /// `enabled`. A disabled scratch simulates every record — the
    /// reference path the determinism matrix holds the memoized path to.
    pub fn with_memo(enabled: bool) -> ProbeScratch {
        ProbeScratch::sharing(enabled.then(Arc::default))
    }

    /// An empty scratch memoizing into `memo` — a table other scratches
    /// (other workers, earlier pumps) read and fill too — or not at all.
    pub fn sharing(memo: Option<Arc<ClassMemo>>) -> ProbeScratch {
        ProbeScratch {
            pending: Vec::new(),
            handshake: HandshakeScratch::default(),
            memo,
            hits: 0,
            misses: 0,
            inserted: 0,
            registry: None,
            metrics: Vec::new(),
        }
    }

    /// Report into `registry`: every later [`scan_chunk`] through this
    /// scratch updates its scenario's era × profile probe counters once per
    /// chunk, registering them the first time it scans that pair.
    pub fn report_to(&mut self, registry: Arc<MetricsRegistry>) {
        self.registry = Some(registry);
    }

    /// The index in `metrics` of `scenario`'s instruments, registered on
    /// first use; `None` when the scratch reports nowhere.
    fn metrics_for(&mut self, scenario: Scenario) -> Option<usize> {
        let registry = self.registry.as_deref()?;
        let labels = (scenario.era, scenario.profile);
        let known = self.metrics.iter().position(|m| m.labels == labels);
        Some(known.unwrap_or_else(|| {
            self.metrics
                .push(ProbeMetrics::register(registry, scenario));
            self.metrics.len() - 1
        }))
    }

    /// Memo effectiveness over this scratch's lifetime: probes replayed,
    /// probes simulated while memoizing, and classes this scratch added to
    /// its table (a private table's size). All zero when memoization is
    /// disabled or every fold bypassed it (non-deterministic scenario).
    pub fn memo_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.inserted)
    }
}

impl Default for ProbeScratch {
    fn default() -> Self {
        ProbeScratch::new()
    }
}

/// Fold one **population** chunk (QUIC and non-QUIC records alike) into a
/// [`QuicReachShard`]: [`scan_chunk`] with the shard as its sink. The
/// summary merges exactly, so any chunking of the population, merged,
/// reproduces [`QuicReachShard::from_results`] over [`scan`] bit-for-bit.
pub fn fold_chunk(
    world: &World,
    records: &[DomainRecord],
    scenario: Scenario,
    scratch: &mut ProbeScratch,
) -> QuicReachShard {
    let mut shard = QuicReachShard::identity();
    shard.classes.initial_size = scenario.initial_size;
    scan_chunk(world, records, scenario, scratch, |row| shard.push(&row));
    shard
}

/// Probe every QUIC service of one **population** chunk and hand each
/// result to `sink`, in record order: the one probe loop. The engine's pump
/// hands workers owned chunks (no per-chunk `Vec<&DomainRecord>` is ever
/// built) and chooses the sink — a shard ([`fold_chunk`]), a summary
/// ([`QuicReachSummary::fold`]) or one era's rows of a join
/// ([`EraJoin::fold`]).
/// Per-record RNG forking makes outcomes chunk-size invariant: any chunking
/// yields, record for record, [`scan_service`]'s results.
///
/// When the scratch carries a memo and the scenario is deterministic
/// (*both* [`NetworkProfile::is_deterministic`] and
/// [`FaultPlan::is_deterministic`]), each record is first keyed by
/// `ProbeClass`: a class the [`ClassMemo`] knows — from an earlier chunk,
/// another worker, an earlier pump or service tick — replays its stored
/// result under the record's rank and latency; the rest simulate and are
/// stored once the chunk is folded (lookups all precede the chunk's
/// inserts, so two records of one new class in one chunk both simulate,
/// and the hit and miss counts are a function of the chunking alone).
/// Replayed and fresh results reach the sink in record order, so the
/// order-sensitive [`StreamSummary`] float sums match the unmemoized path
/// bit for bit.
///
/// ## Why one simulation serves every latency
///
/// A class miss simulates the record's probe with both directions of its
/// wire at `CLASS_LATENCY` — the slowest base step — and the record's
/// own result, like every later replay, is that representative with
/// `stall_ns` rescaled (`ClassOutcome::replayed_for`). Two facts make
/// this exact rather than approximate:
///
/// - **The lattice.** On a wire that draws no randomness a delivery
///   happens exactly one latency `L` after its send, sends happen at time
///   zero or in reaction to a delivery, and no endpoint writes a clock
///   reading into a packet (ACK delay is encoded as 0). As long as no
///   timer fires, every event of the exchange therefore sits at `k · L`
///   for an integer `k`, the event *order* is the same for every `L`, and
///   so are all byte counts, the round-trip count
///   (`⌈k_done · L / 2L⌉`) and the first-flight cut (a comparison of two
///   lattice times). Only durations — `stall_ns` and the phase timeline —
///   carry `L`, linearly.
/// - **Timers are monotone in `L`.** A PTO is armed at some `k₁ · L` for a
///   fixed duration `D` and disarmed by a delivery at `k₂ · L`; it stays
///   silent iff `(k₂ − k₁) · L ≤ D`. Durations are fixed and waits only
///   shrink with `L`, so a timer that did not fire at the largest latency
///   cannot fire at a smaller one.
///
/// Neither is assumed: `latency_free_timeline` checks the representative
/// before every insert. It is stored iff no timer fired *and* its whole
/// timeline sits on the `k · CLASS_LATENCY` lattice, **or** no datagram
/// was ever delivered (the MTU black hole of §4.1: the client's PTOs fire
/// into the void and the latency is never read). A representative that
/// passes neither test is not stored; its record is simulated on its own
/// wire, exactly as a memo-free scan would, and so is every later member
/// of the class (each counted as a miss — none exists on any generated
/// world, and the exact-count guards would show one).
///
/// What is *not* claimed: anything about wires that draw randomness.
/// Profiles that consume RNG (lossy drops/corruption, long-fat jitter)
/// and every non-identity fault plan (its injector draws RNG per datagram)
/// make outcomes depend on per-record seeds beyond the class and put
/// events off the lattice, so they bypass the memo and keep per-record
/// simulation — a shared table is never polluted by a fault-injected
/// result. [`scan_service`] never consults the memo either: it is the
/// per-record oracle this loop is held to.
///
/// Phase histograms observe fresh outcomes only (replays would count a
/// class's phases once per member): on a class miss, the representative's
/// timeline rescaled to the *missing record's own* latency, so every
/// observed value is one a memo-free probe of a real record produces.
pub fn scan_chunk(
    world: &World,
    records: &[DomainRecord],
    scenario: Scenario,
    scratch: &mut ProbeScratch,
    mut sink: impl FnMut(QuicReachResult),
) {
    let metrics = scratch.metrics_for(scenario);
    let memo = scratch
        .memo
        .as_deref()
        .filter(|_| scenario.profile.is_deterministic() && scenario.plan.is_deterministic());
    let (mut issued, mut replayed) = (0u64, 0u64);
    for record in records.iter().filter(|record| record.has_quic()) {
        let class = memo.and_then(|memo| Some((memo, ProbeClass::of(record, scenario)?)));
        if let Some(cached) = class.and_then(|(memo, class)| memo.get(&class)) {
            sink(cached.replayed_for(record));
            replayed += 1;
            continue;
        }
        // A new class: simulate it once on the slowest wire and, when the
        // outcome provably stretches with the path, read this record's
        // result off it and queue it for the memo.
        let learned = class.and_then(|(_, class)| {
            let out = simulate(
                world,
                record,
                scenario,
                Some(CLASS_LATENCY),
                &mut scratch.handshake,
            )?;
            let timeline = latency_free_timeline(&out, base_latency(record))?;
            let stored = ClassOutcome::of(&QuicReachResult::from_outcome(record.rank, &out))?;
            scratch.pending.push((class, stored));
            Some((stored.replayed_for(record), timeline))
        });
        // No memo, or a representative the check refused: the record's
        // own wire. A record without a QUIC chain has no probe; skip it.
        let Some((result, timeline)) = learned.or_else(|| {
            let out = simulate(world, record, scenario, None, &mut scratch.handshake)?;
            Some((
                QuicReachResult::from_outcome(record.rank, &out),
                out.timeline,
            ))
        }) else {
            continue;
        };
        issued += 1;
        // Everything read is simulated time.
        if let (Some(index), Some(phases)) = (metrics, timeline.phases()) {
            for (phase, ns) in phases {
                scratch.metrics[index].phases[phase.index()].observe(ns as f64 / 1e9);
            }
        }
        sink(result);
    }
    if let Some(memo) = memo {
        scratch.hits += replayed;
        scratch.misses += issued;
        for (class, stored) in scratch.pending.drain(..) {
            scratch.inserted += memo.insert(class, &stored) as u64;
        }
    }
    if let Some(index) = metrics {
        scratch.metrics[index].issued.add(issued);
        scratch.metrics[index].replayed.add(replayed);
    }
}

/// The insert-time soundness check of the latency-free memo: the timeline
/// of `out` — a class representative simulated at [`CLASS_LATENCY`] —
/// as a probe at one-way latency `own` records it, or `None` when `out`
/// may not stand in for other latencies.
///
/// Sound means: no timer fired and every timestamp is a whole number of
/// `CLASS_LATENCY` hops (see [`scan_chunk`] for why that suffices), or
/// nothing was ever delivered, so no latency was ever read.
fn latency_free_timeline(out: &HandshakeOutcome, own: SimDuration) -> Option<HandshakeTimeline> {
    let on_lattice = out
        .timeline
        .rescaled(CLASS_LATENCY.as_nanos(), own.as_nanos());
    let sound = (out.timer_fires == 0 && on_lattice.is_some()) || out.deliveries == 0;
    on_lattice.filter(|_| sound)
}

/// Build the [`HandshakeProbe`] for one service under one [`Scenario`];
/// shared by every scan path. The era swaps the served chain and the leaf
/// key — the scanner client is untouched, so the probe parameters only
/// differ on the server side, exactly as a re-scan of a migrated PKI would.
///
/// `None` when the record serves no QUIC chain — there is nothing to probe.
fn probe_for(world: &World, record: &DomainRecord, scenario: Scenario) -> Option<HandshakeProbe> {
    let initial_size = scenario.initial_size;
    // A churned deployment serves its override era regardless of the scan
    // era; resolve once so the chain and the CertificateVerify key agree.
    let era = record
        .quic
        .as_ref()
        .map(|q| q.effective_era(scenario.era))
        .unwrap_or(scenario.era);
    let chain = world.quic_chain_era(record, era)?;
    let server = server_config_for_era(world, record, chain, era);
    // quicreach's stack offers no certificate compression (§3.2).
    let client = ClientConfig::scanner(
        initial_size,
        quicert_pki::World::server_addr(record),
        record.seed ^ initial_size as u64,
    );
    // The chaos plan overlays the profiled wire (max-merge, like profiles
    // themselves); FaultPlan::NONE touches nothing at all.
    let mut wire = wire_for_profile(record, scenario.profile);
    scenario.plan.apply(&mut wire);
    Some(HandshakeProbe {
        client,
        server,
        wire,
        seed: record.seed,
    })
}

/// One cold handshake against `record` under `scenario`, run in
/// `handshake`'s buffers: on the record's own wire, or with both
/// directions of it at `latency` instead of the record's base latency.
/// `None` when the record serves no QUIC chain.
fn simulate(
    world: &World,
    record: &DomainRecord,
    scenario: Scenario,
    latency: Option<SimDuration>,
    handshake: &mut HandshakeScratch,
) -> Option<HandshakeOutcome> {
    let mut probe = probe_for(world, record, scenario)?;
    if let Some(latency) = latency {
        probe.wire.a_to_b.latency = latency;
        probe.wire.b_to_a.latency = latency;
    }
    Some(handshake.run(probe.client, probe.server, &mut probe.wire, probe.seed))
}

/// Probe one service under one [`Scenario`] in `handshake`'s buffers, on
/// its own wire and never through a memo: the oracle every fold is held to.
///
/// # Panics
///
/// When `record` serves no QUIC chain (callers filter on [`DomainRecord::has_quic`]).
pub fn scan_service(
    world: &World,
    record: &DomainRecord,
    scenario: Scenario,
    handshake: &mut HandshakeScratch,
) -> QuicReachResult {
    let out = simulate(world, record, scenario, None, handshake).expect("a QUIC service to probe");
    QuicReachResult::from_outcome(record.rank, &out)
}

/// Probe every QUIC service of a world at one Initial size under the
/// paper's baseline scenario ([`Scenario::at`]): a serial [`scan_service`]
/// per service of the population derived as one chunk — the memo-free,
/// pump-free reference.
pub fn scan(world: &World, initial_size: usize) -> Vec<QuicReachResult> {
    let records = world.domain_chunk(1, world.config.domains);
    let handshake = &mut HandshakeScratch::default();
    let probe = |record| scan_service(world, record, Scenario::at(initial_size), handshake);
    let services = records.iter().filter(|record| record.has_quic());
    services.map(probe).collect()
}

// ------------------------------------------------------------ warm path --

/// The simulated wall-clock second at which every cold (first-visit)
/// handshake of a warm scan happens. Chosen away from epoch boundaries so a
/// short revisit delay never straddles a STEK rotation by accident.
pub(crate) const WARM_SCAN_EPOCH_SECS: u64 = 1_764_000_600;

/// Revisit delay of the warm policies, seconds.
pub(crate) const WARM_REVISIT_DELAY_SECS: u64 = 60;

/// Label mixed into a record's seed to derive its server's STEK master key.
const STEK_SEED_LABEL: u64 = 0x5354_454B_5345_4544;

/// The wall clock of the warm visit under one [`ResumptionPolicy`].
pub(crate) fn warm_visit_secs(policy: ResumptionPolicy) -> u64 {
    let config = TicketConfig::default();
    match policy {
        // Cold-only and warm revisit shortly after the first handshake.
        ResumptionPolicy::ColdOnly | ResumptionPolicy::WarmAfterFirstVisit => {
            WARM_SCAN_EPOCH_SECS + WARM_REVISIT_DELAY_SECS
        }
        // Past the lifetime *and* past the previous-STEK window, so the
        // server rejects deterministically.
        ResumptionPolicy::TicketExpired => {
            WARM_SCAN_EPOCH_SECS
                + config.lifetime_secs
                + 2 * config.rotation_secs
                + WARM_REVISIT_DELAY_SECS
        }
    }
}

/// One service's cold-vs-warm measurement pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmScanResult {
    /// Service rank.
    pub rank: usize,
    /// The first visit: full handshake against a ticket-issuing server.
    pub cold: QuicReachResult,
    /// The second visit: resumed when the policy offered a ticket and the
    /// server accepted it, cold fallback otherwise.
    pub warm: QuicReachResult,
    /// Whether the warm visit offered a PSK at all.
    pub offered_psk: bool,
    /// Whether the server accepted the offer (handshake resumed).
    pub resumed: bool,
    /// Certificate-message bytes on the wire during the cold visit.
    pub cold_cert_bytes: usize,
    /// Certificate-message bytes during the warm visit (0 when resumed).
    pub warm_cert_bytes: usize,
    /// Whether the warm first flight exceeded the 3× budget.
    pub warm_exceeds_limit: bool,
    /// Round trips saved by the warm visit (cold RTTs − warm RTTs; 0 or
    /// negative when nothing was saved, e.g. unreachable either way).
    pub rtts_saved: i64,
}

impl WarmScanResult {
    fn from_outcome(rank: usize, out: &ResumptionOutcome) -> WarmScanResult {
        WarmScanResult {
            rank,
            cold: QuicReachResult::from_outcome(rank, &out.cold),
            warm: QuicReachResult::from_outcome(rank, &out.warm),
            offered_psk: out.offered_psk,
            resumed: out.warm.resumed,
            cold_cert_bytes: out.cold.server_stats.certificate_message_len,
            warm_cert_bytes: out.warm.server_stats.certificate_message_len,
            warm_exceeds_limit: out.warm.exceeds_limit(),
            rtts_saved: out.cold.rtt_count as i64 - out.warm.rtt_count as i64,
        }
    }
}

/// The mergeable summary a warm scan folds into: what the §5 resumption
/// tables read of its [`WarmScanResult`]s, and nothing else.
///
/// Every field is an integer count or sum, so [`Merge`] is exactly
/// associative and commutative and a pumped scan folds bit-for-bit the
/// aggregate of the serial per-record results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmAggregate {
    /// Services probed.
    pub total: usize,
    /// Cold visits that completed (any class but Unreachable).
    pub cold_reachable: usize,
    /// Warm visits that actually resumed (PSK accepted).
    pub resumed: usize,
    /// Resumed visits whose first flight exceeded the 3× budget. 0 on
    /// loss-free profiles — the certificate-free flight fits by
    /// construction. Under loss, buggy servers (uncharged resends, §4.3)
    /// can retransmit even the tiny resumed flight past 3× when the
    /// client's ack is dropped, so a rare nonzero tail survives there.
    pub resumed_over_budget: usize,
    /// Resumed visits with any certificate bytes on the wire (must be 0).
    pub resumed_with_cert_bytes: usize,
    /// Total certificate bytes on the wire, cold visits.
    pub cold_cert_bytes: u64,
    /// Total certificate bytes on the wire, warm visits.
    pub warm_cert_bytes: u64,
    /// Cold visits classified Multi-RTT.
    pub cold_multi_rtt: usize,
    /// Of those, warm visits that shaved at least one round trip.
    pub multi_rtt_saved_a_round: usize,
    /// Round trips saved, summed over the cold Multi-RTT population.
    pub multi_rtt_rtts_saved: i64,
}

impl WarmAggregate {
    /// Fold one service's cold-vs-warm pair in.
    pub fn push(&mut self, r: &WarmScanResult) {
        self.total += 1;
        if r.cold.class != HandshakeClass::Unreachable {
            self.cold_reachable += 1;
        }
        self.cold_cert_bytes += r.cold_cert_bytes as u64;
        self.warm_cert_bytes += r.warm_cert_bytes as u64;
        if r.resumed {
            self.resumed += 1;
            self.resumed_over_budget += usize::from(r.warm_exceeds_limit);
            self.resumed_with_cert_bytes += usize::from(r.warm_cert_bytes > 0);
        }
        if r.cold.class == HandshakeClass::MultiRtt {
            self.cold_multi_rtt += 1;
            self.multi_rtt_rtts_saved += r.rtts_saved;
            self.multi_rtt_saved_a_round += usize::from(r.rtts_saved >= 1);
        }
    }

    /// Mean round trips saved across the cold Multi-RTT population.
    pub fn mean_rtts_saved_multi(&self) -> f64 {
        self.multi_rtt_rtts_saved as f64 / self.cold_multi_rtt.max(1) as f64
    }
}

impl_merge! { WarmAggregate {
    total, cold_reachable, resumed, resumed_over_budget, resumed_with_cert_bytes, cold_cert_bytes,
    warm_cert_bytes, cold_multi_rtt, multi_rtt_saved_a_round, multi_rtt_rtts_saved,
} }

/// Probe one service cold-then-warm under the scenario's
/// [`ResumptionPolicy`] ([`Scenario::warm_policy`]).
///
/// The first visit runs the usual certificate-laden handshake against the
/// record's server *with ticket issuance enabled*, and the second visit
/// re-probes offering the obtained ticket per the policy (stateful, so
/// never memoized).
/// Cold (ticket-free) scans are untouched: their servers never issue
/// tickets, so their artifacts stay byte-for-byte identical.
///
/// The probe uses the record's *domain name* as SNI (tickets are
/// host-bound); its parameters are otherwise exactly [`scan_service`]'s,
/// via the shared probe builder, run in `scratch`'s handshake buffers (its
/// memo is never read). Every visit draws from per-record RNG streams, so
/// claim splits and worker counts cannot change any result.
/// Cold visits pay the era's chain while warm visits resume
/// certificate-free — the resumed flight is era-independent, which is
/// exactly what makes resumption the strongest PQC mitigation — and both
/// visits run over the plan-overlaid wire, so a sweep can ask whether
/// resumption still pays once the path itself is hostile.
///
/// # Panics
///
/// Like [`scan_service`], when the record serves no QUIC chain.
pub fn warm_service(
    world: &World,
    record: &DomainRecord,
    scenario: Scenario,
    scratch: &mut ProbeScratch,
) -> WarmScanResult {
    let policy = scenario.warm_policy();
    let mut probe = probe_for(world, record, scenario).expect("a QUIC service to probe");
    probe.client.server_name = record.name.clone().into();
    let host = ResumptionHost::issuing(record.seed ^ STEK_SEED_LABEL, WARM_SCAN_EPOCH_SECS);
    probe.server.resumption = Some(host);
    let out = scratch.handshake.resume(ResumptionProbe {
        client: probe.client,
        server: probe.server,
        wire: probe.wire,
        seed: probe.seed,
        warm_now_secs: warm_visit_secs(policy),
        offer_ticket: policy.offers_ticket(),
    });
    WarmScanResult::from_outcome(record.rank, &out)
}

// ------------------------------------------------- frozen compat block --
//
// `perfbench/` is frozen and calls exactly these three positional
// signatures (plus `ScanEngine::stream_quicreach_chaos` in quicert-core and
// `compression::probe_records`). They build a `Scenario` and delegate, so a
// new axis never touches them; nothing else in the workspace may call them
// — use the scenario forms.

#[doc(hidden)]
pub fn fold_records_scratch(
    world: &World,
    records: &[DomainRecord],
    initial_size: usize,
    profile: NetworkProfile,
    era: CertificateEra,
    scratch: &mut ProbeScratch,
) -> QuicReachShard {
    let scenario = Scenario::at(initial_size)
        .with_profile(profile)
        .with_era(era);
    fold_chunk(world, records, scenario, scratch)
}

#[doc(hidden)]
pub fn fold_records_scratch_chaos(
    world: &World,
    records: &[DomainRecord],
    initial_size: usize,
    profile: NetworkProfile,
    era: CertificateEra,
    plan: FaultPlan,
    scratch: &mut ProbeScratch,
) -> QuicReachShard {
    let scenario = Scenario::at(initial_size)
        .with_profile(profile)
        .with_era(era)
        .with_plan(plan);
    fold_chunk(world, records, scenario, scratch)
}

#[doc(hidden)]
pub fn warm_scan_records(
    world: &World,
    records: &[&DomainRecord],
    initial_size: usize,
    profile: NetworkProfile,
    policy: ResumptionPolicy,
) -> Vec<WarmScanResult> {
    let scenario = Scenario::at(initial_size)
        .with_profile(profile)
        .with_policy(policy);
    let scratch = &mut ProbeScratch::with_memo(false);
    let probe = |record: &&DomainRecord| warm_service(world, record, scenario, scratch);
    records.iter().map(probe).collect()
}

// --------------------------------------------- end frozen compat block --

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quicert_pki::flyweight::SHARDS as MEMO_SHARDS;
    use quicert_pki::WorldConfig;

    /// The paper's baseline at its reporting size; tests vary one axis.
    const BASE: Scenario = Scenario::at(1362);

    /// A 3k world and its population.
    fn world() -> (World, Vec<DomainRecord>) {
        let world = World::streaming(WorldConfig {
            domains: 3_000,
            seed: 33,
        });
        let records = world.domain_chunk(1, world.config.domains);
        (world, records)
    }

    fn services(records: &[DomainRecord]) -> impl Iterator<Item = &DomainRecord> {
        records.iter().filter(|record| record.has_quic())
    }

    /// The Fig 3 bar of materialized results.
    fn summarize(initial_size: usize, results: &[QuicReachResult]) -> ScanSummary {
        QuicReachShard::from_results(initial_size, results).classes
    }

    /// The per-record oracle over an explicit service list.
    fn scan_each(
        world: &World,
        records: &[&DomainRecord],
        scenario: Scenario,
    ) -> Vec<QuicReachResult> {
        let fresh = HandshakeScratch::default;
        let probe = |record: &&DomainRecord| scan_service(world, record, scenario, &mut fresh());
        records.iter().map(probe).collect()
    }

    /// The cold-then-warm probe over an explicit service list.
    fn warm_each(
        world: &World,
        records: &[&DomainRecord],
        scenario: Scenario,
    ) -> Vec<WarmScanResult> {
        let mut scratch = ProbeScratch::with_memo(false);
        let mut probe =
            |record: &&DomainRecord| warm_service(world, record, scenario, &mut scratch);
        records.iter().map(&mut probe).collect()
    }

    /// The Vec-building reference [`fold_chunk`] must match: the chunk's
    /// QUIC services scanned into per-record results, folded afterwards.
    fn materialized_fold(
        world: &World,
        chunk: &[DomainRecord],
        scenario: Scenario,
    ) -> QuicReachShard {
        let services: Vec<&DomainRecord> = chunk.iter().filter(|r| r.has_quic()).collect();
        QuicReachShard::from_results(
            scenario.initial_size,
            &scan_each(world, &services, scenario),
        )
    }

    #[test]
    fn rank_group_width_scales() {
        // Ten groups at any population: the paper's 100k groups over 1M
        // domains, 500 over 5k — and never an empty width.
        assert_eq!(rank_group_width(1_000_000), 100_000);
        assert_eq!(rank_group_width(5_000), 500);
        assert_eq!(rank_group_width(7), 1);
    }

    #[test]
    fn sweep_sizes_match_the_paper() {
        let sizes = sweep_sizes();
        assert_eq!(sizes[0], 1200);
        assert_eq!(*sizes.last().unwrap(), 1472);
        assert_eq!(sizes.len(), 29);
        // The largest Initial a 1500-byte MTU admits.
        assert_eq!(1500 - quicert_netsim::UDP_IPV4_OVERHEAD, 1472);
    }

    #[test]
    fn classification_shares_match_fig3_at_default_initial() {
        let (world, _) = world();
        let results = scan(&world, 1362);
        let summary = summarize(1362, &results);
        let ampl = summary.share_of_reachable(HandshakeClass::Amplification);
        let multi = summary.share_of_reachable(HandshakeClass::MultiRtt);
        let one = summary.share_of_reachable(HandshakeClass::OneRtt);
        // Paper: 61% / 38% / 0.75% (±tolerance for a 3k-domain world).
        assert!((ampl - 61.0).abs() < 8.0, "amplification {ampl}");
        assert!((multi - 38.0).abs() < 8.0, "multi-rtt {multi}");
        assert!(one < 4.0, "one-rtt {one}");
    }

    #[test]
    fn larger_initials_shift_multi_rtt_to_one_rtt() {
        let (world, _) = world();
        let small = summarize(1200, &scan(&world, 1200));
        let large = summarize(1472, &scan(&world, 1472));
        assert!(large.one_rtt >= small.one_rtt);
        assert!(large.multi_rtt <= small.multi_rtt);
    }

    #[test]
    fn reachability_drops_for_large_initials() {
        let (world, _) = world();
        let small = summarize(1200, &scan(&world, 1200));
        let large = summarize(1472, &scan(&world, 1472));
        assert!(
            large.reachable() < small.reachable(),
            "LB-tunnelled services must vanish at 1472 ({} vs {})",
            large.reachable(),
            small.reachable()
        );
    }

    #[test]
    fn amplifying_handshakes_have_modest_factors() {
        // Fig 4: amplification factors for complete handshakes stay < 6x.
        let (world, _) = world();
        for r in scan(&world, 1362) {
            if r.class == HandshakeClass::Amplification {
                assert!(r.amplification > 3.0);
                assert!(r.amplification < 6.5, "factor {}", r.amplification);
            }
        }
    }

    #[test]
    fn the_figure_parts_count_what_the_per_record_readers_counted() {
        // Fig 4 from the factor counts has the per-record CDF's samples;
        // the §4.1 buckets and the budget column count the rows they did.
        let (world, _) = world();
        let rows = scan(&world, 1362);
        let summary = QuicReachSummary::from_results(1362, 3_000, &rows);
        let reachable = || {
            rows.iter()
                .filter(|r| r.class != HandshakeClass::Unreachable)
        };
        let amplifying = rows
            .iter()
            .filter(|r| r.class == HandshakeClass::Amplification)
            .map(|r| r.amplification);
        let (cdf, want) = (summary.amplification_cdf(), Cdf::new(amplifying.collect()));
        assert!(cdf.len() > 50);
        assert_eq!(format!("{cdf:?}"), format!("{want:?}"));
        let top = |n| reachable().filter(|r| r.rank <= n).count();
        assert_eq!(summary.reachable_top, [top(1_000), top(10_000)]);
        let over = reachable().filter(|r| r.amplification > 3.0).count();
        assert_eq!(summary.over_budget, over);
        let groups: usize = summary.rank_groups.iter().flatten().sum();
        assert_eq!(groups, summary.shard.classes.reachable());
    }

    #[test]
    fn fig5_counts_payloads_strictly_over_the_limit() {
        // At 1362 B the limit is 4,086 B: a payload of exactly the limit
        // fits it, one byte more does not.
        let multi = |tls_received, wire_received| QuicReachResult {
            rank: 1,
            class: HandshakeClass::MultiRtt,
            amplification: 2.0,
            wire_received,
            tls_received,
            padding_received: 0,
            rtt_count: 2,
            fault_drops: 0,
            fault_corruptions: 0,
            fault_duplications: 0,
            client_transmissions: 1,
            server_transmissions: 1,
            stall_ns: 0,
        };
        let rows = [
            multi(4_086, 4_086),
            multi(4_087, 4_086),
            multi(4_086, 4_087),
        ];
        let summary = QuicReachSummary::from_results(1362, 10, &rows);
        assert_eq!(summary.shard.classes.multi_rtt, 3);
        assert_eq!(summary.multi_rtt_tls_over_limit, 1);
        assert_eq!(summary.multi_rtt_wire_over_limit, 1);
    }

    #[test]
    fn batch_size_does_not_change_outcomes() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(90).collect();
        let whole = scan_each(&world, &records, Scenario::at(1250));
        for chunk in [1usize, 7, 30] {
            let pieces: Vec<QuicReachResult> = records
                .chunks(chunk)
                .flat_map(|shard| scan_each(&world, shard, Scenario::at(1250)))
                .collect();
            assert_eq!(whole, pieces, "chunk size {chunk}");
        }
    }

    #[test]
    fn scan_chunk_hands_its_sink_the_oracles_results_in_record_order() {
        // Any chunking, one reused memoizing scratch: the collected rows are
        // the memo-free per-record scan, field for field, in rank order.
        let (world, population) = world();
        let mut scratch = ProbeScratch::new();
        let mut collected = Vec::new();
        for chunk in population.chunks(97) {
            scan_chunk(&world, chunk, BASE, &mut scratch, |r| collected.push(r));
        }
        assert!(scratch.memo_stats().0 > 0, "some classes replayed");
        assert_eq!(collected, scan(&world, 1362));
    }

    #[test]
    fn scratch_fold_matches_fold_records_and_reuse_is_clean() {
        let (world, mut owned) = world();
        owned.truncate(160);

        // One scratch folds several chunks back to back; every result must
        // equal both a fresh-scratch fold and the Vec-building fold.
        let mut reused = ProbeScratch::new();
        for chunk in owned.chunks(50) {
            let reference = materialized_fold(&world, chunk, BASE);
            let mut fresh = ProbeScratch::new();
            let from_fresh = fold_chunk(&world, chunk, BASE, &mut fresh);
            let from_reused = fold_chunk(&world, chunk, BASE, &mut reused);
            assert_eq!(reference, from_fresh);
            assert_eq!(from_fresh, from_reused, "scratch reuse leaked state");
        }
    }

    #[test]
    fn memoized_fold_is_bit_identical_to_direct_fold_per_profile() {
        // The flyweight must be invisible in the folded shard for every
        // profile: deterministic ones replay cached outcomes, RNG-consuming
        // ones bypass the memo — either way the shard matches a memo-less
        // scratch bit-for-bit.
        let (world, mut owned) = world();
        owned.truncate(400);
        for profile in NetworkProfile::ALL {
            for era in CertificateEra::ALL {
                let scenario = BASE.with_profile(profile).with_era(era);
                let mut memoized = ProbeScratch::new();
                let mut direct = ProbeScratch::with_memo(false);
                for chunk in owned.chunks(120) {
                    let a = fold_chunk(&world, chunk, scenario, &mut memoized);
                    let b = fold_chunk(&world, chunk, scenario, &mut direct);
                    assert_eq!(a, b, "profile {profile} era {era:?}");
                }
                assert_eq!(direct.memo_stats(), (0, 0, 0));
            }
        }
    }

    #[test]
    fn memo_counters_account_for_every_probed_record() {
        let (world, owned) = world();
        let probed = owned.iter().filter(|r| r.has_quic()).count() as u64;

        // Deterministic profile: every probed record is a hit or a miss,
        // and reuse across chunks turns same-class repeats into hits. The
        // class space (chains × name lengths × SAN counts × behaviours ×
        // LB overheads — no latency) is already shared at 3k domains;
        // `memo_guards` enforces the at-scale counts.
        let mut scratch = ProbeScratch::new();
        for chunk in owned.chunks(64) {
            fold_chunk(&world, chunk, BASE, &mut scratch);
        }
        let (hits, misses, distinct) = scratch.memo_stats();
        assert_eq!(hits + misses, probed);
        assert!(distinct <= misses);
        // Measured 279 hits / 341 misses of 620; with the wire's 40
        // latency steps in the key it was 38 / 582.
        assert!(
            hits * 3 >= probed,
            "{hits} hits across {probed} probed records: a per-record field in the key?"
        );

        // RNG-consuming profile: the memo is bypassed entirely.
        let mut lossy = ProbeScratch::new();
        for chunk in owned.chunks(64) {
            fold_chunk(
                &world,
                chunk,
                BASE.with_profile(NetworkProfile::Lossy),
                &mut lossy,
            );
        }
        assert_eq!(lossy.memo_stats(), (0, 0, 0));
    }

    /// `record` as another member of its scenario class: the same
    /// deployment under a seed whose base-latency step is `step`. (A new
    /// seed redraws the serial; the ~1/256 that change its DER width are a
    /// different class and are passed over.)
    fn class_member_at_step(record: &DomainRecord, scenario: Scenario, step: u64) -> DomainRecord {
        let class = ProbeClass::of(record, scenario);
        (1..)
            .map(|back| DomainRecord {
                seed: (record.seed / 40 - back) * 40 + step,
                ..record.clone()
            })
            .find(|member| ProbeClass::of(member, scenario) == class)
            .expect("some seed keeps the serial width")
    }

    fn prop_world() -> &'static (World, Vec<DomainRecord>) {
        static WORLD: OnceLock<(World, Vec<DomainRecord>)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let (world, mut services) = world();
            services.retain(DomainRecord::has_quic);
            (world, services)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Scale invariance, the property the latency-free memo stands on:
        // whatever service, era, deterministic profile and sweep size a
        // case draws, the class simulated once at CLASS_LATENCY passes the
        // insert check, and rescaled it equals the memo-free probe of a
        // member of the class at *every one* of the 40 base-latency steps
        // — result and timeline — not just at the sampled record's own.
        #[test]
        fn one_representative_rescaled_equals_all_forty_steps_of_its_class(
            pick in 0usize..100_000,
            era_idx in 0usize..CertificateEra::ALL.len(),
            tunneled in any::<bool>(),
            size_idx in 0usize..29,
        ) {
            let (world, services) = prop_world();
            let record = &services[pick % services.len()];
            let profile = if tunneled { NetworkProfile::Tunneled } else { NetworkProfile::Ideal };
            let scenario = Scenario::at(sweep_sizes()[size_idx])
                .with_era(CertificateEra::ALL[era_idx])
                .with_profile(profile);
            let out = simulate(world, record, scenario, Some(CLASS_LATENCY), &mut HandshakeScratch::default()).expect("a QUIC service");
            let representative = QuicReachResult::from_outcome(record.rank, &out);
            for step in 0..40 {
                let member = class_member_at_step(record, scenario, step);
                let own = base_latency(&member);
                prop_assert_eq!(own.as_millis(), BASE_LATENCY_MS.start() + step);
                let reference = simulate(world, &member, scenario, None, &mut HandshakeScratch::default()).expect("a QUIC service");
                prop_assert_eq!(
                    ClassOutcome::of(&representative).map(|stored| stored.replayed_for(&member)),
                    Some(scan_service(world, &member, scenario, &mut HandshakeScratch::default())),
                    "rank {} step {} {:?}", record.rank, step, scenario
                );
                prop_assert_eq!(
                    latency_free_timeline(&out, own),
                    Some(reference.timeline),
                    "rank {} step {} {:?}", record.rank, step, scenario
                );
            }
        }
    }

    /// A probe of `record` whose server arms a 60 ms PTO, at one-way
    /// latency `ms`.
    fn short_pto_outcome(world: &World, record: &DomainRecord, ms: u64) -> HandshakeOutcome {
        let mut probe = probe_for(world, record, BASE).expect("a QUIC service");
        probe.server.behavior.pto = SimDuration::from_millis(60);
        probe.wire.a_to_b.latency = SimDuration::from_millis(ms);
        probe.wire.b_to_a.latency = SimDuration::from_millis(ms);
        HandshakeScratch::default().run(probe.client, probe.server, &mut probe.wire, probe.seed)
    }

    /// The insert check is load-bearing. A server with a 60 ms PTO behind
    /// an amplification stall: at 49 ms the ACK that lifts the stall is
    /// 98 ms away and the timer fires first; at 10 ms it never does. The
    /// two outcomes differ in what crossed the wire — and yet every
    /// timestamp of the slow one sits on the 49 ms lattice, so the lattice
    /// clause alone would store it. Deleting the `timer_fires == 0` clause
    /// of `latency_free_timeline` fails this test, by name.
    #[test]
    fn a_timer_that_fires_only_on_the_slow_wire_refuses_the_insert() {
        let (world, population) = world();
        let stalled = services(&population)
            .find(|record| {
                let result = scan_service(&world, record, BASE, &mut HandshakeScratch::default());
                let compliant = record.quic.as_ref().unwrap().behavior
                    == quicert_pki::world::BehaviorKind::RfcCompliant;
                compliant && result.stall_ns > 0 && result.class == HandshakeClass::MultiRtt
            })
            .expect("an RFC-compliant service stalls on its budget");
        let fast = SimDuration::from_millis(*BASE_LATENCY_MS.start());
        let slow_out = short_pto_outcome(&world, stalled, CLASS_LATENCY.as_millis());
        let fast_out = short_pto_outcome(&world, stalled, fast.as_millis());
        assert!(slow_out.timer_fires > 0 && slow_out.deliveries > 0);
        assert_eq!(fast_out.timer_fires, 0);
        // Not the same handshake stretched: the slow server resent.
        let slow = QuicReachResult::from_outcome(stalled.rank, &slow_out);
        let fast_result = QuicReachResult::from_outcome(stalled.rank, &fast_out);
        assert!(slow.server_transmissions > fast_result.server_transmissions);
        assert_ne!(slow.wire_received, fast_result.wire_received);
        // The lattice clause cannot tell…
        assert!(slow_out
            .timeline
            .rescaled(CLASS_LATENCY.as_nanos(), fast.as_nanos())
            .is_some());
        // …so it is the timer clause that refuses the insert.
        assert_eq!(latency_free_timeline(&slow_out, fast), None);
    }

    /// The other store clause: a 1472-byte Initial into a tunnel never
    /// arrives, the client's PTOs fire into the void (so the timer clause
    /// fails), nothing is delivered and no latency is ever read — stored,
    /// and equal to the memo-free probe at the fastest, a middle and the
    /// slowest step.
    #[test]
    fn a_black_holed_initial_is_stored_by_the_delivery_free_clause() {
        let (world, population) = world();
        let scenario = Scenario::at(1472).with_profile(NetworkProfile::Tunneled);
        let record = services(&population).next().expect("a QUIC service");
        let out = simulate(
            &world,
            record,
            scenario,
            Some(CLASS_LATENCY),
            &mut HandshakeScratch::default(),
        )
        .expect("a QUIC service");
        assert!(out.timer_fires > 0, "the client retransmits on its PTO");
        assert_eq!(out.deliveries, 0);
        let representative = QuicReachResult::from_outcome(record.rank, &out);
        assert_eq!(representative.class, HandshakeClass::Unreachable);
        for step in [0, 17, 39] {
            let member = class_member_at_step(record, scenario, step);
            assert!(latency_free_timeline(&out, base_latency(&member)).is_some());
            assert_eq!(
                ClassOutcome::of(&representative).map(|stored| stored.replayed_for(&member)),
                Some(scan_service(
                    &world,
                    &member,
                    scenario,
                    &mut HandshakeScratch::default()
                )),
                "step {step}"
            );
        }
        // Through the fold: one miss teaches the class, every step replays.
        let mut scratch = ProbeScratch::new();
        let members: Vec<DomainRecord> = [0, 17, 39]
            .map(|step| class_member_at_step(record, scenario, step))
            .to_vec();
        fold_chunk(&world, &members[..1], scenario, &mut scratch);
        fold_chunk(&world, &members[1..], scenario, &mut scratch);
        assert_eq!(scratch.memo_stats(), (2, 1, 1));
    }

    #[test]
    fn a_full_memo_stops_learning_and_changes_nothing() {
        // One class per lock shard: the table fills within a few chunks.
        // From then on new classes simulate and are not stored — more
        // misses than a roomy table, the same shards bit for bit.
        let (world, owned) = world();
        let probed = owned.iter().filter(|r| r.has_quic()).count() as u64;
        let table = Arc::new(ClassMemo::bounded(MEMO_SHARDS));
        let mut capped = ProbeScratch::sharing(Some(Arc::clone(&table)));
        let mut roomy = ProbeScratch::new();
        for chunk in owned.chunks(64) {
            assert_eq!(
                fold_chunk(&world, chunk, BASE, &mut capped),
                fold_chunk(&world, chunk, BASE, &mut roomy)
            );
        }
        let (hits, misses, inserted) = capped.memo_stats();
        assert_eq!(hits + misses, probed);
        assert_eq!(inserted as usize, table.classes());
        assert!(table.classes() <= MEMO_SHARDS && table.classes() > 0);
        assert!(hits > 0, "stored classes still replay");
        assert!(misses > roomy.memo_stats().1);
        assert!(roomy.memo_stats().2 as usize > MEMO_SHARDS);
    }

    #[test]
    fn probe_metrics_account_for_every_probed_record_and_change_nothing() {
        let (world, mut owned) = world();
        owned.truncate(600);
        let probed = owned.iter().filter(|r| r.has_quic()).count() as u64;

        let registry = Arc::new(MetricsRegistry::new());
        let mut instrumented = ProbeScratch::new();
        instrumented.report_to(Arc::clone(&registry));
        let mut plain = ProbeScratch::new();
        for chunk in owned.chunks(64) {
            let a = fold_chunk(&world, chunk, BASE, &mut instrumented);
            let b = fold_chunk(&world, chunk, BASE, &mut plain);
            assert_eq!(a, b, "metrics attachment changed a folded shard");
        }

        // issued == memo misses (every fresh simulation), replayed == memo
        // hits, and together they cover each probed record exactly once.
        let (hits, misses, _) = instrumented.memo_stats();
        let labels = [("era", "classical"), ("profile", "ideal")];
        let issued = registry
            .labeled_counter("quicert_scan_probes_issued_total", &labels, "")
            .get();
        let replayed = registry
            .labeled_counter("quicert_scan_probes_replayed_total", &labels, "")
            .get();
        assert_eq!(issued, misses);
        assert_eq!(replayed, hits);
        assert_eq!(issued + replayed, probed);

        // Phase histograms: one observation per completed fresh handshake,
        // the same count in all four phases.
        let phase_counts: Vec<u64> = Phase::ALL
            .iter()
            .map(|phase| {
                registry
                    .labeled_histogram(
                        "quicert_handshake_phase_seconds",
                        &[
                            ("era", "classical"),
                            ("profile", "ideal"),
                            ("phase", phase.label()),
                        ],
                        "",
                        0.0,
                        1.0,
                        20,
                    )
                    .count()
            })
            .collect();
        assert!(phase_counts[0] > 0, "no handshake phases observed");
        assert!(phase_counts.iter().all(|&c| c == phase_counts[0]));
        assert!(phase_counts[0] <= issued, "replays must not observe phases");
    }

    #[test]
    fn share_denominators_are_explicit() {
        let summary = ScanSummary {
            initial_size: 1362,
            one_rtt: 10,
            retry: 0,
            multi_rtt: 20,
            amplification: 10,
            unreachable: 60,
        };
        assert_eq!(summary.reachable(), 40);
        assert_eq!(summary.total(), 100);
        // Of the 40 reachable, half were multi-RTT…
        assert_eq!(summary.share_of_reachable(HandshakeClass::MultiRtt), 50.0);
        // …which is 20% of everything probed.
        assert_eq!(summary.share_of_all(HandshakeClass::MultiRtt), 20.0);
        // Unreachability is only meaningful against the full population.
        assert_eq!(summary.share_of_reachable(HandshakeClass::Unreachable), 0.0);
        assert_eq!(summary.share_of_all(HandshakeClass::Unreachable), 60.0);
    }

    #[test]
    fn empty_scan_has_zero_shares_everywhere() {
        let summary = ScanSummary::default();
        for class in [
            HandshakeClass::OneRtt,
            HandshakeClass::Retry,
            HandshakeClass::MultiRtt,
            HandshakeClass::Amplification,
            HandshakeClass::Unreachable,
        ] {
            assert_eq!(summary.share_of_reachable(class), 0.0);
            assert_eq!(summary.share_of_all(class), 0.0);
        }
    }

    #[test]
    fn all_unreachable_scan_keeps_reachable_shares_at_zero() {
        let summary = ScanSummary {
            initial_size: 1472,
            unreachable: 7,
            ..ScanSummary::default()
        };
        assert_eq!(summary.share_of_reachable(HandshakeClass::OneRtt), 0.0);
        assert_eq!(summary.share_of_all(HandshakeClass::Unreachable), 100.0);
    }

    #[test]
    fn warm_scan_resumes_the_reachable_population() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(80).collect();
        let results = warm_each(
            &world,
            &records,
            BASE.with_policy(ResumptionPolicy::WarmAfterFirstVisit),
        );
        assert_eq!(results.len(), records.len());
        for r in &results {
            if r.cold.class == HandshakeClass::Unreachable {
                // No ticket could be obtained; revisit stays unreachable.
                assert!(!r.resumed);
                continue;
            }
            assert!(r.offered_psk, "rank {}: ticket cached and offered", r.rank);
            assert!(r.resumed, "rank {}: server accepts fresh ticket", r.rank);
            assert_eq!(r.warm_cert_bytes, 0, "rank {}: no certs on wire", r.rank);
            assert!(!r.warm_exceeds_limit, "rank {}: fits 3x budget", r.rank);
            // Always-on Retry servers still demand address validation on a
            // resumed visit; everyone else completes in one round.
            if r.cold.class == HandshakeClass::Retry {
                assert_eq!(r.warm.class, HandshakeClass::Retry, "rank {}", r.rank);
            } else {
                assert_eq!(r.warm.class, HandshakeClass::OneRtt, "rank {}", r.rank);
            }
            assert!(r.cold_cert_bytes > 0);
        }
        // Every cold multi-RTT handshake saves at least one round trip.
        let multi: Vec<&WarmScanResult> = results
            .iter()
            .filter(|r| r.cold.class == HandshakeClass::MultiRtt)
            .collect();
        assert!(!multi.is_empty(), "population includes multi-RTT services");
        assert!(multi.iter().all(|r| r.rtts_saved >= 1));
    }

    #[test]
    fn cold_only_and_expired_policies_fall_back_to_full_handshakes() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(40).collect();
        for policy in [ResumptionPolicy::ColdOnly, ResumptionPolicy::TicketExpired] {
            let results = warm_each(&world, &records, BASE.with_policy(policy));
            for r in &results {
                assert!(!r.resumed, "policy {policy}: never resumed");
                assert_eq!(
                    r.offered_psk,
                    policy.offers_ticket() && r.cold.class != HandshakeClass::Unreachable
                );
                // The fallback pays the certificate chain again.
                if r.cold.class != HandshakeClass::Unreachable {
                    assert!(r.warm_cert_bytes > 0, "policy {policy}: certs sent");
                    assert_eq!(r.warm.class, r.cold.class, "policy {policy}");
                }
            }
        }
    }

    #[test]
    fn warm_scan_cold_half_matches_the_plain_cold_scan_classes() {
        // The warm scan's first visit adds ticket issuance, which must not
        // disturb any classification-relevant measurement relative to the
        // plain (resumption-free) scan.
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(60).collect();
        let plain = scan_each(&world, &records, BASE);
        let warm = warm_each(
            &world,
            &records,
            BASE.with_policy(ResumptionPolicy::WarmAfterFirstVisit),
        );
        for (p, w) in plain.iter().zip(&warm) {
            assert_eq!(p.class, w.cold.class, "rank {}", p.rank);
            assert_eq!(p.rtt_count, w.cold.rtt_count, "rank {}", p.rank);
            assert_eq!(p.amplification, w.cold.amplification, "rank {}", p.rank);
        }
    }

    #[test]
    fn warm_scan_is_shard_invariant() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(48).collect();
        let scenario = Scenario::at(1250)
            .with_profile(NetworkProfile::Lossy)
            .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
        let whole = warm_each(&world, &records, scenario);
        for chunk in [1usize, 7, 16] {
            let pieces: Vec<WarmScanResult> = records
                .chunks(chunk)
                .flat_map(|shard| warm_each(&world, shard, scenario))
                .collect();
            assert_eq!(whole, pieces, "chunk size {chunk}");
        }
    }

    #[test]
    fn pq_eras_shift_one_rtt_to_multi_rtt() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(150).collect();
        let classical = summarize(1362, &scan_each(&world, &records, BASE));
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            let summary = summarize(1362, &scan_each(&world, &records, BASE.with_era(era)));
            // Nothing becomes unreachable — the chain travels at the
            // Handshake level, which the MTU failure of §4.1 never sees.
            assert_eq!(summary.unreachable, classical.unreachable, "{era}");
            // But 4–15 kB of extra certificate bytes push 1-RTT and
            // amplification-class completions into multi-RTT territory.
            assert!(
                summary.multi_rtt > classical.multi_rtt,
                "{era}: multi {} vs classical {}",
                summary.multi_rtt,
                classical.multi_rtt
            );
            assert!(summary.one_rtt <= classical.one_rtt, "{era}");
        }
    }

    #[test]
    fn pq_era_scans_are_shard_invariant() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(60).collect();
        let scenario = BASE
            .with_profile(NetworkProfile::Lossy)
            .with_era(CertificateEra::PostQuantum);
        let whole = scan_each(&world, &records, scenario);
        for chunk in [1usize, 7, 25] {
            let pieces: Vec<QuicReachResult> = records
                .chunks(chunk)
                .flat_map(|shard| scan_each(&world, shard, scenario))
                .collect();
            assert_eq!(whole, pieces, "chunk size {chunk}");
        }
    }

    #[test]
    fn pq_warm_scans_still_resume_certificate_free() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(40).collect();
        let results = warm_each(
            &world,
            &records,
            BASE.with_era(CertificateEra::PostQuantum)
                .with_policy(ResumptionPolicy::WarmAfterFirstVisit),
        );
        for r in &results {
            if r.cold.class == HandshakeClass::Unreachable {
                continue;
            }
            assert!(r.resumed, "rank {}", r.rank);
            assert_eq!(r.warm_cert_bytes, 0, "rank {}", r.rank);
            assert!(!r.warm_exceeds_limit, "rank {}", r.rank);
            // The cold visit paid the post-quantum chain in full.
            assert!(r.cold_cert_bytes > 4_000, "rank {}", r.rank);
        }
    }

    #[test]
    fn ideal_profile_reports_no_faults_lossy_reports_some() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(60).collect();
        let ideal = scan_each(&world, &records, BASE);
        assert!(ideal
            .iter()
            .all(|r| r.fault_drops == 0 && r.fault_corruptions == 0));
        let lossy = scan_each(&world, &records, BASE.with_profile(NetworkProfile::Lossy));
        let drops: u64 = lossy.iter().map(|r| r.fault_drops).sum();
        assert!(drops > 0, "3% loss over 60 probes must drop something");
    }

    #[test]
    fn chaos_plans_surface_recovery_cost() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(80).collect();
        let shard = |plan| {
            QuicReachShard::from_results(1362, &scan_each(&world, &records, BASE.with_plan(plan)))
        };
        let none = shard(FaultPlan::NONE);
        assert_eq!(none.fault_drops, 0);
        assert_eq!(none.fault_duplications, 0);
        let light = shard(FaultPlan::LIGHT);
        let moderate = shard(FaultPlan::MODERATE);
        let heavy = shard(FaultPlan::HEAVY);
        assert!(moderate.fault_drops > 0, "moderate loss drops datagrams");
        assert!(
            moderate.retransmissions() > 0,
            "and the endpoints pay for them in PTO retransmissions"
        );
        assert!(
            heavy.fault_drops > light.fault_drops,
            "loss scales with intensity"
        );
        assert!(
            heavy.retransmissions() > none.retransmissions(),
            "recovery cost must grow under heavy loss ({} vs {})",
            heavy.retransmissions(),
            none.retransmissions()
        );
        // The duplication-flavoured rung exercises FaultInjector::duplicating
        // end-to-end: the counter rides ExchangeOutcome → HandshakeOutcome →
        // QuicReachResult → the shard.
        let dup = shard(FaultPlan::DUP_STORM);
        assert!(
            dup.fault_duplications > 0,
            "dup-storm must duplicate datagrams"
        );
        assert_eq!(dup.fault_drops, 0, "dup-storm drops nothing");
        assert_eq!(dup.retransmissions(), 0, "a duplicate never triggers a PTO");
        // A fault plan changes what a probe costs, never whether it is made.
        assert_eq!(none.total(), records.len());
        assert_eq!(moderate.total(), none.total());
        assert_eq!(dup.total(), none.total());
    }

    #[test]
    fn chaos_fold_bypasses_memo_and_matches_the_materialized_scan() {
        let (world, mut owned) = world();
        owned.truncate(200);
        for plan in [FaultPlan::NONE, FaultPlan::MODERATE, FaultPlan::DUP_STORM] {
            let reference = materialized_fold(&world, &owned, BASE.with_plan(plan));
            let mut memoized = ProbeScratch::new();
            let mut shard = QuicReachShard::identity();
            for chunk in owned.chunks(64) {
                shard.merge(&fold_chunk(
                    &world,
                    chunk,
                    BASE.with_plan(plan),
                    &mut memoized,
                ));
            }
            assert_eq!(shard, reference, "plan {plan}");
            if plan.is_deterministic() {
                let (hits, misses, _) = memoized.memo_stats();
                assert!(hits + misses > 0, "the identity plan keeps memoizing");
            } else {
                // A fault-injected wire draws RNG, so its outcomes may never
                // be replayed from the scenario-class memo — even under the
                // (otherwise deterministic) ideal profile.
                assert_eq!(
                    memoized.memo_stats(),
                    (0, 0, 0),
                    "plan {plan} must bypass the memo entirely"
                );
            }
        }
    }

    #[test]
    fn tunneled_profile_kills_large_initials() {
        let (world, population) = world();
        let records: Vec<&DomainRecord> = services(&population).take(80).collect();
        let ideal = summarize(1472, &scan_each(&world, &records, Scenario::at(1472)));
        let tunneled = summarize(
            1472,
            &scan_each(
                &world,
                &records,
                Scenario::at(1472).with_profile(NetworkProfile::Tunneled),
            ),
        );
        assert!(
            tunneled.unreachable > ideal.unreachable,
            "tunnel overhead must push 1472-byte Initials over the MTU \
             ({} vs {})",
            tunneled.unreachable,
            ideal.unreachable
        );
    }

    #[test]
    #[should_panic(expected = "different Initial sizes")]
    fn bars_from_different_initial_sizes_do_not_merge() {
        let bar = |initial_size| ScanSummary {
            initial_size,
            one_rtt: 1,
            ..ScanSummary::identity()
        };
        bar(1200).merge(&bar(1362));
    }

    /// Cold-then-warm results of 48 services on the lossy profile, probed
    /// once for every case.
    fn warm_results() -> &'static [WarmScanResult] {
        static RESULTS: OnceLock<Vec<WarmScanResult>> = OnceLock::new();
        RESULTS.get_or_init(|| {
            let (world, population) = world();
            let records: Vec<&DomainRecord> = services(&population).take(48).collect();
            let scenario = BASE
                .with_profile(NetworkProfile::Lossy)
                .with_policy(ResumptionPolicy::WarmAfterFirstVisit);
            warm_each(&world, &records, scenario)
        })
    }

    fn warm_fold(results: &[WarmScanResult]) -> WarmAggregate {
        let mut agg = WarmAggregate::identity();
        for result in results {
            agg.push(result);
        }
        agg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn warm_aggregate_chunking_is_invariant(cut_a in 0usize..49, cut_b in 0usize..49) {
            let results = warm_results();
            let (a, b) = (cut_a.min(cut_b), cut_a.max(cut_b));
            let mut merged = warm_fold(&results[..a]);
            merged.merge(&warm_fold(&results[a..b]));
            merged.merge(&warm_fold(&results[b..]));
            let whole = warm_fold(results);
            prop_assert_eq!(merged, whole);
            prop_assert_eq!(
                whole.mean_rtts_saved_multi().to_bits(),
                (whole.multi_rtt_rtts_saved as f64 / whole.cold_multi_rtt.max(1) as f64)
                    .to_bits()
            );
        }
    }
}
