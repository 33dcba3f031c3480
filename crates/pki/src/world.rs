//! The ranked web population the scanners measure.
//!
//! A [`World`] is a deterministic, Tranco-like list of ranked domains,
//! derived a rank range at a time ([`World::domain_chunk`]) and never held
//! in memory. Each domain gets a DNS outcome, an HTTPS deployment (chain +
//! leaf parameters per the Fig 7(b)/Table 2 distributions) and — for ~21%
//! of domains, flat across rank groups (Fig 12) — a QUIC deployment drawn
//! from the §4.1 population of ~60% Cloudflare-like services with small
//! chains, a large compliant population with oversized chains (multi-RTT),
//! a sliver of true 1-RTT deployments, rare Retry, and Meta's
//! pre-disclosure mvfst PoPs.
//!
//! Every rate and weight is a constant of this module, next to the paper
//! signal it reproduces; a [`WorldConfig`] chooses only the population size
//! and the seed.
//!
//! A rank's record is drawn from its own stream, forked off the world seed
//! by rank, in one order: seed, name stem, TLD, two DNS draws, the HTTPS and
//! QUIC chances, then the deployment. A pass asking only which ranks serve
//! QUIC skips the three name draws ([`SimRng::skip`]) and reads the four
//! that decide; a kept record reads its name draws off a copy of the stream
//! at draw 0, so every record is the same either way.

use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use quicert_compress::Algorithm;
use quicert_netsim::rng::fnv1a;
use quicert_netsim::SimRng;
use quicert_obs::{Counter, MetricsRegistry};
use quicert_x509::{CertificateBuilder, CertificateChain, KeyAlgorithm};

use crate::dns::{self, DnsOutcome};
use crate::ecosystem::{ChainId, Ecosystem, LeafParams};
use crate::era::CertificateEra;
use crate::flyweight::ClassTable;

/// Who operates a QUIC service (steers behaviour profile and addressing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Cloudflare edge (missing coalescence, uncounted padding).
    Cloudflare,
    /// Google front-ends (compliant, large GTS chains).
    Google,
    /// Meta PoPs running mvfst (resend amplification).
    Meta,
    /// Everyone else: self-hosted or minor CDNs, RFC-compliant stacks.
    SelfHosted,
}

/// The server behaviour family of a deployment (mapped to a concrete
/// `quicert_quic::ServerBehavior` by the scanner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorKind {
    /// RFC 9000/9002-compliant.
    RfcCompliant,
    /// Cloudflare-like: separate padded ACK datagram, uncounted padding.
    CloudflareLike,
    /// mvfst-like before the disclosure (many uncharged resends).
    MvfstPreDisclosure,
    /// Always-on Retry.
    RetryFirst,
}

/// An HTTPS (TLS-over-TCP) deployment of a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpsDeployment {
    /// Parent chain served.
    pub chain_id: ChainId,
    /// Leaf key algorithm.
    pub leaf_key: KeyAlgorithm,
    /// Number of SANs beyond the CN-derived pair.
    pub extra_sans: u16,
    /// HTTP→HTTPS redirect hops observed before the final host (0–2).
    pub redirect_hops: u8,
}

/// A QUIC deployment of a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct QuicDeployment {
    /// Operator.
    pub provider: Provider,
    /// Server behaviour family.
    pub behavior: BehaviorKind,
    /// Parent chain served over QUIC (= the HTTPS chain unless rotated).
    pub chain_id: ChainId,
    /// Leaf key algorithm.
    pub leaf_key: KeyAlgorithm,
    /// RFC 8879 algorithms the server supports (one of three constants).
    pub compression_support: &'static [Algorithm],
    /// Tunnelling load balancer in front (adds encapsulation overhead and
    /// breaks large client Initials, §4.1).
    pub behind_lb: bool,
    /// Encapsulation overhead bytes when behind a load balancer.
    pub lb_overhead: usize,
    /// The certificate was rotated between the HTTPS and QUIC scans
    /// (the 2.8% consistency gap of §3.2).
    pub rotated_cert: bool,
    /// How many times the certificate has been reissued since the world
    /// was generated (churn timeline rotations/revocations). Generation 0
    /// is the as-generated certificate, byte-for-byte.
    pub cert_generation: u32,
    /// Churn-timeline era migration: when set, this deployment serves
    /// chains from this era regardless of the campaign's scan era.
    pub era_override: Option<CertificateEra>,
}

impl QuicDeployment {
    /// Leaf-seed perturbation encoding both the §3.2 rotation gap and the
    /// churn generation, so every reissue yields fresh certificate bytes
    /// while generation 0 reproduces the pre-churn chain exactly.
    pub(crate) fn cert_seed_shift(&self) -> u64 {
        let rotation = if self.rotated_cert { 0x5EED_0001 } else { 0 };
        rotation ^ (self.cert_generation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The era this deployment actually serves under a campaign scanning
    /// at `scan_era`: the churn override when a provider migration has
    /// fired, the scan era otherwise.
    pub fn effective_era(&self, scan_era: CertificateEra) -> CertificateEra {
        self.era_override.unwrap_or(scan_era)
    }
}

/// One ranked domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainRecord {
    /// Tranco-style rank, 1-based.
    pub rank: usize,
    /// Domain name.
    pub name: String,
    /// DNS resolution outcome.
    pub dns: DnsOutcome,
    /// HTTPS deployment (None = no TLS service).
    pub https: Option<HttpsDeployment>,
    /// QUIC deployment (None = HTTPS only or unreachable).
    pub quic: Option<QuicDeployment>,
    /// Per-domain deterministic seed.
    pub seed: u64,
}

impl DomainRecord {
    /// Whether the domain serves HTTPS (certificate collected).
    pub fn has_https(&self) -> bool {
        self.https.is_some() && self.dns.address().is_some()
    }

    /// Whether the domain is a QUIC service.
    pub fn has_quic(&self) -> bool {
        self.has_https() && self.quic.is_some()
    }
}

/// One chain a record serves, reduced to what issuance reads: the single
/// place that knows which record fields reach a chain's bytes. The issuer
/// call ([`Served::issue`]) and the flyweight key ([`Served::class`]) both
/// derive from it, so a key can never lag behind what is issued.
struct Served<'a> {
    /// Leaf CN; every SAN embeds it.
    name: &'a str,
    chain_id: ChainId,
    /// The era actually served: a migrated provider's override, the scan
    /// era otherwise.
    era: CertificateEra,
    leaf_key: KeyAlgorithm,
    extra_sans: u16,
    /// Leaf seed: serial, key identifiers, SCTs.
    seed: u64,
}

impl<'a> Served<'a> {
    fn https(record: &'a DomainRecord, scan_era: CertificateEra) -> Option<Served<'a>> {
        let https = record.https.as_ref()?;
        // A provider era migration moves the whole deployment, so the HTTPS
        // chain follows the QUIC deployment's override when one exists.
        let quic = record.quic.as_ref();
        Some(Served {
            name: &record.name,
            chain_id: https.chain_id,
            era: quic.map_or(scan_era, |q| q.effective_era(scan_era)),
            leaf_key: https.leaf_key,
            extra_sans: https.extra_sans,
            seed: record.seed,
        })
    }

    #[inline]
    fn quic(record: &'a DomainRecord, scan_era: CertificateEra) -> Option<Served<'a>> {
        let quic = record.quic.as_ref()?;
        let https = record.https.as_ref()?;
        Some(Served {
            name: &record.name,
            chain_id: quic.chain_id,
            era: quic.effective_era(scan_era),
            leaf_key: quic.leaf_key,
            extra_sans: https.extra_sans,
            // Rotated or churned certificates reissue from a shifted seed.
            seed: record.seed ^ quic.cert_seed_shift(),
        })
    }

    #[inline]
    fn class(&self) -> ChainClass {
        ChainClass {
            chain_id: self.chain_id,
            era: self.era,
            leaf_key: self.leaf_key,
            cn_len: self.name.len() as u16,
            extra_sans: self.extra_sans,
            serial_der_len: CertificateBuilder::serial_der_len(self.seed) as u8,
        }
    }

    /// Issue the chain; the leaf's SANs are its name, `www.` of it, and
    /// `extra_sans` numbered `alt-NNN.<name>`, written straight from the
    /// name.
    fn issue(&self, ecosystem: &Ecosystem) -> CertificateChain {
        let params = LeafParams {
            common_name: self.name,
            listed_sans: &[],
            extra_sans: self.extra_sans,
            key: self.leaf_key,
            scts: 2,
            seed: self.seed,
        };
        ecosystem.issue_era(self.chain_id, self.era, params)
    }
}

/// The class of one served chain: every input through which a record can
/// reach the chain's encoded *lengths*.
///
/// `chain_id` and the effective era fix the intermediates and the leaf
/// template, `leaf_key` the SPKI and signature sizes; the CN length and
/// the extra-SAN count (each SAN is `alt-NNN.<cn>`) fix the subject and
/// the SAN extension; and the serial `INTEGER`'s width is the only
/// seed-dependent length in a certificate (leading-zero trimming). Every
/// remaining seed bit fills fixed-size fields. Two records of one class
/// therefore serve chains of identical total length and depth — proven
/// for both the QUIC and the HTTPS chain of every record, in every era, by
/// `chain_der_len_is_a_pure_function_of_the_class_tuple` and
/// `https_chain_shape_is_a_pure_function_of_the_class_tuple`. Churn reaches
/// a chain only through fields the class covers (`cert_generation` →
/// serial width, drift → `chain_id`, `era_override` → era), so a churned
/// record is a *different class*, never a stale entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainClass {
    chain_id: ChainId,
    era: CertificateEra,
    leaf_key: KeyAlgorithm,
    cn_len: u16,
    extra_sans: u16,
    serial_der_len: u8,
}

impl ChainClass {
    /// The class of the chain `record` serves over QUIC under a campaign
    /// scanning at `scan_era` (`None` without a QUIC deployment) — the
    /// chain part of the scanner's `ProbeClass`. O(1), allocation-free:
    /// everything is on the record, and the serial width is measured
    /// without a buffer ([`CertificateBuilder::serial_der_len`]). (The HTTPS
    /// chain's class has one reader, [`World::https_chain_shape`], which
    /// derives it in place.)
    #[inline]
    pub fn quic(record: &DomainRecord, scan_era: CertificateEra) -> Option<ChainClass> {
        Served::quic(record, scan_era).map(|served| served.class())
    }
}

/// What the §3.1 funnel reads off a collected chain (Fig 2b/6: total chain
/// bytes, depth) — the value of the [`World`]'s chain-shape flyweight. Two
/// integers, so a million-domain table is a few hundred kilobytes and a
/// lookup copies 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainShape {
    /// Total DER bytes of the chain.
    pub total_der: usize,
    /// Number of certificates.
    pub depth: usize,
}

/// The QUIC deployment groups of §4.1 as modelled here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QuicGroup {
    /// Cloudflare with the dominant short Let's Encrypt R3 chain.
    CfLeR3,
    /// Cloudflare with Let's Encrypt E1.
    CfLeE1,
    /// Cloudflare with its own ECC chain.
    CfEcc,
    /// Cloudflare fronting customer-uploaded big chains.
    CfCustomBig,
    /// Self-hosted with the default long Let's Encrypt chain.
    SelfLeLong,
    /// Google front-ends (GTS chains).
    GoogleGts,
    /// Corporate / legacy CAs with heavy chains.
    CorpBig,
    /// Self-hosted Let's Encrypt E1 with the marginal-size cross chain.
    SelfE1Marginal,
    /// Truly optimal 1-RTT deployments (small chain, compliant server).
    OneRttSmall,
    /// Always-on Retry deployments.
    RetryOn,
    /// Meta PoPs (mvfst).
    MetaMvfst,
}

/// P(QUIC | HTTPS-reachable); calibrated so ~21% of *all* domains in each
/// rank group are QUIC services (Fig 12), given the DNS/HTTPS funnel ahead
/// of it.
const QUIC_SHARE: f64 = 0.26;
/// P(HTTPS reachable | A record); Fig 12: QUIC + HTTPS-only ≈ 80%.
const HTTPS_SHARE: f64 = 0.925;
/// QUIC deployment group weights, in percent of QUIC services (relative,
/// normalised at draw time). Together they reproduce Fig 3's ~61%
/// amplification, ~38% multi-RTT, 0.75% 1-RTT, 0.07% Retry at Initial =
/// 1362.
const QUIC_GROUPS: [(QuicGroup, f64); 11] = [
    (QuicGroup::CfLeR3, 54.0),
    (QuicGroup::CfLeE1, 4.5),
    (QuicGroup::CfEcc, 1.5),
    (QuicGroup::CfCustomBig, 7.0),
    (QuicGroup::SelfLeLong, 15.5),
    (QuicGroup::GoogleGts, 5.0),
    (QuicGroup::CorpBig, 10.2),
    (QuicGroup::SelfE1Marginal, 1.1),
    (QuicGroup::OneRttSmall, 0.75),
    (QuicGroup::RetryOn, 0.07),
    (QuicGroup::MetaMvfst, 0.38),
];
/// 1-RTT share boost for the top-100k ranks (Fig 13: 3.02% vs <1%).
const TOP_RANK_ONE_RTT_SHARE: f64 = 3.0;
/// P(behind tunnelling LB) for ranks ≤1k (§4.1: −25%, −12%, −1.2%
/// reachability for large Initials at ≤1k / ≤10k / the rest).
const LB_SHARE_TOP1K: f64 = 0.25;
/// P(behind tunnelling LB) for ranks ≤10k.
const LB_SHARE_TOP10K: f64 = 0.12;
/// P(behind tunnelling LB) for the remaining ranks.
const LB_SHARE_REST: f64 = 0.010;
/// P(brotli support) for non-hypergiant QUIC services (Table 1: 96%
/// aggregate support).
const BROTLI_SUPPORT_OTHER: f64 = 0.90;
/// P(cert rotated between scans) (§3.2: 2.8%).
const ROTATION_RATE: f64 = 0.028;

/// World generation parameters: everything else is calibration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranked domains (the paper scans 1M; default 1:50 scale).
    pub domains: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            domains: 20_000,
            seed: 0xC04E_2022,
        }
    }
}

/// Process-wide world-generation counters on [`MetricsRegistry::global`].
/// Record generation is batched (one `add` per chunk) so the streaming
/// pump's per-record path never touches an atomic it doesn't already own.
/// It counts records derived in full: a rank [`World::quic_chunk_into`]
/// passes over, or [`World::serves_quic`] decides, is not one.
struct WorldMetrics {
    records_generated: Arc<Counter>,
}

fn world_metrics() -> &'static WorldMetrics {
    static METRICS: OnceLock<WorldMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = MetricsRegistry::global();
        WorldMetrics {
            records_generated: reg.counter(
                "quicert_pki_records_generated_total",
                "Domain records derived in full from world configurations",
            ),
        }
    })
}

/// The world: a configuration, its CA ecosystem, and a population derived
/// by rank on demand.
#[derive(Debug)]
pub struct World {
    /// Configuration used.
    pub config: WorldConfig,
    /// The CA ecosystem.
    pub ecosystem: Ecosystem,
    /// The chain-shape flyweight ([`World::https_chain_shape`]): filled by
    /// the real issuer on a miss, it lives as long as the world — hence as
    /// long as the engine or resident service that owns the world.
    shapes: ClassTable<ChainClass, ChainShape>,
    /// What the frozen [`World::quic_services`] lends from; nothing else
    /// fills or reads it.
    lent: OnceLock<Vec<DomainRecord>>,
}

const TLDS: [(&str, f64); 8] = [
    ("com", 0.52),
    ("org", 0.09),
    ("net", 0.07),
    ("de", 0.06),
    ("io", 0.05),
    ("co.uk", 0.04),
    ("fr", 0.04),
    ("app", 0.03),
];

const NAME_STEMS: [&str; 16] = [
    "shop", "news", "cloud", "media", "play", "data", "mail", "portal", "store", "tech", "blog",
    "app", "api", "cdn", "travel", "bank",
];

impl World {
    /// A world over `config`: the ecosystem is built, the population is
    /// not — records are derived a rank range at a time through
    /// [`World::domain_chunk_into`], so a million-domain config costs what a
    /// ten-domain one does. Chains ([`World::quic_chain_era`] etc.) are
    /// issued per record from the ecosystem and the record itself.
    pub fn streaming(config: WorldConfig) -> World {
        World {
            ecosystem: Ecosystem::new(),
            config,
            shapes: ClassTable::default(),
            lent: OnceLock::new(),
        }
    }

    /// Derive the chunk of up to `chunk_size` records starting at
    /// `first_rank` (1-based), clipped to the population; empty when
    /// `first_rank` is past the end. This is the rank-addressable unit of
    /// streaming — because it only reads the configuration, concurrent
    /// workers can derive disjoint chunks without any shared state.
    ///
    /// Every record is derived per rank from a forked RNG stream, so chunks
    /// tiling `1..=domains` concatenate to exactly `domain_chunk(1, domains)`
    /// at **any** chunk size (pinned by a chunk-size-invariance proptest).
    pub fn domain_chunk(&self, first_rank: usize, chunk_size: usize) -> Vec<DomainRecord> {
        let mut out = Vec::new();
        self.domain_chunk_into(first_rank, chunk_size, &mut out);
        out
    }

    /// [`World::domain_chunk`] into a caller-owned buffer, overwritten in
    /// place. The streaming pump claims chunks in a tight per-worker loop;
    /// a warm buffer's records and name buffers are reused, so a chunk no
    /// longer than one before it allocates nothing.
    pub fn domain_chunk_into(
        &self,
        first_rank: usize,
        chunk_size: usize,
        out: &mut Vec<DomainRecord>,
    ) {
        self.derive_into(first_rank, chunk_size, out, |_| true);
    }

    /// The QUIC services among the ranks [`World::domain_chunk_into`] would
    /// derive, and nothing else: exactly its records that satisfy
    /// [`DomainRecord::has_quic`], field for field and in rank order. Every
    /// rank draws at most the four values that decide it (two DNS, the HTTPS
    /// and QUIC chances); the rest of a record (its seed, name and TLD, the
    /// DNS address hashed from the name, its deployment draws) is drawn and
    /// built only for the ≈21% that are QUIC services.
    pub fn quic_chunk_into(
        &self,
        first_rank: usize,
        chunk_size: usize,
        out: &mut Vec<DomainRecord>,
    ) {
        self.derive_into(first_rank, chunk_size, out, |head| head.quic);
    }

    /// Whether `rank` is a QUIC service: exactly [`DomainRecord::has_quic`]
    /// of its full derivation, decided by the same draws and in the same
    /// order, but with no record built and nothing counted as derived.
    /// False for rank 0 and past the population.
    pub fn serves_quic(&self, rank: usize) -> bool {
        (1..=self.config.domains).contains(&rank)
            && Head::draw(&SimRng::new(self.config.seed), rank).quic
    }

    /// The ranks a chunk of `chunk_size` starting at `first_rank` covers,
    /// clipped to the population: empty when `first_rank` is 0 or past the
    /// end.
    pub fn chunk_ranks(&self, first_rank: usize, chunk_size: usize) -> Range<usize> {
        if first_rank == 0 {
            return 0..0;
        }
        let end = first_rank
            .saturating_add(chunk_size)
            .min(self.config.domains.saturating_add(1));
        first_rank..end.max(first_rank)
    }

    /// Derive the records of [`World::chunk_ranks`] whose [`Head`] `keep`
    /// accepts into `out`, overwritten in place. Both chunk forms are this,
    /// so they share one derivation and one draw order. A kept record is
    /// assigned to its slot whole: only the slot's name buffer survives.
    fn derive_into(
        &self,
        first_rank: usize,
        chunk_size: usize,
        out: &mut Vec<DomainRecord>,
        keep: impl Fn(&Head) -> bool,
    ) {
        let ranks = self.chunk_ranks(first_rank, chunk_size);
        if ranks.is_empty() {
            out.clear();
            return;
        }
        // One root per chunk: forking per rank off this root is what keeps
        // records rank-addressable, and building the root once amortises it
        // over the whole chunk.
        let root = SimRng::new(self.config.seed);
        let domains = self.config.domains;
        out.reserve(ranks.len().saturating_sub(out.len()));
        let mut kept = 0;
        for rank in ranks {
            let head = Head::draw(&root, rank);
            if !keep(&head) {
                continue;
            }
            match out.get_mut(kept) {
                Some(slot) => *slot = head.finish(domains, std::mem::take(&mut slot.name)),
                None => out.push(head.finish(domains, String::new())),
            }
            kept += 1;
        }
        out.truncate(kept);
        world_metrics().records_generated.add(kept as u64);
    }

    /// Materialise the certificate chain a domain serves over HTTPS in one
    /// [`CertificateEra`]: the same deployment (ranks, providers, chain
    /// topology, SANs, seeds) in every era, with every key and signature
    /// swapped to the era's algorithms.
    pub fn https_chain_era(
        &self,
        record: &DomainRecord,
        era: CertificateEra,
    ) -> Option<CertificateChain> {
        Some(Served::https(record, era)?.issue(&self.ecosystem))
    }

    /// Total bytes and depth of the chain a domain serves over HTTPS — the
    /// classical [`World::https_chain_era`] reduced to what the §3.1 funnel
    /// reads, served from the world's chain-shape flyweight. A class is
    /// issued for real once (the first record that carries it, on whichever
    /// thread gets there first) and looked up ever after; a full table keeps
    /// issuing. Either way the answer is what the issued chain would measure.
    pub fn https_chain_shape(&self, record: &DomainRecord) -> Option<ChainShape> {
        let served = Served::https(record, CertificateEra::Classical)?;
        let class = served.class();
        if let Some(shape) = self.shapes.get(&class) {
            return Some(shape);
        }
        let chain = served.issue(&self.ecosystem);
        let shape = ChainShape {
            total_der: chain.total_der_len(),
            depth: chain.depth(),
        };
        self.shapes.insert(class, &shape);
        Some(shape)
    }

    /// Chain classes resident in the chain-shape flyweight — never more
    /// than [`crate::flyweight::CLASS_CAPACITY`].
    pub fn chain_shape_classes(&self) -> usize {
        self.shapes.classes()
    }

    /// Materialise the certificate chain a domain serves over QUIC in one
    /// [`CertificateEra`] (same as HTTPS unless the cert was rotated
    /// between scans, §3.2).
    pub fn quic_chain_era(
        &self,
        record: &DomainRecord,
        era: CertificateEra,
    ) -> Option<CertificateChain> {
        Some(Served::quic(record, era)?.issue(&self.ecosystem))
    }

    /// The serving IPv4 address of a domain (provider-dependent prefix).
    pub fn server_addr(record: &DomainRecord) -> Ipv4Addr {
        let provider = record
            .quic
            .as_ref()
            .map(|q| q.provider)
            .unwrap_or(Provider::SelfHosted);
        let h = fnv1a(record.name.as_bytes());
        match provider {
            Provider::Cloudflare => {
                Ipv4Addr::new(104, 16 + (h % 16) as u8, (h >> 8) as u8, (h >> 16) as u8)
            }
            Provider::Google => {
                Ipv4Addr::new(142, 250 + (h % 2) as u8, (h >> 8) as u8, (h >> 16) as u8)
            }
            Provider::Meta => Ipv4Addr::new(157, 240, (h >> 8) as u8, (h >> 16) as u8),
            Provider::SelfHosted => self_hosted_addr(h),
        }
    }

    fn draw_extra_sans(rng: &mut SimRng) -> u16 {
        // Appendix E: most leaves have few SANs; ~1% are SAN-heavy; ~0.1%
        // are cruise liners.
        let d = rng.f64();
        if d < 0.80 {
            rng.range(0, 3) as u16
        } else if d < 0.99 {
            rng.range(4, 12) as u16
        } else if d < 0.999 {
            rng.range(13, 60) as u16
        } else {
            rng.range(100, 250) as u16
        }
    }

    /// Table 2, HTTPS-only leaf row: RSA-heavy.
    fn draw_https_leaf_key(rng: &mut SimRng) -> KeyAlgorithm {
        match rng.weighted_index(&[81.4, 8.1, 7.8, 1.9]).unwrap_or(0) {
            0 => KeyAlgorithm::Rsa2048,
            1 => KeyAlgorithm::Rsa4096,
            2 => KeyAlgorithm::EcdsaP256,
            _ => KeyAlgorithm::EcdsaP384,
        }
    }

    fn draw_https_only(rng: &mut SimRng) -> HttpsDeployment {
        // Fig 7(b) chain mix (plus a long tail of the catalogued rest).
        let chains: [(ChainId, f64); 18] = [
            (ChainId::LeR3X1Cross, 41.4),
            (ChainId::SectigoUserTrust, 7.3),
            (ChainId::LeR3Short, 7.4),
            (ChainId::CPanelComodoRoot, 2.2),
            (ChainId::DigiCertTls, 6.4),
            (ChainId::DigiCertSha2WithRoot, 3.2),
            (ChainId::AmazonRsa, 4.0),
            (ChainId::Gts1C3, 2.5),
            (ChainId::LeE1Short, 2.0),
            (ChainId::GoDaddyG2, 1.8),
            (ChainId::StarfieldG2, 1.6),
            (ChainId::LeR3X1Self, 1.5),
            (ChainId::CloudflareEcc, 1.4),
            (ChainId::GlobalSignAtlas, 1.2),
            (ChainId::EnterpriseHuge, 0.4),
            (ChainId::LeE1X2Cross, 0.7),
            (ChainId::Gts1D4, 0.5),
            (ChainId::Gts1P5, 0.3),
        ];
        let chain_id = chains[rng
            .weighted_index_by(chains.len(), |i| chains[i].1)
            .unwrap_or(0)]
        .0;
        let leaf_key = match chain_id {
            // ECDSA-only issuers.
            ChainId::LeE1Short | ChainId::LeE1X2Cross | ChainId::CloudflareEcc => {
                KeyAlgorithm::EcdsaP256
            }
            _ => Self::draw_https_leaf_key(rng),
        };
        HttpsDeployment {
            chain_id,
            leaf_key,
            extra_sans: Self::draw_extra_sans(rng),
            redirect_hops: (rng.next_u64() % 3) as u8,
        }
    }

    fn draw_quic_deployment(domains: usize, rng: &mut SimRng, rank: usize) -> QuicDeployment {
        // Fig 13: the top-100k ranks have a visibly larger 1-RTT share.
        // The adjustment is applied on the fly — cloning the group table per
        // record was a measurable share of generation cost at 1M domains.
        let top_rank = rank <= (domains / 10).max(1);
        let group_weight = |i: usize| -> f64 {
            let (group, weight) = QUIC_GROUPS[i];
            if top_rank {
                if group == QuicGroup::OneRttSmall {
                    return TOP_RANK_ONE_RTT_SHARE;
                }
                if group == QuicGroup::CfLeR3 {
                    return weight - (TOP_RANK_ONE_RTT_SHARE - 0.75);
                }
            }
            weight
        };
        let group = QUIC_GROUPS[rng
            .weighted_index_by(QUIC_GROUPS.len(), group_weight)
            .unwrap_or(0)]
        .0;

        // Operator and server family follow from the group alone; the
        // chain and leaf key of four groups take draws of their own.
        let (provider, behavior) = match group {
            QuicGroup::CfLeR3 | QuicGroup::CfLeE1 | QuicGroup::CfEcc | QuicGroup::CfCustomBig => {
                (Provider::Cloudflare, BehaviorKind::CloudflareLike)
            }
            QuicGroup::GoogleGts => (Provider::Google, BehaviorKind::RfcCompliant),
            QuicGroup::RetryOn => (Provider::SelfHosted, BehaviorKind::RetryFirst),
            QuicGroup::MetaMvfst => (Provider::Meta, BehaviorKind::MvfstPreDisclosure),
            QuicGroup::SelfLeLong
            | QuicGroup::CorpBig
            | QuicGroup::SelfE1Marginal
            | QuicGroup::OneRttSmall => (Provider::SelfHosted, BehaviorKind::RfcCompliant),
        };
        let (p256, rsa) = (KeyAlgorithm::EcdsaP256, KeyAlgorithm::Rsa2048);
        let (chain_id, leaf_key) = match group {
            QuicGroup::CfLeR3 | QuicGroup::RetryOn => (ChainId::LeR3Short, p256),
            QuicGroup::CfLeE1 => (ChainId::LeE1Short, p256),
            QuicGroup::CfEcc => (ChainId::CloudflareEcc, p256),
            QuicGroup::CfCustomBig => (ChainId::LeR3X1Cross, rsa),
            QuicGroup::SelfE1Marginal => (ChainId::LeE1X2Cross, p256),
            QuicGroup::MetaMvfst => (ChainId::DigiCertSha2WithRoot, rsa),
            QuicGroup::SelfLeLong => {
                let key = if rng.chance(0.30) { p256 } else { rsa };
                (ChainId::LeR3X1Cross, key)
            }
            QuicGroup::GoogleGts => {
                let chain = match rng.weighted_index(&[60.0, 25.0, 15.0]).unwrap_or(0) {
                    0 => ChainId::Gts1C3,
                    1 => ChainId::Gts1D4,
                    _ => ChainId::Gts1P5,
                };
                let key = if rng.chance(0.9) { p256 } else { rsa };
                (chain, key)
            }
            QuicGroup::CorpBig => {
                let chains: [(ChainId, f64); 7] = [
                    (ChainId::SectigoUserTrust, 2.2),
                    (ChainId::CPanelComodoRoot, 2.0),
                    (ChainId::DigiCertSha2WithRoot, 2.6),
                    (ChainId::AmazonRsa, 1.4),
                    (ChainId::GoDaddyG2, 1.2),
                    (ChainId::StarfieldG2, 0.2),
                    (ChainId::EnterpriseHuge, 0.6),
                ];
                let chain = chains[rng
                    .weighted_index_by(chains.len(), |i| chains[i].1)
                    .unwrap_or(0)]
                .0;
                let rsa4096 = KeyAlgorithm::Rsa4096;
                let key = if rng.chance(0.08) { rsa4096 } else { rsa };
                (chain, key)
            }
            QuicGroup::OneRttSmall => {
                // Fig 7a row 10: GlobalSign Atlas accounts for roughly half
                // of the rare truly-optimal deployments.
                let chain = match rng.weighted_index(&[0.35, 0.15, 0.50]).unwrap_or(0) {
                    0 => ChainId::LeE1Short,
                    1 => ChainId::LeR3Short,
                    _ => ChainId::GlobalSignAtlas,
                };
                (chain, p256)
            }
        };

        // Compression support: Cloudflare/Google/Meta all support brotli;
        // Meta additionally offers zlib+zstd (the 0.05% of Table 1).
        let compression_support: &'static [Algorithm] = match provider {
            Provider::Meta => &[Algorithm::Brotli, Algorithm::Zlib, Algorithm::Zstd],
            Provider::Cloudflare | Provider::Google => &[Algorithm::Brotli],
            Provider::SelfHosted => {
                if rng.chance(BROTLI_SUPPORT_OTHER) {
                    &[Algorithm::Brotli]
                } else {
                    &[]
                }
            }
        };

        let lb_share = if rank <= 1_000 {
            LB_SHARE_TOP1K
        } else if rank <= 10_000 {
            LB_SHARE_TOP10K
        } else {
            LB_SHARE_REST
        };
        let behind_lb = rng.chance(lb_share);
        let lb_overhead = if behind_lb {
            rng.range(28, 60) as usize
        } else {
            0
        };

        QuicDeployment {
            provider,
            behavior,
            chain_id,
            leaf_key,
            compression_support,
            behind_lb,
            lb_overhead,
            rotated_cert: rng.chance(ROTATION_RATE),
            cert_generation: 0,
            era_override: None,
        }
    }
}

/// A rank's draws up to and including the one that decides whether it is a
/// QUIC service. [`Head::draw`] skips the three name draws (seed, stem,
/// TLD) and reads the DNS, HTTPS and QUIC draws; [`Head::finish`] reads the
/// name draws off `names`, the stream at draw 0, and continues the
/// deployment draws on `rng`, past the decision.
struct Head {
    /// The forked stream at draw 0: seed, stem and TLD.
    names: SimRng,
    /// The same stream past the QUIC decision.
    rng: SimRng,
    rank: usize,
    /// The DNS outcome; an A record's address is hashed from the name, so
    /// it is a placeholder until [`Head::finish`].
    dns: DnsOutcome,
    https: bool,
    quic: bool,
}

/// The draws ahead of the DNS draws, one value each: seed, stem, TLD.
const NAME_DRAWS: u64 = 3;

/// The longest name a rank can get: the longest stem, a `usize` rank in
/// decimal, the dot and the longest TLD. Every name buffer is made this
/// big, so deriving into it never regrows it.
///
/// Its TLD walk also asserts what skipping [`NAME_DRAWS`] stands on: each
/// draw up to the QUIC decision takes one value, as a weighted draw over
/// positive weights and a chance strictly inside (0, 1) do.
const NAME_CAPACITY: usize = {
    assert!(HTTPS_SHARE > 0.0 && HTTPS_SHARE < 1.0);
    assert!(QUIC_SHARE > 0.0 && QUIC_SHARE < 1.0);
    let (mut stem, mut tld, mut i) = (0, 0, 0);
    while i < TLDS.len() {
        assert!(TLDS[i].1 > 0.0, "a TLD weight must be positive");
        if TLDS[i].0.len() > tld {
            tld = TLDS[i].0.len();
        }
        i += 1;
    }
    i = 0;
    while i < NAME_STEMS.len() {
        if NAME_STEMS[i].len() > stem {
            stem = NAME_STEMS[i].len();
        }
        i += 1;
    }
    stem + 20 + 1 + tld
};

impl Head {
    fn draw(root: &SimRng, rank: usize) -> Head {
        let names = root.fork(rank as u64);
        let mut rng = names.clone();
        rng.skip(NAME_DRAWS);
        // DNS funnel (§3.1).
        let dns = dns::resolve(rng.f64(), rng.f64(), Ipv4Addr::UNSPECIFIED);
        let https = dns.address().is_some() && rng.chance(HTTPS_SHARE);
        let quic = https && rng.chance(QUIC_SHARE);
        Head {
            names,
            rng,
            rank,
            dns,
            https,
            quic,
        }
    }

    /// The whole record, its name written into `name`, which is emptied
    /// and given [`NAME_CAPACITY`].
    fn finish(mut self, domains: usize, mut name: String) -> DomainRecord {
        let names = &mut self.names;
        let seed = names.next_u64();
        let stem = NAME_STEMS[(names.next_u64() % NAME_STEMS.len() as u64) as usize];
        let tld = TLDS[names
            .weighted_index_by(TLDS.len(), |i| TLDS[i].1)
            .unwrap_or(0)]
        .0;
        // Name: stem + rank + TLD. Assembled by hand — the formatting
        // machinery behind `format!` is measurable across a
        // ten-million-record stream (output pinned byte-identical by
        // `hand_assembled_names_match_format`).
        name.clear();
        name.reserve(NAME_CAPACITY);
        name.push_str(stem);
        push_decimal(&mut name, self.rank);
        name.push('.');
        name.push_str(tld);
        let dns = match self.dns {
            DnsOutcome::A(_) => DnsOutcome::A(self_hosted_addr(fnv1a(name.as_bytes()))),
            unresolved => unresolved,
        };

        let rng = &mut self.rng;
        let (https, quic) = if self.quic {
            let deployment = World::draw_quic_deployment(domains, rng, self.rank);
            let marginal = deployment.chain_id == ChainId::LeE1X2Cross;
            let extra_sans = if marginal {
                rng.range(16, 40) as u16
            } else {
                World::draw_extra_sans(rng)
            };
            let https = HttpsDeployment {
                chain_id: deployment.chain_id,
                leaf_key: deployment.leaf_key,
                extra_sans,
                redirect_hops: (rng.next_u64() % 3) as u8,
            };
            (Some(https), Some(deployment))
        } else if self.https {
            (Some(World::draw_https_only(rng)), None)
        } else {
            (None, None)
        };

        DomainRecord {
            rank: self.rank,
            name,
            dns,
            https,
            quic,
            seed,
        }
    }
}

/// The address a name hashing to `h` resolves to, and serves from when it
/// is self-hosted.
fn self_hosted_addr(h: u64) -> Ipv4Addr {
    Ipv4Addr::new(198, 18 + (h % 2) as u8, (h >> 8) as u8, (h >> 16) as u8)
}

// ------------------------------------------------- frozen compat block --
//
// `perfbench/` is frozen and calls exactly these two: it builds a world with
// `generate` and borrows `&DomainRecord`s from `quic_services`. `generate`
// is [`World::streaming`]; the population `quic_services` lends from is
// derived on its first call. Nothing else in the workspace may call either
// — derive `domain_chunk(1, n)`.

impl World {
    #[doc(hidden)]
    pub fn generate(config: WorldConfig) -> World {
        World::streaming(config)
    }

    #[doc(hidden)]
    pub fn quic_services(&self) -> impl Iterator<Item = &DomainRecord> {
        let population = self
            .lent
            .get_or_init(|| self.domain_chunk(1, self.config.domains));
        population.iter().filter(|d| d.has_quic())
    }
}

// --------------------------------------------- end frozen compat block --

/// Append `value` to `out` in decimal — `format!`'s output without its
/// per-call formatter machinery (the population generator's hottest line).
fn push_decimal(out: &mut String, value: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = value;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&digit| char::from(digit)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_x509::{der, DistinguishedName};

    /// The DER of the Name `CN=<name>`.
    fn cn_der(name: &str) -> Vec<u8> {
        der::encoded(|w| DistinguishedName::cn(name).encode_into(w))
    }

    #[test]
    fn hand_assembled_names_match_format() {
        for rank in [0usize, 1, 9, 10, 99, 12_345, 1_000_000, usize::MAX] {
            let mut name = String::new();
            name.push_str("shop");
            push_decimal(&mut name, rank);
            name.push('.');
            name.push_str("co.uk");
            assert_eq!(name, format!("shop{rank}.co.uk"));
        }
    }

    #[test]
    fn the_first_records_of_a_fixed_world_are_pinned() {
        // Every field a record draws, for the first 256 ranks, digested as
        // text. The digest was taken before the QUIC decision skipped the
        // name draws, so it is the one check here that sees a skip off by
        // a draw: both chunk forms share `Head`, and would agree with each
        // other on any draw order.
        use std::fmt::Write;
        let world = World::streaming(WorldConfig {
            domains: 10_000,
            seed: 0xC04E_2022,
        });
        let records = world.domain_chunk(1, 256);
        let mut text = String::new();
        for r in &records {
            let (rank, name, seed, dns, quic) = (r.rank, &r.name, r.seed, r.dns, r.has_quic());
            writeln!(
                text,
                "{rank} {name} {seed} {dns:?} {quic} {:?} {:?}",
                r.https, r.quic
            )
            .unwrap();
        }
        assert_eq!(
            quic(&records).count(),
            59,
            "QUIC services in the pinned ranks"
        );
        let head: Vec<_> = text.lines().take(3).collect();
        assert_eq!(fnv1a(text.as_bytes()), 0xB297_9322_25A3_5957, "{head:#?}");
    }

    fn small_world() -> World {
        World::streaming(WorldConfig {
            domains: 10_000,
            seed: 1,
        })
    }

    /// The whole population of `world`, derived as one chunk.
    fn population(world: &World) -> Vec<DomainRecord> {
        world.domain_chunk(1, world.config.domains)
    }

    fn quic(records: &[DomainRecord]) -> impl Iterator<Item = &DomainRecord> {
        records.iter().filter(|d| d.has_quic())
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, b) = (population(&small_world()), population(&small_world()));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.has_quic(), y.has_quic());
        }
    }

    #[test]
    fn chain_der_len_is_a_pure_function_of_the_class_tuple() {
        // The purity statement the scanner's `ProbeClass` keys on: total
        // chain DER length depends on a record only through its
        // `ChainClass` — (chain_id, effective era, leaf_key, cn_len,
        // extra_sans, serial_der_len) — rotated certs and the rare
        // trimmed-serial leaves included.
        use std::collections::HashMap;
        let world = small_world();
        let records = population(&world);
        let mut groups = HashMap::new();
        let mut observed = 0usize;
        let (mut rotated, mut trimmed) = (false, false);
        for era in CertificateEra::ALL {
            for record in quic(&records) {
                let key = ChainClass::quic(record, era).unwrap();
                let issued = world.quic_chain_era(record, era).unwrap().total_der_len();
                let len = *groups.entry(key).or_insert(issued);
                assert_eq!(len, issued, "rank {} era {era:?} {key:?}", record.rank);
                observed += 1;
                rotated |= record.quic.as_ref().unwrap().rotated_cert;
                // A full-width serial is 16 content bytes plus the header.
                trimmed |= key.serial_der_len < 18;
            }
        }
        assert!(rotated && trimmed, "world lacks a rotated / trimmed leaf");
        // Far fewer classes than records, or keying on the tuple buys nothing.
        assert!(
            groups.len() * 4 < observed,
            "{} classes for {observed} chains",
            groups.len()
        );
    }

    #[test]
    fn https_chain_shape_is_a_pure_function_of_the_class_tuple() {
        // The same statement for the chain the §3.1 funnel collects, over
        // everything an HTTPS record can carry: every chain id the
        // HTTPS-only mix draws, RSA-4096 and P-384 leaves, SAN-heavy and
        // cruise-liner leaves, and all three eras — reached the way churn
        // reaches them, through the QUIC deployment's `era_override`
        // under a classical scan (HTTPS-only records, which churn cannot
        // migrate, take the era as the scan era). One (total_der, depth)
        // per class, and the flyweight serves exactly it.
        use std::collections::{HashMap, HashSet};
        let world = small_world();
        let records = population(&world);
        let mut groups: HashMap<ChainClass, ChainShape> = HashMap::new();
        let mut observed = 0usize;
        let (mut chain_ids, mut leaf_keys) = (HashSet::new(), HashSet::new());
        let (mut san_heavy, mut cruise_liner) = (false, false);
        for era in CertificateEra::ALL {
            for record in records.iter().filter(|r| r.has_https()) {
                let mut record = record.clone();
                let scan_era = match record.quic.as_mut() {
                    Some(quic) => {
                        quic.era_override = Some(era);
                        CertificateEra::Classical
                    }
                    None => era,
                };
                let key = Served::https(&record, scan_era).unwrap().class();
                assert_eq!(key.era, era);
                let chain = world.https_chain_era(&record, scan_era).unwrap();
                let issued = ChainShape {
                    total_der: chain.total_der_len(),
                    depth: chain.depth(),
                };
                let shape = *groups.entry(key).or_insert(issued);
                assert_eq!(shape, issued, "rank {} era {era:?} {key:?}", record.rank);
                if scan_era == CertificateEra::Classical {
                    assert_eq!(world.https_chain_shape(&record), Some(issued));
                }
                observed += 1;
                let https = record.https.as_ref().unwrap();
                if record.quic.is_none() {
                    chain_ids.insert(https.chain_id);
                }
                leaf_keys.insert(https.leaf_key);
                san_heavy |= (13..=60).contains(&https.extra_sans);
                cruise_liner |= https.extra_sans >= 100;
            }
        }
        assert_eq!(chain_ids.len(), 18, "HTTPS-only chain ids: {chain_ids:?}");
        assert!(leaf_keys.contains(&KeyAlgorithm::Rsa4096));
        assert!(leaf_keys.contains(&KeyAlgorithm::EcdsaP384));
        assert!(san_heavy && cruise_liner, "world lacks a SAN-heavy leaf");
        assert!(
            groups.len() * 4 < observed,
            "{} classes for {observed} chains",
            groups.len()
        );
        // The flyweight learned the classes of its own (classical-scan)
        // lookups and nothing else.
        assert!(world.chain_shape_classes() > 0);
        assert!(world.chain_shape_classes() <= groups.len());
    }

    #[test]
    fn a_full_shape_table_stops_learning_and_changes_nothing() {
        // One class per lock shard: the table fills within a few hundred
        // records. From then on new classes are issued and not stored —
        // every answer still what the issuer measures.
        use crate::flyweight::SHARDS;
        let mut capped = small_world();
        capped.shapes = ClassTable::bounded(SHARDS);
        let roomy = small_world();
        let records = population(&capped);
        for record in records.iter().filter(|r| r.has_https()) {
            let chain = capped
                .https_chain_era(record, CertificateEra::Classical)
                .unwrap();
            let issued = ChainShape {
                total_der: chain.total_der_len(),
                depth: chain.depth(),
            };
            assert_eq!(capped.https_chain_shape(record), Some(issued));
            assert_eq!(roomy.https_chain_shape(record), Some(issued));
        }
        let classes = capped.chain_shape_classes();
        assert!(classes > 0 && classes <= SHARDS, "{classes}");
        assert!(roomy.chain_shape_classes() > SHARDS);
        // No HTTPS deployment, no shape.
        let bare = records.iter().find(|r| r.https.is_none());
        assert_eq!(capped.https_chain_shape(bare.unwrap()), None);
    }

    /// The population as rank-ordered `domain_chunk`s of `chunk_size`.
    fn chunks(world: &World, chunk_size: usize) -> impl Iterator<Item = Vec<DomainRecord>> + '_ {
        (1..=world.config.domains)
            .step_by(chunk_size)
            .map(move |first| world.domain_chunk(first, chunk_size))
    }

    #[test]
    fn streamed_chunks_reproduce_the_materialised_population() {
        let world = small_world();
        let whole = population(&world);
        for chunk_size in [1usize, 64, 4096, usize::MAX] {
            let streamed: Vec<DomainRecord> = chunks(&world, chunk_size).flatten().collect();
            assert_eq!(streamed.len(), whole.len(), "chunk {chunk_size}");
            for (s, m) in streamed.iter().zip(&whole) {
                assert_eq!(s.rank, m.rank);
                assert_eq!(s.name, m.name);
                assert_eq!(s.seed, m.seed);
                assert_eq!(s.has_quic(), m.has_quic());
                assert_eq!(s.has_https(), m.has_https());
            }
        }
    }

    #[test]
    fn streaming_world_never_materialises_but_derives_identically() {
        let config = WorldConfig {
            domains: 2_000,
            seed: 9,
        };
        let lazy = World::streaming(config.clone());
        let whole = World::streaming(config);
        let reference = population(&whole);
        // Chunks of one world equal the single-chunk population of another,
        // and chains issue per record identically on both.
        let mut streamed = 0usize;
        for chunk in chunks(&lazy, 512) {
            for record in &chunk {
                let other = &reference[record.rank - 1];
                assert_eq!(record.seed, other.seed);
                assert_eq!(record.name, other.name);
                if record.has_quic() && record.rank <= 200 {
                    let a = lazy
                        .quic_chain_era(record, CertificateEra::Classical)
                        .unwrap();
                    let b = whole
                        .quic_chain_era(other, CertificateEra::Classical)
                        .unwrap();
                    assert_eq!(a.concatenated_der(), b.concatenated_der());
                }
                streamed += 1;
            }
        }
        assert_eq!(streamed, 2_000);
        // Point derivation agrees too.
        let point = lazy.domain_chunk(1_234, 1);
        assert_eq!(point.len(), 1);
        assert_eq!(point[0].name, reference[1_233].name);
        // Deriving holds nothing: the one population a world can hold is
        // the frozen `quic_services` loan, filled by that call alone.
        assert!(lazy.lent.get().is_none() && whole.lent.get().is_none());
    }

    #[test]
    fn adoption_rates_match_calibration() {
        let records = population(&small_world());
        let n = records.len() as f64;
        let quic = quic(&records).count() as f64;
        let https_only = records
            .iter()
            .filter(|d| d.has_https() && !d.has_quic())
            .count() as f64;
        // Fig 12: ~21% QUIC, ~59% additional HTTPS-only (of HTTPS≈80%).
        assert!((quic / n - 0.21).abs() < 0.025, "quic {}", quic / n);
        assert!(
            (https_only / n - 0.59).abs() < 0.05,
            "https-only {}",
            https_only / n
        );
    }

    #[test]
    fn cloudflare_dominates_quic_population() {
        let records = population(&small_world());
        let quic: Vec<_> = quic(&records).collect();
        let cf = quic
            .iter()
            .filter(|d| d.quic.as_ref().unwrap().provider == Provider::Cloudflare)
            .count() as f64;
        let share = cf / quic.len() as f64;
        assert!((share - 0.67).abs() < 0.05, "cf share {share}");
    }

    #[test]
    fn chains_materialise_and_match_deployment() {
        let world = small_world();
        let records = population(&world);
        let record = quic(&records).next().expect("some QUIC service");
        let chain = world
            .quic_chain_era(record, CertificateEra::Classical)
            .unwrap();
        assert!(chain.correctly_ordered());
        assert_eq!(chain.leaf.subject(), cn_der(&record.name));
        let https_chain = world
            .https_chain_era(record, CertificateEra::Classical)
            .unwrap();
        if !record.quic.as_ref().unwrap().rotated_cert {
            assert_eq!(chain.leaf.der(), https_chain.leaf.der());
        }
    }

    #[test]
    fn era_chains_share_the_population_and_swap_the_algorithms() {
        let world = small_world();
        let records = population(&world);
        let record = quic(&records).next().expect("some QUIC service");
        let classical = world
            .quic_chain_era(record, CertificateEra::Classical)
            .unwrap();
        let classical_era = world
            .quic_chain_era(record, CertificateEra::Classical)
            .unwrap();
        // The classical era is the identity — byte-for-byte.
        assert_eq!(
            classical.concatenated_der(),
            classical_era.concatenated_der()
        );
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            let chain = world.quic_chain_era(record, era).unwrap();
            // Same population: identical subject, depth and SAN bytes.
            assert_eq!(chain.leaf.subject(), cn_der(&record.name), "{era}");
            assert_eq!(chain.depth(), classical.depth(), "{era}");
            assert_eq!(chain.leaf.san_count(), classical.leaf.san_count());
            // Swapped algorithms: much bigger wire footprint.
            assert!(chain.leaf.key_algorithm().is_post_quantum(), "{era}");
            assert!(
                chain.total_der_len() > 2 * classical.total_der_len(),
                "{era}: {} vs {}",
                chain.total_der_len(),
                classical.total_der_len()
            );
            let https = world.https_chain_era(record, era).unwrap();
            if !record.quic.as_ref().unwrap().rotated_cert {
                assert_eq!(chain.leaf.der(), https.leaf.der(), "{era}");
            }
        }
    }

    #[test]
    fn meta_services_offer_all_three_algorithms() {
        let records = population(&World::streaming(WorldConfig {
            domains: 30_000,
            seed: 3,
        }));
        let meta: Vec<_> = quic(&records)
            .filter(|d| d.quic.as_ref().unwrap().provider == Provider::Meta)
            .collect();
        assert!(!meta.is_empty(), "a 30k world should contain Meta services");
        for d in &meta {
            assert_eq!(d.quic.as_ref().unwrap().compression_support.len(), 3);
        }
    }

    #[test]
    fn lb_deployment_concentrates_at_top_ranks() {
        let records = population(&World::streaming(WorldConfig {
            domains: 50_000,
            seed: 5,
        }));
        let lb_rate = |lo: usize, hi: usize| {
            let (lb, total) = quic(&records)
                .filter(|d| d.rank >= lo && d.rank < hi)
                .fold((0usize, 0usize), |(lb, n), d| {
                    (lb + d.quic.as_ref().unwrap().behind_lb as usize, n + 1)
                });
            lb as f64 / total.max(1) as f64
        };
        let top = lb_rate(1, 1_000);
        let mid = lb_rate(1_000, 10_000);
        let rest = lb_rate(10_000, 50_000);
        assert!(top > mid && mid > rest, "{top} > {mid} > {rest}");
    }

    #[test]
    fn server_addresses_follow_providers() {
        let records = population(&small_world());
        for d in quic(&records).take(200) {
            let addr = World::server_addr(d);
            match d.quic.as_ref().unwrap().provider {
                Provider::Cloudflare => assert_eq!(addr.octets()[0], 104),
                Provider::Google => assert_eq!(addr.octets()[0], 142),
                Provider::Meta => assert_eq!(addr.octets()[0], 157),
                Provider::SelfHosted => assert_eq!(addr.octets()[0], 198),
            }
        }
    }
}
