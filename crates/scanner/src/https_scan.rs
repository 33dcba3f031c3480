//! HTTPS certificate collection (§3.1): resolve, connect, follow
//! redirects, collect and summarise TLS chains.

use std::collections::BTreeMap;

use quicert_analysis::{impl_merge, HistogramSketch, Merge, Same, StreamSummary};
use quicert_pki::{CertificateEra, ChainId, ChainShape, DnsOutcome, DomainRecord, World};
use quicert_x509::{CertificateChain, FieldSizes, KeyAlgorithm};

/// Size/shape summary of one served certificate chain. Keeping summaries
/// instead of DER keeps million-domain scans in memory.
#[derive(Debug, Clone)]
pub struct ChainSummary {
    /// Which catalogued parent chain was served.
    pub chain_id: ChainId,
    /// Number of certificates.
    pub depth: usize,
    /// Total DER bytes of the chain.
    pub total_der: usize,
    /// DER bytes of the non-leaf part.
    pub parent_der: usize,
    /// DER bytes of the leaf.
    pub leaf_der: usize,
    /// Bytes of the leaf's subjectAltName extension (Fig 14).
    pub leaf_san_bytes: usize,
    /// Number of SAN entries on the leaf.
    pub leaf_san_count: usize,
    /// Field sizes per certificate, leaf first (Fig 2b / Fig 8).
    pub cert_fields: Vec<FieldSizes>,
    /// Key algorithm per certificate, leaf first (Table 2).
    pub cert_keys: Vec<KeyAlgorithm>,
    /// Whether each certificate is issued by the next (Fig 7 filters on
    /// this).
    pub correctly_ordered: bool,
    /// Whether a self-signed trust anchor is superfluously included (§4.2).
    pub includes_root: bool,
}

impl ChainSummary {
    /// Summarise a materialised chain.
    pub fn of(chain: &CertificateChain, chain_id: ChainId) -> ChainSummary {
        ChainSummary {
            chain_id,
            depth: chain.depth(),
            total_der: chain.total_der_len(),
            parent_der: chain.parent_der_len(),
            leaf_der: chain.leaf.der_len(),
            leaf_san_bytes: chain.leaf.san_bytes(),
            leaf_san_count: chain.leaf.san_count(),
            cert_fields: chain.certs().map(|c| c.field_sizes()).collect(),
            cert_keys: chain.certs().map(|c| c.tbs.spki.algorithm).collect(),
            correctly_ordered: chain.correctly_ordered(),
            includes_root: chain.includes_trust_anchor(),
        }
    }
}

/// One TLS-reachable domain.
#[derive(Debug, Clone)]
pub struct HttpsObservation {
    /// Tranco-style rank.
    pub rank: usize,
    /// Whether the domain also runs QUIC (set by the QUIC scan pass).
    pub is_quic: bool,
    /// Redirect hops followed before the certificate was collected.
    pub redirect_hops: u8,
    /// The collected chain.
    pub summary: ChainSummary,
}

/// Result of the full HTTPS scan.
#[derive(Debug, Clone, Default)]
pub struct HttpsScanReport {
    /// Names attempted.
    pub total: usize,
    /// Names that resolved (got any DNS answer).
    pub resolved: usize,
    /// SERVFAIL count.
    pub servfail: usize,
    /// NXDOMAIN count.
    pub nxdomain: usize,
    /// Timeout/REFUSED count.
    pub timeout_refused: usize,
    /// Names with an A record.
    pub a_records: usize,
    /// Names along redirect paths (≥ number of TLS domains).
    pub names_seen: usize,
    /// Per-domain observations for every TLS-reachable name.
    pub observations: Vec<HttpsObservation>,
}

/// Run the HTTPS certificate scan over a world: a serial [`observe`] per
/// record of the population derived as one chunk — the pump-free,
/// flyweight-free reference.
pub fn scan(world: &World) -> HttpsScanReport {
    let records = world.domain_chunk(1, world.config.domains);
    collate(records.iter().map(|r| (r.dns, observe(world, r))))
}

/// Fold one `(DNS outcome, observation)` row per scanned domain, in rank
/// order, into the funnel report: the DNS funnel counters come from the
/// outcomes, the chain summaries from the observations — no world needed,
/// so a population only ever derived in chunks folds the same.
pub fn collate(
    rows: impl IntoIterator<Item = (DnsOutcome, Option<HttpsObservation>)>,
) -> HttpsScanReport {
    let mut funnel = HttpsScanShard::identity();
    let (mut names_seen, mut observations) = (0, Vec::new());
    for (dns, observation) in rows {
        funnel.count_dns(dns);
        if let Some(obs) = observation {
            names_seen += 1 + obs.redirect_hops as usize;
            observations.push(obs);
        }
    }
    HttpsScanReport {
        total: funnel.total as usize,
        resolved: funnel.resolved as usize,
        servfail: funnel.servfail as usize,
        nxdomain: funnel.nxdomain as usize,
        timeout_refused: funnel.timeout_refused as usize,
        a_records: funnel.a_records as usize,
        names_seen,
        observations,
    }
}

// -------------------------------------------------------- streaming fold --

/// Bucket layout for the chain-size sketches: 64-byte buckets over
/// `[0, 32 KiB)`, comfortably covering every classical chain the ecosystem
/// issues (larger chains land in the overflow bucket and report exact
/// min/max). 64 bytes is the quantile error bound.
pub(crate) fn chain_size_sketch() -> HistogramSketch {
    HistogramSketch::new(0.0, 32_768.0, 512)
}

/// The mergeable summary one population chunk folds into on the streaming
/// HTTPS path: the §3.1 funnel counters plus bounded-memory chain-size
/// statistics. Replaces the per-domain observation list at scale — a
/// million-domain scan holds one of these per worker instead of ~800k
/// [`HttpsObservation`]s.
///
/// All counters are integers and the sketches bucket integer byte counts,
/// so [`Merge`] is exactly associative/commutative and the streamed
/// summary is bit-for-bit the one derived from a materialized report (see
/// [`HttpsScanShard::from_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpsScanShard {
    /// Names attempted.
    pub total: u64,
    /// Names that resolved (got any DNS answer).
    pub resolved: u64,
    /// SERVFAIL count.
    pub servfail: u64,
    /// NXDOMAIN count.
    pub nxdomain: u64,
    /// Timeout/REFUSED count.
    pub timeout_refused: u64,
    /// Names with an A record.
    pub a_records: u64,
    /// Names along redirect paths.
    pub names_seen: u64,
    /// TLS-reachable domains (certificate collected).
    pub tls_reachable: u64,
    /// Domains that also run QUIC.
    pub quic_services: u64,
    /// Total chain DER bytes, all TLS-reachable domains (Fig 2b/6 at
    /// scale).
    pub chain_der: HistogramSketch,
    /// Total chain DER bytes, QUIC services only (the small-chain half of
    /// Fig 6).
    pub quic_chain_der: HistogramSketch,
    /// Chain depth (certificates per chain).
    pub chain_depth: StreamSummary,
}

impl HttpsScanShard {
    /// Fold one domain in: its DNS-funnel contribution and, when it is
    /// TLS-reachable, the redirect hops followed before its certificate
    /// was collected and the shape of the chain collected.
    pub fn push(&mut self, record: &DomainRecord, served: Option<(u8, ChainShape)>) {
        self.count_dns(record.dns);
        if let Some((redirect_hops, shape)) = served {
            self.names_seen += 1 + redirect_hops as u64;
            self.fold_chain(record.has_quic(), shape);
        }
    }

    /// Count one name into the §3.1 DNS funnel: its total, exactly one of
    /// resolved (any answer, the paper's 976k), SERVFAIL, NXDOMAIN or
    /// timeout/REFUSED, and its A record if it has one. The funnel's one
    /// spelling: [`collate`] counts through it too.
    fn count_dns(&mut self, dns: DnsOutcome) {
        self.total += 1;
        match dns {
            DnsOutcome::A(_) | DnsOutcome::NoARecord => self.resolved += 1,
            DnsOutcome::ServFail => self.servfail += 1,
            DnsOutcome::NxDomain => self.nxdomain += 1,
            DnsOutcome::Timeout | DnsOutcome::Refused => self.timeout_refused += 1,
        }
        if dns.address().is_some() {
            self.a_records += 1;
        }
    }

    /// Fold one collected chain's statistics in — the single accumulation
    /// path shared by [`HttpsScanShard::push`] and
    /// [`HttpsScanShard::from_report`], so the streamed summary and the
    /// materialized reference can never learn different metrics.
    fn fold_chain(&mut self, is_quic: bool, shape: ChainShape) {
        self.tls_reachable += 1;
        let der = shape.total_der as f64;
        self.chain_der.push(der);
        if is_quic {
            self.quic_services += 1;
            self.quic_chain_der.push(der);
        }
        self.chain_depth.push(shape.depth as f64);
    }

    /// Derive the summary from a materialized [`HttpsScanReport`] — the
    /// reference the streaming path must match bit-for-bit.
    pub fn from_report(report: &HttpsScanReport) -> HttpsScanShard {
        let mut shard = HttpsScanShard::seeded();
        shard.total = report.total as u64;
        shard.resolved = report.resolved as u64;
        shard.servfail = report.servfail as u64;
        shard.nxdomain = report.nxdomain as u64;
        shard.timeout_refused = report.timeout_refused as u64;
        shard.a_records = report.a_records as u64;
        shard.names_seen = report.names_seen as u64;
        for obs in &report.observations {
            let (total_der, depth) = (obs.summary.total_der, obs.summary.depth);
            shard.fold_chain(obs.is_quic, ChainShape { total_der, depth });
        }
        shard
    }

    /// An empty shard with the canonical sketch layout (unlike
    /// [`Merge::identity`], whose sketches are layout-free).
    pub fn seeded() -> HttpsScanShard {
        HttpsScanShard {
            chain_der: chain_size_sketch(),
            quic_chain_der: chain_size_sketch(),
            ..HttpsScanShard::identity()
        }
    }
}

impl_merge! { HttpsScanShard {
    total, resolved, servfail, nxdomain, timeout_refused, a_records, names_seen, tls_reachable,
    quic_services, chain_der, quic_chain_der, chain_depth,
} }

/// The streamed §3.1 funnel: fold one population chunk, handed over as
/// any record iterator (the streaming pump hands workers owned chunks, so
/// no `Vec<&DomainRecord>` is built per chunk on the hot path), into an
/// [`HttpsScanShard`] without retaining anything beyond the chunk.
///
/// The funnel's statistics depend on a TLS-reachable domain only through
/// its redirect hops and two integers of its chain — total DER bytes and
/// depth — and those two are a pure function of the record's
/// [`quicert_pki::ChainClass`]. So no certificate is issued here to learn
/// its length: each record looks its class up in the world's chain-shape
/// flyweight ([`World::https_chain_shape`]), and only the first record of
/// a class pays the real issuer. The table lives on the `World`, so every
/// caller — a streamed scan, every fold of a resident service, the
/// certificate survey — shares it for the world's lifetime, and churn
/// cannot stale it (it reaches the HTTPS chain only through the era
/// override, a key field). A warm fold allocates the shard's two sketches
/// and nothing per record. The per-record [`observe`]/[`scan`]/
/// [`collate`] path never consults the table: it issues every chain, and
/// [`HttpsScanShard::from_report`] over it is the reference this fold must
/// match bit for bit.
pub fn fold_iter<'a>(
    world: &World,
    records: impl IntoIterator<Item = &'a DomainRecord>,
) -> HttpsScanShard {
    let mut shard = HttpsScanShard::seeded();
    for record in records {
        let https = record.https.as_ref().filter(|_| record.has_https());
        let served = https.and_then(|https| {
            let shape = world.https_chain_shape(record)?;
            Some((https.redirect_hops, shape))
        });
        shard.push(record, served);
    }
    shard
}

// --------------------------------------------------- certificate figures --

/// Fig 7's group of one parent chain in one service set: the correctly
/// ordered chains served under it, its parent part and their leaf sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct ParentChainGroup {
    /// Chains served under this parent chain.
    pub chains: usize,
    /// DER bytes of the parent certificates. The parents are the catalog's
    /// chain for the [`ChainId`], so every chain of a group has the same.
    pub parent_bytes: Same<usize>,
    /// Parent certificates per chain (depth − 1), the same for the group.
    pub parents: Same<usize>,
    /// Leaf DER bytes → chains.
    pub leaf_sizes: BTreeMap<usize, usize>,
}

impl_merge! { ParentChainGroup { chains, parent_bytes, parents, leaf_sizes } }

/// Fig 8's cell: the field sizes of its certificates summed, and how many
/// certificates it holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldCell {
    /// Per-field DER bytes, summed over the cell's certificates.
    pub sums: FieldSizes,
    /// Certificates in the cell.
    pub certificates: usize,
}

impl_merge! { FieldCell {
    sums: FieldSizes { subject, issuer, spki, extensions, signature, other }, certificates,
} }

/// The §3.1 HTTPS scan folded into what the certificate figures render:
/// the funnel, Fig 2b's field sizes, Fig 6's chain sizes, Fig 7's parent
/// chains, Fig 8's field-size cells, Table 2's keys, Fig 14's leaf/SAN
/// sizes and Figs 12/13's service counts per rank group. Every part is an
/// exact count or integer sum over value→count maps bounded by the
/// distinct values, not the population — so every printed quantile stays
/// exact and [`Merge`] is exactly associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct CertificateSummary {
    /// The §3.1 funnel, pushed with each issued chain's shape.
    pub funnel: HttpsScanShard,
    /// Fig 2b: per field (subject, issuer, SPKI, extensions, signature),
    /// its size → certificates, over every certificate collected.
    pub field_sizes: [BTreeMap<usize, usize>; 5],
    /// Fig 6: total chain DER bytes → chains, per service set
    /// ([`service_set`]: QUIC, HTTPS-only).
    pub chain_sizes: [BTreeMap<usize, usize>; 2],
    /// Fig 7: the correctly ordered chains per (QUIC?, parent chain).
    pub parent_chains: BTreeMap<(bool, ChainId), ParentChainGroup>,
    /// Fig 8: QUIC services' certificates per (leaf?, chain over 4000 B?),
    /// their field sizes summed and their count.
    pub field_cells: BTreeMap<(bool, bool), FieldCell>,
    /// Table 2: leaves per (QUIC?, key algorithm).
    pub leaf_keys: BTreeMap<(bool, KeyAlgorithm), usize>,
    /// Table 2: each parent certificate, unique per (QUIC?, parent chain,
    /// position in the chain), and its key algorithm — the catalog's, so
    /// every chain that reaches the position names the same one.
    pub parent_keys: BTreeMap<(bool, ChainId, usize), Same<KeyAlgorithm>>,
    /// Fig 14: QUIC services' leaves per (leaf DER bytes, SAN bytes).
    pub leaf_sans: BTreeMap<(usize, usize), usize>,
    /// Figs 12/13: per rank group of
    /// [`crate::quicreach::rank_group_width`] ranks, its TLS-reachable
    /// domains per service set. A group with none may be missing from the
    /// tail.
    pub rank_groups: Vec<[usize; 2]>,
}

/// The index of a service set in [`CertificateSummary`]'s per-set arrays:
/// 0 for QUIC services, 1 for HTTPS-only services.
pub fn service_set(is_quic: bool) -> usize {
    usize::from(!is_quic)
}

impl CertificateSummary {
    /// An empty summary whose funnel has the canonical sketch layout
    /// ([`HttpsScanShard::seeded`]), ready to push into.
    pub fn seeded() -> CertificateSummary {
        CertificateSummary {
            funnel: HttpsScanShard::seeded(),
            ..CertificateSummary::identity()
        }
    }

    /// Fold one scanned domain in: its funnel contribution and, when it is
    /// TLS-reachable, its collected chain's part of every figure.
    /// `group_width` is the population's rank-group width.
    pub fn push(
        &mut self,
        record: &DomainRecord,
        observation: Option<&HttpsObservation>,
        group_width: usize,
    ) {
        let served = observation.map(|obs| {
            let (total_der, depth) = (obs.summary.total_der, obs.summary.depth);
            (obs.redirect_hops, ChainShape { total_der, depth })
        });
        self.funnel.push(record, served);
        let Some(obs) = observation else {
            return;
        };
        let (chain, quic, set) = (&obs.summary, obs.is_quic, service_set(obs.is_quic));
        for f in &chain.cert_fields {
            let sizes = [f.subject, f.issuer, f.spki, f.extensions, f.signature];
            for (field, size) in self.field_sizes.iter_mut().zip(sizes) {
                *field.entry(size).or_default() += 1;
            }
        }
        *self.chain_sizes[set].entry(chain.total_der).or_default() += 1;
        // The paper's Fig 7 excludes incorrectly ordered chains.
        if chain.correctly_ordered {
            let group = self.parent_chains.entry((quic, chain.chain_id));
            let group = group.or_insert_with(ParentChainGroup::identity);
            group.parent_bytes.set(chain.parent_der);
            group.parents.set(chain.depth.saturating_sub(1));
            group.chains += 1;
            *group.leaf_sizes.entry(chain.leaf_der).or_default() += 1;
        }
        if quic {
            let big = chain.total_der > 4000;
            for (i, fields) in chain.cert_fields.iter().enumerate() {
                let cell = FieldCell {
                    sums: *fields,
                    certificates: 1,
                };
                let cells = self.field_cells.entry((i == 0, big));
                cells.or_insert_with(FieldCell::identity).merge(&cell);
            }
            let sans = (chain.leaf_der, chain.leaf_san_bytes);
            *self.leaf_sans.entry(sans).or_default() += 1;
        }
        if let Some((&leaf, parents)) = chain.cert_keys.split_first() {
            *self.leaf_keys.entry((quic, leaf)).or_default() += 1;
            for (i, &key) in parents.iter().enumerate() {
                let parent = self.parent_keys.entry((quic, chain.chain_id, i + 1));
                parent.or_insert_with(Same::identity).set(key);
            }
        }
        let group = (obs.rank - 1) / group_width;
        if self.rank_groups.len() <= group {
            self.rank_groups.resize(group + 1, [0; 2]);
        }
        self.rank_groups[group][set] += 1;
    }
}

impl_merge! { CertificateSummary {
    funnel, field_sizes, chain_sizes, parent_chains, field_cells, leaf_keys, parent_keys, leaf_sans,
    rank_groups,
} }

/// Fold one population chunk into a [`CertificateSummary`]: [`observe`]
/// each record — issuing its chain, no flyweight — and push what the
/// certificate figures read. The same pushes over the whole population,
/// serially, are the reference the engine's fold is held to.
pub fn certificates<'a>(
    world: &World,
    records: impl IntoIterator<Item = &'a DomainRecord>,
) -> CertificateSummary {
    let width = crate::quicreach::rank_group_width(world.config.domains);
    let mut summary = CertificateSummary::seeded();
    for record in records {
        summary.push(record, observe(world, record).as_ref(), width);
    }
    summary
}

/// Collect the certificate chain of one domain, if it is TLS-reachable.
pub fn observe(world: &World, record: &DomainRecord) -> Option<HttpsObservation> {
    if !record.has_https() {
        return None;
    }
    let https = record.https.as_ref()?;
    let chain = world.https_chain_era(record, CertificateEra::Classical)?;
    Some(HttpsObservation {
        rank: record.rank,
        is_quic: record.has_quic(),
        redirect_hops: https.redirect_hops,
        summary: ChainSummary::of(&chain, https.chain_id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::WorldConfig;

    fn report() -> HttpsScanReport {
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 5_000,
            seed: 21,
        });
        scan(&world)
    }

    #[test]
    fn funnel_counts_are_consistent() {
        let r = report();
        assert_eq!(r.total, 5_000);
        assert_eq!(
            r.total,
            r.resolved + r.servfail + r.nxdomain + r.timeout_refused
        );
        assert!(r.a_records <= r.resolved);
        assert!(r.observations.len() <= r.a_records);
        assert!(r.names_seen >= r.observations.len());
    }

    #[test]
    fn rates_follow_the_paper_funnel() {
        let r = report();
        let resolved_rate = r.resolved as f64 / r.total as f64;
        assert!((resolved_rate - 0.976).abs() < 0.01, "{resolved_rate}");
        // ~80% of domains end up TLS-reachable (Fig 12).
        let tls_rate = r.observations.len() as f64 / r.total as f64;
        assert!((tls_rate - 0.80).abs() < 0.03, "{tls_rate}");
    }

    #[test]
    fn quic_chains_are_smaller_in_the_median() {
        // Fig 6: QUIC domains use smaller certificates (median 2329 vs 4022
        // in the paper).
        let r = report();
        let median = |quic: bool| {
            let set = r.observations.iter().filter(|o| o.is_quic == quic);
            quicert_analysis::median(&set.map(|o| o.summary.total_der as f64).collect::<Vec<_>>())
        };
        let (quic_median, https_median) = (median(true), median(false));
        assert!(
            quic_median + 500.0 < https_median,
            "quic {quic_median} vs https-only {https_median}"
        );
        assert!(
            (1800.0..3000.0).contains(&quic_median),
            "quic median {quic_median}"
        );
        assert!(
            (3200.0..5200.0).contains(&https_median),
            "https median {https_median}"
        );
    }

    #[test]
    fn fig7_groups_pin_parent_bytes_and_depth_to_the_chain_id() {
        // Every correctly ordered chain of a parent chain id carries that
        // id's parent bytes and depth, whichever domain served it — so the
        // group records them once, not off its first-ranked member — and
        // each group holds exactly its service set's chains of that id.
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 5_000,
            seed: 21,
        });
        let report = scan(&world);
        let records = world.domain_chunk(1, world.config.domains);
        let summary = certificates(&world, &records);
        let mut want: BTreeMap<(bool, ChainId), ParentChainGroup> = BTreeMap::new();
        for obs in report.observations.iter() {
            let chain = &obs.summary;
            if !chain.correctly_ordered {
                continue;
            }
            let group = &summary.parent_chains[&(obs.is_quic, chain.chain_id)];
            let parents = (chain.parent_der, chain.depth - 1);
            assert_eq!(
                (group.parent_bytes.get(), group.parents.get()),
                (Some(&parents.0), Some(&parents.1)),
                "{:?}",
                chain.chain_id
            );
            let mine = want.entry((obs.is_quic, chain.chain_id));
            let mine = mine.or_insert_with(ParentChainGroup::identity);
            mine.parent_bytes.set(parents.0);
            mine.parents.set(parents.1);
            mine.chains += 1;
            *mine.leaf_sizes.entry(chain.leaf_der).or_default() += 1;
        }
        assert_eq!(summary.parent_chains, want);
        // An id's parents are the same in both service sets.
        for ((quic, id), group) in &summary.parent_chains {
            if let Some(other) = summary.parent_chains.get(&(!quic, *id)) {
                assert_eq!(
                    (group.parent_bytes, group.parents),
                    (other.parent_bytes, other.parents)
                );
            }
        }
        assert!(want.keys().any(|&(quic, _)| quic) && want.keys().any(|&(quic, _)| !quic));
    }

    #[test]
    #[should_panic(expected = "a Same value differs between its parts")]
    fn parts_that_disagree_on_a_parent_key_do_not_merge() {
        // Table 2 counts each parent certificate once per (set, chain,
        // position); were two parts to name different keys for one, the
        // table would depend on which part merged first.
        let part = |key| {
            let mut part = CertificateSummary::identity();
            let parent = part.parent_keys.entry((true, ChainId::LeR3Short, 1));
            parent.or_insert_with(Same::identity).set(key);
            part
        };
        let mut summary = part(KeyAlgorithm::Rsa2048);
        summary.merge(&part(KeyAlgorithm::EcdsaP384));
    }

    #[test]
    fn summaries_account_every_byte() {
        let r = report();
        for obs in r.observations.iter().take(50) {
            let s = &obs.summary;
            assert_eq!(s.total_der, s.parent_der + s.leaf_der);
            let field_total: usize = s.cert_fields.iter().map(|f| f.total()).sum();
            assert_eq!(field_total, s.total_der);
            assert_eq!(s.cert_keys.len(), s.depth);
            assert!(s.correctly_ordered);
        }
    }
}
