//! Certificate-compression probing (the quiche fork of §3.2) and the
//! synthetic compression study of §4.2.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use quicert_analysis::{impl_merge, Cdf, Merge};
use quicert_compress::{compress_with, Algorithm};
use quicert_pki::{CertificateEra, DomainRecord, QuicDeployment, World};
use quicert_tls::{ServerFlight, ServerFlightParams};
use quicert_x509::CertificateChain;

/// Per-service compression probe result for one algorithm.
#[derive(Debug, Clone)]
pub struct CompressionProbe {
    /// Service rank.
    pub rank: usize,
    /// Algorithm offered.
    pub algorithm: Algorithm,
    /// Whether the server negotiated it.
    pub supported: bool,
    /// `(compressed, uncompressed)` certificate-message bytes when
    /// supported: the achieved ratio's exact integer numerator and
    /// denominator, which is what the summaries accumulate (integer sums
    /// merge exactly; float ratio sums do not).
    pub message_bytes: Option<(usize, usize)>,
}

/// Probe one QUIC service with all three algorithms: its
/// `Algorithm::ALL`-ordered probe row, or `None` for a record without a
/// QUIC deployment or chain. The service's chain is issued once, by the
/// first algorithm it supports, and shared.
pub fn probe_row(world: &World, record: &DomainRecord) -> Option<[CompressionProbe; 3]> {
    let quic = record.quic.as_ref()?;
    let chain = OnceCell::new();
    let [zlib, brotli, zstd] =
        Algorithm::ALL.map(|algorithm| probe_sharing(world, record, quic, algorithm, &chain));
    Some([zlib?, brotli?, zstd?])
}

/// Probe one service with one algorithm offer, over `record`'s lazily
/// issued chain (`None` when a supported offer finds no chain to send).
fn probe_sharing(
    world: &World,
    record: &DomainRecord,
    quic: &QuicDeployment,
    algorithm: Algorithm,
    chain: &OnceCell<Option<CertificateChain>>,
) -> Option<CompressionProbe> {
    let supported = quic.compression_support.contains(&algorithm);
    let mut message_bytes = None;
    if supported {
        let issue = || world.quic_chain_era(record, CertificateEra::Classical);
        let flight = ServerFlight::build(&ServerFlightParams {
            chain: chain.get_or_init(issue).as_ref()?,
            leaf_key: quic.leaf_key,
            compression: Some(algorithm),
            seed: record.seed,
        });
        message_bytes = Some((
            flight.certificate_message_len,
            flight.uncompressed_certificate_len,
        ));
    }
    Some(CompressionProbe {
        rank: record.rank,
        algorithm,
        supported,
        message_bytes,
    })
}

/// Probe every QUIC service of a world with all three algorithms and fold
/// the rows: a serial [`probe_row`] per service of the population derived
/// as one chunk — the pump-free reference.
pub fn scan(world: &World) -> CompressionSupport {
    let records = world.domain_chunk(1, world.config.domains);
    let services = records.iter().filter(|record| record.has_quic());
    let mut support = CompressionSupport::identity();
    for row in services.filter_map(|record| probe_row(world, record)) {
        support.push(&row);
    }
    support
}

// Frozen for `perfbench/` (see `quicreach.rs`'s compat block): map
// [`probe_row`] instead.
#[doc(hidden)]
pub fn probe_records(world: &World, records: &[&DomainRecord]) -> Vec<[CompressionProbe; 3]> {
    records
        .iter()
        .filter_map(|record| probe_row(world, record))
        .collect()
}

/// Table 1's measured half, folded from one probe row per QUIC service:
/// the [`CompressionShard`]'s support counts, byte totals and all-three
/// count, plus each algorithm's achieved ratios for the mean-ratio column.
/// Every part is an exact count or integer sum, so [`Merge`] is exactly
/// associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionSupport {
    /// Per-algorithm support counts and byte totals, and the all-three
    /// count.
    pub shard: CompressionShard,
    /// Per algorithm in [`Algorithm::ALL`] order: each uncompressed
    /// certificate-message length a negotiating service sent, with those
    /// services' compressed bytes summed — bounded by the distinct
    /// lengths, not the services.
    pub ratios: [BTreeMap<usize, u64>; 3],
}

impl CompressionSupport {
    /// Fold one service's probe row in.
    pub fn push(&mut self, row: &[CompressionProbe; 3]) {
        self.shard.push(row);
        for (lengths, probe) in self.ratios.iter_mut().zip(row) {
            if let Some((compressed, uncompressed)) = probe.message_bytes {
                *lengths.entry(uncompressed).or_default() += compressed as u64;
            }
        }
    }

    /// Services probed.
    pub fn total(&self) -> u64 {
        self.shard.algorithms[0].total
    }

    /// Mean achieved ratio (compressed / uncompressed certificate message)
    /// over the services that negotiated `algorithm`, 0.0 when none did:
    /// per uncompressed length its summed compressed bytes over the length,
    /// added up in length order — the mean of the per-service ratios up to
    /// the last bits, whatever order the services were folded in.
    pub fn mean_ratio(&self, algorithm: Algorithm) -> f64 {
        let Some(i) = Algorithm::ALL.iter().position(|&a| a == algorithm) else {
            return 0.0;
        };
        let services = self.shard.algorithms[i].supported;
        if services == 0 {
            return 0.0;
        }
        let lengths = self.ratios[i].iter();
        let ratio_sum: f64 = lengths
            .map(|(&length, &sum)| sum as f64 / length as f64)
            .sum();
        ratio_sum / services as f64
    }
}

impl_merge! { CompressionSupport { shard, ratios } }

// -------------------------------------------------------- streaming fold --

/// Streaming per-algorithm support column: counts plus exact byte totals,
/// whose aggregate ratio `Σcompressed / Σuncompressed` is deterministic
/// under any chunking or worker order. Its algorithm is its place in
/// [`Algorithm::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmStreamColumn {
    /// Services that negotiated it.
    pub supported: u64,
    /// Services probed.
    pub total: u64,
    /// Certificate-message bytes on the wire across supporting services.
    pub compressed_bytes: u64,
    /// Uncompressed certificate-message bytes across supporting services.
    pub uncompressed_bytes: u64,
}

impl_merge! { AlgorithmStreamColumn { supported, total, compressed_bytes, uncompressed_bytes } }

impl AlgorithmStreamColumn {
    /// Support share in percent.
    pub fn share(&self) -> f64 {
        self.supported as f64 / self.total.max(1) as f64 * 100.0
    }
}

/// The mergeable summary one population chunk folds into on the streaming
/// compression path: one [`AlgorithmStreamColumn`] per RFC 8879 algorithm
/// plus the all-three count of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionShard {
    /// Per-algorithm columns in [`Algorithm::ALL`] order.
    pub algorithms: [AlgorithmStreamColumn; 3],
    /// Services supporting all three algorithms.
    pub all_three: u64,
}

impl CompressionShard {
    /// Derive the summary from materialized probe rows — the reference the
    /// streaming path must match bit-for-bit.
    pub fn from_probes(probes: &[[CompressionProbe; 3]]) -> CompressionShard {
        let mut shard = CompressionShard::identity();
        for row in probes {
            shard.push(row);
        }
        shard
    }

    /// Fold one service's probe row in.
    pub fn push(&mut self, row: &[CompressionProbe; 3]) {
        let columns = self.algorithms.iter_mut().zip(Algorithm::ALL);
        for ((column, algorithm), probe) in columns.zip(row) {
            debug_assert_eq!(probe.algorithm, algorithm);
            column.total += 1;
            if probe.supported {
                column.supported += 1;
                if let Some((compressed, uncompressed)) = probe.message_bytes {
                    column.compressed_bytes += compressed as u64;
                    column.uncompressed_bytes += uncompressed as u64;
                }
            }
        }
        if row.iter().all(|p| p.supported) {
            self.all_three += 1;
        }
    }
}

impl_merge! { CompressionShard { algorithms, all_three } }

/// Fold one population chunk, handed over as any record iterator, into a
/// [`CompressionShard`] without retaining probe rows beyond the record:
/// each QUIC service's [`probe_row`] is folded straight into the shard, so
/// the shard is bit-for-bit [`CompressionShard::from_probes`] over the
/// collected rows.
pub fn fold_iter<'a>(
    world: &World,
    records: impl IntoIterator<Item = &'a DomainRecord>,
) -> CompressionShard {
    let mut shard = CompressionShard::identity();
    let services = records.into_iter().filter(|record| record.has_quic());
    for row in services.filter_map(|record| probe_row(world, record)) {
        shard.push(&row);
    }
    shard
}

/// The synthetic §4.2 study: compress collected chains directly and report
/// (ratio, compressed size) per chain.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticCompression {
    /// Original chain size (concatenated DER).
    pub original: usize,
    /// Compressed size under brotli.
    pub compressed: usize,
}

impl SyntheticCompression {
    /// compressed/original.
    pub fn ratio(&self) -> f64 {
        self.compressed as f64 / self.original.max(1) as f64
    }
}

/// The §4.2 study of one (era, algorithm, stride) folded into what its
/// readers render: each sampled chain's (original, compressed) sizes with
/// how many chains had them — exact counts bounded by the distinct size
/// pairs, so [`Merge`] is exactly associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySummary {
    /// `(original, compressed)` bytes → chains.
    pub sizes: BTreeMap<(usize, usize), usize>,
}

impl StudySummary {
    /// Fold one compressed chain in.
    pub fn push(&mut self, chain: &SyntheticCompression) {
        *self
            .sizes
            .entry((chain.original, chain.compressed))
            .or_default() += 1;
    }

    /// Chains studied.
    pub fn chains(&self) -> usize {
        self.sizes.values().sum()
    }

    /// Chains whose compressed size is at most `limit` bytes.
    pub fn under(&self, limit: usize) -> usize {
        let fits = self
            .sizes
            .iter()
            .filter(|(&(_, compressed), _)| compressed <= limit);
        fits.map(|(_, &n)| n).sum()
    }

    /// Each distinct chain with its count, as the per-chain row.
    fn rows(&self) -> impl Iterator<Item = (SyntheticCompression, usize)> + '_ {
        self.sizes.iter().map(|(&(original, compressed), &n)| {
            (
                SyntheticCompression {
                    original,
                    compressed,
                },
                n,
            )
        })
    }

    /// The CDF of [`SyntheticCompression::ratio`] over the chains.
    pub fn ratio_cdf(&self) -> Cdf {
        Cdf::from_counts(self.rows().map(|(chain, n)| (chain.ratio(), n)))
    }

    /// The CDF of the compressed sizes.
    pub fn compressed_cdf(&self) -> Cdf {
        Cdf::from_counts(self.rows().map(|(chain, n)| (chain.compressed as f64, n)))
    }

    /// Mean original chain size: an exact integer sum, so bit for bit the
    /// mean of the per-chain sizes (0.0 when empty).
    pub fn mean_original(&self) -> f64 {
        let bytes: usize = self.rows().map(|(chain, n)| chain.original * n).sum();
        bytes as f64 / self.chains().max(1) as f64
    }

    /// Mean compressed/original ratio (0.0 when empty): each distinct
    /// chain's ratio times its count, summed in size order — the mean of the
    /// per-chain ratios up to the last bits, whatever the fold order.
    pub fn mean_ratio(&self) -> f64 {
        let sum: f64 = self.rows().map(|(chain, n)| chain.ratio() * n as f64).sum();
        sum / self.chains().max(1) as f64
    }
}

impl_merge! { StudySummary { sizes } }

/// Whether `record` is in the every-`stride`-th HTTPS-reachable sample the
/// synthetic study runs on — a function of the record alone.
pub fn in_study_sample(record: &DomainRecord, stride: usize) -> bool {
    (record.rank - 1).is_multiple_of(stride.max(1)) && record.has_https()
}

/// Compress the served chain of one sampled record with `algorithm`, in
/// one [`CertificateEra`]; `None` when it serves no HTTPS chain.
///
/// Across eras the sampled chains are the same with era-swapped keys and
/// signatures. The brotli profile's Fig-9-style certificate dictionary was
/// assembled from *classical* DER fragments, so the achieved ratio degrades
/// on ML-DSA material — the keys and signatures that dominate PQC chains
/// are incompressible random bytes the dictionary has never seen.
pub fn study(
    world: &World,
    record: &DomainRecord,
    algorithm: Algorithm,
    era: CertificateEra,
) -> Option<SyntheticCompression> {
    let chain = world.https_chain_era(record, era)?;
    let der = chain.concatenated_der();
    let compressed = compress_with(algorithm, &der);
    Some(SyntheticCompression {
        original: der.len(),
        compressed: compressed.data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::WorldConfig;

    /// A 4k world and its population.
    fn world() -> (World, Vec<DomainRecord>) {
        let world = World::streaming(WorldConfig {
            domains: 4_000,
            seed: 77,
        });
        let records = world.domain_chunk(1, world.config.domains);
        (world, records)
    }

    /// The study over the sample of `records`.
    fn study_each(
        world: &World,
        records: &[DomainRecord],
        stride: usize,
        algorithm: Algorithm,
        era: CertificateEra,
    ) -> Vec<SyntheticCompression> {
        let sampled = records.iter().filter(|r| in_study_sample(r, stride));
        sampled
            .filter_map(|r| study(world, r, algorithm, era))
            .collect()
    }

    #[test]
    fn study_sample_is_every_stride_th_https_domain() {
        let (_, records) = world();
        for stride in [0usize, 1, 7, 40] {
            let stepped: Vec<usize> = records
                .iter()
                .step_by(stride.max(1))
                .filter(|record| record.has_https())
                .map(|record| record.rank)
                .collect();
            let sampled: Vec<usize> = records
                .iter()
                .filter(|record| in_study_sample(record, stride))
                .map(|r| r.rank)
                .collect();
            assert_eq!(sampled, stepped, "stride {stride}");
        }
    }

    #[test]
    fn brotli_support_is_ubiquitous_all_three_rare() {
        let (world, records) = world();
        let support = scan(&world);
        let column = |algorithm| {
            let mut columns = Algorithm::ALL.iter().zip(&support.shard.algorithms);
            columns.find(|(&a, _)| a == algorithm).unwrap().1.share()
        };
        assert!(column(Algorithm::Brotli) > 90.0);
        assert!(column(Algorithm::Zlib) < 2.0);
        let services = records.iter().filter(|r| r.has_quic()).count();
        assert_eq!(support.total(), services as u64);
        let all_three = support.shard.all_three;
        assert!(all_three > 0, "Meta serves all three");
        assert!((all_three as f64 / support.total() as f64) < 0.02);
    }

    #[test]
    fn rows_over_one_shared_chain_equal_independent_probes() {
        let (world, records) = world();
        let mut multi = 0;
        for record in records.iter().filter(|r| r.has_quic()) {
            let row = probe_row(&world, record).unwrap();
            multi += usize::from(row.iter().filter(|p| p.supported).count() > 1);
            let quic = record.quic.as_ref().unwrap();
            for (shared, algorithm) in row.iter().zip(Algorithm::ALL) {
                let alone = probe_sharing(&world, record, quic, algorithm, &OnceCell::new());
                let alone = alone.unwrap();
                assert_eq!(
                    (shared.rank, shared.algorithm, shared.supported),
                    (alone.rank, alone.algorithm, alone.supported)
                );
                assert_eq!(shared.message_bytes, alone.message_bytes);
            }
        }
        assert!(multi > 0, "no service reused its chain");
    }

    #[test]
    fn a_record_without_a_quic_deployment_has_no_probe_row() {
        let (world, records) = world();
        let https_only = records.iter().find(|r| r.quic.is_none()).unwrap();
        assert!(probe_row(&world, https_only).is_none());
        let service = records.iter().find(|r| r.has_quic()).unwrap();
        assert!(probe_row(&world, service).is_some());
    }

    #[test]
    fn achieved_ratios_are_meaningful() {
        let (world, _) = world();
        let support = scan(&world);
        for (algorithm, s) in Algorithm::ALL.iter().zip(&support.shard.algorithms) {
            if s.supported > 0 {
                let ratio = support.mean_ratio(*algorithm);
                assert!((0.2..0.95).contains(&ratio), "{algorithm}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn dictionary_compression_degrades_on_pq_chains() {
        let (world, records) = world();
        let study = |era| study_each(&world, &records, 40, Algorithm::Brotli, era);
        let classical = study(CertificateEra::Classical);
        let ratios = |rows: &[SyntheticCompression]| {
            quicert_analysis::mean(&rows.iter().map(|r| r.ratio()).collect::<Vec<_>>())
        };
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            let pq = study(era);
            assert_eq!(pq.len(), classical.len());
            // PQC chains are dominated by incompressible ML-DSA material,
            // so the achieved ratio collapses toward 1.0.
            assert!(
                ratios(&pq) > ratios(&classical) + 0.15,
                "{era}: {} vs {}",
                ratios(&pq),
                ratios(&classical)
            );
            // And their compressed sizes routinely stay over the 3x budget
            // the classical study squeezes under.
            let limit = 3 * 1357;
            let over = pq.iter().filter(|r| r.compressed > limit).count();
            assert!(
                over * 2 > pq.len(),
                "{era}: only {over}/{} over the limit",
                pq.len()
            );
        }
    }

    #[test]
    fn sampled_study_keeps_most_chains_under_the_limit() {
        let (world, records) = world();
        let results = study_each(
            &world,
            &records,
            7,
            Algorithm::Brotli,
            CertificateEra::Classical,
        );
        assert!(results.len() > 100);
        let limit = 3 * 1357;
        let under = results.iter().filter(|r| r.compressed <= limit).count();
        let share = under as f64 / results.len() as f64;
        // §4.2: compression keeps ~99% of chains under the limit.
        assert!(share > 0.95, "under-limit share {share}");
        let ratios: Vec<f64> = results.iter().map(|r| r.ratio()).collect();
        let median = quicert_analysis::median(&ratios);
        assert!((0.3..0.85).contains(&median), "median ratio {median}");
    }
}
