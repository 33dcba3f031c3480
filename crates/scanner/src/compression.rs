//! Certificate-compression probing (the quiche fork of §3.2) and the
//! synthetic compression study of §4.2.

use std::cell::OnceCell;

use quicert_analysis::Merge;
use quicert_compress::{compress_with, Algorithm};
use quicert_pki::{CertificateEra, DomainRecord, World};
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
    /// Achieved ratio (compressed/uncompressed certificate message) when
    /// supported.
    pub ratio: Option<f64>,
    /// Certificate-message bytes on the wire when supported — the exact
    /// integer numerator/denominator behind `ratio`, which is what the
    /// streaming collator accumulates (integer sums merge exactly; float
    /// ratio sums do not).
    pub message_bytes: Option<(usize, usize)>,
}

/// Aggregate support/ratio per algorithm (Table 1 columns).
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmSupport {
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Services supporting it.
    pub supported: usize,
    /// Services probed.
    pub total: usize,
    /// Mean achieved ratio over supporting services.
    pub mean_ratio: f64,
}

impl AlgorithmSupport {
    /// Support share in percent.
    pub fn share(&self) -> f64 {
        self.supported as f64 / self.total.max(1) as f64 * 100.0
    }
}

/// Table 1's measured half: the per-algorithm columns and the all-three
/// count, both from one pass of probe rows.
#[derive(Debug, Clone, Copy)]
pub struct CompressionSupport {
    /// Per-algorithm columns in [`Algorithm::ALL`] order.
    pub algorithms: [AlgorithmSupport; 3],
    /// Services whose every probe negotiated — the 0.05% Meta signature.
    pub all_three: usize,
    /// Services probed.
    pub total: usize,
}

/// Probe one QUIC service with all three algorithms: its
/// `Algorithm::ALL`-ordered probe row. The service's chain is issued once,
/// by the first algorithm it supports, and shared.
pub fn probe_row(world: &World, record: &DomainRecord) -> [CompressionProbe; 3] {
    let chain = OnceCell::new();
    Algorithm::ALL.map(|algorithm| probe_sharing(world, record, algorithm, &chain))
}

/// Probe one service with one algorithm offer, over `record`'s lazily
/// issued chain.
fn probe_sharing(
    world: &World,
    record: &DomainRecord,
    algorithm: Algorithm,
    chain: &OnceCell<CertificateChain>,
) -> CompressionProbe {
    let quic = record.quic.as_ref().expect("QUIC service");
    let supported = quic.compression_support.contains(&algorithm);
    let flight = supported.then(|| {
        let chain = chain.get_or_init(|| {
            world
                .quic_chain_era(record, CertificateEra::Classical)
                .expect("chain")
        });
        ServerFlight::build(&ServerFlightParams {
            chain,
            leaf_key: quic.leaf_key,
            compression: Some(algorithm),
            seed: record.seed,
        })
    });
    CompressionProbe {
        rank: record.rank,
        algorithm,
        supported,
        ratio: flight.as_ref().map(|f| f.compression_ratio()),
        message_bytes: flight
            .as_ref()
            .map(|f| (f.certificate_message_len, f.uncompressed_certificate_len)),
    }
}

/// Probe every QUIC service of a world with all three algorithms and
/// aggregate: a serial [`probe_row`] per service of the population derived
/// as one chunk — the pump-free reference.
pub fn scan(world: &World) -> CompressionSupport {
    let records = world.domain_chunk(1, world.config.domains);
    let services = records.iter().filter(|record| record.has_quic());
    let rows: Vec<_> = services.map(|record| probe_row(world, record)).collect();
    collate(&rows)
}

// Frozen for `perfbench/` (see `quicreach.rs`'s compat block): map
// [`probe_row`] instead.
#[doc(hidden)]
pub fn probe_records(world: &World, records: &[&DomainRecord]) -> Vec<[CompressionProbe; 3]> {
    records
        .iter()
        .map(|record| probe_row(world, record))
        .collect()
}

/// Aggregate service-major probe rows into Table 1's per-algorithm columns
/// and all-three count. Ratios are folded in service order, so the result
/// is bit-for-bit independent of how the probing was claimed.
pub fn collate(probes: &[[CompressionProbe; 3]]) -> CompressionSupport {
    let column = |i: usize| {
        let algorithm = Algorithm::ALL[i];
        let mut supported = 0usize;
        let mut ratios = Vec::new();
        for row in probes {
            let p = &row[i];
            debug_assert_eq!(p.algorithm, algorithm);
            if p.supported {
                supported += 1;
                if let Some(r) = p.ratio {
                    ratios.push(r);
                }
            }
        }
        AlgorithmSupport {
            algorithm,
            supported,
            total: probes.len(),
            mean_ratio: quicert_analysis::mean(&ratios),
        }
    };
    CompressionSupport {
        algorithms: std::array::from_fn(column),
        all_three: probes
            .iter()
            .filter(|row| row.iter().all(|p| p.supported))
            .count(),
        total: probes.len(),
    }
}

// -------------------------------------------------------- streaming fold --

/// Streaming per-algorithm support column: counts plus exact byte totals.
///
/// The materialized [`AlgorithmSupport`] reports a mean of per-service
/// float ratios; float sums are not bit-associative, so the streaming
/// column accumulates the integer byte totals instead and reports the
/// aggregate ratio `Σcompressed / Σuncompressed` — deterministic under any
/// chunking or worker order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmStreamColumn {
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Services that negotiated it.
    pub supported: u64,
    /// Services probed.
    pub total: u64,
    /// Certificate-message bytes on the wire across supporting services.
    pub compressed_bytes: u64,
    /// Uncompressed certificate-message bytes across supporting services.
    pub uncompressed_bytes: u64,
}

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
        for (column, probe) in self.algorithms.iter_mut().zip(row) {
            debug_assert_eq!(column.algorithm, probe.algorithm);
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

impl Merge for CompressionShard {
    fn identity() -> Self {
        CompressionShard {
            algorithms: Algorithm::ALL.map(|algorithm| AlgorithmStreamColumn {
                algorithm,
                supported: 0,
                total: 0,
                compressed_bytes: 0,
                uncompressed_bytes: 0,
            }),
            all_three: 0,
        }
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.algorithms.iter_mut().zip(&other.algorithms) {
            assert_eq!(a.algorithm, b.algorithm, "misordered compression shards");
            a.supported += b.supported;
            a.total += b.total;
            a.compressed_bytes += b.compressed_bytes;
            a.uncompressed_bytes += b.uncompressed_bytes;
        }
        self.all_three += other.all_three;
    }
}

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
    for record in records.into_iter().filter(|record| record.has_quic()) {
        shard.push(&probe_row(world, record));
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
        let brotli = support
            .algorithms
            .iter()
            .find(|s| s.algorithm == Algorithm::Brotli)
            .unwrap();
        assert!(brotli.share() > 90.0, "brotli {}", brotli.share());
        let zlib = support
            .algorithms
            .iter()
            .find(|s| s.algorithm == Algorithm::Zlib)
            .unwrap();
        assert!(zlib.share() < 2.0, "zlib {}", zlib.share());
        let services = records.iter().filter(|r| r.has_quic()).count();
        assert_eq!(support.total, services);
        assert!(support.all_three > 0, "Meta serves all three");
        assert!((support.all_three as f64 / support.total as f64) < 0.02);
    }

    #[test]
    fn rows_over_one_shared_chain_equal_independent_probes() {
        let (world, records) = world();
        let mut multi = 0;
        for record in records.iter().filter(|r| r.has_quic()) {
            let row = probe_row(&world, record);
            multi += usize::from(row.iter().filter(|p| p.supported).count() > 1);
            for (shared, algorithm) in row.iter().zip(Algorithm::ALL) {
                let alone = probe_sharing(&world, record, algorithm, &OnceCell::new());
                assert_eq!(
                    (shared.rank, shared.algorithm, shared.supported),
                    (alone.rank, alone.algorithm, alone.supported)
                );
                assert_eq!(shared.ratio, alone.ratio);
                assert_eq!(shared.message_bytes, alone.message_bytes);
            }
        }
        assert!(multi > 0, "no service reused its chain");
    }

    #[test]
    fn achieved_ratios_are_meaningful() {
        let (world, _) = world();
        let support = scan(&world);
        for s in &support.algorithms {
            if s.supported > 0 {
                assert!(
                    (0.2..0.95).contains(&s.mean_ratio),
                    "{}: ratio {}",
                    s.algorithm,
                    s.mean_ratio
                );
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
