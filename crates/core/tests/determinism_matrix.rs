//! Cross-axis shard-invariance: every artifact family must be bit-for-bit
//! identical at any worker count across the full `(era × profile × policy)`
//! scenario grid, so no future axis can silently break the engine's
//! determinism guarantee the way a single-cell spot check could miss.

use std::sync::OnceLock;

use proptest::prelude::*;
use quicert_analysis::Merge;
use quicert_churn::{ChurnConfig, ChurnState, Timeline};
use quicert_compress::Algorithm;
use quicert_core::experiments::guidance::{self, ClientMitigation};
use quicert_core::{CampaignConfig, CampaignService, ScanEngine, ServiceConfig, TickStats};
use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::world::Provider;
use quicert_pki::{CertificateEra, DomainRecord, World, WorldConfig};
use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::compression::{self, CompressionShard, CompressionSupport, StudySummary};
use quicert_scanner::https_scan::{self, CertificateSummary, HttpsScanShard};
use quicert_scanner::quicreach::{
    self, EraJoin, ProbeScratch, QuicReachResult, QuicReachShard, QuicReachSummary, WarmAggregate,
};
use quicert_scanner::{qscanner, Scenario};
use quicert_session::ResumptionPolicy;

const INITIAL: usize = 1362;

/// The `(era, profile)` grid cell at the matrix's Initial size.
fn cell(era: CertificateEra, profile: NetworkProfile) -> Scenario {
    Scenario::at(INITIAL).with_era(era).with_profile(profile)
}

fn engine(workers: usize) -> ScanEngine {
    // Small on purpose: the grid below multiplies every cell by three
    // worker counts, and each warm cell probes every service twice.
    let config = WorldConfig {
        domains: 320,
        seed: 0x9121,
    };
    ScanEngine::streaming(config, INITIAL, workers)
}

/// The QUIC services of `world`'s population, derived as one chunk.
fn services(world: &World) -> Vec<DomainRecord> {
    let mut records = world.domain_chunk(1, world.config.domains);
    records.retain(DomainRecord::has_quic);
    records
}

/// The per-record oracle: one memo-free, pump-free
/// [`quicreach::scan_service`] per QUIC service of a world.
fn oracle(world: &World, scenario: Scenario) -> Vec<QuicReachResult> {
    let probe = |record| quicreach::scan_service(world, record, scenario);
    services(world).iter().map(probe).collect()
}

/// The chunk axis of the streaming grids. The engine has no chunk-size
/// option — its own claiming is adaptive — so a fixed chunk is spelled as
/// what it means: uniform `chunk`-rank ranges tiling the population, folded
/// one claim each on the same worker loop ([`ScanEngine::fold_ranges`]) and
/// merged. `chunk == 0` is the engine's adaptive claiming.
fn uniform_ranges(engine: &ScanEngine, chunk: usize) -> Vec<(usize, usize)> {
    (1..=engine.world().config.domains)
        .step_by(chunk)
        .map(|first| (first, chunk))
        .collect()
}

/// The streamed quicreach summary of `scenario` at one point of the chunk
/// axis (see [`uniform_ranges`]); the pump stats of the fold are the
/// engine's latest either way.
fn streamed_in_chunks(engine: &ScanEngine, scenario: Scenario, chunk: usize) -> QuicReachShard {
    if chunk == 0 {
        return engine.quicreach(scenario).shard.clone();
    }
    let ranges = uniform_ranges(engine, chunk);
    QuicReachShard::merge_all(engine.fold_ranges(
        &ranges,
        World::domain_chunk_into,
        |records, scratch| quicreach::fold_chunk(engine.world(), records, scenario, scratch),
    ))
}

/// The streamed §3.1 funnel at one point of the chunk axis.
fn funnel_in_chunks(engine: &ScanEngine, chunk: usize) -> HttpsScanShard {
    if chunk == 0 {
        return (*engine.stream_https_scan()).clone();
    }
    let ranges = uniform_ranges(engine, chunk);
    HttpsScanShard::merge_all(engine.fold_ranges(
        &ranges,
        World::domain_chunk_into,
        |records, _| https_scan::fold_iter(engine.world(), &*records),
    ))
}

#[test]
fn quicreach_grid_is_worker_invariant() {
    let reference = engine(1);
    for workers in [2usize, 8] {
        let parallel = engine(workers);
        for era in CertificateEra::ALL {
            for profile in NetworkProfile::ALL {
                assert_eq!(
                    *reference.quicreach(cell(era, profile)),
                    *parallel.quicreach(cell(era, profile)),
                    "quicreach {era}/{profile} diverged at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn warm_scan_grid_is_worker_invariant() {
    let reference = engine(1);
    for workers in [2usize, 8] {
        let parallel = engine(workers);
        for era in CertificateEra::ALL {
            for profile in NetworkProfile::ALL {
                for policy in ResumptionPolicy::ALL {
                    assert_eq!(
                        *reference.warm_scan(cell(era, profile).with_policy(policy)),
                        *parallel.warm_scan(cell(era, profile).with_policy(policy)),
                        "warm {era}/{profile}/{policy} diverged at {workers} workers"
                    );
                }
            }
        }
    }
}

/// The streaming path across the worker × chunk grid: the quicreach and
/// funnel summaries must be bit-for-bit identical at workers {1, 2, 8, 16}
/// and chunk sizes {1, 64, 4096} plus the engine's adaptive claiming
/// (chunk 0), and identical to the summary derived from the scanners' own
/// whole-world scans of the same (paper-scale-model) world.
#[test]
fn streaming_grid_is_worker_and_chunk_invariant() {
    let config = WorldConfig {
        domains: 1_500,
        seed: 0x9121,
    };
    // The reference: a serial per-record map with no engine, no pump, no
    // memo and no chain-shape flyweight, folded afterwards.
    let world = World::streaming(config.clone());
    let reach_ref = QuicReachShard::from_results(INITIAL, &quicreach::scan(&world, INITIAL));
    let https_ref = HttpsScanShard::from_report(&https_scan::scan(&world));
    assert!(reach_ref.total() > 0, "world has QUIC services");

    for workers in [1usize, 2, 8, 16] {
        // Chunk 0 is the engine's adaptive claiming: claims sized off the
        // remaining population rather than a fixed count.
        for chunk in [0usize, 1, 64, 4096] {
            let engine = ScanEngine::streaming(config.clone(), INITIAL, workers);
            assert_eq!(
                streamed_in_chunks(&engine, Scenario::at(INITIAL), chunk),
                reach_ref,
                "streamed quicreach diverged at workers={workers} chunk={chunk}"
            );
            assert_eq!(
                funnel_in_chunks(&engine, chunk),
                https_ref,
                "streamed funnel diverged at workers={workers} chunk={chunk}"
            );
        }
    }
}

/// Table 1's counts at workers {1, 2, 8}: every worker compresses
/// through match tables its thread keeps from one certificate to the next,
/// in whatever order it happens to claim chunks — and every count and byte
/// total must still be the materialized probe rows', folded in rank order,
/// in the support's shard and through the compat delegate alike.
#[test]
fn stream_compression_support_is_worker_invariant() {
    let config = WorldConfig {
        domains: 1_500,
        seed: 0x9121,
    };
    let world = World::streaming(config.clone());
    let rows: Vec<_> = services(&world)
        .iter()
        .filter_map(|record| compression::probe_row(&world, record))
        .collect();
    let reference = CompressionShard::from_probes(&rows);
    for (algorithm, column) in Algorithm::ALL.iter().zip(&reference.algorithms) {
        assert!(column.supported > 0, "{algorithm} is offered");
        assert!(column.compressed_bytes < column.uncompressed_bytes);
    }
    for workers in [1usize, 2, 8] {
        let engine = ScanEngine::streaming(config.clone(), INITIAL, workers);
        assert_eq!(
            engine.compression_support().shard,
            reference,
            "compression support diverged at workers={workers}"
        );
        assert_eq!(*engine.stream_compression_support(), reference);
    }
}

/// Scenario-class memoization must be invisible in every summary bit:
/// the streaming grid folded with the flyweight forced on equals the grid
/// folded with it forced off — across worker counts, chunkings, eras and
/// profiles (deterministic ones replay cached outcomes, RNG-consuming
/// ones bypass the memo; both must land on the same bits). Engines are
/// separate per setting because the stream cache is keyed on
/// (era, profile, size), not on the memo toggle.
#[test]
fn streaming_grid_is_memoization_invariant() {
    let config = WorldConfig {
        domains: 1_500,
        seed: 0x9121,
    };
    for (era, profile) in [
        (CertificateEra::Classical, NetworkProfile::Ideal),
        (CertificateEra::Classical, NetworkProfile::Tunneled),
        (CertificateEra::PostQuantum, NetworkProfile::Ideal),
        (CertificateEra::Hybrid, NetworkProfile::Lossy),
        (CertificateEra::Classical, NetworkProfile::LongFat),
    ] {
        let reference = ScanEngine::streaming(config.clone(), INITIAL, 1).with_memoization(false);
        let want = reference.quicreach(cell(era, profile));
        let want = &want.shard;
        let direct_totals = reference.pump_stats().expect("pump ran").totals();
        assert_eq!(direct_totals.memo_hits, 0, "{era}/{profile}");
        assert_eq!(direct_totals.memo_misses, 0, "{era}/{profile}");
        for (workers, chunk) in [(1usize, 0usize), (2, 64), (8, 4096)] {
            let memoized =
                ScanEngine::streaming(config.clone(), INITIAL, workers).with_memoization(true);
            assert_eq!(
                streamed_in_chunks(&memoized, cell(era, profile), chunk),
                *want,
                "memoized stream {era}/{profile} diverged at workers={workers} chunk={chunk}"
            );
            let totals = memoized.pump_stats().expect("pump ran").totals();
            let probed = want.total() as u64;
            if profile.is_deterministic() {
                // Every probe is accounted a hit or a miss, and some
                // classes must actually be shared at this population.
                assert_eq!(
                    totals.memo_hits + totals.memo_misses,
                    probed,
                    "{era}/{profile} workers={workers} chunk={chunk}"
                );
                assert!(
                    totals.distinct_classes <= totals.memo_misses,
                    "{era}/{profile}"
                );
                // Class *sharing* (hits > 0) only emerges at campaign
                // scale — the 3k-domain scanner unit test and the 1M
                // bench guard pin it; here a small grid world may
                // legitimately see all-distinct classes.
                assert!(totals.distinct_classes > 0, "{era}/{profile}");
            } else {
                // RNG-consuming profiles bypass the memo entirely.
                assert_eq!(totals.memo_hits, 0, "{era}/{profile}");
                assert_eq!(totals.memo_misses, 0, "{era}/{profile}");
                assert_eq!(totals.distinct_classes, 0, "{era}/{profile}");
            }
        }
    }
}

/// The streaming path stays invariant on the non-default scenario axes
/// too (one spot-check cell per axis to keep the grid affordable: the
/// full per-axis grids are covered by the materialized tests above plus
/// the streaming-equals-materialized equivalence).
#[test]
fn streaming_scenario_axes_are_worker_and_chunk_invariant() {
    let config = WorldConfig {
        domains: 320,
        seed: 0x9121,
    };
    let reference = ScanEngine::streaming(config.clone(), INITIAL, 1);
    for (era, profile) in [
        (CertificateEra::PostQuantum, NetworkProfile::Ideal),
        (CertificateEra::Classical, NetworkProfile::Lossy),
        (CertificateEra::Hybrid, NetworkProfile::Tunneled),
    ] {
        let want = streamed_in_chunks(&reference, cell(era, profile), 64);
        for (workers, chunk) in [(2usize, 1usize), (8, 4096), (16, 0)] {
            let engine = ScanEngine::streaming(config.clone(), INITIAL, workers);
            assert_eq!(
                streamed_in_chunks(&engine, cell(era, profile), chunk),
                want,
                "stream {era}/{profile} diverged at workers={workers} chunk={chunk}"
            );
        }
    }
}

/// The chaos grid across the worker × chunk × memo matrix: every
/// [`FaultPlan`] rung must fold bit-for-bit identical summaries at
/// workers {1, 2, 8} and chunks {adaptive, 64, 4096}, with memoization
/// forced on and forced off, and must equal the per-record oracle over the
/// same world. Fault wires draw per-probe RNG, so with
/// the memo forced *on* a non-NONE plan must still record zero memo
/// traffic — the plan's own determinism predicate bypasses it, even on
/// the otherwise-deterministic ideal profile.
#[test]
fn chaos_grid_is_worker_chunk_and_memo_invariant() {
    let config = WorldConfig {
        domains: 320,
        seed: 0x9121,
    };
    let era = CertificateEra::Classical;
    let profile = NetworkProfile::Ideal;
    let world = World::streaming(config.clone());
    for plan in [FaultPlan::LIGHT, FaultPlan::HEAVY, FaultPlan::DUP_STORM] {
        let reference = QuicReachShard::from_results(
            INITIAL,
            &oracle(&world, cell(era, profile).with_plan(plan)),
        );
        for (workers, chunk) in [(1usize, 0usize), (2, 64), (8, 4096)] {
            for memo in [true, false] {
                let engine =
                    ScanEngine::streaming(config.clone(), INITIAL, workers).with_memoization(memo);
                assert_eq!(
                    streamed_in_chunks(&engine, cell(era, profile).with_plan(plan), chunk),
                    reference,
                    "chaos {plan} diverged at workers={workers} chunk={chunk} memo={memo}"
                );
                let totals = engine.pump_stats().expect("pump ran").totals();
                assert_eq!(
                    (totals.memo_hits, totals.memo_misses, totals.distinct_classes),
                    (0, 0, 0),
                    "chaos {plan} consulted the memo at workers={workers} chunk={chunk} memo={memo}"
                );
            }
        }
    }
}

/// How a pass derives a claim's records: every rank, or QUIC services only.
type Derive = fn(&World, usize, usize, &mut Vec<DomainRecord>);

/// One point of the chunk axis for a summary `S`: the engine's own
/// adaptive pass (`adaptive`) at chunk 0, otherwise uniform ranges (see
/// [`uniform_ranges`]), derived by `derive` and folded one claim each by
/// `fold` through [`ScanEngine::fold_ranges`], merged.
fn summary_in_chunks<S: Merge + Send>(
    engine: &ScanEngine,
    chunk: usize,
    derive: Derive,
    adaptive: impl FnOnce() -> S,
    fold: impl Fn(&mut [DomainRecord], &mut ProbeScratch) -> S + Sync,
) -> S {
    if chunk == 0 {
        return adaptive();
    }
    let ranges = uniform_ranges(engine, chunk);
    S::merge_all(engine.fold_ranges(&ranges, derive, fold))
}

/// Every artefact held to the per-record function it is made of, mapped
/// serially over the world's population derived as one chunk and folded,
/// with no pump, no memo and no flyweight anywhere — the quicreach summary
/// of each scenario to [`quicreach::scan_service`] rows, each era join to a
/// serial per-service pairing of those rows across eras, the §5 client
/// mitigation to the loop that walked the per-record scan, the certificate
/// figures to [`https_scan::observe`], Table 1 to
/// [`compression::probe_row`], the compression study to
/// [`compression::study`], the warm scans and QScanner. At workers
/// {1, 2, 8} × chunks {adaptive, 64, 4096}
/// with the memo on and off, over 3 eras × {ideal, tunneled, lossy} ×
/// {1200, 1362, 1472} plus one fault-plan cell. With the memo on the
/// deterministic cells replay classes (one representative at the slowest
/// latency, rescaled), so a differing summary means the memo's stored
/// `ClassOutcome` misses a field the summary reads.
#[test]
fn every_artefact_equals_its_per_record_oracle_on_every_axis() {
    let config = WorldConfig {
        domains: 1_000,
        seed: 0x9121,
    };
    let world = World::streaming(config.clone());
    let domains = config.domains;
    let records = world.domain_chunk(1, world.config.domains);
    let services = || records.iter().filter(|r| r.has_quic());
    let mut cells: Vec<Scenario> = Vec::new();
    for era in CertificateEra::ALL {
        for profile in [
            NetworkProfile::Ideal,
            NetworkProfile::Tunneled,
            NetworkProfile::Lossy,
        ] {
            for initial in [1200usize, 1362, 1472] {
                cells.push(cell(era, profile).with_initial_size(initial));
            }
        }
    }
    cells.push(Scenario::at(INITIAL).with_plan(FaultPlan::MODERATE));
    let rows: Vec<_> = cells.iter().map(|&s| oracle(&world, s)).collect();
    let reach: Vec<_> = cells
        .iter()
        .zip(&rows)
        .map(|(s, rows)| QuicReachSummary::from_results(s.initial_size, domains, rows))
        .collect();
    // The era joins of the fault-free cells: each era's summary, and each
    // service's row in each era paired with its own classical row.
    let oracle_of = |s: Scenario| cells.iter().position(|&c| c == s).expect("an oracle cell");
    let joins: Vec<(Scenario, EraJoin)> = cells
        .iter()
        .filter(|s| s.era == CertificateEra::Classical && s.plan == FaultPlan::NONE)
        .map(|&classical| {
            let mut join = EraJoin::identity();
            let base = &rows[oracle_of(classical)];
            for (index, era) in CertificateEra::ALL.into_iter().enumerate() {
                let at = oracle_of(classical.with_era(era));
                join.summaries[index] = reach[at].clone();
                for (classical, now) in base.iter().zip(&rows[at]) {
                    join.tallies[index].push(classical, now);
                }
            }
            (classical, join)
        })
        .collect();
    assert_eq!(joins.len(), 9);
    // The §5 mitigation: the loop over the default scan's rows (a cold
    // probe never reads the default scenario's resumption policy).
    let default = Scenario::at(INITIAL);
    let mut mitigation = ClientMitigation::identity();
    for (record, first) in services().zip(&rows[oracle_of(default)]) {
        if first.class != HandshakeClass::MultiRtt {
            continue;
        }
        mitigation.multi_rtt_before += 1;
        let needed = first.wire_received.div_ceil(3) + 16;
        if needed > 1472 {
            mitigation.unfixable += 1;
            continue;
        }
        let adapted = default.with_initial_size(needed.clamp(1200, 1472));
        let second = quicreach::scan_service(&world, record, adapted);
        mitigation.fixed_by_mitigation += usize::from(second.class == HandshakeClass::OneRtt);
    }
    assert!(mitigation.multi_rtt_before > 0 && mitigation.fixed_by_mitigation > 0);
    // Warm revisits on one cell per profile and the faulted one (each
    // probes every service twice); the scenario-less families once.
    let warm_cells: Vec<Scenario> = cells
        .iter()
        .filter(|s| {
            s.initial_size == INITIAL && s.era == CertificateEra::Hybrid
                || s.plan != FaultPlan::NONE
        })
        .map(|s| s.with_policy(ResumptionPolicy::WarmAfterFirstVisit))
        .collect();
    assert_eq!(warm_cells.len(), 4);
    let warm: Vec<WarmAggregate> = warm_cells
        .iter()
        .map(|&s| {
            let mut agg = WarmAggregate::identity();
            for record in services() {
                agg.push(&quicreach::warm_service(&world, record, s));
            }
            agg
        })
        .collect();
    // The certificate figures: every record observed, its chain issued.
    let mut certificates = CertificateSummary::seeded();
    let width = quicreach::rank_group_width(domains);
    for record in &records {
        certificates.push(record, https_scan::observe(&world, record).as_ref(), width);
    }
    let (_, consistency) = qscanner::scan(&world);
    let mut support = CompressionSupport::identity();
    for row in services().filter_map(|r| compression::probe_row(&world, r)) {
        support.push(&row);
    }
    let mut studied = StudySummary::identity();
    for record in records
        .iter()
        .filter(|r| compression::in_study_sample(r, 9))
    {
        if let Some(chain) =
            compression::study(&world, record, Algorithm::Zstd, CertificateEra::Hybrid)
        {
            studied.push(&chain);
        }
    }

    for workers in [1usize, 2, 8] {
        for memo in [true, false] {
            // A streaming engine: nothing to borrow, every pass derives.
            let engine =
                ScanEngine::streaming(config.clone(), INITIAL, workers).with_memoization(memo);
            let world = engine.world();
            // Chunk 0 first: it is the pass that fills the caches.
            for chunk in [0usize, 64, 4096] {
                let context = format!("workers={workers} chunk={chunk} memo={memo}");
                let mut replayed = 0;
                for (&scenario, want) in cells.iter().zip(&reach) {
                    let context = format!("{scenario:?} {context}");
                    let got = summary_in_chunks(
                        &engine,
                        chunk,
                        World::quic_chunk_into,
                        || (*engine.quicreach(scenario)).clone(),
                        |records, scratch| {
                            let mut summary = QuicReachSummary::identity();
                            summary.fold(world, records, scenario, scratch);
                            summary
                        },
                    );
                    assert_eq!(got, *want, "{context}");
                    let totals = engine.pump_stats().expect("the scan pumped").totals();
                    let memoizes = memo
                        && scenario.profile.is_deterministic()
                        && scenario.plan.is_deterministic();
                    assert_eq!(
                        totals.memo_hits + totals.memo_misses,
                        if memoizes {
                            want.shard.total() as u64
                        } else {
                            0
                        },
                        "{context}"
                    );
                    replayed += totals.memo_hits;
                }
                assert_eq!(replayed > 0, memo, "{context}: classes replayed");
                for (cell, want) in &joins {
                    let got = summary_in_chunks(
                        &engine,
                        chunk,
                        World::quic_chunk_into,
                        || (*engine.era_join(*cell)).clone(),
                        |records, scratch| {
                            let mut join = EraJoin::identity();
                            join.fold(world, records, *cell, scratch);
                            join
                        },
                    );
                    for era in CertificateEra::ALL {
                        let context = format!("join {cell:?} {era} {context}");
                        assert_eq!(got.era(era).0, want.era(era).0, "{context}");
                        assert_eq!(got.era(era).1, want.era(era).1, "{context}");
                    }
                }
                let got = summary_in_chunks(
                    &engine,
                    chunk,
                    World::quic_chunk_into,
                    || guidance::client_mitigation(&engine),
                    |records, scratch| {
                        ClientMitigation::fold(world, records, engine.scenario(), scratch)
                    },
                );
                assert_eq!(got, mitigation, "mitigation {context}");
                let got = summary_in_chunks(
                    &engine,
                    chunk,
                    World::domain_chunk_into,
                    || (*engine.certificates()).clone(),
                    |records, _| https_scan::certificates(world, &*records),
                );
                assert_eq!(got, certificates, "certificates {context}");
                let got = summary_in_chunks(
                    &engine,
                    chunk,
                    World::quic_chunk_into,
                    || (*engine.compression_support()).clone(),
                    |records, _| {
                        let mut support = CompressionSupport::identity();
                        for row in records
                            .iter()
                            .filter_map(|r| compression::probe_row(world, r))
                        {
                            support.push(&row);
                        }
                        support
                    },
                );
                assert_eq!(got, support, "compression support {context}");
                let got = summary_in_chunks(
                    &engine,
                    chunk,
                    World::domain_chunk_into,
                    || {
                        (*engine.compression_study(CertificateEra::Hybrid, Algorithm::Zstd, 9))
                            .clone()
                    },
                    |records, _| {
                        let mut study = StudySummary::identity();
                        let sampled = records
                            .iter()
                            .filter(|r| compression::in_study_sample(r, 9));
                        let compress = |r| {
                            compression::study(world, r, Algorithm::Zstd, CertificateEra::Hybrid)
                        };
                        for chain in sampled.filter_map(compress) {
                            study.push(&chain);
                        }
                        study
                    },
                );
                assert_eq!(got, studied, "compression study {context}");
            }
            let context = format!("workers={workers} memo={memo}");
            for (scenario, want) in warm_cells.iter().zip(&warm) {
                let context = format!("warm {scenario:?} {context}");
                assert_eq!(*engine.warm_scan(*scenario), *want, "{context}");
            }
            assert_eq!(*engine.qscanner(), consistency, "{context}");
        }
    }
}

/// One shared world for the scratch-reuse property.
fn prop_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::streaming(WorldConfig {
            domains: 240,
            seed: 0x9121,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A pump worker folds many chunks through one reused `ProbeScratch`.
    // Whatever partition, scenario, and Initial size a case draws, every
    // chunk folded through the shared (dirty) scratch must equal the same
    // chunk folded through a fresh one — reuse may never leak probes,
    // outcomes, or ranks from an earlier chunk into a later shard.
    #[test]
    fn probe_scratch_reuse_never_leaks_state(
        chunk_sizes in proptest::collection::vec(1usize..60, 1..7),
        start in 1usize..120,
        era_idx in 0usize..CertificateEra::ALL.len(),
        profile_idx in 0usize..NetworkProfile::ALL.len(),
        initial in 1200usize..1473,
    ) {
        let world = prop_world();
        let era = CertificateEra::ALL[era_idx];
        let profile = NetworkProfile::ALL[profile_idx];
        let scenario = Scenario::at(initial).with_era(era).with_profile(profile);
        let mut shared = ProbeScratch::new();
        let mut first_rank = start;
        for chunk_size in chunk_sizes {
            let records = world.domain_chunk(first_rank, chunk_size);
            first_rank += chunk_size;
            if records.is_empty() {
                break;
            }
            let reused = quicreach::fold_chunk(world, &records, scenario, &mut shared);
            let fresh = quicreach::fold_chunk(world, &records, scenario, &mut ProbeScratch::new());
            prop_assert_eq!(
                reused,
                fresh,
                "reused scratch diverged on chunk [{}, +{}) {}/{} initial {}",
                first_rank - chunk_size,
                chunk_size,
                era,
                profile,
                initial
            );
        }
    }

    // Class-keyed replay equals direct per-record simulation: whatever
    // record window, era, deterministic profile and Initial size a case
    // draws, folding through a memoizing scratch — including a second
    // pass over the same records, where every probe is a memo *hit*
    // replayed from the table — must be bit-identical to a memo-less
    // scratch that simulates each record.
    #[test]
    fn memoized_replay_equals_direct_simulation(
        start in 1usize..160,
        len in 1usize..80,
        era_idx in 0usize..CertificateEra::ALL.len(),
        deterministic_idx in 0usize..2,
        initial in 1200usize..1473,
    ) {
        // Exactly the memoizable profiles: the ones whose overlays draw
        // no RNG (pinned by netsim's determinism-predicate test).
        let deterministic = [NetworkProfile::Ideal, NetworkProfile::Tunneled];
        let deterministic_profile = deterministic[deterministic_idx];
        assert!(deterministic_profile.is_deterministic());
        let world = prop_world();
        let era = CertificateEra::ALL[era_idx];
        // `start` stays inside the 240-domain world, so never empty.
        let records = world.domain_chunk(start, len);
        prop_assert!(!records.is_empty());
        let scenario = Scenario::at(initial)
            .with_era(era)
            .with_profile(deterministic_profile);
        let mut memoized = ProbeScratch::new();
        let mut direct = ProbeScratch::with_memo(false);
        let direct_shard = quicreach::fold_chunk(world, &records, scenario, &mut direct);
        for pass in 0..2 {
            let replayed = quicreach::fold_chunk(world, &records, scenario, &mut memoized);
            prop_assert_eq!(
                &replayed,
                &direct_shard,
                "replay diverged on pass {} [{}, +{}) {}/{} initial {}",
                pass,
                start,
                len,
                era,
                deterministic_profile,
                initial
            );
        }
        // Second pass over identical records: all hits, no new classes.
        let (hits, misses, _) = memoized.memo_stats();
        prop_assert_eq!(hits + misses, 2 * direct_shard.total() as u64);
        prop_assert!(hits >= direct_shard.total() as u64);
    }
}

/// A resident campaign over a dense multi-event churn timeline: every
/// tick carries rotations, drifts and revocations; the STEK epoch rolls
/// every other tick; and Cloudflare migrates to hybrid at tick 3.
fn churn_service(workers: usize, segment_size: usize) -> CampaignService {
    let campaign = CampaignConfig::small()
        .with_domains(480)
        .with_seed(0x9121)
        .with_workers(workers);
    let mut churn = ChurnConfig::new(0xC1C1, 480)
        .with_rates(6, 4, 2)
        .with_migration(3, Provider::Cloudflare, CertificateEra::Hybrid);
    churn.stek_rollover_every = 2;
    CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(segment_size))
}

/// The campaign service's load-bearing invariant across the worker ×
/// segment-size grid: the delta scan at every tick of a multi-event
/// timeline (rotation + drift + revocation + STEK rollover + era
/// migration) is bit-identical to a from-scratch full rescan of the
/// churned world at that tick, and identical across worker counts and
/// segmentations (including one single segment spanning the population).
#[test]
fn churn_delta_scans_equal_full_rescans_across_workers_and_segments() {
    const TICKS: u64 = 4;
    let mut reference = churn_service(1, 64);
    let reference_snapshots: Vec<_> = (0..=TICKS)
        .map(|tick| (*reference.snapshot_at(tick)).clone())
        .collect();
    for workers in [1usize, 2, 8] {
        for segment_size in [16usize, 96, 1024] {
            let mut service = churn_service(workers, segment_size);
            for tick in 0..=TICKS {
                let delta = service.snapshot_at(tick);
                let full = service.full_rescan_at(tick);
                assert_eq!(
                    *delta, full,
                    "delta != full rescan at tick {tick} workers={workers} segment={segment_size}"
                );
                assert_eq!(
                    *delta, reference_snapshots[tick as usize],
                    "snapshot diverged at tick {tick} workers={workers} segment={segment_size}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Churn timelines are pure functions of (seed, tick), and one tick's
    // events commute: applying them forward, reversed, or rotated by any
    // offset lands on the same state, which (tick counter aside) equals
    // the replayed reference. This is what lets the service apply a
    // tick's events in any order and still serve deterministic snapshots.
    #[test]
    fn churn_timeline_is_deterministic_and_order_independent(
        seed in any::<u64>(),
        domains in 1usize..2_000,
        tick in 1u64..32,
        rotations in 0usize..12,
        drifts in 0usize..8,
        revocations in 0usize..6,
        migrate_now in any::<bool>(),
        rotate_by in 0usize..64,
    ) {
        let migration_tick = if migrate_now { tick } else { tick + 1 };
        let config = ChurnConfig::new(seed, domains)
            .with_rates(rotations, drifts, revocations)
            .with_migration(migration_tick, Provider::Google, CertificateEra::Hybrid)
            .with_migration(migration_tick, Provider::Google, CertificateEra::PostQuantum);
        let timeline = Timeline::new(config);

        // Deterministic from (seed, tick): same events, same state, twice.
        let events = timeline.events_at(tick);
        prop_assert_eq!(&events, &timeline.events_at(tick));
        let replayed = ChurnState::at(&timeline, tick);
        prop_assert_eq!(&replayed, &ChurnState::at(&timeline, tick));

        // Order-independent within the tick.
        let base = ChurnState::at(&timeline, tick - 1);
        let mut forward = base.clone();
        for e in &events {
            forward.apply(e);
        }
        let mut backward = base.clone();
        for e in events.iter().rev() {
            backward.apply(e);
        }
        let mut rotated = base.clone();
        let offset = if events.is_empty() { 0 } else { rotate_by % events.len() };
        for e in events[offset..].iter().chain(&events[..offset]) {
            rotated.apply(e);
        }
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &rotated);

        // And any order agrees with the replayed reference once the tick
        // counter (bumped by `advance`, not `apply`) is aligned.
        forward.tick = tick;
        prop_assert_eq!(&forward, &replayed);
    }
}

/// The quicreach and §3.1 funnel summaries of `world`'s population at
/// churn tick `tick`, computed with no flyweight anywhere: derive the
/// records, overlay the replayed churn state, simulate every probe, and
/// issue every chain through the materialised `observe`/`collate` path.
fn flyweight_free_reference(
    world: &World,
    timeline: &Timeline,
    scenario: Scenario,
    tick: u64,
) -> (QuicReachShard, HttpsScanShard) {
    let mut records = world.domain_chunk(1, world.config.domains);
    ChurnState::at(timeline, tick).apply_to_records(&mut records);
    let reach = quicreach::fold_chunk(
        world,
        &records,
        scenario,
        &mut ProbeScratch::with_memo(false),
    );
    let observed = records
        .iter()
        .map(|r| (r.dns, https_scan::observe(world, r)));
    let report = https_scan::collate(observed);
    (reach, HttpsScanShard::from_report(&report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The engine's memo and the world's chain-shape table outlive their
    // pumps, so a service tick replays classes learned ticks ago — and the
    // service's own `full_rescan_at` shares both tables, so it proves
    // nothing about staleness any more. Hold every served snapshot to a
    // flyweight-free reference instead: whatever churn seed, rates and era
    // migration a case draws, at 1 and 2 workers and both segment sizes,
    // and in whatever order ticks are requested (forward deltas, skipped
    // ticks read back historically off the live segment cache, re-reads
    // of served ticks), `Snapshot.reach` must equal direct simulation of
    // the churned population at that tick and `Snapshot.funnel` the
    // materialised HTTPS scan of it.
    #[test]
    fn carried_memo_snapshots_equal_a_memo_free_reference(
        churn_seed in any::<u64>(),
        rotations in 0usize..24,
        drifts in 0usize..12,
        revocations in 0usize..8,
        migration_tick in 0u64..13,
        provider_idx in 0usize..4,
        to_post_quantum in any::<bool>(),
        two_workers in any::<bool>(),
        wide_segments in any::<bool>(),
        reads in proptest::collection::vec(0u64..13, 1..16),
    ) {
        const DOMAINS: usize = 400;
        let providers = [Provider::Cloudflare, Provider::Google, Provider::Meta, Provider::SelfHosted];
        let era = if to_post_quantum { CertificateEra::PostQuantum } else { CertificateEra::Hybrid };
        let churn = ChurnConfig::new(churn_seed, DOMAINS)
            .with_rates(rotations, drifts, revocations)
            .with_migration(migration_tick, providers[provider_idx], era);
        let campaign = CampaignConfig::small()
            .with_domains(DOMAINS)
            .with_seed(0x9121)
            .with_workers(if two_workers { 2 } else { 1 });
        let world = World::streaming(campaign.world.clone());
        let timeline = Timeline::new(churn.clone());
        let segment_size = if wide_segments { 256 } else { 64 };
        let mut service =
            CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(segment_size));
        let scenario = service.scenario();
        for tick in reads {
            let served = service.snapshot_at(tick);
            prop_assert_eq!(served.tick, tick);
            let (reach, funnel) = flyweight_free_reference(&world, &timeline, scenario, tick);
            let context = format!(
                "tick {} (clock {}) workers {} segment {}",
                tick,
                service.tick(),
                if two_workers { 2 } else { 1 },
                segment_size
            );
            prop_assert_eq!(&served.reach, &reach, "reach, {}", &context);
            prop_assert_eq!(&served.funnel, &funnel, "funnel, {}", &context);
        }
    }
}

/// A historical read sees the live churn state at its tick through an undo
/// list of the ranks churned since, and re-folds only the segments the
/// churn between its tick and the cache's last scan touched; a delta scan
/// re-folds the dirty segments of the live clock. Reading
/// every tick back from ahead of it — spans of one to six ticks, across
/// STEK rollovers and the tick-3 era migration, which makes every earlier
/// read re-fold every segment — equals serving each tick as a delta scan,
/// at 1 and 2 workers and at both segmentations, because every summary is
/// an exactly associative and commutative monoid.
#[test]
fn historical_reads_equal_delta_snapshots_across_workers() {
    const TICKS: u64 = 5;
    // Per-segment merges: a service that serves every tick as a delta scan.
    let mut stepping = churn_service(1, 64);
    let per_segment: Vec<_> = (0..=TICKS)
        .map(|tick| (*stepping.snapshot_at(tick)).clone())
        .collect();
    assert!(stepping.tick_log().iter().all(|t| !t.full_rescan));
    for workers in [1usize, 2] {
        for segment_size in [16usize, 1024] {
            // Reads: the clock runs ahead, every tick is read back.
            let mut ahead = churn_service(workers, segment_size);
            ahead.advance_to(TICKS + 1);
            ahead.snapshot_at(TICKS + 1);
            for tick in (0..=TICKS).rev() {
                let read = ahead.snapshot_at(tick);
                let stats = *ahead.tick_log().last().expect("the read was logged");
                assert!(stats.full_rescan && stats.tick == tick);
                if tick < 3 {
                    assert_eq!(stats.dirty_segments, stats.total_segments, "tick {tick}");
                }
                assert_eq!(
                    *read, per_segment[tick as usize],
                    "tick {tick} workers={workers} segment={segment_size}"
                );
                assert_eq!(*read, ahead.full_rescan_at(tick));
            }
        }
    }
}

/// The last tick the random steps of [`live_cache_reads_equal_full_rescans`]
/// can reach is 27 (nine steps of at most three ticks); its fixed tail
/// works past this second migration, on ticks no step requested.
const LATE_MIGRATION: u64 = 30;

/// The churn service [`live_cache_reads_equal_full_rescans`] reads from:
/// 16 drifts a tick (a drift is what a stale segment shows: a reissued
/// leaf mostly keeps its chain's length, so with 4 a tick a stale segment
/// often summarised equal), a STEK rollover every other tick, Google
/// migrating at `migration_tick` and Cloudflare at [`LATE_MIGRATION`].
fn reading_service(workers: usize, segment_size: usize, migration_tick: u64) -> CampaignService {
    let campaign = CampaignConfig::small()
        .with_domains(480)
        .with_seed(0x9121)
        .with_workers(workers);
    let mut churn = ChurnConfig::new(0xC1C1, 480)
        .with_rates(4, 16, 2)
        .with_migration(migration_tick, Provider::Google, CertificateEra::Hybrid)
        .with_migration(LATE_MIGRATION, Provider::Cloudflare, CertificateEra::Hybrid);
    churn.stek_rollover_every = 2;
    CampaignService::new(ServiceConfig::new(campaign, churn).with_segment_size(segment_size))
}

/// What a delta tick at the clock must log, rebuilt the way the service
/// once kept it beside the timeline (a dirty flag per segment and three
/// pending tallies, bumped on every applied tick): `ChurnState::advance`'s
/// `TickDelta`s over `(s, now]` from a state replayed to `s`, the cache's
/// last scan — every segment dirty before the first scan or across a
/// migration, and otherwise each segment a churned rank of which is a QUIC
/// service by its full derivation (churn on any other rank is a no-op).
/// Returns `(events, changed_ranks, all_changed, dirty_segments)`.
fn churn_pending_since(
    service: &CampaignService,
    scanned: Option<u64>,
) -> (usize, usize, bool, usize) {
    let config = service.config();
    let timeline = Timeline::new(config.churn.clone());
    let world = World::streaming(config.campaign.world.clone());
    let segment_size = config.segment_size;
    let mut dirty = vec![scanned.is_none(); config.campaign.world.domains.div_ceil(segment_size)];
    let mut state = ChurnState::at(&timeline, scanned.unwrap_or(0));
    let (mut events, mut ranks, mut all_changed) = (0, 0, false);
    while state.tick < service.tick() {
        let delta = state.advance(&timeline);
        events += delta.events;
        ranks += delta.changed_ranks.len();
        all_changed |= delta.all_changed;
        if delta.all_changed {
            dirty.fill(true);
        }
        for rank in delta.changed_ranks {
            if world.domain_chunk(rank, 1)[0].has_quic() {
                dirty[(rank - 1) / segment_size] = true;
            }
        }
    }
    let dirty_segments = dirty.iter().filter(|&&d| d).count();
    (events, ranks, all_changed, dirty_segments)
}

/// Serve the clock as a delta tick on the service that reads and on its
/// twin that never does: the same snapshot, equal to a full rescan of the
/// tick, the reader's delta scans
/// logged exactly as the twin logged its own, and a freshly scanned tick's
/// churn and re-folded segments equal to [`churn_pending_since`] the last
/// scan `scanned`, which then moves to the tick served (returned).
fn serve_both(
    reader: &mut CampaignService,
    twin: &mut CampaignService,
    scanned: &mut Option<u64>,
) -> Result<u64, TestCaseError> {
    let tick = reader.tick();
    prop_assert_eq!(twin.tick(), tick);
    let (pending, logged) = (churn_pending_since(twin, *scanned), twin.tick_log().len());
    let (served, expected) = (reader.snapshot_at(tick), twin.snapshot_at(tick));
    prop_assert!(*served == *expected, "delta snapshot at tick {}", tick);
    prop_assert!(
        *served == twin.full_rescan_at(tick),
        "delta snapshot at tick {} against a full rescan",
        tick
    );
    let deltas: Vec<TickStats> = reader
        .tick_log()
        .iter()
        .filter(|t| !t.full_rescan)
        .copied()
        .collect();
    prop_assert_eq!(&deltas[..], twin.tick_log(), "tick log at tick {}", tick);
    // A tick still resident is not scanned again, and logs nothing.
    if let [.., delta] = &twin.tick_log()[logged..] {
        let logged = (
            delta.events,
            delta.changed_ranks,
            delta.all_changed,
            delta.dirty_segments,
        );
        prop_assert_eq!(
            logged,
            pending,
            "churn since {:?} at tick {}",
            *scanned,
            tick
        );
    }
    *scanned = Some(tick);
    Ok(tick)
}

/// Which read shapes a run exercised: a read below the cache's last scan
/// `s`, one between `s` and the clock, and reads back across an era
/// migration and across a STEK rollover.
#[derive(Debug, Default, PartialEq)]
struct ReadShapes {
    below_scan: bool,
    between_scan_and_clock: bool,
    across_migration: bool,
    across_rollover: bool,
}

/// Read tick `t < reader.tick()` back; it must equal a full rescan of `t`.
/// `scanned` is the tick of the reader's last delta scan, if any.
fn read_back(
    reader: &mut CampaignService,
    t: u64,
    scanned: Option<u64>,
    migrations: [u64; 2],
    shapes: &mut ReadShapes,
) -> Result<(), TestCaseError> {
    let (now, logged) = (reader.tick(), reader.tick_log().len());
    let read = reader.snapshot_at(t);
    prop_assert!(
        *read == reader.full_rescan_at(t),
        "read of tick {} at clock {}",
        t,
        now
    );
    prop_assert_eq!(reader.tick(), now);
    if let Some(s) = scanned.filter(|_| reader.tick_log().len() > logged) {
        shapes.below_scan |= t < s;
        shapes.between_scan_and_clock |= s < t;
        shapes.across_migration |= migrations.iter().any(|&m| t < m && m <= now);
        shapes.across_rollover |= (t + 1..=now).any(|k| k % 2 == 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Reads off the live cache. A random run of steps (advance 0–3 ticks,
    // serve a delta tick, read a random past tick `t`) on a service that
    // reads and a twin that never does, at workers {1, 2} × segment sizes
    // {16, 1024}. Every read must equal `full_rescan_at(t)`, and both
    // services must serve identical delta snapshots and `TickStats`: a read
    // absorbs no churn. Every delta tick's churn tallies and re-folded
    // segments must equal `churn_pending_since` its last scan. A fixed tail
    // past `LATE_MIGRATION` makes every case scan a one-tick span across
    // a migration, and read once with `s < t < now` (`s` the cache's last
    // scan) across a STEK rollover and once with `t < s` across the
    // migration, on ticks no step requested (a resident snapshot would
    // answer without a read). Fewer than 16 reads a case, so no read evicts
    // a delta snapshot the twin still holds. Every delta snapshot must also
    // equal `full_rescan_at` its tick.
    //
    // Mutation-checked by hand on a copy of the tree, each failing at case
    // 0: three mutants of `ChurnState::view_at` — an undo list built one
    // tick short (`tick + 2..=self.tick`) and one that drops every drift,
    // on the tail's read of tick 33, and a view that keeps the live era
    // overrides across a migration, on the tail's read of tick 28; the old rule
    // that marks every churned rank's segment, QUIC service or not, on the
    // tail's scan of tick 32 against `churn_pending_since` (17 dirty
    // segments for 7); and, on a delta snapshot against its full rescan,
    // a `World::serves_quic` that skips QUIC services (`.quic && rank % 2
    // == 1`; tick 32) and three mutants of `churned_between` (tick 29): a
    // one-sided span (`for tick in a + 1..=b`, which sees no churn in
    // `(s, now]`), a span one tick short (`a.min(b) + 2..=`) and a
    // migration that does not mark every segment (no `churned.fill(true)`).
    #[test]
    fn live_cache_reads_equal_full_rescans(
        steps in proptest::collection::vec(any::<u64>(), 1..10),
        migration_tick in 1u64..8,
    ) {
        let migrations = [migration_tick, LATE_MIGRATION];
        for workers in [1usize, 2] {
            for segment_size in [16usize, 1024] {
                let mut reader = reading_service(workers, segment_size, migration_tick);
                let mut twin = reading_service(workers, segment_size, migration_tick);
                let mut shapes = ReadShapes::default();
                let mut scanned = None;
                for &step in &steps {
                    // One draw a step: its kind, a tick count and a pick.
                    let (kind, n, pick) = (step % 3, step / 3 % 4, step / 12);
                    match kind {
                        0 => {
                            let to = reader.tick() + n;
                            reader.advance_to(to);
                            twin.advance_to(to);
                        }
                        1 => {
                            serve_both(&mut reader, &mut twin, &mut scanned)?;
                        }
                        _ if reader.tick() > 0 => {
                            let t = pick % reader.tick();
                            read_back(&mut reader, t, scanned, migrations, &mut shapes)?;
                        }
                        _ => {}
                    }
                }
                // The tail: scan the tick before the late migration, the
                // migration tick alone (a one-tick span that must re-fold
                // every segment), and two ticks past it; run the clock three
                // more, read the tick after the scan, then a tick before
                // the migration, then serve the clock.
                let mut s = 0;
                for to in [LATE_MIGRATION - 1, LATE_MIGRATION, LATE_MIGRATION + 2] {
                    reader.advance_to(to);
                    twin.advance_to(to);
                    s = serve_both(&mut reader, &mut twin, &mut scanned)?;
                }
                reader.advance_to(s + 3);
                twin.advance_to(s + 3);
                read_back(&mut reader, s + 1, scanned, migrations, &mut shapes)?;
                read_back(&mut reader, LATE_MIGRATION - 2, scanned, migrations, &mut shapes)?;
                serve_both(&mut reader, &mut twin, &mut scanned)?;
                let all = ReadShapes {
                    below_scan: true,
                    between_scan_and_clock: true,
                    across_migration: true,
                    across_rollover: true,
                };
                prop_assert_eq!(shapes, all, "workers {} segment {}", workers, segment_size);
            }
        }
    }
}

/// A read takes `&self`, so readers share one service. Four threads read at
/// once off a cache scanned at `s = 8` with the clock at `now = 12` (Google
/// migrates at 5, the STEK rolls every other tick): tick 3, below `s` and
/// across the migration; tick 6, below `s` after it; tick 9, between `s`
/// and the clock; tick 11, whose view undoes only tick 12's rollover.
/// Each read equals a full rescan of its tick, and the service then serves
/// the clock exactly as a twin that never read: the same snapshot and the
/// same `TickStats`.
#[test]
fn concurrent_readers_share_one_service_and_absorb_no_churn() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<CampaignService>();
    const NOW: u64 = 12;
    let (mut reader, mut twin) = (reading_service(2, 16, 5), reading_service(2, 16, 5));
    for service in [&mut reader, &mut twin] {
        service.snapshot_at(0);
        service.snapshot_at(8);
        service.advance_to(NOW);
    }
    // The barrier releases all four reads together.
    let (service, start) = (&reader, &std::sync::Barrier::new(4));
    let reads = std::thread::scope(|scope| {
        [3u64, 6, 9, 11]
            .map(|tick| {
                scope.spawn(move || {
                    start.wait();
                    service.read(tick)
                })
            })
            .map(|handle| handle.join().expect("a reader panicked"))
    });
    for (snapshot, stats) in &reads {
        let tick = snapshot.tick;
        assert_eq!(*snapshot, reader.full_rescan_at(tick), "tick {tick}");
        assert!(stats.full_rescan && stats.tick == tick && stats.events == 0);
    }
    assert_eq!(reads[1].0.stek_epoch, 3);
    assert_eq!(reads[3].0.stek_epoch + 1, reader.state().stek_epoch);
    // Reads keep no log: only the two delta ticks are there.
    assert_eq!(reader.tick_log(), twin.tick_log());
    assert_eq!(*reader.snapshot_at(NOW), *twin.snapshot_at(NOW));
    assert_eq!(reader.tick_log().last(), twin.tick_log().last());
    // Ticks 9–12: 22 per-rank events each and two STEK rollovers.
    assert_eq!(reader.tick_log().last().map(|t| t.events), Some(4 * 22 + 2));
}

/// One engine scanned under scenario A, then B (other era, profile and
/// Initial size), then a chaos plan, then A again as explicit ranges,
/// equals four fresh engines: the memo's key carries the scenario axes,
/// and a fault-injected pump neither reads nor fills the table.
#[test]
fn one_engine_across_scenarios_equals_fresh_engines() {
    let config = WorldConfig {
        domains: 3_000,
        seed: 0x9121,
    };
    let a = Scenario::at(INITIAL);
    let b = Scenario::at(1250)
        .with_era(CertificateEra::PostQuantum)
        .with_profile(NetworkProfile::Tunneled);
    let chaos = a.with_plan(FaultPlan::MODERATE);
    let fresh = |workers| ScanEngine::streaming(config.clone(), INITIAL, workers);
    // Three 1,000-rank ranges through `fold_ranges`, merged.
    let as_ranges = |engine: &ScanEngine| streamed_in_chunks(engine, a, 1_000);
    for workers in [1usize, 2] {
        let engine = fresh(workers);
        assert_eq!(*engine.quicreach(a), *fresh(workers).quicreach(a));
        let after_a = engine.memo_classes();
        assert!(after_a > 0);
        assert_eq!(*engine.quicreach(b), *fresh(workers).quicreach(b));
        let after_b = engine.memo_classes();
        assert!(after_b > after_a, "scenario B's classes are new keys");

        assert_eq!(*engine.quicreach(chaos), *fresh(workers).quicreach(chaos));
        let totals = engine.pump_stats().expect("the chaos scan pumped").totals();
        assert_eq!(
            (
                totals.memo_hits,
                totals.memo_misses,
                totals.distinct_classes
            ),
            (0, 0, 0)
        );
        assert_eq!(engine.memo_classes(), after_b, "chaos touched the table");

        // A again, through the other pump: every class is already known.
        assert_eq!(as_ranges(&engine), as_ranges(&fresh(workers)));
        let totals = engine.pump_stats().expect("fold_ranges pumped").totals();
        assert_eq!((totals.memo_misses, totals.distinct_classes), (0, 0));
        assert_eq!(totals.memo_hits as usize, engine.quicreach(a).shard.total());
        assert_eq!(engine.memo_classes(), after_b);
    }
}

/// The latency-free memo held to a reference with no memo at all, on every
/// axis the memo serves: a 100k-domain streamed world, 3 eras × {ideal,
/// tunneled} × {1200, 1362, 1472} — stalls of every depth, the Retry and
/// resend families, and at 1472 the MTU black hole whole (tunneled) and in
/// part (load balancers) — at 1, 2 and 8 workers on engines that carry
/// their table from cell to cell. Every replay is one class representative
/// simulated at the slowest base latency and rescaled; the reference
/// simulates each of the ≈20.8k services on its own wire. And on the axes
/// the memo does not serve (a fault plan, loss, jitter) it is neither read
/// nor filled.
///
/// The reference is ≈440k simulated handshakes — 6 s optimised, two
/// minutes not — so an unoptimised build folds a fifth of the population;
/// CI names this test in a release step.
#[test]
fn latency_free_memo_equals_the_memo_free_reference_on_every_deterministic_axis() {
    let config = WorldConfig {
        domains: if cfg!(debug_assertions) {
            20_000
        } else {
            100_000
        },
        seed: 0x9121,
    };
    let streaming = |workers| ScanEngine::streaming(config.clone(), INITIAL, workers);
    let reference = streaming(2).with_memoization(false);
    let memoized = [1usize, 2, 8].map(|workers| (workers, streaming(workers)));
    let memo_traffic = |engine: &ScanEngine| {
        let totals = engine.pump_stats().expect("pump ran").totals();
        (
            totals.memo_hits,
            totals.memo_misses,
            totals.distinct_classes,
        )
    };
    for era in CertificateEra::ALL {
        for profile in [NetworkProfile::Ideal, NetworkProfile::Tunneled] {
            for initial in [1200usize, 1362, 1472] {
                let scenario = cell(era, profile).with_initial_size(initial);
                let want = reference.quicreach(scenario);
                assert_eq!(memo_traffic(&reference), (0, 0, 0));
                for (workers, engine) in &memoized {
                    assert_eq!(
                        *engine.quicreach(scenario),
                        *want,
                        "{era}/{profile}/{initial} diverged at {workers} workers"
                    );
                    let (hits, misses, classes) = memo_traffic(engine);
                    assert_eq!(hits + misses, want.shard.total() as u64);
                    // Most probes replay in every cell (nine in ten at
                    // 100k domains, three in four at 20k).
                    assert!(
                        misses * 2 < hits && classes <= misses,
                        "{era}/{profile}/{initial}: {hits} hits, {misses} misses"
                    );
                }
            }
        }
    }
    let (_, engine) = &memoized[1];
    let learned = engine.memo_classes();
    for scenario in [
        cell(CertificateEra::Classical, NetworkProfile::Ideal).with_plan(FaultPlan::MODERATE),
        cell(CertificateEra::Classical, NetworkProfile::Lossy),
        cell(CertificateEra::Hybrid, NetworkProfile::LongFat),
    ] {
        assert_eq!(*engine.quicreach(scenario), *reference.quicreach(scenario));
        assert_eq!(memo_traffic(engine), (0, 0, 0), "{scenario:?}");
        assert_eq!(engine.memo_classes(), learned, "{scenario:?}");
    }
}

#[test]
fn compression_study_grid_is_worker_invariant() {
    let reference = engine(1);
    let parallel = engine(8);
    for era in CertificateEra::ALL {
        for algorithm in Algorithm::ALL {
            assert_eq!(
                *reference.compression_study(era, algorithm, 4),
                *parallel.compression_study(era, algorithm, 4),
                "{era}/{algorithm}"
            );
        }
    }
}
