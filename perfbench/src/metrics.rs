//! The metric and workload catalogue. `BENCHMARK.json` at the repository
//! root must list exactly these names, units and directions; the contract
//! test (`tests/benchmark_contract.rs`) holds the two together.

/// Default seed; feeds `WorldConfig.seed` and `ChurnConfig.seed` only.
pub const DEFAULT_SEED: u64 = 0x5CA1;

/// Client Initial size every quicreach scan of the benchmark uses (the
/// paper reports at 1362 bytes).
pub const INITIAL: usize = 1362;

/// Workers the parallel workloads ask the engine for (it caps at host
/// cores anyway).
pub const WORKERS: usize = 2;

/// What one workload feeds the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ScanEngine::streaming` + `stream_quicreach_chaos`; `chaos` selects
    /// `FaultPlan::MODERATE` instead of `FaultPlan::NONE`.
    Stream { workers: usize, chaos: bool },
    /// `stream_https_scan` then `stream_compression_support`.
    Certs,
    /// `Campaign::new` + `full_report`.
    Report,
    /// A resident `CampaignService` on its churn timeline. The unit op is
    /// the delta tick, or with `reads` the historical full-refold read of
    /// a tick the clock skipped.
    Service { reads: bool },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Ranked domains in the workload's world at full scale.
    pub population: usize,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "stream_1m_replay_1w",
        kind: Kind::Stream {
            workers: 1,
            chaos: false,
        },
        population: 1_000_000,
    },
    Workload {
        name: "stream_1m_replay_2w",
        kind: Kind::Stream {
            workers: WORKERS,
            chaos: false,
        },
        population: 1_000_000,
    },
    Workload {
        name: "stream_300k_chaos",
        kind: Kind::Stream {
            workers: WORKERS,
            chaos: true,
        },
        population: 300_000,
    },
    Workload {
        name: "certs_40k_survey",
        kind: Kind::Certs,
        population: 40_000,
    },
    Workload {
        name: "report_4k",
        kind: Kind::Report,
        population: 4_000,
    },
    Workload {
        name: "service_50k_ticks",
        kind: Kind::Service { reads: false },
        population: 50_000,
    },
    Workload {
        name: "service_50k_reads",
        kind: Kind::Service { reads: true },
        population: 50_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit-for-bit between two runs of one commit
    /// at the same seed (traced runs pump with one worker).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports every one
/// (`--trace 0`), each with one meaning everywhere: a workload has one unit
/// op (a pass, a report, a delta tick, a historical read). All timings are
/// host time.
pub const END_TO_END: [Metric; 4] = [
    timed("setup_s", "s", Lower),
    timed("op_s_p25", "s", Lower),
    timed("op_cpu_s_p25", "s", Lower),
    timed("peak_rss_mb", "MB", Lower),
];

/// Metrics of single layers (layer = crate), from the traced run
/// (`--trace 1`, one worker). A metric whose layer the workload does not
/// exercise — or that the harness cannot observe from outside on that
/// workload — reads 0.
pub const PER_LAYER: [Metric; 61] = [
    timed("pki.derive_s", "s", Lower),
    exact("pki.derive_records", Lower),
    timed("pki.chain_issue_us", "us", Lower),
    timed("pki.chain_issue_pq_us", "us", Lower),
    exact("pki.chain_len_cache_hits", Higher),
    timed("x509.der_encode_mb_per_s", "MB/s", Higher),
    timed("compress.zlib_mb_per_s", "MB/s", Higher),
    timed("compress.brotli_mb_per_s", "MB/s", Higher),
    timed("compress.zstd_mb_per_s", "MB/s", Higher),
    timed("tls.flight_build_us", "us", Lower),
    timed("tls.flight_build_pq_us", "us", Lower),
    timed("quic.handshake_us", "us", Lower),
    timed("quic.handshake_chaos_us", "us", Lower),
    timed("quic.handshake_pq_us", "us", Lower),
    timed("quic.batch_cliff_ratio", "ratio", Lower),
    exact("quic.transmissions_per_handshake", Lower),
    exact("netsim.events", Lower),
    exact("netsim.timer_fires", Lower),
    exact("netsim.fault_drops", Lower),
    timed("netsim.events_per_s", "events/s", Higher),
    timed("scanner.fold_s", "s", Lower),
    timed("scanner.fold_self_s", "s", Lower),
    exact("scanner.memo_hits", Higher),
    exact("scanner.memo_misses", Lower),
    exact("scanner.memo_classes", Lower),
    timed("scanner.memo_hit_ratio", "ratio", Higher),
    timed("scanner.replay_ns_per_probe", "ns", Lower),
    timed("scanner.probe_build_us", "us", Lower),
    timed("scanner.https_fold_s", "s", Lower),
    timed("scanner.compression_fold_s", "s", Lower),
    timed("scanner.warm_scan_us", "us", Lower),
    timed("analysis.merge_s", "s", Lower),
    timed("analysis.merge_us", "us", Lower),
    timed("churn.advance_us", "us", Lower),
    timed("churn.apply_us", "us", Lower),
    exact("churn.events_per_tick", Lower),
    timed("core.pump_s", "s", Lower),
    timed("core.pump_self_s", "s", Lower),
    timed("core.pump_attributed_ratio", "ratio", Higher),
    timed("core.pump_overhead_s", "s", Lower),
    timed("core.pump_speedup_2w", "ratio", Higher),
    timed("core.pump_busy_s_2w", "s", Lower),
    timed("core.duplicated_misses_2w", "count", Lower),
    exact("core.chunks_claimed", Lower),
    timed("core.service_scan_s", "s", Lower),
    exact("core.service_probed_per_tick", Lower),
    timed("core.service_us_per_probe", "us", Lower),
    timed("core.service_delta_ratio", "ratio", Lower),
    timed("core.service_read_s", "s", Lower),
    timed("core.service_read_us_per_probe", "us", Lower),
    timed("core.report_base_s", "s", Lower),
    timed("core.report_sweep_s", "s", Lower),
    timed("core.report_guidance_s", "s", Lower),
    timed("core.report_profiles_s", "s", Lower),
    timed("core.report_resumption_s", "s", Lower),
    timed("core.report_pq_s", "s", Lower),
    timed("core.report_chaos_s", "s", Lower),
    timed("obs.metrics_overhead_ratio", "ratio", Lower),
    timed("obs.render_json_us", "us", Lower),
    timed("trace_overhead_ratio", "ratio", Lower),
    timed("traced_passes", "count", Higher),
];
