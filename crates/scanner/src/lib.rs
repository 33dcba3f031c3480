//! # quicert-scanner — the measurement toolchain of §3 (Fig 10)
//!
//! Rust counterparts of the tools the paper wires together:
//!
//! | paper tool | here |
//! |---|---|
//! | dig/nc/libcurl HTTPS walk | [`https_scan`] |
//! | microsoft/quicreach (+Retry ext.) | [`quicreach`] |
//! | tumi8/QScanner | [`qscanner`] |
//! | quiche + compression fork | [`compression`] |
//! | UCSD telescope analysis | [`telescope_scan`] |
//! | ZMap adversary imitation | [`zmap`] |
//!
//! All scanners consume a `quicert_pki::World` and run real simulated
//! handshakes through `quicert-quic`; nothing here is tabulated.

#![deny(unreachable_pub)]

pub mod behavior;
pub mod compression;
pub mod https_scan;
pub mod qscanner;
pub mod quicreach;
pub mod scenario;
pub mod telescope_scan;
pub mod zmap;

pub use behavior::{server_config_for_era, wire_for};
pub use compression::CompressionShard;
pub use https_scan::{ChainSummary, HttpsObservation, HttpsScanReport, HttpsScanShard};
pub use quicreach::{
    QuicReachResult, QuicReachShard, QuicReachSummary, ScanSummary, WarmScanResult,
};
pub use scenario::Scenario;
