//! # quicert-core — campaign orchestration
//!
//! Ties the whole workspace together: generate a world, run the scanners,
//! and produce every table and figure of the paper as a typed result with a
//! plain-text rendering. The per-experiment index is the table in
//! [`experiments`]; the paper-vs-measured values are the full report
//! itself, pinned by `tests/golden/report.txt`.
//!
//! ```no_run
//! use quicert_core::{Campaign, CampaignConfig};
//!
//! let campaign = Campaign::new(CampaignConfig::small());
//! let fig3 = quicert_core::experiments::handshakes::fig3(&campaign);
//! println!("{}", fig3.render());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod campaign;
pub mod engine;
pub mod experiments;
pub mod report;
pub mod service;

pub use campaign::{Campaign, CampaignConfig};
pub use engine::{PumpStats, ScanEngine, WorkerPumpStats};
pub use quicert_scanner::Scenario;
pub use report::{full_report, ReportOptions};
pub use service::{CampaignService, ServiceConfig, TickStats};
