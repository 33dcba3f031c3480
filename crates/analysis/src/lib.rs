//! # quicert-analysis — statistics and report rendering
//!
//! Small, dependency-free statistics toolkit used to turn scan results into
//! the paper's tables and figures: empirical CDFs (Figs 2b, 4, 6, 9),
//! quantiles and confidence intervals (Fig 11), grouped share tables
//! (Figs 12/13, Tables 1/2), and plain-text rendering for the `repro`
//! harness.
//!
//! For million-record scans the [`merge`] module provides the streaming
//! counterparts: a [`Merge`] monoid trait plus bounded-memory summaries
//! ([`StreamSummary`], [`HistogramSketch`]) that replace whole-sample
//! [`Cdf`]s on the at-scale paths.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod cdf;
pub mod merge;
pub mod render;
pub mod stats;

pub use cdf::Cdf;
pub use merge::{assert_merge_laws, HistogramSketch, Merge, Same, StreamSummary};
pub use render::{render_table, Table};
pub use stats::{mean, mean_ci95, median, percentile, std_dev};
