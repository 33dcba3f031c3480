//! One module per group of paper experiments.
//!
//! | module | reproduces |
//! |---|---|
//! | [`certs`] | the §3.1 funnel, the §3.2 QScanner check, Fig 2b, Fig 6, Fig 7, Fig 8, Table 2, Fig 14 |
//! | [`handshakes`] | Fig 3, Fig 4, Fig 5, Figs 12/13, §4.1 reachability, the network-profile matrix |
//! | [`amplification`] | Fig 9, the §4.3 ZMap scan, Fig 11, Table 3 |
//! | [`compression`] | Table 1 and the §4.2 compression study |
//! | [`guidance`] | the §5 discussion as runnable ablations |
//! | [`resumption`] | the §5 session-resumption mitigation, cold vs warm |
//! | [`pq`] | the post-quantum certificate-era axis (beyond the paper) |
//! | [`scale`] | the population-scale ladder on the streaming scan path |
//! | [`chaos`] | the fault-grid axis and its loss-recovery cost (beyond the paper) |
//! | [`churn`] | ecosystem churn over a resident campaign (beyond the paper) |
//!
//! **A section is one function:** `fn(&Campaign, ..) -> String` reads the
//! engine's cached artifacts ([`crate::ScanEngine::certificates`],
//! [`crate::ScanEngine::quicreach`], [`crate::ScanEngine::era_join`],
//! [`crate::ScanEngine::warm_scan`], the compression, telescope and ZMap
//! families) and renders its table, and the report calls every section
//! the same way. A section whose numbers come from a pass of its own
//! (Table 3's spoofed probes, Fig 11's repetitions, the scale ladder, the
//! §5 ablation and loss study, the churn timeline) computes them in one
//! private function that its tests call too; every other section's tests
//! read the same summaries off the engine. **A type exists only where a
//! pass folds into it** ([`guidance::ClientMitigation`], a `Merge` summary
//! the pump folds), or as a private row of such a pass where a tuple would
//! read worse — never to carry a summary's numbers to a renderer.

use quicert_quic::handshake::HandshakeClass;
use quicert_scanner::quicreach::ScanSummary;

pub mod amplification;
pub mod certs;
pub mod chaos;
pub mod churn;
pub mod compression;
pub mod guidance;
pub mod handshakes;
pub mod pq;
pub mod resumption;
pub mod scale;

/// One class-share cell of a report table, in percent: Unreachable as a
/// share of every probed service, any other class as a share of the
/// reachable ones; two decimals for the rare 1-RTT and Retry classes, one
/// otherwise.
pub(crate) fn class_share(summary: &ScanSummary, class: HandshakeClass) -> String {
    match class {
        HandshakeClass::Unreachable => format!("{:.1}", summary.share_of_all(class)),
        HandshakeClass::OneRtt | HandshakeClass::Retry => {
            format!("{:.2}", summary.share_of_reachable(class))
        }
        HandshakeClass::MultiRtt | HandshakeClass::Amplification => {
            format!("{:.1}", summary.share_of_reachable(class))
        }
    }
}

/// The data rows of a rendered section table: its lines after the title,
/// the header and the rule.
#[cfg(test)]
pub(crate) fn table_rows(rendered: &str) -> usize {
    rendered.lines().count() - 3
}
