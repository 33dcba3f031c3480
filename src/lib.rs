//! # quicert — On the Interplay between TLS Certificates and QUIC Performance
//!
//! A from-scratch Rust reproduction of Nawrocki et al., CoNEXT '22
//! (DOI 10.1145/3555050.3569123): the measurement toolchain, the QUIC
//! handshake mechanics it probes, the X.509/TLS substrate, and a calibrated
//! synthetic web population standing in for the paper's 1M-domain Internet
//! scan.
//!
//! ## Quick start
//!
//! ```
//! use quicert::core::{Campaign, CampaignConfig};
//!
//! // A small deterministic world (2k domains).
//! let campaign = Campaign::new(CampaignConfig::small());
//! let reach = campaign.engine().quicreach(campaign.scenario());
//! let summary = reach.shard.classes;
//! // The paper's headline: most QUIC handshakes amplify or need extra RTTs.
//! assert!(summary.amplification + summary.multi_rtt > summary.one_rtt);
//! ```
//!
//! ## Crate map
//!
//! * [`netsim`] — deterministic network simulation substrate
//! * [`x509`] — DER / X.509 v3 certificates with per-field size attribution
//! * [`compress`] — RFC 8879-style certificate compression (three profiles)
//! * [`tls`] — TLS 1.3 handshake messages and browser profiles
//! * [`quic`] — QUIC v1 handshake engine with real-world server behaviours
//! * [`obs`] — lock-free metrics registry, Prometheus exposition, and
//!   handshake phase timelines
//! * [`session`] — TLS session tickets, STEK rotation and the
//!   resumption-policy scenario axis
//! * [`pki`] — the CA ecosystem, ranked world generator, and the
//!   post-quantum `CertificateEra` scenario axis
//! * [`churn`] — deterministic tick-indexed ecosystem churn timelines
//!   (rotation, CA drift, revocation, STEK rollover, era migration)
//! * [`scanner`] — quicreach / QScanner / telescope / ZMap counterparts
//! * [`analysis`] — CDFs, statistics, table rendering
//! * [`core`] — campaign orchestration: the `ScanEngine` artifact store
//!   (parallel, uniformly cached scans) plus every table and figure

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub use quicert_analysis as analysis;
pub use quicert_churn as churn;
pub use quicert_compress as compress;
pub use quicert_core as core;
pub use quicert_netsim as netsim;
pub use quicert_obs as obs;
pub use quicert_pki as pki;
pub use quicert_quic as quic;
pub use quicert_scanner as scanner;
pub use quicert_session as session;
pub use quicert_tls as tls;
pub use quicert_x509 as x509;
