//! # quicert-pki — synthetic CA ecosystem and web population
//!
//! This crate is the *measured world*: a deterministic stand-in for the 1M
//! Tranco domains the paper scans. It has two layers:
//!
//! * [`ecosystem`] builds the CA hierarchy observed in Fig 7 — Let's
//!   Encrypt R3/E1 with the ISRG X1/X2 roots (including the DST-cross-signed
//!   X1 variant), Google Trust Services 1C3/1D4/1P5 under GTS R1, Cloudflare
//!   ECC, Sectigo/USERTRUST/Comodo, DigiCert, GlobalSign, GoDaddy,
//!   Starfield, Amazon and cPanel — as real DER certificates, and issues
//!   leaf certificates under any of its named parent chains.
//!
//! * [`world`] generates a ranked domain population whose deployment
//!   distributions (DNS failures, HTTPS/QUIC adoption, provider and chain
//!   mix, leaf key algorithms, SAN counts, load-balancer tunneling) are
//!   calibrated to the paper's §3/§4 observations. Every derived figure is
//!   then *measured* from this world by the scanner crate.
//!
//! Calibration constants live in [`world`] and [`dns`] beside the paper
//! sections they encode; a [`WorldConfig`] sets only the size and seed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod dns;
pub mod ecosystem;
pub mod era;
pub mod flyweight;
pub mod world;

pub use dns::DnsOutcome;
pub use ecosystem::{ChainId, Ecosystem, LeafParams};
pub use era::CertificateEra;
pub use flyweight::ClassTable;
pub use world::{
    ChainClass, ChainShape, DomainRecord, HttpsDeployment, Provider, QuicDeployment, World,
    WorldConfig,
};
