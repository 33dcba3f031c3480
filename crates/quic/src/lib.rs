//! # quicert-quic — QUIC v1 handshake engine with configurable server behaviour
//!
//! This crate implements the part of QUIC (RFC 9000/9001) that the paper
//! measures: the connection handshake. It provides
//!
//! * real wire encodings — variable-length integers, long-header packets
//!   (Initial / Handshake / Retry), CRYPTO / ACK / PADDING frames, datagram
//!   coalescing, and the padding rules of RFC 9000 §14.1;
//! * anti-amplification accounting with the full *historical* policy set of
//!   the paper's Table 3 ([`LimitPolicy`]), not just the final 3× rule
//!   ([`amplification::limit`]), on one server-side account
//!   (`AmplificationBudget`) that also keeps, always, how far the server
//!   went past 3× before validation — the excess buggy accounting causes;
//! * a client state machine ([`ClientConn`]) modelling a scanner or browser
//!   with a configurable Initial size; and
//! * a server state machine ([`ServerConn`]) whose [`ServerBehavior`]
//!   captures the real-world deployment quirks the paper discovered:
//!   missing packet coalescing and uncounted padding (Cloudflare, §4.1),
//!   unlimited retransmissions toward unverified clients (Meta's mvfst,
//!   §4.3), and always-on Retry.
//!
//! Handshakes run over `quicert-netsim`'s event loop, one exchange to
//! completion at a time; all byte counts are taken from the exchange's
//! per-direction wire tally, mirroring the paper's passive viewpoint.
//!
//! ## The data path
//!
//! Every flight byte is written once per hop, and every received byte is
//! decoded once. The sender keeps what TLS wrote and serialises packets
//! around borrowed ranges of it, straight into the outgoing datagram
//! ([`packet::Header::encode_into`]), a payload buffer taken from the
//! exchange's outbox. The receiver validates and decodes that datagram in
//! one walk ([`packet::parse_datagram_ref`] fills a reused
//! [`packet::ParsedDatagram`] with its packets and frames, token and
//! CRYPTO data as spans of the datagram), reads its packets back as
//! [`frame::FrameRef`]s borrowing those spans, and appends CRYPTO data to
//! one [`reassembly::CryptoStream`].
//!
//! Nothing of this is allocated per handshake once it has run before: a
//! [`HandshakeScratch`] keeps one client's and one server's buffers — the
//! CRYPTO streams, the ClientHello, the flight
//! ([`quicert_tls::ServerFlight::build_into`]), the datagram plan and the
//! parsed-datagram lists — and the exchange's queue and payload free list,
//! and rebuilds both connections in them, emptied, for each exchange. It
//! is the crate's one runner: a complete handshake
//! ([`HandshakeScratch::run`]), a cold-then-warm resumption probe
//! ([`HandshakeScratch::resume`]) and a spoofed, never-acknowledging probe
//! ([`HandshakeScratch::spoof`]) all run in it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod amplification;
pub mod client;
pub mod frame;
pub mod handshake;
pub mod packet;
pub mod reassembly;
pub mod server;
pub mod varint;

pub use amplification::LimitPolicy;
pub use client::{ClientConfig, ClientConn};
pub use handshake::{
    run_handshake_batch_into, HandshakeOutcome, HandshakeProbe, HandshakeScratch,
    ResumptionOutcome, ResumptionProbe, SpoofedOutcome,
};
pub use packet::{ConnectionId, PacketType, AEAD_TAG_LEN};
pub use server::{ServerBehavior, ServerConfig, ServerConn};
