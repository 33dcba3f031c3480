//! # quicert-tls — minimal TLS 1.3 handshake messages for QUIC
//!
//! QUIC (RFC 9001) carries the TLS 1.3 handshake in CRYPTO frames; the
//! server's first flight — ServerHello, EncryptedExtensions, Certificate (or
//! CompressedCertificate, RFC 8879), CertificateVerify, Finished — is the
//! payload whose size collides with the anti-amplification limit. This crate
//! encodes those messages with their real wire framing so the byte counts
//! seen by the QUIC layer are genuine.
//!
//! As with `quicert-x509`, cryptographic payloads (randoms, key shares,
//! signatures, MACs) are deterministic placeholders of exactly the right
//! size; no actual key exchange is performed.
//!
//! The crate also carries the browser client profiles of Table 1
//! ([`browser::BrowserProfile`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod browser;
pub mod flight;
pub mod messages;

pub use browser::BrowserProfile;
pub use flight::{ServerFlight, ServerFlightParams};
pub use messages::{
    certificate_message_into, client_hello_into, new_session_ticket_into, parse_compression_offers,
    parse_new_session_ticket, parse_psk_offer, parse_server_name, server_hello_accepted_psk,
    NewSessionTicket, PskOffer,
};
