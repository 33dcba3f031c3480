//! # quicert-session — TLS session resumption machinery
//!
//! The paper's §5 guidance is that *session resumption* sidesteps the whole
//! certificate/amplification interplay: a resumed handshake authenticates
//! with a pre-shared key and never puts the certificate chain on the wire.
//! This crate provides the stateful half of that story:
//!
//! * [`ticket`] — deterministic session tickets, STEK-encrypted on the
//!   server ([`TicketIssuer`]) with time-driven key rotation and lifetime
//!   enforcement ([`TicketConfig`], [`TicketValidation`]);
//! * [`policy`] — the [`ResumptionPolicy`] scenario axis (cold-only / warm
//!   after first visit / ticket-expired) the campaign matrix sweeps.
//!
//! The client side keeps no session cache: a resumption probe's warm visit
//! offers the ticket its own cold visit obtained.
//!
//! Everything here is plain data plus deterministic arithmetic: the "AEAD"
//! protecting a ticket is a keystream + MAC stand-in of exactly the right
//! size (as with the rest of the workspace, sizes are faithful, secrets are
//! simulated), so every scan that uses resumption stays reproducible
//! bit-for-bit at any worker count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod policy;
pub mod ticket;

pub use policy::ResumptionPolicy;
pub use ticket::{
    ResumptionHost, SessionTicket, TicketConfig, TicketIssuer, TicketValidation, TICKET_LEN,
};
