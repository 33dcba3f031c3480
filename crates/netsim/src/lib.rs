//! # quicert-netsim — deterministic network simulation substrate
//!
//! This crate provides the "Internet" that the rest of the workspace measures:
//! simulated time, UDP datagrams, link models with latency / loss / MTU
//! constraints, tunnel encapsulation (the load-balancer effect of §4.1 of the
//! paper), named [`NetworkProfile`] link-condition overlays, and
//! [`run_exchange`] — a discrete-event scheduler driving one endpoint pair
//! to completion over the caller's wire and RNG stream, reporting what
//! each direction put on the wire as a [`Flow`] tally and showing each
//! datagram sent and arrived to the caller's [`Observer`].
//!
//! Everything is deterministic: all randomness flows from a [`SimRng`] seeded
//! with a caller-provided `u64`, so every experiment in the workspace is
//! reproducible bit-for-bit.
//!
//! The design follows the event-driven style of stacks like smoltcp: no
//! threads, no async runtime; endpoints are state machines that consume and
//! produce datagrams when polled.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod addr;
pub mod datagram;
pub mod event;
pub mod fault;
pub(crate) mod faultplan;
pub mod link;
pub mod profile;
pub mod rng;
pub(crate) mod simnet;
pub mod time;

pub use addr::Ipv4Net;
pub use datagram::{Datagram, UDP_IPV4_OVERHEAD};
pub use event::{Endpoint, ExchangeLimits, ExchangeOutcome, Flow, Observer, Outbox, Wire};
pub use fault::FaultInjector;
pub use faultplan::FaultPlan;
pub use link::{Delivery, LinkModel};
pub use profile::NetworkProfile;
pub use rng::{FastHashBuilder, FastHasher, SimRng};
pub use simnet::{run_exchange, ExchangeScratch};
pub use time::{SimDuration, SimTime};
