//! The endpoint/wire vocabulary of the simulator: what an exchange is
//! made of and what it reports.
//!
//! QUIC scans are pairwise (scanner ↔ server): a [`Wire`] with one
//! [`LinkModel`] per direction connects two [`Endpoint`] state machines,
//! [`crate::simnet::run_exchange`] schedules them to completion, and an
//! [`Observer`] sees each datagram as it is sent and as it arrives.
//!
//! Every datagram offered to the wire is counted into its direction's
//! [`Flow`] as it is offered, so measurements (amplification factors,
//! handshake byte splits, backscatter sessions) are taken from the *wire
//! view*, exactly like the paper's passive perspective, and not from what
//! an implementation believes it sent.

use std::ops::{Deref, DerefMut};

use crate::datagram::Datagram;
use crate::fault::FaultInjector;
use crate::link::{LinkModel, PATH_MTU};
use crate::time::{SimDuration, SimTime};

/// Which endpoint sent a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From endpoint A (by convention: the client / scanner).
    AtoB,
    /// From endpoint B (by convention: the server).
    BtoA,
}

impl Direction {
    /// The opposite direction.
    pub(crate) fn flip(self) -> Direction {
        match self {
            Direction::AtoB => Direction::BtoA,
            Direction::BtoA => Direction::AtoB,
        }
    }
}

/// Where an endpoint puts the datagrams it sends, and where it takes the
/// payload buffers to write them into.
///
/// It reads as the `Vec` of datagrams queued since the scheduler last
/// drained it. [`Outbox::buffer`] hands out an empty payload buffer: one
/// the scheduler is done with (delivered, dropped or lost) when there is
/// one, so an exchange on a reused [`crate::ExchangeScratch`] allocates no
/// payload once its buffers have been allocated.
#[derive(Debug, Default)]
pub struct Outbox {
    queued: Vec<Datagram>,
    /// Payload buffers the scheduler is done with, each empty.
    free: Vec<Vec<u8>>,
}

impl Outbox {
    /// An empty payload buffer with room for `len` bytes. A fresh buffer
    /// has room for a path-MTU datagram at least, so that whichever datagram
    /// a recycled one is later handed to fits it unchanged.
    pub fn buffer(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut payload) => {
                payload.reserve(len);
                payload
            }
            None => Vec::with_capacity(len.max(PATH_MTU)),
        }
    }

    /// Room for `n` more queued datagrams and `n` more free buffers than
    /// each list holds, so that an exchange's first sends do not grow them
    /// one step at a time.
    pub(crate) fn make_room(&mut self, n: usize) {
        self.queued.reserve(n);
        self.free.reserve(n);
    }

    /// Take back a payload the scheduler is done with, emptied.
    pub(crate) fn recycle(&mut self, mut payload: Vec<u8>) {
        payload.clear();
        self.free.push(payload);
    }
}

impl Deref for Outbox {
    type Target = Vec<Datagram>;

    fn deref(&self) -> &Vec<Datagram> {
        &self.queued
    }
}

impl DerefMut for Outbox {
    fn deref_mut(&mut self) -> &mut Vec<Datagram> {
        &mut self.queued
    }
}

/// A state machine attached to one end of a [`Wire`].
///
/// Endpoints are polled synchronously: they receive datagrams and timer
/// callbacks, and push any datagrams they want to transmit into `out`,
/// their payloads written into buffers taken from it.
pub trait Endpoint {
    /// Called once when the exchange starts; the initiating endpoint should
    /// emit its first flight here.
    fn start(&mut self, _now: SimTime, _out: &mut Outbox) {}

    /// A datagram arrived from the peer.
    fn on_datagram(&mut self, dgram: &Datagram, now: SimTime, out: &mut Outbox);

    /// The deadline returned by [`Endpoint::next_timer`] was reached.
    fn on_timer(&mut self, now: SimTime, out: &mut Outbox);

    /// The next time this endpoint wants `on_timer` to fire, if any.
    fn next_timer(&self) -> Option<SimTime>;

    /// Whether this endpoint considers its part of the exchange complete.
    fn is_done(&self) -> bool;
}

/// What a caller sees of an exchange's datagrams while
/// [`crate::run_exchange`] runs it. Every hook does nothing by default, and
/// `()` is the observer that sees nothing, which the scan path passes. The
/// scheduler takes it as `&mut dyn Observer`, so it stays one compiled
/// loop, whatever observes it. A `&mut` observer lends itself.
pub trait Observer {
    /// An endpoint emitted `payload` toward `direction` at `at`. Fires once
    /// per datagram, in send order, before the fault injector draws on it:
    /// a datagram the injector drops is seen, a corrupted one is seen
    /// intact and a duplicated one is seen once.
    fn sent(&mut self, _direction: Direction, _at: SimTime, _payload: &[u8]) {}

    /// The scheduler hands `dgram`, which travelled `direction`, to its
    /// endpoint at `at`, just before the endpoint reads it.
    fn arrived(&mut self, _direction: Direction, _at: SimTime, _dgram: &Datagram) {}
}

impl Observer for () {}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn sent(&mut self, direction: Direction, at: SimTime, payload: &[u8]) {
        (**self).sent(direction, at, payload);
    }

    fn arrived(&mut self, direction: Direction, at: SimTime, dgram: &Datagram) {
        (**self).arrived(direction, at, dgram);
    }
}

/// A bidirectional path between two endpoints.
#[derive(Debug, Clone, Default)]
pub struct Wire {
    /// Link model applied to A→B datagrams.
    pub a_to_b: LinkModel,
    /// Link model applied to B→A datagrams.
    pub b_to_a: LinkModel,
    /// Additional fault injection applied to A→B datagrams.
    pub fault_a_to_b: FaultInjector,
    /// Additional fault injection applied to B→A datagrams.
    pub fault_b_to_a: FaultInjector,
}

impl Wire {
    /// A symmetric wire with identical link models in both directions.
    pub fn symmetric(link: LinkModel) -> Self {
        Wire {
            a_to_b: link.clone(),
            b_to_a: link,
            ..Wire::default()
        }
    }

    /// A symmetric ideal wire with the given one-way latency.
    pub fn ideal(latency: SimDuration) -> Self {
        Wire::symmetric(LinkModel::ideal(latency))
    }

    /// The round-trip time of the wire (sum of the base one-way latencies).
    pub fn rtt(&self) -> SimDuration {
        self.a_to_b.latency + self.b_to_a.latency
    }

    /// Whether every component of the wire is RNG-free: both link models
    /// (no loss, no jitter) and both fault injectors (no random drops or
    /// corruption). Sessions over a deterministic wire replay identically
    /// for any seed, which is what makes scenario-class memoization of
    /// whole handshakes sound.
    pub fn is_deterministic(&self) -> bool {
        self.a_to_b.is_deterministic()
            && self.b_to_a.is_deterministic()
            && self.fault_a_to_b.is_deterministic()
            && self.fault_b_to_a.is_deterministic()
    }
}

/// What one direction of an exchange offered to the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flow {
    /// Datagrams offered; a duplicated copy counts again.
    pub datagrams: usize,
    /// UDP payload bytes offered, dropped datagrams included.
    pub bytes: usize,
    /// Of `datagrams`, how many the wire delivered.
    pub delivered: usize,
    /// The first and last send time, if anything was sent.
    pub sent_between: Option<(SimTime, SimTime)>,
}

/// Safety limits for an exchange.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeLimits {
    /// Hard wall-clock (simulated) deadline.
    pub deadline: SimTime,
    /// Maximum number of processed events, as a runaway guard.
    pub max_events: usize,
}

impl Default for ExchangeLimits {
    fn default() -> Self {
        ExchangeLimits {
            deadline: SimTime::ZERO + SimDuration::from_secs(300),
            max_events: 100_000,
        }
    }
}

/// The result of running an exchange to quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// What A offered to the wire.
    pub a_to_b: Flow,
    /// What B offered to the wire.
    pub b_to_a: Flow,
    /// B's bytes sent before A's second datagram reached B — all of B's
    /// bytes when that datagram never arrived. With A the client, this is
    /// the server's first flight.
    pub first_flight: usize,
    /// Simulated time when the loop stopped.
    pub finished_at: SimTime,
    /// True if the loop stopped because both endpoints reported done (as
    /// opposed to hitting a limit or running out of events).
    pub quiesced: bool,
    /// Timer callbacks that fired during this exchange. Zero on a wire
    /// without jitter or faults means every event was a delivery at
    /// `send + latency`, so every event time is a multiple of the latency.
    pub timer_fires: u64,
    /// Datagrams removed by the wire's [`FaultInjector`]s during *this*
    /// exchange (both directions; counters on a reused wire are deltas).
    pub fault_drops: u64,
    /// Datagrams corrupted by the wire's [`FaultInjector`]s during this
    /// exchange.
    pub fault_corruptions: u64,
    /// Datagrams delivered twice by the wire's [`FaultInjector`]s during
    /// this exchange.
    pub fault_duplications: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnet::tests::{at_ms, ping};

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut wire = Wire::ideal(SimDuration::from_millis(10));
        let out = ping(3, 100, &mut wire, ExchangeLimits::default());
        assert!(out.quiesced);
        let flow = |first, last| Flow {
            datagrams: 3,
            bytes: 300,
            delivered: 3,
            sent_between: Some((at_ms(first), at_ms(last))),
        };
        assert_eq!((out.a_to_b, out.b_to_a), (flow(0, 40), flow(10, 50)));
        // 3 round trips at 20ms RTT.
        assert_eq!(out.finished_at, at_ms(60));
    }

    #[test]
    fn lossy_wire_without_timers_stalls_unquiesced() {
        let mut wire = Wire {
            fault_a_to_b: FaultInjector::dropping(1.0),
            ..Wire::default()
        };
        let out = ping(1, 100, &mut wire, ExchangeLimits::default());
        assert!(!out.quiesced, "pinger never got its echo");
        assert_eq!(out.a_to_b.bytes, 100);
        assert_eq!(out.a_to_b.delivered, 0);
        assert_eq!(out.fault_drops, 1);
        assert_eq!(out.b_to_a, Flow::default());
    }

    #[test]
    fn max_events_guards_against_runaway() {
        let mut wire = Wire::ideal(SimDuration::from_nanos(1));
        let limits = ExchangeLimits {
            max_events: 100,
            ..ExchangeLimits::default()
        };
        let out = ping(u32::MAX, 100, &mut wire, limits);
        assert!(!out.quiesced);
        assert!(out.a_to_b.datagrams + out.b_to_a.datagrams <= 102);
    }

    #[test]
    fn deadline_stops_the_clock() {
        let mut wire = Wire::ideal(SimDuration::from_millis(100));
        let limits = ExchangeLimits {
            deadline: SimTime::ZERO + SimDuration::from_secs(1),
            ..ExchangeLimits::default()
        };
        let out = ping(1000, 100, &mut wire, limits);
        assert!(out.finished_at <= SimTime::ZERO + SimDuration::from_secs(1));
        assert!(!out.quiesced);
    }

    #[test]
    fn direction_flip_is_involutive() {
        assert_eq!(Direction::AtoB.flip(), Direction::BtoA);
        assert_eq!(Direction::AtoB.flip().flip(), Direction::AtoB);
    }
}
