//! The endpoint/wire vocabulary of the simulator: what an exchange is
//! made of and what it reports.
//!
//! QUIC scans are pairwise (scanner ↔ server): a [`Wire`] with one
//! [`LinkModel`] per direction connects two [`Endpoint`] state machines,
//! and [`crate::simnet::run_exchange`] schedules them to completion.
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
    use crate::rng::SimRng;
    use crate::simnet::{run_exchange, ExchangeScratch};
    use std::net::Ipv4Addr;

    /// Sends `count` pings; expects an echo for each before sending the next.
    struct Pinger {
        remaining: u32,
    }

    /// Echoes every datagram back.
    struct Echoer;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    impl Endpoint for Pinger {
        fn start(&mut self, _now: SimTime, out: &mut Outbox) {
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; 100]));
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, out: &mut Outbox) {
            self.remaining -= 1;
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; 100]));
            }
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            self.remaining == 0
        }
    }

    impl Endpoint for Echoer {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, out: &mut Outbox) {
            out.push(d.reply_with(d.payload.clone()));
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut pinger = Pinger { remaining: 3 };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_millis(10));
        let mut rng = SimRng::new(1);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut rng,
            &mut ExchangeScratch::default(),
        );
        assert!(out.quiesced);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        assert_eq!(
            out.a_to_b,
            Flow {
                datagrams: 3,
                bytes: 300,
                delivered: 3,
                sent_between: Some((ms(0), ms(40))),
            }
        );
        assert_eq!(
            out.b_to_a,
            Flow {
                sent_between: Some((ms(10), ms(50))),
                ..out.a_to_b
            }
        );
        // 3 round trips at 20ms RTT.
        assert_eq!(
            out.finished_at,
            SimTime::ZERO + SimDuration::from_millis(60)
        );
    }

    #[test]
    fn lossy_wire_without_timers_stalls_unquiesced() {
        let mut pinger = Pinger { remaining: 1 };
        let mut echoer = Echoer;
        let mut wire = Wire {
            fault_a_to_b: FaultInjector::dropping(1.0),
            ..Wire::default()
        };
        let mut rng = SimRng::new(2);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut rng,
            &mut ExchangeScratch::default(),
        );
        assert!(!out.quiesced, "pinger never got its echo");
        assert_eq!(out.a_to_b.bytes, 100);
        assert_eq!(out.a_to_b.delivered, 0);
        assert_eq!(out.fault_drops, 1);
        assert_eq!(out.b_to_a, Flow::default());
    }

    #[test]
    fn max_events_guards_against_runaway() {
        let mut pinger = Pinger {
            remaining: u32::MAX,
        };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_nanos(1));
        let mut rng = SimRng::new(3);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits {
                max_events: 100,
                ..ExchangeLimits::default()
            },
            &mut rng,
            &mut ExchangeScratch::default(),
        );
        assert!(!out.quiesced);
        assert!(out.a_to_b.datagrams + out.b_to_a.datagrams <= 102);
    }

    #[test]
    fn deadline_stops_the_clock() {
        let mut pinger = Pinger { remaining: 1000 };
        let mut echoer = Echoer;
        let mut wire = Wire::ideal(SimDuration::from_millis(100));
        let mut rng = SimRng::new(4);
        let out = run_exchange(
            &mut pinger,
            &mut echoer,
            &mut wire,
            ExchangeLimits {
                deadline: SimTime::ZERO + SimDuration::from_secs(1),
                ..ExchangeLimits::default()
            },
            &mut rng,
            &mut ExchangeScratch::default(),
        );
        assert!(out.finished_at <= SimTime::ZERO + SimDuration::from_secs(1));
        assert!(!out.quiesced);
    }

    #[test]
    fn direction_flip_is_involutive() {
        assert_eq!(Direction::AtoB.flip(), Direction::BtoA);
        assert_eq!(Direction::AtoB.flip().flip(), Direction::AtoB);
    }
}
