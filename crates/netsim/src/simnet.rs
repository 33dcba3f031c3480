//! The exchange scheduler: [`run_exchange`] drives one pair of
//! [`Endpoint`] state machines over one [`Wire`] to completion.
//!
//! The unit of measurement is one scanner↔server handshake, every probe
//! independent of every other, so the scheduler knows exactly one
//! *session*: two borrowed endpoints, the caller's wire and [`SimRng`]
//! stream, and — built on the stack for the duration of the call — its
//! queue of datagrams in flight, its trace and a virtual timeline starting
//! at zero. Nothing outlives the call but the [`ExchangeOutcome`], the
//! wire's fault counters and the RNG's stream position, so a scan costs per
//! probe what one probe costs alone and outcomes cannot depend on what ran
//! before.
//!
//! ## The rule
//!
//! Each step fires the earliest of {next delivery, `a.next_timer()`,
//! `b.next_timer()`}, both timers asked afresh. At one timestamp a delivery
//! goes before any timer (an endpoint sees input before its co-scheduled
//! timeout, as real stacks do) and timer A before timer B; deliveries at
//! one timestamp arrive in send order. That is the reference loop
//! `tests/exchange_equivalence.rs` holds this scheduler to, bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use quicert_obs::{Counter, MetricsRegistry};

use crate::datagram::Datagram;
use crate::event::{
    Direction, DropReason, Endpoint, ExchangeLimits, ExchangeOutcome, TraceEvent, Wire,
};
use crate::link::Delivery;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Process-wide event-loop counters on [`MetricsRegistry::global`],
/// flushed once per [`run_exchange`] so the per-event hot path never
/// touches a shared atomic.
struct NetMetrics {
    events: Arc<Counter>,
    timer_fires: Arc<Counter>,
    drops: Arc<Counter>,
    corruptions: Arc<Counter>,
    duplications: Arc<Counter>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        NetMetrics {
            events: registry.counter(
                "quicert_netsim_events_total",
                "Exchange events processed (deliveries and timer fires)",
            ),
            timer_fires: registry.counter(
                "quicert_netsim_timer_fires_total",
                "Exchange timer events fired",
            ),
            drops: registry.counter(
                "quicert_netsim_fault_drops_total",
                "Datagrams removed by fault injectors",
            ),
            corruptions: registry.counter(
                "quicert_netsim_fault_corruptions_total",
                "Datagrams corrupted by fault injectors",
            ),
            duplications: registry.counter(
                "quicert_netsim_fault_duplications_total",
                "Datagrams duplicated by fault injectors",
            ),
        }
    })
}

/// A datagram in flight — the only thing the scheduler queues. Ordered by
/// arrival time, then send sequence.
struct InFlight {
    at: SimTime,
    seq: u64,
    direction: Direction,
    dgram: Datagram,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Drops, corruptions and duplications the wire's two fault injectors
/// have counted so far.
fn fault_totals(wire: &Wire) -> [u64; 3] {
    let (ab, ba) = (&wire.fault_a_to_b, &wire.fault_b_to_a);
    [
        ab.drops() + ba.drops(),
        ab.corruptions() + ba.corruptions(),
        ab.duplications() + ba.duplications(),
    ]
}

/// Run an exchange between endpoint `a` (initiator) and endpoint `b` over
/// `wire` until both endpoints are done, nothing remains in flight and no
/// timers are pending — or until `limits` are hit.
///
/// Both `start` hooks run at `SimTime::ZERO`: every exchange lives on its
/// own virtual timeline. The caller's `wire` accumulates fault counters and
/// `rng` advances its stream across calls; the outcome reports the faults
/// of *this* exchange only, even on a reused wire.
///
/// ```
/// use quicert_netsim::{run_exchange, SimRng, Wire, ExchangeLimits, SimDuration};
/// # use quicert_netsim::{Datagram, Endpoint, SimTime};
/// # struct Quiet;
/// # impl Endpoint for Quiet {
/// #     fn on_datagram(&mut self, _: &Datagram, _: SimTime, _: &mut Vec<Datagram>) {}
/// #     fn on_timer(&mut self, _: SimTime, _: &mut Vec<Datagram>) {}
/// #     fn next_timer(&self) -> Option<SimTime> { None }
/// #     fn is_done(&self) -> bool { true }
/// # }
/// let mut wire = Wire::ideal(SimDuration::from_millis(10));
/// let outcome = run_exchange(
///     &mut Quiet,
///     &mut Quiet,
///     &mut wire,
///     ExchangeLimits::default(),
///     &mut SimRng::new(1),
/// );
/// assert!(outcome.quiesced);
/// ```
pub fn run_exchange(
    a: &mut dyn Endpoint,
    b: &mut dyn Endpoint,
    wire: &mut Wire,
    limits: ExchangeLimits,
    rng: &mut SimRng,
) -> ExchangeOutcome {
    let faults_before = fault_totals(wire);
    let mut session = Session {
        a,
        b,
        wire,
        limits,
        rng,
        queue: BinaryHeap::new(),
        trace: Vec::new(),
        now: SimTime::ZERO,
        seq: 0,
        events: 0,
        timer_fires: 0,
    };
    let quiesced = session.run();
    let Session {
        wire,
        trace,
        now,
        events,
        timer_fires,
        ..
    } = session;
    let faults_after = fault_totals(wire);
    let [fault_drops, fault_corruptions, fault_duplications] =
        [0, 1, 2].map(|i| faults_after[i] - faults_before[i]);

    let metrics = net_metrics();
    metrics.events.add(events as u64);
    metrics.timer_fires.add(timer_fires);
    metrics.drops.add(fault_drops);
    metrics.corruptions.add(fault_corruptions);
    metrics.duplications.add(fault_duplications);

    ExchangeOutcome {
        trace,
        finished_at: now,
        quiesced,
        timer_fires,
        fault_drops,
        fault_corruptions,
        fault_duplications,
    }
}

/// The one endpoint pair of an exchange and the scheduler state that
/// lives only while it runs.
struct Session<'x> {
    a: &'x mut dyn Endpoint,
    b: &'x mut dyn Endpoint,
    wire: &'x mut Wire,
    limits: ExchangeLimits,
    rng: &'x mut SimRng,
    /// Datagrams in flight.
    queue: BinaryHeap<Reverse<InFlight>>,
    trace: Vec<TraceEvent>,
    /// Simulated time of the last processed event.
    now: SimTime,
    /// Datagram sequence counter (delivery tie-break).
    seq: u64,
    /// Processed events, checked against `limits.max_events`.
    events: usize,
    /// Of `events`, the timer callbacks.
    timer_fires: u64,
}

impl Session<'_> {
    fn both_done(&self) -> bool {
        self.a.is_done() && self.b.is_done()
    }

    /// Start both endpoints, then process events until the session
    /// quiesces or hits its limits; returns whether it quiesced.
    fn run(&mut self) -> bool {
        // The one buffer endpoints write their transmissions into.
        let mut outbox = Vec::new();
        self.a.start(SimTime::ZERO, &mut outbox);
        self.offer_outbox(Direction::AtoB, SimTime::ZERO, &mut outbox);
        self.b.start(SimTime::ZERO, &mut outbox);
        self.offer_outbox(Direction::BtoA, SimTime::ZERO, &mut outbox);
        loop {
            // Exhausting the event budget is a runaway, never quiescence.
            if self.events >= self.limits.max_events {
                return false;
            }
            let delivery = self.queue.peek().map(|Reverse(next)| next.at);
            let (timer_a, timer_b) = (self.a.next_timer(), self.b.next_timer());
            // Nothing in flight and no timer armed: the session is over.
            let Some(at) = [delivery, timer_a, timer_b].into_iter().flatten().min() else {
                return self.both_done();
            };
            // Past the deadline the session stops un-advanced.
            if at > self.limits.deadline {
                return self.both_done();
            }
            self.now = at;
            self.events += 1;
            let sender = if delivery == Some(at) {
                let Some(Reverse(arrived)) = self.queue.pop() else {
                    unreachable!("a delivery was peeked")
                };
                match arrived.direction {
                    Direction::AtoB => self.b.on_datagram(&arrived.dgram, at, &mut outbox),
                    Direction::BtoA => self.a.on_datagram(&arrived.dgram, at, &mut outbox),
                }
                arrived.direction.flip()
            } else {
                self.timer_fires += 1;
                if timer_a == Some(at) {
                    self.a.on_timer(at, &mut outbox);
                    Direction::AtoB
                } else {
                    self.b.on_timer(at, &mut outbox);
                    Direction::BtoA
                }
            };
            self.offer_outbox(sender, at, &mut outbox);
        }
    }

    /// Offer every datagram in `outbox` to the wire: apply the fault
    /// injector, then the link model, queueing deliveries and recording one
    /// [`TraceEvent`] per datagram.
    fn offer_outbox(&mut self, direction: Direction, now: SimTime, outbox: &mut Vec<Datagram>) {
        for mut dgram in outbox.drain(..) {
            dgram.sent_at = now;
            let fault = match direction {
                Direction::AtoB => &mut self.wire.fault_a_to_b,
                Direction::BtoA => &mut self.wire.fault_b_to_a,
            };
            let payload_len = dgram.payload_len();

            // RNG draw order: fault first, then (optional) duplication, then
            // one link draw per copy — injectors with every chance at zero
            // leave the stream untouched.
            let survived = fault.apply(self.rng, dgram);
            let duplicate = match &survived {
                Some(dgram) => fault.maybe_duplicate(self.rng).then(|| dgram.clone()),
                None => None,
            };
            let outcome = match survived {
                None => Err(DropReason::Fault),
                Some(dgram) => self.deliver_via_link(direction, now, dgram),
            };
            self.trace.push(TraceEvent {
                sent_at: now,
                direction,
                payload_len,
                outcome,
            });
            if let Some(dgram) = duplicate {
                let payload_len = dgram.payload_len();
                let outcome = self.deliver_via_link(direction, now, dgram);
                self.trace.push(TraceEvent {
                    sent_at: now,
                    direction,
                    payload_len,
                    outcome,
                });
            }
        }
    }

    /// Offer one surviving datagram to the link model, queueing its
    /// delivery on arrival. Shared by the primary and the duplicated copy
    /// so both take identical scheduling (and RNG) paths.
    fn deliver_via_link(
        &mut self,
        direction: Direction,
        now: SimTime,
        dgram: Datagram,
    ) -> Result<SimTime, DropReason> {
        let link = match direction {
            Direction::AtoB => &self.wire.a_to_b,
            Direction::BtoA => &self.wire.b_to_a,
        };
        match link.deliver(self.rng, &dgram, now) {
            Delivery::Arrives(at) => {
                self.seq += 1;
                self.queue.push(Reverse(InFlight {
                    at,
                    seq: self.seq,
                    direction,
                    dgram,
                }));
                Ok(at)
            }
            Delivery::LostRandom => Err(DropReason::Loss),
            Delivery::LostMtu(size) => Err(DropReason::Mtu(size)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::time::SimDuration;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Sends `count` pings; expects an echo for each before the next.
    struct Pinger {
        remaining: u32,
        payload: usize,
    }

    struct Echoer;

    impl Endpoint for Pinger {
        fn start(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; self.payload]));
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, out: &mut Vec<Datagram>) {
            self.remaining -= 1;
            if self.remaining > 0 {
                out.push(Datagram::new(A, B, 1000, 443, vec![1; self.payload]));
            }
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            self.remaining == 0
        }
    }

    impl Endpoint for Echoer {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, out: &mut Vec<Datagram>) {
            out.push(d.reply_with(d.payload.clone()));
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// A burst sender: emits `n` datagrams at once so several deliveries
    /// share one arrival timestamp.
    struct Burst {
        n: usize,
    }

    impl Endpoint for Burst {
        fn start(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
            for i in 0..self.n {
                out.push(Datagram::new(A, B, 1000, 443, vec![i as u8; 10 + i]));
            }
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Records the payload sizes it receives, in arrival order.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<usize>,
    }

    impl Endpoint for Recorder {
        fn on_datagram(&mut self, d: &Datagram, _now: SimTime, _out: &mut Vec<Datagram>) {
            self.seen.push(d.payload_len());
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// `remaining` pings of `payload` bytes against an echoer over `wire`.
    fn ping(
        remaining: u32,
        payload: usize,
        wire: &mut Wire,
        limits: ExchangeLimits,
    ) -> ExchangeOutcome {
        run_exchange(
            &mut Pinger { remaining, payload },
            &mut Echoer,
            wire,
            limits,
            &mut SimRng::new(1),
        )
    }

    #[test]
    fn single_session_ping_pong_quiesces() {
        let mut wire = Wire::ideal(SimDuration::from_millis(10));
        let out = ping(3, 100, &mut wire, ExchangeLimits::default());
        assert!(out.quiesced);
        assert_eq!(out.datagrams(Direction::AtoB), 3);
        assert_eq!(
            out.finished_at,
            SimTime::ZERO + SimDuration::from_millis(60)
        );
    }

    #[test]
    fn equal_timestamp_deliveries_arrive_in_send_order() {
        // A burst of datagrams over a zero-jitter wire all arrive at the
        // same instant; the recorder must see them in send (seq) order.
        let mut recorder = Recorder::default();
        let out = run_exchange(
            &mut Burst { n: 8 },
            &mut recorder,
            &mut Wire::ideal(SimDuration::from_millis(5)),
            ExchangeLimits::default(),
            &mut SimRng::new(2),
        );
        assert!(out.quiesced);
        assert_eq!(recorder.seen, (0..8).map(|i| 10 + i).collect::<Vec<_>>());
    }

    #[test]
    fn outcome_surfaces_fault_counters() {
        // Two exchanges over ONE wire: the injector's own counter keeps
        // accumulating, each outcome reports only its own exchange.
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        wire.fault_a_to_b = FaultInjector::dropping(1.0);
        for run in 1..=2 {
            let out = ping(1, 64, &mut wire, ExchangeLimits::default());
            assert!(!out.quiesced);
            assert_eq!(out.fault_drops, 1, "exchange {run} reports its own drop");
            assert_eq!(out.fault_corruptions, 0);
            assert_eq!(out.fault_duplications, 0);
            assert_eq!(wire.fault_a_to_b.drops(), run);
        }
    }

    #[test]
    fn duplicating_injector_delivers_every_datagram_twice() {
        let mut recorder = Recorder::default();
        let mut wire = Wire::ideal(SimDuration::from_millis(5));
        wire.fault_a_to_b = FaultInjector::duplicating(1.0);
        let out = run_exchange(
            &mut Burst { n: 4 },
            &mut recorder,
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(7),
        );
        assert!(out.quiesced);
        // One trace event per copy, no drops, and the duplication count
        // surfaces on the outcome itself (not just the wire).
        assert_eq!(out.datagrams(Direction::AtoB), 8);
        assert_eq!(out.fault_drops, 0);
        assert_eq!(out.fault_duplications, 4);
        assert_eq!(wire.fault_a_to_b.duplications(), 4);
        // Each payload arrives twice, copies adjacent in send order.
        assert_eq!(recorder.seen, vec![10, 10, 11, 11, 12, 12, 13, 13]);
    }

    #[test]
    fn max_events_zero_finishes_immediately_unquiesced() {
        let limits = ExchangeLimits {
            max_events: 0,
            ..ExchangeLimits::default()
        };
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        let out = ping(1, 10, &mut wire, limits);
        assert!(!out.quiesced);
        // The ping was offered to the wire, but no event was processed.
        assert_eq!(out.trace.len(), 1);
        assert_eq!(out.finished_at, SimTime::ZERO);
    }

    #[test]
    fn sessions_added_with_nothing_to_do_quiesce_at_zero() {
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        let out = ping(0, 0, &mut wire, ExchangeLimits::default());
        assert!(out.quiesced);
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert!(out.trace.is_empty());
    }
}
