//! The exchange scheduler: [`run_exchange`] drives one pair of
//! [`Endpoint`] state machines over one [`Wire`] to completion.
//!
//! The unit of measurement is one scanner↔server handshake, every probe
//! independent of every other, so the scheduler knows exactly one
//! *session*: two borrowed endpoints, the caller's wire and [`SimRng`]
//! stream, and — built on the stack for the duration of the call — its
//! queue of datagrams in flight, a fixed-size tally of what each direction
//! offered to the wire and a virtual timeline starting at zero. Nothing
//! outlives the call but the [`ExchangeOutcome`], the wire's fault counters
//! and the RNG's stream position, so a scan costs per probe what one probe
//! costs alone and outcomes cannot depend on what ran before.
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
use crate::event::{Direction, Endpoint, ExchangeLimits, ExchangeOutcome, Flow, Wire};
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
        a_to_b: Flow::default(),
        b_to_a: Flow::default(),
        first_flight: 0,
        cut: None,
        b_instant: (SimTime::ZERO, 0),
        now: SimTime::ZERO,
        seq: 0,
        events: 0,
        timer_fires: 0,
    };
    let quiesced = session.run();
    let Session {
        wire,
        a_to_b,
        b_to_a,
        first_flight,
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
        a_to_b,
        b_to_a,
        first_flight,
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
    a_to_b: Flow,
    b_to_a: Flow,
    first_flight: usize,
    /// Arrival of A's second datagram, once it was offered and delivered.
    cut: Option<SimTime>,
    /// B's latest send instant and its bytes sent then.
    b_instant: (SimTime, usize),
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
    /// injector, then the link model, queueing deliveries and tallying
    /// every copy offered.
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
            let arrival = survived.and_then(|dgram| self.deliver_via_link(direction, now, dgram));
            self.tally(direction, now, payload_len, arrival);
            if let Some(dgram) = duplicate {
                let payload_len = dgram.payload_len();
                let arrival = self.deliver_via_link(direction, now, dgram);
                self.tally(direction, now, payload_len, arrival);
            }
        }
    }

    /// Count one datagram of `len` bytes offered at `now` into its
    /// direction's [`Flow`] and into [`ExchangeOutcome::first_flight`]:
    /// every B byte until A's second datagram is offered, then only those
    /// sent before it arrives at `t2`. Events run in time order, so every B
    /// byte counted by then left at or before `now ≤ t2`; only a
    /// zero-latency tie (`t2 == now`) takes B's bytes of that instant back.
    fn tally(&mut self, direction: Direction, now: SimTime, len: usize, arrival: Option<SimTime>) {
        let flow = match direction {
            Direction::AtoB => &mut self.a_to_b,
            Direction::BtoA => &mut self.b_to_a,
        };
        flow.datagrams += 1;
        flow.bytes += len;
        flow.delivered += usize::from(arrival.is_some());
        flow.sent_between = Some((flow.sent_between.map_or(now, |(first, _)| first), now));
        match direction {
            Direction::AtoB if flow.datagrams == 2 => {
                self.cut = arrival;
                if arrival == Some(now) && self.b_instant.0 == now {
                    self.first_flight -= self.b_instant.1;
                }
            }
            Direction::AtoB => {}
            Direction::BtoA => {
                if self.b_instant.0 != now {
                    self.b_instant = (now, 0);
                }
                self.b_instant.1 += len;
                if self.cut.is_none_or(|t2| now < t2) {
                    self.first_flight += len;
                }
            }
        }
    }

    /// Offer one surviving datagram to the link model, queueing its
    /// delivery on arrival; `None` when the link lost it. Shared by the
    /// primary and the duplicated copy so both take identical scheduling
    /// (and RNG) paths.
    fn deliver_via_link(
        &mut self,
        direction: Direction,
        now: SimTime,
        dgram: Datagram,
    ) -> Option<SimTime> {
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
                Some(at)
            }
            Delivery::LostRandom | Delivery::LostMtu(_) => None,
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

    /// Sends 50 bytes at start and 60 more on its `nth` arrival.
    struct Knock {
        nth: usize,
        seen: usize,
    }

    impl Endpoint for Knock {
        fn start(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
            out.push(Datagram::new(A, B, 1000, 443, vec![5; 50]));
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, out: &mut Vec<Datagram>) {
            self.seen += 1;
            if self.seen == self.nth {
                out.push(Datagram::new(A, B, 1000, 443, vec![6; 60]));
            }
        }
        fn on_timer(&mut self, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn next_timer(&self) -> Option<SimTime> {
            None
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// Sends `(ms, len)` datagrams at their scripted instants, on its own
    /// timer; ignores what arrives.
    struct Script(Vec<(u64, usize)>);

    impl Endpoint for Script {
        fn start(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
            self.on_timer(now, out);
        }
        fn on_datagram(&mut self, _d: &Datagram, _now: SimTime, _out: &mut Vec<Datagram>) {}
        fn on_timer(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
            while self.next_timer() == Some(now) {
                let (_, len) = self.0.remove(0);
                out.push(Datagram::new(B, A, 443, 1000, vec![7; len]));
            }
        }
        fn next_timer(&self) -> Option<SimTime> {
            self.0.first().map(|&(ms, _)| at_ms(ms))
        }
        fn is_done(&self) -> bool {
            self.0.is_empty()
        }
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
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
        assert_eq!(out.a_to_b.datagrams, 3);
        assert_eq!(out.b_to_a.datagrams, 3);
        // The second ping leaves on the first echo's arrival and reaches B
        // at 30 ms: only the first echo, sent at 10 ms, is first flight.
        assert_eq!(out.first_flight, 100);
        assert_eq!(out.finished_at, at_ms(60));
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
        wire.fault_a_to_b.duplicate_chance = 1.0;
        let out = run_exchange(
            &mut Burst { n: 4 },
            &mut recorder,
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(7),
        );
        assert!(out.quiesced);
        // Every copy is counted, no drops, and the duplication count
        // surfaces on the outcome itself (not just the wire).
        assert_eq!(out.a_to_b.datagrams, 8);
        assert_eq!(out.a_to_b.delivered, 8);
        assert_eq!(out.a_to_b.bytes, 2 * (10 + 11 + 12 + 13));
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
        assert_eq!(out.a_to_b.datagrams, 1);
        assert_eq!(out.b_to_a, Flow::default());
        assert_eq!(out.finished_at, SimTime::ZERO);
    }

    #[test]
    fn sessions_added_with_nothing_to_do_quiesce_at_zero() {
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        let out = ping(0, 0, &mut wire, ExchangeLimits::default());
        assert!(out.quiesced);
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert_eq!((out.a_to_b, out.b_to_a), (Flow::default(), Flow::default()));
        assert_eq!(out.first_flight, 0);
    }

    #[test]
    fn a_duplicated_first_datagram_cuts_the_first_flight_at_its_own_arrival() {
        // The copy is A's second datagram on the wire. It lands with the
        // original at 5 ms, the instant B echoes both: nothing B sends
        // leaves before the cut.
        let mut wire = Wire::ideal(SimDuration::from_millis(5));
        wire.fault_a_to_b.duplicate_chance = 1.0;
        let out = run_exchange(
            &mut Burst { n: 1 },
            &mut Echoer,
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(3),
        );
        let flow = |sent: SimTime| Flow {
            datagrams: 2,
            bytes: 20,
            delivered: 2,
            sent_between: Some((sent, sent)),
        };
        assert_eq!(out.a_to_b, flow(SimTime::ZERO));
        assert_eq!(out.b_to_a, flow(at_ms(5)));
        assert_eq!(out.first_flight, 0);

        // Without the copy A sends once, so there is no cut and B's one
        // echo is first flight.
        let clean = run_exchange(
            &mut Burst { n: 1 },
            &mut Echoer,
            &mut Wire::ideal(SimDuration::from_millis(5)),
            ExchangeLimits::default(),
            &mut SimRng::new(3),
        );
        assert_eq!(clean.first_flight, 10);
    }

    #[test]
    fn a_zero_latency_tie_takes_back_what_b_sent_at_the_cut_instant() {
        // B sends 10 bytes at 0 ms, 20 at 5 ms and 40 at 7 ms. Its 5 ms
        // datagram is A's second arrival, so A's second datagram is offered
        // at 5 ms and, over a zero-latency wire, reaches B at 5 ms: B's
        // 20 bytes sent that same instant are not first flight.
        let out = run_exchange(
            &mut Knock { nth: 2, seen: 0 },
            &mut Script(vec![(0, 10), (5, 20), (7, 40)]),
            &mut Wire::ideal(SimDuration::ZERO),
            ExchangeLimits::default(),
            &mut SimRng::new(4),
        );
        assert!(out.quiesced);
        assert_eq!(out.first_flight, 10);
        assert_eq!(
            out.a_to_b,
            Flow {
                datagrams: 2,
                bytes: 110,
                delivered: 2,
                sent_between: Some((SimTime::ZERO, at_ms(5))),
            }
        );
        assert_eq!(
            out.b_to_a,
            Flow {
                datagrams: 3,
                bytes: 70,
                delivered: 3,
                sent_between: Some((SimTime::ZERO, at_ms(7))),
            }
        );
    }

    #[test]
    fn a_lost_second_datagram_leaves_every_b_byte_in_the_first_flight() {
        // Behind a 1,420-byte tunnel, A's 60-byte second datagram (88 on
        // the wire) exceeds the 1500-byte MTU its 50-byte first one (78)
        // fits: the cut never arrives.
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        wire.a_to_b.encapsulation_overhead = 1_420;
        let out = run_exchange(
            &mut Knock { nth: 1, seen: 0 },
            &mut Script(vec![(0, 10), (5, 20), (7, 40)]),
            &mut wire,
            ExchangeLimits::default(),
            &mut SimRng::new(5),
        );
        assert!(out.quiesced);
        assert_eq!(out.first_flight, 70);
        assert_eq!(
            out.a_to_b,
            Flow {
                datagrams: 2,
                bytes: 110,
                delivered: 1,
                sent_between: Some((SimTime::ZERO, at_ms(1))),
            }
        );
        assert_eq!(
            out.b_to_a,
            Flow {
                datagrams: 3,
                bytes: 70,
                delivered: 3,
                sent_between: Some((SimTime::ZERO, at_ms(7))),
            }
        );
    }
}
