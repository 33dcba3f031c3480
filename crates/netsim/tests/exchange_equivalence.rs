//! Pins `run_exchange` — the scheduler itself, one borrowed session on the
//! stack — bit-for-bit against a reference two-endpoint event loop.
//!
//! `reference_run_exchange` below is a verbatim copy of the first
//! implementation of the loop (a `BinaryHeap` of pending deliveries; modulo
//! the two fault-counter fields that did not exist then) — the fixed point
//! every rewrite of the scheduler is held to, so it is never edited along
//! with one. Every scenario — ideal ping-pong, lossy jittery wires, retransmission
//! timers, fault injection, MTU drops, deadlines and event budgets — must
//! produce, through both paths, the same arrivals (which end, when, how many
//! bytes, interleaved across both ends in delivery order — see [`Tap`]),
//! finish time, quiescence flag and RNG stream position; and the
//! scheduler's [`Flow`] tally and first-flight cut must be what the
//! reference loop's trace sums to.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use quicert_netsim::event::Direction;
use quicert_netsim::link::Delivery;
use quicert_netsim::{
    run_exchange, Datagram, Endpoint, ExchangeLimits, FaultInjector, Flow, LinkModel, SimDuration,
    SimRng, SimTime, Wire,
};

// ------------------------------------------- the reference trace types --
//
// The reference loop records one `TraceEvent` per datagram; the scheduler
// under test keeps only the tally `tally` derives from such a trace.

/// Why a datagram did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// Exceeded the path MTU (size after encapsulation).
    Mtu(usize),
    /// Removed by the fault injector.
    Fault,
}

/// One datagram transmission as observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the sender handed the datagram to the wire.
    pub sent_at: SimTime,
    /// Transmission direction.
    pub direction: Direction,
    /// UDP payload size in bytes.
    pub payload_len: usize,
    /// Delivery time, or the reason the datagram was dropped.
    pub outcome: Result<SimTime, DropReason>,
}

impl TraceEvent {
    /// Whether the datagram arrived.
    pub fn delivered(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// The two [`Flow`]s and the first-flight cut a trace sums to — the cut as
/// B's bytes sent before A's second trace entry arrived, all of them if it
/// never did.
fn tally(trace: &[TraceEvent]) -> (Flow, Flow, usize) {
    let flow = |direction| {
        let mut flow = Flow::default();
        for e in trace.iter().filter(|e| e.direction == direction) {
            flow.datagrams += 1;
            flow.bytes += e.payload_len;
            flow.delivered += usize::from(e.delivered());
            let first = flow.sent_between.map_or(e.sent_at, |(first, _)| first);
            flow.sent_between = Some((first, e.sent_at));
        }
        flow
    };
    let second_a_arrival = trace
        .iter()
        .filter(|e| e.direction == Direction::AtoB)
        .nth(1)
        .and_then(|e| e.outcome.ok());
    let first_flight = trace
        .iter()
        .filter(|e| e.direction == Direction::BtoA)
        .filter(|e| second_a_arrival.is_none_or(|t2| e.sent_at < t2))
        .map(|e| e.payload_len)
        .sum();
    (flow(Direction::AtoB), flow(Direction::BtoA), first_flight)
}

// ------------------------------------------------- the reference loop --

#[derive(Debug)]
struct PendingDelivery {
    at: SimTime,
    seq: u64,
    direction: Direction,
    dgram: Datagram,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The pre-refactor outcome shape (no fault counters).
struct ReferenceOutcome {
    trace: Vec<TraceEvent>,
    finished_at: SimTime,
    quiesced: bool,
}

/// Verbatim copy of the first `run_exchange`.
fn reference_run_exchange(
    a: &mut dyn Endpoint,
    b: &mut dyn Endpoint,
    wire: &mut Wire,
    limits: ExchangeLimits,
    rng: &mut SimRng,
) -> ReferenceOutcome {
    let mut queue: BinaryHeap<Reverse<PendingDelivery>> = BinaryHeap::new();
    let mut trace = Vec::new();
    let mut now = SimTime::ZERO;
    let mut seq: u64 = 0;
    let mut outbox = Vec::new();

    a.start(now, &mut outbox);
    enqueue_all(
        &mut outbox,
        Direction::AtoB,
        now,
        wire,
        rng,
        &mut queue,
        &mut trace,
        &mut seq,
    );
    b.start(now, &mut outbox);
    enqueue_all(
        &mut outbox,
        Direction::BtoA,
        now,
        wire,
        rng,
        &mut queue,
        &mut trace,
        &mut seq,
    );

    let mut events = 0usize;
    loop {
        if events >= limits.max_events {
            return ReferenceOutcome {
                trace,
                finished_at: now,
                quiesced: false,
            };
        }
        events += 1;

        let next_delivery = queue.peek().map(|Reverse(p)| p.at);
        let next_timer_a = a.next_timer();
        let next_timer_b = b.next_timer();
        let candidates = [next_delivery, next_timer_a, next_timer_b];
        let next_at = candidates.iter().flatten().min().copied();

        let Some(at) = next_at else {
            let quiesced = a.is_done() && b.is_done();
            return ReferenceOutcome {
                trace,
                finished_at: now,
                quiesced,
            };
        };
        if at > limits.deadline {
            return ReferenceOutcome {
                trace,
                finished_at: now,
                quiesced: a.is_done() && b.is_done(),
            };
        }
        now = at;

        if next_delivery == Some(at) {
            let Reverse(pending) = queue.pop().expect("peeked delivery must exist");
            let reply_dir = match pending.direction {
                Direction::AtoB => {
                    b.on_datagram(&pending.dgram, now, &mut outbox);
                    Direction::BtoA
                }
                Direction::BtoA => {
                    a.on_datagram(&pending.dgram, now, &mut outbox);
                    Direction::AtoB
                }
            };
            enqueue_all(
                &mut outbox,
                reply_dir,
                now,
                wire,
                rng,
                &mut queue,
                &mut trace,
                &mut seq,
            );
        } else if next_timer_a == Some(at) {
            a.on_timer(now, &mut outbox);
            enqueue_all(
                &mut outbox,
                Direction::AtoB,
                now,
                wire,
                rng,
                &mut queue,
                &mut trace,
                &mut seq,
            );
        } else {
            b.on_timer(now, &mut outbox);
            enqueue_all(
                &mut outbox,
                Direction::BtoA,
                now,
                wire,
                rng,
                &mut queue,
                &mut trace,
                &mut seq,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn enqueue_all(
    outbox: &mut Vec<Datagram>,
    direction: Direction,
    now: SimTime,
    wire: &mut Wire,
    rng: &mut SimRng,
    queue: &mut BinaryHeap<Reverse<PendingDelivery>>,
    trace: &mut Vec<TraceEvent>,
    seq: &mut u64,
) {
    for mut dgram in outbox.drain(..) {
        dgram.sent_at = now;
        let (link, fault) = match direction {
            Direction::AtoB => (&wire.a_to_b, &mut wire.fault_a_to_b),
            Direction::BtoA => (&wire.b_to_a, &mut wire.fault_b_to_a),
        };
        let payload_len = dgram.payload_len();

        let outcome = match fault.apply(rng, dgram) {
            None => Err(DropReason::Fault),
            Some(dgram) => match link.deliver(rng, &dgram, now) {
                Delivery::Arrives(at) => {
                    *seq += 1;
                    queue.push(Reverse(PendingDelivery {
                        at,
                        seq: *seq,
                        direction,
                        dgram,
                    }));
                    Ok(at)
                }
                Delivery::LostRandom => Err(DropReason::Loss),
                Delivery::LostMtu(size) => Err(DropReason::Mtu(size)),
            },
        };
        trace.push(TraceEvent {
            sent_at: now,
            direction,
            payload_len,
            outcome,
        });
    }
}

// ------------------------------------------------------ test endpoints --

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A pinger with a retransmission timer: resends its ping after `pto` if
/// no echo arrived, up to `max_sends` total transmissions. Exercises every
/// timer path of the scheduler (arm, fire, re-arm, cancel).
#[derive(Clone)]
struct RetryPinger {
    remaining: u32,
    payload: usize,
    pto: SimDuration,
    max_sends: u32,
    sends: u32,
    deadline: Option<SimTime>,
    /// A PTO that replaces `pto` at the first echo, so that delivery can
    /// re-arm the timer to an *earlier* deadline than the one it cancels.
    pto_after_echo: Option<SimDuration>,
}

impl RetryPinger {
    fn new(remaining: u32, payload: usize, pto_ms: u64, max_sends: u32) -> Self {
        RetryPinger {
            remaining,
            payload,
            pto: SimDuration::from_millis(pto_ms),
            max_sends,
            sends: 0,
            deadline: None,
            pto_after_echo: None,
        }
    }

    fn with_pto_after_echo(mut self, pto_ms: u64) -> Self {
        self.pto_after_echo = Some(SimDuration::from_millis(pto_ms));
        self
    }

    fn ping(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        out.push(Datagram::new(A, B, 1000, 443, vec![7; self.payload]));
        self.sends += 1;
        self.deadline = Some(now + self.pto);
    }
}

impl Endpoint for RetryPinger {
    fn start(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        if self.remaining > 0 {
            self.ping(now, out);
        }
    }
    fn on_datagram(&mut self, _d: &Datagram, now: SimTime, out: &mut Vec<Datagram>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.sends = 0;
        self.deadline = None;
        if let Some(pto) = self.pto_after_echo.take() {
            self.pto = pto;
        }
        if self.remaining > 0 {
            self.ping(now, out);
        }
    }
    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        self.deadline = None;
        if self.remaining > 0 && self.sends < self.max_sends {
            self.ping(now, out);
        }
    }
    fn next_timer(&self) -> Option<SimTime> {
        self.deadline
    }
    fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

/// Echoes datagrams back after a think delay driven by its own timer.
#[derive(Clone)]
struct DelayedEchoer {
    think: SimDuration,
    queued: Vec<Datagram>,
    deadline: Option<SimTime>,
}

impl DelayedEchoer {
    fn new(think_ms: u64) -> Self {
        DelayedEchoer {
            think: SimDuration::from_millis(think_ms),
            queued: Vec::new(),
            deadline: None,
        }
    }
}

impl Endpoint for DelayedEchoer {
    fn on_datagram(&mut self, d: &Datagram, now: SimTime, _out: &mut Vec<Datagram>) {
        self.queued.push(d.reply_with(d.payload.clone()));
        if self.deadline.is_none() {
            self.deadline = Some(now + self.think);
        }
    }
    fn on_timer(&mut self, _now: SimTime, out: &mut Vec<Datagram>) {
        self.deadline = None;
        out.append(&mut self.queued);
    }
    fn next_timer(&self) -> Option<SimTime> {
        self.deadline
    }
    fn is_done(&self) -> bool {
        self.queued.is_empty()
    }
}

/// Every arrival of one run in the order the two endpoints saw them: the
/// direction it travelled, when, and how many payload bytes.
type Arrivals = Vec<(Direction, SimTime, usize)>;

/// Passes everything through to `inner`, logging each arrival first into
/// the log both ends of the run share — so a run's arrivals interleave
/// across the ends exactly as the scheduler delivered them.
struct Tap<'e> {
    inner: &'e mut dyn Endpoint,
    /// The direction of the datagrams arriving at this end.
    inbound: Direction,
    log: &'e RefCell<Arrivals>,
}

impl Endpoint for Tap<'_> {
    fn start(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        self.inner.start(now, out);
    }
    fn on_datagram(&mut self, d: &Datagram, now: SimTime, out: &mut Vec<Datagram>) {
        self.log
            .borrow_mut()
            .push((self.inbound, now, d.payload_len()));
        self.inner.on_datagram(d, now, out);
    }
    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        self.inner.on_timer(now, out);
    }
    fn next_timer(&self) -> Option<SimTime> {
        self.inner.next_timer()
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Run `exchange` over `a` and `b` with both tapped; returns its result
/// and the run's arrivals.
fn tapped<R>(
    a: &mut dyn Endpoint,
    b: &mut dyn Endpoint,
    exchange: impl FnOnce(&mut dyn Endpoint, &mut dyn Endpoint) -> R,
) -> (R, Arrivals) {
    let log = RefCell::default();
    let result = exchange(
        &mut Tap {
            inner: a,
            inbound: Direction::BtoA,
            log: &log,
        },
        &mut Tap {
            inner: b,
            inbound: Direction::AtoB,
            log: &log,
        },
    );
    (result, log.into_inner())
}

// ------------------------------------------------------------ scenarios --

struct Scenario {
    name: &'static str,
    pinger: RetryPinger,
    echoer: DelayedEchoer,
    wire: Wire,
    limits: ExchangeLimits,
    seed: u64,
}

fn scenarios() -> Vec<Scenario> {
    let mut faulty = Wire::ideal(SimDuration::from_millis(5));
    faulty.fault_a_to_b = FaultInjector::dropping(0.3);
    let mut corrupting = FaultInjector::dropping(0.1);
    corrupting.corrupt_chance = 0.5;
    faulty.fault_b_to_a = corrupting;

    let mut tunneled = Wire::ideal(SimDuration::from_millis(8));
    tunneled.a_to_b = LinkModel::tunneled(SimDuration::from_millis(8), 40);

    vec![
        Scenario {
            name: "ideal ping-pong, no timers fire",
            pinger: RetryPinger::new(4, 100, 1_000, 2),
            echoer: DelayedEchoer::new(0),
            wire: Wire::ideal(SimDuration::from_millis(10)),
            limits: ExchangeLimits::default(),
            seed: 1,
        },
        Scenario {
            name: "lossy jittery wire with retransmissions",
            pinger: RetryPinger::new(6, 64, 40, 5),
            echoer: DelayedEchoer::new(3),
            wire: Wire::symmetric(LinkModel {
                latency: SimDuration::from_millis(15),
                jitter: SimDuration::from_millis(4),
                loss: 0.25,
                ..LinkModel::default()
            }),
            limits: ExchangeLimits::default(),
            seed: 2,
        },
        Scenario {
            name: "fault injectors on both directions",
            pinger: RetryPinger::new(5, 200, 30, 4),
            echoer: DelayedEchoer::new(1),
            wire: faulty,
            limits: ExchangeLimits::default(),
            seed: 3,
        },
        Scenario {
            name: "MTU drops through a tunnel",
            pinger: RetryPinger::new(3, 1_460, 25, 3),
            echoer: DelayedEchoer::new(0),
            wire: tunneled,
            limits: ExchangeLimits::default(),
            seed: 4,
        },
        Scenario {
            name: "deadline cuts the exchange short",
            pinger: RetryPinger::new(1_000, 50, 20, 1_000),
            echoer: DelayedEchoer::new(2),
            wire: Wire::ideal(SimDuration::from_millis(30)),
            limits: ExchangeLimits {
                deadline: SimTime::ZERO + SimDuration::from_millis(500),
                ..ExchangeLimits::default()
            },
            seed: 5,
        },
        Scenario {
            name: "event budget runaway guard",
            pinger: RetryPinger::new(u32::MAX, 20, 10, u32::MAX),
            echoer: DelayedEchoer::new(0),
            wire: Wire::ideal(SimDuration::from_micros(10)),
            limits: ExchangeLimits {
                max_events: 73,
                ..ExchangeLimits::default()
            },
            seed: 6,
        },
        Scenario {
            name: "nothing to do at all",
            pinger: RetryPinger::new(0, 0, 10, 1),
            echoer: DelayedEchoer::new(0),
            wire: Wire::ideal(SimDuration::from_millis(1)),
            limits: ExchangeLimits::default(),
            seed: 7,
        },
        // The tie-breaks, by name. Latency = PTO = think = 10 ms: ping 1
        // reaches B at 10 as A's PTO fires (delivery first, B arms 20; A
        // resends, arms 20), so at t = 20 ping 2 arrives, A's PTO is due and
        // B's think timer is due. Delivery, then A, then B puts A's third
        // ping on the wire before B's echoes of *both* queued pings, so at
        // t = 30 it reaches B ahead of the echoes reaching A; a timer ahead
        // of the delivery echoes one ping only, B ahead of A echoes before
        // the ping and the echoes arrive first.
        Scenario {
            name: "delivery, timer A and timer B due at one timestamp",
            pinger: RetryPinger::new(2, 32, 10, 4),
            echoer: DelayedEchoer::new(10),
            wire: Wire::ideal(SimDuration::from_millis(10)),
            limits: ExchangeLimits::default(),
            seed: 8,
        },
        // The echo lands at 2 * 10 + 5 = 25 ms, the instant A's PTO is due:
        // the delivery cancels the timer, which must not fire — a timer
        // ahead of the delivery shows as a retransmitted ping at t = 25.
        Scenario {
            name: "a delivery disarms the timer due at the same timestamp",
            pinger: RetryPinger::new(1, 48, 25, 3),
            echoer: DelayedEchoer::new(5),
            wire: Wire::ideal(SimDuration::from_millis(10)),
            limits: ExchangeLimits::default(),
            seed: 9,
        },
        // A zero PTO re-arms to the instant it fired at: `next_timer` reads
        // the same before and after `on_timer`, the timer fires again at
        // t = 0 and time never reaches the first delivery at 1 ms. Only the
        // event budget ends it, and that is never quiescence.
        Scenario {
            name: "on_timer leaves the deadline unchanged until max_events",
            pinger: RetryPinger::new(1, 16, 0, u32::MAX),
            echoer: DelayedEchoer::new(0),
            wire: Wire::ideal(SimDuration::from_millis(1)),
            limits: ExchangeLimits {
                max_events: 41,
                ..ExchangeLimits::default()
            },
            seed: 10,
        },
        // Ping 1 arms 200 ms; its echo at 24 ms re-arms A to 24 + 7 = 31 ms,
        // earlier than the deadline it replaces. The second echo is not due
        // before 48 ms, so the 7 ms PTO fires at 31, 38 and 45 (each
        // retransmission is echoed too) and nothing happens at 200.
        Scenario {
            name: "a delivery re-arms the timer to an earlier deadline",
            pinger: RetryPinger::new(2, 24, 200, 4).with_pto_after_echo(7),
            echoer: DelayedEchoer::new(4),
            wire: Wire::ideal(SimDuration::from_millis(10)),
            limits: ExchangeLimits::default(),
            seed: 11,
        },
    ]
}

#[test]
fn wrapper_reproduces_the_pre_refactor_loop_bit_for_bit() {
    for scenario in scenarios() {
        let mut ref_pinger = scenario.pinger.clone();
        let mut ref_echoer = scenario.echoer.clone();
        let mut ref_wire = scenario.wire.clone();
        let mut ref_rng = SimRng::new(scenario.seed);
        let (reference, ref_arrivals) = tapped(&mut ref_pinger, &mut ref_echoer, |a, b| {
            reference_run_exchange(a, b, &mut ref_wire, scenario.limits, &mut ref_rng)
        });

        let mut pinger = scenario.pinger.clone();
        let mut echoer = scenario.echoer.clone();
        let mut wire = scenario.wire.clone();
        let mut rng = SimRng::new(scenario.seed);
        let (outcome, arrivals) = tapped(&mut pinger, &mut echoer, |a, b| {
            run_exchange(a, b, &mut wire, scenario.limits, &mut rng)
        });

        assert_eq!(arrivals, ref_arrivals, "arrivals: {}", scenario.name);
        assert_eq!(
            (outcome.a_to_b, outcome.b_to_a, outcome.first_flight),
            tally(&reference.trace),
            "tally: {}",
            scenario.name
        );
        assert_eq!(
            outcome.finished_at, reference.finished_at,
            "finished_at: {}",
            scenario.name
        );
        assert_eq!(
            outcome.quiesced, reference.quiesced,
            "quiesced: {}",
            scenario.name
        );
        // The caller-visible side effects match too: RNG stream position…
        assert_eq!(
            rng.next_u64(),
            ref_rng.next_u64(),
            "rng stream: {}",
            scenario.name
        );
        // …endpoint state…
        assert_eq!(
            pinger.remaining, ref_pinger.remaining,
            "pinger state: {}",
            scenario.name
        );
        // …and fault counters accumulated on the caller's wire.
        assert_eq!(
            wire.fault_a_to_b.drops() + wire.fault_b_to_a.drops(),
            ref_wire.fault_a_to_b.drops() + ref_wire.fault_b_to_a.drops(),
            "fault drops: {}",
            scenario.name
        );
        assert_eq!(
            wire.fault_b_to_a.corruptions(),
            ref_wire.fault_b_to_a.corruptions(),
            "fault corruptions: {}",
            scenario.name
        );
    }
}

#[test]
fn wrapper_equivalence_holds_across_many_seeds() {
    // A randomised sweep over the nastiest scenario shape: loss + jitter +
    // faults + timers, 64 different RNG streams.
    for seed in 0..64u64 {
        let mut wire = Wire::symmetric(LinkModel {
            latency: SimDuration::from_millis(1 + seed % 23),
            jitter: SimDuration::from_millis(seed % 7),
            loss: (seed % 5) as f64 * 0.08,
            ..LinkModel::default()
        });
        wire.fault_a_to_b = FaultInjector::dropping((seed % 3) as f64 * 0.1);

        let make_pinger = || RetryPinger::new(3 + (seed % 5) as u32, 60, 15 + seed % 30, 4);
        let make_echoer = || DelayedEchoer::new(seed % 4);

        let mut ref_wire = wire.clone();
        let mut ref_rng = SimRng::new(seed.wrapping_mul(0x9E37));
        let (reference, ref_arrivals) = tapped(&mut make_pinger(), &mut make_echoer(), |a, b| {
            reference_run_exchange(a, b, &mut ref_wire, ExchangeLimits::default(), &mut ref_rng)
        });

        let mut rng = SimRng::new(seed.wrapping_mul(0x9E37));
        let (outcome, arrivals) = tapped(&mut make_pinger(), &mut make_echoer(), |a, b| {
            run_exchange(a, b, &mut wire, ExchangeLimits::default(), &mut rng)
        });

        assert_eq!(arrivals, ref_arrivals, "seed {seed}");
        assert_eq!(
            (outcome.a_to_b, outcome.b_to_a, outcome.first_flight),
            tally(&reference.trace),
            "seed {seed}"
        );
        assert_eq!(outcome.finished_at, reference.finished_at, "seed {seed}");
        assert_eq!(outcome.quiesced, reference.quiesced, "seed {seed}");
        assert_eq!(rng.next_u64(), ref_rng.next_u64(), "seed {seed}");
    }
}
