//! [`SimNet`]: a discrete-event network core driving N endpoint pairs,
//! one pair to completion at a time.
//!
//! A *session* is a pair of [`Endpoint`] state machines joined by its own
//! [`Wire`], with its own [`SimRng`] stream, timers, event queue, trace and
//! virtual timeline starting at zero. Sessions share nothing, so there is
//! no order between them to keep: [`SimNet::run`] takes them in
//! `add_session` order and drives each until it quiesces or hits its
//! limits, off a queue that only ever holds that session's handful of
//! in-flight datagrams and timers. A session's [`ExchangeOutcome`] is
//! therefore the same whether it runs alone or as one of ten thousand, and
//! the working set of a batch is one session's, whatever the batch size.
//! [`crate::event::run_exchange`] is the one-session wrapper.
//!
//! Within a session, events fire in `(timestamp, deliveries-before-timers,
//! send sequence)` order — exactly the order of the two-endpoint loop this
//! scheduler replaced, which the equivalence test in `tests/` pins.
//!
//! ## Timers
//!
//! Endpoint timers are re-polled after every event the endpoint handles.
//! Rather than rebuilding a heap entry per poll, a session keeps one *live*
//! timer event per endpoint side and lazily discards superseded entries: a
//! queued timer carries the epoch of its side's timer slot at push time,
//! and a pop with a stale epoch is skipped. This preserves the two-endpoint
//! loop's semantics, where `next_timer` was consulted fresh on every
//! iteration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
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
/// batch-flushed once per [`SimNet::run`] so the per-event hot path never
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
                "SimNet events processed (deliveries and timer fires)",
            ),
            timer_fires: registry.counter(
                "quicert_netsim_timer_fires_total",
                "SimNet timer events fired",
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

/// Handle to one session on a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// The session's index, in `add_session` order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which endpoint of a session a timer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

impl Side {
    fn idx(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// What a queued event does when it fires.
enum EventKind {
    /// A datagram arriving at the session's far endpoint.
    Delivery {
        seq: u64,
        direction: Direction,
        dgram: Datagram,
    },
    /// A timer callback on one endpoint; `epoch` validates it against the
    /// session's current timer slot (stale epochs are discarded).
    Timer { side: Side, epoch: u64 },
}

struct QueuedEvent {
    at: SimTime,
    kind: EventKind,
}

impl QueuedEvent {
    /// Total ordering key. At one timestamp, deliveries fire before timers
    /// (an endpoint sees input before its co-scheduled timeout, matching
    /// real stacks), deliveries order by send sequence, and timer A fires
    /// before timer B — exactly the tie-breaks of the original
    /// two-endpoint loop.
    fn key(&self) -> (SimTime, u8, u64, u64) {
        match &self.kind {
            EventKind::Delivery { seq, .. } => (self.at, 0, *seq, 0),
            EventKind::Timer { side, epoch } => (self.at, 1, side.idx() as u64, *epoch),
        }
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One endpoint pair and all of its private state.
struct Session<'e> {
    a: Box<dyn Endpoint + 'e>,
    b: Box<dyn Endpoint + 'e>,
    wire: Wire,
    limits: ExchangeLimits,
    rng: SimRng,
    /// This session's pending deliveries and timers.
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    trace: Vec<TraceEvent>,
    /// Simulated time of the session's last processed event.
    now: SimTime,
    /// Per-session datagram sequence counter (delivery tie-break).
    seq: u64,
    /// Processed events, checked against `limits.max_events`.
    events: usize,
    /// Deliveries currently queued for this session.
    pending_deliveries: usize,
    /// Last `next_timer()` answer pushed per side; `None` = no live event.
    timer_target: [Option<SimTime>; 2],
    /// Epoch of each side's timer slot; queued timers with older epochs are
    /// stale and skipped on pop.
    timer_epoch: [u64; 2],
    /// Fault-injector counters (drops, corruptions, duplications) at
    /// session creation, so outcomes report the faults of *this* exchange
    /// even on a reused wire.
    faults_before: (u64, u64, u64),
    /// Whether this session's fault deltas were already flushed to the
    /// global metrics registry (guards against double-counting if `run` is
    /// called again).
    metrics_flushed: bool,
    finished: bool,
    quiesced: bool,
}

impl Session<'_> {
    fn both_done(&self) -> bool {
        self.a.is_done() && self.b.is_done()
    }

    fn fault_drops(&self) -> u64 {
        self.wire.fault_a_to_b.drops() + self.wire.fault_b_to_a.drops() - self.faults_before.0
    }

    fn fault_corruptions(&self) -> u64 {
        self.wire.fault_a_to_b.corruptions() + self.wire.fault_b_to_a.corruptions()
            - self.faults_before.1
    }

    fn fault_duplications(&self) -> u64 {
        self.wire.fault_a_to_b.duplications() + self.wire.fault_b_to_a.duplications()
            - self.faults_before.2
    }
}

/// A batch of independent two-endpoint sessions, run one at a time.
///
/// ```
/// use quicert_netsim::{SimNet, SimRng, Wire, ExchangeLimits, SimDuration};
/// # use quicert_netsim::{Datagram, Endpoint, SimTime};
/// # struct Quiet;
/// # impl Endpoint for Quiet {
/// #     fn on_datagram(&mut self, _: &Datagram, _: SimTime, _: &mut Vec<Datagram>) {}
/// #     fn on_timer(&mut self, _: SimTime, _: &mut Vec<Datagram>) {}
/// #     fn next_timer(&self) -> Option<SimTime> { None }
/// #     fn is_done(&self) -> bool { true }
/// # }
/// let mut net = SimNet::new();
/// let id = net.add_session(
///     Box::new(Quiet),
///     Box::new(Quiet),
///     Wire::ideal(SimDuration::from_millis(10)),
///     ExchangeLimits::default(),
///     SimRng::new(1),
/// );
/// net.run();
/// assert!(net.take_outcome(id).quiesced);
/// ```
#[derive(Default)]
pub struct SimNet<'e> {
    sessions: Vec<Session<'e>>,
    /// Shared scratch buffer endpoints write their transmissions into.
    outbox: Vec<Datagram>,
}

impl fmt::Debug for SimNet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl<'e> SimNet<'e> {
    /// An empty network.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// An empty network with room for `sessions` endpoint pairs.
    pub fn with_capacity(sessions: usize) -> Self {
        SimNet {
            sessions: Vec::with_capacity(sessions),
            outbox: Vec::new(),
        }
    }

    /// Number of sessions added so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the network has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Add one session: endpoint `a` initiates toward endpoint `b` over
    /// `wire`. Both `start` hooks run immediately at `SimTime::ZERO` — every
    /// session lives on its own virtual timeline starting at zero,
    /// regardless of when it is added.
    pub fn add_session(
        &mut self,
        a: Box<dyn Endpoint + 'e>,
        b: Box<dyn Endpoint + 'e>,
        wire: Wire,
        limits: ExchangeLimits,
        rng: SimRng,
    ) -> SessionId {
        let faults_before = (
            wire.fault_a_to_b.drops() + wire.fault_b_to_a.drops(),
            wire.fault_a_to_b.corruptions() + wire.fault_b_to_a.corruptions(),
            wire.fault_a_to_b.duplications() + wire.fault_b_to_a.duplications(),
        );
        let mut sess = Session {
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
            pending_deliveries: 0,
            timer_target: [None, None],
            timer_epoch: [0, 0],
            faults_before,
            metrics_flushed: false,
            finished: false,
            quiesced: false,
        };
        sess.a.start(SimTime::ZERO, &mut self.outbox);
        sess.enqueue_outbox(Direction::AtoB, SimTime::ZERO, &mut self.outbox);
        sess.b.start(SimTime::ZERO, &mut self.outbox);
        sess.enqueue_outbox(Direction::BtoA, SimTime::ZERO, &mut self.outbox);
        sess.sync_timers_and_check();
        self.sessions.push(sess);
        SessionId(self.sessions.len() - 1)
    }

    /// Whether a session has finished (quiesced or hit a limit).
    pub fn is_finished(&self, id: SessionId) -> bool {
        self.sessions[id.0].finished
    }

    /// The session's wire (fault-injector counters live here).
    pub fn wire(&self, id: SessionId) -> &Wire {
        &self.sessions[id.0].wire
    }

    /// Drive every session, one after the other, until it quiesces or hits
    /// its limits.
    pub fn run(&mut self) {
        let mut events_processed = 0u64;
        let mut timer_events = 0u64;
        let (mut drops, mut corruptions, mut duplications) = (0u64, 0u64, 0u64);
        for sess in &mut self.sessions {
            let (events, timers) = sess.run(&mut self.outbox);
            events_processed += events;
            timer_events += timers;
            if !sess.metrics_flushed {
                drops += sess.fault_drops();
                corruptions += sess.fault_corruptions();
                duplications += sess.fault_duplications();
                sess.metrics_flushed = true;
            }
        }
        // One batched flush to the global registry per run: the per-event
        // path only touches locals.
        let metrics = net_metrics();
        metrics.events.add(events_processed);
        metrics.timer_fires.add(timer_events);
        metrics.drops.add(drops);
        metrics.corruptions.add(corruptions);
        metrics.duplications.add(duplications);
    }

    /// Take a finished session's outcome (trace moves out; a second take
    /// returns an empty trace).
    pub fn take_outcome(&mut self, id: SessionId) -> ExchangeOutcome {
        let sess = &mut self.sessions[id.0];
        ExchangeOutcome {
            trace: std::mem::take(&mut sess.trace),
            finished_at: sess.now,
            quiesced: sess.quiesced,
            fault_drops: sess.fault_drops(),
            fault_corruptions: sess.fault_corruptions(),
            fault_duplications: sess.fault_duplications(),
        }
    }

    /// Take a finished session's outcome together with its wire and RNG —
    /// what the [`crate::event::run_exchange`] wrapper writes back to its
    /// caller so counters and RNG streams advance exactly as before.
    pub fn take_parts(&mut self, id: SessionId) -> (ExchangeOutcome, Wire, SimRng) {
        let outcome = self.take_outcome(id);
        let sess = &mut self.sessions[id.0];
        let wire = std::mem::take(&mut sess.wire);
        let rng = std::mem::replace(&mut sess.rng, SimRng::new(0));
        (outcome, wire, rng)
    }

    /// Consume the network, returning every session's outcome in
    /// `add_session` order.
    pub fn into_outcomes(mut self) -> Vec<ExchangeOutcome> {
        (0..self.sessions.len())
            .map(|i| self.take_outcome(SessionId(i)))
            .collect()
    }
}

impl Session<'_> {
    /// Drive this session until it quiesces or hits its limits; returns
    /// the events and, of those, the timer events it processed.
    fn run(&mut self, outbox: &mut Vec<Datagram>) -> (u64, u64) {
        let (mut events, mut timers) = (0u64, 0u64);
        while !self.finished {
            let Some(Reverse(ev)) = self.queue.pop() else {
                debug_assert!(false, "event queue drained with the session unfinished");
                break;
            };
            if let EventKind::Timer { side, epoch } = ev.kind {
                if self.timer_epoch[side.idx()] != epoch {
                    continue;
                }
            }
            // The first live event is the session's earliest pending
            // activity; past the deadline the session stops un-advanced,
            // exactly like the two-endpoint loop.
            if ev.at > self.limits.deadline {
                self.quiesced = self.both_done();
                self.finished = true;
                break;
            }
            self.now = ev.at;
            self.events += 1;
            events += 1;
            let direction = match ev.kind {
                EventKind::Delivery {
                    direction, dgram, ..
                } => {
                    self.pending_deliveries -= 1;
                    match direction {
                        Direction::AtoB => self.b.on_datagram(&dgram, ev.at, outbox),
                        Direction::BtoA => self.a.on_datagram(&dgram, ev.at, outbox),
                    }
                    direction.flip()
                }
                EventKind::Timer { side, .. } => {
                    timers += 1;
                    // This slot's event is consumed: clear the target so a
                    // re-armed deadline (even an identical one) gets a
                    // fresh queue entry.
                    self.timer_target[side.idx()] = None;
                    self.timer_epoch[side.idx()] += 1;
                    match side {
                        Side::A => {
                            self.a.on_timer(ev.at, outbox);
                            Direction::AtoB
                        }
                        Side::B => {
                            self.b.on_timer(ev.at, outbox);
                            Direction::BtoA
                        }
                    }
                }
            };
            self.enqueue_outbox(direction, ev.at, outbox);
            self.sync_timers_and_check();
        }
        // Whatever is still queued (a limit was hit) will never fire.
        self.queue = BinaryHeap::new();
        (events, timers)
    }

    /// Offer every datagram in `outbox` to the wire: apply the fault
    /// injector, then the link model, queueing deliveries and recording one
    /// [`TraceEvent`] per datagram. RNG draw order matches the pre-`SimNet`
    /// loop exactly (fault first, then link).
    fn enqueue_outbox(&mut self, direction: Direction, now: SimTime, outbox: &mut Vec<Datagram>) {
        for mut dgram in outbox.drain(..) {
            dgram.sent_at = now;
            let fault = match direction {
                Direction::AtoB => &mut self.wire.fault_a_to_b,
                Direction::BtoA => &mut self.wire.fault_b_to_a,
            };
            let payload_len = dgram.payload_len();

            // RNG draw order: fault first, then (optional) duplication, then
            // one link draw per copy — injectors with every chance at zero
            // leave the stream untouched, exactly as before.
            let survived = fault.apply(&mut self.rng, dgram);
            let duplicate = match &survived {
                Some(dgram) => fault.maybe_duplicate(&mut self.rng).then(|| dgram.clone()),
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
        match link.deliver(&mut self.rng, &dgram, now) {
            Delivery::Arrives(at) => {
                self.seq += 1;
                self.queue.push(Reverse(QueuedEvent {
                    at,
                    kind: EventKind::Delivery {
                        seq: self.seq,
                        direction,
                        dgram,
                    },
                }));
                self.pending_deliveries += 1;
                Ok(at)
            }
            Delivery::LostRandom => Err(DropReason::Loss),
            Delivery::LostMtu(size) => Err(DropReason::Mtu(size)),
        }
    }

    /// Re-poll both endpoints' timers (pushing fresh events for changed
    /// deadlines) and apply the session termination rules: the event
    /// budget first — exhausting `max_events` reports `quiesced: false`
    /// exactly like the old loop's runaway guard — then quiescence when
    /// nothing is in flight and no timer is armed.
    fn sync_timers_and_check(&mut self) {
        for (i, side) in [Side::A, Side::B].into_iter().enumerate() {
            let next = match side {
                Side::A => self.a.next_timer(),
                Side::B => self.b.next_timer(),
            };
            if self.timer_target[i] != next {
                self.timer_target[i] = next;
                self.timer_epoch[i] += 1;
                if let Some(at) = next {
                    self.queue.push(Reverse(QueuedEvent {
                        at,
                        kind: EventKind::Timer {
                            side,
                            epoch: self.timer_epoch[i],
                        },
                    }));
                }
            }
        }
        if self.events >= self.limits.max_events {
            self.quiesced = false;
            self.finished = true;
        } else if self.pending_deliveries == 0 && self.timer_target == [None, None] {
            self.quiesced = self.both_done();
            self.finished = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use crate::link::LinkModel;
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

    fn lossy_wire(latency_ms: u64, loss: f64, jitter_ms: u64) -> Wire {
        Wire::symmetric(LinkModel {
            latency: SimDuration::from_millis(latency_ms),
            jitter: SimDuration::from_millis(jitter_ms),
            loss,
            ..LinkModel::default()
        })
    }

    #[test]
    fn single_session_ping_pong_quiesces() {
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Pinger {
                remaining: 3,
                payload: 100,
            }),
            Box::new(Echoer),
            Wire::ideal(SimDuration::from_millis(10)),
            ExchangeLimits::default(),
            SimRng::new(1),
        );
        net.run();
        let out = net.take_outcome(id);
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
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Burst { n: 8 }),
            Box::new(&mut recorder),
            Wire::ideal(SimDuration::from_millis(5)),
            ExchangeLimits::default(),
            SimRng::new(2),
        );
        net.run();
        assert!(net.take_outcome(id).quiesced);
        drop(net);
        assert_eq!(recorder.seen, (0..8).map(|i| 10 + i).collect::<Vec<_>>());
    }

    #[test]
    fn batched_sessions_match_solo_runs_bit_for_bit() {
        // 12 sessions with jittery, lossy wires and distinct RNG streams:
        // the outcome of each must be identical run alone or batched.
        let seeds: Vec<u64> = (0..12).collect();
        let solo: Vec<ExchangeOutcome> = seeds
            .iter()
            .map(|&seed| {
                let mut net = SimNet::new();
                let id = net.add_session(
                    Box::new(Pinger {
                        remaining: 5,
                        payload: 50 + seed as usize,
                    }),
                    Box::new(Echoer),
                    lossy_wire(1 + seed % 7, 0.2, 3),
                    ExchangeLimits::default(),
                    SimRng::new(seed ^ 0xBA7C),
                );
                net.run();
                net.take_outcome(id)
            })
            .collect();

        let mut net = SimNet::with_capacity(seeds.len());
        let ids: Vec<SessionId> = seeds
            .iter()
            .map(|&seed| {
                net.add_session(
                    Box::new(Pinger {
                        remaining: 5,
                        payload: 50 + seed as usize,
                    }),
                    Box::new(Echoer),
                    lossy_wire(1 + seed % 7, 0.2, 3),
                    ExchangeLimits::default(),
                    SimRng::new(seed ^ 0xBA7C),
                )
            })
            .collect();
        net.run();
        for (id, reference) in ids.into_iter().zip(&solo) {
            let batched = net.take_outcome(id);
            assert_eq!(batched.trace, reference.trace, "session {}", id.index());
            assert_eq!(batched.finished_at, reference.finished_at);
            assert_eq!(batched.quiesced, reference.quiesced);
        }
    }

    #[test]
    fn outcome_surfaces_fault_counters() {
        let mut wire = Wire::ideal(SimDuration::from_millis(1));
        wire.fault_a_to_b = FaultInjector::dropping(1.0);
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Pinger {
                remaining: 1,
                payload: 64,
            }),
            Box::new(Echoer),
            wire,
            ExchangeLimits::default(),
            SimRng::new(3),
        );
        net.run();
        let out = net.take_outcome(id);
        assert!(!out.quiesced);
        assert_eq!(out.fault_drops, 1);
        assert_eq!(out.fault_corruptions, 0);
        assert_eq!(out.fault_duplications, 0);
    }

    #[test]
    fn duplicating_injector_delivers_every_datagram_twice() {
        let mut recorder = Recorder::default();
        let mut wire = Wire::ideal(SimDuration::from_millis(5));
        wire.fault_a_to_b = FaultInjector::duplicating(1.0);
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Burst { n: 4 }),
            Box::new(&mut recorder),
            wire,
            ExchangeLimits::default(),
            SimRng::new(7),
        );
        net.run();
        let out = net.take_outcome(id);
        assert!(out.quiesced);
        // One trace event per copy, no drops, and the duplication count
        // surfaces on the outcome itself (not just the wire).
        assert_eq!(out.datagrams(Direction::AtoB), 8);
        assert_eq!(out.fault_drops, 0);
        assert_eq!(out.fault_duplications, 4);
        assert_eq!(net.wire(id).fault_a_to_b.duplications(), 4);
        drop(net);
        // Each payload arrives twice, copies adjacent in send order.
        assert_eq!(recorder.seen, vec![10, 10, 11, 11, 12, 12, 13, 13]);
    }

    #[test]
    fn max_events_zero_finishes_immediately_unquiesced() {
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Pinger {
                remaining: 1,
                payload: 10,
            }),
            Box::new(Echoer),
            Wire::ideal(SimDuration::from_millis(1)),
            ExchangeLimits {
                max_events: 0,
                ..ExchangeLimits::default()
            },
            SimRng::new(4),
        );
        assert!(net.is_finished(id));
        net.run();
        assert!(!net.take_outcome(id).quiesced);
    }

    #[test]
    fn sessions_added_with_nothing_to_do_quiesce_at_zero() {
        let mut net = SimNet::new();
        let id = net.add_session(
            Box::new(Pinger {
                remaining: 0,
                payload: 0,
            }),
            Box::new(Echoer),
            Wire::ideal(SimDuration::from_millis(1)),
            ExchangeLimits::default(),
            SimRng::new(5),
        );
        assert!(net.is_finished(id));
        net.run();
        let out = net.take_outcome(id);
        assert!(out.quiesced);
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn into_outcomes_returns_sessions_in_add_order() {
        let mut net = SimNet::new();
        for i in 0..3u32 {
            net.add_session(
                Box::new(Pinger {
                    remaining: i,
                    payload: 10,
                }),
                Box::new(Echoer),
                Wire::ideal(SimDuration::from_millis(1)),
                ExchangeLimits::default(),
                SimRng::new(i as u64),
            );
        }
        net.run();
        let outcomes = net.into_outcomes();
        assert_eq!(outcomes.len(), 3);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(out.datagrams(Direction::AtoB), i);
        }
    }
}
