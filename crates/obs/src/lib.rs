//! Campaign telemetry: lock-free metric primitives, a deterministic
//! Prometheus-text registry, and handshake phase timelines.
//!
//! The crate is a dependency *leaf* — every other crate in the workspace
//! (netsim, pki, quic, scanner, core, bench) can instrument itself against
//! it without cycles. Three primitives cover the stack's needs:
//!
//! * [`Counter`] — a monotonically increasing `u64` (relaxed atomics);
//! * [`Gauge`] — an `f64` cell with atomic set/add (CAS on the bit
//!   pattern), for wall-clock accumulators and last-value readings;
//! * [`Histogram`] — fixed equal-width bins with dedicated underflow and
//!   overflow buckets, mirroring the `HistogramSketch` bin discipline of
//!   the analysis crate so exposition and report sketches bucket alike.
//!
//! Handles live behind a [`MetricsRegistry`]: registration takes a mutex
//! once and returns an `Arc` handle; the hot path then touches only
//! relaxed atomics. [`MetricsRegistry::render_prometheus`] walks the
//! name-sorted map, so exposition is deterministic — the integration
//! suite pins a golden snapshot of it.
//!
//! [`HandshakeTimeline`] records the per-phase timestamps of one simulated
//! QUIC handshake (Initial sent, amplification stall begin/end,
//! certificate flight complete, handshake done) as plain nanosecond
//! offsets, keeping this crate free of simulator types. Its
//! [`phases`](HandshakeTimeline::phases) derivation clamps cumulatively,
//! so the four phase durations always sum exactly to the total handshake
//! time — the property the phase-duration histograms rely on.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing event counter.
///
/// All operations are relaxed atomics: increments never synchronise with
/// each other or with readers, which is exactly right for statistics that
/// are only *summed* — a render may observe a value mid-burst, but every
/// increment lands.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` cell with atomic set and add.
///
/// The value is stored as its IEEE-754 bit pattern in an `AtomicU64`;
/// [`Gauge::add`] runs a compare-and-swap loop, so concurrent adds never
/// lose updates. Used both for last-value readings (distinct memo classes)
/// and floating-point accumulators (wall-clock fold seconds).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` to the value (lock-free CAS loop).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bin histogram over per-bin relaxed atomics.
///
/// The bin discipline mirrors the analysis crate's `HistogramSketch`
/// exactly: `bins` equal-width buckets spanning `[lo, hi)`, a dedicated
/// underflow bucket for `x < lo`, and an overflow bucket for everything at
/// or past `hi`. NaN observations are dropped. `count` and `sum` are
/// tracked exactly (the sum via the same CAS loop as [`Gauge::add`]).
///
/// Counters may tear *between* fields under concurrent observation — a
/// render can see a count one ahead of the bins — which is acceptable for
/// statistics and avoided entirely in this workspace by rendering only
/// after the instrumented run completes.
#[derive(Debug)]
pub struct Histogram {
    lo: f64,
    bin_width: f64,
    bins: Box<[AtomicU64]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// An empty histogram with `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// When `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "histogram needs hi > lo");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            bin_width: (hi - lo) / bins as f64,
            bins: (0..bins).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Record one observation. NaN is dropped.
    pub fn observe(&self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if x < self.lo {
            self.underflow.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = ((x - self.lo) / self.bin_width) as usize;
        match self.bins.get(idx) {
            Some(bin) => bin.fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Lower edge of the first bin.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow.load(Ordering::Relaxed)
    }

    /// Observations at or past the last bin's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Per-bin counts, in bin order.
    pub(crate) fn bin_counts(&self) -> Vec<u64> {
        self.bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// One registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct RegistryEntry {
    help: String,
    metric: Metric,
}

/// A name-sorted registry of metric handles with deterministic text
/// exposition.
///
/// Registration (`counter`, `gauge`, `histogram` and their `labeled_*`
/// variants) takes the registry mutex once and hands back an `Arc` handle;
/// re-registering the same `(name, labels)` pair returns the *same*
/// handle, so call sites can register lazily without coordination.
/// Handles stay valid for the registry's lifetime and update via relaxed
/// atomics — the hot path never touches the mutex.
///
/// Keys are `(metric name, rendered label pairs)`; the backing `BTreeMap`
/// iterates in sorted order, which makes [`render_prometheus`] and
/// [`render_json`] byte-deterministic for a given sequence of recorded
/// values.
///
/// [`render_prometheus`]: MetricsRegistry::render_prometheus
/// [`render_json`]: MetricsRegistry::render_json
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<(String, String), RegistryEntry>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

/// Escape a string for use inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON-safe number (non-finite values become `0`,
/// which never arises for the workspace's metrics but keeps the output
/// parseable no matter what a caller records).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry shared by crates without a natural owner
    /// for their counters (netsim event loops, PKI world generation).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], help: &str, make: Metric) -> Metric {
        let key = (name.to_string(), render_labels(labels));
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = inner.entry(key).or_insert_with(|| RegistryEntry {
            help: help.to_string(),
            metric: make,
        });
        entry.metric.clone()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.labeled_counter(name, &[], help)
    }

    /// Register (or look up) a counter with the given label pairs.
    ///
    /// # Panics
    /// When `(name, labels)` is already registered as a different kind.
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.register(
            name,
            labels,
            help,
            Metric::Counter(Arc::new(Counter::new())),
        ) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.labeled_gauge(name, &[], help)
    }

    /// Register (or look up) a gauge with the given label pairs.
    ///
    /// # Panics
    /// When `(name, labels)` is already registered as a different kind.
    pub fn labeled_gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.register(name, labels, help, Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Register (or look up) a labeled fixed-bin histogram over `[lo, hi)`.
    ///
    /// The bin layout of the *first* registration wins; later lookups of
    /// the same key return the existing handle unchanged.
    ///
    /// # Panics
    /// When `(name, labels)` is already registered as a different kind.
    pub fn labeled_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Arc<Histogram> {
        match self.register(
            name,
            labels,
            help,
            Metric::Histogram(Arc::new(Histogram::new(lo, hi, bins))),
        ) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Render every registered metric in Prometheus text exposition
    /// format, sorted by `(name, labels)` — byte-deterministic for a given
    /// sequence of recorded values.
    ///
    /// Histograms render cumulative `_bucket{le=...}` series (the
    /// underflow bucket becomes the first `le`, the overflow lands in
    /// `le="+Inf"`), plus exact `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, labels), entry) in inner.iter() {
            if last_name != Some(name.as_str()) {
                out.push_str(&format!("# HELP {name} {}\n", entry.help));
                out.push_str(&format!("# TYPE {name} {}\n", entry.metric.kind()));
                last_name = Some(name.as_str());
            }
            let with = |extra: &str| -> String {
                match (labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{labels}}}"),
                    (false, false) => format!("{{{labels},{extra}}}"),
                }
            };
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name}{} {}\n", with(""), c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name}{} {}\n", with(""), json_f64(g.get())));
                }
                Metric::Histogram(h) => {
                    let mut cumulative = h.underflow();
                    out.push_str(&format!(
                        "{name}_bucket{} {cumulative}\n",
                        with(&format!("le=\"{}\"", h.lo()))
                    ));
                    for (i, bin) in h.bin_counts().into_iter().enumerate() {
                        cumulative += bin;
                        let le = h.lo() + h.bin_width() * (i + 1) as f64;
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            with(&format!("le=\"{le}\""))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {}\n",
                        with("le=\"+Inf\""),
                        h.count()
                    ));
                    out.push_str(&format!("{name}_sum{} {}\n", with(""), json_f64(h.sum())));
                    out.push_str(&format!("{name}_count{} {}\n", with(""), h.count()));
                }
            }
        }
        out
    }

    /// Render every registered metric as one compact JSON object mapping
    /// `"name{labels}"` to its value: counters as integers, gauges as
    /// numbers, histograms as `{"count", "sum", "underflow", "overflow",
    /// "bins"}` objects. Keys are sorted, so the output is deterministic
    /// for a given sequence of recorded values.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("{");
        for (i, ((name, labels), entry)) in inner.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            out.push_str(&format!("\"{}\":", json_escape(&key)));
            match &entry.metric {
                Metric::Counter(c) => out.push_str(&format!("{}", c.get())),
                Metric::Gauge(g) => out.push_str(&json_f64(g.get())),
                Metric::Histogram(h) => {
                    let bins: Vec<String> =
                        h.bin_counts().into_iter().map(|b| b.to_string()).collect();
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"underflow\":{},\"overflow\":{},\"bins\":[{}]}}",
                        h.count(),
                        json_f64(h.sum()),
                        h.underflow(),
                        h.overflow(),
                        bins.join(",")
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// The four phases a handshake's wall time divides into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client Initial sent until the server first stalls on its
    /// amplification budget (or, if it never stalls, until the certificate
    /// flight completes).
    InitialFlight,
    /// Server blocked on the anti-amplification limit, waiting for the
    /// client's address-validating datagram.
    AmplificationStall,
    /// Remaining certificate/handshake flight after the stall cleared,
    /// until the client has the full certificate chain verified.
    CertificateFlight,
    /// Finished exchange: client Finished until handshake completion.
    Finish,
}

impl Phase {
    /// Every phase, in handshake order.
    pub const ALL: [Phase; 4] = [
        Phase::InitialFlight,
        Phase::AmplificationStall,
        Phase::CertificateFlight,
        Phase::Finish,
    ];

    /// Stable snake_case label for metric label values.
    pub fn label(self) -> &'static str {
        match self {
            Phase::InitialFlight => "initial_flight",
            Phase::AmplificationStall => "amplification_stall",
            Phase::CertificateFlight => "certificate_flight",
            Phase::Finish => "finish",
        }
    }

    /// Index into [`Phase::ALL`].
    pub fn index(self) -> usize {
        match self {
            Phase::InitialFlight => 0,
            Phase::AmplificationStall => 1,
            Phase::CertificateFlight => 2,
            Phase::Finish => 3,
        }
    }
}

/// Per-phase timestamps of one simulated handshake, as nanosecond offsets
/// from session start.
///
/// Produced by the QUIC handshake runner from endpoint state; stored as
/// plain integers so this crate stays a dependency leaf. Any timestamp may
/// be absent (a 1-RTT handshake never stalls; an unreachable service never
/// completes) — [`HandshakeTimeline::phases`] clamps the present ones into
/// a consistent, exactly-summing partition of the total time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandshakeTimeline {
    /// When the client's first Initial left (always 0 in this simulator:
    /// every session starts its own timeline at zero).
    pub initial_sent_ns: u64,
    /// When the server first blocked on its anti-amplification budget.
    pub stall_begin_ns: Option<u64>,
    /// When the server resumed sending after a stall.
    pub stall_end_ns: Option<u64>,
    /// When the client had the full certificate flight verified.
    pub cert_flight_ns: Option<u64>,
    /// When the client completed the handshake.
    pub done_ns: Option<u64>,
}

impl HandshakeTimeline {
    /// Split a completed handshake's duration into the four [`Phase`]s.
    ///
    /// Returns `None` for incomplete handshakes. Boundaries are clamped
    /// cumulatively (`initial_sent <= stall_begin <= stall_end <=
    /// cert_flight <= done`, with absent timestamps collapsing to the
    /// previous boundary or to `done`), so the returned durations always
    /// sum to exactly the total time, `done_ns - initial_sent_ns`.
    pub fn phases(&self) -> Option<[(Phase, u64); 4]> {
        let t0 = self.initial_sent_ns;
        let done = self.done_ns?.max(t0);
        let b = self.stall_begin_ns.unwrap_or(done).clamp(t0, done);
        let e = self.stall_end_ns.unwrap_or(b).clamp(b, done);
        let c = self.cert_flight_ns.unwrap_or(done).clamp(e, done);
        Some([
            (Phase::InitialFlight, b - t0),
            (Phase::AmplificationStall, e - b),
            (Phase::CertificateFlight, c - e),
            (Phase::Finish, done - c),
        ])
    }

    /// The same handshake on a wire whose one-way latency is `to_ns`
    /// instead of `from_ns`: every offset `k · from_ns` becomes
    /// `k · to_ns`. `None` unless every present offset is an exact
    /// multiple of `from_ns` — a timeline with an event off that lattice
    /// (a timer fired, a path added jitter) does not stretch with the
    /// path, and the caller must not pretend it does.
    pub fn rescaled(&self, from_ns: u64, to_ns: u64) -> Option<HandshakeTimeline> {
        let scale = |ns: u64| match ns.checked_rem(from_ns) {
            Some(0) => (ns / from_ns).checked_mul(to_ns),
            _ => None,
        };
        let scale_present = |ns: Option<u64>| match ns {
            Some(ns) => scale(ns).map(Some),
            None => Some(None),
        };
        Some(HandshakeTimeline {
            initial_sent_ns: scale(self.initial_sent_ns)?,
            stall_begin_ns: scale_present(self.stall_begin_ns)?,
            stall_end_ns: scale_present(self.stall_end_ns)?,
            cert_flight_ns: scale_present(self.cert_flight_ns)?,
            done_ns: scale_present(self.done_ns)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_survives_a_thread_hammer() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("hammer_total", "hammered");
        let hist = registry.labeled_histogram("hammer_obs", &[], "observations", 0.0, 10.0, 10);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let counter = Arc::clone(&counter);
                let hist = Arc::clone(&hist);
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        counter.inc();
                        hist.observe((t * 25_000 + i) as f64 % 12.0 - 1.0);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 200_000);
        assert_eq!(hist.count(), 200_000);
        let binned: u64 = hist.bin_counts().iter().sum();
        assert_eq!(binned + hist.underflow() + hist.overflow(), hist.count());
        assert!(hist.underflow() > 0, "the -1.0 observations land below lo");
        assert!(hist.overflow() > 0, "the 10.x observations land past hi");
    }

    #[test]
    fn gauge_concurrent_adds_never_lose_updates() {
        let gauge = Arc::new(Gauge::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let gauge = Arc::clone(&gauge);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        gauge.add(0.5);
                    }
                });
            }
        });
        assert_eq!(gauge.get(), 40_000.0);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = MetricsRegistry::new();
        let a = registry.labeled_counter("shared_total", &[("k", "v")], "help");
        let b = registry.labeled_counter("shared_total", &[("k", "v")], "ignored");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert!(Arc::ptr_eq(&a, &b));
        // A different label set is a different series.
        let c = registry.labeled_counter("shared_total", &[("k", "w")], "help");
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("mixed", "as a counter");
        registry.gauge("mixed", "as a gauge");
    }

    #[test]
    fn prometheus_render_is_deterministic_and_sorted() {
        let build = || {
            let registry = MetricsRegistry::new();
            registry.counter("zz_total", "last by name").add(2);
            registry
                .labeled_counter("aa_total", &[("era", "classical")], "first by name")
                .add(5);
            registry
                .labeled_counter("aa_total", &[("era", "hybrid")], "first by name")
                .add(1);
            registry.gauge("mid_gauge", "a gauge").set(1.5);
            let h = registry.labeled_histogram("lat_seconds", &[], "latencies", 0.0, 1.0, 2);
            h.observe(0.25);
            h.observe(0.25);
            h.observe(0.75);
            h.observe(2.0);
            registry.render_prometheus()
        };
        let text = build();
        assert_eq!(text, build(), "same operations must render identically");
        let expected = "\
# HELP aa_total first by name
# TYPE aa_total counter
aa_total{era=\"classical\"} 5
aa_total{era=\"hybrid\"} 1
# HELP lat_seconds latencies
# TYPE lat_seconds histogram
lat_seconds_bucket{le=\"0\"} 0
lat_seconds_bucket{le=\"0.5\"} 2
lat_seconds_bucket{le=\"1\"} 3
lat_seconds_bucket{le=\"+Inf\"} 4
lat_seconds_sum 3.25
lat_seconds_count 4
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge 1.5
# HELP zz_total last by name
# TYPE zz_total counter
zz_total 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_render_is_valid_and_sorted() {
        let registry = MetricsRegistry::new();
        registry
            .labeled_counter("b_total", &[("family", "https")], "b")
            .add(9);
        registry.gauge("a_gauge", "a").set(0.5);
        let h = registry.labeled_histogram("h_seconds", &[], "h", 0.0, 1.0, 2);
        h.observe(0.1);
        let json = registry.render_json();
        assert_eq!(
            json,
            "{\"a_gauge\":0.5,\
             \"b_total{family=\\\"https\\\"}\":9,\
             \"h_seconds\":{\"count\":1,\"sum\":0.1,\"underflow\":0,\"overflow\":0,\"bins\":[1,0]}}"
        );
    }

    #[test]
    fn timeline_phases_sum_to_total() {
        let cases = [
            // Full timeline: every boundary present.
            HandshakeTimeline {
                initial_sent_ns: 0,
                stall_begin_ns: Some(20),
                stall_end_ns: Some(60),
                cert_flight_ns: Some(90),
                done_ns: Some(100),
            },
            // No stall (1-RTT handshake).
            HandshakeTimeline {
                initial_sent_ns: 0,
                stall_begin_ns: None,
                stall_end_ns: None,
                cert_flight_ns: Some(40),
                done_ns: Some(40),
            },
            // Stall began but its end was never observed.
            HandshakeTimeline {
                initial_sent_ns: 0,
                stall_begin_ns: Some(30),
                stall_end_ns: None,
                cert_flight_ns: None,
                done_ns: Some(70),
            },
            // Out-of-order timestamps are clamped, never underflow.
            HandshakeTimeline {
                initial_sent_ns: 10,
                stall_begin_ns: Some(5),
                stall_end_ns: Some(200),
                cert_flight_ns: Some(50),
                done_ns: Some(100),
            },
        ];
        for timeline in cases {
            let phases = timeline.phases().expect("completed");
            let sum: u64 = phases.iter().map(|(_, d)| d).sum();
            let total = timeline
                .done_ns
                .map(|done| done.saturating_sub(timeline.initial_sent_ns));
            assert_eq!(Some(sum), total, "phases must sum exactly: {timeline:?}");
        }
        // Incomplete handshakes have no phase split.
        assert_eq!(HandshakeTimeline::default().phases(), None);
    }

    #[test]
    fn timeline_rescales_only_on_the_latency_lattice() {
        let on_lattice = HandshakeTimeline {
            initial_sent_ns: 0,
            stall_begin_ns: Some(49),
            stall_end_ns: Some(147),
            cert_flight_ns: None,
            done_ns: Some(196),
        };
        let want = HandshakeTimeline {
            initial_sent_ns: 0,
            stall_begin_ns: Some(10),
            stall_end_ns: Some(30),
            cert_flight_ns: None,
            done_ns: Some(40),
        };
        assert_eq!(on_lattice.rescaled(49, 10), Some(want));
        assert_eq!(on_lattice.rescaled(49, 49), Some(on_lattice));
        // Scaling back up is exact too: the lattice index is preserved.
        assert_eq!(want.rescaled(10, 49), Some(on_lattice));
        // One offset off the lattice (a 60 ns timer behind a 49 ns hop)
        // refuses the whole timeline, whichever field it is.
        let off = HandshakeTimeline {
            stall_end_ns: Some(49 + 60),
            ..on_lattice
        };
        assert_eq!(off.rescaled(49, 10), None);
        let off = HandshakeTimeline {
            done_ns: Some(197),
            ..on_lattice
        };
        assert_eq!(off.rescaled(49, 10), None);
        // No source latency, no lattice; an overflowing target is refused.
        assert_eq!(on_lattice.rescaled(0, 10), None);
        assert_eq!(on_lattice.rescaled(49, u64::MAX), None);
        // An all-absent timeline (nothing ever arrived) rescales to itself.
        let empty = HandshakeTimeline::default();
        assert_eq!(empty.rescaled(49, 10), Some(empty));
    }
}
