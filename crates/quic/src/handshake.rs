//! Handshake runners: drive a client/server pair over the simulated wire
//! and extract the measurements the paper's figures are built from.
//!
//! All byte counts come from the exchange's wire tally (the passive view),
//! not from what either endpoint believes it sent — this is what makes
//! buggy accounting (uncounted padding, uncharged resends) *observable*
//! here just as it was to the paper's scanners.

use std::net::Ipv4Addr;

use quicert_netsim::{
    run_exchange, ExchangeLimits, ExchangeOutcome, ExchangeScratch, Observer, SimDuration, SimRng,
    SimTime, Wire,
};
use quicert_obs::HandshakeTimeline;
use quicert_session::SessionTicket;
use quicert_tls::PskOffer;

use crate::amplification;
use crate::client::{ClientBuffers, ClientConfig, ClientConn};
use crate::packet::ConnectionId;
use crate::server::{ServerBuffers, ServerConfig, ServerConn, ServerStats};

/// RNG stream label for complete-handshake exchanges ("DSH").
const HANDSHAKE_RNG_LABEL: u64 = 0x44_5348;
/// RNG stream label for spoofed probes ("SPOO").
const SPOOFED_RNG_LABEL: u64 = 0x5350_4F4F;
/// RNG stream label for the warm (resumed) visit of a resumption probe
/// ("WARM").
const WARM_RNG_LABEL: u64 = 0x5741_524D;
/// Seed tweak for the warm visit's client (fresh CIDs and randoms, exactly
/// as a real second connection would draw them).
const WARM_SEED_TWEAK: u64 = 0x5245_5355_4D45_0001;

/// Event limits for a complete-handshake attempt.
fn handshake_limits() -> ExchangeLimits {
    ExchangeLimits {
        deadline: SimTime::ZERO + SimDuration::from_secs(30),
        max_events: 10_000,
    }
}

/// Event limits for a spoofed probe (sessions span the full retransmission
/// backoff, tens of simulated seconds).
fn spoofed_limits() -> ExchangeLimits {
    ExchangeLimits {
        deadline: SimTime::ZERO + SimDuration::from_secs(300),
        max_events: 100_000,
    }
}

/// The handshake classes of §3.2 / §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandshakeClass {
    /// Optimal: completes within 1 RTT, within the amplification limit.
    OneRtt,
    /// Less efficient: the server demanded address validation first.
    Retry,
    /// Unnecessary: multiple RTTs without Retry (large certificates and/or
    /// missing coalescence).
    MultiRtt,
    /// Not RFC-compliant: completes within 1 RTT but exceeds the 3× limit.
    Amplification,
    /// No handshake (no QUIC service, or the Initial never arrived —
    /// e.g. the load-balancer MTU failure of §4.1).
    Unreachable,
}

impl HandshakeClass {
    /// Label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            HandshakeClass::OneRtt => "1-RTT",
            HandshakeClass::Retry => "RETRY",
            HandshakeClass::MultiRtt => "Multi-RTT",
            HandshakeClass::Amplification => "Amplification",
            HandshakeClass::Unreachable => "Unreachable",
        }
    }
}

/// Everything measured about one complete-handshake attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct HandshakeOutcome {
    /// Whether the client completed the TLS handshake.
    pub completed: bool,
    /// Whether a Retry round was involved.
    pub used_retry: bool,
    /// UDP payload size of the client's first Initial datagram.
    pub client_first_datagram: usize,
    /// Server UDP payload bytes sent before the client's second datagram
    /// reached it — the "first RTT" amplification numerator of Fig 4. The
    /// second datagram is the second *on the wire*: when the client's first
    /// Initial is duplicated, the copy lands as the server's flight leaves
    /// and this reads 0 (a known deviation, not yet fixed).
    pub first_flight_wire: usize,
    /// Total server UDP payload bytes over the whole exchange.
    pub total_server_wire: usize,
    /// The server's own account of the 3× rule: the most bytes it was ever
    /// past the limit of what it had received before validation
    /// (`AmplificationBudget::excess`).
    /// Unlike the first-flight cut, duplication on the wire cannot hide it.
    pub amplification_excess: usize,
    /// Round trips until the client finished the handshake (1 = optimal).
    pub rtt_count: u32,
    /// Server-side byte accounting (TLS vs padding split, Fig 5).
    pub server_stats: ServerStats,
    /// Datagrams removed by the wire's fault injectors during this attempt
    /// (both directions) — the per-session view of adverse link conditions.
    pub fault_drops: u64,
    /// Datagrams corrupted by the wire's fault injectors during this
    /// attempt.
    pub fault_corruptions: u64,
    /// Datagrams delivered twice by the wire's fault injectors during this
    /// attempt.
    pub fault_duplications: u64,
    /// Number of Initial transmissions the client performed (1 = no PTO
    /// retransmission) — with the server's flight count, the per-probe
    /// recovery cost under loss.
    pub client_transmissions: u32,
    /// Whether the handshake resumed via PSK (server accepted the offer;
    /// no certificate on the wire).
    pub resumed: bool,
    /// A session ticket issued during this handshake, if the server handed
    /// one out; `obtained_at_secs` is left 0 for the caller to stamp with
    /// its wall clock.
    pub ticket: Option<SessionTicket>,
    /// Per-phase timestamps of the handshake (Initial sent, amplification
    /// stall begin/end, certificate flight complete, done — when the client
    /// completed, if it did), feeding the phase-duration histograms of the
    /// telemetry layer.
    pub timeline: HandshakeTimeline,
    /// Endpoint timers (PTOs) that fired during the attempt. On a wire that
    /// draws no randomness, zero means every event of the exchange was a
    /// delivery one latency after its send.
    pub timer_fires: u64,
    /// Datagrams offered to the wire, both directions; a duplicated copy
    /// counts again.
    pub datagrams: usize,
    /// Datagrams the wire accepted for delivery, both directions. Zero
    /// means the path latency was never read (the MTU black hole of §4.1).
    pub deliveries: usize,
}

impl HandshakeOutcome {
    /// Amplification factor observed during the first RTT.
    pub fn amplification_first_flight(&self) -> f64 {
        if self.client_first_datagram == 0 {
            return 0.0;
        }
        self.first_flight_wire as f64 / self.client_first_datagram as f64
    }

    /// Whether the first flight exceeded the RFC 9000 3× limit.
    pub fn exceeds_limit(&self) -> bool {
        self.first_flight_wire > amplification::limit(self.client_first_datagram)
    }

    /// Classify per §3.2.
    pub fn classify(&self) -> HandshakeClass {
        if !self.completed {
            HandshakeClass::Unreachable
        } else if self.used_retry {
            HandshakeClass::Retry
        } else if self.rtt_count <= 1 {
            if self.exceeds_limit() {
                HandshakeClass::Amplification
            } else {
                HandshakeClass::OneRtt
            }
        } else {
            HandshakeClass::MultiRtt
        }
    }
}

/// Turn one finished exchange into the paper's handshake measurements.
fn measure_handshake(
    client: &ClientConn,
    server: &ServerConn,
    wire: &Wire,
    outcome: &ExchangeOutcome,
) -> HandshakeOutcome {
    // A handshake completing at exactly one wire RTT is "1-RTT"; each
    // extra server round adds one RTT.
    let rtt = wire.rtt();
    let rtt_count = client
        .completed_at
        .map(|t| t.as_nanos().max(1).div_ceil(rtt.as_nanos().max(1)) as u32)
        .unwrap_or(0);

    // Every exchange starts its own virtual timeline at zero, so the
    // timeline's offsets are simply the endpoints' SimTime stamps.
    let (stall_begin, stall_end) = server.amplification().stall();
    let timeline = HandshakeTimeline {
        initial_sent_ns: 0,
        stall_begin_ns: stall_begin.map(|t| t.as_nanos()),
        stall_end_ns: stall_end.map(|t| t.as_nanos()),
        cert_flight_ns: client.cert_flight_at.map(|t| t.as_nanos()),
        done_ns: client.completed_at.map(|t| t.as_nanos()),
    };

    HandshakeOutcome {
        completed: client.handshake_complete(),
        used_retry: client.saw_retry,
        client_first_datagram: client.first_datagram_len,
        first_flight_wire: outcome.first_flight,
        total_server_wire: outcome.b_to_a.bytes,
        amplification_excess: server.amplification().excess(),
        rtt_count,
        server_stats: *server.stats(),
        timeline,
        timer_fires: outcome.timer_fires,
        datagrams: outcome.a_to_b.datagrams + outcome.b_to_a.datagrams,
        deliveries: outcome.a_to_b.delivered + outcome.b_to_a.delivered,
        fault_drops: outcome.fault_drops,
        fault_corruptions: outcome.fault_corruptions,
        fault_duplications: outcome.fault_duplications,
        client_transmissions: client.transmissions(),
        resumed: client.psk_accepted,
        ticket: client.ticket.as_ref().map(|nst| SessionTicket {
            identity: nst.ticket.clone(),
            lifetime_secs: nst.lifetime_secs as u64,
            age_add: nst.age_add,
            obtained_at_secs: 0,
        }),
    }
}

/// What a run of exchanges keeps from one to the next: the buffers of one
/// client and one server connection — their CRYPTO streams, ClientHello,
/// flight and datagram plan, retry token and parsed-datagram lists — and
/// the exchange's queue and payload buffers.
///
/// It is the one runner of this crate: a complete handshake ([`run`]), a
/// cold-then-warm resumption probe ([`resume`]) and a spoofed probe
/// ([`spoof`]) each rebuild both connections through their one
/// constructor, handed these buffers emptied, so no field reset can be
/// forgotten: a reused scratch changes what an exchange allocates, never
/// its outcome. It holds one handshake's high-water buffers (about 100 kB
/// after a post-quantum flight) and its observer. A pump worker keeps one
/// for all its probes; once its buffers have grown to a probe's needs, a
/// cold handshake allocates nothing.
///
/// Its [`Observer`] sees every datagram of every exchange it runs, both
/// visits of a resumption probe included: `sent` as an endpoint emits it,
/// before the wire's fault injector draws on it, and `arrived` as it is
/// handed to its endpoint. [`HandshakeScratch::default`] observes with
/// `()`, which sees nothing, as every scan does; a test or a tool that
/// reads the wire builds one with [`observing`].
///
/// [`run`]: HandshakeScratch::run
/// [`resume`]: HandshakeScratch::resume
/// [`spoof`]: HandshakeScratch::spoof
/// [`observing`]: HandshakeScratch::observing
#[derive(Debug)]
pub struct HandshakeScratch<O = ()> {
    client: ClientBuffers,
    server: ServerBuffers,
    exchange: ExchangeScratch,
    observer: O,
}

impl Default for HandshakeScratch {
    fn default() -> Self {
        HandshakeScratch::observing(())
    }
}

impl<O: Observer> HandshakeScratch<O> {
    /// An empty scratch whose exchanges `observer` sees.
    pub fn observing(observer: O) -> Self {
        HandshakeScratch {
            client: ClientBuffers::default(),
            server: ServerBuffers::default(),
            exchange: ExchangeScratch::default(),
            observer,
        }
    }

    /// Run a complete handshake attempt, on the RNG stream `seed ^ "DSH"`.
    pub fn run(
        &mut self,
        client: ClientConfig,
        server: ServerConfig,
        wire: &mut Wire,
        seed: u64,
    ) -> HandshakeOutcome {
        let rng = SimRng::new(seed ^ HANDSHAKE_RNG_LABEL);
        let limits = handshake_limits();
        self.exchange(client, server, wire, limits, rng, measure_handshake)
    }

    /// Run one resumption probe: the cold visit, then the warm visit offering
    /// the cold visit's ticket — each a handshake of its own, on its own RNG
    /// stream (`seed ^ "DSH"`, then `seed ^ "WARM"`) and its own copy of the
    /// probe's wire.
    ///
    /// The ticket is the probe's own, so what the warm visit offers can
    /// depend on nothing but this probe.
    pub fn resume(&mut self, mut probe: ResumptionProbe) -> ResumptionOutcome {
        let mut client = probe.client.clone();
        client.psk = None;
        let server = probe.server.clone();
        let cold = self.run(client, server, &mut probe.wire.clone(), probe.seed);

        // The warm visit takes over the probe's configurations, chain and all.
        let psk = warm_offer(&probe, &cold);
        let mut client = probe.client;
        client.psk = psk;
        client.seed ^= WARM_SEED_TWEAK;
        let mut server = probe.server;
        server.resumption = server
            .resumption
            .map(|host| host.revisited_at(probe.warm_now_secs));
        // `run` xors its own label in, so this visit draws from `seed ^ "WARM"`.
        let seed = probe.seed ^ WARM_RNG_LABEL ^ HANDSHAKE_RNG_LABEL;
        ResumptionOutcome {
            offered_psk: client.psk.is_some(),
            warm: self.run(client, server, &mut probe.wire, seed),
            cold,
        }
    }

    /// Run a spoofed handshake probe: one Initial of `probe_size` bytes from
    /// `spoofed_src`, no ACKs ever, and watch what the server reflects
    /// (including all retransmissions).
    pub fn spoof(
        &mut self,
        probe_size: usize,
        spoofed_src: Ipv4Addr,
        server_addr: Ipv4Addr,
        server: ServerConfig,
        wire: &mut Wire,
        seed: u64,
    ) -> SpoofedOutcome {
        let mut client = ClientConfig::scanner(probe_size, server_addr, seed);
        client.src = spoofed_src;
        client.send_acks = false;
        client.max_initial_transmissions = 1;
        let rng = SimRng::new(seed ^ SPOOFED_RNG_LABEL);
        let measure = |_: &ClientConn, server: &ServerConn, _: &Wire, out: &ExchangeOutcome| {
            let backscatter = &out.b_to_a;
            SpoofedOutcome {
                probe_size,
                total_server_wire: backscatter.bytes,
                datagrams: backscatter.datagrams,
                duration: backscatter
                    .sent_between
                    .map_or(SimDuration::ZERO, |(first, last)| last.since(first)),
                server_scid: server.scid().clone(),
                flight_transmissions: server.stats().flight_transmissions,
            }
        };
        self.exchange(client, server, wire, spoofed_limits(), rng, measure)
    }

    /// One exchange on its own RNG stream: build the endpoints in the kept
    /// buffers, run them to quiescence within `limits`, measure, take the
    /// buffers back.
    fn exchange<T>(
        &mut self,
        client: ClientConfig,
        server: ServerConfig,
        wire: &mut Wire,
        limits: ExchangeLimits,
        mut rng: SimRng,
        measure: impl FnOnce(&ClientConn, &ServerConn, &Wire, &ExchangeOutcome) -> T,
    ) -> T {
        let mut client = ClientConn::reusing(client, std::mem::take(&mut self.client));
        let mut server = ServerConn::reusing(server, std::mem::take(&mut self.server));
        let (scratch, observer) = (&mut self.exchange, &mut self.observer);
        let outcome = run_exchange(
            &mut client,
            &mut server,
            wire,
            limits,
            &mut rng,
            scratch,
            observer,
        );
        let measured = measure(&client, &server, wire, &outcome);
        self.client = client.into_buffers();
        self.server = server.into_buffers();
        measured
    }
}

/// One cold-then-warm resumption probe: the first visit runs a full
/// certificate-laden handshake against a ticket-issuing server; the second
/// visit re-probes the same service with the cached ticket (when the policy
/// offers one) at a later wall-clock instant.
#[derive(Debug, Clone)]
pub struct ResumptionProbe {
    /// Client configuration for the cold visit (any `psk` is ignored — the
    /// first visit is cold by definition).
    pub client: ClientConfig,
    /// Server configuration; its [`ServerConfig::resumption`] host governs
    /// ticket issuance on the cold visit and validation on the warm one.
    pub server: ServerConfig,
    /// The path; each visit runs on its own copy of it, as given.
    pub wire: Wire,
    /// Per-probe RNG seed (forked per record at world generation).
    pub seed: u64,
    /// The server/client wall clock at the warm visit, simulated seconds.
    pub warm_now_secs: u64,
    /// Whether the warm visit offers the cached ticket at all (the
    /// cold-only policy revisits without one).
    pub offer_ticket: bool,
}

/// What a cold-then-warm probe measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumptionOutcome {
    /// The first (certificate-laden, ticket-issuing) visit.
    pub cold: HandshakeOutcome,
    /// The second visit — resumed when a ticket was offered and accepted,
    /// a cold fallback otherwise.
    pub warm: HandshakeOutcome,
    /// Whether the warm visit actually offered a PSK (the cold visit got a
    /// ticket and the policy allowed it).
    pub offered_psk: bool,
}

/// The PSK the warm visit of `probe` offers, if its policy offers one: the
/// ticket of its `cold` visit, stamped with the wall clock of that visit
/// and aged to the warm one.
fn warm_offer(probe: &ResumptionProbe, cold: &HandshakeOutcome) -> Option<PskOffer> {
    let mut ticket = cold.ticket.as_ref().filter(|_| probe.offer_ticket)?.clone();
    ticket.obtained_at_secs = probe
        .server
        .resumption
        .as_ref()
        .map_or(0, |host| host.now_secs);
    Some(PskOffer {
        obfuscated_age: ticket.obfuscated_age(probe.warm_now_secs),
        identity: ticket.identity,
    })
}

/// What a spoofed (never-acknowledging) probe provoked — the telescope's
/// view of one session (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct SpoofedOutcome {
    /// UDP payload size of the probe Initial.
    pub probe_size: usize,
    /// Total server UDP payload bytes sent toward the victim.
    pub total_server_wire: usize,
    /// Backscatter datagrams the server sent toward the victim.
    pub datagrams: usize,
    /// Time from the first to the last backscatter datagram.
    pub duration: SimDuration,
    /// The server's source connection ID (a telescope's session key).
    pub server_scid: ConnectionId,
    /// Number of flight transmissions the server performed.
    pub flight_transmissions: u32,
}

impl SpoofedOutcome {
    /// Amplification factor: reflected bytes over probe bytes.
    pub fn amplification(&self) -> f64 {
        if self.probe_size == 0 {
            return 0.0;
        }
        self.total_server_wire as f64 / self.probe_size as f64
    }
}

// ------------------------------------------------- frozen compat block --
//
// `perfbench/` is frozen and names exactly these two items
// ([`HandshakeProbe`] is also what the scanner's probe builder returns).
// Nothing else in the workspace may call the function. It runs the whole
// batch on one [`HandshakeScratch`], as a pump worker does, so each probe
// after the first measures the warm per-probe cost.

/// Everything [`HandshakeScratch::run`] takes, as data.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct HandshakeProbe {
    /// Scanner/browser client configuration (Initial size, compression…).
    pub client: ClientConfig,
    /// Target server configuration (behaviour, chain, compression support).
    pub server: ServerConfig,
    /// The path between them, fault injectors included.
    pub wire: Wire,
    /// Per-probe RNG seed, forked per record at world generation.
    pub seed: u64,
}

#[doc(hidden)]
pub fn run_handshake_batch_into(
    probes: &mut Vec<HandshakeProbe>,
    outcomes: &mut Vec<HandshakeOutcome>,
) {
    let mut scratch = HandshakeScratch::default();
    outcomes.reserve(probes.len());
    outcomes.extend(
        probes
            .drain(..)
            .map(|mut probe| scratch.run(probe.client, probe.server, &mut probe.wire, probe.seed)),
    );
}

// --------------------------------------------- end frozen compat block --

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerBehavior;
    use quicert_compress::Algorithm;
    use quicert_netsim::{Endpoint, Outbox};
    use quicert_x509::{
        CertificateBuilder, CertificateChain, DistinguishedName, Extension, KeyAlgorithm, Name,
        SanNames, SignatureAlgorithm, SubjectPublicKeyInfo,
    };

    const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);

    fn small_chain() -> CertificateChain {
        // A realistic modern ECDSA chain (Let's Encrypt E1-style): richly
        // extended leaf (~1 kB) plus a compact ECDSA intermediate.
        let inter_dn = DistinguishedName::ca("US", "Let's Encrypt", "E1");
        let root_dn =
            DistinguishedName::ca("US", "Internet Security Research Group", "ISRG Root X2");
        let inter = CertificateBuilder::new(
            &root_dn,
            &inter_dn,
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP384, 31),
            SignatureAlgorithm::EcdsaSha384,
        )
        .extensions(&[
            Extension::BasicConstraints {
                ca: true,
                path_len: Some(0),
            },
            Extension::SubjectKeyId { seed: 33 },
            Extension::AuthorityKeyId { seed: 34 },
            Extension::CrlDistributionPoints(&["http://x2.c.lencr.org/"]),
        ])
        .build();
        let leaf = CertificateBuilder::new(
            &inter_dn,
            Name::Cn("small.example"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 32),
            SignatureAlgorithm::EcdsaSha384,
        )
        .extensions(&[
            Extension::BasicConstraints {
                ca: false,
                path_len: None,
            },
            Extension::SubjectKeyId { seed: 35 },
            Extension::AuthorityKeyId { seed: 33 },
            Extension::SubjectAltNames(SanNames::listed(&["small.example", "www.small.example"])),
            Extension::AuthorityInfoAccess {
                ocsp: Some("http://e1.o.lencr.org"),
                ca_issuers: Some("http://e1.i.lencr.org/"),
            },
            Extension::SctList { count: 2, seed: 36 },
        ])
        .build();
        CertificateChain::new(leaf, vec![inter])
    }

    fn big_chain() -> CertificateChain {
        let root_dn = DistinguishedName::ca(
            "US",
            "Legacy Trust Services Incorporated",
            "Legacy Global Root CA",
        );
        let i1_dn = DistinguishedName::ca(
            "US",
            "Legacy Trust Services Incorporated",
            "Legacy TLS RSA CA G1",
        );
        let i2_dn = DistinguishedName::ca(
            "US",
            "Legacy Trust Services Incorporated",
            "Legacy TLS RSA CA G2",
        );
        let i1 = CertificateBuilder::new(
            &root_dn,
            &i1_dn,
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa4096, 41),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .build();
        let i2 = CertificateBuilder::new(
            &i1_dn,
            &i2_dn,
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa4096, 42),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .build();
        let leaf = CertificateBuilder::new(
            &i2_dn,
            Name::Cn("big.example"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa2048, 43),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .extensions(&[
            Extension::SubjectAltNames(SanNames::listed(&["big.example", "www.big.example"])),
            Extension::SctList { count: 3, seed: 44 },
        ])
        .build();
        CertificateChain::new(leaf, vec![i2, i1])
    }

    fn server(
        behavior: ServerBehavior,
        chain: CertificateChain,
        leaf_key: KeyAlgorithm,
    ) -> ServerConfig {
        ServerConfig {
            behavior,
            chain,
            leaf_key,
            compression_support: vec![Algorithm::Brotli],
            resumption: None,
            seed: 77,
        }
    }

    fn wire() -> Wire {
        Wire::ideal(SimDuration::from_millis(20))
    }

    #[test]
    fn compliant_server_small_chain_is_one_rtt() {
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 1),
            server(
                ServerBehavior::rfc_compliant(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            1,
        );
        assert!(out.completed);
        assert_eq!(out.rtt_count, 1, "completed at {:?}", out.timeline.done_ns);
        assert!(
            !out.exceeds_limit(),
            "ampl {}",
            out.amplification_first_flight()
        );
        assert_eq!(out.classify(), HandshakeClass::OneRtt);
    }

    #[test]
    fn compliant_server_big_chain_needs_multiple_rtts() {
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 2),
            server(
                ServerBehavior::rfc_compliant(),
                big_chain(),
                KeyAlgorithm::Rsa2048,
            ),
            &mut wire(),
            2,
        );
        assert!(out.completed);
        assert!(out.rtt_count >= 2, "rtts {}", out.rtt_count);
        assert!(!out.exceeds_limit(), "first flight respects the budget");
        assert_eq!(out.classify(), HandshakeClass::MultiRtt);
        // TLS payload alone exceeds the limit (the 87% case of §4.2).
        assert!(out.server_stats.tls_sent > 3 * 1362);
    }

    #[test]
    fn cloudflare_like_server_amplifies_but_finishes_in_one_rtt() {
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 3),
            server(
                ServerBehavior::cloudflare_like(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            3,
        );
        assert!(out.completed);
        assert_eq!(out.rtt_count, 1);
        assert!(
            out.exceeds_limit(),
            "ampl {}",
            out.amplification_first_flight()
        );
        assert_eq!(out.classify(), HandshakeClass::Amplification);
        // The amplification factor stays modest (Fig 4: < 6x).
        assert!(out.amplification_first_flight() < 6.0);
        // Padding dominated by the two stray-padded Initial datagrams.
        assert!(out.server_stats.padding_sent > 2000);
    }

    #[test]
    fn retry_server_adds_a_round_trip() {
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 4),
            server(
                ServerBehavior::retry_first(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            4,
        );
        assert!(out.completed);
        assert!(out.used_retry);
        assert_eq!(out.classify(), HandshakeClass::Retry);
        assert!(out.rtt_count >= 2);
    }

    #[test]
    fn spoofed_probe_against_compliant_server_is_bounded() {
        let out = HandshakeScratch::default().spoof(
            1252,
            Ipv4Addr::new(44, 0, 0, 1),
            SERVER,
            server(
                ServerBehavior::rfc_compliant(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            5,
        );
        assert!(
            out.amplification() <= 3.0 + 1e-9,
            "compliant server must respect 3x, got {}",
            out.amplification()
        );
    }

    #[test]
    fn spoofed_probe_against_mvfst_amplifies_via_resends() {
        let out = HandshakeScratch::default().spoof(
            1252,
            Ipv4Addr::new(44, 0, 0, 2),
            SERVER,
            server(
                ServerBehavior::mvfst_like(8),
                big_chain(),
                KeyAlgorithm::Rsa2048,
            ),
            &mut wire(),
            6,
        );
        assert!(
            out.amplification() > 10.0,
            "mvfst-like resends must blow through the limit, got {}",
            out.amplification()
        );
        assert_eq!(out.flight_transmissions, 8);
        assert!(out.datagrams >= 8, "{} datagrams", out.datagrams);
        // Session spans the retransmission backoff (tens of seconds).
        assert!(out.duration > SimDuration::from_secs(20));
    }

    #[test]
    fn timeline_phases_account_for_the_whole_handshake() {
        use quicert_obs::Phase;
        // Multi-RTT big chain: the server stalls on its 3x budget, so all
        // four phases are populated and must sum exactly to the total.
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 31),
            server(
                ServerBehavior::rfc_compliant(),
                big_chain(),
                KeyAlgorithm::Rsa2048,
            ),
            &mut wire(),
            31,
        );
        assert!(out.completed);
        assert_eq!(out.classify(), HandshakeClass::MultiRtt);
        let phases = out.timeline.phases().expect("completed handshake");
        let sum: u64 = phases.iter().map(|(_, d)| d).sum();
        assert_eq!(Some(sum), out.timeline.done_ns, "phases sum to total");
        assert!(out.timeline.stall_begin_ns.is_some(), "big chain stalls");
        assert!(
            phases[Phase::AmplificationStall.index()].1 > 0,
            "the stall phase has nonzero duration"
        );

        // 1-RTT small chain: no stall ever begins, and the degenerate
        // timeline still partitions the total exactly.
        let fast = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 32),
            server(
                ServerBehavior::rfc_compliant(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            32,
        );
        assert_eq!(fast.classify(), HandshakeClass::OneRtt);
        assert!(fast.timeline.stall_begin_ns.is_none());
        let phases = fast.timeline.phases().expect("completed handshake");
        let sum: u64 = phases.iter().map(|(_, d)| d).sum();
        assert_eq!(Some(sum), fast.timeline.done_ns);
        assert_eq!(phases[Phase::AmplificationStall.index()].1, 0);
    }

    #[test]
    fn larger_initials_flip_marginal_chains_to_one_rtt() {
        // A chain whose flight fits in 3x1472 but not 3x1200.
        let cfg = |size| ClientConfig::scanner(size, SERVER, 7);
        let sc = server(
            ServerBehavior::rfc_compliant(),
            big_chain(),
            KeyAlgorithm::Rsa2048,
        );
        let small = HandshakeScratch::default().run(cfg(1200), sc.clone(), &mut wire(), 7);
        let large = HandshakeScratch::default().run(cfg(1472), sc, &mut wire(), 7);
        assert!(small.rtt_count >= large.rtt_count);
    }

    fn resumption_probe(
        seed: u64,
        chain: CertificateChain,
        leaf_key: KeyAlgorithm,
        warm_now_secs: u64,
        offer_ticket: bool,
    ) -> ResumptionProbe {
        let mut server = server(ServerBehavior::rfc_compliant(), chain, leaf_key);
        server.resumption = Some(quicert_session::ResumptionHost::issuing(
            seed ^ 0x57E4,
            1_000_000,
        ));
        // One SNI per probe, as in a real scan: tickets are host-bound.
        let mut client = ClientConfig::scanner(1362, SERVER, seed);
        client.server_name = format!("svc-{seed}.example").into();
        ResumptionProbe {
            client,
            server,
            wire: wire(),
            seed,
            warm_now_secs,
            offer_ticket,
        }
    }

    #[test]
    fn warm_visit_resumes_without_certificates_and_fits_budget() {
        let out = HandshakeScratch::default().resume(resumption_probe(
            21,
            big_chain(),
            KeyAlgorithm::Rsa2048,
            1_000_060,
            true,
        ));
        // Cold visit: the big chain forces extra RTTs, a ticket arrives.
        assert!(out.cold.completed);
        assert_eq!(out.cold.classify(), HandshakeClass::MultiRtt);
        assert!(out.cold.ticket.is_some(), "ticket issued on cold visit");
        assert!(out.cold.server_stats.issued_ticket);
        assert!(!out.cold.resumed);
        // Warm visit: resumed, certificate-free, 1-RTT, inside the budget.
        assert!(out.offered_psk);
        assert!(out.warm.resumed);
        assert!(out.warm.completed);
        assert_eq!(out.warm.server_stats.certificate_message_len, 0);
        assert_eq!(out.warm.classify(), HandshakeClass::OneRtt);
        assert!(!out.warm.exceeds_limit());
        assert!(out.warm.rtt_count < out.cold.rtt_count);
        assert!(out.warm.total_server_wire < out.cold.total_server_wire);
    }

    #[test]
    fn the_warm_visit_offers_the_cold_ticket_aged_from_the_cold_visit() {
        // The server never reads the age, so only the offer itself shows
        // a ticket stamped with the wrong clock: aged from 0, not from the
        // cold visit's 1_000_000, its obfuscated age is off by 10⁶ s.
        let probe = resumption_probe(24, big_chain(), KeyAlgorithm::Rsa2048, 1_003_600, true);
        let out = HandshakeScratch::default().resume(probe.clone());
        let ticket = out
            .cold
            .ticket
            .clone()
            .expect("a ticket from the cold visit");
        let age_ms = (1_003_600u64 - 1_000_000) * 1_000;
        let offer = PskOffer {
            identity: ticket.identity,
            obfuscated_age: (age_ms as u32).wrapping_add(ticket.age_add),
        };
        assert_eq!(warm_offer(&probe, &out.cold), Some(offer));
        assert!(out.offered_psk && out.warm.resumed);
        let cold_only = ResumptionProbe {
            offer_ticket: false,
            ..probe
        };
        assert_eq!(warm_offer(&cold_only, &out.cold), None);
    }

    #[test]
    fn stale_ticket_falls_back_to_the_cold_path() {
        // Revisit long after the lifetime and two STEK rotations: the offer
        // is rejected and the full chain goes on the wire again.
        let stale = 1_000_000 + 7_200 + 2 * 3_600 + 1;
        let out = HandshakeScratch::default().resume(resumption_probe(
            22,
            big_chain(),
            KeyAlgorithm::Rsa2048,
            stale,
            true,
        ));
        assert!(out.offered_psk, "the stale ticket is still offered");
        assert!(!out.warm.resumed, "but the server must reject it");
        assert!(out.warm.server_stats.certificate_message_len > 0);
        assert_eq!(out.warm.classify(), out.cold.classify());
    }

    #[test]
    fn cold_only_policy_never_offers() {
        let out = HandshakeScratch::default().resume(resumption_probe(
            23,
            small_chain(),
            KeyAlgorithm::EcdsaP256,
            1_000_060,
            false,
        ));
        assert!(!out.offered_psk);
        assert!(!out.warm.resumed);
        assert!(out.warm.server_stats.certificate_message_len > 0);
    }

    #[test]
    fn resumption_batch_is_composition_invariant() {
        // A probe's outcome depends on nothing that ran around it: not the
        // order of a batch, and not a neighbour that shares its SNI (each
        // probe offers its own ticket, so aliased names cannot overwrite
        // each other's tickets).
        let probes: Vec<ResumptionProbe> = (0..9)
            .map(|i| {
                let (chain, key) = if i % 2 == 0 {
                    (big_chain(), KeyAlgorithm::Rsa2048)
                } else {
                    (small_chain(), KeyAlgorithm::EcdsaP256)
                };
                let mut probe = resumption_probe(100 + i, chain, key, 1_000_060, true);
                if i >= 7 {
                    probe.client.server_name = "shared.example".into();
                }
                probe
            })
            .collect();
        let mut scratch = HandshakeScratch::default();
        let forward: Vec<ResumptionOutcome> =
            probes.iter().cloned().map(|p| scratch.resume(p)).collect();
        let mut backward: Vec<ResumptionOutcome> = probes
            .iter()
            .rev()
            .cloned()
            .map(|p| scratch.resume(p))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert!(forward
            .iter()
            .all(|out| out.offered_psk && out.warm.resumed));
    }

    #[test]
    fn resumption_free_servers_do_not_issue_tickets() {
        // The classic cold handshake must not change: no OneRtt datagrams,
        // no ticket, same wire totals as ever.
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 1),
            server(
                ServerBehavior::rfc_compliant(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut wire(),
            1,
        );
        assert!(out.ticket.is_none());
        assert!(!out.server_stats.issued_ticket);
        assert!(!out.resumed);
    }

    /// Drive a server directly: one client Initial delivered, then every
    /// response lost, so only the PTO machinery runs. Returns the client's
    /// Initial payload length and the primed endpoints.
    fn primed_pair(behavior: ServerBehavior, seed: u64) -> (usize, ServerConn) {
        let mut client = ClientConn::new(ClientConfig::scanner(1362, SERVER, seed));
        let mut out = Outbox::default();
        client.start(SimTime::ZERO, &mut out);
        let initial = out.pop().expect("client emits its Initial on start");
        let mut server = ServerConn::new(server(behavior, small_chain(), KeyAlgorithm::EcdsaP256));
        let mut sink = Outbox::default();
        server.on_datagram(&initial, SimTime::ZERO, &mut sink);
        (initial.payload_len(), server)
    }

    #[test]
    fn pto_backoff_doubles_and_caps_at_max_pto() {
        // mvfst profile: 350 ms base PTO, resends uncharged, a high
        // transmission cap so the backoff alone terminates the ladder.
        let (_, mut server) = primed_pair(ServerBehavior::mvfst_like(20), 9);
        assert_eq!(server.current_pto(), SimDuration::from_millis(350));

        // 350 → 700 → 1400 → 2800 → 5600 → cap: never 11200, and with
        // saturating_mul never the 584-year saturation point either.
        let expected_ms = [700u64, 1400, 2800, 5600, 8000, 8000, 8000];
        let mut sink = Outbox::default();
        for &ms in &expected_ms {
            let deadline = server.next_timer().expect("timer armed while data is out");
            sink.clear();
            server.on_timer(deadline, &mut sink);
            assert_eq!(server.current_pto(), SimDuration::from_millis(ms));
            assert!(server.current_pto() <= ServerBehavior::MAX_PTO);
            assert!(!sink.is_empty(), "uncharged resend goes out");
            // The re-armed deadline follows the capped cadence exactly.
            let next = server.next_timer().expect("still below the cap");
            assert_eq!(next, deadline + server.current_pto());
        }
        assert_eq!(
            server.stats().flight_transmissions,
            1 + expected_ms.len() as u32
        );
    }

    #[test]
    fn transmission_limit_classifies_total_loss_as_unreachable() {
        // Every server→client datagram is lost: the server retransmits to
        // its cap and gives up; the client never completes.
        let mut w = wire();
        w.fault_b_to_a = quicert_netsim::FaultInjector::dropping(1.0);
        let out = HandshakeScratch::default().run(
            ClientConfig::scanner(1362, SERVER, 11),
            server(
                ServerBehavior::rfc_compliant(),
                small_chain(),
                KeyAlgorithm::EcdsaP256,
            ),
            &mut w,
            11,
        );
        assert!(!out.completed);
        assert_eq!(out.classify(), HandshakeClass::Unreachable);
        // The server attempted exactly its transmission budget, no more.
        assert_eq!(out.server_stats.flight_transmissions, 3);
        // The client also re-probed (its own Initial PTO fired).
        assert_eq!(out.client_transmissions, 2);
        assert!(out.fault_drops > 0, "the injector recorded the losses");
        assert_eq!(out.fault_duplications, 0);
    }

    #[test]
    fn resend_bytes_charge_the_budget_exactly_when_count_resends_is_set() {
        use crate::amplification::limit;
        // Fire every PTO to exhaustion with no client response.
        let drain = |mut server: ServerConn| {
            let first_charged = server.amplification().charged();
            let mut sink = Outbox::default();
            while let Some(deadline) = server.next_timer() {
                server.on_timer(deadline, &mut sink);
            }
            (first_charged, server)
        };

        // RFC-compliant: resends are charged, so the 3x budget blocks the
        // retransmission stream and the stall is observable.
        let (_, server_rfc) = {
            let (probe_len, srv) = primed_pair(ServerBehavior::rfc_compliant(), 12);
            let (first, srv) = drain(srv);
            let account = srv.amplification();
            assert!(first > 0);
            assert!(
                account.charged() <= limit(probe_len),
                "charged {} must respect 3x{probe_len}",
                account.charged()
            );
            assert_eq!(account.excess(), 0, "every byte charged, none past 3x");
            assert!(
                account.stall().0.is_some(),
                "charged resends must hit the amplification stall"
            );
            (first, srv)
        };
        assert_eq!(server_rfc.stats().flight_transmissions, 3);

        // mvfst-like: resends uncharged — every flight leaves whole and the
        // budget meter never moves past the first transmission.
        let (probe_len, srv) = primed_pair(ServerBehavior::mvfst_like(5), 12);
        let (first, srv) = drain(srv);
        let account = srv.amplification();
        assert_eq!(
            account.charged(),
            first,
            "uncharged resends must not move the budget meter"
        );
        assert_eq!(srv.stats().flight_transmissions, 5);
        assert!(
            account.excess() + limit(probe_len) >= 4 * first,
            "all five flights reach the wire ({} past 3x{probe_len} vs first {first})",
            account.excess()
        );
        assert!(
            account.charged() <= limit(probe_len),
            "the meter itself still respects 3x"
        );
        assert_eq!(account.stall().0, None, "uncharged resends never stall");
    }

    #[test]
    fn a_duplicated_first_initial_cuts_the_first_flight_at_zero() {
        // A known deviation, pinned so that fixing it is a visible change:
        // the first-flight cut falls at the client's second datagram *on the
        // wire*. With the first Initial duplicated that is the copy, which
        // lands with the original as the server's flight leaves, so an
        // amplifying server reads as a 0-byte first flight and 1-RTT.
        let probe = |wire: &mut Wire| {
            HandshakeScratch::default().run(
                ClientConfig::scanner(1362, SERVER, 3),
                server(
                    ServerBehavior::cloudflare_like(),
                    small_chain(),
                    KeyAlgorithm::EcdsaP256,
                ),
                wire,
                3,
            )
        };
        let clean = probe(&mut wire());
        assert_eq!(clean.classify(), HandshakeClass::Amplification);

        let mut duplicating = wire();
        duplicating.fault_a_to_b.duplicate_chance = 1.0;
        let out = probe(&mut duplicating);
        assert!(out.completed);
        assert!(out.fault_duplications > 0);
        assert_eq!(out.first_flight_wire, 0);
        assert!(out.total_server_wire >= clean.first_flight_wire);
        assert_eq!(out.classify(), HandshakeClass::OneRtt);
        // The server's own account is not fooled: it sent past 3x.
        assert!(out.amplification_excess > 0);
        assert_eq!(out.amplification_excess, clean.amplification_excess);
    }
}
