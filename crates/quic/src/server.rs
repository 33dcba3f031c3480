//! The QUIC server state machine and its behaviour profiles.
//!
//! [`ServerBehavior`] captures the deployment-level choices the paper found
//! to matter: packet coalescing, padding placement and accounting, Retry
//! usage, retransmission policy, and which historical anti-amplification
//! policy is enforced. Four named profiles reproduce the populations of
//! §4.1/§4.3:
//!
//! * [`ServerBehavior::rfc_compliant`] — coalesces Initial+Handshake and
//!   counts every byte (incl. padding and resends) against the 3× limit;
//! * [`ServerBehavior::cloudflare_like`] — no coalescing: a padded ACK-only
//!   Initial datagram, a padded ServerHello datagram, and separate
//!   Handshake datagrams, with the padding *not* charged to the budget;
//! * [`ServerBehavior::mvfst_like`] — retransmissions toward unverified
//!   clients are not charged to the budget and repeat up to a configurable
//!   count (pre-disclosure: large; post-disclosure: small);
//! * [`ServerBehavior::retry_first`] — always-on address validation.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use quicert_compress::Algorithm;
use quicert_netsim::{Datagram, Endpoint, Outbox, SimDuration, SimTime};
use quicert_session::ResumptionHost;
use quicert_tls::{
    new_session_ticket_into, parse_compression_offers, parse_psk_offer, parse_server_name,
    ServerFlight, ServerFlightParams,
};
use quicert_x509::{CertificateChain, KeyAlgorithm};

use crate::amplification::{AmplificationBudget, LimitPolicy};
use crate::frame::FrameRef;
use crate::packet::{
    overhead, parse_datagram_ref, ConnectionId, Header, PacketType, Packets, ParsedDatagram,
    QUIC_MIN_INITIAL_SIZE,
};
use crate::reassembly::{handshake_messages, CryptoStream};

/// Deployment-level behaviour knobs of a QUIC server.
#[derive(Debug, Clone)]
pub struct ServerBehavior {
    /// Profile name for reports.
    pub name: &'static str,
    /// Coalesce Initial and Handshake packets into shared datagrams. A
    /// server that does not also sends an immediate ACK-only Initial before
    /// the ServerHello (the Cloudflare latency optimisation of Appendix B),
    /// each alone in a datagram padded to `MAX_UDP_PAYLOAD` although
    /// an ACK-only Initial needs no padding.
    pub coalesce: bool,
    /// Whether PADDING bytes are charged against the amplification budget.
    pub count_padding: bool,
    /// Whether retransmissions are charged against the amplification budget.
    pub count_resends: bool,
    /// The anti-amplification policy in force (Table 3 ablation point).
    pub limit_policy: LimitPolicy,
    /// Maximum number of transmissions of the handshake flight toward an
    /// unvalidated client (1 = never retransmit).
    pub max_transmissions: u32,
    /// Initial probe timeout before the first retransmission; doubles each
    /// time (RFC 9002-style backoff).
    pub pto: SimDuration,
    /// Demand address validation with a Retry before answering.
    pub retry_first: bool,
}

impl ServerBehavior {
    /// Ceiling on the exponentially backed-off probe timeout. RFC 9002
    /// leaves the cap to implementations; ours bounds the doubling so a
    /// server under sustained loss keeps probing at a sane cadence instead
    /// of backing off toward the idle deadline (and, with
    /// `saturating_mul`, toward the 584-year saturation point).
    pub(crate) const MAX_PTO: SimDuration = SimDuration::from_secs(8);

    /// Largest UDP payload a server emits.
    pub(crate) const MAX_UDP_PAYLOAD: usize = 1252;

    /// A fully RFC 9000/9002-compliant server.
    pub fn rfc_compliant() -> Self {
        ServerBehavior {
            name: "rfc-compliant",
            coalesce: true,
            count_padding: true,
            count_resends: true,
            limit_policy: LimitPolicy::RFC9000,
            max_transmissions: 3,
            pto: SimDuration::from_millis(500),
            retry_first: false,
        }
    }

    /// The Cloudflare deployment behaviour of §4.1: no coalescing, an
    /// immediate padded ACK datagram, padding not counted against the
    /// budget.
    pub fn cloudflare_like() -> Self {
        ServerBehavior {
            name: "cloudflare-like",
            coalesce: false,
            count_padding: false,
            count_resends: true,
            limit_policy: LimitPolicy::RFC9000,
            max_transmissions: 3,
            pto: SimDuration::from_millis(500),
            retry_first: false,
        }
    }

    /// The mvfst deployment behaviour of §4.3: resends toward unverified
    /// clients are not charged against the 3× budget and repeat
    /// `transmissions` times in total. Pre-disclosure Instagram/WhatsApp
    /// PoPs showed ~8 transmissions; the post-disclosure fleet ~3.
    pub fn mvfst_like(transmissions: u32) -> Self {
        ServerBehavior {
            name: "mvfst-like",
            coalesce: true,
            count_padding: true,
            count_resends: false,
            limit_policy: LimitPolicy::RFC9000,
            max_transmissions: transmissions,
            pto: SimDuration::from_millis(350),
            retry_first: false,
        }
    }

    /// An always-on Retry deployment (a-priori DoS protection, rare in the
    /// wild: ~0.07% of services).
    pub fn retry_first() -> Self {
        ServerBehavior {
            name: "retry-first",
            retry_first: true,
            ..ServerBehavior::rfc_compliant()
        }
    }
}

/// Full server configuration: behaviour + TLS material.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Behaviour profile.
    pub behavior: ServerBehavior,
    /// Certificate chain presented to clients.
    pub chain: CertificateChain,
    /// Leaf key algorithm (sizes CertificateVerify).
    pub leaf_key: KeyAlgorithm,
    /// Compression algorithms the server supports (RFC 8879).
    pub compression_support: Vec<Algorithm>,
    /// Session-resumption participation: ticket issuance/validation state
    /// plus the server's wall clock. `None` (the default everywhere outside
    /// warm scans) disables resumption and reproduces the pre-subsystem
    /// wire exchange byte-for-byte.
    pub resumption: Option<ResumptionHost>,
    /// Deterministic seed.
    pub seed: u64,
}

/// Byte-accounting statistics exported after a handshake; the bytes sent
/// against the 3× limit are on the server's amplification account.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// CRYPTO frame data bytes sent (TLS payload), including resends.
    pub tls_sent: usize,
    /// PADDING frame bytes sent.
    pub padding_sent: usize,
    /// Number of transmissions of the handshake flight (1 = no resend).
    pub flight_transmissions: u32,
    /// Encoded certificate message length as sent (0 on a resumed flight:
    /// no certificate goes on the wire at all).
    pub certificate_message_len: usize,
    /// Whether a NewSessionTicket was issued after completion.
    pub issued_ticket: bool,
}

/// One packet of the datagram plan: what to serialise, not the bytes.
#[derive(Debug, Clone, Copy)]
struct PlannedPacket {
    ty: PacketType,
    /// Packet number; a retransmission overwrites it with a fresh one.
    number: u64,
    /// The client Initial packet number an ACK frame acknowledges, if the
    /// packet carries one.
    ack: Option<u64>,
    /// The bytes `start..end` of this encryption level's CRYPTO buffer the
    /// packet's CRYPTO frame carries (at stream offset `start`), if any.
    crypto: Option<(usize, usize)>,
}

/// One datagram of the plan: `count` consecutive packets from `first`.
#[derive(Debug, Clone, Copy)]
struct PlannedDatagram {
    first: usize,
    count: usize,
    pad_to: Option<usize>,
}

/// A planned datagram waiting for the amplification budget.
#[derive(Debug, Clone, Copy)]
struct Queued {
    datagram: usize,
    /// `true` when this datagram is a retransmission.
    is_resend: bool,
}

/// Addressing of our replies, learned from the first datagram received.
#[derive(Debug, Clone, Copy)]
struct ReplyPath {
    local: Ipv4Addr,
    peer: Ipv4Addr,
    local_port: u16,
    peer_port: u16,
}

/// The buffers a [`ServerConn`] writes its flight and plan into and
/// reassembles the ClientHello in, handed from one connection to the next
/// by a reused handshake scratch; only their capacity carries over.
#[derive(Debug, Default)]
pub(crate) struct ServerBuffers {
    // CRYPTO reassembly of the client's Initial stream (the ClientHello).
    ch: CryptoStream,
    // CRYPTO send buffers per encryption level: the flight's ServerHello
    // (Initial) and the rest of it (Handshake); a NewSessionTicket.
    flight: ServerFlight,
    onertt_crypto: Vec<u8>,
    packets: Vec<PlannedPacket>,
    datagrams: Vec<PlannedDatagram>,
    queue: VecDeque<Queued>,
    retry_token: Vec<u8>,
    /// The packets and frames of the datagram being received.
    parsed: ParsedDatagram,
}

impl ServerBuffers {
    /// Empty every buffer, keeping its capacity. Each field is named, so a
    /// new buffer does not compile until it is cleared here.
    fn clear(&mut self) {
        let ServerBuffers {
            ch,
            flight,
            onertt_crypto,
            packets,
            datagrams,
            queue,
            retry_token,
            // Overwritten by every parse.
            parsed: _,
        } = self;
        ch.clear();
        // The flight's two lengths are rewritten by every build.
        flight.initial_crypto.clear();
        flight.handshake_crypto.clear();
        onertt_crypto.clear();
        packets.clear();
        datagrams.clear();
        queue.clear();
        retry_token.clear();
    }
}

/// A QUIC server connection endpoint.
///
/// The handshake flight exists once, as the two CRYPTO buffers TLS wrote,
/// plus a *datagram plan* saying which byte range travels in which packet
/// of which datagram. Sending sizes a planned datagram arithmetically,
/// passes it through the amplification account, and only then serialises
/// it — straight into the buffer that goes on the wire. A retransmission
/// is the same plan under fresh packet numbers.
#[derive(Debug)]
pub struct ServerConn {
    config: ServerConfig,
    budget: AmplificationBudget,
    scid: ConnectionId,
    client_cid: ConnectionId,
    reply_path: Option<ReplyPath>,
    buf: ServerBuffers,
    flight_built: bool,
    initial_pn: u64,
    handshake_pn: u64,
    onertt_pn: u64,
    largest_client_initial_pn: Option<u64>,
    retry_sent: bool,
    /// Set once a client Handshake-level packet arrives (address validated,
    /// RFC 9001 §4.1.2) or a valid Retry token is echoed.
    complete: bool,
    /// A NewSessionTicket has been queued (at most one per connection).
    ticket_issued: bool,
    transmissions: u32,
    pto_deadline: Option<SimTime>,
    current_pto: SimDuration,
    stats: ServerStats,
}

impl ServerConn {
    /// Create a server endpoint for one connection.
    pub fn new(config: ServerConfig) -> Self {
        ServerConn::reusing(config, ServerBuffers::default())
    }

    /// Create a server endpoint in `buffers`, emptied: the one place every
    /// field of a connection is set.
    pub(crate) fn reusing(config: ServerConfig, mut buf: ServerBuffers) -> Self {
        buf.clear();
        let scid = ConnectionId::from_seed(config.seed ^ 0x5E5E);
        let current_pto = config.behavior.pto;
        let policy = config.behavior.limit_policy;
        ServerConn {
            config,
            budget: AmplificationBudget::new(policy),
            scid,
            client_cid: ConnectionId::default(),
            reply_path: None,
            buf,
            flight_built: false,
            initial_pn: 0,
            handshake_pn: 0,
            onertt_pn: 0,
            largest_client_initial_pn: None,
            retry_sent: false,
            complete: false,
            ticket_issued: false,
            transmissions: 0,
            pto_deadline: None,
            current_pto,
            stats: ServerStats::default(),
        }
    }

    /// This connection's buffers, for the next connection to reuse.
    pub(crate) fn into_buffers(self) -> ServerBuffers {
        self.buf
    }

    /// Final statistics (valid at any time).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The probe timeout currently in force (doubles per retransmission,
    /// capped at [`ServerBehavior::MAX_PTO`]).
    #[cfg(test)]
    pub(crate) fn current_pto(&self) -> SimDuration {
        self.current_pto
    }

    /// The anti-amplification account: what was charged and sent before
    /// validation, the stall, and the excess over the 3× limit.
    pub(crate) fn amplification(&self) -> &AmplificationBudget {
        &self.budget
    }

    /// The server's source connection ID.
    pub fn scid(&self) -> &ConnectionId {
        &self.scid
    }

    /// Negotiate a compression algorithm: first client offer we support.
    fn negotiate_compression(&self, ch: &[u8]) -> Option<Algorithm> {
        let offers = parse_compression_offers(ch)?;
        offers
            .into_iter()
            .find(|alg| self.config.compression_support.contains(alg))
    }

    /// Whether the ClientHello's PSK offer names a ticket this server
    /// accepts (right STEK epoch, right SNI, within lifetime).
    fn accepts_psk(&self, ch: &[u8]) -> bool {
        let Some(host) = &self.config.resumption else {
            return false;
        };
        let Some(offer) = parse_psk_offer(ch) else {
            return false;
        };
        let sni = parse_server_name(ch).unwrap_or_default();
        host.issuer
            .validate(&offer.identity, sni, host.now_secs)
            .accepted()
    }

    /// The header a planned packet is serialised under.
    fn header(&self, packet: &PlannedPacket) -> Header<'_> {
        Header {
            ty: packet.ty,
            dcid: &self.client_cid,
            scid: &self.scid,
            token: &[],
            number: packet.number,
        }
    }

    /// The frames a planned packet carries, CRYPTO data borrowed from its
    /// encryption level's buffer.
    fn frames(&self, packet: &PlannedPacket) -> impl Iterator<Item = FrameRef<'_>> {
        let ack = packet.ack.map(|largest| FrameRef::Ack {
            largest,
            delay: 0,
            first_range: 0,
        });
        let buffer = match packet.ty {
            PacketType::Initial => &self.buf.flight.initial_crypto,
            PacketType::OneRtt => &self.buf.onertt_crypto,
            _ => &self.buf.flight.handshake_crypto,
        };
        let crypto = packet.crypto.map(|(start, end)| FrameRef::Crypto {
            offset: start as u64,
            data: &buffer[start..end],
        });
        ack.into_iter().chain(crypto)
    }

    /// Wire size of a planned packet, computed arithmetically.
    fn planned_len(&self, packet: &PlannedPacket) -> usize {
        self.header(packet).encoded_len(self.frames(packet))
    }

    /// Append a packet, under the next packet number of its level, to the
    /// plan's last datagram and return its wire size.
    fn plan_packet(
        &mut self,
        ty: PacketType,
        ack: Option<u64>,
        crypto: Option<(usize, usize)>,
    ) -> usize {
        let packet = PlannedPacket {
            ty,
            number: self.next_pn(ty),
            ack,
            crypto,
        };
        self.buf.packets.push(packet);
        if let Some(last) = self.buf.datagrams.last_mut() {
            last.count += 1;
        }
        self.planned_len(&packet)
    }

    /// Open a new datagram in the plan.
    fn plan_datagram(&mut self, pad_to: Option<usize>) {
        self.buf.datagrams.push(PlannedDatagram {
            first: self.buf.packets.len(),
            count: 0,
            pad_to,
        });
    }

    /// Build the TLS flight answering the reassembled ClientHello and plan
    /// its datagrams.
    fn build_flight(&mut self) {
        let ch = self.buf.ch.contiguous();
        if self.accepts_psk(ch) {
            // Resumed: ServerHello(+pre_shared_key), EE, Finished — the
            // certificate chain never touches the wire.
            self.buf.flight.build_resumed_into(self.config.seed);
        } else {
            let compression = self.negotiate_compression(ch);
            self.buf.flight.build_into(&ServerFlightParams {
                chain: &self.config.chain,
                leaf_key: self.config.leaf_key,
                compression,
                seed: self.config.seed,
            });
        }
        self.stats.certificate_message_len = self.buf.flight.certificate_message_len;

        let coalesce = self.config.behavior.coalesce;
        let max_udp = ServerBehavior::MAX_UDP_PAYLOAD;
        let hs_len = self.buf.flight.handshake_crypto.len();
        let hs_overhead = overhead(PacketType::Handshake, &self.client_cid, &self.scid, 0);
        let expected = hs_len / max_udp.saturating_sub(hs_overhead).max(1) + 3;
        self.buf.packets.reserve(expected);
        self.buf.datagrams.reserve(expected);
        self.buf.queue.reserve(expected);

        let ack = Some(self.largest_client_initial_pn.unwrap_or(0));
        let server_hello = Some((0, self.buf.flight.initial_crypto.len()));
        // Either both frames in one Initial packet, or an ACK-only Initial
        // and a ServerHello Initial, each alone in a datagram padded to the
        // largest payload (the ACK although it needs no padding).
        let initials: &[_] = if coalesce {
            &[(ack, server_hello, QUIC_MIN_INITIAL_SIZE)]
        } else {
            &[(ack, None, max_udp), (None, server_hello, max_udp)]
        };
        // Wire bytes planned into the last datagram so far.
        let mut used = 0;
        for &(ack, crypto, pad_to) in initials {
            self.plan_datagram(Some(pad_to));
            used = self.plan_packet(PacketType::Initial, ack, crypto);
        }

        // Handshake-level CRYPTO, chunked into packets / datagrams: into
        // the last open datagram while it has room (when coalescing), into
        // fresh unpadded ones otherwise.
        let mut offset = 0usize;
        while offset < hs_len {
            let space = max_udp.saturating_sub(used);
            let room = if coalesce && space > hs_overhead + 32 {
                space
            } else {
                self.plan_datagram(None);
                used = 0;
                max_udp
            };
            let take = (room - hs_overhead).min(hs_len - offset);
            used += self.plan_packet(PacketType::Handshake, None, Some((offset, offset + take)));
            offset += take;
        }
        self.flight_built = true;
    }

    /// The next packet number of `ty`'s packet number space.
    fn next_pn(&mut self, ty: PacketType) -> u64 {
        let next = match ty {
            PacketType::Initial => &mut self.initial_pn,
            PacketType::OneRtt => &mut self.onertt_pn,
            _ => &mut self.handshake_pn,
        };
        let pn = *next;
        *next += 1;
        pn
    }

    /// Queue every datagram of the flight; a retransmission first gives
    /// every packet a fresh number. Renumbering the plan in place is sound
    /// because `on_timer` empties the queue before it retransmits, so no
    /// queued datagram still needs the old numbers.
    fn enqueue_flight(&mut self, is_resend: bool) {
        debug_assert!(
            !self.ticket_issued,
            "the flight is never resent once complete"
        );
        if is_resend {
            for i in 0..self.buf.packets.len() {
                self.buf.packets[i].number = self.next_pn(self.buf.packets[i].ty);
            }
        }
        self.buf
            .queue
            .extend((0..self.buf.datagrams.len()).map(|datagram| Queued {
                datagram,
                is_resend,
            }));
        self.transmissions += 1;
        self.stats.flight_transmissions = self.transmissions;
    }

    fn try_send(&mut self, now: SimTime, out: &mut Outbox) {
        let Some(reply) = self.reply_path else {
            return;
        };
        while let Some(&Queued {
            datagram,
            is_resend,
        }) = self.buf.queue.front()
        {
            let PlannedDatagram {
                first,
                count,
                pad_to,
            } = self.buf.datagrams[datagram];
            let packets = &self.buf.packets[first..first + count];
            let unpadded: usize = packets.iter().map(|p| self.planned_len(p)).sum();
            let wire_len = pad_to.map_or(unpadded, |target| target.max(unpadded));
            let padding = wire_len - unpadded;
            let mut charged = wire_len;
            if !self.config.behavior.count_padding {
                charged -= padding;
            }
            if is_resend && !self.config.behavior.count_resends {
                charged = 0;
            }
            if !self.budget.send(now, wire_len, charged, count) {
                break;
            }
            // Padding goes inside the last packet's AEAD envelope.
            let mut wire = out.buffer(wire_len);
            for (i, packet) in packets.iter().enumerate() {
                let padding = if i + 1 == count { padding } else { 0 };
                self.header(packet)
                    .encode_into(&mut wire, self.frames(packet), padding);
            }
            let tls: usize = packets
                .iter()
                .filter_map(|p| p.crypto.map(|(start, end)| end - start))
                .sum();
            self.buf.queue.pop_front();
            self.stats.padding_sent += padding;
            self.stats.tls_sent += tls;
            out.push(reply.datagram(wire));
        }
        // Arm the retransmission timer while unacknowledged data is out.
        if !self.complete && self.transmissions > 0 && self.pto_deadline.is_none() {
            self.pto_deadline = Some(now + self.current_pto);
        }
    }

    /// Queue a NewSessionTicket (1-RTT level) after a completed handshake,
    /// when this server participates in resumption. At most one per
    /// connection; never on the plain (resumption-free) configuration, so
    /// the classic wire exchange is untouched.
    fn maybe_issue_ticket(&mut self) {
        if self.ticket_issued || !self.complete {
            return;
        }
        let Some(host) = &self.config.resumption else {
            return;
        };
        if !host.issue_tickets {
            return;
        }
        let seed = self.config.seed;
        let sni = parse_server_name(self.buf.ch.contiguous()).unwrap_or_default();
        let identity = host.issuer.issue(sni, host.now_secs, seed);
        let lifetime = host.issuer.config.lifetime_secs.min(u32::MAX as u64) as u32;
        let age_add = (seed ^ (seed >> 32)) as u32;
        new_session_ticket_into(
            &mut self.buf.onertt_crypto,
            lifetime,
            age_add,
            &identity,
            seed,
        );
        self.plan_datagram(None);
        let ticket = Some((0, self.buf.onertt_crypto.len()));
        self.plan_packet(PacketType::OneRtt, None, ticket);
        self.buf.queue.push_back(Queued {
            datagram: self.buf.datagrams.len() - 1,
            is_resend: false,
        });
        self.ticket_issued = true;
        self.stats.issued_ticket = true;
    }

    /// Write this connection's 48-byte Retry token into `retry_token`.
    fn make_retry_token(&mut self) {
        let mut z = self.config.seed ^ 0x0072_6574_7279;
        self.buf.retry_token.clear();
        self.buf.retry_token.extend((0..48).map(|_| {
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z >> 24) as u8
        }));
    }
}

impl ReplyPath {
    fn datagram(self, payload: Vec<u8>) -> Datagram {
        Datagram::new(
            self.local,
            self.peer,
            self.local_port,
            self.peer_port,
            payload,
        )
    }
}

impl ServerConn {
    /// Act on the packets of one received datagram, replying on `reply`.
    fn receive(&mut self, packets: Packets<'_>, reply: ReplyPath, now: SimTime, out: &mut Outbox) {
        for pkt in packets {
            match pkt.ty {
                PacketType::Initial => {
                    self.largest_client_initial_pn = Some(
                        self.largest_client_initial_pn
                            .map_or(pkt.number, |l| l.max(pkt.number)),
                    );
                    if self.client_cid.is_empty() {
                        self.client_cid = pkt.scid;
                    }
                    let mut saw_crypto = false;
                    for frame in pkt.frames {
                        if let FrameRef::Crypto { offset, data } = frame {
                            self.buf.ch.insert(offset, data);
                            saw_crypto = true;
                        }
                    }
                    if saw_crypto && !self.flight_built {
                        if self.config.behavior.retry_first
                            && !self.retry_sent
                            && pkt.token.is_empty()
                        {
                            // Demand address validation.
                            self.make_retry_token();
                            let retry = Header {
                                ty: PacketType::Retry,
                                dcid: &self.client_cid,
                                scid: &self.scid,
                                token: &self.buf.retry_token,
                                number: 0,
                            };
                            let mut wire = out.buffer(retry.encoded_len([]));
                            retry.encode_into(&mut wire, [], 0);
                            let sent = self.budget.send(now, wire.len(), wire.len(), 1);
                            debug_assert!(sent, "no policy refuses a first small datagram");
                            self.retry_sent = true;
                            out.push(reply.datagram(wire));
                            continue;
                        }
                        if self.config.behavior.retry_first
                            && self.retry_sent
                            && pkt.token == self.buf.retry_token
                        {
                            // Token echo proves the address.
                            self.budget.validate();
                        }
                        if is_complete_handshake_message(self.buf.ch.contiguous()) {
                            self.build_flight();
                            self.enqueue_flight(false);
                        }
                    }
                }
                PacketType::Handshake => {
                    // Any Handshake-level packet from the client validates
                    // its address (it proves receipt of our keys).
                    self.budget.validate();
                    if pkt
                        .frames
                        .into_iter()
                        .any(|f| matches!(f, FrameRef::Crypto { .. }))
                    {
                        // The client's Finished: handshake confirmed.
                        self.complete = true;
                        self.pto_deadline = None;
                    }
                    self.maybe_issue_ticket();
                }
                _ => {}
            }
        }
    }
}

impl Endpoint for ServerConn {
    fn on_datagram(&mut self, dgram: &Datagram, now: SimTime, out: &mut Outbox) {
        self.budget.on_receive(dgram.payload_len());
        let reply = *self.reply_path.get_or_insert(ReplyPath {
            local: dgram.dst,
            peer: dgram.src,
            local_port: dgram.dst_port,
            peer_port: dgram.src_port,
        });
        // Lent out of `self` while its packets borrow it.
        let mut parsed = std::mem::take(&mut self.buf.parsed);
        if let Some(packets) = parse_datagram_ref(&dgram.payload, &mut parsed) {
            self.receive(packets, reply, now, out);
            self.try_send(now, out);
        }
        self.buf.parsed = parsed;
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        self.pto_deadline = None;
        if self.complete || !self.flight_built {
            return;
        }
        if self.transmissions >= self.config.behavior.max_transmissions {
            // Give up; connection will idle out.
            return;
        }
        // Exponential backoff (capped) and retransmit the whole flight.
        // Anything still queued from the previous transmission is
        // superseded (and would otherwise wedge the queue behind the
        // amplification limit).
        self.current_pto = self
            .current_pto
            .saturating_mul(2)
            .min(ServerBehavior::MAX_PTO);
        self.buf.queue.clear();
        self.enqueue_flight(true);
        self.try_send(now, out);
        if self.pto_deadline.is_none()
            && self.transmissions < self.config.behavior.max_transmissions
        {
            self.pto_deadline = Some(now + self.current_pto);
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        if self.complete {
            return None;
        }
        self.pto_deadline
    }

    fn is_done(&self) -> bool {
        self.complete
            || (self.flight_built
                && self.buf.queue.is_empty()
                && self.transmissions >= self.config.behavior.max_transmissions)
    }
}

/// Whether `buf` starts with one complete TLS handshake message.
pub(crate) fn is_complete_handshake_message(buf: &[u8]) -> bool {
    handshake_messages(buf).next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_tls::client_hello_into;

    #[test]
    fn handshake_message_completeness() {
        let mut ch = Vec::new();
        client_hello_into(&mut ch, "a.example", &[], None, 1);
        assert!(is_complete_handshake_message(&ch));
        assert!(!is_complete_handshake_message(&ch[..ch.len() - 1]));
        assert!(!is_complete_handshake_message(&ch[..3]));
    }

    #[test]
    fn behavior_profiles_differ_in_the_documented_ways() {
        let rfc = ServerBehavior::rfc_compliant();
        let cf = ServerBehavior::cloudflare_like();
        let mv = ServerBehavior::mvfst_like(8);
        let retry = ServerBehavior::retry_first();
        assert!(rfc.coalesce && rfc.count_padding && rfc.count_resends && !rfc.retry_first);
        assert!(!cf.coalesce && !cf.count_padding);
        assert!(!mv.count_resends && mv.max_transmissions == 8);
        assert!(retry.retry_first);
    }
}
