//! The QUIC client state machine (scanner / browser model).
//!
//! The client sends a ClientHello in an Initial datagram padded to a
//! configurable size — the paper's central independent variable (Fig 3
//! sweeps it from 1200 to 1472 bytes) — then acknowledges server flights,
//! reassembles the TLS handshake, and finishes with its Handshake-level
//! Finished message.

use std::net::Ipv4Addr;

use quicert_compress::Algorithm;
use quicert_netsim::{Datagram, Endpoint, SimDuration, SimTime};
use quicert_tls::{
    client_hello_into, parse_new_session_ticket, server_hello_accepted_psk, NewSessionTicket,
    PskOffer,
};

use crate::frame::FrameRef;
use crate::packet::{parse_datagram_ref, ConnectionId, Header, PacketType, QUIC_MIN_INITIAL_SIZE};
use crate::reassembly::{handshake_messages, CryptoStream};

/// Probe timeout of the first Initial; a retransmitted one waits twice as long.
const PTO: SimDuration = SimDuration::from_secs(1);

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// UDP payload size of the Initial datagram (1200..=1472 in the sweep;
    /// browsers use 1250/1357, see Table 1).
    pub initial_size: usize,
    /// Compression algorithms offered via RFC 8879.
    pub compression: Vec<Algorithm>,
    /// SNI server name.
    pub server_name: String,
    /// Source address of the client (spoofed for telescope experiments).
    pub src: Ipv4Addr,
    /// Destination server address.
    pub dst: Ipv4Addr,
    /// Whether to acknowledge server data and complete the handshake.
    /// `false` models a spoofing attacker (or a loss-blinded victim path).
    pub send_acks: bool,
    /// Retransmit the Initial this many times in total when nothing is
    /// heard back (models scanner retries; 1 = one shot).
    pub max_initial_transmissions: u32,
    /// Session-ticket offer for a resumed handshake. `None` (the default)
    /// sends the classic cold ClientHello byte-for-byte.
    pub psk: Option<PskOffer>,
    /// Deterministic seed.
    pub seed: u64,
}

impl ClientConfig {
    /// A scanner client with the given Initial size.
    pub fn scanner(initial_size: usize, dst: Ipv4Addr, seed: u64) -> Self {
        ClientConfig {
            initial_size,
            compression: vec![],
            server_name: "scan.invalid".into(),
            src: Ipv4Addr::new(203, 0, 113, 7),
            dst,
            send_acks: true,
            max_initial_transmissions: 2,
            psk: None,
            seed,
        }
    }
}

/// The client connection endpoint.
#[derive(Debug)]
pub struct ClientConn {
    config: ClientConfig,
    scid: ConnectionId,
    dcid: ConnectionId,
    server_cid: Option<ConnectionId>,
    token: Vec<u8>,
    initial_pn: u64,
    handshake_pn: u64,
    // Reassembly buffers per encryption level.
    initial_rx: CryptoStream,
    handshake_rx: CryptoStream,
    onertt_rx: CryptoStream,
    largest_initial_rx: Option<u64>,
    largest_handshake_rx: Option<u64>,
    got_server_hello: bool,
    handshake_messages_done: bool,
    fin_sent: bool,
    /// When the client had the full server handshake (handshake complete
    /// from the client's perspective).
    pub completed_at: Option<SimTime>,
    /// When the client first had the whole certificate flight verified
    /// (Certificate/CompressedCertificate + CertificateVerify on the cold
    /// path; the accepted PSK on a resumed one). Feeds the handshake phase
    /// timeline.
    pub cert_flight_at: Option<SimTime>,
    /// Whether the server accepted our PSK offer (resumed handshake).
    pub psk_accepted: bool,
    /// A NewSessionTicket the server issued post-handshake, if any.
    pub ticket: Option<NewSessionTicket>,
    /// Whether a Retry was received.
    pub saw_retry: bool,
    /// UDP payload bytes of the first Initial datagram sent.
    pub first_datagram_len: usize,
    transmissions: u32,
    pto_deadline: Option<SimTime>,
}

impl ClientConn {
    /// Create a client endpoint.
    pub fn new(config: ClientConfig) -> Self {
        let scid = ConnectionId::from_seed(config.seed ^ 0xC11E);
        let dcid = ConnectionId::from_seed(config.seed ^ 0xD1D1);
        ClientConn {
            config,
            scid,
            dcid,
            server_cid: None,
            token: Vec::new(),
            initial_pn: 0,
            handshake_pn: 0,
            initial_rx: CryptoStream::default(),
            handshake_rx: CryptoStream::default(),
            onertt_rx: CryptoStream::default(),
            largest_initial_rx: None,
            largest_handshake_rx: None,
            got_server_hello: false,
            handshake_messages_done: false,
            fin_sent: false,
            completed_at: None,
            cert_flight_at: None,
            psk_accepted: false,
            ticket: None,
            saw_retry: false,
            first_datagram_len: 0,
            transmissions: 0,
            pto_deadline: None,
        }
    }

    /// The client's source connection ID.
    pub fn scid(&self) -> &ConnectionId {
        &self.scid
    }

    /// Whether the handshake completed.
    pub(crate) fn handshake_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Number of Initial transmissions so far (1 = no PTO retransmission).
    pub fn transmissions(&self) -> u32 {
        self.transmissions
    }

    fn initial_datagram(&mut self) -> Vec<u8> {
        let mut ch = Vec::with_capacity(512);
        client_hello_into(
            &mut ch,
            &self.config.server_name,
            &self.config.compression,
            self.config.psk.as_ref(),
            self.config.seed,
        );
        let header = Header {
            ty: PacketType::Initial,
            dcid: &self.dcid,
            scid: &self.scid,
            token: &self.token,
            number: self.initial_pn,
        };
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &ch,
        }];
        let unpadded = header.encoded_len(frames);
        let size = self.config.initial_size.max(unpadded);
        let mut dgram = Vec::with_capacity(size);
        header.encode_into(&mut dgram, frames, size - unpadded);
        self.initial_pn += 1;
        dgram
    }

    fn send(&mut self, payload: Vec<u8>, out: &mut Vec<Datagram>) {
        if self.first_datagram_len == 0 {
            self.first_datagram_len = payload.len();
        }
        out.push(Datagram::new(
            self.config.src,
            self.config.dst,
            50_443,
            443,
            payload,
        ));
    }

    fn check_progress(&mut self, now: SimTime) {
        if !self.got_server_hello {
            let server_hello =
                handshake_messages(self.initial_rx.contiguous()).find(|msg| msg[0] == 2);
            if let Some(msg) = server_hello {
                self.got_server_hello = true;
                // A resumed handshake is signalled by the ServerHello's
                // pre_shared_key extension (only meaningful when we
                // actually offered one).
                self.psk_accepted = self.config.psk.is_some() && server_hello_accepted_psk(msg);
            }
        }
        if self.got_server_hello && !self.handshake_messages_done {
            // Cold path: EncryptedExtensions(8), Certificate(11)/
            // Compressed(25), CertificateVerify(15), Finished(20). A
            // resumed flight omits certificate authentication entirely, so
            // EE + Finished complete it.
            let (mut extensions, mut certificate, mut verify, mut finished) =
                (false, false, false, false);
            for msg in handshake_messages(self.handshake_rx.contiguous()) {
                match msg[0] {
                    8 => extensions = true,
                    11 | 25 => certificate = true,
                    15 => verify = true,
                    20 => finished = true,
                    _ => {}
                }
            }
            let certs_done = self.psk_accepted || (certificate && verify);
            if certs_done && self.cert_flight_at.is_none() {
                self.cert_flight_at = Some(now);
            }
            if extensions && certs_done && finished {
                self.handshake_messages_done = true;
                if self.completed_at.is_none() {
                    self.completed_at = Some(now);
                }
            }
        }
        if self.ticket.is_none() {
            self.ticket =
                handshake_messages(self.onertt_rx.contiguous()).find_map(parse_new_session_ticket);
        }
    }

    /// The datagram acknowledging everything received so far (plus our
    /// Finished once the server's flight is complete); empty when there is
    /// nothing to acknowledge.
    fn build_acks(&mut self) -> Vec<u8> {
        /// Client Finished: 4-byte header + 32-byte verify data.
        const FINISHED: [u8; 36] = {
            let mut fin = [0xF1; 36];
            (fin[0], fin[1], fin[2], fin[3]) = (20, 0, 0, 32);
            fin
        };
        let server_cid = self.server_cid.as_ref().unwrap_or(&self.dcid);
        let send_fin = self.handshake_messages_done && !self.fin_sent;
        // One packet per encryption level that has something to
        // acknowledge; the Handshake one also carries our Finished.
        let packet = |ty, number, largest: Option<u64>, fin: bool| {
            largest.map(|largest| {
                let header = Header {
                    ty,
                    dcid: server_cid,
                    scid: &self.scid,
                    token: &[],
                    number,
                };
                let ack = FrameRef::Ack {
                    largest,
                    delay: 0,
                    first_range: largest,
                };
                let fin = fin.then_some(FrameRef::Crypto {
                    offset: 0,
                    data: &FINISHED,
                });
                (header, [Some(ack), fin])
            })
        };
        let packets = [
            packet(
                PacketType::Initial,
                self.initial_pn,
                self.largest_initial_rx,
                false,
            ),
            packet(
                PacketType::Handshake,
                self.handshake_pn,
                self.largest_handshake_rx,
                send_fin,
            ),
        ];
        let unpadded: usize = packets
            .iter()
            .flatten()
            .map(|(header, frames)| header.encoded_len(frames.iter().flatten().copied()))
            .sum();
        // Client datagrams containing Initial packets must be padded
        // (RFC 9000 §14.1), inside the envelope of the last packet.
        let size = if packets[0].is_some() {
            QUIC_MIN_INITIAL_SIZE.max(unpadded)
        } else {
            unpadded
        };
        let mut dgram = Vec::with_capacity(size);
        let last = packets.iter().flatten().count().saturating_sub(1);
        for (i, (header, frames)) in packets.iter().flatten().enumerate() {
            let padding = if i == last { size - unpadded } else { 0 };
            header.encode_into(&mut dgram, frames.iter().flatten().copied(), padding);
        }
        let [sent_initial, sent_handshake] = packets.map(|packet| packet.is_some());
        self.initial_pn += u64::from(sent_initial);
        self.handshake_pn += u64::from(sent_handshake);
        self.fin_sent |= sent_handshake && send_fin;
        dgram
    }
}

impl Endpoint for ClientConn {
    fn start(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        let dgram = self.initial_datagram();
        self.transmissions = 1;
        // A timer that may not retransmit would only fire into the void.
        if self.config.max_initial_transmissions > 1 {
            self.pto_deadline = Some(now + PTO);
        }
        self.send(dgram, out);
    }

    fn on_datagram(&mut self, dgram: &Datagram, now: SimTime, out: &mut Vec<Datagram>) {
        let Some(packets) = parse_datagram_ref(&dgram.payload) else {
            return;
        };
        let mut saw_ack_eliciting = false;
        for pkt in packets {
            match pkt.ty {
                PacketType::Retry => {
                    if !self.saw_retry {
                        self.saw_retry = true;
                        self.token = pkt.token.to_vec();
                        self.server_cid = Some(pkt.scid.clone());
                        // Restart with the token; the Retry resets the
                        // connection state.
                        self.initial_rx.clear();
                        self.largest_initial_rx = None;
                        self.dcid = pkt.scid;
                        if self.config.send_acks {
                            let dgram = self.initial_datagram();
                            self.send(dgram, out);
                        }
                    }
                }
                PacketType::Initial | PacketType::Handshake => {
                    let (largest_rx, rx) = if pkt.ty == PacketType::Initial {
                        self.server_cid = Some(pkt.scid);
                        (&mut self.largest_initial_rx, &mut self.initial_rx)
                    } else {
                        (&mut self.largest_handshake_rx, &mut self.handshake_rx)
                    };
                    *largest_rx = Some(largest_rx.map_or(pkt.number, |l| l.max(pkt.number)));
                    for frame in pkt.frames {
                        if let FrameRef::Crypto { offset, data } = frame {
                            rx.insert(offset, data);
                        }
                        saw_ack_eliciting |= frame.is_ack_eliciting();
                    }
                }
                PacketType::OneRtt => {
                    // Post-handshake messages (NewSessionTicket). Recorded
                    // but never acknowledged at our abstraction level, so
                    // the cold wire exchange is unchanged when no ticket
                    // arrives.
                    for frame in pkt.frames {
                        if let FrameRef::Crypto { offset, data } = frame {
                            self.onertt_rx.insert(offset, data);
                        }
                    }
                }
            }
        }
        self.check_progress(now);
        // Server responded: stop Initial retransmissions.
        self.pto_deadline = None;
        if self.config.send_acks && saw_ack_eliciting {
            let ack = self.build_acks();
            if !ack.is_empty() {
                self.send(ack, out);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Datagram>) {
        self.pto_deadline = None;
        if self.handshake_complete() {
            return;
        }
        if self.transmissions < self.config.max_initial_transmissions {
            self.transmissions += 1;
            let dgram = self.initial_datagram();
            self.pto_deadline = Some(now + PTO.saturating_mul(2));
            self.send(dgram, out);
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        if self.handshake_complete() {
            return None;
        }
        self.pto_deadline
    }

    fn is_done(&self) -> bool {
        self.handshake_complete() && self.fin_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_datagram_is_padded_to_configured_size() {
        for size in [1200usize, 1250, 1357, 1472] {
            let mut client = ClientConn::new(ClientConfig::scanner(
                size,
                Ipv4Addr::new(198, 51, 100, 1),
                9,
            ));
            let dgram = client.initial_datagram();
            assert_eq!(dgram.len(), size);
            let parsed: Vec<_> = parse_datagram_ref(&dgram).unwrap().collect();
            assert_eq!(parsed.len(), 1);
            assert_eq!(parsed[0].ty, PacketType::Initial);
        }
    }

    #[test]
    fn message_type_parser_handles_partial_messages() {
        let mut stream = vec![8u8, 0, 0, 2, 0xAA, 0xBB]; // complete EE
        stream.extend_from_slice(&[11, 0, 0, 100, 1, 2, 3]); // truncated CERT
        let types: Vec<u8> = handshake_messages(&stream).map(|m| m[0]).collect();
        assert_eq!(types, vec![8]);
    }

    #[test]
    fn a_spoofing_client_sends_once_and_stays_silent() {
        // The spoofing attacker / ZMap probe of §4.3: a client that never
        // acknowledges and never retransmits.
        let mut config = ClientConfig::scanner(1252, Ipv4Addr::new(198, 51, 100, 1), 3);
        config.send_acks = false;
        config.max_initial_transmissions = 1;
        let mut client = ClientConn::new(config);
        let mut out = Vec::new();
        client.start(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload_len(), 1252);
        assert_eq!(client.next_timer(), None, "no PTO to fire into the void");
        // A reflected server Initial is read, never answered.
        let scid = ConnectionId::from_seed(5);
        let header = Header {
            ty: PacketType::Initial,
            dcid: client.scid(),
            scid: &scid,
            token: &[],
            number: 0,
        };
        let mut payload = Vec::new();
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &[2, 0, 0, 0],
        }];
        header.encode_into(&mut payload, frames, 0);
        let reply = out[0].reply_with(payload);
        let mut out2 = Vec::new();
        client.on_datagram(&reply, SimTime::ZERO, &mut out2);
        assert!(out2.is_empty());
        assert_eq!(client.next_timer(), None);
        assert_eq!(client.transmissions(), 1);
    }
}
