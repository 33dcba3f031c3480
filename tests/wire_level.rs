//! Wire-level integration: invariants checked on the actual bytes a server
//! emits, across the quic/tls/x509 crates.

use std::net::Ipv4Addr;

use quicert::netsim::{Datagram, Endpoint, SimDuration, SimTime};
use quicert::quic::frame::FrameRef;
use quicert::quic::packet::{parse_datagram_ref, PacketType, ParsedPacketRef};
use quicert::quic::{ClientConfig, ClientConn, ServerBehavior, ServerConfig, ServerConn};
use quicert::x509::{
    CertificateBuilder, CertificateChain, DistinguishedName, Extension, KeyAlgorithm,
    SignatureAlgorithm, SubjectPublicKeyInfo,
};

const SERVER_ADDR: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);

fn chain() -> CertificateChain {
    let inter_dn = DistinguishedName::ca("US", "Let's Encrypt", "R3");
    let root_dn = DistinguishedName::ca("US", "ISRG", "ISRG Root X1");
    let inter = CertificateBuilder::new(
        root_dn,
        inter_dn.clone(),
        SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa2048, 1),
        SignatureAlgorithm::Sha256WithRsa2048,
    )
    .build();
    let leaf = CertificateBuilder::new(
        inter_dn,
        DistinguishedName::cn("wire.example"),
        SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 2),
        SignatureAlgorithm::Sha256WithRsa2048,
    )
    .extension(Extension::SubjectAltNames(vec!["wire.example".into()]))
    .build();
    CertificateChain::new(leaf, vec![inter])
}

fn server(behavior: ServerBehavior) -> ServerConn {
    ServerConn::new(ServerConfig {
        behavior,
        chain: chain(),
        leaf_key: KeyAlgorithm::EcdsaP256,
        compression_support: vec![],
        resumption: None,
        seed: 404,
    })
}

fn parse(payload: &[u8]) -> Option<Vec<ParsedPacketRef<'_>>> {
    Some(parse_datagram_ref(payload)?.collect())
}

/// Bytes of PADDING frames in a packet.
fn padding_len(pkt: &ParsedPacketRef<'_>) -> usize {
    let padding = |f| match f {
        FrameRef::Padding { n } => n,
        _ => 0,
    };
    pkt.frames.clone().map(padding).sum()
}

/// Bytes of CRYPTO frame data (TLS payload) in a packet.
fn crypto_data_len(pkt: &ParsedPacketRef<'_>) -> usize {
    let data = |f| match f {
        FrameRef::Crypto { data, .. } => data.len(),
        _ => 0,
    };
    pkt.frames.clone().map(data).sum()
}

/// Drive one client Initial into the server, return the server's response
/// datagrams.
fn first_flight(behavior: ServerBehavior, initial_size: usize) -> Vec<Datagram> {
    let mut client = ClientConn::new(ClientConfig::scanner(initial_size, SERVER_ADDR, 5));
    let mut client_out = Vec::new();
    client.start(SimTime::ZERO, &mut client_out);
    assert_eq!(client_out.len(), 1);

    let mut srv = server(behavior);
    let mut server_out = Vec::new();
    srv.on_datagram(&client_out[0], SimTime::ZERO, &mut server_out);
    server_out
}

#[test]
fn client_initial_is_parseable_and_padded() {
    let mut client = ClientConn::new(ClientConfig::scanner(1357, SERVER_ADDR, 6));
    let mut out = Vec::new();
    client.start(SimTime::ZERO, &mut out);
    let dgram = &out[0];
    assert_eq!(dgram.payload_len(), 1357);
    let packets = parse(&dgram.payload).expect("well-formed datagram");
    assert_eq!(packets.len(), 1);
    assert_eq!(packets[0].ty, PacketType::Initial);
    assert!(padding_len(&packets[0]) > 0, "CH alone is well under 1357");
    assert_eq!(&packets[0].scid, client.scid());
}

#[test]
fn compliant_server_coalesces_and_pads_correctly() {
    let flights = first_flight(ServerBehavior::rfc_compliant(), 1362);
    assert!(!flights.is_empty());
    let first = parse(&flights[0].payload).expect("parseable");
    // Coalesced: the first datagram carries Initial + Handshake packets.
    assert_eq!(first[0].ty, PacketType::Initial);
    assert!(
        first.iter().any(|p| p.ty == PacketType::Handshake),
        "Initial and Handshake coalesce into one datagram"
    );
    // RFC 9000 §14.1: the ack-eliciting-Initial datagram is >= 1200 bytes.
    assert!(flights[0].payload_len() >= 1200);
    // The whole first flight respects the 3x budget on the wire.
    let total: usize = flights.iter().map(|d| d.payload_len()).sum();
    assert!(total <= 3 * 1362, "wire total {total}");
}

#[test]
fn cloudflare_behavior_emits_separate_padded_datagrams() {
    let flights = first_flight(ServerBehavior::cloudflare_like(), 1362);
    assert!(flights.len() >= 3, "ACK, SH, and handshake datagrams");
    // Datagram A: ACK-only Initial, padded although not ack-eliciting.
    let a = parse(&flights[0].payload).unwrap();
    assert_eq!(a.len(), 1, "no coalescing");
    assert_eq!(a[0].ty, PacketType::Initial);
    assert_eq!(crypto_data_len(&a[0]), 0, "first datagram is the bare ACK");
    assert!(padding_len(&a[0]) > 1000, "superfluous padding");
    // Datagram B: the ServerHello Initial, also padded.
    let b = parse(&flights[1].payload).unwrap();
    assert_eq!(b.len(), 1);
    assert!(crypto_data_len(&b[0]) > 0);
    // No Handshake packet shares a datagram with an Initial.
    for dgram in &flights {
        let packets = parse(&dgram.payload).unwrap();
        let kinds: std::collections::HashSet<_> = packets.iter().map(|p| p.ty).collect();
        assert!(kinds.len() == 1, "no coalescing anywhere");
    }
    // And the wire total exceeds the limit: the §4.1 amplification bug.
    let total: usize = flights.iter().map(|d| d.payload_len()).sum();
    assert!(total > 3 * 1362, "wire total {total} exceeds the limit");
}

#[test]
fn retry_flow_round_trips_on_the_wire() {
    let mut client = ClientConn::new(ClientConfig::scanner(1362, SERVER_ADDR, 8));
    let mut out = Vec::new();
    client.start(SimTime::ZERO, &mut out);
    let mut srv = server(ServerBehavior::retry_first());
    let mut retry_out = Vec::new();
    srv.on_datagram(&out[0], SimTime::ZERO, &mut retry_out);
    assert_eq!(retry_out.len(), 1);
    let retry = parse(&retry_out[0].payload).unwrap();
    assert_eq!(retry[0].ty, PacketType::Retry);
    assert!(!retry[0].token.is_empty());

    // The client resends its Initial with the token echoed.
    let mut second = Vec::new();
    let reply = retry_out[0].clone();
    client.on_datagram(
        &reply,
        SimTime::ZERO + SimDuration::from_millis(40),
        &mut second,
    );
    assert_eq!(second.len(), 1);
    let resent = parse(&second[0].payload).unwrap();
    assert_eq!(resent[0].ty, PacketType::Initial);
    assert_eq!(resent[0].token, retry[0].token);
}

#[test]
fn tls_flight_on_the_wire_contains_the_certificate_chain() {
    let flights = first_flight(ServerBehavior::rfc_compliant(), 1472);
    let mut crypto = 0usize;
    for dgram in &flights {
        for pkt in parse(&dgram.payload).unwrap() {
            crypto += crypto_data_len(&pkt);
        }
    }
    // The CRYPTO bytes must carry at least the whole chain plus the other
    // handshake messages.
    assert!(crypto > chain().total_der_len());
}
