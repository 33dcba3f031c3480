//! Corpus-driven parser robustness: every wire-facing parser fed
//! systematically mangled inputs — truncations, single-bit flips, byte
//! stomps (which turn length fields into overlong claims), and
//! hand-crafted overlong DER forms — must return a clean rejection
//! (`None` / `Err` / `Malformed`), never panic.
//!
//! The chaos campaign axis corrupts live datagrams, so every one of these
//! parsers sees attacker-grade garbage in ordinary scans; the CID-length
//! panic this suite's datagram corpus pins down was found exactly that
//! way. Valid seed inputs live in `tests/corpus/` so the mangling always
//! starts from structurally real bytes (mutations of valid inputs reach
//! far deeper than random noise). Regenerate them after an intentional
//! encoder change with:
//!
//! ```sh
//! QUICERT_BLESS=1 cargo test --test parser_corpus
//! ```

use std::fs;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use quicert::compress::{compress, decompress, Algorithm, CompressError};
use quicert::netsim::{Datagram, Endpoint, SimDuration, SimTime};
use quicert::quic::frame::FrameRef;
use quicert::quic::packet::{
    parse_datagram_ref, ConnectionId, Header, PacketType, ParsedPacketRef, AEAD_TAG_LEN,
};
use quicert::quic::{varint, ClientConfig, ClientConn, ServerBehavior, ServerConfig, ServerConn};
use quicert::session::{TicketConfig, TicketIssuer, TicketValidation, TICKET_LEN};
use quicert::tls::{
    client_hello, new_session_ticket, parse_compression_offers, parse_new_session_ticket,
    parse_psk_offer, parse_server_name, ClientHelloParams, PskOffer,
};
use quicert::x509::der::{parse_one, DerValue};
use quicert::x509::{
    CertificateBuilder, CertificateChain, DistinguishedName, KeyAlgorithm, SignatureAlgorithm,
    SubjectPublicKeyInfo,
};

const SEED: u64 = 0xC0_4E22;
const SNI: &str = "corpus.example";
const NOW_SECS: u64 = 9_000;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

// ------------------------------------------------------------ seeds --

fn ticket_issuer() -> TicketIssuer {
    TicketIssuer::new(0x5EED_57E4, TicketConfig::default())
}

fn seed_ticket_identity() -> Vec<u8> {
    ticket_issuer().issue(SNI, NOW_SECS - 120, 7)
}

fn seed_client_hello() -> Vec<u8> {
    client_hello(&ClientHelloParams {
        server_name: SNI.to_string(),
        compression: quicert::compress::Algorithm::ALL.to_vec(),
        psk: Some(PskOffer {
            identity: seed_ticket_identity(),
            obfuscated_age: 123_456,
        }),
        seed: SEED,
    })
}

fn seed_new_session_ticket() -> Vec<u8> {
    new_session_ticket(7_200, 0xA6E_ADD, &seed_ticket_identity(), SEED)
}

fn seed_certificate() -> quicert::x509::Certificate {
    CertificateBuilder::new(
        DistinguishedName::ca("US", "Corpus CA", "Corpus Root"),
        DistinguishedName::cn(SNI),
        SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 3),
        SignatureAlgorithm::Sha256WithRsa2048,
    )
    .build()
}

fn seed_certificate_der() -> Vec<u8> {
    seed_certificate().der().to_vec()
}

/// The first three datagrams of a handshake: the client's Initial, the
/// server's first flight datagram (coalesced Initial + Handshake, CRYPTO
/// heavy), and the client's padded acknowledgement of it (ACK-only Initial
/// + Handshake, then ~1,100 bytes of PADDING).
fn seed_handshake_datagrams() -> [Vec<u8>; 3] {
    let server_addr = Ipv4Addr::new(198, 51, 100, 44);
    let mut client = ClientConn::new(ClientConfig::scanner(1362, server_addr, SEED));
    let mut server = ServerConn::new(ServerConfig {
        behavior: ServerBehavior::rfc_compliant(),
        chain: CertificateChain::new(seed_certificate(), Vec::new()),
        leaf_key: KeyAlgorithm::EcdsaP256,
        compression_support: Vec::new(),
        resumption: None,
        seed: SEED,
    });
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let exchange = |endpoint: &mut dyn Endpoint, dgram: Option<&Datagram>, ms| {
        let mut out = Vec::new();
        match dgram {
            None => endpoint.start(at(ms), &mut out),
            Some(dgram) => endpoint.on_datagram(dgram, at(ms), &mut out),
        }
        out.swap_remove(0)
    };
    let initial = exchange(&mut client, None, 0);
    let flight = exchange(&mut server, Some(&initial), 10);
    let ack = exchange(&mut client, Some(&flight), 20);
    [initial.payload, flight.payload, ack.payload]
}

fn seed_initial_datagram() -> Vec<u8> {
    let [initial, _, _] = seed_handshake_datagrams();
    initial
}

/// One Initial packet whose payload is PADDING runs of every length around
/// the parser's word size, each ended by a PING, then a datagram's worth of
/// trailing padding: run boundaries at every offset within a word.
fn seed_padding_runs_datagram() -> Vec<u8> {
    let mut frames = Vec::new();
    for n in 0..=17 {
        frames.extend((n > 0).then_some(FrameRef::Padding { n }));
        frames.push(FrameRef::Ping);
    }
    frames.push(FrameRef::Padding { n: 1_201 });
    let cid = |seed| ConnectionId::from_seed(SEED ^ seed);
    let header = Header {
        ty: PacketType::Initial,
        dcid: &cid(1),
        scid: &cid(2),
        token: &[],
        number: 0,
    };
    let mut out = Vec::new();
    header.encode_into(&mut out, frames, 0);
    out
}

/// What each container of `compressed_container.bin` decompresses to, one
/// per container mode: bytes with nothing to find (stored), a short
/// repetition the 128-byte Huffman table would not pay for (LZ only), and
/// patternless text over a skewed sixteen-letter alphabet (few matches,
/// cheap literals: LZ + Huffman).
fn compression_inputs() -> [Vec<u8>; 3] {
    let stored = positions(0x57_02ED, 256, 48).into_iter().map(|b| b as u8);
    let letters = positions(0x7E_87, 16, 2_000).into_iter();
    [
        stored.collect(),
        b"corpus.example, corpus.example, corpus.example".to_vec(),
        letters.map(|i| b"eeeettaaoinshr d"[i]).collect(),
    ]
}

/// The three containers back to back, each behind a two-byte length, all
/// under the brotli profile so that matches reach into the dictionary.
fn seed_compressed_containers() -> Vec<u8> {
    let mut out = Vec::new();
    for input in compression_inputs() {
        let container = compress(Algorithm::Brotli, &input);
        out.extend_from_slice(&(container.len() as u16).to_be_bytes());
        out.extend_from_slice(&container);
    }
    out
}

/// Split a (possibly mangled) `compressed_container.bin` at its length
/// prefixes; a prefix that overruns the file ends the walk.
fn containers(mut bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while let Some((&[hi, lo], rest)) = bytes.split_first_chunk::<2>() {
        let Some(container) = rest.get(..usize::from(u16::from_be_bytes([hi, lo]))) else {
            break;
        };
        out.push(container);
        bytes = &rest[container.len()..];
    }
    out
}

/// Every corpus file: name on disk and the encoder that (re)generates it.
fn corpus_seeds() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("client_hello_psk.bin", seed_client_hello()),
        ("new_session_ticket.bin", seed_new_session_ticket()),
        ("ticket_identity.bin", seed_ticket_identity()),
        ("certificate.der", seed_certificate_der()),
        ("initial_datagram.bin", seed_initial_datagram()),
        ("server_flight_datagram.bin", {
            let [_, flight, _] = seed_handshake_datagrams();
            flight
        }),
        ("padded_ack_datagram.bin", {
            let [_, _, ack] = seed_handshake_datagrams();
            ack
        }),
        ("padding_runs_datagram.bin", seed_padding_runs_datagram()),
        ("compressed_container.bin", seed_compressed_containers()),
    ]
}

/// The corpus files holding whole QUIC datagrams.
const DATAGRAM_SEEDS: [&str; 4] = [
    "initial_datagram.bin",
    "server_flight_datagram.bin",
    "padded_ack_datagram.bin",
    "padding_runs_datagram.bin",
];

/// Load one corpus file, blessing it from the encoder when asked to.
fn corpus(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    if std::env::var_os("QUICERT_BLESS").is_some_and(|v| v != "0") {
        let (_, bytes) = corpus_seeds()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("known corpus seed");
        fs::create_dir_all(corpus_dir()).expect("create tests/corpus");
        fs::write(&path, &bytes).expect("write corpus seed");
        return bytes;
    }
    fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing corpus seed {} ({e}); run `QUICERT_BLESS=1 cargo test \
             --test parser_corpus` to generate it",
            path.display()
        )
    })
}

// -------------------------------------------------------- mutations --

/// Deterministic position sequence (splitmix-style; no RNG crate, no
/// wall-clock dependence, same corpus on every run).
fn positions(seed: u64, bound: usize, count: usize) -> Vec<usize> {
    let mut z = seed;
    (0..count)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) as usize % bound.max(1)
        })
        .collect()
}

/// Truncations (every length on short inputs, a spread on long ones),
/// single-bit flips, and 0x00/0xFF byte stomps — the stomps are what turn
/// interior length prefixes into overlong claims.
fn mutants(seed_bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let n = seed_bytes.len();
    let lengths: Vec<usize> = if n <= 64 {
        (0..n).collect()
    } else {
        (0..64).map(|i| i * n / 64).collect()
    };
    for len in lengths {
        out.push((format!("truncated to {len}"), seed_bytes[..len].to_vec()));
    }
    for bit in positions(0xB17F_11B5, n * 8, 192) {
        let mut m = seed_bytes.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit} flipped"), m));
    }
    for (i, pos) in positions(0x570_3B17, n, 96).into_iter().enumerate() {
        let mut m = seed_bytes.to_vec();
        m[pos] = if i % 2 == 0 { 0xFF } else { 0x00 };
        out.push((format!("byte {pos} stomped to {:#04x}", m[pos]), m));
    }
    out
}

/// Run one parser over the seed's whole mutant set; any panic fails with
/// the mutant that caused it. The parser's *value* is unconstrained — the
/// contract under mangled input is "reject cleanly", checked per-parser
/// below where the rejection is observable.
fn assert_no_panics(corpus_name: &str, seed_bytes: &[u8], parser: impl Fn(&[u8])) {
    for (what, mutant) in mutants(seed_bytes) {
        let result = catch_unwind(AssertUnwindSafe(|| parser(&mutant)));
        assert!(
            result.is_ok(),
            "{corpus_name}: parser panicked on {what} (len {})",
            mutant.len()
        );
    }
}

// ------------------------------------------------------------ tests --

#[test]
fn corpus_seeds_are_valid_inputs() {
    // The mangling below only means something if the unmangled corpus
    // actually parses — a stale or corrupt seed file degrades every other
    // test into noise, so pin validity first.
    let ch = corpus("client_hello_psk.bin");
    assert_eq!(parse_server_name(&ch).as_deref(), Some(SNI));
    let offer = parse_psk_offer(&ch).expect("seed ClientHello offers a PSK");
    assert_eq!(offer.identity.len(), TICKET_LEN);
    assert_eq!(
        parse_compression_offers(&ch).expect("seed offers compression"),
        quicert::compress::Algorithm::ALL.to_vec()
    );

    let nst = corpus("new_session_ticket.bin");
    let parsed = parse_new_session_ticket(&nst).expect("seed NST parses");
    assert_eq!(parsed.ticket, corpus("ticket_identity.bin"));

    assert!(ticket_issuer()
        .validate(&corpus("ticket_identity.bin"), SNI, NOW_SECS)
        .accepted());

    let der = corpus("certificate.der");
    let value = parse_one(&der).expect("seed certificate is valid DER");
    assert!(walk(&value) > 1, "certificate DER has nested structure");

    for name in DATAGRAM_SEEDS {
        assert!(
            parse_datagram_ref(&corpus(name)).is_some_and(|mut pkts| pkts.next().is_some()),
            "seed datagram {name} parses to packets"
        );
    }
    let crypto_data_len = |pkt: &ParsedPacketRef| -> usize {
        let data = |f| match f {
            FrameRef::Crypto { data, .. } => data.len(),
            _ => 0,
        };
        pkt.frames.clone().map(data).sum()
    };
    let padding_len = |pkt: &ParsedPacketRef| -> usize {
        let padding = |f| match f {
            FrameRef::Padding { n } => n,
            _ => 0,
        };
        pkt.frames.clone().map(padding).sum()
    };
    let flight = corpus("server_flight_datagram.bin");
    let flight: Vec<_> = parse_datagram_ref(&flight)
        .expect("checked above")
        .collect();
    assert_eq!(flight.len(), 2, "Initial and Handshake coalesce");
    assert!(flight.iter().all(|pkt| crypto_data_len(pkt) > 0));
    let ack = corpus("padded_ack_datagram.bin");
    let ack = parse_datagram_ref(&ack).expect("checked above").last();
    assert!(ack.is_some_and(|pkt| padding_len(&pkt) > 1_000));

    let compressed = corpus("compressed_container.bin");
    let containers = containers(&compressed);
    assert_eq!(containers.len(), 3);
    let dict = Algorithm::Brotli.dictionary();
    for ((mode, container), input) in (0u8..).zip(containers).zip(compression_inputs()) {
        assert_eq!(container[3], mode, "one container per mode, in order");
        assert_eq!(decompress(container, dict), Ok(input));
    }
}

/// Recursively walk a parsed DER value, counting nodes; `children()` on a
/// primitive or malformed constructed value must Err, not panic.
fn walk(value: &DerValue) -> usize {
    let mut nodes = 1;
    if value.is_constructed() {
        if let Ok(children) = value.children() {
            for child in &children {
                nodes += walk(child);
            }
        }
    }
    nodes
}

#[test]
fn client_hello_parsers_never_panic_on_mangled_corpus() {
    let ch = corpus("client_hello_psk.bin");
    assert_no_panics("client_hello_psk", &ch, |bytes| {
        let _ = parse_server_name(bytes);
        let _ = parse_psk_offer(bytes);
        let _ = parse_compression_offers(bytes);
    });
}

/// Verbatim copy of the compress_certificate parser the QUIC server kept
/// before it moved into `quicert_tls::messages` over the shared
/// ClientHello extension walk.
fn reference_parse_compression_offers(ch: &[u8]) -> Option<Vec<Algorithm>> {
    if ch.len() < 4 || ch[0] != 1 {
        return None;
    }
    let body = &ch[4..];
    let mut pos = 2 + 32; // legacy_version + random
    let sid_len = *body.get(pos)? as usize;
    pos += 1 + sid_len;
    let cs_len = u16::from_be_bytes([*body.get(pos)?, *body.get(pos + 1)?]) as usize;
    pos += 2 + cs_len;
    let comp_len = *body.get(pos)? as usize;
    pos += 1 + comp_len;
    let ext_total = u16::from_be_bytes([*body.get(pos)?, *body.get(pos + 1)?]) as usize;
    pos += 2;
    let end = pos + ext_total;
    while pos + 4 <= end.min(body.len()) {
        let ty = u16::from_be_bytes([body[pos], body[pos + 1]]);
        let len = u16::from_be_bytes([body[pos + 2], body[pos + 3]]) as usize;
        pos += 4;
        if ty == 27 {
            let data = body.get(pos..pos + len)?;
            let list_len = *data.first()? as usize;
            let list = data.get(1..1 + list_len)?;
            let mut algs = Vec::new();
            for pair in list.chunks_exact(2) {
                let cp = u16::from_be_bytes([pair[0], pair[1]]);
                if let Some(alg) = Algorithm::from_code_point(cp) {
                    algs.push(alg);
                }
            }
            return Some(algs);
        }
        pos += len;
    }
    None
}

#[test]
fn compression_offer_parser_equals_the_old_quic_walker_on_every_mutant() {
    let seed = corpus("client_hello_psk.bin");
    let mut accepted = 0;
    for (what, bytes) in mutants(&seed)
        .into_iter()
        .chain([("unmangled".into(), seed.clone())])
    {
        let reference = reference_parse_compression_offers(&bytes);
        assert_eq!(parse_compression_offers(&bytes), reference, "{what}");
        accepted += usize::from(reference.is_some());
    }
    assert!(
        accepted > 250,
        "only {accepted} ClientHellos offered compression"
    );
}

#[test]
fn corpus_files_are_what_their_encoders_write() {
    // A seed file the encoders no longer write would keep the suite green
    // while fuzzing bytes no endpoint sends.
    for (name, encoded) in corpus_seeds() {
        assert!(
            corpus(name) == encoded,
            "tests/corpus/{name} differs from its encoder's output; re-bless \
             only after an intentional encoder change"
        );
    }
}

#[test]
fn new_session_ticket_parser_never_panics_on_mangled_corpus() {
    let nst = corpus("new_session_ticket.bin");
    assert_no_panics("new_session_ticket", &nst, |bytes| {
        let _ = parse_new_session_ticket(bytes);
    });
}

#[test]
fn ticket_decryption_rejects_every_tampered_identity() {
    let identity = corpus("ticket_identity.bin");
    let issuer = ticket_issuer();
    // Beyond not panicking, ticket validation has a checkable rejection
    // contract: any single tampered bit breaks the epoch, the MAC, or the
    // SNI binding — a mangled ticket must never validate.
    for (what, mutant) in mutants(&identity) {
        if mutant == identity {
            continue; // a truncation-to-full-length no-op cannot occur, but stay explicit
        }
        let verdict = catch_unwind(AssertUnwindSafe(|| issuer.validate(&mutant, SNI, NOW_SECS)))
            .unwrap_or_else(|_| panic!("ticket validation panicked on {what}"));
        assert!(
            !verdict.accepted(),
            "tampered ticket accepted ({what}): {verdict:?}"
        );
    }
    // A foreign STEK (tampered server key) decrypts to garbage: Malformed.
    let foreign = TicketIssuer::new(0xBAD_5EED, TicketConfig::default());
    assert_eq!(
        foreign.validate(&identity, SNI, NOW_SECS),
        TicketValidation::Malformed
    );
    // Binding survives only for the sealed SNI.
    assert!(!issuer
        .validate(&identity, "other.example", NOW_SECS)
        .accepted());
}

#[test]
fn x509_der_parser_never_panics_on_mangled_corpus() {
    let der = corpus("certificate.der");
    assert_no_panics("certificate", &der, |bytes| {
        if let Ok(value) = parse_one(bytes) {
            walk(&value);
        }
    });
}

#[test]
fn x509_der_parser_rejects_overlong_length_claims() {
    // Hand-crafted overlong forms: length octets claiming far more content
    // than the buffer holds, in every DER long-form width. These are the
    // shapes a corrupted length byte produces on the wire.
    let overlong: &[&[u8]] = &[
        &[0x30, 0x81, 0xFF],
        &[0x30, 0x82, 0xFF, 0xFF, 0x00],
        &[0x30, 0x83, 0xFF, 0xFF, 0xFF, 0x00, 0x00],
        &[0x30, 0x84, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00],
        &[0x30, 0x84, 0x7F, 0xFF, 0xFF, 0xFF],
        // Reserved/indefinite length forms.
        &[0x30, 0x80, 0x00, 0x00],
        &[0x30, 0xFF, 0x00],
    ];
    for bytes in overlong {
        let result = catch_unwind(AssertUnwindSafe(|| parse_one(bytes)));
        let parsed = result.unwrap_or_else(|_| panic!("DER parser panicked on {bytes:02x?}"));
        assert!(parsed.is_err(), "overlong DER accepted: {bytes:02x?}");
    }
}

#[test]
fn certificate_decompressor_never_panics_on_mangled_corpus() {
    let compressed = corpus("compressed_container.bin");
    let dict = Algorithm::Brotli.dictionary();
    assert_no_panics("compressed_container", &compressed, |bytes| {
        for container in containers(bytes) {
            // With and without the dictionary the encoder used: match
            // distances then point outside the decode window.
            let _ = decompress(container, dict);
            let _ = decompress(container, &[]);
        }
    });
}

/// `1 << 46` as the container's LEB128 varint.
const HUGE_LEN: [u8; 7] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];

#[test]
fn decompressor_refuses_a_declared_output_length_bomb() {
    // Eleven bytes that used to abort the process: an LZ container whose
    // header claims 64 TiB of output, which the decoder reserved up front.
    let bomb = [b"QC\x01\x01".as_slice(), &HUGE_LEN].concat();
    assert_eq!(decompress(&bomb, &[]), Err(CompressError::BadStream));
    // The largest length RFC 8879 can carry is still only a claim: nothing
    // is reserved for it, and the empty stream behind it is truncated.
    let claim = [b"QC\x01\x01".as_slice(), &[0xFF, 0xFF, 0xFF, 0x07]].concat();
    assert_eq!(decompress(&claim, &[]), Err(CompressError::BadVarint));
}

#[test]
fn decompressor_refuses_a_declared_huffman_stream_length_bomb() {
    // Same abort one layer down: a Huffman container with a modest output
    // length whose LZ stream length, read after the code-length table,
    // claims 64 TiB.
    let table = [0x11u8; 128];
    let bomb = [b"QC\x01\x02\x0a".as_slice(), &table, &HUGE_LEN].concat();
    assert_eq!(decompress(&bomb, &[]), Err(CompressError::BadStream));
    // A claim inside the 24-bit bound, but longer than the bits present
    // could ever decode to, is a truncated bitstream — not a reservation.
    let claim = [
        b"QC\x01\x02\x0a".as_slice(),
        &table,
        &[0xFF, 0xFF, 0x3F, 0xAA],
    ]
    .concat();
    assert_eq!(decompress(&claim, &[]), Err(CompressError::BadBits));
}

#[test]
fn datagram_parser_never_panics_on_mangled_corpus() {
    for name in DATAGRAM_SEEDS {
        assert_no_panics(name, &corpus(name), |bytes| {
            if let Some(packets) = parse_datagram_ref(bytes) {
                packets.flat_map(|pkt| pkt.frames).for_each(drop);
            }
        });
    }
}

// --------------------------------- the byte-wise reference parser --

/// The frame decoder that shipped before the word-wise one, verbatim but
/// for what it returns: frames collected up front, PADDING consumed a
/// byte at a time.
fn reference_decode_all(payload: &[u8]) -> Option<Vec<FrameRef<'_>>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        let ty = payload[pos];
        match ty {
            0x00 => {
                let start = pos;
                while pos < payload.len() && payload[pos] == 0x00 {
                    pos += 1;
                }
                frames.push(FrameRef::Padding { n: pos - start });
            }
            0x01 => {
                pos += 1;
                frames.push(FrameRef::Ping);
            }
            0x02 | 0x03 => {
                pos += 1;
                let largest = varint::read(payload, &mut pos)?;
                let delay = varint::read(payload, &mut pos)?;
                let range_count = varint::read(payload, &mut pos)?;
                let first_range = varint::read(payload, &mut pos)?;
                for _ in 0..range_count {
                    varint::read(payload, &mut pos)?;
                    varint::read(payload, &mut pos)?;
                }
                if ty == 0x03 {
                    for _ in 0..3 {
                        varint::read(payload, &mut pos)?;
                    }
                }
                frames.push(FrameRef::Ack {
                    largest,
                    delay,
                    first_range,
                });
            }
            0x06 => {
                pos += 1;
                let offset = varint::read(payload, &mut pos)?;
                let len = varint::read(payload, &mut pos)? as usize;
                let data = payload.get(pos..pos + len)?;
                pos += len;
                frames.push(FrameRef::Crypto { offset, data });
            }
            0x1C | 0x1D => {
                pos += 1;
                let error_code = varint::read(payload, &mut pos)?;
                if ty == 0x1C {
                    varint::read(payload, &mut pos)?;
                }
                let reason_len = varint::read(payload, &mut pos)? as usize;
                pos = pos.checked_add(reason_len)?;
                if pos > payload.len() {
                    return None;
                }
                frames.push(FrameRef::ConnectionClose { error_code });
            }
            _ => return None,
        }
    }
    Some(frames)
}

/// What the reference parser reads of one packet: every header field the
/// wire carries, the frames, and the bytes the packet took.
#[derive(Debug, PartialEq)]
struct ReferencePacket<'a> {
    ty: PacketType,
    dcid: ConnectionId,
    scid: ConnectionId,
    token: &'a [u8],
    number: u64,
    frames: Vec<FrameRef<'a>>,
    wire_len: usize,
}

/// A packet of `parse_datagram_ref`, as the reference parser reads it.
fn record(pkt: ParsedPacketRef<'_>) -> ReferencePacket<'_> {
    ReferencePacket {
        ty: pkt.ty,
        dcid: pkt.dcid,
        scid: pkt.scid,
        token: pkt.token,
        number: pkt.number,
        frames: pkt.frames.collect(),
        wire_len: pkt.wire_len,
    }
}

/// The datagram parser that shipped before `parse_datagram_ref` (over
/// [`reference_decode_all`]), verbatim but for what it returns.
fn reference_parse_datagram(payload: &[u8]) -> Option<Vec<ReferencePacket<'_>>> {
    let mut packets = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        let start = pos;
        let first = payload[pos];
        if first & 0x80 == 0 {
            if payload.len() - pos < 1 + 8 + 2 + AEAD_TAG_LEN {
                return None;
            }
            let dcid = ConnectionId::new(&payload[pos + 1..pos + 9]);
            let number = u16::from_be_bytes([payload[pos + 9], payload[pos + 10]]) as u64;
            let body = &payload[pos + 11..payload.len() - AEAD_TAG_LEN];
            let frames = reference_decode_all(body)?;
            packets.push(ReferencePacket {
                ty: PacketType::OneRtt,
                dcid,
                scid: ConnectionId::default(),
                token: &[],
                number,
                frames,
                wire_len: payload.len() - start,
            });
            break;
        }
        pos += 1;
        let type_bits = (first >> 4) & 0b11;
        if payload.len() < pos + 4 {
            return None;
        }
        pos += 4;
        let dcid_len = *payload.get(pos)? as usize;
        if dcid_len > ConnectionId::MAX_LEN {
            return None;
        }
        pos += 1;
        let dcid = ConnectionId::new(payload.get(pos..pos + dcid_len)?);
        pos += dcid_len;
        let scid_len = *payload.get(pos)? as usize;
        if scid_len > ConnectionId::MAX_LEN {
            return None;
        }
        pos += 1;
        let scid = ConnectionId::new(payload.get(pos..pos + scid_len)?);
        pos += scid_len;

        match type_bits {
            0b11 => {
                if payload.len() < pos + AEAD_TAG_LEN {
                    return None;
                }
                let token = &payload[pos..payload.len() - AEAD_TAG_LEN];
                packets.push(ReferencePacket {
                    ty: PacketType::Retry,
                    dcid,
                    scid,
                    token,
                    number: 0,
                    frames: Vec::new(),
                    wire_len: payload.len() - start,
                });
                break;
            }
            0b00 | 0b10 => {
                let ty = if type_bits == 0b00 {
                    PacketType::Initial
                } else {
                    PacketType::Handshake
                };
                let token = if ty == PacketType::Initial {
                    let tlen = varint::read(payload, &mut pos)? as usize;
                    let t = payload.get(pos..pos + tlen)?;
                    pos += tlen;
                    t
                } else {
                    &[]
                };
                let length = varint::read(payload, &mut pos)? as usize;
                if length < 2 + AEAD_TAG_LEN || payload.len() < pos + length {
                    return None;
                }
                let number = u16::from_be_bytes([payload[pos], payload[pos + 1]]) as u64;
                let body = &payload[pos + 2..pos + length - AEAD_TAG_LEN];
                let frames = reference_decode_all(body)?;
                pos += length;
                packets.push(ReferencePacket {
                    ty,
                    dcid,
                    scid,
                    token,
                    number,
                    frames,
                    wire_len: pos - start,
                });
            }
            _ => return None,
        }
    }
    Some(packets)
}

#[test]
fn borrowed_datagram_parser_equals_the_byte_wise_reference_on_the_whole_corpus() {
    // Every seed, valid or not a datagram at all, and every mutant of it:
    // the word-wise parser must accept exactly what the byte-wise one
    // accepted and see the same packets, field for field and frame for
    // frame.
    let mut accepted = 0;
    for (name, _) in corpus_seeds() {
        let seed = corpus(name);
        let mutants = mutants(&seed).into_iter();
        for (what, bytes) in mutants.chain([("unmangled".to_string(), seed.clone())]) {
            let reference = reference_parse_datagram(&bytes);
            let parsed = parse_datagram_ref(&bytes).map(|packets| packets.map(record).collect());
            assert_eq!(parsed, reference, "{name}: {what}");
            accepted += usize::from(reference.is_some());
        }
    }
    assert!(accepted > 400, "only {accepted} inputs parsed at all");
}
