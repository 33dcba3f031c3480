//! TLS 1.3 handshake message encoders.
//!
//! Each function returns a full handshake message: a one-byte type, a
//! three-byte length, and the body (RFC 8446 §4). Sizes track the real
//! protocol; contents that would be cryptographic are deterministic filler.

use quicert_compress::Algorithm;
use quicert_x509::CertificateChain;

/// TLS handshake message types (RFC 8446 §4, RFC 8879 §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum HandshakeType {
    /// ClientHello
    ClientHello = 1,
    /// ServerHello
    ServerHello = 2,
    /// NewSessionTicket (post-handshake, RFC 8446 §4.6.1)
    NewSessionTicket = 4,
    /// EncryptedExtensions
    EncryptedExtensions = 8,
    /// Certificate
    Certificate = 11,
    /// CertificateVerify
    CertificateVerify = 15,
    /// Finished
    Finished = 20,
    /// CompressedCertificate (RFC 8879)
    CompressedCertificate = 25,
}

fn fill(seed: u64, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        let mut z = seed
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        *b = (z >> 32) as u8;
    }
}

/// Append `n` bytes of deterministic filler to `out`.
fn fill_into(out: &mut Vec<u8>, seed: u64, n: usize) {
    let at = out.len();
    out.resize(at + n, 0);
    fill(seed, &mut out[at..]);
}

/// Append a block prefixed by its own `N`-byte big-endian length: reserve
/// the length, let `body` append the content, then back-patch. TLS lengths
/// are fixed-width, so nothing shifts.
fn length_prefixed<const N: usize>(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; N]);
    body(out);
    let len = out.len() - at - N;
    debug_assert!(N >= 8 || len < 1 << (8 * N));
    out[at..at + N].copy_from_slice(&len.to_be_bytes()[8 - N..]);
}

/// Append a handshake message: type, `u24` length, and whatever `body`
/// appends.
fn handshake_message(out: &mut Vec<u8>, ty: HandshakeType, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(ty as u8);
    length_prefixed::<3>(out, body);
}

/// Append an extension: type, `u16` length, and whatever `data` appends.
fn extension(out: &mut Vec<u8>, ty: u16, data: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&ty.to_be_bytes());
    length_prefixed::<2>(out, data);
}

fn u24(v: usize) -> [u8; 3] {
    debug_assert!(v < 1 << 24);
    [(v >> 16) as u8, (v >> 8) as u8, v as u8]
}

fn u16be(v: usize) -> [u8; 2] {
    debug_assert!(v < 1 << 16);
    [(v >> 8) as u8, v as u8]
}

// Extension type code points.
const EXT_SERVER_NAME: u16 = 0;
const EXT_SUPPORTED_GROUPS: u16 = 10;
const EXT_ALPN: u16 = 16;
const EXT_SIGNATURE_ALGORITHMS: u16 = 13;
const EXT_SUPPORTED_VERSIONS: u16 = 43;
const EXT_KEY_SHARE: u16 = 51;
const EXT_QUIC_TRANSPORT_PARAMS: u16 = 0x0039;
/// RFC 8879 compress_certificate extension.
pub(crate) const EXT_COMPRESS_CERTIFICATE: u16 = 27;
/// RFC 8446 pre_shared_key extension (resumption offers/acceptance).
pub(crate) const EXT_PRE_SHARED_KEY: u16 = 41;

/// PSK binder length for the SHA-256 suites.
const PSK_BINDER_LEN: usize = 32;

/// A pre-shared-key offer carried in a ClientHello (RFC 8446 §4.2.11):
/// one ticket identity plus its obfuscated age.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PskOffer {
    /// Opaque ticket identity as issued by the server.
    pub identity: Vec<u8>,
    /// Ticket age in milliseconds, obfuscated with `ticket_age_add`.
    pub obfuscated_age: u32,
}

/// Parameters of a ClientHello.
#[derive(Debug, Clone)]
pub struct ClientHelloParams {
    /// SNI host name.
    pub server_name: String,
    /// Offered certificate compression algorithms (empty = extension
    /// omitted).
    pub compression: Vec<Algorithm>,
    /// Session-ticket offer; `None` encodes byte-for-byte the classic
    /// (cold) ClientHello.
    pub psk: Option<PskOffer>,
    /// Deterministic seed for random fields.
    pub seed: u64,
}

/// Encode a ClientHello handshake message.
pub fn client_hello(params: &ClientHelloParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    client_hello_into(
        &mut out,
        &params.server_name,
        &params.compression,
        params.psk.as_ref(),
        params.seed,
    );
    out
}

/// Append a ClientHello handshake message to `out`, from borrowed
/// parameters (see [`ClientHelloParams`] for their meaning).
pub fn client_hello_into(
    out: &mut Vec<u8>,
    server_name: &str,
    compression: &[Algorithm],
    psk: Option<&PskOffer>,
    seed: u64,
) {
    handshake_message(out, HandshakeType::ClientHello, |out| {
        out.extend_from_slice(&[0x03, 0x03]); // legacy_version TLS 1.2
        fill_into(out, seed, 32); // random
        out.push(0); // legacy_session_id: QUIC clients send empty.
        out.extend_from_slice(&u16be(6)); // cipher_suites: the three TLS 1.3 suites.
        out.extend_from_slice(&[0x13, 0x01, 0x13, 0x02, 0x13, 0x03]);
        out.extend_from_slice(&[0x01, 0x00]); // legacy_compression_methods: null only.
        length_prefixed::<2>(out, |out| {
            // server_name: list(2) + type(1) + len(2) + name.
            extension(out, EXT_SERVER_NAME, |out| {
                length_prefixed::<2>(out, |out| {
                    out.push(0);
                    length_prefixed::<2>(out, |out| out.extend_from_slice(server_name.as_bytes()));
                });
            });
            // supported_versions: TLS 1.3 only.
            extension(out, EXT_SUPPORTED_VERSIONS, |out| {
                out.extend_from_slice(&[0x02, 0x03, 0x04])
            });
            // supported_groups: x25519, P-256, P-384.
            extension(out, EXT_SUPPORTED_GROUPS, |out| {
                out.extend_from_slice(&[0x00, 0x06, 0x00, 0x1D, 0x00, 0x17, 0x00, 0x18])
            });
            // signature_algorithms: the common nine.
            extension(out, EXT_SIGNATURE_ALGORITHMS, |out| {
                length_prefixed::<2>(out, |out| {
                    for alg in [
                        0x0403u16, 0x0804, 0x0401, 0x0503, 0x0805, 0x0501, 0x0806, 0x0601, 0x0201,
                    ] {
                        out.extend_from_slice(&alg.to_be_bytes());
                    }
                });
            });
            // key_share: one x25519 share.
            extension(out, EXT_KEY_SHARE, |out| {
                length_prefixed::<2>(out, |out| {
                    out.extend_from_slice(&[0x00, 0x1D]);
                    length_prefixed::<2>(out, |out| {
                        fill_into(out, seed ^ 0x4B45_5953_4841_5245, 32)
                    });
                });
            });
            // ALPN: h3.
            extension(out, EXT_ALPN, |out| {
                out.extend_from_slice(&[0x00, 0x03, 0x02, b'h', b'3'])
            });
            // psk_key_exchange_modes: psk_dhe_ke.
            extension(out, 45, |out| out.extend_from_slice(&[0x01, 0x01]));
            // status_request: OCSP stapling.
            extension(out, 5, |out| {
                out.extend_from_slice(&[0x01, 0x00, 0x00, 0x00, 0x00])
            });
            // QUIC transport parameters (opaque, typical ~60 bytes).
            extension(out, EXT_QUIC_TRANSPORT_PARAMS, |out| {
                fill_into(out, seed ^ 0x7061_7261, 58)
            });
            // compress_certificate (RFC 8879), only if offered.
            if !compression.is_empty() {
                extension(out, EXT_COMPRESS_CERTIFICATE, |out| {
                    out.push((compression.len() * 2) as u8);
                    for alg in compression {
                        out.extend_from_slice(&alg.code_point().to_be_bytes());
                    }
                });
            }
            // pre_shared_key (RFC 8446 §4.2.11): must be the last extension.
            if let Some(psk) = psk {
                extension(out, EXT_PRE_SHARED_KEY, |out| {
                    // identities: one entry = identity(2+len) + obfuscated_age(4).
                    length_prefixed::<2>(out, |out| {
                        length_prefixed::<2>(out, |out| out.extend_from_slice(&psk.identity));
                        out.extend_from_slice(&psk.obfuscated_age.to_be_bytes());
                    });
                    // binders: one binder = 1-byte length + HMAC (deterministic filler).
                    length_prefixed::<2>(out, |out| {
                        out.push(PSK_BINDER_LEN as u8);
                        fill_into(out, seed ^ 0x7073_6B62_6E64, PSK_BINDER_LEN);
                    });
                });
            }
        });
    });
}

/// Encode a ServerHello handshake message.
pub fn server_hello(seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    server_hello_into(&mut out, seed, false);
    out
}

/// Encode a ServerHello that accepts a PSK offer: the classic ServerHello
/// plus a pre_shared_key extension selecting identity 0. This is the only
/// wire-visible difference between a cold and a resumed ServerHello, and
/// what [`server_hello_accepted_psk`] detects on the client side.
pub(crate) fn server_hello_resumed(seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    server_hello_into(&mut out, seed, true);
    out
}

fn server_hello_into(out: &mut Vec<u8>, seed: u64, accept_psk: bool) {
    handshake_message(out, HandshakeType::ServerHello, |out| {
        out.extend_from_slice(&[0x03, 0x03]);
        fill_into(out, seed ^ 0x5348_4C4F, 32); // random
        out.push(0); // echo empty session id
        out.extend_from_slice(&[0x13, 0x01]); // TLS_AES_128_GCM_SHA256
        out.push(0); // null compression
        length_prefixed::<2>(out, |out| {
            extension(out, EXT_SUPPORTED_VERSIONS, |out| {
                out.extend_from_slice(&[0x03, 0x04])
            });
            extension(out, EXT_KEY_SHARE, |out| {
                out.extend_from_slice(&[0x00, 0x1D]);
                length_prefixed::<2>(out, |out| fill_into(out, seed ^ 0x4B45_5953, 32));
            });
            if accept_psk {
                // selected_identity 0
                extension(out, EXT_PRE_SHARED_KEY, |out| {
                    out.extend_from_slice(&[0x00, 0x00])
                });
            }
        });
    });
}

/// Whether a ServerHello handshake message carries a pre_shared_key
/// extension — i.e. the server accepted the client's resumption offer.
pub fn server_hello_accepted_psk(sh: &[u8]) -> bool {
    hello_extension(sh, HandshakeType::ServerHello, EXT_PRE_SHARED_KEY).is_some()
}

/// A parsed NewSessionTicket message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewSessionTicket {
    /// Advertised ticket lifetime, seconds.
    pub lifetime_secs: u32,
    /// Obfuscation value added to the ticket age on later offers.
    pub age_add: u32,
    /// The opaque ticket.
    pub ticket: Vec<u8>,
}

/// Encode a NewSessionTicket message (RFC 8446 §4.6.1).
pub fn new_session_ticket(lifetime_secs: u32, age_add: u32, ticket: &[u8], seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(ticket.len() + 27);
    handshake_message(&mut out, HandshakeType::NewSessionTicket, |out| {
        out.extend_from_slice(&lifetime_secs.to_be_bytes());
        out.extend_from_slice(&age_add.to_be_bytes());
        length_prefixed::<1>(out, |out| fill_into(out, seed ^ 0x6E73_746E, 8)); // nonce
        length_prefixed::<2>(out, |out| out.extend_from_slice(ticket));
        out.extend_from_slice(&u16be(0)); // no extensions
    });
    out
}

/// Parse a NewSessionTicket message; `None` when malformed or a different
/// message type.
pub fn parse_new_session_ticket(msg: &[u8]) -> Option<NewSessionTicket> {
    if msg.len() < 4 || msg[0] != HandshakeType::NewSessionTicket as u8 {
        return None;
    }
    let body = &msg[4..];
    let lifetime_secs = u32::from_be_bytes(body.get(0..4)?.try_into().ok()?);
    let age_add = u32::from_be_bytes(body.get(4..8)?.try_into().ok()?);
    let mut pos = 8;
    let nonce_len = *body.get(pos)? as usize;
    pos += 1 + nonce_len;
    let ticket_len = u16::from_be_bytes([*body.get(pos)?, *body.get(pos + 1)?]) as usize;
    pos += 2;
    let ticket = body.get(pos..pos + ticket_len)?.to_vec();
    Some(NewSessionTicket {
        lifetime_secs,
        age_add,
        ticket,
    })
}

/// Walk the extension block of a hello message of type `ty` (ClientHello
/// or ServerHello; they differ only in the fixed fields before the block)
/// to the first extension of type `wanted`. Returns the message body from
/// that extension's data on and the length its header declares, which may
/// overrun the body. `None` when `msg` is not a `ty` hello, its fixed
/// fields are truncated, or no extension of the block has that type.
fn hello_extension(msg: &[u8], ty: HandshakeType, wanted: u16) -> Option<(&[u8], usize)> {
    if msg.len() < 4 || msg[0] != ty as u8 {
        return None;
    }
    let body = &msg[4..];
    let mut pos = 2 + 32; // legacy_version + random
    let sid_len = *body.get(pos)? as usize;
    pos += 1 + sid_len;
    if ty == HandshakeType::ClientHello {
        // The offered cipher_suites and legacy_compression_methods lists.
        let cs_len = u16::from_be_bytes([*body.get(pos)?, *body.get(pos + 1)?]) as usize;
        pos += 2 + cs_len;
        let comp_len = *body.get(pos)? as usize;
        pos += 1 + comp_len;
    } else {
        pos += 2 + 1; // the chosen cipher_suite and compression method
    }
    let ext_total = u16::from_be_bytes([*body.get(pos)?, *body.get(pos + 1)?]) as usize;
    pos += 2;
    let end = (pos + ext_total).min(body.len());
    while pos + 4 <= end {
        let ty = u16::from_be_bytes([body[pos], body[pos + 1]]);
        let len = u16::from_be_bytes([body[pos + 2], body[pos + 3]]) as usize;
        pos += 4;
        if ty == wanted {
            return Some((&body[pos..], len));
        }
        pos += len;
    }
    None
}

/// The data of a ClientHello's first extension of type `wanted`.
fn client_hello_extension(ch: &[u8], wanted: u16) -> Option<&[u8]> {
    let (data, len) = hello_extension(ch, HandshakeType::ClientHello, wanted)?;
    data.get(..len)
}

/// Extract the SNI host name from a ClientHello (the server needs it to
/// bind issued tickets to the host).
pub fn parse_server_name(ch: &[u8]) -> Option<String> {
    let data = client_hello_extension(ch, EXT_SERVER_NAME)?;
    // server_name_list: list_len(2) + type(1) + name_len(2) + name.
    let name_len = u16::from_be_bytes([*data.get(3)?, *data.get(4)?]) as usize;
    let name = data.get(5..5 + name_len)?;
    String::from_utf8(name.to_vec()).ok()
}

/// Extract the PSK offer from a ClientHello, if one is present.
pub fn parse_psk_offer(ch: &[u8]) -> Option<PskOffer> {
    let data = client_hello_extension(ch, EXT_PRE_SHARED_KEY)?;
    // identities: list_len(2) + first identity (2+len) + age(4).
    let id_len = u16::from_be_bytes([*data.get(2)?, *data.get(3)?]) as usize;
    let identity = data.get(4..4 + id_len)?.to_vec();
    let age_off = 4 + id_len;
    let obfuscated_age = u32::from_be_bytes(data.get(age_off..age_off + 4)?.try_into().ok()?);
    Some(PskOffer {
        identity,
        obfuscated_age,
    })
}

/// Extract the certificate compression algorithms a ClientHello offers
/// (the RFC 8879 compress_certificate extension), in offer order, skipping
/// code points this workspace does not implement. `None` when the
/// extension is absent or malformed.
pub fn parse_compression_offers(ch: &[u8]) -> Option<Vec<Algorithm>> {
    let data = client_hello_extension(ch, EXT_COMPRESS_CERTIFICATE)?;
    // algorithms: list_len(1) + one u16 code point each.
    let list_len = *data.first()? as usize;
    let list = data.get(1..1 + list_len)?;
    let code_points = list
        .chunks_exact(2)
        .map(|pair| u16::from_be_bytes([pair[0], pair[1]]));
    Some(code_points.filter_map(Algorithm::from_code_point).collect())
}

/// Encoded size of [`encrypted_extensions_into`].
pub(crate) const ENCRYPTED_EXTENSIONS_LEN: usize = 4 + 2 + (4 + 5) + (4 + 61);

/// Append EncryptedExtensions (ALPN echo + QUIC transport parameters).
pub(crate) fn encrypted_extensions_into(out: &mut Vec<u8>, seed: u64) {
    handshake_message(out, HandshakeType::EncryptedExtensions, |out| {
        length_prefixed::<2>(out, |out| {
            extension(out, EXT_ALPN, |out| {
                out.extend_from_slice(&[0x00, 0x03, 0x02, b'h', b'3'])
            });
            extension(out, EXT_QUIC_TRANSPORT_PARAMS, |out| {
                fill_into(out, seed ^ 0x7472_7073, 61)
            });
        });
    });
}

/// Encode a Certificate message carrying `chain` (RFC 8446 §4.4.2).
pub fn certificate_message(chain: &CertificateChain) -> Vec<u8> {
    let mut out = Vec::with_capacity(certificate_message_len(chain));
    certificate_message_into(&mut out, chain);
    out
}

/// Encoded size of [`certificate_message`]: handshake header, empty
/// request context, list length, and per certificate a `u24` length, the
/// DER and an empty extension block.
pub(crate) fn certificate_message_len(chain: &CertificateChain) -> usize {
    4 + 1 + 3 + chain.total_der_len() + chain.depth() * 5
}

pub(crate) fn certificate_message_into(out: &mut Vec<u8>, chain: &CertificateChain) {
    handshake_message(out, HandshakeType::Certificate, |out| {
        out.push(0); // empty certificate_request_context
        length_prefixed::<3>(out, |out| {
            for cert in chain.certs() {
                length_prefixed::<3>(out, |out| out.extend_from_slice(cert.der()));
                out.extend_from_slice(&u16be(0)); // no per-certificate extensions
            }
        });
    });
}

/// Append the CompressedCertificate message (RFC 8879 §5) of the already
/// encoded Certificate message `inner`, compressed with `algorithm`.
pub(crate) fn compressed_certificate_message_into(
    out: &mut Vec<u8>,
    inner: &[u8],
    algorithm: Algorithm,
) {
    let compressed = quicert_compress::compress(algorithm, inner);
    out.reserve(compressed.len() + 12);
    handshake_message(out, HandshakeType::CompressedCertificate, |out| {
        out.extend_from_slice(&algorithm.code_point().to_be_bytes());
        out.extend_from_slice(&u24(inner.len())); // uncompressed_length
        length_prefixed::<3>(out, |out| out.extend_from_slice(&compressed));
    });
}

/// Signature scheme code point and signature size of a CertificateVerify
/// under `leaf_key` (RSA-PSS for RSA keys, ECDSA otherwise; ML-DSA sizes
/// per draft-ietf-tls-mldsa, hybrids concatenate both component signatures
/// per the hybrid-signature drafts with private-use code points).
fn certificate_verify_scheme(leaf_key: quicert_x509::KeyAlgorithm) -> (u16, usize) {
    use quicert_x509::KeyAlgorithm::*;
    match leaf_key {
        Rsa2048 => (0x0804, 256),  // rsa_pss_rsae_sha256
        Rsa4096 => (0x0805, 512),  // rsa_pss_rsae_sha384
        EcdsaP256 => (0x0403, 71), // ecdsa_secp256r1_sha256 (typical DER size)
        EcdsaP384 => (0x0503, 103),
        MlDsa44 => (0x0904, quicert_x509::alg::ML_DSA_44_SIG_LEN), // mldsa44
        MlDsa65 => (0x0905, quicert_x509::alg::ML_DSA_65_SIG_LEN), // mldsa65
        // Private-use code points: concatenated ML-DSA ‖ ECDSA signatures.
        HybridP256MlDsa44 => (0xFE44, quicert_x509::alg::ML_DSA_44_SIG_LEN + 71),
        HybridP384MlDsa65 => (0xFE65, quicert_x509::alg::ML_DSA_65_SIG_LEN + 103),
    }
}

/// Encoded size of [`certificate_verify_into`].
pub(crate) fn certificate_verify_len(leaf_key: quicert_x509::KeyAlgorithm) -> usize {
    4 + 2 + 2 + certificate_verify_scheme(leaf_key).1
}

/// Append CertificateVerify. The signature size follows the leaf key
/// algorithm.
pub(crate) fn certificate_verify_into(
    out: &mut Vec<u8>,
    leaf_key: quicert_x509::KeyAlgorithm,
    seed: u64,
) {
    let (alg_id, sig_len) = certificate_verify_scheme(leaf_key);
    handshake_message(out, HandshakeType::CertificateVerify, |out| {
        out.extend_from_slice(&alg_id.to_be_bytes());
        length_prefixed::<2>(out, |out| fill_into(out, seed ^ 0x6376_6679, sig_len));
    });
}

/// Encoded size of [`finished`].
pub(crate) const FINISHED_LEN: usize = 4 + 32;

/// Encode Finished (32-byte verify_data for the SHA-256 suites).
pub fn finished(seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(FINISHED_LEN);
    finished_into(&mut out, seed);
    out
}

pub(crate) fn finished_into(out: &mut Vec<u8>, seed: u64) {
    handshake_message(out, HandshakeType::Finished, |out| {
        fill_into(out, seed ^ 0x6669_6E21, 32)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_x509::{
        CertificateBuilder, DistinguishedName, Extension, KeyAlgorithm, SignatureAlgorithm,
        SubjectPublicKeyInfo,
    };

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
            DistinguishedName::cn("example.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 2),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extension(Extension::SubjectAltNames(vec!["example.org".into()]))
        .build();
        CertificateChain::new(leaf, vec![inter])
    }

    fn params(compression: Vec<quicert_compress::Algorithm>) -> ClientHelloParams {
        ClientHelloParams {
            server_name: "example.org".into(),
            compression,
            psk: None,
            seed: 7,
        }
    }

    #[test]
    fn client_hello_has_realistic_size() {
        let ch = client_hello(&params(vec![]));
        // Real browser ClientHellos (without GREASE/padding) run ~230–450 B.
        assert!((230..500).contains(&ch.len()), "was {}", ch.len());
        assert_eq!(ch[0], HandshakeType::ClientHello as u8);
        let body_len = ((ch[1] as usize) << 16) | ((ch[2] as usize) << 8) | ch[3] as usize;
        assert_eq!(body_len + 4, ch.len());
    }

    #[test]
    fn compression_offer_adds_extension() {
        let without = client_hello(&params(vec![]));
        let with = client_hello(&params(vec![quicert_compress::Algorithm::Brotli]));
        assert!(with.len() > without.len());
        // Extension code point 27 appears in the encoding.
        let needle = [0x00u8, 27];
        assert!(with.windows(2).any(|w| w == needle));
        assert!(!without.windows(2).any(|w| w == needle));
    }

    #[test]
    fn compression_offer_parsing() {
        let ch = client_hello(&params(vec![Algorithm::Brotli, Algorithm::Zstd]));
        let offers = parse_compression_offers(&ch).expect("extension present");
        assert_eq!(offers, vec![Algorithm::Brotli, Algorithm::Zstd]);
        assert_eq!(
            parse_compression_offers(&client_hello(&params(vec![]))),
            None
        );
    }

    #[test]
    fn server_hello_size_is_realistic() {
        let sh = server_hello(3);
        // Real TLS 1.3 ServerHellos are ~90–130 bytes.
        assert!((85..140).contains(&sh.len()), "was {}", sh.len());
    }

    #[test]
    fn certificate_message_wraps_chain_with_framing() {
        let c = chain();
        let msg = certificate_message(&c);
        // 4 (hs hdr) + 1 (ctx) + 3 (list len) + per cert 3 + DER + 2.
        let expected = 4 + 1 + 3 + c.depth() * 5 + c.total_der_len();
        assert_eq!(msg.len(), expected);
        assert_eq!(msg[0], HandshakeType::Certificate as u8);
    }

    fn compressed_certificate_message(chain: &CertificateChain, algorithm: Algorithm) -> Vec<u8> {
        let mut out = Vec::new();
        compressed_certificate_message_into(&mut out, &certificate_message(chain), algorithm);
        out
    }

    fn certificate_verify(leaf_key: KeyAlgorithm, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        certificate_verify_into(&mut out, leaf_key, seed);
        out
    }

    #[test]
    fn compressed_certificate_is_smaller() {
        let c = chain();
        let plain = certificate_message(&c);
        for alg in quicert_compress::Algorithm::ALL {
            let compressed = compressed_certificate_message(&c, alg);
            assert!(
                compressed.len() < plain.len(),
                "{alg}: {} !< {}",
                compressed.len(),
                plain.len()
            );
            assert_eq!(compressed[0], HandshakeType::CompressedCertificate as u8);
        }
    }

    #[test]
    fn certificate_verify_size_tracks_key_algorithm() {
        let ecdsa = certificate_verify(KeyAlgorithm::EcdsaP256, 1);
        let rsa = certificate_verify(KeyAlgorithm::Rsa2048, 1);
        assert_eq!(ecdsa.len(), 4 + 2 + 2 + 71);
        assert_eq!(rsa.len(), 4 + 2 + 2 + 256);
        // ML-DSA CertificateVerify dwarfs every classical variant (FIPS 204
        // signature sizes), and the hybrid adds the ECDSA component on top.
        let mldsa = certificate_verify(KeyAlgorithm::MlDsa44, 1);
        assert_eq!(mldsa.len(), 4 + 2 + 2 + 2420);
        let hybrid = certificate_verify(KeyAlgorithm::HybridP256MlDsa44, 1);
        assert_eq!(hybrid.len(), 4 + 2 + 2 + 2420 + 71);
        assert_eq!(
            certificate_verify(KeyAlgorithm::MlDsa65, 1).len(),
            4 + 2 + 2 + 3309
        );
        assert_eq!(
            certificate_verify(KeyAlgorithm::HybridP384MlDsa65, 1).len(),
            4 + 2 + 2 + 3309 + 103
        );
    }

    #[test]
    fn finished_is_fixed_size() {
        assert_eq!(finished(1).len(), 4 + 32);
    }

    #[test]
    fn messages_are_deterministic() {
        assert_eq!(client_hello(&params(vec![])), client_hello(&params(vec![])));
        assert_eq!(server_hello(5), server_hello(5));
        assert_ne!(server_hello(5), server_hello(6));
    }

    fn psk_params() -> ClientHelloParams {
        ClientHelloParams {
            psk: Some(PskOffer {
                identity: vec![0xAB; 40],
                obfuscated_age: 123_456,
            }),
            ..params(vec![])
        }
    }

    #[test]
    fn psk_offer_roundtrips_through_client_hello() {
        let ch = client_hello(&psk_params());
        let offer = parse_psk_offer(&ch).expect("offer present");
        assert_eq!(offer.identity, vec![0xAB; 40]);
        assert_eq!(offer.obfuscated_age, 123_456);
        assert_eq!(parse_psk_offer(&client_hello(&params(vec![]))), None);
    }

    #[test]
    fn psk_extension_is_last_and_length_consistent() {
        let ch = client_hello(&psk_params());
        let body_len = ((ch[1] as usize) << 16) | ((ch[2] as usize) << 8) | ch[3] as usize;
        assert_eq!(body_len + 4, ch.len());
        // pre_shared_key must be the last extension (RFC 8446 §4.2.11):
        // its payload is identities (2 + 2+40+4) + binders (2 + 1+32) = 83
        // bytes, so the extension header sits exactly 87 bytes from the end.
        let pos = ch.len() - 83 - 4;
        let ty = u16::from_be_bytes([ch[pos], ch[pos + 1]]);
        let len = u16::from_be_bytes([ch[pos + 2], ch[pos + 3]]) as usize;
        assert_eq!(ty, EXT_PRE_SHARED_KEY);
        assert_eq!(pos + 4 + len, ch.len(), "pre_shared_key must be last");
    }

    #[test]
    fn server_name_parses_back_out() {
        let ch = client_hello(&params(vec![]));
        assert_eq!(parse_server_name(&ch).as_deref(), Some("example.org"));
        assert_eq!(parse_server_name(&server_hello(1)), None);
    }

    #[test]
    fn resumed_server_hello_is_detectable_and_wellformed() {
        let cold = server_hello(9);
        let resumed = server_hello_resumed(9);
        assert!(!server_hello_accepted_psk(&cold));
        assert!(server_hello_accepted_psk(&resumed));
        // Length header stays consistent after the splice.
        let body_len =
            ((resumed[1] as usize) << 16) | ((resumed[2] as usize) << 8) | resumed[3] as usize;
        assert_eq!(body_len + 4, resumed.len());
        assert_eq!(resumed.len(), cold.len() + 6);
    }

    #[test]
    fn new_session_ticket_roundtrips() {
        let ticket = vec![0x42; 40];
        let msg = new_session_ticket(7_200, 0xDEAD_BEEF, &ticket, 3);
        assert_eq!(msg[0], HandshakeType::NewSessionTicket as u8);
        let parsed = parse_new_session_ticket(&msg).expect("parses");
        assert_eq!(parsed.lifetime_secs, 7_200);
        assert_eq!(parsed.age_add, 0xDEAD_BEEF);
        assert_eq!(parsed.ticket, ticket);
        assert_eq!(parse_new_session_ticket(&server_hello(1)), None);
    }

    #[test]
    fn psk_free_client_hello_is_bit_for_bit_unchanged() {
        // The cold ClientHello must not move by a single byte when the
        // resumption machinery is compiled in but unused.
        let ch = client_hello(&params(vec![]));
        assert!((230..500).contains(&ch.len()));
        assert!(!ch
            .windows(2)
            .any(|w| w == [0x00u8, EXT_PRE_SHARED_KEY as u8]));
    }
}
