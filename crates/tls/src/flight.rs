//! The server's first TLS flight, split the way QUIC transports it.
//!
//! RFC 9001 maps TLS handshake messages onto QUIC encryption levels:
//! ServerHello travels in *Initial* packets, while EncryptedExtensions,
//! Certificate(/Compressed), CertificateVerify and Finished travel in
//! *Handshake* packets. [`ServerFlight`] encodes both parts so the QUIC
//! layer can frame them into CRYPTO streams.

use quicert_compress::Algorithm;
use quicert_x509::{CertificateChain, KeyAlgorithm};

use crate::messages;

/// What the server puts into its first flight.
///
/// The chain is borrowed: building a flight is a read-only rendering of the
/// server's configured chain, and the scanner builds one flight per probed
/// record — forcing callers to clone the chain here was measurable at the
/// million-record scale.
#[derive(Debug, Clone)]
pub struct ServerFlightParams<'a> {
    /// The certificate chain to present.
    pub chain: &'a CertificateChain,
    /// The leaf key algorithm (sizes the CertificateVerify signature).
    pub leaf_key: KeyAlgorithm,
    /// Compression algorithm to use for the Certificate message, if the
    /// client offered one the server supports.
    pub compression: Option<Algorithm>,
    /// Deterministic seed for randoms/signatures.
    pub seed: u64,
}

/// The encoded server flight, split by QUIC encryption level.
#[derive(Debug, Clone)]
pub struct ServerFlight {
    /// CRYPTO payload at the Initial encryption level (ServerHello).
    pub initial_crypto: Vec<u8>,
    /// CRYPTO payload at the Handshake encryption level
    /// (EE ‖ Certificate\[Compressed\] ‖ CertificateVerify ‖ Finished).
    pub handshake_crypto: Vec<u8>,
    /// Size of the (possibly compressed) certificate message inside
    /// `handshake_crypto`.
    pub certificate_message_len: usize,
    /// Size the certificate message would have had uncompressed.
    pub uncompressed_certificate_len: usize,
}

impl ServerFlight {
    /// Build the *resumed* flight: the server accepted a PSK offer, so the
    /// first flight is ServerHello(+pre_shared_key) at the Initial level
    /// and EncryptedExtensions ‖ Finished at the Handshake level — no
    /// Certificate, no CertificateVerify. The whole flight is a few hundred
    /// bytes, which is what lets a resumed handshake fit the 3×
    /// anti-amplification budget at any client Initial size.
    pub fn build_resumed(seed: u64) -> ServerFlight {
        let mut handshake_crypto =
            Vec::with_capacity(messages::ENCRYPTED_EXTENSIONS_LEN + messages::FINISHED_LEN);
        messages::encrypted_extensions_into(&mut handshake_crypto, seed);
        messages::finished_into(&mut handshake_crypto, seed);
        ServerFlight {
            initial_crypto: messages::server_hello_resumed(seed),
            handshake_crypto,
            certificate_message_len: 0,
            uncompressed_certificate_len: 0,
        }
    }

    /// Build the flight for the given parameters.
    ///
    /// Every Handshake-level message is written straight into the one
    /// `handshake_crypto` buffer, sized up front; the chain's DER is copied
    /// exactly once.
    pub fn build(params: &ServerFlightParams<'_>) -> ServerFlight {
        let mut handshake_crypto = Vec::with_capacity(
            messages::ENCRYPTED_EXTENSIONS_LEN
                + messages::certificate_message_len(params.chain)
                + messages::certificate_verify_len(params.leaf_key)
                + messages::FINISHED_LEN,
        );
        messages::encrypted_extensions_into(&mut handshake_crypto, params.seed);

        let cert_at = handshake_crypto.len();
        messages::certificate_message_into(&mut handshake_crypto, params.chain);
        let uncompressed_certificate_len = handshake_crypto.len() - cert_at;
        if let Some(alg) = params.compression {
            let mut compressed = Vec::new();
            messages::compressed_certificate_message_into(
                &mut compressed,
                &handshake_crypto[cert_at..],
                alg,
            );
            // RFC 8879 servers fall back to the plain message if
            // compression would not help.
            if compressed.len() < uncompressed_certificate_len {
                handshake_crypto.truncate(cert_at);
                handshake_crypto.extend_from_slice(&compressed);
            }
        }
        let certificate_message_len = handshake_crypto.len() - cert_at;

        messages::certificate_verify_into(&mut handshake_crypto, params.leaf_key, params.seed);
        messages::finished_into(&mut handshake_crypto, params.seed);

        ServerFlight {
            initial_crypto: messages::server_hello(params.seed),
            handshake_crypto,
            certificate_message_len,
            uncompressed_certificate_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_x509::{
        CertificateBuilder, DistinguishedName, Extension, SignatureAlgorithm, SubjectPublicKeyInfo,
        Time, Validity,
    };

    fn chain(leaf_key: KeyAlgorithm) -> CertificateChain {
        let inter_dn = DistinguishedName::ca("US", "Let's Encrypt", "R3");
        let root_dn =
            DistinguishedName::ca("US", "Internet Security Research Group", "ISRG Root X1");
        let inter = CertificateBuilder::new(
            root_dn,
            inter_dn.clone(),
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa2048, 11),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .build();
        let leaf = CertificateBuilder::new(
            inter_dn,
            DistinguishedName::cn("quic.example"),
            SubjectPublicKeyInfo::new(leaf_key, 12),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extension(Extension::SubjectAltNames(vec!["quic.example".into()]))
        .extension(Extension::SctList { count: 2, seed: 13 })
        .build();
        CertificateChain::new(leaf, vec![inter])
    }

    fn params(chain: &CertificateChain, compression: Option<Algorithm>) -> ServerFlightParams<'_> {
        ServerFlightParams {
            chain,
            leaf_key: KeyAlgorithm::EcdsaP256,
            compression,
            seed: 21,
        }
    }

    #[test]
    fn flight_is_dominated_by_the_chain() {
        let c = chain(KeyAlgorithm::EcdsaP256);
        let p = params(&c, None);
        let flight = ServerFlight::build(&p);
        assert!(flight.handshake_crypto.len() > p.chain.total_der_len());
        assert!(flight.initial_crypto.len() < 150);
        assert_eq!(
            flight.certificate_message_len,
            flight.uncompressed_certificate_len
        );
    }

    #[test]
    fn compression_shrinks_the_flight() {
        let c = chain(KeyAlgorithm::EcdsaP256);
        let plain = ServerFlight::build(&params(&c, None));
        for alg in Algorithm::ALL {
            let compressed = ServerFlight::build(&params(&c, Some(alg)));
            assert!(
                compressed.handshake_crypto.len() < plain.handshake_crypto.len(),
                "{alg} must shrink the flight"
            );
            assert!(compressed.certificate_message_len < compressed.uncompressed_certificate_len);
        }
    }

    /// A post-quantum chain: ML-DSA keys and signatures throughout.
    fn pq_chain() -> CertificateChain {
        let inter_dn = DistinguishedName::ca("US", "Example PQ Trust", "PQ CA 1");
        let inter = CertificateBuilder::new(
            DistinguishedName::ca("US", "Example PQ Trust", "PQ Root"),
            inter_dn.clone(),
            SubjectPublicKeyInfo::new(KeyAlgorithm::MlDsa65, 31),
            SignatureAlgorithm::MlDsa65,
        )
        .build();
        let leaf = CertificateBuilder::new(
            inter_dn,
            DistinguishedName::cn("pq.example"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::MlDsa44, 32),
            SignatureAlgorithm::MlDsa65,
        )
        .extension(Extension::SubjectAltNames(vec!["pq.example".into()]))
        .extension(Extension::SctList { count: 2, seed: 33 })
        .build();
        CertificateChain::new(leaf, vec![inter])
    }

    /// A chain no profile shrinks: one leaf with empty names and no
    /// extensions, an ML-DSA key under a composite signature. No algorithm
    /// identifier repeats and the dictionary holds neither, and the two
    /// times share no four bytes with each other or with the dictionary's
    /// UTCTime fragments, so what the compressor finds is less than what
    /// the CompressedCertificate adds.
    fn incompressible_chain() -> CertificateChain {
        let leaf = CertificateBuilder::new(
            DistinguishedName::new(),
            DistinguishedName::new(),
            SubjectPublicKeyInfo::new(KeyAlgorithm::MlDsa44, 34),
            SignatureAlgorithm::CompositeP256MlDsa44,
        )
        .validity(Validity {
            not_before: Time {
                hour: 13,
                minute: 27,
                second: 41,
                ..Time::date(2031, 7, 14)
            },
            not_after: Time {
                hour: 19,
                minute: 43,
                second: 8,
                ..Time::date(2048, 11, 26)
            },
        })
        .build();
        CertificateChain::new(leaf, Vec::new())
    }

    /// `(algorithm, uncompressed_length, compressed_certificate_message)`
    /// of an encoded CompressedCertificate, its framing checked.
    fn parse_compressed_certificate(msg: &[u8]) -> (u16, usize, &[u8]) {
        let u24 = |b: &[u8]| (b[0] as usize) << 16 | (b[1] as usize) << 8 | b[2] as usize;
        assert_eq!(msg[0], messages::HandshakeType::CompressedCertificate as u8);
        assert_eq!(u24(&msg[1..4]), msg.len() - 4);
        assert_eq!(u24(&msg[9..12]), msg.len() - 12);
        (
            u16::from_be_bytes([msg[4], msg[5]]),
            u24(&msg[6..9]),
            &msg[12..],
        )
    }

    #[test]
    fn rfc8879_compressed_certificate_is_smaller_or_falls_back() {
        // (chain, whether every profile shrinks it): the post-quantum
        // chain is held to the rule only.
        let chains = [
            (chain(KeyAlgorithm::EcdsaP256), Some(true)),
            (pq_chain(), None),
            (incompressible_chain(), Some(false)),
        ];
        for (chain, shrinks) in &chains {
            let certificate = messages::certificate_message(chain);
            for alg in Algorithm::ALL {
                let mut compressed = Vec::new();
                messages::compressed_certificate_message_into(&mut compressed, &certificate, alg);
                let (code_point, uncompressed_length, payload) =
                    parse_compressed_certificate(&compressed);
                assert_eq!(code_point, alg.code_point());
                assert_eq!(uncompressed_length, certificate.len());
                assert_eq!(
                    quicert_compress::decompress(payload, alg.dictionary()).as_ref(),
                    Ok(&certificate)
                );

                let flight = ServerFlight::build(&params(chain, Some(alg)));
                let at = messages::ENCRYPTED_EXTENSIONS_LEN;
                let sent = &flight.handshake_crypto[at..at + flight.certificate_message_len];
                assert_eq!(flight.uncompressed_certificate_len, certificate.len());
                let smaller = compressed.len() < certificate.len();
                if smaller {
                    assert_eq!(sent, compressed, "{alg}: the smaller message is sent");
                } else {
                    assert_eq!(sent, certificate, "{alg}: the fallback is the Certificate");
                    assert_eq!(
                        flight.certificate_message_len,
                        flight.uncompressed_certificate_len
                    );
                }
                if let Some(shrinks) = shrinks {
                    assert_eq!(smaller, *shrinks, "{alg}");
                }
            }
        }
    }

    #[test]
    fn rsa_leaf_grows_certificate_verify() {
        let rsa_chain = chain(KeyAlgorithm::Rsa2048);
        let mut p = params(&rsa_chain, None);
        p.leaf_key = KeyAlgorithm::Rsa2048;
        let rsa = ServerFlight::build(&p);
        let ecdsa_chain = chain(KeyAlgorithm::EcdsaP256);
        let ecdsa = ServerFlight::build(&params(&ecdsa_chain, None));
        assert!(rsa.handshake_crypto.len() > ecdsa.handshake_crypto.len() + 180);
    }

    #[test]
    fn resumed_flight_carries_no_certificate_bytes() {
        let c = chain(KeyAlgorithm::EcdsaP256);
        let cold = ServerFlight::build(&params(&c, None));
        let resumed = ServerFlight::build_resumed(21);
        assert!(cold.uncompressed_certificate_len > 0);
        assert_eq!(resumed.certificate_message_len, 0);
        assert_eq!(resumed.uncompressed_certificate_len, 0);
        // A resumed flight is a small fraction of even a compact cold one:
        // SH + EE + Finished only.
        let tls_len = |f: &ServerFlight| f.initial_crypto.len() + f.handshake_crypto.len();
        assert!(tls_len(&resumed) < 400, "{}", tls_len(&resumed));
        assert!(tls_len(&resumed) * 3 < tls_len(&cold));
        // And it is detectably PSK-accepting at the Initial level.
        assert!(crate::messages::server_hello_accepted_psk(
            &resumed.initial_crypto
        ));
    }

    #[test]
    fn deterministic_flights() {
        let c = chain(KeyAlgorithm::EcdsaP256);
        let a = ServerFlight::build(&params(&c, Some(Algorithm::Brotli)));
        let b = ServerFlight::build(&params(&c, Some(Algorithm::Brotli)));
        assert_eq!(a.handshake_crypto, b.handshake_crypto);
        assert_eq!(a.initial_crypto, b.initial_crypto);
    }
}
