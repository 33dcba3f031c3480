//! Property tests: every certificate this crate can build — including the
//! ML-DSA and hybrid algorithms of the certificate-era axis — encodes to
//! DER that parses back into a tree whose canonical re-encoding is
//! byte-identical, and the reader rejects truncated or non-minimal
//! ("overlong") length forms.

use proptest::prelude::*;
use quicert_x509::der::{self, DerError, DerValue};
use quicert_x509::ext::KeyUsageFlags;
use quicert_x509::{
    oid, Certificate, CertificateBuilder, DistinguishedName, Extension, KeyAlgorithm, Name,
    SanNames, SignatureAlgorithm, SubjectPublicKeyInfo,
};

/// A tag-length-value triplet around `content`.
fn tlv(tag: u8, content: &[u8]) -> Vec<u8> {
    der::encoded(|w| w.tlv(tag, &[content]))
}

/// Recursively re-encode a parsed DER value. Constructed nodes are rebuilt
/// from their parsed children, so a byte-identical result means the whole
/// tag/length/value tree survived the encode→parse→encode round trip.
fn reencode(value: &DerValue) -> Vec<u8> {
    if value.tag & 0x20 != 0 {
        if let Ok(children) = value.children() {
            let content: Vec<u8> = children.iter().flat_map(reencode).collect();
            return tlv(value.tag, &content);
        }
    }
    tlv(value.tag, &value.content)
}

const KEYS: [KeyAlgorithm; 8] = KeyAlgorithm::ALL_ERAS;

const SIGS: [SignatureAlgorithm; 8] = [
    SignatureAlgorithm::Sha256WithRsa2048,
    SignatureAlgorithm::Sha384WithRsa4096,
    SignatureAlgorithm::EcdsaSha256,
    SignatureAlgorithm::EcdsaSha384,
    SignatureAlgorithm::MlDsa44,
    SignatureAlgorithm::MlDsa65,
    SignatureAlgorithm::CompositeP256MlDsa44,
    SignatureAlgorithm::CompositeP384MlDsa65,
];

fn arbitrary_certificate(
    key_idx: usize,
    sig_idx: usize,
    seed: u64,
    cn: &str,
    sans: usize,
    scts: u8,
    ca: bool,
) -> Certificate {
    let issuer = DistinguishedName::ca("US", "Roundtrip Trust Services", "Roundtrip CA 1");
    let subject = DistinguishedName::ca("US", "Roundtrip Trust Services", cn);
    let key_usage = if ca {
        KeyUsageFlags::ca()
    } else {
        KeyUsageFlags::leaf()
    };
    let names: Vec<String> = (0..sans.max(1)).map(|i| format!("alt-{i}.{cn}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let common = [
        Extension::BasicConstraints { ca, path_len: None },
        Extension::KeyUsage(key_usage),
        Extension::SubjectKeyId { seed },
        Extension::AuthorityKeyId { seed: seed ^ 0xA17 },
    ];
    let leaf_only = [
        Extension::SubjectAltNames(SanNames::listed(&names)),
        Extension::ExtKeyUsage(&[oid::KP_SERVER_AUTH]),
        Extension::SctList {
            count: scts,
            seed: seed ^ 0x5C7,
        },
    ];
    let extensions: Vec<Extension> = common
        .into_iter()
        .chain(leaf_only.into_iter().filter(|_| !ca))
        .collect();
    CertificateBuilder::new(
        &issuer,
        if ca { Name::Dn(&subject) } else { Name::Cn(cn) },
        SubjectPublicKeyInfo::new(KEYS[key_idx % KEYS.len()], seed),
        SIGS[sig_idx % SIGS.len()],
    )
    .extensions(&extensions)
    .build()
}

/// Content lengths on both sides of every definite-length form, nested
/// so the enclosing lengths cross the boundaries too: the lengths the
/// measuring run puts on the tape are the ones the writing run announces.
#[test]
fn writer_length_boundaries_roundtrip_nested_two_deep() {
    use der::tag::{OCTET_STRING, SEQUENCE, SET};
    for len in [0, 127, 128, 255, 256, 65_535, 65_536] {
        let payload = vec![0xA5u8; len];
        let written = der::encoded(|w| {
            w.nested(SEQUENCE, |w| {
                w.nested(SET, |w| w.nested(OCTET_STRING, |w| w.raw(&payload)))
            })
        });
        let outer = der::parse_one(&written).expect("outer parses");
        let middle = &outer.children().expect("one child")[0];
        let inner = &middle.children().expect("one grandchild")[0];
        assert_eq!(
            (outer.tag, middle.tag, inner.tag),
            (SEQUENCE, SET, OCTET_STRING)
        );
        assert_eq!(inner.content, payload, "{len}");
        // The lengths taken off the tape are the ones a TLV built from the
        // finished content carries.
        let up_front = tlv(SEQUENCE, &tlv(SET, &tlv(OCTET_STRING, &payload)));
        assert_eq!(written, up_front, "{len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certificates_roundtrip_byte_identically(
        key_idx in 0usize..8,
        sig_idx in 0usize..8,
        seed in any::<u64>(),
        cn in "[a-z]{1,12}\\.[a-z]{2,3}",
        sans in 0usize..5,
        scts in 0u8..4,
        ca_bit in any::<bool>(),
    ) {
        let cert = arbitrary_certificate(key_idx, sig_idx, seed, &cn, sans, scts, ca_bit);
        let encoded = cert.der();
        let parsed = der::parse_one(encoded).map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(parsed.tag, 0x30);
        let reencoded = reencode(&parsed);
        prop_assert_eq!(
            reencoded, encoded.to_vec(),
            "{:?}/{:?} did not roundtrip", KEYS[key_idx % 8], SIGS[sig_idx % 8]
        );
    }

    #[test]
    fn spki_roundtrips_for_every_algorithm(key_idx in 0usize..8, seed in any::<u64>()) {
        let spki = SubjectPublicKeyInfo::new(KEYS[key_idx % KEYS.len()], seed);
        let encoded = der::encoded(|w| spki.encode_into(w));
        let parsed = der::parse_one(&encoded).map_err(|e| TestCaseError(e.to_string()))?;
        prop_assert_eq!(reencode(&parsed), encoded);
    }

    #[test]
    fn truncated_certificates_never_parse(
        key_idx in 0usize..8,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let cert = arbitrary_certificate(key_idx, key_idx, seed, "trunc.example", 2, 2, false);
        let encoded = cert.der();
        // Any strict prefix must be rejected (Truncated), never mis-parsed.
        let cut = 1 + ((encoded.len() - 1) as f64 * cut_frac) as usize;
        let cut = cut.min(encoded.len() - 1);
        prop_assert_eq!(
            der::parse_one(&encoded[..cut]).unwrap_err(),
            DerError::Truncated
        );
    }

    #[test]
    fn overlong_length_forms_are_rejected(len in 0usize..0x80, tag in 0u8..0x40) {
        // The same short length encoded in the (forbidden) one-byte long
        // form: the reader must flag BadLength, not accept the alias.
        let mut overlong = vec![tag | 0x04, 0x81, len as u8];
        overlong.extend(vec![0xABu8; len]);
        prop_assert_eq!(der::parse_one(&overlong).unwrap_err(), DerError::BadLength);
        // Two-byte long form with a zero leading octet is equally illegal.
        let mut padded = vec![tag | 0x04, 0x82, 0x00, len as u8];
        padded.extend(vec![0xABu8; len]);
        prop_assert_eq!(der::parse_one(&padded).unwrap_err(), DerError::BadLength);
        // The minimal form of the same value parses fine.
        let minimal = tlv(tag | 0x04, &vec![0xAB; len]);
        prop_assert!(der::parse_one(&minimal).is_ok());
    }
}
