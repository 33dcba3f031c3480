//! The field attribution `CertificateBuilder::build` reads off its writer
//! as it writes, checked against lengths re-derived by *parsing* the
//! finished DER — for leaves of every key algorithm and every catalog
//! intermediate in every era, for the served leaf of every QUIC chain
//! class of a 100k-domain world in every era, and for random leaves of
//! every key and signature algorithm. The last two check every nested
//! length too: each header the length tape fed the writing run is the
//! length of the content that followed it.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use proptest::prelude::*;
use quicert_pki::{CertificateEra, ChainClass, ChainId, Ecosystem, LeafParams, World, WorldConfig};
use quicert_x509::der::{self, DerValue};
use quicert_x509::ext::KeyUsageFlags;
use quicert_x509::{
    oid, Certificate, CertificateBuilder, DistinguishedName, Extension, KeyAlgorithm, Name,
    SanNames, SignatureAlgorithm, SubjectPublicKeyInfo,
};

/// Content octets of the id-ce-subjectAltName OID (2.5.29.17).
const SAN_OID: [u8; 3] = [0x55, 0x1D, 0x11];

/// Encoded length of a parsed value: its content plus tag/length framing.
fn tlv_len(value: &DerValue) -> usize {
    der::encoded(|w| w.tlv(value.tag, &[&value.content])).len()
}

fn assert_recorded_sizes_match_the_parsed_der(cert: &Certificate, what: &str) {
    let outer = der::parse_one(cert.der()).expect("certificate parses");
    let [tbs, sig_alg, sig_value] = &outer.children().unwrap()[..] else {
        panic!("{what}: tbs + alg + signature");
    };
    let [_version, _serial, _alg, issuer, _validity, subject, spki, extensions] =
        &tbs.children().unwrap()[..]
    else {
        panic!("{what}: eight TBS fields");
    };
    assert_eq!(extensions.tag, 0xA3, "{what}");
    let list = &extensions.children().unwrap()[0];
    let san_bytes: usize = list
        .children()
        .unwrap()
        .iter()
        .filter(|ext| ext.children().unwrap()[0].content == SAN_OID)
        .map(tlv_len)
        .sum();

    let sizes = cert.field_sizes();
    assert_eq!(sizes.subject, tlv_len(subject), "{what}: subject");
    assert_eq!(sizes.issuer, tlv_len(issuer), "{what}: issuer");
    assert_eq!(sizes.spki, tlv_len(spki), "{what}: spki");
    assert_eq!(sizes.extensions, tlv_len(extensions), "{what}: extensions");
    assert_eq!(
        sizes.signature,
        tlv_len(sig_alg) + tlv_len(sig_value),
        "{what}: signature"
    );
    assert_eq!(sizes.total(), cert.der_len(), "{what}: total");
    assert_eq!(cert.san_bytes(), san_bytes, "{what}: SAN bytes");
    assert_eq!(cert.san_bytes() > 0, cert.san_count() > 0, "{what}");
}

#[test]
fn recorded_field_sizes_equal_lengths_parsed_from_the_der() {
    let eco = Ecosystem::new();
    let mut leaf_keys = HashSet::new();
    for era in CertificateEra::ALL {
        for id in ChainId::ALL {
            for (i, cert) in eco.chain_era(id, era).intermediates.iter().enumerate() {
                assert_recorded_sizes_match_the_parsed_der(cert, &format!("{era} {id:?} #{i}"));
            }
        }
        for (i, key) in KeyAlgorithm::ALL.into_iter().enumerate() {
            let chain = eco.issue_era(
                ChainId::ALL[i * 5],
                era,
                LeafParams {
                    common_name: "shop.example.org",
                    listed_sans: &[],
                    // Enough SANs that the extension's length needs the
                    // long form.
                    extra_sans: 4 * i as u16,
                    key,
                    scts: 2 + i as u8 % 2,
                    seed: 0xF1E1D + i as u64,
                },
            );
            let leaf = &chain.leaf;
            assert_recorded_sizes_match_the_parsed_der(leaf, &format!("{era} {key:?} leaf"));
            leaf_keys.insert(leaf.key_algorithm());
        }
    }
    assert_eq!(leaf_keys, HashSet::from(KeyAlgorithm::ALL_ERAS));
}

/// Every constructed value of `value`, and the extnValue each Extension
/// wraps, is exactly filled by its children: no header announces a length
/// its content does not have, at any nesting level.
fn assert_every_nested_length_is_filled(value: &DerValue, path: &str) {
    if value.tag & 0x20 == 0 {
        return;
    }
    let children = value.children().unwrap_or_else(|e| panic!("{path}: {e}"));
    let filled: usize = children.iter().map(tlv_len).sum();
    assert_eq!(filled, value.content.len(), "{path}");
    for (i, child) in children.iter().enumerate() {
        let path = format!("{path}/{i}:{:#04x}", child.tag);
        assert_every_nested_length_is_filled(child, &path);
    }
}

/// Every nested length of `leaf`, and of the extnValue each of its
/// Extensions wraps.
fn assert_every_nested_length_of_the_leaf_is_filled(leaf: &Certificate, what: &str) {
    let parsed = der::parse_one(leaf.der()).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_every_nested_length_is_filled(&parsed, what);
    let tbs = &parsed.children().unwrap()[0];
    let extensions = &tbs.children().unwrap()[7].children().unwrap()[0];
    for (i, extension) in extensions.children().unwrap().iter().enumerate() {
        let parts = extension.children().unwrap();
        let value = der::parse_one(&parts.last().unwrap().content)
            .unwrap_or_else(|e| panic!("{what}: extension {i}: {e}"));
        assert_every_nested_length_is_filled(&value, &format!("{what}: extension {i}"));
    }
}

#[test]
fn every_quic_chain_class_of_a_100k_world_serves_a_leaf_whose_lengths_parse_back() {
    // One served leaf per distinct chain class: every input through which
    // a record reaches its chain's lengths (CN length, SAN count, serial
    // width, key, chain and era), so every length a QUIC scan's leaves
    // can take.
    let started = Instant::now();
    let world = World::streaming(WorldConfig {
        domains: 100_000,
        seed: 0x5CA1,
    });
    let mut services = Vec::new();
    world.quic_chunk_into(1, world.config.domains, &mut services);
    let mut classes = 0;
    for era in CertificateEra::ALL {
        let mut representatives = HashMap::new();
        for record in &services {
            let class = ChainClass::quic(record, era).expect("QUIC service");
            representatives.entry(class).or_insert(record);
        }
        for (class, record) in representatives {
            let chain = world.quic_chain_era(record, era).expect("QUIC service");
            let what = format!("{era} {class:?}");
            assert_every_nested_length_of_the_leaf_is_filled(&chain.leaf, &what);
            assert_recorded_sizes_match_the_parsed_der(&chain.leaf, &what);
            classes += 1;
        }
    }
    assert!(classes > 3 * 1_000, "{classes} classes");
    eprintln!(
        "{} QUIC services, {classes} chain classes over three eras, checked in {:.2} s",
        services.len(),
        started.elapsed().as_secs_f64()
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Random leaves shaped like the ecosystem's (a CN of 1–60 bytes,
    // sometimes a wildcard; 0–250 numbered SANs; any key, signature and
    // seed), measured and then written. `Writer::nested` also asserts, at
    // every level, that the content written is the length measured for it.
    #[test]
    fn one_pass_leaves_measure_exactly_what_they_write(
        cn in "[a-z0-9-]{1,60}",
        wildcard in any::<bool>(),
        extra_sans in 0u16..251,
        key_idx in 0usize..8,
        sig_idx in 0usize..8,
        scts in 0u8..4,
        seed in any::<u64>(),
    ) {
        let cn = match cn.get(2..) {
            Some(rest) if wildcard => format!("*.{rest}"),
            _ => cn,
        };
        let issuer = DistinguishedName::ca("US", "Property Trust Services", "Property CA 1");
        let sans = SanNames::leaf(&cn, &[], extra_sans);
        let leaf = CertificateBuilder::new(
            &issuer,
            Name::Cn(&cn),
            SubjectPublicKeyInfo::new(KEYS[key_idx], seed),
            SIGS[sig_idx],
        )
        .extensions(&[
            Extension::BasicConstraints { ca: false, path_len: None },
            Extension::KeyUsage(KeyUsageFlags::leaf()),
            Extension::ExtKeyUsage(&[oid::KP_SERVER_AUTH, oid::KP_CLIENT_AUTH]),
            Extension::SubjectKeyId { seed },
            Extension::AuthorityKeyId { seed: !seed },
            Extension::SubjectAltNames(sans),
            Extension::AuthorityInfoAccess {
                ocsp: Some("http://o.example-ca.test"),
                ca_issuers: Some("http://c.o.example-ca.test/issuer.der"),
            },
            Extension::CertificatePolicies(&[oid::CP_DOMAIN_VALIDATED]),
            Extension::SctList { count: scts, seed: seed ^ 0x5C7 },
        ])
        .build();
        let what = format!("{:?}/{:?} cn {} + {extra_sans} SANs", KEYS[key_idx], SIGS[sig_idx], cn.len());

        assert_every_nested_length_of_the_leaf_is_filled(&leaf, &what);
        assert_recorded_sizes_match_the_parsed_der(&leaf, &what);
        prop_assert_eq!(leaf.san_count(), sans.count());
        let www = usize::from(!cn.starts_with("*."));
        prop_assert_eq!(sans.count(), 1 + www + usize::from(extra_sans));
        prop_assert_eq!((leaf.key_algorithm(), leaf.signature_algorithm()), (KEYS[key_idx], SIGS[sig_idx]));
    }
}
