//! The field attribution `Certificate::assemble` records from writer
//! offsets, checked against lengths re-derived by *parsing* the finished
//! DER — for leaves of every key algorithm and every catalog intermediate
//! in every era.

use std::collections::HashSet;

use quicert_pki::{CertificateEra, ChainId, Ecosystem, LeafParams};
use quicert_x509::der::{self, DerValue};
use quicert_x509::{Certificate, KeyAlgorithm};

/// Content octets of the id-ce-subjectAltName OID (2.5.29.17).
const SAN_OID: [u8; 3] = [0x55, 0x1D, 0x11];

/// Encoded length of a parsed value: its content plus tag/length framing.
fn tlv_len(value: &DerValue) -> usize {
    der::tlv(value.tag, &value.content).len()
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
                    common_name: "shop.example.org".into(),
                    // Enough SANs that the extension's length needs the
                    // long form.
                    extra_sans: (0..4 * i).map(|n| format!("alt-{n}.example.org")).collect(),
                    key,
                    scts: 2 + i as u8 % 2,
                    seed: 0xF1E1D + i as u64,
                },
            );
            let leaf = &chain.leaf;
            assert_recorded_sizes_match_the_parsed_der(leaf, &format!("{era} {key:?} leaf"));
            leaf_keys.insert(leaf.tbs.spki.algorithm);
        }
    }
    assert_eq!(leaf_keys, HashSet::from(KeyAlgorithm::ALL_ERAS));
}
