//! Byte-identity pin of everything the CA ecosystem encodes.
//!
//! `fixtures/der_digests.txt` holds FNV-1a digests of the DER of every
//! catalogued parent chain in all three certificate eras, and of the first
//! 64 HTTPS and the first 64 QUIC leaves a seed-`0x5CA1` world issues per
//! era. They were computed before the encoder was rewritten onto
//! `der::Writer`; the goldens downstream (report, metrics, determinism
//! matrix) pin the same bytes only through sizes and handshake outcomes.
//! `QUICERT_BLESS=1` rewrites the fixture after an intentional change to
//! what a certificate contains.

use std::fmt::Write;

use quicert_pki::{CertificateEra, ChainId, World, WorldConfig};
use quicert_x509::Certificate;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/der_digests.txt"
);
const LEAVES: usize = 64;

fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in parts.into_iter().flatten() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn digests() -> String {
    let world = World::streaming(WorldConfig {
        domains: 4_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let mut out = String::new();
    for era in CertificateEra::ALL {
        for id in ChainId::ALL {
            let parents = &world.ecosystem.chain_era(id, era).intermediates;
            let digest = fnv1a(parents.iter().map(Certificate::der));
            writeln!(out, "{era} parents {id:?} {digest:016x}").unwrap();
        }
        let https = records.iter().filter_map(|r| {
            let chain = world.https_chain_era(r, era)?;
            Some(("https", r.rank, chain))
        });
        let quic = records.iter().filter_map(|r| {
            let chain = world.quic_chain_era(r, era)?;
            Some(("quic", r.rank, chain))
        });
        for (kind, rank, chain) in https.take(LEAVES).chain(quic.take(LEAVES)) {
            let digest = fnv1a([chain.leaf.der()]);
            writeln!(out, "{era} {kind} leaf rank {rank} {digest:016x}").unwrap();
        }
    }
    out
}

#[test]
fn every_catalogued_and_issued_certificate_keeps_its_bytes() {
    let actual = digests();
    if std::env::var_os("QUICERT_BLESS").is_some() {
        std::fs::write(FIXTURE, &actual).expect("write fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(
        actual.lines().count(),
        3 * (ChainId::ALL.len() + 2 * LEAVES)
    );
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "DER bytes changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
