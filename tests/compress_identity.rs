//! Byte-identity pin of the certificate compressor.
//!
//! `fixtures/compress_digests.txt` holds, per input and RFC 8879 profile,
//! the length and FNV-1a digest of `compress(alg, input)`. The inputs are
//! what the scans actually compress — the TLS Certificate message and the
//! concatenated DER of the first 64 QUIC and the first 64 HTTPS chains a
//! seed-`0x5CA1` world serves in each certificate era — plus edge shapes
//! that each reach one corner of the encoder (see [`edge_shapes`]). The
//! digests were recorded on the compressor as it stood BEFORE its match
//! finder, Huffman build and bit writer were rewritten for speed; the
//! goldens downstream (report, metrics, `sim_digest`s) see the same bytes
//! only through their lengths. `QUICERT_BLESS=1` rewrites the fixture after
//! an intentional change to the container format or a profile's parameters
//! — never to make a refactor pass.

use std::fmt::Write;

use quicert::compress::{compress, Algorithm};
use quicert::pki::{CertificateEra, World, WorldConfig};
use quicert::tls::certificate_message_into;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/compress_digests.txt"
);
const LEAVES: usize = 64;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in bytes {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Deterministic filler with no structure the match finder can use.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut z = seed;
    (0..len)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x >> 33) as u8
        })
        .collect()
}

/// Inputs that each take one corner of the encoder.
fn edge_shapes() -> Vec<(String, Vec<u8>)> {
    let dict = Algorithm::Brotli.dictionary();
    let mut shapes = vec![("empty".to_string(), Vec::new())];
    // Too short to hash (under four bytes) and barely long enough.
    for n in 1..=7usize {
        shapes.push((
            format!("bytes-{n}"),
            (0..n as u8).map(|i| 0x30 + i).collect(),
        ));
    }
    // One overlapping match that has to be split at MAX_MATCH (64 KiB).
    shapes.push(("run-70k".to_string(), vec![0xA5; 70 * 1024]));
    // The brotli profile matches these straight out of its dictionary,
    // including the last positions, whose hashes straddle the boundary
    // between dictionary and input.
    shapes.push(("dict-prefix".to_string(), dict[..700].to_vec()));
    shapes.push(("dict-suffix".to_string(), dict[dict.len() - 64..].to_vec()));
    shapes.push(("dict-whole-twice".to_string(), [dict, dict].concat()));
    // A four-byte match at `a`, a ten-byte one a position later: the lazy
    // profile emits `a` as a literal and defers to the longer match.
    let mut lazy = Vec::new();
    lazy.extend_from_slice(b"abcdX....bcdeYYYYYY____");
    lazy.extend_from_slice(b"abcdeYYYYYY!abcdeYYYYYY?bcdeYYYYYYabcdX");
    shapes.push(("lazy-deferral".to_string(), lazy));
    // Forty KiB of filler, then its first four KiB again: beyond zlib's
    // 32 KiB window, inside the other two profiles'.
    let mut far = noise(0xFA2, 40 * 1024);
    far.extend_from_within(..4 * 1024);
    far.extend_from_within(38 * 1024..39 * 1024);
    shapes.push(("beyond-zlib-window".to_string(), far));
    // Two hundred candidates on one hash chain, the best one oldest: what
    // the chain limit lets the walk reach decides the output.
    let mut chain = b"needle-with-a-long-tail".to_vec();
    for i in 0..200u8 {
        chain.extend_from_slice(b"need");
        chain.push(i);
    }
    chain.extend_from_slice(b"needle-with-a-long-tail");
    shapes.push(("chain-limit".to_string(), chain));
    // A steep literal distribution (deep Huffman tree) and a flat one
    // (stored mode).
    let mut skew = Vec::new();
    for (sym, count) in [
        1usize, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
    ]
    .into_iter()
    .enumerate()
    {
        skew.extend(std::iter::repeat_n(sym as u8 * 17, count));
    }
    let order = noise(0x5CE, skew.len());
    let mut keyed: Vec<(u8, u8)> = order.into_iter().zip(skew).collect();
    keyed.sort();
    shapes.push((
        "skewed-literals".to_string(),
        keyed.into_iter().map(|(_, b)| b).collect(),
    ));
    shapes.push(("noise-3k".to_string(), noise(0x3000, 3 * 1024)));
    shapes
}

fn digests() -> String {
    let world = World::streaming(WorldConfig {
        domains: 4_000,
        seed: 0x5CA1,
    });
    let records = world.domain_chunk(1, world.config.domains);
    let mut out = String::new();
    let mut record = |label: &str, input: &[u8]| {
        for alg in Algorithm::ALL {
            let compressed = compress(alg, input);
            let digest = fnv1a(&compressed);
            writeln!(
                out,
                "{label} {alg} {} -> {} {digest:016x}",
                input.len(),
                compressed.len()
            )
            .unwrap();
        }
    };
    for (label, input) in edge_shapes() {
        record(&label, &input);
    }
    for era in CertificateEra::ALL {
        let https = records.iter().filter_map(|r| {
            let chain = world.https_chain_era(r, era)?;
            Some(("https", r.rank, chain))
        });
        let quic = records.iter().filter_map(|r| {
            let chain = world.quic_chain_era(r, era)?;
            Some(("quic", r.rank, chain))
        });
        for (kind, rank, chain) in quic.take(LEAVES).chain(https.take(LEAVES)) {
            let mut message = Vec::new();
            certificate_message_into(&mut message, &chain);
            record(&format!("{era} {kind} rank {rank} message"), &message);
            record(
                &format!("{era} {kind} rank {rank} der"),
                &chain.concatenated_der(),
            );
        }
    }
    out
}

#[test]
fn every_compressed_byte_is_what_it_was_before_the_rewrite() {
    let actual = digests();
    if std::env::var_os("QUICERT_BLESS").is_some_and(|v| v != "0") {
        std::fs::write(FIXTURE, &actual).expect("write fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(
        actual.lines().count(),
        3 * (edge_shapes().len() + 3 * 2 * 2 * LEAVES)
    );
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "compressed bytes changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
