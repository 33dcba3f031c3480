//! # quicert-x509 — from-scratch DER and X.509 v3 certificates
//!
//! The paper's figures all hinge on certificate *sizes*: the size of each
//! X.509 field (Fig 2b, Fig 8), the size of full chains (Fig 5–7), and how
//! those sizes interact with the QUIC anti-amplification limit. To reproduce
//! them faithfully, this crate implements a real DER encoder and an X.509 v3
//! certificate model: every certificate in the workspace is genuine DER whose
//! byte counts come from actual encoding, not from lookup tables.
//!
//! Cryptographic *signatures and keys are structurally faithful placeholders*:
//! they have exactly the DER shape and length of real RSA-2048/4096 and
//! ECDSA P-256/P-384 material, but the bits are deterministic pseudo-random
//! values. The paper never verifies signatures — only their sizes matter —
//! and this keeps the workspace free of external crypto dependencies
//! (the per-algorithm sizes are pinned by the tests in [`alg`]).
//!
//! A minimal DER *reader* is included so tests can property-check that the
//! encoder emits well-formed, round-trippable TLV structures.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub mod alg;
pub mod cert;
pub mod chain;
pub mod der;
pub mod ext;
pub mod name;
pub mod oid;
pub mod time;

pub use alg::{KeyAlgorithm, SignatureAlgorithm, SubjectPublicKeyInfo};
pub use cert::{Certificate, CertificateBuilder, FieldSizes, Validity};
pub use chain::CertificateChain;
pub use der::DerValue;
pub use ext::Extension;
pub use name::{AttrKind, DistinguishedName};
pub use oid::Oid;
pub use time::Time;

/// Deterministic 64-bit mixer used to derive placeholder key/signature bytes
/// from `(seed, counter)` pairs without pulling in an RNG dependency.
/// (SplitMix64 finalizer.)
pub(crate) fn mix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill a buffer with deterministic pseudo-random bytes derived from `seed`.
pub(crate) fn fill_deterministic(seed: u64, buf: &mut [u8]) {
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let v = mix64(seed, i as u64).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&v[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(1, 3));
        assert_ne!(mix64(1, 2), mix64(2, 2));
    }

    #[test]
    fn fill_deterministic_covers_tail() {
        let mut a = [0u8; 13];
        fill_deterministic(7, &mut a);
        let mut b = [0u8; 13];
        fill_deterministic(7, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }
}
