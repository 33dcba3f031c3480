//! Public-key and signature algorithms.
//!
//! Table 2 of the paper reports the algorithm/key-length mix in the wild
//! (RSA-2048/4096, ECDSA P-256/P-384); the byte-size consequences of that
//! choice drive Figures 6–8. This module encodes SubjectPublicKeyInfo and
//! signature values with exactly the DER layout (and therefore exactly the
//! sizes) of the real algorithms.

use crate::der::{self, tag, Writer};
use crate::fill_deterministic;
use crate::oid::{self, Oid};

/// ML-DSA-44 public-key size in bytes (FIPS 204, Table 2).
pub(crate) const ML_DSA_44_PK_LEN: usize = 1312;
/// ML-DSA-44 signature size in bytes.
pub const ML_DSA_44_SIG_LEN: usize = 2420;
/// ML-DSA-65 public-key size in bytes.
pub(crate) const ML_DSA_65_PK_LEN: usize = 1952;
/// ML-DSA-65 signature size in bytes.
pub const ML_DSA_65_SIG_LEN: usize = 3309;

/// Public-key algorithm and key length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyAlgorithm {
    /// RSA with a 2048-bit modulus.
    Rsa2048,
    /// RSA with a 4096-bit modulus.
    Rsa4096,
    /// ECDSA on P-256 (prime256v1).
    EcdsaP256,
    /// ECDSA on P-384 (secp384r1).
    EcdsaP384,
    /// ML-DSA-44 (FIPS 204; 1312-byte public key, 2420-byte signature).
    MlDsa44,
    /// ML-DSA-65 (FIPS 204; 1952-byte public key, 3309-byte signature).
    MlDsa65,
    /// Composite hybrid ECDSA P-256 + ML-DSA-44
    /// (draft-ietf-lamps-pq-composite-sigs).
    HybridP256MlDsa44,
    /// Composite hybrid ECDSA P-384 + ML-DSA-65.
    HybridP384MlDsa65,
}

impl KeyAlgorithm {
    /// The classical algorithms, in Table 2 column order. (The paper's 2022
    /// scan saw no post-quantum keys; [`KeyAlgorithm::ALL_ERAS`] adds them.)
    pub const ALL: [KeyAlgorithm; 4] = [
        KeyAlgorithm::Rsa2048,
        KeyAlgorithm::Rsa4096,
        KeyAlgorithm::EcdsaP256,
        KeyAlgorithm::EcdsaP384,
    ];

    /// Every supported algorithm, classical first.
    pub const ALL_ERAS: [KeyAlgorithm; 8] = [
        KeyAlgorithm::Rsa2048,
        KeyAlgorithm::Rsa4096,
        KeyAlgorithm::EcdsaP256,
        KeyAlgorithm::EcdsaP384,
        KeyAlgorithm::MlDsa44,
        KeyAlgorithm::MlDsa65,
        KeyAlgorithm::HybridP256MlDsa44,
        KeyAlgorithm::HybridP384MlDsa65,
    ];

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            KeyAlgorithm::Rsa2048 => "RSA-2048",
            KeyAlgorithm::Rsa4096 => "RSA-4096",
            KeyAlgorithm::EcdsaP256 => "ECDSA-256",
            KeyAlgorithm::EcdsaP384 => "ECDSA-384",
            KeyAlgorithm::MlDsa44 => "ML-DSA-44",
            KeyAlgorithm::MlDsa65 => "ML-DSA-65",
            KeyAlgorithm::HybridP256MlDsa44 => "ECDSA-256+ML-DSA-44",
            KeyAlgorithm::HybridP384MlDsa65 => "ECDSA-384+ML-DSA-65",
        }
    }

    /// Whether this key contains a post-quantum component (pure ML-DSA or a
    /// classical+ML-DSA hybrid).
    pub fn is_post_quantum(self) -> bool {
        matches!(
            self,
            KeyAlgorithm::MlDsa44
                | KeyAlgorithm::MlDsa65
                | KeyAlgorithm::HybridP256MlDsa44
                | KeyAlgorithm::HybridP384MlDsa65
        )
    }

    /// Raw public-key material size in bytes (modulus, field element, or
    /// ML-DSA public key; hybrids count both components).
    pub(crate) fn key_bytes(self) -> usize {
        match self {
            KeyAlgorithm::Rsa2048 => 256,
            KeyAlgorithm::Rsa4096 => 512,
            KeyAlgorithm::EcdsaP256 => 32,
            KeyAlgorithm::EcdsaP384 => 48,
            KeyAlgorithm::MlDsa44 => ML_DSA_44_PK_LEN,
            KeyAlgorithm::MlDsa65 => ML_DSA_65_PK_LEN,
            // Uncompressed EC point (1 + 2·coord) plus the ML-DSA key.
            KeyAlgorithm::HybridP256MlDsa44 => 65 + ML_DSA_44_PK_LEN,
            KeyAlgorithm::HybridP384MlDsa65 => 97 + ML_DSA_65_PK_LEN,
        }
    }
}

/// A signature algorithm (hash + key flavour), as it appears both in the
/// `signatureAlgorithm` field and in the signature value size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureAlgorithm {
    /// sha256WithRSAEncryption over a 2048-bit key (256-byte signature).
    Sha256WithRsa2048,
    /// sha384WithRSAEncryption over a 4096-bit key (512-byte signature).
    Sha384WithRsa4096,
    /// ecdsa-with-SHA256 (DER-encoded r/s pair, ~70 bytes).
    EcdsaSha256,
    /// ecdsa-with-SHA384 (DER-encoded r/s pair, ~102 bytes).
    EcdsaSha384,
    /// id-ml-dsa-44 (raw 2420-byte signature, FIPS 204).
    MlDsa44,
    /// id-ml-dsa-65 (raw 3309-byte signature).
    MlDsa65,
    /// Composite ML-DSA-44 + ECDSA-P256 (SEQUENCE of two BIT STRINGs,
    /// draft-ietf-lamps-pq-composite-sigs).
    CompositeP256MlDsa44,
    /// Composite ML-DSA-65 + ECDSA-P384.
    CompositeP384MlDsa65,
}

impl SignatureAlgorithm {
    /// The algorithm OID, and whether the AlgorithmIdentifier carries an
    /// explicit NULL parameter (RSA does; ECDSA, ML-DSA and the composites
    /// have absent parameters — draft-ietf-lamps-dilithium-certificates §4).
    fn identifier(self) -> (&'static Oid, bool) {
        match self {
            SignatureAlgorithm::Sha256WithRsa2048 => (&oid::SHA256_WITH_RSA, true),
            SignatureAlgorithm::Sha384WithRsa4096 => (&oid::SHA384_WITH_RSA, true),
            SignatureAlgorithm::EcdsaSha256 => (&oid::ECDSA_WITH_SHA256, false),
            SignatureAlgorithm::EcdsaSha384 => (&oid::ECDSA_WITH_SHA384, false),
            SignatureAlgorithm::MlDsa44 => (&oid::ML_DSA_44, false),
            SignatureAlgorithm::MlDsa65 => (&oid::ML_DSA_65, false),
            SignatureAlgorithm::CompositeP256MlDsa44 => (&oid::COMPOSITE_MLDSA44_ECDSA_P256, false),
            SignatureAlgorithm::CompositeP384MlDsa65 => (&oid::COMPOSITE_MLDSA65_ECDSA_P384, false),
        }
    }

    /// Append the AlgorithmIdentifier SEQUENCE to `w`.
    pub fn encode_into(self, w: &mut Writer) {
        let (oid, null_parameter) = self.identifier();
        algorithm_identifier(w, oid, |w| {
            if null_parameter {
                w.null();
            }
        });
    }

    /// Produce a deterministic placeholder signature value with the exact
    /// size/structure of a real signature made with this algorithm.
    pub(crate) fn placeholder_signature(self, seed: u64) -> Vec<u8> {
        match self {
            SignatureAlgorithm::Sha256WithRsa2048 => deterministic_bytes(seed, 256),
            SignatureAlgorithm::Sha384WithRsa4096 => deterministic_bytes(seed, 512),
            SignatureAlgorithm::EcdsaSha256 => ecdsa_sig_value(seed, 32),
            SignatureAlgorithm::EcdsaSha384 => ecdsa_sig_value(seed, 48),
            // ML-DSA signatures are raw byte strings of fixed size; no
            // high-bit adjustment applies.
            SignatureAlgorithm::MlDsa44 => ml_dsa_sig_value(seed, ML_DSA_44_SIG_LEN),
            SignatureAlgorithm::MlDsa65 => ml_dsa_sig_value(seed, ML_DSA_65_SIG_LEN),
            SignatureAlgorithm::CompositeP256MlDsa44 => {
                composite_sig_value(seed, ML_DSA_44_SIG_LEN, 32)
            }
            SignatureAlgorithm::CompositeP384MlDsa65 => {
                composite_sig_value(seed, ML_DSA_65_SIG_LEN, 48)
            }
        }
    }

    /// Whether this signature contains a post-quantum component.
    pub fn is_post_quantum(self) -> bool {
        matches!(
            self,
            SignatureAlgorithm::MlDsa44
                | SignatureAlgorithm::MlDsa65
                | SignatureAlgorithm::CompositeP256MlDsa44
                | SignatureAlgorithm::CompositeP384MlDsa65
        )
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SignatureAlgorithm::Sha256WithRsa2048 => "sha256WithRSAEncryption",
            SignatureAlgorithm::Sha384WithRsa4096 => "sha384WithRSAEncryption",
            SignatureAlgorithm::EcdsaSha256 => "ecdsa-with-SHA256",
            SignatureAlgorithm::EcdsaSha384 => "ecdsa-with-SHA384",
            SignatureAlgorithm::MlDsa44 => "id-ml-dsa-44",
            SignatureAlgorithm::MlDsa65 => "id-ml-dsa-65",
            SignatureAlgorithm::CompositeP256MlDsa44 => "MLDSA44-ECDSA-P256-SHA256",
            SignatureAlgorithm::CompositeP384MlDsa65 => "MLDSA65-ECDSA-P384-SHA384",
        }
    }
}

/// Seed salt of ML-DSA signature filler.
const ML_DSA_SIG_SALT: u64 = 0x4D4C_4453_4121;

/// AlgorithmIdentifier ::= SEQUENCE { algorithm OID, parameters ANY OPTIONAL }.
fn algorithm_identifier(w: &mut Writer, algorithm: &Oid, parameters: impl FnOnce(&mut Writer)) {
    w.constructed(tag::SEQUENCE, |w| {
        algorithm.encode_into(w);
        parameters(w);
    });
}

/// A BIT STRING (no unused bits) of `n` filler bytes; returns the filler.
fn filled_bit_string(w: &mut Writer, seed: u64, n: usize) -> &mut [u8] {
    w.header(tag::BIT_STRING, n + 1);
    w.raw(&[0]);
    w.fill(seed, n)
}

/// A BIT STRING (no unused bits) around the encoding `content` writes.
fn bit_string_around(w: &mut Writer, content: impl FnOnce(&mut Writer)) {
    w.constructed(tag::BIT_STRING, |w| {
        w.raw(&[0]);
        content(w);
    });
}

fn deterministic_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    fill_deterministic(seed, &mut v);
    // An RSA signature is an integer below the modulus: clear the top bit so
    // the placeholder stays structurally plausible.
    if let Some(first) = v.first_mut() {
        *first &= 0x7F;
        *first |= 0x40;
    }
    v
}

/// An ML-DSA signature value: a raw byte string of the FIPS 204 size.
fn ml_dsa_sig_value(seed: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_deterministic(seed ^ ML_DSA_SIG_SALT, &mut v);
    v
}

/// A composite signature value (draft-ietf-lamps-pq-composite-sigs):
/// SEQUENCE { mldsa BIT STRING, classical BIT STRING }.
fn composite_sig_value(seed: u64, mldsa_len: usize, scalar_len: usize) -> Vec<u8> {
    let mut w = Writer::with_capacity(mldsa_len + 2 * scalar_len + 24);
    w.constructed(tag::SEQUENCE, |w| {
        filled_bit_string(w, seed ^ 0x4D4C ^ ML_DSA_SIG_SALT, mldsa_len);
        bit_string_around(w, |w| write_ecdsa_sig(w, seed, scalar_len));
    });
    w.into_vec()
}

/// An ECDSA signature value: SEQUENCE { r INTEGER, s INTEGER }. The high bit
/// of each scalar is cleared (and the next one set) so neither sign padding
/// nor zero stripping applies, giving the canonical fixed size
/// (2·(n+2)+2 bytes).
fn ecdsa_sig_value(seed: u64, scalar_len: usize) -> Vec<u8> {
    let mut w = Writer::with_capacity(2 * (scalar_len + 2) + 2);
    write_ecdsa_sig(&mut w, seed, scalar_len);
    w.into_vec()
}

fn write_ecdsa_sig(w: &mut Writer, seed: u64, scalar_len: usize) {
    w.constructed(tag::SEQUENCE, |w| {
        for salt in [0x5252_5252, 0x5353_5353] {
            w.header(tag::INTEGER, scalar_len);
            let scalar = w.fill(seed ^ salt, scalar_len);
            scalar[0] = (scalar[0] & 0x7F) | 0x40;
        }
    });
}

/// A subject public key: algorithm identifier plus placeholder key material
/// of exactly the right encoded size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectPublicKeyInfo {
    /// Key algorithm.
    pub algorithm: KeyAlgorithm,
    /// Deterministic seed the key bytes are derived from.
    pub seed: u64,
}

impl SubjectPublicKeyInfo {
    /// Create an SPKI for `algorithm` with key bytes derived from `seed`.
    pub fn new(algorithm: KeyAlgorithm, seed: u64) -> Self {
        SubjectPublicKeyInfo { algorithm, seed }
    }

    /// Append the full SubjectPublicKeyInfo SEQUENCE to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        let seed = self.seed;
        // Uncompressed EC point: 0x04 || X || Y.
        let ec_point = |w: &mut Writer, coord: usize| {
            filled_bit_string(w, seed, 1 + 2 * coord)[0] = 0x04;
        };
        w.constructed(tag::SEQUENCE, |w| match self.algorithm {
            KeyAlgorithm::Rsa2048 | KeyAlgorithm::Rsa4096 => {
                algorithm_identifier(w, &oid::RSA_ENCRYPTION, Writer::null);
                bit_string_around(w, |w| {
                    // RSAPublicKey ::= SEQUENCE { modulus, publicExponent }
                    w.constructed(tag::SEQUENCE, |w| {
                        // A real modulus has its top bit set (it is exactly
                        // n bits), so the INTEGER carries a sign octet.
                        let n_len = self.algorithm.key_bytes();
                        w.header(tag::INTEGER, n_len + 1);
                        w.raw(&[0]);
                        w.fill(seed, n_len)[0] |= 0x80;
                        w.integer_u64(65537);
                    });
                });
            }
            KeyAlgorithm::EcdsaP256 | KeyAlgorithm::EcdsaP384 => {
                let curve = match self.algorithm {
                    KeyAlgorithm::EcdsaP256 => &oid::PRIME256V1,
                    _ => &oid::SECP384R1,
                };
                algorithm_identifier(w, &oid::EC_PUBLIC_KEY, |w| curve.encode_into(w));
                ec_point(w, self.algorithm.key_bytes());
            }
            KeyAlgorithm::MlDsa44 | KeyAlgorithm::MlDsa65 => {
                // ML-DSA SPKI: AlgorithmIdentifier with absent parameters,
                // subjectPublicKey = the raw FIPS 204 public key.
                let alg_oid = match self.algorithm {
                    KeyAlgorithm::MlDsa44 => &oid::ML_DSA_44,
                    _ => &oid::ML_DSA_65,
                };
                algorithm_identifier(w, alg_oid, |_| {});
                filled_bit_string(w, seed, self.algorithm.key_bytes());
            }
            KeyAlgorithm::HybridP256MlDsa44 | KeyAlgorithm::HybridP384MlDsa65 => {
                // CompositeSignaturePublicKey ::= SEQUENCE { BIT STRING,
                // BIT STRING } (ML-DSA key first, then the EC point),
                // wrapped in the SPKI subjectPublicKey BIT STRING.
                let (alg_oid, mldsa_len, coord) = match self.algorithm {
                    KeyAlgorithm::HybridP256MlDsa44 => {
                        (&oid::COMPOSITE_MLDSA44_ECDSA_P256, ML_DSA_44_PK_LEN, 32)
                    }
                    _ => (&oid::COMPOSITE_MLDSA65_ECDSA_P384, ML_DSA_65_PK_LEN, 48),
                };
                algorithm_identifier(w, alg_oid, |_| {});
                bit_string_around(w, |w| {
                    w.constructed(tag::SEQUENCE, |w| {
                        filled_bit_string(w, seed ^ 0x004D_4C4B_4559, mldsa_len);
                        ec_point(w, coord);
                    });
                });
            }
        });
    }

    /// Encode the full SubjectPublicKeyInfo SEQUENCE.
    pub fn encode(&self) -> Vec<u8> {
        der::encoded(|w| self.encode_into(w))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::parse_one;

    #[test]
    fn spki_sizes_match_real_world_values() {
        // Reference sizes from real certificates (openssl asn1parse).
        assert_eq!(
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa2048, 1).encoded_len(),
            294
        );
        assert_eq!(
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa4096, 1).encoded_len(),
            550
        );
        assert_eq!(
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 1).encoded_len(),
            91
        );
        assert_eq!(
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP384, 1).encoded_len(),
            120
        );
    }

    #[test]
    fn spki_is_wellformed_der() {
        for alg in KeyAlgorithm::ALL_ERAS {
            let spki = SubjectPublicKeyInfo::new(alg, 99).encode();
            let parsed = parse_one(&spki).unwrap();
            let children = parsed.children().unwrap();
            assert_eq!(children.len(), 2, "{alg:?}: AlgId + BIT STRING");
            assert_eq!(children[1].tag, 0x03);
        }
    }

    #[test]
    fn ml_dsa_spki_carries_the_fips_204_key_sizes() {
        // The subjectPublicKey BIT STRING holds exactly the raw key (plus
        // the unused-bits prefix octet).
        for (alg, pk_len) in [
            (KeyAlgorithm::MlDsa44, ML_DSA_44_PK_LEN),
            (KeyAlgorithm::MlDsa65, ML_DSA_65_PK_LEN),
        ] {
            let spki = SubjectPublicKeyInfo::new(alg, 5).encode();
            let children = parse_one(&spki).unwrap().children().unwrap();
            assert_eq!(children[1].content.len(), 1 + pk_len, "{alg:?}");
        }
        // Composite SPKIs nest a SEQUENCE of two BIT STRINGs.
        for (alg, mldsa_len, point_len) in [
            (KeyAlgorithm::HybridP256MlDsa44, ML_DSA_44_PK_LEN, 65),
            (KeyAlgorithm::HybridP384MlDsa65, ML_DSA_65_PK_LEN, 97),
        ] {
            let spki = SubjectPublicKeyInfo::new(alg, 5).encode();
            let children = parse_one(&spki).unwrap().children().unwrap();
            let inner = parse_one(&children[1].content[1..]).unwrap();
            let parts = inner.children().unwrap();
            assert_eq!(parts.len(), 2, "{alg:?}");
            assert_eq!(parts[0].content.len(), 1 + mldsa_len, "{alg:?}");
            assert_eq!(parts[1].content.len(), 1 + point_len, "{alg:?}");
        }
    }

    #[test]
    fn ml_dsa_signature_sizes_match_fips_204() {
        assert_eq!(
            SignatureAlgorithm::MlDsa44.placeholder_signature(5).len(),
            ML_DSA_44_SIG_LEN
        );
        assert_eq!(
            SignatureAlgorithm::MlDsa65.placeholder_signature(5).len(),
            ML_DSA_65_SIG_LEN
        );
        // The composite signature wraps both components in DER framing, so
        // it is slightly larger than the sum of the raw signatures.
        let composite = SignatureAlgorithm::CompositeP256MlDsa44
            .placeholder_signature(5)
            .len();
        assert!(composite > ML_DSA_44_SIG_LEN + 70, "{composite}");
        assert!(composite < ML_DSA_44_SIG_LEN + 70 + 24, "{composite}");
        let parts = parse_one(&SignatureAlgorithm::CompositeP384MlDsa65.placeholder_signature(6))
            .unwrap()
            .children()
            .unwrap();
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.tag == 0x03));
    }

    #[test]
    fn pq_spki_sizes_dwarf_classical_ones() {
        // The crux of the era axis: the SPKI alone is an order of magnitude
        // bigger than the ECDSA keys that dominate today's QUIC population.
        let p256 = SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 1).encoded_len();
        let mldsa44 = SubjectPublicKeyInfo::new(KeyAlgorithm::MlDsa44, 1).encoded_len();
        let hybrid = SubjectPublicKeyInfo::new(KeyAlgorithm::HybridP256MlDsa44, 1).encoded_len();
        assert!(mldsa44 > 10 * p256, "{mldsa44} vs {p256}");
        assert!(hybrid > mldsa44, "{hybrid} vs {mldsa44}");
    }

    #[test]
    fn pq_flags_and_labels() {
        assert!(KeyAlgorithm::MlDsa44.is_post_quantum());
        assert!(KeyAlgorithm::HybridP384MlDsa65.is_post_quantum());
        assert!(!KeyAlgorithm::EcdsaP256.is_post_quantum());
        assert!(SignatureAlgorithm::MlDsa44.is_post_quantum());
        assert!(!SignatureAlgorithm::EcdsaSha256.is_post_quantum());
        assert_eq!(KeyAlgorithm::MlDsa65.label(), "ML-DSA-65");
        assert_eq!(
            KeyAlgorithm::HybridP256MlDsa44.label(),
            "ECDSA-256+ML-DSA-44"
        );
    }

    #[test]
    fn signature_sizes_match_real_world_values() {
        assert_eq!(
            SignatureAlgorithm::Sha256WithRsa2048
                .placeholder_signature(5)
                .len(),
            256
        );
        assert_eq!(
            SignatureAlgorithm::Sha384WithRsa4096
                .placeholder_signature(5)
                .len(),
            512
        );
        // Canonical ECDSA DER size with sign-bit-free scalars.
        assert_eq!(
            SignatureAlgorithm::EcdsaSha256
                .placeholder_signature(5)
                .len(),
            70
        );
        assert_eq!(
            SignatureAlgorithm::EcdsaSha384
                .placeholder_signature(5)
                .len(),
            102
        );
    }

    #[test]
    fn signatures_are_deterministic_per_seed() {
        let a = SignatureAlgorithm::EcdsaSha256.placeholder_signature(7);
        let b = SignatureAlgorithm::EcdsaSha256.placeholder_signature(7);
        let c = SignatureAlgorithm::EcdsaSha256.placeholder_signature(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ecdsa_signature_parses_as_two_integers() {
        let sig = SignatureAlgorithm::EcdsaSha384.placeholder_signature(3);
        let parsed = parse_one(&sig).unwrap();
        let ints = parsed.children().unwrap();
        assert_eq!(ints.len(), 2);
        assert!(ints.iter().all(|i| i.tag == 0x02));
        assert!(ints.iter().all(|i| i.content.len() == 48));
    }

    #[test]
    fn algorithm_identifier_parameter_conventions() {
        // RSA: NULL params present.
        let rsa = der::encoded(|w| SignatureAlgorithm::Sha256WithRsa2048.encode_into(w));
        let rsa_children = parse_one(&rsa).unwrap().children().unwrap();
        assert_eq!(rsa_children.len(), 2);
        assert_eq!(rsa_children[1].tag, 0x05);
        // ECDSA: params absent.
        let ec = der::encoded(|w| SignatureAlgorithm::EcdsaSha256.encode_into(w));
        let ec_children = parse_one(&ec).unwrap().children().unwrap();
        assert_eq!(ec_children.len(), 1);
    }

    #[test]
    fn table2_labels() {
        assert_eq!(KeyAlgorithm::Rsa2048.label(), "RSA-2048");
        assert_eq!(KeyAlgorithm::EcdsaP384.label(), "ECDSA-384");
    }
}
