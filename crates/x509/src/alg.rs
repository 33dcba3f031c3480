//! Public-key and signature algorithms.
//!
//! Table 2 of the paper reports the algorithm/key-length mix in the wild
//! (RSA-2048/4096, ECDSA P-256/P-384); the byte-size consequences of that
//! choice drive Figures 6–8. This module encodes SubjectPublicKeyInfo and
//! signature values with exactly the DER layout (and therefore exactly the
//! sizes) of the real algorithms.

use crate::der::{tag, Writer, NULL};
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
    /// The AlgorithmIdentifier: the OID, with an explicit NULL parameter
    /// for RSA; ECDSA, ML-DSA and the composites have absent parameters
    /// (draft-ietf-lamps-dilithium-certificates §4).
    fn identifier(self) -> AlgorithmIdentifier {
        let (oid, parameters): (&'static Oid, &'static [u8]) = match self {
            SignatureAlgorithm::Sha256WithRsa2048 => (&oid::SHA256_WITH_RSA, &NULL),
            SignatureAlgorithm::Sha384WithRsa4096 => (&oid::SHA384_WITH_RSA, &NULL),
            SignatureAlgorithm::EcdsaSha256 => (&oid::ECDSA_WITH_SHA256, &[]),
            SignatureAlgorithm::EcdsaSha384 => (&oid::ECDSA_WITH_SHA384, &[]),
            SignatureAlgorithm::MlDsa44 => (&oid::ML_DSA_44, &[]),
            SignatureAlgorithm::MlDsa65 => (&oid::ML_DSA_65, &[]),
            SignatureAlgorithm::CompositeP256MlDsa44 => (&oid::COMPOSITE_MLDSA44_ECDSA_P256, &[]),
            SignatureAlgorithm::CompositeP384MlDsa65 => (&oid::COMPOSITE_MLDSA65_ECDSA_P384, &[]),
        };
        AlgorithmIdentifier(oid, parameters)
    }

    /// Append the AlgorithmIdentifier SEQUENCE to `w`.
    pub fn encode_into(self, w: &mut Writer) {
        self.identifier().encode_into(w);
    }

    /// Append a deterministic placeholder signature value with the exact
    /// size and structure of a real signature made with this algorithm:
    /// what the certificate's signature BIT STRING carries after its
    /// unused-bits octet.
    pub(crate) fn write_signature(self, w: &mut Writer, seed: u64) {
        match self {
            SignatureAlgorithm::Sha256WithRsa2048 => write_rsa_sig(w, seed, 256),
            SignatureAlgorithm::Sha384WithRsa4096 => write_rsa_sig(w, seed, 512),
            SignatureAlgorithm::EcdsaSha256 => write_ecdsa_sig(w, seed, 32),
            SignatureAlgorithm::EcdsaSha384 => write_ecdsa_sig(w, seed, 48),
            // ML-DSA signatures are raw byte strings of fixed size; no
            // high-bit adjustment applies.
            SignatureAlgorithm::MlDsa44 => {
                w.fill(seed ^ ML_DSA_SIG_SALT, ML_DSA_44_SIG_LEN);
            }
            SignatureAlgorithm::MlDsa65 => {
                w.fill(seed ^ ML_DSA_SIG_SALT, ML_DSA_65_SIG_LEN);
            }
            SignatureAlgorithm::CompositeP256MlDsa44 => {
                write_composite_sig(w, seed, ML_DSA_44_SIG_LEN, 32)
            }
            SignatureAlgorithm::CompositeP384MlDsa65 => {
                write_composite_sig(w, seed, ML_DSA_65_SIG_LEN, 48)
            }
        }
    }

    /// The placeholder signature value as its own buffer.
    #[cfg(test)]
    fn placeholder_signature(self, seed: u64) -> Vec<u8> {
        crate::der::encoded(|w| self.write_signature(w, seed))
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

/// AlgorithmIdentifier ::= SEQUENCE { algorithm OID, parameters ANY
/// OPTIONAL }, with the parameters already encoded (empty when absent).
#[derive(Clone, Copy)]
struct AlgorithmIdentifier(&'static Oid, &'static [u8]);

impl AlgorithmIdentifier {
    fn encode_into(self, w: &mut Writer) {
        w.nested(tag::SEQUENCE, |w| {
            self.0.encode_into(w);
            w.raw(self.1);
        });
    }
}

/// A BIT STRING (no unused bits) around whatever `content` writes.
fn bit_string_of(w: &mut Writer, content: impl FnOnce(&mut Writer)) {
    w.nested(tag::BIT_STRING, |w| {
        w.raw(&[0]);
        content(w);
    });
}

/// A BIT STRING (no unused bits) of `n` filler bytes.
fn filled_bit_string(w: &mut Writer, seed: u64, n: usize) {
    bit_string_of(w, |w| {
        w.fill(seed, n);
    });
}

/// An RSA signature value of `n` bytes. It is an integer below the
/// modulus: the top bit is cleared (and the next set) so the placeholder
/// stays structurally plausible.
fn write_rsa_sig(w: &mut Writer, seed: u64, n: usize) {
    let first = w.fill(seed, n);
    *first = (*first & 0x7F) | 0x40;
}

/// An ECDSA signature value: SEQUENCE { r INTEGER, s INTEGER } over
/// `scalar_len`-byte scalars. The high bit of each scalar is cleared (and
/// the next one set) so neither sign padding nor zero stripping applies,
/// giving the canonical fixed size (2·(n+2)+2 bytes).
fn write_ecdsa_sig(w: &mut Writer, seed: u64, scalar_len: usize) {
    w.nested(tag::SEQUENCE, |w| {
        for salt in [0x5252_5252, 0x5353_5353] {
            w.nested(tag::INTEGER, |w| {
                let scalar = w.fill(seed ^ salt, scalar_len);
                *scalar = (*scalar & 0x7F) | 0x40;
            });
        }
    });
}

/// A composite signature value (draft-ietf-lamps-pq-composite-sigs):
/// SEQUENCE { mldsa BIT STRING, classical BIT STRING }.
fn write_composite_sig(w: &mut Writer, seed: u64, mldsa_len: usize, scalar_len: usize) {
    w.nested(tag::SEQUENCE, |w| {
        filled_bit_string(w, seed ^ 0x4D4C ^ ML_DSA_SIG_SALT, mldsa_len);
        bit_string_of(w, |w| write_ecdsa_sig(w, seed, scalar_len));
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

/// An uncompressed EC point (0x04 || X || Y) over `coord`-byte
/// coordinates, as a BIT STRING.
fn ec_point(w: &mut Writer, seed: u64, coord: usize) {
    bit_string_of(w, |w| *w.fill(seed, 1 + 2 * coord) = 0x04);
}

/// An RSAPublicKey ::= SEQUENCE { modulus, publicExponent } over a
/// `modulus`-byte modulus, as a BIT STRING. A real modulus has its top bit
/// set (it is exactly n bits), so the INTEGER carries a sign octet.
fn rsa_public_key(w: &mut Writer, seed: u64, modulus: usize) {
    bit_string_of(w, |w| {
        w.nested(tag::SEQUENCE, |w| {
            w.nested(tag::INTEGER, |w| {
                w.raw(&[0]);
                *w.fill(seed, modulus) |= 0x80;
            });
            w.integer_u64(65537);
        })
    });
}

/// A composite public key: SEQUENCE { BIT STRING, BIT STRING } (ML-DSA
/// key first, then the EC point), as a BIT STRING.
fn composite_public_key(w: &mut Writer, seed: u64, mldsa_len: usize, coord: usize) {
    bit_string_of(w, |w| {
        w.nested(tag::SEQUENCE, |w| {
            filled_bit_string(w, seed ^ 0x004D_4C4B_4559, mldsa_len);
            ec_point(w, seed, coord);
        })
    });
}

impl SubjectPublicKeyInfo {
    /// Create an SPKI for `algorithm` with key bytes derived from `seed`.
    pub fn new(algorithm: KeyAlgorithm, seed: u64) -> Self {
        SubjectPublicKeyInfo { algorithm, seed }
    }

    /// The AlgorithmIdentifier: NULL parameters for RSA, the curve for
    /// ECDSA, absent for ML-DSA and the composites
    /// (draft-ietf-lamps-dilithium-certificates §4).
    fn identifier(&self) -> AlgorithmIdentifier {
        let (p256, p384): (&'static Oid, &'static Oid) = (&oid::PRIME256V1, &oid::SECP384R1);
        let (oid, parameters): (&'static Oid, &'static [u8]) = match self.algorithm {
            KeyAlgorithm::Rsa2048 | KeyAlgorithm::Rsa4096 => (&oid::RSA_ENCRYPTION, &NULL),
            KeyAlgorithm::EcdsaP256 => (&oid::EC_PUBLIC_KEY, p256.der()),
            KeyAlgorithm::EcdsaP384 => (&oid::EC_PUBLIC_KEY, p384.der()),
            KeyAlgorithm::MlDsa44 => (&oid::ML_DSA_44, &[]),
            KeyAlgorithm::MlDsa65 => (&oid::ML_DSA_65, &[]),
            KeyAlgorithm::HybridP256MlDsa44 => (&oid::COMPOSITE_MLDSA44_ECDSA_P256, &[]),
            KeyAlgorithm::HybridP384MlDsa65 => (&oid::COMPOSITE_MLDSA65_ECDSA_P384, &[]),
        };
        AlgorithmIdentifier(oid, parameters)
    }

    /// Append the full SubjectPublicKeyInfo SEQUENCE to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        let seed = self.seed;
        w.nested(tag::SEQUENCE, |w| {
            self.identifier().encode_into(w);
            match self.algorithm {
                KeyAlgorithm::Rsa2048 => rsa_public_key(w, seed, 256),
                KeyAlgorithm::Rsa4096 => rsa_public_key(w, seed, 512),
                KeyAlgorithm::EcdsaP256 => ec_point(w, seed, 32),
                KeyAlgorithm::EcdsaP384 => ec_point(w, seed, 48),
                // ML-DSA: the subjectPublicKey is the raw FIPS 204 key.
                KeyAlgorithm::MlDsa44 => filled_bit_string(w, seed, ML_DSA_44_PK_LEN),
                KeyAlgorithm::MlDsa65 => filled_bit_string(w, seed, ML_DSA_65_PK_LEN),
                KeyAlgorithm::HybridP256MlDsa44 => {
                    composite_public_key(w, seed, ML_DSA_44_PK_LEN, 32)
                }
                KeyAlgorithm::HybridP384MlDsa65 => {
                    composite_public_key(w, seed, ML_DSA_65_PK_LEN, 48)
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::{self, parse_one};

    fn spki(alg: KeyAlgorithm, seed: u64) -> Vec<u8> {
        der::encoded(|w| SubjectPublicKeyInfo::new(alg, seed).encode_into(w))
    }

    #[test]
    fn spki_sizes_match_real_world_values() {
        // Reference sizes from real certificates (openssl asn1parse).
        assert_eq!(spki(KeyAlgorithm::Rsa2048, 1).len(), 294);
        assert_eq!(spki(KeyAlgorithm::Rsa4096, 1).len(), 550);
        assert_eq!(spki(KeyAlgorithm::EcdsaP256, 1).len(), 91);
        assert_eq!(spki(KeyAlgorithm::EcdsaP384, 1).len(), 120);
    }

    #[test]
    fn spki_is_wellformed_der() {
        for alg in KeyAlgorithm::ALL_ERAS {
            let parsed = parse_one(&spki(alg, 99)).unwrap();
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
            let children = parse_one(&spki(alg, 5)).unwrap().children().unwrap();
            assert_eq!(children[1].content.len(), 1 + pk_len, "{alg:?}");
        }
        // Composite SPKIs nest a SEQUENCE of two BIT STRINGs.
        for (alg, mldsa_len, point_len) in [
            (KeyAlgorithm::HybridP256MlDsa44, ML_DSA_44_PK_LEN, 65),
            (KeyAlgorithm::HybridP384MlDsa65, ML_DSA_65_PK_LEN, 97),
        ] {
            let children = parse_one(&spki(alg, 5)).unwrap().children().unwrap();
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
        let p256 = spki(KeyAlgorithm::EcdsaP256, 1).len();
        let mldsa44 = spki(KeyAlgorithm::MlDsa44, 1).len();
        let hybrid = spki(KeyAlgorithm::HybridP256MlDsa44, 1).len();
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
