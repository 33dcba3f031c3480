//! The certificate-era scenario axis: what the measured world looks like
//! before, during and after the post-quantum PKI migration.
//!
//! The paper's 2022 scan is frozen in the classical era — RSA and ECDSA
//! everywhere. "Network Impact of Post-Quantum Certificate Chain sizes on
//! Time to First Byte in TLS Deployments" (Chou & Cao) shows that ML-DSA
//! and hybrid chains multiply exactly the certificate sizes the paper's
//! figures hinge on. [`CertificateEra`] replays the same population —
//! identical ranks, providers, chain topologies and SAN distributions —
//! with every key and signature swapped to its era-appropriate algorithm,
//! so the 1-RTT→multi-RTT shift and amplification-budget pressure of the
//! migration become measurable on the reproduction's own scanners.
//!
//! [`CertificateEra::Classical`] is the identity mapping: every chain it
//! produces is byte-for-byte the chain the pre-era pipeline produced, so
//! era-unaware campaigns are untouched.

use quicert_x509::{KeyAlgorithm, SignatureAlgorithm};

/// Which PKI generation the world's certificates belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CertificateEra {
    /// The 2022 status quo: RSA-2048/4096 and ECDSA P-256/P-384 (the
    /// default; byte-for-byte the pre-era pipeline).
    Classical,
    /// The migration period: composite ECDSA+ML-DSA keys and signatures on
    /// every certificate (draft-ietf-lamps-pq-composite-sigs).
    Hybrid,
    /// The end state: pure ML-DSA-44/65 keys and signatures (FIPS 204).
    PostQuantum,
}

impl CertificateEra {
    /// All eras, in migration order.
    pub const ALL: [CertificateEra; 3] = [
        CertificateEra::Classical,
        CertificateEra::Hybrid,
        CertificateEra::PostQuantum,
    ];

    /// Stable lowercase name for reports and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            CertificateEra::Classical => "classical",
            CertificateEra::Hybrid => "hybrid",
            CertificateEra::PostQuantum => "post-quantum",
        }
    }

    /// Map a key algorithm to this era's replacement. The security tier is
    /// preserved: level-1 keys (RSA-2048, P-256) move to ML-DSA-44-class
    /// algorithms, level-3+ keys (RSA-4096, P-384) to ML-DSA-65-class
    /// ones. Inputs are *normalised* to the era's algorithm family — a
    /// pure-ML-DSA key fed to the hybrid era becomes the same-tier hybrid
    /// and vice versa; only inputs already in the era's family pass
    /// through unchanged.
    pub fn key(self, classical: KeyAlgorithm) -> KeyAlgorithm {
        use KeyAlgorithm::*;
        match self {
            CertificateEra::Classical => classical,
            CertificateEra::Hybrid => match classical {
                Rsa2048 | EcdsaP256 | MlDsa44 => HybridP256MlDsa44,
                Rsa4096 | EcdsaP384 | MlDsa65 => HybridP384MlDsa65,
                hybrid @ (HybridP256MlDsa44 | HybridP384MlDsa65) => hybrid,
            },
            CertificateEra::PostQuantum => match classical {
                Rsa2048 | EcdsaP256 | HybridP256MlDsa44 => MlDsa44,
                Rsa4096 | EcdsaP384 | HybridP384MlDsa65 => MlDsa65,
                pq @ (MlDsa44 | MlDsa65) => pq,
            },
        }
    }

    /// Map a classical signature algorithm to this era's replacement,
    /// consistently with [`CertificateEra::key`] (a CA whose key maps to X
    /// signs with X's signature algorithm).
    pub fn signature(self, classical: SignatureAlgorithm) -> SignatureAlgorithm {
        use SignatureAlgorithm::*;
        match self {
            CertificateEra::Classical => classical,
            CertificateEra::Hybrid => match classical {
                Sha256WithRsa2048 | EcdsaSha256 | MlDsa44 => CompositeP256MlDsa44,
                Sha384WithRsa4096 | EcdsaSha384 | MlDsa65 => CompositeP384MlDsa65,
                composite @ (CompositeP256MlDsa44 | CompositeP384MlDsa65) => composite,
            },
            CertificateEra::PostQuantum => match classical {
                Sha256WithRsa2048 | EcdsaSha256 | CompositeP256MlDsa44 => MlDsa44,
                Sha384WithRsa4096 | EcdsaSha384 | CompositeP384MlDsa65 => MlDsa65,
                pq @ (MlDsa44 | MlDsa65) => pq,
            },
        }
    }
}

impl std::fmt::Display for CertificateEra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The signature algorithm a CA holding `key` signs with.
    fn signed_with(key: KeyAlgorithm) -> SignatureAlgorithm {
        use KeyAlgorithm as K;
        use SignatureAlgorithm as S;
        match key {
            K::Rsa2048 => S::Sha256WithRsa2048,
            K::Rsa4096 => S::Sha384WithRsa4096,
            K::EcdsaP256 => S::EcdsaSha256,
            K::EcdsaP384 => S::EcdsaSha384,
            K::MlDsa44 => S::MlDsa44,
            K::MlDsa65 => S::MlDsa65,
            K::HybridP256MlDsa44 => S::CompositeP256MlDsa44,
            K::HybridP384MlDsa65 => S::CompositeP384MlDsa65,
        }
    }

    #[test]
    fn classical_is_the_identity() {
        for key in KeyAlgorithm::ALL_ERAS {
            assert_eq!(CertificateEra::Classical.key(key), key);
        }
        for sig in [
            SignatureAlgorithm::Sha256WithRsa2048,
            SignatureAlgorithm::EcdsaSha384,
            SignatureAlgorithm::MlDsa44,
        ] {
            assert_eq!(CertificateEra::Classical.signature(sig), sig);
        }
    }

    #[test]
    fn eras_preserve_the_security_tier() {
        use KeyAlgorithm::*;
        assert_eq!(CertificateEra::Hybrid.key(Rsa2048), HybridP256MlDsa44);
        assert_eq!(CertificateEra::Hybrid.key(EcdsaP256), HybridP256MlDsa44);
        assert_eq!(CertificateEra::Hybrid.key(Rsa4096), HybridP384MlDsa65);
        assert_eq!(CertificateEra::Hybrid.key(EcdsaP384), HybridP384MlDsa65);
        assert_eq!(CertificateEra::PostQuantum.key(Rsa2048), MlDsa44);
        assert_eq!(CertificateEra::PostQuantum.key(Rsa4096), MlDsa65);
    }

    #[test]
    fn every_mapped_key_is_post_quantum_outside_classical() {
        for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
            for key in KeyAlgorithm::ALL {
                assert!(era.key(key).is_post_quantum(), "{era}: {key:?}");
                assert!(era.signature(signed_with(key)).is_post_quantum());
            }
        }
    }

    #[test]
    fn key_and_signature_mappings_are_consistent() {
        for era in CertificateEra::ALL {
            for key in KeyAlgorithm::ALL_ERAS {
                assert_eq!(
                    signed_with(era.key(key)),
                    era.signature(signed_with(key)),
                    "{era}: {key:?}"
                );
            }
        }
    }

    #[test]
    fn names_and_order() {
        assert_eq!(CertificateEra::ALL.len(), 3);
        assert_eq!(CertificateEra::Classical.to_string(), "classical");
        assert_eq!(CertificateEra::Hybrid.name(), "hybrid");
        assert_eq!(CertificateEra::PostQuantum.name(), "post-quantum");
        assert!(CertificateEra::Classical < CertificateEra::PostQuantum);
    }
}
