//! Certificate chains as delivered by TLS servers.
//!
//! A chain is the leaf plus the intermediates the server sends (and,
//! sometimes — superfluously — the trust anchor itself, as the paper observes
//! in Fig 7(b) row 9). The chain's *wire size* is what collides with the QUIC
//! anti-amplification limit.

use std::sync::Arc;

use crate::cert::Certificate;

/// A server certificate chain, leaf first.
///
/// The intermediates are reference-counted: in a realistic population many
/// leaves hang off the same handful of parent chains, so cloning a chain (the
/// scanner does this once per probe) must not deep-copy kilobytes of cached
/// DER. Use [`CertificateChain::new_shared`] to share one parent chain across
/// many leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateChain {
    /// End-entity certificate.
    pub leaf: Certificate,
    /// Intermediates in the order the server sends them (leaf's issuer
    /// first when correctly ordered). May include a root.
    pub intermediates: Arc<Vec<Certificate>>,
}

impl CertificateChain {
    /// Create a chain from an owned intermediate list.
    pub fn new(leaf: Certificate, intermediates: Vec<Certificate>) -> Self {
        CertificateChain {
            leaf,
            intermediates: Arc::new(intermediates),
        }
    }

    /// Create a chain that shares an already-issued parent chain.
    pub fn new_shared(leaf: Certificate, intermediates: Arc<Vec<Certificate>>) -> Self {
        CertificateChain {
            leaf,
            intermediates,
        }
    }

    /// Every certificate, leaf first.
    pub fn certs(&self) -> impl Iterator<Item = &Certificate> {
        std::iter::once(&self.leaf).chain(self.intermediates.iter())
    }

    /// Number of certificates in the chain.
    pub fn depth(&self) -> usize {
        1 + self.intermediates.len()
    }

    /// Total DER bytes of all certificates (the dominant part of the TLS
    /// `Certificate` message and of Figs 5–7).
    pub fn total_der_len(&self) -> usize {
        self.certs().map(|c| c.der_len()).sum()
    }

    /// DER bytes of the non-leaf (parent) part of the chain — the "parent
    /// chain" of Fig 7.
    pub fn parent_der_len(&self) -> usize {
        self.intermediates.iter().map(|c| c.der_len()).sum()
    }

    /// The concatenated DER of all certificates, leaf first (input to
    /// certificate compression experiments).
    pub fn concatenated_der(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_der_len());
        for cert in self.certs() {
            out.extend_from_slice(cert.der());
        }
        out
    }

    /// Whether the chain is correctly ordered: each certificate is issued by
    /// the next one (matched on distinguished names). Fig 7 excludes chains
    /// that are not correctly ordered.
    pub fn correctly_ordered(&self) -> bool {
        // The last certificate either chains to an out-of-band root or is
        // itself self-signed; both are "ordered".
        self.certs()
            .zip(self.intermediates.iter())
            .all(|(child, parent)| child.tbs.issuer == parent.tbs.subject)
    }

    /// Whether the server superfluously includes a self-signed trust anchor
    /// (root) in the chain — wasted bytes, §4.2.
    pub fn includes_trust_anchor(&self) -> bool {
        self.intermediates.iter().any(|c| c.is_self_signed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{KeyAlgorithm, SignatureAlgorithm, SubjectPublicKeyInfo};
    use crate::cert::CertificateBuilder;
    use crate::ext::{Extension, KeyUsageFlags};
    use crate::name::DistinguishedName;

    fn ca_cert(issuer: &DistinguishedName, subject: DistinguishedName, seed: u64) -> Certificate {
        CertificateBuilder::new(
            issuer.clone(),
            subject,
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa2048, seed),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extension(Extension::BasicConstraints {
            ca: true,
            path_len: Some(0),
        })
        .extension(Extension::KeyUsage(KeyUsageFlags::ca()))
        .build()
    }

    fn build_chain(include_root: bool) -> CertificateChain {
        let root_dn = DistinguishedName::ca("US", "Test Trust Co", "Test Root");
        let inter_dn = DistinguishedName::ca("US", "Test Trust Co", "Test CA 1");
        let root = ca_cert(&root_dn, root_dn.clone(), 1);
        let inter = ca_cert(&root_dn, inter_dn.clone(), 2);
        let leaf = CertificateBuilder::new(
            inter_dn,
            DistinguishedName::cn("www.example.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 3),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extension(Extension::SubjectAltNames(vec!["www.example.org".into()]))
        .build();
        let mut intermediates = vec![inter];
        if include_root {
            intermediates.push(root);
        }
        CertificateChain::new(leaf, intermediates)
    }

    #[test]
    fn sizes_add_up() {
        let chain = build_chain(false);
        assert_eq!(chain.depth(), 2);
        assert_eq!(
            chain.total_der_len(),
            chain.leaf.der_len() + chain.parent_der_len()
        );
        assert_eq!(chain.concatenated_der().len(), chain.total_der_len());
    }

    #[test]
    fn ordering_check_accepts_valid_chain() {
        assert!(build_chain(false).correctly_ordered());
        assert!(build_chain(true).correctly_ordered());
    }

    #[test]
    fn ordering_check_rejects_shuffled_chain() {
        let mut chain = build_chain(true);
        Arc::make_mut(&mut chain.intermediates).reverse();
        assert!(!chain.correctly_ordered());
    }

    #[test]
    fn trust_anchor_detection() {
        assert!(!build_chain(false).includes_trust_anchor());
        assert!(build_chain(true).includes_trust_anchor());
    }

    #[test]
    fn aggregate_field_sizes_sum_to_chain_total() {
        let chain = build_chain(true);
        let fields: usize = chain.certs().map(|c| c.field_sizes().total()).sum();
        assert_eq!(fields, chain.total_der_len());
    }

    #[test]
    fn certs_iterates_leaf_first() {
        let chain = build_chain(false);
        let first = chain.certs().next().unwrap();
        assert_eq!(first.tbs.subject.common_name(), Some("www.example.org"));
    }
}
