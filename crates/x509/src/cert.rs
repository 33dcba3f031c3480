//! X.509 v3 certificates.
//!
//! A [`Certificate`] mirrors the structure in Figure 2(a) of the paper:
//! a `tbsCertificate` (version, serial, signature algorithm, issuer,
//! validity, subject, subjectPublicKeyInfo, extensions), the outer
//! signature algorithm, and the signature value. [`Certificate::field_sizes`]
//! attributes the encoded bytes to the field groups that the paper's
//! Figures 2(b) and 8 report on; the attribution is recorded from writer
//! offsets while `Certificate::assemble` encodes, so reading it is free.

use crate::alg::{SignatureAlgorithm, SubjectPublicKeyInfo};
use crate::der::{context_tag, tag, Writer};
use crate::ext::{encode_extensions_into, Extension};
use crate::name::DistinguishedName;
use crate::time::Time;

/// A certificate validity period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// notBefore.
    pub not_before: Time,
    /// notAfter.
    pub not_after: Time,
}

impl Validity {
    /// A validity window starting at `from` and lasting `days`.
    pub fn days(from: Time, days: u32) -> Self {
        Validity {
            not_before: from,
            not_after: from.plus_days(days),
        }
    }

    /// Append the validity SEQUENCE to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.constructed(tag::SEQUENCE, |w| {
            self.not_before.encode_into(w);
            self.not_after.encode_into(w);
        });
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number bytes (big-endian magnitude; CAs use 16–20 bytes).
    pub serial: Vec<u8>,
    /// Signature algorithm (must match the outer algorithm).
    pub signature_alg: SignatureAlgorithm,
    /// Issuer distinguished name.
    pub issuer: DistinguishedName,
    /// Validity period.
    pub validity: Validity,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Subject public key.
    pub spki: SubjectPublicKeyInfo,
    /// v3 extensions.
    pub extensions: Vec<Extension>,
}

impl TbsCertificate {
    /// Append the TBSCertificate SEQUENCE to `w`. Returns the sizes of the
    /// fields it wrote (`signature` and `other` are the caller's to fill)
    /// and the bytes of its subjectAltName extensions.
    fn encode_into(&self, w: &mut Writer) -> (FieldSizes, usize) {
        w.constructed(tag::SEQUENCE, |w| {
            // version [0] EXPLICIT INTEGER 2 (v3)
            w.constructed(context_tag(0, true), |w| w.integer_u64(2));
            w.integer_bytes(&self.serial);
            self.signature_alg.encode_into(w);
            let issuer = measured(w, |w| self.issuer.encode_into(w));
            self.validity.encode_into(w);
            let subject = measured(w, |w| self.subject.encode_into(w));
            let spki = measured(w, |w| self.spki.encode_into(w));
            let before_extensions = w.len();
            let san_bytes = if self.extensions.is_empty() {
                0
            } else {
                encode_extensions_into(&self.extensions, w)
            };
            let extensions = w.len() - before_extensions;
            let sizes = FieldSizes {
                subject,
                issuer,
                spki,
                extensions,
                ..FieldSizes::default()
            };
            (sizes, san_bytes)
        })
    }
}

/// Bytes `write` appends to `w`.
fn measured(w: &mut Writer, write: impl FnOnce(&mut Writer)) -> usize {
    let at = w.len();
    write(w);
    w.len() - at
}

/// Byte attribution of a certificate to the field groups of Fig 2(b)/Fig 8.
///
/// `other` covers version, serial, validity and both algorithm identifiers;
/// all counts include each field's own DER tag/length framing. The sum of
/// all fields equals the encoded certificate size minus the outer
/// SEQUENCE/TBS framing bytes, which are accounted in `other` as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldSizes {
    /// Subject distinguished name bytes.
    pub subject: usize,
    /// Issuer distinguished name bytes.
    pub issuer: usize,
    /// SubjectPublicKeyInfo bytes.
    pub spki: usize,
    /// All extension bytes (including the `[3]` wrapper).
    pub extensions: usize,
    /// Outer signature algorithm + signature value bytes.
    pub signature: usize,
    /// Everything else (version, serial, validity, inner alg id, framing).
    pub other: usize,
}

impl FieldSizes {
    /// Total certificate size.
    pub fn total(&self) -> usize {
        self.subject + self.issuer + self.spki + self.extensions + self.signature + self.other
    }
}

/// A complete, encoded X.509 certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The to-be-signed body.
    pub tbs: TbsCertificate,
    /// Outer signature algorithm (equals `tbs.signature_alg`).
    pub signature_alg: SignatureAlgorithm,
    /// Raw signature value bytes (placed in a BIT STRING).
    pub signature: Vec<u8>,
    /// Cached DER encoding.
    encoded: Vec<u8>,
    /// Field attribution of `encoded`, recorded while it was written.
    sizes: FieldSizes,
    /// Bytes of the subjectAltName extension(s) within `encoded`.
    san_bytes: usize,
}

impl Certificate {
    /// Assemble and encode a certificate from its TBS body and signature.
    pub(crate) fn assemble(tbs: TbsCertificate, signature: Vec<u8>) -> Self {
        let signature_alg = tbs.signature_alg;
        // Everything but key, signature and names is a few hundred bytes;
        // a SAN-heavy leaf outgrows the guess and the buffer doubles.
        let mut w = Writer::with_capacity(1024 + tbs.spki.algorithm.key_bytes() + signature.len());
        let (mut sizes, san_bytes) = w.constructed(tag::SEQUENCE, |w| {
            let (mut sizes, san_bytes) = tbs.encode_into(w);
            sizes.signature = measured(w, |w| {
                signature_alg.encode_into(w);
                w.bit_string(&signature, 0);
            });
            (sizes, san_bytes)
        });
        let encoded = w.into_vec();
        sizes.other = encoded.len() - sizes.total();
        Certificate {
            tbs,
            signature_alg,
            signature,
            encoded,
            sizes,
            san_bytes,
        }
    }

    /// The cached DER encoding of the full certificate.
    pub fn der(&self) -> &[u8] {
        &self.encoded
    }

    /// Encoded size in bytes.
    pub fn der_len(&self) -> usize {
        self.encoded.len()
    }

    /// Whether this certificate is self-signed (subject == issuer), i.e. a
    /// trust anchor as distributed in root stores.
    pub(crate) fn is_self_signed(&self) -> bool {
        self.tbs.subject == self.tbs.issuer
    }

    /// Bytes used by the subjectAltName extension (Fig 14).
    pub fn san_bytes(&self) -> usize {
        self.san_bytes
    }

    /// Number of subjectAltName entries.
    pub fn san_count(&self) -> usize {
        self.tbs
            .extensions
            .iter()
            .filter_map(|e| match e {
                Extension::SubjectAltNames(names) => Some(names.len()),
                _ => None,
            })
            .sum()
    }

    /// Attribute encoded bytes to the field groups of Fig 2(b).
    pub fn field_sizes(&self) -> FieldSizes {
        self.sizes
    }
}

/// Ergonomic builder for certificates with placeholder key material.
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial_seed: u64,
    issuer: DistinguishedName,
    subject: DistinguishedName,
    validity: Validity,
    spki: SubjectPublicKeyInfo,
    signature_alg: SignatureAlgorithm,
    extensions: Vec<Extension>,
}

impl CertificateBuilder {
    /// Start building a certificate for `subject` with the given key,
    /// signed by `issuer` using `signature_alg`.
    pub fn new(
        issuer: DistinguishedName,
        subject: DistinguishedName,
        spki: SubjectPublicKeyInfo,
        signature_alg: SignatureAlgorithm,
    ) -> Self {
        CertificateBuilder {
            serial_seed: spki.seed,
            issuer,
            subject,
            validity: Validity::days(Time::date(2022, 3, 1), 90),
            spki,
            signature_alg,
            extensions: Vec::new(),
        }
    }

    /// Set the validity period.
    pub fn validity(mut self, validity: Validity) -> Self {
        self.validity = validity;
        self
    }

    /// Append an extension.
    pub fn extension(mut self, ext: Extension) -> Self {
        self.extensions.push(ext);
        self
    }

    /// Append several extensions.
    pub fn extensions(mut self, exts: impl IntoIterator<Item = Extension>) -> Self {
        self.extensions.extend(exts);
        self
    }

    /// Derive the 16-byte serial magnitude used by [`build`](Self::build)
    /// for a given serial seed.
    fn derive_serial(serial_seed: u64) -> Vec<u8> {
        let mut serial = vec![0u8; 16];
        crate::fill_deterministic(serial_seed ^ 0x5E51_A11E, &mut serial);
        serial[0] &= 0x7F; // keep the serial positive without padding
        serial
    }

    /// Encoded DER length of the serial `INTEGER` a builder with this
    /// serial seed would emit, without building the certificate.
    ///
    /// The serial is the only seed-dependent *length* in a built
    /// certificate: `Writer::integer_bytes` trims leading zero octets of the
    /// masked 16-byte magnitude, so a small fraction of seeds encode one
    /// or more bytes shorter. Everything else (SPKI, signature, SCTs,
    /// names sized by their inputs) is length-stable per algorithm.
    /// Allocation-free: mirrors `Writer::integer_bytes` arithmetic (trim
    /// leading zero octets while the sign stays positive, pad when the
    /// top bit is set, two header bytes for the ≤17-byte content) so the
    /// million-record scan path can call it per record. The mirror is
    /// pinned against the real encoder by `serial_der_len_matches_built_
    /// certificates`.
    pub fn serial_der_len(serial_seed: u64) -> usize {
        let mut serial = [0u8; 16];
        crate::fill_deterministic(serial_seed ^ 0x5E51_A11E, &mut serial);
        serial[0] &= 0x7F;
        let mut m: &[u8] = &serial;
        while m.len() > 1 && m[0] == 0 && m[1] & 0x80 == 0 {
            m = &m[1..];
        }
        let content = m.len() + usize::from(m[0] & 0x80 != 0);
        2 + content
    }

    /// Build the certificate, deriving a 16-byte serial and a placeholder
    /// signature of the correct algorithm-specific size.
    pub fn build(self) -> Certificate {
        let serial = Self::derive_serial(self.serial_seed);
        let tbs = TbsCertificate {
            serial,
            signature_alg: self.signature_alg,
            issuer: self.issuer,
            validity: self.validity,
            subject: self.subject,
            spki: self.spki,
            extensions: self.extensions,
        };
        let signature = self
            .signature_alg
            .placeholder_signature(self.serial_seed ^ 0x51_6E41);
        Certificate::assemble(tbs, signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::KeyAlgorithm;
    use crate::der::{self, parse_one};
    use crate::ext::KeyUsageFlags;
    use crate::oid;

    fn leaf() -> Certificate {
        CertificateBuilder::new(
            DistinguishedName::ca("US", "Let's Encrypt", "R3"),
            DistinguishedName::cn("*.isc.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 42),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extension(Extension::BasicConstraints {
            ca: false,
            path_len: None,
        })
        .extension(Extension::KeyUsage(KeyUsageFlags::leaf()))
        .extension(Extension::ExtKeyUsage(vec![oid::KP_SERVER_AUTH]))
        .extension(Extension::SubjectKeyId { seed: 1 })
        .extension(Extension::AuthorityKeyId { seed: 2 })
        .extension(Extension::SubjectAltNames(vec![
            "*.isc.org".into(),
            "isc.org".into(),
        ]))
        .extension(Extension::AuthorityInfoAccess {
            ocsp: Some("http://r3.o.lencr.org".into()),
            ca_issuers: Some("http://r3.i.lencr.org/".into()),
        })
        .extension(Extension::CertificatePolicies(vec![
            oid::CP_DOMAIN_VALIDATED,
        ]))
        .extension(Extension::SctList { count: 2, seed: 3 })
        .build()
    }

    #[test]
    fn certificate_is_wellformed_der() {
        let cert = leaf();
        let parsed = parse_one(cert.der()).unwrap();
        let parts = parsed.children().unwrap();
        assert_eq!(parts.len(), 3, "tbs + alg + signature");
        assert_eq!(parts[0].tag, 0x30);
        assert_eq!(parts[1].tag, 0x30);
        assert_eq!(parts[2].tag, 0x03);
        // TBS has 8 children: version..extensions.
        assert_eq!(parts[0].children().unwrap().len(), 8);
    }

    #[test]
    fn leaf_size_is_realistic() {
        // A modern ECDSA DV leaf with 2 SANs + 2 SCTs is ~1.0–1.3 kB.
        let len = leaf().der_len();
        assert!((850..=1400).contains(&len), "leaf size was {len}");
    }

    #[test]
    fn field_sizes_sum_to_total() {
        let cert = leaf();
        let sizes = cert.field_sizes();
        assert_eq!(sizes.total(), cert.der_len());
        assert!(sizes.extensions > sizes.subject);
        assert!(sizes.signature >= 256, "RSA-2048 signature dominates");
    }

    #[test]
    fn self_signed_and_ca_detection() {
        let root_dn =
            DistinguishedName::ca("US", "Internet Security Research Group", "ISRG Root X1");
        let root = CertificateBuilder::new(
            root_dn.clone(),
            root_dn,
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa4096, 7),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .extension(Extension::BasicConstraints {
            ca: true,
            path_len: None,
        })
        .extension(Extension::KeyUsage(KeyUsageFlags::ca()))
        .build();
        assert!(root.is_self_signed());
        assert!(!leaf().is_self_signed());
    }

    #[test]
    fn san_accounting() {
        let cert = leaf();
        assert_eq!(cert.san_count(), 2);
        assert!(cert.san_bytes() > 20);
        assert!(cert.san_bytes() < 60);
    }

    #[test]
    fn key_algorithm_changes_size_as_expected() {
        let mk = |alg| {
            CertificateBuilder::new(
                DistinguishedName::ca("US", "CA", "X"),
                DistinguishedName::cn("example.org"),
                SubjectPublicKeyInfo::new(alg, 1),
                SignatureAlgorithm::Sha256WithRsa2048,
            )
            .build()
            .der_len()
        };
        let rsa2048 = mk(KeyAlgorithm::Rsa2048);
        let rsa4096 = mk(KeyAlgorithm::Rsa4096);
        let p256 = mk(KeyAlgorithm::EcdsaP256);
        assert!(rsa4096 > rsa2048 + 200);
        assert!(rsa2048 > p256 + 150);
    }

    #[test]
    fn build_is_deterministic() {
        assert_eq!(leaf().der(), leaf().der());
    }

    #[test]
    fn signature_algorithms_match_inner_and_outer() {
        let cert = leaf();
        assert_eq!(cert.tbs.signature_alg, cert.signature_alg);
    }

    #[test]
    fn serial_der_len_matches_built_certificates() {
        let mut trimmed = 0usize;
        for seed in 0..4096u64 {
            let cert = CertificateBuilder::new(
                DistinguishedName::ca("US", "CA", "X"),
                DistinguishedName::cn("example.org"),
                SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, seed),
                SignatureAlgorithm::EcdsaSha256,
            )
            .build();
            let predicted = CertificateBuilder::serial_der_len(seed);
            let encoded = der::integer_bytes(&cert.tbs.serial).len();
            assert_eq!(predicted, encoded, "seed {seed}");
            // Full 16-byte magnitude => tag + len + 16.
            if predicted < 18 {
                trimmed += 1;
            }
        }
        // Leading-zero trimming must be rare but present: the predictor
        // only earns its keep if lengths actually vary with the seed.
        assert!(trimmed > 0, "no trimmed serials in 4096 seeds");
        assert!(trimmed < 64, "trimming should be ~1/256 per leading byte");
    }

    #[test]
    fn serial_der_len_changes_with_builder_override() {
        // The serial seed is the key seed, fed through the same derivation.
        let seed_with_zero_lead = (0..1u64 << 16)
            .find(|&s| CertificateBuilder::serial_der_len(s) < 18)
            .expect("some seed trims");
        let cert = CertificateBuilder::new(
            DistinguishedName::ca("US", "CA", "X"),
            DistinguishedName::cn("example.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, seed_with_zero_lead),
            SignatureAlgorithm::EcdsaSha256,
        )
        .build();
        assert_eq!(
            der::integer_bytes(&cert.tbs.serial).len(),
            CertificateBuilder::serial_der_len(seed_with_zero_lead),
        );
    }
}
