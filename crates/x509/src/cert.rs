//! X.509 v3 certificates.
//!
//! A [`Certificate`] is its DER plus what encoding it measured: the field
//! attribution of Figures 2(b) and 8 ([`Certificate::field_sizes`]), the
//! subjectAltName bytes and count (Fig 14), the key and signature
//! algorithms (Table 2) and the byte spans of its subject and issuer
//! names, which chain ordering compares byte for byte. No tree of the
//! `tbsCertificate` is built or kept: the structure of Figure 2(a)
//! (version, serial, signature algorithm, issuer, validity, subject,
//! subjectPublicKeyInfo, extensions; then the outer signature algorithm
//! and the signature value) exists only as the order in which
//! [`CertificateBuilder::build`] writes it.
//!
//! The builder borrows every part and has one encoder, run twice ([`der`]):
//! measuring, then writing each byte once, front to back, into a buffer of
//! the measured size, with key and signature filler generated in place. The
//! field attribution, the SAN bytes and the name spans are read off the
//! writer's position as it goes, equal in both runs.

use crate::alg::{KeyAlgorithm, SignatureAlgorithm, SubjectPublicKeyInfo};
use crate::der::{self, context_tag, tag, Writer};
use crate::ext::Extension;
use crate::name::Name;
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
        w.nested(tag::SEQUENCE, |w| {
            self.not_before.encode_into(w);
            self.not_after.encode_into(w);
        });
    }
}

/// `version [0] EXPLICIT INTEGER 2` (v3).
const VERSION_V3: [u8; 5] = [context_tag(0, true), 3, tag::INTEGER, 1, 2];

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

/// A complete X.509 certificate: its DER and what encoding it measured.
///
/// Cloning one copies its DER, one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The DER encoding.
    der: Vec<u8>,
    /// Field attribution of `der`.
    sizes: FieldSizes,
    /// Bytes of the subjectAltName extension(s) within `der`.
    san_bytes: usize,
    /// Number of subjectAltName entries.
    san_count: usize,
    key_algorithm: KeyAlgorithm,
    signature_algorithm: SignatureAlgorithm,
    /// Offsets in `der` of the subject and issuer Names, whose lengths
    /// are `sizes.subject` and `sizes.issuer`.
    subject_at: usize,
    issuer_at: usize,
}

impl Certificate {
    /// The DER encoding of the full certificate.
    pub fn der(&self) -> &[u8] {
        &self.der
    }

    /// Encoded size in bytes.
    pub fn der_len(&self) -> usize {
        self.der.len()
    }

    /// The DER of the subject Name.
    pub fn subject(&self) -> &[u8] {
        &self.der[self.subject_at..self.subject_at + self.sizes.subject]
    }

    /// The DER of the issuer Name.
    pub fn issuer(&self) -> &[u8] {
        &self.der[self.issuer_at..self.issuer_at + self.sizes.issuer]
    }

    /// Whether this certificate is self-signed (subject == issuer), i.e. a
    /// trust anchor as distributed in root stores.
    pub(crate) fn is_self_signed(&self) -> bool {
        self.subject() == self.issuer()
    }

    /// The subject key's algorithm (Table 2).
    pub fn key_algorithm(&self) -> KeyAlgorithm {
        self.key_algorithm
    }

    /// The algorithm the issuer signed with (inner and outer fields).
    pub fn signature_algorithm(&self) -> SignatureAlgorithm {
        self.signature_algorithm
    }

    /// Bytes used by the subjectAltName extension (Fig 14).
    pub fn san_bytes(&self) -> usize {
        self.san_bytes
    }

    /// Number of subjectAltName entries.
    pub fn san_count(&self) -> usize {
        self.san_count
    }

    /// Attribute encoded bytes to the field groups of Fig 2(b).
    pub fn field_sizes(&self) -> FieldSizes {
        self.sizes
    }
}

/// Builder for certificates with placeholder key material, borrowing
/// every part: names ([`Name`]), extensions (which borrow their own
/// strings and OIDs) and the algorithms and seeds of key and signature.
/// [`CertificateBuilder::build`] measures the certificate, allocates its
/// exact size once and writes each byte once, front to back.
#[derive(Debug, Clone)]
pub struct CertificateBuilder<'a> {
    issuer: Name<'a>,
    subject: Name<'a>,
    validity: Validity,
    spki: SubjectPublicKeyInfo,
    signature_alg: SignatureAlgorithm,
    extensions: &'a [Extension<'a>],
}

impl<'a> CertificateBuilder<'a> {
    /// Start building a certificate for `subject` with the given key,
    /// signed by `issuer` using `signature_alg`. The serial and the
    /// signature derive from the key's seed.
    pub fn new(
        issuer: impl Into<Name<'a>>,
        subject: impl Into<Name<'a>>,
        spki: SubjectPublicKeyInfo,
        signature_alg: SignatureAlgorithm,
    ) -> Self {
        CertificateBuilder {
            issuer: issuer.into(),
            subject: subject.into(),
            validity: Validity::days(Time::date(2022, 3, 1), 90),
            spki,
            signature_alg,
            extensions: &[],
        }
    }

    /// Set the validity period.
    pub fn validity(mut self, validity: Validity) -> Self {
        self.validity = validity;
        self
    }

    /// Set the extensions, in the order they are written.
    pub fn extensions(mut self, extensions: &'a [Extension<'a>]) -> Self {
        self.extensions = extensions;
        self
    }

    /// The 16-byte serial magnitude for a serial seed.
    fn derive_serial(serial_seed: u64) -> [u8; 16] {
        let mut serial = [0u8; 16];
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
    /// Allocation-free (the INTEGER is measured by a writer with no
    /// buffer and an empty tape), so the million-record scan path can call
    /// it per record.
    pub fn serial_der_len(serial_seed: u64) -> usize {
        let mut w = Writer::measuring(Vec::new());
        w.integer_bytes(&Self::derive_serial(serial_seed));
        w.len()
    }

    /// Build the certificate: a 16-byte serial and a placeholder signature
    /// of the algorithm's size, both derived from the key's seed.
    pub fn build(&self) -> Certificate {
        let seed = self.spki.seed;
        let serial = Self::derive_serial(seed);
        let sig_alg = self.signature_alg;
        let (der, (mut sizes, [issuer_at, subject_at, san_bytes, san_count])) =
            der::encoded_with(|w| {
                let mut sizes = FieldSizes::default();
                let [mut issuer_at, mut subject_at, mut san_bytes, mut san_count] = [0; 4];
                w.nested(tag::SEQUENCE, |w| {
                    w.nested(tag::SEQUENCE, |w| {
                        w.raw(&VERSION_V3);
                        w.integer_bytes(&serial);
                        sig_alg.encode_into(w);
                        (issuer_at, sizes.issuer) = span(w, |w| self.issuer.encode_into(w));
                        self.validity.encode_into(w);
                        (subject_at, sizes.subject) = span(w, |w| self.subject.encode_into(w));
                        sizes.spki = span(w, |w| self.spki.encode_into(w)).1;
                        if self.extensions.is_empty() {
                            return;
                        }
                        sizes.extensions = span(w, |w| {
                            w.nested(context_tag(3, true), |w| {
                                w.nested(tag::SEQUENCE, |w| {
                                    for extension in self.extensions {
                                        let len = span(w, |w| extension.encode_into(w)).1;
                                        if let Extension::SubjectAltNames(names) = extension {
                                            san_bytes += len;
                                            san_count += names.count();
                                        }
                                    }
                                })
                            })
                        })
                        .1;
                    });
                    sizes.signature = span(w, |w| {
                        sig_alg.encode_into(w);
                        w.nested(tag::BIT_STRING, |w| {
                            w.raw(&[0]);
                            sig_alg.write_signature(w, seed ^ 0x51_6E41);
                        });
                    })
                    .1;
                });
                (sizes, [issuer_at, subject_at, san_bytes, san_count])
            });
        debug_assert_eq!(der.len(), der.capacity());
        sizes.other = der.len() - sizes.total();
        Certificate {
            der,
            sizes,
            san_bytes,
            san_count,
            key_algorithm: self.spki.algorithm,
            signature_algorithm: sig_alg,
            subject_at,
            issuer_at,
        }
    }
}

/// Where what `write` appends to `w` starts, and its length.
fn span(w: &mut Writer, write: impl FnOnce(&mut Writer)) -> (usize, usize) {
    let at = w.len();
    write(w);
    (at, w.len() - at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::{parse_one, DerValue};
    use crate::ext::{KeyUsageFlags, SanNames};
    use crate::name::DistinguishedName;
    use crate::oid;

    /// A parsed value encoded again.
    fn tlv(value: &DerValue) -> Vec<u8> {
        der::encoded(|w| w.tlv(value.tag, &[&value.content]))
    }

    fn encode(dn: &DistinguishedName) -> Vec<u8> {
        der::encoded(|w| dn.encode_into(w))
    }

    fn leaf() -> Certificate {
        let issuer = DistinguishedName::ca("US", "Let's Encrypt", "R3");
        CertificateBuilder::new(
            &issuer,
            Name::Cn("*.isc.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 42),
            SignatureAlgorithm::Sha256WithRsa2048,
        )
        .extensions(&[
            Extension::BasicConstraints {
                ca: false,
                path_len: None,
            },
            Extension::KeyUsage(KeyUsageFlags::leaf()),
            Extension::ExtKeyUsage(&[oid::KP_SERVER_AUTH]),
            Extension::SubjectKeyId { seed: 1 },
            Extension::AuthorityKeyId { seed: 2 },
            Extension::SubjectAltNames(SanNames::listed(&["*.isc.org", "isc.org"])),
            Extension::AuthorityInfoAccess {
                ocsp: Some("http://r3.o.lencr.org"),
                ca_issuers: Some("http://r3.i.lencr.org/"),
            },
            Extension::CertificatePolicies(&[oid::CP_DOMAIN_VALIDATED]),
            Extension::SctList { count: 2, seed: 3 },
        ])
        .build()
    }

    fn bare(seed: u64) -> Certificate {
        let issuer = DistinguishedName::ca("US", "CA", "X");
        CertificateBuilder::new(
            &issuer,
            Name::Cn("example.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, seed),
            SignatureAlgorithm::EcdsaSha256,
        )
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
        let tbs = parts[0].children().unwrap();
        assert_eq!(tbs.len(), 8);
        // The recorded spans are the issuer and subject fields.
        assert_eq!(tlv(&tbs[3]), cert.issuer());
        assert_eq!(tlv(&tbs[5]), cert.subject());
        assert_eq!(cert.subject(), encode(&DistinguishedName::cn("*.isc.org")));
        assert_eq!(cert.key_algorithm(), KeyAlgorithm::EcdsaP256);
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
            &root_dn,
            &root_dn,
            SubjectPublicKeyInfo::new(KeyAlgorithm::Rsa4096, 7),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .extensions(&[
            Extension::BasicConstraints {
                ca: true,
                path_len: None,
            },
            Extension::KeyUsage(KeyUsageFlags::ca()),
        ])
        .build();
        assert!(root.is_self_signed());
        assert!(!leaf().is_self_signed());
        // A leaf issued under the root, naming it by its subject span.
        let issued = CertificateBuilder::new(
            Name::Der(root.subject()),
            Name::Cn("example.org"),
            SubjectPublicKeyInfo::new(KeyAlgorithm::EcdsaP256, 8),
            SignatureAlgorithm::Sha384WithRsa4096,
        )
        .build();
        assert_eq!(issued.issuer(), root.subject());
        assert_eq!(issued.issuer(), encode(&root_dn));
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
        let issuer = DistinguishedName::ca("US", "CA", "X");
        let mk = |alg| {
            CertificateBuilder::new(
                &issuer,
                Name::Cn("example.org"),
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
        assert_eq!(leaf(), leaf());
    }

    #[test]
    fn signature_algorithms_match_inner_and_outer() {
        let cert = leaf();
        let parts = parse_one(cert.der()).unwrap().children().unwrap();
        let inner = &parts[0].children().unwrap()[2];
        assert_eq!(inner, &parts[1]);
        let expected = der::encoded(|w| SignatureAlgorithm::Sha256WithRsa2048.encode_into(w));
        assert_eq!(tlv(inner), expected);
        assert_eq!(
            cert.signature_algorithm(),
            SignatureAlgorithm::Sha256WithRsa2048
        );
    }

    /// The serial INTEGER, parsed back out of a built certificate.
    fn parsed_serial_len(cert: &Certificate) -> usize {
        let tbs = &parse_one(cert.der()).unwrap().children().unwrap()[0];
        let serial = &tbs.children().unwrap()[1];
        assert_eq!(serial.tag, tag::INTEGER);
        tlv(serial).len()
    }

    #[test]
    fn serial_der_len_matches_built_certificates() {
        let mut trimmed = 0usize;
        for seed in 0..4096u64 {
            let predicted = CertificateBuilder::serial_der_len(seed);
            assert_eq!(predicted, parsed_serial_len(&bare(seed)), "seed {seed}");
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
        assert_eq!(
            parsed_serial_len(&bare(seed_with_zero_lead)),
            CertificateBuilder::serial_der_len(seed_with_zero_lead),
        );
    }
}
