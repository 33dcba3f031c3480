//! X.509 v3 certificate extensions.
//!
//! The paper observes that extensions are the single largest field group in
//! web certificates (Fig 2b) — driven mostly by Subject Alternative Names
//! ("cruise-liner" certificates, Appendix E), embedded SCTs, and AIA/CRL
//! URLs. Each variant here encodes to its genuine DER representation, so SAN
//! byte-share analysis (Fig 14) operates on real encodings.

use crate::der::{self, context_tag, tag, Writer};
use crate::oid::{self, Oid};

/// Key usage bits (RFC 5280 §4.2.1.3), most-significant bit first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyUsageFlags {
    /// digitalSignature (bit 0)
    pub digital_signature: bool,
    /// keyEncipherment (bit 2)
    pub key_encipherment: bool,
    /// keyCertSign (bit 5)
    pub key_cert_sign: bool,
    /// cRLSign (bit 6)
    pub crl_sign: bool,
}

impl KeyUsageFlags {
    /// Typical leaf usage (digitalSignature + keyEncipherment).
    pub fn leaf() -> Self {
        KeyUsageFlags {
            digital_signature: true,
            key_encipherment: true,
            ..Default::default()
        }
    }

    /// Typical CA usage (certSign + crlSign).
    pub fn ca() -> Self {
        KeyUsageFlags {
            key_cert_sign: true,
            crl_sign: true,
            digital_signature: true,
            ..Default::default()
        }
    }

    fn to_bits(self) -> (u8, u8) {
        let mut bits = 0u8;
        if self.digital_signature {
            bits |= 0x80;
        }
        if self.key_encipherment {
            bits |= 0x20;
        }
        if self.key_cert_sign {
            bits |= 0x04;
        }
        if self.crl_sign {
            bits |= 0x02;
        }
        let unused = bits.trailing_zeros().min(7) as u8;
        (bits, unused)
    }
}

/// A single certificate extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// basicConstraints: CA flag and optional path length (always critical).
    BasicConstraints {
        /// Whether the subject is a CA.
        ca: bool,
        /// Optional path length constraint.
        path_len: Option<u8>,
    },
    /// keyUsage (critical).
    KeyUsage(KeyUsageFlags),
    /// extKeyUsage: list of purpose OIDs.
    ExtKeyUsage(Vec<Oid>),
    /// subjectKeyIdentifier: 20-byte key hash derived from `seed`.
    SubjectKeyId {
        /// Seed the placeholder identifier is derived from.
        seed: u64,
    },
    /// authorityKeyIdentifier: keyid form, derived from `seed`.
    AuthorityKeyId {
        /// Seed of the issuer key identifier.
        seed: u64,
    },
    /// subjectAltName: list of dNSName entries.
    SubjectAltNames(Vec<String>),
    /// cRLDistributionPoints: list of URIs.
    CrlDistributionPoints(Vec<String>),
    /// authorityInfoAccess: optional OCSP URI and CA-issuers URI.
    AuthorityInfoAccess {
        /// OCSP responder URI.
        ocsp: Option<String>,
        /// CA issuers URI.
        ca_issuers: Option<String>,
    },
    /// certificatePolicies: policy OIDs (no qualifiers).
    CertificatePolicies(Vec<Oid>),
    /// Embedded signed certificate timestamps: `count` SCTs of realistic
    /// size (~119 bytes of TLS-encoded SCT structure each).
    SctList {
        /// Number of embedded SCTs (browsers require ≥2).
        count: u8,
        /// Seed for the placeholder SCT bytes.
        seed: u64,
    },
}

/// Encoded size of one serialized SCT entry (2-byte length prefix, version,
/// 32-byte log id, timestamp, extensions, ECDSA signature), matching what
/// CT logs emit in practice.
const SCT_ENTRY_LEN: usize = 121;

/// Bytes of a subject / authority key identifier (a SHA-1 key hash).
const KEY_ID_LEN: usize = 20;

impl Extension {
    /// The extension OID.
    pub fn oid(&self) -> &'static Oid {
        match self {
            Extension::BasicConstraints { .. } => &oid::EXT_BASIC_CONSTRAINTS,
            Extension::KeyUsage(_) => &oid::EXT_KEY_USAGE,
            Extension::ExtKeyUsage(_) => &oid::EXT_EXT_KEY_USAGE,
            Extension::SubjectKeyId { .. } => &oid::EXT_SUBJECT_KEY_ID,
            Extension::AuthorityKeyId { .. } => &oid::EXT_AUTHORITY_KEY_ID,
            Extension::SubjectAltNames(_) => &oid::EXT_SUBJECT_ALT_NAME,
            Extension::CrlDistributionPoints(_) => &oid::EXT_CRL_DISTRIBUTION,
            Extension::AuthorityInfoAccess { .. } => &oid::EXT_AUTHORITY_INFO_ACCESS,
            Extension::CertificatePolicies(_) => &oid::EXT_CERT_POLICIES,
            Extension::SctList { .. } => &oid::EXT_SCT_LIST,
        }
    }

    /// Whether the extension is marked critical.
    pub(crate) fn critical(&self) -> bool {
        matches!(
            self,
            Extension::BasicConstraints { .. } | Extension::KeyUsage(_)
        )
    }

    /// Append the inner extnValue content (what the OCTET STRING wraps).
    fn encode_value_into(&self, w: &mut Writer) {
        /// GeneralName uniformResourceIdentifier `[6]`.
        const URI: u8 = context_tag(6, false);
        match self {
            Extension::BasicConstraints { ca, path_len } => w.constructed(tag::SEQUENCE, |w| {
                if *ca {
                    w.boolean(true);
                }
                if let Some(n) = path_len {
                    w.integer_u64(*n as u64);
                }
            }),
            Extension::KeyUsage(flags) => {
                let (bits, unused) = flags.to_bits();
                w.bit_string(&[bits], unused);
            }
            Extension::ExtKeyUsage(purposes) => w.constructed(tag::SEQUENCE, |w| {
                for purpose in purposes {
                    purpose.encode_into(w);
                }
            }),
            Extension::SubjectKeyId { seed } => {
                w.header(tag::OCTET_STRING, KEY_ID_LEN);
                w.fill(*seed, KEY_ID_LEN);
            }
            Extension::AuthorityKeyId { seed } => w.constructed(tag::SEQUENCE, |w| {
                // keyIdentifier is [0] IMPLICIT inside a SEQUENCE.
                w.header(context_tag(0, false), KEY_ID_LEN);
                w.fill(*seed, KEY_ID_LEN);
            }),
            Extension::SubjectAltNames(names) => w.constructed(tag::SEQUENCE, |w| {
                for name in names {
                    w.tlv(context_tag(2, false), name.as_bytes()); // dNSName
                }
            }),
            Extension::CrlDistributionPoints(uris) => w.constructed(tag::SEQUENCE, |w| {
                for uri in uris {
                    // DistributionPoint { distributionPoint [0] { fullName [0] { uri [6] } } }
                    w.constructed(tag::SEQUENCE, |w| {
                        w.constructed(context_tag(0, true), |w| {
                            w.constructed(context_tag(0, true), |w| w.tlv(URI, uri.as_bytes()))
                        })
                    });
                }
            }),
            Extension::AuthorityInfoAccess { ocsp, ca_issuers } => {
                w.constructed(tag::SEQUENCE, |w| {
                    for (method, uri) in [(&oid::AD_OCSP, ocsp), (&oid::AD_CA_ISSUERS, ca_issuers)]
                    {
                        if let Some(uri) = uri {
                            w.constructed(tag::SEQUENCE, |w| {
                                method.encode_into(w);
                                w.tlv(URI, uri.as_bytes());
                            });
                        }
                    }
                })
            }
            Extension::CertificatePolicies(policies) => w.constructed(tag::SEQUENCE, |w| {
                for policy in policies {
                    w.constructed(tag::SEQUENCE, |w| policy.encode_into(w));
                }
            }),
            Extension::SctList { count, seed } => {
                // TLS-style: outer 2-byte list length, then per-SCT 2-byte
                // length + body, all inside an inner OCTET STRING.
                const BODY_LEN: usize = SCT_ENTRY_LEN - 2;
                let list_len = *count as usize * SCT_ENTRY_LEN;
                w.header(tag::OCTET_STRING, 2 + list_len);
                w.raw(&(list_len as u16).to_be_bytes());
                for i in 0..*count {
                    w.raw(&(BODY_LEN as u16).to_be_bytes());
                    w.fill(seed.wrapping_add(i as u64), BODY_LEN)[0] = 0; // SCT version 1
                }
            }
        }
    }

    /// Append the full Extension SEQUENCE (OID, optional critical flag,
    /// OCTET STRING value) to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.constructed(tag::SEQUENCE, |w| {
            self.oid().encode_into(w);
            if self.critical() {
                w.boolean(true);
            }
            w.constructed(tag::OCTET_STRING, |w| self.encode_value_into(w));
        });
    }

    /// Encode the full Extension SEQUENCE.
    pub fn encode(&self) -> Vec<u8> {
        der::encoded(|w| self.encode_into(w))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

/// Append a full `Extensions` list to `w`, including the `[3] EXPLICIT`
/// wrapper used inside TBSCertificate. Returns the bytes its
/// subjectAltName extensions took (Fig 14's numerator).
pub(crate) fn encode_extensions_into(exts: &[Extension], w: &mut Writer) -> usize {
    w.constructed(context_tag(3, true), |w| {
        w.constructed(tag::SEQUENCE, |w| {
            let mut san_bytes = 0;
            for ext in exts {
                let at = w.len();
                ext.encode_into(w);
                if matches!(ext, Extension::SubjectAltNames(_)) {
                    san_bytes += w.len() - at;
                }
            }
            san_bytes
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::parse_one;

    #[test]
    fn basic_constraints_ca_shape() {
        let ext = Extension::BasicConstraints {
            ca: true,
            path_len: Some(0),
        };
        let enc = ext.encode();
        let parsed = parse_one(&enc).unwrap();
        let children = parsed.children().unwrap();
        // OID + critical + value
        assert_eq!(children.len(), 3);
        assert_eq!(children[1].content, vec![0xFF]);
    }

    #[test]
    fn empty_basic_constraints_for_leaves() {
        let ext = Extension::BasicConstraints {
            ca: false,
            path_len: None,
        };
        // Empty SEQUENCE inside the OCTET STRING.
        let enc = ext.encode();
        let children = parse_one(&enc).unwrap().children().unwrap();
        let value = &children[2];
        assert_eq!(value.content, vec![0x30, 0x00]);
    }

    #[test]
    fn key_usage_bit_packing() {
        let (bits, unused) = KeyUsageFlags::leaf().to_bits();
        assert_eq!(bits, 0xA0);
        assert_eq!(unused, 5);
        let (bits, unused) = KeyUsageFlags::ca().to_bits();
        assert_eq!(bits, 0x86);
        assert_eq!(unused, 1);
    }

    #[test]
    fn san_size_grows_linearly_with_names() {
        let few = Extension::SubjectAltNames(vec!["example.org".into()]);
        let many =
            Extension::SubjectAltNames((0..50).map(|i| format!("host-{i}.example.org")).collect());
        assert!(many.encoded_len() > few.encoded_len() + 49 * 15);
        // Only subjectAltName extensions count towards the list's SAN bytes.
        let mut w = der::Writer::new();
        let san_bytes =
            encode_extensions_into(&[few.clone(), Extension::SubjectKeyId { seed: 1 }], &mut w);
        assert_eq!(san_bytes, few.encoded_len());
    }

    #[test]
    fn sct_list_size_scales_with_count() {
        let two = Extension::SctList { count: 2, seed: 1 };
        let three = Extension::SctList { count: 3, seed: 1 };
        // Exactly one SCT entry more, plus up to a few bytes of DER length
        // framing growth when a length crosses the 255-byte boundary.
        let delta = three.encoded_len() - two.encoded_len();
        assert!(
            (SCT_ENTRY_LEN..SCT_ENTRY_LEN + 5).contains(&delta),
            "delta {delta}"
        );
        // Two SCTs: real-world extensions run ~250–280 bytes total.
        assert!(
            (240..=280).contains(&two.encoded_len()),
            "was {}",
            two.encoded_len()
        );
    }

    #[test]
    fn aia_includes_requested_uris() {
        let ext = Extension::AuthorityInfoAccess {
            ocsp: Some("http://r3.o.lencr.org".into()),
            ca_issuers: Some("http://r3.i.lencr.org/".into()),
        };
        let enc = ext.encode();
        let text = String::from_utf8_lossy(&enc).into_owned();
        assert!(text.contains("r3.o.lencr.org"));
        assert!(text.contains("r3.i.lencr.org"));
    }

    #[test]
    fn all_extensions_are_wellformed_der() {
        let exts = vec![
            Extension::BasicConstraints {
                ca: true,
                path_len: None,
            },
            Extension::KeyUsage(KeyUsageFlags::ca()),
            Extension::ExtKeyUsage(vec![oid::KP_SERVER_AUTH, oid::KP_CLIENT_AUTH]),
            Extension::SubjectKeyId { seed: 2 },
            Extension::AuthorityKeyId { seed: 3 },
            Extension::SubjectAltNames(vec!["a.example".into(), "*.b.example".into()]),
            Extension::CrlDistributionPoints(vec!["http://crl.example/x.crl".into()]),
            Extension::AuthorityInfoAccess {
                ocsp: Some("http://ocsp.example".into()),
                ca_issuers: None,
            },
            Extension::CertificatePolicies(vec![oid::CP_DOMAIN_VALIDATED]),
            Extension::SctList { count: 2, seed: 4 },
        ];
        for ext in &exts {
            let parsed = parse_one(&ext.encode()).unwrap();
            assert_eq!(parsed.tag, 0x30, "{:?}", ext.oid());
        }
        let wrapped = der::encoded(|w| {
            encode_extensions_into(&exts, w);
        });
        let outer = parse_one(&wrapped).unwrap();
        assert_eq!(outer.tag, 0xA3, "extensions use [3] EXPLICIT");
        let seq = outer.children().unwrap();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].children().unwrap().len(), exts.len());
    }

    #[test]
    fn criticality_flags() {
        assert!(Extension::KeyUsage(KeyUsageFlags::leaf()).critical());
        assert!(!Extension::SubjectAltNames(vec![]).critical());
        assert!(!Extension::SctList { count: 2, seed: 0 }.critical());
    }
}
