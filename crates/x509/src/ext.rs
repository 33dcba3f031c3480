//! X.509 v3 certificate extensions.
//!
//! The paper observes that extensions are the single largest field group in
//! web certificates (Fig 2b) — driven mostly by Subject Alternative Names
//! ("cruise-liner" certificates, Appendix E), embedded SCTs, and AIA/CRL
//! URLs. Each variant here encodes to its genuine DER representation, so SAN
//! byte-share analysis (Fig 14) operates on real encodings.

use crate::der::{context_tag, tag, Writer};
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

/// The dNSNames of a subjectAltName extension, written straight from
/// their parts — no name is formatted into a buffer of its own.
///
/// In order: the leaf's CN and, unless the CN is a wildcard, `www.<CN>`;
/// the `listed` names verbatim; then `numbered` names `alt-NNN.<CN>`
/// (`NNN` zero-padded to three digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanNames<'a> {
    cn: Option<&'a str>,
    listed: &'a [&'a str],
    numbered: u16,
}

/// GeneralName dNSName `[2]`.
const DNS_NAME: u8 = context_tag(2, false);

impl<'a> SanNames<'a> {
    /// Exactly `names`, in order.
    pub fn listed(names: &'a [&'a str]) -> Self {
        SanNames {
            cn: None,
            listed: names,
            numbered: 0,
        }
    }

    /// A leaf's names: `cn`, `www.<cn>` unless `cn` is a wildcard, the
    /// `listed` names, then `numbered` names `alt-NNN.<cn>`.
    pub fn leaf(cn: &'a str, listed: &'a [&'a str], numbered: u16) -> Self {
        SanNames {
            cn: Some(cn),
            listed,
            numbered,
        }
    }

    /// The CN and whether `www.<cn>` follows it.
    fn head(&self) -> Option<(&'a str, bool)> {
        self.cn.map(|cn| (cn, !cn.starts_with("*.")))
    }

    /// Number of names.
    pub fn count(&self) -> usize {
        let head = self.head().map_or(0, |(_, www)| 1 + usize::from(www));
        head + self.listed.len() + usize::from(self.numbered)
    }

    /// Append the dNSName TLVs: the content of the GeneralNames SEQUENCE.
    fn encode_into(&self, w: &mut Writer) {
        let cn = self.cn.unwrap_or_default().as_bytes();
        if let Some((_, www)) = self.head() {
            w.tlv(DNS_NAME, &[cn]);
            if www {
                w.tlv(DNS_NAME, &[b"www.", cn]);
            }
        }
        for name in self.listed {
            w.tlv(DNS_NAME, &[name.as_bytes()]);
        }
        for i in 0..self.numbered {
            // `{i:03}`, written from the end.
            let mut digits = [b'0'; 5];
            let width = number_width(i);
            let mut rest = i;
            for digit in digits[..width].iter_mut().rev() {
                *digit = b'0' + (rest % 10) as u8;
                rest /= 10;
            }
            w.tlv(DNS_NAME, &[b"alt-", &digits[..width], b".", cn]);
        }
    }
}

/// Digits `{i:03}` writes: three, more from 1000 on.
fn number_width(i: u16) -> usize {
    match i {
        0..=999 => 3,
        1_000..=9_999 => 4,
        _ => 5,
    }
}

/// A single certificate extension, borrowing its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extension<'a> {
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
    ExtKeyUsage(&'a [Oid]),
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
    /// subjectAltName: dNSName entries.
    SubjectAltNames(SanNames<'a>),
    /// cRLDistributionPoints: list of URIs.
    CrlDistributionPoints(&'a [&'a str]),
    /// authorityInfoAccess: optional OCSP URI and CA-issuers URI.
    AuthorityInfoAccess {
        /// OCSP responder URI.
        ocsp: Option<&'a str>,
        /// CA issuers URI.
        ca_issuers: Option<&'a str>,
    },
    /// certificatePolicies: policy OIDs (no qualifiers).
    CertificatePolicies(&'a [Oid]),
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

/// GeneralName uniformResourceIdentifier `[6]`.
const URI: u8 = context_tag(6, false);

impl Extension<'_> {
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

    /// The AIA access descriptions present: method and URI.
    fn access_descriptions<'s>(
        ocsp: Option<&'s str>,
        ca_issuers: Option<&'s str>,
    ) -> impl Iterator<Item = (&'static Oid, &'s str)> {
        let (ocsp_method, issuers_method): (&'static Oid, &'static Oid) =
            (&oid::AD_OCSP, &oid::AD_CA_ISSUERS);
        [(ocsp_method, ocsp), (issuers_method, ca_issuers)]
            .into_iter()
            .filter_map(|(method, uri)| Some((method, uri?)))
    }

    /// Append the inner extnValue: the one TLV the OCTET STRING wraps.
    fn encode_value_into(&self, w: &mut Writer) {
        match *self {
            Extension::BasicConstraints { ca, path_len } => w.nested(tag::SEQUENCE, |w| {
                if ca {
                    w.boolean(true);
                }
                if let Some(n) = path_len {
                    w.integer_u64(u64::from(n));
                }
            }),
            Extension::KeyUsage(flags) => {
                let (bits, unused) = flags.to_bits();
                w.bit_string(&[bits], unused);
            }
            Extension::ExtKeyUsage(purposes) => w.nested(tag::SEQUENCE, |w| {
                for purpose in purposes {
                    purpose.encode_into(w);
                }
            }),
            Extension::SubjectKeyId { seed } => w.nested(tag::OCTET_STRING, |w| {
                w.fill(seed, KEY_ID_LEN);
            }),
            Extension::AuthorityKeyId { seed } => w.nested(tag::SEQUENCE, |w| {
                // keyIdentifier is [0] IMPLICIT inside a SEQUENCE.
                w.nested(context_tag(0, false), |w| {
                    w.fill(seed, KEY_ID_LEN);
                })
            }),
            Extension::SubjectAltNames(names) => w.nested(tag::SEQUENCE, |w| names.encode_into(w)),
            Extension::CrlDistributionPoints(uris) => w.nested(tag::SEQUENCE, |w| {
                // DistributionPoint { distributionPoint [0] { fullName [0]
                // { uri [6] } } }.
                for uri in uris {
                    w.nested(tag::SEQUENCE, |w| {
                        w.nested(context_tag(0, true), |w| {
                            w.nested(context_tag(0, true), |w| w.tlv(URI, &[uri.as_bytes()]))
                        })
                    });
                }
            }),
            Extension::AuthorityInfoAccess { ocsp, ca_issuers } => w.nested(tag::SEQUENCE, |w| {
                for (method, uri) in Self::access_descriptions(ocsp, ca_issuers) {
                    w.nested(tag::SEQUENCE, |w| {
                        method.encode_into(w);
                        w.tlv(URI, &[uri.as_bytes()]);
                    });
                }
            }),
            Extension::CertificatePolicies(policies) => w.nested(tag::SEQUENCE, |w| {
                for policy in policies {
                    w.nested(tag::SEQUENCE, |w| policy.encode_into(w));
                }
            }),
            Extension::SctList { count, seed } => {
                // TLS-style: outer 2-byte list length, then per-SCT 2-byte
                // length + body, all inside an inner OCTET STRING.
                const BODY_LEN: usize = SCT_ENTRY_LEN - 2;
                let list_len = usize::from(count) * SCT_ENTRY_LEN;
                w.nested(tag::OCTET_STRING, |w| {
                    w.raw(&(list_len as u16).to_be_bytes());
                    for i in 0..count {
                        w.raw(&(BODY_LEN as u16).to_be_bytes());
                        // SCT version 1
                        *w.fill(seed.wrapping_add(u64::from(i)), BODY_LEN) = 0;
                    }
                })
            }
        }
    }

    /// Append the full Extension SEQUENCE (OID, optional critical flag,
    /// OCTET STRING value) to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.nested(tag::SEQUENCE, |w| {
            self.oid().encode_into(w);
            if self.critical() {
                w.boolean(true);
            }
            w.nested(tag::OCTET_STRING, |w| self.encode_value_into(w));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::{self, parse_one};

    fn encode(ext: &Extension) -> Vec<u8> {
        der::encoded(|w| ext.encode_into(w))
    }

    #[test]
    fn basic_constraints_ca_shape() {
        let ext = Extension::BasicConstraints {
            ca: true,
            path_len: Some(0),
        };
        let enc = encode(&ext);
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
        let enc = encode(&ext);
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
        let few = Extension::SubjectAltNames(SanNames::listed(&["example.org"]));
        let hosts: Vec<String> = (0..50).map(|i| format!("host-{i}.example.org")).collect();
        let hosts: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let many = Extension::SubjectAltNames(SanNames::listed(&hosts));
        assert!(encode(&many).len() > encode(&few).len() + 49 * 15);
        // Numbered names are `alt-NNN.<cn>`, wider from 1000 on, and
        // follow the CN pair and the listed names.
        for numbered in [0, 3, 999, 1_000, 1_001, 10_000, u16::MAX] {
            let names = SanNames::leaf("shop.example", &["listed.example"], numbered);
            let ext = Extension::SubjectAltNames(names);
            let mut expected = vec!["shop.example".to_owned(), "www.shop.example".to_owned()];
            expected.push("listed.example".to_owned());
            expected.extend((0..numbered).map(|i| format!("alt-{i:03}.shop.example")));
            assert_eq!(names.count(), expected.len());
            let value = parse_one(&encode(&ext)).unwrap().children().unwrap()[1]
                .content
                .clone();
            let written: Vec<String> = parse_one(&value)
                .unwrap()
                .children()
                .unwrap()
                .iter()
                .map(|name| String::from_utf8(name.content.clone()).unwrap())
                .collect();
            assert_eq!(written, expected, "{numbered}");
        }
        // A wildcard CN has no www. name.
        assert_eq!(SanNames::leaf("*.example", &[], 0).count(), 1);
    }

    #[test]
    fn sct_list_size_scales_with_count() {
        let two = Extension::SctList { count: 2, seed: 1 };
        let three = Extension::SctList { count: 3, seed: 1 };
        // Exactly one SCT entry more, plus up to a few bytes of DER length
        // framing growth when a length crosses the 255-byte boundary.
        let (two, three) = (encode(&two).len(), encode(&three).len());
        let delta = three - two;
        assert!(
            (SCT_ENTRY_LEN..SCT_ENTRY_LEN + 5).contains(&delta),
            "delta {delta}"
        );
        // Two SCTs: real-world extensions run ~250–280 bytes total.
        assert!((240..=280).contains(&two), "was {two}");
    }

    #[test]
    fn aia_includes_requested_uris() {
        let ext = Extension::AuthorityInfoAccess {
            ocsp: Some("http://r3.o.lencr.org"),
            ca_issuers: Some("http://r3.i.lencr.org/"),
        };
        let enc = encode(&ext);
        let text = String::from_utf8_lossy(&enc).into_owned();
        assert!(text.contains("r3.o.lencr.org"));
        assert!(text.contains("r3.i.lencr.org"));
    }

    #[test]
    fn all_extensions_are_wellformed_der() {
        let exts = [
            Extension::BasicConstraints {
                ca: true,
                path_len: None,
            },
            Extension::BasicConstraints {
                ca: true,
                path_len: Some(200),
            },
            Extension::KeyUsage(KeyUsageFlags::ca()),
            Extension::ExtKeyUsage(&[oid::KP_SERVER_AUTH, oid::KP_CLIENT_AUTH]),
            Extension::SubjectKeyId { seed: 2 },
            Extension::AuthorityKeyId { seed: 3 },
            Extension::SubjectAltNames(SanNames::listed(&["a.example", "*.b.example"])),
            Extension::CrlDistributionPoints(&["http://crl.example/x.crl"]),
            Extension::AuthorityInfoAccess {
                ocsp: Some("http://ocsp.example"),
                ca_issuers: None,
            },
            Extension::CertificatePolicies(&[oid::CP_DOMAIN_VALIDATED]),
            Extension::SctList { count: 2, seed: 4 },
        ];
        for ext in &exts {
            let parsed = parse_one(&encode(ext)).unwrap();
            assert_eq!(parsed.tag, 0x30, "{:?}", ext.oid());
        }
    }

    #[test]
    fn criticality_flags() {
        assert!(Extension::KeyUsage(KeyUsageFlags::leaf()).critical());
        assert!(!Extension::SubjectAltNames(SanNames::listed(&[])).critical());
        assert!(!Extension::SctList { count: 2, seed: 0 }.critical());
    }
}
