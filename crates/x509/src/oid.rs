//! Object identifiers used by the X.509 profile.
//!
//! An [`Oid`] holds its DER encoding, computed at compile time by the
//! `const fn` `Oid::new`: writing one into a certificate is one copy,
//! with no base-128 arithmetic on the encoding path.

use std::fmt;

use crate::der::{tag, Writer};

/// Bytes an [`Oid`]'s encoding can take: tag, length and up to 22
/// content octets (the longest arc, `u64::MAX`, takes ten).
const OID_CAPACITY: usize = 24;

/// An object identifier: its integer arcs and its DER encoding (tag,
/// length, arcs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Oid {
    arcs: &'static [u64],
    der: [u8; OID_CAPACITY],
    len: u8,
}

impl Oid {
    /// Encode the integer `arcs` (at least two). Arcs after the first two
    /// are base 128, most significant group first, with the continuation
    /// bit on all but the last group. Evaluated at compile time for every
    /// constant in this module; an identifier too long to hold fails the
    /// build.
    pub(crate) const fn new(arcs: &'static [u64]) -> Oid {
        assert!(arcs.len() >= 2, "an OID needs at least two arcs");
        let mut der = [0u8; OID_CAPACITY];
        der[0] = tag::OID;
        der[2] = (arcs[0] * 40 + arcs[1]) as u8;
        let mut len = 3;
        let mut i = 2;
        while i < arcs.len() {
            let arc = arcs[i];
            let mut group = (64 - arc.leading_zeros()).div_ceil(7);
            while group > 1 {
                group -= 1;
                der[len] = 0x80 | ((arc >> (7 * group)) as u8 & 0x7F);
                len += 1;
            }
            der[len] = arc as u8 & 0x7F;
            len += 1;
            i += 1;
        }
        der[1] = (len - 2) as u8;
        Oid {
            arcs,
            der,
            len: len as u8,
        }
    }

    /// The DER encoding (including tag and length).
    pub(crate) fn der(&self) -> &[u8] {
        &self.der[..self.len as usize]
    }

    /// Append the DER encoding (including tag and length) to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.raw(self.der());
    }

    /// Dotted-decimal representation, e.g. `"2.5.29.17"`.
    pub(crate) fn dotted(&self) -> String {
        self.arcs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.dotted())
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({self})")
    }
}

// --- Public key / signature algorithms ---------------------------------

/// rsaEncryption (1.2.840.113549.1.1.1)
pub(crate) const RSA_ENCRYPTION: Oid = Oid::new(&[1, 2, 840, 113549, 1, 1, 1]);
/// sha256WithRSAEncryption (1.2.840.113549.1.1.11)
pub(crate) const SHA256_WITH_RSA: Oid = Oid::new(&[1, 2, 840, 113549, 1, 1, 11]);
/// sha384WithRSAEncryption (1.2.840.113549.1.1.12)
pub(crate) const SHA384_WITH_RSA: Oid = Oid::new(&[1, 2, 840, 113549, 1, 1, 12]);
/// id-ecPublicKey (1.2.840.10045.2.1)
pub(crate) const EC_PUBLIC_KEY: Oid = Oid::new(&[1, 2, 840, 10045, 2, 1]);
/// prime256v1 / secp256r1 (1.2.840.10045.3.1.7)
pub(crate) const PRIME256V1: Oid = Oid::new(&[1, 2, 840, 10045, 3, 1, 7]);
/// secp384r1 (1.3.132.0.34)
pub(crate) const SECP384R1: Oid = Oid::new(&[1, 3, 132, 0, 34]);
/// ecdsa-with-SHA256 (1.2.840.10045.4.3.2)
pub(crate) const ECDSA_WITH_SHA256: Oid = Oid::new(&[1, 2, 840, 10045, 4, 3, 2]);
/// ecdsa-with-SHA384 (1.2.840.10045.4.3.3)
pub(crate) const ECDSA_WITH_SHA384: Oid = Oid::new(&[1, 2, 840, 10045, 4, 3, 3]);

// --- Post-quantum signature algorithms (FIPS 204 / LAMPS drafts) ---------

/// id-ml-dsa-44 (2.16.840.1.101.3.4.3.17), NIST CSOR arc.
pub(crate) const ML_DSA_44: Oid = Oid::new(&[2, 16, 840, 1, 101, 3, 4, 3, 17]);
/// id-ml-dsa-65 (2.16.840.1.101.3.4.3.18).
pub(crate) const ML_DSA_65: Oid = Oid::new(&[2, 16, 840, 1, 101, 3, 4, 3, 18]);
/// Composite ML-DSA-44 + ECDSA-P256-SHA256 (2.16.840.1.114027.80.8.1.4,
/// draft-ietf-lamps-pq-composite-sigs; code point not yet final).
pub(crate) const COMPOSITE_MLDSA44_ECDSA_P256: Oid =
    Oid::new(&[2, 16, 840, 1, 114027, 80, 8, 1, 4]);
/// Composite ML-DSA-65 + ECDSA-P384-SHA384 (2.16.840.1.114027.80.8.1.10,
/// draft-ietf-lamps-pq-composite-sigs; code point not yet final).
pub(crate) const COMPOSITE_MLDSA65_ECDSA_P384: Oid =
    Oid::new(&[2, 16, 840, 1, 114027, 80, 8, 1, 10]);

// --- Distinguished-name attribute types --------------------------------

/// id-at-commonName (2.5.4.3)
pub(crate) const AT_COMMON_NAME: Oid = Oid::new(&[2, 5, 4, 3]);
/// id-at-countryName (2.5.4.6)
pub(crate) const AT_COUNTRY: Oid = Oid::new(&[2, 5, 4, 6]);
/// id-at-localityName (2.5.4.7)
pub(crate) const AT_LOCALITY: Oid = Oid::new(&[2, 5, 4, 7]);
/// id-at-stateOrProvinceName (2.5.4.8)
pub(crate) const AT_STATE: Oid = Oid::new(&[2, 5, 4, 8]);
/// id-at-organizationName (2.5.4.10)
pub(crate) const AT_ORGANIZATION: Oid = Oid::new(&[2, 5, 4, 10]);
/// id-at-organizationalUnitName (2.5.4.11)
pub(crate) const AT_ORG_UNIT: Oid = Oid::new(&[2, 5, 4, 11]);

// --- Certificate extensions ---------------------------------------------

/// id-ce-subjectKeyIdentifier (2.5.29.14)
pub(crate) const EXT_SUBJECT_KEY_ID: Oid = Oid::new(&[2, 5, 29, 14]);
/// id-ce-keyUsage (2.5.29.15)
pub(crate) const EXT_KEY_USAGE: Oid = Oid::new(&[2, 5, 29, 15]);
/// id-ce-subjectAltName (2.5.29.17)
pub(crate) const EXT_SUBJECT_ALT_NAME: Oid = Oid::new(&[2, 5, 29, 17]);
/// id-ce-basicConstraints (2.5.29.19)
pub(crate) const EXT_BASIC_CONSTRAINTS: Oid = Oid::new(&[2, 5, 29, 19]);
/// id-ce-cRLDistributionPoints (2.5.29.31)
pub(crate) const EXT_CRL_DISTRIBUTION: Oid = Oid::new(&[2, 5, 29, 31]);
/// id-ce-certificatePolicies (2.5.29.32)
pub(crate) const EXT_CERT_POLICIES: Oid = Oid::new(&[2, 5, 29, 32]);
/// id-ce-authorityKeyIdentifier (2.5.29.35)
pub(crate) const EXT_AUTHORITY_KEY_ID: Oid = Oid::new(&[2, 5, 29, 35]);
/// id-ce-extKeyUsage (2.5.29.37)
pub(crate) const EXT_EXT_KEY_USAGE: Oid = Oid::new(&[2, 5, 29, 37]);
/// id-pe-authorityInfoAccess (1.3.6.1.5.5.7.1.1)
pub(crate) const EXT_AUTHORITY_INFO_ACCESS: Oid = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 1, 1]);
/// Signed Certificate Timestamp list (1.3.6.1.4.1.11129.2.4.2)
pub(crate) const EXT_SCT_LIST: Oid = Oid::new(&[1, 3, 6, 1, 4, 1, 11129, 2, 4, 2]);

// --- Access methods & EKU purposes --------------------------------------

/// id-ad-ocsp (1.3.6.1.5.5.7.48.1)
pub(crate) const AD_OCSP: Oid = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 48, 1]);
/// id-ad-caIssuers (1.3.6.1.5.5.7.48.2)
pub(crate) const AD_CA_ISSUERS: Oid = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 48, 2]);
/// id-kp-serverAuth (1.3.6.1.5.5.7.3.1)
pub const KP_SERVER_AUTH: Oid = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 3, 1]);
/// id-kp-clientAuth (1.3.6.1.5.5.7.3.2)
pub const KP_CLIENT_AUTH: Oid = Oid::new(&[1, 3, 6, 1, 5, 5, 7, 3, 2]);

// --- Certificate policy identifiers --------------------------------------

/// anyPolicy (2.5.29.32.0)
pub const CP_ANY_POLICY: Oid = Oid::new(&[2, 5, 29, 32, 0]);
/// CA/Browser Forum domain-validated (2.23.140.1.2.1)
pub const CP_DOMAIN_VALIDATED: Oid = Oid::new(&[2, 23, 140, 1, 2, 1]);
/// CA/Browser Forum organization-validated (2.23.140.1.2.2)
pub const CP_ORG_VALIDATED: Oid = Oid::new(&[2, 23, 140, 1, 2, 2]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::parse_one;

    #[test]
    fn dotted_rendering() {
        assert_eq!(EXT_SUBJECT_ALT_NAME.dotted(), "2.5.29.17");
        assert_eq!(RSA_ENCRYPTION.to_string(), "1.2.840.113549.1.1.1");
    }

    #[test]
    fn all_oids_encode_as_valid_der() {
        for oid in [
            &RSA_ENCRYPTION,
            &SHA256_WITH_RSA,
            &SHA384_WITH_RSA,
            &EC_PUBLIC_KEY,
            &PRIME256V1,
            &SECP384R1,
            &ECDSA_WITH_SHA256,
            &ECDSA_WITH_SHA384,
            &ML_DSA_44,
            &ML_DSA_65,
            &COMPOSITE_MLDSA44_ECDSA_P256,
            &COMPOSITE_MLDSA65_ECDSA_P384,
            &AT_COMMON_NAME,
            &AT_COUNTRY,
            &AT_ORGANIZATION,
            &EXT_SUBJECT_KEY_ID,
            &EXT_KEY_USAGE,
            &EXT_SUBJECT_ALT_NAME,
            &EXT_BASIC_CONSTRAINTS,
            &EXT_CRL_DISTRIBUTION,
            &EXT_CERT_POLICIES,
            &EXT_AUTHORITY_KEY_ID,
            &EXT_EXT_KEY_USAGE,
            &EXT_AUTHORITY_INFO_ACCESS,
            &EXT_SCT_LIST,
            &AD_OCSP,
            &AD_CA_ISSUERS,
            &KP_SERVER_AUTH,
            &CP_DOMAIN_VALIDATED,
        ] {
            let parsed = parse_one(oid.der()).unwrap();
            assert_eq!(parsed.tag, 0x06, "OID {oid} should parse");
            assert!(!parsed.content.is_empty());
        }
    }

    #[test]
    fn oid_encoding_matches_rfc_examples() {
        // rsaEncryption = 1.2.840.113549.1.1.1
        assert_eq!(
            RSA_ENCRYPTION.der(),
            [0x06, 0x09, 0x2A, 0x86, 0x48, 0x86, 0xF7, 0x0D, 0x01, 0x01, 0x01]
        );
        // id-ce-subjectAltName = 2.5.29.17
        assert_eq!(EXT_SUBJECT_ALT_NAME.der(), [0x06, 0x03, 0x55, 0x1D, 0x11]);
        // A zero arc and the widest arc each keep their group count.
        const WIDE: Oid = Oid::new(&[1, 3, 0, u64::MAX]);
        assert_eq!(
            WIDE.der(),
            [0x06, 0x0C, 0x2B, 0x00, 0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]
        );
        assert_eq!(WIDE.to_string(), format!("1.3.0.{}", u64::MAX));
    }

    #[test]
    fn sct_oid_uses_multibyte_arcs() {
        // 11129 needs two base-128 bytes.
        assert_eq!(
            EXT_SCT_LIST.der(),
            [0x06, 0x0A, 0x2B, 0x06, 0x01, 0x04, 0x01, 0xD6, 0x79, 0x02, 0x04, 0x02]
        );
    }
}
