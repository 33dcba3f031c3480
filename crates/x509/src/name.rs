//! X.501 distinguished names.
//!
//! A `Name` is a SEQUENCE of relative distinguished names (RDNs), each a SET
//! of attribute type/value pairs. Real-world certificate names are almost
//! always chains of singleton RDNs, which is what this model emits.
//!
//! [`DistinguishedName`] owns its attributes (the catalog's CA names);
//! [`Name`] is what a [`crate::CertificateBuilder`] borrows: one of those,
//! a leaf's bare `CN=`, or a name already encoded (a parent certificate's
//! subject span).

use crate::der::{tag, Writer};
use crate::oid::{self, Oid};

/// Attribute types that appear in subject / issuer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// commonName (CN) — encoded as UTF8String (modern practice).
    CommonName,
    /// countryName (C) — PrintableString, exactly two letters.
    Country,
    /// organizationName (O) — UTF8String.
    Organization,
    /// organizationalUnitName (OU) — UTF8String.
    OrgUnit,
    /// localityName (L) — UTF8String.
    Locality,
    /// stateOrProvinceName (ST) — UTF8String.
    State,
}

impl AttrKind {
    /// The attribute type OID.
    pub fn oid(self) -> &'static Oid {
        match self {
            AttrKind::CommonName => &oid::AT_COMMON_NAME,
            AttrKind::Country => &oid::AT_COUNTRY,
            AttrKind::Organization => &oid::AT_ORGANIZATION,
            AttrKind::OrgUnit => &oid::AT_ORG_UNIT,
            AttrKind::Locality => &oid::AT_LOCALITY,
            AttrKind::State => &oid::AT_STATE,
        }
    }

    /// The short label used when rendering (`CN`, `O`, ...).
    pub fn label(self) -> &'static str {
        match self {
            AttrKind::CommonName => "CN",
            AttrKind::Country => "C",
            AttrKind::Organization => "O",
            AttrKind::OrgUnit => "OU",
            AttrKind::Locality => "L",
            AttrKind::State => "ST",
        }
    }

    fn value_tag(self) -> u8 {
        match self {
            // Country is conventionally PrintableString.
            AttrKind::Country => tag::PRINTABLE_STRING,
            _ => tag::UTF8_STRING,
        }
    }
}

/// A distinguished name: an ordered list of `(type, value)` attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    /// The attributes in RDN order.
    pub attrs: Vec<(AttrKind, String)>,
}

impl DistinguishedName {
    /// Empty name.
    pub fn new() -> Self {
        DistinguishedName { attrs: Vec::new() }
    }

    /// Builder-style attribute append.
    pub fn with(mut self, kind: AttrKind, value: impl Into<String>) -> Self {
        self.attrs.push((kind, value.into()));
        self
    }

    /// Shorthand for the ubiquitous `C=.., O=.., CN=..` CA name shape.
    pub fn ca(country: &str, org: &str, cn: &str) -> Self {
        DistinguishedName::new()
            .with(AttrKind::Country, country)
            .with(AttrKind::Organization, org)
            .with(AttrKind::CommonName, cn)
    }

    /// Shorthand for a bare `CN=..` leaf subject (modern DV practice).
    pub fn cn(cn: &str) -> Self {
        DistinguishedName::new().with(AttrKind::CommonName, cn)
    }

    /// The commonName value, if present.
    pub fn common_name(&self) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == AttrKind::CommonName)
            .map(|(_, v)| v.as_str())
    }

    /// Append the DER encoding (SEQUENCE of singleton SETs) to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        Name::Dn(self).encode_into(w);
    }

    /// Render in the familiar `C=BE, O=GlobalSign nv-sa, CN=...` form.
    pub fn render(&self) -> String {
        self.attrs
            .iter()
            .map(|(k, v)| format!("{}={}", k.label(), v))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A Name as a certificate builder borrows it.
#[derive(Debug, Clone, Copy)]
pub enum Name<'a> {
    /// An owned distinguished name, written attribute by attribute.
    Dn(&'a DistinguishedName),
    /// `CN=<value>` alone (modern DV leaf subjects).
    Cn(&'a str),
    /// A Name already DER-encoded, written verbatim: the issuer of a leaf
    /// is its issuing CA's [`crate::Certificate::subject`].
    Der(&'a [u8]),
}

impl<'a> From<&'a DistinguishedName> for Name<'a> {
    fn from(dn: &'a DistinguishedName) -> Self {
        Name::Dn(dn)
    }
}

impl Name<'_> {
    /// Append the DER encoding (SEQUENCE of singleton SETs) to `w`.
    ///
    /// Strict DER requires SET OF elements to be sorted; singleton sets
    /// are trivially sorted.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        match *self {
            Name::Dn(dn) => w.nested(tag::SEQUENCE, |w| {
                for (kind, value) in &dn.attrs {
                    write_rdn(w, *kind, value);
                }
            }),
            Name::Cn(cn) => w.nested(tag::SEQUENCE, |w| write_rdn(w, AttrKind::CommonName, cn)),
            Name::Der(der) => w.raw(der),
        }
    }
}

/// One singleton RDN: SET { SEQUENCE { type, value } }.
fn write_rdn(w: &mut Writer, kind: AttrKind, value: &str) {
    w.nested(tag::SET, |w| {
        w.nested(tag::SEQUENCE, |w| {
            kind.oid().encode_into(w);
            w.tlv(kind.value_tag(), &[value.as_bytes()]);
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::{self, parse_one};

    fn encode(dn: &DistinguishedName) -> Vec<u8> {
        der::encoded(|w| dn.encode_into(w))
    }

    #[test]
    fn render_matches_paper_example() {
        let dn = DistinguishedName::ca(
            "BE",
            "GlobalSign nv-sa",
            "GlobalSign Atlas R3 DV TLS CA H2 2021",
        );
        assert_eq!(
            dn.render(),
            "C=BE, O=GlobalSign nv-sa, CN=GlobalSign Atlas R3 DV TLS CA H2 2021"
        );
    }

    #[test]
    fn encoding_is_wellformed_nested_der() {
        let dn = DistinguishedName::ca("US", "Let's Encrypt", "R3");
        let enc = encode(&dn);
        let name = parse_one(&enc).unwrap();
        let rdns = name.children().unwrap();
        assert_eq!(rdns.len(), 3);
        for rdn in &rdns {
            assert_eq!(rdn.tag, 0x31, "RDN must be a SET");
            let atvs = rdn.children().unwrap();
            assert_eq!(atvs.len(), 1);
            let parts = atvs[0].children().unwrap();
            assert_eq!(parts[0].tag, 0x06, "first ATV element is the type OID");
        }
    }

    #[test]
    fn country_uses_printable_string() {
        let dn = DistinguishedName::new().with(AttrKind::Country, "DE");
        let enc = encode(&dn);
        let atv = parse_one(&enc).unwrap().children().unwrap()[0]
            .children()
            .unwrap()[0]
            .children()
            .unwrap();
        assert_eq!(atv[1].tag, 0x13);
        assert_eq!(atv[1].content, b"DE");
    }

    #[test]
    fn longer_names_encode_longer() {
        let short = DistinguishedName::cn("*.a.io");
        let long = DistinguishedName::ca(
            "US",
            "An Extremely Long Organization Name LLC",
            "*.subdomain.of.some.example.org",
        );
        assert!(encode(&long).len() > encode(&short).len() + 40);
    }

    #[test]
    fn common_name_lookup() {
        let dn = DistinguishedName::ca("US", "Google Trust Services LLC", "GTS CA 1C3");
        assert_eq!(dn.common_name(), Some("GTS CA 1C3"));
        assert_eq!(DistinguishedName::new().common_name(), None);
    }
}
