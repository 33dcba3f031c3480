//! Static dictionary for the brotli profile.
//!
//! Real brotli owes part of its edge on certificate chains to its built-in
//! static dictionary and context modelling. Our brotli profile approximates
//! that with a certificate-specific dictionary assembled from the byte
//! patterns that dominate web-PKI DER: common OBJECT IDENTIFIER encodings,
//! ASN.1 structure skeletons, CA organisation strings, and the URL shapes
//! found in AIA/CRL extensions.
//!
//! The dictionary is assembled once at first use; its exact contents are
//! deterministic (a pure function of this source file).

use std::sync::OnceLock;

/// Common DER fragments: OIDs with tag/length prefixes, structure openers.
const DER_FRAGMENTS: &[&[u8]] = &[
    // SEQUENCE openers with typical certificate lengths.
    b"\x30\x82\x03",
    b"\x30\x82\x04",
    b"\x30\x82\x05",
    b"\x30\x82\x01\x0a\x02\x82\x01\x01\x00",
    b"\x30\x82\x02\x0a\x02\x82\x02\x01\x00",
    // version [0] EXPLICIT INTEGER v3 + INTEGER serial opener.
    b"\xa0\x03\x02\x01\x02\x02\x10",
    b"\xa0\x03\x02\x01\x02\x02\x12",
    // AlgorithmIdentifiers: sha256WithRSAEncryption, sha384WithRSAEncryption.
    b"\x30\x0d\x06\x09\x2a\x86\x48\x86\xf7\x0d\x01\x01\x0b\x05\x00",
    b"\x30\x0d\x06\x09\x2a\x86\x48\x86\xf7\x0d\x01\x01\x0c\x05\x00",
    // rsaEncryption SPKI prefix.
    b"\x30\x0d\x06\x09\x2a\x86\x48\x86\xf7\x0d\x01\x01\x01\x05\x00\x03\x82\x01\x0f\x00",
    // ecdsa-with-SHA256 / SHA384.
    b"\x30\x0a\x06\x08\x2a\x86\x48\xce\x3d\x04\x03\x02",
    b"\x30\x0a\x06\x08\x2a\x86\x48\xce\x3d\x04\x03\x03",
    // id-ecPublicKey + prime256v1 SPKI prefix.
    b"\x30\x13\x06\x07\x2a\x86\x48\xce\x3d\x02\x01\x06\x08\x2a\x86\x48\xce\x3d\x03\x01\x07\x03\x42\x00\x04",
    // id-ecPublicKey + secp384r1.
    b"\x30\x10\x06\x07\x2a\x86\x48\xce\x3d\x02\x01\x06\x05\x2b\x81\x04\x00\x22\x03\x62\x00\x04",
    // Name attribute openers: C=, O=, CN= with SET/SEQUENCE framing.
    b"\x31\x0b\x30\x09\x06\x03\x55\x04\x06\x13\x02",
    b"\x31\x0b\x30\x09\x06\x03\x55\x04\x06\x13\x02US",
    b"\x31\x0b\x30\x09\x06\x03\x55\x04\x06\x13\x02BE",
    b"\x31\x0b\x30\x09\x06\x03\x55\x04\x06\x13\x02GB",
    b"\x30\x09\x06\x03\x55\x04\x0a\x0c",
    b"\x30\x09\x06\x03\x55\x04\x03\x0c",
    b"\x31\x0b\x30\x09\x06\x03\x55\x04\x0b\x0c",
    // Extension OIDs with framing: SKI, KU, SAN, BC, CRLDP, CP, AKI, EKU.
    b"\x30\x1d\x06\x03\x55\x1d\x0e\x04\x16\x04\x14",
    b"\x30\x0e\x06\x03\x55\x1d\x0f\x01\x01\xff\x04\x04\x03\x02",
    b"\x30\x0b\x06\x03\x55\x1d\x11\x04",
    b"\x30\x0c\x06\x03\x55\x1d\x13\x01\x01\xff\x04\x02\x30\x00",
    b"\x30\x12\x06\x03\x55\x1d\x13\x01\x01\xff\x04\x08\x30\x06\x01\x01\xff\x02\x01\x00",
    b"\x06\x03\x55\x1d\x1f",
    b"\x06\x03\x55\x1d\x20",
    b"\x30\x1f\x06\x03\x55\x1d\x23\x04\x18\x30\x16\x80\x14",
    b"\x30\x1d\x06\x03\x55\x1d\x25\x04\x16\x30\x14\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x01\x06\x08\x2b\x06\x01\x05\x05\x07\x03\x02",
    // AIA with OCSP + caIssuers access methods.
    b"\x06\x08\x2b\x06\x01\x05\x05\x07\x01\x01",
    b"\x30\x08\x06\x06\x2b\x06\x01\x05\x05\x07",
    b"\x06\x08\x2b\x06\x01\x05\x05\x07\x30\x01\x86",
    b"\x06\x08\x2b\x06\x01\x05\x05\x07\x30\x02\x86",
    // SCT list extension OID.
    b"\x06\x0a\x2b\x06\x01\x04\x01\xd6\x79\x02\x04\x02\x04\x82\x01",
    // CA/B forum policy OIDs.
    b"\x30\x08\x06\x06\x67\x81\x0c\x01\x02\x01",
    b"\x30\x08\x06\x06\x67\x81\x0c\x01\x02\x02",
    // UTCTime pairs with plausible year prefixes.
    b"\x30\x1e\x17\x0d22",
    b"\x30\x1e\x17\x0d21",
    b"\x17\x0d2203",
    b"\x17\x0d2206",
    b"0000Z",
    b"5959Z",
    // dNSName context tag runs.
    b"\x82\x0b",
    b"\x82\x0f",
    b"\x82\x10www.",
];

/// Organisation / CA strings that recur across the web PKI.
const CA_STRINGS: &[&str] = &[
    "Let's Encrypt",
    "R3",
    "E1",
    "ISRG Root X1",
    "ISRG Root X2",
    "Internet Security Research Group",
    "Digital Signature Trust Co.",
    "DST Root CA X3",
    "Google Trust Services LLC",
    "GTS Root R1",
    "GTS CA 1C3",
    "GTS CA 1D4",
    "GTS CA 1P5",
    "Cloudflare, Inc.",
    "Cloudflare Inc ECC CA-3",
    "Baltimore CyberTrust Root",
    "DigiCert Inc",
    "DigiCert Global Root CA",
    "DigiCert TLS RSA SHA256 2020 CA1",
    "DigiCert SHA2 Secure Server CA",
    "www.digicert.com",
    "Sectigo Limited",
    "Sectigo RSA Domain Validation Secure Server CA",
    "USERTrust RSA Certification Authority",
    "The USERTRUST Network",
    "Comodo CA Limited",
    "AAA Certificate Services",
    "GlobalSign nv-sa",
    "GlobalSign Root CA",
    "GlobalSign Atlas R3 DV TLS CA",
    "GoDaddy.com, Inc.",
    "Go Daddy Root Certificate Authority - G2",
    "Starfield Technologies, Inc.",
    "Amazon",
    "Amazon Root CA 1",
    "Amazon RSA 2048 M01",
    "cPanel, Inc.",
    "cPanel, Inc. Certification Authority",
    "Salt Lake City",
    "Jersey City",
    "New Jersey",
    "Greater Manchester",
    "Salford",
    "Mountain View",
    "California",
    "Arizona",
    "Scottsdale",
    "Delaware",
    "Wilmington",
];

/// URL shapes seen in AIA / CRL distribution points.
const URL_STRINGS: &[&str] = &[
    "http://ocsp.",
    "http://crl.",
    "http://cacerts.",
    "http://crt.",
    "http://x1.c.lencr.org/",
    "http://r3.o.lencr.org",
    "http://r3.i.lencr.org/",
    "http://e1.o.lencr.org",
    "http://ocsp.pki.goog/gts1c3",
    "http://pki.goog/repo/certs/gts1c3.der",
    "http://crls.pki.goog/gts1c3/",
    "http://ocsp.digicert.com",
    "http://crl3.digicert.com/",
    "http://crl4.digicert.com/",
    "http://ocsp.sectigo.com",
    "http://crt.sectigo.com/",
    "http://ocsp.usertrust.com",
    "http://ocsp.comodoca.com",
    "http://ocsp.globalsign.com/",
    "http://secure.globalsign.com/cacert/",
    "http://ocsp.godaddy.com/",
    "http://certificates.godaddy.com/repository/",
    "http://ocsp.starfieldtech.com/",
    "http://ocsp.rootca1.amazontrust.com",
    "http://crt.rootca1.amazontrust.com/rootca1.cer",
    "http://crl.rootca1.amazontrust.com/rootca1.crl",
    ".crl",
    ".cer",
    ".der",
    ".com/",
    ".org/",
    ".net/",
    "www.",
];

static DICTIONARY: OnceLock<Vec<u8>> = OnceLock::new();

/// The assembled certificate dictionary.
pub(crate) fn cert_dictionary() -> &'static [u8] {
    DICTIONARY.get_or_init(|| {
        let mut d = Vec::with_capacity(4096);
        for frag in DER_FRAGMENTS {
            d.extend_from_slice(frag);
        }
        for s in CA_STRINGS {
            d.extend_from_slice(s.as_bytes());
            d.push(0x30); // separator that doubles as a SEQUENCE tag
        }
        for s in URL_STRINGS {
            d.extend_from_slice(s.as_bytes());
        }
        d
    })
}

/// Dictionary n-gram width used by [`coverage`].
pub(crate) const COVERAGE_GRAM: usize = 4;

/// Share of positions in `data` that start a `COVERAGE_GRAM`-byte
/// substring also present in the certificate dictionary, in `[0, 1]`.
///
/// This is a cheap proxy for how much of an input the dictionary can help
/// with at all: classical DER chains are dense in catalogued OIDs, CA
/// strings and URL shapes, while ML-DSA keys and signatures are
/// incompressible pseudo-random bytes the dictionary has never seen — their
/// coverage collapses toward the chance level, which is what degrades the
/// brotli profile's ratio on post-quantum chains.
pub fn coverage(data: &[u8]) -> f64 {
    if data.len() < COVERAGE_GRAM {
        return 0.0;
    }
    static GRAMS: OnceLock<std::collections::HashSet<&'static [u8]>> = OnceLock::new();
    let grams = GRAMS.get_or_init(|| cert_dictionary().windows(COVERAGE_GRAM).collect());
    let positions = data.len() - COVERAGE_GRAM + 1;
    let hits = data
        .windows(COVERAGE_GRAM)
        .filter(|w| grams.contains(w))
        .count();
    hits as f64 / positions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_is_stable_and_nontrivial() {
        let d1 = cert_dictionary();
        let d2 = cert_dictionary();
        assert_eq!(d1.as_ptr(), d2.as_ptr(), "built once");
        assert!(d1.len() > 1500, "dictionary has substance: {}", d1.len());
        assert!(d1.len() < 16 * 1024, "dictionary stays small");
    }

    #[test]
    fn coverage_separates_classical_der_from_random_bytes() {
        // A classical-looking fragment: catalogued AlgorithmIdentifier plus
        // a CA string the dictionary carries verbatim.
        let mut classical = Vec::new();
        classical
            .extend_from_slice(b"\x30\x0d\x06\x09\x2a\x86\x48\x86\xf7\x0d\x01\x01\x0b\x05\x00");
        classical.extend_from_slice(b"Let's Encrypt");
        classical.extend_from_slice(b"http://ocsp.digicert.com");
        let classical_cov = coverage(&classical);
        assert!(classical_cov > 0.5, "classical coverage {classical_cov}");

        // ML-DSA-style material: deterministic pseudo-random filler.
        let mut pq = vec![0u8; 2420];
        let mut z = 0x5EEDu64;
        for b in pq.iter_mut() {
            z = z.wrapping_mul(0x94D0_49BB_1331_11EB).wrapping_add(1);
            *b = (z >> 32) as u8;
        }
        let pq_cov = coverage(&pq);
        assert!(pq_cov < 0.05, "pq coverage {pq_cov}");
        assert!(classical_cov > 10.0 * pq_cov.max(1e-6));

        // Degenerate inputs are defined.
        assert_eq!(coverage(&[]), 0.0);
        assert_eq!(coverage(&[1, 2]), 0.0);
    }

    #[test]
    fn dictionary_contains_key_pki_markers() {
        let d = cert_dictionary();
        let contains = |needle: &[u8]| d.windows(needle.len()).any(|w| w == needle);
        assert!(contains(b"Let's Encrypt"));
        assert!(contains(b"DigiCert"));
        assert!(contains(b"http://ocsp."));
        // sha256WithRSAEncryption OID bytes.
        assert!(contains(b"\x2a\x86\x48\x86\xf7\x0d\x01\x01\x0b"));
    }
}
