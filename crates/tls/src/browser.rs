//! Browser client profiles (Table 1 of the paper).
//!
//! The paper compares the QUIC `Initial` sizes and certificate-compression
//! support of popular browsers: Firefox pads Initials to 1357 bytes and
//! offers no compression; Chromium derivatives pad to 1250 bytes (recently
//! reduced from 1350) and offer brotli; Safari ships no QUIC but offers
//! zlib and zstd over TLS-in-TCP.

use quicert_compress::Algorithm;

/// A browser's QUIC/TLS client parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserProfile {
    /// Browser family name.
    pub name: &'static str,
    /// Version the paper tested.
    pub version: &'static str,
    /// UDP payload size of the client Initial, if the browser speaks QUIC.
    pub initial_size: Option<usize>,
    /// Certificate compression algorithms offered in the ClientHello.
    pub compression: Vec<Algorithm>,
}

/// Firefox 101.x: 1357-byte Initials, no certificate compression.
pub(crate) fn firefox() -> BrowserProfile {
    BrowserProfile {
        name: "Firefox",
        version: "101.x",
        initial_size: Some(1357),
        compression: vec![],
    }
}

/// Chromium 105.x (Chrome, Brave, Vivaldi, Edge, Opera): 1250-byte
/// Initials (recently reduced from 1350), brotli compression.
pub(crate) fn chromium() -> BrowserProfile {
    BrowserProfile {
        name: "Chromium",
        version: "105.x",
        initial_size: Some(1250),
        compression: vec![Algorithm::Brotli],
    }
}

/// Safari 15.5 (macOS): no QUIC; zlib and zstd compression over TCP.
pub(crate) fn safari() -> BrowserProfile {
    BrowserProfile {
        name: "Safari",
        version: "15.5",
        initial_size: None,
        compression: vec![Algorithm::Zlib, Algorithm::Zstd],
    }
}

/// All Table 1 browser profiles.
pub fn all_profiles() -> Vec<BrowserProfile> {
    vec![firefox(), chromium(), safari()]
}

/// The two "common amplification limits" the paper uses as reference lines:
/// 3 × Chromium's 1250-byte Initial and 3 × Firefox's 1357-byte Initial.
pub fn common_amplification_limits() -> (usize, usize) {
    (3 * 1250, 3 * 1357)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_initial_sizes() {
        assert_eq!(firefox().initial_size, Some(1357));
        assert_eq!(chromium().initial_size, Some(1250));
        assert_eq!(safari().initial_size, None);
    }

    #[test]
    fn table1_compression_offers() {
        assert!(firefox().compression.is_empty());
        assert_eq!(chromium().compression, vec![Algorithm::Brotli]);
        assert_eq!(safari().compression, vec![Algorithm::Zlib, Algorithm::Zstd]);
    }

    #[test]
    fn limits_match_paper_thresholds() {
        let (lo, hi) = common_amplification_limits();
        assert_eq!(lo, 3750);
        assert_eq!(hi, 4071);
    }
}
