//! # quicert-compress — TLS certificate compression (RFC 8879 style)
//!
//! §4.2 of the paper shows that compressing certificate chains keeps 99% of
//! them under the QUIC anti-amplification limit, with a mean compression
//! ratio of ~73% (compressed/original) in the wild. This crate implements a
//! real, self-contained compressor so that those ratios are *measured on
//! real DER bytes* rather than assumed:
//!
//! * an LZ77 stage with a hash-chain match finder and optional
//!   dictionary priming, serialised to a byte-aligned token stream, and
//! * an order-0 canonical Huffman stage over the token stream, with an
//!   automatic fallback to stored mode when entropy coding does not pay.
//!
//! Three [`Algorithm`] profiles mirror the RFC 8879 code points measured in
//! Table 1 — `zlib`, `brotli` and `zstd` — differing in window size, match
//! effort and (for the brotli profile) a built-in static dictionary of
//! common X.509 fragments, mimicking how the real algorithms differ on
//! certificate data. The exact byte formats are this crate's own (the paper
//! only depends on achieved sizes, not interoperability).
//!
//! Compression is fully invertible; decompression and round-trip behaviour
//! are covered by unit and property tests.
//!
//! A [`compress`] call costs what its input costs: the match finder's
//! tables belong to the calling thread and are reused without being
//! cleared, and the built-in dictionary is indexed once per process. None
//! of that is observable — which bytes come out is fixed by the encoder
//! contracts in [`lz77`] and `huffman` and pinned by digest in
//! `tests/compress_identity.rs`. [`decompress`] treats its input as hostile:
//! declared lengths are bounded by RFC 8879's 24-bit field and never
//! reserved on trust.

// The decoder reads bytes off the wire: nothing outside tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(unreachable_pub)]

pub(crate) mod bitio;
pub mod dict;
pub mod format;
pub(crate) mod huffman;
pub mod lz77;

pub use format::{compress, decompress, CompressError};

/// RFC 8879 certificate compression algorithm code points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// zlib (code point 1): 32 KiB window, greedy matching, no dictionary.
    Zlib,
    /// brotli (code point 2): large window, lazy matching, static
    /// certificate dictionary.
    Brotli,
    /// zstd (code point 3): large window, greedy matching with a longer
    /// minimum match (fast profile), no dictionary.
    Zstd,
}

impl Algorithm {
    /// All algorithms in code-point order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Zlib, Algorithm::Brotli, Algorithm::Zstd];

    /// The IANA code point from RFC 8879.
    pub fn code_point(self) -> u16 {
        match self {
            Algorithm::Zlib => 1,
            Algorithm::Brotli => 2,
            Algorithm::Zstd => 3,
        }
    }

    /// Lookup by code point.
    pub fn from_code_point(cp: u16) -> Option<Algorithm> {
        match cp {
            1 => Some(Algorithm::Zlib),
            2 => Some(Algorithm::Brotli),
            3 => Some(Algorithm::Zstd),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Zlib => "zlib",
            Algorithm::Brotli => "brotli",
            Algorithm::Zstd => "zstd",
        }
    }

    /// The LZ parameters of this profile.
    pub(crate) fn params(self) -> lz77::Params {
        match self {
            Algorithm::Zlib => lz77::Params {
                window: 32 * 1024,
                min_match: 4,
                lazy: false,
            },
            Algorithm::Brotli => lz77::Params {
                window: 4 * 1024 * 1024,
                min_match: 4,
                lazy: true,
            },
            Algorithm::Zstd => lz77::Params {
                window: 4 * 1024 * 1024,
                min_match: 5,
                lazy: false,
            },
        }
    }

    /// The static dictionary this profile primes the window with.
    pub fn dictionary(self) -> &'static [u8] {
        match self {
            Algorithm::Brotli => dict::cert_dictionary(),
            _ => &[],
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Result of compressing one input: sizes plus the output itself.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Original input size.
    pub original_len: usize,
    /// Compressed output (container format of this crate).
    pub data: Vec<u8>,
}

impl Compressed {
    /// compressed/original size ratio (the paper's "compression rate").
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.data.len() as f64 / self.original_len as f64
        }
    }

    /// Bytes saved.
    pub fn saved(&self) -> isize {
        self.original_len as isize - self.data.len() as isize
    }
}

/// Compress `input` with `algorithm`, returning sizes and data.
pub fn compress_with(algorithm: Algorithm, input: &[u8]) -> Compressed {
    let data = format::compress(algorithm, input);
    Compressed {
        algorithm,
        original_len: input.len(),
        data,
    }
}

/// Deterministic filler for the stage tests (splitmix64).
#[cfg(test)]
pub(crate) fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_points_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::from_code_point(alg.code_point()), Some(alg));
        }
        assert_eq!(Algorithm::from_code_point(0), None);
        assert_eq!(Algorithm::from_code_point(4), None);
    }

    #[test]
    fn names_match_rfc() {
        assert_eq!(Algorithm::Zlib.name(), "zlib");
        assert_eq!(Algorithm::Brotli.to_string(), "brotli");
        assert_eq!(Algorithm::Zstd.name(), "zstd");
    }

    #[test]
    fn only_brotli_ships_a_dictionary() {
        assert!(Algorithm::Brotli.dictionary().len() > 500);
        assert!(Algorithm::Zlib.dictionary().is_empty());
        assert!(Algorithm::Zstd.dictionary().is_empty());
    }

    #[test]
    fn compress_with_reports_ratio() {
        let input = vec![b'A'; 4096];
        let out = compress_with(Algorithm::Zlib, &input);
        assert!(out.ratio() < 0.1, "highly repetitive input must crush");
        assert!(out.saved() > 3500);
        let back = decompress(&out.data, Algorithm::Zlib.dictionary()).unwrap();
        assert_eq!(back, input);
    }
}
