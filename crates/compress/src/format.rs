//! Container format: LZ token serialisation + optional Huffman pass.
//!
//! Layout:
//!
//! ```text
//! magic  'Q' 'C'            (2 bytes)
//! algo   RFC 8879 code point (1 byte)
//! mode   0=stored 1=lz 2=lz+huffman (1 byte)
//! orig   uncompressed length (LEB128 varint)
//! mode 0: raw input bytes
//! mode 1: LZ token stream
//! mode 2: 128-byte nibble table of Huffman code lengths,
//!         LZ stream length (varint), Huffman bitstream
//! ```
//!
//! The LZ token stream is a repetition of
//! `varint(lit_len) literals [varint(match_len) varint(dist)]`, terminated
//! implicitly when the decoder has produced `orig` bytes. A `match_len`
//! varint of 0 encodes "no match" (only meaningful before end of stream).
//!
//! The decoder takes every field as hostile: `orig` and the LZ stream
//! length may not exceed 2^24 − 1 (RFC 8879's `uncompressed_length` is a
//! uint24), and no buffer is reserved from either beyond what the bytes
//! actually present could decode to.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::Code;
use crate::lz77;
use crate::Algorithm;

const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;
const MODE_HUFFMAN: u8 = 2;

/// Largest length a container may declare, for its output or for the LZ
/// stream under a Huffman pass: RFC 8879 carries `uncompressed_length` in
/// 24 bits, so nothing a handshake can deliver is larger, and a decoder
/// that believed more would size buffers from attacker-chosen numbers.
const MAX_DECLARED_LEN: usize = (1 << 24) - 1;

/// Errors while decoding a compressed container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Container too short or magic mismatch.
    BadHeader,
    /// Unknown mode byte.
    BadMode(u8),
    /// Varint overruns or exceeds 2^32.
    BadVarint,
    /// LZ stream refers outside the window, is truncated, or a declared
    /// length exceeds the 24-bit bound of RFC 8879.
    BadStream,
    /// Huffman bitstream is malformed.
    BadBits,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadHeader => write!(f, "bad container header"),
            CompressError::BadMode(m) => write!(f, "unknown container mode {m}"),
            CompressError::BadVarint => write!(f, "malformed varint"),
            CompressError::BadStream => write!(f, "malformed LZ stream"),
            CompressError::BadBits => write!(f, "malformed Huffman bitstream"),
        }
    }
}

impl std::error::Error for CompressError {}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(CompressError::BadVarint)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 42 {
            return Err(CompressError::BadVarint);
        }
    }
}

/// A length field: a varint no larger than [`MAX_DECLARED_LEN`].
fn read_declared_len(input: &[u8], pos: &mut usize) -> Result<usize, CompressError> {
    match usize::try_from(read_varint(input, pos)?) {
        Ok(len) if len <= MAX_DECLARED_LEN => Ok(len),
        _ => Err(CompressError::BadStream),
    }
}

/// Run the match finder over `input` and serialise its parse into the byte
/// stream described in the module docs. Literal runs are slices of `input`,
/// copied once, straight into the stream.
fn lz_stream(dict: &[u8], input: &[u8], params: lz77::Params) -> Vec<u8> {
    // All-literal input is the usual worst case: the bytes plus two varints.
    let mut out = Vec::with_capacity(input.len() + 16);
    let mut literals_from = 0;
    lz77::for_each_match(dict, input, params, |at, len, dist| {
        let literals = &input[literals_from..at];
        push_varint(&mut out, literals.len() as u64);
        out.extend_from_slice(literals);
        // +1 so that 0 remains the "no match" sentinel.
        push_varint(&mut out, (len - MIN_MATCH_BASE + 1) as u64);
        push_varint(&mut out, dist as u64);
        literals_from = at + len;
    });
    let literals = &input[literals_from..];
    if !literals.is_empty() {
        push_varint(&mut out, literals.len() as u64);
        out.extend_from_slice(literals);
        push_varint(&mut out, 0); // trailing no-match marker
    }
    out
}

/// Decode an LZ token stream into `out` until `target_len` bytes have been
/// produced. The decode window is `dict || out`.
fn decode_tokens(stream: &[u8], dict: &[u8], target_len: usize) -> Result<Vec<u8>, CompressError> {
    // `target_len` is only a claim. Literals are the one kind of output the
    // stream's own size vouches for, so reserve no more than that; matches
    // grow the buffer as each is validated.
    let mut out: Vec<u8> = Vec::with_capacity(target_len.min(stream.len()));
    let mut pos = 0usize;
    let read_usize = |pos: &mut usize| {
        usize::try_from(read_varint(stream, pos)?).map_err(|_| CompressError::BadVarint)
    };
    while out.len() < target_len {
        let lit_len = read_usize(&mut pos)?;
        if lit_len > target_len - out.len() {
            return Err(CompressError::BadStream);
        }
        let lits = stream
            .get(pos..pos + lit_len)
            .ok_or(CompressError::BadStream)?;
        out.extend_from_slice(lits);
        pos += lit_len;
        if out.len() >= target_len {
            break;
        }
        let len_code = read_usize(&mut pos)?;
        if len_code == 0 {
            // Explicit no-match marker; continue with next literal run.
            continue;
        }
        let dist = read_usize(&mut pos)?;
        if dist == 0 || dist > dict.len() + out.len() {
            return Err(CompressError::BadStream);
        }
        // min_match is not known to the decoder; the encoder embeds it by
        // biasing len_code relative to MIN_MATCH_BASE.
        let len = len_code
            .checked_add(MIN_MATCH_BASE - 1)
            .ok_or(CompressError::BadStream)?;
        if len > target_len - out.len() {
            return Err(CompressError::BadStream);
        }
        for _ in 0..len {
            let from_end = dict.len() + out.len() - dist;
            let b = if from_end < dict.len() {
                dict[from_end]
            } else {
                out[from_end - dict.len()]
            };
            out.push(b);
        }
    }
    Ok(out)
}

/// All profiles serialise match lengths relative to this base so the decoder
/// does not need to know the profile's `min_match` (profiles with larger
/// minimums simply never emit small codes).
const MIN_MATCH_BASE: usize = 4;

/// Compress `input` under the given algorithm profile.
///
/// The payload is the LZ token stream, Huffman-coded only when that is
/// strictly smaller than both the LZ stream and the stored input, else the
/// LZ stream when it is smaller than the input, else the input itself. A
/// Huffman code is built only when `cost_floor_bits` leaves it a chance:
/// the floor skips a code that cannot win and never one that could, so
/// the choice is the one building every code would make.
///
/// Any input compresses, but [`decompress`] — like the `uncompressed_length`
/// field of RFC 8879 — stops at 2^24 − 1 bytes.
pub fn compress(algorithm: Algorithm, input: &[u8]) -> Vec<u8> {
    let lz_stream = lz_stream(algorithm.dictionary(), input, algorithm.params());

    // Candidate 2: Huffman over the LZ stream. Its bitstream has `room`:
    // what the smaller of the other two forms leaves after the code-length
    // table and the LZ length.
    let mut freqs = [0u64; 256];
    for &b in &lz_stream {
        freqs[b as usize] += 1;
    }
    let huff_header = 128 + varint_len(lz_stream.len() as u64);
    let room = lz_stream.len().min(input.len()).saturating_sub(huff_header);
    let huffman = (cost_floor_bits(&freqs) / 8.0 < room as f64)
        .then(|| {
            let code = Code::from_frequencies(&freqs);
            let bytes = code.cost_bits(&freqs).div_ceil(8) as usize;
            (code, bytes)
        })
        .filter(|&(_, bytes)| bytes < room);

    let (mode, payload_len) = match &huffman {
        Some((_, bytes)) => (MODE_HUFFMAN, huff_header + bytes),
        None if lz_stream.len() < input.len() => (MODE_LZ, lz_stream.len()),
        None => (MODE_STORED, input.len()),
    };

    let mut out = Vec::with_capacity(4 + varint_len(input.len() as u64) + payload_len);
    out.extend_from_slice(b"QC");
    out.push(algorithm.code_point() as u8);
    out.push(mode);
    push_varint(&mut out, input.len() as u64);
    match huffman {
        Some((code, _)) => {
            // 4-bit code lengths, two symbols per byte.
            for pair in code.lengths.chunks_exact(2) {
                out.push((pair[0] << 4) | pair[1]);
            }
            push_varint(&mut out, lz_stream.len() as u64);
            let mut bits = BitWriter::appending_to(out);
            for &b in &lz_stream {
                code.write_symbol(&mut bits, b);
            }
            out = bits.finish();
        }
        None if mode == MODE_LZ => out.extend_from_slice(&lz_stream),
        None => out.extend_from_slice(input),
    }
    out
}

/// A lower bound, in bits, on what any prefix code spends on symbols of
/// these frequencies: Σ f·L(n/f) over the used symbols, n = Σ f, where
/// L(x) = e + (m − 1) for x = m·2^e, m ∈ [1, 2).
///
/// Why a code it rules out cannot be the cheaper one:
///
/// * Shannon: no prefix code spends fewer than Σ f·log₂(n/f) bits (Gibbs'
///   inequality under Kraft's), and the length-limited Huffman code is a
///   prefix code.
/// * L is the chord of log₂ between consecutive powers of two, and log₂ is
///   concave, so L(x) ≤ log₂(x) (equal at the powers of two).
/// * f64 rounding: the conversions and the division put n/f within 2^-51
///   of its value relatively, which moves L by less than 2^-50 (its slope
///   is below 2 / x); the product and the sum of at most 256 terms add less
///   than 2^-44 relatively. Every used symbol costs at least one bit, so n
///   is at most the cost and the whole error is below 2^-43 of the cost.
///   The sum is scaled down by 2^-32, which covers that many times over.
///
/// e and m are read off the f64's bits: no libm call, which would map
/// libm's pages into every process that compresses.
fn cost_floor_bits(freqs: &[u64; 256]) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 1023 << 52;
    const MARGIN: f64 = 1.0 - 1.0 / (1u64 << 32) as f64;
    let n = freqs.iter().map(|&f| u128::from(f)).sum::<u128>() as f64;
    let mut floor = 0.0;
    for &f in freqs.iter().filter(|&&f| f > 0) {
        let f = f as f64;
        // n/f ≥ 1: positive and normal, so the top bits are the exponent.
        let x = (n / f).to_bits();
        let e = (x >> 52) as f64 - 1023.0;
        let m = f64::from_bits(x & MANTISSA | ONE);
        floor += f * (e + (m - 1.0));
    }
    floor * MARGIN
}

fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7).max(1)
}

/// Decompress a container produced by [`compress`]. The caller must supply
/// the same dictionary the algorithm profile used (obtainable via
/// [`Algorithm::dictionary`]; the algorithm is also recorded in the header).
/// The container is untrusted; the module docs give the limits it is held to.
pub fn decompress(data: &[u8], dict: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.len() < 5 || &data[0..2] != b"QC" {
        return Err(CompressError::BadHeader);
    }
    let mode = data[3];
    let mut pos = 4usize;
    let orig_len = read_declared_len(data, &mut pos)?;
    match mode {
        MODE_STORED => {
            let raw = data.get(pos..).ok_or(CompressError::BadStream)?;
            if raw.len() != orig_len {
                return Err(CompressError::BadStream);
            }
            Ok(raw.to_vec())
        }
        MODE_LZ => decode_tokens(&data[pos..], dict, orig_len),
        MODE_HUFFMAN => {
            let table = data.get(pos..pos + 128).ok_or(CompressError::BadHeader)?;
            let mut lengths = [0u8; 256];
            for (i, &b) in table.iter().enumerate() {
                lengths[i * 2] = b >> 4;
                lengths[i * 2 + 1] = b & 0x0F;
            }
            pos += 128;
            let lz_len = read_declared_len(data, &mut pos)?;
            let bitstream = &data[pos..];
            // Every symbol takes at least one bit: a longer LZ stream than
            // the bitstream has bits cannot decode, so is never reserved.
            if lz_len > bitstream.len() * 8 {
                return Err(CompressError::BadBits);
            }
            let code = Code::from_lengths(lengths);
            let decoder = code.decoder();
            let mut reader = BitReader::new(bitstream);
            let mut lz_stream = Vec::with_capacity(lz_len);
            for _ in 0..lz_len {
                lz_stream.push(
                    decoder
                        .read_symbol(&mut reader)
                        .ok_or(CompressError::BadBits)?,
                );
            }
            decode_tokens(&lz_stream, dict, orig_len)
        }
        m => Err(CompressError::BadMode(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix;
    use proptest::prelude::*;

    fn roundtrip(alg: Algorithm, input: &[u8]) -> usize {
        let compressed = compress(alg, input);
        let back = decompress(&compressed, alg.dictionary()).expect("decompress");
        assert_eq!(back, input, "{alg} roundtrip");
        compressed.len()
    }

    #[test]
    fn roundtrip_empty() {
        for alg in Algorithm::ALL {
            roundtrip(alg, &[]);
        }
    }

    #[test]
    fn roundtrip_short_inputs() {
        for alg in Algorithm::ALL {
            roundtrip(alg, b"x");
            roundtrip(alg, b"abcd");
            roundtrip(alg, b"hello world");
        }
    }

    #[test]
    fn roundtrip_repetitive_compresses_hard() {
        let input: Vec<u8> = b"SEQUENCE OF CERTIFICATE ".repeat(200);
        for alg in Algorithm::ALL {
            let n = roundtrip(alg, &input);
            assert!(n < input.len() / 5, "{alg}: {n} of {}", input.len());
        }
    }

    #[test]
    fn incompressible_input_falls_back_to_stored() {
        // Pseudo-random bytes: mode 0 keeps overhead to the 4+varint header.
        let input: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let compressed = compress(Algorithm::Zlib, &input);
        assert!(compressed.len() <= input.len() + 8);
        let back = decompress(&compressed, &[]).unwrap();
        assert_eq!(back, input);
    }

    #[test]
    fn header_records_algorithm() {
        let c = compress(Algorithm::Brotli, b"test input for header");
        assert_eq!(&c[..2], b"QC");
        assert_eq!(
            Algorithm::from_code_point(c[2] as u16),
            Some(Algorithm::Brotli)
        );
    }

    #[test]
    fn truncated_container_errors() {
        let c = compress(
            Algorithm::Zlib,
            &b"some reasonably long input data ".repeat(20),
        );
        for cut in [0, 1, 3, 4, c.len() / 2] {
            let r = decompress(&c[..cut], &[]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_magic_errors() {
        let mut c = compress(Algorithm::Zlib, b"data data data data data data");
        c[0] = b'X';
        assert_eq!(decompress(&c, &[]).unwrap_err(), CompressError::BadHeader);
    }

    #[test]
    fn bad_mode_errors() {
        let mut c = compress(Algorithm::Zlib, b"data");
        c[3] = 9;
        assert!(matches!(
            decompress(&c, &[]),
            Err(CompressError::BadMode(9))
        ));
    }

    #[test]
    fn wrong_dictionary_fails_or_differs() {
        let input = Algorithm::Brotli.dictionary()[..500].to_vec();
        let c = compress(Algorithm::Brotli, &input);
        // Decoding with an empty dictionary must not silently return the
        // original bytes (match distances reach into the dictionary).
        if let Ok(out) = decompress(&c, &[]) {
            assert_ne!(out, input)
        }
        // And with the right dictionary it must round-trip.
        assert_eq!(
            decompress(&c, Algorithm::Brotli.dictionary()).unwrap(),
            input
        );
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn der_like_input_reaches_realistic_ratio() {
        // Synthetic "certificate chain": structured prefix patterns with
        // embedded random key material, like real DER.
        let mut input = Vec::new();
        for i in 0..3 {
            input.extend_from_slice(b"\x30\x82\x05\x39\x30\x82\x04\x21\xa0\x03\x02\x01\x02");
            input.extend_from_slice(b"\x06\x09\x2a\x86\x48\x86\xf7\x0d\x01\x01\x0b\x05\x00");
            input.extend_from_slice(b"0\x81\x8fC=US, O=Example Trust Services, CN=Example CA 1");
            input.extend_from_slice(b"http://ocsp.example-trust.test/");
            input.extend_from_slice(b"http://crl.example-trust.test/ca1.crl");
            // 300 bytes of incompressible key/signature material.
            input.extend(
                (0u32..75).map(|j| (j.wrapping_mul(40503).wrapping_add(i * 7919) >> 3) as u8),
            );
        }
        let c = compress(Algorithm::Brotli, &input);
        let ratio = c.len() as f64 / input.len() as f64;
        assert!(
            ratio < 0.85,
            "structured DER-like data must compress, got {ratio}"
        );
        assert_eq!(
            decompress(&c, Algorithm::Brotli.dictionary()).unwrap(),
            input
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The floor is below the cost of the code `compress` would build,
        // on random tables and on the shapes that stress either side: one
        // and two symbols, flat, Fibonacci-skewed (lengths clamped to 15
        // bits) and weights whose merges saturate.
        #[test]
        fn the_floor_never_exceeds_a_built_code(
            shape in 0u8..6,
            draws in proptest::collection::vec(any::<u64>(), 2..300),
            shift in 0u32..64,
        ) {
            let weight = |d: u64| (d >> shift).max(1);
            let mut freqs = [0u64; 256];
            match shape {
                0 => draws.iter().for_each(|&d| freqs[d as usize % 256] = weight(d)),
                1 => freqs = [weight(draws[0]); 256],
                2 => {
                    let (mut a, mut b) = (weight(draws[0]) % 1_000 + 1, weight(draws[1]) % 1_000 + 1);
                    let first = draws[0] as usize % 256;
                    for f in freqs.iter_mut().skip(first).take(draws.len()) {
                        *f = a;
                        (a, b) = (b, a.saturating_add(b));
                    }
                }
                3 => freqs[draws[0] as usize % 256] = weight(draws[0]),
                4 => {
                    let first = draws[0] as usize % 256;
                    freqs[first] = weight(draws[0]);
                    freqs[(first + 1 + draws[1] as usize % 255) % 256] = weight(draws[1]);
                }
                _ => draws.iter().for_each(|&d| freqs[d as usize % 256] = u64::MAX >> (d % 4)),
            }
            let code = Code::from_frequencies(&freqs);
            let cost: u128 = freqs
                .iter()
                .zip(&code.lengths)
                .map(|(&f, &len)| u128::from(f) * u128::from(len))
                .sum();
            // `cost_bits` is exact wherever its u64 sum does not overflow.
            if let Ok(cost) = u64::try_from(cost) {
                prop_assert_eq!(code.cost_bits(&freqs), cost);
            }
            let floor = cost_floor_bits(&freqs);
            prop_assert!(floor <= cost as f64, "floor {floor} > cost {cost}: {freqs:?}");
        }
    }

    /// The mode `compress` chose before the floor: the code always built,
    /// Huffman taken when strictly smaller than both the LZ stream and the
    /// stored input. Also whether the floor alone rules Huffman out.
    fn mode_building_every_code(alg: Algorithm, input: &[u8]) -> (u8, bool) {
        let lz = lz_stream(alg.dictionary(), input, alg.params());
        let mut freqs = [0u64; 256];
        for &b in &lz {
            freqs[b as usize] += 1;
        }
        let code = Code::from_frequencies(&freqs);
        let header = 128 + varint_len(lz.len() as u64);
        let huff_len = header + code.cost_bits(&freqs).div_ceil(8) as usize;
        let floor_len = header as f64 + cost_floor_bits(&freqs) / 8.0;
        let ruled_out = floor_len >= lz.len().min(input.len()) as f64;
        let mode = if huff_len < lz.len() && huff_len < input.len() {
            MODE_HUFFMAN
        } else if lz.len() < input.len() {
            MODE_LZ
        } else {
            MODE_STORED
        };
        (mode, ruled_out)
    }

    #[test]
    fn mode_equals_building_every_code() {
        let mut inputs = crate::lz77::tests::samples();
        let mut z = 0x4E01_5E00u64;
        for len in [1, 2, 3, 7, 64, 130, 500, 1_000, 4_096, 9_000, 16_384] {
            // Noise over all bytes, and over five (which Huffman codes).
            inputs.push((0..len).map(|_| splitmix(&mut z) as u8).collect());
            inputs.push((0..len).map(|_| (splitmix(&mut z) % 5) as u8).collect());
        }
        let mut modes = [0usize; 3];
        let mut ruled_out = 0;
        for input in &inputs {
            for alg in Algorithm::ALL {
                let (mode, floor_rules_out) = mode_building_every_code(alg, input);
                assert_eq!(
                    compress(alg, input)[3],
                    mode,
                    "{alg} over {} bytes",
                    input.len()
                );
                modes[mode as usize] += 1;
                ruled_out += usize::from(floor_rules_out);
            }
        }
        // Every mode is reached, and the floor skips most codes.
        assert!(modes.iter().all(|&n| n > 0), "modes taken: {modes:?}");
        assert!(ruled_out * 2 > inputs.len() * 3, "{ruled_out} ruled out");
    }
}
