//! DER (Distinguished Encoding Rules) primitives.
//!
//! Only the subset of ASN.1/DER needed by X.509 is implemented: single-byte
//! tags, definite lengths, and the universal types that appear in
//! certificates.
//!
//! This is the only module that knows a DER length. Every structure of
//! the crate has one encoder, an `encode_into(&mut Writer)` that writes
//! its values front to back, and [`encoded`] (or a certificate's build)
//! runs it twice:
//!
//! 1. on a *measuring* [`Writer`], which keeps no byte: it counts what each
//!    call would append, and each [`Writer::nested`] records its value's
//!    content length on the *length tape*, one `u32` per nested value in
//!    pre-order (a parent's slot before its children's);
//! 2. on a writer whose buffer is allocated at the measured total, whose
//!    `nested` takes its header's length off the tape in the same order
//!    and asserts that the content then written is exactly that long.
//!
//! A header precedes its content, so a writer must know a length before
//! the content it counts exists. The tape is how the second run knows it:
//! nothing is back-patched (a placeholder header, then the content shifted
//! when the length's own width differs), no structure carries length
//! arithmetic beside its writer, and no subtree is measured again where it
//! is written, which would cost O(size × depth). Primitives written from
//! several slices ([`Writer::tlv`]) sum their lengths here too. The tape is
//! a per-thread buffer each encoding takes and clears, so a warm encoding
//! allocates only its output.
//!
//! A minimal reader (`DerReader`, [`parse_one`]) parses the same subset
//! back, for tests and the parser corpus.

use std::cell::Cell;

/// ASN.1 universal tag numbers (with constructed bit where conventional).
pub mod tag {
    /// BOOLEAN
    pub(crate) const BOOLEAN: u8 = 0x01;
    /// INTEGER
    pub(crate) const INTEGER: u8 = 0x02;
    /// BIT STRING
    pub(crate) const BIT_STRING: u8 = 0x03;
    /// OCTET STRING
    pub const OCTET_STRING: u8 = 0x04;
    /// NULL
    pub(crate) const NULL: u8 = 0x05;
    /// OBJECT IDENTIFIER
    pub(crate) const OID: u8 = 0x06;
    /// UTF8String
    pub(crate) const UTF8_STRING: u8 = 0x0C;
    /// PrintableString
    pub(crate) const PRINTABLE_STRING: u8 = 0x13;
    /// UTCTime
    pub(crate) const UTC_TIME: u8 = 0x17;
    /// SEQUENCE (constructed)
    pub const SEQUENCE: u8 = 0x30;
    /// SET (constructed)
    pub const SET: u8 = 0x31;
}

/// An append-only DER encoder, measuring or writing (module docs).
#[derive(Debug)]
pub struct Writer {
    /// The encoding, allocated at its measured size; empty while measuring.
    buf: Vec<u8>,
    /// Bytes written (or counted) so far; a field's size or offset is a
    /// reading of it, equal in both runs.
    pos: usize,
    /// Whether this writer only counts.
    measuring: bool,
    /// Each nested value's content length, in pre-order.
    tape: Vec<u32>,
    /// The tape slot the next writing `nested` takes.
    next: usize,
    /// The filler's first byte while measuring, when there is no filler.
    stand_in: u8,
}

impl Writer {
    /// A measuring writer over `tape`, which it clears. Measuring a value
    /// with no nested value in it (an INTEGER) leaves the tape untouched,
    /// so an empty `Vec` makes it allocation-free.
    pub(crate) fn measuring(mut tape: Vec<u32>) -> Writer {
        tape.clear();
        Writer {
            buf: Vec::new(),
            pos: 0,
            measuring: true,
            tape,
            next: 0,
            stand_in: 0,
        }
    }

    /// Bytes written (or counted) so far.
    pub(crate) fn len(&self) -> usize {
        self.pos
    }

    /// Append pre-encoded bytes verbatim.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        if !self.measuring {
            put(&mut self.buf[self.pos..end], bytes);
        }
        self.pos = end;
    }

    /// Append a tag and the definite length of `len` content octets.
    #[inline]
    fn header(&mut self, tag: u8, len: usize) {
        let octets = if len < 0x80 { 0 } else { length_octets(len) };
        if self.measuring {
            self.pos += 2 + octets;
            return;
        }
        let mut header = [tag, len as u8, 0, 0, 0, 0, 0, 0, 0, 0];
        if octets > 0 {
            header[1] = 0x80 | octets as u8;
            header[2..2 + octets].copy_from_slice(&len.to_be_bytes()[LENGTH_WIDTH - octets..]);
        }
        self.raw(&header[..2 + octets]);
    }

    /// Append `tag`, the definite length of what `content` writes, then
    /// that content. Used for every value that wraps other encodings or
    /// filler, including primitive-tagged ones (extnValue OCTET STRINGs,
    /// BIT STRINGs around a key structure). Measuring, the length goes on
    /// the tape; writing, it comes off the tape, and content of another
    /// length — a structure that does not write what it measured — panics
    /// rather than emit malformed DER.
    pub fn nested<R>(&mut self, tag: u8, content: impl FnOnce(&mut Writer) -> R) -> R {
        if self.measuring {
            let slot = self.tape.len();
            self.tape.push(0);
            let start = self.pos;
            let result = content(self);
            let len = self.pos - start;
            // A length past `u32` cannot fit its slot; the write run's
            // assertion rejects the truncated one.
            self.tape[slot] = len as u32;
            self.header(tag, len);
            return result;
        }
        let len = self.tape[self.next] as usize;
        self.next += 1;
        self.header(tag, len);
        let start = self.pos;
        let result = content(self);
        assert_eq!(
            self.pos - start,
            len,
            "tag {tag:#04x}: content written differs from its measured length"
        );
        result
    }

    /// Append `n` deterministic filler bytes derived from `seed` (key,
    /// signature, key-identifier and SCT material) and return the first,
    /// for the caller to fix structural bits in. Measuring, nothing is
    /// generated and the first byte is a stand-in.
    #[inline]
    pub fn fill(&mut self, seed: u64, n: usize) -> &mut u8 {
        let start = self.pos;
        self.pos += n;
        if self.measuring {
            return &mut self.stand_in;
        }
        let filler = &mut self.buf[start..start + n];
        crate::fill_deterministic(seed, filler);
        filler.first_mut().unwrap_or(&mut self.stand_in)
    }

    /// A tag-length-value triplet whose content is `parts`, concatenated.
    #[inline]
    pub fn tlv(&mut self, tag: u8, parts: &[&[u8]]) {
        self.header(tag, parts.iter().map(|part| part.len()).sum());
        for part in parts {
            self.raw(part);
        }
    }

    /// INTEGER from a big-endian magnitude. A leading zero byte is inserted
    /// when the high bit is set (DER integers are signed); leading
    /// redundant zeros are stripped.
    #[inline]
    pub fn integer_bytes(&mut self, magnitude: &[u8]) {
        let m = minimal_magnitude(magnitude);
        let sign: &[u8] = match m.first() {
            Some(high) if high & 0x80 == 0 => &[],
            _ => &[0],
        };
        self.tlv(tag::INTEGER, &[sign, m]);
    }

    /// INTEGER from a u64.
    pub(crate) fn integer_u64(&mut self, v: u64) {
        self.integer_bytes(&v.to_be_bytes());
    }

    /// BIT STRING with the given number of unused trailing bits.
    pub(crate) fn bit_string(&mut self, bits: &[u8], unused: u8) {
        self.tlv(tag::BIT_STRING, &[&[unused], bits]);
    }

    /// BOOLEAN (DER: 0xFF for true).
    pub(crate) fn boolean(&mut self, v: bool) {
        self.raw(&[tag::BOOLEAN, 1, if v { 0xFF } else { 0x00 }]);
    }
}

/// Copy `src` into `dst`, of its length. The short slices an encoder
/// writes (tags, OIDs, names) move in fixed-width words the compiler
/// inlines, which a call to `memcpy` per slice costs more than.
#[inline]
fn put(dst: &mut [u8], src: &[u8]) {
    let n = src.len();
    if (8..=16).contains(&n) {
        dst[..8].copy_from_slice(&src[..8]);
        dst[n - 8..].copy_from_slice(&src[n - 8..]);
    } else if (4..8).contains(&n) {
        dst[..4].copy_from_slice(&src[..4]);
        dst[n - 4..].copy_from_slice(&src[n - 4..]);
    } else if (1..4).contains(&n) {
        dst[0] = src[0];
        dst[n / 2] = src[n / 2];
        dst[n - 1] = src[n - 1];
    } else {
        dst.copy_from_slice(src);
    }
}

/// The encoding of NULL.
pub(crate) const NULL: [u8; 2] = [tag::NULL, 0];

/// The tag byte of context-specific `[n]`, constructed or primitive.
pub(crate) const fn context_tag(n: u8, constructed: bool) -> u8 {
    0x80 | n | if constructed { 0x20 } else { 0x00 }
}

/// Octets of a `usize` length, big-endian.
const LENGTH_WIDTH: usize = std::mem::size_of::<usize>();

/// Octets of the long-form length field (after the `0x80 | n` octet) that
/// a content length of 128 or more needs: `len` big-endian, leading zero
/// octets dropped.
fn length_octets(len: usize) -> usize {
    debug_assert!(len >= 0x80);
    LENGTH_WIDTH - len.leading_zeros() as usize / 8
}

/// `magnitude` without the leading zero octets DER drops from an INTEGER.
fn minimal_magnitude(magnitude: &[u8]) -> &[u8] {
    let mut m = magnitude;
    while m.len() > 1 && m[0] == 0 && m[1] & 0x80 == 0 {
        m = &m[1..];
    }
    m
}

thread_local! {
    /// The length tape of this thread's encodings, kept between them.
    static TAPE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// [`encoded`], and what the writing run of `write` returned.
pub(crate) fn encoded_with<R>(mut write: impl FnMut(&mut Writer) -> R) -> (Vec<u8>, R) {
    let mut w = Writer::measuring(TAPE.take());
    write(&mut w);
    w.buf = vec![0; w.pos];
    (w.pos, w.measuring) = (0, false);
    let result = write(&mut w);
    assert_eq!(
        (w.pos, w.next),
        (w.buf.len(), w.tape.len()),
        "the write run differs from its measure"
    );
    TAPE.set(w.tape);
    (w.buf, result)
}

/// The bytes `write` appends, in a buffer of their own: `write` runs
/// twice, measuring and then writing into a buffer of exactly the measured
/// size (module docs).
pub fn encoded(write: impl FnMut(&mut Writer)) -> Vec<u8> {
    encoded_with(write).0
}

/// A parsed DER value (tag + raw content), with lazy child access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerValue {
    /// The tag byte.
    pub tag: u8,
    /// The content octets (without tag/length).
    pub content: Vec<u8>,
}

impl DerValue {
    /// Parse the content as a list of child TLVs.
    pub fn children(&self) -> Result<Vec<DerValue>, DerError> {
        let mut reader = DerReader::new(&self.content);
        let mut out = Vec::new();
        while !reader.is_empty() {
            out.push(reader.read_value()?);
        }
        Ok(out)
    }
}

/// Errors produced by `DerReader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerError {
    /// Input ended in the middle of a TLV.
    Truncated,
    /// An indefinite or reserved length encoding was encountered.
    BadLength,
}

impl std::fmt::Display for DerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerError::Truncated => write!(f, "truncated DER input"),
            DerError::BadLength => write!(f, "unsupported DER length encoding"),
        }
    }
}

impl std::error::Error for DerError {}

/// A simple sequential DER reader over a byte slice.
#[derive(Debug)]
pub(crate) struct DerReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> DerReader<'a> {
    /// Create a reader over `input`.
    pub(crate) fn new(input: &'a [u8]) -> Self {
        DerReader { input, pos: 0 }
    }

    /// Whether all input has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Bytes remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    fn read_byte(&mut self) -> Result<u8, DerError> {
        let b = *self.input.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn read_length(&mut self) -> Result<usize, DerError> {
        let first = self.read_byte()?;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7F) as usize;
        if n == 0 || n > 4 {
            return Err(DerError::BadLength);
        }
        let mut len = 0usize;
        for _ in 0..n {
            len = (len << 8) | self.read_byte()? as usize;
        }
        // DER demands the minimal length form: a long form may not encode a
        // value the short form (or a shorter long form) could carry.
        let minimal = if n == 1 {
            0x80
        } else {
            1usize << (8 * (n - 1))
        };
        if len < minimal {
            return Err(DerError::BadLength);
        }
        Ok(len)
    }

    /// Read the next TLV as a [`DerValue`].
    pub(crate) fn read_value(&mut self) -> Result<DerValue, DerError> {
        let tag = self.read_byte()?;
        let len = self.read_length()?;
        if self.remaining() < len {
            return Err(DerError::Truncated);
        }
        let content = self.input[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(DerValue { tag, content })
    }
}

/// Parse a byte slice as exactly one DER value.
pub fn parse_one(input: &[u8]) -> Result<DerValue, DerError> {
    let mut r = DerReader::new(input);
    let v = r.read_value()?;
    if !r.is_empty() {
        return Err(DerError::Truncated);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlv(tag: u8, content: &[u8]) -> Vec<u8> {
        encoded(|w| w.tlv(tag, &[content]))
    }

    fn integer(magnitude: &[u8]) -> Vec<u8> {
        encoded(|w| w.integer_bytes(magnitude))
    }

    #[test]
    fn length_encodings() {
        let header = |len| encoded(|w| w.header(tag::OCTET_STRING, len))[1..].to_vec();
        assert_eq!(header(0), vec![0x00]);
        assert_eq!(header(127), vec![0x7F]);
        assert_eq!(header(128), vec![0x81, 0x80]);
        assert_eq!(header(255), vec![0x81, 0xFF]);
        assert_eq!(header(256), vec![0x82, 0x01, 0x00]);
        assert_eq!(header(65535), vec![0x82, 0xFF, 0xFF]);
        assert_eq!(header(65536), vec![0x83, 0x01, 0x00, 0x00]);
        assert_eq!(header(1 << 24), vec![0x84, 0x01, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn integer_adds_sign_padding() {
        // 0x80 has the high bit set -> leading zero required.
        assert_eq!(integer(&[0x80]), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(integer(&[0x7F]), vec![0x02, 0x01, 0x7F]);
        // Redundant leading zeros stripped.
        assert_eq!(integer(&[0x00, 0x00, 0x01]), vec![0x02, 0x01, 0x01]);
        // But a zero needed for sign is kept.
        assert_eq!(integer(&[0x00, 0x80]), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(integer(&[]), vec![0x02, 0x01, 0x00]);
        // A measuring writer with no tape counts the same bytes.
        for magnitude in [&[][..], &[0x80], &[0, 0, 1], &[0, 0, 0, 0x80, 1]] {
            let mut w = Writer::measuring(Vec::new());
            w.integer_bytes(magnitude);
            assert_eq!(w.len(), integer(magnitude).len(), "{magnitude:?}");
            assert_eq!(w.tape.capacity(), 0);
        }
    }

    #[test]
    fn integer_u64_matches_known_values() {
        assert_eq!(encoded(|w| w.integer_u64(0)), vec![0x02, 0x01, 0x00]);
        assert_eq!(
            encoded(|w| w.integer_u64(65537)),
            vec![0x02, 0x03, 0x01, 0x00, 0x01]
        );
    }

    #[test]
    fn sequence_nests() {
        let outer = encoded(|w| {
            w.nested(tag::SEQUENCE, |w| {
                w.nested(tag::SEQUENCE, |w| {
                    w.integer_u64(1);
                    w.integer_u64(2);
                })
            })
        });
        assert_eq!(outer[..4], [0x30, 8, 0x30, 6]);
        let parsed = parse_one(&outer).unwrap();
        assert_eq!(parsed.tag, tag::SEQUENCE);
        let children = parsed.children().unwrap();
        assert_eq!(children.len(), 1);
        let grandchildren = children[0].children().unwrap();
        assert_eq!(grandchildren.len(), 2);
        assert_eq!(grandchildren[0].content, vec![1]);
        assert_eq!(grandchildren[1].content, vec![2]);
    }

    #[test]
    fn nested_returns_the_closure_result() {
        let (der, inner) = encoded_with(|w| {
            w.nested(tag::SEQUENCE, |w| {
                let at = w.len();
                w.tlv(tag::OCTET_STRING, &[&[7; 300]]);
                w.len() - at
            })
        });
        assert_eq!(inner, 304);
        assert_eq!(der.len(), 4 + inner);
        assert_eq!(
            parse_one(&der).unwrap().children().unwrap()[0].content,
            [7; 300]
        );
    }

    #[test]
    #[should_panic(expected = "tag 0x04: content written differs from its measured length")]
    fn nested_rejects_a_write_run_that_differs_from_its_measure() {
        // The writing run (the second) writes one byte more into the
        // inner value than the measuring run did.
        let mut runs = 0;
        encoded(|w| {
            runs += 1;
            let content: &[u8] = if runs == 2 { b"four" } else { b"thr" };
            w.nested(tag::SEQUENCE, |w| {
                w.nested(tag::OCTET_STRING, |w| w.raw(content));
                w.integer_u64(5);
            });
        });
    }

    #[test]
    fn fill_is_the_crate_filler_and_patchable_in_place() {
        let mut expect = [0u8; 21];
        crate::fill_deterministic(9, &mut expect);
        expect[0] = 0x04;
        let got = encoded(|w| *w.fill(9, 21) = 0x04);
        assert_eq!(got, expect);
    }

    #[test]
    fn bit_string_prefixes_unused_count() {
        let bs = encoded(|w| w.bit_string(&[0xAA, 0xBB], 0));
        assert_eq!(bs, vec![0x03, 0x03, 0x00, 0xAA, 0xBB]);
    }

    #[test]
    fn context_tags() {
        // [0] constructed wrapping an INTEGER (X.509 version field).
        let v = encoded(|w| w.nested(context_tag(0, true), |w| w.integer_u64(2)));
        assert_eq!(v, [0xA0, 3, 0x02, 1, 2]);
        assert_ne!(parse_one(&v).unwrap().tag & 0x20, 0, "constructed");
        // [2] primitive (GeneralName dNSName).
        assert_eq!(context_tag(2, false), 0x82);
    }

    #[test]
    fn reader_rejects_truncation() {
        let seq = encoded(|w| w.nested(tag::SEQUENCE, |w| w.integer_u64(5)));
        let err = parse_one(&seq[..seq.len() - 1]).unwrap_err();
        assert_eq!(err, DerError::Truncated);
    }

    #[test]
    fn reader_rejects_overlong_length_forms() {
        // 5 encoded in the one-byte long form: short form required.
        assert_eq!(
            parse_one(&[0x04, 0x81, 0x05, 1, 2, 3, 4, 5]).unwrap_err(),
            DerError::BadLength
        );
        // 5 encoded in the two-byte long form with a leading zero octet.
        assert_eq!(
            parse_one(&[0x04, 0x82, 0x00, 0x05, 1, 2, 3, 4, 5]).unwrap_err(),
            DerError::BadLength
        );
        // The minimal encodings still parse.
        assert!(parse_one(&tlv(tag::OCTET_STRING, &[0u8; 5])).is_ok());
        assert!(parse_one(&tlv(tag::OCTET_STRING, &[0u8; 200])).is_ok());
        assert!(parse_one(&tlv(tag::OCTET_STRING, &[0u8; 300])).is_ok());
    }

    #[test]
    fn reader_rejects_trailing_garbage() {
        let mut seq = encoded(|w| w.nested(tag::SEQUENCE, |w| w.integer_u64(5)));
        seq.push(0x00);
        assert_eq!(parse_one(&seq).unwrap_err(), DerError::Truncated);
    }

    #[test]
    fn long_content_roundtrips() {
        let payload = vec![0x42u8; 70_000];
        let enc = tlv(tag::OCTET_STRING, &payload);
        let parsed = parse_one(&enc).unwrap();
        assert_eq!(parsed.tag, tag::OCTET_STRING);
        assert_eq!(parsed.content, payload);
    }

    #[test]
    fn boolean_and_null() {
        assert_eq!(encoded(|w| w.boolean(true)), vec![0x01, 0x01, 0xFF]);
        assert_eq!(encoded(|w| w.boolean(false)), vec![0x01, 0x01, 0x00]);
        assert_eq!(encoded(|w| w.raw(&NULL)), vec![0x05, 0x00]);
    }

    #[test]
    fn strings_use_expected_tags() {
        // The universal tag numbers of X.680, as the name and time encoders
        // pass them to `tlv`.
        assert_eq!(tlv(tag::PRINTABLE_STRING, b"US"), [0x13, 2, b'U', b'S']);
        assert_eq!(tlv(tag::UTF8_STRING, b"Let's Encrypt")[0], 0x0C);
        assert_eq!(tlv(tag::UTC_TIME, b"221229194411Z")[0], 0x17);
        // Parts are written in order under one header.
        assert_eq!(
            encoded(|w| w.tlv(0x82, &[b"www.", b"a.io"])),
            [0x82, 8, b'w', b'w', b'w', b'.', b'a', b'.', b'i', b'o']
        );
    }
}
