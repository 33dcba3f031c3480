//! DER (Distinguished Encoding Rules) primitives.
//!
//! Only the subset of ASN.1/DER needed by X.509 is implemented: single-byte
//! tags, definite lengths, and the universal types that appear in
//! certificates.
//!
//! Encoding is one pass, front to back, into one buffer. Every structure
//! of the crate knows its encoded length before it writes a byte (an
//! `encoded_len` that is arithmetic on its parts, never a trial encoding),
//! so a nested value is written by [`Writer::nested`]: the tag, the
//! definite length the caller computed, then the content. No length is
//! back-patched and no content is shifted, so a caller that sums the
//! lengths first can allocate the exact buffer up front, which is how a
//! certificate is one allocation. `nested` checks that the content wrote
//! exactly the length announced for it, at every level.
//! The `Vec`-returning `encode()` methods elsewhere in the crate are
//! one-line wrappers over `encode_into`.
//!
//! A minimal reader (`DerReader`, [`parse_one`]) parses the same subset
//! back, for tests and the parser corpus.

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

/// An append-only DER encoder over one byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer whose buffer already holds room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far; a field's size or offset is a reading of it.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Append pre-encoded bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a tag and the definite length of `len` content octets the
    /// caller writes next.
    pub fn header(&mut self, tag: u8, len: usize) {
        self.buf.push(tag);
        if len < 0x80 {
            self.buf.push(len as u8);
        } else {
            let octets = length_octets(len);
            self.buf.push(0x80 | octets as u8);
            self.buf
                .extend_from_slice(&len.to_be_bytes()[LENGTH_WIDTH - octets..]);
        }
    }

    /// Append `tag` and the definite length `len`, then whatever `content`
    /// writes, which must be exactly `len` bytes: a mismatch is a bug in a
    /// length computation, and panics rather than emit malformed DER. Used for every nested value, including primitive-tagged
    /// wrappers of encoded content (extnValue OCTET STRINGs, BIT STRINGs
    /// around a key structure).
    pub fn nested<R>(&mut self, tag: u8, len: usize, content: impl FnOnce(&mut Writer) -> R) -> R {
        self.header(tag, len);
        let start = self.buf.len();
        let result = content(self);
        assert_eq!(
            self.buf.len() - start,
            len,
            "tag {tag:#04x}: content written differs from the length announced"
        );
        result
    }

    /// Append `n` deterministic filler bytes derived from `seed` (key,
    /// signature, key-identifier and SCT material) and return them, so the
    /// caller can fix up structural bits in place.
    pub fn fill(&mut self, seed: u64, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        let filler = &mut self.buf[start..];
        crate::fill_deterministic(seed, filler);
        filler
    }

    /// A tag-length-value triplet around `content`.
    pub fn tlv(&mut self, tag: u8, content: &[u8]) {
        self.header(tag, content.len());
        self.raw(content);
    }

    /// INTEGER from a big-endian magnitude. A leading zero byte is inserted
    /// when the high bit is set (DER integers are signed); leading
    /// redundant zeros are stripped.
    pub fn integer_bytes(&mut self, magnitude: &[u8]) {
        let m = minimal_magnitude(magnitude);
        match m.first() {
            None => self.tlv(tag::INTEGER, &[0]),
            Some(high) if high & 0x80 != 0 => {
                self.header(tag::INTEGER, m.len() + 1);
                self.buf.push(0);
                self.raw(m);
            }
            Some(_) => self.tlv(tag::INTEGER, m),
        }
    }

    /// INTEGER from a u64.
    pub(crate) fn integer_u64(&mut self, v: u64) {
        self.integer_bytes(&v.to_be_bytes());
    }

    /// BIT STRING with the given number of unused trailing bits.
    pub(crate) fn bit_string(&mut self, bits: &[u8], unused: u8) {
        self.header(tag::BIT_STRING, bits.len() + 1);
        self.buf.push(unused);
        self.raw(bits);
    }

    /// BOOLEAN (DER: 0xFF for true).
    pub(crate) fn boolean(&mut self, v: bool) {
        self.raw(&[tag::BOOLEAN, 1, if v { 0xFF } else { 0x00 }]);
    }

    /// NULL.
    pub fn null(&mut self) {
        self.raw(&NULL);
    }
}

/// The encoding of NULL.
pub(crate) const NULL: [u8; 2] = [tag::NULL, 0];

/// Encoded length of a BOOLEAN.
pub(crate) const BOOLEAN_LEN: usize = 3;

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

/// Encoded length of a TLV with `content` octets of content: the tag, the
/// definite length field and the content.
pub fn tlv_len(content: usize) -> usize {
    if content < 0x80 {
        2 + content
    } else {
        2 + length_octets(content) + content
    }
}

/// `magnitude` without the leading zero octets DER drops from an INTEGER.
fn minimal_magnitude(magnitude: &[u8]) -> &[u8] {
    let mut m = magnitude;
    while m.len() > 1 && m[0] == 0 && m[1] & 0x80 == 0 {
        m = &m[1..];
    }
    m
}

/// Encoded length of the INTEGER [`Writer::integer_bytes`] writes for
/// `magnitude`.
pub(crate) fn integer_len(magnitude: &[u8]) -> usize {
    let m = minimal_magnitude(magnitude);
    let content = match m.first() {
        None => 1,
        Some(high) => m.len() + usize::from(high & 0x80 != 0),
    };
    tlv_len(content)
}

/// The bytes `write` appends to a fresh [`Writer`] — the body of every
/// `Vec`-returning `encode()` in the crate.
pub fn encoded(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    write(&mut w);
    w.into_vec()
}

/// Wrap `content` in a tag-length-value triplet.
pub fn tlv(tag: u8, content: &[u8]) -> Vec<u8> {
    encoded(|w| w.tlv(tag, content))
}

/// INTEGER from a big-endian magnitude ([`Writer::integer_bytes`]).
pub fn integer_bytes(magnitude: &[u8]) -> Vec<u8> {
    encoded(|w| w.integer_bytes(magnitude))
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
    /// Whether the constructed bit is set.
    pub fn is_constructed(&self) -> bool {
        self.tag & 0x20 != 0
    }

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
        assert_eq!(integer_bytes(&[0x80]), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(integer_bytes(&[0x7F]), vec![0x02, 0x01, 0x7F]);
        // Redundant leading zeros stripped.
        assert_eq!(integer_bytes(&[0x00, 0x00, 0x01]), vec![0x02, 0x01, 0x01]);
        // But a zero needed for sign is kept.
        assert_eq!(integer_bytes(&[0x00, 0x80]), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(integer_bytes(&[]), vec![0x02, 0x01, 0x00]);
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
            w.nested(tag::SEQUENCE, 8, |w| {
                w.nested(tag::SEQUENCE, 6, |w| {
                    w.integer_u64(1);
                    w.integer_u64(2);
                })
            })
        });
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
    fn tlv_len_and_integer_len_are_what_the_writer_writes() {
        for len in [0, 1, 127, 128, 255, 256, 65_535, 65_536, 1 << 24] {
            let written = encoded(|w| w.header(tag::OCTET_STRING, len)).len() + len;
            assert_eq!(tlv_len(len), written, "{len}");
        }
        for magnitude in [
            &[][..],
            &[0],
            &[0x7F],
            &[0x80],
            &[0, 0, 1],
            &[0, 0x80],
            &[0, 0, 0, 0x80, 1],
        ] {
            assert_eq!(
                integer_len(magnitude),
                integer_bytes(magnitude).len(),
                "{magnitude:?}"
            );
        }
    }

    #[test]
    fn nested_returns_the_closure_result() {
        let mut w = Writer::new();
        let inner = w.nested(tag::SEQUENCE, 304, |w| {
            let at = w.len();
            w.tlv(tag::OCTET_STRING, &[7; 300]);
            w.len() - at
        });
        assert_eq!(inner, 304);
        let der = w.into_vec();
        assert_eq!(der.len(), tlv_len(inner));
        assert_eq!(
            parse_one(&der).unwrap().children().unwrap()[0].content,
            [7; 300]
        );
    }

    #[test]
    #[should_panic(expected = "content written differs from the length announced")]
    fn nested_rejects_content_that_misses_its_announced_length() {
        encoded(|w| w.nested(tag::SEQUENCE, 4, |w| w.integer_u64(5)));
    }

    #[test]
    fn fill_is_the_crate_filler_and_patchable_in_place() {
        let mut expect = [0u8; 21];
        crate::fill_deterministic(9, &mut expect);
        expect[0] = 0x04;
        let got = encoded(|w| w.fill(9, 21)[0] = 0x04);
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
        let v = encoded(|w| w.nested(context_tag(0, true), 3, |w| w.integer_u64(2)));
        assert_eq!(v[0], 0xA0);
        let parsed = parse_one(&v).unwrap();
        assert!(parsed.is_constructed());
        // [2] primitive (GeneralName dNSName).
        assert_eq!(context_tag(2, false), 0x82);
    }

    #[test]
    fn reader_rejects_truncation() {
        let seq = encoded(|w| w.nested(tag::SEQUENCE, 3, |w| w.integer_u64(5)));
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
        let mut seq = encoded(|w| w.nested(tag::SEQUENCE, 3, |w| w.integer_u64(5)));
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
        assert_eq!(encoded(|w| w.null()), vec![0x05, 0x00]);
    }

    #[test]
    fn strings_use_expected_tags() {
        // The universal tag numbers of X.680, as the name and time encoders
        // pass them to `tlv`.
        assert_eq!(tlv(tag::PRINTABLE_STRING, b"US"), [0x13, 2, b'U', b'S']);
        assert_eq!(tlv(tag::UTF8_STRING, b"Let's Encrypt")[0], 0x0C);
        assert_eq!(tlv(tag::UTC_TIME, b"221229194411Z")[0], 0x17);
    }
}
