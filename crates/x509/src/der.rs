//! DER (Distinguished Encoding Rules) primitives.
//!
//! Only the subset of ASN.1/DER needed by X.509 is implemented: single-byte
//! tags, definite lengths, and the universal types that appear in
//! certificates.
//!
//! Encoding is append-only into one buffer: a [`Writer`] owns a single
//! `Vec<u8>` and every structure of the crate has an `encode_into(&mut
//! Writer)` that appends its TLV in document order (parents open, children
//! write, parents close). A nested value is written by
//! [`Writer::constructed`], which emits the tag, runs a closure for the
//! content and then back-patches the definite length — so a whole
//! certificate is one allocation, and the byte length of any field is the
//! difference of two [`Writer::len`] readings taken around it, which is how
//! `Certificate::assemble` attributes sizes to fields while it encodes.
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

    /// Bytes written so far. Field sizes are differences of two readings;
    /// a difference taken inside a [`Writer::constructed`] closure stays
    /// valid after the enclosing lengths are patched in.
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
    /// caller writes next (with [`Writer::raw`] / [`Writer::fill`]).
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

    /// Append `tag`, then whatever `content` writes, then patch the
    /// definite length in. One length octet is reserved up front; content
    /// of 128 bytes or more is shifted right to make room for the long
    /// form. Used for every nested value, including primitive-tagged
    /// wrappers of encoded content (extnValue OCTET STRINGs, BIT STRINGs
    /// around a key structure).
    pub fn constructed<R>(&mut self, tag: u8, content: impl FnOnce(&mut Writer) -> R) -> R {
        self.buf.push(tag);
        let length_at = self.buf.len();
        self.buf.push(0);
        let result = content(self);
        let start = length_at + 1;
        let len = self.buf.len() - start;
        if len < 0x80 {
            self.buf[length_at] = len as u8;
        } else {
            let octets = length_octets(len);
            self.buf.extend_from_slice(&[0; LENGTH_WIDTH][..octets]);
            self.buf.copy_within(start..start + len, start + octets);
            self.buf[length_at] = 0x80 | octets as u8;
            self.buf[start..start + octets]
                .copy_from_slice(&len.to_be_bytes()[LENGTH_WIDTH - octets..]);
        }
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
        let mut m: &[u8] = magnitude;
        while m.len() > 1 && m[0] == 0 && m[1] & 0x80 == 0 {
            m = &m[1..];
        }
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
        let bytes = v.to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
        self.integer_bytes(&bytes[first..]);
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
        self.raw(&[tag::NULL, 0]);
    }

    /// OBJECT IDENTIFIER from its integer arcs.
    pub fn oid(&mut self, arcs: &[u64]) {
        assert!(arcs.len() >= 2, "OID needs at least two arcs");
        self.constructed(tag::OID, |w| {
            w.buf.push((arcs[0] * 40 + arcs[1]) as u8);
            for &arc in &arcs[2..] {
                // Base 128, most significant group first, continuation
                // bit on all but the last.
                let groups = (64 - arc.leading_zeros()).div_ceil(7).max(1);
                for group in (1..groups).rev() {
                    w.buf.push(0x80 | ((arc >> (7 * group)) as u8 & 0x7F));
                }
                w.buf.push(arc as u8 & 0x7F);
            }
        });
    }
}

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
    fn oid_encoding_matches_rfc_examples() {
        // rsaEncryption = 1.2.840.113549.1.1.1
        assert_eq!(
            encoded(|w| w.oid(&[1, 2, 840, 113549, 1, 1, 1])),
            vec![0x06, 0x09, 0x2A, 0x86, 0x48, 0x86, 0xF7, 0x0D, 0x01, 0x01, 0x01]
        );
        // id-ce-subjectAltName = 2.5.29.17
        assert_eq!(
            encoded(|w| w.oid(&[2, 5, 29, 17])),
            vec![0x06, 0x03, 0x55, 0x1D, 0x11]
        );
        // A zero arc and the widest arc each keep their group count.
        assert_eq!(
            encoded(|w| w.oid(&[1, 3, 0, u64::MAX])),
            vec![
                0x06, 0x0C, 0x2B, 0x00, 0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F
            ]
        );
    }

    #[test]
    fn sequence_nests() {
        let outer = encoded(|w| {
            w.constructed(tag::SEQUENCE, |w| {
                w.constructed(tag::SEQUENCE, |w| {
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
    fn constructed_returns_the_closure_result_and_sizes_survive_patching() {
        let mut w = Writer::new();
        let inner = w.constructed(tag::SEQUENCE, |w| {
            let at = w.len();
            w.tlv(tag::OCTET_STRING, &[7; 300]);
            w.len() - at
        });
        // The child's measured size holds although closing the parent
        // shifted it by two length octets.
        assert_eq!(inner, 304);
        let der = w.into_vec();
        assert_eq!(der.len(), 4 + inner);
        assert_eq!(
            parse_one(&der).unwrap().children().unwrap()[0].content,
            [7; 300]
        );
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
        let v = encoded(|w| w.constructed(context_tag(0, true), |w| w.integer_u64(2)));
        assert_eq!(v[0], 0xA0);
        let parsed = parse_one(&v).unwrap();
        assert!(parsed.is_constructed());
        // [2] primitive (GeneralName dNSName).
        assert_eq!(context_tag(2, false), 0x82);
    }

    #[test]
    fn reader_rejects_truncation() {
        let seq = encoded(|w| w.constructed(tag::SEQUENCE, |w| w.integer_u64(5)));
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
        let mut seq = encoded(|w| w.constructed(tag::SEQUENCE, |w| w.integer_u64(5)));
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
