//! QUIC variable-length integers (RFC 9000 §16).
//!
//! The two most significant bits of the first byte encode the total length
//! (1, 2, 4 or 8 bytes); the remaining bits carry the value big-endian.

/// Maximum value representable (2^62 - 1).
pub const MAX: u64 = (1 << 62) - 1;

/// Encoded size of `v` in bytes.
///
/// A value above [`MAX`] is a caller bug — every length, offset and packet
/// number this crate encodes is far below it — so debug builds assert;
/// release builds stay total and encode its low 62 bits in the 8-byte form.
pub fn len(v: u64) -> usize {
    debug_assert!(v <= MAX, "varint out of range: {v}");
    match v {
        0..=0x3F => 1,
        0x40..=0x3FFF => 2,
        0x4000..=0x3FFF_FFFF => 4,
        _ => 8,
    }
}

/// Append the encoding of `v` to `out`.
pub fn write(out: &mut Vec<u8>, v: u64) {
    match len(v) {
        1 => out.push(v as u8),
        2 => out.extend_from_slice(&((v as u16) | 0x4000).to_be_bytes()),
        4 => out.extend_from_slice(&((v as u32) | 0x8000_0000).to_be_bytes()),
        _ => out.extend_from_slice(&(v | 0xC000_0000_0000_0000).to_be_bytes()),
    }
}

/// Decode a varint at `input[*pos..]`, advancing `pos`.
pub fn read(input: &[u8], pos: &mut usize) -> Option<u64> {
    let first = *input.get(*pos)?;
    let n = 1usize << (first >> 6);
    if input.len() < *pos + n {
        return None;
    }
    let mut v = (first & 0x3F) as u64;
    for i in 1..n {
        v = (v << 8) | input[*pos + i] as u64;
    }
    *pos += n;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_9000_appendix_a_examples() {
        // The four worked examples from RFC 9000 §A.1.
        let cases: [(u64, &[u8]); 4] = [
            (
                151_288_809_941_952_652,
                &[0xC2, 0x19, 0x7C, 0x5E, 0xFF, 0x14, 0xE8, 0x8C],
            ),
            (494_878_333, &[0x9D, 0x7F, 0x3E, 0x7D]),
            (15_293, &[0x7B, 0xBD]),
            (37, &[0x25]),
        ];
        for (value, bytes) in cases {
            let mut out = Vec::new();
            write(&mut out, value);
            assert_eq!(out, bytes, "encoding of {value}");
            let mut pos = 0;
            assert_eq!(read(bytes, &mut pos), Some(value));
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn boundaries_roundtrip() {
        for v in [0, 63, 64, 16_383, 16_384, 0x3FFF_FFFF, 0x4000_0000, MAX] {
            let mut out = Vec::new();
            write(&mut out, v);
            assert_eq!(out.len(), len(v));
            let mut pos = 0;
            assert_eq!(read(&out, &mut pos), Some(v), "value {v}");
        }
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut out = Vec::new();
        write(&mut out, 494_878_333);
        let mut pos = 0;
        assert_eq!(read(&out[..2], &mut pos), None);
        assert_eq!(read(&[], &mut pos), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "varint out of range")]
    fn oversized_value_panics() {
        len(MAX + 1);
    }
}
