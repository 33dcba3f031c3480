//! MSB-first bit-level I/O used by the Huffman stage.

/// Writes bits MSB-first into a byte vector.
///
/// Bits collect in a 64-bit accumulator and leave it four bytes at a time,
/// so a write is a shift and an or, not a loop over its bits.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    out: Vec<u8>,
    /// Pending bits in the low `filled` positions, oldest highest; above
    /// them, bits that have already been written out.
    acc: u64,
    /// Pending bit count, below 32 between calls.
    filled: u32,
}

impl BitWriter {
    /// A writer that appends its bits after the bytes already in `out`;
    /// [`BitWriter::finish`] hands the whole buffer back.
    pub(crate) fn appending_to(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            ..BitWriter::default()
        }
    }

    /// Append the lowest `len` bits of `code`, MSB first. `len` ≤ 32.
    #[inline]
    pub(crate) fn write_bits(&mut self, code: u32, len: u8) {
        debug_assert!(len <= 32);
        let bits = u64::from(code) & ((1u64 << len) - 1);
        self.acc = (self.acc << len) | bits;
        self.filled += u32::from(len);
        if self.filled >= 32 {
            self.filled -= 32;
            let word = (self.acc >> self.filled) as u32;
            self.out.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Pad the final partial byte with zeros and return the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        while self.filled >= 8 {
            self.filled -= 8;
            self.out.push((self.acc >> self.filled) as u8);
        }
        if self.filled > 0 {
            self.out.push((self.acc << (8 - self.filled)) as u8);
        }
        self.out
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub(crate) struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    bit: u8,
}

impl<'a> BitReader<'a> {
    /// New reader over `input`.
    pub(crate) fn new(input: &'a [u8]) -> Self {
        BitReader {
            input,
            pos: 0,
            bit: 0,
        }
    }

    /// Read one bit; `None` at end of input.
    pub(crate) fn read_bit(&mut self) -> Option<u8> {
        let byte = *self.input.get(self.pos)?;
        let bit = (byte >> (7 - self.bit)) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.pos += 1;
        }
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read `len` bits MSB-first as an integer, one bit at a time.
    fn read_bits(r: &mut BitReader, len: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..len {
            v = (v << 1) | r.read_bit()? as u32;
        }
        Some(v)
    }

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::default();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0x3FF, 10);
        w.write_bits(0, 3);
        w.write_bits(0xDEADBEEF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_bits(&mut r, 1), Some(1));
        assert_eq!(read_bits(&mut r, 4), Some(0b1010));
        assert_eq!(read_bits(&mut r, 10), Some(0x3FF));
        assert_eq!(read_bits(&mut r, 3), Some(0));
        assert_eq!(read_bits(&mut r, 32), Some(0xDEADBEEF));
    }

    #[test]
    fn reader_signals_exhaustion() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(read_bits(&mut r, 8), Some(0xFF));
        assert_eq!(r.read_bit(), None);
        assert_eq!(read_bits(&mut r, 1), None);
    }

    #[test]
    fn padding_is_zero_bits() {
        let mut w = BitWriter::default();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn every_width_at_every_alignment_matches_a_bit_at_a_time() {
        // 33 widths x 8 starting alignments, checked against the obvious
        // one-bit-per-step packing.
        for lead in 0..8u8 {
            let mut w = BitWriter::appending_to(vec![0xEE]);
            let mut bits: Vec<u8> = Vec::new();
            let mut write = |w: &mut BitWriter, code: u32, len: u8| {
                w.write_bits(code, len);
                bits.extend((0..len).rev().map(|i| ((code >> i) & 1) as u8));
            };
            write(&mut w, 0x55, lead);
            for len in 0..=32u8 {
                // Bits above `len` are set too: only the low `len` count.
                write(&mut w, 0xDEAD_BEEF_u32.rotate_left(u32::from(len)), len);
            }
            let mut expected = vec![0xEE];
            for byte in bits.chunks(8) {
                let packed = byte.iter().fold(0u8, |acc, bit| (acc << 1) | bit);
                expected.push(packed << (8 - byte.len()));
            }
            assert_eq!(w.finish(), expected, "lead {lead}");
        }
    }
}
