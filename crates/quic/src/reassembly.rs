//! CRYPTO stream reassembly (RFC 9000 §19.6) for one encryption level, and
//! the walk over the TLS handshake messages a reassembled stream holds.
//!
//! A handshake's CRYPTO segments almost always arrive in order, each
//! starting where the last one ended. [`CryptoStream`] appends those to one
//! buffer and lends the contiguous stream out. Anything else — a gap, an
//! overlap, a different payload at an offset already seen — switches the
//! stream, for good, to the general form: segments keyed by offset, the
//! latest arrival at an offset replacing the earlier one, and the
//! contiguous prefix rebuilt by walking them. The replacement rule is load
//! bearing: nobody checks AEAD tags in this simulation, so a segment
//! corrupted in flight *is* accepted, and only a clean retransmission
//! replacing it at the same offset repairs the stream.

use std::collections::BTreeMap;

/// The reassembled CRYPTO stream of one encryption level.
#[derive(Debug, Default)]
pub struct CryptoStream {
    /// The contiguous prefix of the stream from offset 0.
    stream: Vec<u8>,
    /// In-order form: the offset at which each segment was appended to
    /// `stream`, in arrival order.
    starts: Vec<u64>,
    /// General form: every segment by offset, once any arrived out of
    /// order. `None` while the in-order form holds.
    segments: Option<BTreeMap<u64, Vec<u8>>>,
}

impl CryptoStream {
    /// Accept the CRYPTO segment `data` at stream offset `offset`.
    pub fn insert(&mut self, offset: u64, data: &[u8]) {
        if self.segments.is_none() {
            if offset == self.stream.len() as u64 {
                self.starts.push(offset);
                self.stream.extend_from_slice(data);
                return;
            }
            if self.holds(offset, data) {
                // An identical duplicate would replace a segment by itself.
                return;
            }
        }
        let starts = std::mem::take(&mut self.starts);
        let stream = &self.stream;
        let segments = self.segments.get_or_insert_with(|| {
            // Replay the in-order arrivals, so that equal offsets (a
            // zero-length segment and its successor) replace each other
            // exactly as they would have on arrival.
            let ends = starts.iter().skip(1).copied();
            let ends = ends.chain([stream.len() as u64]);
            let mut segments = BTreeMap::new();
            for (&start, end) in starts.iter().zip(ends) {
                segments.insert(start, stream[start as usize..end as usize].to_vec());
            }
            segments
        });
        segments.insert(offset, data.to_vec());

        self.stream.clear();
        for (&off, data) in segments.iter() {
            let next = self.stream.len() as u64;
            if off > next {
                break;
            }
            let skip = (next - off) as usize;
            if skip < data.len() {
                self.stream.extend_from_slice(&data[skip..]);
            }
        }
    }

    /// Whether the in-order form's latest segment at `offset` is exactly
    /// `data`.
    fn holds(&self, offset: u64, data: &[u8]) -> bool {
        let Some(index) = self.starts.iter().rposition(|&start| start == offset) else {
            return false;
        };
        let end = self
            .starts
            .get(index + 1)
            .map_or(self.stream.len(), |&next| next as usize);
        self.stream[offset as usize..end] == *data
    }

    /// The contiguous prefix of the stream received so far.
    pub fn contiguous(&self) -> &[u8] {
        &self.stream
    }

    /// Forget everything received (a Retry restarts the Initial stream).
    pub fn clear(&mut self) {
        *self = CryptoStream::default();
    }
}

/// The complete TLS handshake messages at the front of `stream`, each with
/// its 4-byte header; incomplete trailing data is ignored.
pub(crate) fn handshake_messages(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = stream;
    std::iter::from_fn(move || {
        let header = rest.first_chunk::<4>()?;
        let len = u32::from_be_bytes([0, header[1], header[2], header[3]]) as usize;
        let (message, tail) = rest.split_at_checked(4 + len)?;
        rest = tail;
        Some(message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_segments_append_in_place() {
        let mut stream = CryptoStream::default();
        stream.insert(0, b"hello ");
        stream.insert(6, b"");
        stream.insert(6, b"world");
        assert_eq!(stream.contiguous(), b"hello world");
        assert!(stream.segments.is_none());
        // An identical duplicate changes nothing, not even the form.
        stream.insert(6, b"world");
        stream.insert(0, b"hello ");
        assert_eq!(stream.contiguous(), b"hello world");
        assert!(stream.segments.is_none());
    }

    #[test]
    fn a_clean_retransmission_repairs_a_corrupted_segment() {
        let mut stream = CryptoStream::default();
        stream.insert(0, b"abc");
        stream.insert(3, b"dXf");
        stream.insert(6, b"ghi");
        assert_eq!(stream.contiguous(), b"abcdXfghi");
        stream.insert(3, b"def");
        assert_eq!(stream.contiguous(), b"abcdefghi");
    }

    #[test]
    fn gaps_hold_the_stream_back_until_filled() {
        let mut stream = CryptoStream::default();
        stream.insert(4, b"5678");
        assert_eq!(stream.contiguous(), b"");
        stream.insert(0, b"1234");
        assert_eq!(stream.contiguous(), b"12345678");
        stream.clear();
        assert_eq!(stream.contiguous(), b"");
    }

    #[test]
    fn message_walk_stops_at_the_first_incomplete_message() {
        let mut stream = vec![8u8, 0, 0, 2, 0xAA, 0xBB]; // complete EE
        stream.extend_from_slice(&[20, 0, 0, 0]); // empty-bodied message
        stream.extend_from_slice(&[11, 0, 0, 100, 1, 2, 3]); // truncated CERT
        let messages: Vec<&[u8]> = handshake_messages(&stream).collect();
        assert_eq!(messages, [&stream[..6], &stream[6..10]]);
        assert_eq!(handshake_messages(&stream[..3]).count(), 0);
    }
}
