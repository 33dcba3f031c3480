//! QUIC frames (RFC 9000 §19) — the subset the handshake needs.
//!
//! [`Frame`] is the one frame type, generic over how it holds CRYPTO data.
//! A [`FrameRef`] borrows it, from the sender's flight buffer on the way
//! out and from the received datagram on the way in, so a frame never owns
//! a copy of the bytes it carries. A received frame is decoded once, when
//! its datagram is parsed, into a [`Frame`] holding the *span* of its data
//! in that datagram ([`crate::packet::parse_datagram_ref`] keeps these in a
//! reused list); [`Frames`] lends them out as [`FrameRef`]s. One encoder
//! ([`Frame::encode`]) writes frames and one decoder reads them.

use crate::varint;

/// A QUIC frame; `D` is how its CRYPTO data is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<D> {
    /// PADDING (type 0x00): a run of `n` padding bytes.
    Padding {
        /// Number of padding bytes (each is its own one-byte frame on the
        /// wire; they are run-length grouped here).
        n: usize,
    },
    /// PING (type 0x01).
    Ping,
    /// ACK (type 0x02) without ECN counts.
    Ack {
        /// Largest acknowledged packet number.
        largest: u64,
        /// ACK delay (already scaled).
        delay: u64,
        /// Length of the first ACK range (packets immediately below
        /// `largest`).
        first_range: u64,
    },
    /// CRYPTO (type 0x06).
    Crypto {
        /// Byte offset in the CRYPTO stream of this encryption level.
        offset: u64,
        /// Stream data.
        data: D,
    },
    /// CONNECTION_CLOSE (type 0x1c).
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
    },
}

/// A QUIC frame whose CRYPTO data is borrowed.
pub type FrameRef<'a> = Frame<&'a [u8]>;

/// A decoded frame whose CRYPTO data is the bytes `start..end` of the
/// datagram it was decoded from.
pub(crate) type FrameSpan = Frame<(usize, usize)>;

impl<D> Frame<D> {
    /// Whether the frame is ack-eliciting (RFC 9002 §2).
    pub(crate) fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Padding { .. } | Frame::Ack { .. } | Frame::ConnectionClose { .. }
        )
    }
}

impl FrameRef<'_> {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Padding { n } => *n,
            Frame::Ping => 1,
            Frame::Ack {
                largest,
                delay,
                first_range,
            } => 1 + varint::len(*largest) + varint::len(*delay) + 1 + varint::len(*first_range),
            Frame::Crypto { offset, data } => {
                1 + varint::len(*offset) + varint::len(data.len() as u64) + data.len()
            }
            Frame::ConnectionClose { error_code } => 1 + varint::len(*error_code) + 1 + 1,
        }
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Padding { n } => out.resize(out.len() + n, 0),
            Frame::Ping => out.push(0x01),
            Frame::Ack {
                largest,
                delay,
                first_range,
            } => {
                out.push(0x02);
                varint::write(out, *largest);
                varint::write(out, *delay);
                varint::write(out, 0); // range count
                varint::write(out, *first_range);
            }
            Frame::Crypto { offset, data } => {
                out.push(0x06);
                varint::write(out, *offset);
                varint::write(out, data.len() as u64);
                out.extend_from_slice(data);
            }
            Frame::ConnectionClose { error_code } => {
                out.push(0x1C);
                varint::write(out, *error_code);
                varint::write(out, 0); // offending frame type
                varint::write(out, 0); // empty reason
            }
        }
    }
}

impl FrameSpan {
    /// Decode the frame at `payload[*pos..]`, advancing `pos` past it (a
    /// whole run of PADDING bytes is one frame). `None` when there is no
    /// byte at `pos` or the frame is malformed.
    fn decode(payload: &[u8], pos: &mut usize) -> Option<FrameSpan> {
        let ty = *payload.get(*pos)?;
        match ty {
            0x00 => {
                let n = zero_run(&payload[*pos..]);
                *pos += n;
                Some(Frame::Padding { n })
            }
            0x01 => {
                *pos += 1;
                Some(Frame::Ping)
            }
            0x02 | 0x03 => {
                *pos += 1;
                let largest = varint::read(payload, pos)?;
                let delay = varint::read(payload, pos)?;
                let range_count = varint::read(payload, pos)?;
                let first_range = varint::read(payload, pos)?;
                for _ in 0..range_count {
                    varint::read(payload, pos)?;
                    varint::read(payload, pos)?;
                }
                if ty == 0x03 {
                    // ECN counts.
                    for _ in 0..3 {
                        varint::read(payload, pos)?;
                    }
                }
                Some(Frame::Ack {
                    largest,
                    delay,
                    first_range,
                })
            }
            0x06 => {
                *pos += 1;
                let offset = varint::read(payload, pos)?;
                let len = usize::try_from(varint::read(payload, pos)?).ok()?;
                let end = pos.checked_add(len).filter(|&end| end <= payload.len())?;
                let data = (*pos, end);
                *pos = end;
                Some(Frame::Crypto { offset, data })
            }
            0x1C | 0x1D => {
                *pos += 1;
                let error_code = varint::read(payload, pos)?;
                if ty == 0x1C {
                    varint::read(payload, pos)?;
                }
                let reason_len = usize::try_from(varint::read(payload, pos)?).ok()?;
                *pos = pos.checked_add(reason_len)?;
                if *pos > payload.len() {
                    return None;
                }
                Some(Frame::ConnectionClose { error_code })
            }
            _ => None,
        }
    }
}

/// Decode every frame of the packet payload `payload[start..end]` onto
/// `into`, CRYPTO data as spans of `payload`. `None` when any frame is
/// malformed, so a caller never acts on the head of a payload whose tail
/// is garbage.
pub(crate) fn decode_frames(
    payload: &[u8],
    (start, end): (usize, usize),
    into: &mut Vec<FrameSpan>,
) -> Option<()> {
    let body = &payload[..end];
    let mut pos = start;
    while pos < end {
        into.push(FrameSpan::decode(body, &mut pos)?);
    }
    Some(())
}

/// Length of the run of zero bytes `bytes` starts with. A client datagram
/// is padded to 1,200 bytes and more, every byte of that a PADDING frame
/// walked once, when its datagram is parsed, so the run is skipped 64
/// bytes at a time, each block OR-folded into one byte; the block that
/// holds the first non-zero byte, and a tail shorter than a block, are
/// then compared a word at a time.
fn zero_run(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    while let Some((block, tail)) = rest.split_first_chunk::<64>() {
        if block.iter().fold(0, |any, &b| any | b) != 0 {
            break;
        }
        rest = tail;
    }
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        if word != 0 {
            return bytes.len() - rest.len() + (word.trailing_zeros() / 8) as usize;
        }
        rest = tail;
    }
    bytes.len() - rest.len() + rest.iter().take_while(|&&b| b == 0).count()
}

/// The frames of one parsed packet, in wire order: its decoded spans lent
/// out as [`FrameRef`]s borrowing the datagram. Nothing is decoded again.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    payload: &'a [u8],
    spans: std::slice::Iter<'a, FrameSpan>,
}

impl<'a> Frames<'a> {
    /// The frames `spans` decoded from `payload`.
    pub(crate) fn new(payload: &'a [u8], spans: &'a [FrameSpan]) -> Frames<'a> {
        Frames {
            payload,
            spans: spans.iter(),
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = FrameRef<'a>;

    fn next(&mut self) -> Option<FrameRef<'a>> {
        let payload = self.payload;
        let span = *self.spans.next()?;
        Some(match span {
            Frame::Padding { n } => Frame::Padding { n },
            Frame::Ping => Frame::Ping,
            Frame::Ack {
                largest,
                delay,
                first_range,
            } => Frame::Ack {
                largest,
                delay,
                first_range,
            },
            Frame::Crypto {
                offset,
                data: (start, end),
            } => Frame::Crypto {
                offset,
                data: &payload[start..end],
            },
            Frame::ConnectionClose { error_code } => Frame::ConnectionClose { error_code },
        })
    }
}

impl PartialEq for Frames<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for Frames<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(payload: &[u8]) -> Option<Vec<FrameRef<'_>>> {
        // Leaked so that the frames may borrow it as long as the payload.
        let spans = Box::leak(Box::default());
        decode_frames(payload, (0, payload.len()), spans)?;
        Some(Frames::new(payload, spans).collect())
    }

    fn roundtrip(frames: &[FrameRef<'_>]) {
        let mut buf = Vec::new();
        for f in frames {
            f.encode(&mut buf);
        }
        let total: usize = frames.iter().map(FrameRef::encoded_len).sum();
        assert_eq!(buf.len(), total, "encoded_len must match actual encoding");
        assert_eq!(decode(&buf).as_deref(), Some(frames));
    }

    #[test]
    fn crypto_frame_roundtrips() {
        roundtrip(&[FrameRef::Crypto {
            offset: 1200,
            data: &[7u8; 900],
        }]);
    }

    #[test]
    fn ack_frame_roundtrips() {
        roundtrip(&[FrameRef::Ack {
            largest: 3,
            delay: 25,
            first_range: 3,
        }]);
    }

    #[test]
    fn padding_runs_coalesce() {
        roundtrip(&[
            FrameRef::Crypto {
                offset: 0,
                data: b"hello",
            },
            FrameRef::Padding { n: 500 },
        ]);
    }

    #[test]
    fn mixed_sequence_roundtrips() {
        roundtrip(&[
            FrameRef::Ack {
                largest: 0,
                delay: 0,
                first_range: 0,
            },
            FrameRef::Crypto {
                offset: 0,
                data: &[1, 2, 3],
            },
            FrameRef::Ping,
            FrameRef::Padding { n: 13 },
        ]);
    }

    #[test]
    fn connection_close_roundtrips() {
        roundtrip(&[FrameRef::ConnectionClose { error_code: 0x0A }]);
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(FrameRef::Ping.is_ack_eliciting());
        assert!(FrameRef::Crypto {
            offset: 0,
            data: &[][..]
        }
        .is_ack_eliciting());
        assert!(!FrameRef::Padding { n: 1 }.is_ack_eliciting());
        assert!(!FrameRef::Ack {
            largest: 0,
            delay: 0,
            first_range: 0
        }
        .is_ack_eliciting());
        assert!(!FrameRef::ConnectionClose { error_code: 0 }.is_ack_eliciting());
    }

    #[test]
    fn padding_runs_decode_the_same_word_wise_and_byte_wise() {
        // Runs around the word size, around one and two 64-byte blocks and
        // around a client datagram's worth of padding, starting at every
        // offset within a block, ending at the end of the payload or at a
        // non-zero frame.
        let lengths = (0..=17)
            .chain(56..=72)
            .chain(120..=136)
            .chain(1_190..=1_210);
        for n in lengths {
            for align in 0..64 {
                for followed in [false, true] {
                    let mut payload = vec![0x01; align];
                    payload.resize(align + n, 0x00);
                    payload.extend(followed.then_some(0x01));
                    let byte_wise = payload[align..].iter().take_while(|&&b| b == 0).count();
                    assert_eq!(zero_run(&payload[align..]), byte_wise);
                    assert_eq!(byte_wise, n, "run {n} at {align}, followed: {followed}");

                    let mut expected = vec![FrameRef::Ping; align];
                    expected.extend((n > 0).then_some(FrameRef::Padding { n }));
                    expected.extend(followed.then_some(FrameRef::Ping));
                    assert_eq!(decode(&payload), Some(expected));
                }
            }
        }
    }

    #[test]
    fn unknown_frame_type_rejected() {
        assert_eq!(decode(&[0xFE, 0x00]), None);
        // Behind well-formed frames too: a malformed tail rejects the
        // payload whole.
        assert_eq!(decode(&[0x01, 0x00, 0x00, 0xFE]), None);
    }

    #[test]
    fn truncated_crypto_rejected() {
        let mut buf = Vec::new();
        FrameRef::Crypto {
            offset: 0,
            data: &[9u8; 100],
        }
        .encode(&mut buf);
        assert_eq!(decode(&buf[..50]), None);
    }
}
