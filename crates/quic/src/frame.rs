//! QUIC frames (RFC 9000 §19) — the subset the handshake needs.
//!
//! [`FrameRef`] is the working form: CRYPTO data is borrowed, from the
//! sender's flight buffer on the way out and from the received datagram on
//! the way in, so a frame never owns a copy of the bytes it carries.
//! [`Frame`] is the owned form for callers that keep frames around; its
//! encoder and decoder are the borrowed ones.

use crate::varint;

/// A QUIC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// PADDING (type 0x00). `n` consecutive padding bytes.
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
        data: Vec<u8>,
    },
    /// CONNECTION_CLOSE (type 0x1c).
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
    },
}

impl Frame {
    /// The borrowed view of this frame.
    pub fn as_ref(&self) -> FrameRef<'_> {
        match self {
            Frame::Padding { n } => FrameRef::Padding { n: *n },
            Frame::Ping => FrameRef::Ping,
            Frame::Ack {
                largest,
                delay,
                first_range,
            } => FrameRef::Ack {
                largest: *largest,
                delay: *delay,
                first_range: *first_range,
            },
            Frame::Crypto { offset, data } => FrameRef::Crypto {
                offset: *offset,
                data,
            },
            Frame::ConnectionClose { error_code } => FrameRef::ConnectionClose {
                error_code: *error_code,
            },
        }
    }

    /// Whether the frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        self.as_ref().is_ack_eliciting()
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.as_ref().encoded_len()
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out)
    }

    /// Decode all frames in a packet payload. Padding runs are coalesced.
    pub fn decode_all(payload: &[u8]) -> Option<Vec<Frame>> {
        Some(Frames::parse(payload)?.map(FrameRef::to_owned).collect())
    }
}

/// A QUIC frame whose CRYPTO data is borrowed (see [`Frame`] for the
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// PADDING: a run of `n` padding bytes.
    Padding {
        /// Number of padding bytes.
        n: usize,
    },
    /// PING.
    Ping,
    /// ACK without ECN counts.
    Ack {
        /// Largest acknowledged packet number.
        largest: u64,
        /// ACK delay (already scaled).
        delay: u64,
        /// Length of the first ACK range.
        first_range: u64,
    },
    /// CRYPTO.
    Crypto {
        /// Byte offset in the CRYPTO stream of this encryption level.
        offset: u64,
        /// Stream data.
        data: &'a [u8],
    },
    /// CONNECTION_CLOSE.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
    },
}

impl<'a> FrameRef<'a> {
    /// The owned form of this frame.
    pub fn to_owned(self) -> Frame {
        match self {
            FrameRef::Padding { n } => Frame::Padding { n },
            FrameRef::Ping => Frame::Ping,
            FrameRef::Ack {
                largest,
                delay,
                first_range,
            } => Frame::Ack {
                largest,
                delay,
                first_range,
            },
            FrameRef::Crypto { offset, data } => Frame::Crypto {
                offset,
                data: data.to_vec(),
            },
            FrameRef::ConnectionClose { error_code } => Frame::ConnectionClose { error_code },
        }
    }

    /// Whether the frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            FrameRef::Padding { .. } | FrameRef::Ack { .. } | FrameRef::ConnectionClose { .. }
        )
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            FrameRef::Padding { n } => *n,
            FrameRef::Ping => 1,
            FrameRef::Ack {
                largest,
                delay,
                first_range,
            } => 1 + varint::len(*largest) + varint::len(*delay) + 1 + varint::len(*first_range),
            FrameRef::Crypto { offset, data } => {
                1 + varint::len(*offset) + varint::len(data.len() as u64) + data.len()
            }
            FrameRef::ConnectionClose { error_code } => 1 + varint::len(*error_code) + 1 + 1,
        }
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FrameRef::Padding { n } => out.resize(out.len() + n, 0),
            FrameRef::Ping => out.push(0x01),
            FrameRef::Ack {
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
            FrameRef::Crypto { offset, data } => {
                out.push(0x06);
                varint::write(out, *offset);
                varint::write(out, data.len() as u64);
                out.extend_from_slice(data);
            }
            FrameRef::ConnectionClose { error_code } => {
                out.push(0x1C);
                varint::write(out, *error_code);
                varint::write(out, 0); // offending frame type
                varint::write(out, 0); // empty reason
            }
        }
    }

    /// Decode the frame at `payload[*pos..]`, advancing `pos` past it (a
    /// whole run of PADDING bytes is one frame). `None` when there is no
    /// byte at `pos` or the frame is malformed.
    fn decode(payload: &'a [u8], pos: &mut usize) -> Option<FrameRef<'a>> {
        let ty = *payload.get(*pos)?;
        match ty {
            0x00 => {
                let n = zero_run(&payload[*pos..]);
                *pos += n;
                Some(FrameRef::Padding { n })
            }
            0x01 => {
                *pos += 1;
                Some(FrameRef::Ping)
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
                Some(FrameRef::Ack {
                    largest,
                    delay,
                    first_range,
                })
            }
            0x06 => {
                *pos += 1;
                let offset = varint::read(payload, pos)?;
                let len = usize::try_from(varint::read(payload, pos)?).ok()?;
                let data = payload.get(*pos..pos.checked_add(len)?)?;
                *pos += len;
                Some(FrameRef::Crypto { offset, data })
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
                Some(FrameRef::ConnectionClose { error_code })
            }
            _ => None,
        }
    }
}

/// Length of the run of zero bytes `bytes` starts with, compared a word
/// at a time: a client datagram is padded to 1,200 bytes and more, and
/// every byte of that is a PADDING frame.
fn zero_run(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        if word != 0 {
            return bytes.len() - rest.len() + (word.trailing_zeros() / 8) as usize;
        }
        rest = tail;
    }
    bytes.len() - rest.len() + rest.iter().take_while(|&&b| b == 0).count()
}

/// The frames of one packet payload that parsed as a whole, in wire
/// order. Iterating decodes them again from the borrowed payload; nothing
/// is collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frames<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Check that `payload` is a well-formed sequence of frames. `None`
    /// when any frame is malformed, so a caller never acts on the head of
    /// a payload whose tail is garbage.
    pub fn parse(payload: &'a [u8]) -> Option<Frames<'a>> {
        let mut pos = 0;
        while pos < payload.len() {
            FrameRef::decode(payload, &mut pos)?;
        }
        Some(Frames { payload, pos: 0 })
    }

    /// The frames of a payload [`Frames::parse`] already accepted.
    pub(crate) fn unchecked(payload: &'a [u8]) -> Frames<'a> {
        Frames { payload, pos: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = FrameRef<'a>;

    fn next(&mut self) -> Option<FrameRef<'a>> {
        FrameRef::decode(self.payload, &mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frames: &[Frame]) -> Vec<Frame> {
        let mut buf = Vec::new();
        for f in frames {
            f.encode(&mut buf);
        }
        let total: usize = frames.iter().map(|f| f.encoded_len()).sum();
        assert_eq!(buf.len(), total, "encoded_len must match actual encoding");
        Frame::decode_all(&buf).expect("decode")
    }

    #[test]
    fn crypto_frame_roundtrips() {
        let frames = vec![Frame::Crypto {
            offset: 1200,
            data: vec![7u8; 900],
        }];
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn ack_frame_roundtrips() {
        let frames = vec![Frame::Ack {
            largest: 3,
            delay: 25,
            first_range: 3,
        }];
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn padding_runs_coalesce() {
        let frames = vec![
            Frame::Crypto {
                offset: 0,
                data: b"hello".to_vec(),
            },
            Frame::Padding { n: 500 },
        ];
        let decoded = roundtrip(&frames);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[1], Frame::Padding { n: 500 });
    }

    #[test]
    fn mixed_sequence_roundtrips() {
        let frames = vec![
            Frame::Ack {
                largest: 0,
                delay: 0,
                first_range: 0,
            },
            Frame::Crypto {
                offset: 0,
                data: vec![1, 2, 3],
            },
            Frame::Ping,
            Frame::Padding { n: 13 },
        ];
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn connection_close_roundtrips() {
        let frames = vec![Frame::ConnectionClose { error_code: 0x0A }];
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: vec![]
        }
        .is_ack_eliciting());
        assert!(!Frame::Padding { n: 1 }.is_ack_eliciting());
        assert!(!Frame::Ack {
            largest: 0,
            delay: 0,
            first_range: 0
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose { error_code: 0 }.is_ack_eliciting());
    }

    #[test]
    fn padding_runs_decode_the_same_word_wise_and_byte_wise() {
        // Runs around the word size and around a client datagram's worth of
        // padding, starting at every offset within a word, ending at the
        // end of the payload or at a non-zero frame.
        for n in (0..=17).chain(1_190..=1_210) {
            for align in 0..8 {
                for followed in [false, true] {
                    let mut payload = vec![0x01; align];
                    payload.resize(align + n, 0x00);
                    payload.extend(followed.then_some(0x01));
                    let byte_wise = payload[align..].iter().take_while(|&&b| b == 0).count();
                    assert_eq!(zero_run(&payload[align..]), byte_wise);
                    assert_eq!(byte_wise, n, "run {n} at {align}, followed: {followed}");

                    let mut expected = vec![Frame::Ping; align];
                    expected.extend((n > 0).then_some(Frame::Padding { n }));
                    expected.extend(followed.then_some(Frame::Ping));
                    assert_eq!(Frame::decode_all(&payload), Some(expected));
                }
            }
        }
    }

    #[test]
    fn borrowed_frames_iterate_as_the_owned_decode() {
        let frames = vec![
            Frame::Ack {
                largest: 7,
                delay: 0,
                first_range: 7,
            },
            Frame::Crypto {
                offset: 1_200,
                data: vec![9; 300],
            },
            Frame::Padding { n: 40 },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.encode(&mut buf);
        }
        let borrowed = Frames::parse(&buf).expect("well-formed");
        assert_eq!(
            borrowed.clone().map(FrameRef::to_owned).collect::<Vec<_>>(),
            frames
        );
        assert!(borrowed.zip(&frames).all(|(b, f)| b == f.as_ref()));
        // A malformed tail rejects the payload whole.
        buf.push(0xFE);
        assert_eq!(Frames::parse(&buf), None);
    }

    #[test]
    fn unknown_frame_type_rejected() {
        assert_eq!(Frame::decode_all(&[0xFE, 0x00]), None);
    }

    #[test]
    fn truncated_crypto_rejected() {
        let mut buf = Vec::new();
        Frame::Crypto {
            offset: 0,
            data: vec![9u8; 100],
        }
        .encode(&mut buf);
        assert_eq!(Frame::decode_all(&buf[..50]), None);
    }
}
