//! QUIC packets and datagram assembly (RFC 9000 §17, §12.2, §14.1).
//!
//! Long-header packets (Initial, Handshake, Retry) are encoded with their
//! real framing: flags byte, version, connection IDs, token (Initial),
//! length and packet number, payload, and a 16-byte AEAD tag. Multiple
//! packets may be *coalesced* into one UDP datagram. Header protection is
//! not simulated (it does not change sizes), and the AEAD tag bytes are
//! deterministic filler.
//!
//! One encoder and one parser. [`Header::encode_into`] serialises a packet
//! (header, frames, in-envelope padding and tag) straight into the caller's
//! datagram buffer, and coalescing is calling it again on the same buffer;
//! [`parse_datagram_ref`] parses a datagram in place, its packets borrowing
//! token and CRYPTO data from it.

use crate::frame::{FrameRef, Frames};
use crate::varint;

/// AEAD authentication tag length appended to every protected packet.
pub const AEAD_TAG_LEN: usize = 16;

/// Minimum UDP payload for datagrams carrying ack-eliciting Initial packets
/// (RFC 9000 §14.1).
pub(crate) const QUIC_MIN_INITIAL_SIZE: usize = 1200;

/// QUIC version 1.
pub(crate) const VERSION_1: u32 = 0x0000_0001;

/// A connection ID (0–20 bytes), stored inline.
///
/// Every packet carries two of these and the simulation clones packets
/// freely; inline storage keeps those clones off the heap (a `Vec`-backed
/// CID cost two allocations per packet at million-probe scale). Unused tail
/// bytes are always zero, so derived equality/hashing match semantic
/// equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ConnectionId {
    bytes: [u8; 20],
    len: u8,
}

impl ConnectionId {
    /// Longest connection ID RFC 9000 admits in a long header.
    pub const MAX_LEN: usize = 20;

    /// Construct from a slice.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= ConnectionId::MAX_LEN,
            "connection IDs are at most 20 bytes"
        );
        let mut cid = ConnectionId::default();
        cid.bytes[..bytes.len()].copy_from_slice(bytes);
        cid.len = bytes.len() as u8;
        cid
    }

    /// Derive a deterministic 8-byte connection ID from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC1D1;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ConnectionId::new(&z.to_be_bytes())
    }

    /// The CID bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the CID is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Long-header packet types (plus the 1-RTT short header for completeness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Initial packet (type 0b00): carries Initial-level CRYPTO and a token.
    Initial,
    /// Handshake packet (type 0b10).
    Handshake,
    /// Retry packet (type 0b11): server address-validation challenge.
    Retry,
    /// 1-RTT short-header packet.
    OneRtt,
}

/// Header + framing overhead of a packet of this shape: everything except
/// its frame payload.
pub(crate) fn overhead(
    ty: PacketType,
    dcid: &ConnectionId,
    scid: &ConnectionId,
    token_len: usize,
) -> usize {
    match ty {
        PacketType::Initial => {
            1 + 4
                + 1
                + dcid.len()
                + 1
                + scid.len()
                + varint::len(token_len as u64)
                + token_len
                + 2 // length varint (2-byte form covers our sizes)
                + 2 // packet number
                + AEAD_TAG_LEN
        }
        PacketType::Handshake => 1 + 4 + 1 + dcid.len() + 1 + scid.len() + 2 + 2 + AEAD_TAG_LEN,
        PacketType::Retry => 1 + 4 + 1 + dcid.len() + 1 + scid.len() + token_len + AEAD_TAG_LEN,
        PacketType::OneRtt => 1 + dcid.len() + 2 + AEAD_TAG_LEN,
    }
}

/// Everything of a packet but its frames, borrowed: what an endpoint needs
/// to size a packet and to serialise it around frames it never collects.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a> {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: &'a ConnectionId,
    /// Source connection ID (absent on the wire for 1-RTT).
    pub scid: &'a ConnectionId,
    /// Token (Initial and Retry packets; empty = none).
    pub token: &'a [u8],
    /// Packet number (encoded in 2 bytes).
    pub number: u64,
}

impl Header<'_> {
    /// Encoded size of a packet of this header around `frames` (ignored
    /// for Retry, which carries the token instead), computed
    /// arithmetically.
    pub fn encoded_len<'f>(&self, frames: impl IntoIterator<Item = FrameRef<'f>>) -> usize {
        let overhead = overhead(self.ty, self.dcid, self.scid, self.token.len());
        match self.ty {
            PacketType::Retry => overhead,
            _ => overhead + frames.into_iter().map(|f| f.encoded_len()).sum::<usize>(),
        }
    }

    /// Append the serialised packet to `out`: header, `frames`, then
    /// `padding` zero bytes of PADDING inside the AEAD envelope (padding
    /// must be covered by a packet's length and tag, which is why it is
    /// written here and not appended to the datagram), then the tag.
    pub fn encode_into<'f>(
        &self,
        out: &mut Vec<u8>,
        frames: impl IntoIterator<Item = FrameRef<'f>>,
        padding: usize,
    ) {
        let payload = |out: &mut Vec<u8>| {
            let at = out.len();
            for f in frames {
                f.encode(out);
            }
            out.resize(out.len() + padding, 0);
            out.len() - at
        };
        match self.ty {
            PacketType::Initial | PacketType::Handshake => {
                let type_bits = match self.ty {
                    PacketType::Initial => 0b00,
                    _ => 0b10,
                };
                // Long header: form=1, fixed=1, type, pn_len-1 = 1 (2 bytes).
                out.push(0b1100_0000 | (type_bits << 4) | 0b01);
                out.extend_from_slice(&VERSION_1.to_be_bytes());
                out.push(self.dcid.len() as u8);
                out.extend_from_slice(self.dcid.as_bytes());
                out.push(self.scid.len() as u8);
                out.extend_from_slice(self.scid.as_bytes());
                if self.ty == PacketType::Initial {
                    varint::write(out, self.token.len() as u64);
                    out.extend_from_slice(self.token);
                }
                // Length covers packet number + payload + tag; always the
                // 2-byte varint form, so sizes are predictable and the
                // field can be back-patched once the payload is written.
                let length_at = out.len();
                out.extend_from_slice(&[0; 2]);
                out.extend_from_slice(&(self.number as u16).to_be_bytes());
                let payload_len = payload(out);
                let length = 2 + payload_len + AEAD_TAG_LEN;
                debug_assert!(length < 16384, "packet too large for 2-byte varint");
                out[length_at..length_at + 2]
                    .copy_from_slice(&((length as u16) | 0x4000).to_be_bytes());
                out.extend_from_slice(&tag_bytes(self.number, payload_len));
            }
            PacketType::Retry => {
                out.push(0b1111_0000);
                out.extend_from_slice(&VERSION_1.to_be_bytes());
                out.push(self.dcid.len() as u8);
                out.extend_from_slice(self.dcid.as_bytes());
                out.push(self.scid.len() as u8);
                out.extend_from_slice(self.scid.as_bytes());
                out.extend_from_slice(self.token);
                out.extend_from_slice(&tag_bytes(0xEE77, self.token.len()));
            }
            PacketType::OneRtt => {
                out.push(0b0100_0000);
                out.extend_from_slice(self.dcid.as_bytes());
                out.extend_from_slice(&(self.number as u16).to_be_bytes());
                let payload_len = payload(out);
                out.extend_from_slice(&tag_bytes(self.number, payload_len));
            }
        }
    }
}

fn tag_bytes(a: u64, b: usize) -> [u8; AEAD_TAG_LEN] {
    let mut tag = [0u8; AEAD_TAG_LEN];
    let mut z = a.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(b as u64);
    for chunk in tag.chunks_mut(8) {
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let bytes = z.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    tag
}

/// A packet parsed from the wire, its token and CRYPTO data borrowed from
/// the datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacketRef<'a> {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (empty for 1-RTT).
    pub scid: ConnectionId,
    /// Token (Initial/Retry).
    pub token: &'a [u8],
    /// Packet number (0 for Retry).
    pub number: u64,
    /// The packet's frames (none for Retry).
    pub frames: Frames<'a>,
    /// Total wire bytes consumed by this packet.
    pub wire_len: usize,
}

/// The packets of one datagram that parsed as a whole, in wire order.
/// Iterating decodes the headers again from the borrowed datagram; nothing
/// is collected.
#[derive(Debug, Clone)]
pub struct Packets<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Packets<'a> {
    type Item = ParsedPacketRef<'a>;

    fn next(&mut self) -> Option<ParsedPacketRef<'a>> {
        // Every frame payload was checked when the datagram was parsed.
        decode_packet(self.payload, &mut self.pos, |body| {
            Some(Frames::unchecked(body))
        })
    }
}

/// Parse every packet coalesced into a datagram payload, borrowing from
/// it.
///
/// Returns `None` on malformed input — headers and every frame of every
/// packet are checked here, so a datagram is rejected whole before any of
/// its packets is acted on. Retry packets consume the rest of the datagram
/// (they cannot be coalesced with following packets, since they have no
/// length field).
pub fn parse_datagram_ref(payload: &[u8]) -> Option<Packets<'_>> {
    let mut pos = 0;
    while pos < payload.len() {
        decode_packet(payload, &mut pos, Frames::parse)?;
    }
    Some(Packets { payload, pos: 0 })
}

/// Decode the packet at `payload[*pos..]`, advancing `pos` past it;
/// `frames` turns the packet's frame payload into its [`Frames`]. `None`
/// when there is no byte at `pos` or the packet is malformed.
fn decode_packet<'a>(
    payload: &'a [u8],
    pos: &mut usize,
    frames: impl FnOnce(&'a [u8]) -> Option<Frames<'a>>,
) -> Option<ParsedPacketRef<'a>> {
    let start = *pos;
    let first = *payload.get(start)?;
    if first & 0x80 == 0 {
        // Short header: consumes the rest of the datagram. DCID length
        // is not self-describing; we use the 8-byte convention of this
        // workspace.
        let rest = &payload[start..];
        if rest.len() < 1 + 8 + 2 + AEAD_TAG_LEN {
            return None;
        }
        *pos = payload.len();
        return Some(ParsedPacketRef {
            ty: PacketType::OneRtt,
            dcid: ConnectionId::new(&rest[1..9]),
            scid: ConnectionId::default(),
            token: &[],
            number: u16::from_be_bytes([rest[9], rest[10]]) as u64,
            frames: frames(&rest[11..rest.len() - AEAD_TAG_LEN])?,
            wire_len: rest.len(),
        });
    }
    let type_bits = (first >> 4) & 0b11;
    let mut at = start + 1 + 4; // flags + version
    if payload.len() < at {
        return None;
    }
    // A corrupted length byte can claim up to 255 CID bytes; RFC 9000
    // caps CIDs at 20, so anything longer marks the packet malformed —
    // reject it instead of panicking in `ConnectionId::new`.
    let mut cid = || {
        let len = *payload.get(at)? as usize;
        if len > ConnectionId::MAX_LEN {
            return None;
        }
        at += 1 + len;
        Some(ConnectionId::new(payload.get(at - len..at)?))
    };
    let dcid = cid()?;
    let scid = cid()?;

    match type_bits {
        0b11 => {
            // Retry: token is everything up to the 16-byte tag.
            if payload.len() < at + AEAD_TAG_LEN {
                return None;
            }
            *pos = payload.len();
            Some(ParsedPacketRef {
                ty: PacketType::Retry,
                dcid,
                scid,
                token: &payload[at..payload.len() - AEAD_TAG_LEN],
                number: 0,
                frames: Frames::unchecked(&[]),
                wire_len: payload.len() - start,
            })
        }
        0b00 | 0b10 => {
            let ty = if type_bits == 0b00 {
                PacketType::Initial
            } else {
                PacketType::Handshake
            };
            let token: &[u8] = if ty == PacketType::Initial {
                let tlen = usize::try_from(varint::read(payload, &mut at)?).ok()?;
                let token = payload.get(at..at.checked_add(tlen)?)?;
                at += tlen;
                token
            } else {
                &[]
            };
            let length = usize::try_from(varint::read(payload, &mut at)?).ok()?;
            let end = at.checked_add(length)?;
            if length < 2 + AEAD_TAG_LEN || payload.len() < end {
                return None;
            }
            *pos = end;
            Some(ParsedPacketRef {
                ty,
                dcid,
                scid,
                token,
                number: u16::from_be_bytes([payload[at], payload[at + 1]]) as u64,
                frames: frames(&payload[at + 2..end - AEAD_TAG_LEN])?,
                wire_len: end - start,
            })
        }
        _ => None, // 0-RTT unsupported
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cid(b: u8) -> ConnectionId {
        ConnectionId::new(&[b; 8])
    }

    /// A tokenless header from `cid(2)` to `cid(1)`.
    fn header(ty: PacketType, number: u64) -> Header<'static> {
        static CIDS: OnceLock<[ConnectionId; 2]> = OnceLock::new();
        let [dcid, scid] = CIDS.get_or_init(|| [cid(1), cid(2)]);
        Header {
            ty,
            dcid,
            scid,
            token: &[],
            number,
        }
    }

    /// Coalesce `packets` into one datagram, padding inside the last
    /// packet's envelope up to `pad_to` bytes, as the endpoints do.
    fn datagram(packets: &[(Header<'_>, &[FrameRef<'_>])], pad_to: usize) -> Vec<u8> {
        let unpadded: usize = (packets.iter())
            .map(|(h, f)| h.encoded_len(f.iter().copied()))
            .sum();
        let mut out = Vec::new();
        for (i, (h, f)) in packets.iter().enumerate() {
            let last = i + 1 == packets.len();
            let padding = if last {
                pad_to.saturating_sub(unpadded)
            } else {
                0
            };
            h.encode_into(&mut out, f.iter().copied(), padding);
        }
        out
    }

    fn parse(wire: &[u8]) -> Option<Vec<ParsedPacketRef<'_>>> {
        Some(parse_datagram_ref(wire)?.collect())
    }

    fn padding_len(pkt: &ParsedPacketRef<'_>) -> usize {
        let padding = |f| match f {
            FrameRef::Padding { n } => n,
            _ => 0,
        };
        pkt.frames.clone().map(padding).sum()
    }

    #[test]
    fn initial_roundtrips() {
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &[0xAB; 300],
        }];
        let wire = datagram(&[(header(PacketType::Initial, 0), &frames)], 0);
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].ty, PacketType::Initial);
        assert_eq!(parsed[0].dcid, cid(1));
        assert_eq!(parsed[0].scid, cid(2));
        assert!(parsed[0].frames.clone().eq(frames));
        assert_eq!(parsed[0].wire_len, wire.len());
    }

    #[test]
    fn overhead_prediction_matches_encoding() {
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &[1; 500],
        }];
        for (ty, token_len) in [
            (PacketType::Initial, 0usize),
            (PacketType::Initial, 32),
            (PacketType::Handshake, 0),
            (PacketType::OneRtt, 0),
            (PacketType::Retry, 48),
        ] {
            let token = vec![0x55; token_len];
            let h = Header {
                token: &token,
                ..header(ty, 1)
            };
            // The arithmetic length must agree with an actual serialisation.
            assert_eq!(
                h.encoded_len(frames),
                datagram(&[(h, &frames)], 0).len(),
                "{ty:?} token={token_len}"
            );
        }
    }

    #[test]
    fn oversized_cid_lengths_reject_instead_of_panicking() {
        // A corrupted wire can claim any CID length up to 255; RFC 9000
        // caps CIDs at 20 bytes, so the parser must reject, not assert.
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &[0xAB; 64],
        }];
        let wire = datagram(&[(header(PacketType::Initial, 0), &frames)], 0);
        // Byte 5 is the DCID length of the long header; the SCID length
        // follows the 8 DCID bytes.
        for at in [5, 5 + 1 + 8] {
            for len in [21, 0xFF] {
                let mut bad = wire.clone();
                bad[at] = len;
                assert!(parse_datagram_ref(&bad).is_none(), "length {len} at {at}");
            }
        }
    }

    #[test]
    fn padding_lands_inside_the_last_envelope_without_touching_the_packets() {
        let ping = [FrameRef::Ping];
        let packets = [
            (header(PacketType::Initial, 0), &ping[..]),
            (header(PacketType::Handshake, 3), &ping[..]),
        ];
        let unpadded: usize = packets.iter().map(|(h, _)| h.encoded_len(ping)).sum();
        let wire = datagram(&packets, 1200);
        assert_eq!(wire.len(), 1200);
        let parsed = parse(&wire).unwrap();
        assert!(parsed[0].frames.clone().eq(ping));
        assert_eq!(parsed[0].wire_len, packets[0].0.encoded_len(ping));
        let padded = [FrameRef::Ping, FrameRef::Padding { n: 1200 - unpadded }];
        assert!(parsed[1].frames.clone().eq(padded));
    }

    #[test]
    fn coalesced_datagram_parses_in_order() {
        let initial = [
            FrameRef::Ack {
                largest: 0,
                delay: 0,
                first_range: 0,
            },
            FrameRef::Crypto {
                offset: 0,
                data: &[2; 90],
            },
        ];
        let handshake = [FrameRef::Crypto {
            offset: 0,
            data: &[3; 700],
        }];
        let wire = datagram(
            &[
                (header(PacketType::Initial, 0), &initial),
                (header(PacketType::Handshake, 0), &handshake),
            ],
            1200,
        );
        assert_eq!(wire.len(), 1200);
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].ty, PacketType::Initial);
        assert_eq!(parsed[1].ty, PacketType::Handshake);
        // Padding landed inside the second packet's envelope.
        assert!(padding_len(&parsed[1]) > 0);
    }

    #[test]
    fn padding_is_not_appended_when_already_large_enough() {
        let frames = [FrameRef::Crypto {
            offset: 0,
            data: &[9; 1300],
        }];
        let wire = datagram(&[(header(PacketType::Initial, 0), &frames)], 1200);
        assert!(wire.len() > 1300);
        let parsed = parse(&wire).unwrap();
        assert_eq!(padding_len(&parsed[0]), 0);
    }

    #[test]
    fn retry_roundtrips() {
        let token: Vec<u8> = (0..48).collect();
        let retry = Header {
            token: &token,
            ..header(PacketType::Retry, 0)
        };
        let wire = datagram(&[(retry, &[])], 0);
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed[0].ty, PacketType::Retry);
        assert_eq!(parsed[0].token, token);
    }

    #[test]
    fn scid_extraction_matches_header() {
        let wire = datagram(&[(header(PacketType::Initial, 0), &[FrameRef::Ping])], 0);
        assert_eq!(parse(&wire).unwrap()[0].scid, cid(2));
        // Short header: no SCID on the wire.
        let short = datagram(&[(header(PacketType::OneRtt, 0), &[FrameRef::Ping])], 0);
        assert_eq!(parse(&short).unwrap()[0].scid, ConnectionId::default());
    }

    #[test]
    fn ack_eliciting_packets() {
        let crypto = FrameRef::Crypto {
            offset: 0,
            data: &[1],
        };
        let ack = FrameRef::Ack {
            largest: 0,
            delay: 0,
            first_range: 0,
        };
        let padding = FrameRef::Padding { n: 100 };
        for (frames, eliciting) in [
            (&[crypto][..], true),
            (&[ack], false),
            (&[ack, padding], false),
        ] {
            let wire = datagram(&[(header(PacketType::Initial, 0), frames)], 0);
            let mut parsed = parse(&wire).unwrap()[0].frames.clone();
            assert_eq!(
                parsed.any(|f| f.is_ack_eliciting()),
                eliciting,
                "{frames:?}"
            );
        }
    }

    #[test]
    fn byte_accounting_helpers() {
        let frames = [
            FrameRef::Crypto {
                offset: 0,
                data: &[5; 250],
            },
            FrameRef::Padding { n: 40 },
        ];
        let wire = datagram(&[(header(PacketType::Initial, 0), &frames)], 0);
        let parsed = parse(&wire).unwrap();
        let crypto_data: usize = (parsed[0].frames.clone())
            .map(|f| match f {
                FrameRef::Crypto { data, .. } => data.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(crypto_data, 250);
        assert_eq!(padding_len(&parsed[0]), 40);
    }

    #[test]
    fn malformed_datagrams_are_rejected() {
        assert_eq!(parse(&[0xC1, 0x00]), None);
        let wire = datagram(&[(header(PacketType::Initial, 0), &[FrameRef::Ping])], 0);
        assert_eq!(parse(&wire[..wire.len() - 1]), None);
    }

    #[test]
    fn connection_id_from_seed_is_stable() {
        assert_eq!(ConnectionId::from_seed(5), ConnectionId::from_seed(5));
        assert_ne!(ConnectionId::from_seed(5), ConnectionId::from_seed(6));
        assert_eq!(ConnectionId::from_seed(5).len(), 8);
    }
}
