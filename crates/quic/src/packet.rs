//! QUIC packets and datagram assembly (RFC 9000 §17, §12.2, §14.1).
//!
//! Long-header packets (Initial, Handshake, Retry) are encoded with their
//! real framing: flags byte, version, connection IDs, token (Initial),
//! length and packet number, payload, and a 16-byte AEAD tag. Multiple
//! packets may be *coalesced* into one UDP datagram. Header protection is
//! not simulated (it does not change sizes), and the AEAD tag bytes are
//! deterministic filler.
//!
//! Serialisation goes through [`Header::encode_into`], which writes header,
//! frames, in-envelope padding and tag straight into the caller's datagram
//! buffer; parsing goes through [`parse_datagram_ref`], whose packets borrow
//! token and CRYPTO data from the datagram. The owned [`Packet::encode`],
//! [`assemble_datagram`] and [`parse_datagram`] are wrappers over those.

use crate::frame::{Frame, FrameRef, Frames};
use crate::varint;

/// AEAD authentication tag length appended to every protected packet.
pub const AEAD_TAG_LEN: usize = 16;

/// Minimum UDP payload for datagrams carrying ack-eliciting Initial packets
/// (RFC 9000 §14.1).
pub const QUIC_MIN_INITIAL_SIZE: usize = 1200;

/// QUIC version 1.
pub const VERSION_1: u32 = 0x0000_0001;

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

/// A QUIC packet before serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (absent on the wire for 1-RTT).
    pub scid: ConnectionId,
    /// Token (Initial packets only; empty = none).
    pub token: Vec<u8>,
    /// Packet number (encoded in 2 bytes).
    pub number: u64,
    /// Frames (ignored for Retry, which carries the token instead).
    pub frames: Vec<Frame>,
}

impl Packet {
    /// Create a packet with no token.
    pub fn new(
        ty: PacketType,
        dcid: ConnectionId,
        scid: ConnectionId,
        number: u64,
        frames: Vec<Frame>,
    ) -> Self {
        Packet {
            ty,
            dcid,
            scid,
            token: Vec::new(),
            number,
            frames,
        }
    }

    /// Everything of this packet but its frames.
    pub fn header(&self) -> Header<'_> {
        Header {
            ty: self.ty,
            dcid: &self.dcid,
            scid: &self.scid,
            token: &self.token,
            number: self.number,
        }
    }

    fn frame_refs(&self) -> impl Iterator<Item = FrameRef<'_>> {
        self.frames.iter().map(Frame::as_ref)
    }

    /// Whether any frame is ack-eliciting.
    pub fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(|f| f.is_ack_eliciting())
    }

    /// Sum of encoded frame lengths.
    pub fn payload_len(&self) -> usize {
        self.frames.iter().map(|f| f.encoded_len()).sum()
    }

    /// Bytes of PADDING frames in this packet.
    pub fn padding_len(&self) -> usize {
        padding_len(self.frame_refs())
    }

    /// Bytes of CRYPTO frame *data* (TLS payload) in this packet.
    pub fn crypto_data_len(&self) -> usize {
        crypto_data_len(self.frame_refs())
    }

    /// Encoded size of the packet on the wire.
    ///
    /// Computed arithmetically — callers probe sizes in tight loops (datagram
    /// coalescing, padding, amplification accounting), so this must not
    /// actually serialise the packet.
    pub fn encoded_len(&self) -> usize {
        self.header().encoded_len(self.frame_refs())
    }

    /// Header + framing overhead for a packet of this shape carrying
    /// `payload` frame bytes: everything except frame payload itself.
    pub fn overhead(
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

    /// Serialise the packet.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.header().encode_into(&mut out, self.frame_refs(), 0);
        out
    }
}

fn padding_len<'a>(frames: impl Iterator<Item = FrameRef<'a>>) -> usize {
    frames
        .map(|f| match f {
            FrameRef::Padding { n } => n,
            _ => 0,
        })
        .sum()
}

fn crypto_data_len<'a>(frames: impl Iterator<Item = FrameRef<'a>>) -> usize {
    frames
        .map(|f| match f {
            FrameRef::Crypto { data, .. } => data.len(),
            _ => 0,
        })
        .sum()
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
        let overhead = Packet::overhead(self.ty, self.dcid, self.scid, self.token.len());
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

/// A packet parsed from the wire (enough detail for the simulation and for
/// telescope SCID extraction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    /// Packet type.
    pub ty: PacketType,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (empty for 1-RTT).
    pub scid: ConnectionId,
    /// Token (Initial/Retry).
    pub token: Vec<u8>,
    /// Packet number (0 for Retry).
    pub number: u64,
    /// Decoded frames (empty for Retry).
    pub frames: Vec<Frame>,
    /// Total wire bytes consumed by this packet.
    pub wire_len: usize,
}

impl ParsedPacket {
    /// Bytes of PADDING frames in this packet.
    pub fn padding_len(&self) -> usize {
        padding_len(self.frames.iter().map(Frame::as_ref))
    }

    /// Bytes of CRYPTO frame data (TLS payload) in this packet.
    pub fn crypto_data_len(&self) -> usize {
        crypto_data_len(self.frames.iter().map(Frame::as_ref))
    }
}

/// A packet parsed from the wire whose token and CRYPTO data borrow from
/// the datagram (see [`ParsedPacket`] for the fields).
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

impl ParsedPacketRef<'_> {
    /// The owned form of this packet.
    pub fn to_owned(&self) -> ParsedPacket {
        ParsedPacket {
            ty: self.ty,
            dcid: self.dcid.clone(),
            scid: self.scid.clone(),
            token: self.token.to_vec(),
            number: self.number,
            frames: self.frames.clone().map(FrameRef::to_owned).collect(),
            wire_len: self.wire_len,
        }
    }
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

/// [`parse_datagram_ref`] with every packet copied out of the datagram.
pub fn parse_datagram(payload: &[u8]) -> Option<Vec<ParsedPacket>> {
    Some(
        parse_datagram_ref(payload)?
            .map(|pkt| pkt.to_owned())
            .collect(),
    )
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

/// Extract the source connection ID from the first long-header packet of a
/// datagram, as a telescope collector would (§4.3 groups backscatter by
/// SCID). Like [`parse_datagram`], rejects connection IDs longer than
/// [`ConnectionId::MAX_LEN`].
pub fn extract_scid(payload: &[u8]) -> Option<Vec<u8>> {
    let first = *payload.first()?;
    if first & 0x80 == 0 {
        return None; // short header carries no SCID
    }
    let mut pos = 5; // flags + version
    let dcid_len = *payload.get(pos)? as usize;
    if dcid_len > ConnectionId::MAX_LEN {
        return None;
    }
    pos += 1 + dcid_len;
    let scid_len = *payload.get(pos)? as usize;
    if scid_len > ConnectionId::MAX_LEN {
        return None;
    }
    pos += 1;
    payload.get(pos..pos + scid_len).map(|s| s.to_vec())
}

/// Serialise a coalesced datagram from `packets`, padding inside the
/// *last* packet's AEAD envelope so the UDP payload reaches `pad_to` (if
/// given).
pub fn assemble_datagram(packets: Vec<Packet>, pad_to: Option<usize>) -> Vec<u8> {
    let unpadded: usize = packets.iter().map(|p| p.encoded_len()).sum();
    let padding = pad_to.map_or(0, |target| target.saturating_sub(unpadded));
    let mut out = Vec::with_capacity(unpadded + padding);
    for (i, p) in packets.iter().enumerate() {
        let last = i + 1 == packets.len();
        p.header()
            .encode_into(&mut out, p.frame_refs(), if last { padding } else { 0 });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(b: u8) -> ConnectionId {
        ConnectionId::new(&[b; 8])
    }

    fn initial_packet(frames: Vec<Frame>) -> Packet {
        Packet::new(PacketType::Initial, cid(1), cid(2), 0, frames)
    }

    #[test]
    fn initial_roundtrips() {
        let pkt = initial_packet(vec![Frame::Crypto {
            offset: 0,
            data: vec![0xAB; 300],
        }]);
        let wire = pkt.encode();
        let parsed = parse_datagram(&wire).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].ty, PacketType::Initial);
        assert_eq!(parsed[0].dcid, cid(1));
        assert_eq!(parsed[0].scid, cid(2));
        assert_eq!(parsed[0].frames, pkt.frames);
        assert_eq!(parsed[0].wire_len, wire.len());
    }

    #[test]
    fn overhead_prediction_matches_encoding() {
        for (ty, token_len) in [
            (PacketType::Initial, 0usize),
            (PacketType::Initial, 32),
            (PacketType::Handshake, 0),
            (PacketType::OneRtt, 0),
        ] {
            let mut pkt = Packet::new(
                ty,
                cid(3),
                cid(4),
                1,
                vec![Frame::Crypto {
                    offset: 0,
                    data: vec![1; 500],
                }],
            );
            pkt.token = vec![0x55; token_len];
            // The arithmetic length must agree with an actual serialisation.
            assert_eq!(
                pkt.encoded_len(),
                pkt.encode().len(),
                "{ty:?} token={token_len}"
            );
        }
        let mut retry = Packet::new(PacketType::Retry, cid(3), cid(4), 0, Vec::new());
        retry.token = vec![0x55; 48];
        assert_eq!(retry.encoded_len(), retry.encode().len());
    }

    #[test]
    fn oversized_cid_lengths_reject_instead_of_panicking() {
        // A corrupted wire can claim any CID length up to 255; RFC 9000
        // caps CIDs at 20 bytes, so the parser must reject, not assert.
        let pkt = initial_packet(vec![Frame::Crypto {
            offset: 0,
            data: vec![0xAB; 64],
        }]);
        let wire = pkt.encode();
        // Byte 5 is the DCID length of the long header.
        let mut bad_dcid = wire.clone();
        bad_dcid[5] = 0xFF;
        assert_eq!(parse_datagram(&bad_dcid), None);
        // The SCID length follows the 8 DCID bytes.
        let mut bad_scid = wire;
        bad_scid[5 + 1 + 8] = 21;
        assert_eq!(parse_datagram(&bad_scid), None);
    }

    #[test]
    fn scid_extraction_rejects_oversized_cid_lengths_like_the_parser() {
        let wire = initial_packet(vec![Frame::Ping]).encode();
        assert_eq!(extract_scid(&wire), Some(vec![2u8; 8]));
        // A corrupted length byte below the end of the datagram: the full
        // parser rejects it, so the telescope's extractor must too.
        let mut bad_dcid = wire.clone();
        bad_dcid[5] = 21;
        assert_eq!(parse_datagram(&bad_dcid), None);
        assert_eq!(extract_scid(&bad_dcid), None);
        let mut bad_scid = wire;
        bad_scid[5 + 1 + 8] = 21;
        assert_eq!(extract_scid(&bad_scid), None);
    }

    #[test]
    fn padding_lands_inside_the_last_envelope_without_touching_the_packets() {
        let packets = vec![
            initial_packet(vec![Frame::Ping]),
            Packet::new(PacketType::Handshake, cid(1), cid(2), 3, vec![Frame::Ping]),
        ];
        let unpadded: usize = packets.iter().map(Packet::encoded_len).sum();
        let wire = assemble_datagram(packets.clone(), Some(1200));
        assert_eq!(wire.len(), 1200);
        let parsed = parse_datagram(&wire).unwrap();
        assert_eq!(parsed[0].frames, packets[0].frames);
        assert_eq!(parsed[0].wire_len, packets[0].encoded_len());
        assert_eq!(parsed[1].padding_len(), 1200 - unpadded);
        // The borrowed parse sees the same packets, copying nothing.
        let borrowed: Vec<_> = parse_datagram_ref(&wire).unwrap().collect();
        let owned: Vec<_> = borrowed.iter().map(ParsedPacketRef::to_owned).collect();
        assert_eq!(owned, parsed);
    }

    #[test]
    fn coalesced_datagram_parses_in_order() {
        let initial = initial_packet(vec![
            Frame::Ack {
                largest: 0,
                delay: 0,
                first_range: 0,
            },
            Frame::Crypto {
                offset: 0,
                data: vec![2; 90],
            },
        ]);
        let handshake = Packet::new(
            PacketType::Handshake,
            cid(1),
            cid(2),
            0,
            vec![Frame::Crypto {
                offset: 0,
                data: vec![3; 700],
            }],
        );
        let wire = assemble_datagram(vec![initial, handshake], Some(1200));
        assert_eq!(wire.len(), 1200);
        let parsed = parse_datagram(&wire).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].ty, PacketType::Initial);
        assert_eq!(parsed[1].ty, PacketType::Handshake);
        // Padding landed inside the second packet's envelope.
        assert!(parsed[1]
            .frames
            .iter()
            .any(|f| matches!(f, Frame::Padding { .. })));
    }

    #[test]
    fn padding_is_not_appended_when_already_large_enough() {
        let pkt = initial_packet(vec![Frame::Crypto {
            offset: 0,
            data: vec![9; 1300],
        }]);
        let wire = assemble_datagram(vec![pkt], Some(1200));
        assert!(wire.len() > 1300);
        let parsed = parse_datagram(&wire).unwrap();
        assert_eq!(parsed[0].padding_len(), 0);
    }

    #[test]
    fn retry_roundtrips() {
        let mut pkt = Packet::new(PacketType::Retry, cid(7), cid(8), 0, vec![]);
        pkt.token = (0..48).collect();
        let wire = pkt.encode();
        let parsed = parse_datagram(&wire).unwrap();
        assert_eq!(parsed[0].ty, PacketType::Retry);
        assert_eq!(parsed[0].token, pkt.token);
    }

    #[test]
    fn scid_extraction_matches_header() {
        let pkt = initial_packet(vec![Frame::Ping]);
        let wire = pkt.encode();
        assert_eq!(extract_scid(&wire), Some(vec![2u8; 8]));
        // Short header: no SCID.
        let short = Packet::new(
            PacketType::OneRtt,
            cid(1),
            ConnectionId::default(),
            0,
            vec![Frame::Ping],
        );
        assert_eq!(extract_scid(&short.encode()), None);
    }

    #[test]
    fn ack_eliciting_packets() {
        let data = initial_packet(vec![Frame::Crypto {
            offset: 0,
            data: vec![1],
        }]);
        assert!(data.is_ack_eliciting());
        let ack_only = initial_packet(vec![Frame::Ack {
            largest: 0,
            delay: 0,
            first_range: 0,
        }]);
        assert!(!ack_only.is_ack_eliciting());
        let ack_padded = initial_packet(vec![
            Frame::Ack {
                largest: 0,
                delay: 0,
                first_range: 0,
            },
            Frame::Padding { n: 100 },
        ]);
        assert!(!ack_padded.is_ack_eliciting());
    }

    #[test]
    fn byte_accounting_helpers() {
        let pkt = initial_packet(vec![
            Frame::Crypto {
                offset: 0,
                data: vec![5; 250],
            },
            Frame::Padding { n: 40 },
        ]);
        assert_eq!(pkt.crypto_data_len(), 250);
        assert_eq!(pkt.padding_len(), 40);
    }

    #[test]
    fn malformed_datagrams_are_rejected() {
        assert_eq!(parse_datagram(&[0xC1, 0x00]), None);
        let pkt = initial_packet(vec![Frame::Ping]);
        let wire = pkt.encode();
        assert_eq!(parse_datagram(&wire[..wire.len() - 1]), None);
    }

    #[test]
    fn connection_id_from_seed_is_stable() {
        assert_eq!(ConnectionId::from_seed(5), ConnectionId::from_seed(5));
        assert_ne!(ConnectionId::from_seed(5), ConnectionId::from_seed(6));
        assert_eq!(ConnectionId::from_seed(5).len(), 8);
    }
}
