//! STEK-encrypted session tickets.
//!
//! A server hands clients an opaque *ticket* after a completed handshake
//! (RFC 8446 §4.6.1); offering it back as a PSK identity lets a later
//! handshake skip certificate authentication entirely. The ticket is
//! self-contained server state sealed under a Session Ticket Encryption Key
//! (STEK): the server keeps no per-client table, only the key.
//!
//! STEKs rotate on a fixed wall-clock period. A ticket names the key epoch
//! it was sealed under; the server accepts the current epoch and the
//! immediately previous one (so rotation never invalidates a fresh ticket
//! mid-flight), and anything older deterministically falls back to the cold
//! path — exactly the failure mode the resumption experiments measure.

/// Encoded ticket identity length: epoch (8) ‖ ciphertext (24) ‖ tag (8).
pub const TICKET_LEN: usize = 40;

const PLAINTEXT_LEN: usize = 24;

/// splitmix64-style mixer: the deterministic stand-in for key derivation
/// and keystream generation (same family as the rest of the workspace).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The big-endian `u64` at `bytes[at..at + 8]`.
fn be_u64(bytes: &[u8], at: usize) -> u64 {
    bytes[at..at + 8]
        .iter()
        .fold(0, |v, &b| v << 8 | u64::from(b))
}

/// FNV-1a over a byte string (SNI binding).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Ticket lifetime and STEK rotation parameters, in simulated wall-clock
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketConfig {
    /// Seconds a ticket stays valid after issuance (RFC 8446 caps the
    /// advertised lifetime at 7 days; deployments commonly use hours).
    pub lifetime_secs: u64,
    /// STEK rotation period. Tickets sealed two or more epochs ago are
    /// rejected even when their lifetime has not elapsed.
    pub rotation_secs: u64,
}

impl Default for TicketConfig {
    fn default() -> Self {
        TicketConfig {
            lifetime_secs: 7_200,
            rotation_secs: 3_600,
        }
    }
}

impl TicketConfig {
    /// The STEK epoch in force at `now_secs`.
    pub fn epoch_at(&self, now_secs: u64) -> u64 {
        now_secs / self.rotation_secs.max(1)
    }
}

/// A session ticket as the client holds it: the opaque identity plus the
/// metadata the NewSessionTicket message carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTicket {
    /// Opaque identity bytes (what goes back in the PSK offer).
    pub identity: Vec<u8>,
    /// Advertised lifetime, seconds.
    pub lifetime_secs: u64,
    /// The ticket_age_add obfuscation value.
    pub age_add: u32,
    /// Wall-clock second the client obtained the ticket.
    pub obtained_at_secs: u64,
}

impl SessionTicket {
    /// The obfuscated ticket age the PSK offer carries (RFC 8446 §4.2.11:
    /// age in milliseconds plus `ticket_age_add`, mod 2³²).
    pub fn obfuscated_age(&self, now_secs: u64) -> u32 {
        let age_ms = now_secs.saturating_sub(self.obtained_at_secs) * 1_000;
        (age_ms as u32).wrapping_add(self.age_add)
    }
}

/// Why a ticket was (or was not) accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketValidation {
    /// Ticket decrypts under an accepted STEK, binds to the offered SNI,
    /// and is within its lifetime; `age_secs` is the server-side age.
    Valid {
        /// Seconds since issuance, per the sealed timestamp.
        age_secs: u64,
    },
    /// The sealing epoch is older than the previous-key acceptance window:
    /// the STEK has rotated away.
    RotatedKey,
    /// Decrypted fine but the sealed issuance time is past the lifetime.
    Expired,
    /// Bound to a different SNI than offered.
    WrongSni,
    /// Wrong length, future epoch, or MAC mismatch (tampered/garbage).
    Malformed,
}

impl TicketValidation {
    /// Whether the offer is accepted (the handshake may resume).
    pub fn accepted(self) -> bool {
        matches!(self, TicketValidation::Valid { .. })
    }
}

/// Server-side ticket issuance and validation under a rotating STEK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketIssuer {
    /// Master key seed all epoch STEKs derive from.
    pub master_seed: u64,
    /// Lifetime / rotation parameters.
    pub config: TicketConfig,
}

impl TicketIssuer {
    /// Create an issuer.
    pub fn new(master_seed: u64, config: TicketConfig) -> Self {
        TicketIssuer {
            master_seed,
            config,
        }
    }

    /// The STEK for one epoch.
    fn stek(&self, epoch: u64) -> u64 {
        mix(self.master_seed ^ epoch.wrapping_mul(0x5349_4D5F_5354_454B))
    }

    fn keystream_byte(key: u64, i: usize) -> u8 {
        (mix(key ^ i as u64) >> 24) as u8
    }

    fn tag(key: u64, plaintext: &[u8]) -> [u8; 8] {
        (mix(key ^ fnv1a(plaintext))).to_be_bytes()
    }

    /// Seal a ticket for `sni` at `now_secs`. `nonce` differentiates
    /// multiple tickets issued within one second.
    pub fn issue(&self, sni: &str, now_secs: u64, nonce: u64) -> Vec<u8> {
        let epoch = self.config.epoch_at(now_secs);
        let key = self.stek(epoch);
        let mut plaintext = [0u8; PLAINTEXT_LEN];
        plaintext[0..8].copy_from_slice(&now_secs.to_be_bytes());
        plaintext[8..16].copy_from_slice(&fnv1a(sni.as_bytes()).to_be_bytes());
        plaintext[16..24].copy_from_slice(&nonce.to_be_bytes());

        let mut identity = Vec::with_capacity(TICKET_LEN);
        identity.extend_from_slice(&epoch.to_be_bytes());
        for (i, &p) in plaintext.iter().enumerate() {
            identity.push(p ^ Self::keystream_byte(key, i));
        }
        identity.extend_from_slice(&Self::tag(key, &plaintext));
        identity
    }

    /// Validate an offered identity against the STEK in force at
    /// `now_secs`, the offered `sni`, and the lifetime.
    pub fn validate(&self, identity: &[u8], sni: &str, now_secs: u64) -> TicketValidation {
        if identity.len() != TICKET_LEN {
            return TicketValidation::Malformed;
        }
        let epoch = be_u64(identity, 0);
        let current = self.config.epoch_at(now_secs);
        if epoch > current {
            return TicketValidation::Malformed;
        }
        if current - epoch > 1 {
            return TicketValidation::RotatedKey;
        }
        let key = self.stek(epoch);
        let mut plaintext = [0u8; PLAINTEXT_LEN];
        for (i, p) in plaintext.iter_mut().enumerate() {
            *p = identity[8 + i] ^ Self::keystream_byte(key, i);
        }
        if identity[8 + PLAINTEXT_LEN..] != Self::tag(key, &plaintext) {
            return TicketValidation::Malformed;
        }
        let issued_at = be_u64(&plaintext, 0);
        let sni_hash = be_u64(&plaintext, 8);
        if sni_hash != fnv1a(sni.as_bytes()) {
            return TicketValidation::WrongSni;
        }
        if issued_at > now_secs {
            return TicketValidation::Malformed;
        }
        let age_secs = now_secs - issued_at;
        if age_secs > self.config.lifetime_secs {
            return TicketValidation::Expired;
        }
        TicketValidation::Valid { age_secs }
    }
}

/// Everything a QUIC server needs to participate in resumption: the ticket
/// issuer plus the server's current wall clock and whether it hands out
/// fresh tickets after complete handshakes.
///
/// `None` on a server config means no resumption support at all — the
/// pre-subsystem behaviour, preserved byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumptionHost {
    /// Ticket sealing/validation state.
    pub issuer: TicketIssuer,
    /// The server's wall clock at handshake start (simulated seconds; the
    /// scenario axis advances this between the cold and warm visits).
    pub now_secs: u64,
    /// Issue a NewSessionTicket after each completed handshake.
    pub issue_tickets: bool,
}

impl ResumptionHost {
    /// A ticket-issuing host with default lifetimes.
    pub fn issuing(master_seed: u64, now_secs: u64) -> Self {
        ResumptionHost {
            issuer: TicketIssuer::new(master_seed, TicketConfig::default()),
            now_secs,
            issue_tickets: true,
        }
    }

    /// The same host observed at a later wall-clock instant, no longer
    /// issuing (the warm-visit side of a scan).
    pub fn revisited_at(mut self, now_secs: u64) -> Self {
        self.now_secs = now_secs;
        self.issue_tickets = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issuer() -> TicketIssuer {
        TicketIssuer::new(0xABCD, TicketConfig::default())
    }

    #[test]
    fn roundtrip_accepts_fresh_ticket() {
        let iss = issuer();
        let t = iss.issue("example.org", 1_000_000, 7);
        assert_eq!(t.len(), TICKET_LEN);
        assert_eq!(
            iss.validate(&t, "example.org", 1_000_030),
            TicketValidation::Valid { age_secs: 30 }
        );
    }

    #[test]
    fn expired_ticket_is_rejected() {
        let iss = issuer();
        // Keep both instants inside one rotation window so the *lifetime*
        // is the binding constraint (lifetime < rotation here would never
        // trigger; defaults have lifetime 2x rotation, so force epochs).
        let cfg = TicketConfig {
            lifetime_secs: 100,
            rotation_secs: 1_000_000,
        };
        let iss = TicketIssuer::new(iss.master_seed, cfg);
        let t = iss.issue("example.org", 500, 0);
        assert_eq!(
            iss.validate(&t, "example.org", 700),
            TicketValidation::Expired
        );
    }

    #[test]
    fn previous_epoch_accepted_older_rejected() {
        let iss = issuer();
        let rot = iss.config.rotation_secs;
        let t = iss.issue("a.example", 10 * rot, 0);
        // Same epoch and the next one: accepted (lifetime 2x rotation).
        assert!(iss.validate(&t, "a.example", 10 * rot + 5).accepted());
        assert!(iss.validate(&t, "a.example", 11 * rot + 5).accepted());
        // Two rotations later the key is gone.
        assert_eq!(
            iss.validate(&t, "a.example", 12 * rot + 5),
            TicketValidation::RotatedKey
        );
    }

    #[test]
    fn wrong_sni_and_tampering_are_rejected() {
        let iss = issuer();
        let t = iss.issue("a.example", 5_000, 1);
        assert_eq!(
            iss.validate(&t, "b.example", 5_010),
            TicketValidation::WrongSni
        );
        let mut bad = t.clone();
        bad[20] ^= 0xFF;
        assert_eq!(
            iss.validate(&bad, "a.example", 5_010),
            TicketValidation::Malformed
        );
        assert_eq!(
            iss.validate(&t[..10], "a.example", 5_010),
            TicketValidation::Malformed
        );
    }

    #[test]
    fn future_epoch_is_malformed() {
        let iss = issuer();
        let t = iss.issue("a.example", 1_000_000, 0);
        assert_eq!(
            iss.validate(&t, "a.example", 10),
            TicketValidation::Malformed
        );
    }

    #[test]
    fn different_master_seed_rejects() {
        let a = TicketIssuer::new(1, TicketConfig::default());
        let b = TicketIssuer::new(2, TicketConfig::default());
        let t = a.issue("x.example", 9_999, 0);
        assert!(a.validate(&t, "x.example", 9_999).accepted());
        assert_eq!(
            b.validate(&t, "x.example", 9_999),
            TicketValidation::Malformed
        );
    }

    #[test]
    fn obfuscated_age_wraps_with_age_add() {
        let t = SessionTicket {
            identity: vec![0; TICKET_LEN],
            lifetime_secs: 7_200,
            age_add: u32::MAX,
            obtained_at_secs: 100,
        };
        assert_eq!(t.obfuscated_age(101), 999); // 1000ms + (2^32-1) mod 2^32
    }
}
