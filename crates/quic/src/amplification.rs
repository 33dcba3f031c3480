//! Anti-amplification accounting, including the historical IETF policies.
//!
//! Table 3 of the paper traces how the QUIC drafts evolved their
//! amplification mitigation: from nothing (draft-01), via a minimum client
//! Initial size (draft-02), a three-*packet* limit (draft-10), a
//! three-*datagram* limit (draft-13), to the final three-times-bytes rule
//! (draft-15 onward, RFC 9000). [`LimitPolicy`] implements each so the
//! workspace can ablate them. The 3× rule itself is [`limit`]; every
//! anti-amplification limit in the workspace reads it.
//!
//! `AmplificationBudget` is the server-side account. Its `send` answers
//! "may I send this datagram to this unvalidated peer?", stamps the stall a
//! refusal begins, and counts the wire bytes actually sent before
//! validation, charged or not. Its `excess` — always kept — is the most
//! those bytes ever exceeded `limit(received)`: zero for a server charging
//! every byte under [`LimitPolicy::RFC9000`], how far past 3× for one
//! leaving padding (§4.1) or resends (§4.3) uncharged.

use quicert_netsim::SimTime;

/// RFC 9000 §8.1: before validating the client's address, a server sends
/// at most this many times the bytes it received.
pub const FACTOR: usize = 3;

/// The anti-amplification limit on bytes sent after `received` bytes
/// arrived from an unvalidated address.
pub const fn limit(received: usize) -> usize {
    FACTOR * received
}

/// An anti-amplification policy, as specified by successive QUIC drafts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitPolicy {
    /// Draft-01: amplification mentioned, but no server-side limit.
    Unlimited,
    /// Draft-10..12: at most three Handshake *packets* to an unverified
    /// source address.
    ThreePackets,
    /// Draft-13..14: at most three *datagrams* (Initial + Handshake) to an
    /// unverified source address.
    ThreeDatagrams,
    /// Draft-15..RFC 9000: at most three times the *bytes* received from
    /// the unverified address.
    ThreeTimesBytes,
}

impl LimitPolicy {
    /// The policy of RFC 9000 (and drafts 15+).
    pub const RFC9000: LimitPolicy = LimitPolicy::ThreeTimesBytes;

    /// All policies, in historical order (Table 3).
    pub const HISTORY: [LimitPolicy; 4] = [
        LimitPolicy::Unlimited,
        LimitPolicy::ThreePackets,
        LimitPolicy::ThreeDatagrams,
        LimitPolicy::ThreeTimesBytes,
    ];

    /// Human-readable label with the draft range, as in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            LimitPolicy::Unlimited => "draft-01..09: no server limit",
            LimitPolicy::ThreePackets => "draft-10..12: <=3 handshake packets",
            LimitPolicy::ThreeDatagrams => "draft-13..14: <=3 datagrams",
            LimitPolicy::ThreeTimesBytes => "draft-15..RFC9000: <=3x received bytes",
        }
    }
}

/// Per-connection amplification account kept by a server until the client's
/// address is validated.
#[derive(Debug, Clone)]
pub(crate) struct AmplificationBudget {
    policy: LimitPolicy,
    /// Bytes received from the (unvalidated) client address.
    received_bytes: usize,
    /// Bytes charged for sent data (implementations with accounting bugs
    /// may charge less than they send — see [`Self::send`]).
    charged_bytes: usize,
    /// Datagrams sent while unvalidated.
    sent_datagrams: usize,
    /// Packets sent while unvalidated.
    sent_packets: usize,
    /// Wire bytes sent while unvalidated, charged or not.
    sent_bytes: usize,
    /// High-water mark of `sent_bytes - limit(received_bytes)`.
    excess: usize,
    validated: bool,
    /// When a send was first refused, and when one next went out.
    stall: (Option<SimTime>, Option<SimTime>),
}

impl AmplificationBudget {
    /// Fresh budget under `policy`.
    pub(crate) fn new(policy: LimitPolicy) -> Self {
        AmplificationBudget {
            policy,
            received_bytes: 0,
            charged_bytes: 0,
            sent_datagrams: 0,
            sent_packets: 0,
            sent_bytes: 0,
            excess: 0,
            validated: false,
            stall: (None, None),
        }
    }

    /// Record bytes received from the client (UDP payload).
    pub(crate) fn on_receive(&mut self, bytes: usize) {
        self.received_bytes += bytes;
    }

    /// Mark the client address as validated; all limits lift.
    pub(crate) fn validate(&mut self) {
        self.validated = true;
    }

    /// Bytes charged against the budget so far.
    #[cfg(test)]
    pub(crate) fn charged(&self) -> usize {
        self.charged_bytes
    }

    /// The most wire bytes ever sent past [`limit`] of those received before
    /// validation: 0 for a server that kept the 3× rule.
    pub(crate) fn excess(&self) -> usize {
        self.excess
    }

    /// When a send was first refused, and when the first datagram left
    /// after that — the amplification-stall phase of the handshake.
    pub(crate) fn stall(&self) -> (Option<SimTime>, Option<SimTime>) {
        self.stall
    }

    /// Whether a datagram charging `bytes` (containing `packets` packets)
    /// may be sent right now under the policy.
    fn allows(&self, bytes: usize, packets: usize) -> bool {
        if self.validated {
            return true;
        }
        match self.policy {
            LimitPolicy::Unlimited => true,
            LimitPolicy::ThreePackets => self.sent_packets + packets <= 3,
            LimitPolicy::ThreeDatagrams => self.sent_datagrams < 3,
            LimitPolicy::ThreeTimesBytes => {
                self.charged_bytes + bytes <= limit(self.received_bytes)
            }
        }
    }

    /// Send, at `now`, a datagram of `wire` bytes and `packets` packets,
    /// charging `charged` of them — fewer than `wire` where a server leaves
    /// padding (§4.1) or resends (§4.3) uncharged. Whether the policy lets
    /// it go; a refusal sends nothing and begins the stall, if none had.
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        wire: usize,
        charged: usize,
        packets: usize,
    ) -> bool {
        if !self.allows(charged, packets) {
            self.stall.0.get_or_insert(now);
            return false;
        }
        if self.stall.0.is_some() {
            self.stall.1.get_or_insert(now);
        }
        self.charged_bytes += charged;
        self.sent_datagrams += 1;
        self.sent_packets += packets;
        if !self.validated {
            self.sent_bytes += wire;
            let over = self.sent_bytes.saturating_sub(limit(self.received_bytes));
            self.excess = self.excess.max(over);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn rfc9000_three_times_bytes() {
        let mut b = AmplificationBudget::new(LimitPolicy::RFC9000);
        b.on_receive(1200);
        assert!(b.allows(3600, 3));
        assert!(!b.allows(3601, 3));
        assert!(b.send(T0, 3000, 3000, 3));
        assert!(b.allows(600, 1));
        assert!(!b.allows(601, 1));
        assert!(b.send(T0, 600, 600, 1));
        assert!(!b.send(T0, 1, 1, 1), "the budget is spent");
        assert_eq!(b.charged(), limit(1200));
        assert_eq!(b.excess(), 0);
    }

    #[test]
    fn a_refusal_begins_the_stall_and_the_next_send_ends_it() {
        let at = |ms| SimTime::ZERO + quicert_netsim::SimDuration::from_millis(ms);
        let mut b = AmplificationBudget::new(LimitPolicy::RFC9000);
        b.on_receive(100);
        assert!(b.send(at(1), 300, 300, 1));
        assert_eq!(b.stall(), (None, None));
        assert!(!b.send(at(2), 10, 10, 1));
        assert!(!b.send(at(3), 10, 10, 1), "a second refusal moves nothing");
        assert_eq!(b.stall(), (Some(at(2)), None));
        b.on_receive(40);
        assert!(b.send(at(4), 10, 10, 1));
        assert!(b.send(at(5), 10, 10, 1));
        assert_eq!(b.stall(), (Some(at(2)), Some(at(4))));
    }

    #[test]
    fn validation_lifts_all_limits() {
        let mut b = AmplificationBudget::new(LimitPolicy::RFC9000);
        b.on_receive(10);
        assert!(!b.allows(1000, 1));
        b.validate();
        assert!(b.send(T0, 1_000_000, 1_000_000, 100));
        assert_eq!(b.excess(), 0, "bytes after validation are not counted");
    }

    #[test]
    fn three_packets_policy_counts_packets_not_bytes() {
        let mut b = AmplificationBudget::new(LimitPolicy::ThreePackets);
        b.on_receive(1);
        assert!(b.send(T0, 100_000, 100_000, 3));
        assert!(!b.allows(1, 1));
        // The draft-10 policy bounds packets, so it breaks 3x on purpose.
        assert_eq!(b.excess(), 100_000 - limit(1));
    }

    #[test]
    fn three_datagrams_policy() {
        let mut b = AmplificationBudget::new(LimitPolicy::ThreeDatagrams);
        b.on_receive(1);
        for _ in 0..3 {
            assert!(b.send(T0, 50_000, 50_000, 4));
        }
        assert!(!b.allows(1, 1));
    }

    #[test]
    fn unlimited_policy_never_blocks() {
        let mut b = AmplificationBudget::new(LimitPolicy::Unlimited);
        assert!(b.send(T0, 1_000, usize::MAX / 2, 1000));
        assert!(b.allows(usize::MAX / 2, 1000));
    }

    #[test]
    fn undercharging_models_accounting_bugs() {
        // A Cloudflare-style server sends 1200 wire bytes but charges only
        // the unpadded 100: the budget thinks there is room left even when
        // the wire has exceeded 3x, and the excess says by how much.
        let mut b = AmplificationBudget::new(LimitPolicy::RFC9000);
        b.on_receive(500); // limit = 1500
        assert!(b.send(T0, 1200, 100, 1));
        assert!(b.allows(1400, 1), "budget believes 1400 still fits");
        assert_eq!(b.charged(), 100);
        assert!(b.send(T0, 1200, 100, 1));
        assert_eq!(b.excess(), 2400 - limit(500));
        assert_eq!(b.excess(), 900);
    }

    #[test]
    fn more_receipts_grow_the_budget() {
        let mut b = AmplificationBudget::new(LimitPolicy::RFC9000);
        b.on_receive(1200);
        assert!(b.send(T0, 3600, 3600, 3));
        assert!(!b.allows(1, 1));
        b.on_receive(40); // a client ACK arrives (but no validation yet)
        assert!(b.allows(120, 1));
    }

    #[test]
    fn history_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            LimitPolicy::HISTORY.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
