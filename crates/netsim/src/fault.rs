//! Fault injection for exchanges.
//!
//! Mirrors the fault-injection options that hosted smoltcp examples expose
//! (`--drop-chance`, `--corrupt-chance`): independent of the link model, a
//! [`FaultInjector`] can be layered onto an exchange to test how handshake
//! classification behaves under adverse conditions — this drives the
//! loss/resend experiments behind Figure 9.

use crate::datagram::Datagram;
use crate::rng::SimRng;

/// Configurable datagram mangler.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// Probability of silently dropping a datagram.
    pub drop_chance: f64,
    /// Probability of flipping one random byte of the payload.
    pub corrupt_chance: f64,
    /// Probability of delivering a surviving datagram twice (spurious
    /// retransmission / routing duplication).
    pub duplicate_chance: f64,
    drops: u64,
    corruptions: u64,
    duplications: u64,
}

impl FaultInjector {
    /// Whether this injector never draws from the session RNG: every
    /// random fault probability is zero.
    pub fn is_deterministic(&self) -> bool {
        self.drop_chance == 0.0 && self.corrupt_chance == 0.0 && self.duplicate_chance == 0.0
    }

    /// An injector that drops datagrams with probability `p`.
    pub fn dropping(p: f64) -> Self {
        FaultInjector {
            drop_chance: p,
            ..FaultInjector::default()
        }
    }

    /// Apply faults to a datagram. Returns `None` when the datagram is
    /// dropped, otherwise the (possibly corrupted) datagram.
    pub fn apply(&mut self, rng: &mut SimRng, mut dgram: Datagram) -> Option<Datagram> {
        self.survives(rng, &mut dgram.payload).then_some(dgram)
    }

    /// [`FaultInjector::apply`] to a payload in place: `false` when the
    /// datagram is dropped, which leaves the payload to the caller.
    pub(crate) fn survives(&mut self, rng: &mut SimRng, payload: &mut [u8]) -> bool {
        if self.drop_chance > 0.0 && rng.chance(self.drop_chance) {
            self.drops += 1;
            return false;
        }
        if self.corrupt_chance > 0.0 && !payload.is_empty() && rng.chance(self.corrupt_chance) {
            let idx = rng.below(payload.len() as u64) as usize;
            payload[idx] ^= 0x20;
            self.corruptions += 1;
        }
        true
    }

    /// Decide whether a datagram that survived [`FaultInjector::apply`]
    /// should additionally be delivered a second time. Draws from the
    /// session RNG only when `duplicate_chance` is nonzero, so existing
    /// profiles stay bit-for-bit unchanged.
    pub(crate) fn maybe_duplicate(&mut self, rng: &mut SimRng) -> bool {
        if self.duplicate_chance > 0.0 && rng.chance(self.duplicate_chance) {
            self.duplications += 1;
            true
        } else {
            false
        }
    }

    /// Number of datagrams dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Number of datagrams corrupted so far.
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }

    /// Number of datagrams duplicated so far.
    pub(crate) fn duplications(&self) -> u64 {
        self.duplications
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn dg(len: usize) -> Datagram {
        Datagram::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            vec![0x55; len],
        )
    }

    #[test]
    fn none_passes_everything_through() {
        let mut inj = FaultInjector::default();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert!(inj.apply(&mut rng, dg(100)).is_some());
        }
        assert_eq!(inj.drops(), 0);
        assert_eq!(inj.corruptions(), 0);
    }

    #[test]
    fn drop_chance_is_statistical() {
        let mut inj = FaultInjector::dropping(0.5);
        let mut rng = SimRng::new(3);
        let survived = (0..10_000)
            .filter(|_| inj.apply(&mut rng, dg(10)).is_some())
            .count();
        let rate = survived as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "survival rate was {rate}");
    }

    #[test]
    fn duplication_counts_and_never_draws_when_disabled() {
        let mut inj = FaultInjector {
            duplicate_chance: 1.0,
            ..FaultInjector::default()
        };
        assert!(!inj.is_deterministic());
        let mut rng = SimRng::new(5);
        assert!(inj.maybe_duplicate(&mut rng));
        assert!(inj.maybe_duplicate(&mut rng));
        assert_eq!(inj.duplications(), 2);

        // A zero chance must not advance the RNG stream at all.
        let mut off = FaultInjector::default();
        assert!(off.is_deterministic());
        let mut a = SimRng::new(6);
        let mut b = SimRng::new(6);
        assert!(!off.maybe_duplicate(&mut a));
        assert_eq!(a.below(1_000_000), b.below(1_000_000));
        assert_eq!(off.duplications(), 0);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let mut inj = FaultInjector {
            corrupt_chance: 1.0,
            ..FaultInjector::default()
        };
        let mut rng = SimRng::new(4);
        let original = dg(64);
        let mangled = inj.apply(&mut rng, original.clone()).unwrap();
        let diffs = original
            .payload
            .iter()
            .zip(&mangled.payload)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        assert_eq!(inj.corruptions(), 1);
    }
}
