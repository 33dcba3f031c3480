//! Network scenario profiles: named link-condition overlays for scans.
//!
//! The paper's measurements come from the real Internet, where paths are
//! lossy, long, and sometimes tunneled. A [`NetworkProfile`] packages one
//! such condition as an overlay on a base [`Wire`] (built from
//! [`crate::link::LinkModel`] and [`crate::fault::FaultInjector`]
//! settings), giving campaigns a
//! scenario axis orthogonal to the Initial-size sweep: the same service
//! population can be scanned under ideal, lossy, long-fat or tunneled
//! paths and the handshake-class shares compared per profile.
//!
//! [`NetworkProfile::Ideal`] applies no overlay at all, so an ideal-profile
//! campaign reproduces the pre-profile pipeline byte-for-byte.

use crate::event::Wire;
use crate::faultplan::FaultPlan;
use crate::time::SimDuration;

/// A named link-condition overlay applied on top of a base wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkProfile {
    /// The base wire untouched: fixed latency, no loss, no faults. This is
    /// the pre-profile behaviour and the default for every campaign.
    Ideal,
    /// Independent random datagram drops in both directions plus occasional
    /// payload corruption toward the client — the flaky access-network
    /// case. Drops go through the [`crate::fault::FaultInjector`], so
    /// per-session fault counters surface in scan results.
    Lossy,
    /// A long fat network: one-way latency stretched
    /// `LONG_FAT_LATENCY_FACTOR`×
    /// with a few milliseconds of jitter — the intercontinental path case.
    /// Reachability is unchanged, but the jitter exposes how fragile
    /// timing-based handshake classification is: completion is never at
    /// *exactly* one nominal RTT any more, so the 1-RTT and Amplification
    /// classes collapse into Multi-RTT.
    LongFat,
    /// Every client→server datagram pays tunnel encapsulation overhead
    /// before the 1500-byte internal MTU applies — the §4.1 load-balancer
    /// failure imposed on the whole population, so large Initials vanish.
    Tunneled,
}

impl NetworkProfile {
    /// Every profile, in report order (ideal first).
    pub const ALL: [NetworkProfile; 4] = [
        NetworkProfile::Ideal,
        NetworkProfile::Lossy,
        NetworkProfile::LongFat,
        NetworkProfile::Tunneled,
    ];

    /// The faults of the lossy profile: 3% drops per direction and 1%
    /// server→client corruption, no duplication.
    pub(crate) const LOSSY_FAULTS: FaultPlan = FaultPlan {
        name: "lossy",
        drop_per_mille: 30,
        duplicate_per_mille: 0,
        corrupt_per_mille: 10,
    };
    /// Latency multiplier of the long-fat profile.
    pub(crate) const LONG_FAT_LATENCY_FACTOR: u32 = 4;
    /// Jitter added by the long-fat profile.
    pub(crate) const LONG_FAT_JITTER: SimDuration = SimDuration::from_millis(5);
    /// Encapsulation overhead of the tunneled profile (IP-in-IP + GUE-ish).
    pub(crate) const TUNNEL_OVERHEAD: usize = 40;

    /// Label used in reports and artifact keys.
    pub fn name(self) -> &'static str {
        match self {
            NetworkProfile::Ideal => "ideal",
            NetworkProfile::Lossy => "lossy",
            NetworkProfile::LongFat => "long-fat",
            NetworkProfile::Tunneled => "tunneled",
        }
    }

    /// Overlay this profile onto a base wire. [`NetworkProfile::Ideal`] is
    /// the identity, so ideal-profile scans stay bit-for-bit identical to
    /// profile-unaware ones.
    pub fn apply(self, wire: &mut Wire) {
        match self {
            NetworkProfile::Ideal => {}
            // Overlay, not replacement: a wire with heavier faults (or
            // accumulated counters) keeps them, mirroring Tunneled.
            NetworkProfile::Lossy => Self::LOSSY_FAULTS.apply(wire),
            NetworkProfile::LongFat => {
                wire.a_to_b.latency = wire
                    .a_to_b
                    .latency
                    .saturating_mul(Self::LONG_FAT_LATENCY_FACTOR);
                wire.b_to_a.latency = wire
                    .b_to_a
                    .latency
                    .saturating_mul(Self::LONG_FAT_LATENCY_FACTOR);
                wire.a_to_b.jitter = Self::LONG_FAT_JITTER;
                wire.b_to_a.jitter = Self::LONG_FAT_JITTER;
            }
            NetworkProfile::Tunneled => {
                wire.a_to_b.encapsulation_overhead = wire
                    .a_to_b
                    .encapsulation_overhead
                    .max(Self::TUNNEL_OVERHEAD);
            }
        }
    }

    /// Whether this profile's overlay consumes no randomness: applied to a
    /// deterministic base wire, the profiled wire never draws from the
    /// session RNG, so a handshake outcome is a pure function of its
    /// scenario class.
    ///
    /// [`Ideal`](NetworkProfile::Ideal) is the identity and
    /// [`Tunneled`](NetworkProfile::Tunneled) only adds fixed encapsulation
    /// overhead. [`Lossy`](NetworkProfile::Lossy) arms the fault injectors
    /// and [`LongFat`](NetworkProfile::LongFat) adds jitter — both draw RNG
    /// per datagram, so their outcomes depend on the per-record seed beyond
    /// the class key. Note "fault-free" is not the same thing: long-fat
    /// injects no faults yet is still non-deterministic through jitter.
    pub fn is_deterministic(self) -> bool {
        matches!(self, NetworkProfile::Ideal | NetworkProfile::Tunneled)
    }
}

impl std::fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn base() -> Wire {
        Wire::ideal(SimDuration::from_millis(20))
    }

    /// A copy of `base` with `overlay` applied.
    fn overlaid(overlay: NetworkProfile, base: &Wire) -> Wire {
        let mut wire = base.clone();
        overlay.apply(&mut wire);
        wire
    }

    #[test]
    fn ideal_is_the_identity() {
        let wire = overlaid(NetworkProfile::Ideal, &base());
        let reference = base();
        assert_eq!(wire.a_to_b.latency, reference.a_to_b.latency);
        assert_eq!(wire.a_to_b.loss, reference.a_to_b.loss);
        assert_eq!(wire.a_to_b.encapsulation_overhead, 0);
        assert_eq!(wire.fault_a_to_b.drop_chance, 0.0);
        assert_eq!(wire.fault_b_to_a.corrupt_chance, 0.0);
    }

    #[test]
    fn lossy_arms_the_fault_injectors() {
        // Per mille to a chance is exact: the very 3% and 1% floats.
        let wire = overlaid(NetworkProfile::Lossy, &base());
        assert_eq!(wire.fault_a_to_b.drop_chance, 0.03);
        assert_eq!(wire.fault_b_to_a.drop_chance, 0.03);
        assert_eq!(wire.fault_b_to_a.corrupt_chance, 0.01);
        assert_eq!(wire.fault_a_to_b.corrupt_chance, 0.0);
        assert_eq!(wire.fault_a_to_b.duplicate_chance, 0.0);
        assert_eq!(wire.fault_b_to_a.duplicate_chance, 0.0);
        // Latency untouched: loss is orthogonal to path length.
        assert_eq!(wire.rtt(), base().rtt());
    }

    #[test]
    fn long_fat_stretches_the_path() {
        let wire = overlaid(NetworkProfile::LongFat, &base());
        assert_eq!(
            wire.a_to_b.latency,
            SimDuration::from_millis(20).saturating_mul(4)
        );
        assert_eq!(wire.a_to_b.jitter, NetworkProfile::LONG_FAT_JITTER);
    }

    #[test]
    fn tunneled_adds_overhead_without_shrinking_existing_tunnels() {
        let wire = overlaid(NetworkProfile::Tunneled, &base());
        assert_eq!(
            wire.a_to_b.encapsulation_overhead,
            NetworkProfile::TUNNEL_OVERHEAD
        );
        // A wire already behind a heavier tunnel keeps its own overhead.
        let mut heavy = base();
        heavy.a_to_b.encapsulation_overhead = 64;
        assert_eq!(
            overlaid(NetworkProfile::Tunneled, &heavy)
                .a_to_b
                .encapsulation_overhead,
            64
        );
    }

    #[test]
    fn determinism_predicate_matches_the_profiled_wire() {
        // The profile-level shortcut must agree with the component-level
        // RNG audit of the wire it actually produces: overlaying onto a
        // deterministic base wire stays deterministic exactly for the
        // profiles the predicate admits.
        for profile in NetworkProfile::ALL {
            let wire = overlaid(profile, &base());
            assert_eq!(
                wire.is_deterministic(),
                profile.is_deterministic(),
                "{profile}"
            );
        }
        assert!(NetworkProfile::Ideal.is_deterministic());
        assert!(NetworkProfile::Tunneled.is_deterministic());
        assert!(!NetworkProfile::Lossy.is_deterministic());
        assert!(!NetworkProfile::LongFat.is_deterministic());
        // A non-deterministic base wire stays non-deterministic under any
        // profile — the predicate only speaks for the overlay.
        let mut jittery = base();
        jittery.a_to_b.jitter = SimDuration::from_millis(1);
        for profile in NetworkProfile::ALL {
            assert!(!overlaid(profile, &jittery).is_deterministic());
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = NetworkProfile::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NetworkProfile::ALL.len());
    }
}
