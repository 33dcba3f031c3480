//! [`FaultPlan`]: a named chaos-scenario overlay for campaigns.
//!
//! A [`crate::profile::NetworkProfile`] models one fixed set of path
//! conditions; the chaos axis instead sweeps fault *intensity* as an
//! orthogonal grid: loss × duplication × corruption probabilities packaged
//! as a plan that overlays the wire's [`crate::fault::FaultInjector`]s the
//! same way profiles do. Probabilities are stored in per-mille units so a
//! plan is `Eq + Hash` and can key engine artifact caches directly.
//!
//! [`FaultPlan::NONE`] is the identity: it arms nothing, draws no RNG, and
//! keeps every existing scan byte-for-byte unchanged. Any other plan arms a
//! fault injector, which makes the wire non-deterministic — scenario-class
//! memoization must (and does, via [`Wire::is_deterministic`]) bypass it.

use crate::event::Wire;

/// A chaos scenario: loss × duplication × corruption intensities applied
/// as a wire overlay. Probabilities are per-mille (`30` = 3%), making the
/// plan hashable and exact — no float keys in artifact caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Label used in reports and artifact keys.
    pub name: &'static str,
    /// Per-direction datagram drop probability, per mille.
    pub drop_per_mille: u16,
    /// Probability of a surviving datagram being delivered twice, per
    /// mille (both directions).
    pub duplicate_per_mille: u16,
    /// Server→client payload corruption probability, per mille.
    pub corrupt_per_mille: u16,
}

impl FaultPlan {
    /// The identity plan: no faults, no RNG draws, no behaviour change.
    pub const NONE: FaultPlan = FaultPlan {
        name: "none",
        drop_per_mille: 0,
        duplicate_per_mille: 0,
        corrupt_per_mille: 0,
    };

    /// Light chaos: ~1% loss with occasional duplication and corruption.
    pub const LIGHT: FaultPlan = FaultPlan {
        name: "light",
        drop_per_mille: 10,
        duplicate_per_mille: 5,
        corrupt_per_mille: 2,
    };

    /// Moderate chaos: ~3% loss — the same order as the lossy profile.
    pub const MODERATE: FaultPlan = FaultPlan {
        name: "moderate",
        drop_per_mille: 30,
        duplicate_per_mille: 15,
        corrupt_per_mille: 8,
    };

    /// Heavy chaos: ~8% loss; recovery machinery dominates handshake cost.
    pub const HEAVY: FaultPlan = FaultPlan {
        name: "heavy",
        drop_per_mille: 80,
        duplicate_per_mille: 40,
        corrupt_per_mille: 20,
    };

    /// A duplication-flavoured scenario: no loss at all, but a quarter of
    /// datagrams arrive twice (spurious retransmission / routing
    /// duplication). This is the rung that exercises
    /// [`crate::fault::FaultInjector::duplicate_chance`] outside unit tests.
    pub const DUP_STORM: FaultPlan = FaultPlan {
        name: "dup-storm",
        drop_per_mille: 0,
        duplicate_per_mille: 250,
        corrupt_per_mille: 0,
    };

    /// The intensity ladder swept by the chaos grid, baseline first.
    pub const LADDER: [FaultPlan; 5] = [
        FaultPlan::NONE,
        FaultPlan::LIGHT,
        FaultPlan::MODERATE,
        FaultPlan::HEAVY,
        FaultPlan::DUP_STORM,
    ];

    /// Drop probability as a float chance.
    pub(crate) fn drop_chance(self) -> f64 {
        self.drop_per_mille as f64 / 1000.0
    }

    /// Duplication probability as a float chance.
    pub(crate) fn duplicate_chance(self) -> f64 {
        self.duplicate_per_mille as f64 / 1000.0
    }

    /// Corruption probability as a float chance.
    pub fn corrupt_chance(self) -> f64 {
        self.corrupt_per_mille as f64 / 1000.0
    }

    /// Whether this plan arms any fault injector at all.
    pub fn is_none(self) -> bool {
        self.drop_per_mille == 0 && self.duplicate_per_mille == 0 && self.corrupt_per_mille == 0
    }

    /// Whether a wire under this plan stays RNG-free. Mirrors
    /// [`crate::fault::FaultInjector::is_deterministic`]: any nonzero
    /// chance draws from the session RNG per datagram, so the handshake
    /// outcome stops being a pure function of its scenario class and the
    /// memoization layer must bypass it.
    pub fn is_deterministic(self) -> bool {
        self.is_none()
    }

    /// Overlay this plan onto a wire, mirroring how
    /// [`crate::profile::NetworkProfile`] overlays merge: `max()`, never
    /// replacement, so a wire that is already worse keeps its own faults
    /// (and its accumulated counters). Drops and duplications apply in
    /// both directions; corruption targets the server→client direction
    /// like the lossy profile.
    pub fn apply(self, wire: &mut Wire) {
        if self.is_none() {
            return;
        }
        let drop = self.drop_chance();
        wire.fault_a_to_b.drop_chance = wire.fault_a_to_b.drop_chance.max(drop);
        wire.fault_b_to_a.drop_chance = wire.fault_b_to_a.drop_chance.max(drop);
        let dup = self.duplicate_chance();
        wire.fault_a_to_b.duplicate_chance = wire.fault_a_to_b.duplicate_chance.max(dup);
        wire.fault_b_to_a.duplicate_chance = wire.fault_b_to_a.duplicate_chance.max(dup);
        wire.fault_b_to_a.corrupt_chance =
            wire.fault_b_to_a.corrupt_chance.max(self.corrupt_chance());
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
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
    fn overlaid(overlay: FaultPlan, base: &Wire) -> Wire {
        let mut wire = base.clone();
        overlay.apply(&mut wire);
        wire
    }

    #[test]
    fn none_is_the_identity() {
        let wire = overlaid(FaultPlan::NONE, &base());
        assert_eq!(wire.fault_a_to_b.drop_chance, 0.0);
        assert_eq!(wire.fault_a_to_b.duplicate_chance, 0.0);
        assert_eq!(wire.fault_b_to_a.corrupt_chance, 0.0);
        assert!(wire.is_deterministic());
        assert!(FaultPlan::NONE.is_deterministic());
        assert!(FaultPlan::default().is_none());
    }

    #[test]
    fn ladder_arms_injectors_monotonically() {
        let rungs = [FaultPlan::LIGHT, FaultPlan::MODERATE, FaultPlan::HEAVY];
        let mut prev = 0.0;
        for plan in rungs {
            let wire = overlaid(plan, &base());
            assert!(wire.fault_a_to_b.drop_chance > prev, "{plan}");
            assert_eq!(wire.fault_a_to_b.drop_chance, plan.drop_chance());
            assert_eq!(wire.fault_b_to_a.duplicate_chance, plan.duplicate_chance());
            assert_eq!(wire.fault_b_to_a.corrupt_chance, plan.corrupt_chance());
            prev = wire.fault_a_to_b.drop_chance;
        }
    }

    #[test]
    fn determinism_predicate_matches_the_planned_wire() {
        // Mirror of the NetworkProfile predicate test: the plan-level
        // shortcut must agree with the component-level RNG audit of the
        // wire it produces. In particular a purely *duplicating* wire is
        // non-deterministic, so the memo path can never replay it.
        for plan in FaultPlan::LADDER {
            let wire = overlaid(plan, &base());
            assert_eq!(wire.is_deterministic(), plan.is_deterministic(), "{plan}");
        }
        let dup_wire = overlaid(FaultPlan::DUP_STORM, &base());
        assert_eq!(dup_wire.fault_a_to_b.drop_chance, 0.0);
        assert!(dup_wire.fault_a_to_b.duplicate_chance > 0.0);
        assert!(!dup_wire.is_deterministic());
        assert!(!FaultPlan::DUP_STORM.is_deterministic());
    }

    #[test]
    fn overlay_merges_with_max_not_replacement() {
        let mut heavy = base();
        heavy.fault_a_to_b.drop_chance = 0.5;
        heavy.fault_b_to_a.duplicate_chance = 0.9;
        let wire = overlaid(FaultPlan::LIGHT, &heavy);
        assert_eq!(wire.fault_a_to_b.drop_chance, 0.5);
        assert_eq!(wire.fault_b_to_a.duplicate_chance, 0.9);
        assert_eq!(
            wire.fault_b_to_a.drop_chance,
            FaultPlan::LIGHT.drop_chance()
        );
    }

    #[test]
    fn ladder_names_are_distinct() {
        let mut names: Vec<&str> = FaultPlan::LADDER.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultPlan::LADDER.len());
    }
}
