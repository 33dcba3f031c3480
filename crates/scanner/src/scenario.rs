//! The [`Scenario`]: every condition a scan can vary, as one value.
//!
//! The paper measures one thing — a cold QUIC handshake against a
//! certificate chain — under a handful of varied conditions. Each condition
//! is one field here, and a `Scenario` is the only way conditions travel:
//! every scan family in [`crate::quicreach`] takes one, the engine caches
//! artifacts under one, and the campaign service keys snapshots on one.
//! Adding a condition means adding a field (plus its `with_*` setter) —
//! never a new function family.
//!
//! ## Adding a scenario axis
//!
//! An axis (say, the Instant-ACK `AckPolicy` of *ReACKed QUICer*) touches
//! five places and nothing else — no new engine accessor, no new cache:
//!
//! 1. **The type**: a field here, its [`Scenario::at`] baseline and a
//!    `with_*` setter.
//! 2. **`ProbeClass`** (`quicreach.rs`): add the field to the memo key if
//!    outcomes stay a pure function of the class under it, or extend the
//!    memo gate in `scan_chunk` if the axis draws per-record randomness.
//! 3. **The server or wire builder**: `probe_for` (`quicreach.rs`) hands the
//!    field to `server_config_for_era` / `wire_for_profile` (`behavior.rs`).
//! 4. **One experiment** under `crates/core/src/experiments/` that sweeps
//!    `campaign.scenario().with_<axis>(..)` through the engine.
//! 5. **The report**: a `ReportOptions` toggle and a section rendering that
//!    experiment, then a re-blessed golden report.

use quicert_netsim::{FaultPlan, NetworkProfile};
use quicert_pki::CertificateEra;
use quicert_session::ResumptionPolicy;

/// One fully-specified scan scenario. Every field stores an exact
/// (integer/enum) value, so the type is `Eq + Hash` with no float anywhere
/// and doubles as a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Certificate era the population serves.
    pub era: CertificateEra,
    /// Network path conditions.
    pub profile: NetworkProfile,
    /// Chaos overlay ([`FaultPlan::NONE`] outside fault campaigns).
    pub plan: FaultPlan,
    /// Client Initial size in bytes.
    pub initial_size: usize,
    /// Resumption policy of the warm scan's second visit. Cold scan
    /// families never read it; a warm scan without one revisits under
    /// [`ResumptionPolicy::ColdOnly`] (see [`Scenario::warm_policy`]).
    pub policy: Option<ResumptionPolicy>,
}

impl Scenario {
    /// The paper's baseline at one Initial size: classical certificates
    /// over an ideal, fault-free path, no resumption.
    pub const fn at(initial_size: usize) -> Scenario {
        Scenario {
            era: CertificateEra::Classical,
            profile: NetworkProfile::Ideal,
            plan: FaultPlan::NONE,
            initial_size,
            policy: None,
        }
    }

    /// The same scenario in another certificate era.
    pub fn with_era(self, era: CertificateEra) -> Scenario {
        Scenario { era, ..self }
    }

    /// The same scenario over another network path.
    pub fn with_profile(self, profile: NetworkProfile) -> Scenario {
        Scenario { profile, ..self }
    }

    /// The same scenario under another fault plan.
    pub fn with_plan(self, plan: FaultPlan) -> Scenario {
        Scenario { plan, ..self }
    }

    /// The same scenario at another client Initial size.
    pub fn with_initial_size(self, initial_size: usize) -> Scenario {
        Scenario {
            initial_size,
            ..self
        }
    }

    /// The same scenario revisited warm under `policy`.
    pub fn with_policy(self, policy: ResumptionPolicy) -> Scenario {
        Scenario {
            policy: Some(policy),
            ..self
        }
    }

    /// The same scenario with the resumption policy cleared — the form
    /// cold scan families are cached under.
    pub fn cold(self) -> Scenario {
        Scenario {
            policy: None,
            ..self
        }
    }

    /// The policy a warm scan of this scenario revisits under: the one it
    /// carries, or [`ResumptionPolicy::ColdOnly`] (no ticket is offered)
    /// when it carries none.
    pub fn warm_policy(&self) -> ResumptionPolicy {
        self.policy.unwrap_or(ResumptionPolicy::ColdOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_is_the_papers_baseline_and_setters_touch_one_axis_each() {
        let base = Scenario::at(1362);
        assert_eq!(base.era, CertificateEra::Classical);
        assert_eq!(base.profile, NetworkProfile::Ideal);
        assert_eq!(base.plan, FaultPlan::NONE);
        assert_eq!(base.initial_size, 1362);
        assert_eq!(base.policy, None);
        assert_eq!(base.warm_policy(), ResumptionPolicy::ColdOnly);

        let varied = base
            .with_era(CertificateEra::PostQuantum)
            .with_profile(NetworkProfile::Lossy)
            .with_plan(FaultPlan::HEAVY)
            .with_initial_size(1250)
            .with_policy(ResumptionPolicy::TicketExpired);
        assert_eq!(varied.era, CertificateEra::PostQuantum);
        assert_eq!(varied.profile, NetworkProfile::Lossy);
        assert_eq!(varied.plan, FaultPlan::HEAVY);
        assert_eq!(varied.initial_size, 1250);
        assert_eq!(varied.warm_policy(), ResumptionPolicy::TicketExpired);
        assert_eq!(
            varied.cold(),
            varied.with_policy(ResumptionPolicy::ColdOnly).cold()
        );
        assert_eq!(varied.with_era(CertificateEra::Classical).era, base.era);
    }
}
