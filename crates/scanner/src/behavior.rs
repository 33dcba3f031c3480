//! Mapping from world deployments to concrete QUIC server configurations.

use std::ops::RangeInclusive;

use quicert_netsim::{LinkModel, NetworkProfile, SimDuration, Wire};
use quicert_pki::world::BehaviorKind;
use quicert_pki::{CertificateEra, DomainRecord, World};
use quicert_quic::{ServerBehavior, ServerConfig};
use quicert_x509::CertificateChain;

/// Number of flight transmissions of pre-disclosure Meta PoPs (§4.3: up to
/// 45× amplification, sessions of ~51 s).
pub(crate) const MVFST_PRE_TRANSMISSIONS: u32 = 8;
/// Post-disclosure transmissions (Fig 11(b): mean ~5× remains).
pub(crate) const MVFST_POST_TRANSMISSIONS: u32 = 2;

/// Concrete [`ServerBehavior`] for a deployment's behaviour family.
pub(crate) fn behavior_of(kind: BehaviorKind) -> ServerBehavior {
    match kind {
        BehaviorKind::RfcCompliant => ServerBehavior::rfc_compliant(),
        BehaviorKind::CloudflareLike => ServerBehavior::cloudflare_like(),
        BehaviorKind::MvfstPreDisclosure => ServerBehavior::mvfst_like(MVFST_PRE_TRANSMISSIONS),
        BehaviorKind::RetryFirst => ServerBehavior::retry_first(),
    }
}

/// Build the full QUIC server configuration of a domain in one
/// [`CertificateEra`], taking an already-materialised chain so a caller
/// that loops (e.g. Initial sweeps) issues it once: the chain is expected
/// to come from the same era, and the leaf key (which sizes
/// CertificateVerify) is mapped through [`CertificateEra::key`].
pub fn server_config_for_era(
    world: &World,
    record: &DomainRecord,
    chain: CertificateChain,
    era: CertificateEra,
) -> ServerConfig {
    let quic = record
        .quic
        .as_ref()
        .expect("server_config_for requires a QUIC deployment");
    let mut behavior = behavior_of(quic.behavior);
    // Hypergiants retransmit toward unverified clients without charging the
    // budget (Fig 9: all hypergiants exceed the limit via resends).
    match quic.provider {
        quicert_pki::Provider::Google => {
            behavior.count_resends = false;
            behavior.max_transmissions = 3;
        }
        quicert_pki::Provider::Cloudflare => {
            behavior.count_resends = false;
            behavior.max_transmissions = 2;
        }
        _ => {}
    }
    let _ = world;
    ServerConfig {
        behavior,
        chain,
        leaf_key: era.key(quic.leaf_key),
        compression_support: quic.compression_support.clone(),
        resumption: None,
        seed: record.seed,
    }
}

/// One-way base latencies of the scanner↔server paths, in milliseconds:
/// every record's wire sits on one of these 40 one-millisecond steps.
pub(crate) const BASE_LATENCY_MS: RangeInclusive<u64> = 10..=49;

/// The base one-way latency of the path to `record`'s server — the one
/// definition every wire builder and the scenario-class memo's rescale
/// read.
pub fn base_latency(record: &DomainRecord) -> SimDuration {
    SimDuration::from_millis(BASE_LATENCY_MS.start() + record.seed % 40)
}

/// The wire between the scanner and a domain's server, including the
/// load-balancer encapsulation of §4.1 when deployed.
pub fn wire_for(record: &DomainRecord) -> Wire {
    let latency = base_latency(record);
    let mut wire = Wire::ideal(latency);
    if let Some(quic) = &record.quic {
        if quic.behind_lb {
            wire.a_to_b = LinkModel::tunneled(latency, quic.lb_overhead);
        }
    }
    wire
}

/// [`wire_for`] with a [`NetworkProfile`] overlay applied on top of the
/// domain's base path. [`NetworkProfile::Ideal`] is the identity, so
/// ideal-profile scans reproduce profile-unaware ones byte-for-byte.
pub fn wire_for_profile(record: &DomainRecord, profile: NetworkProfile) -> Wire {
    let mut wire = wire_for(record);
    profile.apply(&mut wire);
    wire
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::WorldConfig;

    #[test]
    fn behavior_mapping_is_faithful() {
        assert!(behavior_of(BehaviorKind::RetryFirst).retry_first);
        assert!(!behavior_of(BehaviorKind::CloudflareLike).coalesce);
        assert_eq!(
            behavior_of(BehaviorKind::MvfstPreDisclosure).max_transmissions,
            MVFST_PRE_TRANSMISSIONS
        );
        assert!(behavior_of(BehaviorKind::RfcCompliant).count_resends);
    }

    #[test]
    fn base_latencies_cover_exactly_the_declared_range() {
        let record = |seed| DomainRecord {
            rank: 1,
            name: String::new(),
            dns: quicert_pki::DnsOutcome::NxDomain,
            https: None,
            quic: None,
            seed,
        };
        let steps: Vec<u64> = (1_000..1_040u64)
            .map(|seed| base_latency(&record(seed)).as_millis())
            .collect();
        assert!(steps.iter().all(|ms| BASE_LATENCY_MS.contains(ms)));
        for ms in BASE_LATENCY_MS {
            assert!(steps.contains(&ms), "{ms} ms is never drawn");
        }
        assert_eq!(wire_for(&record(7)).rtt(), base_latency(&record(7)) * 2);
    }

    #[test]
    fn lb_deployments_get_tunneled_wires() {
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 5_000,
            seed: 9,
        });
        let records = world.domain_chunk(1, world.config.domains);
        let behind_lb = |d: &&DomainRecord| d.quic.as_ref().is_some_and(|q| q.behind_lb);
        let services = || records.iter().filter(|d| d.has_quic());
        let lb = services()
            .find(behind_lb)
            .expect("some LB deployment in 5k domains");
        let wire = wire_for(lb);
        assert!(wire.a_to_b.encapsulation_overhead >= 28);
        let plain = services().find(|d| !behind_lb(d)).unwrap();
        assert_eq!(wire_for(plain).a_to_b.encapsulation_overhead, 0);
    }
}
