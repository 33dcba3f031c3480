//! Backscatter sessions at a network telescope (§4.3, Fig 9).
//!
//! Spoofed handshakes are launched toward provider services with victim
//! addresses inside a dark prefix. Everything a server reflects reaches the
//! telescope, and the paper groups it into sessions by the server's source
//! connection ID; each probe draws its own, so one probe is one session,
//! read straight off its [`SpoofedOutcome`](quicert_quic::SpoofedOutcome).

use std::net::Ipv4Addr;

use quicert_netsim::{Ipv4Net, SimDuration};
use quicert_pki::{CertificateEra, DomainRecord, Provider, World};
use quicert_quic::handshake::run_spoofed_probe;

use crate::behavior::{server_config_for_era, wire_for};

/// One backscatter session: what one spoofed probe reflected.
#[derive(Debug, Clone)]
pub struct BackscatterSession {
    /// The provider of the reflecting server.
    pub provider: Provider,
    /// Reflected UDP payload bytes.
    pub bytes: usize,
    /// Amplification factor assuming the paper's 1362-byte Initial.
    pub amplification: f64,
    /// Session duration (first to last reflected datagram).
    pub duration: SimDuration,
    /// Number of reflected datagrams.
    pub datagrams: usize,
}

/// The assumed client Initial used to compute telescope amplification
/// factors (§4.3 uses 1362 bytes).
pub(crate) const ASSUMED_INITIAL: usize = 1362;

/// Ranks the telescope's walk covers per step (deriving only their QUIC
/// services).
const WALK_CHUNK: usize = 256;

/// Launch spoofed probes at up to `per_provider` services of each
/// hypergiant — its first QUIC services in rank order — and return their
/// sessions, lowest factor first. The population is walked a chunk at a time
/// and only until every hypergiant has its `per_provider` targets, so a
/// million-domain world costs the few thousand ranks that hold them.
pub fn collect(world: &World, dark: Ipv4Net, per_provider: usize) -> Vec<BackscatterSession> {
    let era = CertificateEra::Classical;
    let hypergiants = [Provider::Cloudflare, Provider::Google, Provider::Meta];
    let mut targets: [Vec<DomainRecord>; 3] = Default::default();
    let mut chunk = Vec::new();
    let mut first = 1;
    while first <= world.config.domains && targets.iter().any(|t| t.len() < per_provider) {
        world.quic_chunk_into(first, WALK_CHUNK, &mut chunk);
        first += WALK_CHUNK;
        for record in chunk.drain(..) {
            let provider = record.quic.as_ref().map(|quic| quic.provider);
            let hypergiant = hypergiants.iter().position(|&h| Some(h) == provider);
            if let Some(found) = hypergiant.map(|i| &mut targets[i]) {
                if found.len() < per_provider {
                    found.push(record);
                }
            }
        }
    }

    // Probe provider-major, each hypergiant's targets in rank order; every
    // probe that reflected anything is one session.
    let mut sessions: Vec<(Vec<u8>, BackscatterSession)> = Vec::new();
    for (provider, services) in hypergiants.into_iter().zip(&targets) {
        for (i, record) in services.iter().enumerate() {
            let Some(chain) = world.quic_chain_era(record, era) else {
                continue;
            };
            let victim = dark.host((record.seed ^ i as u64) % dark.size());
            let server_addr = World::server_addr(record);
            let outcome = run_spoofed_probe(
                ASSUMED_INITIAL,
                victim,
                server_addr,
                server_config_for_era(world, record, chain, era),
                &mut wire_for(record),
                record.seed,
            );
            if outcome.datagrams == 0 {
                continue;
            }
            let session = BackscatterSession {
                provider,
                bytes: outcome.total_server_wire,
                amplification: outcome.amplification(),
                duration: outcome.duration,
                datagrams: outcome.datagrams,
            };
            sessions.push((outcome.server_scid, session));
        }
    }
    // By factor, equal factors by the SCID that keys a session.
    sessions.sort_by(|(scid_a, a), (scid_b, b)| {
        a.amplification
            .total_cmp(&b.amplification)
            .then_with(|| scid_a.cmp(scid_b))
    });
    sessions.into_iter().map(|(_, s)| s).collect()
}

/// Convenience: the default dark /8 used by the experiments.
pub fn default_dark_prefix() -> Ipv4Net {
    Ipv4Net::new(Ipv4Addr::new(44, 0, 0, 0), 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::WorldConfig;

    fn sessions() -> Vec<BackscatterSession> {
        let world = quicert_pki::World::streaming(WorldConfig {
            domains: 30_000,
            seed: 91,
        });
        collect(&world, default_dark_prefix(), 12)
    }

    #[test]
    fn all_hypergiants_exceed_the_limit() {
        let sessions = sessions();
        assert!(!sessions.is_empty());
        for provider in [Provider::Cloudflare, Provider::Google, Provider::Meta] {
            let max = sessions
                .iter()
                .filter(|s| s.provider == provider)
                .map(|s| s.amplification)
                .fold(0.0f64, f64::max);
            assert!(max > 3.0, "{provider:?} max amplification {max}");
        }
    }

    #[test]
    fn meta_dominates_the_tail() {
        // Fig 9: Cloudflare/Google below ~10x, Meta reaching tens.
        let sessions = sessions();
        let max_of = |p: Provider| {
            sessions
                .iter()
                .filter(|s| s.provider == p)
                .map(|s| s.amplification)
                .fold(0.0f64, f64::max)
        };
        let median_of = |p: Provider| {
            let v: Vec<f64> = sessions
                .iter()
                .filter(|s| s.provider == p)
                .map(|s| s.amplification)
                .collect();
            quicert_analysis::median(&v)
        };
        let meta = max_of(Provider::Meta);
        assert!(meta > 15.0, "meta {meta}");
        // "The majority of Cloudflare and Google backscatter remains below
        // factors of 10x" — median, with a bounded tail.
        for p in [Provider::Cloudflare, Provider::Google] {
            assert!(median_of(p) < 10.0, "{p:?} median {}", median_of(p));
            assert!(max_of(p) < 16.0, "{p:?} max {}", max_of(p));
        }
        assert!(meta > max_of(Provider::Cloudflare) && meta > max_of(Provider::Google));
    }

    #[test]
    fn meta_sessions_span_tens_of_seconds() {
        // §4.3: median Meta session ~51 s (retransmission backoff).
        let sessions = sessions();
        let meta_durations: Vec<f64> = sessions
            .iter()
            .filter(|s| s.provider == Provider::Meta)
            .map(|s| s.duration.as_secs_f64())
            .collect();
        if !meta_durations.is_empty() {
            let median = quicert_analysis::median(&meta_durations);
            assert!((20.0..120.0).contains(&median), "median {median}");
        }
    }
}
