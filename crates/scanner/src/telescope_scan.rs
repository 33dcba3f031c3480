//! Telescope backscatter collection (§4.3, Fig 9).
//!
//! Spoofed handshakes are launched toward provider services with victim
//! addresses inside a dark prefix; the telescope records every reflected
//! datagram, and sessions are grouped by the server's source connection ID
//! exactly as the paper does.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use quicert_netsim::{Ipv4Net, SimDuration, Telescope};
use quicert_pki::{CertificateEra, DomainRecord, Provider, World};
use quicert_quic::handshake::{observe_backscatter, run_spoofed_probe};

use crate::behavior::{server_config_for_era, wire_for};

/// One backscatter session as reconstructed from telescope records.
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
pub const ASSUMED_INITIAL: usize = 1362;

/// Ranks the telescope's walk derives per step.
const WALK_CHUNK: usize = 256;

/// Launch spoofed probes at up to `per_provider` services of each
/// hypergiant — its first QUIC services in rank order — and reconstruct
/// sessions from the telescope. The population is walked a chunk at a time
/// and only until every hypergiant has its `per_provider` targets, so a
/// million-domain world costs the few thousand ranks that hold them.
pub fn collect(world: &World, dark: Ipv4Net, per_provider: usize) -> Vec<BackscatterSession> {
    let era = CertificateEra::Classical;
    let hypergiants = [Provider::Cloudflare, Provider::Google, Provider::Meta];
    let mut targets: [Vec<DomainRecord>; 3] = Default::default();
    let mut chunk = Vec::new();
    let mut first = 1;
    while first <= world.config.domains && targets.iter().any(|t| t.len() < per_provider) {
        world.domain_chunk_into(first, WALK_CHUNK, &mut chunk);
        first += WALK_CHUNK;
        for record in chunk.drain(..).filter(DomainRecord::has_quic) {
            let provider = record.quic.as_ref().map(|quic| quic.provider);
            let hypergiant = hypergiants.iter().position(|&h| Some(h) == provider);
            if let Some(found) = hypergiant.map(|i| &mut targets[i]) {
                if found.len() < per_provider {
                    found.push(record);
                }
            }
        }
    }

    // Probe provider-major, each hypergiant's targets in rank order.
    let mut telescope = Telescope::new(dark);
    let mut provider_of_scid: HashMap<Vec<u8>, Provider> = HashMap::new();
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
            observe_backscatter(&mut telescope, victim, server_addr, &outcome);
            provider_of_scid.insert(outcome.server_scid, provider);
        }
    }

    // Group telescope records by SCID — the paper's session definition.
    let mut sessions: HashMap<Vec<u8>, BackscatterSession> = HashMap::new();
    let mut first_last: HashMap<Vec<u8>, (quicert_netsim::SimTime, quicert_netsim::SimTime)> =
        HashMap::new();
    for record in telescope.records() {
        let Some(scid) = record.scid.clone() else {
            continue;
        };
        let provider = *provider_of_scid.get(&scid).unwrap_or(&Provider::SelfHosted);
        let entry = sessions.entry(scid.clone()).or_insert(BackscatterSession {
            provider,
            bytes: 0,
            amplification: 0.0,
            duration: SimDuration::ZERO,
            datagrams: 0,
        });
        entry.bytes += record.payload_len;
        entry.datagrams += 1;
        let window = first_last.entry(scid).or_insert((record.at, record.at));
        window.0 = window.0.min(record.at);
        window.1 = window.1.max(record.at);
    }
    let mut out: Vec<(Vec<u8>, BackscatterSession)> = sessions
        .into_iter()
        .map(|(scid, mut s)| {
            s.amplification = s.bytes as f64 / ASSUMED_INITIAL as f64;
            s.duration = first_last[&scid].1.since(first_last[&scid].0);
            (scid, s)
        })
        .collect();
    // Tie-break equal factors by SCID: HashMap iteration order must never
    // leak into the session order (artifacts are bit-reproducible).
    out.sort_by(|(scid_a, a), (scid_b, b)| {
        a.amplification
            .total_cmp(&b.amplification)
            .then_with(|| scid_a.cmp(scid_b))
    });
    out.into_iter().map(|(_, s)| s).collect()
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
            ..WorldConfig::default()
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
