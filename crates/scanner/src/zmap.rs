//! Adversary imitation against a Meta point-of-presence (§4.3, Fig 11).
//!
//! A single 1252-byte Initial is sent to every host of a /24 prefix without
//! ever acknowledging, reproducing the paper's ZMap experiment. Hosts fall
//! into the paper's three response groups: no QUIC service (≤150 bytes),
//! facebook.com front-ends (~7 kB, >5×), and Instagram/WhatsApp hosts
//! (~35 kB, >28×). After the responsible disclosure Meta deployed a
//! homogeneous configuration with a mean amplification of ~5×.

use std::net::Ipv4Addr;

use quicert_netsim::{Ipv4Net, SimDuration, Wire};
use quicert_pki::ecosystem::{ChainId, LeafParams};
use quicert_pki::{CertificateEra, World};
use quicert_quic::{run_spoofed_probe, ServerBehavior, ServerConfig};
use quicert_x509::KeyAlgorithm;

/// Probe size used by the paper's ZMap scan.
pub(crate) const PROBE_SIZE: usize = 1252;

/// What a Meta PoP host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaService {
    /// No QUIC/HTTP3 service on this address.
    None,
    /// facebook.com / messenger.com front-ends (bounded resends).
    Facebook,
    /// Instagram / WhatsApp hosts (unbounded resends pre-disclosure).
    InstagramWhatsapp,
}

impl MetaService {
    /// Domains the paper associates with the group.
    pub fn domains(self) -> &'static str {
        match self {
            MetaService::None => "-",
            MetaService::Facebook => "facebook.com, messenger.com, fbcdn.net",
            MetaService::InstagramWhatsapp => "whatsapp.net, instagram.com, igcdn.com",
        }
    }
}

/// The host octets present in Fig 11's x-axis.
pub(crate) fn pop_host_octets() -> Vec<u8> {
    let mut octets: Vec<u8> = (1..=43).collect();
    octets.extend(49..=60);
    octets.push(63);
    octets.extend(128..=132);
    octets.extend(158..=169);
    octets.extend([172, 174, 182, 183]);
    octets
}

/// Service assignment per host octet (deterministic model of the PoP).
pub(crate) fn service_of(octet: u8) -> MetaService {
    match octet {
        35 | 36 => MetaService::Facebook,
        60 | 63 => MetaService::InstagramWhatsapp,
        o if o % 7 == 0 => MetaService::None,
        o if o % 3 == 0 => MetaService::InstagramWhatsapp,
        _ => MetaService::Facebook,
    }
}

/// One probed host.
#[derive(Debug, Clone)]
pub struct ZmapResult {
    /// Host address.
    pub addr: Ipv4Addr,
    /// Final host octet.
    pub octet: u8,
    /// Service group.
    pub service: MetaService,
    /// Response bytes received.
    pub response_bytes: usize,
    /// Amplification factor over the probe.
    pub amplification: f64,
}

fn meta_server_config(
    world: &World,
    octet: u8,
    service: MetaService,
    post_disclosure: bool,
    variation: u64,
) -> ServerConfig {
    let transmissions = if post_disclosure {
        crate::behavior::MVFST_POST_TRANSMISSIONS
    } else {
        match service {
            MetaService::Facebook => 2,
            MetaService::InstagramWhatsapp => crate::behavior::MVFST_PRE_TRANSMISSIONS,
            MetaService::None => 1,
        }
    };
    let behavior = ServerBehavior::mvfst_like(transmissions);
    // Individual PoP hosts serve slightly different certificate bundles
    // (extra SAN entries); `variation` models that spread and produces the
    // Fig 11 confidence intervals.
    let mut extra_sans = vec!["*.whatsapp.net".to_string(), "*.fbcdn.net".to_string()];
    for i in 0..((octet as u64 + variation) % 4) {
        extra_sans.push(format!("edge-{i}-{variation}.facebook.com"));
    }
    let chain = world.ecosystem.issue_era(
        ChainId::DigiCertSha2WithRoot,
        CertificateEra::Classical,
        LeafParams {
            common_name: match service {
                MetaService::InstagramWhatsapp => "*.instagram.com".to_string(),
                _ => "*.facebook.com".to_string(),
            },
            extra_sans,
            key: KeyAlgorithm::EcdsaP256,
            scts: 2,
            seed: 0xFB00 + octet as u64 + (variation << 16),
        },
    );
    ServerConfig {
        behavior,
        chain,
        leaf_key: KeyAlgorithm::EcdsaP256,
        compression_support: vec![],
        resumption: None,
        seed: 0xFB00 + octet as u64 + (variation << 16),
    }
}

/// Scan the /24 Meta PoP with a per-run certificate-bundle variation (the
/// headline scan is variation 0; repetitions vary it to build the Fig 11
/// confidence intervals).
pub fn scan_pop_with_variation(
    world: &World,
    prefix: Ipv4Net,
    post_disclosure: bool,
    variation: u64,
) -> Vec<ZmapResult> {
    pop_host_octets()
        .into_iter()
        .map(|octet| {
            let addr = prefix.host(octet as u64);
            let service = service_of(octet);
            let response_bytes = if service == MetaService::None {
                // No HTTP/3 service: at most an ICMP-ish dribble (≤150 B).
                (octet as usize * 7) % 130
            } else {
                let config = meta_server_config(world, octet, service, post_disclosure, variation);
                let mut wire = Wire::ideal(SimDuration::from_millis(18));
                let out = run_spoofed_probe(
                    PROBE_SIZE,
                    Ipv4Addr::new(203, 0, 113, 99),
                    addr,
                    config,
                    &mut wire,
                    0x5CA0 + octet as u64,
                );
                out.total_server_wire
            };
            ZmapResult {
                addr,
                octet,
                service,
                response_bytes,
                amplification: response_bytes as f64 / PROBE_SIZE as f64,
            }
        })
        .collect()
}

/// The default Meta PoP prefix used by the experiments.
pub fn default_pop_prefix() -> Ipv4Net {
    Ipv4Net::new(Ipv4Addr::new(157, 240, 20, 0), 24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_pki::WorldConfig;

    fn world() -> World {
        World::streaming(WorldConfig {
            domains: 500,
            seed: 13,
        })
    }

    #[test]
    fn three_groups_emerge_pre_disclosure() {
        let results = scan_pop_with_variation(&world(), default_pop_prefix(), false, 0);
        let group = |svc: MetaService| -> Vec<f64> {
            results
                .iter()
                .filter(|r| r.service == svc)
                .map(|r| r.amplification)
                .collect()
        };
        let none = group(MetaService::None);
        let fb = group(MetaService::Facebook);
        let ig = group(MetaService::InstagramWhatsapp);
        assert!(none.iter().all(|&a| a < 0.15), "group 1: <=150 bytes");
        // Group 2: ~7 kB responses, over 5x.
        let fb_mean = quicert_analysis::mean(&fb);
        assert!((4.0..12.0).contains(&fb_mean), "facebook mean {fb_mean}");
        // Group 3: ~35 kB responses, over 28x.
        let ig_mean = quicert_analysis::mean(&ig);
        assert!(ig_mean > 20.0, "instagram mean {ig_mean}");
        assert!(ig_mean > fb_mean * 2.0);
    }

    #[test]
    fn disclosure_homogenises_the_pop() {
        let results = scan_pop_with_variation(&world(), default_pop_prefix(), true, 0);
        let served: Vec<f64> = results
            .iter()
            .filter(|r| r.service != MetaService::None)
            .map(|r| r.amplification)
            .collect();
        let mean = quicert_analysis::mean(&served);
        // Fig 11(b): homogeneous, mean ~5x — still above the limit.
        assert!((3.0..9.0).contains(&mean), "post-disclosure mean {mean}");
        let spread = served
            .iter()
            .fold(0.0f64, |acc, &a| acc.max((a - mean).abs()));
        assert!(
            spread < mean,
            "homogeneous fleet: spread {spread} < mean {mean}"
        );
        assert!(mean > 3.0, "responses still exceed the 3x limit");
    }

    #[test]
    fn octet_list_matches_fig11_axis() {
        let octets = pop_host_octets();
        assert!(octets.contains(&35) && octets.contains(&36));
        assert!(octets.contains(&60) && octets.contains(&63));
        assert!(octets.contains(&183));
        assert!(!octets.contains(&44));
        assert_eq!(service_of(35), MetaService::Facebook);
        assert_eq!(service_of(60), MetaService::InstagramWhatsapp);
    }
}
