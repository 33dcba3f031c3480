//! Simulated DNS resolution (§3.1 funnel).
//!
//! The paper resolves 1M names via 8.8.8.8: 976k "resolve" (no error), 13k
//! SERVFAIL, 9k NXDOMAIN, the rest time out or are REFUSED; 866k of the
//! resolving names return an A record. These rates are encoded here.

use std::net::Ipv4Addr;

/// Outcome of resolving one domain name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsOutcome {
    /// An A record pointing at the serving address.
    A(Ipv4Addr),
    /// The name resolved but returned no A record (e.g. only AAAA/CNAME
    /// dead ends).
    NoARecord,
    /// SERVFAIL from the authoritative side.
    ServFail,
    /// NXDOMAIN.
    NxDomain,
    /// The query timed out (10 s in the paper's setup).
    Timeout,
    /// REFUSED.
    Refused,
}

impl DnsOutcome {
    /// Whether an address was obtained.
    pub fn address(&self) -> Option<Ipv4Addr> {
        match self {
            DnsOutcome::A(addr) => Some(*addr),
            _ => None,
        }
    }
}

/// SERVFAIL probability.
const SERVFAIL: f64 = 0.013;
/// NXDOMAIN probability.
const NXDOMAIN: f64 = 0.009;
/// Timeout probability.
const TIMEOUT: f64 = 0.0015;
/// REFUSED probability.
const REFUSED: f64 = 0.0005;
/// P(no A record | resolved): 976k resolved, 866k with A → ~11.3% of
/// resolved lack an A.
const NO_A_GIVEN_RESOLVED: f64 = 0.113;

/// Resolve a domain given a uniform draw in [0,1) and its serving address.
pub(crate) fn resolve(draw: f64, second_draw: f64, addr: Ipv4Addr) -> DnsOutcome {
    let mut threshold = SERVFAIL;
    if draw < threshold {
        return DnsOutcome::ServFail;
    }
    threshold += NXDOMAIN;
    if draw < threshold {
        return DnsOutcome::NxDomain;
    }
    threshold += TIMEOUT;
    if draw < threshold {
        return DnsOutcome::Timeout;
    }
    threshold += REFUSED;
    if draw < threshold {
        return DnsOutcome::Refused;
    }
    if second_draw < NO_A_GIVEN_RESOLVED {
        return DnsOutcome::NoARecord;
    }
    DnsOutcome::A(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicert_netsim::SimRng;

    #[test]
    fn rates_land_near_paper_funnel() {
        let mut rng = SimRng::new(11);
        let n = 200_000;
        let mut resolved = 0usize;
        let mut a_records = 0usize;
        let mut servfail = 0usize;
        for _ in 0..n {
            let out = resolve(
                rng.f64(),
                rng.f64(),
                std::net::Ipv4Addr::new(198, 51, 100, 1),
            );
            if matches!(out, DnsOutcome::A(_) | DnsOutcome::NoARecord) {
                resolved += 1;
            }
            if out.address().is_some() {
                a_records += 1;
            }
            if out == DnsOutcome::ServFail {
                servfail += 1;
            }
        }
        let resolved_rate = resolved as f64 / n as f64;
        let a_rate = a_records as f64 / n as f64;
        let servfail_rate = servfail as f64 / n as f64;
        // Paper: 97.6% resolve, 86.6% return an A record, 1.3% SERVFAIL.
        assert!(
            (resolved_rate - 0.976).abs() < 0.005,
            "resolved {resolved_rate}"
        );
        assert!((a_rate - 0.866).abs() < 0.01, "a-records {a_rate}");
        assert!(
            (servfail_rate - 0.013).abs() < 0.003,
            "servfail {servfail_rate}"
        );
    }

    #[test]
    fn outcome_helpers() {
        let addr = std::net::Ipv4Addr::new(192, 0, 2, 1);
        assert_eq!(DnsOutcome::A(addr).address(), Some(addr));
        assert_eq!(DnsOutcome::Timeout.address(), None);
    }
}
