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

    /// Whether the query got *an* answer (the paper's 976k "resolved").
    pub fn resolved(&self) -> bool {
        matches!(self, DnsOutcome::A(_) | DnsOutcome::NoARecord)
    }
}

/// Per-mille rates of each failure mode, calibrated to §3.1
/// (13k SERVFAIL, 9k NXDOMAIN, ~2k timeout/refused, 110k without A records
/// out of 1M).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DnsRates {
    /// SERVFAIL probability.
    pub servfail: f64,
    /// NXDOMAIN probability.
    pub nxdomain: f64,
    /// Timeout probability.
    pub timeout: f64,
    /// REFUSED probability.
    pub refused: f64,
    /// P(no A record | resolved).
    pub no_a_given_resolved: f64,
}

impl Default for DnsRates {
    fn default() -> Self {
        DnsRates {
            servfail: 0.013,
            nxdomain: 0.009,
            timeout: 0.0015,
            refused: 0.0005,
            // 976k resolved, 866k with A → ~11.3% of resolved lack an A.
            no_a_given_resolved: 0.113,
        }
    }
}

/// Resolve a domain given a uniform draw in [0,1) and its serving address.
pub(crate) fn resolve(rates: &DnsRates, draw: f64, second_draw: f64, addr: Ipv4Addr) -> DnsOutcome {
    let mut threshold = rates.servfail;
    if draw < threshold {
        return DnsOutcome::ServFail;
    }
    threshold += rates.nxdomain;
    if draw < threshold {
        return DnsOutcome::NxDomain;
    }
    threshold += rates.timeout;
    if draw < threshold {
        return DnsOutcome::Timeout;
    }
    threshold += rates.refused;
    if draw < threshold {
        return DnsOutcome::Refused;
    }
    if second_draw < rates.no_a_given_resolved {
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
        let rates = DnsRates::default();
        let mut rng = SimRng::new(11);
        let n = 200_000;
        let mut resolved = 0usize;
        let mut a_records = 0usize;
        let mut servfail = 0usize;
        for _ in 0..n {
            let out = resolve(
                &rates,
                rng.f64(),
                rng.f64(),
                std::net::Ipv4Addr::new(198, 51, 100, 1),
            );
            if out.resolved() {
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
        assert!(DnsOutcome::A(addr).resolved());
        assert!(DnsOutcome::NoARecord.resolved());
        assert!(!DnsOutcome::NxDomain.resolved());
        assert_eq!(DnsOutcome::Timeout.address(), None);
    }
}
