//! Link models: latency, jitter, loss, MTU and tunnel encapsulation.
//!
//! A [`LinkModel`] describes one direction of a path. The MTU check models
//! the load-balancer failure mode from §4.1 of the paper: packet tunnelling
//! between a front-end and back-end server adds encapsulation headers, so a
//! client datagram that fits the 1500-byte Ethernet MTU at the edge can
//! exceed the internal MTU once encapsulated, and large client `Initial`s
//! silently vanish.

use crate::datagram::Datagram;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Path MTU in bytes (Ethernet), applied to the full IP packet size
/// ([`Datagram::wire_len`]) *after* encapsulation overhead is added.
const PATH_MTU: usize = 1500;

/// One direction of a network path.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// Base one-way delay.
    pub latency: SimDuration,
    /// Uniform jitter added on top of `latency` (0 = deterministic delay).
    pub jitter: SimDuration,
    /// Independent per-datagram loss probability.
    pub loss: f64,
    /// Extra bytes added to every packet by tunnel encapsulation (e.g.
    /// IP-in-IP or GUE between a load balancer and its back-ends). Zero for
    /// directly-connected servers.
    pub encapsulation_overhead: usize,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            encapsulation_overhead: 0,
        }
    }
}

/// The outcome of offering a datagram to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Will arrive at the far end at the given time.
    Arrives(SimTime),
    /// Dropped by random loss.
    LostRandom,
    /// Dropped because the encapsulated packet exceeded the path MTU.
    /// Carries the effective size that was rejected.
    LostMtu(usize),
}

impl LinkModel {
    /// A perfect link: no loss, fixed delay, standard MTU.
    pub fn ideal(latency: SimDuration) -> Self {
        LinkModel {
            latency,
            ..LinkModel::default()
        }
    }

    /// A link behind a tunnelling load balancer (§4.1): `overhead` bytes of
    /// encapsulation are added before the 1500-byte internal MTU applies.
    pub fn tunneled(latency: SimDuration, overhead: usize) -> Self {
        LinkModel {
            latency,
            encapsulation_overhead: overhead,
            ..LinkModel::default()
        }
    }

    /// Whether deliveries on this link never draw from the session RNG:
    /// no random loss and no jitter. Latency, encapsulation overhead and
    /// MTU drops are all deterministic functions of the datagram.
    pub fn is_deterministic(&self) -> bool {
        self.loss == 0.0 && self.jitter == SimDuration::ZERO
    }

    /// Effective on-path size of a datagram on this link.
    pub(crate) fn effective_size(&self, dgram: &Datagram) -> usize {
        dgram.wire_len() + self.encapsulation_overhead
    }

    /// Offer a datagram to the link at time `now`.
    pub fn deliver(&self, rng: &mut SimRng, dgram: &Datagram, now: SimTime) -> Delivery {
        let size = self.effective_size(dgram);
        if size > PATH_MTU {
            return Delivery::LostMtu(size);
        }
        if self.loss > 0.0 && rng.chance(self.loss) {
            return Delivery::LostRandom;
        }
        let jitter = if self.jitter == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.below(self.jitter.as_nanos().max(1)))
        };
        Delivery::Arrives(now + self.latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn dgram(payload: usize) -> Datagram {
        Datagram::new(
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(198, 51, 100, 1),
            1111,
            443,
            vec![0; payload],
        )
    }

    #[test]
    fn ideal_link_delivers_with_fixed_delay() {
        let link = LinkModel::ideal(SimDuration::from_millis(10));
        let mut rng = SimRng::new(1);
        let now = SimTime::ZERO + SimDuration::from_nanos(500);
        match link.deliver(&mut rng, &dgram(1200), now) {
            Delivery::Arrives(at) => assert_eq!(at, now + SimDuration::from_millis(10)),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn mtu_drop_is_deterministic() {
        // 1472 payload + 28 headers = 1500 exactly -> fits.
        let link = LinkModel::ideal(SimDuration::from_millis(1));
        let mut rng = SimRng::new(2);
        assert!(matches!(
            link.deliver(&mut rng, &dgram(1472), SimTime::ZERO),
            Delivery::Arrives(_)
        ));
        // One more byte exceeds the MTU.
        assert_eq!(
            link.deliver(&mut rng, &dgram(1473), SimTime::ZERO),
            Delivery::LostMtu(1501)
        );
    }

    #[test]
    fn tunnel_overhead_shrinks_usable_payload() {
        // With 40 bytes of encapsulation, a 1472-byte payload (fine on a
        // direct path) exceeds the internal MTU: the §4.1 load-balancer bug.
        let link = LinkModel::tunneled(SimDuration::from_millis(1), 40);
        let mut rng = SimRng::new(3);
        assert_eq!(
            link.deliver(&mut rng, &dgram(1472), SimTime::ZERO),
            Delivery::LostMtu(1540)
        );
        // 1432 payload + 28 + 40 = 1500 -> fits.
        assert!(matches!(
            link.deliver(&mut rng, &dgram(1432), SimTime::ZERO),
            Delivery::Arrives(_)
        ));
    }

    #[test]
    fn loss_rate_is_respected() {
        let link = LinkModel {
            loss: 0.3,
            ..LinkModel::ideal(SimDuration::from_millis(1))
        };
        let mut rng = SimRng::new(4);
        let d = dgram(100);
        let lost = (0..20_000)
            .filter(|_| {
                matches!(
                    link.deliver(&mut rng, &d, SimTime::ZERO),
                    Delivery::LostRandom
                )
            })
            .count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "loss rate was {rate}");
    }

    #[test]
    fn jitter_stays_within_bound() {
        let link = LinkModel {
            jitter: SimDuration::from_millis(5),
            ..LinkModel::ideal(SimDuration::from_millis(10))
        };
        let mut rng = SimRng::new(5);
        let d = dgram(100);
        for _ in 0..500 {
            match link.deliver(&mut rng, &d, SimTime::ZERO) {
                Delivery::Arrives(at) => {
                    assert!(at >= SimTime::ZERO + SimDuration::from_millis(10));
                    assert!(at < SimTime::ZERO + SimDuration::from_millis(15));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
