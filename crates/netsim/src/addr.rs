//! IPv4 addressing helpers.
//!
//! The simulator uses `std::net::Ipv4Addr` directly for host addresses and
//! adds a small [`Ipv4Net`] prefix type, which is all that the telescope
//! (dark address space) and the per-provider point-of-presence prefixes need.

use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 network prefix (`address/len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    base: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Create a prefix. The base address is masked down to the prefix, so
    /// `Ipv4Net::new(10.1.2.3, 8)` is the same network as
    /// `Ipv4Net::new(10.0.0.0, 8)`.
    ///
    /// # Panics
    /// Panics if `prefix_len > 32`.
    pub fn new(base: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "IPv4 prefix length must be <= 32");
        let mask = Self::mask_bits(prefix_len);
        Ipv4Net {
            base: Ipv4Addr::from(u32::from(base) & mask),
            prefix_len,
        }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len as u32)
        }
    }

    /// The (masked) network base address.
    pub fn base(&self) -> Ipv4Addr {
        self.base
    }

    /// Number of addresses covered by the prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len as u32)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask_bits(self.prefix_len)) == u32::from(self.base)
    }

    /// The `i`-th host address in the prefix (0 = network base).
    ///
    /// # Panics
    /// Panics if `i` is outside the prefix.
    pub fn host(&self, i: u64) -> Ipv4Addr {
        assert!(i < self.size(), "host index outside prefix");
        Ipv4Addr::from(u32::from(self.base) + i as u32)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_masked() {
        let net = Ipv4Net::new(Ipv4Addr::new(10, 1, 2, 3), 8);
        assert_eq!(net.base(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(net.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn contains_is_exact() {
        let net = Ipv4Net::new(Ipv4Addr::new(157, 240, 20, 0), 24);
        assert!(net.contains(Ipv4Addr::new(157, 240, 20, 0)));
        assert!(net.contains(Ipv4Addr::new(157, 240, 20, 255)));
        assert!(!net.contains(Ipv4Addr::new(157, 240, 21, 0)));
        assert!(!net.contains(Ipv4Addr::new(157, 239, 20, 5)));
    }

    #[test]
    fn slash24_has_256_hosts() {
        let net = Ipv4Net::new(Ipv4Addr::new(192, 0, 2, 0), 24);
        assert_eq!(net.size(), 256);
        assert_eq!(net.host(0), Ipv4Addr::new(192, 0, 2, 0));
        assert_eq!(net.host(35), Ipv4Addr::new(192, 0, 2, 35));
        assert_eq!(net.host(255), Ipv4Addr::new(192, 0, 2, 255));
    }

    #[test]
    fn zero_prefix_contains_everything() {
        let net = Ipv4Net::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(net.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(net.contains(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn slash32_contains_only_itself() {
        let addr = Ipv4Addr::new(8, 8, 8, 8);
        let net = Ipv4Net::new(addr, 32);
        assert_eq!(net.size(), 1);
        assert!(net.contains(addr));
        assert!(!net.contains(Ipv4Addr::new(8, 8, 8, 9)));
    }

    #[test]
    #[should_panic(expected = "host index outside prefix")]
    fn host_outside_prefix_panics() {
        Ipv4Net::new(Ipv4Addr::new(192, 0, 2, 0), 24).host(256);
    }
}
