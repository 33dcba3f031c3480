//! The client-side session cache: an LRU map from SNI to the newest ticket
//! obtained for that host, as browsers and long-lived scanners keep it.

use std::collections::HashMap;

use crate::ticket::SessionTicket;

/// A bounded least-recently-used ticket store keyed by SNI.
///
/// Both inserts and lookups refresh an entry's recency; when the cache is
/// full the least recently touched entry is evicted. Eviction order is
/// fully deterministic (a monotone touch counter, no hashing involved), so
/// scans that thread a cache through their probes stay reproducible.
#[derive(Debug, Clone)]
pub struct SessionCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, (u64, SessionTicket)>,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` tickets (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SessionCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Number of cached tickets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store `ticket` for `sni`, replacing any previous ticket for the same
    /// host and evicting the least recently used entry when full.
    pub fn insert(&mut self, sni: &str, ticket: SessionTicket) {
        self.tick += 1;
        if !self.entries.contains_key(sni) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(sni.to_string(), (self.tick, ticket));
    }

    /// Look up the ticket for `sni`, refreshing its recency on a hit.
    pub fn lookup(&mut self, sni: &str) -> Option<&SessionTicket> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(sni).map(|(t, ticket)| {
            *t = tick;
            &*ticket
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::TICKET_LEN;

    fn ticket(n: u8) -> SessionTicket {
        SessionTicket {
            identity: vec![n; TICKET_LEN],
            lifetime_secs: 7_200,
            age_add: n as u32,
            obtained_at_secs: 0,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut cache = SessionCache::with_capacity(4);
        cache.insert("a.example", ticket(1));
        assert_eq!(cache.lookup("a.example").unwrap().age_add, 1);
        assert!(cache.lookup("b.example").is_none());
        cache.insert("a.example", ticket(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup("a.example").unwrap().age_add, 2);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut cache = SessionCache::with_capacity(2);
        cache.insert("a", ticket(1));
        cache.insert("b", ticket(2));
        // Touch "a" so "b" is the LRU entry.
        assert!(cache.lookup("a").is_some());
        cache.insert("c", ticket(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("b").is_none(), "b was LRU and must be gone");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut cache = SessionCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert("a", ticket(1));
        cache.insert("b", ticket(2));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a").is_none());
    }
}
