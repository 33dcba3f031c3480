//! The one flyweight table type of the tree: a sharded, bounded,
//! first-insert-wins map from a *class key* to the value every record of
//! that class shares.
//!
//! Two instantiations exist. The [`crate::World`] owns a
//! `ClassTable<ChainClass, ChainShape>` (what a served chain weighs), and
//! the scan engine owns a `ClassTable<ProbeClass, QuicReachResult>`
//! (`quicert_scanner::quicreach::ClassMemo` — how a handshake against it
//! goes). Both rest on the same argument: the value is a pure function of
//! the key, so which caller stored it first is invisible, an entry can
//! never go stale (a changed input is a *different key*), and declining to
//! store — a full table — costs time, never a result.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{PoisonError, RwLock};

use quicert_netsim::FastHashBuilder;

/// Classes one default [`ClassTable`] holds at most (a 1M-domain scan meets
/// ≈35k scenario classes and ≈30k chain classes). A full table stops
/// learning — new classes are computed and not stored, which cannot change
/// a result — so a resident service's tables are bounded however long it
/// runs.
pub const CLASS_CAPACITY: usize = 1 << 18;

/// Lock shards of a [`ClassTable`], picked by key hash.
pub const SHARDS: usize = 64;

// FastHashBuilder: one lookup per record makes SipHash the single largest
// non-simulation cost at a million records.
type Shard<K, V> = RwLock<HashMap<K, V, FastHashBuilder>>;

/// A flyweight table shared by every thread that holds a reference: readers
/// take one shard's read lock per lookup, and the first insert of a key
/// wins. Equal keys map to equal values by the caller's purity argument, so
/// which thread won is invisible. A poisoned shard is used as is: a map
/// holds every entry whole or not at all, so a panicked holder leaves it
/// valid.
#[derive(Debug)]
pub struct ClassTable<K, V> {
    shards: Box<[Shard<K, V>]>,
    shard_capacity: usize,
}

impl<K: Eq + Hash, V: Clone> ClassTable<K, V> {
    /// An empty table holding at most `capacity` classes, split evenly
    /// over the lock shards.
    pub fn bounded(capacity: usize) -> ClassTable<K, V> {
        ClassTable {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            shard_capacity: capacity / SHARDS,
        }
    }

    /// Classes currently stored.
    pub fn classes(&self) -> usize {
        let len = |shard: &Shard<K, V>| shard.read().unwrap_or_else(PoisonError::into_inner).len();
        self.shards.iter().map(len).sum()
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        // Bits the map's own bucket index and control byte do not use.
        let hash = FastHashBuilder::default().hash_one(key);
        &self.shards[(hash >> 32) as usize % SHARDS]
    }

    /// The stored value of `key`, if known.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get(key).cloned()
    }

    /// Store `value` for `key` unless the key is already known or its
    /// shard is full; whether this call added a class.
    pub fn insert(&self, key: K, value: &V) -> bool {
        let mut shard = self
            .shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let room = shard.len() < self.shard_capacity && !shard.contains_key(&key);
        if room {
            shard.insert(key, value.clone());
        }
        room
    }
}

impl<K: Eq + Hash, V: Clone> Default for ClassTable<K, V> {
    /// An empty table bounded at [`CLASS_CAPACITY`] classes.
    fn default() -> Self {
        ClassTable::bounded(CLASS_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins_and_a_full_shard_stops_storing() {
        let table: ClassTable<u64, u64> = ClassTable::bounded(SHARDS);
        assert_eq!(table.get(&7), None);
        assert!(table.insert(7, &70));
        assert!(!table.insert(7, &71), "a known class is not replaced");
        assert_eq!(table.get(&7), Some(70));
        // One class per shard: whatever shares key 7's shard is declined,
        // and at most one class per shard ever lands.
        let stored = (0..10_000u64).filter(|k| table.insert(*k, k)).count();
        assert!(stored < SHARDS);
        assert_eq!(table.classes(), stored + 1);
        assert_eq!(table.get(&7), Some(70));
        assert_eq!(ClassTable::<u64, u64>::default().classes(), 0);
    }
}
