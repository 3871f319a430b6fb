//! A bounded LRU map for finite-capacity predictor tables.

use spcp_sim::FlatMap;
use std::marker::PhantomData;

/// A key-value table with optional capacity and least-recently-used
/// eviction.
///
/// Predictor tables in the comparison study come in two flavours:
/// *unlimited* (idealized, `capacity = None`) and *finite* (e.g. 512
/// entries ≈ 4 KB for Figure 13). `LruTable` serves both.
///
/// Keys are integers (macroblock indices, PCs) widened to `u64` into an
/// open-addressing [`FlatMap`], so a predictor lookup is one
/// multiplicative hash and a short probe. Every access stamps its entry
/// with a fresh tick of the table's clock, so stamps are unique and the
/// eviction scan picks the same victim whatever order it visits entries
/// in.
///
/// # Examples
///
/// ```
/// use spcp_baselines::LruTable;
///
/// let mut t: LruTable<u32, &str> = LruTable::new(Some(2));
/// t.insert(1, "a");
/// t.insert(2, "b");
/// t.get_mut(&1); // touch 1, so 2 becomes LRU
/// t.insert(3, "c");
/// assert!(t.get_mut(&2).is_none());
/// assert!(t.get_mut(&1).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LruTable<K, V> {
    map: FlatMap<(V, u64)>,
    capacity: Option<usize>,
    clock: u64,
    key: PhantomData<K>,
}

impl<K: Into<u64> + Copy, V> LruTable<K, V> {
    /// Creates a table; `None` capacity means unlimited.
    ///
    /// # Panics
    ///
    /// Panics if a zero capacity is given.
    pub fn new(capacity: Option<usize>) -> Self {
        if let Some(c) = capacity {
            assert!(c > 0, "capacity must be positive");
        }
        LruTable {
            map: FlatMap::new(),
            capacity,
            clock: 0,
            key: PhantomData,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fetches an entry, refreshing its recency.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut((*key).into()).map(|(v, stamp)| {
            *stamp = clock;
            v
        })
    }

    /// Inserts or replaces an entry, evicting the LRU entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let key = key.into();
        self.make_room_for(key);
        self.map.insert(key, (value, self.clock));
    }

    /// Fetches an entry, inserting `default()` first when absent (with
    /// LRU eviction if needed).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.clock += 1;
        let key = key.into();
        self.make_room_for(key);
        let clock = self.clock;
        let (v, stamp) = self.map.get_or_insert_with(key, || (default(), clock));
        *stamp = clock;
        v
    }

    /// Evicts least-recently-used entries until `key` fits: a no-op
    /// unless the table is full and `key` is not resident.
    fn make_room_for(&mut self, key: u64) {
        let Some(cap) = self.capacity else {
            return;
        };
        if self.map.len() < cap || self.map.contains_key(key) {
            return;
        }
        while self.map.len() >= cap {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
                .expect("non-empty map");
            self.map.remove(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_evicts() {
        let mut t: LruTable<u32, u32> = LruTable::new(None);
        for i in 0..1000 {
            t.insert(i, i);
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t: LruTable<u32, u32> = LruTable::new(Some(2));
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.get_mut(&1), Some(&mut 10));
        t.insert(3, 30);
        assert!(t.get_mut(&2).is_none(), "2 was least recently used");
        assert!(t.get_mut(&1).is_some());
        assert!(t.get_mut(&3).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut t: LruTable<u32, u32> = LruTable::new(Some(2));
        t.insert(1, 10);
        t.insert(2, 20);
        t.insert(1, 11);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_mut(&1), Some(&mut 11));
        assert!(t.get_mut(&2).is_some());
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut t: LruTable<u32, Vec<u8>> = LruTable::new(Some(4));
        t.get_or_insert_with(7, || vec![1]).push(2);
        t.get_or_insert_with(7, || vec![9]).push(3);
        assert_eq!(t.get_mut(&7), Some(&mut vec![1, 2, 3]));
    }

    #[test]
    fn get_or_insert_respects_capacity() {
        let mut t: LruTable<u32, u32> = LruTable::new(Some(2));
        t.get_or_insert_with(1, || 1);
        t.get_or_insert_with(2, || 2);
        t.get_or_insert_with(3, || 3);
        assert_eq!(t.len(), 2);
        assert!(t.get_mut(&1).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: LruTable<u32, u32> = LruTable::new(Some(0));
    }
}
