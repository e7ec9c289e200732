//! A fixed-capacity LRU set used to model the NIC's Queue Pair context
//! cache.
//!
//! Real RDMA NICs cache Queue Pair state in on-chip memory; when the working
//! set of QPs exceeds the cache, every work request pays a PCIe round-trip to
//! fetch the context from host memory, degrading throughput by up to 5×
//! (Dragojević et al., NSDI '14; Kalia et al., ATC '16). [`LruSet::touch`]
//! returns whether the access hit, so callers can charge the miss penalty.

use std::hash::Hash;

use crate::KeyMap;

/// A fixed-capacity set with least-recently-used eviction.
///
/// Implemented as a doubly-linked list over a slab, with a [`KeyMap`]
/// index; all operations are O(1). Index and slab grow with the keys
/// touched, so a large cache holds nothing until it is used.
#[derive(Debug)]
pub struct LruSet<K: Eq + Hash + Clone> {
    capacity: usize,
    index: KeyMap<K, usize>,
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    head: Option<usize>, // Most recently used.
    tail: Option<usize>, // Least recently used.
}

#[derive(Debug)]
struct Node<K> {
    key: K,
    prev: Option<usize>,
    next: Option<usize>,
}

impl<K: Eq + Hash + Clone> LruSet<K> {
    /// Creates an LRU set holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be positive");
        LruSet {
            capacity,
            index: KeyMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Accesses `key`: returns `true` on a cache hit. On a miss the key is
    /// inserted, evicting the least-recently-used entry if the set is full.
    pub fn touch(&mut self, key: K) -> bool {
        if let Some(&idx) = self.index.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        if self.index.len() == self.capacity {
            let lru = self.tail.expect("full cache must have a tail");
            self.unlink(lru);
            let old = self.nodes[lru].key.clone();
            self.index.remove(&old);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i].key = key.clone();
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    prev: None,
                    next: None,
                });
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, idx);
        self.push_front(idx);
        false
    }

    /// Whether `key` is currently cached. Does not update recency.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut lru = LruSet::new(4);
        assert!(!lru.touch(1));
        assert!(lru.touch(1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruSet::new(2);
        lru.touch(1);
        lru.touch(2);
        lru.touch(1); // 2 is now LRU.
        lru.touch(3); // Evicts 2.
        assert!(lru.contains(&1));
        assert!(!lru.contains(&2));
        assert!(lru.contains(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut lru = LruSet::new(8);
        for k in 0..8 {
            assert!(!lru.touch(k), "key {k} is cold");
        }
        for round in 0..10 {
            for k in 0..8 {
                assert!(lru.touch(k), "round {round} key {k} should hit");
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut lru = LruSet::new(4);
        // Sequential scan over 8 keys with capacity 4: classic LRU thrash,
        // every access misses.
        for _ in 0..5 {
            for k in 0..8 {
                assert!(!lru.touch(k));
            }
        }
    }

    #[test]
    fn reuses_freed_slots() {
        let mut lru = LruSet::new(2);
        for k in 0..100 {
            lru.touch(k);
        }
        assert_eq!(lru.len(), 2);
        assert!(lru.nodes.len() <= 3, "slab must not grow unboundedly");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruSet::<u32>::new(0);
    }
}
