//! Indexed d-ary heap with decrease-key.
//!
//! The workhorse priority queue: a 4-ary array heap plus an item→slot index.
//! Asymptotically worse than a Fibonacci heap on decrease-key (`O(log n)`
//! vs `O(1)` amortised) but far better constants on real hardware: on an
//! 80² grid Dijkstra ran 0.84 ms on it against 1.09 ms on a pairing heap
//! and 2.62 ms on a Fibonacci heap (README, "Reproducing the paper").

const D: usize = 4;
const NONE: u32 = u32::MAX;

/// 4-ary indexed min-heap over items `0..capacity` with `u64` keys and
/// decrease-key, the interface Dijkstra-style searches need.
///
/// Each item may appear at most once; [`DaryHeap::push_or_decrease`]
/// merges insert and decrease-key the way relaxation uses them.
#[derive(Debug, Clone)]
pub struct DaryHeap {
    /// `(key, item)` pairs in heap order.
    slots: Vec<(u64, u32)>,
    /// `pos[item]` = slot index, or `NONE`.
    pos: Vec<u32>,
}

impl DaryHeap {
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / D;
            if self.slots[parent].0 <= entry.0 {
                break;
            }
            self.slots[i] = self.slots[parent];
            self.pos[self.slots[i].1 as usize] = i as u32;
            i = parent;
        }
        self.slots[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.slots[i];
        let len = self.slots.len();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let last = (first + D).min(len);
            let mut best = first;
            for c in first + 1..last {
                if self.slots[c].0 < self.slots[best].0 {
                    best = c;
                }
            }
            if self.slots[best].0 >= entry.0 {
                break;
            }
            self.slots[i] = self.slots[best];
            self.pos[self.slots[i].1 as usize] = i as u32;
            i = best;
        }
        self.slots[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

impl DaryHeap {
    /// Creates a heap for items `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        DaryHeap { slots: Vec::new(), pos: vec![NONE; capacity] }
    }

    /// The item universe the heap was created for (`0..capacity`).
    /// Preserved by [`DaryHeap::clear`], so a cleared heap can be reused
    /// for any graph with at most this many vertices without reallocating.
    pub fn capacity(&self) -> usize {
        self.pos.len()
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Inserts `item` with `key`, or lowers its key if already queued with a
    /// larger one. Returns `true` iff the heap changed (inserted or
    /// decreased) — exactly "the relaxation succeeded".
    pub fn push_or_decrease(&mut self, item: u32, key: u64) -> bool {
        match self.pos[item as usize] {
            NONE => {
                self.slots.push((key, item));
                self.sift_up(self.slots.len() - 1);
                true
            }
            p => {
                let p = p as usize;
                if self.slots[p].0 <= key {
                    return false;
                }
                self.slots[p].0 = key;
                self.sift_up(p);
                true
            }
        }
    }

    /// Removes and returns the minimum-key item (ties broken arbitrarily).
    pub fn pop_min(&mut self) -> Option<(u32, u64)> {
        if self.slots.is_empty() {
            return None;
        }
        let (key, item) = self.slots.swap_remove(0);
        self.pos[item as usize] = NONE;
        if !self.slots.is_empty() {
            self.sift_down(0);
        }
        Some((item, key))
    }

    /// The minimum-key item without removing it — what a bidirectional
    /// search's stopping rule reads each round. It is the item
    /// [`DaryHeap::pop_min`] would return next.
    pub fn peek_min(&self) -> Option<(u32, u64)> {
        self.slots.first().map(|&(key, item)| (item, key))
    }

    /// Current key of `item`, if queued.
    pub fn key_of(&self, item: u32) -> Option<u64> {
        match self.pos[item as usize] {
            NONE => None,
            p => Some(self.slots[p as usize].0),
        }
    }

    /// Removes all items, keeping capacity: after `clear()` the heap
    /// behaves exactly like `with_capacity(self.capacity())` but performs
    /// no allocation on reuse (asserted by the clear-reuse battery).
    pub fn clear(&mut self) {
        for &(_, item) in &self.slots {
            self.pos[item as usize] = NONE;
        }
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn basic_order() {
        let mut h = DaryHeap::with_capacity(10);
        assert!(h.is_empty());
        h.push_or_decrease(3, 30);
        h.push_or_decrease(1, 10);
        h.push_or_decrease(2, 20);
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop_min(), Some((1, 10)));
        assert_eq!(h.pop_min(), Some((2, 20)));
        assert_eq!(h.pop_min(), Some((3, 30)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = DaryHeap::with_capacity(4);
        h.push_or_decrease(0, 100);
        h.push_or_decrease(1, 50);
        assert!(h.push_or_decrease(0, 10), "decrease succeeds");
        assert!(!h.push_or_decrease(1, 60), "increase is a no-op");
        assert_eq!(h.key_of(0), Some(10));
        assert_eq!(h.pop_min(), Some((0, 10)));
    }

    #[test]
    fn clear_resets_positions() {
        let mut h = DaryHeap::with_capacity(4);
        h.push_or_decrease(2, 5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.key_of(2), None);
        assert!(h.push_or_decrease(2, 7), "reinsertion after clear works");
    }

    /// Clear-reuse battery: after `clear()` a heap must behave exactly
    /// like a freshly constructed one of the same capacity — same drain
    /// sequence (up to arbitrary tie order), `key_of` misses everywhere,
    /// and the capacity preserved — across several fill/clear cycles,
    /// including a clear of a half-drained (dirty) heap.
    #[test]
    fn clear_reuse_matches_fresh_heap() {
        let (mut rng, universe) = (StdRng::seed_from_u64(5), 80u32);
        let mut reused = DaryHeap::with_capacity(universe as usize);
        for cycle in 0..4 {
            // Dirty the heap (leave it half-drained on odd cycles).
            for i in 0..universe {
                reused.push_or_decrease(i, rng.random_range(0..10_000));
            }
            if cycle % 2 == 1 {
                for _ in 0..universe / 2 {
                    reused.pop_min();
                }
            }
            reused.clear();
            assert_eq!(reused.len(), 0);
            assert!(reused.is_empty());
            assert_eq!(reused.capacity(), universe as usize, "clear must keep capacity");
            for i in 0..universe {
                assert_eq!(reused.key_of(i), None, "cycle {cycle}: item {i} leaked");
            }
            // The cleared heap and a fresh heap must drain identically.
            let mut fresh = DaryHeap::with_capacity(universe as usize);
            let keys: Vec<u64> = (0..universe).map(|_| rng.random_range(0..1_000u64)).collect();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(
                    reused.push_or_decrease(i as u32, k),
                    fresh.push_or_decrease(i as u32, k)
                );
            }
            let mut a: Vec<(u64, u32)> =
                std::iter::from_fn(|| reused.pop_min()).map(|(i, k)| (k, i)).collect();
            let mut b: Vec<(u64, u32)> =
                std::iter::from_fn(|| fresh.pop_min()).map(|(i, k)| (k, i)).collect();
            assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "drain must be key-sorted");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "cycle {cycle}: cleared heap diverged from fresh heap");
        }
    }

    #[test]
    fn clear_keeps_slot_allocation() {
        let mut h = DaryHeap::with_capacity(64);
        for i in 0..64u32 {
            h.push_or_decrease(i, i as u64);
        }
        let cap = h.slots.capacity();
        h.clear();
        assert_eq!(h.capacity(), 64);
        assert_eq!(h.slots.capacity(), cap, "clear must not release the slot storage");
    }

    /// Drives a heap against a simple model; panics on divergence.
    fn run_model_battery(seed: u64, ops: usize, universe: u32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut heap = DaryHeap::with_capacity(universe as usize);
        let mut model: std::collections::BTreeMap<u32, u64> = Default::default();
        for _ in 0..ops {
            match rng.random_range(0..10) {
                0..=5 => {
                    let item = rng.random_range(0..universe);
                    let key = rng.random_range(0..1000u64);
                    let model_changed = match model.get(&item) {
                        Some(&old) if old <= key => false,
                        _ => {
                            model.insert(item, key);
                            true
                        }
                    };
                    let heap_changed = heap.push_or_decrease(item, key);
                    assert_eq!(heap_changed, model_changed, "push_or_decrease({item},{key})");
                }
                6..=8 => {
                    let expect_min = model.values().copied().min();
                    assert_eq!(
                        heap.peek_min().map(|(_, k)| k),
                        expect_min,
                        "peek_min key must match the model minimum"
                    );
                    if let Some((item, key)) = heap.peek_min() {
                        assert_eq!(heap.key_of(item), Some(key), "peek_min item/key mismatch");
                    }
                    match heap.pop_min() {
                        None => assert!(model.is_empty()),
                        Some((item, key)) => {
                            assert_eq!(Some(key), expect_min, "pop_min returned non-minimal key");
                            assert_eq!(model.remove(&item), Some(key), "pop_min item/key mismatch");
                        }
                    }
                }
                _ => {
                    let item = rng.random_range(0..universe);
                    assert_eq!(heap.key_of(item), model.get(&item).copied(), "key_of({item})");
                }
            }
            assert_eq!(heap.len(), model.len());
            assert_eq!(heap.is_empty(), model.is_empty());
        }
        // Drain: must come out in nondecreasing key order.
        let mut last = 0u64;
        while let Some((item, key)) = heap.pop_min() {
            assert!(key >= last, "heap order violated");
            last = key;
            assert_eq!(model.remove(&item), Some(key));
        }
        assert!(model.is_empty());
    }

    #[test]
    fn model_battery() {
        run_model_battery(1, 4000, 50);
        run_model_battery(2, 4000, 5);
    }

    /// Heapsort check: n random keys drain in sorted order.
    #[test]
    fn heapsort() {
        let (mut rng, n) = (StdRng::seed_from_u64(3), 2000u32);
        let mut heap = DaryHeap::with_capacity(n as usize);
        let mut keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..1_000_000)).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(heap.push_or_decrease(i as u32, k));
        }
        keys.sort_unstable();
        let drained: Vec<u64> = std::iter::from_fn(|| heap.pop_min()).map(|(_, k)| k).collect();
        assert_eq!(drained, keys);
    }

    /// Exercises decrease-key cascades: keys only ever decrease.
    #[test]
    fn decrease_storm() {
        let (mut rng, n) = (StdRng::seed_from_u64(4), 300u32);
        let mut heap = DaryHeap::with_capacity(n as usize);
        let mut best = vec![u64::MAX; n as usize];
        for i in 0..n {
            let k = 1_000_000 + rng.random_range(0..1000u64);
            heap.push_or_decrease(i, k);
            best[i as usize] = k;
        }
        for _ in 0..5000 {
            let i = rng.random_range(0..n);
            let k = rng.random_range(0..1_000_000u64);
            if k < best[i as usize] {
                assert!(heap.push_or_decrease(i, k));
                best[i as usize] = k;
            } else {
                assert!(!heap.push_or_decrease(i, k));
            }
        }
        let mut last = 0;
        while let Some((i, k)) = heap.pop_min() {
            assert_eq!(k, best[i as usize]);
            assert!(k >= last);
            last = k;
        }
    }
}
