//! Cyclic bucket queue for ∆-stepping.
//!
//! Meyer–Sanders ∆-stepping keeps unsettled vertices in buckets of width ∆
//! by tentative distance. Because every edge weight is at most `L`, at most
//! `⌈L/∆⌉ + O(1)` buckets are ever populated ahead of the scan position, so
//! a cyclic array suffices. Deletion is lazy: moves only update the
//! item→bucket map, and stale bucket entries are filtered when drained.

const NONE: u64 = u64::MAX;

/// Cyclic bucket priority queue over items `0..capacity`.
#[derive(Debug)]
pub struct BucketQueue {
    delta: u64,
    slots: Vec<Vec<u32>>,
    /// Absolute index of the lowest possibly-nonempty bucket.
    cur: u64,
    /// `pos[item]` = absolute bucket index, or `NONE` when not queued.
    pos: Vec<u64>,
    len: usize,
}

impl BucketQueue {
    /// Creates a queue with bucket width `delta` for items `0..capacity`,
    /// where no queued priority ever exceeds the current scan position by
    /// more than `max_weight` (the graph's heaviest edge `L`).
    pub fn new(capacity: usize, delta: u64, max_weight: u64) -> Self {
        assert!(delta > 0);
        let span = (max_weight / delta + 3) as usize;
        BucketQueue {
            delta,
            slots: (0..span).map(|_| Vec::new()).collect(),
            cur: 0,
            pos: vec![NONE; capacity],
            len: 0,
        }
    }

    /// Absolute bucket index for priority `p`.
    pub fn bucket_of(&self, p: u64) -> u64 {
        p / self.delta
    }

    /// Queues `item` at priority `p`, or moves it to the earlier bucket if
    /// already queued. Returns `true` iff membership changed.
    ///
    /// # Panics
    /// If `p`'s bucket lies before the scan position or beyond the cyclic
    /// window (violating the `max_weight` contract).
    pub fn insert_or_decrease(&mut self, item: u32, p: u64) -> bool {
        let b = self.bucket_of(p);
        assert!(b >= self.cur, "priority {p} falls before the scan position");
        assert!(
            b - self.cur < self.slots.len() as u64,
            "priority {p} beyond cyclic window; max_weight contract violated"
        );
        let old = self.pos[item as usize];
        if old == b {
            return false;
        }
        if old == NONE {
            self.len += 1;
        }
        // Lazy move: leave any stale entry behind in the old bucket.
        self.pos[item as usize] = b;
        let slot = (b % self.slots.len() as u64) as usize;
        self.slots[slot].push(item);
        true
    }

    /// Advances to and returns the index of the next bucket holding at
    /// least one live item, or `None` when the queue is empty.
    pub fn next_nonempty_bucket(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            let slot = (self.cur % self.slots.len() as u64) as usize;
            // Purge stale entries eagerly so emptiness is meaningful.
            if self.slots[slot].iter().any(|&it| self.pos[it as usize] == self.cur) {
                return Some(self.cur);
            }
            self.slots[slot].clear();
            self.cur += 1;
        }
    }

    /// Drains the live items of absolute bucket `b` (which must be the
    /// current scan position), removing them from the queue.
    pub fn take_bucket(&mut self, b: u64) -> Vec<u32> {
        assert_eq!(b, self.cur, "may only drain the current bucket");
        let slot = (b % self.slots.len() as u64) as usize;
        let raw = std::mem::take(&mut self.slots[slot]);
        let mut out = Vec::with_capacity(raw.len());
        for item in raw {
            if self.pos[item as usize] == b {
                self.pos[item as usize] = NONE;
                self.len -= 1;
                out.push(item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_flow() {
        let mut q = BucketQueue::new(10, 5, 20);
        assert_eq!(q.next_nonempty_bucket(), None);
        assert!(q.insert_or_decrease(3, 12)); // bucket 2
        assert!(q.insert_or_decrease(4, 3)); // bucket 0
        assert_eq!(q.next_nonempty_bucket(), Some(0));
        assert_eq!(q.take_bucket(0), vec![4]);
        assert_eq!(q.next_nonempty_bucket(), Some(2));
        assert_eq!(q.take_bucket(2), vec![3]);
        assert_eq!(q.next_nonempty_bucket(), None);
    }

    #[test]
    fn decrease_moves_between_buckets() {
        let mut q = BucketQueue::new(4, 10, 100);
        q.insert_or_decrease(1, 95); // bucket 9
        assert!(q.insert_or_decrease(1, 15)); // moved to bucket 1
        assert!(!q.insert_or_decrease(1, 17), "same bucket: no change");
        assert_eq!(q.next_nonempty_bucket(), Some(1));
        assert_eq!(q.take_bucket(1), vec![1]);
        // The stale entry in bucket 9 must not resurrect the item.
        assert_eq!(q.next_nonempty_bucket(), None);
    }

    #[test]
    fn reinsert_into_current_bucket() {
        // ∆-stepping's light-edge loop reinserts into the bucket being
        // processed.
        let mut q = BucketQueue::new(4, 10, 100);
        q.insert_or_decrease(0, 5);
        assert_eq!(q.next_nonempty_bucket(), Some(0));
        assert_eq!(q.take_bucket(0), vec![0]);
        q.insert_or_decrease(1, 7); // lands back in bucket 0
        assert_eq!(q.next_nonempty_bucket(), Some(0));
        assert_eq!(q.take_bucket(0), vec![1]);
    }

    #[test]
    fn cyclic_reuse_across_many_buckets() {
        let mut q = BucketQueue::new(2, 1, 4);
        let mut popped = Vec::new();
        let mut next_priority = 0u64;
        q.insert_or_decrease(0, next_priority);
        // Walk priorities far beyond the slot count to exercise wrap-around.
        for _ in 0..50 {
            let b = q.next_nonempty_bucket().unwrap();
            let items = q.take_bucket(b);
            popped.extend(items.iter().map(|&i| (i, b)));
            next_priority = b + 3; // within the max_weight=4 window
            if popped.len() < 50 {
                q.insert_or_decrease((popped.len() % 2) as u32, next_priority);
            }
        }
        assert_eq!(popped.len(), 50);
        assert!(popped.windows(2).all(|w| w[0].1 <= w[1].1), "monotone buckets");
    }

    #[test]
    #[should_panic(expected = "before the scan position")]
    fn rejects_past_priorities() {
        let mut q = BucketQueue::new(2, 10, 100);
        q.insert_or_decrease(0, 50);
        let b = q.next_nonempty_bucket().unwrap();
        q.take_bucket(b);
        q.insert_or_decrease(1, 3); // bucket 0 < cur 5
    }
}
