//! Atomic building blocks: the paper's priority-write (`WriteMin`) and an
//! atomic bitset.
//!
//! Radius stepping relaxes all edges out of the active set concurrently; the
//! tentative-distance update `δ(v) ← min(δ(v), δ(u) + w(u,v))` is exactly a
//! priority-write. It is implemented here as check-then-write: a plain load
//! first, and `AtomicU64::fetch_min` only when the candidate could strictly
//! lower the cell. Most relaxations fail, and a failing one then costs a
//! load instead of a locked read-modify-write.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` cell supporting concurrent *priority-write* (write-with-min).
///
/// This is the `WriteMin` primitive from §3.3 of the paper: many writers may
/// race on the same cell and the final value is the minimum of all proposed
/// values and the previous content, independent of scheduling.
#[derive(Debug)]
pub struct AtomicMinU64(AtomicU64);

impl AtomicMinU64 {
    /// Creates a cell holding `value`.
    #[inline]
    pub fn new(value: u64) -> Self {
        AtomicMinU64(AtomicU64::new(value))
    }

    /// Reads the current value.
    #[inline]
    pub fn load(&self) -> u64 {
        // ORDERING: the distance is the entire payload of this cell — no
        // other data is published through it, so a Relaxed load is always
        // a value the cell legitimately held. Phase boundaries (reading
        // final distances after a parallel substep) synchronise through
        // the pool's join latch, not through this load.
        self.0.load(Ordering::Relaxed)
    }

    /// Unconditionally stores `value` (non-racing contexts only).
    #[inline]
    pub fn store(&self, value: u64) {
        // ORDERING: see `load` — single self-contained word, non-racing
        // contexts per the doc contract.
        self.0.store(value, Ordering::Relaxed)
    }

    /// Priority-write: lowers the cell to `value` if `value` is smaller.
    ///
    /// Returns `true` iff this call strictly lowered the stored value, which
    /// callers use to detect "the relaxation succeeded" (Algorithm 2 uses
    /// this to decide ownership of a vertex within a substep).
    #[inline]
    pub fn write_min(&self, value: u64) -> bool {
        // ORDERING: see `load`. Between non-racing `store`s the cell only
        // ever decreases, so a value at or below `value` stays there and
        // the early `false` is final; a stale read that looks larger falls
        // through to the RMW.
        let current = self.0.load(Ordering::Relaxed);
        crate::model::yield_point();
        if current <= value {
            return false;
        }
        // ORDERING: the RMW totally orders concurrent write_mins on this
        // cell, which is all WriteMin's determinism needs; the value is
        // self-contained (see `load`), so no Acquire/Release edge is owed.
        self.0.fetch_min(value, Ordering::Relaxed) > value
    }
}

impl Default for AtomicMinU64 {
    fn default() -> Self {
        AtomicMinU64::new(u64::MAX)
    }
}

impl Clone for AtomicMinU64 {
    fn clone(&self) -> Self {
        AtomicMinU64::new(self.load())
    }
}

/// Creates a vector of `n` priority-write cells all holding `init`.
pub fn atomic_vec(n: usize, init: u64) -> Vec<AtomicMinU64> {
    (0..n).map(|_| AtomicMinU64::new(init)).collect()
}

/// A fixed-capacity bitset whose bits can be set concurrently.
///
/// Used for "has this vertex been touched this substep" flags where many
/// relaxations may claim the same vertex at once. `set` reports whether the
/// caller was the one to flip the bit, giving a cheap parallel "insert if
/// absent".
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl Default for AtomicBitset {
    /// The zero-length bitset (grow by replacing with a sized one).
    fn default() -> Self {
        AtomicBitset::new(0)
    }
}

impl AtomicBitset {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitset { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically sets bit `i`; returns `true` iff it was previously clear.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        // ORDERING: the flag itself is the only datum — claiming a vertex
        // publishes no side state through this word, and the RMW already
        // guarantees exactly one caller sees the clear→set transition.
        self.words[i >> 6].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Atomically clears bit `i`; returns `true` iff it was previously set.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        // ORDERING: see `set` — the flag is the datum, the RMW decides the
        // unique transition.
        self.words[i >> 6].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // ORDERING: advisory read of a self-contained flag word; readers
        // that need the bits of a finished substep sit behind the pool's
        // join barrier.
        self.words[i >> 6].load(Ordering::Relaxed) & (1u64 << (i & 63)) != 0
    }

    /// Clears every bit (sequentially; cheap relative to traversals).
    pub fn clear_all(&self) {
        for w in &self.words {
            // ORDERING: called between substeps with no concurrent
            // writers (sequential contract in the doc); visibility to the
            // next parallel step flows through its fork.
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // ORDERING: post-barrier aggregate read (see `get`).
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Indices of all set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            // ORDERING: post-barrier traversal read (see `get`).
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn write_min_lowers_only() {
        let a = AtomicMinU64::new(10);
        assert!(a.write_min(5));
        assert_eq!(a.load(), 5);
        assert!(!a.write_min(7), "larger value must not win");
        assert_eq!(a.load(), 5);
        assert!(!a.write_min(5), "equal value is not a strict lowering");
    }

    #[test]
    fn write_min_concurrent_fixpoint() {
        let a = AtomicMinU64::new(u64::MAX);
        (0..10_000u64).into_par_iter().for_each(|i| {
            a.write_min(10_000 - i);
        });
        assert_eq!(a.load(), 1);
    }

    #[test]
    fn concurrent_write_min_exactly_one_winner_per_level() {
        // Many threads writing the same value: none may observe a "strict
        // lowering" twice for the same value.
        let a = AtomicMinU64::new(100);
        let wins: usize = (0..1000).into_par_iter().map(|_| usize::from(a.write_min(50))).sum();
        assert_eq!(wins, 1, "exactly one writer strictly lowers 100 -> 50");
    }

    #[test]
    fn bitset_set_get_clear() {
        let b = AtomicBitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.get(129));
        assert!(b.set(129));
        assert!(!b.set(129), "second set reports already-set");
        assert!(b.get(129));
        assert!(b.clear(129));
        assert!(!b.clear(129));
        assert!(!b.get(129));
    }

    #[test]
    fn bitset_concurrent_set_unique_claims() {
        let b = AtomicBitset::new(64);
        // 1000 threads race to claim bit 7; exactly one wins.
        let claims: usize = (0..1000).into_par_iter().map(|_| usize::from(b.set(7))).sum();
        assert_eq!(claims, 1);
    }

    #[test]
    fn bitset_iter_and_count() {
        let b = AtomicBitset::new(200);
        for i in [0usize, 1, 63, 64, 65, 199] {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 6);
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 199]);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn atomic_vec_initialised() {
        let v = atomic_vec(5, 42);
        assert!(v.iter().all(|c| c.load() == 42));
    }
}
