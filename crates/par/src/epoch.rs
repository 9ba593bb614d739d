//! Epoch-tagged priority-write arrays: reusable tentative-distance state.
//!
//! A solver that serves many queries must not pay an `O(n)` clear (or worse,
//! an `O(n)` allocation) per source just to start every entry back at `∞`.
//! [`EpochMinArray`] is a [`AtomicMinU64`](crate::AtomicMinU64) vector whose
//! logical reset is **O(1)**: each stored word carries the epoch it was
//! written in, and [`EpochMinArray::advance`] simply moves to a fresh epoch,
//! turning every old entry back into a logical `u64::MAX` without touching
//! it.
//!
//! The trick that keeps the hot path one load plus at most one `fetch_min`
//! is storing the epoch *inverted* in the high [`EPOCH_BITS`] bits: newer
//! epochs get strictly smaller tags, so a priority-write from the current
//! epoch always beats a stale entry by plain integer comparison — no
//! compare-and-swap loop, no separate stamp array to race on. Values are
//! therefore limited to [`MAX_STORABLE`] (48 bits, ≈ 2.8 · 10¹⁴);
//! `u64::MAX` is accepted as the logical infinity. After
//! [`EPOCHS_PER_FILL`] advances the tag space is exhausted and one real
//! `O(n)` refill is paid — amortised away entirely.
//!
//! The same comparison lets [`EpochMinArray::write_min`] check before it
//! writes: an offer that cannot strictly lower the loaded word returns
//! `false` without the read-modify-write. That is the common case in a
//! relaxation sweep, where most relaxations fail.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the word reserved for the inverted epoch tag.
pub const EPOCH_BITS: u32 = 16;

/// Bits available for the stored value.
pub const VALUE_BITS: u32 = 64 - EPOCH_BITS;

/// Largest storable finite value (`2^48 - 1`). Larger finite values panic in
/// debug builds; `u64::MAX` is treated as the logical infinity everywhere.
pub const MAX_STORABLE: u64 = (1 << VALUE_BITS) - 1;

/// Logical reset count between two physical `O(n)` refills.
pub const EPOCHS_PER_FILL: u64 = (1 << EPOCH_BITS) - 2;

/// The freshly-allocated fill pattern reads as "stale" in every epoch.
const EMPTY: u64 = u64::MAX;

/// First (largest) usable inverted tag: `0xFFFF` is reserved for [`EMPTY`].
const FIRST_TAG: u64 = ((1u64 << EPOCH_BITS) - 2) << VALUE_BITS;

/// One tag step (epoch `e + 1` has a tag one `STEP` below epoch `e`'s).
const STEP: u64 = 1 << VALUE_BITS;

/// A `u64` min-array with per-epoch logical clearing.
///
/// Every cell starts (and restarts, after [`EpochMinArray::advance`]) at a
/// logical `u64::MAX`; [`EpochMinArray::write_min`] is the paper's
/// priority-write restricted to the current epoch. Stale cells are
/// overwritten lazily by the first write that touches them.
#[derive(Debug, Default)]
pub struct EpochMinArray {
    raw: Vec<AtomicU64>,
    /// Current epoch's tag, pre-shifted into the high bits.
    tag: u64,
}

impl EpochMinArray {
    /// An empty array; size it with [`EpochMinArray::ensure`].
    pub fn new() -> Self {
        EpochMinArray { raw: Vec::new(), tag: FIRST_TAG }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when the array holds no cells.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Grows the array to at least `n` cells (all logically `u64::MAX`).
    /// Returns `true` iff memory was (re)allocated — the signal scratch
    /// reuse counters key on. Never shrinks.
    pub fn ensure(&mut self, n: usize) -> bool {
        if self.raw.len() >= n {
            return false;
        }
        self.raw = (0..n).map(|_| AtomicU64::new(EMPTY)).collect();
        self.tag = FIRST_TAG;
        true
    }

    /// O(1) logical reset: every cell reads `u64::MAX` again. Pays one
    /// physical refill every [`EPOCHS_PER_FILL`] calls when the tag space
    /// wraps.
    pub fn advance(&mut self) {
        if self.tag == 0 {
            for cell in &self.raw {
                crate::model::yield_point();
                // ORDERING: `&mut self` gives this refill exclusive access
                // — no concurrent reader or writer exists, and the handoff
                // back to shared use synchronises through whatever
                // publishes the borrow (join latch / scope join).
                cell.store(EMPTY, Ordering::Relaxed);
            }
            self.tag = FIRST_TAG;
        } else {
            self.tag -= STEP;
        }
    }

    /// Reads cell `i`: its value if written this epoch, `u64::MAX` otherwise.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        // ORDERING: the tag+value travel in one word, so a Relaxed load is
        // internally consistent by itself; cross-phase visibility (writes
        // from a finished parallel step) is provided by the pool's join
        // latch Acquire/Release, never by this load.
        let raw = self.raw[i].load(Ordering::Relaxed);
        if raw & !MAX_STORABLE == self.tag {
            raw & MAX_STORABLE
        } else {
            u64::MAX
        }
    }

    /// Unconditionally stores `value` into cell `i` (non-racing contexts
    /// only). `u64::MAX` stores the logical infinity.
    #[inline]
    pub fn store(&self, i: usize, value: u64) {
        if value > MAX_STORABLE {
            debug_assert_eq!(value, u64::MAX, "value exceeds the 48-bit epoch-array range");
            // ORDERING: single self-contained word, non-racing contexts
            // only (see doc) — same argument as `load` above.
            self.raw[i].store(EMPTY, Ordering::Relaxed);
        } else {
            // ORDERING: see the EMPTY store above.
            self.raw[i].store(self.tag | value, Ordering::Relaxed);
        }
    }

    /// Priority-write: lowers cell `i` to `value` iff `value` is strictly
    /// below the current logical content (stale cells count as `u64::MAX`).
    /// Returns `true` iff this call strictly lowered the cell — "the
    /// relaxation succeeded". Writing `u64::MAX` is a no-op.
    #[inline]
    pub fn write_min(&self, i: usize, value: u64) -> bool {
        if value > MAX_STORABLE {
            debug_assert_eq!(value, u64::MAX, "value exceeds the 48-bit epoch-array range");
            return false;
        }
        let tagged = self.tag | value;
        let cell = &self.raw[i];
        // ORDERING: a Relaxed load of the self-contained tag+value word (see
        // `load`). Within an epoch, between non-racing `store`s, the cell
        // only ever decreases, so a word at or below `tagged` stays there
        // and the early `false` below is final; a stale read that looks
        // larger just falls through to the RMW, which decides against the
        // cell's latest value.
        let current = cell.load(Ordering::Relaxed);
        crate::model::yield_point();
        if current <= tagged {
            return false;
        }
        // A stale or empty entry carries a strictly larger (older-epoch) tag,
        // so it always reaches this fetch_min, which both replaces it and
        // reports a strict lowering.
        // ORDERING: the atomic RMW already totally orders concurrent
        // write_mins on this cell; the tag+distance are one word, so no
        // separate data needs an Acquire/Release edge — the engine reads
        // results only after the join barrier of the parallel step.
        cell.fetch_min(tagged, Ordering::Relaxed) > tagged
    }

    /// Materialises the first `n` cells as a plain vector (`u64::MAX` for
    /// anything untouched this epoch) — the per-result output copy.
    pub fn snapshot(&self, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.load(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn starts_and_resets_to_infinity() {
        let mut a = EpochMinArray::new();
        assert!(a.is_empty());
        assert!(a.ensure(8), "first ensure allocates");
        assert!(!a.ensure(8), "same-size ensure reuses");
        assert!(!a.ensure(3), "smaller ensure reuses");
        assert_eq!(a.len(), 8);
        assert!((0..8).all(|i| a.load(i) == u64::MAX));
        a.store(2, 42);
        assert_eq!(a.load(2), 42);
        a.advance();
        assert_eq!(a.load(2), u64::MAX, "advance logically clears");
    }

    #[test]
    fn write_min_is_strict_and_epoch_scoped() {
        let mut a = EpochMinArray::new();
        a.ensure(4);
        assert!(a.write_min(0, 10), "lowering infinity succeeds");
        assert!(!a.write_min(0, 10), "equal value is not strict");
        assert!(!a.write_min(0, 11), "larger value fails");
        assert!(a.write_min(0, 9));
        assert!(!a.write_min(0, u64::MAX), "infinity never lowers");
        a.advance();
        assert_eq!(a.load(0), u64::MAX);
        assert!(a.write_min(0, 1_000), "stale entry counts as infinity");
        assert_eq!(a.load(0), 1_000);
    }

    #[test]
    fn store_accepts_infinity() {
        let mut a = EpochMinArray::new();
        a.ensure(2);
        a.store(0, 5);
        a.store(0, u64::MAX);
        assert_eq!(a.load(0), u64::MAX);
        assert!(a.write_min(0, 7), "explicit infinity is lowerable again");
    }

    #[test]
    fn survives_full_tag_wraparound() {
        let mut a = EpochMinArray::new();
        a.ensure(3);
        a.store(1, 7);
        // Drive through the whole tag space (plus the refill) twice.
        for round in 0..(2 * EPOCHS_PER_FILL + 3) {
            a.advance();
            assert_eq!(a.load(1), u64::MAX, "round {round}: reset must hold");
            assert!(a.write_min(1, round));
            assert_eq!(a.load(1), round);
        }
    }

    #[test]
    fn concurrent_write_min_fixpoint() {
        let mut a = EpochMinArray::new();
        a.ensure(1);
        a.advance();
        (0..10_000u64).into_par_iter().for_each(|i| {
            a.write_min(0, 10_000 - i);
        });
        assert_eq!(a.load(0), 1);
    }

    #[test]
    fn exactly_one_winner_per_lowering() {
        let mut a = EpochMinArray::new();
        a.ensure(1);
        a.store(0, 100);
        let wins: usize = (0..1000).into_par_iter().map(|_| usize::from(a.write_min(0, 50))).sum();
        assert_eq!(wins, 1);
    }

    #[test]
    fn snapshot_mixes_written_and_stale() {
        let mut a = EpochMinArray::new();
        a.ensure(4);
        a.store(1, 11);
        a.store(3, 33);
        assert_eq!(a.snapshot(4), vec![u64::MAX, 11, u64::MAX, 33]);
    }
}
