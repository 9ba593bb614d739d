//! Parallel primitives used across the radius-stepping workspace.
//!
//! The paper analyses its algorithms in the work/depth (PRAM) model; this
//! crate provides the small set of primitives that model relies on, mapped
//! onto [rayon]'s persistent work-stealing pool (workers are spawned once
//! and parked when idle, so an engine substep costs deque operations, not
//! thread spawns):
//!
//! * [`atomic`] — the paper's *priority-write* (`WriteMin`) on `u64`
//!   distances, plus an atomic bitset for concurrent membership flags.
//! * [`epoch`] — the priority-write array with epoch-tagged entries, whose
//!   logical reset to all-`∞` is O(1): the substrate of reusable solver
//!   scratch state for batch workloads.
//! * [`reduce`] — the parallel min-reduction used to select the round
//!   distance `d_i = min(δ(v) + r(v))`.
//! * [`worker`] — per-worker state handout ([`worker_map`]): fan a batch of
//!   items over the pool with one lazily-created, reused state per task.
//! * [`scope`](mod@scope) — scoped spawn for long-lived *service* tasks
//!   (server lane workers) that block on channels and must therefore run
//!   on dedicated threads, not pool workers, with panic propagation.
//! * [`model`] — schedule-fuzzing preemption points (no-ops unless built
//!   with `--features schedule_fuzz`); the seeded stress suites in
//!   `tests/schedule_fuzz.rs` here and in `crates/serve` ride on it.
//!
//! All primitives are deterministic given deterministic input (the atomics
//! resolve races to the same fixed point regardless of scheduling).

pub mod atomic;
pub mod epoch;
pub mod model;
pub mod reduce;
pub mod scope;
pub mod worker;

pub use atomic::{atomic_vec, AtomicBitset, AtomicMinU64};
pub use epoch::EpochMinArray;
pub use reduce::par_min;
pub use scope::{scope, Scope};
pub use worker::worker_map;

/// Sequential-fallback threshold: below this many items the parallel
/// primitives run sequentially to avoid fork-join overhead.
pub const SEQ_THRESHOLD: usize = 1 << 12;

/// Returns the number of rayon worker threads in the current pool
/// (override with the `RS_NUM_THREADS` environment variable, read once at
/// pool creation).
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }
}
