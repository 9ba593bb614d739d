//! Seeded schedule-fuzz stress tests for [`rs_par::EpochMinArray`].
//!
//! Each test replays its scenario across many seeds of the
//! [`rs_par::model`] preemption stream. With `--features schedule_fuzz`
//! the yield points inside `write_min`/`advance` stretch the racy
//! windows differently per seed; without the feature they compile to
//! no-ops and the tests still run as plain (narrower-window) stress
//! tests, so they stay in the default suite at a reduced seed count.
//!
//! Invariants shadow-checked here, per ISSUE:
//! - distances are monotonically non-increasing within an epoch
//!   (a priority-write can only lower a cell);
//! - contended `write_min` converges to the true minimum (fixpoint);
//! - exactly one racer observes "I lowered it" per strict lowering;
//! - epoch rollover — including the physical refill when the tag space
//!   wraps — never resurrects a previous epoch's value.
//!
//! Run with `RS_NUM_THREADS=1` and the machine default; the pool-based
//! test below picks the thread count up from the environment.
//!
//! Every scenario runs through [`model::run_scenario`], which captures
//! the yield-decision stream per seed: a failing seed prints the path of
//! an `RSTRACE1` trace plus the `cargo xtask replay` command that
//! re-executes that exact schedule.

use std::sync::atomic::{AtomicBool, Ordering};

use rayon::prelude::*;
use rs_par::epoch::EPOCHS_PER_FILL;
use rs_par::model::ScenarioSpec;
use rs_par::{model, EpochMinArray};

/// The [`ScenarioSpec`] for a test in this file.
fn spec(scenario: &str) -> ScenarioSpec {
    ScenarioSpec::new(env!("CARGO_PKG_NAME"), file!(), scenario)
}

/// Full seed budget under `schedule_fuzz` (≥1000 schedules, per the
/// acceptance bar); trimmed when the yields are no-ops anyway so the
/// default suite stays fast.
const SEEDS: u64 = if cfg!(feature = "schedule_fuzz") { 1024 } else { 256 };

/// SplitMix64 for deterministic per-seed test data (independent of the
/// model's preemption stream).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Epoch rollover under contention: two writer threads storm `write_min`
/// while a reader polls one cell, across four epochs that straddle the
/// physical tag-space refill. Checks the fixpoint per round, the
/// monotone non-increasing read sequence within each epoch, and that
/// `advance` (logical or physical) always resets every cell.
#[test]
fn fuzz_epoch_rollover_under_contention() {
    const CELLS: usize = 8;
    const WRITES: usize = 32;
    const ROUNDS: u64 = 4;
    model::run_scenario(spec("fuzz_epoch_rollover_under_contention"), SEEDS, |seed| {
        let mut a = EpochMinArray::new();
        a.ensure(CELLS);
        // Park the tag just shy of the wrap so the ROUNDS below cross the
        // one `advance` that pays the physical O(n) refill.
        for _ in 0..(EPOCHS_PER_FILL - 2) {
            a.advance();
        }
        let mut rng = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        for round in 0..ROUNDS {
            assert!(
                (0..CELLS).all(|i| a.load(i) == u64::MAX),
                "seed {seed} round {round}: advance must reset every cell"
            );
            // Deterministic per-thread write plans, so the expected
            // fixpoint is computable by sequential replay.
            let plans: Vec<Vec<(usize, u64)>> = (0..2)
                .map(|_| {
                    (0..WRITES)
                        .map(|_| (mix(&mut rng) as usize % CELLS, mix(&mut rng) % 1_000_000))
                        .collect()
                })
                .collect();
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                // Reader: within one epoch the cell it watches must never
                // go back up (write_min only lowers; stale reads as ∞).
                s.spawn(|| {
                    let mut last = u64::MAX;
                    while !stop.load(Ordering::SeqCst) {
                        let v = a.load(0);
                        assert!(
                            v <= last,
                            "seed {seed} round {round}: cell 0 rose {last} -> {v} within an epoch"
                        );
                        last = v;
                    }
                });
                let writers: Vec<_> = plans
                    .iter()
                    .map(|plan| {
                        let a = &a;
                        s.spawn(move || {
                            for &(i, v) in plan {
                                a.write_min(i, v);
                            }
                        })
                    })
                    .collect();
                for w in writers {
                    w.join().expect("writer must not panic");
                }
                stop.store(true, Ordering::SeqCst);
            });
            let mut expect = [u64::MAX; CELLS];
            for &(i, v) in plans.iter().flatten() {
                expect[i] = expect[i].min(v);
            }
            for (i, &want) in expect.iter().enumerate() {
                assert_eq!(
                    a.load(i),
                    want,
                    "seed {seed} round {round}: cell {i} missed the contended fixpoint"
                );
            }
            a.advance();
        }
    });
}

/// Exactly one racer per strict lowering: both threads offer the same
/// smaller value; precisely one `write_min` may report success.
///
/// This is also one of CI's replay-smoke scenarios: `write_min` takes
/// exactly one yield point per call on either branch (the load-first
/// early `false` or the single `fetch_min`; there is no retry loop), so
/// the yield-point call count is schedule-independent and a strict replay
/// consumes the trace exactly.
#[test]
fn fuzz_exactly_one_lowering_winner() {
    model::run_scenario(spec("fuzz_exactly_one_lowering_winner"), SEEDS, |seed| {
        let mut a = EpochMinArray::new();
        a.ensure(1);
        a.store(0, 100);
        let wins = std::thread::scope(|s| {
            let t = s.spawn(|| usize::from(a.write_min(0, 50)));
            let here = usize::from(a.write_min(0, 50));
            here + t.join().expect("no panic")
        });
        assert_eq!(wins, 1, "seed {seed}: a strict lowering must have exactly one winner");
        assert_eq!(a.load(0), 50);
    });
}

/// The check-then-RMW window: `write_min` loads the cell, yields, and
/// returns `false` early when the loaded word already undercuts the offer.
/// Three threads offer 70, 60 and 50 to a cell preloaded at 100; whatever
/// the others did between its load and its RMW, the writer of 50 offers
/// the strict minimum and must win. After `advance`, the cell's stale 50
/// counts as infinity, so a larger offer still lowers it.
///
/// CI's second replay-smoke scenario: every call takes exactly one yield
/// point, so the per-seed decision count is schedule-independent.
#[test]
fn fuzz_smallest_offer_always_wins() {
    model::run_scenario(spec("fuzz_smallest_offer_always_wins"), SEEDS, |seed| {
        let mut a = EpochMinArray::new();
        a.ensure(1);
        a.store(0, 100);
        let smallest_won = std::thread::scope(|s| {
            let t70 = s.spawn(|| a.write_min(0, 70));
            let t60 = s.spawn(|| a.write_min(0, 60));
            let won = a.write_min(0, 50);
            t70.join().expect("no panic");
            t60.join().expect("no panic");
            won
        });
        assert!(smallest_won, "seed {seed}: the smallest offer must always win");
        assert_eq!(a.load(0), 50, "seed {seed}: the cell must end at the smallest offer");
        a.advance();
        assert!(a.write_min(0, 80), "seed {seed}: a stale 50 must read as infinity");
        assert_eq!(a.load(0), 80);
    });
}

/// The same fixpoint property through the real work-stealing pool (the
/// path production solvers use), honouring `RS_NUM_THREADS`: relaxations
/// fan out over the pool's workers while the model stream perturbs both
/// the deque operations and `write_min`'s check-to-RMW windows.
#[test]
fn fuzz_pool_contended_relaxation_fixpoint() {
    const N: u64 = 512;
    // Pool spin-up dominates per-seed cost; a smaller seed sweep still
    // exercises plenty of distinct interleavings because each par_iter
    // split pattern differs.
    let seeds = if cfg!(feature = "schedule_fuzz") { 64u64 } else { 16 };
    let mut a = EpochMinArray::new();
    a.ensure(4);
    model::run_scenario(spec("fuzz_pool_contended_relaxation_fixpoint"), seeds, |seed| {
        a.advance();
        (0..N).into_par_iter().for_each(|i| {
            a.write_min((i % 4) as usize, 1 + (i ^ (seed & 63)));
        });
        for cell in 0..4 {
            let want = (0..N)
                .filter(|i| (i % 4) as usize == cell)
                .map(|i| 1 + (i ^ (seed & 63)))
                .min()
                .expect("cell nonempty");
            assert_eq!(a.load(cell), want, "seed {seed}: pool relaxation missed cell {cell}");
        }
    });
}
