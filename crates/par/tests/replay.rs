//! Capture/replay reproducibility tests for the [`rs_par::model`]
//! schedule harness (acceptance bar: recording a schedule and replaying
//! it yields the identical yield sequence — compared on `yields_taken`
//! *and* the per-call decision bytes).
//!
//! These live in their own integration binary on purpose: the capture
//! log is process-global, so no unrelated test may draw yield points
//! while a recording is open. Tests here serialize through [`serial`].
//!
//! Everything is gated on `schedule_fuzz`: without the feature every
//! yield point is a no-op and there is no schedule to capture.

#![cfg(feature = "schedule_fuzz")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use rs_par::{model, EpochMinArray};

/// One recording/replay session at a time within this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A deterministic single-threaded workload: every `yield_point` under
/// `write_min`/`load`/`advance` is reached in program order, so the
/// call count and order are exactly reproducible.
fn single_thread_workload() {
    let mut a = EpochMinArray::new();
    a.ensure(8);
    for i in 0..64u64 {
        a.write_min((i % 8) as usize, 1000 - i);
        assert!(a.load((i % 8) as usize) <= 1000 - i);
    }
    a.advance();
    assert_eq!(a.load(0), u64::MAX);
}

/// A two-thread `write_min` workload: which thread arrives at each yield
/// point first varies, and so does whether a call returns early from the
/// load-first check or goes on to its single `fetch_min`, but each call
/// takes exactly one yield point either way (no retry loop). The
/// *number* of calls per thread is therefore schedule-independent, so the
/// total is deterministic and a replay consumes a recorded trace exactly.
fn multi_thread_workload() {
    let mut a = EpochMinArray::new();
    a.ensure(4);
    a.store(0, u64::MAX);
    std::thread::scope(|s| {
        let t = s.spawn(|| {
            for i in 0..32u64 {
                a.write_min((i % 4) as usize, 500 - i);
            }
        });
        for i in 0..32u64 {
            a.write_min((i % 4) as usize, 600 - i);
        }
        t.join().expect("writer must not panic");
    });
    for cell in 0..4 {
        assert!(a.load(cell) <= 500);
    }
}

/// Records a run of `workload`, replays the log, and asserts the replay
/// reproduced the schedule: same decision bytes (echo-recorded during
/// replay), every decision consumed, and the same `yields_taken` delta.
fn assert_replay_identical(workload: fn(), seed: u64) {
    model::seed_schedule(seed);
    let yields_before = model::yields_taken();
    model::start_recording();
    workload();
    let recorded = model::stop_recording();
    let recorded_yields = model::yields_taken() - yields_before;
    assert!(!recorded.is_empty(), "the workload must cross yield points");
    assert_eq!(
        recorded_yields,
        recorded.iter().filter(|&&d| d == model::DECISION_YIELD).count() as u64,
        "the yield counter must agree with the recorded decision bytes"
    );

    // Replay with echo-recording on: the i-th call gets the i-th byte.
    let yields_before = model::yields_taken();
    model::start_replay(recorded.clone());
    model::start_recording();
    workload();
    let echoed = model::stop_recording();
    let (consumed, len) = model::stop_replay();
    let replay_yields = model::yields_taken() - yields_before;

    assert_eq!((consumed, len), (recorded.len(), recorded.len()), "replay must consume exactly");
    assert_eq!(echoed, recorded, "per-call decisions must be identical");
    assert_eq!(replay_yields, recorded_yields, "yields_taken must be identical");
}

#[test]
fn record_then_replay_identical_single_thread() {
    let _guard = serial();
    for seed in [0, 7, 99] {
        assert_replay_identical(single_thread_workload, seed);
    }
}

#[test]
fn record_then_replay_identical_multi_thread() {
    let _guard = serial();
    for seed in [1, 13] {
        assert_replay_identical(multi_thread_workload, seed);
    }
}

/// Replaying a trace through [`model::run_scenario`] end-to-end: record
/// a scenario via `RS_RECORD_TRACE` semantics (here: the direct API, to
/// stay hermetic), then drive the same body under `start_replay` and
/// check the decision stream is the recorded one. The full file-based
/// loop (`RS_RECORD_TRACE` → trace file → `cargo xtask replay`) is
/// exercised by CI's replay smoke.
#[test]
fn trace_round_trip_preserves_the_schedule() {
    let _guard = serial();
    model::seed_schedule(42);
    model::start_recording();
    single_thread_workload();
    let decisions = model::stop_recording();

    let trace = model::Trace {
        package: "rs_par".into(),
        target: "replay".into(),
        scenario: "trace_round_trip_preserves_the_schedule".into(),
        threads_env: String::new(),
        seed: 42,
        yields_taken: decisions.iter().filter(|&&d| d == model::DECISION_YIELD).count() as u64,
        decisions,
    };
    let parsed = model::Trace::parse(&trace.to_bytes()).expect("self-serialized trace parses");
    assert_eq!(parsed, trace);

    model::start_replay(parsed.decisions.clone());
    model::start_recording();
    single_thread_workload();
    let echoed = model::stop_recording();
    let (consumed, len) = model::stop_replay();
    assert_eq!((consumed, len), (trace.decisions.len(), trace.decisions.len()));
    assert_eq!(echoed, trace.decisions);
}
