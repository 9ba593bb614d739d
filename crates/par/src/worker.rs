//! Per-worker state handout: fan items over the pool, one reusable state
//! per pool task.
//!
//! Batch workloads (many SSSP sources, many ball searches) want the exact
//! opposite of `map_init`'s per-chunk state: **as few states as possible**,
//! each reused for as many items as its worker can grab. [`worker_map`]
//! spawns one task per pool thread; the tasks pull item indices from a
//! shared atomic counter (so load balancing stays dynamic even when items
//! have uneven costs) and lazily create a single state the first time they
//! actually win an item. A task that never wins an item never creates a
//! state, so at most `min(num_threads, n)` states exist per call.
//!
//! Item order in the output matches the input; which state served which
//! item does not (and must not) affect results.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

/// Runs `f(&mut state, i)` for every `i in 0..n` across the pool, handing
/// each pool task one lazily-created `state` reused for all items that task
/// claims. Returns the results in item order.
pub fn worker_map<S, R, I, F>(n: usize, init: I, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, usize) -> R + Send + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let tasks = rayon::current_num_threads().clamp(1, n);
    if tasks == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let per_task: Vec<Vec<(usize, R)>> = (0..tasks)
        .into_par_iter()
        .with_min_len(1)
        .map(|_| {
            let mut state: Option<S> = None;
            let mut claimed = Vec::new();
            loop {
                // ORDERING: the work-claim counter is the only shared word
                // and the RMW hands each index to exactly one task; item
                // data flows through the claimed index, not the counter.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let state = state.get_or_insert_with(&init);
                claimed.push((i, f(state, i)));
            }
            claimed
        })
        .collect();

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_task.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "each index is claimed exactly once");
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every index claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn covers_all_items_in_order() {
        let out = worker_map(
            100,
            || 0u64,
            |acc, i| {
                *acc += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_creates_nothing() {
        let created = AtomicUsize::new(0);
        let out: Vec<usize> = worker_map(
            0,
            || {
                created.fetch_add(1, Ordering::Relaxed);
            },
            |_, i| i,
        );
        assert!(out.is_empty());
        assert_eq!(created.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn at_most_one_state_per_thread() {
        let created = AtomicUsize::new(0);
        let _ = worker_map(512, || created.fetch_add(1, Ordering::Relaxed), |_, i| i);
        let states = created.load(Ordering::Relaxed);
        assert!(states >= 1);
        assert!(
            states <= crate::num_threads(),
            "{states} states for {} threads",
            crate::num_threads()
        );
    }

    #[test]
    fn state_reused_across_items() {
        // Each state counts the items it served; totals must sum to n, and
        // with fewer states than items at least one state serves many.
        let served = Mutex::new(Vec::new());
        struct Tally<'a> {
            count: usize,
            sink: &'a Mutex<Vec<usize>>,
        }
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                self.sink.lock().unwrap().push(self.count);
            }
        }
        let _ = worker_map(
            200,
            || Tally { count: 0, sink: &served },
            |t, i| {
                t.count += 1;
                i
            },
        );
        let counts = served.lock().unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert!(counts.len() <= crate::num_threads());
    }

    #[test]
    fn single_item() {
        assert_eq!(worker_map(1, || (), |_, i| i + 7), vec![7]);
    }
}
