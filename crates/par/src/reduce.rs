//! Parallel reductions.
//!
//! Radius stepping's round-distance selection (`d_i = min_{v∉S} δ(v)+r(v)`,
//! Algorithm 1 line 4) is a parallel min-reduction over the fringe. It
//! runs as chunked fold/reduce tasks on the work-stealing pool, so the
//! reduction is `O(n)` work and `O(n/P + P)` span regardless of scheduling.

use rayon::prelude::*;

use crate::SEQ_THRESHOLD;

/// Minimum of `f(i)` over `0..n`; `u64::MAX` when `n == 0`.
pub fn par_min<F>(n: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync + Send,
{
    if n < SEQ_THRESHOLD {
        (0..n).map(f).min().unwrap_or(u64::MAX)
    } else {
        (0..n).into_par_iter().map(f).min().unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_empty() {
        assert_eq!(par_min(0, |_| 0), u64::MAX);
    }

    #[test]
    fn min_small() {
        let vals = [5u64, 3, 9, 3, 7];
        assert_eq!(par_min(vals.len(), |i| vals[i]), 3);
    }

    #[test]
    fn all_infinite_is_none() {
        // `u64::MAX` stands for "no finite minimum".
        assert_eq!(par_min(10, |_| u64::MAX), u64::MAX);
    }

    #[test]
    fn min_large_parallel_path() {
        let n = SEQ_THRESHOLD * 3;
        let f = |i: usize| ((i as u64).wrapping_mul(2654435761)) % 1_000_003 + 1;
        let expect = (0..n).map(f).min().unwrap();
        assert_eq!(par_min(n, f), expect);
    }
}
