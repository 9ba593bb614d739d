//! Parallel packing (filter/compact).
//!
//! `pack` is the PRAM primitive behind frontier compaction: given a
//! predicate over `0..n`, produce the dense list of satisfying indices in
//! order. Implemented as count → scan → scatter, with the count and scatter
//! passes running as work-stealing pool tasks; `O(n)` work, `O(n/P + P)`
//! span.

use rayon::prelude::*;

use crate::{chunk_ranges, scan::exclusive_scan_usize, SEQ_THRESHOLD};

/// Indices `i` in `0..n` with `pred(i)`, in ascending order.
pub fn pack_indices<F>(n: usize, pred: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    if n < SEQ_THRESHOLD {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let ranges = chunk_ranges(n, rayon::current_num_threads() * 8);
    let counts: Vec<usize> =
        ranges.par_iter().with_min_len(1).map(|r| r.clone().filter(|&i| pred(i)).count()).collect();
    let (offsets, total) = exclusive_scan_usize(&counts);
    let mut out = vec![0u32; total];
    // Scatter each block into its disjoint slice of the output.
    let mut slices: Vec<&mut [u32]> = Vec::with_capacity(ranges.len());
    let mut rest = out.as_mut_slice();
    for (i, _) in ranges.iter().enumerate() {
        let take =
            if i + 1 < ranges.len() { offsets[i + 1] - offsets[i] } else { total - offsets[i] };
        let (head, tail) = rest.split_at_mut(take);
        slices.push(head);
        rest = tail;
    }
    ranges.into_par_iter().zip(slices.into_par_iter()).with_min_len(1).for_each(|(r, slice)| {
        let mut j = 0;
        for i in r {
            if pred(i) {
                slice[j] = i as u32;
                j += 1;
            }
        }
        debug_assert_eq!(j, slice.len());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert!(pack_indices(0, |_| true).is_empty());
    }

    #[test]
    fn all_and_none() {
        assert_eq!(pack_indices(5, |_| true), vec![0, 1, 2, 3, 4]);
        assert!(pack_indices(5, |_| false).is_empty());
    }

    #[test]
    fn evens_small() {
        assert_eq!(pack_indices(9, |i| i % 2 == 0), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn large_parallel_path_matches_sequential() {
        let n = SEQ_THRESHOLD * 2 + 333;
        let pred = |i: usize| (i * 2654435761).is_multiple_of(5);
        let expect: Vec<u32> = (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
        assert_eq!(pack_indices(n, pred), expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pack_matches_filter(flags in proptest::collection::vec(any::<bool>(), 0..3000)) {
            let got = pack_indices(flags.len(), |i| flags[i]);
            let expect: Vec<u32> = flags
                .iter()
                .enumerate()
                .filter(|(_, &f)| f)
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}
