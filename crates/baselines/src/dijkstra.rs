//! Sequential Dijkstra on the 4-ary [`DaryHeap`].
//!
//! The correctness reference for every parallel solver in the workspace:
//! the one independent oracle the tests, examples and benchmarks compare
//! against.

use rs_core::Goals;
use rs_ds::DaryHeap;
use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// The one relaxation loop behind every public variant: optionally
/// stops once every goal in the bound has been popped (one-to-many
/// fan-out in a single solve), and
/// reports the pops (settled count) and attempted edge relaxations. The
/// heap is caller-provided (and must arrive empty with capacity ≥ `n`) so
/// batch workloads can reuse one heap across sources — see
/// [`rs_core::SolverScratch`]. With `parent` supplied (a `u32::MAX`-filled
/// `n`-slice), the shortest-path tree is recorded inline — O(1) per
/// relaxation, no post-pass — covering every improved vertex (settled
/// entries telescope exactly).
pub fn dijkstra_into_heap_with_parents(
    g: &CsrGraph,
    s: VertexId,
    goals: Goals<'_>,
    heap: &mut DaryHeap,
    mut parent: Option<&mut [VertexId]>,
) -> (Vec<Dist>, usize, u64) {
    let n = g.num_vertices();
    debug_assert!(heap.is_empty() && heap.capacity() >= n, "heap must arrive empty and sized");
    let mut dist = vec![INF; n];
    let mut settled = 0;
    let mut relaxations = 0u64;
    dist[s as usize] = 0;
    if let Some(p) = parent.as_deref_mut() {
        p[s as usize] = s;
    }
    // Countdown of goals not yet popped; membership is a binary search, so
    // the per-pop cost is O(log k), not O(k). `Goals::Many` arrives sorted
    // and deduplicated (the query plane canonicalises; asserted below).
    // `None` bound → usize::MAX, never reached.
    let goal_set = goals.as_slice();
    debug_assert!(
        goal_set.windows(2).all(|w| w[0] < w[1]),
        "Goals::Many must be sorted and deduplicated"
    );
    let mut remaining = if goals.bounded() { goal_set.len() } else { usize::MAX };
    if remaining == 0 {
        // An empty goal set is trivially settled: only the source is.
        return (dist, 1, 0);
    }
    heap.push_or_decrease(s, 0);
    while let Some((u, du)) = heap.pop_min() {
        debug_assert_eq!(du, dist[u as usize]);
        settled += 1;
        if goals.bounded() && goal_set.binary_search(&u).is_ok() {
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        relaxations += g.degree(u) as u64;
        for (v, w) in g.edges(u) {
            let cand = du + w as Dist;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                if let Some(p) = parent.as_deref_mut() {
                    p[v as usize] = u;
                }
                heap.push_or_decrease(v, cand);
            }
        }
    }
    (dist, settled, relaxations)
}

/// Single-source shortest paths; `dist[v] = INF` if unreachable.
pub fn dijkstra_default(g: &CsrGraph, s: VertexId) -> Vec<Dist> {
    let mut heap = DaryHeap::with_capacity(g.num_vertices());
    dijkstra_into_heap_with_parents(g, s, Goals::None, &mut heap, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_core::stats::extract_path;
    use rs_graph::{gen, weights, EdgeListBuilder, WeightModel};

    fn diamond() -> CsrGraph {
        // 0 -2- 1 -2- 3, 0 -5- 2 -1- 3: shortest 0->3 = 4 via 1.
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 3, 2);
        b.add_edge(0, 2, 5);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn hand_checked_distances() {
        let d = dijkstra_default(&diamond(), 0);
        assert_eq!(d, vec![0, 2, 5, 4]);
    }

    #[test]
    fn unreachable_is_inf() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 7);
        let d = dijkstra_default(&b.build(), 0);
        assert_eq!(d, vec![0, 7, INF]);
    }

    #[test]
    fn parents_form_shortest_paths() {
        let g = weights::reweight(&gen::scale_free(200, 3, 2), WeightModel::paper_weighted(), 5);
        let mut parent = vec![u32::MAX; 200];
        let mut heap = DaryHeap::with_capacity(200);
        let (dist, ..) =
            dijkstra_into_heap_with_parents(&g, 0, Goals::None, &mut heap, Some(&mut parent));
        for t in 0..200u32 {
            let path = extract_path(&parent, t).expect("connected");
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), t);
            let mut acc = 0u64;
            for w in path.windows(2) {
                acc += g.arc_weight(w[0], w[1]).expect("path edge exists") as u64;
            }
            assert_eq!(acc, dist[t as usize], "path weight equals distance to {t}");
        }
    }

    #[test]
    fn source_distance_zero_path_trivial() {
        let mut parent = vec![u32::MAX; 4];
        let mut heap = DaryHeap::with_capacity(4);
        dijkstra_into_heap_with_parents(&diamond(), 2, Goals::None, &mut heap, Some(&mut parent));
        assert_eq!(extract_path(&parent, 2), Some(vec![2]));
    }
}
