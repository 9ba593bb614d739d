//! Meyer–Sanders ∆-stepping (J. Algorithms 2003), the algorithm radius
//! stepping refines.
//!
//! Unsettled vertices live in buckets of width ∆ by tentative distance.
//! Bucket `i` is processed in *light phases*: relax only light edges
//! (`w ≤ ∆`), re-collecting vertices that fall back into bucket `i`, until
//! the bucket stays empty; then relax the heavy edges (`w > ∆`) of every
//! vertex the bucket settled, once. Within a phase, relaxations run in
//! parallel with a priority-write.
//!
//! The phase counter corresponds to the paper's complaint that ∆-stepping
//! "can take Θ(n) substeps" per step: light phases per bucket are bounded
//! only by the longest light-edge chain inside the bucket, which is what
//! radius stepping's `k + 2` bound fixes.
//!
//! This is the comparator for `repro -- substeps` and the `sssp_compare`
//! bench, not a solver: `Algorithm::DeltaStepping { delta }` builds the
//! radius-stepping frontier engine at `r ≡ ∆`.

use rayon::prelude::*;

use rs_core::SolverScratch;
use rs_graph::{CsrGraph, Dist, VertexId, Weight};
use rs_par::{AtomicBitset, EpochMinArray};

use crate::bucket::BucketQueue;

/// Outcome of a ∆-stepping run.
#[derive(Debug, Clone)]
pub struct DeltaSteppingResult {
    /// Exact shortest-path distances.
    pub dist: Vec<Dist>,
    /// Nonempty buckets processed (the ∆-stepping analogue of "steps").
    pub buckets: usize,
    /// Light phases executed (the analogue of "substeps").
    pub phases: usize,
    /// Largest number of light phases any single bucket needed — the
    /// quantity radius stepping's `k + 2` bound improves on.
    pub max_phases_in_bucket: usize,
}

/// Runs ∆-stepping from `source` with bucket width `delta ≥ 1`. The
/// tentative distances and bitsets come from a local [`SolverScratch`].
pub fn delta_stepping(g: &CsrGraph, source: VertexId, delta: Dist) -> DeltaSteppingResult {
    assert!(delta >= 1);
    let n = g.num_vertices();
    rs_core::scratch::assert_distance_range(g);
    let mut scratch = SolverScratch::new();
    scratch.begin(n);
    let view = scratch.view();
    let dist = view.dist;
    let settled_heavy = view.settled; // vertices whose heavy edges were relaxed
    let claimed = view.mark_a; // per-phase dedup, self-cleaning in relax_edges
    let mut queue = BucketQueue::new(n, delta, g.max_weight() as u64);
    let mut buckets = 0;
    let mut phases = 0;
    let mut max_phases = 0;

    dist.store(source as usize, 0);
    queue.insert_or_decrease(source, 0);

    let light = |w: Weight| (w as Dist) <= delta;

    while let Some(b) = queue.next_nonempty_bucket() {
        buckets += 1;
        // Light phases: drain bucket b until it stays empty.
        let mut settled_here: Vec<VertexId> = Vec::new();
        let mut phases_here = 0;
        loop {
            let frontier = queue.take_bucket(b);
            if frontier.is_empty() {
                break;
            }
            phases += 1;
            phases_here += 1;
            let updated = relax_edges(g, dist, claimed, &frontier, light);
            settled_here.extend_from_slice(&frontier);
            // Re-bucket updated vertices; ones falling into bucket b loop.
            for (v, d) in updated {
                if queue.bucket_of(d) >= b {
                    queue.insert_or_decrease(v, d);
                }
            }
        }
        max_phases = max_phases.max(phases_here);
        // Heavy phase: relax heavy edges of everything settled in bucket b.
        let heavy_sources: Vec<VertexId> =
            settled_here.into_iter().filter(|&v| settled_heavy.set(v as usize)).collect();
        let updated = relax_edges(g, dist, claimed, &heavy_sources, |w| !light(w));
        for (v, d) in updated {
            queue.insert_or_decrease(v, d);
        }
    }

    DeltaSteppingResult {
        dist: dist.snapshot(n),
        buckets,
        phases,
        max_phases_in_bucket: max_phases,
    }
}

/// Relaxes the `keep`-filtered out-edges of `sources` in parallel;
/// returns each improved vertex once with its new tentative distance.
/// `claimed` must arrive all-clear and is handed back all-clear (bits are
/// reset for exactly the touched vertices), so one scratch bitset serves
/// every phase without an `O(n)` sweep.
fn relax_edges<F>(
    g: &CsrGraph,
    dist: &EpochMinArray,
    claimed: &AtomicBitset,
    sources: &[VertexId],
    keep: F,
) -> Vec<(VertexId, Dist)>
where
    F: Fn(Weight) -> bool + Sync,
{
    // Snapshot source distances so each phase is synchronous and the phase
    // count is schedule-independent.
    let snapshot: Vec<(VertexId, Dist)> =
        sources.iter().map(|&u| (u, dist.load(u as usize))).collect();
    let relax_one = |acc: &mut Vec<VertexId>, (u, du): (VertexId, Dist)| {
        for (v, w) in g.edges(u) {
            if keep(w) && dist.write_min(v as usize, du + w as Dist) && claimed.set(v as usize) {
                acc.push(v);
            }
        }
    };
    let touched: Vec<VertexId> = if snapshot.len() < 1024 {
        let mut acc = Vec::new();
        for &pair in &snapshot {
            relax_one(&mut acc, pair);
        }
        acc
    } else {
        snapshot
            .par_iter()
            .fold(Vec::new, |mut acc, &pair| {
                relax_one(&mut acc, pair);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            })
    };
    touched
        .into_iter()
        .map(|v| {
            claimed.clear(v as usize);
            (v, dist.load(v as usize))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_default;
    use rs_graph::{gen, weights, WeightModel, INF};

    #[test]
    fn agrees_with_dijkstra_various_deltas() {
        let g = weights::reweight(&gen::grid2d(11, 9), WeightModel::paper_weighted(), 13);
        let expect = dijkstra_default(&g, 7);
        for delta in [1u64, 100, 3_000, 10_000, 1_000_000] {
            let out = delta_stepping(&g, 7, delta);
            assert_eq!(out.dist, expect, "delta = {delta}");
        }
    }

    #[test]
    fn agrees_on_scale_free() {
        let g = weights::reweight(&gen::scale_free(400, 4, 3), WeightModel::paper_weighted(), 17);
        let expect = dijkstra_default(&g, 0);
        for delta in [500u64, 5_000] {
            assert_eq!(delta_stepping(&g, 0, delta).dist, expect);
        }
    }

    #[test]
    fn big_delta_degenerates_to_bellman_ford() {
        // One bucket holds everything: buckets == 1.
        let g = weights::reweight(&gen::path(20), WeightModel::UniformInt { lo: 1, hi: 5 }, 2);
        let out = delta_stepping(&g, 0, 1_000_000);
        assert_eq!(out.buckets, 1);
        assert_eq!(out.dist, dijkstra_default(&g, 0));
    }

    #[test]
    fn small_delta_many_buckets() {
        let g = gen::path(10); // unit weights
        let out = delta_stepping(&g, 0, 1);
        // Every vertex sits in its own bucket: 0..=9 -> 10 buckets, but the
        // bucket of the source settles only the source, etc.
        assert_eq!(out.buckets, 10);
        assert_eq!(out.dist[9], 9);
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = gen::star(4);
        let mut b = rs_graph::EdgeListBuilder::new(6);
        for (u, v, w) in g.all_arcs().filter(|&(u, v, _)| u < v) {
            b.add_edge(u, v, w);
        }
        let g = b.build(); // vertices 4, 5 isolated
        let out = delta_stepping(&g, 0, 2);
        assert_eq!(out.dist[4], INF);
        assert_eq!(out.dist[5], INF);
    }
}
