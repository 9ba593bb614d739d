//! Exact (brute-force) computation of the paper's structural quantities,
//! for validating the fast paths on small graphs.
//!
//! * [`dist_hops`] — per-vertex `(d(u,v), d̂(u,v))`: shortest distance and
//!   the hop count of the hop-minimal shortest path (Definition 1).
//! * [`k_radius`] — `r̄_k(u) = min{ d(u,v) : d̂(u,v) > k }` (Definition 2).
//! * [`ball_size`] — `|B(u, r)|` (§2).
//! * [`check_k_rho_graph`] — verifies Definition 4 plus Lemma 4.1's
//!   preconditions for a radius assignment.
//! * [`step_bound`] / [`substep_bound`] — the Theorem 3.2/3.3 bounds.
//! * [`step_trace`] — Algorithm 1 run sequentially: the step oracle the
//!   parallel frontier engine is checked against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

use crate::radii::Radii;
use crate::stats::StepTrace;

/// Exact `(distance, min-hop)` pairs from `source` (full Dijkstra ordered
/// lexicographically by `(dist, hops)`).
pub fn dist_hops(g: &CsrGraph, source: VertexId) -> Vec<(Dist, u32)> {
    let n = g.num_vertices();
    let mut best: Vec<(Dist, u32)> = vec![(INF, u32::MAX); n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    best[source as usize] = (0, 0);
    heap.push(Reverse((0u64, 0u32, source)));
    while let Some(Reverse((d, h, u))) = heap.pop() {
        if done[u as usize] || (d, h) != best[u as usize] {
            continue;
        }
        done[u as usize] = true;
        for (v, w) in g.edges(u) {
            let cand = (d + w as Dist, h + 1);
            if !done[v as usize] && cand < best[v as usize] {
                best[v as usize] = cand;
                heap.push(Reverse((cand.0, cand.1, v)));
            }
        }
    }
    best
}

/// Exact k-radius `r̄_k(u)` (Definition 2): the closest distance to `u`
/// among vertices more than `k` hops away; `INF` if none exists.
pub fn k_radius(g: &CsrGraph, u: VertexId, k: u32) -> Dist {
    dist_hops(g, u)
        .iter()
        .filter(|&&(d, h)| d != INF && h > k)
        .map(|&(d, _)| d)
        .min()
        .unwrap_or(INF)
}

/// Exact enclosed-ball size `|B(u, r)| = |{v : d(u,v) ≤ r}|`.
pub fn ball_size(g: &CsrGraph, u: VertexId, r: Dist) -> usize {
    dist_hops(g, u).iter().filter(|&&(d, _)| d <= r).count()
}

/// Verifies the two preconditions of Lemma 4.1 for a radius assignment:
/// `r(v) ≤ r̄_k(v)` (bounds substeps) and `|B(v, r(v))| ≥ ρ` (bounds
/// steps). Returns the first violating vertex, if any. `O(n · m log n)` —
/// test-scale graphs only.
pub fn check_k_rho_graph(
    g: &CsrGraph,
    radii: &Radii,
    k: u32,
    rho: usize,
) -> Result<(), (VertexId, String)> {
    for v in 0..g.num_vertices() as VertexId {
        let r = radii.get(v);
        let rk = k_radius(g, v, k);
        if r > rk {
            return Err((v, format!("r({v}) = {r} exceeds k-radius {rk}")));
        }
        let b = ball_size(g, v, r);
        if b < rho {
            return Err((v, format!("|B({v}, {r})| = {b} < rho = {rho}")));
        }
    }
    Ok(())
}

/// `⌈log₂ x⌉` for `x ≥ 1`.
pub fn ceil_log2(x: u64) -> u32 {
    assert!(x >= 1);
    64 - (x - 1).leading_zeros().min(64)
}

/// Theorem 3.3's step bound: `⌈n/ρ⌉ (1 + ⌈log₂ ρL⌉)`.
pub fn step_bound(n: usize, rho: usize, max_weight: u64) -> usize {
    n.div_ceil(rho) * (1 + ceil_log2((rho as u64).saturating_mul(max_weight)) as usize)
}

/// Theorem 3.2's substep bound: `k + 2`.
pub fn substep_bound(k: u32) -> usize {
    k as usize + 2
}

/// Algorithm 1 run sequentially over plain vectors: exact distances from
/// `source` plus one [`StepTrace`] per step, the sequence the frontier
/// engine must reproduce. Each substep relaxes from a snapshot of the
/// previous substep's updated vertices (Jacobi), and a step ends after
/// the first substep with no update `≤ d_i`. `O(n)` per step — test-scale
/// graphs only.
pub fn step_trace(g: &CsrGraph, radii: &Radii, source: VertexId) -> (Vec<Dist>, Vec<StepTrace>) {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut settled = vec![false; n];
    dist[source as usize] = 0;
    settled[source as usize] = true;
    for (v, w) in g.edges(source) {
        dist[v as usize] = dist[v as usize].min(w as Dist);
    }
    // The fringe is the unsettled vertices with a finite δ. Unreached
    // vertices stay out: at r ≡ ∞ the key saturates to d_i = ∞, so
    // `δ ≤ d_i` alone would admit them.
    let fringe = |dist: &[Dist], settled: &[bool]| -> Vec<usize> {
        (0..n).filter(|&v| !settled[v] && dist[v] != INF).collect()
    };
    let mut trace = Vec::new();
    loop {
        let reached = fringe(&dist, &settled);
        let Some(di) = reached.iter().map(|&v| radii.key(v as VertexId, dist[v])).min() else {
            break;
        };
        let mut dirty: Vec<usize> = reached.into_iter().filter(|&v| dist[v] <= di).collect();
        let mut substeps = 0;
        while !dirty.is_empty() {
            substeps += 1;
            let snapshot: Vec<(usize, Dist)> = dirty.drain(..).map(|u| (u, dist[u])).collect();
            for (u, du) in snapshot {
                for (v, w) in g.edges(u as VertexId) {
                    let (v, cand) = (v as usize, du + w as Dist);
                    if cand < dist[v] {
                        assert!(!settled[v], "relaxation lowered settled vertex {v}");
                        dist[v] = cand;
                        if cand <= di {
                            dirty.push(v);
                        }
                    }
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
        }
        // A_i is every fringe vertex now at δ ≤ d_i: the initial active set
        // plus every vertex a substep pulled down to d_i.
        let active: Vec<usize> =
            fringe(&dist, &settled).into_iter().filter(|&v| dist[v] <= di).collect();
        for &v in &active {
            settled[v] = true;
        }
        trace.push(StepTrace {
            d_i: di,
            settled: active.len(),
            substeps,
            active_size: active.len(),
        });
    }
    (dist, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::{gen, weights, EdgeListBuilder, WeightModel};

    /// The frontier engine's distances and full step trace equal the
    /// oracle's.
    fn assert_matches_oracle(g: &CsrGraph, radii: &Radii, s: VertexId) {
        let out = crate::radius_stepping_with(g, radii, s, crate::EngineConfig::with_trace());
        assert_eq!((out.dist, out.stats.trace.unwrap()), step_trace(g, radii, s), "{radii:?}");
    }

    #[test]
    fn oracle_matches_frontier_across_radii() {
        let g = weights::reweight(&gen::grid2d(10, 12), WeightModel::paper_weighted(), 6);
        for radii in [Radii::Zero, Radii::Constant(1000), Radii::Constant(20_000)] {
            assert_matches_oracle(&g, &radii, 0);
        }
        assert_matches_oracle(&g, &Radii::Infinite, 17);
    }

    #[test]
    fn oracle_matches_frontier_on_scale_free() {
        let g = weights::reweight(&gen::scale_free(300, 3, 4), WeightModel::paper_weighted(), 8);
        let radii = Radii::PerVertex((0..300).map(|v| (v as Dist * 37) % 5000).collect());
        assert_matches_oracle(&g, &radii, 5);
        // Big enough that Bellman–Ford substeps cross the engine's
        // parallel cutover.
        let g = weights::reweight(&gen::scale_free(20_000, 3, 4), WeightModel::paper_weighted(), 8);
        for radii in [Radii::Infinite, Radii::Constant(50_000)] {
            assert_matches_oracle(&g, &radii, 5);
        }
    }

    /// The unit-weight families of §3.4, where `r ≡ 0` is BFS.
    fn unit_graphs() -> [CsrGraph; 4] {
        [
            gen::grid2d(15, 16),
            gen::scale_free(400, 3, 3),
            gen::path(30),
            gen::webgraph(600, 3, 0.3, 15, 7),
        ]
    }

    #[test]
    fn oracle_matches_frontier_on_unit_weights() {
        for g in unit_graphs() {
            for radii in [Radii::Zero, Radii::Constant(3), Radii::Constant(10)] {
                assert_matches_oracle(&g, &radii, 0);
            }
            assert_matches_oracle(&g, &Radii::Infinite, 2);
        }
    }

    #[test]
    fn oracle_matches_frontier_on_unit_weights_with_preprocessed_radii() {
        for g in unit_graphs() {
            for rho in [2usize, 8, 32] {
                let radii = Radii::PerVertex(crate::preprocess::compute_radii(&g, rho).into());
                assert_matches_oracle(&g, &radii, 0);
            }
        }
    }

    #[test]
    fn unreachable_vertices() {
        // From a leaf, everything is reachable via the center.
        let g = gen::star(6);
        assert_matches_oracle(&g, &Radii::Zero, 3);
        let (_, trace) = step_trace(&g, &Radii::Zero, 3);
        assert_eq!(trace.iter().map(|t| t.settled).sum::<usize>(), 5);
        // Unreached vertices stay at ∞ and out of every step, also at
        // r ≡ ∞, where their key saturates to d_i.
        let mut b = EdgeListBuilder::new(5);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        let g = b.build();
        for radii in [Radii::Zero, Radii::Infinite] {
            assert_matches_oracle(&g, &radii, 0);
        }
        assert_eq!(step_trace(&g, &Radii::Infinite, 0).0, vec![0, 3, 7, INF, INF]);
    }

    #[test]
    fn oracle_counts_steps_and_substeps_by_hand() {
        // r ≡ ∞ on a unit path: one step; vertex 1 starts relaxed, ten
        // productive substeps reach vertex 11, plus the final check.
        let (dist, trace) = step_trace(&gen::path(12), &Radii::Infinite, 0);
        assert_eq!(dist[11], 11);
        let step = StepTrace { d_i: INF, settled: 11, substeps: 11, active_size: 11 };
        assert_eq!(trace, vec![step]);
        // r ≡ 0 settles one distance level per step, one substep each.
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 2);
        let (dist, trace) = step_trace(&b.build(), &Radii::Zero, 0);
        assert_eq!(dist, vec![0, 1, 1, 3]);
        let d_s: Vec<(Dist, usize, usize)> =
            trace.iter().map(|t| (t.d_i, t.settled, t.substeps)).collect();
        assert_eq!(d_s, vec![(1, 2, 1), (3, 1, 1)]);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 40), 40);
    }

    #[test]
    fn step_bound_formula() {
        // n=100, rho=10, L=1: ceil(100/10) * (1 + ceil(log2 10)) = 10 * 5.
        assert_eq!(step_bound(100, 10, 1), 50);
        assert_eq!(step_bound(101, 10, 1), 55);
        assert_eq!(substep_bound(1), 3);
    }

    #[test]
    fn dist_hops_prefers_fewer_hops_among_shortest() {
        // 0-3 direct weight 2; 0-1-3 and 0-2-3 weight 1+1.
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 2);
        let g = b.build();
        let dh = dist_hops(&g, 0);
        assert_eq!(dh[3], (2, 1), "1-hop shortest path wins");
        assert_eq!(dh[1], (1, 1));
    }

    #[test]
    fn k_radius_on_unit_path() {
        let g = gen::path(10);
        // From vertex 0, vertices at hops 1..9 and distance == hops.
        assert_eq!(k_radius(&g, 0, 1), 2);
        assert_eq!(k_radius(&g, 0, 3), 4);
        assert_eq!(k_radius(&g, 0, 9), INF, "nothing beyond 9 hops");
        // Middle vertex sees both directions.
        assert_eq!(k_radius(&g, 5, 2), 3);
    }

    #[test]
    fn ball_sizes_on_grid() {
        let g = gen::grid2d(5, 5);
        // Manhattan ball around the center: r=1 -> 5 vertices, r=2 -> 13.
        assert_eq!(ball_size(&g, 12, 0), 1);
        assert_eq!(ball_size(&g, 12, 1), 5);
        assert_eq!(ball_size(&g, 12, 2), 13);
    }

    #[test]
    fn preprocessing_satisfies_lemma_4_1() {
        // The end-to-end guarantee: after Preprocessed::build, the radii
        // and augmented graph form a (k, ρ)-graph in the exact sense.
        use crate::preprocess::{PreprocessConfig, Preprocessed, ShortcutHeuristic};
        let g = weights::reweight(&gen::grid2d(7, 7), WeightModel::paper_weighted(), 5);
        for (k, rho, h) in [
            (1u32, 6usize, ShortcutHeuristic::Full),
            (2, 10, ShortcutHeuristic::Greedy),
            (3, 12, ShortcutHeuristic::Dp),
        ] {
            let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho, heuristic: h });
            check_k_rho_graph(&pre.graph, &pre.radii, k, rho)
                .unwrap_or_else(|(v, msg)| panic!("{h:?}: {msg} (vertex {v})"));
        }
    }
}
