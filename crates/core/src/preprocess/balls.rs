//! Truncated Dijkstra ball search (Lemma 4.2).
//!
//! For a source `v`, finds the ρ closest vertices (counting `v` itself),
//! continuing through distance ties — the deterministic variant of §5.1 —
//! while examining only the ρ *lightest* edges of each visited vertex,
//! which Lemma 4.2 shows is sufficient to reach the ρ closest. Each search
//! explores at most `O(ρ²)` edges (tight on the Figure-2 gadget).
//!
//! Besides distances, the search records hop counts and *hop-minimal*
//! parents (Dijkstra ordered lexicographically by `(dist, hops)`), giving
//! the shortest-path tree with fewest hops per vertex that the DP
//! heuristic of §4.2.2 requires.
//!
//! Searches from many sources run in parallel with per-worker scratch
//! (epoch-stamped arrays), so an n-source pass allocates `O(n)` per worker,
//! not `O(n²)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// One vertex of a ball, in pop (distance, hops) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallMember {
    /// The vertex.
    pub v: VertexId,
    /// Exact distance from the ball's source.
    pub dist: Dist,
    /// Hop count of the hop-minimal shortest path from the source.
    pub hops: u32,
    /// Predecessor on that path (the source's parent is itself).
    pub parent: VertexId,
}

/// Result of one ball search.
#[derive(Debug, Clone)]
pub struct Ball {
    /// Source vertex.
    pub source: VertexId,
    /// Members in pop order; `members[0]` is the source itself.
    pub members: Vec<BallMember>,
    /// `r_ρ(source)`: distance of the ρ-th closest vertex (counting the
    /// source), or [`INF`] when fewer than ρ vertices are reachable.
    pub radius: Dist,
    /// Edges examined — the Lemma 4.2 work measure (Figure 2 experiment).
    pub explored_edges: u64,
}

impl Ball {
    /// Indexes the members by vertex, in `O(b log b)` for `b` members.
    pub fn member_index(&self) -> MemberIndex {
        let mut by_vertex: Vec<(VertexId, usize)> =
            self.members.iter().enumerate().map(|(i, m)| (m.v, i)).collect();
        by_vertex.sort_unstable();
        MemberIndex(by_vertex)
    }
}

/// The position of every member in [`Ball::members`], sorted by vertex:
/// the one vertex → member lookup that the shortcut heuristics and the
/// chain recording share. Built by [`Ball::member_index`].
pub struct MemberIndex(Vec<(VertexId, usize)>);

impl MemberIndex {
    /// The position of member `v` in [`Ball::members`]. Panics when `v` is
    /// not a member.
    pub fn position(&self, v: VertexId) -> usize {
        let at = self.0.binary_search_by_key(&v, |e| e.0);
        self.0[at.expect("vertex is a ball member")].1
    }

    /// `(vertex, position)` pairs in ascending vertex order.
    pub fn by_vertex(&self) -> &[(VertexId, usize)] {
        &self.0
    }
}

/// Reusable per-worker state for ball searches.
pub struct BallScratch {
    dist: Vec<Dist>,
    hops: Vec<u32>,
    parent: Vec<VertexId>,
    stamp: Vec<u32>,
    done: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(Dist, u32, VertexId)>>,
}

impl BallScratch {
    /// Scratch for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        BallScratch {
            dist: vec![0; n],
            hops: vec![0; n],
            parent: vec![0; n],
            stamp: vec![0; n],
            done: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.done.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
    }

    #[inline]
    fn reach(&mut self, v: VertexId, d: Dist, h: u32, p: VertexId) -> bool {
        let i = v as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.dist[i] = d;
            self.hops[i] = h;
            self.parent[i] = p;
            true
        } else if self.done[i] != self.epoch && (d, h) < (self.dist[i], self.hops[i]) {
            self.dist[i] = d;
            self.hops[i] = h;
            self.parent[i] = p;
            true
        } else {
            false
        }
    }
}

/// Runs one truncated Dijkstra from `source` on `g` (whose adjacency must
/// be weight-sorted, see [`CsrGraph::weight_sorted`]), visiting the ρ
/// closest vertices and everything tied at distance `r_ρ`, using only the
/// `edge_cap` lightest edges per vertex (the paper uses `edge_cap = ρ`).
pub fn ball_search(
    g: &CsrGraph,
    source: VertexId,
    rho: usize,
    edge_cap: usize,
    scratch: &mut BallScratch,
) -> Ball {
    assert!(rho >= 1, "a ball has at least its source");
    scratch.begin();
    let mut members: Vec<BallMember> = Vec::with_capacity(rho + 4);
    let mut radius: Dist = INF;
    let mut explored: u64 = 0;

    scratch.reach(source, 0, 0, source);
    scratch.heap.push(Reverse((0, 0, source)));

    while let Some(Reverse((d, h, v))) = scratch.heap.pop() {
        let i = v as usize;
        if scratch.done[i] == scratch.epoch || (d, h) != (scratch.dist[i], scratch.hops[i]) {
            continue; // stale heap entry
        }
        if members.len() >= rho && d > radius {
            break; // past the tie plateau at r_ρ
        }
        scratch.done[i] = scratch.epoch;
        members.push(BallMember { v, dist: d, hops: h, parent: scratch.parent[i] });
        if members.len() == rho {
            radius = d;
        }
        for (u, w) in g.edges(v).take(edge_cap) {
            explored += 1;
            if scratch.done[u as usize] == scratch.epoch {
                continue;
            }
            let (nd, nh) = (d + w as Dist, h + 1);
            if scratch.reach(u, nd, nh, v) {
                scratch.heap.push(Reverse((nd, nh, u)));
            }
        }
    }

    Ball { source, members, radius, explored_edges: explored }
}

/// Computes `r_ρ(v)` for every vertex, in parallel, without materialising
/// ball memberships — the `O(n)`-memory path the step-count experiments of
/// §5.3 need even at `ρ = 10^4`.
pub fn compute_radii(g: &CsrGraph, rho: usize) -> Vec<Dist> {
    let ws = g.weight_sorted();
    (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map_init(
            || BallScratch::new(g.num_vertices()),
            |scratch, v| ball_search(&ws, v, rho, rho, scratch).radius,
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_baselines::dijkstra_default;
    use rs_graph::{gen, weights, WeightModel};

    /// Brute-force r_ρ: full Dijkstra, sort distances, take the ρ-th.
    fn brute_radius(g: &CsrGraph, v: VertexId, rho: usize) -> Dist {
        let mut d = dijkstra_default(g, v);
        d.sort_unstable();
        d.get(rho - 1).copied().unwrap_or(INF)
    }

    #[test]
    fn radius_matches_brute_force_weighted() {
        let g =
            weights::reweight(&gen::grid2d(7, 9), WeightModel::paper_weighted(), 3).weight_sorted();
        let mut scratch = BallScratch::new(g.num_vertices());
        for rho in [1usize, 2, 5, 16, 40] {
            for v in [0u32, 5, 31, 62] {
                let ball = ball_search(&g, v, rho, rho, &mut scratch);
                assert_eq!(ball.radius, brute_radius(&g, v, rho), "r_{rho}({v}) mismatch");
            }
        }
    }

    #[test]
    fn radius_matches_brute_force_scale_free() {
        let g = weights::reweight(&gen::scale_free(150, 3, 5), WeightModel::paper_weighted(), 7)
            .weight_sorted();
        let mut scratch = BallScratch::new(150);
        for rho in [2usize, 8, 25] {
            for v in [0u32, 10, 100, 149] {
                assert_eq!(
                    ball_search(&g, v, rho, rho, &mut scratch).radius,
                    brute_radius(&g, v, rho)
                );
            }
        }
    }

    #[test]
    fn rho_one_radius_is_zero() {
        // The source is its own closest vertex: r_1(v) = 0 (this is what
        // makes ρ = 1 collapse radius stepping into Dijkstra, §5.3).
        let g = gen::cycle(10);
        let mut scratch = BallScratch::new(10);
        let ball = ball_search(&g, 3, 1, 1, &mut scratch);
        assert_eq!(ball.radius, 0);
        assert_eq!(ball.members.len(), 1);
        assert_eq!(ball.members[0].v, 3);
    }

    #[test]
    fn ties_are_included() {
        // Unweighted star: every leaf is at distance 1. With ρ = 3 the
        // plateau at r_ρ = 1 must be fully included (§5.1's deterministic
        // variant).
        let g = gen::star(8);
        let mut scratch = BallScratch::new(8);
        let ball = ball_search(&g, 0, 3, 8, &mut scratch);
        assert_eq!(ball.radius, 1);
        assert_eq!(ball.members.len(), 8, "all 7 tied leaves included");
    }

    #[test]
    fn members_complete_below_radius() {
        // Every vertex strictly inside the radius must be a member even
        // with the ρ-lightest-edges cap.
        let g =
            weights::reweight(&gen::grid2d(6, 6), WeightModel::paper_weighted(), 9).weight_sorted();
        let mut scratch = BallScratch::new(36);
        for v in 0..36u32 {
            let rho = 10;
            let ball = ball_search(&g, v, rho, rho, &mut scratch);
            let exact = dijkstra_default(&g, v);
            let inside = exact.iter().filter(|&&d| d < ball.radius).count();
            let member_inside = ball.members.iter().filter(|m| m.dist < ball.radius).count();
            assert_eq!(member_inside, inside, "missing strict-interior member of ball({v})");
            assert!(ball.members.len() >= rho.min(36));
        }
    }

    #[test]
    fn parents_are_hop_minimal() {
        // Square with a heavy diagonal: 0-1-3 and 0-2-3 both length 2;
        // direct edge 0-3 weight 2 has 1 hop. Hop-minimal parent of 3 is 0.
        let mut b = rs_graph::EdgeListBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 2);
        let g = b.build().weight_sorted();
        let mut scratch = BallScratch::new(4);
        let ball = ball_search(&g, 0, 4, 4, &mut scratch);
        let m3 = ball.members.iter().find(|m| m.v == 3).unwrap();
        assert_eq!(m3.dist, 2);
        assert_eq!(m3.hops, 1, "prefers the 1-hop shortest path");
        assert_eq!(m3.parent, 0);
    }

    #[test]
    fn small_component_radius_inf() {
        let g = gen::path(3); // only 3 reachable vertices
        let mut scratch = BallScratch::new(3);
        let ball = ball_search(&g, 0, 5, 5, &mut scratch);
        assert_eq!(ball.radius, INF);
        assert_eq!(ball.members.len(), 3);
    }

    #[test]
    fn explored_edges_quadratic_on_fig2_gadget() {
        // Lemma 4.2's O(ρ²) bound is tight: on the Figure-2 gadget the
        // search must examine Θ(d²) edges to collect 3d vertices.
        let mut scratch_small;
        let mut ratio = Vec::new();
        for d in [8usize, 16, 32] {
            let g = gen::fig2_gadget(d, 3);
            scratch_small = BallScratch::new(g.num_vertices());
            let rho = 3 * d;
            let ball = ball_search(&g.weight_sorted(), 0, rho, rho, &mut scratch_small);
            assert_eq!(ball.members.len(), 3 * d);
            ratio.push(ball.explored_edges as f64 / (d * d) as f64);
        }
        // Θ(d²): the ratio explored/d² stays within a constant band.
        for r in &ratio {
            assert!((0.5..8.0).contains(r), "explored/d² = {r} outside Θ(d²) band");
        }
    }

    #[test]
    fn compute_radii_matches_per_source_search() {
        let g = weights::reweight(&gen::scale_free(80, 3, 1), WeightModel::paper_weighted(), 2);
        let radii = compute_radii(&g, 7);
        let ws = g.weight_sorted();
        let mut scratch = BallScratch::new(80);
        for v in 0..80u32 {
            assert_eq!(radii[v as usize], ball_search(&ws, v, 7, 7, &mut scratch).radius);
        }
    }
}
