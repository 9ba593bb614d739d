//! ALT landmark tables for goal-directed point-to-point search.
//!
//! ALT (A*, Landmarks, Triangle inequality — Goldberg & Harrelson, SODA
//! 2005) prunes a goal-bounded search with the lower bound
//! `h(v) = max_L |d(L, v) − d(L, t)|`: by the triangle inequality every
//! `s`–`t` path through `v` has length at least `d(s, v) + h(v)`, so
//! relaxations that cannot improve the goal's tentative distance are
//! skipped. On the undirected graphs this workspace builds the bound is
//! *consistent*, which keeps A* pop order Dijkstra-exact — bit-identical
//! distances, far fewer scanned edges.
//!
//! Landmarks are elected by coverage-first farthest-point traversal:
//! every connected component gets a landmark (at its periphery, where
//! the triangle bound is tight) before the spread refines the largest
//! components, so goal-directed queries are never blind inside a
//! component just because vertex 0 lives elsewhere. Full distance fields
//! are stored row-per-landmark.
//! Only solvers built with [`crate::P2pMode::GoalDirected`] elect a table,
//! once, at construction ([`crate::solver::P2pKernel::resolve`]); the
//! (k, ρ) preprocessing and its cache carry none.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// How many landmarks a goal-directed solver elects.
pub const DEFAULT_LANDMARKS: usize = 8;

/// A set of landmark vertices with their full distance fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Landmarks {
    ids: Vec<VertexId>,
    /// `dists[l][v]` = d(landmark `l`, `v`); `INF` when unreachable.
    dists: Vec<Vec<Dist>>,
}

impl Landmarks {
    /// Elects up to `k` landmarks on `g` by coverage-first farthest-point
    /// traversal and computes their distance fields (sequential
    /// Dijkstras). Election is deterministic and **per-component**: while
    /// any component has no landmark, the lowest-id uncovered vertex
    /// seeds a probe Dijkstra and the farthest vertex of that component
    /// is elected (on a connected graph this reproduces the classic
    /// "farthest from vertex 0" seed exactly); once every component is
    /// covered, each next landmark maximises the minimum distance to the
    /// already-chosen set. Ties break toward the lowest id. Goal-directed
    /// searches inside *any* component therefore get finite, tight
    /// bounds — not just vertex 0's component.
    pub fn build(g: &CsrGraph, k: usize) -> Landmarks {
        let n = g.num_vertices();
        let mut lm = Landmarks { ids: Vec::new(), dists: Vec::new() };
        if n == 0 || k == 0 {
            return lm;
        }
        // min over elected fields; `INF` marks a still-uncovered vertex.
        let mut min_dist = vec![INF; n];
        while lm.ids.len() < k.min(n) {
            if let Some(seed) = min_dist.iter().position(|&d| d == INF) {
                // Coverage first: a component no landmark can see gets
                // one (its periphery, found via a probe from the seed —
                // an isolated vertex elects itself).
                let probe = sequential_dijkstra(g, seed as VertexId);
                let pick = farthest(&probe).unwrap_or(seed as VertexId);
                lm.push_landmark(g, pick);
            } else {
                // Every component covered: farthest-point spread.
                let Some(next) = farthest(&min_dist) else { break };
                if min_dist[next as usize] == 0 {
                    break; // every vertex is already a landmark
                }
                lm.push_landmark(g, next);
            }
            let field = lm.dists.last().expect("just pushed");
            for (m, &d) in min_dist.iter_mut().zip(field) {
                *m = (*m).min(d);
            }
        }
        lm
    }

    fn push_landmark(&mut self, g: &CsrGraph, v: VertexId) {
        self.dists.push(sequential_dijkstra(g, v));
        self.ids.push(v);
    }

    /// The elected landmark vertices.
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// The distance field of landmark `l` (row order matches
    /// [`Landmarks::ids`]).
    pub fn field(&self, l: usize) -> &[Dist] {
        &self.dists[l]
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no landmarks were elected (empty graph / `k = 0`).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The per-landmark goal rows `d(L, goal)`, hoisted out of the solve's
    /// inner loop by [`crate::engine::p2p`].
    pub fn goal_row(&self, goal: VertexId) -> Vec<Dist> {
        self.dists.iter().map(|field| field[goal as usize]).collect()
    }

    /// The ALT lower bound on `d(v, goal)` given the hoisted
    /// [`Landmarks::goal_row`]: `max_L |d(L, v) − d(L, goal)|`, with the
    /// `INF` cases resolved soundly — both infinite contributes nothing
    /// (the landmark sees neither endpoint), exactly one infinite proves
    /// `v` and the goal lie in different components (the bound is `INF`
    /// and the caller prunes).
    pub fn lower_bound(&self, v: VertexId, goal_row: &[Dist]) -> Dist {
        let mut h = 0;
        for (field, &dg) in self.dists.iter().zip(goal_row) {
            let dv = field[v as usize];
            let bound = match (dv == INF, dg == INF) {
                (true, true) => 0,
                (false, false) => dv.abs_diff(dg),
                _ => return INF,
            };
            h = h.max(bound);
        }
        h
    }
}

/// Index of the largest finite entry (ties toward the lowest id); `None`
/// when every entry is `INF`.
fn farthest(dist: &[Dist]) -> Option<VertexId> {
    let mut best: Option<(Dist, VertexId)> = None;
    for (v, &d) in dist.iter().enumerate() {
        if d != INF && best.is_none_or(|(bd, _)| d > bd) {
            best = Some((d, v as VertexId));
        }
    }
    best.map(|(_, v)| v)
}

/// Plain sequential Dijkstra over a std binary heap with lazy deletion —
/// construction-time only (landmark fields are built once per solver),
/// so it deliberately avoids the scratch machinery.
fn sequential_dijkstra(g: &CsrGraph, s: VertexId) -> Vec<Dist> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.edges(u) {
            let cand = d.saturating_add(w as Dist);
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Reverse((cand, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::{gen, EdgeListBuilder};

    #[test]
    fn election_is_deterministic_and_spread() {
        let g = gen::grid2d(9, 9);
        let a = Landmarks::build(&g, 4);
        let b = Landmarks::build(&g, 4);
        assert_eq!(a, b, "deterministic election");
        assert_eq!(a.len(), 4);
        let mut sorted = a.ids().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "landmarks are distinct");
    }

    #[test]
    fn lower_bound_is_valid_everywhere() {
        let g = gen::grid2d(7, 8);
        let lm = Landmarks::build(&g, 4);
        let n = g.num_vertices();
        for goal in [0u32, 17, (n - 1) as u32] {
            let truth = sequential_dijkstra(&g, goal);
            let row = lm.goal_row(goal);
            for v in 0..n as u32 {
                assert!(
                    lm.lower_bound(v, &row) <= truth[v as usize],
                    "h({v}) must lower-bound d({v}, {goal})"
                );
            }
        }
    }

    #[test]
    fn disconnected_components_prove_unreachability() {
        let mut b = EdgeListBuilder::new(6);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        b.add_edge(3, 4, 2); // second component: {3, 4, 5}
        b.add_edge(4, 5, 2);
        let g = b.build();
        let lm = Landmarks::build(&g, 2);
        // Coverage-first election: one landmark per component before any
        // spread — the periphery of {0,1,2} then the periphery of {3,4,5}.
        assert_eq!(lm.ids(), &[2, 5]);
        // A goal in one component still gets an INF bound from any vertex
        // of the other (the landmark in the goal's component proves it).
        let row = lm.goal_row(2);
        assert_eq!(lm.lower_bound(3, &row), INF);
        assert_eq!(lm.lower_bound(0, &row), lm.lower_bound(0, &row).min(7));
    }

    #[test]
    fn every_component_gets_finite_bounds() {
        // Three components of different shapes, plus an isolated vertex.
        let mut b = EdgeListBuilder::new(10);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        b.add_edge(3, 4, 2);
        b.add_edge(4, 5, 2);
        b.add_edge(6, 7, 5); // third component: {6, 7, 8}
        b.add_edge(7, 8, 1); // vertex 9 is isolated
        let g = b.build();
        let lm = Landmarks::build(&g, 4);
        assert_eq!(lm.len(), 4, "one landmark per component");
        // Within every component the bound is finite, valid, and (here)
        // tight enough to be nonzero between distinct vertices.
        for (s, goal, exact) in [(0u32, 2u32, 7), (3, 5, 4), (6, 8, 6), (9, 9, 0)] {
            let row = lm.goal_row(goal);
            let h = lm.lower_bound(s, &row);
            assert!(h <= exact, "h({s}) must lower-bound d({s}, {goal})");
            assert_ne!(h, INF, "same-component bound must be finite");
            if s != goal {
                assert!(h > 0, "periphery landmarks separate {s} and {goal}");
            }
        }
        // Cross-component bounds still prove unreachability.
        assert_eq!(lm.lower_bound(0, &lm.goal_row(9)), INF);
        assert_eq!(lm.lower_bound(6, &lm.goal_row(3)), INF);
    }

    #[test]
    fn tiny_graphs_do_not_overcount() {
        assert!(Landmarks::build(&CsrGraph::empty(0), 8).is_empty());
        let lone = Landmarks::build(&CsrGraph::empty(1), 8);
        assert!(lone.len() <= 1);
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 1);
        let pair = Landmarks::build(&b.build(), 8);
        assert!(pair.len() <= 2, "never more landmarks than vertices");
    }
}
