//! Execution statistics: the quantities §5 measures.
//!
//! The paper's experiments count *steps* (outer while-loop iterations,
//! Figures 4–5 and Tables 4–7) and rely on the *substep* bound of
//! Theorem 3.2 (`k + 2` per step). Both are first-class outputs here, along
//! with relaxation counts (a work proxy) and an optional per-step trace.

use rayon::prelude::*;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// Result of one single-source shortest-path computation — the uniform
/// output type every solver in the workspace returns (radius-stepping
/// engines, preprocessed pipelines, and all four baselines through the
/// [`crate::solver::SsspSolver`] trait).
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// `dist[v]` = shortest-path distance from the source ([`rs_graph::INF`]
    /// if unreachable).
    pub dist: Vec<Dist>,
    /// Shortest-path tree, when requested (via `Query::with_paths` or
    /// `SolverBuilder::record_parents`): `parent[v]` is a predecessor of
    /// `v` consistent with `dist` (`parent[source] = source`, `u32::MAX`
    /// if unreachable), so every extracted path telescopes to `dist` of
    /// its endpoint. After a goal-bounded solve the settled vertices —
    /// in particular the whole goal path — are guaranteed covered;
    /// unsettled vertices are either parentless (the parallel engines
    /// clear them) or carry a predecessor telescoping to their tentative
    /// upper bound (sequential Dijkstra, derived trees).
    pub parent: Option<Vec<VertexId>>,
    /// Execution counters.
    pub stats: StepStats,
}

impl SsspResult {
    /// Wraps a distance array and counters (no parent tree).
    pub fn new(dist: Vec<Dist>, stats: StepStats) -> SsspResult {
        SsspResult { dist, parent: None, stats }
    }

    /// Reconstructs the shortest path `source → t` from the recorded
    /// parent array. Returns `None` when no parents were recorded, `t` is
    /// unreachable, or `t` was not settled by a goal-bounded solve.
    ///
    /// The walk follows the parents over the solver's graph, so for a
    /// preprocessed solver the route keeps its (k, ρ) shortcut hops
    /// unexpanded. Use [`crate::solver::QueryResponse::extract_path`] for
    /// a route made only of input-graph edges.
    pub fn extract_path(&self, t: VertexId) -> Option<Vec<VertexId>> {
        extract_path(self.parent.as_deref()?, t)
    }

    /// Reconstructs a shortest path to `t` by walking the distance array
    /// backwards (`dist[u] + w(u,t) == dist[t]` picks a valid predecessor),
    /// so no parent pointers need to be stored during the solve. Returns
    /// `None` if `t` is unreachable.
    pub fn path_to(&self, g: &CsrGraph, t: VertexId) -> Option<Vec<VertexId>> {
        shortest_path_from_dist(g, &self.dist, t)
    }
}

/// `parent[v]` = a predecessor of `v` on a shortest path consistent with
/// `dist` (`parent[v] = v` where `dist[v] = 0`; `u32::MAX` where `v` is
/// unreachable or `dist[v]` is a tentative value no in-neighbor certifies).
pub fn derive_parents(g: &CsrGraph, dist: &[Dist]) -> Vec<VertexId> {
    (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| {
            let dv = dist[v as usize];
            if dv == INF {
                return u32::MAX;
            }
            if dv == 0 {
                return v;
            }
            g.edges(v)
                .find(|&(u, w)| dist[u as usize].saturating_add(w as Dist) == dv)
                .map_or(u32::MAX, |(u, _)| u)
        })
        .collect()
}

/// Reconstructs the path `source → t` from a parent array, or `None` if
/// `t` is unreachable (`parent[t] = u32::MAX`) or the chain is broken
/// (goal-bounded solves may leave unsettled vertices parentless). The
/// returned path telescopes to `dist[t]` — exact for settled `t`, the
/// tentative upper bound otherwise (see [`SsspResult::parent`]).
pub fn extract_path(parent: &[VertexId], t: VertexId) -> Option<Vec<VertexId>> {
    if parent.get(t as usize).is_none_or(|&p| p == u32::MAX) {
        return None;
    }
    let mut path = vec![t];
    let mut cur = t;
    while parent[cur as usize] != cur {
        cur = parent[cur as usize];
        if cur == u32::MAX {
            return None;
        }
        path.push(cur);
        debug_assert!(path.len() <= parent.len(), "parent cycle");
    }
    path.reverse();
    Some(path)
}

/// Sparse parent array covering exactly the shortest `source → goal`
/// paths: each chain is derived by walking the distance array backwards
/// from its goal (`dist[u] + w(u, goal) == dist[goal]` certifies a
/// predecessor — every vertex on a shortest path to an exactly-settled
/// goal is itself exact, so the walk always closes), and every off-path
/// vertex stays `u32::MAX`. The walk is deterministic per vertex (first
/// certifying predecessor in adjacency order), so overlapping walks write
/// identical entries and each goal path is the one a single-goal walk
/// would produce. Unreachable goals are skipped. Costs `O(n)` for the
/// array plus `O(Σ path length · degree)` for the walks — no all-edges
/// post-pass — which is what the goal-bounded `want_paths` serving path
/// needs from the solvers whose parallel relaxation has no per-writer
/// claim log (∆-stepping, the unweighted engine).
pub fn goals_path_parents(g: &CsrGraph, dist: &[Dist], goals: &[VertexId]) -> Vec<VertexId> {
    let mut parent = vec![u32::MAX; g.num_vertices()];
    for &goal in goals {
        let Some(path) = shortest_path_from_dist(g, dist, goal) else {
            continue;
        };
        parent[path[0] as usize] = path[0];
        for w in path.windows(2) {
            parent[w[1] as usize] = w[0];
        }
    }
    parent
}

/// See [`SsspResult::path_to`].
pub fn shortest_path_from_dist(g: &CsrGraph, dist: &[Dist], t: VertexId) -> Option<Vec<VertexId>> {
    if dist[t as usize] == INF {
        return None;
    }
    let mut path = vec![t];
    let mut cur = t;
    while dist[cur as usize] != 0 {
        let d = dist[cur as usize];
        let pred = g
            .edges(cur)
            .find(|&(u, w)| dist[u as usize].saturating_add(w as Dist) == d)
            .map(|(u, _)| u)
            .expect("distance array inconsistent: no predecessor on a shortest path");
        path.push(pred);
        cur = pred;
        assert!(path.len() <= dist.len(), "predecessor cycle: distances not from this graph");
    }
    path.reverse();
    Some(path)
}

/// Step/substep/work counters for one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Outer-loop steps (the paper's "number of steps"/"rounds").
    pub steps: usize,
    /// Total Bellman–Ford substeps across all steps.
    pub substeps: usize,
    /// Largest number of substeps in any single step (Theorem 3.2 bounds
    /// this by `k + 2` on a (k, ρ)-graph).
    pub max_substeps_in_step: usize,
    /// Edge relaxations attempted (a sequential-work proxy).
    pub relaxations: u64,
    /// Edges actually scanned during relaxation. Equal to `relaxations`
    /// for forward solves; the goal-bounded kernels (bidirectional,
    /// ALT-pruned) report the smaller number of edges they touched, which
    /// is the quantity the point-to-point speedups are measured by.
    pub relaxed_edges: u64,
    /// Vertices settled (equals reachable vertices on termination).
    pub settled: usize,
    /// True iff this solve ran entirely on pre-allocated
    /// [`crate::SolverScratch`] state (no working-array allocation) — the
    /// per-result face of the batch path's warm-scratch guarantee. Always
    /// `false` for a solve on a fresh, unwarmed scratch.
    pub scratch_reused: bool,
    /// Per-step trace, when requested via
    /// [`crate::EngineConfig::with_trace`].
    pub trace: Option<Vec<StepTrace>>,
}

/// One step's record in the optional trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTrace {
    /// The round distance `d_i`.
    pub d_i: Dist,
    /// Vertices settled by this step (`|S_i \ S_{i-1}|`).
    pub settled: usize,
    /// Substeps this step used.
    pub substeps: usize,
    /// Size of the active set when the step closed.
    pub active_size: usize,
}

impl StepStats {
    /// Folds one step's outcome into the totals.
    pub fn record_step(&mut self, trace: Option<StepTrace>) {
        self.steps += 1;
        if let Some(t) = trace {
            self.substeps += t.substeps;
            self.max_substeps_in_step = self.max_substeps_in_step.max(t.substeps);
            self.settled += t.settled;
            if let Some(v) = self.trace.as_mut() {
                v.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_reconstruction() {
        use crate::{radius_stepping, RadiiSpec};
        use rs_graph::EdgeListBuilder;
        let mut b = EdgeListBuilder::new(5);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        b.add_edge(0, 2, 5);
        b.add_edge(3, 4, 1); // separate component
        let g = b.build();
        let out = radius_stepping(&g, &RadiiSpec::Zero, 0);
        assert_eq!(out.path_to(&g, 2), Some(vec![0, 1, 2]), "goes via the cheaper 2-hop route");
        assert_eq!(out.path_to(&g, 0), Some(vec![0]));
        assert_eq!(out.path_to(&g, 4), None, "unreachable");
    }

    #[test]
    fn record_accumulates() {
        let mut s = StepStats { trace: Some(Vec::new()), ..Default::default() };
        s.record_step(Some(StepTrace { d_i: 5, settled: 3, substeps: 2, active_size: 3 }));
        s.record_step(Some(StepTrace { d_i: 9, settled: 1, substeps: 4, active_size: 2 }));
        assert_eq!(s.steps, 2);
        assert_eq!(s.substeps, 6);
        assert_eq!(s.max_substeps_in_step, 4);
        assert_eq!(s.settled, 4);
        assert_eq!(s.trace.as_ref().unwrap().len(), 2);
    }
}
