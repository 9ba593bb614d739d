//! Baseline shortest-path algorithms the paper builds on and compares
//! against.
//!
//! * [`dijkstra`] — the sequential reference (§1) on a 4-ary heap, the
//!   one independent oracle every other solver is tested against.
//! * [`bfs`] — standard sequential BFS, the hop-distance oracle for
//!   unit-weight tests.
//! * [`delta_stepping`](mod@delta_stepping) — Meyer–Sanders ∆-stepping with the light/heavy
//!   edge split on a cyclic bucket queue, the algorithm radius stepping
//!   refines. It is the paper's comparator for the substep experiment,
//!   not a solver.
//!
//! ∆-stepping, Bellman–Ford and parallel BFS as solvers are points on the
//! radius spectrum, not separate code: `Algorithm::DeltaStepping { delta }`
//! is radius stepping at `r ≡ ∆`, `Algorithm::BellmanFord` at `r ≡ ∞`, and
//! BFS is `Algorithm::RadiusStepping { radii: Radii::Zero }` (the default)
//! on a unit-weight graph.
//!
//! Every baseline returns exact distances (tested against each other).
//! Dijkstra is also available behind the unified
//! [`rs_core::solver::SsspSolver`] trait through the adapter in
//! [`solver`], which additionally supplies the [`solver::BuildSolver`]
//! extension completing `rs_core`'s `SolverBuilder`.

pub mod bfs;
mod bucket;
pub mod delta_stepping;
pub mod dijkstra;
pub mod solver;

pub use bfs::bfs_seq;
pub use delta_stepping::{delta_stepping, DeltaSteppingResult};
pub use dijkstra::dijkstra_default;
pub use solver::{BuildSolver, DijkstraSolver};

/// `Algorithm::BellmanFord` as built through [`BuildSolver`]: the frontier
/// engine at `r ≡ ∞`, one step whose substeps are the relaxation rounds.
#[cfg(test)]
mod bellman_ford {
    mod tests {
        use crate::{dijkstra_default, BuildSolver};
        use rs_core::{Algorithm, Query, SolverBuilder, SolverScratch};
        use rs_graph::{gen, weights, CsrGraph, WeightModel};

        fn bellman_ford(g: &CsrGraph, source: u32) -> rs_core::stats::SsspResult {
            let solver = SolverBuilder::new(g).algorithm(Algorithm::BellmanFord).build();
            solver.execute(&Query::single_source(source), &mut SolverScratch::new()).into_result()
        }

        #[test]
        fn agrees_with_dijkstra() {
            let g = weights::reweight(&gen::grid2d(10, 10), WeightModel::paper_weighted(), 3);
            let out = bellman_ford(&g, 42);
            assert_eq!(out.dist, dijkstra_default(&g, 42));
            assert_eq!(out.stats.settled, 100);
        }

        #[test]
        fn rounds_bounded_by_hop_depth() {
            let g = gen::path(20);
            let out = bellman_ford(&g, 0);
            assert_eq!(out.dist[19], 19);
            // Vertex 1 starts relaxed: 18 productive substeps walk the
            // chain to vertex 19, plus the final no-update check, all in
            // one paper-step.
            assert_eq!(out.stats.substeps, 19);
            assert_eq!(out.stats.steps, 1);
        }

        #[test]
        fn single_vertex() {
            let g = CsrGraph::empty(1);
            let out = bellman_ford(&g, 0);
            assert_eq!(out.dist, vec![0]);
            // The source is settled before the first step and has no
            // edges, so no step or substep runs.
            assert_eq!(out.stats.steps, 0);
            assert_eq!(out.stats.substeps, 0);
        }
    }
}
