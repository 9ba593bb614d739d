//! The [`SsspSolver`] adapter for Dijkstra, the one independent baseline,
//! plus the [`BuildSolver`] extension that completes `rs_core::solver`'s
//! builder.
//!
//! `rs_core` defines the trait, the [`Algorithm`] selector and the
//! [`SolverBuilder`]; this crate sits above it in the dependency graph, so
//! the Dijkstra adapter — and therefore the `build()` that can construct
//! *every* algorithm — lives here. The facade prelude re-exports
//! [`BuildSolver`], making `SolverBuilder::new(&g).build()` the one entry
//! point applications see. `Algorithm::DeltaStepping` and
//! `Algorithm::BellmanFord` are points on the radius spectrum, so they
//! build as `RadiusSteppingSolver`s through
//! [`SolverBuilder::radius_stepping_solver_from_algorithm`]; only
//! `Algorithm::Dijkstra` builds here, on the graph, shortcut expansion
//! table and point-to-point kernel that [`SolverBuilder::resolve`]
//! returns.
//!
//! Counter mapping into [`rs_core::StepStats`]:
//!
//! | algorithm                      | `steps`          | `substeps`          |
//! |--------------------------------|------------------|---------------------|
//! | Dijkstra                       | settled vertices | = steps             |
//! | ∆-stepping (`r ≡ ∆`)           | radius steps     | radius substeps     |
//! | Bellman–Ford (`r ≡ ∞`)         | 1                | relaxation rounds   |
//! | BFS (`r ≡ 0`, unit weights)    | levels           | = steps             |

use std::borrow::Cow;
use std::sync::Arc;

use rs_core::solver::{
    execute_many_to_many, finish_paths, solve_goals, Algorithm, P2pKernel, Query, QueryResponse,
    ResolvedParts, SolverBuilder, SsspSolver,
};
use rs_core::stats::{SsspResult, StepStats};
use rs_core::{ShortcutExpander, SolverScratch};
use rs_graph::CsrGraph;

use crate::dijkstra::dijkstra_into_heap;

/// Completes [`SolverBuilder`] with a `build()` covering every
/// [`Algorithm`] variant (the Dijkstra adapter is defined here, above
/// `rs_core` in the dependency graph).
pub trait BuildSolver<'g> {
    /// Builds the configured solver, running any attached preprocessing.
    fn build(self) -> Box<dyn SsspSolver + 'g>;
}

impl<'g> BuildSolver<'g> for SolverBuilder<'g> {
    fn build(self) -> Box<dyn SsspSolver + 'g> {
        if *self.selected_algorithm() != Algorithm::Dijkstra {
            return Box::new(self.radius_stepping_solver_from_algorithm());
        }
        // Dijkstra runs on the (possibly shortcut-augmented) graph;
        // shortcuts preserve distances, so it stays exact — and carries the
        // expansion table so extracted paths unroll back to input-graph
        // edges.
        let ResolvedParts { graph, expander, p2p, .. } = self.resolve();
        Box::new(DijkstraSolver { graph, expander, p2p })
    }
}

/// Sequential Dijkstra behind the solver interface; built by
/// [`BuildSolver::build`].
pub struct DijkstraSolver<'g> {
    graph: Cow<'g, CsrGraph>,
    expander: Option<Arc<ShortcutExpander>>,
    p2p: P2pKernel,
}

impl DijkstraSolver<'_> {
    fn run_scratch(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        let n = self.graph.num_vertices();
        scratch.begin(n);
        let mut heap = scratch.checkout_heap();
        let mut goal_buf = Vec::new();
        let (dist, settled, relaxations) = dijkstra_into_heap(
            &self.graph,
            query.source(),
            solve_goals(query, &mut goal_buf),
            &mut heap,
        );
        scratch.return_heap(heap);
        // Dijkstra settles one vertex per extraction: steps = settled.
        let stats = StepStats {
            steps: settled,
            substeps: settled,
            max_substeps_in_step: settled.min(1),
            relaxations,
            relaxed_edges: relaxations,
            settled,
            scratch_reused: scratch.finish(),
            trace: None,
        };
        let result = finish_paths(&self.graph, query, SsspResult::new(dist, stats));
        QueryResponse::single(query.clone(), result).with_expander(self.expander.clone())
    }
}

impl SsspSolver for DijkstraSolver<'_> {
    fn name(&self) -> String {
        "dijkstra".into()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        if query.is_many_to_many() {
            return execute_many_to_many(self, query).with_expander(self.expander.clone());
        }
        if let Some(out) = self.p2p.run(&self.graph, query, scratch) {
            return QueryResponse::single(query.clone(), out).with_expander(self.expander.clone());
        }
        self.run_scratch(query, scratch)
    }

    fn warm_scratch(&self, scratch: &mut SolverScratch) {
        scratch.warm_up(&self.graph);
        scratch.warm_heap(self.graph.num_vertices());
        self.p2p.warm(&self.graph, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra_default;
    use rs_core::solver::Radii;
    use rs_core::PreprocessConfig;
    use rs_graph::{gen, weights, WeightModel};

    fn weighted() -> CsrGraph {
        weights::reweight(&gen::grid2d(8, 9), WeightModel::paper_weighted(), 2)
    }

    #[test]
    fn every_algorithm_buildable_and_exact() {
        let g = weighted();
        let reference = dijkstra_default(&g, 5);
        let algorithms = [
            Algorithm::RadiusStepping { radii: Radii::Zero },
            Algorithm::RadiusStepping { radii: Radii::Constant(900) },
            Algorithm::Dijkstra,
            Algorithm::DeltaStepping { delta: 2_000 },
            Algorithm::BellmanFord,
        ];
        let mut scratch = SolverScratch::new();
        for algorithm in algorithms {
            let solver = SolverBuilder::new(&g).algorithm(algorithm.clone()).build();
            let out = solver.execute(&Query::single_source(5), &mut scratch);
            assert_eq!(out.dist(), reference, "{}", solver.name());
        }
    }

    #[test]
    fn bfs_solver_unit_graphs_only() {
        // BFS is the default build (r ≡ 0) on a unit-weight graph.
        let g = gen::grid2d(6, 6);
        let solver = SolverBuilder::new(&g).build();
        let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(out.dist(), crate::bfs_seq(&g, 0));
    }

    #[test]
    #[should_panic(expected = "has 10 radii but the graph has 64 vertices")]
    fn per_vertex_radii_length_checked_at_build() {
        let g = weights::reweight(&gen::grid2d(8, 8), WeightModel::paper_weighted(), 1);
        let radii = Radii::PerVertex(vec![1_000; 10].into());
        let algorithm = Algorithm::RadiusStepping { radii };
        let _ = SolverBuilder::new(&g).algorithm(algorithm).build();
    }

    #[test]
    #[should_panic(expected = "48-bit range")]
    fn over_range_graph_rejected_at_build_for_p2p_kernels() {
        // The graph of rs_core's `over_range_graph_rejected_at_build`:
        // Dijkstra's own solve needs no epoch array, but the bidirectional
        // kernel does, so the build refuses the graph.
        let mut b = rs_graph::EdgeListBuilder::new(70_000);
        b.add_edge(0, 1, u32::MAX);
        let g = b.build();
        let _ = SolverBuilder::new(&g)
            .algorithm(Algorithm::Dijkstra)
            .p2p_mode(rs_core::solver::P2pMode::Bidirectional)
            .build();
    }

    #[test]
    fn preprocessing_composes_with_baselines() {
        let g = weighted();
        let reference = dijkstra_default(&g, 0);
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::Dijkstra)
            .preprocess(PreprocessConfig::new(1, 8))
            .build();
        assert!(solver.graph().num_edges() >= g.num_edges());
        let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(out.dist(), reference, "shortcuts preserve distances");
    }

    #[test]
    fn preprocess_cached_composes_with_baselines() {
        let g = weighted();
        let reference = dijkstra_default(&g, 3);
        let cfg = PreprocessConfig::new(1, 8);
        let path = std::env::temp_dir().join(format!(
            "rs_baseline_cache_{}_{:p}.bin",
            std::process::id(),
            &g
        ));
        std::fs::remove_file(&path).ok();
        for _ in 0..2 {
            // First iteration builds + saves, second loads; both exact.
            let solver = SolverBuilder::new(&g)
                .algorithm(Algorithm::Dijkstra)
                .preprocess_cached(&path, cfg)
                .build();
            assert!(solver.graph().num_edges() >= g.num_edges());
            let out = solver.execute(&Query::single_source(3), &mut SolverScratch::new());
            assert_eq!(out.dist(), reference);
            assert!(path.exists());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn goal_bounded_baselines_settle_goal() {
        let g = weighted();
        let reference = dijkstra_default(&g, 0);
        let mut scratch = SolverScratch::new();
        for algorithm in
            [Algorithm::Dijkstra, Algorithm::DeltaStepping { delta: 1_500 }, Algorithm::BellmanFord]
        {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
            let out = solver.execute(&Query::point_to_point(0, 71), &mut scratch);
            assert_eq!(out.dist()[71], reference[71], "{}", solver.name());
        }
    }

    #[test]
    fn parents_recorded_across_algorithms() {
        let g = weighted();
        let mut scratch = SolverScratch::new();
        for algorithm in
            [Algorithm::Dijkstra, Algorithm::DeltaStepping { delta: 3_000 }, Algorithm::BellmanFord]
        {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
            let out = solver.execute(&Query::single_source(0).with_paths(), &mut scratch);
            let path = out.extract_path(70).expect("connected grid");
            let mut acc = 0u64;
            for w in path.windows(2) {
                acc += solver.graph().arc_weight(w[0], w[1]).expect("edge") as u64;
            }
            assert_eq!(acc, out.dist()[70], "{}: path telescopes", solver.name());
        }
    }
}
