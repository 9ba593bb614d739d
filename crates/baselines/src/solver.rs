//! [`SsspSolver`] adapters for the two independent baselines, plus the
//! [`BuildSolver`] extension that completes `rs_core::solver`'s builder.
//!
//! `rs_core` defines the trait, the [`Algorithm`] selector and the
//! [`SolverBuilder`]; this crate sits above it in the dependency graph, so
//! the adapters for its own algorithms — and therefore the `build()` that
//! can construct *every* algorithm — live here. The facade prelude
//! re-exports [`BuildSolver`], making `SolverBuilder::new(&g).build()` the
//! one entry point applications see. `Algorithm::BellmanFord` and
//! `Algorithm::Bfs` are points on the radius spectrum, so they build as
//! [`RadiusSteppingSolver`]s.
//!
//! Counter mapping into [`rs_core::StepStats`]:
//!
//! | algorithm                    | `steps`          | `substeps`          |
//! |------------------------------|------------------|---------------------|
//! | Dijkstra                     | settled vertices | = steps             |
//! | ∆-stepping                   | nonempty buckets | light phases        |
//! | Bellman–Ford (frontier, ∞)   | 1                | relaxation rounds   |
//! | BFS (unweighted engine, 0)   | levels           | = steps             |

use std::sync::Arc;

use rs_core::solver::{
    execute_many_to_many, solve_goals, Algorithm, P2pKernel, Query, QueryResponse,
    RadiusSteppingSolver, ResolvedParts, SolverBuilder, SolverConfig, SolverGraph, SsspSolver,
};
use rs_core::stats::{SsspResult, StepStats};
use rs_core::{ShortcutExpander, SolverScratch};
use rs_graph::{CsrGraph, Dist, INF};

use crate::delta_stepping::{delta_stepping_scratch, DeltaSteppingResult};
use crate::dijkstra::dijkstra_into_heap_with_parents;

/// Completes [`SolverBuilder`] with a `build()` covering every
/// [`Algorithm`] variant (the baseline adapters are defined here, above
/// `rs_core` in the dependency graph).
pub trait BuildSolver<'g> {
    /// Builds the configured solver, running any attached preprocessing.
    fn build(self) -> Box<dyn SsspSolver + 'g>;
}

impl<'g> BuildSolver<'g> for SolverBuilder<'g> {
    fn build(self) -> Box<dyn SsspSolver + 'g> {
        let parts = self.into_parts();
        // Baselines run on the (possibly shortcut-augmented) graph;
        // shortcuts preserve distances, so they stay exact — and carry the
        // expansion table so extracted paths unroll back to input-graph
        // edges.
        match parts.algorithm {
            Algorithm::Dijkstra => {
                let ResolvedParts { graph, expander, p2p, .. } = parts.resolve();
                Box::new(DijkstraSolver { graph, config: parts.config, expander, p2p })
            }
            Algorithm::DeltaStepping { delta } => {
                let ResolvedParts { graph, expander, p2p, .. } = parts.resolve();
                Box::new(DeltaSteppingSolver { graph, delta, config: parts.config, expander, p2p })
            }
            _ => Box::new(RadiusSteppingSolver::from_parts(parts)),
        }
    }
}

/// Sequential Dijkstra behind the solver interface.
pub struct DijkstraSolver<'g> {
    pub graph: SolverGraph<'g>,
    pub config: SolverConfig,
    pub expander: Option<Arc<ShortcutExpander>>,
    pub p2p: P2pKernel,
}

impl DijkstraSolver<'_> {
    fn run_scratch(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        let n = self.graph.num_vertices();
        scratch.begin(n);
        let mut heap = scratch.checkout_heap();
        let mut goal_buf = Vec::new();
        // Dijkstra is sequential, so parents are always recorded inline
        // (deterministic, O(1) per relaxation) — never by post-pass.
        let mut parent = self.config.wants_paths(query).then(|| vec![u32::MAX; n]);
        let (dist, settled, relaxations) = dijkstra_into_heap_with_parents(
            &self.graph,
            query.source(),
            solve_goals(query, &mut goal_buf),
            &mut heap,
            parent.as_deref_mut(),
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
        let mut result = SsspResult::new(dist, stats);
        result.parent = parent;
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
        let want_paths = self.config.wants_paths(query);
        if let Some(out) = self.p2p.run(&self.graph, query, want_paths, scratch) {
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

/// Meyer–Sanders ∆-stepping behind the solver interface.
pub struct DeltaSteppingSolver<'g> {
    pub graph: SolverGraph<'g>,
    pub delta: Dist,
    pub config: SolverConfig,
    pub expander: Option<Arc<ShortcutExpander>>,
    pub p2p: P2pKernel,
}

impl DeltaSteppingSolver<'_> {
    fn to_result(&self, out: DeltaSteppingResult) -> SsspResult {
        let settled = out.dist.iter().filter(|&&d| d != INF).count();
        let stats = StepStats {
            steps: out.buckets,
            substeps: out.phases,
            max_substeps_in_step: out.max_phases_in_bucket,
            relaxations: out.relaxations,
            relaxed_edges: out.relaxations,
            settled,
            scratch_reused: out.scratch_reused,
            trace: None,
        };
        SsspResult::new(out.dist, stats)
    }
}

impl SsspSolver for DeltaSteppingSolver<'_> {
    fn name(&self) -> String {
        format!("delta-stepping/{}", self.delta)
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        if query.is_many_to_many() {
            return execute_many_to_many(self, query).with_expander(self.expander.clone());
        }
        let want_paths = self.config.wants_paths(query);
        if let Some(out) = self.p2p.run(&self.graph, query, want_paths, scratch) {
            return QueryResponse::single(query.clone(), out).with_expander(self.expander.clone());
        }
        let mut goal_buf = Vec::new();
        let out = delta_stepping_scratch(
            &self.graph,
            query.source(),
            self.delta,
            solve_goals(query, &mut goal_buf),
            scratch,
        );
        // The parallel bucket phases carry no per-writer identity, so
        // `want_paths` is answered by finish_paths: one goal-path walk per
        // goal for the bounded shapes, the parallel derivation for full
        // solves.
        let result = self.config.finish_paths(&self.graph, query, self.to_result(out));
        QueryResponse::single(query.clone(), result).with_expander(self.expander.clone())
    }

    fn warm_scratch(&self, scratch: &mut SolverScratch) {
        scratch.warm_up(&self.graph);
        scratch.warm_bucket(self.graph.num_vertices(), self.delta, self.graph.max_weight() as u64);
        self.p2p.warm(&self.graph, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra_default;
    use rs_core::solver::Radii;
    use rs_core::{EngineKind, PreprocessConfig};
    use rs_graph::{gen, weights, WeightModel};

    fn weighted() -> CsrGraph {
        weights::reweight(&gen::grid2d(8, 9), WeightModel::paper_weighted(), 2)
    }

    #[test]
    fn every_algorithm_buildable_and_exact() {
        let g = weighted();
        let reference = dijkstra_default(&g, 5);
        let algorithms = [
            Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Zero },
            Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Constant(900) },
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
        let g = gen::grid2d(6, 6);
        let solver = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
        let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(out.dist(), crate::bfs_seq(&g, 0));
    }

    #[test]
    #[should_panic(expected = "unit-weighted")]
    fn bfs_solver_rejects_weighted() {
        let g = weighted();
        let _ = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
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
            let solver = SolverBuilder::new(&g).algorithm(algorithm).record_parents(true).build();
            let out = solver.execute(&Query::single_source(0), &mut scratch);
            let path = out.extract_path(70).expect("connected grid");
            let mut acc = 0u64;
            for w in path.windows(2) {
                acc += solver.graph().arc_weight(w[0], w[1]).expect("edge") as u64;
            }
            assert_eq!(acc, out.dist()[70], "{}: path telescopes", solver.name());
        }
    }
}
