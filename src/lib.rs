//! # radius-stepping
//!
//! A complete implementation of **"Parallel Shortest-Paths Using Radius
//! Stepping"** (Blelloch, Gu, Sun, Tangwongsan; SPAA 2016): the
//! radius-stepping SSSP algorithm, its (k, ρ)-graph preprocessing, every
//! substrate it depends on, and the baselines it is evaluated against —
//! all behind one unified [`SsspSolver`](prelude::SsspSolver) interface.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] (`rs_core`) — the paper's contribution: the radius-stepping
//!   frontier engine (every radius, so Dijkstra through BFS and
//!   Bellman–Ford), the point-to-point kernels, preprocessing, the solver
//!   trait + builder, and the sequential step oracle in `verify`.
//! * [`graph`] (`rs_graph`) — CSR graphs, generators, weight models, I/O.
//! * [`baselines`] (`rs_baselines`) — Dijkstra and its solver adapter,
//!   the Meyer–Sanders ∆-stepping comparator, the sequential BFS oracle,
//!   and the builder's `build()` (∆-stepping, Bellman–Ford and BFS build
//!   as radius stepping at `r ≡ ∆` / `r ≡ ∞` / `r ≡ 0`).
//! * [`ds`] (`rs_ds`) — the 4-ary decrease-key heap behind Dijkstra and
//!   the serving latency histogram.
//! * [`par`] (`rs_par`) — parallel primitives (write-min, epoch arrays,
//!   min-reduction, the worker pool).
//!
//! ## Quickstart
//!
//! Every algorithm is constructed through [`SolverBuilder`](prelude::SolverBuilder)
//! and answers [`Query`](prelude::Query)s through the
//! [`SsspSolver`](prelude::SsspSolver) trait's one entry point,
//! [`execute`](prelude::SsspSolver::execute):
//!
//! ```
//! use radius_stepping::prelude::*;
//!
//! // A weighted graph (here: a 2D grid with the paper's weight model).
//! let topology = graph::gen::grid2d(40, 40);
//! let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 1);
//!
//! // Radius stepping with one-time (k = 1, rho = 32) preprocessing.
//! let solver = SolverBuilder::new(&g)
//!     // Radii replaced by r_rho(v) from preprocessing.
//!     .algorithm(Algorithm::RadiusStepping { radii: Radii::Zero })
//!     .preprocess(PreprocessConfig::new(1, 32))
//!     .build();
//!
//! // Point-to-point serving: goal-bounded early exit, the route walked
//! // back over the distances, and one long-lived scratch reused across
//! // requests.
//! let mut scratch = SolverScratch::new();
//! solver.warm_scratch(&mut scratch); // even the first query runs warm
//! let trip = solver.execute(&Query::point_to_point(0, 820).with_paths(), &mut scratch);
//! let route = trip.goal_path().expect("grid is connected");
//! assert_eq!(route[0], 0);
//! assert!(trip.stats().scratch_reused);
//!
//! // Full single-source solves ride the same entry point.
//! let full = solver.execute(&Query::single_source(0), &mut scratch);
//! assert_eq!(trip.goal_distance(), Some(full.dist()[820]));
//!
//! // Fan-out routing: one solve answers a whole candidate set, with
//! // per-goal distances and paths bit-identical to the point-to-point
//! // answers (see also Query::many_to_many for distance tables).
//! let fan = solver.execute(&Query::one_to_many(0, [820, 44, 1570]), &mut scratch);
//! assert_eq!(fan.goal_distances()[0], trip.goal_distance());
//!
//! // Mixed-shape batches fan out across the thread pool: duplicates are
//! // answered once (dedup by canonical query key — permuted goal sets
//! // share a slot, observationally invisible), one pre-warmed
//! // SolverScratch per pool worker, per-batch aggregates.
//! let queries = [
//!     Query::single_source(0),
//!     Query::point_to_point(40, 1599),
//!     Query::point_to_point(40, 1599), // dedup'd
//!     Query::one_to_many(7, [9, 1599]),
//!     Query::one_to_many(7, [1599, 9]), // dedup'd (canonical goals)
//! ];
//! let outcome = QueryBatch::new(&queries).execute(&*solver);
//! assert_eq!(outcome.stats.unique_solves, 3);
//! assert_eq!(outcome.stats.point_to_point, 2);
//! assert_eq!(outcome.stats.one_to_many, 2);
//! assert_eq!(outcome.responses[1].dist(), outcome.responses[2].dist());
//!
//! // Same answer as the sequential baseline, through the same interface.
//! let dijkstra = SolverBuilder::new(&g)
//!     .algorithm(Algorithm::Dijkstra)
//!     .build();
//! let reference = dijkstra.execute(&Query::single_source(0), &mut scratch);
//! assert_eq!(full.dist(), reference.dist());
//! ```

pub use rs_baselines as baselines;
pub use rs_core as core;
pub use rs_ds as ds;
pub use rs_graph as graph;
pub use rs_par as par;

/// Convenience imports for applications.
pub mod prelude {
    pub use crate::{baselines, core, ds, graph, par};
    pub use rs_baselines::solver::BuildSolver;
    pub use rs_core::preprocess::{
        PreprocessConfig, Preprocessed, ShortcutExpander, ShortcutHeuristic,
    };
    pub use rs_core::solver::{
        Algorithm, BatchOutcome, BatchStats, P2pMode, Query, QueryBatch, QueryResponse, QueryShape,
        SolverBuilder, SsspSolver,
    };
    pub use rs_core::{
        radius_stepping, EngineConfig, Goals, Radii, SolverScratch, SsspResult, StepStats,
    };
    pub use rs_graph::{CsrGraph, Dist, EdgeListBuilder, VertexId, Weight, WeightModel, INF};
}
