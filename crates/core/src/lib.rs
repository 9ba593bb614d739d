//! Radius-Stepping: parallel single-source shortest paths.
//!
//! Implementation of *"Parallel Shortest-Paths Using Radius Stepping"*
//! (Blelloch, Gu, Sun, Tangwongsan; SPAA 2016). The algorithm is a
//! ∆-stepping-like hybrid of Dijkstra and Bellman–Ford that, instead of a
//! fixed step width, picks each round distance as
//! `d_i = min_{v ∉ S} (δ(v) + r(v))` from per-vertex radii `r(·)`
//! (Algorithm 1). With radii from the (k, ρ)-graph preprocessing of §4 it
//! runs in `O(m log n)` work and `O((n/ρ) log n log ρL)` depth per source.
//!
//! Two entry points:
//!
//! * [`radius_stepping`] — run Algorithm 1 on any graph with any
//!   [`RadiiSpec`] (correct for *all* radii; the radii only steer the
//!   step/substep trade-off: `Zero` ≈ Dijkstra, `Infinite` ≈ Bellman–Ford,
//!   `Constant(∆)` ≈ ∆-stepping).
//! * [`preprocess::Preprocessed`] — the full pipeline: build a
//!   (k, ρ)-graph with shortcut edges and `r(v) = r_ρ(v)` radii (§4), then
//!   solve from any number of sources with bounded steps and substeps
//!   (Theorems 3.2 and 3.3).
//!
//! ```
//! use rs_graph::{gen, weights, WeightModel};
//! use rs_core::preprocess::{Preprocessed, PreprocessConfig};
//!
//! let g = weights::reweight(&gen::grid2d(20, 20), WeightModel::paper_weighted(), 1);
//! let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 16));
//! let out = pre.sssp(0);
//! assert_eq!(out.dist[0], 0);
//! assert!(out.stats.max_substeps_in_step <= 1 + 2); // Theorem 3.2, k = 1
//! ```

pub mod engine;
pub mod landmarks;
pub mod preprocess;
pub mod radii;
pub mod scratch;
pub mod solver;
pub mod stats;
pub mod verify;

pub use engine::{
    radius_stepping, radius_stepping_with, radius_stepping_with_scratch, EngineConfig, EngineKind,
    Goals,
};
pub use landmarks::{Landmarks, DEFAULT_LANDMARKS};
pub use preprocess::{PreprocessConfig, Preprocessed, ShortcutExpander};
pub use radii::RadiiSpec;
pub use scratch::{global_scratch_pool, PooledScratch, ScratchPool, SolverScratch};
pub use solver::{
    execute_many_to_many, execute_many_to_many_pooled, Algorithm, BatchOutcome, BatchStats,
    InvalidQuery, P2pMode, Query, QueryBatch, QueryResponse, QueryShape, Radii, SolverBuilder,
    SolverConfig, SsspSolver,
};
pub use stats::{
    derive_parents, extract_path, goals_path_parents, SsspResult, StepStats, StepTrace,
};
