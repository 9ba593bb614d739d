//! Sharded graph serving: partition layer + boundary-skeleton routing.
//!
//! The paper's (k, ρ) preprocessing precomputes short-range distances so
//! the online solve takes few rounds; this crate scales the same idea
//! *out*. A [`Partitioner`] splits a [`rs_graph::CsrGraph`] into `P`
//! parts (BFS/geometric growth seeded round-robin, or a quad-tree
//! spatial split for coordinate graphs), and a boundary
//! [`SkeletonGraph`] precomputes **exact** distances between each part's
//! boundary vertices — built with the existing (k, ρ) ball/shortcut
//! machinery and the one-to-many query shape. A continent-scale
//! point-to-point query then becomes three small solves:
//!
//! ```text
//! intra-part (source part)  →  skeleton  →  intra-part (goal part)
//! ```
//!
//! [`ShardedSolver`] implements [`rs_core::SsspSolver`], so it slots
//! behind the `rs_serve` server loop, the query plane, and the batch
//! machinery unchanged. Answers are bit-identical to a flat solve:
//! distances are exact by the skeleton construction, and paths are
//! stitched back to input-graph edges through the skeleton's chain
//! table — one [`rs_core::ShortcutExpander`] over global ids, the same
//! table that unrolls the preprocessing's shortcut hops.
//!
//! The partition persists as an `RSP8` cache section
//! ([`PartitionedGraph::save`] / [`PartitionedGraph::load_or_build`])
//! whose header carries a payload checksum, and a loaded skeleton is
//! checked against the graph; RSP6 preprocessing files, older RSP7 and
//! RSP5 partitions, or anything else at the cache path rebuild
//! transparently.
//!
//! ```
//! use rs_core::solver::{Query, SsspSolver};
//! use rs_core::SolverScratch;
//! use rs_graph::{gen, weights, WeightModel};
//! use rs_shard::{Partitioner, ShardedSolver};
//!
//! let g = weights::reweight(&gen::grid2d(12, 12), WeightModel::paper_weighted(), 7);
//! let pg = Partitioner::new(4).partition(&g);
//! let solver = ShardedSolver::new(&g, &pg);
//! let mut scratch = SolverScratch::new();
//! let resp = solver.execute(&Query::point_to_point(0, 143).with_paths(), &mut scratch);
//! let path = resp.goal_path().expect("grid is connected");
//! assert_eq!(path.first(), Some(&0));
//! assert_eq!(path.last(), Some(&143));
//! ```

pub mod partitioned;
pub mod partitioner;
pub mod sharded;
pub mod skeleton;

pub use partitioned::{PartitionConfig, PartitionedGraph, Partitioner};
pub use partitioner::{Coordinates, PartitionStrategy};
pub use sharded::ShardedSolver;
pub use skeleton::{SkeletonGraph, SkeletonSolve};
