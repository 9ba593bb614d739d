//! Graph substrate for the radius-stepping workspace.
//!
//! Everything the paper's evaluation needs from a graph library:
//!
//! * [`csr`] — a compact compressed-sparse-row graph over `u32` vertex ids
//!   and `u32` edge weights (distances are `u64`, see [`Dist`]).
//! * [`builder`] — symmetrising builder with minimum-weight deduplication,
//!   the invariant-enforcing path by which every graph here is constructed.
//! * [`gen`] — seeded synthetic generators, including the stand-ins for the
//!   paper's SNAP datasets (road networks, webgraphs, grids) and the
//!   pathological Figure-2 gadget.
//! * [`weights`] — the paper's weight models (unit, uniform integers in
//!   `[1, 10_000]`).
//! * [`io`] — fast binary serialisation.
//! * [`analysis`] — connectivity, largest-component extraction, degree and
//!   eccentricity statistics.
//! * [`partition`] — vertex→part assignments and induced subgraph views
//!   with global↔local remapping (the substrate under `rs_shard`).

pub mod analysis;
pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod partition;
pub mod weights;

pub use builder::EdgeListBuilder;
pub use csr::CsrGraph;
pub use partition::{induced_subgraph, PartitionAssignment, SubgraphView};
pub use weights::WeightModel;

/// Vertex identifier. Graphs are limited to `u32::MAX - 1` vertices.
pub type VertexId = u32;

/// Edge weight. The paper assumes the lightest nonzero weight is 1 and
/// calls the heaviest weight `L`; uniform integers in `[1, 10^4]` in the
/// experiments.
pub type Weight = u32;

/// Shortest-path distance. `u64` holds any sum of `< 2^32` weights of
/// `< 2^32` each that arises at our scales without overflow.
pub type Dist = u64;

/// Distance value meaning "unreached".
pub const INF: Dist = u64::MAX;

/// A weighted edge `(u, v, w)` in either direction.
pub type Edge = (VertexId, VertexId, Weight);
