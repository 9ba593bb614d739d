//! Radius-stepping execution engines.
//!
//! * [`frontier`] — the one radius-stepping engine: Algorithm 1 with a
//!   packed fringe, a parallel min-reduction for `d_i`, and parallel
//!   priority-write Bellman–Ford substeps. It runs every `Radii`, and so
//!   every point on the spectrum from Dijkstra (`r ≡ 0`) to Bellman–Ford
//!   (`r ≡ ∞`); on a unit-weight graph `r ≡ 0` is BFS, one level per step.
//! * [`p2p`] — the bidirectional and goal-directed point-to-point kernels.
//!
//! The paper's Algorithm 2 keeps the fringe in two BSTs to prove its work
//! bound, and §3.4 specialises Algorithm 1 to unit weights. Both take the
//! same steps and substeps as the frontier engine; both were measured
//! against it and removed (README, "Substitutions"). The frontier
//! engine's step sequence is instead checked against
//! [`crate::verify::step_trace`], a sequential Algorithm 1 over plain
//! vectors.

pub mod frontier;
pub mod p2p;

use rs_graph::{CsrGraph, VertexId};

use crate::radii::Radii;
use crate::scratch::SolverScratch;
use crate::stats::SsspResult;

/// Goal bound of one solve: which vertices must be settled before the
/// engine (or baseline) may exit early. `None` means run to completion;
/// `One` is the point-to-point serving shape; `Many` is the one-to-many
/// fan-out shape (one solve, every listed goal settled exactly). A `Many`
/// slice must arrive sorted and deduplicated — the query plane
/// canonicalises (see `Query::canonical_goals`), and solvers may rely on
/// the order for O(log k) membership checks. An empty slice is trivially
/// satisfied, so the solve stops after settling the source.
#[derive(Debug, Clone, Copy, Default)]
pub enum Goals<'a> {
    /// Unbounded: exact distances everywhere.
    #[default]
    None,
    /// Stop once this vertex is settled.
    One(VertexId),
    /// Stop once every listed vertex is settled.
    Many(&'a [VertexId]),
}

impl<'a> Goals<'a> {
    /// True when the solve may exit before settling every vertex.
    pub fn bounded(&self) -> bool {
        !matches!(self, Goals::None)
    }

    /// The goal vertices (empty for [`Goals::None`]).
    pub fn as_slice(&self) -> &[VertexId] {
        match self {
            Goals::None => &[],
            Goals::One(g) => std::slice::from_ref(g),
            Goals::Many(gs) => gs,
        }
    }

    /// The early-exit predicate: true iff this bound is active and `f`
    /// holds for every goal ("is it settled?"). Always false for
    /// [`Goals::None`] — an unbounded solve never exits early.
    pub fn all_done(&self, mut f: impl FnMut(VertexId) -> bool) -> bool {
        self.bounded() && self.as_slice().iter().all(|&g| f(g))
    }
}

/// Engine options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig<'a> {
    /// Record a per-step trace in the result (costs one record per step).
    pub trace: bool,
    /// Stop as soon as every goal in the bound is settled (their distances
    /// are then exact; other vertices may hold tentative upper bounds or
    /// `INF`).
    pub goals: Goals<'a>,
}

impl EngineConfig<'_> {
    /// Config with tracing enabled.
    pub fn with_trace() -> EngineConfig<'static> {
        EngineConfig { trace: true, ..Default::default() }
    }
}

/// Solves SSSP from `source` on the frontier engine.
///
/// Correct for any `radii` (Theorem 3.1 holds regardless); the radii govern
/// only how many steps and substeps the run takes.
pub fn radius_stepping(g: &CsrGraph, radii: &Radii, source: VertexId) -> SsspResult {
    radius_stepping_with(g, radii, source, EngineConfig::default())
}

/// Solves SSSP with an explicit configuration.
pub fn radius_stepping_with(
    g: &CsrGraph,
    radii: &Radii,
    source: VertexId,
    config: EngineConfig<'_>,
) -> SsspResult {
    radius_stepping_with_scratch(g, radii, source, config, &mut SolverScratch::new())
}

/// [`radius_stepping_with`] on reusable scratch state: identical results
/// (bit-for-bit, asserted by the conformance suite), but the working
/// arrays come from `scratch` — the engine call behind the radius-stepping
/// solvers' [`crate::solver::SsspSolver::execute`].
pub fn radius_stepping_with_scratch(
    g: &CsrGraph,
    radii: &Radii,
    source: VertexId,
    config: EngineConfig<'_>,
    scratch: &mut SolverScratch,
) -> SsspResult {
    assert!((source as usize) < g.num_vertices(), "source out of range");
    frontier::run_with(g, radii, source, config, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::gen;

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_bounds_checked() {
        let g = gen::path(3);
        radius_stepping(&g, &Radii::Zero, 99);
    }
}
