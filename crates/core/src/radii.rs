//! Vertex radius assignments.
//!
//! Algorithm 1 takes a function `r : V → R+`. §3 spells out the spectrum:
//! `r ≡ 0` makes it Dijkstra (one substep per step), `r ≡ ∞` makes it
//! Bellman–Ford (one step of many substeps), `r ≡ ∆` is almost ∆-stepping,
//! and `r(v) = r_ρ(v)` from preprocessing gives the paper's bounds. The
//! algorithm is *correct* for every choice; the radii only trade steps
//! against substeps.

use std::sync::Arc;

use rs_graph::{Dist, VertexId, INF};

/// A radius assignment `r(v)`: what the frontier engine, the step oracle and
/// [`crate::solver::Algorithm::RadiusStepping`] take. Cloning is O(1)
/// (`PerVertex` shares its array).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Radii {
    /// `r(v) = 0`: Dijkstra-like; settles one distance level per step.
    #[default]
    Zero,
    /// `r(v) = ∞`: Bellman–Ford-like; one step, substeps to fixpoint.
    Infinite,
    /// `r(v) = ∆`: fixed increment, ∆-stepping-like (§3: "almost
    /// ∆-stepping, but not quite since ∆ is added to the distance of the
    /// nearest frontier vertex instead of to `d_{i-1}`").
    Constant(Dist),
    /// Per-vertex radii, e.g. `r_ρ(v)` from preprocessing; one entry per
    /// vertex.
    PerVertex(Arc<[Dist]>),
}

impl Radii {
    /// `r(v)`.
    #[inline]
    pub fn get(&self, v: VertexId) -> Dist {
        match self {
            Radii::Zero => 0,
            Radii::Infinite => INF,
            Radii::Constant(d) => *d,
            Radii::PerVertex(r) => r[v as usize],
        }
    }

    /// `δ + r(v)`, saturating at `INF`.
    #[inline]
    pub fn key(&self, v: VertexId, delta: Dist) -> Dist {
        delta.saturating_add(self.get(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_values() {
        assert_eq!(Radii::Zero.get(3), 0);
        assert_eq!(Radii::Infinite.get(3), INF);
        assert_eq!(Radii::Constant(7).get(3), 7);
        assert_eq!(Radii::PerVertex([1, 2, 3].into()).get(2), 3);
    }

    #[test]
    fn key_saturates() {
        assert_eq!(Radii::Infinite.key(0, 5), INF);
        assert_eq!(Radii::Constant(2).key(0, INF - 1), INF);
        assert_eq!(Radii::Constant(2).key(0, 10), 12);
    }
}
