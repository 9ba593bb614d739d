//! Compressed-sparse-row graph representation.

use crate::{Dist, VertexId, Weight};

/// An undirected weighted graph in CSR form.
///
/// Both directions of every undirected edge are stored as arcs, so
/// `num_arcs() == 2 * num_edges()` for graphs built through
/// [`crate::EdgeListBuilder`]. Adjacency lists are sorted by target id and
/// contain no self-loops or duplicate targets (parallel edges collapse to
/// their minimum weight).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    max_weight: Weight,
    min_weight: Weight,
}

impl CsrGraph {
    /// Constructs a CSR graph from raw parts.
    ///
    /// The arcs must be symmetric (every `u -> v` has a `v -> u` of the
    /// same weight), with positive weights, strictly sorted adjacency lists
    /// and no self-loops: every solver relies on `d(u, v) = d(v, u)`. Only
    /// the bounds below are asserted here; [`Self::check_invariants`]
    /// checks the rest, and the binary loader
    /// ([`crate::io::read_binary_from`]) runs it before accepting a file.
    ///
    /// # Panics
    /// If the offsets are malformed or any target is out of range.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1");
        assert_eq!(*offsets.last().unwrap(), targets.len());
        assert_eq!(targets.len(), weights.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be nondecreasing");
        let n = offsets.len() - 1;
        assert!(targets.iter().all(|&t| (t as usize) < n), "target out of range");
        let max_weight = weights.iter().copied().max().unwrap_or(1);
        let min_weight = weights.iter().copied().min().unwrap_or(1);
        CsrGraph { offsets, targets, weights, max_weight, min_weight }
    }

    /// The empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph::from_parts(vec![0; n + 1], Vec::new(), Vec::new())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the undirected edge count).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbor ids of `v` (sorted ascending for builder-made graphs).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[Weight] {
        &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterator over `(target, weight)` pairs of `v`'s out-arcs.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v).iter().copied().zip(self.weights_of(v).iter().copied())
    }

    /// Iterator over all arcs `(u, v, w)`.
    pub fn all_arcs(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// The heaviest edge weight `L` (1 for the empty graph, per the paper's
    /// normalisation `min w(e) = 1`).
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// The lightest edge weight.
    #[inline]
    pub fn min_weight(&self) -> Weight {
        self.min_weight
    }

    /// True when every edge has weight exactly 1 (the paper's "unweighted").
    #[inline]
    pub fn is_unit_weighted(&self) -> bool {
        self.min_weight == 1 && self.max_weight == 1
    }

    /// Raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw weights array.
    #[inline]
    pub fn raw_weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Weight of arc `u -> v` if present (binary search; adjacency sorted).
    pub fn arc_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| self.weights_of(u)[i])
    }

    /// An upper bound on any finite shortest-path distance in the graph:
    /// `n * L`. Useful as a "pseudo-infinity" below [`crate::INF`].
    pub fn distance_bound(&self) -> Dist {
        self.num_vertices() as Dist * self.max_weight as Dist + 1
    }

    /// A 64-bit content hash of the full topology and weights (FNV-1a over
    /// the CSR arrays). Two graphs hash equal iff their CSR forms are
    /// identical (modulo the usual 2⁻⁶⁴ collision caveat) — unlike
    /// vertex/edge counts, a changed weight or rewired edge changes the
    /// hash. Used by preprocessing caches to detect stale entries.
    pub fn content_hash(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.num_vertices() as u64);
        mix(self.targets.len() as u64);
        for &o in &self.offsets {
            mix(o as u64);
        }
        for (&t, &w) in self.targets.iter().zip(&self.weights) {
            mix(((t as u64) << 32) | w as u64);
        }
        h
    }

    /// Returns a copy whose adjacency lists are sorted by `(weight, target)`
    /// instead of by target.
    ///
    /// Preprocessing (Lemma 4.2) only examines the `ρ` lightest edges of
    /// each vertex; this layout makes that a prefix scan of each list.
    pub fn weight_sorted(&self) -> CsrGraph {
        use rayon::prelude::*;
        let n = self.num_vertices();
        let mut targets = self.targets.clone();
        let mut weights = self.weights.clone();
        let offsets = self.offsets.clone();
        // Sort each adjacency list independently, in parallel over vertices.
        let mut perm: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .map(|v| {
                let s = offsets[v];
                let e = offsets[v + 1];
                let mut idx: Vec<u32> = (0..(e - s) as u32).collect();
                idx.sort_unstable_by_key(|&i| {
                    (self.weights[s + i as usize], self.targets[s + i as usize])
                });
                idx
            })
            .collect();
        for v in 0..n {
            let s = offsets[v];
            let e = offsets[v + 1];
            let idx = std::mem::take(&mut perm[v]);
            let tgt: Vec<VertexId> = idx.iter().map(|&i| self.targets[s + i as usize]).collect();
            let wts: Vec<Weight> = idx.iter().map(|&i| self.weights[s + i as usize]).collect();
            targets[s..e].copy_from_slice(&tgt);
            weights[s..e].copy_from_slice(&wts);
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            max_weight: self.max_weight,
            min_weight: self.min_weight,
        }
    }

    /// Structural invariants the builder guarantees (strictly sorted
    /// adjacency, no self-loops, symmetric arcs of equal weight); checked by
    /// tests and by the binary loader ([`crate::io::read_binary_from`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices();
        for v in 0..n as VertexId {
            let nbrs = self.neighbors(v);
            for win in nbrs.windows(2) {
                if win[0] >= win[1] {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
            if nbrs.contains(&v) {
                return Err(format!("self loop at {v}"));
            }
            for (u, w) in self.edges(v) {
                match self.arc_weight(u, v) {
                    Some(w2) if w2 == w => {}
                    Some(w2) => return Err(format!("asymmetric weight {v}-{u}: {w} vs {w2}")),
                    None => return Err(format!("missing reverse arc {u}->{v}")),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeListBuilder;

    fn triangle() -> CsrGraph {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 0, 9);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn weights_and_lookup() {
        let g = triangle();
        assert_eq!(g.arc_weight(0, 1), Some(5));
        assert_eq!(g.arc_weight(1, 0), Some(5));
        assert_eq!(g.arc_weight(0, 2), Some(9));
        assert_eq!(g.arc_weight(0, 0), None);
        assert_eq!(g.max_weight(), 9);
        assert_eq!(g.min_weight(), 3);
        assert!(!g.is_unit_weighted());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 0);
        assert!(g.is_unit_weighted());
        g.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold() {
        triangle().check_invariants().unwrap();
    }

    #[test]
    fn weight_sorted_orders_by_weight() {
        let g = triangle().weight_sorted();
        // Vertex 0 has edges (1, w=5) and (2, w=9) -> weight order 1 then 2.
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[5, 9]);
        // Vertex 2 has edges (1, w=3) and (0, w=9).
        assert_eq!(g.neighbors(2), &[1, 0]);
        assert_eq!(g.weights_of(2), &[3, 9]);
        // Same multiset of arcs.
        assert_eq!(g.num_arcs(), 6);
    }

    #[test]
    fn all_arcs_enumerates_both_directions() {
        let g = triangle();
        let arcs: Vec<_> = g.all_arcs().collect();
        assert_eq!(arcs.len(), 6);
        assert!(arcs.contains(&(0, 1, 5)));
        assert!(arcs.contains(&(1, 0, 5)));
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn from_parts_validates_targets() {
        CsrGraph::from_parts(vec![0, 1], vec![5], vec![1]);
    }

    #[test]
    fn content_hash_sees_weights_and_wiring() {
        let g = triangle();
        assert_eq!(g.content_hash(), triangle().content_hash(), "deterministic");
        // Same shape (n, m), one weight changed: different hash.
        let mut b = crate::EdgeListBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 0, 8); // triangle() uses 9 here
        let reweighted = b.build();
        assert_eq!(reweighted.num_vertices(), g.num_vertices());
        assert_eq!(reweighted.num_edges(), g.num_edges());
        assert_ne!(reweighted.content_hash(), g.content_hash());
        // Same shape, rewired: different hash.
        let mut b = crate::EdgeListBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let a = b.build();
        let mut b = crate::EdgeListBuilder::new(4);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 1);
        let c = b.build();
        assert_ne!(a.content_hash(), c.content_hash());
    }
}
