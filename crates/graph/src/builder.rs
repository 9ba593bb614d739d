//! Edge-list builder producing canonical CSR graphs.
//!
//! All graphs in the workspace are built through this path so the engine
//! code can rely on: symmetric arcs, no self-loops, no duplicate targets
//! (parallel edges keep the minimum weight — exactly how the paper merges
//! shortcut edges into the original graph), and target-sorted adjacency.

use rayon::prelude::*;

use crate::{CsrGraph, Edge, VertexId, Weight};

/// Accumulates undirected edges and builds a [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct EdgeListBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeListBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex ids are u32");
        EdgeListBuilder { n, edges: Vec::new() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// Self-loops are silently dropped; duplicates are collapsed (minimum
    /// weight wins) at build time. Zero weights are rejected because the
    /// paper normalises the lightest weight to 1.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!((u as usize) < self.n && (v as usize) < self.n, "vertex out of range");
        assert!(w > 0, "edge weights must be positive (paper normalises min weight to 1)");
        if u != v {
            self.edges.push((u, v, w));
        }
    }

    /// Bulk-adds edges.
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for (u, v, w) in edges {
            self.add_edge(u, v, w);
        }
    }

    /// Number of (pre-dedup) undirected edges added so far.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the canonical CSR graph.
    pub fn build(&self) -> CsrGraph {
        build_symmetric(self.n, &self.edges)
    }
}

/// Vertices per task of [`build_symmetric`]'s parallel sort-and-dedup pass.
const BUILD_BLOCK: usize = 1024;

/// Builds a canonical symmetric CSR from an undirected edge list.
///
/// Both arc directions are scattered into per-source buckets (a counting
/// sort by source), then each bucket is sorted by `(dst, w)` and keeps the
/// first copy of each `dst` — its minimum weight — in parallel over blocks
/// of vertices. No global sort of the arcs is needed.
pub fn build_symmetric(n: usize, edges: &[Edge]) -> CsrGraph {
    let mut start = vec![0usize; n + 1];
    for &(u, v, _) in edges {
        if u != v {
            start[u as usize + 1] += 1;
            start[v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut buckets: Vec<(VertexId, Weight)> = vec![(0, 0); start[n]];
    for &(u, v, w) in edges {
        if u != v {
            for (src, dst) in [(u, v), (v, u)] {
                buckets[next[src as usize]] = (dst, w);
                next[src as usize] += 1;
            }
        }
    }

    let blocks: Vec<(Vec<usize>, Vec<VertexId>, Vec<Weight>)> = (0..n.div_ceil(BUILD_BLOCK))
        .into_par_iter()
        .map(|b| {
            let (lo, hi) = (b * BUILD_BLOCK, ((b + 1) * BUILD_BLOCK).min(n));
            let mut degrees = Vec::with_capacity(hi - lo);
            let mut targets = Vec::with_capacity(start[hi] - start[lo]);
            let mut weights = Vec::with_capacity(start[hi] - start[lo]);
            let mut list = Vec::new();
            for u in lo..hi {
                list.clear();
                list.extend_from_slice(&buckets[start[u]..start[u + 1]]);
                list.sort_unstable();
                list.dedup_by_key(|a| a.0); // keeps the first = min weight
                degrees.push(list.len());
                targets.extend(list.iter().map(|a| a.0));
                weights.extend(list.iter().map(|a| a.1));
            }
            (degrees, targets, weights)
        })
        .collect();

    let arcs = blocks.iter().map(|b| b.1.len()).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(arcs);
    let mut weights = Vec::with_capacity(arcs);
    let mut end = 0;
    offsets.push(end);
    for (degrees, t, w) in blocks {
        for d in degrees {
            end += d;
            offsets.push(end);
        }
        targets.extend_from_slice(&t);
        weights.extend_from_slice(&w);
    }
    CsrGraph::from_parts(offsets, targets, weights)
}

/// Merges extra undirected edges (e.g. the paper's shortcut edges) into an
/// existing graph, collapsing duplicates to the minimum weight.
pub fn merge_edges(g: &CsrGraph, extra: &[Edge]) -> CsrGraph {
    let mut edges: Vec<Edge> = Vec::with_capacity(g.num_edges() + extra.len());
    for (u, v, w) in g.all_arcs() {
        if u < v {
            edges.push((u, v, w));
        }
    }
    edges.extend_from_slice(extra);
    build_symmetric(g.num_vertices(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_min_weight() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 0, 3); // same undirected edge, lighter
        b.add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.arc_weight(0, 1), Some(3));
        assert_eq!(g.arc_weight(1, 0), Some(3));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(1, 1, 4);
        b.add_edge(0, 2, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut b = EdgeListBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let mut b = EdgeListBuilder::new(5);
        for (u, v) in [(4, 0), (2, 0), (3, 0), (1, 0), (4, 2)] {
            b.add_edge(u, v, (u + v + 1) as Weight);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn merge_edges_adds_shortcuts_min_weight() {
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        let g = b.build();
        // Shortcut 0-2 with the true distance 4, plus a worse duplicate 0-1.
        let g2 = merge_edges(&g, &[(0, 2, 4), (0, 1, 10)]);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.arc_weight(0, 2), Some(4));
        assert_eq!(g2.arc_weight(0, 1), Some(2), "existing lighter edge wins");
        g2.check_invariants().unwrap();
    }

    /// The reference canonical CSR: materialise both arc directions, sort
    /// by `(src, dst, w)`, keep the first (minimum-weight) copy.
    pub(super) fn naive_symmetric(n: usize, edges: &[Edge]) -> CsrGraph {
        let mut arcs: Vec<(VertexId, VertexId, Weight)> = edges
            .iter()
            .filter(|e| e.0 != e.1)
            .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
            .collect();
        arcs.sort_unstable();
        arcs.dedup_by_key(|a| (a.0, a.1));
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        CsrGraph::from_parts(
            offsets,
            arcs.iter().map(|a| a.1).collect(),
            arcs.iter().map(|a| a.2).collect(),
        )
    }

    #[test]
    fn build_symmetric_matches_naive_reference() {
        let mut many = Vec::new();
        for i in 0..3000u32 {
            // Spans several build blocks; vertex 4999 stays isolated.
            many.push((i % 4000, (i * 7919) % 4999, i % 13 + 1));
        }
        let cases: Vec<(usize, Vec<Edge>)> = vec![
            (0, vec![]),
            (1, vec![]),
            (1, vec![(0, 0, 5)]),
            (2, vec![(0, 1, 7), (1, 0, 3), (0, 1, 9), (1, 1, 1)]),
            (6, vec![(0, 5, 4), (5, 0, 4), (2, 2, 8), (0, 5, 2), (3, 0, 6), (0, 3, 6)]),
            (5000, many),
        ];
        for (n, edges) in cases {
            let g = build_symmetric(n, &edges);
            g.check_invariants().unwrap();
            assert_eq!(g, naive_symmetric(n, &edges), "n = {n}, {} edges", edges.len());
        }
    }

    #[test]
    fn build_is_deterministic() {
        let mut b = EdgeListBuilder::new(50);
        for i in 0..49u32 {
            b.add_edge(i, i + 1, i % 7 + 1);
            b.add_edge(i, (i * 13) % 50, i % 5 + 1);
        }
        assert_eq!(b.build(), b.build());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_edges(n: u32) -> impl Strategy<Value = Vec<Edge>> {
        proptest::collection::vec((0..n, 0..n, 1u32..100), 0..200)
    }

    proptest! {
        #[test]
        fn matches_naive_reference(edges in arb_edges(20)) {
            prop_assert_eq!(build_symmetric(20, &edges), tests::naive_symmetric(20, &edges));
        }

        #[test]
        fn built_graph_invariants(edges in arb_edges(20)) {
            let g = build_symmetric(20, &edges);
            prop_assert!(g.check_invariants().is_ok());
        }

        #[test]
        fn arc_weight_is_min_of_duplicates(edges in arb_edges(10)) {
            let g = build_symmetric(10, &edges);
            for u in 0..10u32 {
                for v in 0..10u32 {
                    let expect = edges
                        .iter()
                        .filter(|&&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u))
                        .filter(|&&(a, b, _)| a != b)
                        .map(|&(_, _, w)| w)
                        .min();
                    prop_assert_eq!(g.arc_weight(u, v), expect);
                }
            }
        }
    }
}
