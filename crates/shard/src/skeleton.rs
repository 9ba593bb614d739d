//! The boundary skeleton: an overlay graph over boundary vertices whose
//! distances equal the input graph's distances exactly.
//!
//! **Nodes** are the boundary vertices — every vertex with at least one
//! cut arc (an arc whose endpoints live in different parts). **Edges**
//! are (a) every cut arc, at its input weight, and (b) for each part, the
//! *non-dominated* pairs of that part's boundary vertices, weighted by
//! *within-part* distance `d` (shortest paths in the part's induced
//! subgraph). A pair `(a, b)` is dominated when another boundary vertex
//! `c` of the same part has `d(a, c) + d(c, b) = d(a, b)`; the skeleton
//! keeps only the arcs a shortest route cannot do without, the way the
//! (k, ρ) preprocessing adds a shortcut only where it saves hops.
//!
//! Exactness: a shortest path between boundary vertices decomposes at its
//! cut arcs into maximal within-part segments; each segment joins two
//! boundary vertices of one part and is no shorter than their within-part
//! distance (it lies entirely inside the part). The kept arcs still
//! realise every within-part boundary distance, by induction on that
//! distance: edge weights are positive, so a witness `c` splits a dropped
//! pair into two strictly shorter within-part distances, each realised
//! by kept arcs. So the skeleton never underestimates — and every
//! skeleton edge is realised by an actual input-graph path, so it never
//! overestimates either. `d` is symmetric, so `(a, b)` and `(b, a)` are
//! kept or dropped together.
//!
//! The within-part distances are produced by the existing (k, ρ)
//! preprocessing + one-to-many machinery: each part is preprocessed with
//! [`Preprocessed`]-backed solvers and each boundary vertex runs one
//! `OneToMany` solve over its part. The solves request paths, and for
//! every kept arc the returned input-graph route is recorded as parent
//! links in the skeleton's one [`ShortcutExpander`] over global ids —
//! the table that unrolls the preprocessing's shortcut hops — so a
//! within-part skeleton hop unrolls into exact input-graph edges the way
//! a shortcut hop does.
//!
//! [`Preprocessed`]: rs_core::Preprocessed

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rs_core::solver::{Query, QueryResponse, SolverBuilder, SsspSolver};
use rs_core::{PreprocessConfig, ShortcutExpander, SolverScratch, StepStats};
use rs_graph::partition::SubgraphView;
use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// The boundary-skeleton graph: CSR over skeleton node ids with `u64`
/// weights (within-part distances can exceed any single edge weight), the
/// node↔global mapping, and the chain table of the within-part arcs.
#[derive(Debug, Clone)]
pub struct SkeletonGraph {
    /// `node_global[node]` = the input graph's vertex id; sorted
    /// ascending, so node lookup is a binary search.
    node_global: Vec<VertexId>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<Dist>,
    /// Links `(a, v, parent, d(a, v))` in global ids along the recorded
    /// route of every within-part arc `a → b`; cut arcs have none.
    chains: ShortcutExpander,
}

/// Counters from one skeleton solve, folded into the sharded response's
/// [`StepStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SkeletonSolve {
    /// Skeleton nodes settled.
    pub settled: usize,
    /// Successful relaxations.
    pub relaxations: u64,
    /// Skeleton edges examined.
    pub relaxed_edges: u64,
}

impl SkeletonGraph {
    /// Assembles a skeleton from raw parts (the build path and the
    /// partition loader). `edges` are directed `(node, node, dist)`
    /// entries; they are symmetrised and min-deduplicated here.
    pub fn from_edges(
        node_global: Vec<VertexId>,
        edges: Vec<(u32, u32, Dist)>,
        chains: ShortcutExpander,
    ) -> SkeletonGraph {
        let nodes = node_global.len();
        debug_assert!(node_global.windows(2).all(|w| w[0] < w[1]), "nodes sorted");
        let mut arcs: Vec<(u32, u32, Dist)> = Vec::with_capacity(edges.len() * 2);
        for (u, v, w) in edges {
            debug_assert!((u as usize) < nodes && (v as usize) < nodes && u != v);
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        arcs.sort_unstable();
        arcs.dedup_by_key(|&mut (u, v, _)| (u, v)); // sorted: keeps the min weight
        let mut offsets = vec![0usize; nodes + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets = arcs.iter().map(|&(_, v, _)| v).collect();
        let weights = arcs.iter().map(|&(_, _, w)| w).collect();
        SkeletonGraph { node_global, offsets, targets, weights, chains }
    }

    /// Number of skeleton nodes (boundary vertices).
    pub fn num_nodes(&self) -> usize {
        self.node_global.len()
    }

    /// Number of undirected skeleton edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// The input-graph vertex behind skeleton node `node`.
    pub fn global_of_node(&self, node: u32) -> VertexId {
        self.node_global[node as usize]
    }

    /// The skeleton node of input vertex `global`, if it is a boundary
    /// vertex.
    pub fn node_of_global(&self, global: VertexId) -> Option<u32> {
        self.node_global.binary_search(&global).ok().map(|i| i as u32)
    }

    /// The sorted boundary vertex ids (node order).
    pub fn node_globals(&self) -> &[VertexId] {
        &self.node_global
    }

    /// The chain table that unrolls within-part arcs into input edges.
    pub fn chains(&self) -> &ShortcutExpander {
        &self.chains
    }

    /// Raw CSR views (for persistence).
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[Dist]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Multi-source Dijkstra over the skeleton with per-seed distance
    /// offsets: computes `dist[node] = min_seed (offset + d_skel(seed,
    /// node))`. With the offsets set to within-part distances from a
    /// query source `s` to its part's boundary, `dist[node]` is the
    /// *exact input-graph* distance `d(s, node)` for every skeleton node
    /// (see the module docs). Deterministic: the heap breaks distance
    /// ties toward the lowest node id, and parents are fixed at first
    /// settle.
    pub fn multi_source(
        &self,
        seeds: &[(u32, Dist)],
        want_parents: bool,
    ) -> (Vec<Dist>, Option<Vec<u32>>, SkeletonSolve) {
        let nodes = self.num_nodes();
        let mut dist = vec![INF; nodes];
        let mut parent = want_parents.then(|| vec![u32::MAX; nodes]);
        let mut stats = SkeletonSolve::default();
        let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        for &(node, offset) in seeds {
            if offset < dist[node as usize] {
                dist[node as usize] = offset;
                if let Some(p) = parent.as_mut() {
                    p[node as usize] = node; // seed: self-parented root
                }
                heap.push(Reverse((offset, node)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue; // stale entry
            }
            stats.settled += 1;
            let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
            for (&v, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
                stats.relaxed_edges += 1;
                let cand = d.saturating_add(w);
                if cand < dist[v as usize] {
                    dist[v as usize] = cand;
                    if let Some(p) = parent.as_mut() {
                        p[v as usize] = u;
                    }
                    stats.relaxations += 1;
                    heap.push(Reverse((cand, v)));
                }
            }
        }
        (dist, parent, stats)
    }
}

/// Builds the skeleton for a partition: identifies boundary vertices,
/// collects cut arcs, and runs one `OneToMany` solve per boundary vertex
/// over its part — through a per-part (k, ρ)-preprocessed solver when
/// `pre_cfg` is given (the preprocessing's `ShortcutExpander` makes the
/// returned paths input-graph exact automatically), a plain frontier
/// solver otherwise. From each part's boundary distance matrix it keeps
/// only the non-dominated within-part arcs (see the module docs) and
/// records chain links for those alone. Also returns the accumulated
/// solve stats for telemetry.
pub fn build_skeleton(
    g: &CsrGraph,
    part_of: &[u32],
    parts: &[SubgraphView],
    pre_cfg: Option<&PreprocessConfig>,
) -> (SkeletonGraph, StepStats) {
    let node_global = boundary_vertices(g, part_of);
    let node_of = |global: VertexId| -> u32 {
        node_global.binary_search(&global).expect("boundary vertex has a node") as u32
    };

    let mut edges: Vec<(u32, u32, Dist)> = Vec::new();
    // Cut arcs at input weight (one direction; from_edges symmetrises).
    for &u in &node_global {
        for (t, w) in g.edges(u) {
            if part_of[t as usize] != part_of[u as usize] && u < t {
                edges.push((node_of(u), node_of(t), w as Dist));
            }
        }
    }

    // Per part: one OneToMany solve per boundary source, then keep only
    // the non-dominated within-part arcs and record chains for those.
    let mut links: Vec<(VertexId, VertexId, VertexId, Dist)> = Vec::new();
    let mut stats = StepStats::default();
    for view in parts {
        let boundary_locals: Vec<VertexId> = view
            .to_global
            .iter()
            .enumerate()
            .filter(|&(_, &gv)| node_global.binary_search(&gv).is_ok())
            .map(|(local, _)| local as VertexId)
            .collect();
        if boundary_locals.len() < 2 {
            continue;
        }
        let solver = match pre_cfg {
            Some(cfg) => SolverBuilder::new(&view.graph)
                .preprocess(*cfg)
                .radius_stepping_solver_from_algorithm(),
            None => SolverBuilder::new(&view.graph).radius_stepping_solver_from_algorithm(),
        };
        let mut scratch = SolverScratch::new();
        solver.warm_scratch(&mut scratch);
        let responses: Vec<QueryResponse> = boundary_locals
            .iter()
            .map(|&b| {
                let goals: Vec<VertexId> =
                    boundary_locals.iter().copied().filter(|&o| o != b).collect();
                let resp = solver.execute(&Query::one_to_many(b, goals).with_paths(), &mut scratch);
                absorb_stats(&mut stats, resp.stats());
                resp
            })
            .collect();
        // d[i][j]: within-part distance between boundary_locals[i] and [j].
        let d: Vec<Vec<Dist>> = responses
            .iter()
            .map(|resp| boundary_locals.iter().map(|&o| resp.dist()[o as usize]).collect())
            .collect();
        // `recorded[v] == i`: source i has a link for v. Routes to
        // different goals share vertices, possibly through different
        // parents at the same distance; the first link recorded is kept.
        let mut recorded = vec![usize::MAX; view.graph.num_vertices()];
        for (i, resp) in responses.iter().enumerate() {
            let b = view.to_global(boundary_locals[i]);
            for j in non_dominated(&d, i) {
                let o = boundary_locals[j];
                edges.push((node_of(b), node_of(view.to_global(o)), d[i][j]));
                // goal_path_to expands shortcut hops through the part
                // preprocessing's expander, so the route rides input
                // edges only. Each link's distance is the prefix sum
                // along it, exact whatever else the solve settled.
                let path = resp.goal_path_to(o).expect("a finite distance has a route");
                let mut dist: Dist = 0;
                for hop in path.windows(2) {
                    let (parent, v) = (view.to_global(hop[0]), view.to_global(hop[1]));
                    dist += g.arc_weight(parent, v).expect("routes ride input edges") as Dist;
                    if recorded[hop[1] as usize] != i {
                        recorded[hop[1] as usize] = i;
                        links.push((b, v, parent, dist));
                    }
                }
            }
        }
    }
    let chains = ShortcutExpander::from_links(g.num_vertices(), links)
        .expect("every recorded parent is closer to its source");
    (SkeletonGraph::from_edges(node_global, edges, chains), stats)
}

/// The skeleton's nodes: every vertex with a cut arc, ascending (heads of
/// cut arcs are tails too, by symmetry).
pub(crate) fn boundary_vertices(g: &CsrGraph, part_of: &[u32]) -> Vec<VertexId> {
    (0..g.num_vertices() as VertexId)
        .filter(|&u| g.neighbors(u).iter().any(|&t| part_of[t as usize] != part_of[u as usize]))
        .collect()
}

/// Checks a persisted skeleton against the graph `g` and assignment
/// `part_of` it claims to cover, on the arcs as persisted (before
/// [`SkeletonGraph::from_edges`] symmetrises them and keeps the minimum):
/// the nodes are exactly the boundary vertices, every cut arc is an edge
/// of `g` at its weight, every within-part arc `(a, b, w)` has a link
/// `(a, b)` or `(b, a)` at distance `w`, and every link's
/// `parent → member` hop is an edge of `g` weighing the difference of
/// the two recorded distances. Then every arc is the length of a real
/// input-graph route, so no skeleton distance undercuts a true one, and
/// every skeleton hop expands into input edges.
pub(crate) fn check_persisted(
    g: &CsrGraph,
    part_of: &[u32],
    node_global: &[VertexId],
    edges: &[(u32, u32, Dist)],
    chains: &ShortcutExpander,
) -> Result<(), String> {
    if node_global != boundary_vertices(g, part_of) {
        return Err("skeleton nodes are not the boundary vertices".into());
    }
    for &(u, v, w) in edges {
        let (a, b) = (node_global[u as usize], node_global[v as usize]);
        let realised = if part_of[a as usize] != part_of[b as usize] {
            g.arc_weight(a, b).is_some_and(|x| x as Dist == w)
        } else {
            [(a, b), (b, a)].iter().any(|&(x, y)| chains.get(x, y).is_some_and(|(_, d)| d == w))
        };
        if !realised {
            return Err(format!("skeleton arc {a} -> {b} ({w}) is not an input route"));
        }
    }
    for (source, member, parent, d) in chains.iter() {
        // The source has no link of its own: it sits at distance 0.
        // `from_links` already put every other parent strictly closer.
        let hop = d - chains.get(source, parent).map_or(0, |(_, pd)| pd);
        if g.arc_weight(parent, member).is_none_or(|x| x as Dist != hop) {
            return Err(format!("chain link {parent} -> {member} is not an input edge of {hop}"));
        }
    }
    Ok(())
}

/// The targets `j` of row `i` of a within-part boundary distance matrix
/// whose arc `(i, j)` is non-dominated: no other boundary vertex `c` has
/// `d[i][c] + d[c][j] = d[i][j]`.
///
/// Targets are decided in increasing `d[i][j]`, and only the targets
/// already kept are tried as witnesses. That suffices: if `(i, j)` has a
/// witness, the witness `c` nearest to `i` has `(i, c)` non-dominated —
/// a witness `c'` for `(i, c)` would satisfy `d[i][c'] + d[c'][j] ≤
/// d[i][c] + d[c][j] = d[i][j]` (triangle inequality), so `c'` would be a
/// nearer witness for `(i, j)`. Positive weights make every witness
/// strictly nearer to `i` than `j` is, so it is decided first. The cost
/// per row is `O(B · kept)` instead of `O(B²)`.
fn non_dominated(d: &[Vec<Dist>], i: usize) -> Vec<usize> {
    let row = &d[i];
    let mut order: Vec<usize> = (0..row.len()).filter(|&j| j != i && row[j] != INF).collect();
    order.sort_unstable_by_key(|&j| (row[j], j));
    let mut kept: Vec<usize> = Vec::new();
    for j in order {
        debug_assert_eq!(row[j], d[j][i], "within-part distances are symmetric");
        if !kept.iter().any(|&c| row[c].saturating_add(d[c][j]) == row[j]) {
            kept.push(j);
        }
    }
    kept
}

/// Folds one solve's counters into an accumulator (steps are summed — a
/// sharded answer is a sequence of small solves).
pub fn absorb_stats(acc: &mut StepStats, one: &StepStats) {
    acc.steps += one.steps;
    acc.substeps += one.substeps;
    acc.max_substeps_in_step = acc.max_substeps_in_step.max(one.max_substeps_in_step);
    acc.relaxations += one.relaxations;
    acc.relaxed_edges += one.relaxed_edges;
    acc.settled += one.settled;
    acc.scratch_reused &= one.scratch_reused;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionedGraph, Partitioner};
    use rs_graph::{gen, weights, WeightModel};

    /// The test graphs: a paper-weighted grid at P = 6 and the
    /// conformance suite's random graph at P = 5.
    fn cases() -> Vec<(&'static str, CsrGraph, usize)> {
        let grid = weights::reweight(&gen::grid2d(24, 24), WeightModel::paper_weighted(), 0x5eed);
        let random =
            weights::reweight(&gen::erdos_renyi(140, 420, 7), WeightModel::paper_weighted(), 3);
        vec![("grid", grid, 6), ("random", random, 5)]
    }

    /// The lightest `u`–`v` edge of `g`, if any.
    fn edge_weight(g: &CsrGraph, u: VertexId, v: VertexId) -> Option<Dist> {
        g.edges(u).filter(|&(t, _)| t == v).map(|(_, w)| w as Dist).min()
    }

    /// Skeleton nodes spread over the parts: the first and last boundary
    /// vertex of each part.
    fn probe_nodes(pg: &PartitionedGraph) -> Vec<u32> {
        let mut nodes: Vec<u32> = (0..pg.num_parts() as u32)
            .flat_map(|p| {
                let b = pg.part_boundary(p);
                b.first().into_iter().chain(b.last()).map(|&(_, node)| node)
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    #[test]
    fn skeleton_distances_match_the_flat_solver() {
        for (name, g, parts) in cases() {
            let pg = Partitioner::new(parts).partition(&g);
            let skel = pg.boundary();
            let flat = SolverBuilder::new(&g).radius_stepping_solver_from_algorithm();
            let mut scratch = SolverScratch::new();
            let probes = probe_nodes(&pg);
            assert!(probes.len() >= 8, "{name}: only {} probe nodes", probes.len());
            for x in probes {
                let (dist, _, _) = skel.multi_source(&[(x, 0)], false);
                let truth =
                    flat.execute(&Query::single_source(skel.global_of_node(x)), &mut scratch);
                for (node, &d) in dist.iter().enumerate() {
                    let gv = skel.global_of_node(node as u32);
                    assert_eq!(d, truth.dist()[gv as usize], "{name}: node {node} from {x}");
                }
            }
        }
    }

    #[test]
    fn every_kept_within_part_arc_walks_to_its_weight() {
        for (name, g, parts) in cases() {
            let pg = Partitioner::new(parts).partition(&g);
            let skel = pg.boundary();
            let (offsets, targets, weights) = skel.raw_parts();
            let mut dist = vec![INF; g.num_vertices()];
            let mut within = 0;
            for a in 0..skel.num_nodes() {
                let ga = skel.global_of_node(a as u32);
                for i in offsets[a]..offsets[a + 1] {
                    let gb = skel.global_of_node(targets[i]);
                    if pg.locate(ga).0 != pg.locate(gb).0 {
                        continue; // cut arc
                    }
                    within += 1;
                    assert_eq!(skel.chains().get(ga, gb).map(|l| l.1), Some(weights[i]), "{name}");
                    (dist[ga as usize], dist[gb as usize]) = (0, weights[i]);
                    let path = skel.chains().expand_path(&[ga, gb], &dist);
                    (dist[ga as usize], dist[gb as usize]) = (INF, INF);
                    assert!(path.len() > 2 || g.arc_weight(ga, gb).is_some(), "{name}: unexpanded");
                    let length: Dist = path
                        .windows(2)
                        .map(|h| edge_weight(&g, h[0], h[1]).expect("hop is an input edge"))
                        .sum();
                    assert_eq!(length, weights[i], "{name}: arc {ga} → {gb}");
                }
            }
            assert!(within > 0, "{name}: no within-part arcs");
        }
    }

    #[test]
    fn skeleton_is_sparser_than_the_boundary_clique() {
        for (name, g, parts) in cases() {
            let pg = Partitioner::new(parts).partition(&g);
            let part_of = pg.assignment().as_slice();
            let mut cut_edges = 0;
            for u in 0..g.num_vertices() as VertexId {
                let mut heads: Vec<VertexId> = g
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&t| u < t && part_of[t as usize] != part_of[u as usize])
                    .collect();
                heads.dedup();
                cut_edges += heads.len();
            }
            let clique: usize = (0..parts as u32)
                .map(|p| pg.part_boundary(p).len())
                .map(|b| b * b.saturating_sub(1) / 2)
                .sum();
            let kept = pg.boundary().num_edges();
            assert!(kept < cut_edges + clique, "{name}: {kept} ≥ {cut_edges} + {clique}");
        }
    }

    #[test]
    fn witness_search_matches_the_exhaustive_rule() {
        let view = rs_graph::partition::induced_subgraph(
            &cases()[1].1,
            &(0..140).filter(|v| v % 3 != 0).collect::<Vec<VertexId>>(),
        );
        let sample: Vec<VertexId> = (0..view.graph.num_vertices() as VertexId).step_by(4).collect();
        let flat = SolverBuilder::new(&view.graph).radius_stepping_solver_from_algorithm();
        let mut scratch = SolverScratch::new();
        let d: Vec<Vec<Dist>> = sample
            .iter()
            .map(|&s| {
                let resp = flat.execute(&Query::single_source(s), &mut scratch);
                sample.iter().map(|&t| resp.dist()[t as usize]).collect()
            })
            .collect();
        let b = sample.len();
        for i in 0..b {
            let exhaustive: Vec<usize> = (0..b)
                .filter(|&j| j != i && d[i][j] != INF)
                .filter(|&j| {
                    !(0..b).any(|c| c != i && c != j && d[i][c].saturating_add(d[c][j]) == d[i][j])
                })
                .collect();
            let mut fast = non_dominated(&d, i);
            fast.sort_unstable();
            assert_eq!(fast, exhaustive, "row {i}");
        }
    }
}
