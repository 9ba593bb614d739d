//! [`ShardedSolver`]: an [`SsspSolver`] that answers queries through the
//! partition layer — intra-part solve → skeleton solve → intra-part
//! solve — instead of touching one flat graph.
//!
//! ## Routing
//!
//! * `PointToPoint` with endpoints in *different* parts runs the
//!   three-phase route; endpoints sharing a part fall back to the flat
//!   solver (the part view alone cannot prove a same-part distance — the
//!   shortest path may leave the part — and a flat goal-bounded solve is
//!   the cheaper certificate).
//! * `OneToMany` routes every goal through the skeleton; goals sharing
//!   the source's part additionally get the direct within-part candidate
//!   from the first leg, and the minimum of the two is exact.
//! * `ManyToMany` fans its rows over the worker pool with every
//!   part-local solve drawing scratch from that *part's*
//!   [`ScratchPool`] — rows are pinned to the parts they touch, closing
//!   the batch-level-scratch-pool follow-up.
//! * `SingleSource` needs exact distances *everywhere* and delegates to
//!   the flat solver (partitioning buys nothing for a full relaxation).
//!
//! ## Exactness
//!
//! For a source `s` in part `p`, seeding a skeleton Dijkstra at every
//! boundary vertex `b` of `p` with offset `d_within(s, b)` yields the
//! exact input-graph distance `d(s, x)` at **every** skeleton node `x`:
//! a shortest `s → x` path's prefix up to its first cut arc stays inside
//! `p` (costing at least `d_within(s, b')` for the crossing vertex `b'`)
//! and the remainder runs boundary-to-boundary (costing at least the
//! skeleton distance). A goal `g` in part `q` then satisfies
//! `d(s, g) = min( [q = p] d_within(s, g),
//!                 min_{b ∈ ∂q} d(s, b) + d_within(b, g) )`
//! — the second leg's `d_within(b, g) = d_within(g, b)` comes from one
//! goal-side `OneToMany` solve per goal (the graphs are undirected).
//!
//! Paths are stitched to exact *input-graph* routes: leg paths come from
//! the part solves (shortcut hops already expanded by the parts'
//! `ShortcutExpander`s), and the skeleton leg runs through the
//! skeleton's own [`rs_core::ShortcutExpander`]: within-part hops unroll
//! through their recorded links, and cut arcs pass through as the input
//! edges they are.

use rs_core::solver::{
    Query, QueryResponse, QueryShape, RadiusSteppingSolver, SolverBuilder, SsspSolver,
};
use rs_core::{ScratchPool, SolverScratch, SsspResult, StepStats};
use rs_graph::{CsrGraph, Dist, VertexId, INF};

use crate::partitioned::PartitionedGraph;
use crate::skeleton::absorb_stats;

/// A sharded SSSP solver over a [`PartitionedGraph`].
///
/// Borrows both the input graph and the partition; per-part solvers are
/// plain frontier solvers over the part views (the skeleton *is* the
/// preprocessing at this layer).
pub struct ShardedSolver<'a> {
    graph: &'a CsrGraph,
    pg: &'a PartitionedGraph,
    flat: RadiusSteppingSolver<'a>,
    part_solvers: Vec<RadiusSteppingSolver<'a>>,
    /// One scratch pool per part: many-to-many rows and goal-side solves
    /// check out scratch sized for the part they run on.
    pools: Vec<ScratchPool>,
}

impl<'a> ShardedSolver<'a> {
    /// Builds a sharded solver. `pg` must have been built (or loaded) for
    /// exactly this graph.
    ///
    /// # Panics
    /// If `pg`'s recorded content hash does not match `graph`.
    pub fn new(graph: &'a CsrGraph, pg: &'a PartitionedGraph) -> ShardedSolver<'a> {
        assert_eq!(
            pg.input_hash(),
            graph.content_hash(),
            "partition was built for a different graph"
        );
        let flat = SolverBuilder::new(graph).radius_stepping_solver_from_algorithm();
        let part_solvers = pg
            .parts()
            .iter()
            .map(|view| SolverBuilder::new(&view.graph).radius_stepping_solver_from_algorithm())
            .collect();
        let pools = pg.parts().iter().map(|_| ScratchPool::new()).collect();
        ShardedSolver { graph, pg, flat, part_solvers, pools }
    }

    /// The partition this solver routes through.
    pub fn partition(&self) -> &PartitionedGraph {
        self.pg
    }

    /// Per-part scratch pool counters: `(created, reused)` summed over
    /// all parts.
    pub fn pool_counters(&self) -> (u64, u64) {
        self.pools.iter().fold((0, 0), |(c, r), p| (c + p.created(), r + p.reused()))
    }

    /// One `OneToMany` solve on part `p` from `source` (local) to
    /// `goals` (local), scratch drawn from the part's pool.
    fn part_solve(
        &self,
        p: u32,
        source: VertexId,
        goals: Vec<VertexId>,
        want_paths: bool,
    ) -> QueryResponse {
        let solver = &self.part_solvers[p as usize];
        let mut scratch = self.pools[p as usize].checkout();
        solver.warm_scratch(&mut scratch);
        let mut q = Query::one_to_many(source, goals);
        if want_paths {
            q = q.with_paths();
        }
        solver.execute(&q, &mut scratch)
    }

    /// The routed one-to-many solve behind every sharded shape: exact
    /// distances (and, with `want_paths`, exact input-graph paths) from
    /// `source` to each goal, written into a full-size result row.
    fn route_one_to_many(
        &self,
        source: VertexId,
        goals: &[VertexId],
        want_paths: bool,
    ) -> SsspResult {
        let n = self.graph.num_vertices();
        let (p, s_local) = self.pg.locate(source);
        let p_boundary = self.pg.part_boundary(p);
        let mut stats = StepStats::default();

        // Leg 1: within the source's part, to its boundary plus any
        // same-part goals (one solve covers both roles).
        let mut leg1_goals: Vec<VertexId> = p_boundary.iter().map(|&(local, _)| local).collect();
        for &g in goals {
            let (q, g_local) = self.pg.locate(g);
            if q == p {
                leg1_goals.push(g_local);
            }
        }
        leg1_goals.sort_unstable();
        leg1_goals.dedup();
        leg1_goals.retain(|&l| l != s_local);
        let leg1 =
            (!leg1_goals.is_empty()).then(|| self.part_solve(p, s_local, leg1_goals, want_paths));
        if let Some(r) = &leg1 {
            absorb_stats(&mut stats, r.stats());
        }
        let leg1_dist = |local: VertexId| -> Dist {
            if local == s_local {
                0
            } else {
                leg1.as_ref().map_or(INF, |r| r.dist()[local as usize])
            }
        };

        // Leg 2: one skeleton Dijkstra seeded with the within-part
        // distances — exact d(source, ·) at every skeleton node.
        let seeds: Vec<(u32, Dist)> = p_boundary
            .iter()
            .filter_map(|&(local, node)| {
                let d = leg1_dist(local);
                (d != INF).then_some((node, d))
            })
            .collect();
        let (skel_dist, skel_parent, skel_stats) =
            self.pg.boundary().multi_source(&seeds, want_paths);
        stats.settled += skel_stats.settled;
        stats.relaxations += skel_stats.relaxations;
        stats.relaxed_edges += skel_stats.relaxed_edges;

        let mut dist = vec![INF; n];
        dist[source as usize] = 0;
        let mut parent = want_paths.then(|| {
            let mut par = vec![u32::MAX; n];
            par[source as usize] = source;
            par
        });
        // Scatter the skeleton's exact distances — they sharpen the row
        // at no cost and every entry honours the "exact or upper bound"
        // response contract.
        for (node, &d) in skel_dist.iter().enumerate() {
            if d != INF {
                let gv = self.pg.boundary().global_of_node(node as u32);
                dist[gv as usize] = d;
            }
        }
        // The skeleton hops expand over these distances; committed paths
        // rewrite row entries, so expansion reads a copy.
        let skel_row = parent.is_some().then(|| dist.clone());

        let mut distinct: Vec<VertexId> = goals.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for g in distinct {
            if g == source {
                continue; // dist 0 / self-parent already in place
            }
            let (q, g_local) = self.pg.locate(g);
            let direct = if q == p { leg1_dist(g_local) } else { INF };
            // Goal-side leg: within-part distances from the goal to its
            // part's boundary (valid for `b → g` too — undirected).
            let q_boundary = self.pg.part_boundary(q);
            let leg3_goals: Vec<VertexId> =
                q_boundary.iter().map(|&(local, _)| local).filter(|&l| l != g_local).collect();
            let leg3 = (!leg3_goals.is_empty() && !seeds.is_empty())
                .then(|| self.part_solve(q, g_local, leg3_goals, want_paths));
            if let Some(r) = &leg3 {
                absorb_stats(&mut stats, r.stats());
            }
            let leg3_dist = |local: VertexId| -> Dist {
                if local == g_local {
                    0
                } else {
                    leg3.as_ref().map_or(INF, |r| r.dist()[local as usize])
                }
            };
            // Best boundary exit: min over ∂q of d(s, b) + d_within(b, g),
            // ties toward the lowest skeleton node id (determinism).
            let mut via: Option<(Dist, VertexId, u32)> = None; // (dist, local, node)
            for &(local, node) in q_boundary {
                let (ds, dg) = (skel_dist[node as usize], leg3_dist(local));
                if ds == INF || dg == INF {
                    continue;
                }
                let total = ds.saturating_add(dg);
                if via.is_none_or(|(best, _, _)| total < best) {
                    via = Some((total, local, node));
                }
            }
            let best_via = via.map_or(INF, |(d, _, _)| d);
            let answer = direct.min(best_via);
            if answer == INF {
                continue; // unreachable: dist[g] stays INF, no parent
            }
            dist[g as usize] = answer;
            if let Some(par) = parent.as_mut() {
                let path = if direct <= best_via {
                    self.direct_path(p, &leg1, s_local, g_local)
                } else {
                    let (_, b2_local, b2_node) = via.expect("best_via finite implies a boundary");
                    self.stitched_path(
                        p,
                        &leg1,
                        s_local,
                        skel_parent.as_deref().expect("want_paths recorded skeleton parents"),
                        skel_row.as_deref().expect("want_paths copied the skeleton row"),
                        b2_node,
                        q,
                        leg3.as_ref(),
                        g_local,
                        b2_local,
                    )
                };
                self.commit_path(&path, answer, &mut dist, par);
            }
        }
        let mut row = SsspResult::new(dist, stats);
        row.parent = parent;
        row
    }

    /// The within-part path `s → g` from the first leg, in global ids.
    fn direct_path(
        &self,
        p: u32,
        leg1: &Option<QueryResponse>,
        s_local: VertexId,
        g_local: VertexId,
    ) -> Vec<VertexId> {
        let view = self.pg.part(p);
        if g_local == s_local {
            return vec![view.to_global(s_local)];
        }
        let path = leg1
            .as_ref()
            .and_then(|r| r.goal_path_to(g_local))
            .expect("direct candidate finite implies a recorded path");
        path.into_iter().map(|l| view.to_global(l)).collect()
    }

    /// Stitches the three-phase route `s → b1 ⇝ b2 → g` into one
    /// input-graph path: leg-1 part path, skeleton hops expanded through
    /// the skeleton's chain table over `skel_row` (within-part hops
    /// unrolled, cut arcs passed through), and the reversed goal-side
    /// part path.
    #[allow(clippy::too_many_arguments)]
    fn stitched_path(
        &self,
        p: u32,
        leg1: &Option<QueryResponse>,
        s_local: VertexId,
        skel_parent: &[u32],
        skel_row: &[Dist],
        b2_node: u32,
        q: u32,
        leg3: Option<&QueryResponse>,
        g_local: VertexId,
        b2_local: VertexId,
    ) -> Vec<VertexId> {
        let skel = self.pg.boundary();
        // Walk the skeleton tree from b2 back to its seed b1.
        let mut hops = vec![skel.global_of_node(b2_node)];
        let mut cur = b2_node;
        while skel_parent[cur as usize] != cur {
            cur = skel_parent[cur as usize];
            hops.push(skel.global_of_node(cur));
        }
        hops.reverse();
        let b1_local = self.pg.locate(hops[0]).1;

        let mut path = self.direct_path(p, leg1, s_local, b1_local);
        path.extend_from_slice(&skel.chains().expand_path(&hops, skel_row)[1..]);
        // Goal-side leg, reversed: the solve ran g → b2, the route runs
        // b2 → g (undirected edges reverse freely).
        if b2_local != g_local {
            let view = self.pg.part(q);
            let mut tail = leg3
                .and_then(|r| r.goal_path_to(b2_local))
                .expect("via candidate finite implies a recorded goal-side path");
            tail.reverse();
            path.extend(tail.into_iter().skip(1).map(|l| view.to_global(l)));
        }
        path
    }

    /// Writes an assembled shortest path into the row: prefix sums along
    /// the path are exact input-graph distances, so every vertex on it
    /// gets its exact distance and a telescoping parent link.
    fn commit_path(&self, path: &[VertexId], answer: Dist, dist: &mut [Dist], parent: &mut [u32]) {
        let mut running: Dist = 0;
        for hop in path.windows(2) {
            let w = self
                .graph
                .arc_weight(hop[0], hop[1])
                .expect("stitched paths ride input-graph edges only");
            running += w as Dist;
            dist[hop[1] as usize] = running;
            parent[hop[1] as usize] = hop[0];
        }
        debug_assert_eq!(running, answer, "stitched path must telescope to the answer");
    }
}

impl SsspSolver for ShardedSolver<'_> {
    fn name(&self) -> String {
        format!("sharded/{} parts over {}", self.pg.num_parts(), self.flat.name())
    }

    fn graph(&self) -> &CsrGraph {
        self.graph
    }

    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        match &query.shape {
            // Exact distances everywhere: one flat relaxation is the
            // right tool; the partition buys nothing.
            QueryShape::SingleSource { .. } => self.flat.execute(query, scratch),
            QueryShape::PointToPoint { source, goal } => {
                let (ps, _) = self.pg.locate(*source);
                let (pt, _) = self.pg.locate(*goal);
                if ps == pt {
                    // Same part: the flat goal-bounded solve is the
                    // cheaper exact certificate (see module docs).
                    self.flat.execute(query, scratch)
                } else {
                    let row = self.route_one_to_many(
                        *source,
                        std::slice::from_ref(goal),
                        query.want_paths,
                    );
                    QueryResponse::single(query.clone(), row)
                }
            }
            QueryShape::OneToMany { source, goals } => {
                if goals.is_empty() {
                    return self.flat.execute(query, scratch);
                }
                let row = self.route_one_to_many(*source, goals, query.want_paths);
                QueryResponse::single(query.clone(), row)
            }
            QueryShape::ManyToMany { sources, goals } => {
                // Rows fan over the worker pool; each row's solves draw
                // scratch from the pools of the parts they are pinned to.
                let rows = rs_par::worker_map(
                    sources.len(),
                    || (),
                    |_, i| self.route_one_to_many(sources[i], goals, query.want_paths),
                );
                QueryResponse::table(query.clone(), rows)
            }
        }
    }
}
