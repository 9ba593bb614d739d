//! Goal-bounded point-to-point kernels: bidirectional meet-in-the-middle
//! and goal-directed (ALT) search.
//!
//! A forward goal-bounded solve settles every vertex closer than the goal
//! — on a large graph that is a ball of radius `d(s, t)` around `s`. The
//! two kernels here shrink that work without giving up exactness:
//!
//! * [`bidirectional`] grows a forward ball from `s` and a reverse ball
//!   from `t`, both on the (symmetric) graph, maintaining the best
//!   meeting length `μ` over every relaxation and stopping once
//!   `top_f + top_r ≥ μ` (the standard alternating meet-in-the-middle
//!   rule). Two balls of radius `d/2` scan far fewer edges than one of
//!   radius `d`.
//! * [`goal_directed`] is A* with the ALT lower bound
//!   ([`crate::Landmarks`]): pops are ordered by `δ(v) + h(v)`, so the
//!   search walks toward the goal instead of flooding a ball, and
//!   relaxations whose bound proves they cannot improve the goal are
//!   skipped outright.
//!
//! Both kernels return distances **bit-identical** to a forward solve at
//! the goal (`dist[goal]` exact; every other finite entry a true upper
//! bound — the conformance suite asserts both) and draw every working
//! structure from [`SolverScratch`] so warm solves stay allocation-free.
//! They record no parents: like every other solve, their paths come from
//! [`crate::solver::finish_paths`] walking back over the returned
//! distances, so a p2p route is the one
//! [`crate::stats::shortest_path_from_dist`] gives. They are
//! sequential by design: the point-to-point serving shape runs many
//! queries in parallel across the batch/serve layers, not one query on
//! many cores.

use rs_graph::{CsrGraph, Dist, VertexId, INF};

use crate::landmarks::Landmarks;
use crate::scratch::{assert_distance_range, SolverScratch};
use crate::stats::{SsspResult, StepStats};

/// Counters shared by both kernels: one "step" per heap extraction (the
/// Dijkstra convention the baseline table documents), `relaxed_edges` =
/// edges actually scanned.
fn kernel_stats(settled: usize, relaxed: u64, scratch_reused: bool) -> StepStats {
    StepStats {
        steps: settled,
        substeps: settled,
        max_substeps_in_step: settled.min(1),
        relaxations: relaxed,
        relaxed_edges: relaxed,
        settled,
        scratch_reused,
        trace: None,
    }
}

/// The answer that settles only the source: the degenerate `s == t` solve
/// both kernels share, and goal-directed search's landmark-proven
/// unreachable goal.
fn source_only(n: usize, source: VertexId, scratch: &mut SolverScratch) -> SsspResult {
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    SsspResult::new(dist, kernel_stats(1, 0, scratch.finish()))
}

/// Bidirectional point-to-point Dijkstra: exact `dist[goal]`, upper bounds
/// elsewhere, meet-in-the-middle stopping rule.
///
/// Both searches relax `g`: its arcs are symmetric (see
/// [`CsrGraph::from_parts`]), so the reverse search's `d(goal, v)` is
/// `d(v, goal)`. `μ` is the best known `s → t` length, re-checked at
/// *every* relaxation from `δ_self(v) + δ_other(v)` — both tentative
/// values are real path lengths, so `μ` is always achievable, and once
/// `top_f + top_r ≥ μ` no undiscovered path can beat it. Each round expands the side with the
/// smaller head key (ties forward), which balances the two balls.
pub fn bidirectional(
    g: &CsrGraph,
    source: VertexId,
    goal: VertexId,
    scratch: &mut SolverScratch,
) -> SsspResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!((goal as usize) < n, "goal out of range");
    assert_distance_range(g);
    scratch.begin(n);
    if source == goal {
        return source_only(n, source, scratch);
    }
    // Heaps come out of their slots before the views borrow the scratch.
    let mut heap_f = scratch.checkout_heap();
    let mut heap_r = scratch.checkout_heap_rev();
    let (view, rev) = scratch.view_bidir();
    let (dist_f, settled_f) = (view.dist, view.settled);
    let (dist_r, settled_r) = (rev.dist, rev.settled);

    dist_f.store(source as usize, 0);
    heap_f.push_or_decrease(source, 0);
    dist_r.store(goal as usize, 0);
    heap_r.push_or_decrease(goal, 0);

    let mut mu = INF; // best known s → t length
    let mut meet = u32::MAX; // vertex certifying μ
    let mut settled = 0usize;
    let mut relaxed = 0u64;
    loop {
        let top_f = heap_f.peek_min().map_or(INF, |(_, k)| k);
        let top_r = heap_r.peek_min().map_or(INF, |(_, k)| k);
        if top_f.saturating_add(top_r) >= mu {
            break; // also exits when both heaps drain with μ = ∞
        }
        let forward = top_f <= top_r;
        let (heap, dist, dist_other, done) = if forward {
            (&mut heap_f, dist_f, dist_r, settled_f)
        } else {
            (&mut heap_r, dist_r, dist_f, settled_r)
        };
        let (u, du) = heap.pop_min().expect("peek saw a finite key");
        done.set(u as usize);
        settled += 1;
        relaxed += g.degree(u) as u64;
        for (v, w) in g.edges(u) {
            let cand = du.saturating_add(w as Dist);
            if !done.get(v as usize) && cand < dist.load(v as usize) {
                dist.write_min(v as usize, cand);
                heap.push_or_decrease(v, cand);
            }
            // μ-update on every relaxation, *after* the write so the sum
            // uses this side's best tentative value: both δ's are real
            // path lengths, so their sum is an achievable s → t walk, and
            // every event that lowers either side's entry re-checks here —
            // μ = min_v (δ_f(v) + δ_r(v)) over all doubly-reached v.
            let other = dist_other.load(v as usize);
            if other != INF {
                let through = dist.load(v as usize).saturating_add(other);
                if through < mu {
                    mu = through;
                    meet = v;
                }
            }
        }
    }

    // Forward tentative distances are real upper bounds; stitch the exact
    // tail meet → goal on top of them. At termination
    // μ = δ_f(meet) + δ_r(meet) = d(s, t), which forces *both* halves
    // exact. From an exact `cur ≠ goal`, step to the first neighbour `v`
    // with δ_r(v) + w(cur, v) = δ_r(cur): one exists, because δ_r(cur) was
    // written from a popped (exact) neighbour, and any `v` that passes is
    // exact, because δ_r never undercuts d(v, goal). So the forward
    // distance telescopes as δ_f(v) = δ_f(cur) + w(cur, v).
    let mut dist = dist_f.snapshot(n);
    if mu != INF {
        let mut cur = meet;
        let mut acc = dist[meet as usize];
        debug_assert_eq!(acc.saturating_add(dist_r.load(meet as usize)), mu);
        while cur != goal {
            let dr = dist_r.load(cur as usize);
            let (next, w) = g
                .edges(cur)
                .find(|&(v, w)| dist_r.load(v as usize).saturating_add(w as Dist) == dr)
                .expect("an exact reverse distance has a tight neighbour");
            acc += w as Dist;
            dist[next as usize] = acc;
            cur = next;
        }
        debug_assert_eq!(dist[goal as usize], mu, "stitched goal distance must equal μ");
    }
    let stats = kernel_stats(settled, relaxed, {
        scratch.return_heap(heap_f);
        scratch.return_heap_rev(heap_r);
        scratch.finish()
    });
    SsspResult::new(dist, stats)
}

/// Goal-directed point-to-point search: A* ordered by `δ(v) + h(v)` with
/// the ALT landmark bound, plus incumbent pruning.
///
/// The bound is consistent (each hop changes `h` by at most the hop's
/// weight — the triangle inequality through every landmark), so pops carry
/// exact distances just as in Dijkstra and the first pop of `goal` ends
/// the search with `dist[goal]` exact. A relaxation is skipped when
/// `cand + h(v)` already exceeds the goal's tentative distance (strict
/// `>`: equal-length candidates still relax) or when
/// `h(v) = ∞` proves `v` cannot reach the goal at all.
pub fn goal_directed(
    g: &CsrGraph,
    source: VertexId,
    goal: VertexId,
    landmarks: &Landmarks,
    scratch: &mut SolverScratch,
) -> SsspResult {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!((goal as usize) < n, "goal out of range");
    assert_distance_range(g);
    scratch.begin(n);
    if source == goal {
        return source_only(n, source, scratch);
    }
    let goal_row = landmarks.goal_row(goal);
    if landmarks.lower_bound(source, &goal_row) == INF {
        // A landmark separates source and goal: provably unreachable, no
        // search at all.
        return source_only(n, source, scratch);
    }
    let mut heap = scratch.checkout_heap();
    let view = scratch.view();
    let (dist, done) = (view.dist, view.settled);

    dist.store(source as usize, 0);
    heap.push_or_decrease(source, landmarks.lower_bound(source, &goal_row));

    let mut settled = 0usize;
    let mut relaxed = 0u64;
    while let Some((u, _f)) = heap.pop_min() {
        done.set(u as usize);
        settled += 1;
        if u == goal {
            break; // consistent h ⇒ first pop of the goal is exact
        }
        let du = dist.load(u as usize);
        relaxed += g.degree(u) as u64;
        for (v, w) in g.edges(u) {
            if done.get(v as usize) {
                continue;
            }
            let cand = du.saturating_add(w as Dist);
            let hv = landmarks.lower_bound(v, &goal_row);
            if hv == INF {
                continue; // v provably cannot reach the goal
            }
            // Incumbent prune: a path through v is at least cand + h(v).
            if cand.saturating_add(hv) > dist.load(goal as usize) {
                continue;
            }
            if cand < dist.load(v as usize) {
                dist.write_min(v as usize, cand);
                heap.push_or_decrease(v, cand.saturating_add(hv));
            }
        }
    }

    let out = dist.snapshot(n);
    let stats = kernel_stats(settled, relaxed, {
        scratch.return_heap(heap);
        scratch.finish()
    });
    SsspResult::new(out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::DEFAULT_LANDMARKS;
    use rs_graph::{gen, weights, EdgeListBuilder, WeightModel};

    fn reference(g: &CsrGraph, s: VertexId) -> Vec<Dist> {
        crate::radius_stepping(g, &crate::Radii::Zero, s).dist
    }

    fn weighted(seed: u64) -> CsrGraph {
        weights::reweight(&gen::grid2d(13, 14), WeightModel::paper_weighted(), seed)
    }

    #[test]
    fn bidirectional_goal_distance_is_exact() {
        let g = weighted(3);
        let truth = reference(&g, 0);
        let mut scratch = SolverScratch::new();
        for goal in [0u32, 1, 90, 181] {
            let out = bidirectional(&g, 0, goal, &mut scratch);
            assert_eq!(out.dist[goal as usize], truth[goal as usize], "goal {goal}");
            // Every finite entry is a true upper bound.
            for (v, &d) in out.dist.iter().enumerate() {
                assert!(d == INF || d >= truth[v], "entry {v} below the true distance");
            }
            // The distance walk telescopes to the goal distance.
            let path = out.path_to(&g, goal).expect("reachable");
            let mut acc = 0u64;
            for w in path.windows(2) {
                acc += g.arc_weight(w[0], w[1]).expect("edge") as u64;
            }
            assert_eq!(acc, out.dist[goal as usize]);
        }
    }

    #[test]
    fn goal_directed_matches_and_prunes() {
        let g = weighted(5);
        let lm = Landmarks::build(&g, DEFAULT_LANDMARKS);
        let truth = reference(&g, 7);
        let mut scratch = SolverScratch::new();
        let out = goal_directed(&g, 7, 180, &lm, &mut scratch);
        assert_eq!(out.dist[180], truth[180]);
        for (v, &d) in out.dist.iter().enumerate() {
            assert!(d == INF || d >= truth[v], "entry {v} below the true distance");
        }
        let path = out.path_to(&g, 180).expect("reachable");
        assert_eq!((path[0], *path.last().unwrap()), (7, 180));
        // Goal-directed must scan fewer edges than the full solve has.
        assert!(out.stats.relaxed_edges < g.num_edges() as u64);
    }

    #[test]
    fn both_kernels_terminate_on_unreachable_goals() {
        let mut b = EdgeListBuilder::new(5);
        b.add_edge(0, 1, 2);
        b.add_edge(3, 4, 9); // separate component
        let g = b.build();
        let mut scratch = SolverScratch::new();
        let out = bidirectional(&g, 0, 4, &mut scratch);
        assert_eq!(out.dist[4], INF);
        assert!(out.path_to(&g, 4).is_none());
        let lm = Landmarks::build(&g, 2);
        let alt = goal_directed(&g, 0, 4, &lm, &mut scratch);
        assert_eq!(alt.dist[4], INF);
        assert_eq!(alt.stats.relaxed_edges, 0, "landmark proof skips the search");
    }

    #[test]
    fn self_query_is_trivial() {
        let g = weighted(1);
        let lm = Landmarks::build(&g, 2);
        let mut scratch = SolverScratch::new();
        for out in
            [bidirectional(&g, 9, 9, &mut scratch), goal_directed(&g, 9, 9, &lm, &mut scratch)]
        {
            assert_eq!(out.dist[9], 0);
            assert_eq!(out.path_to(&g, 9), Some(vec![9]));
            assert_eq!(out.stats.settled, 1);
        }
    }

    #[test]
    fn warm_bidirectional_solves_reuse_scratch() {
        let g = weighted(8);
        let mut scratch = SolverScratch::new();
        scratch.warm_up_bidir(&g);
        scratch.warm_heap(g.num_vertices());
        scratch.warm_heap_rev(g.num_vertices());
        let out = bidirectional(&g, 0, 170, &mut scratch);
        assert!(out.stats.scratch_reused, "warmed first solve must not allocate");
        let again = bidirectional(&g, 170, 0, &mut scratch);
        assert!(again.stats.scratch_reused);
        assert_eq!(out.dist[170], again.dist[0], "symmetric graph: d(s,t) = d(t,s)");
    }
}
