//! The parallel frontier engine: Algorithm 1 as a production solver.
//!
//! Per step `i`:
//!
//! 1. `d_i ← min_{v ∈ fringe} (δ(v) + r(v))` — a parallel min-reduction
//!    over the packed fringe (unsettled vertices with finite `δ`); vertices
//!    with `δ = ∞` contribute `∞` and are simply not in the fringe.
//! 2. The active set `A_i = {v ∈ fringe : δ(v) ≤ d_i}` runs Bellman–Ford
//!    substeps: every changed vertex relaxes its out-edges with an atomic
//!    priority-write. Vertices pulled to `δ ≤ d_i` join `A_i`; vertices
//!    newly reached above `d_i` join the fringe. The loop exits after the
//!    first substep producing no update `≤ d_i` (the paper's termination
//!    condition, line 9), so the final "checking" substep is counted —
//!    Theorem 3.2's bound of `k + 2` includes it.
//! 3. `A_i` is settled and removed from the fringe.
//!
//! Relaxations into settled vertices are not filtered out: they can never
//! succeed, so the priority-write's load-first check rejects them without
//! an atomic read-modify-write. A vertex `v` settled in an earlier step has
//! `δ(v) ≤ d_{i−1}`. A source `u` relaxing in step `i` is unsettled, and
//! every vertex with `d ≤ d_{i−1}` is settled by then (Theorem 3.1), so
//! `δ(v) ≤ d_{i−1} < d(u) ≤ δ(u) ≤ δ(u) + w(u, v)`. In step 1 the only
//! settled vertex is the source, at `δ = 0`, which no candidate strictly
//! undercuts. `relax_substep` keeps this as a `debug_assert!`.
//!
//! Likewise re-relaxing an unchanged vertex can produce no new updates,
//! which is why change-driven substeps count identically to the literal
//! "all of `A_i` every substep" of Algorithm 1.
//!
//! Goal-bounded solves may also stop *inside* a step (see
//! `goals_final`): at `r ≡ ∞` the whole solve is one step, so this is
//! what bounds a Bellman–Ford point-to-point query by the goal's hop
//! radius instead of the graph's.

use rayon::prelude::*;

use rs_graph::{CsrGraph, Dist, VertexId, INF};
use rs_par::{par_min, AtomicBitset, EpochMinArray};

use crate::radii::Radii;
use crate::scratch::SolverScratch;
use crate::stats::{SsspResult, StepStats, StepTrace};
use crate::{EngineConfig, Goals};

/// Sequential cutover: below this many dirty vertices a substep relaxes
/// sequentially (fork-join overhead dominates tiny frontiers).
const SEQ_SUBSTEP: usize = 2048;

pub(crate) fn run_with(
    g: &CsrGraph,
    radii: &Radii,
    source: VertexId,
    config: EngineConfig<'_>,
    scratch: &mut SolverScratch,
) -> SsspResult {
    let n = g.num_vertices();
    crate::scratch::assert_distance_range(g);
    scratch.begin(n);
    let mut stats = StepStats { trace: config.trace.then(Vec::new), ..Default::default() };
    let out_dist;
    {
        let view = scratch.view();
        let dist = view.dist;
        let settled = view.settled;
        let in_fringe = view.mark_a;
        let in_active = view.mark_b;
        let dirty_mark = view.mark_c;
        let fringe = view.verts_a;
        let active = view.verts_b;
        let dirty = view.verts_c;
        let next_dirty = view.verts_d;
        let fringe_adds = view.verts_e;
        let snapshot = view.pairs;

        // Line 1–2: settle the source, relax its neighbours into the fringe.
        dist.store(source as usize, 0);
        settled.set(source as usize);
        stats.settled = 1;
        for (v, w) in g.edges(source) {
            dist.write_min(v as usize, w as Dist);
            if in_fringe.set(v as usize) {
                fringe.push(v);
            }
        }
        stats.relaxations += g.degree(source) as u64;

        let mut prev_di: Dist = 0;
        while !fringe.is_empty() {
            // Early exit for goal-bounded solves: once every goal is
            // settled their distances are final (Theorem 3.1's invariant).
            if config.goals.all_done(|g| settled.get(g as usize)) {
                break;
            }
            // Line 4: d_i = min over the fringe of δ(v) + r(v).
            let di = par_min(fringe.len(), |i| {
                let v = fringe[i];
                radii.key(v, dist.load(v as usize))
            });
            debug_assert!(
                stats.steps == 0 || di > prev_di,
                "round distances must strictly increase"
            );
            prev_di = di;

            // Active set: fringe vertices with δ ≤ d_i (non-empty: the
            // argmin vertex has δ ≤ δ + r = d_i).
            active.clear();
            active.extend(fringe.iter().copied().filter(|&v| dist.load(v as usize) <= di));
            for &v in active.iter() {
                in_active.set(v as usize);
            }

            // Lines 5–9: Bellman–Ford substeps over the annulus. Each
            // substep relaxes from a snapshot of its sources' distances
            // (synchronous / Jacobi semantics), so the substep count
            // matches the paper's definition and is independent of
            // scheduling. All per-substep sets live in scratch buffers —
            // no allocation inside the loop on a warm scratch (the
            // parallel path's fold/reduce temporaries are the one
            // rayon-owned exception).
            dirty.clear();
            dirty.extend_from_slice(active);
            fringe_adds.clear();
            let mut substeps = 0;
            // Set when the goals became final mid-step: only vertices up
            // to this bound are settled, and the solve ends with the step.
            let mut goal_bound = None;
            loop {
                substeps += 1;
                stats.relaxations += dirty.iter().map(|&u| g.degree(u) as u64).sum::<u64>();
                snapshot.clear();
                snapshot.extend(dirty.iter().map(|&u| (u, dist.load(u as usize))));
                next_dirty.clear();
                let any_le = relax_substep(
                    g,
                    dist,
                    settled,
                    in_fringe,
                    dirty_mark,
                    snapshot,
                    di,
                    next_dirty,
                    fringe_adds,
                );
                for &v in next_dirty.iter() {
                    dirty_mark.clear(v as usize);
                    if in_active.set(v as usize) {
                        active.push(v);
                    }
                }
                std::mem::swap(dirty, next_dirty);
                if !any_le {
                    break;
                }
                goal_bound = goals_final(&config.goals, dist, di, dirty);
                if goal_bound.is_some() {
                    break;
                }
            }

            // Line 10: S_i ← S_{i-1} ∪ A_i (after a mid-step goal exit,
            // only the part of A_i already final).
            let mut settled_now = 0;
            for &v in active.iter() {
                in_active.clear(v as usize);
                debug_assert!(dist.load(v as usize) <= di);
                if goal_bound.is_none_or(|bound| dist.load(v as usize) <= bound) {
                    settled.set(v as usize);
                    settled_now += 1;
                }
            }
            stats.record_step(Some(StepTrace {
                d_i: di,
                settled: settled_now,
                substeps,
                active_size: active.len(),
            }));
            if goal_bound.is_some() {
                break;
            }

            // Maintain the fringe: drop settled, add newly reached.
            fringe.retain(|&v| !settled.get(v as usize));
            fringe.extend(fringe_adds.iter().copied().filter(|&v| !settled.get(v as usize)));
        }

        out_dist = dist.snapshot(n);
    }
    stats.scratch_reused = scratch.finish();
    // Forward solves scan every edge they relax.
    stats.relaxed_edges = stats.relaxations;
    SsspResult::new(out_dist, stats)
}

/// The mid-step goal exit, checked after every substep that continues the
/// step. Returns the largest goal `δ` when every goal is already final:
/// each goal holds a finite `δ ≤ d_i`, and no vertex still to relax
/// (`dirty`, the ones whose `δ` changed in the last substep) sits below
/// that bound. Any later improvement would have to start at a dirty vertex
/// or at a fringe vertex (`δ > d_i`), and weights are non-negative, so no
/// goal can drop any more. Every vertex at or below the bound is final
/// too. `None` for unbounded solves.
fn goals_final(
    goals: &Goals<'_>,
    dist: &EpochMinArray,
    di: Dist,
    dirty: &[VertexId],
) -> Option<Dist> {
    if !goals.bounded() {
        return None;
    }
    let mut bound = 0;
    for &t in goals.as_slice() {
        let d = dist.load(t as usize);
        if d == INF || d > di {
            return None;
        }
        bound = bound.max(d);
    }
    dirty.iter().all(|&v| dist.load(v as usize) >= bound).then_some(bound)
}

/// One substep: relax all out-edges of `dirty` (given as `(vertex, δ)`
/// pairs snapshotted at substep start). Vertices whose δ dropped to ≤ `di`
/// land in `next_dirty`, vertices newly reached above `di` are appended to
/// `fringe_adds`, and the return value reports whether any update ≤ `di`
/// happened (the loop-termination signal of line 9). The sequential path
/// (< `SEQ_SUBSTEP` dirty vertices) writes straight into the caller's
/// scratch buffers; the parallel path folds per-worker accumulators and
/// appends them.
#[allow(clippy::too_many_arguments)]
fn relax_substep(
    g: &CsrGraph,
    dist: &EpochMinArray,
    settled: &AtomicBitset,
    in_fringe: &AtomicBitset,
    dirty_mark: &AtomicBitset,
    dirty: &[(VertexId, Dist)],
    di: Dist,
    next_dirty: &mut Vec<VertexId>,
    fringe_adds: &mut Vec<VertexId>,
) -> bool {
    #[derive(Default)]
    struct Acc {
        dirty: Vec<VertexId>,
        adds: Vec<VertexId>,
        any_le: bool,
    }

    let relax_one = |dirty_out: &mut Vec<VertexId>,
                     adds_out: &mut Vec<VertexId>,
                     any_le: &mut bool,
                     (u, du): (VertexId, Dist)| {
        for (v, w) in g.edges(u) {
            let cand = du + w as Dist;
            if dist.write_min(v as usize, cand) {
                debug_assert!(!settled.get(v as usize), "relaxation lowered settled vertex {v}");
                if cand <= di {
                    *any_le = true;
                    if dirty_mark.set(v as usize) {
                        dirty_out.push(v);
                    }
                } else if in_fringe.set(v as usize) {
                    adds_out.push(v);
                }
            }
        }
    };

    if dirty.len() < SEQ_SUBSTEP {
        let mut any_le = false;
        for &pair in dirty {
            relax_one(next_dirty, fringe_adds, &mut any_le, pair);
        }
        any_le
    } else {
        let mut acc = dirty
            .par_iter()
            .fold(Acc::default, |mut acc, &pair| {
                relax_one(&mut acc.dirty, &mut acc.adds, &mut acc.any_le, pair);
                acc
            })
            .reduce(Acc::default, |mut a, mut b| {
                a.dirty.append(&mut b.dirty);
                a.adds.append(&mut b.adds);
                a.any_le |= b.any_le;
                a
            });
        next_dirty.append(&mut acc.dirty);
        fringe_adds.append(&mut acc.adds);
        acc.any_le
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radius_stepping_with;
    use crate::solver::{Algorithm, Query, Radii, SolverBuilder, SsspSolver};
    use rs_graph::{gen, weights, EdgeListBuilder, WeightModel, INF};

    fn solve(g: &CsrGraph, radii: &Radii, s: VertexId) -> SsspResult {
        radius_stepping_with(g, radii, s, EngineConfig::with_trace())
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_warm() {
        let g = weights::reweight(&gen::grid2d(9, 9), WeightModel::paper_weighted(), 3);
        let mut scratch = SolverScratch::new();
        // Interleave sources on one scratch; every run must equal a fresh
        // solve, and every run after the first must be allocation-free.
        for (i, s) in [0u32, 80, 40, 0, 13].into_iter().enumerate() {
            let warm =
                run_with(&g, &Radii::Constant(700), s, EngineConfig::with_trace(), &mut scratch);
            let cold = solve(&g, &Radii::Constant(700), s);
            assert_eq!(warm.dist, cold.dist, "source {s}");
            assert_eq!(warm.stats.steps, cold.stats.steps);
            assert_eq!(warm.stats.substeps, cold.stats.substeps);
            assert_eq!(warm.stats.scratch_reused, i > 0, "solve {i}");
        }
        assert_eq!(scratch.solves(), 5);
        assert_eq!(scratch.reuses(), 4);
    }

    #[test]
    fn paths_from_distances_telescope_goal_bounded_and_full() {
        let g = weights::reweight(&gen::grid2d(12, 12), WeightModel::paper_weighted(), 9);
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { radii: Radii::Constant(900) })
            .radius_stepping_solver_from_algorithm();
        let mut scratch = SolverScratch::new();
        let goal = 143u32;
        let bounded = solver
            .execute(&Query::point_to_point(0, goal).with_paths(), &mut scratch)
            .into_result();
        let parent = bounded.parent.as_ref().expect("paths requested");
        let path = crate::stats::extract_path(parent, goal).expect("goal settled");
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), goal);
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += g.arc_weight(w[0], w[1]).expect("path edge") as u64;
        }
        assert_eq!(acc, bounded.dist[goal as usize], "goal path must telescope");

        // Full solve: every reachable vertex's parent telescopes exactly.
        let full =
            solver.execute(&Query::single_source(0).with_paths(), &mut scratch).into_result();
        let parent = full.parent.as_ref().unwrap();
        assert_eq!(parent[0], 0);
        for v in 1..g.num_vertices() as u32 {
            let p = parent[v as usize];
            assert_ne!(p, u32::MAX, "vertex {v} settled but parentless");
            assert_eq!(
                full.dist[p as usize] + g.arc_weight(p, v).expect("tree edge") as u64,
                full.dist[v as usize],
                "parent of {v} does not telescope"
            );
        }
    }

    #[test]
    fn zero_radii_is_dijkstra_by_levels() {
        // r ≡ 0 settles exactly one distance value per step.
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 2);
        let g = b.build();
        let out = solve(&g, &Radii::Zero, 0);
        assert_eq!(out.dist, vec![0, 1, 1, 3]);
        // Distinct nonzero distance values: {1, 3} -> 2 steps.
        assert_eq!(out.stats.steps, 2);
        // §3: with r ≡ 0 "the inner step is run only once" — every active
        // vertex has δ = d_i, so no relaxation can land ≤ d_i.
        assert_eq!(out.stats.max_substeps_in_step, 1);
    }

    #[test]
    fn zero_radii_is_exactly_bfs() {
        // On unit weights r ≡ 0 is BFS: one level per step, one substep
        // each, so steps = eccentricity.
        let g = gen::grid2d(10, 10);
        let out = solve(&g, &Radii::Zero, 0);
        assert_eq!((out.stats.steps, out.stats.substeps), (18, 18));
        assert_eq!(out.dist[99], 18);
    }

    #[test]
    fn infinite_radii_is_bellman_ford_single_step() {
        let g = gen::path(12);
        let out = solve(&g, &Radii::Infinite, 0);
        assert_eq!(out.stats.steps, 1);
        assert_eq!(out.dist[11], 11);
        // Vertex 1 starts relaxed; substeps walk the chain to vertex 11
        // (10 productive substeps), plus the final no-update check.
        assert_eq!(out.stats.substeps, 11);
    }

    #[test]
    fn infinite_radii_goal_exit_is_exact_and_early() {
        // On a long path, a goal near the source must stop after roughly
        // its hop count, not the full 499-substep fixpoint.
        let g = gen::path(500);
        let full = solve(&g, &Radii::Infinite, 0);
        assert_eq!(full.stats.substeps, 499);
        let bounded = radius_stepping_with(
            &g,
            &Radii::Infinite,
            0,
            EngineConfig { goals: Goals::One(10), ..Default::default() },
        );
        assert_eq!(bounded.dist[10], full.dist[10], "goal must be exact");
        assert_eq!(bounded.stats.steps, 1);
        assert!(
            bounded.stats.substeps <= 12,
            "expected ~10 substeps to settle the hop-10 goal, ran {}",
            bounded.stats.substeps
        );
        for (b, f) in bounded.dist.iter().zip(&full.dist) {
            assert!(b >= f, "bounded entries are upper bounds");
        }
    }

    #[test]
    fn infinite_radii_goal_exit_matches_dijkstra_on_random_graphs() {
        for seed in [5u64, 9] {
            let g = weights::reweight(
                &gen::scale_free(200, 3, seed),
                WeightModel::paper_weighted(),
                seed,
            );
            let reference = crate::verify::dist_hops(&g, 7);
            let goals = [0u32, 50, 100, 199];
            for goal in goals {
                let out = radius_stepping_with(
                    &g,
                    &Radii::Infinite,
                    7,
                    EngineConfig { goals: Goals::One(goal), ..Default::default() },
                );
                assert_eq!(out.dist[goal as usize], reference[goal as usize].0, "goal {goal}");
            }
            let many = radius_stepping_with(
                &g,
                &Radii::Infinite,
                7,
                EngineConfig { goals: Goals::Many(&goals), ..Default::default() },
            );
            for goal in goals {
                assert_eq!(many.dist[goal as usize], reference[goal as usize].0, "goal {goal}");
            }
        }
    }

    #[test]
    fn infinite_radii_unreachable_goal_terminates() {
        let mut b = EdgeListBuilder::new(3);
        b.add_edge(0, 1, 2);
        let g = b.build();
        let out = radius_stepping_with(
            &g,
            &Radii::Infinite,
            0,
            EngineConfig { goals: Goals::One(2), ..Default::default() },
        );
        assert_eq!(out.dist, vec![0, 2, INF]);
    }

    #[test]
    fn unreachable_stay_inf() {
        let mut b = EdgeListBuilder::new(4);
        b.add_edge(0, 1, 3);
        let g = b.build();
        let out = solve(&g, &Radii::Constant(5), 0);
        assert_eq!(out.dist, vec![0, 3, INF, INF]);
        assert_eq!(out.stats.settled, 2);
    }

    #[test]
    fn trace_is_consistent() {
        let g = weights::reweight(&gen::grid2d(8, 8), WeightModel::paper_weighted(), 2);
        let out = solve(&g, &Radii::Constant(500), 0);
        let trace = out.stats.trace.as_ref().unwrap();
        assert_eq!(trace.len(), out.stats.steps);
        // d_i strictly increasing; settled counts sum to reachable count.
        assert!(trace.windows(2).all(|w| w[0].d_i < w[1].d_i));
        let settled: usize = trace.iter().map(|t| t.settled).sum();
        assert_eq!(settled + 1, 64); // +1 for the source
        assert_eq!(out.stats.settled, 64);
    }

    #[test]
    fn singleton_graph() {
        let g = CsrGraph::empty(1);
        let out = solve(&g, &Radii::Zero, 0);
        assert_eq!(out.dist, vec![0]);
        assert_eq!(out.stats.steps, 0);
    }

    #[test]
    fn star_settles_in_one_step_with_big_radius() {
        let g = gen::star(50);
        let out = solve(&g, &Radii::Constant(10), 0);
        assert_eq!(out.stats.steps, 1, "all leaves within d_1 = 1 + 10");
        assert!(out.dist[1..].iter().all(|&d| d == 1));
    }

    /// FNV-1a over a parent array: a compact fingerprint of the whole tree.
    fn parent_hash(parent: &[VertexId]) -> u64 {
        parent
            .iter()
            .flat_map(|p| p.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn preprocessed_grid_counters_are_pinned() {
        // Relaxations into settled vertices always fail the priority-write,
        // so whether `relax_substep` filters them first may move no
        // counter and no distance: these values must hold either way. The
        // tree is the one `execute` derives from the distances.
        let g = weights::reweight(&gen::grid2d(16, 16), WeightModel::paper_weighted(), 1);
        let pre = crate::Preprocessed::build(&g, &crate::PreprocessConfig::new(1, 8));
        let pinned = [
            (0u32, 12, 20, 2472, 0x24ed_6903_6d63_c5c2),
            (135, 9, 15, 2455, 0x4711_ef9f_d450_1b02),
        ];
        let mut scratch = SolverScratch::new();
        for (s, steps, substeps, relaxations, tree) in pinned {
            let out =
                pre.execute(&Query::single_source(s).with_paths(), &mut scratch).into_result();
            assert_eq!(out.stats.steps, steps, "source {s}");
            assert_eq!(out.stats.substeps, substeps, "source {s}");
            assert_eq!(out.stats.relaxations, relaxations, "source {s}");
            let parent = out.parent.as_ref().expect("paths requested");
            assert_eq!(parent_hash(parent), tree, "source {s}: parent tree moved");
        }
    }
}
