//! The Algorithm-2 engine: fringe maintained in two join-based treaps.
//!
//! Exactly the efficient implementation of §3.3: `Q` holds the unsettled
//! relaxed vertices keyed by `(δ(u), u)`, `R` holds them keyed by
//! `(δ(u) + r(u), u)`. Each step reads `d_i` from `R`'s minimum, obtains
//! the active set with `Q.split(d_i)`, and runs Bellman–Ford substeps in
//! which relaxations are applied with a parallel priority-write and the
//! treaps are maintained with *batched* `difference`/`union` of sorted key
//! sets — the parallel-BST data flow the paper describes (build a BST of
//! successful relaxations, subtract out-of-date keys, split by `d_i`, union
//! each part with `A_i` and `Q`).
//!
//! Step counts, round distances and distances are identical to the
//! [`super::frontier`] engine (asserted in cross-engine tests); only the
//! constant factors differ.

use rayon::prelude::*;

use rs_ds::Treap;
use rs_graph::{CsrGraph, Dist, VertexId};
use rs_par::{AtomicBitset, EpochMinArray};

use crate::radii::RadiiSpec;
use crate::scratch::{ParentClaim, SolverScratch};
use crate::stats::{SsspResult, StepStats, StepTrace};
use crate::EngineConfig;

const SEQ_SUBSTEP: usize = 2048;

pub(crate) fn run_with(
    g: &CsrGraph,
    radii: &RadiiSpec,
    source: VertexId,
    config: EngineConfig<'_>,
    scratch: &mut SolverScratch,
) -> SsspResult {
    let n = g.num_vertices();
    crate::scratch::assert_distance_range(g);
    scratch.begin(n);
    let mut stats = StepStats { trace: config.trace.then(Vec::new), ..Default::default() };
    // Inline parent tree (part of the result, not working state); claims
    // are resolved at substep end like the frontier engine's.
    let mut parent: Option<Vec<VertexId>> = config.record_parents.then(|| vec![u32::MAX; n]);
    // Every treap node this solve builds or discards cycles through the
    // scratch's arena, so a warm solve stops paying per-substep node
    // allocation for its Q/R batches. Live nodes never exceed
    // |Q| + |R| + one in-flight batch ≤ 3n (batches are built one at a
    // time and consumed immediately), so pre-minting that bound makes the
    // first solve pay the whole pool once and every later solve — from any
    // source, any radii, goal-bounded or not — run deterministically
    // mint-free. One-shot throwaway-scratch solves pay the full pool for a
    // guarantee they never collect; that is the price of keeping
    // warm-after-first-solve unconditional (on-demand minting would make
    // a later solve with a larger peak go cold again).
    let mut arena = scratch.checkout_treap_arena();
    arena.reserve_nodes(3 * n + 4);
    let out_dist;
    {
        let view = scratch.view();
        let dist = view.dist;
        let settled = view.settled;
        let in_active = view.mark_a;
        let touched = view.mark_b;
        // Membership + current key of each vertex in Q (and, shifted by r,
        // R). `qkey` is the scratch's stale distance buffer: an entry is
        // only read while its `in_q` bit is set, and the bit is only set
        // after the entry was written this solve.
        let in_q = view.mark_c;
        let qkey = view.dists;
        let active = view.verts_a;
        let dirty = view.verts_c;
        let next_dirty = view.verts_d;
        let claimed = view.verts_e;
        let snapshot = view.pairs;
        let claims = view.claims;
        // Per-substep treap batches, hoisted into the scratch: removals in
        // `q_rm`/`r_rm`, insertions in `q_ins`/`r_ins`.
        let q_rm = view.keys_a;
        let r_rm = view.keys_b;
        let q_ins = view.keys_c;
        let r_ins = view.keys_d;
        let record = parent.is_some();

        // Lines 1–4: settle the source; Q/R seeded with its neighbours.
        dist.store(source as usize, 0);
        settled.set(source as usize);
        stats.settled = 1;
        stats.relaxations += g.degree(source) as u64;
        if let Some(p) = parent.as_deref_mut() {
            p[source as usize] = source;
        }
        q_rm.clear();
        for (v, w) in g.edges(source) {
            if dist.write_min(v as usize, w as Dist) {
                if let Some(p) = parent.as_deref_mut() {
                    p[v as usize] = source;
                }
            }
            if in_q.set(v as usize) {
                qkey[v as usize] = w as Dist;
                q_rm.push((w as Dist, v));
            }
        }
        q_rm.sort_unstable();
        let mut q = Treap::from_sorted_in(q_rm, &mut arena);
        r_rm.clear();
        r_rm.extend(q_rm.iter().map(|&(d, v)| (radii.key(v, d), v)));
        r_rm.sort_unstable();
        let mut r = Treap::from_sorted_in(r_rm, &mut arena);

        while !q.is_empty() {
            debug_assert_eq!(q.len(), r.len(), "Q and R must stay in lockstep");
            // Early exit for goal-bounded solves (settled distances are
            // final once every goal is in S).
            if config.goals.all_done(|g| settled.get(g as usize)) {
                break;
            }
            // Line 6: d_i from R's minimum (the lead vertex attains it).
            let di = r.min().expect("Q nonempty implies R nonempty").0;

            // Line 7: {A_i, Q} = Q.split(d_i).
            let a_i = q.split_at_most_in(di, &mut arena);
            active.clear();
            a_i.for_each(|(_, v)| active.push(v));
            arena.recycle(a_i);
            // Line 8: remove A_i's entries from R (batched difference).
            r_rm.clear();
            r_rm.extend(active.iter().map(|&v| (radii.key(v, qkey[v as usize]), v)));
            r_rm.sort_unstable();
            r = Treap::difference_in(r, Treap::from_sorted_in(r_rm, &mut arena), &mut arena);
            for &v in active.iter() {
                in_q.clear(v as usize);
                in_active.set(v as usize);
            }

            // Lines 9–19: substeps.
            dirty.clear();
            dirty.extend_from_slice(active);
            let mut substeps = 0;
            loop {
                substeps += 1;
                stats.relaxations += dirty.iter().map(|&u| g.degree(u) as u64).sum::<u64>();
                // Synchronous substep: snapshot source distances first, so
                // the substep count is schedule-independent (as in
                // `frontier`).
                snapshot.clear();
                snapshot.extend(dirty.iter().map(|&u| (u, dist.load(u as usize))));
                claimed.clear();
                claims.clear();
                relax_parallel(g, dist, settled, touched, snapshot, claimed, claims, record);
                if let Some(p) = parent.as_deref_mut() {
                    crate::scratch::resolve_parent_claims(p, dist, claims);
                }

                // Apply phase: reconcile every claimed vertex with Q/R,
                // exactly the three cases of §3.3.
                next_dirty.clear();
                let mut any_le = false;
                q_rm.clear();
                r_rm.clear();
                q_ins.clear();
                r_ins.clear();
                for &v in claimed.iter() {
                    touched.clear(v as usize);
                    let new = dist.load(v as usize);
                    if new <= di {
                        any_le = true;
                    }
                    if in_active.get(v as usize) {
                        // Case (1): already active — only its δ changed.
                        debug_assert!(new <= di);
                        next_dirty.push(v);
                        continue;
                    }
                    let was_in_q = in_q.get(v as usize);
                    if was_in_q {
                        q_rm.push((qkey[v as usize], v));
                        r_rm.push((radii.key(v, qkey[v as usize]), v));
                    }
                    if new <= di {
                        // Case (2): crossed the round distance — joins A_i.
                        in_q.clear(v as usize);
                        in_active.set(v as usize);
                        active.push(v);
                        next_dirty.push(v);
                    } else {
                        // Case (3): decrease-key in Q and R (or fresh
                        // insert).
                        q_ins.push((new, v));
                        r_ins.push((radii.key(v, new), v));
                        qkey[v as usize] = new;
                        in_q.set(v as usize);
                    }
                }
                if !q_rm.is_empty() {
                    q_rm.sort_unstable();
                    r_rm.sort_unstable();
                    q = Treap::difference_in(
                        q,
                        Treap::from_sorted_in(q_rm, &mut arena),
                        &mut arena,
                    );
                    r = Treap::difference_in(
                        r,
                        Treap::from_sorted_in(r_rm, &mut arena),
                        &mut arena,
                    );
                }
                if !q_ins.is_empty() {
                    q_ins.sort_unstable();
                    r_ins.sort_unstable();
                    q = Treap::union_in(q, Treap::from_sorted_in(q_ins, &mut arena), &mut arena);
                    r = Treap::union_in(r, Treap::from_sorted_in(r_ins, &mut arena), &mut arena);
                }
                std::mem::swap(dirty, next_dirty);
                if !any_le {
                    break;
                }
            }

            // Settle the active set.
            for &v in active.iter() {
                settled.set(v as usize);
                in_active.clear(v as usize);
                debug_assert!(dist.load(v as usize) <= di);
            }
            stats.record_step(Some(StepTrace {
                d_i: di,
                settled: active.len(),
                substeps,
                active_size: active.len(),
            }));
        }

        out_dist = dist.snapshot(n);
        // A goal-bounded exit leaves Q/R populated; park their nodes for
        // the next solve either way.
        arena.recycle(q);
        arena.recycle(r);
        if config.goals.bounded() {
            if let Some(p) = parent.as_deref_mut() {
                crate::scratch::clear_unsettled_parents(p, settled);
            }
        }
    }
    scratch.return_treap_arena(arena);
    stats.scratch_reused = scratch.finish();
    // Forward solves scan every edge they relax.
    stats.relaxed_edges = stats.relaxations;
    let mut result = SsspResult::new(out_dist, stats);
    result.parent = parent;
    result
}

/// Parallel relaxation of `dirty`'s out-edges. Vertices whose δ dropped
/// land in `claimed` (each exactly once, via the `touched` bitset);
/// successful relaxations are appended to `claims` when `record` is set
/// (the inline-parent log). The sequential path (< `SEQ_SUBSTEP`) writes
/// straight into the caller's scratch buffers.
#[allow(clippy::too_many_arguments)]
fn relax_parallel(
    g: &CsrGraph,
    dist: &EpochMinArray,
    settled: &AtomicBitset,
    touched: &AtomicBitset,
    dirty: &[(VertexId, Dist)],
    claimed: &mut Vec<VertexId>,
    claims: &mut Vec<ParentClaim>,
    record: bool,
) {
    let relax_one = |claimed_out: &mut Vec<VertexId>,
                     claims_out: &mut Vec<ParentClaim>,
                     (u, du): (VertexId, Dist)| {
        for (v, w) in g.edges(u) {
            if settled.get(v as usize) {
                continue;
            }
            let cand = du + w as Dist;
            if dist.write_min(v as usize, cand) {
                if record {
                    claims_out.push((v, cand, u));
                }
                if touched.set(v as usize) {
                    claimed_out.push(v);
                }
            }
        }
    };
    if dirty.len() < SEQ_SUBSTEP {
        for &pair in dirty {
            relax_one(claimed, claims, pair);
        }
    } else {
        let (mut c, mut cl) = dirty
            .par_iter()
            .fold(
                || (Vec::new(), Vec::new()),
                |(mut c, mut cl), &pair| {
                    relax_one(&mut c, &mut cl, pair);
                    (c, cl)
                },
            )
            .reduce(
                || (Vec::new(), Vec::new()),
                |(mut a, mut acl), (mut b, mut bcl)| {
                    a.append(&mut b);
                    acl.append(&mut bcl);
                    (a, acl)
                },
            );
        claimed.append(&mut c);
        claims.append(&mut cl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{radius_stepping_with, EngineKind};
    use rs_graph::{gen, weights, WeightModel};

    fn both(g: &CsrGraph, radii: &RadiiSpec, s: VertexId) -> (SsspResult, SsspResult) {
        (
            radius_stepping_with(g, radii, s, EngineKind::Frontier, EngineConfig::with_trace()),
            radius_stepping_with(g, radii, s, EngineKind::Bst, EngineConfig::with_trace()),
        )
    }

    fn assert_equivalent(g: &CsrGraph, radii: &RadiiSpec, s: VertexId) {
        let (f, b) = both(g, radii, s);
        assert_eq!(f.dist, b.dist, "distances differ");
        assert_eq!(f.stats.steps, b.stats.steps, "step counts differ");
        assert_eq!(f.stats.substeps, b.stats.substeps, "substep counts differ");
        let ft = f.stats.trace.unwrap();
        let bt = b.stats.trace.unwrap();
        let f_d: Vec<Dist> = ft.iter().map(|t| t.d_i).collect();
        let b_d: Vec<Dist> = bt.iter().map(|t| t.d_i).collect();
        assert_eq!(f_d, b_d, "round-distance sequences differ");
    }

    #[test]
    fn engines_equivalent_across_radii() {
        let g = weights::reweight(&gen::grid2d(10, 12), WeightModel::paper_weighted(), 6);
        for radii in [RadiiSpec::Zero, RadiiSpec::Constant(1000), RadiiSpec::Constant(20_000)] {
            assert_equivalent(&g, &radii, 0);
        }
        assert_equivalent(&g, &RadiiSpec::Infinite, 17);
    }

    #[test]
    fn engines_equivalent_on_scale_free() {
        let g = weights::reweight(&gen::scale_free(300, 3, 4), WeightModel::paper_weighted(), 8);
        let radii: Vec<Dist> = (0..300).map(|v| (v as Dist * 37) % 5000).collect();
        assert_equivalent(&g, &RadiiSpec::PerVertex(&radii), 5);
    }

    #[test]
    fn scratch_arena_reused_across_solves() {
        // The treap node arena lives in the scratch: solve 1 mints nodes
        // (cold), every later solve — full or goal-bounded — runs on
        // recycled nodes and reports a warm scratch.
        let g = weights::reweight(&gen::grid2d(11, 11), WeightModel::paper_weighted(), 4);
        let mut scratch = SolverScratch::new();
        let mut cfgs = vec![EngineConfig::default(); 4];
        cfgs[2] = EngineConfig::with_goal(60); // early exit leaves Q/R nonempty
        for (i, (s, cfg)) in [0u32, 120, 60, 7].into_iter().zip(cfgs).enumerate() {
            let warm = run_with(&g, &RadiiSpec::Constant(700), s, cfg, &mut scratch);
            let fresh =
                radius_stepping_with(&g, &RadiiSpec::Constant(700), s, EngineKind::Bst, cfg);
            assert_eq!(warm.dist, fresh.dist, "solve {i}");
            assert_eq!(warm.stats.scratch_reused, i > 0, "solve {i}: arena must be warm");
        }
        assert_eq!(scratch.reuses(), 3);
    }

    #[test]
    fn inline_parents_telescope_on_goal_bounded_solve() {
        let g = weights::reweight(&gen::grid2d(10, 10), WeightModel::paper_weighted(), 7);
        let goal = 99u32;
        let out = radius_stepping_with(
            &g,
            &RadiiSpec::Constant(1_200),
            0,
            EngineKind::Bst,
            EngineConfig::with_goal(goal).record_parents(true),
        );
        let parent = out.parent.as_ref().expect("inline parents recorded");
        let path = crate::stats::extract_path(parent, goal).expect("goal settled");
        assert_eq!((path[0], *path.last().unwrap()), (0, goal));
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += g.arc_weight(w[0], w[1]).expect("path edge") as u64;
        }
        assert_eq!(acc, out.dist[goal as usize]);
    }

    #[test]
    fn unreachable_vertices() {
        let g = gen::star(6); // solve from a leaf: everything reachable via center
        let (f, b) = both(&g, &RadiiSpec::Zero, 3);
        assert_eq!(f.dist, b.dist);
        assert_eq!(b.stats.settled, 6);
    }
}
