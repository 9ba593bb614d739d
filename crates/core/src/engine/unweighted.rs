//! The unweighted specialisation of §3.4 (Lemma 3.10).
//!
//! On unit-weight graphs every fringe vertex shares the same tentative
//! distance (the current BFS level ℓ), so no ordered structures are needed
//! at all: the round distance is `d_i = ℓ + min_{v ∈ frontier} r(v)` and a
//! step is a plain level-synchronous BFS expansion of levels `ℓ..=d_i`.
//! Each round costs `O(n')` work for `n'` frontier vertices and edges —
//! `O(m + n)` total — and the only non-BFS machinery is one parallel
//! min-reduction per step, giving the Lemma 3.10 bounds
//! (`O((n/ρ) log ρ log* ρ)` depth after (k,ρ) preprocessing).
//!
//! Produces identical distances, steps and substeps to the general
//! engines on unit-weight inputs (asserted in tests).

use rs_graph::{edge_map, CsrGraph, Dist, VertexId, INF};
use rs_par::{par_min, VertexSubset};

use crate::radii::Radii;
use crate::scratch::SolverScratch;
use crate::stats::{SsspResult, StepStats, StepTrace};
use crate::EngineConfig;

pub(crate) fn run_with(
    g: &CsrGraph,
    radii: &Radii,
    source: VertexId,
    config: EngineConfig<'_>,
    scratch: &mut SolverScratch,
) -> SsspResult {
    assert!(
        g.is_unit_weighted(),
        "the unweighted engine requires unit weights; use the frontier engine instead"
    );
    let n = g.num_vertices();
    scratch.begin(n);
    let mut stats = StepStats { trace: config.trace.then(Vec::new), ..Default::default() };
    // The level array doubles as the result (the output copy other engines
    // pay separately), so only the visited set and its clearing come from
    // the scratch here — the lean accessor, not the full view, keeps a
    // BFS-only scratch free of the unused distance structures.
    let mut dist = vec![INF; n];
    {
        let visited = scratch.visited_set();

        visited.set(source as usize);
        dist[source as usize] = 0;
        stats.settled = 1;

        // Frontier = the unsettled BFS level ℓ (all at distance ℓ).
        let mut frontier: Vec<VertexId> = g.neighbors(source).to_vec();
        for &v in &frontier {
            visited.set(v as usize);
        }
        stats.relaxations += g.degree(source) as u64;
        let mut level: Dist = 1;

        while !frontier.is_empty() {
            // Early exit for goal-bounded solves: a vertex's distance is
            // final as soon as it is discovered (levels settle in order),
            // so stop once every goal is, writing the frontier's level.
            if config.goals.all_done(|g| visited.get(g as usize)) {
                for &v in &frontier {
                    dist[v as usize] = level;
                }
                stats.settled += frontier.len();
                break;
            }
            // d_i = ℓ + min r(v) over the frontier (line 4 specialised).
            let di = par_min(frontier.len(), |i| radii.key(frontier[i], 0)).saturating_add(level);
            let mut substeps = 0;
            let mut settled_this_step = 0usize;

            // Expand levels ℓ..=d_i; each expansion is one substep.
            while level <= di && !frontier.is_empty() {
                substeps += 1;
                for &v in &frontier {
                    dist[v as usize] = level;
                }
                settled_this_step += frontier.len();
                stats.relaxations += frontier.iter().map(|&u| g.degree(u) as u64).sum::<u64>();
                let subset = VertexSubset::from_ids(n, std::mem::take(&mut frontier));
                frontier = edge_map(
                    g,
                    &subset,
                    |_, v, _| visited.set(v as usize),
                    |v| !visited.get(v as usize),
                )
                .to_ids();
                level += 1;
            }

            stats.record_step(Some(StepTrace {
                d_i: di,
                settled: settled_this_step,
                substeps,
                active_size: settled_this_step,
            }));
        }
    }
    stats.scratch_reused = scratch.finish();
    // Forward solves scan every edge they relax.
    stats.relaxed_edges = stats.relaxations;
    SsspResult::new(dist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::compute_radii;
    use crate::{radius_stepping_with, EngineKind};
    use rs_graph::gen;

    fn assert_matches_general(g: &CsrGraph, radii: &Radii, s: VertexId) {
        let bfs_mode =
            radius_stepping_with(g, radii, s, EngineKind::Unweighted, EngineConfig::with_trace());
        let general =
            radius_stepping_with(g, radii, s, EngineKind::Frontier, EngineConfig::with_trace());
        assert_eq!(bfs_mode.dist, general.dist, "distances differ");
        assert_eq!(bfs_mode.stats.steps, general.stats.steps, "steps differ");
        assert_eq!(bfs_mode.stats.substeps, general.stats.substeps, "substeps differ");
        let a: Vec<Dist> = bfs_mode.stats.trace.unwrap().iter().map(|t| t.d_i).collect();
        let b: Vec<Dist> = general.stats.trace.unwrap().iter().map(|t| t.d_i).collect();
        assert_eq!(a, b, "round distances differ");
    }

    #[test]
    fn matches_general_engine_across_radii() {
        for g in [gen::grid2d(15, 16), gen::scale_free(400, 3, 3), gen::path(30)] {
            for radii in [Radii::Zero, Radii::Constant(3), Radii::Constant(10)] {
                assert_matches_general(&g, &radii, 0);
            }
            assert_matches_general(&g, &Radii::Infinite, 2);
        }
    }

    #[test]
    fn matches_with_preprocessed_radii() {
        let g = gen::webgraph(600, 3, 0.3, 15, 7);
        for rho in [2usize, 8, 32] {
            let radii = Radii::PerVertex(compute_radii(&g, rho).into());
            assert_matches_general(&g, &radii, 0);
        }
    }

    #[test]
    fn zero_radii_is_exactly_bfs() {
        let g = gen::grid2d(10, 10);
        let out = radius_stepping_with(
            &g,
            &Radii::Zero,
            0,
            EngineKind::Unweighted,
            EngineConfig::default(),
        );
        // steps = eccentricity (one level per step), 1 substep each.
        assert_eq!(out.stats.steps, 18);
        assert_eq!(out.stats.substeps, 18);
        assert_eq!(out.dist[99], 18);
    }

    #[test]
    #[should_panic(expected = "unit weights")]
    fn rejects_weighted_graphs() {
        let g = rs_graph::weights::reweight(
            &gen::path(4),
            rs_graph::WeightModel::UniformInt { lo: 2, hi: 9 },
            1,
        );
        radius_stepping_with(&g, &Radii::Zero, 0, EngineKind::Unweighted, EngineConfig::default());
    }
}
