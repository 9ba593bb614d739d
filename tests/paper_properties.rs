//! Integration-scale checks of the paper's empirical claims (§5), at
//! reduced size: the trends the tables report must reproduce.

use radius_stepping::prelude::*;
use rs_bench::experiments::shortcuts::shortcut_counts;
use rs_bench::experiments::steps::mean_steps;
use rs_bench::sample_sources;

#[test]
fn unweighted_steps_inverse_in_rho() {
    // Figure 4: "the average number of steps is inversely proportional
    // to ρ" (up to the log factor). Check monotone decrease plus a
    // super-constant total reduction on a grid.
    let g = graph::gen::grid2d(50, 50);
    let sources = sample_sources(2500, 3, 9);
    let series: Vec<f64> =
        [1usize, 2, 10, 50, 200].iter().map(|&rho| mean_steps(&g, rho, &sources)).collect();
    assert!(
        series.windows(2).all(|w| w[0] >= w[1] - 1e-9),
        "steps must not increase with rho: {series:?}"
    );
    assert!(series[0] / series[4] > 5.0, "rho=200 should cut steps >5x: {series:?}");
}

#[test]
fn weighted_rho_one_is_nearly_one_step_per_vertex() {
    // Table 6's ρ=1 row: with random weights almost every vertex has a
    // distinct distance, so Dijkstra-mode takes ≈ n steps.
    let g =
        graph::weights::reweight(&graph::gen::grid2d(30, 30), WeightModel::paper_weighted(), 31);
    let sources = sample_sources(900, 2, 4);
    let steps = mean_steps(&g, 1, &sources);
    assert!(steps > 0.95 * 899.0, "expected ≈ n-1 steps, got {steps}");
}

#[test]
fn weighted_small_rho_collapses_steps() {
    // Table 7: ρ=10 already reduces weighted steps by ~3 orders of
    // magnitude at paper scale; at our scale demand a ≥ 20x factor.
    let g = graph::weights::reweight(&graph::gen::grid2d(40, 40), WeightModel::paper_weighted(), 7);
    let sources = sample_sources(1600, 2, 5);
    let s1 = mean_steps(&g, 1, &sources);
    let s10 = mean_steps(&g, 10, &sources);
    assert!(s1 / s10 > 20.0, "weighted reduction too small: {s1}/{s10}");
}

#[test]
fn webgraphs_need_few_steps_even_at_rho_one() {
    // §5.3: scale-free graphs have small hop diameter, so even ρ=1 BFS
    // takes few steps while road/grid graphs take Θ(√n).
    let web = graph::gen::scale_free(4000, 7, 3);
    let grid = graph::gen::grid2d(63, 64);
    let sw = mean_steps(&web, 1, &sample_sources(4000, 3, 1));
    let sg = mean_steps(&grid, 1, &sample_sources(4032, 3, 1));
    assert!(sw * 4.0 < sg, "web {sw} should be ≪ grid {sg}");
}

#[test]
fn greedy_matches_dp_on_regular_graphs_but_not_webgraphs() {
    // Figure 3's two regimes: on grids the heuristics are close; on
    // webgraphs DP wins decisively.
    let grid = graph::gen::grid2d(40, 40);
    let (g_grid, d_grid) = shortcut_counts(&grid, 30, &[3]);
    assert!(g_grid[0] > 0);
    assert!(
        (g_grid[0] as f64) < 4.0 * d_grid[0].max(1) as f64,
        "grid: greedy {g_grid:?} vs dp {d_grid:?} should be same order"
    );
    let web = graph::gen::scale_free(3000, 3, 8);
    let (g_web, d_web) = shortcut_counts(&web, 300, &[3]);
    assert!(
        (d_web[0] as f64) < 0.5 * g_web[0] as f64,
        "web: dp {d_web:?} should be far below greedy {g_web:?}"
    );
}

#[test]
fn substeps_track_k_across_suite() {
    // Theorem 3.2 at integration scale: run the whole preprocessed
    // pipeline on three families and watch the k+2 cap bind.
    use rs_core::preprocess::ShortcutHeuristic;
    use rs_core::EngineConfig;
    for k in [1u32, 2, 3] {
        for (name, g) in [
            (
                "grid",
                graph::weights::reweight(
                    &graph::gen::grid2d(16, 16),
                    WeightModel::paper_weighted(),
                    1,
                ),
            ),
            (
                "web",
                graph::weights::reweight(
                    &graph::gen::scale_free(300, 3, 2),
                    WeightModel::paper_weighted(),
                    2,
                ),
            ),
        ] {
            let h = if k == 1 { ShortcutHeuristic::Full } else { ShortcutHeuristic::Dp };
            let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho: 16, heuristic: h });
            let radii = &pre.radii;
            for s in sample_sources(g.num_vertices(), 3, 3) {
                let cfg = EngineConfig::with_trace();
                let out = core::radius_stepping_with(&pre.graph, radii, s, cfg);
                assert!(
                    out.stats.max_substeps_in_step <= k as usize + 2,
                    "{name} k={k}: {}",
                    out.stats.max_substeps_in_step
                );
            }
        }
    }
}

#[test]
fn rho_two_factor_matches_paper_exactly_unweighted() {
    // Table 5 row ρ=2 is 2.00 on every graph family at paper scale; the
    // r_2 = 1 argument is scale-free, so it must hold here too.
    for g in [
        graph::gen::grid2d(35, 35),
        graph::gen::grid3d(11, 11, 10),
        graph::gen::road_network(35, 6),
    ] {
        let sources = sample_sources(g.num_vertices(), 3, 11);
        let s1 = mean_steps(&g, 1, &sources);
        let s2 = mean_steps(&g, 2, &sources);
        let factor = s1 / s2;
        assert!((factor - 2.0).abs() < 0.1, "rho=2 factor {factor} should be ≈ 2.00");
    }
}
