//! End-to-end pipeline tests: generate → preprocess → solve → verify,
//! across heuristics, k, ρ, engines and graph families.

use radius_stepping::prelude::*;
use rs_core::preprocess::ShortcutHeuristic;
use rs_core::verify::{check_k_rho_graph, step_bound, step_trace, substep_bound};
use rs_core::{radius_stepping_with, EngineConfig};

fn family(seed: u64) -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "grid2d",
            graph::weights::reweight(
                &graph::gen::grid2d(14, 15),
                WeightModel::paper_weighted(),
                seed,
            ),
        ),
        (
            "road",
            graph::weights::reweight(
                &graph::gen::road_network(14, seed),
                WeightModel::paper_weighted(),
                seed + 1,
            ),
        ),
        (
            "scale_free",
            graph::weights::reweight(
                &graph::gen::scale_free(220, 3, seed),
                WeightModel::paper_weighted(),
                seed + 2,
            ),
        ),
        ("unweighted_grid3d", graph::gen::grid3d(6, 6, 6)),
    ]
}

#[test]
fn full_pipeline_all_configs() {
    for (name, g) in family(11) {
        let reference = baselines::dijkstra_default(&g, 3);
        for (k, rho, h) in [
            (1u32, 8usize, ShortcutHeuristic::Full),
            (2, 8, ShortcutHeuristic::Greedy),
            (2, 8, ShortcutHeuristic::Dp),
            (4, 24, ShortcutHeuristic::Dp),
        ] {
            let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho, heuristic: h });
            pre.graph.check_invariants().unwrap();
            let cfg = EngineConfig::with_trace();
            let out = radius_stepping_with(&pre.graph, &pre.radii, 3, cfg);
            assert_eq!(out.dist, reference, "{name} k={k} rho={rho} {h:?}");
            assert!(
                out.stats.max_substeps_in_step <= substep_bound(k),
                "{name} k={k}: {} substeps",
                out.stats.max_substeps_in_step
            );
            assert!(
                out.stats.steps <= step_bound(g.num_vertices(), rho, pre.graph.max_weight() as u64),
                "{name} rho={rho}: step bound violated"
            );
            let oracle = step_trace(&pre.graph, &pre.radii, 3);
            assert_eq!(out.stats.trace.unwrap(), oracle.1, "{name} k={k} rho={rho} {h:?}");
        }
    }
}

#[test]
fn preprocessing_yields_exact_k_rho_graphs() {
    // Brute-force Lemma 4.1 verification on every family member.
    for (name, g) in family(23) {
        for (k, rho, h) in [
            (1u32, 6usize, ShortcutHeuristic::Full),
            (3, 10, ShortcutHeuristic::Greedy),
            (3, 10, ShortcutHeuristic::Dp),
        ] {
            let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho, heuristic: h });
            check_k_rho_graph(&pre.graph, &pre.radii, k, rho)
                .unwrap_or_else(|(v, msg)| panic!("{name} {h:?}: {msg} (vertex {v})"));
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let g = graph::weights::reweight(
        &graph::gen::road_network(12, 5),
        WeightModel::paper_weighted(),
        9,
    );
    let cfg = PreprocessConfig::new(2, 12).with_heuristic(ShortcutHeuristic::Dp);
    let a = Preprocessed::build(&g, &cfg);
    let b = Preprocessed::build(&g, &cfg);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.radii, b.radii);
    assert_eq!(a.stats, b.stats);
    let solve = |p: &Preprocessed| {
        let cfg = EngineConfig::with_trace();
        radius_stepping_with(&p.graph, &p.radii, 0, cfg)
    };
    let (ra, rb) = (solve(&a), solve(&b));
    assert_eq!(ra.dist, rb.dist);
    assert_eq!(ra.stats.steps, rb.stats.steps);
    assert_eq!(ra.stats.substeps, rb.stats.substeps);
}

#[test]
fn distances_preserved_by_shortcutting() {
    for (name, g) in family(31) {
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 12));
        for s in [0u32, 7] {
            assert_eq!(
                baselines::dijkstra_default(&pre.graph, s),
                baselines::dijkstra_default(&g, s),
                "{name}: shortcuts changed distances"
            );
        }
    }
}

#[test]
fn multi_source_reuse() {
    // The headline use-case: one preprocessing, many sources.
    let g =
        graph::weights::reweight(&graph::gen::grid2d(12, 12), WeightModel::paper_weighted(), 77);
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 16));
    for s in 0..24u32 {
        let out = radius_stepping(&pre.graph, &pre.radii, s * 6);
        assert_eq!(out.dist, baselines::dijkstra_default(&g, s * 6));
    }
}

#[test]
fn path_extraction_on_preprocessed_graph() {
    let g = graph::weights::reweight(
        &graph::gen::road_network(10, 2),
        WeightModel::paper_weighted(),
        3,
    );
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 10));
    let out = radius_stepping(&pre.graph, &pre.radii, 0);
    for t in [1u32, 50, 99] {
        let path = out.path_to(&pre.graph, t).expect("connected road network");
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), t);
        // Path weights (in the augmented graph) telescope to the distance.
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += pre.graph.arc_weight(w[0], w[1]).unwrap() as u64;
        }
        assert_eq!(acc, out.dist[t as usize]);
    }
}
