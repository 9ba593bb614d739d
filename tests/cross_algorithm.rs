//! Every shortest-path implementation in the workspace must agree exactly
//! on every graph family, across its whole parameter range — all built
//! through `SolverBuilder` and used through the `SsspSolver` trait.

use radius_stepping::prelude::*;

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let w = |g: &CsrGraph, s| graph::weights::reweight(g, WeightModel::paper_weighted(), s);
    vec![
        ("grid2d", w(&graph::gen::grid2d(13, 17), 1)),
        ("grid3d", w(&graph::gen::grid3d(5, 6, 7), 2)),
        ("road", w(&graph::gen::road_network(15, 3), 3)),
        ("web", w(&graph::gen::scale_free(300, 4, 4), 4)),
        ("erdos_renyi", w(&graph::gen::erdos_renyi(150, 500, 5), 5)),
        ("path", w(&graph::gen::path(40), 6)),
        ("star", w(&graph::gen::star(40), 7)),
        ("complete", w(&graph::gen::complete(30), 8)),
        ("cycle", w(&graph::gen::cycle(50), 9)),
        ("fig2_gadget", w(&graph::gen::fig2_gadget(8, 4), 10)),
    ]
}

/// Every weighted algorithm the builder can construct.
fn weighted_algorithms() -> Vec<Algorithm> {
    let mut algorithms = vec![Algorithm::Dijkstra, Algorithm::BellmanFord];
    for delta in [1u64, 777, 10_000, 1 << 20] {
        algorithms.push(Algorithm::DeltaStepping { delta });
    }
    for radii in [Radii::Zero, Radii::Infinite, Radii::Constant(5_000)] {
        algorithms.push(Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii });
    }
    algorithms
}

#[test]
fn all_weighted_solvers_agree() {
    for (name, g) in graphs() {
        let source = (g.num_vertices() / 2) as u32;
        let reference = baselines::dijkstra_default(&g, source);
        let mut scratch = SolverScratch::new();
        for algorithm in weighted_algorithms() {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
            let out = solver.execute(&Query::single_source(source), &mut scratch);
            assert_eq!(out.dist(), reference, "{name}: {}", solver.name());
        }
        // The frontier engine also takes the sequential oracle's steps.
        for radii in [RadiiSpec::Zero, RadiiSpec::Infinite, RadiiSpec::Constant(5_000)] {
            let cfg = EngineConfig::with_trace();
            let out = core::radius_stepping_with(&g, &radii, source, EngineKind::Frontier, cfg);
            let oracle = core::verify::step_trace(&g, &radii, source);
            assert_eq!((out.dist, out.stats.trace.unwrap()), oracle, "{name}: {radii:?}");
        }
    }
}

#[test]
fn unweighted_solvers_agree_with_bfs() {
    for (name, g) in [
        ("grid2d", graph::gen::grid2d(20, 21)),
        ("web", graph::gen::scale_free(400, 3, 11)),
        ("road", graph::gen::road_network(16, 12)),
    ] {
        let source = 1u32;
        let bfs = baselines::bfs_seq(&g, source);
        let (query, mut scratch) = (Query::single_source(source), SolverScratch::new());
        for algorithm in [
            Algorithm::Bfs,
            Algorithm::Dijkstra,
            Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Zero },
            Algorithm::RadiusStepping { engine: EngineKind::Unweighted, radii: Radii::Zero },
        ] {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
            let out = solver.execute(&query, &mut scratch);
            assert_eq!(out.dist(), bfs, "{name}: {}", solver.name());
        }
        let pre = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 10)).build();
        let out = pre.execute(&query, &mut scratch);
        assert_eq!(out.dist(), bfs, "{name}: preprocessed radius stepping");
    }
}

#[test]
fn zero_radius_step_count_equals_distinct_distances() {
    // With r ≡ 0, each step settles exactly one distance value (§5.3's
    // ρ = 1 ≈ "Dijkstra extracting equal distances together").
    for (name, g) in graphs() {
        let source = 0u32;
        let out = core::radius_stepping(&g, &RadiiSpec::Zero, source);
        let mut finite: Vec<Dist> =
            out.dist.iter().copied().filter(|&d| d != INF && d > 0).collect();
        finite.sort_unstable();
        finite.dedup();
        assert_eq!(out.stats.steps, finite.len(), "{name}");
    }
}

#[test]
fn bellman_ford_and_infinite_radius_have_same_depth_structure() {
    // `Algorithm::BellmanFord` and `Algorithm::Bfs` are names for points
    // on the radius spectrum: the frontier engine at r ≡ ∞ (one step of
    // Bellman–Ford substeps) and the unweighted engine at r ≡ 0.
    fn assert_alias(name: &str, g: &CsrGraph, alias: Algorithm, engine: EngineKind, radii: Radii) {
        let (query, mut scratch) = (Query::single_source(2), SolverScratch::new());
        let a = SolverBuilder::new(g).algorithm(alias).build().execute(&query, &mut scratch);
        let b = SolverBuilder::new(g)
            .algorithm(Algorithm::RadiusStepping { engine, radii })
            .build()
            .execute(&query, &mut scratch);
        assert_eq!(a.dist(), b.dist(), "{name}");
        assert_eq!(
            (a.stats().steps, a.stats().substeps),
            (b.stats().steps, b.stats().substeps),
            "{name}: steps/substeps"
        );
    }
    for (name, g) in graphs() {
        assert_alias(name, &g, Algorithm::BellmanFord, EngineKind::Frontier, Radii::Infinite);
        let unit = graph::weights::reweight(&g, WeightModel::Unit, 0);
        assert_alias(name, &unit, Algorithm::Bfs, EngineKind::Unweighted, Radii::Zero);
    }
    // One step; vertex 1 starts relaxed, 18 productive substeps reach
    // vertex 19, plus the final no-update check.
    let path = graph::gen::path(20);
    let bf = SolverBuilder::new(&path).algorithm(Algorithm::BellmanFord).build();
    let bf = bf.execute(&Query::single_source(0), &mut SolverScratch::new());
    assert_eq!((bf.stats().steps, bf.stats().substeps), (1, 19));
}
