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

/// The bucket widths `Algorithm::DeltaStepping` is run at; `0` is `r ≡ 0`.
const DELTAS: [Dist; 5] = [0, 1, 777, 10_000, 1 << 20];

/// Every weighted algorithm the builder can construct.
fn weighted_algorithms() -> Vec<Algorithm> {
    let mut algorithms = vec![Algorithm::Dijkstra, Algorithm::BellmanFord];
    for delta in DELTAS {
        algorithms.push(Algorithm::DeltaStepping { delta });
    }
    for radii in [Radii::Zero, Radii::Infinite, Radii::Constant(5_000)] {
        algorithms.push(Algorithm::RadiusStepping { radii });
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
        // The frontier engine also takes the sequential oracle's steps, and
        // `DeltaStepping { delta }` is exactly its `r ≡ ∆` point.
        let points = [Radii::Zero, Radii::Infinite, Radii::Constant(5_000)]
            .map(|radii| (Algorithm::RadiusStepping { radii: radii.clone() }, radii))
            .into_iter()
            .chain(
                DELTAS.map(|delta| (Algorithm::DeltaStepping { delta }, Radii::Constant(delta))),
            );
        for (algorithm, radii) in points {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
            let query = Query::single_source(source).with_trace();
            let out = solver.execute(&query, &mut scratch).into_result();
            let oracle = core::verify::step_trace(&g, &radii, source);
            assert_eq!((out.dist, out.stats.trace.unwrap()), oracle, "{name}: {}", solver.name());
        }
    }
}

#[test]
fn unweighted_solvers_agree_with_bfs() {
    for (name, g) in [
        ("grid2d", graph::gen::grid2d(20, 21)),
        ("web", graph::gen::scale_free(400, 3, 11)),
        ("road", graph::gen::road_network(16, 12)),
        ("grid3d", graph::gen::grid3d(9, 10, 11)),
    ] {
        let source = 1u32;
        let bfs = baselines::bfs_seq(&g, source);
        let (query, mut scratch) = (Query::single_source(source), SolverScratch::new());
        // BFS is radius stepping at r ≡ 0 on these unit-weight graphs.
        for algorithm in [Algorithm::Dijkstra, Algorithm::RadiusStepping { radii: Radii::Zero }] {
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
        let out = core::radius_stepping(&g, &Radii::Zero, source);
        let mut finite: Vec<Dist> =
            out.dist.iter().copied().filter(|&d| d != INF && d > 0).collect();
        finite.sort_unstable();
        finite.dedup();
        assert_eq!(out.stats.steps, finite.len(), "{name}");
    }
}

#[test]
fn bellman_ford_and_infinite_radius_have_same_depth_structure() {
    // `Algorithm::BellmanFord` names a point on the radius spectrum: r ≡ ∞,
    // one step of Bellman–Ford substeps.
    for (name, g) in graphs() {
        let (query, mut scratch) = (Query::single_source(2), SolverScratch::new());
        let a = SolverBuilder::new(&g)
            .algorithm(Algorithm::BellmanFord)
            .build()
            .execute(&query, &mut scratch);
        let b = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { radii: Radii::Infinite })
            .build()
            .execute(&query, &mut scratch);
        assert_eq!(a.dist(), b.dist(), "{name}");
        assert_eq!(
            (a.stats().steps, a.stats().substeps),
            (b.stats().steps, b.stats().substeps),
            "{name}: steps/substeps"
        );
    }
    // One step; vertex 1 starts relaxed, 18 productive substeps reach
    // vertex 19, plus the final no-update check.
    let path = graph::gen::path(20);
    let bf = SolverBuilder::new(&path).algorithm(Algorithm::BellmanFord).build();
    let bf = bf.execute(&Query::single_source(0), &mut SolverScratch::new());
    assert_eq!((bf.stats().steps, bf.stats().substeps), (1, 19));
}
