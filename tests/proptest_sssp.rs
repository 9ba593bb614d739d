//! Property-based integration tests: random graphs, random weights, random
//! radii — radius stepping must always equal Dijkstra, and preprocessing
//! must always establish the paper's preconditions.

use proptest::prelude::*;

use radius_stepping::prelude::*;
use rs_core::preprocess::ShortcutHeuristic;
use rs_core::verify::{check_k_rho_graph, step_bound, step_trace, substep_bound};
use rs_core::{radius_stepping_with, EngineConfig, EngineKind};

/// Random connected weighted graph: a random spanning tree plus extra
/// random edges.
fn arb_connected_graph() -> impl Strategy<Value = CsrGraph> {
    (3usize..40, proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..50), 0..120), 1u32..50)
        .prop_map(|(n, extra, tree_w)| {
            let mut b = EdgeListBuilder::new(n);
            for v in 1..n as u32 {
                // Deterministic "random" parent keeps the tree connected.
                let parent = (v.wrapping_mul(2654435761) >> 7) % v;
                b.add_edge(v, parent, (v % tree_w) + 1);
            }
            for (u, v, w) in extra {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radius_stepping_equals_dijkstra_for_any_radii(
        g in arb_connected_graph(),
        radii_seed in proptest::collection::vec(0u64..100_000, 40),
        source in 0u32..3,
    ) {
        // §3: "The algorithm is correct for any radii r(·)."
        let n = g.num_vertices();
        let radii: Vec<Dist> = (0..n).map(|i| radii_seed[i % radii_seed.len()]).collect();
        let reference = baselines::dijkstra_default(&g, source);
        let out = radius_stepping_with(
            &g, &RadiiSpec::PerVertex(&radii), source, EngineKind::Frontier, EngineConfig::default());
        prop_assert_eq!(&out.dist, &reference);
    }

    // The parallel frontier engine takes exactly the steps and substeps of
    // Algorithm 1 run sequentially, for constant and per-vertex radii.
    #[test]
    fn frontier_matches_step_oracle(
        g in arb_connected_graph(),
        r in 0u64..10_000,
        radii_seed in proptest::collection::vec(0u64..10_000, 40),
        source in 0u32..3,
    ) {
        let per_vertex: Vec<Dist> =
            (0..g.num_vertices()).map(|i| radii_seed[i % radii_seed.len()]).collect();
        for radii in [RadiiSpec::Constant(r), RadiiSpec::PerVertex(&per_vertex)] {
            let out = radius_stepping_with(
                &g, &radii, source, EngineKind::Frontier, EngineConfig::with_trace());
            prop_assert_eq!(
                (out.dist, out.stats.trace.unwrap()), step_trace(&g, &radii, source), "{:?}", radii);
        }
    }

    #[test]
    fn preprocessing_establishes_preconditions(
        g in arb_connected_graph(),
        k in 1u32..4,
        rho_frac in 2usize..6,
        h_pick in 0usize..3,
    ) {
        let n = g.num_vertices();
        let rho = (n / rho_frac).max(1);
        let h = [ShortcutHeuristic::Full, ShortcutHeuristic::Greedy, ShortcutHeuristic::Dp][h_pick];
        let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho, heuristic: h });
        prop_assert!(pre.graph.check_invariants().is_ok());
        // Lemma 4.1 preconditions, brute-force checked.
        if let Err((v, msg)) = check_k_rho_graph(&pre.graph, &pre.radii, k, rho) {
            return Err(TestCaseError::fail(format!("{h:?} k={k} rho={rho}: {msg} at {v}")));
        }
        // And the theorems' conclusions.
        let out = pre.sssp_with(0, EngineKind::Frontier, EngineConfig::with_trace());
        prop_assert!(out.stats.max_substeps_in_step <= substep_bound(k));
        prop_assert!(out.stats.steps <= step_bound(n, rho, pre.graph.max_weight() as u64));
        prop_assert_eq!(out.dist, baselines::dijkstra_default(&g, 0));
    }

    #[test]
    fn shortcuts_never_change_distances(g in arb_connected_graph(), rho_frac in 2usize..5) {
        let rho = (g.num_vertices() / rho_frac).max(1);
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, rho));
        prop_assert_eq!(
            baselines::dijkstra_default(&pre.graph, 1),
            baselines::dijkstra_default(&g, 1)
        );
    }

    #[test]
    fn delta_stepping_and_bf_agree_on_random_graphs(g in arb_connected_graph(), delta in 1u64..200) {
        let reference = baselines::dijkstra_default(&g, 0);
        prop_assert_eq!(baselines::delta_stepping(&g, 0, delta).dist, reference.clone());
        prop_assert_eq!(core::radius_stepping(&g, &RadiiSpec::Infinite, 0).dist, reference);
    }

    // Batch dedup must be observationally invisible: for ANY source
    // multiset — duplicates, repeats, arbitrary order — an all-sources
    // `QueryBatch` returns exactly what per-source `single_source`
    // executions return, slot for slot, and its bookkeeping stays
    // consistent.
    #[test]
    fn solve_batch_with_duplicates_matches_per_source(
        g in arb_connected_graph(),
        raw_sources in proptest::collection::vec(0u32..1000, 0..24),
        algo_pick in 0usize..4,
    ) {
        let n = g.num_vertices() as u32;
        let sources: Vec<VertexId> = raw_sources.iter().map(|&s| s % n).collect();
        let algorithm = [
            Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Constant(40) },
            Algorithm::Dijkstra,
            Algorithm::DeltaStepping { delta: 60 },
            Algorithm::BellmanFord,
        ][algo_pick].clone();
        let solver = SolverBuilder::new(&g).algorithm(algorithm).build();

        let plan = QueryBatch::from_sources(&sources);
        let unique: std::collections::HashSet<VertexId> = sources.iter().copied().collect();
        prop_assert_eq!(plan.len(), sources.len());
        prop_assert_eq!(plan.unique_queries().len(), unique.len());
        prop_assert_eq!(plan.deduplicated(), sources.len() - unique.len());

        let outcome = plan.execute(&*solver);
        prop_assert_eq!(outcome.responses.len(), sources.len());
        prop_assert_eq!(outcome.stats.solves, sources.len());
        prop_assert_eq!(outcome.stats.unique_solves, unique.len());
        prop_assert_eq!(outcome.stats.point_to_point, 0);
        prop_assert_eq!(
            outcome.stats.cold_solves + outcome.stats.scratch_reuses,
            outcome.stats.unique_solves
        );
        let mut scratch = SolverScratch::new();
        for (out, &s) in outcome.responses.iter().zip(&sources) {
            let reference = solver.execute(&Query::single_source(s), &mut scratch);
            prop_assert_eq!(out.dist(), reference.dist(), "source {}", s);
        }
    }

    // Empty and singleton batches are well-behaved for every algorithm,
    // and a singleton's result equals the single-source execution.
    #[test]
    fn solve_batch_empty_and_singleton(g in arb_connected_graph(), s in 0u32..1000) {
        let n = g.num_vertices() as u32;
        let s = s % n;
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Zero })
            .build();
        prop_assert!(QueryBatch::from_sources(&[]).execute(&*solver).responses.is_empty());
        let single = QueryBatch::from_sources(&[s]).execute(&*solver).responses;
        prop_assert_eq!(single.len(), 1);
        let reference = solver.execute(&Query::single_source(s), &mut SolverScratch::new());
        prop_assert_eq!(single[0].dist(), reference.dist());
        // All-duplicates batch: one unique solve, three identical answers.
        let dup = QueryBatch::from_sources(&[s, s, s]);
        prop_assert_eq!(dup.unique_queries(), &[Query::single_source(s)][..]);
        let outcome = dup.execute(&*solver);
        prop_assert_eq!(outcome.stats.unique_solves, 1);
        for out in &outcome.responses {
            prop_assert_eq!(out.dist(), outcome.responses[0].dist());
        }
    }

    // One scratch, interleaved random sources: results must stay
    // bit-identical to fresh solves no matter the order (stale-state
    // fuzzing for the epoch reset).
    #[test]
    fn scratch_reuse_never_leaks_state(
        g in arb_connected_graph(),
        schedule in proptest::collection::vec(0u32..1000, 1..10),
    ) {
        let n = g.num_vertices() as u32;
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Constant(25) })
            .build();
        let mut scratch = SolverScratch::new();
        for s in schedule {
            let s = s % n;
            let q = Query::single_source(s);
            let warm = solver.execute(&q, &mut scratch);
            let fresh = solver.execute(&q, &mut SolverScratch::new());
            prop_assert_eq!(warm.dist(), fresh.dist(), "source {}", s);
        }
    }
}
