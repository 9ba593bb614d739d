//! Property-based tests for the query plane: random graphs, random mixed
//! [`Query`] batches — duplicate-heavy, shapes and output options drawn
//! independently — must behave exactly like per-query fresh executions,
//! and the batch bookkeeping must stay consistent.

use proptest::prelude::*;
use std::collections::HashSet;

use radius_stepping::prelude::*;

/// Random connected weighted graph: a random spanning tree plus extra
/// random edges (same construction as `proptest_sssp`).
fn arb_connected_graph() -> impl Strategy<Value = CsrGraph> {
    (3usize..40, proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..50), 0..120), 1u32..50)
        .prop_map(|(n, extra, tree_w)| {
            let mut b = EdgeListBuilder::new(n);
            for v in 1..n as u32 {
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

/// Raw query material: `(shape selector, source, goals, want_paths)` —
/// duplicated by drawing from a small id space, reduced mod `n` at use.
/// Shape: 0 = single-source, 1 = point-to-point, 2 = one-to-many
/// (goal-list length 0..4, so permuted/duplicated goal sets occur).
fn arb_raw_queries() -> impl Strategy<Value = Vec<(u8, u32, Vec<u32>, bool)>> {
    proptest::collection::vec(
        (0u8..3, 0u32..1000, proptest::collection::vec(0u32..1000, 0..4), any::<bool>()),
        0..20,
    )
}

fn build_queries(raw: &[(u8, u32, Vec<u32>, bool)], n: u32) -> Vec<Query> {
    raw.iter()
        .map(|(shape, s, goals, paths)| {
            let goals: Vec<u32> = goals.iter().map(|&t| t % n).collect();
            let q = match shape {
                0 => Query::single_source(s % n),
                1 => Query::point_to_point(s % n, goals.first().copied().unwrap_or(0)),
                _ => Query::one_to_many(s % n, goals),
            };
            if *paths {
                q.with_paths()
            } else {
                q
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Mixed batches with duplicate queries: responses equal fresh
    // per-query executions slot for slot, and the stats ledger adds up —
    // for radius stepping (both general engines), Dijkstra, ∆-stepping
    // and Bellman–Ford.
    #[test]
    fn mixed_batches_match_fresh_executions(
        g in arb_connected_graph(),
        raw in arb_raw_queries(),
        algo_pick in 0usize..5,
    ) {
        let n = g.num_vertices() as u32;
        let queries = build_queries(&raw, n);
        let algorithm = [
            Algorithm::RadiusStepping { radii: Radii::Constant(40) },
            Algorithm::RadiusStepping { radii: Radii::Constant(25) },
            Algorithm::Dijkstra,
            Algorithm::DeltaStepping { delta: 60 },
            Algorithm::BellmanFord,
        ][algo_pick].clone();
        let solver = SolverBuilder::new(&g).algorithm(algorithm).build();

        let batch = QueryBatch::new(&queries);
        // Dedup keys are canonical: goal sets sorted + deduplicated.
        let unique: HashSet<Query> = queries.iter().map(|q| q.canonical()).collect();
        prop_assert_eq!(batch.len(), queries.len());
        prop_assert_eq!(batch.unique_queries().len(), unique.len());
        prop_assert_eq!(batch.deduplicated(), queries.len() - unique.len());

        let outcome = batch.execute(&*solver);
        prop_assert_eq!(outcome.responses.len(), queries.len());
        prop_assert_eq!(outcome.stats.solves, queries.len());
        prop_assert_eq!(outcome.stats.unique_solves, unique.len());
        // Every shape here is single-solve (no tables in this strategy).
        prop_assert_eq!(outcome.stats.executed_solves, unique.len());
        prop_assert_eq!(
            outcome.stats.cold_solves + outcome.stats.scratch_reuses,
            outcome.stats.executed_solves
        );
        let p2p = queries.iter().filter(|q| q.is_point_to_point()).count();
        prop_assert_eq!(outcome.stats.point_to_point, p2p);
        let fan = queries.iter().filter(|q| matches!(q.shape, QueryShape::OneToMany { .. })).count();
        prop_assert_eq!(outcome.stats.one_to_many, fan);
        // The graph is connected, so every requested goal is reached.
        let goals_total: usize = queries.iter().map(|q| q.goals().len()).sum();
        prop_assert_eq!(outcome.stats.goals_requested, goals_total);
        prop_assert_eq!(outcome.stats.goals_reached, goals_total);

        for (resp, q) in outcome.responses.iter().zip(&queries) {
            prop_assert_eq!(&resp.query, q);
            let fresh = solver.execute(q, &mut SolverScratch::new());
            prop_assert_eq!(resp.dist(), fresh.dist(), "{:?}", q.shape);
            if q.is_goal_bounded() {
                let full = solver.execute(&Query::single_source(q.source()), &mut SolverScratch::new());
                for &goal in q.goals() {
                    // Every goal settled exactly (full solve = reference).
                    prop_assert_eq!(
                        resp.dist()[goal as usize],
                        full.dist()[goal as usize],
                        "{:?}", q.shape
                    );
                    if q.want_paths {
                        // Parents telescope along every goal path.
                        let path = resp.goal_path_to(goal).expect("connected graph");
                        prop_assert_eq!(path[0], q.source());
                        prop_assert_eq!(*path.last().unwrap(), goal);
                        let mut acc = 0u64;
                        for w in path.windows(2) {
                            let weight = solver.graph().arc_weight(w[0], w[1]);
                            prop_assert!(weight.is_some(), "path edge {}->{} missing", w[0], w[1]);
                            acc += weight.unwrap() as u64;
                        }
                        prop_assert_eq!(acc, resp.dist()[goal as usize]);
                    }
                }
            }
        }
    }

    // The fan-out contract, fuzzed: a one-to-many solve is bit-identical,
    // per goal, to the point-to-point queries it replaces — distances and
    // paths — across algorithm families.
    #[test]
    fn one_to_many_equals_per_goal_point_to_point(
        g in arb_connected_graph(),
        source in 0u32..1000,
        goals in proptest::collection::vec(0u32..1000, 0..6),
        algo_pick in 0usize..5,
    ) {
        let n = g.num_vertices() as u32;
        let source = source % n;
        let goals: Vec<u32> = goals.into_iter().map(|t| t % n).collect();
        let algorithm = [
            Algorithm::RadiusStepping { radii: Radii::Constant(40) },
            Algorithm::RadiusStepping { radii: Radii::Constant(25) },
            Algorithm::Dijkstra,
            Algorithm::DeltaStepping { delta: 60 },
            Algorithm::BellmanFord,
        ][algo_pick].clone();
        let solver = SolverBuilder::new(&g).algorithm(algorithm).build();

        let mut scratch = SolverScratch::new();
        let fan = solver.execute(&Query::one_to_many(source, goals.clone()).with_paths(), &mut scratch);
        prop_assert_eq!(scratch.solves(), 1);
        for &goal in &goals {
            let p2p = solver.execute(
                &Query::point_to_point(source, goal).with_paths(),
                &mut SolverScratch::new(),
            );
            prop_assert_eq!(
                fan.dist()[goal as usize],
                p2p.dist()[goal as usize],
                "goal {} distance", goal
            );
            prop_assert_eq!(fan.goal_path_to(goal), p2p.goal_path(), "goal {} path", goal);
        }
    }

    // The table contract, fuzzed: many-to-many rows equal their row-wise
    // one-to-many decomposition.
    #[test]
    fn many_to_many_equals_rowwise_one_to_many(
        g in arb_connected_graph(),
        sources in proptest::collection::vec(0u32..1000, 1..4),
        goals in proptest::collection::vec(0u32..1000, 0..4),
        paths in any::<bool>(),
    ) {
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = sources.into_iter().map(|s| s % n).collect();
        let goals: Vec<u32> = goals.into_iter().map(|t| t % n).collect();
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping {
                radii: Radii::Constant(30),
            })
            .build();
        let mut q = Query::many_to_many(sources.clone(), goals.clone());
        if paths {
            q = q.with_paths();
        }
        let table = solver.execute(&q, &mut SolverScratch::new());
        prop_assert_eq!(table.rows().len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            let mut row_q = Query::one_to_many(s, goals.clone());
            if paths {
                row_q = row_q.with_paths();
            }
            let row = solver.execute(&row_q, &mut SolverScratch::new());
            prop_assert_eq!(&table.rows()[i].dist, &row.result().dist, "row {}", i);
            if paths {
                for &goal in &goals {
                    prop_assert_eq!(
                        table.path_in_row(i, goal),
                        row.goal_path_to(goal),
                        "row {} goal {}", i, goal
                    );
                }
            }
        }
    }

    // One scratch, interleaved mixed queries: results stay bit-identical
    // to fresh executions no matter the order (stale-state fuzzing for the
    // goal-bounded path, the substep buffers and the epoch reset).
    #[test]
    fn interleaved_mixed_queries_never_leak_scratch_state(
        g in arb_connected_graph(),
        raw in arb_raw_queries(),
    ) {
        let n = g.num_vertices() as u32;
        let queries = build_queries(&raw, n);
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping {
                radii: Radii::Constant(25),
            })
            .build();
        let mut scratch = SolverScratch::new();
        for q in &queries {
            let warm = solver.execute(q, &mut scratch);
            let fresh = solver.execute(q, &mut SolverScratch::new());
            prop_assert_eq!(warm.dist(), fresh.dist(), "{:?}", q.shape);
            prop_assert_eq!(
                warm.result().parent.is_some(),
                q.want_paths,
                "want_paths must always produce a parent tree"
            );
        }
    }
}
