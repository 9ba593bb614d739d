//! Query-plane conformance suite: every `SsspSolver` the builder can
//! construct answers [`Query`]s through the single `execute` entry point,
//! and must satisfy the same contract —
//!
//! * `execute(PointToPoint)` on a warm scratch is bit-identical to the
//!   cold path, settles the goal to exactly the full solve's value, and
//!   returns upper bounds everywhere else (the full-solve prefix);
//! * paths telescope: along every extracted path,
//!   `dist[v] == dist[parent[v]] + w(parent[v], v)`;
//! * unreachable goals terminate (finite work, `INF` goal, no path);
//! * a pre-warmed scratch (`warm_scratch`) makes even the *first* query
//!   allocation-free for every solver whose structures it covers;
//! * the acceptance bars: zero working-structure allocations for warm
//!   point-to-point queries on a 100k-vertex graph (asserted by the
//!   scratch counters), and strictly fewer steps than the full solve on a
//!   256×256 grid.
//!
//! Like the batch suite, this runs in CI at 1 and nproc threads (the
//! `queries` job); responses are deterministic per query, so the two runs
//! assert sequential == parallel by transitivity through the per-query
//! reference.

use radius_stepping::prelude::*;

/// Weighted test graph (seeded, failures reproduce).
fn weighted(seed: u64) -> CsrGraph {
    graph::weights::reweight(&graph::gen::grid2d(11, 12), WeightModel::paper_weighted(), seed)
}

/// Every weighted-capable algorithm family, spanning the paper's spectrum
/// (the frontier engine at three radii, Dijkstra, two ∆ widths,
/// Bellman–Ford).
fn weighted_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::RadiusStepping { radii: Radii::Zero },
        Algorithm::RadiusStepping { radii: Radii::Infinite },
        Algorithm::RadiusStepping { radii: Radii::Constant(3_000) },
        Algorithm::Dijkstra,
        Algorithm::DeltaStepping { delta: 1_111 },
        Algorithm::DeltaStepping { delta: 50_000 },
        Algorithm::BellmanFord,
    ]
}

/// Builders for every weighted solver under test, including `Preprocessed`
/// variants (one attached to radius stepping, one to a baseline).
fn weighted_solvers<'g>(g: &'g CsrGraph) -> Vec<Box<dyn SsspSolver + 'g>> {
    let mut solvers: Vec<Box<dyn SsspSolver + 'g>> = weighted_algorithms()
        .into_iter()
        .map(|algorithm| SolverBuilder::new(g).algorithm(algorithm).build())
        .collect();
    solvers.push(SolverBuilder::new(g).preprocess(PreprocessConfig::new(1, 12)).build());
    solvers.push(
        SolverBuilder::new(g)
            .algorithm(Algorithm::DeltaStepping { delta: 2_500 })
            .preprocess(PreprocessConfig::new(1, 8))
            .build(),
    );
    solvers
}

/// The unit-weight points: BFS (radius stepping at `r ≡ 0`) and a small
/// constant radius.
fn unit_solvers(g: &CsrGraph) -> Vec<Box<dyn SsspSolver + '_>> {
    [Radii::Zero, Radii::Constant(2)]
        .map(|radii| SolverBuilder::new(g).algorithm(Algorithm::RadiusStepping { radii }).build())
        .into()
}

/// Warm-vs-cold and full-prefix battery shared by the weighted and unit
/// runs: for each solver, one long-lived scratch serves interleaved
/// point-to-point queries that must match cold executions bit-for-bit and
/// the full solve at the goal.
fn assert_point_to_point_conformance(name: &str, g: &CsrGraph, solver: &dyn SsspSolver) {
    let n = g.num_vertices() as u32;
    let mut scratch = SolverScratch::new();
    let full = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
    for (i, goal) in [0u32, n / 4, n - 1, n / 2, n / 4].into_iter().enumerate() {
        let query = Query::point_to_point(0, goal);
        let warm = solver.execute(&query, &mut scratch);
        let cold = solver.execute(&query, &mut SolverScratch::new());
        assert_eq!(
            warm.dist(),
            cold.dist(),
            "{name}: {} goal {goal}: warm scratch diverged from cold path",
            solver.name()
        );
        assert_eq!(
            warm.stats().clone_with_scratch_flag(false),
            cold.stats().clone_with_scratch_flag(false),
            "{name}: {} goal {goal}: warm/cold counters diverge",
            solver.name()
        );
        assert_eq!(
            warm.dist()[goal as usize],
            full.dist()[goal as usize],
            "{name}: {} goal {goal} must be settled exactly",
            solver.name()
        );
        assert_eq!(warm.goal_distance(), Some(full.dist()[goal as usize]));
        for (v, (&b, &f)) in warm.dist().iter().zip(full.dist()).enumerate() {
            assert!(
                b >= f,
                "{name}: {} vertex {v}: goal-bounded {b} below true distance {f}",
                solver.name()
            );
        }
        if i > 0 {
            assert!(
                warm.stats().scratch_reused,
                "{name}: {} query {i} reallocated on a warm scratch",
                solver.name()
            );
        }
    }
}

/// `StepStats` comparison helper: warm and cold runs must agree on every
/// counter except the scratch flag itself.
trait CloneWithFlag {
    fn clone_with_scratch_flag(&self, flag: bool) -> StepStats;
}

impl CloneWithFlag for StepStats {
    fn clone_with_scratch_flag(&self, flag: bool) -> StepStats {
        let mut s = self.clone();
        s.scratch_reused = flag;
        s
    }
}

#[test]
fn execute_point_to_point_conformance_weighted() {
    for seed in [3u64, 8] {
        let g = weighted(seed);
        for solver in weighted_solvers(&g) {
            assert_point_to_point_conformance(&format!("grid/{seed}"), &g, &*solver);
        }
    }
}

#[test]
fn execute_point_to_point_conformance_unit() {
    let g = graph::gen::grid2d(13, 14);
    for solver in unit_solvers(&g) {
        assert_point_to_point_conformance("unit-grid", &g, &*solver);
    }
    let sf = graph::gen::scale_free(300, 4, 6);
    for solver in unit_solvers(&sf) {
        assert_point_to_point_conformance("unit-scale-free", &sf, &*solver);
    }
}

/// Parents on `want_paths` point-to-point queries: the extracted goal
/// path exists, starts at the source, ends at the goal, and telescopes
/// (`dist[v] == dist[parent[v]] + w`), and so does every other parent
/// entry — for every algorithm and engine, on warm scratches.
#[test]
fn goal_path_parents_telescope_on_point_to_point_queries() {
    let g = weighted(77);
    let n = g.num_vertices() as u32;
    for solver in weighted_solvers(&g) {
        let mut scratch = SolverScratch::new();
        for goal in [n - 1, n / 3, 1, n - 1] {
            let resp = solver.execute(&Query::point_to_point(0, goal).with_paths(), &mut scratch);
            let path = resp
                .goal_path()
                .unwrap_or_else(|| panic!("{}: goal {goal} reachable but no path", solver.name()));
            assert_eq!(path[0], 0, "{}", solver.name());
            assert_eq!(*path.last().unwrap(), goal, "{}", solver.name());
            let mut acc = 0u64;
            for w in path.windows(2) {
                acc += solver.graph().arc_weight(w[0], w[1]).unwrap_or_else(|| {
                    panic!("{}: path edge {}->{} missing", solver.name(), w[0], w[1])
                }) as u64;
            }
            assert_eq!(
                acc,
                resp.dist()[goal as usize],
                "{}: goal {goal} path does not telescope",
                solver.name()
            );
            // Contract sweep: EVERY parent entry telescopes to the
            // response's dist array (a goal-bounded exit leaves tentative
            // distances on unsettled vertices; no parent may point at one).
            let parent = resp.result().parent.as_ref().unwrap();
            for v in 0..n {
                let p = parent[v as usize];
                if p == u32::MAX || p == v {
                    continue;
                }
                let w = solver.graph().arc_weight(p, v).unwrap_or_else(|| {
                    panic!("{}: parent edge {p}->{v} not in graph", solver.name())
                }) as u64;
                assert_eq!(
                    resp.dist()[p as usize] + w,
                    resp.dist()[v as usize],
                    "{}: stale parent {p} for vertex {v} after goal-bounded exit",
                    solver.name()
                );
            }
        }
    }
    // Unit-weight solvers: hop-count telescoping.
    let g = graph::gen::grid2d(12, 12);
    for solver in unit_solvers(&g) {
        let resp =
            solver.execute(&Query::point_to_point(0, 143).with_paths(), &mut SolverScratch::new());
        let path = resp.goal_path().expect("connected grid");
        assert_eq!(path.len() as u64 - 1, resp.dist()[143], "{}: hops", solver.name());
    }
}

/// A path does not depend on the schedule: on a unit-weight random graph
/// (many equal-cost ties), the frontier engine at r ≡ ∞ returns, for
/// point-to-point and one-to-many queries, exactly the path walked back
/// over Dijkstra's distances, on every one of several fresh solves.
#[test]
fn paths_do_not_depend_on_the_schedule() {
    let g = graph::gen::erdos_renyi(60_000, 300_000, 11);
    let reference = baselines::dijkstra_default(&g, 0);
    // The frontier engine relaxes a substep in parallel once its dirty
    // set reaches 2048 vertices (its sequential cutover). At r ≡ ∞ each
    // substep relaxes one BFS level, so the largest level must be well
    // past that for the tie-breaking relaxations to run in parallel.
    let reached = || reference.iter().copied().filter(|&d| d != INF);
    let mut level_sizes = vec![0usize; reached().max().unwrap_or(0) as usize + 1];
    for d in reached() {
        level_sizes[d as usize] += 1;
    }
    let (widest, &size) = level_sizes.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap();
    assert!(size >= 4 * 2048, "widest level has {size} vertices: the substeps stay sequential");
    // Goals on the widest level: the last hop of each path is chosen in
    // a parallel substep.
    let goals: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| reference[v as usize] == widest as Dist)
        .step_by(997)
        .take(4)
        .collect();
    assert_eq!(goals.len(), 4);
    let solver = SolverBuilder::new(&g)
        .algorithm(Algorithm::RadiusStepping { radii: Radii::Infinite })
        .build();
    let expected: Vec<Vec<VertexId>> = goals
        .iter()
        .map(|&t| core::stats::shortest_path_from_dist(&g, &reference, t).expect("reachable"))
        .collect();
    for round in 0..8 {
        let fan = solver
            .execute(&Query::one_to_many(0, goals.clone()).with_paths(), &mut SolverScratch::new());
        for (i, &t) in goals.iter().enumerate() {
            assert_eq!(
                fan.goal_path_to(t).as_ref(),
                Some(&expected[i]),
                "round {round}, one-to-many goal {t}"
            );
            let p2p = solver
                .execute(&Query::point_to_point(0, t).with_paths(), &mut SolverScratch::new());
            assert_eq!(
                p2p.goal_path().as_ref(),
                Some(&expected[i]),
                "round {round}, point-to-point goal {t}"
            );
        }
    }
}

/// Unreachable goals terminate with `INF`, no goal distance, and no path —
/// on warm scratches, for every solver.
#[test]
fn unreachable_goals_terminate() {
    // Two components: a weighted blob plus an isolated pair.
    let mut b = EdgeListBuilder::new(8);
    b.add_edge(0, 1, 3);
    b.add_edge(1, 2, 4);
    b.add_edge(2, 3, 2);
    b.add_edge(0, 3, 9);
    b.add_edge(6, 7, 5);
    let g = b.build();
    for solver in weighted_solvers(&g) {
        let mut scratch = SolverScratch::new();
        for _ in 0..2 {
            let resp = solver.execute(&Query::point_to_point(0, 6).with_paths(), &mut scratch);
            assert_eq!(resp.dist()[6], INF, "{}", solver.name());
            assert_eq!(resp.goal_distance(), None, "{}", solver.name());
            assert!(resp.goal_path().is_none(), "{}", solver.name());
            assert_eq!(resp.dist()[0], 0, "{}", solver.name());
        }
        // A partially-unreachable goal set still terminates: the reachable
        // goals are exact, the unreachable ones report None / no path.
        let fan = solver.execute(&Query::one_to_many(0, [3, 6]).with_paths(), &mut scratch);
        assert_eq!(fan.goal_distances()[1], None, "{}", solver.name());
        assert!(fan.goal_path_to(6).is_none(), "{}", solver.name());
        assert_eq!(
            fan.goal_distances()[0],
            Some(solver.execute(&Query::single_source(0), &mut scratch).dist()[3]),
            "{}: reachable goal stays exact next to an unreachable one",
            solver.name()
        );
        assert!(fan.goal_path_to(3).is_some(), "{}", solver.name());
    }
    let mut b = EdgeListBuilder::new(5);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 1);
    let g = b.build();
    for solver in unit_solvers(&g) {
        let resp =
            solver.execute(&Query::point_to_point(0, 4).with_paths(), &mut SolverScratch::new());
        assert_eq!(resp.dist()[4], INF, "{}", solver.name());
        assert!(resp.goal_path().is_none(), "{}", solver.name());
    }
}

/// Satellite acceptance: after `warm_scratch`, the *first* query performs
/// zero scratch-managed allocations for every solver — each override
/// warms exactly its own structures (engine buffers for radius stepping,
/// including its ∆-stepping and Bellman–Ford points, and the heap for
/// Dijkstra).
#[test]
fn first_query_runs_warm_after_warm_scratch() {
    let g = weighted(5);
    let n = g.num_vertices() as u32;
    for algorithm in [
        Algorithm::RadiusStepping { radii: Radii::Constant(2_000) },
        Algorithm::Dijkstra,
        Algorithm::DeltaStepping { delta: 1_500 },
        Algorithm::BellmanFord,
    ] {
        let solver = SolverBuilder::new(&g).algorithm(algorithm).build();
        let mut scratch = SolverScratch::new();
        solver.warm_scratch(&mut scratch);
        let first = solver.execute(&Query::point_to_point(0, n - 1), &mut scratch);
        assert!(
            first.stats().scratch_reused,
            "{}: first query after warm_scratch allocated",
            solver.name()
        );
        assert_eq!((scratch.solves(), scratch.reuses()), (1, 1), "{}", solver.name());
    }
}

/// Acceptance: `execute(PointToPoint)` on a warm scratch performs zero
/// working-structure allocations on a 100k-vertex graph — asserted by the
/// scratch counters across a stream of varied queries (`want_paths`
/// included: the parent tree is result output, not working state).
#[test]
fn warm_point_to_point_zero_allocations_on_100k_graph() {
    let g = graph::gen::grid2d(320, 320); // 102 400 vertices
    assert!(g.num_vertices() >= 100_000);
    let n = g.num_vertices() as u32;
    let solvers: Vec<Box<dyn SsspSolver>> = vec![
        SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { radii: Radii::Constant(40) })
            .build(),
        SolverBuilder::new(&g).algorithm(Algorithm::RadiusStepping { radii: Radii::Zero }).build(),
        SolverBuilder::new(&g).algorithm(Algorithm::Dijkstra).build(),
        SolverBuilder::new(&g).algorithm(Algorithm::DeltaStepping { delta: 3 }).build(),
    ];
    // Queries hop across the grid: different sources, goals, and path
    // requests, so any shape-dependent reallocation would surface.
    let stream: Vec<Query> = (0..8u32)
        .map(|i| {
            let (s, t) = ((i * 13_007) % n, (i * 29_501 + 640) % n);
            if i % 2 == 0 {
                Query::point_to_point(s, t).with_paths()
            } else {
                Query::point_to_point(s, t)
            }
        })
        .collect();
    for solver in solvers {
        let mut scratch = SolverScratch::new();
        solver.warm_scratch(&mut scratch);
        for (i, q) in stream.iter().enumerate() {
            let resp = solver.execute(q, &mut scratch);
            // warm_scratch covers every structure each of these solvers
            // touches, so even query 0 must run allocation-free.
            assert!(
                resp.stats().scratch_reused,
                "{}: query {i} allocated working structures on a warm scratch",
                solver.name()
            );
            if q.want_paths {
                assert!(resp.goal_path().is_some(), "{}: query {i} lost its path", solver.name());
            }
        }
        assert_eq!(
            (scratch.solves(), scratch.reuses()),
            (stream.len() as u64, stream.len() as u64),
            "{}: every query must reuse the warm scratch",
            solver.name()
        );
    }
}

/// Acceptance: on a 256×256 grid the goal-bounded query settles the goal
/// exactly while taking strictly fewer steps than the full solve.
#[test]
fn point_to_point_takes_strictly_fewer_steps_on_256_grid() {
    let g = graph::gen::grid2d(256, 256);
    let n = g.num_vertices() as u32;
    let solvers: Vec<Box<dyn SsspSolver>> = vec![
        SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { radii: Radii::Constant(8) })
            .build(),
        SolverBuilder::new(&g).algorithm(Algorithm::RadiusStepping { radii: Radii::Zero }).build(),
        SolverBuilder::new(&g).algorithm(Algorithm::Dijkstra).build(),
    ];
    let goal = 2 * 256 + 40; // a few rows in: far from the source's far corner
    for solver in solvers {
        let mut scratch = SolverScratch::new();
        let full = solver.execute(&Query::single_source(0), &mut scratch);
        let bounded = solver.execute(&Query::point_to_point(0, goal), &mut scratch);
        assert_eq!(
            bounded.goal_distance(),
            Some(full.dist()[goal as usize]),
            "{}: goal must be exact",
            solver.name()
        );
        assert!(
            bounded.stats().steps < full.stats().steps,
            "{}: goal-bounded {} steps vs full {} — no early exit",
            solver.name(),
            bounded.stats().steps,
            full.stats().steps
        );
        assert_eq!(full.dist()[n as usize - 1], 255 + 255, "sanity: far corner");
    }
}

/// Tentpole acceptance: a `OneToMany` query with k goals performs exactly
/// **one** solve (asserted via the scratch and `BatchStats` counters) and
/// its per-goal distances and paths are bit-identical to the k
/// `PointToPoint` queries it replaces — for every algorithm, engine, and
/// heap, preprocessed solvers included.
#[test]
fn one_to_many_matches_point_to_point_bit_identically() {
    let g = weighted(21);
    let n = g.num_vertices() as u32;
    let goals = [n - 1, 3, n / 2, n / 3, 3]; // duplicates + arbitrary order
    for solver in weighted_solvers(&g) {
        let mut scratch = SolverScratch::new();
        let fan = solver.execute(&Query::one_to_many(0, goals).with_paths(), &mut scratch);
        assert_eq!(
            scratch.solves(),
            1,
            "{}: {} goals must cost exactly one solve",
            solver.name(),
            goals.len()
        );
        for &goal in &goals {
            let p2p = solver
                .execute(&Query::point_to_point(0, goal).with_paths(), &mut SolverScratch::new());
            assert_eq!(
                fan.goal_path_to(goal).as_deref(),
                p2p.goal_path().as_deref(),
                "{}: goal {goal} path diverged from the point-to-point answer",
                solver.name()
            );
            assert_eq!(
                fan.goal_distances()[goals.iter().position(|&t| t == goal).unwrap()],
                p2p.goal_distance(),
                "{}: goal {goal} distance diverged",
                solver.name()
            );
        }
        // The counters agree: a one-query batch executes one solve.
        let outcome = QueryBatch::new(&[Query::one_to_many(0, goals)]).execute(&*solver);
        assert_eq!(outcome.stats.executed_solves, 1, "{}", solver.name());
        assert_eq!(outcome.stats.one_to_many, 1, "{}", solver.name());
        assert_eq!(outcome.stats.goals_requested, goals.len(), "{}", solver.name());
        assert_eq!(outcome.stats.goals_reached, goals.len(), "{}", solver.name());
    }
    // Unit-weight solvers: same contract on hop distances.
    let g = graph::gen::grid2d(12, 12);
    for solver in unit_solvers(&g) {
        let goals = [143u32, 7, 60];
        let mut scratch = SolverScratch::new();
        let fan = solver.execute(&Query::one_to_many(0, goals).with_paths(), &mut scratch);
        assert_eq!(scratch.solves(), 1, "{}", solver.name());
        for &goal in &goals {
            let p2p = solver
                .execute(&Query::point_to_point(0, goal).with_paths(), &mut SolverScratch::new());
            assert_eq!(fan.goal_path_to(goal), p2p.goal_path(), "{}", solver.name());
            assert_eq!(fan.dist()[goal as usize], p2p.dist()[goal as usize], "{}", solver.name());
        }
    }
}

/// `ManyToMany` tables equal their row-wise `OneToMany` decomposition —
/// same distances, same paths, one row per source in request order.
#[test]
fn many_to_many_matches_rowwise_one_to_many() {
    let g = weighted(34);
    let n = g.num_vertices() as u32;
    let sources = [0u32, n / 2, n - 1];
    let goals = [3u32, n / 4, n - 2];
    for solver in weighted_solvers(&g) {
        let table = solver
            .execute(&Query::many_to_many(sources, goals).with_paths(), &mut SolverScratch::new());
        assert_eq!(table.rows().len(), sources.len(), "{}", solver.name());
        for (i, &s) in sources.iter().enumerate() {
            let row = solver
                .execute(&Query::one_to_many(s, goals).with_paths(), &mut SolverScratch::new());
            assert_eq!(
                table.rows()[i].dist,
                row.result().dist,
                "{}: row {i} diverged from its one-to-many solve",
                solver.name()
            );
            for &goal in &goals {
                assert_eq!(
                    table.path_in_row(i, goal),
                    row.goal_path_to(goal),
                    "{}: row {i} goal {goal} path diverged",
                    solver.name()
                );
            }
        }
        assert_eq!(
            table.distance_table(),
            sources
                .iter()
                .map(|&s| {
                    let full = solver.execute(&Query::single_source(s), &mut SolverScratch::new());
                    goals.iter().map(|&t| Some(full.dist()[t as usize])).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
            "{}: table cells must be exact",
            solver.name()
        );
    }
}

/// Tentpole acceptance: `goal_path` on a *preprocessed* solver returns an
/// exact input-graph route — every hop is an edge of the input `CsrGraph`
/// (not merely of the shortcut-augmented graph) and the weights telescope
/// to the exact goal distance. Covers point-to-point and one-to-many, with
/// radius-stepping and baseline solvers behind the preprocessing, plus the
/// `RSP3` cache round-trip.
#[test]
fn preprocessed_goal_paths_ride_input_graph_edges() {
    let g = weighted(55);
    let n = g.num_vertices() as u32;
    let cache = std::env::temp_dir().join(format!("rs_rsp3_{}_{:p}.bin", std::process::id(), &g));
    std::fs::remove_file(&cache).ok();
    let solvers: Vec<Box<dyn SsspSolver + '_>> = vec![
        SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 16)).build(),
        SolverBuilder::new(&g).preprocess(PreprocessConfig::new(3, 24)).build(),
        SolverBuilder::new(&g)
            .algorithm(Algorithm::Dijkstra)
            .preprocess(PreprocessConfig::new(2, 12))
            .build(),
        SolverBuilder::new(&g)
            .algorithm(Algorithm::DeltaStepping { delta: 2_000 })
            .preprocess(PreprocessConfig::new(1, 10))
            .build(),
        // Served from the RSP3 cache (build + reload): expansion chains
        // must survive the round-trip.
        SolverBuilder::new(&g).preprocess_cached(&cache, PreprocessConfig::new(2, 16)).build(),
        SolverBuilder::new(&g).preprocess_cached(&cache, PreprocessConfig::new(2, 16)).build(),
    ];
    let reference = SolverBuilder::new(&g).build();
    for solver in &solvers {
        assert!(
            solver.graph().num_edges() > g.num_edges(),
            "{}: preprocessing must add shortcuts for this test to bite",
            solver.name()
        );
        for (s, t) in [(0u32, n - 1), (n / 2, 1), (7, n / 3)] {
            let mut scratch = SolverScratch::new();
            let resp = solver.execute(&Query::point_to_point(s, t).with_paths(), &mut scratch);
            let path = resp.goal_path().expect("connected grid");
            assert_eq!((path[0], *path.last().unwrap()), (s, t), "{}", solver.name());
            let full = reference.execute(&Query::single_source(s), &mut scratch);
            let mut acc = 0u64;
            for w in path.windows(2) {
                let weight = g.arc_weight(w[0], w[1]).unwrap_or_else(|| {
                    panic!(
                        "{}: hop {} -> {} is not an edge of the INPUT graph",
                        solver.name(),
                        w[0],
                        w[1]
                    )
                });
                acc += weight as u64;
            }
            assert_eq!(
                acc,
                full.dist()[t as usize],
                "{}: input-graph route must telescope to the exact distance",
                solver.name()
            );
        }
        // One-to-many paths expand the same way.
        let goals = [n - 1, 1, n / 2];
        let fan =
            solver.execute(&Query::one_to_many(0, goals).with_paths(), &mut SolverScratch::new());
        for &t in &goals {
            let path = fan.goal_path_to(t).expect("connected grid");
            for w in path.windows(2) {
                assert!(
                    g.arc_weight(w[0], w[1]).is_some(),
                    "{}: one-to-many hop {} -> {} not in the input graph",
                    solver.name(),
                    w[0],
                    w[1]
                );
            }
        }
    }
    std::fs::remove_file(&cache).ok();
}

/// `Preprocessed` and the builder's preprocessed radius-stepping solver run
/// one shared `execute` body, so on the same (k, ρ) preprocessing they
/// answer every shape identically: distances, counters, trace presence
/// and distance tables. Goal paths must match by endpoints and telescope
/// to the goal distance over input-graph edges; exact vertex sequences are
/// compared only at one thread, because which of several equal-cost
/// parents wins depends on the schedule at two or more.
#[test]
fn preprocessed_and_builder_solver_answer_identically() {
    let w = |g: &CsrGraph, seed| graph::weights::reweight(g, WeightModel::paper_weighted(), seed);
    let cases = [
        (w(&graph::gen::grid2d(20, 20), 3), PreprocessConfig::new(1, 16)),
        (w(&graph::gen::scale_free(500, 3, 5), 6), PreprocessConfig::new(3, 12)),
    ];
    for (g, cfg) in &cases {
        let n = g.num_vertices() as u32;
        let pre = Preprocessed::build(g, cfg);
        let built = SolverBuilder::new(g).preprocess(*cfg).radius_stepping_solver_from_algorithm();
        let goals = [n - 1, n / 3, 7];
        let weight = |h: &[VertexId]| Dist::from(g.arc_weight(h[0], h[1]).expect("input edge"));
        let mut scratch = SolverScratch::new();
        for q in [
            Query::single_source(0),
            Query::single_source(n / 2).with_paths(),
            Query::point_to_point(0, n - 1).with_paths(),
            Query::one_to_many(n / 2, goals).with_paths(),
            Query::many_to_many([0, n / 2, n - 1], goals).with_paths(),
            Query::point_to_point(n - 1, 3).with_trace(),
        ] {
            let (a, b) = (pre.execute(&q, &mut scratch), built.execute(&q, &mut scratch));
            let ctx = format!("n = {n}, {:?}", q.shape);
            assert_eq!(a.distance_table(), b.distance_table(), "{ctx}");
            let key = |r: &SsspResult| {
                let s = &r.stats;
                (r.dist.clone(), s.steps, s.substeps, s.relaxed_edges, s.settled, s.trace.is_some())
            };
            for (row, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
                assert_eq!(key(ra), key(rb), "{ctx}, row {row}");
                assert_eq!(ra.stats.trace.is_some(), q.want_trace, "{ctx}, row {row}");
                let targets = if q.is_goal_bounded() { q.goals() } else { &goals[..] };
                for &t in targets {
                    let (pa, pb) = (a.path_in_row(row, t), b.path_in_row(row, t));
                    assert_eq!((pa.is_some(), pb.is_some()), (q.want_paths, q.want_paths), "{ctx}");
                    for path in pa.iter().chain(&pb) {
                        let ends = (path[0], *path.last().unwrap());
                        assert_eq!(ends, (q.sources()[row], t), "{ctx}, row {row}");
                        let length: Dist = path.windows(2).map(weight).sum();
                        assert_eq!(length, ra.dist[t as usize], "{ctx}, row {row}, goal {t}");
                    }
                    assert_eq!(pa, pb, "{ctx}, row {row}, goal {t}");
                }
            }
        }
    }
}

/// Mixed batches are exact per slot: every response equals a fresh
/// execution of its query, across shapes and solvers.
#[test]
fn mixed_query_batches_match_fresh_executions() {
    let g = weighted(13);
    let n = g.num_vertices() as u32;
    let queries: Vec<Query> = vec![
        Query::point_to_point(0, n - 1).with_paths(),
        Query::single_source(5),
        Query::point_to_point(0, n - 1).with_paths(), // dup
        Query::point_to_point(n / 2, 3),
        Query::single_source(5), // dup
        Query::point_to_point(0, 0),
        Query::one_to_many(7, [n - 1, 3]).with_paths(),
        Query::one_to_many(7, [3, n - 1]).with_paths(), // dup by canonical goals
        Query::many_to_many([0, 9], [n / 2, n - 1]),
    ];
    for solver in weighted_solvers(&g).into_iter().take(6) {
        let outcome = QueryBatch::new(&queries).execute(&*solver);
        assert_eq!(outcome.responses.len(), queries.len());
        assert_eq!(outcome.stats.unique_solves, 6, "{}", solver.name());
        assert_eq!(outcome.stats.point_to_point, 4, "{}", solver.name());
        assert_eq!(outcome.stats.one_to_many, 2, "{}", solver.name());
        assert_eq!(outcome.stats.many_to_many, 1, "{}", solver.name());
        // 4 p2p goals + 2×2 one-to-many goals + 2 rows × 2 table goals,
        // all reachable on the connected grid.
        assert_eq!(outcome.stats.goals_requested, 4 + 4 + 4, "{}", solver.name());
        assert_eq!(outcome.stats.goals_reached, 4 + 4 + 4, "{}", solver.name());
        // 5 single-row uniques + the 2-row table.
        assert_eq!(outcome.stats.executed_solves, 5 + 2, "{}", solver.name());
        for (resp, q) in outcome.responses.iter().zip(&queries) {
            assert_eq!(resp.query, *q, "{}: response/query misalignment", solver.name());
            let fresh = solver.execute(q, &mut SolverScratch::new());
            assert_eq!(resp.dist(), fresh.dist(), "{}: {:?}", solver.name(), q.shape);
            assert_eq!(
                resp.distance_table(),
                fresh.distance_table(),
                "{}: {:?}",
                solver.name(),
                q.shape
            );
            if q.want_paths && q.is_goal_bounded() {
                assert_eq!(
                    resp.goal_paths(),
                    fresh.goal_paths(),
                    "{}: {:?}",
                    solver.name(),
                    q.shape
                );
            }
        }
    }
}

/// Serving acceptance: repeated `ManyToMany` tables draw per-task
/// scratches from a [`core::ScratchPool`] — after the first table has
/// populated the pool, further identical tables create **zero** new
/// scratches (`created()` stabilises at peak task concurrency) while
/// every row still reports `cold_solves == 0`.
#[test]
fn repeated_tables_reuse_pooled_scratches() {
    let g = weighted(77);
    let n = g.num_vertices() as u32;
    let query = Query::many_to_many([0, n / 3, n / 2, n - 1], [1, n / 4, n - 2]);
    for solver in weighted_solvers(&g).into_iter().take(4) {
        let pool = core::ScratchPool::new();
        // How many pool tasks one table spreads over depends on the
        // schedule (a fast task can claim every row), so fill the pool to
        // the peak task concurrency first: at most one scratch per thread.
        drop((0..par::num_threads()).map(|_| pool.checkout()).collect::<Vec<_>>());
        let reference = solver.execute(&query, &mut SolverScratch::new());
        let _first = core::execute_many_to_many_pooled(&*solver, &query, &pool);
        let created_after_first = pool.created();
        assert!(created_after_first >= 1, "{}", solver.name());
        assert!(
            created_after_first as usize <= par::num_threads(),
            "{}: at most one scratch per pool task",
            solver.name()
        );
        for round in 0..6 {
            let table = core::execute_many_to_many_pooled(&*solver, &query, &pool);
            assert_eq!(
                pool.created(),
                created_after_first,
                "{}: round {round} created a scratch despite the pool",
                solver.name()
            );
            assert_eq!(
                table.distance_table(),
                reference.distance_table(),
                "{}: pooled table diverged",
                solver.name()
            );
            // Pooled scratches are pre-sized by their previous use: every
            // row runs warm.
            let mut stats = BatchStats::default();
            stats.absorb_unique(&table);
            assert_eq!(stats.cold_solves, 0, "{}: round {round}", solver.name());
            assert_eq!(stats.scratch_reuses, 4, "{}: round {round}", solver.name());
        }
        assert!(pool.reused() > 0, "{}", solver.name());
    }
}
