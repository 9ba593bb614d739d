//! Point-to-point mode conformance: [`P2pMode::Bidirectional`] and
//! [`P2pMode::GoalDirected`] answer `execute(PointToPoint)` through the
//! same entry point as the forward default and must satisfy the same
//! contract —
//!
//! * the goal distance is **bit-identical** to the forward mode and the
//!   full solve, for every algorithm, on random and grid graphs (every
//!   solver `build()` constructs dispatches the same resolved kernel);
//! * every finite distance entry is a true upper bound (the kernels
//!   never publish an unreachable-looking value below the truth);
//! * warm scratches are bit-identical to cold ones, counters included;
//! * unreachable goals terminate in both modes (ALT with zero relaxed
//!   edges when a landmark proves the separation);
//! * extracted paths ride input-graph edges and telescope — including
//!   through a preprocessed solver's shortcut expander — and are the
//!   distance walk every other solver returns;
//! * the acceptance bar: on a 256×256 grid with far-apart endpoints,
//!   goal-directed search relaxes **≥ 5×** fewer edges than the forward
//!   early-exit, and bidirectional strictly fewer (from
//!   `StepStats::relaxed_edges`), for radius stepping, Dijkstra and
//!   ∆-stepping alike.
//!
//! Runs in CI at 1 and nproc threads (the `queries` job), like the other
//! conformance suites.

use radius_stepping::prelude::*;

/// Weighted grid (seeded, failures reproduce).
fn weighted_grid(seed: u64) -> CsrGraph {
    graph::weights::reweight(&graph::gen::grid2d(11, 12), WeightModel::paper_weighted(), seed)
}

/// Weighted random (scale-free) graph.
fn weighted_random(seed: u64) -> CsrGraph {
    graph::weights::reweight(
        &graph::gen::scale_free(400, 4, seed),
        WeightModel::paper_weighted(),
        seed,
    )
}

/// The algorithm spectrum the mode matrix runs over: radius stepping at
/// two radii, Dijkstra and ∆-stepping (each honours the configured mode).
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::RadiusStepping { radii: Radii::Zero },
        Algorithm::RadiusStepping { radii: Radii::Constant(3_000) },
        Algorithm::Dijkstra,
        Algorithm::DeltaStepping { delta: 2_500 },
    ]
}

const MODES: [P2pMode; 3] = [P2pMode::Forward, P2pMode::Bidirectional, P2pMode::GoalDirected];

fn mode_name(mode: P2pMode) -> &'static str {
    match mode {
        P2pMode::Forward => "forward",
        P2pMode::Bidirectional => "bidirectional",
        P2pMode::GoalDirected => "goal-directed",
    }
}

/// Warm-vs-cold, goal-exactness, and upper-bound battery for one solver.
fn assert_mode_conformance(
    name: &str,
    solver: &dyn SsspSolver,
    mode: P2pMode,
    full: &[Dist],
    pairs: &[(u32, u32)],
) {
    let mut scratch = SolverScratch::new();
    solver.warm_scratch(&mut scratch);
    for &(source, goal) in pairs {
        let query = Query::point_to_point(source, goal);
        let warm = solver.execute(&query, &mut scratch);
        let cold = solver.execute(&query, &mut SolverScratch::new());
        assert_eq!(
            warm.dist(),
            cold.dist(),
            "{name}/{}/{}: {source}->{goal} warm diverged from cold",
            solver.name(),
            mode_name(mode),
        );
        let mut warm_stats = warm.stats().clone();
        let mut cold_stats = cold.stats().clone();
        warm_stats.scratch_reused = false;
        cold_stats.scratch_reused = false;
        assert_eq!(
            warm_stats,
            cold_stats,
            "{name}/{}/{}: {source}->{goal} warm/cold counters diverge",
            solver.name(),
            mode_name(mode),
        );
        if source == 0 {
            assert_eq!(
                warm.dist()[goal as usize],
                full[goal as usize],
                "{name}/{}/{}: goal {goal} must be settled exactly",
                solver.name(),
                mode_name(mode),
            );
            for (v, (&b, &f)) in warm.dist().iter().zip(full).enumerate() {
                assert!(
                    b >= f,
                    "{name}/{}/{}: vertex {v}: entry {b} below true distance {f}",
                    solver.name(),
                    mode_name(mode),
                );
            }
        }
    }
}

/// Goal distances are bit-identical across all three modes, every
/// algorithm, warm and cold, on a random and a grid graph.
#[test]
fn modes_agree_bit_identically_across_algorithms() {
    for (name, g) in [("grid", weighted_grid(3)), ("random", weighted_random(6))] {
        let n = g.num_vertices() as u32;
        let full = SolverBuilder::new(&g)
            .build()
            .execute(&Query::single_source(0), &mut SolverScratch::new());
        let pairs = [(0, n - 1), (0, n / 2), (0, 1), (n / 3, n - 2), (0, 0)];
        for algorithm in algorithms() {
            for mode in MODES {
                let solver =
                    SolverBuilder::new(&g).algorithm(algorithm.clone()).p2p_mode(mode).build();
                assert_mode_conformance(name, &*solver, mode, full.dist(), &pairs);
            }
        }
        // Preprocessed solvers elect landmarks on the (k, ρ)-graph.
        for mode in [P2pMode::Bidirectional, P2pMode::GoalDirected] {
            let solver = SolverBuilder::new(&g)
                .preprocess(PreprocessConfig::new(1, 12))
                .p2p_mode(mode)
                .build();
            let mut scratch = SolverScratch::new();
            solver.warm_scratch(&mut scratch);
            for &(source, goal) in &pairs {
                let resp = solver.execute(&Query::point_to_point(source, goal), &mut scratch);
                let truth = solver
                    .execute(&Query::single_source(source), &mut SolverScratch::new())
                    .dist()[goal as usize];
                assert_eq!(
                    resp.dist()[goal as usize],
                    truth,
                    "{name}/preprocessed/{}: {source}->{goal}",
                    mode_name(mode),
                );
            }
        }
    }
}

/// Paths extracted under both new modes exist, telescope over
/// input-graph edges, and end where they should.
#[test]
fn mode_paths_ride_input_graph_edges() {
    let g = weighted_grid(77);
    let n = g.num_vertices() as u32;
    for mode in [P2pMode::Bidirectional, P2pMode::GoalDirected] {
        for algorithm in [Algorithm::RadiusStepping { radii: Radii::Zero }, Algorithm::Dijkstra] {
            let solver = SolverBuilder::new(&g).algorithm(algorithm.clone()).p2p_mode(mode).build();
            let mut scratch = SolverScratch::new();
            for goal in [n - 1, n / 3, 1] {
                let resp =
                    solver.execute(&Query::point_to_point(0, goal).with_paths(), &mut scratch);
                let path = resp.goal_path().unwrap_or_else(|| {
                    panic!(
                        "{}/{}: goal {goal} reachable but no path",
                        solver.name(),
                        mode_name(mode)
                    )
                });
                assert_eq!(path[0], 0);
                assert_eq!(*path.last().unwrap(), goal);
                let mut acc = 0u64;
                for w in path.windows(2) {
                    acc += g.arc_weight(w[0], w[1]).unwrap_or_else(|| {
                        panic!(
                            "{}/{}: path edge {}->{} not in input graph",
                            solver.name(),
                            mode_name(mode),
                            w[0],
                            w[1]
                        )
                    }) as u64;
                }
                assert_eq!(
                    acc,
                    resp.dist()[goal as usize],
                    "{}/{}: goal {goal} path does not telescope",
                    solver.name(),
                    mode_name(mode),
                );
            }
        }
    }
    // Through a shortcut expander: the reply's path must still be
    // input-graph-exact (unpacked), whatever the mode.
    for mode in [P2pMode::Bidirectional, P2pMode::GoalDirected] {
        let solver =
            SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 10)).p2p_mode(mode).build();
        let resp = solver
            .execute(&Query::point_to_point(0, n - 1).with_paths(), &mut SolverScratch::new());
        let path = resp.goal_path().expect("connected grid");
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += g.arc_weight(w[0], w[1]).unwrap_or_else(|| {
                panic!("preprocessed/{}: shortcut leaked into path", mode_name(mode))
            }) as u64;
        }
        assert_eq!(acc, resp.dist()[(n - 1) as usize], "preprocessed/{}", mode_name(mode));
    }
}

/// Both kernels return the route every other solver returns for the same
/// distances: the walk back from the goal over `dist`
/// (`shortest_path_from_dist`). A unit-weight grid has many equal-length
/// routes between far-apart corners, so a kernel that kept its own search
/// tree would pick a different one.
#[test]
fn mode_paths_are_distance_walks_on_unit_grid() {
    let g = graph::gen::grid2d(30, 30);
    for mode in [P2pMode::Bidirectional, P2pMode::GoalDirected] {
        for algorithm in [Algorithm::RadiusStepping { radii: Radii::Zero }, Algorithm::Dijkstra] {
            let solver = SolverBuilder::new(&g).algorithm(algorithm.clone()).p2p_mode(mode).build();
            let mut scratch = SolverScratch::new();
            for (source, goal) in [(0u32, 899u32), (29, 870), (15, 884), (450, 0)] {
                let resp =
                    solver.execute(&Query::point_to_point(source, goal).with_paths(), &mut scratch);
                assert_eq!(
                    resp.goal_path(),
                    core::stats::shortest_path_from_dist(&g, resp.dist(), goal),
                    "{}/{}: {source}->{goal}",
                    solver.name(),
                    mode_name(mode),
                );
            }
        }
    }
}

/// Unreachable goals terminate in both modes; the landmark separation
/// proof lets ALT answer without relaxing a single edge.
#[test]
fn unreachable_goals_terminate_in_both_modes() {
    let mut b = EdgeListBuilder::new(8);
    b.add_edge(0, 1, 3);
    b.add_edge(1, 2, 4);
    b.add_edge(2, 3, 2);
    b.add_edge(6, 7, 5);
    let g = b.build();
    for mode in [P2pMode::Bidirectional, P2pMode::GoalDirected] {
        for algorithm in [Algorithm::RadiusStepping { radii: Radii::Zero }, Algorithm::Dijkstra] {
            let solver = SolverBuilder::new(&g).algorithm(algorithm.clone()).p2p_mode(mode).build();
            let mut scratch = SolverScratch::new();
            for _ in 0..2 {
                let resp = solver.execute(&Query::point_to_point(0, 6).with_paths(), &mut scratch);
                assert_eq!(resp.dist()[6], INF, "{}/{}", solver.name(), mode_name(mode));
                assert_eq!(resp.goal_distance(), None, "{}/{}", solver.name(), mode_name(mode));
                assert!(resp.goal_path().is_none(), "{}/{}", solver.name(), mode_name(mode));
                assert_eq!(resp.dist()[0], 0, "{}/{}", solver.name(), mode_name(mode));
                if mode == P2pMode::GoalDirected {
                    assert_eq!(
                        resp.stats().relaxed_edges,
                        0,
                        "{}: landmark separation proof must skip the search",
                        solver.name(),
                    );
                }
            }
        }
    }
}

/// The acceptance bar: far-apart endpoints on a 256×256 grid. Forward
/// early-exit floods a ball that covers essentially the whole grid;
/// goal-directed search must scan **at least 5× fewer** edges and
/// bidirectional strictly fewer, all with bit-identical goal distances
/// and input-graph-exact paths.
#[test]
fn goal_directed_relaxes_5x_fewer_edges_on_256_grid() {
    let g =
        graph::weights::reweight(&graph::gen::grid2d(256, 256), WeightModel::paper_weighted(), 42);
    let n = g.num_vertices() as u32;
    let pairs = [(0u32, n - 1), (255u32, n - 256)]; // opposite corners
    for algorithm in [
        Algorithm::RadiusStepping { radii: Radii::Constant(3_000) },
        Algorithm::Dijkstra,
        Algorithm::DeltaStepping { delta: 3_000 },
    ] {
        let forward = SolverBuilder::new(&g).algorithm(algorithm.clone()).build();
        let bidir = SolverBuilder::new(&g)
            .algorithm(algorithm.clone())
            .p2p_mode(P2pMode::Bidirectional)
            .build();
        let alt = SolverBuilder::new(&g)
            .algorithm(algorithm.clone())
            .p2p_mode(P2pMode::GoalDirected)
            .build();
        let mut scratch = SolverScratch::new();
        for &(source, goal) in &pairs {
            let query = Query::point_to_point(source, goal).with_paths();
            let f = forward.execute(&query, &mut scratch);
            let b = bidir.execute(&query, &mut scratch);
            let a = alt.execute(&query, &mut scratch);
            let truth = f.dist()[goal as usize];
            assert_eq!(b.dist()[goal as usize], truth, "{}: bidirectional", forward.name());
            assert_eq!(a.dist()[goal as usize], truth, "{}: goal-directed", forward.name());
            let (rf, rb, ra) =
                (f.stats().relaxed_edges, b.stats().relaxed_edges, a.stats().relaxed_edges);
            assert!(
                ra * 5 <= rf,
                "{}: {source}->{goal}: goal-directed relaxed {ra} edges, forward {rf} — \
                 want at least 5x fewer",
                forward.name(),
            );
            assert!(
                rb < rf,
                "{}: {source}->{goal}: bidirectional relaxed {rb} edges, forward {rf} — \
                 want strictly fewer",
                forward.name(),
            );
            // Input-graph-exact paths from both kernels.
            for (label, resp) in [("bidirectional", &b), ("goal-directed", &a)] {
                let path = resp.goal_path().expect("connected grid");
                let mut acc = 0u64;
                for w in path.windows(2) {
                    acc += g.arc_weight(w[0], w[1]).unwrap_or_else(|| {
                        panic!("{label}: path edge {}->{} not in input graph", w[0], w[1])
                    }) as u64;
                }
                assert_eq!(acc, truth, "{label}: path must telescope to the goal distance");
            }
        }
    }
}
