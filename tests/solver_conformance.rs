//! Trait-level conformance suite: every `SsspSolver` the builder can
//! construct must satisfy the same contract on random weighted and
//! unit-weight graphs —
//!
//! * a `single_source` execution produces distances identical to the
//!   Dijkstra reference;
//! * a `point_to_point` execution settles the goal exactly and returns
//!   upper bounds elsewhere (the full solve's settled prefix is preserved);
//! * an all-sources `QueryBatch` matches per-source executions,
//!   deduplicates invisibly, and reuses per-worker scratch state (no
//!   working-array allocation after warmup);
//! * executions on one long-lived scratch are bit-identical to fresh
//!   scratches, for every algorithm × heap — interleaved, so any state
//!   leaking from a previous solve is caught;
//! * recorded parent trees telescope to the distances.
//!
//! Batch results are deterministic for any pool size (the engines resolve
//! relaxation races to the same fixpoint), so the RS_NUM_THREADS=1 and
//! nproc runs of this suite in CI's `batch` job assert the sequential ==
//! parallel regression by transitivity through the per-source reference.

use radius_stepping::prelude::*;

/// Random graph families (seeded, so failures reproduce).
fn weighted_graphs() -> Vec<(String, CsrGraph)> {
    let w = |g: &CsrGraph, s| graph::weights::reweight(g, WeightModel::paper_weighted(), s);
    let mut graphs = Vec::new();
    for seed in [1u64, 2] {
        graphs.push((format!("grid/{seed}"), w(&graph::gen::grid2d(11, 12), seed)));
        graphs.push((
            format!("scale_free/{seed}"),
            w(&graph::gen::scale_free(250, 3, seed), seed + 10),
        ));
        graphs.push((
            format!("erdos_renyi/{seed}"),
            w(&graph::gen::erdos_renyi(160, 420, seed), seed + 20),
        ));
        graphs.push((format!("road/{seed}"), w(&graph::gen::road_network(13, seed), seed + 30)));
    }
    graphs
}

fn unit_graphs() -> Vec<(String, CsrGraph)> {
    vec![
        ("grid".into(), graph::gen::grid2d(14, 13)),
        ("scale_free".into(), graph::gen::scale_free(300, 4, 6)),
        ("road".into(), graph::gen::road_network(14, 8)),
    ]
}

/// Every weighted-capable algorithm family, spanning the paper's spectrum.
fn weighted_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Zero },
        Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Infinite },
        Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Constant(3_000) },
        Algorithm::Dijkstra,
        Algorithm::DeltaStepping { delta: 1_111 },
        Algorithm::DeltaStepping { delta: 50_000 },
        Algorithm::BellmanFord,
    ]
}

/// Builders for every solver under test, including preprocessed variants.
fn weighted_solvers<'g>(g: &'g CsrGraph) -> Vec<Box<dyn SsspSolver + 'g>> {
    let mut solvers: Vec<Box<dyn SsspSolver + 'g>> = weighted_algorithms()
        .into_iter()
        .map(|algorithm| SolverBuilder::new(g).algorithm(algorithm).build())
        .collect();
    // Preprocessing attached to radius stepping (radii replaced by r_rho)
    // and to a baseline (runs on the augmented graph).
    solvers.push(SolverBuilder::new(g).preprocess(PreprocessConfig::new(1, 12)).build());
    solvers.push(
        SolverBuilder::new(g)
            .algorithm(Algorithm::RadiusStepping {
                engine: EngineKind::Frontier,
                radii: Radii::Zero,
            })
            .preprocess(PreprocessConfig::new(2, 10))
            .build(),
    );
    solvers.push(
        SolverBuilder::new(g)
            .algorithm(Algorithm::DeltaStepping { delta: 2_500 })
            .preprocess(PreprocessConfig::new(1, 8))
            .build(),
    );
    solvers
}

#[test]
fn solve_matches_dijkstra_on_weighted_graphs() {
    for (name, g) in weighted_graphs() {
        let source = (g.num_vertices() / 3) as u32;
        let reference = baselines::dijkstra_default(&g, source);
        let mut scratch = SolverScratch::new();
        for solver in weighted_solvers(&g) {
            let out = solver.execute(&Query::single_source(source), &mut scratch);
            assert_eq!(out.dist(), reference, "{name}: {}", solver.name());
        }
    }
}

#[test]
fn solve_matches_bfs_on_unit_graphs() {
    for (name, g) in unit_graphs() {
        let source = 2u32;
        let reference = baselines::bfs_seq(&g, source);
        let mut solvers = weighted_solvers(&g);
        solvers.push(SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build());
        solvers.push(
            SolverBuilder::new(&g)
                .algorithm(Algorithm::RadiusStepping {
                    engine: EngineKind::Unweighted,
                    radii: Radii::Constant(2),
                })
                .build(),
        );
        let mut scratch = SolverScratch::new();
        for solver in solvers {
            let out = solver.execute(&Query::single_source(source), &mut scratch);
            assert_eq!(out.dist(), reference, "{name}: {}", solver.name());
        }
    }
}

#[test]
fn point_to_point_matches_full_solve_prefix() {
    for (name, g) in weighted_graphs().into_iter().take(4) {
        let source = 0u32;
        let n = g.num_vertices() as u32;
        let mut scratch = SolverScratch::new();
        for solver in weighted_solvers(&g) {
            let full = solver.execute(&Query::single_source(source), &mut scratch);
            for goal in [source, n / 4, n / 2, n - 1] {
                let bounded = solver.execute(&Query::point_to_point(source, goal), &mut scratch);
                assert_eq!(
                    bounded.dist()[goal as usize],
                    full.dist()[goal as usize],
                    "{name}: {} goal {goal} must be exact",
                    solver.name()
                );
                assert_eq!(bounded.dist()[source as usize], 0, "{name}: {}", solver.name());
                for (v, (&b, &f)) in bounded.dist().iter().zip(full.dist()).enumerate() {
                    assert!(
                        b >= f,
                        "{name}: {} vertex {v}: goal-bounded {b} below true distance {f}",
                        solver.name()
                    );
                }
            }
        }
    }
}

#[test]
fn solve_batch_matches_per_source_solves() {
    for (name, g) in weighted_graphs().into_iter().take(3) {
        let n = g.num_vertices() as u32;
        let sources: Vec<VertexId> = (0..12).map(|i| i * (n / 12)).collect();
        let mut scratch = SolverScratch::new();
        for solver in weighted_solvers(&g) {
            let batch = QueryBatch::from_sources(&sources).execute(&*solver).responses;
            assert_eq!(batch.len(), sources.len(), "{name}: {}", solver.name());
            for (out, &s) in batch.iter().zip(&sources) {
                let reference = solver.execute(&Query::single_source(s), &mut scratch);
                assert_eq!(out.dist(), reference.dist(), "{name}: {} source {s}", solver.name());
            }
        }
    }
}

/// The stale-state-leak hunt: ONE scratch serves interleaved solves from
/// different sources — with revisits — for every solver family (including
/// every Dijkstra heap). Any distance, bitset, heap or bucket entry
/// surviving a previous solve shows up as a diverging result here.
#[test]
fn interleaved_scratch_reuse_is_bit_identical() {
    let (name, g) = weighted_graphs().swap_remove(2);
    let n = g.num_vertices() as u32;
    let schedule: Vec<VertexId> = vec![0, n - 1, n / 2, 0, 7 % n, n - 1, 3 % n];
    for solver in weighted_solvers(&g) {
        let mut scratch = SolverScratch::new();
        for (i, &s) in schedule.iter().enumerate() {
            let q = Query::single_source(s);
            let warm = solver.execute(&q, &mut scratch);
            let fresh = solver.execute(&q, &mut SolverScratch::new());
            assert_eq!(
                warm.dist(),
                fresh.dist(),
                "{name}: {} solve {i} from {s} diverged on a reused scratch",
                solver.name()
            );
            let (warm, fresh) = (warm.stats(), fresh.stats());
            assert_eq!(warm.steps, fresh.steps, "{name}: {}", solver.name());
            assert_eq!(warm.substeps, fresh.substeps, "{name}: {}", solver.name());
            assert_eq!(warm.settled, fresh.settled, "{name}: {}", solver.name());
            if i > 0 {
                assert!(
                    warm.scratch_reused,
                    "{name}: {} solve {i} reallocated on a warm scratch",
                    solver.name()
                );
            }
        }
    }
}

/// The same hunt on unit-weight graphs for the BFS-only solvers.
#[test]
fn interleaved_scratch_reuse_on_unit_graphs() {
    let (name, g) = ("grid".to_string(), graph::gen::grid2d(14, 13));
    let solvers: Vec<Box<dyn SsspSolver>> = vec![
        SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build(),
        SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping {
                engine: EngineKind::Unweighted,
                radii: Radii::Constant(2),
            })
            .build(),
    ];
    for solver in solvers {
        let mut scratch = SolverScratch::new();
        for (i, s) in [0u32, 181, 90, 0, 11].into_iter().enumerate() {
            let q = Query::single_source(s);
            let warm = solver.execute(&q, &mut scratch);
            let fresh = solver.execute(&q, &mut SolverScratch::new());
            assert_eq!(warm.dist(), fresh.dist(), "{name}: {} solve {i}", solver.name());
            assert_eq!(warm.stats().scratch_reused, i > 0, "{name}: {}", solver.name());
        }
    }
}

/// Duplicate-heavy batches: dedup answers each duplicate by cloning one
/// unique solve, which must be observationally invisible across every
/// solver; empty and singleton batches behave.
#[test]
fn solve_batch_dedup_is_invisible() {
    let (name, g) = weighted_graphs().swap_remove(0);
    let n = g.num_vertices() as u32;
    let sources: Vec<VertexId> = vec![4, n / 2, 4, 4, n - 1, n / 2, 4];
    let mut scratch = SolverScratch::new();
    for solver in weighted_solvers(&g).into_iter().take(6) {
        let batch = QueryBatch::from_sources(&sources).execute(&*solver).responses;
        assert_eq!(batch.len(), sources.len());
        for (out, &s) in batch.iter().zip(&sources) {
            let reference = solver.execute(&Query::single_source(s), &mut scratch);
            assert_eq!(out.dist(), reference.dist(), "{name}: {} source {s}", solver.name());
        }
        let empty = QueryBatch::from_sources(&[]).execute(&*solver);
        assert!(empty.responses.is_empty(), "{name}: {}", solver.name());
        let single = QueryBatch::from_sources(&[n / 3]).execute(&*solver).responses;
        assert_eq!(single.len(), 1);
        let reference = solver.execute(&Query::single_source(n / 3), &mut scratch);
        assert_eq!(single[0].dist(), reference.dist(), "{name}: {}", solver.name());
    }
}

/// The acceptance bar: a 64-source batch over a ~100k-vertex graph must
/// perform no per-source *working* distance-array allocation after warmup
/// — i.e. at most one cold solve per pool task, everything else on reused
/// scratch (`StepStats::scratch_reused`) — while staying bit-identical to
/// per-source solves. (The per-result output copy in `SsspResult::dist` is
/// the API's ownership contract and is not a working array.)
#[test]
fn batch_on_100k_graph_reuses_scratch_after_warmup() {
    let g = graph::gen::grid2d(320, 320); // 102 400 vertices
    assert!(g.num_vertices() >= 100_000);
    let sources: Vec<VertexId> =
        (0..64u32).map(|i| (i * 1_601) % g.num_vertices() as u32).collect();
    let solvers: Vec<Box<dyn SsspSolver>> = vec![
        SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping {
                engine: EngineKind::Frontier,
                radii: Radii::Constant(40),
            })
            .build(),
        SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping {
                engine: EngineKind::Unweighted,
                radii: Radii::Constant(40),
            })
            .build(),
        SolverBuilder::new(&g).algorithm(Algorithm::Dijkstra).build(),
        SolverBuilder::new(&g).algorithm(Algorithm::DeltaStepping { delta: 3 }).build(),
    ];
    let threads = par::num_threads();
    for solver in solvers {
        let outcome = QueryBatch::from_sources(&sources).execute(&*solver);
        assert_eq!(outcome.stats.solves, 64, "{}", solver.name());
        assert_eq!(outcome.stats.unique_solves, 64, "{}", solver.name());
        assert!(
            outcome.stats.cold_solves <= threads.min(64),
            "{}: {} cold solves for {} pool tasks — per-source allocation after warmup",
            solver.name(),
            outcome.stats.cold_solves,
            threads
        );
        assert_eq!(
            outcome.stats.scratch_reuses,
            64 - outcome.stats.cold_solves,
            "{}",
            solver.name()
        );
        // Spot-check bit-identity against cold per-source solves.
        for &i in &[0usize, 31, 63] {
            let cold = solver.execute(&Query::single_source(sources[i]), &mut SolverScratch::new());
            assert_eq!(
                outcome.responses[i].dist(),
                cold.dist(),
                "{} source {}",
                solver.name(),
                sources[i]
            );
        }
    }
}

/// An all-sources batch must equal the sequential per-source reference at every
/// pool size. RS_NUM_THREADS is pinned once at pool creation, so the 1-
/// vs-nproc comparison runs as two processes (CI's `batch` job); within
/// one process this asserts batch == sequential reference, which makes the
/// two CI runs transitively equal.
#[test]
fn solve_batch_equals_sequential_reference_at_any_thread_count() {
    let (name, g) = weighted_graphs().swap_remove(1);
    let n = g.num_vertices() as u32;
    let sources: Vec<VertexId> = (0..16).map(|i| (i * 37) % n).collect();
    for solver in weighted_solvers(&g) {
        let reference: Vec<Vec<Dist>> =
            sources.iter().map(|&s| baselines::dijkstra_default(solver.graph(), s)).collect();
        let batch = QueryBatch::from_sources(&sources).execute(&*solver).responses;
        for ((out, &s), expect) in batch.iter().zip(&sources).zip(&reference) {
            assert_eq!(
                out.dist(),
                expect,
                "{name}: {} source {s} (RS_NUM_THREADS={})",
                solver.name(),
                par::num_threads()
            );
        }
    }
}

#[test]
fn recorded_parents_telescope_to_distances() {
    for (name, g) in weighted_graphs().into_iter().take(3) {
        let source = 1u32;
        let mut scratch = SolverScratch::new();
        for algorithm in weighted_algorithms() {
            let solver = SolverBuilder::new(&g).algorithm(algorithm).record_parents(true).build();
            let out = solver.execute(&Query::single_source(source), &mut scratch).into_result();
            let parent = out.parent.as_ref().expect("parents recorded");
            assert_eq!(parent[source as usize], source, "{name}: {}", solver.name());
            for t in 0..g.num_vertices() as u32 {
                if out.dist[t as usize] == INF {
                    assert_eq!(parent[t as usize], u32::MAX);
                    assert!(out.extract_path(t).is_none());
                    continue;
                }
                let path = out
                    .extract_path(t)
                    .unwrap_or_else(|| panic!("{name}: {} lost path to {t}", solver.name()));
                assert_eq!(path[0], source);
                assert_eq!(*path.last().unwrap(), t);
                let mut acc = 0u64;
                for w in path.windows(2) {
                    acc += solver.graph().arc_weight(w[0], w[1]).expect("path edge") as u64;
                }
                assert_eq!(acc, out.dist[t as usize], "{name}: {} path to {t}", solver.name());
            }
        }
    }
}

#[test]
fn goal_bounded_path_extraction_reaches_goal() {
    let g =
        graph::weights::reweight(&graph::gen::grid2d(12, 12), WeightModel::paper_weighted(), 77);
    let goal = 143u32;
    let mut scratch = SolverScratch::new();
    for algorithm in weighted_algorithms() {
        let solver = SolverBuilder::new(&g).algorithm(algorithm).record_parents(true).build();
        let out = solver.execute(&Query::point_to_point(0, goal), &mut scratch);
        let path = out
            .extract_path(goal)
            .unwrap_or_else(|| panic!("{}: goal path must survive early exit", solver.name()));
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), goal);
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += solver.graph().arc_weight(w[0], w[1]).expect("path edge") as u64;
        }
        assert_eq!(acc, out.dist()[goal as usize], "{}", solver.name());
    }
}
