//! Serving-layer acceptance suite.
//!
//! * cache hits are **bit-identical** to fresh solves, across every
//!   algorithm family × every query shape (including paths);
//! * epoch invalidation forces re-solves and can never serve a stale
//!   entry, even for solves in flight across the bump;
//! * capacity bounds hold (evictions, not growth);
//! * admission lanes reject-with-hint when saturated and isolate shapes;
//! * a lane's `workers` count bounds its concurrent solves, and a
//!   duplicate queued behind its twin is answered from the cache;
//! * shutdown drains: every admitted request is answered;
//! * a seeded cached/uncached interleaving over mixed shapes matches
//!   fresh executions reply-for-reply (the property-style sweep).
//!
//! Runs in CI at `RS_NUM_THREADS=1` and nproc (the `serve` job): lane
//! workers are dedicated threads, so even a single-worker compute pool
//! must serve every test without deadlock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use rs_baselines::solver::BuildSolver;
use rs_core::{
    Algorithm, PreprocessConfig, Query, QueryResponse, Radii, SolverBuilder, SolverScratch,
    SsspSolver,
};
use rs_graph::{CsrGraph, WeightModel};
use rs_serve::{serve, LaneConfig, Reply, ResponseCache, ServerConfig, Shape};

fn weighted(seed: u64) -> CsrGraph {
    rs_graph::weights::reweight(&rs_graph::gen::grid2d(11, 12), WeightModel::paper_weighted(), seed)
}

/// A compact cross-section of the solver space: the frontier engine at
/// two radii, Dijkstra, ∆-stepping, Bellman–Ford, and a preprocessed build.
fn solvers(g: &CsrGraph) -> Vec<Box<dyn SsspSolver + '_>> {
    vec![
        SolverBuilder::new(g).build(),
        SolverBuilder::new(g)
            .algorithm(Algorithm::RadiusStepping { radii: Radii::Constant(3_000) })
            .build(),
        SolverBuilder::new(g).algorithm(Algorithm::Dijkstra).build(),
        SolverBuilder::new(g).algorithm(Algorithm::DeltaStepping { delta: 2_500 }).build(),
        SolverBuilder::new(g).algorithm(Algorithm::BellmanFord).build(),
        SolverBuilder::new(g).preprocess(PreprocessConfig::new(1, 12)).build(),
    ]
}

/// Every shape, paths on where goal-bounded (the stricter comparison).
fn shape_queries(n: u32) -> Vec<Query> {
    vec![
        Query::single_source(0),
        Query::point_to_point(1, n - 1).with_paths(),
        Query::one_to_many(2, [n - 1, 5, n / 2]).with_paths(),
        Query::many_to_many([0, n / 2], [3, n - 2]).with_paths(),
    ]
}

fn assert_payload_identical(name: &str, got: &QueryResponse, fresh: &QueryResponse, q: &Query) {
    assert_eq!(got.dist(), fresh.dist(), "{name}: {:?} dist diverged", q.shape);
    assert_eq!(
        got.distance_table(),
        fresh.distance_table(),
        "{name}: {:?} table diverged",
        q.shape
    );
    if q.want_paths && q.is_goal_bounded() {
        assert_eq!(got.goal_paths(), fresh.goal_paths(), "{name}: {:?} paths diverged", q.shape);
    }
}

/// Cache hits are bit-identical to fresh solves for every solver × shape.
/// The second submit of each query is sequenced after the first's reply,
/// so it deterministically hits the cache.
#[test]
fn cache_hits_bit_identical_across_solvers_and_shapes() {
    let g = weighted(3);
    let n = g.num_vertices() as u32;
    for solver in solvers(&g) {
        let name = solver.name();
        let (_, stats) = serve(&*solver, &ServerConfig::default(), |server| {
            for q in shape_queries(n) {
                let (tx, rx) = mpsc::channel();
                server.submit(q.clone(), tx.clone()).unwrap();
                let first = rx.recv().unwrap();
                assert!(!first.cached, "{name}: first submit must solve");
                server.submit(q.clone(), tx).unwrap();
                let second = rx.recv().unwrap();
                assert!(second.cached, "{name}: repeat submit must hit the cache");
                let fresh = solver.execute(&q, &mut SolverScratch::new());
                assert_payload_identical(&name, &second.response, &fresh, &q);
                assert_payload_identical(&name, &first.response, &fresh, &q);
            }
        });
        assert_eq!(stats.completed(), 8, "{name}");
        assert_eq!(stats.cache.hits, 4, "{name}");
        assert_eq!(
            stats.totals.solves - stats.cache.hits as usize,
            4,
            "{name}: only the four first-submits solved"
        );
        for shape in Shape::ALL {
            let lane = stats.lane(shape);
            assert_eq!(lane.completed, 2, "{name}: {:?}", shape);
            assert_eq!(lane.cache_hits, 1, "{name}: {:?}", shape);
            assert_eq!(lane.latency.count(), 2, "{name}: latency recorded per reply");
            assert!(lane.latency.p99() >= lane.latency.p50(), "{name}");
        }
    }
}

/// Permuted-goal requests share one cache entry: the canonical key at
/// work across batches, not just within one.
#[test]
fn permuted_goals_share_a_cache_entry() {
    let g = weighted(4);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    let (_, stats) = serve(&*solver, &ServerConfig::default(), |server| {
        let (tx, rx) = mpsc::channel();
        server.submit(Query::one_to_many(0, [5, n - 1, 9]), tx.clone()).unwrap();
        let first = rx.recv().unwrap();
        server.submit(Query::one_to_many(0, [9, 5, n - 1, 5]), tx).unwrap();
        let second = rx.recv().unwrap();
        assert!(!first.cached);
        assert!(second.cached, "permuted + duplicated goals still hit");
        assert_eq!(first.response.dist(), second.response.dist());
    });
    assert_eq!(stats.cache.entries, 1);
    assert_eq!(stats.totals.unique_solves, 1);
}

/// Epoch invalidation: hits before, re-solve after, nothing stale ever
/// served.
#[test]
fn epoch_invalidation_forces_resolve() {
    let g = weighted(5);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    let q = Query::point_to_point(0, n - 1);
    let (_, stats) = serve(&*solver, &ServerConfig::default(), |server| {
        let (tx, rx) = mpsc::channel();
        server.submit(q.clone(), tx.clone()).unwrap();
        assert!(!rx.recv().unwrap().cached);
        server.submit(q.clone(), tx.clone()).unwrap();
        assert!(rx.recv().unwrap().cached, "warm before the bump");

        let epoch = server.invalidate_epoch();
        assert_eq!(epoch, 1);
        server.submit(q.clone(), tx.clone()).unwrap();
        let after = rx.recv().unwrap();
        assert!(!after.cached, "post-invalidation request must re-solve");
        server.submit(q.clone(), tx).unwrap();
        assert!(rx.recv().unwrap().cached, "the re-solve re-populates the cache");
    });
    assert_eq!(stats.cache.epoch, 1);
    assert_eq!(stats.totals.unique_solves, 2, "one solve per epoch");
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.expired, 1, "the stale entry was purged lazily");
}

/// A solve that started before an invalidation can never publish a
/// servable entry after it: the direct [`ResponseCache`] contract the
/// server relies on for racing solves.
#[test]
fn in_flight_solve_across_invalidation_stays_stale() {
    let g = weighted(6);
    let solver = SolverBuilder::new(&g).build();
    let cache = ResponseCache::new(64);
    let q = Query::point_to_point(0, 7);
    let pre_epoch = cache.epoch();
    let response = Arc::new(solver.execute(&q, &mut SolverScratch::new()));
    // The "weight update" lands while the solve is in flight…
    cache.invalidate_epoch();
    // …so its insert (tagged with the pre-bump epoch) is unservable.
    cache.insert(&q, response, pre_epoch);
    assert!(cache.get(&q).is_none(), "stale-epoch entry must not serve");
    let stats = cache.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.expired, 1);
}

/// Capacity bounds hold: a stream of distinct queries evicts instead of
/// growing, and the cache stays within its configured size.
#[test]
fn capacity_eviction_bounds_the_cache() {
    let g = weighted(7);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    let capacity = 16; // one entry per shard: heavy eviction pressure
    let config = ServerConfig { cache_capacity: capacity, ..ServerConfig::default() };
    let distinct = 100u32;
    let (_, stats) = serve(&*solver, &config, |server| {
        let (tx, rx) = mpsc::channel();
        for i in 0..distinct {
            server.submit(Query::point_to_point(i % n, (i * 7 + 1) % n), tx.clone()).unwrap();
            rx.recv().unwrap();
        }
    });
    assert!(
        stats.cache.entries <= capacity,
        "cache grew past capacity: {} > {capacity}",
        stats.cache.entries
    );
    assert!(
        stats.cache.evictions >= (distinct as u64) - (capacity as u64),
        "pigeonhole: at least {} evictions, saw {}",
        distinct as u64 - capacity as u64,
        stats.cache.evictions
    );
}

/// `cache_capacity: 0` disables caching entirely: repeats re-solve.
#[test]
fn zero_capacity_disables_the_cache() {
    let g = weighted(8);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    let config = ServerConfig { cache_capacity: 0, ..ServerConfig::default() };
    let (_, stats) = serve(&*solver, &config, |server| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            server.submit(Query::point_to_point(0, n - 1), tx.clone()).unwrap();
            let reply = rx.recv().unwrap();
            assert!(!reply.cached);
        }
    });
    assert_eq!(stats.cache.hits, 0);
    assert_eq!(stats.totals.solves, 3);
}

/// A solver that parks until released — deterministic lane saturation.
struct GatedSolver<'g> {
    inner: Box<dyn SsspSolver + 'g>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl SsspSolver for GatedSolver<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn graph(&self) -> &CsrGraph {
        self.inner.graph()
    }
    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> rs_core::QueryResponse {
        self.release
            .lock()
            .unwrap()
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("gate released");
        self.inner.execute(query, scratch)
    }
}

/// Saturating one lane rejects with a retry hint — and leaves the other
/// lanes serving (shape isolation, no head-of-line blocking).
#[test]
fn saturated_lane_rejects_with_hint_and_does_not_block_other_lanes() {
    let g = weighted(9);
    let n = g.num_vertices() as u32;
    let (gate_tx, gate_rx) = mpsc::channel();
    let solver = GatedSolver {
        inner: SolverBuilder::new(&g).build(),
        release: std::sync::Mutex::new(gate_rx),
    };
    // Tiny point-to-point lane; generous single-source lane.
    let config = ServerConfig {
        point_to_point: LaneConfig::new(2, 1),
        single_source: LaneConfig::new(8, 1),
        ..ServerConfig::default()
    };
    let (_, stats) = serve(&solver, &config, |server| {
        let (tx, rx) = mpsc::channel::<Reply>();
        // Fill the p2p lane: 1 in service (typically) + 2 queued. With a
        // gated solver, by the 4th submit the queue must be full.
        let mut admitted = 0;
        let mut rejection = None;
        for i in 0..8u32 {
            match server.submit(Query::point_to_point(i % n, (i + 1) % n), tx.clone()) {
                Ok(_) => admitted += 1,
                Err(r) => {
                    rejection = Some(r);
                    break;
                }
            }
        }
        let rejection = rejection.expect("a 2-deep lane must saturate within 8 submits");
        assert_eq!(rejection.shape, Shape::PointToPoint);
        assert!(!rejection.closed);
        assert!(rejection.retry_after_us >= 100, "hint has a floor");
        assert!(admitted <= 3, "at most capacity + one-in-service admitted");

        // The sibling lane still admits while p2p is saturated. (Its
        // worker is gated too, but *admission* must be independent.)
        server.submit(Query::single_source(0), tx.clone()).unwrap();

        // Release everything: one gate token per admitted request.
        for _ in 0..admitted + 1 {
            gate_tx.send(()).unwrap();
        }
        let mut replies = 0;
        while replies < admitted + 1 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).expect("drain");
            replies += 1;
        }
        admitted
    });
    assert!(stats.rejected() >= 1);
    assert_eq!(stats.lane(Shape::PointToPoint).rejected, stats.rejected());
    assert_eq!(stats.lane(Shape::SingleSource).rejected, 0);
    assert_eq!(stats.completed(), stats.lanes.iter().map(|l| l.admitted).sum::<u64>());
}

/// Counts concurrent `execute` calls and keeps their peak; each call
/// sleeps briefly so overlapping solves cannot miss each other.
struct ProbeSolver<'g> {
    inner: Box<dyn SsspSolver + 'g>,
    running: AtomicUsize,
    peak: AtomicUsize,
}

impl SsspSolver for ProbeSolver<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn graph(&self) -> &CsrGraph {
        self.inner.graph()
    }
    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> rs_core::QueryResponse {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let response = self.inner.execute(query, scratch);
        self.running.fetch_sub(1, Ordering::SeqCst);
        response
    }
}

/// A lane's `workers` count is its solve concurrency: six distinct
/// misses submitted at once to a one-worker lane never overlap, whatever
/// the compute pool's size.
#[test]
fn one_worker_lane_runs_one_solve_at_a_time() {
    let g = weighted(12);
    let n = g.num_vertices() as u32;
    let solver = ProbeSolver {
        inner: SolverBuilder::new(&g).build(),
        running: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let config = ServerConfig::uniform(LaneConfig::new(16, 1), 64);
    let (_, stats) = serve(&solver, &config, |server| {
        let (tx, rx) = mpsc::channel();
        for i in 0..6u32 {
            server.submit(Query::point_to_point(i, n - 1 - i), tx.clone()).unwrap();
        }
        for _ in 0..6 {
            let reply = rx.recv_timeout(std::time::Duration::from_secs(30)).expect("answered");
            assert!(!reply.cached, "distinct queries all miss");
        }
    });
    assert_eq!(stats.totals.executed_solves, 6);
    assert_eq!(solver.peak.load(Ordering::SeqCst), 1, "a one-worker lane overlapped solves");
}

/// A duplicate admitted right behind its twin waits while the twin
/// solves, then hits the cache: one executed solve for two replies.
/// With the cache disabled, both solve.
#[test]
fn duplicate_behind_its_twin_hits_the_cache() {
    let g = weighted(13);
    let n = g.num_vertices() as u32;
    let q = Query::point_to_point(0, n - 1).with_paths();
    for (cache_capacity, executed) in [(64, 1), (0, 2)] {
        let (gate_tx, gate_rx) = mpsc::channel();
        let solver = GatedSolver {
            inner: SolverBuilder::new(&g).build(),
            release: std::sync::Mutex::new(gate_rx),
        };
        let config = ServerConfig::uniform(LaneConfig::new(16, 1), cache_capacity);
        let (replies, stats) = serve(&solver, &config, |server| {
            let (tx, rx) = mpsc::channel();
            let first = server.submit(q.clone(), tx.clone()).unwrap();
            let second = server.submit(q.clone(), tx).unwrap();
            // Enough tokens for both to solve; a cache hit leaves one over.
            for _ in 0..2 {
                gate_tx.send(()).unwrap();
            }
            let timeout = std::time::Duration::from_secs(30);
            let a = rx.recv_timeout(timeout).expect("first reply");
            let b = rx.recv_timeout(timeout).expect("second reply");
            assert_eq!((a.id, b.id), (first, second), "one worker answers in order");
            (a, b)
        });
        let (a, b) = replies;
        assert!(!a.cached, "capacity {cache_capacity}: the first request solves");
        assert_eq!(b.cached, cache_capacity > 0, "capacity {cache_capacity}");
        assert_eq!(a.response.goal_path(), b.response.goal_path());
        assert_eq!(stats.totals.executed_solves, executed, "capacity {cache_capacity}");
        assert_eq!(stats.cache.hits, u64::from(cache_capacity > 0));
    }
}

/// Submits after shutdown are refused as closed; everything admitted
/// before is still answered (drain-then-join).
#[test]
fn shutdown_drains_admitted_requests() {
    let g = weighted(10);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    let (leaked, stats) = serve(&*solver, &ServerConfig::default(), |server| {
        let (tx, rx) = mpsc::channel();
        for i in 0..40u32 {
            server.submit(Query::point_to_point(i / n, i % n), tx.clone()).unwrap();
        }
        // Return without draining: serve() must close lanes, finish the
        // queued work, and join before handing back.
        (tx, rx)
    });
    let (tx, rx) = leaked;
    drop(tx);
    let drained = rx.iter().count();
    assert_eq!(drained, 40, "every admitted request answered during shutdown");
    assert_eq!(stats.completed(), 40);
}

/// A query naming a vertex the graph does not have is refused at
/// admission, with a reason naming the id. The lane's one worker never
/// sees it and keeps serving, and `serve()` returns its stats.
#[test]
fn out_of_range_query_is_rejected_and_lane_keeps_serving() {
    let g = rs_graph::gen::grid2d(8, 8);
    let solver = SolverBuilder::new(&g).build();
    let config = ServerConfig::uniform(LaneConfig::new(16, 1), 64);
    let (_, stats) = serve(&*solver, &config, |server| {
        let (tx, rx) = mpsc::channel();
        let rejection = server
            .submit(Query::point_to_point(0, 10_000), tx.clone())
            .expect_err("goal 10000 is out of range");
        assert_eq!(rejection.shape, Shape::PointToPoint);
        assert!(!rejection.closed);
        let err = rejection.invalid.expect("refused as invalid, not as saturated");
        assert_eq!((err.role, err.vertex, err.num_vertices), ("goal", 10_000, 64));
        assert!(rejection.to_string().contains("goal 10000 out of range"), "{rejection}");
        // Every shape, every source and every goal is checked.
        for q in [
            Query::single_source(64),
            Query::one_to_many(0, [3, 64]),
            Query::many_to_many([0, 99], [1]),
        ] {
            assert!(server.submit(q, tx.clone()).unwrap_err().invalid.is_some());
        }
        server.submit(Query::point_to_point(0, 63), tx).unwrap();
        let reply = rx.recv_timeout(std::time::Duration::from_secs(30)).expect("lane serving");
        assert_eq!(reply.response.goal_distance(), Some(14));
    });
    assert_eq!(stats.completed(), 1);
    assert_eq!(stats.rejected(), 4);
}

/// SplitMix64 — seeded traffic without an RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Property-style sweep: a seeded interleaving of repeated and fresh
/// queries over all shapes, submitted concurrently with replies collected
/// by ticket — every reply, cached or not, must match a fresh execution
/// of its query, and the executed-solves ledger must show the cache
/// actually saved work.
#[test]
fn interleaved_cached_and_uncached_traffic_matches_fresh_executions() {
    let g = weighted(11);
    let n = g.num_vertices() as u32;
    let solver = SolverBuilder::new(&g).build();
    for seed in [1u64, 22, 333] {
        let mut rng = seed;
        let mut history: Vec<Query> = Vec::new();
        let queries: Vec<Query> = (0..120)
            .map(|i| {
                let q = if i % 3 == 0 && !history.is_empty() {
                    history[(splitmix(&mut rng) as usize) % history.len()].clone()
                } else {
                    match splitmix(&mut rng) % 8 {
                        0 => Query::single_source(splitmix(&mut rng) as u32 % n),
                        1..=2 => Query::one_to_many(
                            splitmix(&mut rng) as u32 % n,
                            [splitmix(&mut rng) as u32 % n, splitmix(&mut rng) as u32 % n],
                        ),
                        3 => Query::many_to_many(
                            [splitmix(&mut rng) as u32 % n, splitmix(&mut rng) as u32 % n],
                            [splitmix(&mut rng) as u32 % n],
                        ),
                        _ => Query::point_to_point(
                            splitmix(&mut rng) as u32 % n,
                            splitmix(&mut rng) as u32 % n,
                        ),
                    }
                };
                history.push(q.clone());
                q
            })
            .collect();

        let (by_ticket, stats) = serve(&*solver, &ServerConfig::default(), |server| {
            let (tx, rx) = mpsc::channel::<Reply>();
            let mut tickets: HashMap<u64, Query> = HashMap::new();
            for q in &queries {
                loop {
                    match server.submit(q.clone(), tx.clone()) {
                        Ok(id) => {
                            tickets.insert(id, q.clone());
                            break;
                        }
                        Err(r) => std::thread::sleep(std::time::Duration::from_micros(
                            r.retry_after_us.min(500),
                        )),
                    }
                }
            }
            drop(tx);
            let replies: Vec<Reply> = rx.iter().collect();
            assert_eq!(replies.len(), queries.len(), "seed {seed}: all answered");
            (tickets, replies)
        });
        let (tickets, replies) = by_ticket;
        let mut cached = 0u64;
        for reply in &replies {
            let q = &tickets[&reply.id];
            let fresh = solver.execute(q, &mut SolverScratch::new());
            assert_payload_identical(&format!("seed {seed}"), &reply.response, &fresh, q);
            cached += u64::from(reply.cached);
        }
        assert!(cached > 0, "seed {seed}: repeat-heavy mix must produce cache hits");
        assert_eq!(stats.cache.hits, cached);
        assert!(
            stats.totals.executed_solves < queries.len(),
            "seed {seed}: the cache must execute fewer solves ({}) than requests ({})",
            stats.totals.executed_solves,
            queries.len()
        );
        assert_eq!(stats.totals.solves, queries.len());
    }
}
