//! Serving mixed query traffic: the unified query plane end to end.
//!
//! A query server pays three one-time costs — building the graph, the
//! (k, ρ)-preprocessing, and warming a `SolverScratch` per worker — and
//! then answers every request on reused state through the one entry point,
//! `SsspSolver::execute`:
//!
//! * **Mixed batches** go through `QueryBatch::execute`: realistic
//!   traffic mixes point-to-point requests (origin → destination, often
//!   with a path wanted), one-to-many fan-outs (one origin, many
//!   candidate destinations — k goals for the price of one solve),
//!   occasional many-to-many distance tables (dispatch matrices), and
//!   single-source analytics solves. Duplicates — popular
//!   origin/destination pairs, permuted goal sets — are answered once and
//!   cloned (dedup by canonical query key), and the unique queries fan
//!   out over the pool with one warm scratch per pool task.
//! * **Single requests** on a dedicated worker loop reuse one long-lived
//!   scratch; `warm_scratch` pre-sizes it so even the *first* request runs
//!   allocation-free, and goal-bounded requests settle only the region
//!   their goals need (early exit); with paths requested, the goal path
//!   is walked back over the distances, so `goal_path()` costs
//!   O(path length) and, preprocessing included,
//!   returns **exact input-graph routes** (shortcut hops are unrolled).
//!
//! ```text
//! cargo run --release --example query_server
//! ```
//!
//! This example is the in-process shape of the pattern. The
//! production-shaped version — bounded admission lanes per query
//! shape, an epoch-versioned response cache, latency-histogram SLOs,
//! retry-hinted load shedding — lives in `crates/serve`
//! (`cargo run --release -p rs_serve --bin rs-serve`).

use std::time::Instant;

use radius_stepping::prelude::*;

fn main() {
    // One-time: a ~46k-junction road network with travel-time weights.
    let topology = graph::gen::road_network(220, 11);
    let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 5);
    let n = g.num_vertices() as u32;
    println!("graph: {} vertices, {} edges", n, g.num_edges());

    // One-time: preprocessing sized for a many-query workload (§5.4).
    let t = Instant::now();
    let solver = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 64)).build();
    println!("build ({}): {:.2}s\n", solver.name(), t.elapsed().as_secs_f64());

    // --- Mixed batch endpoint -------------------------------------------
    // 256 requests, deliberately skewed like real query logs: a hot
    // origin/destination pair dominates the point-to-point traffic, ride
    // brokers fan one origin out to 8 candidate destinations, dispatchers
    // ask for small distance tables, and a few analytics jobs ask for full
    // single-source solves.
    let fan_goals = |i: u32| -> Vec<u32> { (0..8).map(|j| (i * 611 + j * 97 + 5) % n).collect() };
    let queries: Vec<Query> = (0..256u32)
        .map(|i| match i % 8 {
            0 => Query::point_to_point(42, 917 % n).with_paths(), // the hot pair
            5 => Query::one_to_many((i * 131) % n, fan_goals(i)).with_paths(),
            6 => Query::many_to_many(
                vec![(i * 7) % n, (i * 7 + 1) % n],
                vec![(i * 13) % n, (i * 13 + 2) % n, (i * 13 + 4) % n],
            ),
            7 => Query::single_source((i * 977) % n), // analytics
            _ => {
                let (a, b) = ((i * 977) % n, (i * 31 + 7) % n);
                if i % 2 == 0 {
                    Query::point_to_point(a, b).with_paths()
                } else {
                    Query::point_to_point(a, b)
                }
            }
        })
        .collect();
    let batch = QueryBatch::new(&queries);
    println!(
        "batch: {} requests, {} unique ({} served by dedup)",
        batch.len(),
        batch.unique_queries().len(),
        batch.deduplicated()
    );

    let t = Instant::now();
    let outcome = batch.execute(&*solver);
    let total = t.elapsed().as_secs_f64();
    // Answers per shape: (label, count).
    let mut shapes: [(&str, usize); 4] =
        [("point-to-point", 0), ("one-to-many", 0), ("many-to-many", 0), ("single-source", 0)];
    for resp in &outcome.responses {
        let lane = match &resp.query.shape {
            QueryShape::PointToPoint { .. } => 0,
            QueryShape::OneToMany { .. } => 1,
            QueryShape::ManyToMany { .. } => 2,
            QueryShape::SingleSource { .. } => 3,
        };
        shapes[lane].1 += 1;
    }
    let stats = &outcome.stats;
    println!(
        "executed in {total:.2}s on {} pool threads: \
         {} physical solves for {} requests ({:.2} solves/request), \
         {} goals reached / {} requested, {} cold solves, {} warm reuses",
        par::num_threads(),
        stats.executed_solves,
        stats.solves,
        stats.mean_solves_per_query(),
        stats.goals_reached,
        stats.goals_requested,
        stats.cold_solves,
        stats.scratch_reuses,
    );
    for (label, count) in shapes {
        println!("  {label:>14}: {count:3} answered");
    }

    // Paths from the preprocessed solver are exact input-graph routes:
    // shortcut hops are unrolled at extraction, so every hop below is an
    // edge of the *input* road network.
    let hot =
        solver.execute(&Query::point_to_point(42, 917 % n).with_paths(), &mut SolverScratch::new());
    let route = hot.goal_path().expect("road network is connected");
    let hops_exist = route.windows(2).all(|w| g.arc_weight(w[0], w[1]).is_some());
    println!(
        "\nhot pair 42 -> {}: travel time {}, {} input-graph hops (all real edges: {}), \
         {} steps (vs full-solve fan-out)\n",
        917 % n,
        hot.goal_distance().unwrap(),
        route.len() - 1,
        hops_exist,
        hot.stats().steps,
    );
    assert!(hops_exist, "preprocessed goal_path must ride input edges only");

    // --- Single-request worker loop -------------------------------------
    // A long-lived worker owns one scratch, pre-warmed so request #1 is
    // already allocation-free; every request derives and extracts only
    // the goal paths. One-to-many requests answer a whole
    // candidate set per solve.
    let mut scratch = SolverScratch::new();
    solver.warm_scratch(&mut scratch);
    let t = Instant::now();
    let mut warm = 0u32;
    let mut segments = 0usize;
    let mut goals_answered = 0usize;
    for i in 0..64u32 {
        let (a, b) = ((i * 131) % n, (i * 271 + 13) % n);
        if i % 4 == 3 {
            let goals = fan_goals(i);
            let resp = solver.execute(&Query::one_to_many(a, goals).with_paths(), &mut scratch);
            warm += u32::from(resp.stats().scratch_reused);
            goals_answered += resp.goal_distances().iter().filter(|d| d.is_some()).count();
        } else {
            let resp = solver.execute(&Query::point_to_point(a, b).with_paths(), &mut scratch);
            warm += u32::from(resp.stats().scratch_reused);
            goals_answered += usize::from(resp.goal_distance().is_some());
            segments += resp.goal_path().map_or(0, |p| p.len() - 1);
        }
    }
    println!(
        "worker loop: 64 requests (48 point-to-point + 16 one-to-many) in {:.2}s, \
         {} on warm scratch (scratch: {} solves, {} reuses), \
         {} destinations answered, {} route hops returned",
        t.elapsed().as_secs_f64(),
        warm,
        scratch.solves(),
        scratch.reuses(),
        goals_answered,
        segments,
    );
}
