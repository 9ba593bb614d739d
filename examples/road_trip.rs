//! Road-network routing: the paper's motivating workload for multi-source
//! use. Preprocessing is paid once at `build()`; every subsequent source
//! amortises it (§5.4: "since preprocessing is only run once, if Sssp will
//! be run from multiple sources, we suggest increasing ρ"), and a
//! `QueryBatch` fans the depots out across the thread pool — each pool
//! task reusing one pre-warmed `SolverScratch`, with per-batch aggregated
//! stats.
//!
//! ```text
//! cargo run --release --example road_trip
//! ```

use std::time::Instant;

use radius_stepping::prelude::*;

fn main() {
    // A synthetic road network (~40k junctions, avg degree ≈ 2.8 like
    // SNAP's roadNet-PA) with travel-time weights.
    let topology = graph::gen::road_network(200, 7);
    let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 8);
    let n = g.num_vertices();
    println!("road network: {} junctions, {} road segments", n, g.num_edges());

    // Build once with a bigger ball since we'll query many sources.
    let t = Instant::now();
    let solver = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 96)).build();
    println!(
        "build ({}): {:.2}s, +{} edges",
        solver.name(),
        t.elapsed().as_secs_f64(),
        solver.graph().num_edges() - g.num_edges()
    );

    // A fleet of depots runs shortest paths to plan deliveries — one
    // parallel batch over the shared preprocessed structure. QueryBatch
    // dedups repeated depots and reuses one scratch per pool worker.
    let depots = [0u32, (n / 3) as u32, (n / 2) as u32, (n - 1) as u32, 0u32];
    let t = Instant::now();
    let outcome = QueryBatch::from_sources(&depots).execute(&*solver);
    let rs_time = t.elapsed().as_secs_f64();
    for (out, &depot) in outcome.responses.iter().zip(&depots) {
        let reachable = out.dist().iter().filter(|&&d| d != INF).count();
        println!(
            "depot {depot:>6}: {} junctions reachable, {} steps, farthest travel time {}",
            reachable,
            out.stats().steps,
            out.dist().iter().filter(|&&d| d != INF).max().unwrap()
        );
    }
    let total_steps = outcome.stats.steps;
    println!(
        "batch: {} requested, {} unique solved ({} deduped), {} warm scratch reuses",
        outcome.stats.solves,
        outcome.stats.unique_solves,
        outcome.stats.solves - outcome.stats.unique_solves,
        outcome.stats.scratch_reuses,
    );

    // Compare against per-source sequential Dijkstra via the same trait.
    let dijkstra = SolverBuilder::new(&g).algorithm(Algorithm::Dijkstra).build();
    let mut scratch = SolverScratch::new();
    let t = Instant::now();
    for &depot in &depots {
        let _ = dijkstra.execute(&Query::single_source(depot), &mut scratch);
    }
    let dj_time = t.elapsed().as_secs_f64();
    println!(
        "\n{} sources: radius stepping batch {rs_time:.2}s ({} steps total) vs sequential Dijkstra {dj_time:.2}s",
        depots.len(),
        total_steps
    );
    println!("(steps ≈ parallel depth: each step's relaxations all run concurrently)");

    // Route between two specific junctions: a point-to-point query with
    // goal-bounded early exit, its route walked back over the distances,
    // on a warm scratch (how a serving loop would run it).
    solver.warm_scratch(&mut scratch);
    let trip =
        solver.execute(&Query::point_to_point(depots[0], depots[3]).with_paths(), &mut scratch);
    // The solver is preprocessed, but goal_path unrolls shortcut hops at
    // extraction: every hop below is a real road segment of the input
    // network, and the travel time still telescopes exactly. Check both.
    let route = trip.goal_path().expect("the depots are connected");
    let mut travel: Dist = 0;
    for hop in route.windows(2) {
        let w = g.arc_weight(hop[0], hop[1]);
        assert!(w.is_some(), "hop {} -> {} is not a road segment", hop[0], hop[1]);
        travel += w.unwrap_or_default() as Dist;
    }
    assert_eq!(Some(travel), trip.goal_distance(), "route weight must equal the travel time");
    println!(
        "route depot {} -> {}: {} road segments, travel time {travel} \
         ({} steps, early exit, warm={})",
        depots[0],
        depots[3],
        route.len() - 1,
        trip.stats().steps,
        trip.stats().scratch_reused,
    );
}
