//! Quickstart: build one solver (preprocessing attached), then answer
//! shortest-path queries from any source through the unified
//! `SsspSolver` interface.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use radius_stepping::prelude::*;

fn main() {
    // A 200×200 grid with the paper's weight model (uniform ints in
    // [1, 10^4]); think of it as a synthetic street network.
    let topology = graph::gen::grid2d(200, 200);
    let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 42);
    println!("graph: n = {}, m = {} undirected edges", g.num_vertices(), g.num_edges());

    // One solver, one-time preprocessing: (k = 1, ρ = 64)-graph. Higher
    // ρ ⇒ fewer, bigger steps (more parallelism); higher k ⇒ fewer
    // shortcut edges but more substeps. §5.4 recommends k ∈ {3, 4},
    // ρ ∈ [50, 100] in practice.
    let solver = SolverBuilder::new(&g).preprocess(PreprocessConfig::new(1, 64)).build();
    println!(
        "solver: {} (+{} shortcut edges over the input)",
        solver.name(),
        solver.graph().num_edges() - g.num_edges()
    );

    // Solve from a corner. One scratch serves every query below.
    let source = 0;
    let mut scratch = SolverScratch::new();
    let out = solver.execute(&Query::single_source(source).with_paths(), &mut scratch);
    let far = (g.num_vertices() - 1) as u32;
    println!(
        "sssp from {source}: dist to opposite corner = {}, {} steps, ≤ {} substeps/step",
        out.dist()[far as usize],
        out.stats().steps,
        out.stats().max_substeps_in_step
    );

    // Reconstruct one route from the shortest-path tree. The response
    // expands shortcut hops, so the route uses input edges only.
    let path = out.extract_path(far).expect("grid is connected");
    println!(
        "route to {far}: {} hops (first 6: {:?} ...)",
        path.len() - 1,
        &path[..6.min(path.len())]
    );
    let mut length = 0;
    for hop in path.windows(2) {
        let w = g.arc_weight(hop[0], hop[1]).expect("every hop is an input-graph edge");
        length += w as Dist;
    }
    assert_eq!(length, out.dist()[far as usize], "hop weights sum to the distance");

    // Point-to-point query: early termination once the goal settles.
    let mid = (g.num_vertices() / 2) as u32;
    let bounded = solver.execute(&Query::point_to_point(source, mid), &mut scratch);
    println!(
        "goal-bounded solve to {mid}: {} steps (vs {} for the full solve)",
        bounded.stats().steps,
        out.stats().steps
    );
    assert_eq!(bounded.goal_distance(), Some(out.dist()[mid as usize]));

    // Cross-check against the sequential baseline, same interface.
    let dijkstra = SolverBuilder::new(&g).algorithm(Algorithm::Dijkstra).build();
    let reference = dijkstra.execute(&Query::single_source(source), &mut scratch);
    assert_eq!(out.dist(), reference.dist(), "must match Dijkstra exactly");
    println!("verified: distances identical to Dijkstra");
}
