//! Unweighted traversal of a scale-free webgraph — the workload where §5.3
//! found radius stepping shines ("Radius-Stepping can reduce the number of
//! steps by 15x by adding no more than m edges" on webgraphs).
//!
//! Shows BFS-mode radius stepping through the unified solver API: hop
//! distances over a Barabási–Albert graph, sweeping ρ to watch the step
//! count (the depth proxy) collapse while work stays near-linear.
//!
//! ```text
//! cargo run --release --example web_hops
//! ```

use radius_stepping::prelude::*;
use rs_core::preprocess::compute_radii;

fn main() {
    // ~50k pages, 7 links per page, power-law degree (hubs).
    let g = graph::gen::scale_free(50_000, 7, 1234);
    let max_deg = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max().unwrap();
    println!(
        "webgraph: {} pages, {} links, max degree {} (hub)",
        g.num_vertices(),
        g.num_edges(),
        max_deg
    );

    let source = 0u32;
    // Parallel BFS is the unweighted engine at r ≡ 0: one step per level.
    let bfs = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
    let mut scratch = SolverScratch::new();
    let bfs_out = bfs.execute(&Query::single_source(source), &mut scratch);
    let bfs_rounds = bfs_out.stats().steps;
    assert_eq!(bfs_out.dist(), baselines::bfs_seq(&g, source), "BFS must match the oracle");
    println!("\nparallel BFS: {bfs_rounds} rounds (one per level)");

    println!("\n rho | steps | reduction vs BFS | relaxations");
    println!("-----+-------+------------------+------------");
    for rho in [1usize, 10, 100, 1000] {
        let radii = if rho == 1 { Radii::Zero } else { Radii::PerVertex(compute_radii(&g, rho)) };
        let solver = SolverBuilder::new(&g)
            .algorithm(Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii })
            .build();
        let out = solver.execute(&Query::single_source(source), &mut scratch).into_result();
        assert_eq!(out.dist, bfs_out.dist(), "hop distances must match BFS");
        println!(
            "{rho:>4} | {:>5} | {:>16.2} | {:>10}",
            out.stats.steps,
            bfs_rounds as f64 / out.stats.steps as f64,
            out.stats.relaxations
        );
    }
    println!("\nhop distances verified identical to BFS at every rho");
}
