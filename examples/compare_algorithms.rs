//! Runs every SSSP algorithm in the workspace on one graph — all built
//! through `SolverBuilder`, all used through the `SsspSolver` trait —
//! verifies they agree exactly, and prints their step/substep structure
//! side by side: the paper's Table 1 in miniature, measured instead of
//! asymptotic.
//!
//! ```text
//! cargo run --release --example compare_algorithms
//! ```

use std::time::Instant;

use radius_stepping::prelude::*;

fn main() {
    let topology = graph::gen::grid2d(120, 120);
    let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 99);
    let s = 0u32;
    println!("graph: 120x120 grid, weights U[1,10^4], source {s}\n");

    // Every point on the paper's algorithm spectrum, one builder each.
    // (§3: r=0 is Dijkstra-like, r=∆ almost ∆-stepping, and r=∞ is
    // Bellman–Ford — `Algorithm::DeltaStepping` and `Algorithm::BellmanFord`
    // build exactly those frontier engines; preprocessed r_rho(v) gives
    // the paper's bounds. Dijkstra is the one separate implementation.)
    let spectrum: Vec<(Algorithm, Option<PreprocessConfig>)> = vec![
        (Algorithm::Dijkstra, None),
        (Algorithm::DeltaStepping { delta: 2_000 }, None),
        (Algorithm::RadiusStepping { radii: Radii::Zero }, None),
        (Algorithm::BellmanFord, None),
        (Algorithm::RadiusStepping { radii: Radii::Zero }, Some(PreprocessConfig::new(1, 64))),
    ];

    let reference = baselines::dijkstra_default(&g, s);
    let (query, mut scratch) = (Query::single_source(s), SolverScratch::new());

    println!("{:<46} {:>9}   shape", "solver", "time");
    for (algorithm, preprocess) in spectrum {
        let mut builder = SolverBuilder::new(&g).algorithm(algorithm);
        if let Some(cfg) = preprocess {
            builder = builder.preprocess(cfg);
        }
        let solver = builder.build();
        let t = Instant::now();
        let out = solver.execute(&query, &mut scratch).into_result();
        let elapsed = t.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(out.dist, reference, "{} disagrees with Dijkstra", solver.name());
        println!(
            "{:<46} {elapsed:>6.1} ms   {} steps, {} substeps (max {}/step)",
            solver.name(),
            out.stats.steps,
            out.stats.substeps,
            out.stats.max_substeps_in_step
        );
    }

    // The parallel frontier engine takes exactly the steps of Algorithm 1
    // run sequentially — show it directly on the preprocessed graph.
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 64));
    let out = core::radius_stepping_with(&pre.graph, &pre.radii, s, EngineConfig::with_trace());
    let trace = out.stats.trace.expect("trace requested");
    let (oracle_dist, oracle_trace) = core::verify::step_trace(&pre.graph, &pre.radii, s);
    assert_eq!((&out.dist, &trace), (&oracle_dist, &oracle_trace));
    println!(
        "\nall algorithms agree; the frontier engine matches the sequential step oracle ({} steps)",
        trace.len()
    );
}
