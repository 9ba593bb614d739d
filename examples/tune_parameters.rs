//! Parameter tuning, reproducing §5.4's guidance: k and ρ trade added
//! edges (space + work) against steps (depth). Prints the trade-off grid
//! and the paper's recommendation. Uses `Preprocessed` directly (it is an
//! `SsspSolver` too) because the edge-count statistics live there.
//!
//! ```text
//! cargo run --release --example tune_parameters
//! ```

use radius_stepping::prelude::*;

fn main() {
    let topology = graph::gen::road_network(90, 3);
    let g = graph::weights::reweight(&topology, WeightModel::paper_weighted(), 4);
    println!("tuning on a road network: n = {}, m = {}\n", g.num_vertices(), g.num_edges());

    println!("   k |  rho | heuristic |  +edges (xm) | steps | max substeps");
    println!("-----+------+-----------+--------------+-------+-------------");
    let mut best: Option<(f64, String)> = None;
    let mut scratch = SolverScratch::new();
    for &k in &[1u32, 3] {
        for &rho in &[25usize, 50, 100] {
            for h in [ShortcutHeuristic::Greedy, ShortcutHeuristic::Dp] {
                if k == 1 && h == ShortcutHeuristic::Greedy {
                    continue; // identical to DP at k = 1
                }
                let cfg = PreprocessConfig { k, rho, heuristic: h };
                let pre = Preprocessed::build(&g, &cfg);
                let out = pre.execute(&Query::single_source(0), &mut scratch).into_result();
                let factor = pre.stats.added_edge_factor();
                println!(
                    "{k:>4} | {rho:>4} | {h:>9?} | {factor:>12.2} | {:>5} | {:>12}",
                    out.stats.steps, out.stats.max_substeps_in_step
                );
                // §5.4: keep total edges around O(m) — score configs with
                // factor ≤ 1 by their step count.
                if factor <= 1.0 {
                    let label = format!("k={k}, rho={rho}, {h:?}");
                    if best.as_ref().is_none_or(|(s, _)| (out.stats.steps as f64) < *s) {
                        best = Some((out.stats.steps as f64, label));
                    }
                }
            }
        }
    }
    match best {
        Some((steps, label)) => println!(
            "\nbest config adding ≤ m edges: {label} ({steps} steps)\n\
             paper's rule of thumb (§5.4): k = 3 or 4, rho ∈ [50, 100] for weighted graphs"
        ),
        None => println!("\nno config stayed within the +m edge budget; lower rho or raise k"),
    }
}
