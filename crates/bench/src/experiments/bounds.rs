//! Theorem validation: the bounds behind Table 1's "this work" rows.
//!
//! For a grid of (k, ρ) configurations on small suite graphs, verify with
//! exact brute force that preprocessing establishes the (k, ρ)-graph
//! preconditions (Lemma 4.1), then run the solver and report measured
//! steps / substeps against the Theorem 3.2 and 3.3 bounds, plus
//! correctness against Dijkstra.

use rs_baselines::dijkstra_default;
use rs_core::preprocess::{PreprocessConfig, Preprocessed, ShortcutHeuristic};
use rs_core::verify::{check_k_rho_graph, step_bound, substep_bound};
use rs_core::{radius_stepping_with, EngineConfig};
use rs_graph::{gen, weights, WeightModel};

use crate::sample_sources;
use crate::table::Table;

use super::ExpConfig;

/// Runs the bound-validation sweep.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Theorem validation: measured vs bounds (Thm 3.2: substeps ≤ k+2; Thm 3.3: steps ≤ ⌈n/ρ⌉(1+⌈log₂ ρL⌉))",
        &[
            "graph", "k", "rho", "heuristic", "(k,rho)-graph", "steps", "step bound",
            "max substeps", "substep bound", "== dijkstra",
        ],
    );
    let graphs: Vec<(&str, rs_graph::CsrGraph)> = vec![
        ("grid2d", weights::reweight(&gen::grid2d(18, 18), WeightModel::paper_weighted(), 3)),
        (
            "scale_free",
            weights::reweight(&gen::scale_free(320, 3, 9), WeightModel::paper_weighted(), 4),
        ),
        ("road", weights::reweight(&gen::road_network(18, 5), WeightModel::paper_weighted(), 5)),
    ];
    for (name, g) in &graphs {
        let n = g.num_vertices();
        for (k, rho, h) in [
            (1u32, 4usize, ShortcutHeuristic::Full),
            (1, 16, ShortcutHeuristic::Full),
            (2, 16, ShortcutHeuristic::Greedy),
            (3, 16, ShortcutHeuristic::Dp),
            (3, 48, ShortcutHeuristic::Dp),
        ] {
            let pre = Preprocessed::build(g, &PreprocessConfig { k, rho, heuristic: h });
            let valid = check_k_rho_graph(&pre.graph, &pre.radii, k, rho).is_ok();
            let bound = step_bound(n, rho, pre.graph.max_weight() as u64);
            let mut worst_steps = 0usize;
            let mut worst_sub = 0usize;
            let mut all_correct = true;
            for &s in &sample_sources(n, cfg.sources.max(2), cfg.seed) {
                let cfg = EngineConfig::with_trace();
                let out = radius_stepping_with(&pre.graph, &pre.radii, s, cfg);
                worst_steps = worst_steps.max(out.stats.steps);
                worst_sub = worst_sub.max(out.stats.max_substeps_in_step);
                all_correct &= out.dist == dijkstra_default(g, s);
            }
            assert!(valid, "{name} k={k} rho={rho}: preprocessing must yield a (k,rho)-graph");
            assert!(worst_steps <= bound, "{name}: steps {worst_steps} > bound {bound}");
            assert!(
                worst_sub <= substep_bound(k),
                "{name}: substeps {worst_sub} > {}",
                substep_bound(k)
            );
            assert!(all_correct, "{name}: distance mismatch vs dijkstra");
            t.push_row(vec![
                name.to_string(),
                k.to_string(),
                rho.to_string(),
                format!("{h:?}"),
                "yes".into(),
                worst_steps.to_string(),
                bound.to_string(),
                worst_sub.to_string(),
                substep_bound(k).to_string(),
                "yes".into(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bounds_hold() {
        // `run` asserts internally; 15 rows = 3 graphs × 5 configs.
        let t = run(&ExpConfig::tiny());
        assert_eq!(t.rows.len(), 15);
    }
}
