//! The paper's motivating contrast (§1): ∆-stepping's steps can take many
//! substeps (light-edge phases bounded only by chain length inside a
//! bucket), while radius stepping's are bounded by `k + 2` (Theorem 3.2).
//!
//! Measures both algorithms' step/substep structure on one weighted graph:
//! buckets & phases for ∆-stepping across ∆, steps & substeps for radius
//! stepping across k.

use rs_baselines::delta_stepping;
use rs_core::preprocess::{PreprocessConfig, Preprocessed, ShortcutHeuristic};
use rs_core::{radius_stepping_with, EngineConfig};

use crate::suite::build_graph;
use crate::table::Table;

use super::ExpConfig;

/// Runs the substep-structure comparison.
pub fn run(cfg: &ExpConfig) -> Table {
    let sg = build_graph("Penn", cfg.scale_denom.max(64));
    let g = sg.weighted();
    let mut t = Table::new(
        format!(
            "Substep structure: Delta-stepping vs radius stepping on {} (n={}, weighted)",
            sg.name,
            g.num_vertices()
        ),
        &["algorithm", "parameter", "steps", "total substeps", "max substeps/step", "bound"],
    );

    for delta in [100u64, 1_000, 10_000, 100_000] {
        let out = delta_stepping(&g, 0, delta);
        t.push_row(vec![
            "delta-stepping".into(),
            format!("delta={delta}"),
            out.buckets.to_string(),
            out.phases.to_string(),
            out.max_phases_in_bucket.to_string(),
            "none (Θ(n) worst case)".into(),
        ]);
    }

    for k in [1u32, 2, 4] {
        let h = if k == 1 { ShortcutHeuristic::Full } else { ShortcutHeuristic::Dp };
        let pre = Preprocessed::build(&g, &PreprocessConfig { k, rho: 32, heuristic: h });
        let cfg = EngineConfig::with_trace();
        let out = radius_stepping_with(&pre.graph, &pre.radii, 0, cfg);
        assert!(out.stats.max_substeps_in_step <= k as usize + 2, "Theorem 3.2");
        t.push_row(vec![
            "radius-stepping".into(),
            format!("k={k}, rho=32"),
            out.stats.steps.to_string(),
            out.stats.substeps.to_string(),
            out.stats.max_substeps_in_step.to_string(),
            format!("k+2 = {}", k + 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_stepping_substep_bound_binds_delta_does_not() {
        // Every radius-stepping row respects k + 2 (asserted inside run);
        // ∆-stepping's max light phases per bucket grow with ∆. The rows
        // are exact and the same at every thread count.
        let t = run(&ExpConfig::tiny());
        let rows: Vec<[&str; 5]> = t
            .rows
            .iter()
            .map(|r| [&r[0], &r[1], &r[2], &r[3], &r[4]].map(String::as_str))
            .collect();
        assert_eq!(
            rows,
            [
                ["delta-stepping", "delta=100", "808", "819", "2"],
                ["delta-stepping", "delta=1000", "201", "265", "3"],
                ["delta-stepping", "delta=10000", "24", "109", "8"],
                ["delta-stepping", "delta=100000", "3", "73", "34"],
                ["radius-stepping", "k=1, rho=32", "13", "21", "2"],
                ["radius-stepping", "k=2, rho=32", "13", "23", "3"],
                ["radius-stepping", "k=4, rho=32", "13", "40", "5"],
            ]
        );
    }
}
