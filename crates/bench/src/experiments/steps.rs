//! Figures 4–5 and Tables 4–7: the number of radius-stepping steps as ρ
//! varies (§5.3).
//!
//! For each suite graph and each ρ, compute `r(v) = r_ρ(v)` with the
//! truncated-Dijkstra preprocessing and run Algorithm 1 from sampled
//! sources, counting outer-loop steps. As in the paper, the step count
//! depends only on ρ (Theorem 3.3) and not on k, so the radii are computed
//! without materialising shortcut edges — which is also what makes
//! ρ = 10⁴ feasible (`n·ρ` edges would not fit at paper scale; README,
//! "Reproducing the paper", lists this substitution).
//!
//! The scale-robust comparison against the paper is the *reduction factor*
//! (Tables 5 and 7): steps(ρ=1) / steps(ρ), where ρ=1 is standard BFS
//! (unweighted) or a Dijkstra that extracts equal distances together
//! (weighted).

use rs_baselines::solver::BuildSolver;
use rs_core::preprocess::compute_radii;
use rs_core::solver::{Algorithm, QueryBatch, Radii, SolverBuilder};
use rs_graph::{CsrGraph, VertexId};

use crate::paper::{self, RHO_UNWEIGHTED, RHO_WEIGHTED};
use crate::sample_sources;
use crate::suite::{full_suite, SuiteGraph};
use crate::table::{fmt_count, Table};

use super::ExpConfig;

/// Mean number of steps over `sources`, with `r(v) = r_ρ(v)`: one solver
/// built per (graph, ρ), sources fanned out through a [`QueryBatch`] —
/// duplicate samples are answered once, every pool task reuses one
/// pre-warmed scratch, and the mean comes straight from the batch's
/// aggregated [`rs_core::StepStats`].
pub fn mean_steps(g: &CsrGraph, rho: usize, sources: &[VertexId]) -> f64 {
    let radii = if rho == 1 {
        // r_1(v) = 0 for every v (the source itself is its closest vertex):
        // exactly Dijkstra-with-batched-ties / standard BFS.
        Radii::Zero
    } else {
        Radii::PerVertex(compute_radii(g, rho).into())
    };
    let solver = SolverBuilder::new(g).algorithm(Algorithm::RadiusStepping { radii }).build();
    QueryBatch::from_sources(sources).execute(&*solver).stats.mean_steps()
}

/// One suite graph's step-count column over a ρ grid (`None` = skipped
/// because ρ is too large for the scaled graph).
pub fn steps_column(g: &CsrGraph, rhos: &[usize], cfg: &ExpConfig) -> Vec<Option<f64>> {
    let sources = sample_sources(g.num_vertices(), cfg.sources, cfg.seed);
    rhos.iter()
        .map(|&rho| cfg.rho_usable(rho, g.num_vertices()).then(|| mean_steps(g, rho, &sources)))
        .collect()
}

/// Shared engine for the unweighted (Fig 4, Tables 4–5) and weighted
/// (Fig 5, Tables 6–7) experiments.
pub struct StepsReport {
    /// Table N: mean rounds per (ρ, graph).
    pub rounds: Table,
    /// Table N+1: reduction factor vs ρ=1, ours and the paper's.
    pub reduction: Table,
    /// Figure panels (a) roads, (b) webs, (c) grids — same series split by
    /// group, for plotting.
    pub figure_panels: Vec<Table>,
}

/// Runs the experiment over the whole suite.
pub fn run(cfg: &ExpConfig, weighted: bool) -> StepsReport {
    let rhos: &[usize] = if weighted { &RHO_WEIGHTED } else { &RHO_UNWEIGHTED };
    let (fig, tab_rounds, tab_red) = if weighted {
        ("Figure 5", "Table 6", "Table 7")
    } else {
        ("Figure 4", "Table 4", "Table 5")
    };
    let suite = full_suite(cfg.scale_denom);

    let columns: Vec<(String, Vec<Option<f64>>)> = suite
        .iter()
        .map(|sg| {
            let g = if weighted { sg.weighted() } else { sg.graph.clone() };
            (sg.name.to_string(), steps_column(&g, rhos, cfg))
        })
        .collect();

    // Rounds table.
    let mut header: Vec<&str> = vec!["rho"];
    for (name, _) in &columns {
        header.push(name);
    }
    let mut rounds = Table::new(
        format!(
            "{tab_rounds}: avg rounds, {} graphs (scale 1/{}, {} sources)",
            if weighted { "weighted" } else { "unweighted" },
            cfg.scale_denom,
            cfg.sources
        ),
        &header,
    );
    for (i, &rho) in rhos.iter().enumerate() {
        let mut row = vec![rho.to_string()];
        for (_, col) in &columns {
            row.push(col[i].map_or("-".into(), fmt_count));
        }
        rounds.push_row(row);
    }

    // Reduction table, ours vs paper.
    let mut red_header: Vec<String> = vec!["rho".into()];
    for (name, _) in &columns {
        red_header.push(format!("{name} ours"));
        red_header.push("paper".into());
    }
    let red_header_refs: Vec<&str> = red_header.iter().map(|s| s.as_str()).collect();
    let mut reduction = Table::new(
        format!("{tab_red}: reduction factor vs rho=1 (ours | paper@full-scale)"),
        &red_header_refs,
    );
    for (i, &rho) in rhos.iter().enumerate().skip(1) {
        let mut row = vec![rho.to_string()];
        for (name, col) in &columns {
            let ours = match (col[0], col[i]) {
                (Some(base), Some(v)) if v > 0.0 => Some(base / v),
                _ => None,
            };
            row.push(ours.map_or("-".into(), |f| format!("{f:.2}")));
            let paper = if weighted {
                paper::table6_value(name, 1).zip(paper::table6_value(name, rho))
            } else {
                paper::table4_value(name, 1).zip(paper::table4_value(name, rho))
            };
            row.push(paper.map_or("-".into(), |(b, v)| format!("{:.2}", b / v)));
        }
        reduction.push_row(row);
    }

    // Figure panels by group.
    let mut figure_panels = Vec::new();
    for (panel, group) in [("a", "road"), ("b", "web"), ("c", "grid")] {
        let members: Vec<&SuiteGraph> = suite.iter().filter(|sg| sg.group == group).collect();
        let mut h: Vec<String> = vec!["rho".into()];
        for m in &members {
            h.push(m.name.to_string());
        }
        let h_refs: Vec<&str> = h.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(format!("{fig} ({panel}): {group}s — avg steps vs rho"), &h_refs);
        for (i, &rho) in rhos.iter().enumerate() {
            let mut row = vec![rho.to_string()];
            for m in &members {
                let col = &columns.iter().find(|(n, _)| n == m.name).unwrap().1;
                row.push(col[i].map_or("-".into(), fmt_count));
            }
            t.push_row(row);
        }
        figure_panels.push(t);
    }

    StepsReport { rounds, reduction, figure_panels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::{gen, weights, WeightModel};

    #[test]
    fn steps_decrease_with_rho_unweighted() {
        let g = gen::grid2d(40, 40);
        let sources = sample_sources(1600, 3, 1);
        let s1 = mean_steps(&g, 1, &sources);
        let s10 = mean_steps(&g, 10, &sources);
        let s50 = mean_steps(&g, 50, &sources);
        assert!(s1 > s10 && s10 > s50, "{s1} > {s10} > {s50} expected");
        // rho=1 on a unit grid is plain BFS: steps = eccentricity.
        assert!(s1 >= 39.0);
    }

    #[test]
    fn steps_decrease_with_rho_weighted() {
        let g = weights::reweight(&gen::grid2d(24, 24), WeightModel::paper_weighted(), 5);
        let sources = sample_sources(576, 3, 2);
        let s1 = mean_steps(&g, 1, &sources);
        let s10 = mean_steps(&g, 10, &sources);
        assert!(s1 / s10 > 5.0, "weighted reduction at rho=10 should be large, got {s1}/{s10}");
    }

    #[test]
    fn rho2_halves_unweighted_steps() {
        // The paper's crispest invariant (Table 5, every graph): rho = 2
        // gives r(v) = 1, settling exactly two BFS levels per step.
        let g = gen::grid2d(30, 30);
        let sources = sample_sources(900, 3, 3);
        let s1 = mean_steps(&g, 1, &sources);
        let s2 = mean_steps(&g, 2, &sources);
        assert!((s1 / s2 - 2.0).abs() < 0.05, "expected 2x, got {}", s1 / s2);
    }

    #[test]
    fn full_run_tiny() {
        let cfg = ExpConfig::tiny();
        let report = run(&cfg, false);
        assert_eq!(report.rounds.rows.len(), RHO_UNWEIGHTED.len());
        assert_eq!(report.figure_panels.len(), 3);
        let report_w = run(&cfg, true);
        assert_eq!(report_w.rounds.rows.len(), RHO_WEIGHTED.len());
    }
}
