//! Figure 3 and Tables 2–3: edges added by the shortcut heuristics (§5.2).
//!
//! For each of the three representative graphs (road / web / grid), each
//! k ∈ {2..5} and each ρ ∈ {10..1000}: run the ball search once per
//! (graph, ρ) and evaluate both heuristics at every k on the same
//! shortest-path trees, reporting added edges as a fraction of |E|.
//! Unweighted graphs, as in the paper ("the performance of the heuristics
//! is independent of edge weights").
//!
//! The "red. rounds" column reproduces the step-reduction factors those
//! tables carry (identical to Table 5's unweighted factors).

use rayon::prelude::*;

use rs_core::preprocess::{ball_search, dp_shortcuts, greedy_count, BallScratch};
use rs_graph::{CsrGraph, VertexId};

use crate::paper::{K_SHORTCUT, RHO_SHORTCUT, TABLE2_GREEDY, TABLE3_DP};
use crate::suite::{build_graph, SHORTCUT_SUITE};
use crate::table::Table;

use super::steps::mean_steps;
use super::ExpConfig;
use crate::sample_sources;

/// Added-edge totals for one (graph, ρ): greedy and DP counts per k, from
/// a single ball pass over all sources.
pub fn shortcut_counts(g: &CsrGraph, rho: usize, ks: &[u32]) -> (Vec<u64>, Vec<u64>) {
    let (greedy, dp, _) = shortcut_counts_and_radii(g, rho, ks);
    (greedy, dp)
}

/// [`shortcut_counts`] that also yields `r_ρ(v)` from the same ball pass,
/// so the "red. rounds" column doesn't need a second pass.
pub fn shortcut_counts_and_radii(
    g: &CsrGraph,
    rho: usize,
    ks: &[u32],
) -> (Vec<u64>, Vec<u64>, Vec<rs_graph::Dist>) {
    let ws = g.weight_sorted();
    let n = g.num_vertices();
    let per_source: Vec<(Vec<u64>, Vec<u64>, rs_graph::Dist)> = (0..n as VertexId)
        .into_par_iter()
        .map_init(
            || BallScratch::new(n),
            |scratch, v| {
                let ball = ball_search(&ws, v, rho, rho, scratch);
                let greedy: Vec<u64> = ks.iter().map(|&k| greedy_count(&ball, k) as u64).collect();
                let dp: Vec<u64> =
                    ks.iter().map(|&k| dp_shortcuts(&ball, k).len() as u64).collect();
                (greedy, dp, ball.radius)
            },
        )
        .collect();
    let mut greedy = vec![0u64; ks.len()];
    let mut dp = vec![0u64; ks.len()];
    let mut radii = Vec::with_capacity(n);
    for (gs, ds, r) in per_source {
        for i in 0..ks.len() {
            greedy[i] += gs[i];
            dp[i] += ds[i];
        }
        radii.push(r);
    }
    (greedy, dp, radii)
}

/// Output bundle: Tables 2, 3 and the Figure 3 panels.
pub struct ShortcutReport {
    pub table2_greedy: Vec<Table>,
    pub table3_dp: Vec<Table>,
    pub fig3_panels: Vec<Table>,
}

/// Runs the full §5.2 experiment.
pub fn run(cfg: &ExpConfig) -> ShortcutReport {
    let mut table2 = Vec::new();
    let mut table3 = Vec::new();
    let mut fig3 = Vec::new();

    for (panel, name) in SHORTCUT_SUITE.iter().enumerate() {
        let sg = build_graph(name, cfg.scale_denom);
        let g = &sg.graph;
        let n = g.num_vertices();
        let m = g.num_edges() as f64;
        let sources = sample_sources(n, cfg.sources, cfg.seed);
        let base_steps = mean_steps(g, 1, &sources);

        let mut header: Vec<String> = vec!["rho".into()];
        for &k in &K_SHORTCUT {
            header.push(format!("k={k}"));
        }
        header.push("red. rounds".into());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let title = |which: &str| {
            format!("{which} factors of additional edges — {name} (n={n}, |E|={})", g.num_edges())
        };
        let mut t2 = Table::new(format!("Table 2 (Greedy): {}", title("greedy")), &header_refs);
        let mut t3 = Table::new(format!("Table 3 (DP): {}", title("DP")), &header_refs);
        let mut f3 = Table::new(
            format!(
                "Figure 3 ({}): {name} — added-edge factor at k=3 (ours | paper)",
                ["a", "b", "c"][panel]
            ),
            &["rho", "Greedy ours", "Greedy paper", "DP ours", "DP paper"],
        );

        for (ri, &rho) in RHO_SHORTCUT.iter().enumerate() {
            if !cfg.rho_usable(rho, n) {
                continue;
            }
            let (greedy, dp, radii) = shortcut_counts_and_radii(g, rho, &K_SHORTCUT);
            let spec = rs_core::Radii::PerVertex(radii.into());
            let steps_at_rho = crate::mean(
                &sources
                    .iter()
                    .map(|&s| rs_core::radius_stepping(g, &spec, s).stats.steps as f64)
                    .collect::<Vec<_>>(),
            );
            let red = base_steps / steps_at_rho;

            let mut row2 = vec![rho.to_string()];
            let mut row3 = vec![rho.to_string()];
            for i in 0..K_SHORTCUT.len() {
                row2.push(format!("{:.2}", greedy[i] as f64 / m));
                row3.push(format!("{:.2}", dp[i] as f64 / m));
            }
            row2.push(format!("{red:.2}"));
            row3.push(format!("{red:.2}"));
            t2.push_row(row2);
            t3.push_row(row3);

            // Figure 3 series (k = 3 is K_SHORTCUT[1]).
            let paper_greedy = TABLE2_GREEDY.iter().find(|(g, _)| g == name).map(|(_, t)| t[ri][1]);
            let paper_dp = TABLE3_DP.iter().find(|(g, _)| g == name).map(|(_, t)| t[ri][1]);
            f3.push_row(vec![
                rho.to_string(),
                format!("{:.2}", greedy[1] as f64 / m),
                paper_greedy.map_or("-".into(), |v| format!("{v:.2}")),
                format!("{:.2}", dp[1] as f64 / m),
                paper_dp.map_or("-".into(), |v| format!("{v:.2}")),
            ]);
        }
        table2.push(t2);
        table3.push(t3);
        fig3.push(f3);
    }

    ShortcutReport { table2_greedy: table2, table3_dp: table3, fig3_panels: fig3 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::gen;

    #[test]
    fn dp_at_most_greedy_everywhere() {
        let g = gen::grid2d(20, 20);
        let (greedy, dp) = shortcut_counts(&g, 12, &[2, 3, 4]);
        for i in 0..3 {
            assert!(dp[i] <= greedy[i], "k index {i}: dp {} > greedy {}", dp[i], greedy[i]);
        }
        assert!(greedy[0] > 0, "rho=12 on a grid must need shortcuts at k=2");
    }

    #[test]
    fn larger_k_adds_fewer_edges() {
        // §5.4: "a larger k will reduce the number of added edges".
        let g = gen::grid2d(24, 24);
        let (greedy, dp) = shortcut_counts(&g, 20, &[2, 3, 4, 5]);
        assert!(greedy.windows(2).all(|w| w[0] >= w[1]), "greedy not decreasing: {greedy:?}");
        assert!(dp.windows(2).all(|w| w[0] >= w[1]), "dp not decreasing: {dp:?}");
    }

    #[test]
    fn webgraph_dp_far_below_greedy() {
        // The paper's headline §5.2 contrast: on hubby graphs DP ≪ Greedy,
        // because Greedy misses hubs sitting off the (k·i+1)-hop levels.
        // Needs balls deeper than k hops: sparse BA (3 edges/vertex) with
        // ρ = 300 ≫ 2-hop neighbourhood.
        let g = gen::scale_free(3000, 3, 42);
        let (greedy, dp) = shortcut_counts(&g, 300, &[2]);
        assert!(greedy[0] > 0, "balls must be deeper than k");
        assert!(
            (dp[0] as f64) < 0.6 * greedy[0] as f64,
            "dp {} vs greedy {}: hubs should collapse DP cost",
            dp[0],
            greedy[0]
        );
    }

    #[test]
    fn tiny_full_run() {
        let report = run(&ExpConfig::tiny());
        assert_eq!(report.table2_greedy.len(), 3);
        assert_eq!(report.fig3_panels.len(), 3);
        assert!(!report.table2_greedy[0].rows.is_empty());
    }
}
