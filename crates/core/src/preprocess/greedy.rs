//! The Greedy shortcut heuristic (§4.2.1).
//!
//! On the hop-minimal shortest-path tree of a ball, add an edge from the
//! source to every vertex at tree depth `k·i + 1` (for `i ≥ 1`). Every
//! member then lies within `k` hops: a vertex at depth `h > k` uses the
//! shortcut to its ancestor at depth `k·⌊(h-1)/k⌋ + 1 ≤ h`, landing at
//! `1 + ((h-1) mod k) ≤ k` hops. Simple, but §4.2.1's chain example (and
//! the webgraph results of §5.2) show it can add far more edges than
//! necessary — the DP heuristic is the refined alternative.

use rs_graph::{Edge, Weight};

use super::balls::Ball;

/// Shortcut edges `(source, v, d(source, v))` the Greedy rule adds for one
/// ball.
pub fn greedy_shortcuts(ball: &Ball, k: u32) -> Vec<Edge> {
    assert!(k >= 1);
    ball.members
        .iter()
        .filter(|m| m.hops > k && (m.hops - 1) % k == 0)
        .map(|m| (ball.source, m.v, dist_as_weight(m.dist)))
        .collect()
}

/// Number of edges [`greedy_shortcuts`] would add, without materialising
/// them (the Figure 3 / Table 2 measurement).
pub fn greedy_count(ball: &Ball, k: u32) -> usize {
    assert!(k >= 1);
    ball.members.iter().filter(|m| m.hops > k && (m.hops - 1) % k == 0).count()
}

/// The (1, ρ) construction: a direct shortcut to every ball member (§4.1).
/// Members at 1 hop already have an edge of exactly this weight (their
/// hop-minimal shortest path is the edge itself), so only deeper members
/// produce new edges after the builder's min-weight merge.
pub fn full_shortcuts(ball: &Ball) -> Vec<Edge> {
    ball.members
        .iter()
        .skip(1) // members[0] is the source
        .map(|m| (ball.source, m.v, dist_as_weight(m.dist)))
        .collect()
}

pub(crate) fn dist_as_weight(d: u64) -> Weight {
    Weight::try_from(d).expect("ball distance exceeds u32 — graph weights out of supported range")
}

/// Test/verification helper: hop depth of every member after adding
/// `shortcut_targets`, using only tree edges and shortcuts. Members are in
/// pop order, so parents precede children.
pub fn hops_with_shortcuts(ball: &Ball, shortcut_targets: &[rs_graph::VertexId]) -> Vec<u32> {
    let index = ball.member_index();
    let mut shortcut = vec![false; ball.members.len()];
    for &t in shortcut_targets {
        shortcut[index.position(t)] = true;
    }
    let mut hops = vec![u32::MAX; ball.members.len()];
    hops[0] = 0;
    for (i, m) in ball.members.iter().enumerate().skip(1) {
        let via_parent = hops[index.position(m.parent)].saturating_add(1);
        hops[i] = if shortcut[i] { 1 } else { via_parent };
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::balls::{ball_search, BallScratch};
    use rs_graph::{gen, weights, WeightModel};

    fn ball_of(g: &rs_graph::CsrGraph, v: u32, rho: usize) -> Ball {
        let ws = g.weight_sorted();
        let mut scratch = BallScratch::new(g.num_vertices());
        ball_search(&ws, v, rho, rho, &mut scratch)
    }

    #[test]
    fn path_ball_shortcut_levels() {
        // Path from vertex 0: members at hops 0..9 for rho = 10.
        let g = gen::path(30);
        let ball = ball_of(&g, 0, 10);
        let sc = greedy_shortcuts(&ball, 3);
        // Depths k·i + 1 = 4, 7 (members reach depth 9); i.e. vertices 4, 7.
        let targets: Vec<u32> = sc.iter().map(|e| e.1).collect();
        assert_eq!(targets, vec![4, 7]);
        // Each shortcut weight equals the exact distance.
        assert!(sc.iter().all(|&(s, v, w)| s == 0 && w == v));
    }

    #[test]
    fn all_members_within_k_hops_after_greedy() {
        for (g, rho) in [
            (weights::reweight(&gen::grid2d(8, 8), WeightModel::paper_weighted(), 3), 20usize),
            (gen::scale_free(200, 3, 5), 25),
            (gen::path(50), 12),
        ] {
            for k in 1..=4u32 {
                for src in [0u32, 7] {
                    let ball = ball_of(&g, src, rho);
                    let sc = greedy_shortcuts(&ball, k);
                    let targets: Vec<u32> = sc.iter().map(|e| e.1).collect();
                    let hops = hops_with_shortcuts(&ball, &targets);
                    assert!(
                        hops.iter().all(|&h| h <= k),
                        "greedy k={k} left a member beyond {k} hops"
                    );
                }
            }
        }
    }

    #[test]
    fn full_shortcuts_cover_every_member() {
        let g = weights::reweight(&gen::grid2d(6, 6), WeightModel::paper_weighted(), 1);
        let ball = ball_of(&g, 0, 12);
        let sc = full_shortcuts(&ball);
        assert_eq!(sc.len(), ball.members.len() - 1);
        let targets: Vec<u32> = sc.iter().map(|e| e.1).collect();
        let hops = hops_with_shortcuts(&ball, &targets);
        assert!(hops.iter().all(|&h| h <= 1), "(1,ρ): every member at one hop");
    }

    #[test]
    fn greedy_adds_nothing_when_ball_is_shallow() {
        // Star: every member is at 1 hop; greedy with any k adds nothing.
        let g = gen::star(20);
        let ball = ball_of(&g, 0, 10);
        for k in 1..=3 {
            assert!(greedy_shortcuts(&ball, k).is_empty());
        }
    }
}
