//! Sequential breadth-first search: the hop-distance oracle.
//!
//! The parallel, level-synchronous BFS of the paper's Tables 4–5 is the
//! unweighted radius-stepping engine at `r ≡ 0` (`Algorithm::Bfs`), one
//! level per step; [`bfs_seq`] is the queue-based reference it is tested
//! against.

use std::collections::VecDeque;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

/// Sequential BFS; returns hop distances (`INF` if unreachable).
pub fn bfs_seq(g: &CsrGraph, s: VertexId) -> Vec<Dist> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[s as usize] = 0;
    let mut queue = VecDeque::from([s]);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v as usize] == INF {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildSolver;
    use rs_core::{Algorithm, Query, SolverBuilder, SolverScratch};
    use rs_graph::gen;

    #[test]
    fn seq_and_par_agree_on_suite() {
        let mut scratch = SolverScratch::new();
        for g in [gen::grid2d(9, 11), gen::scale_free(400, 3, 7), gen::path(30)] {
            let par = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
            assert_eq!(bfs_seq(&g, 0), par.execute(&Query::single_source(0), &mut scratch).dist());
        }
    }

    #[test]
    fn engine_levels_equal_eccentricity() {
        // One step per BFS level; the source is settled before the first.
        let g = gen::path(10);
        let solver = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
        let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(out.dist(), bfs_seq(&g, 0));
        assert_eq!((out.stats().steps, out.stats().substeps), (9, 9));
    }

    #[test]
    fn goal_bounded_stops_early_with_exact_goal() {
        let g = gen::path(30);
        let solver = SolverBuilder::new(&g).algorithm(Algorithm::Bfs).build();
        let mut scratch = SolverScratch::new();
        let full = solver.execute(&Query::single_source(0), &mut scratch);
        let bounded = solver.execute(&Query::point_to_point(0, 5), &mut scratch);
        assert_eq!(bounded.dist()[5], full.dist()[5]);
        assert!(bounded.stats().steps < full.stats().steps);
        assert_eq!(bounded.dist()[29], INF, "tail never reached");
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let g = gen::star(5);
        let mut dist = bfs_seq(&g, 1);
        assert_eq!(dist[0], 1);
        assert_eq!(dist[1], 0);
        dist.sort_unstable();
        assert_eq!(dist, vec![0, 1, 2, 2, 2]);
    }
}
