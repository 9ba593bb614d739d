//! Seeded synthetic graph generators.
//!
//! These supply the paper's six-graph evaluation suite (§5.1). The grids are
//! the paper's own constructions; the road networks and webgraphs are
//! structural stand-ins for the SNAP datasets, chosen to reproduce the
//! properties the paper credits for its results (see README, "Reproducing
//! the paper"): constant-degree near-planarity for roads, power-law hubs
//! for webgraphs.
//!
//! All generators return unit-weighted topologies; apply
//! [`crate::weights::reweight`] for the weighted experiments.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::builder::build_symmetric;
use crate::{CsrGraph, Edge, VertexId};

/// 2D grid (`nx × ny` lattice). The paper uses 1000×1000.
pub fn grid2d(nx: usize, ny: usize) -> CsrGraph {
    let id = |x: usize, y: usize| (x * ny + y) as VertexId;
    let mut edges: Vec<Edge> = Vec::with_capacity(2 * nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            if x + 1 < nx {
                edges.push((id(x, y), id(x + 1, y), 1));
            }
            if y + 1 < ny {
                edges.push((id(x, y), id(x, y + 1), 1));
            }
        }
    }
    build_symmetric(nx * ny, &edges)
}

/// 3D grid (`nx × ny × nz` lattice).
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> CsrGraph {
    let id = |x: usize, y: usize, z: usize| ((x * ny + y) * nz + z) as VertexId;
    let mut edges: Vec<Edge> = Vec::with_capacity(3 * nx * ny * nz);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                if x + 1 < nx {
                    edges.push((id(x, y, z), id(x + 1, y, z), 1));
                }
                if y + 1 < ny {
                    edges.push((id(x, y, z), id(x, y + 1, z), 1));
                }
                if z + 1 < nz {
                    edges.push((id(x, y, z), id(x, y, z + 1), 1));
                }
            }
        }
    }
    build_symmetric(nx * ny * nz, &edges)
}

/// Road-network stand-in: a `side × side` lattice with ~30% of lattice edges
/// removed, a sprinkle of diagonals, and removed edges re-added where needed
/// to keep the graph connected.
///
/// Matches the SNAP road networks' regime: average degree ≈ 2.8–3.2 (SNAP
/// roadNet-PA: 2.83 arcs/vertex), near-planar, hop diameter `Θ(√n)`. These
/// are the properties §5 credits for deep shortest-path trees and expensive
/// shortcutting at large ρ.
pub fn road_network(side: usize, seed: u64) -> CsrGraph {
    assert!(side >= 2);
    let n = side * side;
    let id = |x: usize, y: usize| (x * side + y) as VertexId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept: Vec<Edge> = Vec::new();
    let mut removed: Vec<Edge> = Vec::new();
    for x in 0..side {
        for y in 0..side {
            let consider =
                |e: Edge, rng: &mut StdRng, kept: &mut Vec<Edge>, removed: &mut Vec<Edge>| {
                    if rng.random_range(0.0..1.0) < 0.70 {
                        kept.push(e);
                    } else {
                        removed.push(e);
                    }
                };
            if x + 1 < side {
                consider((id(x, y), id(x + 1, y), 1), &mut rng, &mut kept, &mut removed);
            }
            if y + 1 < side {
                consider((id(x, y), id(x, y + 1), 1), &mut rng, &mut kept, &mut removed);
            }
            // Occasional diagonal "shortcut road" for irregularity.
            if x + 1 < side && y + 1 < side && rng.random_range(0.0..1.0) < 0.03 {
                kept.push((id(x, y), id(x + 1, y + 1), 1));
            }
        }
    }
    // Re-add removed lattice edges that bridge components (deterministic
    // shuffled order) so the result is connected like a real road network.
    let mut uf = UnionFind::new(n);
    for &(u, v, _) in &kept {
        uf.union(u as usize, v as usize);
    }
    removed.shuffle(&mut rng);
    for &(u, v, w) in &removed {
        if uf.union(u as usize, v as usize) {
            kept.push((u, v, w));
        }
    }
    build_symmetric(n, &kept)
}

/// Webgraph stand-in: Barabási–Albert preferential attachment.
///
/// Every new vertex attaches to `edges_per_vertex` existing vertices chosen
/// proportionally to degree, yielding the power-law "hubs" the paper credits
/// for the webgraph results (few steps even at ρ = 1, DP ≪ Greedy).
/// SNAP-matched densities: web-Stanford ≈ 7 edges/vertex, web-NotreDame ≈ 3.
pub fn scale_free(n: usize, edges_per_vertex: usize, seed: u64) -> CsrGraph {
    let m = edges_per_vertex.max(1);
    assert!(n > m, "need more vertices than edges-per-vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = Vec::with_capacity(n * m);
    // Degree-proportional sampling via the repeated-endpoints list.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    // Seed clique on m+1 vertices.
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u as VertexId, v as VertexId, 1));
            endpoints.push(u as VertexId);
            endpoints.push(v as VertexId);
        }
    }
    let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        for &t in &chosen {
            edges.push((v as VertexId, t, 1));
            endpoints.push(v as VertexId);
            endpoints.push(t);
        }
    }
    build_symmetric(n, &edges)
}

/// Webgraph stand-in with crawl structure: a Barabási–Albert core plus
/// path "whiskers" hanging off random core vertices.
///
/// Pure preferential attachment at web-like densities has a 3–4 hop
/// diameter, but the SNAP web crawls the paper evaluates are much deeper
/// (BFS from a random page takes ~28 rounds on web-NotreDame and ~109 on
/// web-Stanford — Table 4's ρ=1 column) because crawls contain long page
/// chains. This generator reproduces both properties the paper's analysis
/// leans on: power-law hubs (what makes DP ≪ Greedy in §5.2 and keeps
/// step counts low in §5.3) and deep tendrils (what gives balls a hop
/// radius larger than k in the first place).
///
/// `whisker_frac` of the vertices form paths of length uniform in
/// `1..=whisker_max`, each attached to a degree-biased core vertex.
pub fn webgraph(
    n: usize,
    core_edges_per_vertex: usize,
    whisker_frac: f64,
    whisker_max: usize,
    seed: u64,
) -> CsrGraph {
    assert!((0.0..1.0).contains(&whisker_frac) && whisker_max >= 1);
    let n_whisker =
        ((n as f64 * whisker_frac) as usize).min(n.saturating_sub(core_edges_per_vertex + 2));
    let n_core = n - n_whisker;
    let core = scale_free(n_core, core_edges_per_vertex, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77AB_C0DE);
    let mut edges: Vec<Edge> = core.all_arcs().filter(|&(u, v, _)| u < v).collect();
    // Degree-biased anchors: reuse the endpoints trick over core arcs.
    let endpoints: Vec<VertexId> = core.all_arcs().map(|(u, _, _)| u).collect();
    let mut next = n_core as VertexId;
    while (next as usize) < n {
        let len = rng.random_range(1..=whisker_max).min(n - next as usize);
        let anchor = endpoints[rng.random_range(0..endpoints.len())];
        let mut prev = anchor;
        for _ in 0..len {
            edges.push((prev, next, 1));
            prev = next;
            next += 1;
        }
    }
    build_symmetric(n, &edges)
}

/// Erdős–Rényi G(n, m): `m` uniform random vertex pairs (duplicates and
/// self-pairs are dropped by the builder, so the edge count is ≤ `m`).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<Edge> = (0..m)
        .map(|_| (rng.random_range(0..n as VertexId), rng.random_range(0..n as VertexId), 1))
        .collect();
    build_symmetric(n, &edges)
}

/// Simple path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<Edge> =
        (0..n.saturating_sub(1)).map(|i| (i as VertexId, i as VertexId + 1, 1)).collect();
    build_symmetric(n, &edges)
}

/// Cycle on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3);
    let mut edges: Vec<Edge> = (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1, 1)).collect();
    edges.push((n as VertexId - 1, 0, 1));
    build_symmetric(n, &edges)
}

/// Star with center 0 and `n - 1` leaves.
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<Edge> = (1..n).map(|i| (0, i as VertexId, 1)).collect();
    build_symmetric(n, &edges)
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> CsrGraph {
    let mut edges: Vec<Edge> = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as VertexId, v as VertexId, 1));
        }
    }
    build_symmetric(n, &edges)
}

/// The pathological sparse graph of Figure 2: `cols` columns of `d` vertices
/// with complete bipartite edges between consecutive columns.
///
/// With `cols = 3` and `d = ⌊ρ/3⌋ − 1`, a ball search from any vertex must
/// examine `Θ(d²)` edges to reach `ρ > 3d` vertices, showing the `O(ρ²)`
/// preprocessing bound of Lemma 4.2 is tight.
pub fn fig2_gadget(d: usize, cols: usize) -> CsrGraph {
    assert!(d >= 1 && cols >= 2);
    let n = d * cols;
    let id = |c: usize, i: usize| (c * d + i) as VertexId;
    let mut edges: Vec<Edge> = Vec::with_capacity((cols - 1) * d * d);
    for c in 0..cols - 1 {
        for i in 0..d {
            for j in 0..d {
                edges.push((id(c, i), id(c + 1, j), 1));
            }
        }
    }
    build_symmetric(n, &edges)
}

/// Minimal union-find used by the road-network generator.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: usize) -> u32 {
        let mut r = x as u32;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        // Path compression.
        let mut c = x as u32;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }

    /// Unions the sets of `a` and `b`; true iff they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.parent[ra as usize] = rb;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_connected;

    #[test]
    fn grid2d_shape() {
        let g = grid2d(4, 5);
        assert_eq!(g.num_vertices(), 20);
        // 3*5 horizontal + 4*4 vertical = 31 edges.
        assert_eq!(g.num_edges(), 31);
        assert!(is_connected(&g));
        g.check_invariants().unwrap();
    }

    #[test]
    fn grid3d_shape() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.num_vertices(), 27);
        // 3 * (2*3*3) = 54 edges.
        assert_eq!(g.num_edges(), 54);
        assert!(is_connected(&g));
    }

    #[test]
    fn road_network_connected_and_sparse() {
        let g = road_network(40, 3);
        assert_eq!(g.num_vertices(), 1600);
        assert!(is_connected(&g), "reconnection pass must leave one component");
        let avg_deg = g.num_arcs() as f64 / g.num_vertices() as f64;
        assert!((2.2..=3.6).contains(&avg_deg), "road-like average degree, got {avg_deg}");
        g.check_invariants().unwrap();
    }

    #[test]
    fn road_network_deterministic() {
        assert_eq!(road_network(20, 9), road_network(20, 9));
        assert_ne!(road_network(20, 9), road_network(20, 10));
    }

    #[test]
    fn scale_free_has_hubs() {
        let g = scale_free(2000, 4, 11);
        assert_eq!(g.num_vertices(), 2000);
        assert!(is_connected(&g), "BA graphs are connected by construction");
        let max_deg = (0..2000u32).map(|v| g.degree(v)).max().unwrap();
        let avg_deg = g.num_arcs() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 8.0 * avg_deg,
            "power-law hub expected: max {max_deg}, avg {avg_deg}"
        );
    }

    #[test]
    fn webgraph_has_hubs_and_depth() {
        let g = webgraph(4000, 7, 0.35, 60, 5);
        assert_eq!(g.num_vertices(), 4000);
        assert!(is_connected(&g), "whiskers attach to the core");
        let max_deg = (0..4000u32).map(|v| g.degree(v)).max().unwrap();
        let avg_deg = g.num_arcs() as f64 / g.num_vertices() as f64;
        assert!(max_deg as f64 > 8.0 * avg_deg, "hubs required");
        // Depth: BFS eccentricity must be whisker-scale, not BA-scale (~4).
        let ecc = crate::analysis::hop_eccentricity(&g, 0);
        assert!(ecc > 30, "crawl-like depth expected, got ecc {ecc}");
        g.check_invariants().unwrap();
    }

    #[test]
    fn webgraph_deterministic() {
        assert_eq!(webgraph(500, 4, 0.3, 20, 9), webgraph(500, 4, 0.3, 20, 9));
    }

    #[test]
    fn erdos_renyi_bounds() {
        let g = erdos_renyi(100, 300, 5);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 300);
        assert!(g.num_edges() > 250, "few duplicates expected at this density");
    }

    #[test]
    fn small_families() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(path(1).num_edges(), 0);
        assert!(is_connected(&cycle(3)));
    }

    #[test]
    fn fig2_gadget_shape() {
        let d = 10;
        let g = fig2_gadget(d, 3);
        assert_eq!(g.num_vertices(), 3 * d);
        assert_eq!(g.num_edges(), 2 * d * d);
        assert!(is_connected(&g));
        // Middle column vertices see both neighbor columns.
        assert_eq!(g.degree(d as VertexId), 2 * d);
    }
}
