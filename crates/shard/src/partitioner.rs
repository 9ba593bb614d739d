//! Splitting a [`CsrGraph`] into parts: BFS/geometric growth seeded
//! round-robin, plus a quad-tree spatial index for coordinate graphs.
//!
//! Both strategies are deterministic functions of the graph (and, for the
//! spatial strategy, the coordinates): re-partitioning the same input
//! always yields the same [`PartitionAssignment`], which is what lets the
//! RSP8 cache treat the assignment array as the partition's identity.

use std::collections::VecDeque;

use rs_graph::partition::PartitionAssignment;
use rs_graph::{CsrGraph, VertexId};

/// Per-vertex planar coordinates for the spatial strategy (road networks
/// and grids embed naturally; any graph can fall back to
/// [`PartitionStrategy::BfsGrowth`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Coordinates {
    xy: Vec<(f64, f64)>,
}

impl Coordinates {
    /// Wraps one `(x, y)` per vertex.
    pub fn new(xy: Vec<(f64, f64)>) -> Coordinates {
        Coordinates { xy }
    }

    /// Row-major grid embedding: vertex `v` of a `rows x cols` grid sits
    /// at `(v % cols, v / cols)` — matches `rs_graph::gen::grid2d`'s
    /// vertex numbering.
    pub fn grid(rows: usize, cols: usize) -> Coordinates {
        let xy = (0..rows * cols).map(|v| ((v % cols) as f64, (v / cols) as f64)).collect();
        Coordinates { xy }
    }

    /// Number of embedded vertices.
    pub fn len(&self) -> usize {
        self.xy.len()
    }

    /// True when no coordinates are present.
    pub fn is_empty(&self) -> bool {
        self.xy.is_empty()
    }

    /// The position of vertex `v`.
    pub fn position(&self, v: VertexId) -> (f64, f64) {
        self.xy[v as usize]
    }
}

/// How the partitioner assigns vertices to parts.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionStrategy {
    /// Geometric BFS growth: each part grows a breadth-first frontier and
    /// the parts claim one vertex per round-robin turn, re-seeding an
    /// exhausted frontier at the lowest-id unassigned vertex (so
    /// disconnected components are always absorbed). Graph-only — needs
    /// no embedding — and produces balanced parts with locality along
    /// the BFS metric.
    BfsGrowth,
    /// Quad-tree split of the coordinate plane: the bounding box is
    /// recursively quartered (most-populous leaf first) until at least
    /// one leaf per part exists, then leaves are packed onto parts
    /// largest-first onto the currently smallest part.
    Spatial(Coordinates),
}

impl PartitionStrategy {
    /// Stable tag persisted in the RSP8 file.
    pub fn tag(&self) -> u8 {
        match self {
            PartitionStrategy::BfsGrowth => 0,
            PartitionStrategy::Spatial(_) => 1,
        }
    }

    /// Computes the assignment (see the variant docs).
    pub fn assign(&self, g: &CsrGraph, num_parts: usize) -> PartitionAssignment {
        let num_parts = num_parts.max(1);
        let part_of = match self {
            PartitionStrategy::BfsGrowth => bfs_growth(g, num_parts),
            PartitionStrategy::Spatial(coords) => {
                assert_eq!(
                    coords.len(),
                    g.num_vertices(),
                    "spatial partitioning needs one coordinate per vertex"
                );
                quad_tree_assign(coords, num_parts)
            }
        };
        PartitionAssignment::new(part_of, num_parts)
    }
}

/// Round-robin BFS growth (see [`PartitionStrategy::BfsGrowth`]).
fn bfs_growth(g: &CsrGraph, num_parts: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let mut part_of = vec![u32::MAX; n];
    let mut frontiers: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); num_parts];
    let mut cursor: usize = 0; // lowest vertex that might still be unassigned
    let mut assigned = 0usize;
    while assigned < n {
        for (p, frontier) in frontiers.iter_mut().enumerate() {
            if assigned == n {
                break;
            }
            // Claim exactly one vertex for part p this turn: pop frontier
            // candidates (skipping ones another part claimed first), or
            // re-seed at the lowest unassigned vertex.
            let claimed = loop {
                match frontier.pop_front() {
                    Some(v) if part_of[v as usize] == u32::MAX => break Some(v),
                    Some(_) => continue,
                    None => {
                        while cursor < n && part_of[cursor] != u32::MAX {
                            cursor += 1;
                        }
                        break (cursor < n).then_some(cursor as VertexId);
                    }
                }
            };
            let Some(v) = claimed else { continue };
            part_of[v as usize] = p as u32;
            assigned += 1;
            for &t in g.neighbors(v) {
                if part_of[t as usize] == u32::MAX {
                    frontier.push_back(t);
                }
            }
        }
    }
    part_of
}

/// One quad-tree leaf during subdivision.
struct Leaf {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    points: Vec<VertexId>,
    /// False once a split attempt failed to separate the points (all at
    /// one position): never retried.
    splittable: bool,
}

/// Quad-tree subdivision assignment (see [`PartitionStrategy::Spatial`]).
fn quad_tree_assign(coords: &Coordinates, num_parts: usize) -> Vec<u32> {
    let n = coords.len();
    if n == 0 {
        return Vec::new();
    }
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for v in 0..n as VertexId {
        let (x, y) = coords.position(v);
        x0 = x0.min(x);
        y0 = y0.min(y);
        x1 = x1.max(x);
        y1 = y1.max(y);
    }
    let mut leaves =
        vec![Leaf { x0, y0, x1, y1, points: (0..n as VertexId).collect(), splittable: true }];
    while leaves.len() < num_parts {
        // Split the most-populous splittable leaf (ties toward the first).
        let Some(i) = leaves
            .iter()
            .enumerate()
            .filter(|(_, l)| l.splittable && l.points.len() > 1)
            .max_by_key(|(_, l)| l.points.len())
            .map(|(i, _)| i)
        else {
            break;
        };
        let leaf = leaves.swap_remove(i);
        let (mx, my) = ((leaf.x0 + leaf.x1) / 2.0, (leaf.y0 + leaf.y1) / 2.0);
        let mut quads: [Vec<VertexId>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &v in &leaf.points {
            let (x, y) = coords.position(v);
            let q = (usize::from(x > mx)) | (usize::from(y > my) << 1);
            quads[q].push(v);
        }
        if quads.iter().filter(|q| !q.is_empty()).count() < 2 {
            // Degenerate cell (all points on one quadrant boundary side):
            // keep it whole and stop retrying it.
            leaves.push(Leaf { splittable: false, ..leaf });
            continue;
        }
        let bounds = [
            (leaf.x0, leaf.y0, mx, my),
            (mx, leaf.y0, leaf.x1, my),
            (leaf.x0, my, mx, leaf.y1),
            (mx, my, leaf.x1, leaf.y1),
        ];
        for (points, (qx0, qy0, qx1, qy1)) in quads.into_iter().zip(bounds) {
            if !points.is_empty() {
                leaves.push(Leaf { x0: qx0, y0: qy0, x1: qx1, y1: qy1, points, splittable: true });
            }
        }
    }
    // Pack leaves onto parts: largest leaf first, onto the currently
    // smallest part (ties toward the lowest part id). Deterministic given
    // the deterministic subdivision above.
    let mut order: Vec<usize> = (0..leaves.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(leaves[i].points.len()), leaves[i].points[0]));
    let mut part_size = vec![0usize; num_parts];
    let mut part_of = vec![0u32; n];
    for i in order {
        let p = (0..num_parts).min_by_key(|&p| part_size[p]).unwrap_or(0);
        part_size[p] += leaves[i].points.len();
        for &v in &leaves[i].points {
            part_of[v as usize] = p as u32;
        }
    }
    part_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::gen;

    #[test]
    fn bfs_growth_is_total_balanced_and_deterministic() {
        let g = gen::grid2d(10, 10);
        let a = PartitionStrategy::BfsGrowth.assign(&g, 4);
        let b = PartitionStrategy::BfsGrowth.assign(&g, 4);
        assert_eq!(a, b, "deterministic");
        let sizes: Vec<usize> = a.members().iter().map(|m| m.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        // One claim per turn keeps parts within one vertex of each other.
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
    }

    #[test]
    fn bfs_growth_covers_disconnected_components() {
        // Two 3x3 islands, no edges between them.
        let mut b = rs_graph::EdgeListBuilder::new(18);
        for base in [0u32, 9] {
            for r in 0..3u32 {
                for c in 0..3u32 {
                    let v = base + 3 * r + c;
                    if c + 1 < 3 {
                        b.add_edge(v, v + 1, 1);
                    }
                    if r + 1 < 3 {
                        b.add_edge(v, v + 3, 1);
                    }
                }
            }
        }
        let g = b.build();
        let asg = PartitionStrategy::BfsGrowth.assign(&g, 3);
        assert_eq!(asg.members().iter().map(|m| m.len()).sum::<usize>(), 18, "every vertex owned");
    }

    #[test]
    fn quad_tree_splits_the_plane() {
        let g = gen::grid2d(8, 8);
        let coords = Coordinates::grid(8, 8);
        let asg = PartitionStrategy::Spatial(coords).assign(&g, 4);
        let sizes: Vec<usize> = asg.members().iter().map(|m| m.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        // Four quadrants of an 8x8 grid pack evenly.
        assert!(sizes.iter().all(|&s| s == 16), "{sizes:?}");
    }

    #[test]
    fn quad_tree_degenerate_coordinates_fall_back_to_one_leaf() {
        let g = gen::path(5);
        let coords = Coordinates::new(vec![(1.0, 1.0); 5]);
        let asg = PartitionStrategy::Spatial(coords).assign(&g, 3);
        // Unsplittable cloud: everything lands in one part, others empty.
        assert_eq!(asg.members()[0].len(), 5);
    }
}
