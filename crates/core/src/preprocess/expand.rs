//! Exact input-graph expansion of shortcut edges.
//!
//! The (k, ρ)-preprocessing adds *shortcut* edges `source → member` whose
//! weight is the exact ball distance — distance-preserving, but a path
//! extracted on the augmented graph may ride hops that are not edges of
//! the input graph. Every shortcut follows the ball's hop-minimal
//! shortest-path tree, so the preprocessing records, per ball source, the
//! tree-parent chain of every shortcut target ([`ShortcutExpander`]); at
//! path-extraction time each shortcut hop unrolls into its chain of
//! *input* edges, turning a shortcut-augmented route into an input-graph
//! route of identical total weight.
//!
//! The table is flat: one CSR row per ball source, holding that ball's
//! recorded links sorted by member. A lookup is a binary search in a row
//! of at most ρ + ties links, so expansion costs O(log ρ) per output hop.
//! Chain edges are edges of the input graph by construction (the ball
//! search runs before shortcuts are merged), so expansion never recurses
//! through another shortcut. The table is persisted row by row
//! ([`ShortcutExpander::write_to`] / [`ShortcutExpander::read_from`]), so
//! saved files are byte-reproducible.
//!
//! `rs_shard`'s boundary skeleton uses the same table one level up: its
//! within-part arcs are overlay edges at exact distances too, and each
//! unrolls through the links recorded from the arc's source.

use std::io::{self, Read, Write};

use rs_graph::{Dist, VertexId};

/// One recorded chain link of a ball: `(member, tree parent of member in
/// the ball, exact ball distance of member)`.
pub(crate) type ChainLink = (VertexId, VertexId, Dist);

/// The overlay-edge → input-edge expansion table: built during
/// preprocessing, persisted in the `RSP6` cache format and attached
/// (behind an `Arc`) to every `QueryResponse` a preprocessed solver
/// produces, so `goal_path()` and friends return input-graph routes. The
/// sharded skeleton keeps one over global ids for its within-part arcs.
#[derive(Debug, Clone, Default)]
pub struct ShortcutExpander {
    /// Row `s` is `links[offsets[s]..offsets[s + 1]]`; empty when no link
    /// is recorded at all.
    offsets: Vec<usize>,
    /// Each row sorted by member, members unique within a row.
    links: Vec<ChainLink>,
}

/// Two tables are equal when they hold the same links (however many
/// trailing empty rows each has).
impl PartialEq for ShortcutExpander {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl ShortcutExpander {
    /// An empty expander (expands every path to itself).
    pub fn new() -> Self {
        ShortcutExpander::default()
    }

    /// The table whose row `s` is `rows[s]`; each row must be sorted by
    /// member with no member twice (what the preprocessing pass collects
    /// per ball).
    pub(crate) fn from_sorted_rows(rows: &[Vec<ChainLink>]) -> Self {
        debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
        let total = rows.iter().map(Vec::len).sum();
        if total == 0 {
            return ShortcutExpander::new();
        }
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut links = Vec::with_capacity(total);
        offsets.push(0);
        for row in rows {
            links.extend_from_slice(row);
            offsets.push(links.len());
        }
        ShortcutExpander { offsets, links }
    }

    /// The table over `n` vertices holding `(source, member, parent,
    /// dist)` links given in any order (the cache loaders' input, and the
    /// skeleton build's). Rejects a table an expansion walk could fail
    /// on: an id `≥ n`, a member recorded twice in one ball, a member
    /// equal to its ball source, or a parent that is neither the ball
    /// source nor a recorded member of the same ball at a strictly
    /// smaller distance. Weights are ≥ 1, so the last rule makes every
    /// chain walk end at the source.
    pub fn from_links(
        n: usize,
        mut links: Vec<(VertexId, VertexId, VertexId, Dist)>,
    ) -> Result<Self, String> {
        if let Some(l) = links.iter().find(|l| [l.0, l.1, l.2].iter().any(|&v| v as usize >= n)) {
            return Err(format!("chain link {l:?} names a vertex outside 0..{n}"));
        }
        if links.is_empty() {
            return Ok(ShortcutExpander::new());
        }
        links.sort_unstable_by_key(|&(s, m, _, _)| (s, m));
        let mut offsets = vec![0usize; n + 1];
        for &(s, ..) in &links {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let table = ShortcutExpander {
            offsets,
            links: links.iter().map(|&(_, m, p, d)| (m, p, d)).collect(),
        };
        if let Some(w) = links.windows(2).find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1)) {
            return Err(format!("chain links {:?} record one member twice", (w[0], w[1])));
        }
        for l @ &(s, m, p, d) in &links {
            if m == s || (p != s && table.get(s, p).is_none_or(|(_, pd)| pd >= d)) {
                return Err(format!("chain link {l:?} has no closer parent in its ball"));
            }
        }
        Ok(table)
    }

    /// The tree parent of `member` in `source`'s ball. Chain walks only
    /// visit recorded members: the preprocessing records every ancestor
    /// of a shortcut target, and [`ShortcutExpander::from_links`] rejects
    /// a table that breaks a chain.
    fn link_parent(&self, source: VertexId, member: VertexId) -> VertexId {
        self.get(source, member).expect("chain walks stay on recorded members").0
    }

    /// The recorded `(parent, dist)` of `member` in `source`'s ball.
    pub fn get(&self, source: VertexId, member: VertexId) -> Option<(VertexId, Dist)> {
        let s = source as usize;
        let row = &self.links[*self.offsets.get(s)?..*self.offsets.get(s + 1)?];
        let i = row.binary_search_by_key(&member, |l| l.0).ok()?;
        Some((row[i].1, row[i].2))
    }

    /// Number of recorded chain links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no shortcut needed a chain (e.g. ρ so small that every
    /// proposed shortcut duplicated an input edge).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterates the recorded links as `(source, member, parent, dist)` in
    /// `(source, member)` order (the cache writer's order).
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, VertexId, Dist)> + '_ {
        self.offsets.windows(2).enumerate().flat_map(move |(s, w)| {
            self.links[w[0]..w[1]].iter().map(move |&(m, p, d)| (s as VertexId, m, p, d))
        })
    }

    /// Writes the table as a link count followed by one 20-byte
    /// `(source, member, parent, dist)` record per link, in
    /// [`ShortcutExpander::iter`] order.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        for (source, member, parent, dist) in self.iter() {
            w.write_all(&source.to_le_bytes())?;
            w.write_all(&member.to_le_bytes())?;
            w.write_all(&parent.to_le_bytes())?;
            w.write_all(&dist.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a table written by [`ShortcutExpander::write_to`] over `n`
    /// vertices. The records may come in any order; a table
    /// [`ShortcutExpander::from_links`] rejects is `InvalidData`.
    pub fn read_from<R: Read>(r: &mut R, n: usize) -> io::Result<ShortcutExpander> {
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let count = u64::from_le_bytes(b8);
        let mut links = Vec::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            let mut ids = [[0u8; 4]; 3];
            for id in &mut ids {
                r.read_exact(id)?;
            }
            r.read_exact(&mut b8)?;
            let [source, member, parent] = ids.map(u32::from_le_bytes);
            links.push((source, member, parent, u64::from_le_bytes(b8)));
        }
        ShortcutExpander::from_links(n, links)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Expands a path on the shortcut-augmented graph into a path on the
    /// input graph with the same endpoints and total weight. `dist` is the
    /// solve's distance array (consecutive path vertices telescope, so
    /// `dist[b] - dist[a]` is the weight of the augmented hop actually
    /// used). Hops that are input edges pass through unchanged; shortcut
    /// hops unroll into their recorded tree chain, in either direction
    /// (the graphs are symmetric). Costs O(log ρ) per output hop.
    pub fn expand_path(&self, path: &[VertexId], dist: &[Dist]) -> Vec<VertexId> {
        if path.len() < 2 || self.links.is_empty() {
            return path.to_vec();
        }
        let mut out = Vec::with_capacity(path.len());
        out.push(path[0]);
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let wt = dist[b as usize] - dist[a as usize];
            self.expand_hop(a, b, wt, &mut out);
        }
        out
    }

    /// Appends the input-graph expansion of hop `a → b` of weight `wt`
    /// (everything after `a`, ending with `b`).
    fn expand_hop(&self, a: VertexId, b: VertexId, wt: Dist, out: &mut Vec<VertexId>) {
        // A hop matches a recorded shortcut only when the weights agree —
        // if an input edge of the same endpoints won the min-weight merge,
        // the recorded ball distance is strictly larger and the hop passes
        // through as the input edge it is.
        if self.get(a, b).is_some_and(|(_, d)| d == wt) {
            // Forward: walk b's parent chain up to a, then reverse.
            let start = out.len();
            let mut cur = b;
            while cur != a {
                out.push(cur);
                cur = self.link_parent(a, cur);
            }
            out[start..].reverse();
        } else if self.get(b, a).is_some_and(|(_, d)| d == wt) {
            // Reverse traversal of a shortcut from b's ball: a's parent
            // chain toward b is already the forward a → b order.
            let mut cur = a;
            while cur != b {
                cur = self.link_parent(b, cur);
                out.push(cur);
            }
        } else {
            out.push(b); // plain input edge
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 0 -1- 1 -2- 2 -3- 3 with a shortcut 0→3 (weight 6) and
    /// 0→2 (weight 3): the ball tree of source 0.
    fn expander() -> ShortcutExpander {
        ShortcutExpander::from_sorted_rows(&[vec![(1, 0, 1), (2, 1, 3), (3, 2, 6)]])
    }

    #[test]
    fn forward_shortcut_unrolls() {
        let e = expander();
        // Path 0 →(shortcut) 3 → 4 on the augmented graph.
        let dist = vec![0, u64::MAX, u64::MAX, 6, 8];
        assert_eq!(e.expand_path(&[0, 3, 4], &dist), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reverse_shortcut_unrolls() {
        let e = expander();
        // Path 3 →(shortcut, reversed) 0 on the augmented graph.
        let dist = vec![6, u64::MAX, u64::MAX, 0];
        assert_eq!(e.expand_path(&[3, 0], &dist), vec![3, 2, 1, 0]);
    }

    #[test]
    fn input_edges_pass_through() {
        let e = expander();
        // Weight 2 hop 1→2 is the input edge, not a shortcut (0's chain
        // records dist 3 for member 2, keyed to source 0 anyway).
        let dist = vec![u64::MAX, 0, 2];
        assert_eq!(e.expand_path(&[1, 2], &dist), vec![1, 2]);
    }

    #[test]
    fn weight_mismatch_is_an_input_edge() {
        // Shortcut 0→2 proposed at weight 5...
        let e = ShortcutExpander::from_links(3, vec![(0, 1, 0, 2), (0, 2, 1, 5)]).unwrap();
        let dist = vec![0, u64::MAX, 3]; // ...but the hop used weight 3
        assert_eq!(e.expand_path(&[0, 2], &dist), vec![0, 2], "input edge won the merge");
    }

    #[test]
    fn trivial_paths_untouched() {
        let e = expander();
        assert_eq!(e.expand_path(&[7], &[]), vec![7]);
        assert!(ShortcutExpander::new().is_empty());
    }

    #[test]
    fn links_in_any_order_build_the_same_table() {
        let mut links: Vec<_> = expander().iter().collect();
        assert_eq!(links, vec![(0, 1, 0, 1), (0, 2, 1, 3), (0, 3, 2, 6)], "(source, member) order");
        links.reverse();
        assert_eq!(ShortcutExpander::from_links(4, links).unwrap(), expander());
        assert_eq!(ShortcutExpander::from_links(4, Vec::new()).unwrap(), ShortcutExpander::new());
    }

    #[test]
    fn from_links_rejects_tables_a_walk_could_fail_on() {
        for (what, links) in [
            ("id out of range", vec![(0, 1, 0, 1), (0, 4, 1, 3)]),
            ("parent not recorded", vec![(0, 2, 1, 3)]),
            ("two-link cycle", vec![(0, 1, 2, 4), (0, 2, 1, 3)]),
            ("parent not closer", vec![(0, 1, 0, 3), (0, 2, 1, 3)]),
            ("member twice", vec![(0, 1, 0, 1), (0, 1, 0, 2)]),
            ("member is the source", vec![(0, 0, 0, 0)]),
        ] {
            assert!(ShortcutExpander::from_links(4, links).is_err(), "{what} accepted");
        }
    }
}
