//! (k, ρ)-graph preprocessing (§4).
//!
//! [`Preprocessed::build`] runs a truncated Dijkstra from every vertex in
//! parallel (Lemma 4.2), derives the vertex radii `r(v) = r_ρ(v)`, selects
//! shortcut edges with the chosen heuristic, and merges them into the
//! graph (duplicate edges keep the minimum weight). The result satisfies
//! `r(v) ≤ r̄_k(v)` and `|B(v, r(v))| ≥ ρ` — the preconditions of
//! Theorems 3.2 and 3.3 — whenever every vertex can reach at least ρ
//! vertices, so each subsequent solve (the [`Preprocessed`] solver's
//! `execute`, or the engine on [`Preprocessed::graph`] with
//! [`Preprocessed::radii`]) takes at most `⌈n/ρ⌉(1 + ⌈log₂ ρL⌉)` steps of
//! at most `k + 2` substeps.
//!
//! For step-count experiments at very large ρ (where `n·ρ` shortcut edges
//! cannot be materialised — the paper's Tables 4–7 go to ρ = 10⁴ on
//! million-vertex graphs), use [`balls::compute_radii`] and run the engine
//! on the original graph: the step bound of Theorem 3.3 depends only on
//! the radii, not on the shortcuts (shortcuts bound the *substeps*).

pub mod balls;
pub mod dp;
pub mod expand;
pub mod greedy;

pub use balls::{ball_search, compute_radii, Ball, BallMember, BallScratch};
pub use dp::dp_shortcuts;
pub use expand::ShortcutExpander;
pub use greedy::{full_shortcuts, greedy_count, greedy_shortcuts};

use std::sync::Arc;

use rayon::prelude::*;

use rs_graph::builder::merge_edges;
use rs_graph::{CsrGraph, Dist, Edge, VertexId};

use self::expand::ChainLink;
use crate::radii::Radii;

/// Which shortcut-selection rule to use (§4.1–4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShortcutHeuristic {
    /// (1, ρ): direct shortcut to every ball member (§4.1). Up to `n·ρ`
    /// edges; the fewest-edges choice only when `k = 1`.
    Full,
    /// Source-to-(k·i+1)-hop-levels rule (§4.2.1).
    Greedy,
    /// Per-tree-optimal dynamic program (§4.2.2); the paper's recommended
    /// heuristic.
    #[default]
    Dp,
}

impl ShortcutHeuristic {
    /// The one-byte on-disk tag (0 Full, 1 Greedy, 2 Dp) that cache
    /// files store.
    pub fn tag(self) -> u8 {
        match self {
            ShortcutHeuristic::Full => 0,
            ShortcutHeuristic::Greedy => 1,
            ShortcutHeuristic::Dp => 2,
        }
    }

    /// The heuristic behind an on-disk [`ShortcutHeuristic::tag`];
    /// `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<ShortcutHeuristic> {
        match tag {
            0 => Some(ShortcutHeuristic::Full),
            1 => Some(ShortcutHeuristic::Greedy),
            2 => Some(ShortcutHeuristic::Dp),
            _ => None,
        }
    }
}

/// Preprocessing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessConfig {
    /// Hop bound `k ≥ 1`: each step of the solver takes ≤ `k + 2` substeps.
    pub k: u32,
    /// Ball size ρ ≥ 1: the solver takes `O((n/ρ) log ρL)` steps.
    pub rho: usize,
    /// Shortcut heuristic.
    pub heuristic: ShortcutHeuristic,
}

impl PreprocessConfig {
    /// Config with the paper's default heuristic for the given `k`
    /// ((1,ρ)-Full when `k = 1`, DP otherwise).
    pub fn new(k: u32, rho: usize) -> Self {
        assert!(k >= 1 && rho >= 1);
        let heuristic = if k == 1 { ShortcutHeuristic::Full } else { ShortcutHeuristic::Dp };
        PreprocessConfig { k, rho, heuristic }
    }

    /// Overrides the heuristic.
    pub fn with_heuristic(mut self, h: ShortcutHeuristic) -> Self {
        self.heuristic = h;
        self
    }
}

/// Preprocessing outcome measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Shortcut edges proposed by the heuristic, summed over sources
    /// (before deduplication against existing edges) — the quantity
    /// Figures 3 and Tables 2–3 report as a fraction of `m`.
    pub raw_shortcuts: usize,
    /// Net new undirected edges after the min-weight merge.
    pub effective_new_edges: usize,
    /// Undirected edge count of the input graph.
    pub original_edges: usize,
    /// Total edges examined by all ball searches (Lemma 4.2 work measure).
    pub explored_edges: u64,
    /// Total ball memberships (≥ n·ρ; ties can push it higher).
    pub ball_members: u64,
}

impl PreprocessStats {
    /// `raw_shortcuts / original_edges`: the paper's "factors of additional
    /// edges".
    pub fn added_edge_factor(&self) -> f64 {
        self.raw_shortcuts as f64 / self.original_edges.max(1) as f64
    }
}

/// A graph prepared for radius stepping: shortcut-augmented topology plus
/// the vertex radii.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// The (k, ρ)-graph: input plus shortcut edges.
    pub graph: CsrGraph,
    /// `r(v) = r_ρ(v)` (distance to the ρ-th closest vertex, counting `v`),
    /// always [`Radii::PerVertex`]: pass `&pre.radii` to the engine.
    pub radii: Radii,
    /// Parameters used.
    pub config: PreprocessConfig,
    /// [`CsrGraph::content_hash`] of the *input* graph (pre-shortcut).
    /// Persisted in the cache header so `preprocess_cached` detects a
    /// mutated-but-same-size graph and rebuilds instead of serving stale
    /// shortcuts.
    pub input_hash: u64,
    /// Shortcut → input-edge expansion table: each proposed shortcut's
    /// ball-tree parent chain, recorded so path extraction can unroll
    /// shortcut hops into exact input-graph routes (see
    /// [`ShortcutExpander::expand_path`]). Shared (`Arc`) with every
    /// `QueryResponse` a preprocessed solver produces; persisted in the
    /// `RSP6` cache format in (source, member) order.
    pub expander: Arc<ShortcutExpander>,
    /// Measurements.
    pub stats: PreprocessStats,
}

impl Preprocessed {
    /// Runs the full preprocessing phase: one truncated ball search per
    /// source, in parallel (Lemma 4.2), each returning its radius, its
    /// shortcuts and its chain links sorted by member. The per-ball link
    /// lists are concatenated into the flat [`ShortcutExpander`] and the
    /// shortcuts merged into the input with [`merge_edges`] — no hashing
    /// and no global sort, so the result (and its saved bytes) is the
    /// same on every run and at every thread count.
    pub fn build(g: &CsrGraph, cfg: &PreprocessConfig) -> Preprocessed {
        let (radii, shortcuts, expander, stats) = preprocess_parts(g, cfg, true);
        let graph = merge_edges(g, &shortcuts);
        let effective = graph.num_edges() - g.num_edges();
        Preprocessed {
            graph,
            radii: Radii::PerVertex(radii.into()),
            config: *cfg,
            input_hash: g.content_hash(),
            expander: Arc::new(expander),
            stats: PreprocessStats { effective_new_edges: effective, ..stats },
        }
    }

    /// Persists the preprocessing (augmented graph + radii + parameters) so
    /// the `O(m log n + nρ²)`-work phase is paid once per graph, not once
    /// per process. The bytes depend only on the preprocessing: chain
    /// links are written in (source, member) order.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        // "RSP6": format 6 dropped format 4's ALT landmark table (format 3
        // added the shortcut expansion chains, format 2 the input-graph
        // content hash; "RSP5", "RSP7" and "RSP8" are `rs_shard`'s
        // partition files). Older files ("RSPP", "RSP2", "RSP3", "RSP4")
        // fail to load and are transparently rebuilt.
        w.write_all(b"RSP6")?;
        w.write_all(&self.input_hash.to_le_bytes())?;
        w.write_all(&self.config.k.to_le_bytes())?;
        w.write_all(&(self.config.rho as u64).to_le_bytes())?;
        w.write_all(&[self.config.heuristic.tag()])?;
        for s in [
            self.stats.raw_shortcuts as u64,
            self.stats.effective_new_edges as u64,
            self.stats.original_edges as u64,
            self.stats.explored_edges,
            self.stats.ball_members,
        ] {
            w.write_all(&s.to_le_bytes())?;
        }
        let n = self.graph.num_vertices();
        w.write_all(&(n as u64).to_le_bytes())?;
        for v in 0..n as VertexId {
            w.write_all(&self.radii.get(v).to_le_bytes())?;
        }
        self.expander.write_to(&mut w)?;
        rs_graph::io::write_binary_to(&self.graph, &mut w)?;
        w.flush()
    }

    /// Loads a preprocessing written by [`Preprocessed::save`].
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Preprocessed> {
        use std::io::Read;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"RSP6" {
            return Err(bad("not a saved preprocessing (or an old format)"));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let input_hash = u64::from_le_bytes(b8);
        r.read_exact(&mut b4)?;
        let k = u32::from_le_bytes(b4);
        r.read_exact(&mut b8)?;
        let rho = u64::from_le_bytes(b8) as usize;
        let mut hb = [0u8; 1];
        r.read_exact(&mut hb)?;
        let heuristic =
            ShortcutHeuristic::from_tag(hb[0]).ok_or_else(|| bad("unknown heuristic tag"))?;
        let mut nums = [0u64; 5];
        for v in &mut nums {
            r.read_exact(&mut b8)?;
            *v = u64::from_le_bytes(b8);
        }
        r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8) as usize;
        let mut radii = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            r.read_exact(&mut b8)?;
            radii.push(u64::from_le_bytes(b8));
        }
        // `RSP6` files may list links in any order: `read_from` sorts
        // them and rejects a table a chain walk could fail on.
        let expander = ShortcutExpander::read_from(&mut r, n)?;
        let graph = rs_graph::io::read_binary_from(&mut r)?;
        if graph.num_vertices() != n {
            return Err(bad("radii length does not match the embedded graph"));
        }
        Ok(Preprocessed {
            graph,
            radii: Radii::PerVertex(radii.into()),
            config: PreprocessConfig { k, rho, heuristic },
            input_hash,
            expander: Arc::new(expander),
            stats: PreprocessStats {
                raw_shortcuts: nums[0] as usize,
                effective_new_edges: nums[1] as usize,
                original_edges: nums[2] as usize,
                explored_edges: nums[3],
                ball_members: nums[4],
            },
        })
    }
}

/// Shared worker: balls → (radii, shortcut list, stats) without building
/// the merged graph (exposed for experiments that only need counts; the
/// expansion chains are skipped — use [`Preprocessed::build`] for the
/// path-serving pipeline).
pub fn preprocess_edges(
    g: &CsrGraph,
    cfg: &PreprocessConfig,
) -> (Vec<Dist>, Vec<Edge>, PreprocessStats) {
    let (radii, shortcuts, _, stats) = preprocess_parts(g, cfg, false);
    (radii, shortcuts, stats)
}

/// One ball's recorded chain links `(member, tree parent, exact ball
/// distance)`, sorted by member: every vertex on the ball-tree path from
/// a shortcut target up to (not including) the ball source — one row of
/// the [`ShortcutExpander`].
type ChainLinks = Vec<ChainLink>;

/// Ball-tree parent chains of every shortcut target in one ball — the raw
/// material of the [`ShortcutExpander`]. Chains overlap, so each link is
/// recorded once (walks stop at the first already-recorded ancestor).
/// Members come in pop order: `members[0]` is the source, and every tree
/// parent is popped before its children, so a walk by member index ends
/// at index 0.
fn ball_chains(ball: &Ball, shortcuts: &[Edge]) -> ChainLinks {
    if shortcuts.is_empty() {
        return Vec::new();
    }
    let members = &ball.members;
    let index = ball.member_index();
    let mut recorded = vec![false; members.len()];
    for &(_, target, _) in shortcuts {
        let mut i = index.position(target);
        while i != 0 && !recorded[i] {
            recorded[i] = true;
            i = index.position(members[i].parent);
        }
    }
    index
        .by_vertex()
        .iter()
        .filter(|&&(_, i)| recorded[i])
        .map(|&(v, i)| (v, members[i].parent, members[i].dist))
        .collect()
}

/// The full per-source pass: balls → (radii, shortcut list, expansion
/// chains, stats). Chain recording costs O(total chain length) and is
/// gated so count-only experiments skip it.
fn preprocess_parts(
    g: &CsrGraph,
    cfg: &PreprocessConfig,
    record_chains: bool,
) -> (Vec<Dist>, Vec<Edge>, ShortcutExpander, PreprocessStats) {
    let ws = g.weight_sorted();
    let n = g.num_vertices();
    let per_source: Vec<(Dist, Vec<Edge>, ChainLinks, u64, u64)> = (0..n as VertexId)
        .into_par_iter()
        .map_init(
            || BallScratch::new(n),
            |scratch, v| {
                let ball = ball_search(&ws, v, cfg.rho, cfg.rho, scratch);
                let edges = match cfg.heuristic {
                    ShortcutHeuristic::Full => full_shortcuts(&ball),
                    ShortcutHeuristic::Greedy => greedy_shortcuts(&ball, cfg.k),
                    ShortcutHeuristic::Dp => dp_shortcuts(&ball, cfg.k),
                };
                let chains = if record_chains { ball_chains(&ball, &edges) } else { Vec::new() };
                (ball.radius, edges, chains, ball.explored_edges, ball.members.len() as u64)
            },
        )
        .collect();

    let mut radii = Vec::with_capacity(n);
    let mut shortcuts = Vec::new();
    let mut rows = Vec::with_capacity(n);
    let mut stats = PreprocessStats { original_edges: g.num_edges(), ..Default::default() };
    for (radius, edges, chains, explored, members) in per_source {
        radii.push(radius);
        stats.raw_shortcuts += edges.len();
        stats.explored_edges += explored;
        stats.ball_members += members;
        shortcuts.extend(edges);
        rows.push(chains);
    }
    let expander = ShortcutExpander::from_sorted_rows(&rows);
    (radii, shortcuts, expander, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{radius_stepping, radius_stepping_with, EngineConfig};
    use rs_baselines::dijkstra_default;
    use rs_graph::{gen, weights, WeightModel, INF};

    fn weighted_grid() -> CsrGraph {
        weights::reweight(&gen::grid2d(10, 10), WeightModel::paper_weighted(), 11)
    }

    #[test]
    fn build_preserves_distances() {
        let g = weighted_grid();
        for cfg in [
            PreprocessConfig::new(1, 8),
            PreprocessConfig::new(3, 16),
            PreprocessConfig::new(3, 16).with_heuristic(ShortcutHeuristic::Greedy),
        ] {
            let pre = Preprocessed::build(&g, &cfg);
            pre.graph.check_invariants().unwrap();
            for s in [0u32, 37, 99] {
                assert_eq!(
                    dijkstra_default(&pre.graph, s),
                    dijkstra_default(&g, s),
                    "shortcuts must not change distances ({cfg:?})"
                );
            }
        }
    }

    #[test]
    fn sssp_matches_dijkstra_and_respects_substep_bound() {
        let g = weighted_grid();
        for (k, rho) in [(1u32, 4usize), (1, 16), (2, 10), (3, 25), (4, 50)] {
            let pre = Preprocessed::build(&g, &PreprocessConfig::new(k, rho));
            for s in [0u32, 55] {
                let cfg = EngineConfig::with_trace();
                let out = radius_stepping_with(&pre.graph, &pre.radii, s, cfg);
                assert_eq!(out.dist, dijkstra_default(&g, s));
                assert!(
                    out.stats.max_substeps_in_step <= (k as usize) + 2,
                    "Theorem 3.2 violated: {} substeps with k={k}",
                    out.stats.max_substeps_in_step
                );
            }
        }
    }

    #[test]
    fn step_bound_theorem_holds() {
        // Theorem 3.3: steps ≤ ⌈n/ρ⌉ (1 + ⌈log₂ ρL⌉).
        let g = weighted_grid();
        let n = g.num_vertices();
        for rho in [2usize, 8, 32] {
            let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, rho));
            let bound = crate::verify::step_bound(n, rho, pre.graph.max_weight() as u64);
            let out = radius_stepping(&pre.graph, &pre.radii, 0);
            assert!(
                out.stats.steps <= bound,
                "steps {} > bound {bound} at rho={rho}",
                out.stats.steps
            );
        }
    }

    #[test]
    fn dp_adds_no_more_than_greedy_globally() {
        let g = gen::scale_free(300, 4, 2);
        let base = PreprocessConfig::new(3, 30);
        let (_, _, dp) = preprocess_edges(&g, &base.with_heuristic(ShortcutHeuristic::Dp));
        let (_, _, gr) = preprocess_edges(&g, &base.with_heuristic(ShortcutHeuristic::Greedy));
        assert!(dp.raw_shortcuts <= gr.raw_shortcuts);
        assert!(dp.added_edge_factor() <= gr.added_edge_factor());
    }

    #[test]
    fn radii_independent_of_heuristic() {
        let g = weighted_grid();
        let base = PreprocessConfig::new(2, 12);
        let (r1, _, _) = preprocess_edges(&g, &base.with_heuristic(ShortcutHeuristic::Full));
        let (r2, _, _) = preprocess_edges(&g, &base.with_heuristic(ShortcutHeuristic::Dp));
        assert_eq!(r1, r2);
    }

    #[test]
    fn full_and_k1_dp_produce_same_effective_graph() {
        let g = weighted_grid();
        let full = Preprocessed::build(&g, &PreprocessConfig::new(1, 10));
        let dp = Preprocessed::build(
            &g,
            &PreprocessConfig { k: 1, rho: 10, heuristic: ShortcutHeuristic::Dp },
        );
        assert_eq!(full.graph, dp.graph, "hop-1 members dedup to the same graph");
    }

    #[test]
    fn save_load_roundtrip() {
        let g = weighted_grid();
        let pre = Preprocessed::build(
            &g,
            &PreprocessConfig::new(2, 12).with_heuristic(ShortcutHeuristic::Dp),
        );
        let path = std::env::temp_dir().join(format!("rs_pre_{}.bin", std::process::id()));
        pre.save(&path).unwrap();
        let loaded = Preprocessed::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.graph, pre.graph);
        assert_eq!(loaded.radii, pre.radii);
        assert_eq!(loaded.config, pre.config);
        assert_eq!(loaded.stats, pre.stats);
        assert_eq!(loaded.expander, pre.expander, "expansion chains round-trip");
        assert!(!pre.expander.is_empty(), "a (2,12) grid preprocessing records chains");
        assert_eq!(loaded.input_hash, g.content_hash(), "header records the input hash");
        let solve = |p: &Preprocessed| radius_stepping(&p.graph, &p.radii, 9);
        assert_eq!(solve(&loaded).dist, solve(&pre).dist);
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("rs_pre_bad_{}.bin", std::process::id()));
        std::fs::write(&path, b"WRONG").unwrap();
        assert!(Preprocessed::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn small_graph_radius_inf_still_correct() {
        // ρ larger than the graph: radii become INF, algorithm degenerates
        // to Bellman-Ford but stays correct.
        let g = weights::reweight(&gen::cycle(6), WeightModel::paper_weighted(), 3);
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 50));
        assert!((0..6).all(|v| pre.radii.get(v) == INF));
        let out = radius_stepping(&pre.graph, &pre.radii, 2);
        assert_eq!(out.dist, dijkstra_default(&g, 2));
        assert_eq!(out.stats.steps, 1);
    }

    /// FNV-1a over a word stream (the same mix as `CsrGraph::content_hash`).
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
    }

    /// Merged-graph hash, radii hash, hash of the sorted chain links, stats.
    fn fingerprint(pre: &Preprocessed) -> (u64, u64, u64, PreprocessStats) {
        let mut links: Vec<_> = pre.expander.iter().collect();
        links.sort_unstable();
        let words =
            links.iter().flat_map(|&(s, m, p, d)| [(s as u64) << 32 | m as u64, p as u64, d]);
        let radii = (0..pre.graph.num_vertices() as VertexId).map(|v| pre.radii.get(v));
        (pre.graph.content_hash(), fnv(radii), fnv(words), pre.stats.clone())
    }

    #[test]
    fn build_output_is_pinned() {
        // A faster build must produce the same merged graph, radii,
        // chain links and stats as these recorded values, bit for bit.
        let grid = weights::reweight(&gen::grid2d(32, 32), WeightModel::paper_weighted(), 11);
        let sf = weights::reweight(&gen::scale_free(300, 4, 2), WeightModel::paper_weighted(), 5);
        let stats =
            |raw_shortcuts, effective_new_edges, original_edges, explored_edges, ball_members| {
                PreprocessStats {
                    raw_shortcuts,
                    effective_new_edges,
                    original_edges,
                    explored_edges,
                    ball_members,
                }
            };
        for (g, cfg, pinned) in [
            (
                &grid,
                PreprocessConfig::new(1, 16),
                (
                    0xff24_749f_aa20_20b9,
                    0x554a_26e8_1557_37e5,
                    0x2c59_82c5_67fd_ef82,
                    stats(15361, 7353, 1984, 64151, 16385),
                ),
            ),
            (
                &grid,
                PreprocessConfig::new(3, 25),
                (
                    0xf36e_bca0_4357_b60e,
                    0x9ae2_f3f8_a4a8_8aa8,
                    0x64b8_8cd7_8ed4_4d7b,
                    stats(3645, 3228, 1984, 100288, 25601),
                ),
            ),
            (
                &sf,
                PreprocessConfig::new(2, 12).with_heuristic(ShortcutHeuristic::Greedy),
                (
                    0xba9a_5ba7_660b_85ac,
                    0xa70f_53e9_af2f_f545,
                    0x79c9_4239_7285_71fa,
                    stats(1029, 878, 1190, 29374, 3601),
                ),
            ),
        ] {
            assert_eq!(fingerprint(&Preprocessed::build(g, &cfg)), pinned, "{cfg:?}");
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rs_pre_{tag}_{}.bin", std::process::id()))
    }

    /// Byte offset of the first chain-link record in a saved file of `n`
    /// vertices: 65 header bytes, the radii count and radii, the link count.
    fn links_at(n: usize) -> usize {
        65 + 8 + 8 * n + 8
    }

    #[test]
    fn save_is_byte_deterministic() {
        let g = weighted_grid();
        let cfg = PreprocessConfig::new(2, 12);
        let (a, b) = (temp_path("det_a"), temp_path("det_b"));
        Preprocessed::build(&g, &cfg).save(&a).unwrap();
        Preprocessed::build(&g, &cfg).save(&b).unwrap();
        let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert_eq!(bytes_a, bytes_b, "two builds must save the same bytes");
    }

    #[test]
    fn load_accepts_links_in_any_order() {
        // The loader takes chain links in any order: reverse the fixed
        // 20-byte link records of a saved file.
        let g = weighted_grid();
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(2, 12));
        let path = temp_path("perm");
        pre.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = links_at(g.num_vertices());
        let records = &mut bytes[at..at + 20 * pre.expander.len()];
        let mut permuted: Vec<[u8; 20]> =
            records.chunks_exact(20).map(|r| r.try_into().unwrap()).collect();
        permuted.reverse();
        assert_ne!(permuted.concat(), records, "the permutation moves some record");
        records.copy_from_slice(&permuted.concat());
        std::fs::write(&path, &bytes).unwrap();
        let loaded = Preprocessed::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.expander, pre.expander);
        assert_eq!(loaded.graph, pre.graph);
        assert_eq!(loaded.radii, pre.radii);
    }

    #[test]
    fn load_rejects_corrupt_chain_tables() {
        // A link naming a vertex ≥ n, and a two-link parent cycle, would
        // make `expand_path` panic or loop: the loader must refuse both.
        let g = weighted_grid();
        let n = g.num_vertices() as VertexId;
        let mut pre = Preprocessed::build(&g, &PreprocessConfig::new(2, 12));
        for (what, row) in [
            ("member out of range", vec![(n + 3, 0, 1)]),
            ("parent out of range", vec![(1, n, 1)]),
            ("two-link cycle", vec![(1, 2, 4), (2, 1, 3)]),
        ] {
            pre.expander = Arc::new(ShortcutExpander::from_sorted_rows(&[row]));
            let path = temp_path("corrupt");
            pre.save(&path).unwrap();
            let err = Preprocessed::load(&path).map(|_| ()).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
