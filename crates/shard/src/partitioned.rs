//! [`PartitionedGraph`]: the partition layer's product — part views, the
//! boundary skeleton, and the vertex map — plus its RSP8 on-disk cache.
//!
//! The RSP8 file persists the partition's *identity* (input content hash,
//! knobs, the assignment array) and its *expensive artifacts* (skeleton
//! nodes/arcs and the chain table, in the `ShortcutExpander` record
//! layout the RSP6 preprocessing cache uses), behind a 12-byte header:
//! the magic and an FNV-1a checksum of every byte after it. Part views
//! are cheap `O(m)` induced subgraphs and are rebuilt from the assignment
//! on load, and the skeleton is checked against the graph before it is
//! accepted. The checksum catches what that check cannot see: an arc
//! missing from the file. Any non-matching file — an RSP6 preprocessing
//! cache, an RSP7 or RSP5 file of an older layout, garbage, a payload
//! that fails its checksum, a stale hash, different knobs, a skeleton arc
//! no input route realises — fails the load and
//! [`PartitionedGraph::load_or_build`] transparently rebuilds and
//! rewrites, mirroring the preprocessing cache's discipline in
//! `rs_core::solver::resolve_preprocessed`.

use std::io::{Read, Write};
use std::path::Path;

use rs_core::preprocess::ShortcutHeuristic;
use rs_core::{PreprocessConfig, ShortcutExpander, StepStats};
use rs_graph::partition::{induced_subgraph, PartitionAssignment, SubgraphView};
use rs_graph::{CsrGraph, Dist, VertexId};

use crate::partitioner::PartitionStrategy;
use crate::skeleton::{build_skeleton, check_persisted, SkeletonGraph};

/// Partitioning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of parts `P`.
    pub num_parts: usize,
    /// Assignment strategy.
    pub strategy: PartitionStrategy,
    /// Per-part (k, ρ)-preprocessing used while computing the skeleton's
    /// within-part boundary distances; `None` solves each part with the
    /// plain frontier engine. Either way the skeleton is exact — the
    /// preprocessing only changes how the construction solves run.
    pub skeleton_preprocess: Option<PreprocessConfig>,
}

impl PartitionConfig {
    /// BFS-growth partitioning into `num_parts` parts with the default
    /// `(k, ρ) = (1, 16)` skeleton preprocessing.
    pub fn new(num_parts: usize) -> PartitionConfig {
        PartitionConfig {
            num_parts: num_parts.max(1),
            strategy: PartitionStrategy::BfsGrowth,
            skeleton_preprocess: Some(PreprocessConfig::new(1, 16)),
        }
    }

    /// Replaces the assignment strategy.
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> PartitionConfig {
        self.strategy = strategy;
        self
    }

    /// Replaces (or disables, with `None`) the skeleton-construction
    /// preprocessing.
    pub fn with_skeleton_preprocess(mut self, cfg: Option<PreprocessConfig>) -> PartitionConfig {
        self.skeleton_preprocess = cfg;
        self
    }
}

/// Splits graphs according to a [`PartitionConfig`].
#[derive(Debug, Clone)]
pub struct Partitioner {
    cfg: PartitionConfig,
}

impl Partitioner {
    /// A BFS-growth partitioner into `num_parts` parts.
    pub fn new(num_parts: usize) -> Partitioner {
        Partitioner { cfg: PartitionConfig::new(num_parts) }
    }

    /// A partitioner with explicit knobs.
    pub fn with_config(cfg: PartitionConfig) -> Partitioner {
        Partitioner { cfg }
    }

    /// The configured knobs.
    pub fn config(&self) -> &PartitionConfig {
        &self.cfg
    }

    /// Partitions `g`: assignment → part views → boundary skeleton.
    pub fn partition(&self, g: &CsrGraph) -> PartitionedGraph {
        PartitionedGraph::build(g, &self.cfg)
    }
}

/// A graph split into parts with a boundary skeleton over the cut.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    input_hash: u64,
    num_parts: usize,
    strategy_tag: u8,
    skeleton_preprocess: Option<PreprocessConfig>,
    assignment: PartitionAssignment,
    /// One induced subgraph per part, local ids in ascending-global order.
    parts: Vec<SubgraphView>,
    /// The boundary skeleton (exact distances; see [`SkeletonGraph`]).
    boundary: SkeletonGraph,
    /// `vertex_map[global] = (part, local)`.
    vertex_map: Vec<(u32, u32)>,
    /// Per part: `(local, skeleton node)` for each boundary vertex, in
    /// ascending local order — the seed/goal list of every routed solve.
    part_boundary: Vec<Vec<(VertexId, u32)>>,
    /// Construction-time solve counters (telemetry).
    build_stats: StepStats,
}

impl PartitionedGraph {
    /// Partitions `g` and builds the boundary skeleton.
    pub fn build(g: &CsrGraph, cfg: &PartitionConfig) -> PartitionedGraph {
        let assignment = cfg.strategy.assign(g, cfg.num_parts);
        let parts: Vec<SubgraphView> =
            assignment.members().iter().map(|m| induced_subgraph(g, m)).collect();
        let (boundary, build_stats) =
            build_skeleton(g, assignment.as_slice(), &parts, cfg.skeleton_preprocess.as_ref());
        Self::assemble(
            g.content_hash(),
            cfg.num_parts,
            cfg.strategy.tag(),
            cfg.skeleton_preprocess,
            assignment,
            parts,
            boundary,
            build_stats,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        input_hash: u64,
        num_parts: usize,
        strategy_tag: u8,
        skeleton_preprocess: Option<PreprocessConfig>,
        assignment: PartitionAssignment,
        parts: Vec<SubgraphView>,
        boundary: SkeletonGraph,
        build_stats: StepStats,
    ) -> PartitionedGraph {
        let vertex_map: Vec<(u32, u32)> = (0..assignment.len() as VertexId)
            .map(|v| {
                let p = assignment.part_of(v);
                let local = parts[p as usize].to_local(v).expect("assigned vertex is in its part");
                (p, local)
            })
            .collect();
        let part_boundary: Vec<Vec<(VertexId, u32)>> = parts
            .iter()
            .map(|view| {
                view.to_global
                    .iter()
                    .enumerate()
                    .filter_map(|(local, &gv)| {
                        boundary.node_of_global(gv).map(|node| (local as VertexId, node))
                    })
                    .collect()
            })
            .collect();
        PartitionedGraph {
            input_hash,
            num_parts,
            strategy_tag,
            skeleton_preprocess,
            assignment,
            parts,
            boundary,
            vertex_map,
            part_boundary,
            build_stats,
        }
    }

    /// Content hash of the graph this partition was built for.
    pub fn input_hash(&self) -> u64 {
        self.input_hash
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// The vertex→part assignment.
    pub fn assignment(&self) -> &PartitionAssignment {
        &self.assignment
    }

    /// All part views (index = part id).
    pub fn parts(&self) -> &[SubgraphView] {
        &self.parts
    }

    /// One part's view.
    pub fn part(&self, p: u32) -> &SubgraphView {
        &self.parts[p as usize]
    }

    /// The boundary skeleton.
    pub fn boundary(&self) -> &SkeletonGraph {
        &self.boundary
    }

    /// `vertex_map()[global] = (part, local)`.
    pub fn vertex_map(&self) -> &[(u32, u32)] {
        &self.vertex_map
    }

    /// Locates a global vertex: `(part, local)`.
    pub fn locate(&self, v: VertexId) -> (u32, u32) {
        self.vertex_map[v as usize]
    }

    /// Per-part `(local, skeleton node)` boundary lists.
    pub fn part_boundary(&self, p: u32) -> &[(VertexId, u32)] {
        &self.part_boundary[p as usize]
    }

    /// Construction-time solve counters.
    pub fn build_stats(&self) -> &StepStats {
        &self.build_stats
    }

    /// Writes the RSP8 cache file (see the module docs for what is
    /// persisted vs rebuilt).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        // The payload is assembled in memory so the header can carry its
        // checksum.
        let mut w = Vec::new();
        w.write_all(&self.input_hash.to_le_bytes())?;
        w.write_all(&(self.num_parts as u32).to_le_bytes())?;
        w.write_all(&[self.strategy_tag])?;
        // Preprocessing tag: 0 none; 1 (k, ρ) with the k-default
        // heuristic; 2 (k, ρ) plus a heuristic byte (the preprocessing
        // cache's encoding).
        match &self.skeleton_preprocess {
            None => w.write_all(&[0u8])?,
            Some(cfg) => {
                let default_heuristic = *cfg == PreprocessConfig::new(cfg.k, cfg.rho);
                w.write_all(&[if default_heuristic { 1u8 } else { 2u8 }])?;
                w.write_all(&cfg.k.to_le_bytes())?;
                w.write_all(&(cfg.rho as u64).to_le_bytes())?;
                if !default_heuristic {
                    w.write_all(&[cfg.heuristic.tag()])?;
                }
            }
        }
        w.write_all(&(self.assignment.len() as u64).to_le_bytes())?;
        for &p in self.assignment.as_slice() {
            w.write_all(&p.to_le_bytes())?;
        }
        let skel = &self.boundary;
        w.write_all(&(skel.num_nodes() as u64).to_le_bytes())?;
        for &gv in skel.node_globals() {
            w.write_all(&gv.to_le_bytes())?;
        }
        let (offsets, targets, weights) = skel.raw_parts();
        w.write_all(&(targets.len() as u64).to_le_bytes())?;
        for &o in offsets {
            w.write_all(&(o as u64).to_le_bytes())?;
        }
        for &t in targets {
            w.write_all(&t.to_le_bytes())?;
        }
        for &d in weights {
            w.write_all(&d.to_le_bytes())?;
        }
        skel.chains().write_to(&mut w)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        // "RSP8": the sharding cache section, distinct from the "RSP6"
        // preprocessing cache; "RSP7" had no checksum and "RSP5" held one
        // chain table per part. Preprocessing (and older / foreign) files
        // fail the magic check on load and are transparently rebuilt.
        file.write_all(b"RSP8")?;
        file.write_all(&fnv1a(&w).to_le_bytes())?;
        file.write_all(&w)?;
        file.flush()
    }

    /// Loads an RSP8 file written by [`PartitionedGraph::save`] and
    /// re-derives the part views from the persisted assignment. Fails
    /// (for the caller to rebuild) on a bad magic or payload checksum, a
    /// content-hash mismatch against `g`, any truncation or out-of-range
    /// field, or a skeleton that does not match `g` (see the module docs).
    pub fn load<P: AsRef<Path>>(path: P, g: &CsrGraph) -> std::io::Result<PartitionedGraph> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut b1 = [0u8; 1];
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if &magic != b"RSP8" {
            return Err(bad("not a saved partition (e.g. an RSP6 preprocessing)"));
        }
        file.read_exact(&mut b8)?;
        let mut payload = Vec::new();
        file.read_to_end(&mut payload)?;
        if u64::from_le_bytes(b8) != fnv1a(&payload) {
            return Err(bad("partition payload fails its checksum"));
        }
        let mut r: &[u8] = &payload;
        r.read_exact(&mut b8)?;
        let input_hash = u64::from_le_bytes(b8);
        if input_hash != g.content_hash() {
            return Err(bad("partition was built for a different graph"));
        }
        r.read_exact(&mut b4)?;
        let num_parts = u32::from_le_bytes(b4) as usize;
        if num_parts == 0 || num_parts > g.num_vertices().max(1) {
            return Err(bad("part count out of range"));
        }
        r.read_exact(&mut b1)?;
        let strategy_tag = b1[0];
        r.read_exact(&mut b1)?;
        let skeleton_preprocess = match b1[0] {
            0 => None,
            tag @ (1 | 2) => {
                r.read_exact(&mut b4)?;
                let k = u32::from_le_bytes(b4);
                r.read_exact(&mut b8)?;
                let rho = u64::from_le_bytes(b8) as usize;
                if k == 0 || rho == 0 {
                    return Err(bad("preprocessing knobs out of range"));
                }
                let cfg = PreprocessConfig::new(k, rho);
                if tag == 1 {
                    Some(cfg)
                } else {
                    r.read_exact(&mut b1)?;
                    let h = ShortcutHeuristic::from_tag(b1[0])
                        .ok_or_else(|| bad("unknown heuristic tag"))?;
                    Some(cfg.with_heuristic(h))
                }
            }
            _ => return Err(bad("unknown preprocessing tag")),
        };
        r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8) as usize;
        if n != g.num_vertices() {
            return Err(bad("assignment length does not match the graph"));
        }
        let mut part_of = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            r.read_exact(&mut b4)?;
            let p = u32::from_le_bytes(b4);
            if p as usize >= num_parts {
                return Err(bad("assignment entry out of range"));
            }
            part_of.push(p);
        }
        r.read_exact(&mut b8)?;
        let nodes = u64::from_le_bytes(b8);
        if nodes > n as u64 {
            return Err(bad("more skeleton nodes than vertices"));
        }
        let nodes = nodes as usize;
        let mut node_global = Vec::with_capacity(nodes.min(1 << 20));
        for _ in 0..nodes {
            r.read_exact(&mut b4)?;
            node_global.push(u32::from_le_bytes(b4));
        }
        if !node_global.windows(2).all(|w| w[0] < w[1])
            || node_global.iter().any(|&v| v as usize >= n)
        {
            return Err(bad("skeleton nodes not sorted / out of range"));
        }
        r.read_exact(&mut b8)?;
        let arcs = u64::from_le_bytes(b8);
        let mut offsets = Vec::with_capacity((nodes + 1).min(1 << 20));
        for _ in 0..nodes + 1 {
            r.read_exact(&mut b8)?;
            offsets.push(u64::from_le_bytes(b8));
        }
        if offsets[0] != 0 || offsets[nodes] != arcs || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("skeleton offsets corrupt"));
        }
        let mut targets = Vec::with_capacity(arcs.min(1 << 20) as usize);
        for _ in 0..arcs {
            r.read_exact(&mut b4)?;
            targets.push(u32::from_le_bytes(b4));
        }
        // The weights follow in arc order, which the monotone offsets walk.
        let mut edges: Vec<(u32, u32, Dist)> = Vec::with_capacity(targets.len());
        for (u, w) in offsets.windows(2).enumerate() {
            for &t in &targets[w[0] as usize..w[1] as usize] {
                if t as usize >= nodes {
                    return Err(bad("skeleton target out of range"));
                }
                r.read_exact(&mut b8)?;
                edges.push((u as u32, t, u64::from_le_bytes(b8)));
            }
        }
        let chains = ShortcutExpander::read_from(&mut r, n)?;
        check_persisted(g, &part_of, &node_global, &edges, &chains).map_err(|e| bad(&e))?;
        let assignment = PartitionAssignment::new(part_of, num_parts);
        let parts: Vec<SubgraphView> =
            assignment.members().iter().map(|m| induced_subgraph(g, m)).collect();
        // Re-symmetrising via from_edges reproduces the identical CSR:
        // the persisted arcs already contain both directions.
        let boundary = SkeletonGraph::from_edges(node_global, edges, chains);
        Ok(Self::assemble(
            input_hash,
            num_parts,
            strategy_tag,
            skeleton_preprocess,
            assignment,
            parts,
            boundary,
            StepStats::default(),
        ))
    }

    /// Loads a compatible RSP8 cache from `path`, or partitions `g` from
    /// scratch and rewrites the cache (best-effort). "Compatible" means:
    /// valid RSP8, matching content hash, and matching `cfg` knobs. A
    /// preprocessing file (or anything else) at `path` rebuilds
    /// transparently.
    pub fn load_or_build<P: AsRef<Path>>(
        g: &CsrGraph,
        cfg: &PartitionConfig,
        path: P,
    ) -> PartitionedGraph {
        if let Ok(pg) = PartitionedGraph::load(&path, g) {
            if pg.num_parts == cfg.num_parts
                && pg.strategy_tag == cfg.strategy.tag()
                && pg.skeleton_preprocess == cfg.skeleton_preprocess
            {
                return pg;
            }
        }
        let pg = PartitionedGraph::build(g, cfg);
        // Best-effort: an unwritable cache degrades to rebuild-next-time.
        let _ = pg.save(&path);
        pg
    }
}

/// FNV-1a over the bytes after an RSP8 file's header: its checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
