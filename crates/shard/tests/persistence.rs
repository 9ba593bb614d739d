//! RSP8 partition-cache persistence: a saved [`PartitionedGraph`]
//! round-trips to an identical in-memory structure, and anything
//! incompatible at the cache path — a preprocessing file (here an old
//! `RSP4` header), an old `RSP5` or `RSP7` partition, garbage, a stale
//! graph hash, different partition knobs (a non-default shortcut
//! heuristic included), oversized header counts, a skeleton arc or chain
//! link the graph does not realise, or a payload that fails its checksum
//! (a dropped skeleton edge) — is refused at load and rebuilds
//! transparently through [`PartitionedGraph::load_or_build`].

use rs_core::preprocess::ShortcutHeuristic;
use rs_core::solver::{Query, SsspSolver};
use rs_core::{PreprocessConfig, SolverScratch};
use rs_graph::{gen, weights, CsrGraph, WeightModel};
use rs_shard::{PartitionConfig, PartitionedGraph, Partitioner, ShardedSolver};

fn test_graph() -> CsrGraph {
    weights::reweight(&gen::grid2d(9, 9), WeightModel::paper_weighted(), 77)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rsp8-{name}-{}", std::process::id()));
    p
}

/// Structural equality for partitions: assignment, skeleton CSR, and
/// chain table all identical.
fn assert_identical(a: &PartitionedGraph, b: &PartitionedGraph) {
    assert_eq!(a.input_hash(), b.input_hash());
    assert_eq!(a.num_parts(), b.num_parts());
    assert_eq!(a.assignment().as_slice(), b.assignment().as_slice());
    assert_eq!(a.boundary().node_globals(), b.boundary().node_globals());
    assert_eq!(a.boundary().raw_parts(), b.boundary().raw_parts());
    assert_eq!(a.boundary().chains(), b.boundary().chains());
}

#[test]
fn rsp5_roundtrip_is_identity() {
    let g = test_graph();
    let built = Partitioner::new(4).partition(&g);
    let path = tmp_path("roundtrip");
    built.save(&path).expect("save must succeed in temp dir");
    let loaded = PartitionedGraph::load(&path, &g).expect("load must succeed");
    assert_identical(&built, &loaded);

    // The loaded partition serves identical answers.
    let s_built = ShardedSolver::new(&g, &built);
    let s_loaded = ShardedSolver::new(&g, &loaded);
    let mut scratch = SolverScratch::new();
    let q = Query::many_to_many(vec![0, 40, 80], vec![80, 0, 17]).with_paths();
    let rb = s_built.execute(&q, &mut scratch);
    let rl = s_loaded.execute(&q, &mut scratch);
    assert_eq!(rb.distance_table(), rl.distance_table());
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_and_rsp4_magic_rebuild_transparently() {
    let g = test_graph();
    let cfg = PartitionConfig::new(3);
    let reference = Partitioner::with_config(cfg.clone()).partition(&g);
    let saved = tmp_path("relabel");
    reference.save(&saved).expect("save");
    let mut rsp7 = std::fs::read(&saved).expect("read back");
    std::fs::remove_file(&saved).ok();
    rsp7[..4].copy_from_slice(b"RSP7");

    for (name, bytes) in [
        ("rsp4", b"RSP4 pretend preprocessing payload".to_vec()),
        ("rsp5", [b"RSP5".as_slice(), &[0; 64]].concat()),
        ("rsp7", rsp7),
        ("garbage", vec![0xAB; 512]),
        ("truncated", b"RSP8".to_vec()),
        ("empty", Vec::new()),
    ] {
        let path = tmp_path(name);
        std::fs::write(&path, &bytes).expect("fixture write");
        assert!(
            PartitionedGraph::load(&path, &g).is_err(),
            "{name}: incompatible file must not parse as RSP8"
        );
        let pg = PartitionedGraph::load_or_build(&g, &cfg, &path);
        assert_identical(&reference, &pg);
        // load_or_build rewrote a valid cache over the bad file.
        let reloaded = PartitionedGraph::load(&path, &g).expect("rewritten cache must load");
        assert_identical(&reference, &reloaded);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn stale_hash_and_knob_mismatch_rebuild() {
    let g = test_graph();
    let other = weights::reweight(&gen::grid2d(9, 9), WeightModel::paper_weighted(), 78);
    let cfg = PartitionConfig::new(4);
    let path = tmp_path("stale");
    Partitioner::with_config(cfg.clone()).partition(&other).save(&path).expect("save");

    // Hash mismatch: cache built for a different graph must not load.
    assert!(PartitionedGraph::load(&path, &g).is_err());
    let pg = PartitionedGraph::load_or_build(&g, &cfg, &path);
    assert_eq!(pg.input_hash(), g.content_hash());

    // Knob mismatch: same graph, different P → rebuild with the new P.
    let pg2 = PartitionedGraph::load_or_build(&g, &PartitionConfig::new(2), &path);
    assert_eq!(pg2.num_parts(), 2);
    // And the rewritten cache now satisfies the new knobs directly.
    let pg3 = PartitionedGraph::load_or_build(&g, &PartitionConfig::new(2), &path);
    assert_identical(&pg2, &pg3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_default_heuristic_survives_the_cache() {
    let g = test_graph();
    let pre = PreprocessConfig::new(2, 8).with_heuristic(ShortcutHeuristic::Greedy);
    let cfg = PartitionConfig::new(3).with_skeleton_preprocess(Some(pre));
    let path = tmp_path("greedy");
    std::fs::remove_file(&path).ok();
    let built = PartitionedGraph::load_or_build(&g, &cfg, &path);
    assert!(built.build_stats().relaxations > 0, "first call builds");
    let loaded = PartitionedGraph::load_or_build(&g, &cfg, &path);
    assert_eq!(loaded.build_stats().relaxations, 0, "second call loads the cache");
    assert_identical(&built, &loaded);

    // A k-default config must not match the Greedy file, and its own
    // file (tag 1) still loads.
    let default_cfg =
        PartitionConfig::new(3).with_skeleton_preprocess(Some(PreprocessConfig::new(2, 8)));
    let rebuilt = PartitionedGraph::load_or_build(&g, &default_cfg, &path);
    assert!(rebuilt.build_stats().relaxations > 0, "different heuristic rebuilds");
    let reloaded = PartitionedGraph::load_or_build(&g, &default_cfg, &path);
    assert_eq!(reloaded.build_stats().relaxations, 0, "k-default config loads");
    std::fs::remove_file(&path).ok();
}

/// An 8×8 grid at P = 4 with default knobs, saved: the graph, the
/// partition, and the file's bytes.
fn saved_8x8(name: &str) -> (CsrGraph, PartitionedGraph, std::path::PathBuf, Vec<u8>) {
    let g = weights::reweight(&gen::grid2d(8, 8), WeightModel::paper_weighted(), 5);
    let pg = Partitioner::new(4).partition(&g);
    let path = tmp_path(name);
    pg.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(reseal(bytes.clone()), bytes, "checksum layout");
    (g, pg, path, bytes)
}

/// Recomputes the FNV-1a payload checksum (header bytes 4..12) of an
/// edited file, so that the loader's field and skeleton checks, not the
/// checksum, have to refuse it.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = bytes[12..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    bytes[4..12].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Byte offsets in a file saved with default knobs (a 38-byte header —
/// magic, checksum, graph hash and knobs — ahead of the vertex count):
/// the skeleton node count, the first arc weight, and the first
/// chain-link record.
fn layout(pg: &PartitionedGraph) -> (usize, usize, usize) {
    let (n, nodes) = (pg.assignment().len(), pg.boundary().num_nodes());
    let arcs = pg.boundary().raw_parts().1.len();
    let nodes_at = 38 + 8 + 4 * n;
    let weights_at = nodes_at + 8 + 4 * nodes + 8 + 8 * (nodes + 1) + 4 * arcs;
    (nodes_at, weights_at, weights_at + 8 * arcs + 8)
}

/// `bytes` at `path` must be refused at load, and `load_or_build` must
/// rebuild `reference` and rewrite a file that loads.
fn assert_refused_and_rebuilt(
    g: &CsrGraph,
    reference: &PartitionedGraph,
    path: &std::path::Path,
    bytes: &[u8],
    what: &str,
) {
    std::fs::write(path, bytes).expect("fixture write");
    let err = PartitionedGraph::load(path, g).map(|_| ()).expect_err(what);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    let pg = PartitionedGraph::load_or_build(g, &PartitionConfig::new(4), path);
    assert_identical(reference, &pg);
    assert_identical(reference, &PartitionedGraph::load(path, g).expect("rewritten cache"));
}

#[test]
fn load_refuses_oversized_header_counts() {
    // A 2^40 skeleton node count once reserved gigabytes before the
    // first read failed, and a u32::MAX part count reached one
    // allocation per part: both are refused from the header alone.
    let (g, pg, path, bytes) = saved_8x8("counts");
    let (nodes_at, _, _) = layout(&pg);
    let nodes = pg.boundary().num_nodes() as u64;
    assert_eq!(bytes[nodes_at..nodes_at + 8], nodes.to_le_bytes(), "node count layout");
    let mut huge_nodes = bytes.clone();
    huge_nodes[nodes_at..nodes_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert_refused_and_rebuilt(&g, &pg, &path, &reseal(huge_nodes), "2^40 skeleton nodes");
    for parts in [0, u32::MAX] {
        let mut bad_parts = bytes.clone();
        bad_parts[20..24].copy_from_slice(&parts.to_le_bytes());
        let bad_parts = reseal(bad_parts);
        assert_refused_and_rebuilt(&g, &pg, &path, &bad_parts, &format!("{parts} parts"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_arc_weight_is_refused_and_rebuilt() {
    // A persisted arc weight the graph does not realise could undercut a
    // distance: one cut arc and one within-part arc, each off by one.
    let (g, pg, path, bytes) = saved_8x8("arc");
    let (_, weights_at, _) = layout(&pg);
    let skel = pg.boundary();
    let (offsets, targets, _) = skel.raw_parts();
    let part = |node: u32| pg.locate(skel.global_of_node(node)).0;
    let is_cut = |i: usize| {
        let tail = offsets.partition_point(|&o| o <= i) - 1;
        part(tail as u32) != part(targets[i])
    };
    let cut = (0..targets.len()).find(|&i| is_cut(i)).expect("a cut arc");
    let within = (0..targets.len()).find(|&i| !is_cut(i)).expect("a within-part arc");
    for (what, i) in [("cut arc", cut), ("within-part arc", within)] {
        let at = weights_at + 8 * i;
        assert_eq!(bytes[at..at + 8], skel.raw_parts().2[i].to_le_bytes(), "{what} layout");
        let mut flipped = bytes.clone();
        flipped[weights_at + 8 * i] ^= 1;
        assert_refused_and_rebuilt(&g, &pg, &path, &reseal(flipped), what);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_chain_byte_is_refused_and_rebuilt() {
    // Any change to a link's recorded distance breaks its own
    // `parent → member` hop against the graph (or its parent order).
    let (g, pg, path, bytes) = saved_8x8("chain");
    let (_, _, links_at) = layout(&pg);
    let first = pg.boundary().chains().iter().next().expect("the 8×8 skeleton records chains");
    assert_eq!(bytes[links_at + 12..links_at + 20], first.3.to_le_bytes(), "link layout");
    for byte in 12..20 {
        let mut flipped = bytes.clone();
        flipped[links_at + byte] ^= 1;
        let flipped = reseal(flipped);
        assert_refused_and_rebuilt(&g, &pg, &path, &flipped, &format!("link byte {byte}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dropped_skeleton_edge_is_refused_and_rebuilt() {
    // Every arc left in the file is real, so the skeleton check passes,
    // but a missing within-part edge can overestimate a distance: only
    // the payload checksum can tell. Each within-part edge is dropped in
    // turn (both directions, with the arc count and offsets rewritten).
    let (g, pg, path, bytes) = saved_8x8("dropped");
    let (nodes_at, weights_at, _) = layout(&pg);
    let skel = pg.boundary();
    let (offsets, targets, weights) = skel.raw_parts();
    let nodes = skel.num_nodes();
    let arcs_at = nodes_at + 8 + 4 * nodes;
    assert_eq!(bytes[arcs_at..arcs_at + 8], (targets.len() as u64).to_le_bytes(), "arc layout");
    let arcs: Vec<(u32, u32)> = (0..nodes)
        .flat_map(|u| targets[offsets[u]..offsets[u + 1]].iter().map(move |&t| (u as u32, t)))
        .collect();
    let part = |node: u32| pg.locate(skel.global_of_node(node)).0;
    let within: Vec<_> = arcs.iter().filter(|&&(a, b)| a < b && part(a) == part(b)).collect();
    assert!(!within.is_empty(), "the 8×8 skeleton has within-part edges");
    for &&(a, b) in &within {
        let kept: Vec<usize> =
            (0..arcs.len()).filter(|&i| arcs[i] != (a, b) && arcs[i] != (b, a)).collect();
        let mut file = bytes[..arcs_at].to_vec();
        file.extend((kept.len() as u64).to_le_bytes());
        for u in 0..=nodes {
            file.extend((kept.partition_point(|&i| (arcs[i].0 as usize) < u) as u64).to_le_bytes());
        }
        file.extend(kept.iter().flat_map(|&i| targets[i].to_le_bytes()));
        file.extend(kept.iter().flat_map(|&i| weights[i].to_le_bytes()));
        file.extend(&bytes[weights_at + 8 * arcs.len()..]);
        assert_refused_and_rebuilt(&g, &pg, &path, &file, &format!("dropped edge {a}-{b}"));
    }
    std::fs::remove_file(&path).ok();
}
