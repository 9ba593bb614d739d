//! RSP5 partition-cache persistence: a saved [`PartitionedGraph`]
//! round-trips to an identical in-memory structure, and anything
//! incompatible at the cache path — a preprocessing file (here an old
//! `RSP4` header), garbage, a stale graph hash, or different partition
//! knobs (a non-default shortcut heuristic included) — rebuilds
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
    p.push(format!("rsp5-{name}-{}", std::process::id()));
    p
}

/// Structural equality for partitions: assignment, skeleton CSR, and
/// chain tables all byte-for-byte identical.
fn assert_identical(a: &PartitionedGraph, b: &PartitionedGraph) {
    assert_eq!(a.input_hash(), b.input_hash());
    assert_eq!(a.num_parts(), b.num_parts());
    assert_eq!(a.assignment().as_slice(), b.assignment().as_slice());
    assert_eq!(a.boundary().node_globals(), b.boundary().node_globals());
    assert_eq!(a.boundary().raw_parts(), b.boundary().raw_parts());
    assert_eq!(a.boundary().chains().len(), b.boundary().chains().len());
    for (ca, cb) in a.boundary().chains().iter().zip(b.boundary().chains()) {
        assert_eq!(ca.sorted_links(), cb.sorted_links());
    }
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

    for (name, bytes) in [
        ("rsp4", b"RSP4 pretend preprocessing payload".to_vec()),
        ("garbage", vec![0xAB; 512]),
        ("truncated", b"RSP5".to_vec()),
        ("empty", Vec::new()),
    ] {
        let path = tmp_path(name);
        std::fs::write(&path, &bytes).expect("fixture write");
        assert!(
            PartitionedGraph::load(&path, &g).is_err(),
            "{name}: incompatible file must not parse as RSP5"
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
