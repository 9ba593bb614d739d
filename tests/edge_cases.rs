//! Boundary conditions across the whole stack: tiny graphs, extreme
//! weights, extreme radii, disconnection, and stress-scale determinism.

use radius_stepping::prelude::*;
use rs_core::preprocess::compute_radii;
use rs_core::verify::step_trace;
use rs_core::{radius_stepping_with, EngineConfig};

#[test]
fn two_vertex_graph() {
    let mut b = EdgeListBuilder::new(2);
    b.add_edge(0, 1, 7);
    let g = b.build();
    for radii in [Radii::Zero, Radii::Infinite, Radii::Constant(3)] {
        let out = radius_stepping_with(&g, &radii, 0, EngineConfig::with_trace());
        assert_eq!(out.dist, vec![0, 7]);
        assert_eq!((out.dist, out.stats.trace.unwrap()), step_trace(&g, &radii, 0));
    }
}

#[test]
fn isolated_source() {
    let g = CsrGraph::empty(5);
    let out = core::radius_stepping(&g, &Radii::Constant(10), 2);
    assert_eq!(out.dist[2], 0);
    assert_eq!(out.dist.iter().filter(|&&d| d == INF).count(), 4);
    assert_eq!(out.stats.steps, 0);
}

#[test]
fn maximum_weight_edges() {
    // Weights at the u32 ceiling must not overflow u64 distances.
    let mut b = EdgeListBuilder::new(4);
    b.add_edge(0, 1, u32::MAX);
    b.add_edge(1, 2, u32::MAX);
    b.add_edge(2, 3, u32::MAX);
    let g = b.build();
    let out = core::radius_stepping(&g, &Radii::Zero, 0);
    assert_eq!(out.dist[3], 3 * (u32::MAX as u64));
    assert_eq!(out.dist, baselines::dijkstra_default(&g, 0));
    // ∆-stepping with small ∆ would need 3·2³² buckets; the cyclic queue
    // must handle the window, so use a proportionate ∆.
    assert_eq!(baselines::delta_stepping(&g, 0, u32::MAX as u64).dist, out.dist);
}

#[test]
fn radii_larger_than_graph_diameter() {
    let g = graph::weights::reweight(&graph::gen::cycle(12), WeightModel::paper_weighted(), 3);
    let out = core::radius_stepping(&g, &Radii::Constant(u64::MAX / 2), 0);
    assert_eq!(out.stats.steps, 1, "everything inside the first annulus");
    assert_eq!(out.dist, baselines::dijkstra_default(&g, 0));
}

#[test]
fn rho_equals_n() {
    // r_ρ(v) with ρ = n: radius is the eccentricity; still valid.
    let g = graph::weights::reweight(&graph::gen::grid2d(5, 5), WeightModel::paper_weighted(), 8);
    let radii = compute_radii(&g, 25);
    assert!(radii.iter().all(|&r| r != INF));
    let out = core::radius_stepping(&g, &Radii::PerVertex(radii.into()), 0);
    assert_eq!(out.dist, baselines::dijkstra_default(&g, 0));
}

#[test]
fn rho_exceeding_n_gives_inf_radii_and_one_step() {
    let g = graph::gen::path(6);
    let radii = compute_radii(&g, 100);
    assert!(radii.iter().all(|&r| r == INF));
    let out = core::radius_stepping(&g, &Radii::PerVertex(radii.into()), 0);
    assert_eq!(out.stats.steps, 1);
    assert_eq!(out.dist[5], 5);
}

#[test]
fn preprocessing_on_disconnected_graph() {
    // Two components: balls never cross; each component solves correctly.
    let mut b = EdgeListBuilder::new(8);
    for (u, v) in [(0, 1), (1, 2), (2, 3)] {
        b.add_edge(u, v, 5);
    }
    for (u, v) in [(4, 5), (5, 6), (6, 7)] {
        b.add_edge(u, v, 3);
    }
    let g = b.build();
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 3));
    let out = radius_stepping(&pre.graph, &pre.radii, 0);
    assert_eq!(out.dist[3], 15);
    assert!(out.dist[4..].iter().all(|&d| d == INF));
    let out2 = radius_stepping(&pre.graph, &pre.radii, 7);
    assert_eq!(out2.dist[4], 9);
    assert!(out2.dist[..4].iter().all(|&d| d == INF));
}

#[test]
fn duplicate_and_reverse_edges_collapse() {
    let mut b = EdgeListBuilder::new(3);
    for w in [9u32, 4, 7] {
        b.add_edge(0, 1, w);
        b.add_edge(1, 0, w + 1);
    }
    b.add_edge(1, 2, 2);
    let g = b.build();
    assert_eq!(g.arc_weight(0, 1), Some(4));
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 2));
    assert_eq!(radius_stepping(&pre.graph, &pre.radii, 0).dist, vec![0, 4, 6]);
}

#[test]
fn stress_determinism_across_runs_and_engines() {
    // A mid-size graph: two engine runs and the sequential oracle, one
    // answer — including the whole step trace (substeps are synchronous,
    // hence schedule-free).
    let g = graph::weights::reweight(
        &graph::gen::road_network(40, 17),
        WeightModel::paper_weighted(),
        18,
    );
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(2, 20));
    let oracle = step_trace(&pre.graph, &pre.radii, 5);
    for _ in 0..2 {
        let cfg = EngineConfig::with_trace();
        let out = radius_stepping_with(&pre.graph, &pre.radii, 5, cfg);
        assert_eq!(out.dist, oracle.0);
        assert_eq!(out.stats.trace.unwrap(), oracle.1, "step traces must be deterministic");
    }
}

#[test]
fn weight_one_and_weight_l_extremes_in_same_graph() {
    // Mixing the lightest and heaviest legal weights exercises the
    // log(ρL) term's worst case.
    let mut b = EdgeListBuilder::new(6);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 10_000);
    b.add_edge(2, 3, 1);
    b.add_edge(3, 4, 10_000);
    b.add_edge(0, 5, 10_000);
    let g = b.build();
    let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 2));
    let out = radius_stepping(&pre.graph, &pre.radii, 0);
    assert_eq!(out.dist, baselines::dijkstra_default(&g, 0));
}
