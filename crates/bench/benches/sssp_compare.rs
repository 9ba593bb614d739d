//! Wall-clock comparison: radius stepping (after preprocessing) vs
//! Dijkstra, ∆-stepping and Bellman–Ford (radius stepping at r ≡ ∞) — the
//! end-to-end race the paper's work/depth analysis predicts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rs_baselines::{delta_stepping, dijkstra_default};
use rs_core::preprocess::{PreprocessConfig, Preprocessed};
use rs_core::{radius_stepping, Radii};
use rs_graph::{gen, weights, WeightModel};

fn sssp_compare(c: &mut Criterion) {
    let graphs = vec![
        (
            "grid2d_100x100",
            weights::reweight(&gen::grid2d(100, 100), WeightModel::paper_weighted(), 1),
        ),
        (
            "scale_free_10k",
            weights::reweight(&gen::scale_free(10_000, 5, 2), WeightModel::paper_weighted(), 3),
        ),
        (
            "road_10k",
            weights::reweight(&gen::road_network(100, 4), WeightModel::paper_weighted(), 5),
        ),
    ];
    for (name, g) in graphs {
        let mut group = c.benchmark_group(format!("sssp/{name}"));
        group.sample_size(10);
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 32));
        group.bench_function(BenchmarkId::from_parameter("radius_stepping_rho32"), |b| {
            b.iter(|| {
                black_box(radius_stepping(&pre.graph, &pre.radii, 0).dist[g.num_vertices() - 1])
            })
        });
        group.bench_function(BenchmarkId::from_parameter("dijkstra"), |b| {
            b.iter(|| black_box(dijkstra_default(&g, 0)[g.num_vertices() - 1]))
        });
        group.bench_function(BenchmarkId::from_parameter("delta_stepping"), |b| {
            b.iter(|| black_box(delta_stepping(&g, 0, 2_000).dist[g.num_vertices() - 1]))
        });
        group.bench_function(BenchmarkId::from_parameter("bellman_ford"), |b| {
            b.iter(|| {
                black_box(radius_stepping(&g, &Radii::Infinite, 0).dist[g.num_vertices() - 1])
            })
        });
        group.finish();
    }
}

criterion_group!(benches, sssp_compare);
criterion_main!(benches);
