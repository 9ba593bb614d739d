//! Sharded-serving experiment: partition + boundary-skeleton routing vs
//! a flat solve, at P ∈ {1, 4, 16} parts.
//!
//! Three workloads per part count, all self-checked for bit-identical
//! goal distances against the flat baseline before any number is
//! reported:
//!
//! * **cross-part point-to-point** — diagonal grid pairs, the shape the
//!   three-phase route (intra-part → skeleton → intra-part) exists for;
//! * **same-part point-to-point** — the fallback path; the
//!   `sharded_not_slower_same_part` flag asserts delegation keeps the
//!   fallback within a tolerant factor of the flat baseline (CI smokes
//!   grep it);
//! * **many-to-many** — table rows pinned to their source's part and
//!   executed over the per-part scratch pools.
//!
//! Results land in `BENCH_shard.json` (hand-rolled JSON, like the other
//! experiments) with per-P blocks plus the headline flag.

use std::time::Instant;

use rs_core::solver::{Query, SolverBuilder, SsspSolver};
use rs_core::SolverScratch;
use rs_graph::{gen, weights, CsrGraph, Dist, VertexId, WeightModel};
use rs_shard::{Partitioner, ShardedSolver};

use crate::table::Table;

use super::ExpConfig;

/// One part count's measurements (sharded and flat on identical work).
#[derive(Debug, Clone)]
pub struct PartMeasurement {
    /// Number of parts.
    pub parts: usize,
    /// Skeleton size: boundary vertices.
    pub boundary_nodes: usize,
    /// Skeleton size: undirected edges (cut arcs + non-dominated
    /// within-part arcs).
    pub boundary_arcs: usize,
    /// Partition + skeleton build, seconds.
    pub build_seconds: f64,
    /// Cross-part point-to-point queries per second, sharded.
    pub cross_qps: f64,
    /// Same work, flat baseline.
    pub flat_cross_qps: f64,
    /// Same-part point-to-point queries per second, sharded (fallback).
    pub same_qps: f64,
    /// Same work, flat baseline.
    pub flat_same_qps: f64,
    /// Many-to-many table rows per second, sharded.
    pub mm_rows_per_sec: f64,
    /// Same table, flat baseline.
    pub flat_mm_rows_per_sec: f64,
}

/// The experiment's output.
#[derive(Debug, Clone)]
pub struct ShardRun {
    pub side: usize,
    pub vertices: usize,
    pub edges: usize,
    pub pairs: usize,
    pub runs: Vec<PartMeasurement>,
}

impl ShardRun {
    /// The CI flag: the same-part fallback must stay within a tolerant
    /// factor of the flat baseline at every part count (it *is* a flat
    /// solve plus a partition lookup, so 2x headroom absorbs noise).
    pub fn not_slower_same_part(&self) -> bool {
        self.runs.iter().all(|r| r.same_qps >= 0.5 * r.flat_same_qps)
    }
}

/// Grid side for the configured scale (same sizing as the p2p
/// experiment: paper scale is the 256×256 acceptance grid).
fn grid_side(cfg: &ExpConfig) -> usize {
    let target = (256 * 256) / cfg.scale_denom.max(1);
    ((target as f64).sqrt() as usize).max(16)
}

/// Times `queries` through `solver` with a warm scratch, returning
/// (goal distances, seconds).
fn time_queries(solver: &dyn SsspSolver, queries: &[Query]) -> (Vec<Vec<Vec<Option<Dist>>>>, f64) {
    let mut scratch = SolverScratch::new();
    solver.warm_scratch(&mut scratch);
    let mut tables = Vec::with_capacity(queries.len());
    let t = Instant::now();
    for q in queries {
        tables.push(solver.execute(q, &mut scratch).distance_table());
    }
    (tables, t.elapsed().as_secs_f64())
}

/// Runs sharded vs flat at P ∈ {1, 4, 16} and writes `BENCH_shard.json`
/// into `cfg.out_dir`.
pub fn run(cfg: &ExpConfig) -> ShardRun {
    let side = grid_side(cfg);
    let g: CsrGraph =
        weights::reweight(&gen::grid2d(side, side), WeightModel::paper_weighted(), cfg.seed);
    let n = g.num_vertices() as u32;
    // Same construction as the sharded solver's internal fallback, so
    // the same-part comparison isolates routing overhead, not engine
    // choice.
    let flat = SolverBuilder::new(&g).radius_stepping_solver_from_algorithm();
    let num_pairs = cfg.sources.max(2);

    // Diagonal pairs span the grid; with P > 1 they cross parts.
    let diagonal: Vec<Query> = (0..num_pairs)
        .map(|i| {
            let s = (i as u32 * 37) % side as u32;
            Query::point_to_point(s, n - 1 - s)
        })
        .collect();
    // One modest table: rows spread over the grid (and thus the parts).
    let mm_sources: Vec<VertexId> = (0..num_pairs as u32 * 2).map(|i| (i * 41) % n).collect();
    let mm_goals: Vec<VertexId> = (0..num_pairs as u32).map(|i| (i * 59 + 3) % n).collect();
    let mm_rows = mm_sources.len();
    let table_query = vec![Query::many_to_many(mm_sources, mm_goals)];

    let mut runs = Vec::new();
    for parts in [1usize, 4, 16] {
        let t = Instant::now();
        let pg = Partitioner::new(parts).partition(&g);
        let build_seconds = t.elapsed().as_secs_f64();
        let sharded = ShardedSolver::new(&g, &pg);

        // Same-part pairs for *this* partition: each source paired with
        // the next vertex sharing its part.
        let same: Vec<Query> = (0..num_pairs)
            .map(|i| {
                let s = (i as u32 * 53) % n;
                let (p, _) = pg.locate(s);
                let t = (1..n)
                    .map(|d| (s + d) % n)
                    .find(|&v| pg.locate(v).0 == p)
                    .unwrap_or((s + 1) % n);
                Query::point_to_point(s, t)
            })
            .collect();

        let (s_cross, cross_secs) = time_queries(&sharded, &diagonal);
        let (f_cross, flat_cross_secs) = time_queries(&flat, &diagonal);
        assert_eq!(s_cross, f_cross, "P={parts}: cross-part distances diverged from flat");
        let (s_same, same_secs) = time_queries(&sharded, &same);
        let (f_same, flat_same_secs) = time_queries(&flat, &same);
        assert_eq!(s_same, f_same, "P={parts}: same-part distances diverged from flat");
        let (s_mm, mm_secs) = time_queries(&sharded, &table_query);
        let (f_mm, flat_mm_secs) = time_queries(&flat, &table_query);
        assert_eq!(s_mm, f_mm, "P={parts}: many-to-many table diverged from flat");

        runs.push(PartMeasurement {
            parts,
            boundary_nodes: pg.boundary().num_nodes(),
            boundary_arcs: pg.boundary().num_edges(),
            build_seconds,
            cross_qps: diagonal.len() as f64 / cross_secs.max(1e-9),
            flat_cross_qps: diagonal.len() as f64 / flat_cross_secs.max(1e-9),
            same_qps: same.len() as f64 / same_secs.max(1e-9),
            flat_same_qps: same.len() as f64 / flat_same_secs.max(1e-9),
            mm_rows_per_sec: mm_rows as f64 / mm_secs.max(1e-9),
            flat_mm_rows_per_sec: mm_rows as f64 / flat_mm_secs.max(1e-9),
        });
    }

    let out =
        ShardRun { side, vertices: g.num_vertices(), edges: g.num_edges(), pairs: num_pairs, runs };
    if let Err(e) = write_json(cfg, &out) {
        eprintln!("warning: failed to write BENCH_shard.json: {e}");
    }
    out
}

/// Renders the run as a display table.
pub fn table(run: &ShardRun) -> Table {
    let mut t = Table::new(
        format!(
            "Sharded serving on a {s}x{s} grid (n={}, m={}, {} pairs/workload) — \
             same-part fallback not slower: {}",
            run.vertices,
            run.edges,
            run.pairs,
            run.not_slower_same_part(),
            s = run.side,
        ),
        &[
            "parts",
            "boundary n",
            "boundary m",
            "build s",
            "cross qps",
            "flat cross",
            "same qps",
            "flat same",
            "mm rows/s",
            "flat mm",
        ],
    );
    for r in &run.runs {
        t.push_row(vec![
            r.parts.to_string(),
            r.boundary_nodes.to_string(),
            r.boundary_arcs.to_string(),
            format!("{:.4}", r.build_seconds),
            format!("{:.0}", r.cross_qps),
            format!("{:.0}", r.flat_cross_qps),
            format!("{:.0}", r.same_qps),
            format!("{:.0}", r.flat_same_qps),
            format!("{:.0}", r.mm_rows_per_sec),
            format!("{:.0}", r.flat_mm_rows_per_sec),
        ]);
    }
    t
}

/// Hand-rolled JSON (no serde in the workspace).
fn write_json(cfg: &ExpConfig, run: &ShardRun) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"grid_side\": {},", run.side);
    let _ = writeln!(s, "  \"vertices\": {},", run.vertices);
    let _ = writeln!(s, "  \"edges\": {},", run.edges);
    let _ = writeln!(s, "  \"pairs\": {},", run.pairs);
    let _ = writeln!(s, "  \"part_counts\": [");
    for (i, r) in run.runs.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"parts\": {},", r.parts);
        let _ = writeln!(s, "      \"boundary_nodes\": {},", r.boundary_nodes);
        let _ = writeln!(s, "      \"boundary_arcs\": {},", r.boundary_arcs);
        let _ = writeln!(s, "      \"build_seconds\": {:.6},", r.build_seconds);
        let _ = writeln!(s, "      \"cross_part_qps\": {:.1},", r.cross_qps);
        let _ = writeln!(s, "      \"flat_cross_part_qps\": {:.1},", r.flat_cross_qps);
        let _ = writeln!(s, "      \"same_part_qps\": {:.1},", r.same_qps);
        let _ = writeln!(s, "      \"flat_same_part_qps\": {:.1},", r.flat_same_qps);
        let _ = writeln!(s, "      \"many_to_many_rows_per_sec\": {:.1},", r.mm_rows_per_sec);
        let _ =
            writeln!(s, "      \"flat_many_to_many_rows_per_sec\": {:.1}", r.flat_mm_rows_per_sec);
        let _ = writeln!(s, "    }}{}", if i + 1 == run.runs.len() { "" } else { "," });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"sharded_not_slower_same_part\": {}", run.not_slower_same_part());
    let _ = writeln!(s, "}}");
    std::fs::create_dir_all(&cfg.out_dir)?;
    std::fs::write(cfg.out_dir.join("BENCH_shard.json"), s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_tiny_and_emits_json() {
        let mut cfg = ExpConfig::tiny();
        cfg.out_dir = std::env::temp_dir().join(format!("rs_bench_shard_{}", std::process::id()));
        let run = run(&cfg);
        assert_eq!(run.runs.len(), 3);
        assert_eq!(run.runs.iter().map(|r| r.parts).collect::<Vec<_>>(), vec![1, 4, 16]);
        // P = 1 has no boundary; P > 1 must have one on a connected grid.
        assert_eq!(run.runs[0].boundary_nodes, 0);
        assert!(run.runs[1].boundary_nodes > 0);
        let json =
            std::fs::read_to_string(cfg.out_dir.join("BENCH_shard.json")).expect("json emitted");
        assert!(json.contains("\"sharded_not_slower_same_part\""));
        assert!(json.contains("\"part_counts\""));
        let t = table(&run);
        assert_eq!(t.rows.len(), 3);
        std::fs::remove_dir_all(&cfg.out_dir).ok();
    }
}
