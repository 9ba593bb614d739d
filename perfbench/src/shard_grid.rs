//! `shard-grid`: one client, closed loop, through `ShardedSolver` on the
//! paper-weighted 128×128 grid split into P = 16 parts: six cross-part
//! point-to-point routes, then one 16×8 many-to-many table, repeated.
//! Route endpoints are drawn from opposite quarters of the grid, and the
//! few pairs the partition still puts in one part are dropped. Every
//! answer must be bit-identical to the flat solver.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rs_core::solver::{Query, SolverBuilder, SsspSolver};
use rs_core::{PreprocessConfig, SolverScratch};
use rs_graph::{gen, induced_subgraph, weights, CsrGraph, Dist, VertexId, WeightModel};
use rs_shard::{PartitionConfig, PartitionStrategy, Partitioner, ShardedSolver};

use crate::measure::{closed_loop, engine_metrics, Op};
use crate::util::{ms, stream_hash, vertex, Sample};
use crate::{Outcome, RunConfig, Scale, Tracer};

/// The graph is the same for every seed; the seed picks the queries.
const GRAPH_SEED: u64 = 1;
/// Routes per table in the repeating cycle.
const ROUTES_PER_TABLE: usize = 6;
/// Cycles generated per run; the closed loop wraps around.
const STREAM_CYCLES: usize = 256;

/// A distance table answer: sources × goals.
type Table = Vec<Vec<Option<Dist>>>;

pub fn graph(scale: &Scale) -> CsrGraph {
    let side = scale.shard_side;
    weights::reweight(&gen::grid2d(side, side), WeightModel::paper_weighted(), GRAPH_SEED)
}

/// The seeded operation stream: `ROUTES_PER_TABLE` routes, then a table.
pub fn query_stream(scale: &Scale, seed: u64) -> Vec<Query> {
    let side = scale.shard_side;
    let mut rng = StdRng::seed_from_u64(seed);
    let quarter = (side / 4).max(1);
    let n = side * side;
    let mut out = Vec::with_capacity(STREAM_CYCLES * (ROUTES_PER_TABLE + 1));
    for _ in 0..STREAM_CYCLES {
        for _ in 0..ROUTES_PER_TABLE {
            // Vertex (x, y) has id x·side + y: one end in the first
            // quarter of x, the other in the last.
            let west = rng.random_range(0..quarter) * side + rng.random_range(0..side);
            let east = (side - 1 - rng.random_range(0..quarter)) * side + rng.random_range(0..side);
            let (west, east) = (west as VertexId, east as VertexId);
            out.push(if rng.random_range(0..2) == 0 {
                Query::point_to_point(west, east)
            } else {
                Query::point_to_point(east, west)
            });
        }
        let sources = (0..scale.table_rows).map(|_| vertex(&mut rng, n)).collect::<Vec<_>>();
        let goals = (0..scale.table_cols).map(|_| vertex(&mut rng, n)).collect::<Vec<_>>();
        out.push(Query::many_to_many(sources, goals));
    }
    out
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let g = graph(&cfg.scale);
    let stream = query_stream(&cfg.scale, cfg.seed);
    let parts = cfg.scale.shard_parts;
    let mut out = Outcome { n: g.num_vertices(), m: g.num_edges(), ..Outcome::default() };
    let mut tracer = Tracer::new(cfg.trace);
    if cfg.trace {
        build_layers(&mut out, &g, parts, &mut tracer);
    }

    // Set-up: partition + skeleton → sharded solver → warm scratch → one
    // warm-up route. One set-up per run: it is the costliest of the three
    // workloads by far.
    let t = Instant::now();
    let root = tracer.open("setup", "harness", 0);
    let pg = tracer.time("shard.partition", "shard", 0, || Partitioner::new(parts).partition(&g));
    let sharded = ShardedSolver::new(&g, &pg);
    let mut scratch = SolverScratch::new();
    tracer.time("shard.warm", "shard", 0, || {
        sharded.warm_scratch(&mut scratch);
        sharded.execute(&stream[0], &mut scratch);
    });
    tracer.close(root);
    out.set("setup_s", t.elapsed().as_secs_f64());

    // The geometric draw puts about 2.5% of route endpoints in one part of
    // the full-size partition; only cross-part routes are measured.
    let part = |v: VertexId| pg.locate(v).0;
    let stream: Vec<Query> = stream
        .into_iter()
        .filter(|q| q.goal().is_none_or(|goal| part(q.source()) != part(goal)))
        .collect();
    out.stream_hash = stream_hash(&stream);

    let (plain, traced) = closed_loop(
        &sharded,
        &mut scratch,
        &stream,
        cfg,
        &mut tracer,
        |q| (if q.is_many_to_many() { "shard.table" } else { "shard.route" }, "shard"),
        |resp| resp.distance_table(),
    );
    out.attempted = (plain.len() + traced.len()) as u64;
    let is_route = |o: &&Op<Table>| o.answer.len() == 1;
    let lat = Sample::new(plain.iter().filter(is_route).map(|o| ms(o.latency)).collect());
    out.set_latency(plain.iter().filter(is_route).map(|o| ms(o.latency)).collect());
    out.set("throughput_per_s", rows_per_s(plain.iter().map(|o| (o.answer.len(), o.latency))));

    // Correctness: every answer bit-identical to the flat solver's, which
    // is timed on the same queries for the flat bar.
    let flat = SolverBuilder::new(&g).radius_stepping_solver_from_algorithm();
    let mut flat_scratch = SolverScratch::new();
    flat.warm_scratch(&mut flat_scratch);
    let mut flat_ops = Vec::new();
    for op in plain.iter().chain(&traced) {
        let q = &stream[op.index];
        let name = if q.is_many_to_many() { "flat.table" } else { "flat.route" };
        let t = Instant::now();
        let resp =
            tracer.time(name, "engine", op.index as u64, || flat.execute(q, &mut flat_scratch));
        flat_ops.push((op.answer.len(), t.elapsed()));
        out.wrong += u64::from(resp.distance_table() != op.answer);
    }

    if !cfg.trace {
        return out;
    }
    let flat_routes = Sample::new(flat_ops.iter().filter(|o| o.0 == 1).map(|o| ms(o.1)).collect());
    out.set_q("flat.route_ms_p50", flat_routes.quantile(0.5), flat_routes.len());
    out.set("flat.table_rows_per_s", rows_per_s(flat_ops.into_iter()));
    let busy = plain.iter().filter(is_route).map(|o| o.latency).sum();
    engine_metrics(&mut out, plain.iter().filter(is_route).map(|o| &o.stats), busy);
    out.set("shard.relaxed_edges_per_route", out.values["engine.relaxed_edges"]);
    let (created, reused) = sharded.pool_counters();
    out.set("shard.pool_created", created as f64);
    out.set("shard.pool_reused", reused as f64);
    let sk = pg.boundary();
    out.set("shard.skeleton_nodes", sk.num_nodes() as f64);
    out.set("shard.skeleton_arcs", sk.num_edges() as f64);
    out.set("shard.arcs_per_input_arc", sk.num_edges() as f64 / g.num_edges().max(1) as f64);
    out.set("shard.build_relaxations", pg.build_stats().relaxations as f64);
    let traced_ms = Sample::new(traced.iter().filter(is_route).map(|o| ms(o.latency)).collect());
    out.set("trace.overhead_ratio", traced_ms.quantile(0.5) / lat.quantile(0.5).max(1e-9));
    out.absorb_spans(tracer);
    out
}

/// Table rows answered per second of table time.
fn rows_per_s(ops: impl Iterator<Item = (usize, Duration)>) -> f64 {
    let (mut rows, mut secs) = (0usize, 0.0);
    for (r, d) in ops.filter(|o| o.0 > 1) {
        rows += r;
        secs += d.as_secs_f64();
    }
    rows as f64 / secs.max(1e-9)
}

/// The partition layer's build steps timed one call each, as
/// `PartitionedGraph::build` runs them: assignment, part views, skeleton.
fn build_layers(out: &mut Outcome, g: &CsrGraph, parts: usize, tracer: &mut Tracer) {
    let pcfg = PartitionConfig::new(parts);
    let t = Instant::now();
    let assignment =
        tracer.time("shard.assign", "shard", 0, || PartitionStrategy::BfsGrowth.assign(g, parts));
    out.set("shard.assign_s", t.elapsed().as_secs_f64());
    let views: Vec<_> = tracer.time("shard.subgraphs", "shard", 0, || {
        assignment.members().iter().map(|m| induced_subgraph(g, m)).collect()
    });
    let skeleton_pre: Option<PreprocessConfig> = pcfg.skeleton_preprocess;
    let t = Instant::now();
    tracer.time("shard.skeleton", "shard", 0, || {
        rs_shard::skeleton::build_skeleton(g, assignment.as_slice(), &views, skeleton_pre.as_ref())
    });
    out.set("shard.skeleton_s", t.elapsed().as_secs_f64());
}
