//! `sssp-grid`: one client, closed loop, full single-source solves from
//! seeded uniform sources on the paper-weighted grid, with the paper's
//! (k = 1, ρ = 64) preprocessing built explicitly. Almost all of the time
//! is spent in `rs_core::engine` and the `rs_par` pool.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rs_core::solver::{Query, SsspSolver};
use rs_core::{Landmarks, PreprocessConfig, Preprocessed, SolverScratch, DEFAULT_LANDMARKS};
use rs_graph::{gen, weights, CsrGraph, VertexId, WeightModel};

use crate::measure::{closed_loop, engine_metrics};
use crate::util::{hash_dists, ms, stream_hash, vertex, Sample};
use crate::{median, Outcome, RunConfig, Scale, Tracer};

/// The graph is the same for every seed; the seed picks the sources.
const GRAPH_SEED: u64 = 1;
/// Sources generated per run; the closed loop cycles through them.
const STREAM_LEN: usize = 4096;

pub fn graph(scale: &Scale) -> CsrGraph {
    let side = scale.grid_side;
    weights::reweight(&gen::grid2d(side, side), WeightModel::paper_weighted(), GRAPH_SEED)
}

/// The seeded query stream: uniform single-source queries.
pub fn query_stream(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..STREAM_LEN).map(|_| Query::single_source(vertex(&mut rng, n))).collect()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let g = graph(&cfg.scale);
    let n = g.num_vertices();
    let stream = query_stream(n, cfg.seed);
    let pcfg = PreprocessConfig::new(1, cfg.scale.grid_rho);
    let mut out =
        Outcome { n, m: g.num_edges(), stream_hash: stream_hash(&stream), ..Outcome::default() };
    let mut tracer = Tracer::new(cfg.trace);

    // Set-up: graph in hand → preprocessing (with its landmark table) →
    // warm scratch → one warm-up solve. Repeated; the median is reported.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..if cfg.trace { 1 } else { cfg.setups.max(1) } {
        drop(built.take());
        let t = Instant::now();
        let root = tracer.open("setup", "harness", 0);
        let pre =
            tracer.time("preprocess.build", "preprocess", 0, || Preprocessed::build(&g, &pcfg));
        let mut scratch = SolverScratch::new();
        tracer.time("solver.warm", "engine", 0, || {
            pre.warm_scratch(&mut scratch);
            pre.execute(&Query::single_source(0), &mut scratch);
        });
        tracer.close(root);
        setup.push(t.elapsed().as_secs_f64());
        built = Some((pre, scratch));
    }
    let (pre, mut scratch) = built.expect("at least one set-up");
    out.set("setup_s", median(&setup));

    let (plain, traced) = closed_loop(
        &pre,
        &mut scratch,
        &stream,
        cfg,
        &mut tracer,
        |_| ("solver.execute", "engine"),
        |resp| hash_dists(resp.dist()),
    );
    out.attempted = (plain.len() + traced.len()) as u64;
    let lat = Sample::new(plain.iter().map(|o| ms(o.latency)).collect());
    out.set("throughput_per_s", lat.len() as f64 / (lat.sum() * 1e-3).max(1e-9));
    out.set_latency(plain.iter().map(|o| ms(o.latency)).collect());

    // Correctness, outside every timed region: each distinct source once
    // through the Dijkstra oracle on the input graph.
    let mut by_source: BTreeMap<VertexId, Vec<u64>> = BTreeMap::new();
    for op in plain.iter().chain(&traced) {
        by_source.entry(stream[op.index].source()).or_default().push(op.answer);
    }
    let mut oracle_ms = Vec::new();
    for (&source, hashes) in &by_source {
        let t = Instant::now();
        let truth = tracer.time("dijkstra", "baselines", source as u64, || {
            rs_baselines::dijkstra_default(&g, source)
        });
        oracle_ms.push(ms(t.elapsed()));
        let truth = hash_dists(&truth);
        out.wrong += hashes.iter().filter(|&&h| h != truth).count() as u64;
    }

    if !cfg.trace {
        return out;
    }
    let oracle = Sample::new(oracle_ms);
    out.set_q("baselines.dijkstra_ms_p50", oracle.quantile(0.5), oracle.len());
    let busy = plain.iter().map(|o| o.latency).sum();
    engine_metrics(&mut out, plain.iter().map(|o| &o.stats), busy);
    let active = Sample::new(
        traced
            .iter()
            .filter_map(|o| o.stats.trace.as_ref())
            .flat_map(|t| t.iter().map(|s| s.active_size as f64))
            .collect(),
    );
    out.set_q("engine.active_per_step_p50", active.quantile(0.5), active.len());
    out.set_q("engine.solve_us_p50.single_source", lat.quantile(0.5) * 1e3, lat.len());
    let cold = plain.iter().chain(&traced).filter(|o| !o.stats.scratch_reused).count();
    out.set("scratch.cold_solves", cold as f64);
    let traced_ms = Sample::new(traced.iter().map(|o| ms(o.latency)).collect());
    out.set("trace.overhead_ratio", traced_ms.quantile(0.5) / lat.quantile(0.5).max(1e-9));

    if let Some(s) = tracer.spans().iter().find(|s| s.name == "preprocess.build") {
        out.set("preprocess.build_s", (s.end_ns - s.start_ns) as f64 * 1e-9);
    }
    out.set("preprocess.added_edge_factor", pre.stats.added_edge_factor());
    let t = Instant::now();
    tracer.time("landmarks.build", "landmarks", 0, || {
        Landmarks::build(&pre.graph, DEFAULT_LANDMARKS)
    });
    out.set("landmarks.build_s", t.elapsed().as_secs_f64());
    if cfg.self_speedup {
        let one = one_thread_p50(cfg, Duration::from_secs_f64(cfg.seconds).mul_f64(0.4));
        out.set("par.self_speedup", one / lat.quantile(0.5).max(1e-9));
    }
    out.absorb_spans(tracer);
    out
}

/// `latency_ms_p50` of the same workload run by this executable with a
/// one-thread pool (`RS_NUM_THREADS=1`), untraced, for `window`.
fn one_thread_p50(cfg: &RunConfig, window: Duration) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let output = std::process::Command::new(exe)
        .args(["--workload", "sssp-grid", "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &window.as_secs_f64().to_string(), "--trace", "0"])
        .env("RS_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the one-thread benchmark");
    assert!(output.status.success(), "one-thread run failed: {}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    metric_value(last, "latency_ms_p50").expect("one-thread run reports latency_ms_p50")
}

/// Reads `metrics.<name>.value` from a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}
