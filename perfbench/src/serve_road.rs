//! `serve-road`: an open loop at one fixed rate into `rs_serve::serve`
//! (default `ServerConfig`) on the Penn road stand-in. The mix is 60%
//! point-to-point, 20% one-to-many with 4 goals, 10% single-source and
//! 10% 2×2 many-to-many, endpoints uniform over all vertices. One request
//! in three replays a fresh request from a recent window much smaller than
//! the cache, so the cache-hit share tracks the replay share and not the
//! rate or the run length.
//!
//! Each request is timed from its due time to the receipt of its reply;
//! a request the server refuses counts as failed and as missing the SLO.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use rs_baselines::solver::BuildSolver;
use rs_core::solver::{Query, QueryResponse, QueryShape, SolverBuilder, SsspSolver};
use rs_core::{Landmarks, PreprocessConfig, SolverScratch, StepStats, DEFAULT_LANDMARKS};
use rs_graph::{CsrGraph, Dist, VertexId};
use rs_serve::{serve, Server, ServerConfig, Shape};

use crate::measure::engine_metrics;
use crate::trace::NO_PARENT;
use crate::util::{hash_dists, ms, stream_hash, us, vertex, Sample};
use crate::{median, Outcome, RunConfig, Scale, Tracer, SHAPES};

/// Offered rate, requests/s: about a quarter of the lowest rate (400) at
/// which the server first refused a request when this benchmark was
/// defined. At half that rate, a shared 2-core host's slow spells turned
/// into queueing, and the run-to-run spread of the latency quantiles
/// exceeded the benchmark's bounds.
pub const RATE: f64 = 100.0;
/// The latency limit behind `serve.within_slo_share` and this workload's
/// `throughput_per_s` (requests answered within it per second).
pub const SLO_MS: f64 = 50.0;
/// Every `REPLAY_EVERY`-th request replays an earlier fresh one ...
const REPLAY_EVERY: usize = 3;
/// ... drawn from the fresh requests at least `REPLAY_MIN_AGE` and at most
/// `REPLAY_MIN_AGE + REPLAY_WINDOW` fresh requests back: old enough to
/// have been answered, recent enough to be far inside the cache.
const REPLAY_MIN_AGE: usize = 32;
const REPLAY_WINDOW: usize = 128;

pub fn graph(scale: &Scale) -> CsrGraph {
    rs_bench::suite::build_graph("Penn", scale.road_denom).weighted()
}

/// One request of the stream: the query, and the index of the request it
/// replays (if it is a replay).
#[derive(Debug, Clone)]
pub struct Request {
    pub query: Query,
    pub replay_of: Option<usize>,
}

/// The seeded request stream for `len` requests over `n` vertices. Every
/// block of ten fresh requests holds the exact mix, in seeded order, so
/// the shape shares do not vary with the seed.
pub fn query_stream(n: usize, seed: u64, len: usize) -> Vec<Request> {
    const MIX: [u8; 10] = [0, 0, 0, 0, 0, 0, 1, 1, 2, 3];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Request> = Vec::with_capacity(len);
    let mut fresh: Vec<usize> = Vec::new();
    let mut block = MIX;
    for i in 0..len {
        if i % REPLAY_EVERY == REPLAY_EVERY - 1 && fresh.len() > REPLAY_MIN_AGE {
            let hi = fresh.len() - REPLAY_MIN_AGE;
            let lo = hi.saturating_sub(REPLAY_WINDOW);
            let j = fresh[rng.random_range(lo..hi)];
            out.push(Request { query: out[j].query.clone(), replay_of: Some(j) });
            continue;
        }
        let slot = fresh.len() % MIX.len();
        if slot == 0 {
            block.shuffle(&mut rng);
        }
        let mut v = || vertex(&mut rng, n);
        let query = match block[slot] {
            0 => Query::point_to_point(v(), v()),
            1 => Query::one_to_many(v(), vec![v(), v(), v(), v()]),
            2 => Query::single_source(v()),
            _ => Query::many_to_many(vec![v(), v()], vec![v(), v()]),
        };
        fresh.push(i);
        out.push(Request { query, replay_of: None });
    }
    out
}

/// What a reply said, kept after the response itself is dropped.
struct Answer {
    /// The query the response answers (canonical form for cache hits).
    query: Query,
    /// Distance table over `query`'s sources × goals.
    table: Vec<Vec<Option<Dist>>>,
    /// Hash of the full distance array, for single-source replies.
    full: Option<u64>,
}

impl Answer {
    fn of(resp: &QueryResponse) -> Answer {
        let full = matches!(resp.query.shape, QueryShape::SingleSource { .. })
            .then(|| hash_dists(resp.dist()));
        Answer { query: resp.query.clone(), table: resp.distance_table(), full }
    }
}

struct Sent {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    id: Option<u64>,
}

struct Got {
    id: u64,
    at: Instant,
    cached: bool,
    answer: Answer,
}

/// Offers `stream` at `rate` and collects every reply: this thread
/// submits on schedule, a second client thread receives.
fn open_loop(server: &Server<'_>, stream: &[Request], rate: f64) -> (Vec<Sent>, Vec<Got>) {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            rx.iter()
                .map(|reply: rs_serve::Reply| {
                    let at = Instant::now();
                    let answer = Answer::of(&reply.response);
                    Got { id: reply.id, at, cached: reply.cached, answer }
                })
                .collect::<Vec<Got>>()
        });
        let start = Instant::now() + Duration::from_millis(2);
        let mut sent = Vec::with_capacity(stream.len());
        for (i, r) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit_start = Instant::now();
            let id = server.submit(r.query.clone(), tx.clone()).ok();
            sent.push(Sent { due, submit_start, submit_end: Instant::now(), id });
        }
        drop(tx);
        (sent, receiver.join().expect("receiver thread"))
    })
}

/// One answered or refused request, joined with its stream entry.
struct Done {
    shape: Shape,
    latency_ms: Option<f64>,
    cached: bool,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let g = graph(&cfg.scale);
    let n = g.num_vertices();
    let len = ((cfg.rate * cfg.seconds).ceil() as usize).max(1);
    let stream = query_stream(n, cfg.seed, len);
    let queries: Vec<Query> = stream.iter().map(|r| r.query.clone()).collect();
    let mut out =
        Outcome { n, m: g.num_edges(), stream_hash: stream_hash(&queries), ..Outcome::default() };
    let mut tracer = Tracer::new(cfg.trace);
    let pcfg = PreprocessConfig::new(1, cfg.scale.road_rho);
    let config = ServerConfig::default();

    // Set-up: preprocessing (with landmarks) → server start → the first
    // request answered. Repeated; the median is reported and the last
    // server carries the measured load.
    let reps = if cfg.trace { 1 } else { cfg.setups.max(1) };
    let mut setup = Vec::new();
    let mut measured = None;
    for rep in 0..reps {
        let t = Instant::now();
        let root = tracer.open("setup", "harness", 0);
        let solver = tracer.time("solver.build", "preprocess", 0, || {
            SolverBuilder::new(&g).preprocess(pcfg).build()
        });
        let last = rep + 1 == reps;
        let serve_start = Instant::now();
        let (loop_out, stats) = serve(&*solver, &config, |server| {
            let (tx, rx) = mpsc::channel();
            server.submit(Query::point_to_point(0, 1), tx).expect("idle server admits");
            rx.recv().expect("warm-up reply");
            // The set-up spans end at the first reply, so the load below
            // is covered by its per-request spans only.
            tracer.record("serve.start", "serve", 0, serve_start, Instant::now(), root);
            tracer.close(root);
            setup.push(t.elapsed().as_secs_f64());
            last.then(|| open_loop(server, &stream, cfg.rate))
        });
        if let Some(loop_out) = loop_out {
            measured = Some((loop_out, stats, solver));
        }
    }
    out.set("setup_s", median(&setup));
    let ((sent, got), stats, solver) = measured.expect("the last set-up measures");

    // Join replies to requests (ids are the server's tickets).
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in sent.iter().enumerate() {
        if let Some(id) = s.id {
            index_of.insert(id, i);
        }
    }
    let mut done: Vec<Done> = stream
        .iter()
        .map(|r| Done { shape: Shape::of(&r.query), latency_ms: None, cached: false })
        .collect();
    let mut answers: Vec<Option<Answer>> = (0..len).map(|_| None).collect();
    let mut receipt: Vec<Option<Instant>> = vec![None; len];
    for gr in got {
        let i = index_of[&gr.id];
        done[i].latency_ms = Some(ms(gr.at - sent[i].due));
        done[i].cached = gr.cached;
        receipt[i] = Some(gr.at);
        answers[i] = Some(gr.answer);
    }
    out.attempted = len as u64;
    out.refused = done.iter().filter(|d| d.latency_ms.is_none()).count() as u64;

    out.set_latency(done.iter().filter_map(|d| d.latency_ms).collect());
    // Goodput: answers within the SLO per second of the measured window,
    // first due time to last reply.
    let within = done.iter().filter(|d| d.latency_ms.is_some_and(|l| l <= SLO_MS)).count();
    let last = receipt.iter().flatten().max().copied().unwrap_or(sent[0].due);
    let window_s = (last - sent[0].due).as_secs_f64().max(1e-9);
    out.set("throughput_per_s", within as f64 / window_s);

    check_answers(&g, &stream, &answers, &mut out, &mut tracer);

    if cfg.trace {
        let all = Sample::new(out.latency_ms.clone());
        out.set_q("serve.latency_ms_p99", all.quantile(0.99), all.len());
        serve_metrics(&mut out, &sent, &done, &stats, within, len);
        record_request_spans(&mut tracer, &sent, &receipt);
        direct_solves(&mut out, &*solver, &stream, &done, &mut tracer);
        let t = Instant::now();
        tracer.time("landmarks.build", "landmarks", 0, || {
            Landmarks::build(solver.graph(), DEFAULT_LANDMARKS)
        });
        out.set("landmarks.build_s", t.elapsed().as_secs_f64());
        if let Some(s) = tracer.spans().iter().find(|s| s.name == "solver.build") {
            out.set("preprocess.build_s", (s.end_ns - s.start_ns) as f64 * 1e-9);
        }
        out.absorb_spans(tracer);
    }
    out
}

/// Server-side and client-side numbers of the traced run.
fn serve_metrics(
    out: &mut Outcome,
    sent: &[Sent],
    done: &[Done],
    stats: &rs_serve::ServerStats,
    within: usize,
    len: usize,
) {
    let submit = Sample::new(sent.iter().map(|s| us(s.submit_end - s.submit_start)).collect());
    out.set_q("serve.submit_us_p50", submit.quantile(0.5), submit.len());
    out.set_q("serve.submit_us_p99", submit.quantile(0.99), submit.len());
    let lag = Sample::new(
        sent.iter().map(|s| us(s.submit_start.saturating_duration_since(s.due))).collect(),
    );
    out.set_q("serve.gen_lag_us_p99", lag.quantile(0.99), lag.len());
    let p2p = Sample::new(
        done.iter()
            .filter(|d| d.shape == Shape::PointToPoint)
            .filter_map(|d| d.latency_ms)
            .collect(),
    );
    out.set_q("serve.p2p_latency_ms_p50", p2p.quantile(0.5), p2p.len());
    out.set_q("serve.p2p_latency_ms_p99", p2p.quantile(0.99), p2p.len());
    out.set("serve.within_slo_share", within as f64 / len as f64);
    let answered = done.iter().filter(|d| d.latency_ms.is_some()).count();
    let hits = done.iter().filter(|d| d.cached).count();
    out.set("cache.hit_share", hits as f64 / answered.max(1) as f64);
    out.set("cache.evictions", stats.cache.evictions as f64);
    // The warm-up request is one requested and one executed solve.
    let requested = stats.totals.solves.saturating_sub(1).max(1);
    out.set(
        "serve.executed_per_request",
        stats.totals.executed_solves.saturating_sub(1) as f64 / requested as f64,
    );
    for (shape, name) in Shape::ALL.into_iter().zip(SHAPES) {
        let lane = Sample::new(
            done.iter().filter(|d| d.shape == shape).filter_map(|d| d.latency_ms).collect(),
        );
        out.set_q(format!("lane.{name}.latency_us_p50"), lane.quantile(0.5) * 1e3, lane.len());
        out.set_q(format!("lane.{name}.latency_us_p99"), lane.quantile(0.99) * 1e3, lane.len());
        out.set(format!("lane.{name}.rejected"), stats.lane(shape).rejected as f64);
    }
}

/// Spans of every request (due → reply receipt) with its `Server::submit`
/// call as a child, built after the load from the timestamps every run
/// takes: the load itself records nothing while it runs.
fn record_request_spans(tracer: &mut Tracer, sent: &[Sent], receipt: &[Option<Instant>]) {
    for (i, s) in sent.iter().enumerate() {
        let end = receipt[i].unwrap_or(s.submit_end);
        let root = tracer.record("serve.request", "serve", i as u64, s.due, end, NO_PARENT);
        tracer.record("serve.submit", "serve", i as u64, s.submit_start, s.submit_end, root);
    }
}

/// Re-executes every fresh request directly on a warm scratch, twice:
/// once untraced, for per-shape solve time, engine counters, and each
/// cache miss's wait (its latency minus its direct solve time); once inside
/// a span. The traced p50 over the untraced one is `trace.overhead_ratio`,
/// the only cost tracing adds on this workload.
fn direct_solves(
    out: &mut Outcome,
    solver: &dyn SsspSolver,
    stream: &[Request],
    done: &[Done],
    tracer: &mut Tracer,
) {
    let mut scratch = SolverScratch::new();
    solver.warm_scratch(&mut scratch);
    let fresh: Vec<usize> = (0..stream.len()).filter(|&i| stream[i].replay_of.is_none()).collect();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rows: Vec<StepStats> = Vec::new();
    for (k, &i) in fresh.iter().enumerate() {
        // Alternate which execution goes first, so neither gains from the
        // caches the other warmed.
        for on in [k % 2 == 1, k % 2 == 0] {
            tracer.set_enabled(on);
            let t = Instant::now();
            let resp = tracer.time("solver.execute", "engine", i as u64, || {
                solver.execute(&stream[i].query, &mut scratch)
            });
            let took = t.elapsed();
            if on {
                traced.push(took);
            } else {
                plain.push(took);
                rows.extend(resp.rows().iter().map(|row| row.stats.clone()));
            }
        }
    }
    tracer.set_enabled(true);

    let mut by_shape: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut wait = Vec::new();
    for (&i, &took) in fresh.iter().zip(&plain) {
        by_shape[done[i].shape as usize].push(us(took));
        if let (Some(l), false) = (done[i].latency_ms, done[i].cached) {
            wait.push(l * 1e3 - us(took));
        }
    }
    for (name, v) in SHAPES.iter().zip(by_shape) {
        let s = Sample::new(v);
        out.set_q(format!("engine.solve_us_p50.{name}"), s.quantile(0.5), s.len());
    }
    let wait = Sample::new(wait);
    out.set_q("serve.wait_us_p50", wait.quantile(0.5), wait.len());
    out.set_q("serve.wait_us_p99", wait.quantile(0.99), wait.len());
    let p50 = |v: &[Duration]| Sample::new(v.iter().map(|&d| us(d)).collect()).quantile(0.5);
    out.set("trace.overhead_ratio", p50(&traced) / p50(&plain).max(1e-9));
    engine_metrics(out, &rows, plain.iter().sum());
    out.set("scratch.cold_solves", rows.iter().filter(|st| !st.scratch_reused).count() as f64);
}

/// Checks every reply against the Dijkstra oracle on the input graph, one
/// oracle solve per distinct source, outside every timed region.
fn check_answers(
    g: &CsrGraph,
    stream: &[Request],
    answers: &[Option<Answer>],
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let mut wrong = vec![false; stream.len()];
    // source → (request, row) pairs to check against its oracle row.
    let mut by_source: BTreeMap<VertexId, Vec<(usize, usize)>> = BTreeMap::new();
    for (i, a) in answers.iter().enumerate() {
        let Some(a) = a else { continue };
        if a.query.canonical() != stream[i].query.canonical() || a.table.len() != a.query.rows() {
            wrong[i] = true;
            continue;
        }
        for (row, &s) in a.query.sources().iter().enumerate() {
            by_source.entry(s).or_default().push((i, row));
        }
    }
    let mut oracle_ms = Vec::new();
    for (&source, checks) in &by_source {
        let t = Instant::now();
        let truth = tracer.time("dijkstra", "baselines", source as u64, || {
            rs_baselines::dijkstra_default(g, source)
        });
        oracle_ms.push(ms(t.elapsed()));
        let full = hash_dists(&truth);
        for &(i, row) in checks {
            let a = answers[i].as_ref().expect("checked answers exist");
            let ok = match a.full {
                Some(h) => h == full,
                None => a.query.goals().iter().zip(&a.table[row]).all(|(&goal, &d)| {
                    let t = truth[goal as usize];
                    d == (t != rs_graph::INF).then_some(t)
                }),
            };
            wrong[i] |= !ok;
        }
    }
    out.wrong = wrong.iter().filter(|&&w| w).count() as u64;
    let oracle = Sample::new(oracle_ms);
    out.set_q("baselines.dijkstra_ms_p50", oracle.quantile(0.5), oracle.len());
}
