//! The one-client closed loop sssp-grid and shard-grid share, and the
//! engine counters every workload reports.

use std::time::{Duration, Instant};

use rs_core::solver::{Query, QueryResponse, SsspSolver};
use rs_core::{SolverScratch, StepStats};

use crate::{Outcome, RunConfig, Tracer};

/// One timed operation: its stream index, the time `execute` took, the
/// engine counters, and a digest of the answer for the correctness gate.
pub struct Op<D> {
    pub index: usize,
    pub latency: Duration,
    pub stats: StepStats,
    pub answer: D,
}

/// Runs `stream` (wrapping around) for the run's seconds and returns the
/// untraced and the traced operations. An untraced run has one untraced
/// window; a traced run has an untraced 40% window, then a traced 60% one
/// whose queries also record the engine's per-step trace. Only `execute`
/// is timed; `digest` runs outside the timed region. `span` names the
/// span (name, layer) of a query.
pub fn closed_loop<S: SsspSolver + ?Sized, D>(
    solver: &S,
    scratch: &mut SolverScratch,
    stream: &[Query],
    cfg: &RunConfig,
    tracer: &mut Tracer,
    span: impl Fn(&Query) -> (&'static str, &'static str),
    digest: impl Fn(&QueryResponse) -> D,
) -> (Vec<Op<D>>, Vec<Op<D>>) {
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let mut next = 0;
    let mut window = |secs: Duration, tracer: &mut Tracer| {
        let mut out = Vec::new();
        let deadline = Instant::now() + secs;
        while Instant::now() < deadline {
            let index = next % stream.len();
            next += 1;
            let q = &stream[index];
            let q = if tracer.enabled() { q.clone().with_trace() } else { q.clone() };
            let (name, layer) = span(&q);
            let id = tracer.open(name, layer, index as u64);
            let t = Instant::now();
            let resp = solver.execute(&q, scratch);
            let latency = t.elapsed();
            tracer.close(id);
            out.push(Op { index, latency, stats: resp.stats().clone(), answer: digest(&resp) });
        }
        out
    };
    if !cfg.trace {
        return (window(seconds, tracer), Vec::new());
    }
    tracer.set_enabled(false);
    let plain = window(seconds.mul_f64(0.4), tracer);
    tracer.set_enabled(true);
    let traced = window(seconds.mul_f64(0.6), tracer);
    (plain, traced)
}

/// Writes the `engine.*` counters over `solves` (means per solve, the
/// largest step, useful ÷ attempted work) and `engine.us_per_step` from
/// the `busy` time those solves took.
pub fn engine_metrics<'a>(
    out: &mut Outcome,
    solves: impl IntoIterator<Item = &'a StepStats>,
    busy: Duration,
) {
    let (mut k, mut steps, mut substeps, mut max_sub, mut relaxed, mut settled) =
        (0usize, 0usize, 0usize, 0usize, 0u64, 0usize);
    for st in solves {
        k += 1;
        steps += st.steps;
        substeps += st.substeps;
        max_sub = max_sub.max(st.max_substeps_in_step);
        relaxed += st.relaxed_edges;
        settled += st.settled;
    }
    let k = k.max(1) as f64;
    out.set("engine.steps", steps as f64 / k);
    out.set("engine.substeps", substeps as f64 / k);
    out.set("engine.max_substeps_in_step", max_sub as f64);
    out.set("engine.relaxed_edges", relaxed as f64 / k);
    out.set("engine.settled_per_relaxed_edge", settled as f64 / relaxed.max(1) as f64);
    out.set("engine.us_per_step", busy.as_secs_f64() * 1e6 / steps.max(1) as f64);
}
