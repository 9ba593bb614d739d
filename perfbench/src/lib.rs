//! The repository benchmark: three workloads that drive the library's
//! public API from outside, check every answer, and report end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! * `sssp-grid` — closed loop of full single-source solves on the
//!   256×256 paper-weighted grid with (1, 64) preprocessing.
//! * `serve-road` — open loop at a fixed rate into `rs_serve::serve` on
//!   the Penn road stand-in, a mixed-shape stream with one request in
//!   three replaying a recent one.
//! * `shard-grid` — closed loop of cross-part routes and 16×8 tables
//!   through `ShardedSolver` on a 128×128 grid split into 16 parts.
//!
//! Every workload emits every metric of [`END_TO_END`] (untraced) or of
//! [`per_layer`] (traced); a per-layer metric of a layer the workload
//! never reaches reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod measure;
pub mod serve_road;
pub mod shard_grid;
pub mod sssp_grid;
pub mod trace;
pub mod util;

pub use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Each workload defines them for its
/// own operation (see the README's table).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The four query shapes, in `rs_serve::Shape::ALL` order.
pub const SHAPES: [&str; 4] = ["single_source", "point_to_point", "one_to_many", "many_to_many"];

/// Per-layer metrics: `(name, unit)`, in the order they are printed.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        // rs_core::engine
        ("engine.steps", "count"),
        ("engine.substeps", "count"),
        ("engine.max_substeps_in_step", "count"),
        ("engine.relaxed_edges", "count"),
        ("engine.settled_per_relaxed_edge", "ratio"),
        ("engine.us_per_step", "us"),
        ("engine.active_per_step_p50", "count"),
        // rs_core::preprocess + landmarks
        ("preprocess.build_s", "s"),
        ("landmarks.build_s", "s"),
        ("preprocess.added_edge_factor", "ratio"),
        // rs_core::solver
        ("scratch.cold_solves", "count"),
        // rs_baselines
        ("baselines.dijkstra_ms_p50", "ms"),
        // rs_par
        ("par.self_speedup", "ratio"),
        // rs_serve
        ("serve.submit_us_p50", "us"),
        ("serve.submit_us_p99", "us"),
        ("serve.gen_lag_us_p99", "us"),
        ("serve.wait_us_p50", "us"),
        ("serve.wait_us_p99", "us"),
        ("serve.latency_ms_p99", "ms"),
        ("serve.p2p_latency_ms_p50", "ms"),
        ("serve.p2p_latency_ms_p99", "ms"),
        ("serve.within_slo_share", "share"),
        ("serve.executed_per_request", "ratio"),
        ("cache.hit_share", "share"),
        ("cache.evictions", "count"),
        // rs_shard
        ("shard.assign_s", "s"),
        ("shard.skeleton_s", "s"),
        ("shard.build_relaxations", "count"),
        ("shard.skeleton_nodes", "count"),
        ("shard.skeleton_arcs", "count"),
        ("shard.arcs_per_input_arc", "ratio"),
        ("shard.relaxed_edges_per_route", "count"),
        ("shard.pool_created", "count"),
        ("shard.pool_reused", "count"),
        ("flat.route_ms_p50", "ms"),
        ("flat.table_rows_per_s", "1/s"),
        // the traced run itself
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for shape in SHAPES {
        out.push((format!("engine.solve_us_p50.{shape}"), "us"));
    }
    for shape in SHAPES {
        out.push((format!("lane.{shape}.latency_us_p50"), "us"));
        out.push((format!("lane.{shape}.latency_us_p99"), "us"));
        out.push((format!("lane.{shape}.rejected"), "count"));
    }
    for layer in LAYERS {
        out.push((format!("self_s.{layer}"), "s"));
    }
    out
}

/// Layers spans are attributed to (`self_s.<layer>` per-layer metrics).
pub const LAYERS: [&str; 7] =
    ["engine", "preprocess", "landmarks", "baselines", "serve", "shard", "harness"];

/// Input sizes. [`Scale::full`] is what the benchmark runs; the self-test
/// runs [`Scale::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// sssp-grid: grid side and preprocessing ρ (k = 1).
    pub grid_side: usize,
    pub grid_rho: usize,
    /// serve-road: Penn scale divisor and preprocessing ρ (k = 1).
    pub road_denom: usize,
    pub road_rho: usize,
    /// shard-grid: grid side, part count, table shape.
    pub shard_side: usize,
    pub shard_parts: usize,
    pub table_rows: usize,
    pub table_cols: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            grid_side: 256,
            grid_rho: 64,
            road_denom: 64,
            road_rho: 32,
            shard_side: 128,
            shard_parts: 16,
            table_rows: 16,
            table_cols: 8,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            grid_side: 24,
            grid_rho: 8,
            road_denom: 8192,
            road_rho: 8,
            shard_side: 20,
            shard_parts: 4,
            table_rows: 4,
            table_cols: 3,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured seconds (the traced run splits them into an untraced and
    /// a traced window).
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per untraced run (a traced run sets up once); `setup_s` is
    /// their median. The command line always uses the default, 3.
    pub setups: usize,
    pub scale: Scale,
    /// serve-road offered rate (requests/s).
    pub rate: f64,
    /// sssp-grid traced run: measure the 1-thread run for
    /// `par.self_speedup` by re-running this executable.
    pub self_speedup: bool,
}

impl RunConfig {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            trace,
            setups: 3,
            scale: Scale::full(),
            rate: serve_road::RATE,
            self_speedup: true,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (solves, requests, routes + tables).
    pub attempted: u64,
    /// Refused or errored operations.
    pub refused: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
    /// Every measured value by metric name (both kinds).
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each percentile metric.
    pub samples: BTreeMap<String, usize>,
    /// The headline per-operation latencies (ms), in the order the
    /// operations were issued, for the report file.
    pub latency_ms: Vec<f64>,
    /// Input description for the run stamp.
    pub n: usize,
    pub m: usize,
    pub stream_hash: u64,
    /// Spans of the traced run (empty when untraced).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Sets a percentile metric and the sample count behind it.
    pub fn set_q(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        self.samples.insert(name.clone(), samples);
        self.values.insert(name, value);
    }

    /// Sets `latency_ms_p50` and `latency_ms_p90` from the headline
    /// latencies, given in issue order, and keeps the samples.
    pub fn set_latency(&mut self, latency_ms: Vec<f64>) {
        let s = util::Sample::new(latency_ms.clone());
        self.set_q("latency_ms_p50", s.quantile(0.5), s.len());
        self.set_q("latency_ms_p90", s.quantile(0.9), s.len());
        self.latency_ms = latency_ms;
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.wrong
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// Adds `self_s.<layer>` and `trace.spans` from the recorded spans.
    pub fn absorb_spans(&mut self, tracer: Tracer) {
        for (layer, secs) in tracer.self_time_by_layer() {
            self.set(format!("self_s.{layer}"), secs);
        }
        self.set("trace.spans", tracer.spans().len() as f64);
        self.tracer = Some(tracer);
    }

    /// The metric list a run prints: every end-to-end metric (untraced)
    /// or every per-layer metric (traced), as `(name, value, unit)`.
    /// Panics if an end-to-end metric was not measured: that is a bug in
    /// the workload, never a property of the input.
    pub fn emitted(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        if trace {
            per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.values.get(&n).copied().unwrap_or(0.0);
                    (n, v, u)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = *self.values.get(n).unwrap_or_else(|| panic!("{n} not measured"));
                    (n.to_string(), v, u)
                })
                .collect()
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed()
        );
        for (i, (name, value, unit)) in self.emitted(trace).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) read 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    match name {
        "sssp-grid" => Some(sssp_grid::run(cfg)),
        "serve-road" => Some(serve_road::run(cfg)),
        "shard-grid" => Some(shard_grid::run(cfg)),
        _ => None,
    }
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sssp-grid", "serve-road", "shard-grid"];

/// Median of a non-empty slice of set-up times.
pub fn median(values: &[f64]) -> f64 {
    util::Sample::new(values.to_vec()).quantile(0.5)
}
