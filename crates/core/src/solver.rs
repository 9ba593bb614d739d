//! The unified SSSP solver API: one query plane for every algorithm.
//!
//! The paper frames Dijkstra, Bellman–Ford, ∆-stepping and radius stepping
//! as points on one spectrum — radii `Zero` / `Infinite` / `Constant(∆)`
//! recover each baseline (§3) — and this module gives the code the same
//! shape: every algorithm is an [`SsspSolver`] answering [`Query`]s,
//! constructed through one fluent [`SolverBuilder`].
//!
//! * [`Query`] / [`QueryResponse`] — the request/response pair: a
//!   [`QueryShape`] (`SingleSource`, the serving workhorse
//!   `PointToPoint`, the fan-out `OneToMany` — k goals for the price of
//!   one solve — and the distance-table `ManyToMany`, executed as
//!   parallel one-to-many rows) plus output options (`want_paths`,
//!   `want_trace`).
//! * [`SsspSolver::execute`] — the one way to run a solve, and the single
//!   entry point every solver implements: goal-bounded, scratch-reusing,
//!   with inline parent recording on the goal-bounded paths.
//! * [`Algorithm`] — the algorithm selector (`RadiusStepping { engine,
//!   radii }`, `Dijkstra`, `DeltaStepping { delta }`,
//!   `BellmanFord`, `Bfs`).
//! * [`SolverBuilder`] — picks the algorithm, optionally attaches
//!   (k, ρ)-preprocessing, and toggles tracing / parent recording.
//! * [`QueryBatch`] — the mixed-shape batch layer: deduplicates by
//!   canonical query key (goal sets sorted + deduplicated), fans the
//!   unique queries over the work-stealing pool with one pre-warmed
//!   [`SolverScratch`] per pool task, and **streams** responses as each
//!   solve completes ([`QueryBatch::stream`]; [`QueryBatch::execute`] is
//!   the drained, materialised form), aggregating the batch's
//!   [`crate::StepStats`] into a [`BatchStats`] (including the
//!   goal-bounded traffic counters).
//!
//! This module defines the trait, the configuration types, and the
//! radius-stepping solvers. The baseline adapters live in
//! `rs_baselines::solver` (which also supplies the builder's `build()`
//! through its `BuildSolver` extension trait, since the baseline
//! implementations sit above this crate in the dependency graph); the
//! `radius_stepping` facade's prelude re-exports the whole surface.
//!
//! ```
//! use rs_core::solver::{Algorithm, Query, Radii, SolverBuilder, SsspSolver};
//! use rs_core::SolverScratch;
//! use rs_graph::{gen, weights, WeightModel};
//!
//! let g = weights::reweight(&gen::grid2d(12, 12), WeightModel::paper_weighted(), 1);
//! let solver = SolverBuilder::new(&g)
//!     .algorithm(Algorithm::RadiusStepping {
//!         engine: Default::default(),
//!         radii: Radii::Constant(2_000),
//!     })
//!     .radius_stepping_solver_from_algorithm();
//! let mut scratch = SolverScratch::new();
//! let trip = solver.execute(&Query::point_to_point(0, 143).with_paths(), &mut scratch);
//! let route = trip.goal_path().expect("grid is connected");
//! assert_eq!((route[0], *route.last().unwrap()), (0, 143));
//! // The same scratch serves the next query warm.
//! let again = solver.execute(&Query::point_to_point(143, 0), &mut scratch);
//! assert!(again.stats().scratch_reused);
//! ```

use std::sync::Arc;

use rs_graph::{CsrGraph, Dist, VertexId, INF};

use crate::engine::{p2p, radius_stepping_with_scratch, EngineConfig, EngineKind, Goals};
use crate::landmarks::{Landmarks, DEFAULT_LANDMARKS};
use crate::preprocess::{PreprocessConfig, Preprocessed, ShortcutExpander};
use crate::radii::RadiiSpec;
use crate::scratch::SolverScratch;
use crate::stats::{SsspResult, StepStats};

/// What one request asks a solver to compute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// Exact distances from `source` to every vertex.
    SingleSource { source: VertexId },
    /// Distances from `source` until `goal` is settled — the dominant
    /// serving shape (point-to-point routing traffic). `dist[goal]` is
    /// exact; every other finite entry is a valid upper bound.
    PointToPoint { source: VertexId, goal: VertexId },
    /// Distances from `source` until *every* goal is settled — the fan-out
    /// routing shape: one solve answers `goals.len()` destinations, so k
    /// goals cost one solve instead of k point-to-point queries. Every
    /// `dist[goal]` is exact (and bit-identical to the per-goal
    /// point-to-point answer); other finite entries are upper bounds.
    /// Goal order and duplicates are observationally irrelevant (the solve
    /// runs on the sorted-deduplicated set; [`QueryBatch`] dedups by that
    /// canonical form).
    OneToMany { source: VertexId, goals: Vec<VertexId> },
    /// A distance table: one [`QueryShape::OneToMany`] row per source,
    /// fanned over the thread pool in parallel. `sources` must be
    /// non-empty; row `i` of the response is the solve from `sources[i]`.
    ManyToMany { sources: Vec<VertexId>, goals: Vec<VertexId> },
}

/// One request against an [`SsspSolver`]: a [`QueryShape`] plus output
/// options. `Eq` and `Hash` so [`QueryBatch`] can deduplicate by the
/// *full* query key (two requests are interchangeable only when shape —
/// up to goal-set order — *and* options agree).
///
/// ```
/// use rs_core::solver::Query;
/// let q = Query::point_to_point(3, 99).with_paths();
/// assert_eq!(q.source(), 3);
/// assert_eq!(q.goal(), Some(99));
/// assert!(q.want_paths && !q.want_trace);
/// let fan = Query::one_to_many(3, [99, 7, 99]);
/// assert_eq!(fan.goals(), &[99, 7, 99]);
/// assert_eq!(fan.canonical().goals(), &[7, 99]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// What to compute.
    pub shape: QueryShape,
    /// Return a shortest-path tree. On a goal-bounded query parents are
    /// recorded *inline* during relaxation (O(1) per relaxation, no
    /// all-edges post-pass; see [`crate::EngineConfig::record_parents`]),
    /// covering at least every goal path; on a `SingleSource` query the
    /// full tree is derived by the parallel post-pass.
    pub want_paths: bool,
    /// Record a per-step trace where the algorithm supports one.
    pub want_trace: bool,
}

impl Query {
    fn new(shape: QueryShape) -> Query {
        Query { shape, want_paths: false, want_trace: false }
    }

    /// A full single-source query.
    pub fn single_source(source: VertexId) -> Query {
        Query::new(QueryShape::SingleSource { source })
    }

    /// A goal-bounded point-to-point query.
    pub fn point_to_point(source: VertexId, goal: VertexId) -> Query {
        Query::new(QueryShape::PointToPoint { source, goal })
    }

    /// A one-to-many fan-out query: one solve, every goal settled.
    pub fn one_to_many(source: VertexId, goals: impl Into<Vec<VertexId>>) -> Query {
        Query::new(QueryShape::OneToMany { source, goals: goals.into() })
    }

    /// A many-to-many distance-table query (`sources` must be non-empty).
    pub fn many_to_many(
        sources: impl Into<Vec<VertexId>>,
        goals: impl Into<Vec<VertexId>>,
    ) -> Query {
        let sources = sources.into();
        assert!(!sources.is_empty(), "a many-to-many query needs at least one source");
        Query::new(QueryShape::ManyToMany { sources, goals: goals.into() })
    }

    /// Requests path extraction on the response.
    pub fn with_paths(mut self) -> Query {
        self.want_paths = true;
        self
    }

    /// Requests a per-step trace.
    pub fn with_trace(mut self) -> Query {
        self.want_trace = true;
        self
    }

    /// The query's (first) source vertex; see [`Query::sources`] for the
    /// full list of a many-to-many query.
    pub fn source(&self) -> VertexId {
        self.sources()[0]
    }

    /// All source vertices: one per response row.
    pub fn sources(&self) -> &[VertexId] {
        match &self.shape {
            QueryShape::SingleSource { source }
            | QueryShape::PointToPoint { source, .. }
            | QueryShape::OneToMany { source, .. } => std::slice::from_ref(source),
            QueryShape::ManyToMany { sources, .. } => sources,
        }
    }

    /// The goal vertices, in request order (empty for `SingleSource`).
    pub fn goals(&self) -> &[VertexId] {
        match &self.shape {
            QueryShape::SingleSource { .. } => &[],
            QueryShape::PointToPoint { goal, .. } => std::slice::from_ref(goal),
            QueryShape::OneToMany { goals, .. } | QueryShape::ManyToMany { goals, .. } => goals,
        }
    }

    /// The goal vertex of a point-to-point query (`None` for every other
    /// shape — multi-goal shapes answer through [`Query::goals`]).
    pub fn goal(&self) -> Option<VertexId> {
        match self.shape {
            QueryShape::PointToPoint { goal, .. } => Some(goal),
            _ => None,
        }
    }

    /// True for the point-to-point shape.
    pub fn is_point_to_point(&self) -> bool {
        matches!(self.shape, QueryShape::PointToPoint { .. })
    }

    /// True for goal-bounded shapes (everything but `SingleSource`).
    pub fn is_goal_bounded(&self) -> bool {
        !matches!(self.shape, QueryShape::SingleSource { .. })
    }

    /// True for the many-to-many table shape.
    pub fn is_many_to_many(&self) -> bool {
        matches!(self.shape, QueryShape::ManyToMany { .. })
    }

    /// Number of rows the response will carry (1 for single-solve shapes).
    pub fn rows(&self) -> usize {
        self.sources().len()
    }

    /// The sorted-deduplicated goal set — what a solve actually runs on.
    pub fn canonical_goals(&self) -> Vec<VertexId> {
        let mut goals = self.goals().to_vec();
        goals.sort_unstable();
        goals.dedup();
        goals
    }

    /// Checks every source and goal id against `g`'s vertex count. The
    /// first out-of-range id (sources before goals) is the error. Solving
    /// a query that fails this panics, so a server runs it at admission.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), InvalidQuery> {
        let n = g.num_vertices();
        let first_bad = |role, ids: &[VertexId]| {
            ids.iter().find(|&&v| v as usize >= n).map(|&vertex| InvalidQuery {
                role,
                vertex,
                num_vertices: n,
            })
        };
        match first_bad("source", self.sources()).or_else(|| first_bad("goal", self.goals())) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// The canonical dedup key: goal lists sorted and deduplicated (goal
    /// order never affects a response's content — distances are read from
    /// the row's distance array — so permuted goal lists must share one
    /// [`QueryBatch`] dedup slot). Sources keep their order: it defines
    /// the response's row order.
    pub fn canonical(&self) -> Query {
        let shape = match &self.shape {
            QueryShape::OneToMany { source, .. } => {
                QueryShape::OneToMany { source: *source, goals: self.canonical_goals() }
            }
            QueryShape::ManyToMany { sources, .. } => {
                QueryShape::ManyToMany { sources: sources.clone(), goals: self.canonical_goals() }
            }
            other => other.clone(),
        };
        Query { shape, want_paths: self.want_paths, want_trace: self.want_trace }
    }
}

/// A query naming a vertex the graph does not have; see
/// [`Query::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidQuery {
    /// `"source"` or `"goal"`.
    pub role: &'static str,
    /// The out-of-range vertex id.
    pub vertex: VertexId,
    /// The graph's vertex count.
    pub num_vertices: usize,
}

impl std::fmt::Display for InvalidQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} out of range (graph has {} vertices)",
            self.role, self.vertex, self.num_vertices
        )
    }
}

impl std::error::Error for InvalidQuery {}

/// The engine-facing goal bound for one solve of `query` (`OneToMany`
/// goals are canonicalised into `buf` and borrowed from there). Panics on
/// `ManyToMany` — table queries dispatch through
/// [`execute_many_to_many`] before reaching a single solve.
pub fn solve_goals<'q>(query: &'q Query, buf: &'q mut Vec<VertexId>) -> Goals<'q> {
    match &query.shape {
        QueryShape::SingleSource { .. } => Goals::None,
        QueryShape::PointToPoint { goal, .. } => Goals::One(*goal),
        QueryShape::OneToMany { goals, .. } => {
            buf.clear();
            buf.extend_from_slice(goals);
            buf.sort_unstable();
            buf.dedup();
            Goals::Many(buf)
        }
        QueryShape::ManyToMany { .. } => {
            panic!("ManyToMany is executed row-wise via execute_many_to_many")
        }
    }
}

/// Executes a [`QueryShape::ManyToMany`] query as parallel
/// [`QueryShape::OneToMany`] rows over the work-stealing pool — the shared
/// table path behind every solver's `execute`. Each pool task reuses one
/// pre-warmed [`SolverScratch`] across the rows it claims
/// ([`rs_par::worker_map`] load balancing), so an r-source table performs
/// exactly r solves. Per-task scratches come from the process-wide
/// [`crate::scratch::global_scratch_pool`], so *repeated* tables stop
/// creating (and re-allocating) scratches once the pool has seen the peak
/// task concurrency — the steady state a serving workload lives in.
pub fn execute_many_to_many<S: SsspSolver + ?Sized>(solver: &S, query: &Query) -> QueryResponse {
    execute_many_to_many_pooled(solver, query, crate::scratch::global_scratch_pool())
}

/// [`execute_many_to_many`] drawing per-task scratches from an explicit
/// [`crate::scratch::ScratchPool`] — the testable seam (callers wanting
/// isolation from the process-wide pool, e.g. to assert creation counts,
/// pass their own).
pub fn execute_many_to_many_pooled<S: SsspSolver + ?Sized>(
    solver: &S,
    query: &Query,
    pool: &crate::scratch::ScratchPool,
) -> QueryResponse {
    let QueryShape::ManyToMany { sources, goals } = &query.shape else {
        panic!("execute_many_to_many on {:?}", query.shape)
    };
    let rows: Vec<SsspResult> = rs_par::worker_map(
        sources.len(),
        || {
            let mut scratch = pool.checkout();
            solver.warm_scratch(&mut scratch);
            scratch
        },
        |scratch, i| {
            let row = Query {
                shape: QueryShape::OneToMany { source: sources[i], goals: goals.clone() },
                want_paths: query.want_paths,
                want_trace: query.want_trace,
            };
            solver.execute(&row, scratch).into_result()
        },
    );
    QueryResponse::table(query.clone(), rows)
}

/// What [`SsspSolver::execute`] returns: the executed [`Query`] (so batch
/// consumers can correlate responses) plus one [`crate::SsspResult`] row
/// per query source (a single row for every shape but `ManyToMany`), with
/// goal-aware conveniences on top.
///
/// Responses from a preprocessed solver carry the preprocessing's
/// [`ShortcutExpander`], so every extracted path is an exact *input-graph*
/// route: shortcut hops are unrolled into their underlying input edges at
/// extraction time, O(log ρ) per output hop.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The request this response answers.
    pub query: Query,
    /// One result per query source, in [`Query::sources`] order.
    rows: Vec<SsspResult>,
    /// Shortcut → input-edge expansion (preprocessed solvers only).
    expander: Option<Arc<ShortcutExpander>>,
}

impl QueryResponse {
    /// A single-row response (every shape but `ManyToMany`).
    pub fn single(query: Query, result: SsspResult) -> QueryResponse {
        QueryResponse { query, rows: vec![result], expander: None }
    }

    /// A multi-row (`ManyToMany`) response; `rows[i]` answers
    /// `query.sources()[i]`.
    pub fn table(query: Query, rows: Vec<SsspResult>) -> QueryResponse {
        debug_assert_eq!(rows.len(), query.rows());
        QueryResponse { query, rows, expander: None }
    }

    /// Attaches a shortcut expansion table (preprocessed solvers call this
    /// so extracted paths ride input-graph edges only).
    pub fn with_expander(mut self, expander: Option<Arc<ShortcutExpander>>) -> QueryResponse {
        self.expander = expander;
        self
    }

    /// The primary (first-row) result — the only row for every shape but
    /// `ManyToMany`.
    pub fn result(&self) -> &SsspResult {
        &self.rows[0]
    }

    /// All result rows, in [`Query::sources`] order.
    pub fn rows(&self) -> &[SsspResult] {
        &self.rows
    }

    /// The primary row's distance array (exact everywhere for
    /// `SingleSource`; exact at every goal and an upper bound elsewhere
    /// for the goal-bounded shapes).
    pub fn dist(&self) -> &[Dist] {
        &self.rows[0].dist
    }

    /// The primary row's execution counters (sum over [`QueryResponse::rows`]
    /// yourself for a table's aggregate).
    pub fn stats(&self) -> &StepStats {
        &self.rows[0].stats
    }

    /// The goal's exact distance, for a reachable `PointToPoint` query
    /// (`None` for other shapes and unreachable goals; multi-goal shapes
    /// answer through [`QueryResponse::goal_distances`]).
    pub fn goal_distance(&self) -> Option<Dist> {
        let goal = self.query.goal()?;
        let d = self.rows[0].dist[goal as usize];
        (d != INF).then_some(d)
    }

    /// Per-goal exact distances of row `row`, in the *requested* goal
    /// order (`None` per unreachable goal). Empty for `SingleSource`.
    pub fn goal_distances_in_row(&self, row: usize) -> Vec<Option<Dist>> {
        let dist = &self.rows[row].dist;
        self.query
            .goals()
            .iter()
            .map(|&g| {
                let d = dist[g as usize];
                (d != INF).then_some(d)
            })
            .collect()
    }

    /// Per-goal exact distances of the primary row (see
    /// [`QueryResponse::goal_distances_in_row`]).
    pub fn goal_distances(&self) -> Vec<Option<Dist>> {
        self.goal_distances_in_row(0)
    }

    /// The full distance table: `table()[i][j]` = distance from
    /// `sources()[i]` to `goals()[j]` (`None` if unreachable). One row for
    /// single-solve shapes, `sources().len()` rows for `ManyToMany`.
    pub fn distance_table(&self) -> Vec<Vec<Option<Dist>>> {
        (0..self.rows.len()).map(|r| self.goal_distances_in_row(r)).collect()
    }

    /// Shortcut-expands a raw extracted path into input-graph hops (a
    /// pass-through when the solver had no preprocessing attached).
    fn expand(&self, row: usize, path: Option<Vec<VertexId>>) -> Option<Vec<VertexId>> {
        let path = path?;
        Some(match &self.expander {
            None => path,
            Some(e) => e.expand_path(&path, &self.rows[row].dist),
        })
    }

    /// On-demand extraction of the `source → goal` path of a
    /// `PointToPoint` query from the recorded parents (requires
    /// `want_paths`; `None` for other shapes and unreachable goals). Costs
    /// O(path length).
    ///
    /// The path's edges are edges of the *input* graph: for a solver built
    /// with preprocessing, shortcut hops are expanded into their
    /// underlying input edges (same total distance) before the path is
    /// returned. Multi-goal shapes extract through
    /// [`QueryResponse::goal_path_to`] / [`QueryResponse::goal_paths`].
    pub fn goal_path(&self) -> Option<Vec<VertexId>> {
        self.goal_path_to(self.query.goal()?)
    }

    /// The primary row's path to one goal of a goal-bounded query
    /// (requires `want_paths`; `None` for unreachable goals). Input-graph
    /// exact, like [`QueryResponse::goal_path`].
    pub fn goal_path_to(&self, goal: VertexId) -> Option<Vec<VertexId>> {
        self.path_in_row(0, goal)
    }

    /// Per-goal paths of the primary row, in requested goal order.
    pub fn goal_paths(&self) -> Vec<Option<Vec<VertexId>>> {
        self.query.goals().iter().map(|&g| self.goal_path_to(g)).collect()
    }

    /// Path from `sources()[row]` to `goal` (the table shape's
    /// per-cell route; requires `want_paths`). Input-graph exact.
    pub fn path_in_row(&self, row: usize, goal: VertexId) -> Option<Vec<VertexId>> {
        self.expand(row, self.rows[row].extract_path(goal))
    }

    /// On-demand extraction of the path to any vertex the primary row
    /// settled (requires `want_paths`; goal-bounded responses cover at
    /// least every goal path). Input-graph exact, like
    /// [`QueryResponse::goal_path`].
    pub fn extract_path(&self, t: VertexId) -> Option<Vec<VertexId>> {
        self.expand(0, self.rows[0].extract_path(t))
    }

    /// Unwraps into the primary row's [`SsspResult`]. Shortcut hops in its
    /// parents stay unexpanded: extract paths through
    /// [`QueryResponse::extract_path`] while the response is whole.
    pub fn into_result(self) -> SsspResult {
        self.rows.into_iter().next().expect("a response has at least one row")
    }
}

/// A single-source shortest-path solver bound to one graph.
///
/// Implementations are interchangeable: on the same graph every solver
/// produces identical `dist` arrays (asserted by the cross-algorithm
/// conformance tests). They differ only in their counters and costs.
///
/// The one computation method is [`SsspSolver::execute`]: every query
/// shape runs through it, and [`QueryBatch`] fans it over the pool.
pub trait SsspSolver: Sync {
    /// Human-readable algorithm name (for reports and error messages).
    fn name(&self) -> String;

    /// The graph distances refer to. For preprocessed solvers this is the
    /// shortcut-augmented (k, ρ)-graph — distances are identical to the
    /// input graph's by construction.
    fn graph(&self) -> &CsrGraph;

    /// Answers `query` on caller-provided [`SolverScratch`] state — the
    /// single entry point every batch and serving layer calls.
    ///
    /// * `SingleSource` queries produce exact distances everywhere.
    /// * `PointToPoint` queries stop as soon as the goal is settled
    ///   (`dist[goal]` exact, everything else an upper bound or `INF`),
    ///   and with `want_paths` record parents inline during relaxation —
    ///   no all-edges post-pass on the serving path.
    /// * `OneToMany` queries run **one** solve that stops once every goal
    ///   is settled: per-goal distances and paths are bit-identical to
    ///   the per-goal `PointToPoint` answers at a fraction of the solves.
    /// * `ManyToMany` queries fan their rows over the pool (the caller's
    ///   scratch is bypassed; each pool task warms its own) and return
    ///   one result row per source.
    /// * After the first (cold) query on a scratch, no working distance
    ///   array, bitset, heap or bucket queue is allocated
    ///   again ([`crate::StepStats::scratch_reused`]); pre-warm with
    ///   [`SsspSolver::warm_scratch`] to make even the first query warm.
    ///
    /// Results are bit-identical across scratches (asserted by the
    /// conformance suite): which scratch served a query is not observable
    /// beyond `scratch_reused`.
    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse;

    /// Pre-sizes `scratch` for this solver so a latency-critical *first*
    /// query skips the cold allocation spike. The default pre-sizes the
    /// shared working structures for [`SsspSolver::graph`]; solvers with
    /// private structures (Dijkstra's heap, ∆-stepping's bucket queue)
    /// override it to warm those too. [`QueryBatch::execute`] calls this
    /// when creating per-worker scratches.
    fn warm_scratch(&self, scratch: &mut SolverScratch) {
        scratch.warm_up(self.graph());
    }
}

/// A prepared mixed-shape batch: the dedup layer that runs many queries
/// through [`SsspSolver::execute`], reusable across solvers, accepting any
/// mix of [`Query`] values.
///
/// Construction groups the requested queries into their unique set
/// (first-occurrence order, keyed by the *full* query — shape and output
/// options) and remembers, for every requested slot, which unique
/// execution answers it. [`QueryBatch::execute`] then fans the unique
/// queries over the pool via [`rs_par::worker_map`] — one lazily-created,
/// pre-warmed [`SolverScratch`] per pool task, dynamic load balancing via
/// a shared work counter — and expands the answers back to request order.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    /// The requested queries, in request order.
    queries: Vec<Query>,
    /// Unique queries, in first-occurrence order.
    unique: Vec<Query>,
    /// `rep[i]` = index into `unique` answering `queries[i]`.
    rep: Vec<usize>,
}

impl QueryBatch {
    /// Plans a batch over `queries` (duplicates allowed, order preserved).
    /// Dedup keys are *canonical* queries ([`Query::canonical`]): goal
    /// lists are sorted and deduplicated before keying, so one-to-many
    /// requests with permuted goal lists share a dedup slot (their
    /// responses are interchangeable — distances are read from the row's
    /// distance array, never from goal positions).
    pub fn new(queries: &[Query]) -> Self {
        let mut first_slot: std::collections::HashMap<Query, usize> =
            std::collections::HashMap::with_capacity(queries.len());
        let mut unique = Vec::with_capacity(queries.len());
        let mut rep = Vec::with_capacity(queries.len());
        for q in queries {
            let slot = *first_slot.entry(q.canonical()).or_insert_with(|| {
                unique.push(q.clone());
                unique.len() - 1
            });
            rep.push(slot);
        }
        QueryBatch { queries: queries.to_vec(), unique, rep }
    }

    /// Plans an all-targets batch: one `SingleSource` query per entry —
    /// the paper's multi-source workload (§5.4).
    pub fn from_sources(sources: &[VertexId]) -> Self {
        let queries: Vec<Query> = sources.iter().map(|&s| Query::single_source(s)).collect();
        QueryBatch::new(&queries)
    }

    /// Number of requested queries (including duplicates).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch requests nothing.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The requested queries, in request order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The deduplicated queries actually executed.
    pub fn unique_queries(&self) -> &[Query] {
        &self.unique
    }

    /// Requested queries answered by cloning another slot's response.
    pub fn deduplicated(&self) -> usize {
        self.queries.len() - self.unique.len()
    }

    /// Runs the batch on `solver` and materialises every response: a thin
    /// wrapper over [`QueryBatch::stream`] that collects deliveries back
    /// into request order. Responses are bit-identical to the streamed
    /// ones (same executions — `execute` *is* the stream, drained).
    pub fn execute<S: SsspSolver + ?Sized>(&self, solver: &S) -> BatchOutcome {
        let mut responses: Vec<Option<QueryResponse>> = vec![None; self.queries.len()];
        let stats = self.stream(solver, |slot, response| {
            debug_assert!(responses[slot].is_none(), "each slot delivered exactly once");
            responses[slot] = Some(response);
        });
        let responses = responses.into_iter().map(|r| r.expect("every slot delivered")).collect();
        BatchOutcome { responses, stats }
    }

    /// Runs the batch on `solver`, delivering responses **as each solve
    /// completes** instead of materialising the whole batch: a slow query
    /// no longer blocks the fast ones, so a server can pipeline replies.
    ///
    /// Unique queries fan out over the pool with per-task pre-warmed
    /// scratch reuse ([`SsspSolver::warm_scratch`] — first queries skip
    /// the cold allocation spike); the caller's thread drains completions
    /// and invokes `sink(request_slot, response)` once per *requested*
    /// query. Duplicates are delivered (as clones, with their own
    /// requested `query` key) the moment their unique execution lands.
    /// Delivery order is completion order — use the slot index to
    /// reorder when request order matters, or use [`QueryBatch::execute`].
    /// Returns the aggregated [`BatchStats`] once every response is
    /// delivered.
    ///
    /// Responses flow through a **bounded** channel sized to the pool
    /// (see [`QueryBatch::default_stream_capacity`]): a slow sink applies
    /// backpressure to the solver workers instead of letting finished
    /// responses pile up unboundedly. Use [`QueryBatch::stream_bounded`]
    /// to pick the capacity explicitly.
    pub fn stream<S, F>(&self, solver: &S, sink: F) -> BatchStats
    where
        S: SsspSolver + ?Sized,
        F: FnMut(usize, QueryResponse),
    {
        self.stream_bounded(solver, Self::default_stream_capacity(), sink)
    }

    /// Default response-channel capacity for [`QueryBatch::stream`]: two
    /// finished responses per pool worker (and at least 4), enough to keep
    /// every worker busy while the sink drains without ever holding more
    /// than `O(threads)` responses in flight.
    pub fn default_stream_capacity() -> usize {
        (2 * rs_par::num_threads()).max(4)
    }

    /// [`QueryBatch::stream`] with an explicit response-channel bound.
    ///
    /// At most `capacity` finished-but-undelivered responses are buffered;
    /// beyond that, solver workers **block in `send`** (one completed
    /// response held per blocked worker) until the sink catches up, so
    /// peak memory for a batch of any length is `O(capacity + threads)`
    /// responses rather than `O(batch)`. This cannot deadlock: the
    /// caller's thread does nothing but drain the channel, and the
    /// producers need no resource the sink holds.
    ///
    /// `capacity` is clamped to at least 1 (a rendezvous of 0 would serialise
    /// workers against the sink for no benefit).
    pub fn stream_bounded<S, F>(&self, solver: &S, capacity: usize, mut sink: F) -> BatchStats
    where
        S: SsspSolver + ?Sized,
        F: FnMut(usize, QueryResponse),
    {
        let mut stats = BatchStats {
            solves: self.queries.len(),
            unique_solves: self.unique.len(),
            ..Default::default()
        };
        if self.queries.is_empty() {
            return stats;
        }
        // Request slots answered by each unique execution.
        let mut slots_of: Vec<Vec<usize>> = vec![Vec::new(); self.unique.len()];
        for (slot, &u) in self.rep.iter().enumerate() {
            slots_of[u].push(slot);
        }

        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, QueryResponse)>(capacity.max(1));
        std::thread::scope(|scope| {
            // The producer fans the unique queries over the pool from a
            // scoped thread; the calling thread stays free to drain the
            // channel, so deliveries interleave with execution at every
            // pool size (worker_map_sink streams even its sequential
            // fallback item-by-item).
            let producer = scope.spawn(move || {
                rs_par::worker_map_sink(
                    self.unique.len(),
                    || {
                        let mut scratch = SolverScratch::new();
                        solver.warm_scratch(&mut scratch);
                        scratch
                    },
                    |scratch, i| solver.execute(&self.unique[i], scratch),
                    |i, response| {
                        // A dropped receiver just stops deliveries; the
                        // remaining solves complete and are discarded.
                        let _ = tx.send((i, response));
                    },
                );
            });
            for (u, response) in rx.iter() {
                stats.absorb_unique(&response);
                // Clone only for true duplicates: the last slot (every
                // unique has at least one) takes the response by move, so
                // a duplicate-free batch never copies a dist array.
                let (&last, dups) = slots_of[u].split_last().expect("unique from ≥1 request");
                for &slot in dups {
                    let mut delivered = response.clone();
                    delivered.query = self.queries[slot].clone();
                    stats.absorb_delivered(&delivered);
                    sink(slot, delivered);
                }
                let mut delivered = response;
                delivered.query = self.queries[last].clone();
                stats.absorb_delivered(&delivered);
                sink(last, delivered);
            }
            producer.join().expect("batch producer panicked");
        });
        stats
    }
}

/// What [`QueryBatch::execute`] returns: per-query responses (request
/// order) plus the batch-level aggregates.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One response per requested query, in request order (duplicates are
    /// clones of their unique execution).
    pub responses: Vec<QueryResponse>,
    /// Aggregated counters for the whole batch.
    pub stats: BatchStats,
}

/// Per-batch aggregate of the queries' [`crate::StepStats`].
///
/// Step/substep/relaxation totals are summed over the *delivered*
/// responses (a deduplicated query counts once per request, so means stay
/// faithful to the requested workload); the scratch and `executed_solves`
/// counters describe the *unique* executions' physical solve rows — the
/// allocation and work events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requested queries (including duplicates).
    pub solves: usize,
    /// Unique queries actually executed.
    pub unique_solves: usize,
    /// Physical solve rows run for the unique executions: 1 per
    /// single-solve query — a one-to-many query with k goals still counts
    /// exactly 1 — and `sources.len()` per many-to-many table.
    pub executed_solves: usize,
    /// Physical solve rows that ran entirely on pre-allocated scratch
    /// state.
    pub scratch_reuses: usize,
    /// Physical solve rows that had to allocate (at most one per pool
    /// task; zero when [`SsspSolver::warm_scratch`] covers the algorithm).
    pub cold_solves: usize,
    /// Delivered point-to-point responses.
    pub point_to_point: usize,
    /// Delivered one-to-many responses.
    pub one_to_many: usize,
    /// Delivered many-to-many responses.
    pub many_to_many: usize,
    /// Goal lookups across delivered goal-bounded responses (a
    /// point-to-point counts 1, a one-to-many its goal-list length, a
    /// table rows × goals).
    pub goals_requested: usize,
    /// Of [`BatchStats::goals_requested`], how many were reachable.
    pub goals_reached: usize,
    /// Total steps over delivered responses (all rows).
    pub steps: usize,
    /// Total substeps over delivered responses.
    pub substeps: usize,
    /// Largest `max_substeps_in_step` over delivered responses.
    pub max_substeps_in_step: usize,
    /// Total relaxations over delivered responses.
    pub relaxations: u64,
    /// Total edges scanned during relaxation over delivered responses
    /// (see [`crate::StepStats::relaxed_edges`]).
    pub relaxed_edges: u64,
    /// Total settled vertices over delivered responses.
    pub settled: usize,
}

impl BatchStats {
    /// Folds one *unique* execution's physical counters in (once per
    /// unique query, regardless of how many request slots it answers).
    /// Public so serving layers that execute queries outside
    /// [`QueryBatch`] (e.g. on a cache miss) can keep one stats ledger.
    pub fn absorb_unique(&mut self, response: &QueryResponse) {
        for row in response.rows() {
            self.executed_solves += 1;
            if row.stats.scratch_reused {
                self.scratch_reuses += 1;
            } else {
                self.cold_solves += 1;
            }
        }
    }

    /// Folds one *delivered* response's workload counters in (once per
    /// request slot; duplicates re-count, keeping means faithful to the
    /// requested traffic). Public for the same serving layers as
    /// [`BatchStats::absorb_unique`]; cache hits are delivered responses
    /// that were never uniquely executed.
    pub fn absorb_delivered(&mut self, response: &QueryResponse) {
        for row in response.rows() {
            let s = &row.stats;
            self.steps += s.steps;
            self.substeps += s.substeps;
            self.max_substeps_in_step = self.max_substeps_in_step.max(s.max_substeps_in_step);
            self.relaxations += s.relaxations;
            self.relaxed_edges += s.relaxed_edges;
            self.settled += s.settled;
        }
        match &response.query.shape {
            QueryShape::SingleSource { .. } => {}
            QueryShape::PointToPoint { .. } => self.point_to_point += 1,
            QueryShape::OneToMany { .. } => self.one_to_many += 1,
            QueryShape::ManyToMany { .. } => self.many_to_many += 1,
        }
        let goals = response.query.goals();
        for row in response.rows() {
            self.goals_requested += goals.len();
            self.goals_reached += goals.iter().filter(|&&g| row.dist[g as usize] != INF).count();
        }
    }

    /// Mean steps per requested query.
    pub fn mean_steps(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.steps as f64 / self.solves as f64
        }
    }

    /// Mean physical solves per requested query — the dedup + fan-out
    /// economy metric (a one-to-many query with k goals contributes one
    /// solve, so a pure fan-out batch reads well below the k it replaces).
    pub fn mean_solves_per_query(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.executed_solves as f64 / self.solves as f64
        }
    }

    /// Folds `other` into `self` counter-wise — exact, as every field is a
    /// sum except `max_substeps_in_step` (a max). Serving layers use this
    /// to roll per-lane ledgers into a server-wide total.
    pub fn merge(&mut self, other: &BatchStats) {
        self.solves += other.solves;
        self.unique_solves += other.unique_solves;
        self.executed_solves += other.executed_solves;
        self.scratch_reuses += other.scratch_reuses;
        self.cold_solves += other.cold_solves;
        self.point_to_point += other.point_to_point;
        self.one_to_many += other.one_to_many;
        self.many_to_many += other.many_to_many;
        self.goals_requested += other.goals_requested;
        self.goals_reached += other.goals_reached;
        self.steps += other.steps;
        self.substeps += other.substeps;
        self.max_substeps_in_step = self.max_substeps_in_step.max(other.max_substeps_in_step);
        self.relaxations += other.relaxations;
        self.relaxed_edges += other.relaxed_edges;
        self.settled += other.settled;
    }
}

/// Owned radius assignment (the builder cannot borrow like
/// [`RadiiSpec`] does).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Radii {
    /// `r ≡ 0`: Dijkstra-like (one distance level per step).
    #[default]
    Zero,
    /// `r ≡ ∞`: Bellman–Ford-like (one step, substeps to fixpoint).
    Infinite,
    /// `r ≡ ∆`: ∆-stepping-like.
    Constant(Dist),
    /// Per-vertex radii, e.g. `r_ρ(v)` from preprocessing.
    PerVertex(Vec<Dist>),
}

impl Radii {
    /// Borrowing view for the engines.
    pub fn as_spec(&self) -> RadiiSpec<'_> {
        match self {
            Radii::Zero => RadiiSpec::Zero,
            Radii::Infinite => RadiiSpec::Infinite,
            Radii::Constant(d) => RadiiSpec::Constant(*d),
            Radii::PerVertex(r) => RadiiSpec::PerVertex(r),
        }
    }
}

/// Algorithm selector: the five families of the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// Radius stepping (Algorithm 1/2) with an engine and radii. Attach
    /// [`SolverBuilder::preprocess`] to derive `r_ρ(v)` radii and shortcut
    /// edges instead of passing radii here.
    RadiusStepping { engine: EngineKind, radii: Radii },
    /// Sequential Dijkstra on a 4-ary decrease-key heap.
    Dijkstra,
    /// Meyer–Sanders ∆-stepping with bucket width ∆.
    DeltaStepping { delta: Dist },
    /// Bellman–Ford as the paper defines it (§3): the frontier engine at
    /// `r ≡ ∞`, one step whose substeps run to a fixpoint. Radii stay
    /// infinite even with preprocessing attached (the shortcuts still
    /// apply).
    BellmanFord,
    /// BFS as the unweighted engine at `r ≡ 0` (§3.4): one level per step.
    /// Unit-weight graphs only, so no preprocessing (its shortcuts carry
    /// weights).
    Bfs,
}

impl Default for Algorithm {
    fn default() -> Self {
        Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii: Radii::Zero }
    }
}

/// How a solver answers the [`QueryShape::PointToPoint`] serving shape.
///
/// Every mode returns the same goal distance bit-for-bit (asserted by the
/// p2p conformance suite); they differ only in how many edges they scan
/// ([`crate::StepStats::relaxed_edges`]) and which non-goal entries carry
/// finite upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum P2pMode {
    /// The goal-bounded forward solve (the engine/baseline early-exit
    /// path). The default: bit-identical by construction with one-to-many
    /// solves over the same goal set.
    #[default]
    Forward,
    /// Bidirectional meet-in-the-middle search over the graph and its
    /// cached [`rs_graph::CsrGraph::transpose`]
    /// ([`crate::engine::p2p::bidirectional`]).
    Bidirectional,
    /// Goal-directed ALT search ([`crate::engine::p2p::goal_directed`]).
    /// Solvers built with this mode elect a [`crate::Landmarks`] table
    /// once, at construction time (see [`P2pKernel::resolve`]).
    GoalDirected,
}

/// The point-to-point kernel a solver runs, resolved from its [`P2pMode`]
/// once at build time and consulted by every solver's `execute` and
/// `warm_scratch`. `GoalDirected` owns its landmark table, so a
/// goal-directed solver can never be without one.
#[derive(Debug, Clone)]
pub enum P2pKernel {
    /// The solver's own goal-bounded forward solve.
    Forward,
    /// [`crate::engine::p2p::bidirectional`].
    Bidirectional,
    /// [`crate::engine::p2p::goal_directed`] over this landmark table.
    GoalDirected(Arc<Landmarks>),
}

impl P2pKernel {
    /// Resolves `mode` for `g`, electing [`DEFAULT_LANDMARKS`] landmarks
    /// (as many sequential Dijkstras) only for `GoalDirected`.
    pub fn resolve(mode: P2pMode, g: &CsrGraph) -> P2pKernel {
        match mode {
            P2pMode::Forward => P2pKernel::Forward,
            P2pMode::Bidirectional => P2pKernel::Bidirectional,
            P2pMode::GoalDirected => {
                P2pKernel::GoalDirected(Arc::new(Landmarks::build(g, DEFAULT_LANDMARKS)))
            }
        }
    }

    /// Answers `query` with the resolved kernel, or `None` — for `Forward`
    /// and for every shape other than point-to-point — when the solver's
    /// forward solve should serve it.
    pub fn run(
        &self,
        g: &CsrGraph,
        query: &Query,
        want_paths: bool,
        scratch: &mut SolverScratch,
    ) -> Option<SsspResult> {
        let QueryShape::PointToPoint { source, goal } = query.shape else { return None };
        match self {
            P2pKernel::Forward => None,
            P2pKernel::Bidirectional => {
                Some(p2p::bidirectional(g, source, goal, want_paths, scratch))
            }
            P2pKernel::GoalDirected(lm) => {
                Some(p2p::goal_directed(g, source, goal, lm, want_paths, scratch))
            }
        }
    }

    /// Pre-sizes the scratch structures the kernel draws from.
    pub fn warm(&self, g: &CsrGraph, scratch: &mut SolverScratch) {
        let n = g.num_vertices();
        match self {
            P2pKernel::Forward => {}
            P2pKernel::Bidirectional => {
                scratch.warm_up_bidir(g);
                scratch.warm_heap(n);
                scratch.warm_heap_rev(n);
            }
            P2pKernel::GoalDirected(_) => {
                scratch.warm_up(g);
                scratch.warm_heap(n);
            }
        }
    }
}

/// Cross-algorithm output options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverConfig {
    /// Record a per-step trace where the algorithm supports it.
    pub trace: bool,
    /// Attach the shortest-path tree (`SsspResult::parent`) to results.
    pub record_parents: bool,
    /// Point-to-point execution strategy (see [`P2pMode`]).
    pub p2p_mode: P2pMode,
}

impl SolverConfig {
    /// Whether `query` should come back with a shortest-path tree: the
    /// query's own option ORed with the builder-level toggle.
    pub fn wants_paths(&self, query: &Query) -> bool {
        self.record_parents || query.want_paths
    }

    /// Whether `query` should record a trace (same OR).
    pub fn wants_trace(&self, query: &Query) -> bool {
        self.trace || query.want_trace
    }

    /// Attaches the shortest-path tree to `result` if `query` asked for
    /// one and the solve did not already record it inline: goal-bounded
    /// queries derive exactly the goal paths (no all-edges post-pass,
    /// one backwards walk per goal), single-source queries the full tree.
    pub fn finish_paths(&self, g: &CsrGraph, query: &Query, mut result: SsspResult) -> SsspResult {
        if self.wants_paths(query) && result.parent.is_none() {
            result.parent = Some(if query.is_goal_bounded() {
                crate::stats::goals_path_parents(g, &result.dist, query.goals())
            } else {
                crate::stats::derive_parents(g, &result.dist)
            });
        }
        result
    }
}

/// The graph a solver runs on: borrowed from the caller, or owned when
/// preprocessing replaced it with the shortcut-augmented (k, ρ)-graph.
#[derive(Debug, Clone)]
pub enum SolverGraph<'g> {
    Borrowed(&'g CsrGraph),
    Owned(CsrGraph),
}

impl std::ops::Deref for SolverGraph<'_> {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        match self {
            SolverGraph::Borrowed(g) => g,
            SolverGraph::Owned(g) => g,
        }
    }
}

/// Fluent construction of any [`SsspSolver`].
///
/// ```
/// use rs_core::solver::{Algorithm, Query, Radii, SolverBuilder, SsspSolver};
/// use rs_core::{EngineKind, PreprocessConfig, SolverScratch};
/// use rs_graph::{gen, weights, WeightModel};
///
/// let g = weights::reweight(&gen::grid2d(10, 10), WeightModel::paper_weighted(), 7);
/// let solver = SolverBuilder::new(&g)
///     .algorithm(Algorithm::RadiusStepping {
///         engine: EngineKind::Frontier,
///         radii: Radii::Zero, // replaced by r_rho(v) below
///     })
///     .preprocess(PreprocessConfig::new(1, 16))
///     .trace(true)
///     .radius_stepping_solver_from_algorithm(); // or `.build()` via rs_baselines
/// let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
/// assert_eq!(out.dist()[0], 0);
/// ```
#[derive(Debug, Clone)]
pub struct SolverBuilder<'g> {
    graph: &'g CsrGraph,
    algorithm: Algorithm,
    preprocess: Option<PreprocessConfig>,
    preprocess_cache: Option<std::path::PathBuf>,
    config: SolverConfig,
}

impl<'g> SolverBuilder<'g> {
    /// Starts a builder for `graph` (default algorithm: frontier-engine
    /// radius stepping with zero radii, i.e. batched Dijkstra).
    pub fn new(graph: &'g CsrGraph) -> Self {
        SolverBuilder {
            graph,
            algorithm: Algorithm::default(),
            preprocess: None,
            preprocess_cache: None,
            config: SolverConfig::default(),
        }
    }

    /// Selects the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Attaches (k, ρ)-preprocessing: at build time the graph is replaced
    /// by the shortcut-augmented (k, ρ)-graph (distances unchanged) and —
    /// for radius stepping — the radii by `r_ρ(v)`.
    pub fn preprocess(mut self, cfg: PreprocessConfig) -> Self {
        self.preprocess = Some(cfg);
        self
    }

    /// Like [`SolverBuilder::preprocess`], but backed by an on-disk cache:
    /// a preprocessing previously saved at `path` with a matching
    /// configuration (and vertex count) is loaded instead of rebuilt —
    /// paying the `O(m log n + nρ²)` phase once per graph, not once per
    /// process. On a miss (absent, unreadable, or stale file) the
    /// preprocessing is rebuilt and saved back to `path` best-effort.
    pub fn preprocess_cached(
        mut self,
        path: impl Into<std::path::PathBuf>,
        cfg: PreprocessConfig,
    ) -> Self {
        self.preprocess = Some(cfg);
        self.preprocess_cache = Some(path.into());
        self
    }

    /// Toggles per-step tracing (where the algorithm records one).
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Toggles shortest-path-tree recording on every result.
    pub fn record_parents(mut self, on: bool) -> Self {
        self.config.record_parents = on;
        self
    }

    /// Selects the point-to-point execution strategy (see [`P2pMode`]);
    /// every solver `build()` constructs honours it. `GoalDirected` elects
    /// a landmark table at build time (`DEFAULT_LANDMARKS` sequential
    /// Dijkstras).
    pub fn p2p_mode(mut self, mode: P2pMode) -> Self {
        self.config.p2p_mode = mode;
        self
    }

    /// Decomposes the builder (used by `rs_baselines::solver::BuildSolver`,
    /// which constructs the baseline adapters this crate cannot name).
    pub fn into_parts(self) -> BuilderParts<'g> {
        BuilderParts {
            graph: self.graph,
            algorithm: self.algorithm,
            preprocess: self.preprocess,
            preprocess_cache: self.preprocess_cache,
            config: self.config,
        }
    }

    /// Builds a radius-stepping solver from the current `algorithm`
    /// selection (`RadiusStepping`, or one of the points on the radius
    /// spectrum, `BellmanFord` and `Bfs`), applying any attached
    /// preprocessing.
    ///
    /// Panics on `Dijkstra` and `DeltaStepping` — those baselines are
    /// built by `rs_baselines::solver::BuildSolver`.
    pub fn radius_stepping_solver_from_algorithm(self) -> RadiusSteppingSolver<'g> {
        RadiusSteppingSolver::from_parts(self.into_parts())
    }
}

/// The builder's decomposed state (consumed by the `build()` extension).
pub struct BuilderParts<'g> {
    pub graph: &'g CsrGraph,
    pub algorithm: Algorithm,
    pub preprocess: Option<PreprocessConfig>,
    pub preprocess_cache: Option<std::path::PathBuf>,
    pub config: SolverConfig,
}

/// What [`BuilderParts::resolve`] produces: everything the attached
/// preprocessing and the configured [`P2pMode`] contribute to a solver.
pub struct ResolvedParts<'g> {
    /// The graph to run on: the shortcut-augmented (k, ρ)-graph when
    /// preprocessing is attached (distances are preserved, so every solver
    /// stays exact), else the caller's graph.
    pub graph: SolverGraph<'g>,
    /// Shortcut expansion table for input-graph-exact path extraction.
    pub expander: Option<Arc<ShortcutExpander>>,
    /// The point-to-point kernel the configured [`P2pMode`] resolves to.
    pub p2p: P2pKernel,
    /// The preprocessing's `r_ρ(v)` radii.
    pub radii: Option<Vec<Dist>>,
}

impl<'g> BuilderParts<'g> {
    /// Resolves the attached preprocessing (loading from / saving to the
    /// cache path when one was supplied) and the point-to-point kernel.
    pub fn resolve(&self) -> ResolvedParts<'g> {
        let (graph, expander, radii) = match &self.preprocess {
            None => (SolverGraph::Borrowed(self.graph), None, None),
            Some(cfg) => {
                let pre = resolve_preprocessed(self.graph, cfg, self.preprocess_cache.as_deref());
                (SolverGraph::Owned(pre.graph), Some(pre.expander), Some(pre.radii))
            }
        };
        // Shortcuts preserve distances, so landmarks elected on the
        // resolved graph bound input-graph distances too.
        let p2p = P2pKernel::resolve(self.config.p2p_mode, &graph);
        ResolvedParts { graph, expander, p2p, radii }
    }
}

/// Loads a compatible preprocessing from `cache`, or builds one (saving it
/// back to `cache`, best-effort, when a path is given). A cached file is
/// compatible when its parameters match `cfg` exactly and the content hash
/// of the input graph recorded in its header
/// ([`Preprocessed::input_hash`], computed by
/// [`CsrGraph::content_hash`]) matches `g` — so a mutated graph of the
/// same shape (same vertex and edge counts, different wiring or weights)
/// triggers a rebuild instead of silently serving stale shortcuts.
/// Anything else — missing file, garbage, an old-format file, stale
/// parameters, a different graph — falls back to a rebuild rather than an
/// error.
pub fn resolve_preprocessed(
    g: &CsrGraph,
    cfg: &PreprocessConfig,
    cache: Option<&std::path::Path>,
) -> Preprocessed {
    if let Some(path) = cache {
        if let Ok(pre) = Preprocessed::load(path) {
            if pre.config == *cfg
                && pre.graph.num_vertices() == g.num_vertices()
                && pre.input_hash == g.content_hash()
            {
                return pre;
            }
        }
        let pre = Preprocessed::build(g, cfg);
        // Best-effort: an unwritable cache degrades to rebuild-next-time.
        let _ = pre.save(path);
        pre
    } else {
        Preprocessed::build(g, cfg)
    }
}

/// Radius stepping (either engine, any radii, optional preprocessing)
/// behind the [`SsspSolver`] interface.
pub struct RadiusSteppingSolver<'g> {
    graph: SolverGraph<'g>,
    radii: Radii,
    engine: EngineKind,
    config: SolverConfig,
    /// Shortcut expansion table when preprocessing replaced the graph —
    /// attached to every response so extracted paths ride input edges.
    expander: Option<Arc<ShortcutExpander>>,
    p2p: P2pKernel,
}

impl<'g> RadiusSteppingSolver<'g> {
    /// Construction from builder state. `RadiusStepping` takes its engine
    /// and radii, with preprocessing (when attached) replacing the radii
    /// by `r_ρ(v)`; `BellmanFord` is the frontier engine at `r ≡ ∞` and
    /// `Bfs` the unweighted engine at `r ≡ 0`, whatever is attached.
    /// Preprocessing replaces the graph in every case.
    ///
    /// Panics on `Dijkstra` / `DeltaStepping` (built by
    /// `rs_baselines::solver::BuildSolver`), and on `Bfs` over a weighted
    /// (or preprocessed) graph.
    pub fn from_parts(parts: BuilderParts<'g>) -> Self {
        let (engine, radii) = match &parts.algorithm {
            Algorithm::RadiusStepping { engine, radii } => (*engine, radii.clone()),
            Algorithm::BellmanFord => (EngineKind::Frontier, Radii::Infinite),
            Algorithm::Bfs => (EngineKind::Unweighted, Radii::Zero),
            other => panic!("{other:?} is not a radius-stepping point; use BuildSolver::build"),
        };
        let ResolvedParts { graph, expander, p2p, radii: pre_radii } = parts.resolve();
        assert!(
            parts.algorithm != Algorithm::Bfs || graph.is_unit_weighted(),
            "Algorithm::Bfs requires a unit-weighted graph (and no preprocessing)"
        );
        let radii = match pre_radii {
            Some(r) if matches!(parts.algorithm, Algorithm::RadiusStepping { .. }) => {
                Radii::PerVertex(r)
            }
            _ => radii,
        };
        RadiusSteppingSolver { graph, radii, engine, config: parts.config, expander, p2p }
    }
}

impl SsspSolver for RadiusSteppingSolver<'_> {
    fn name(&self) -> String {
        let engine = match self.engine {
            EngineKind::Frontier => "frontier",
            EngineKind::Unweighted => "unweighted",
        };
        let radii = match &self.radii {
            Radii::Zero => "r=0".to_string(),
            Radii::Infinite => "r=inf".to_string(),
            Radii::Constant(d) => format!("r={d}"),
            Radii::PerVertex(_) => "r_rho".to_string(),
        };
        if self.expander.is_some() {
            format!("radius-stepping/{engine} {radii} (preprocessed)")
        } else {
            format!("radius-stepping/{engine} {radii}")
        }
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        let want_paths = self.config.wants_paths(query);
        if let Some(out) = self.p2p.run(&self.graph, query, want_paths, scratch) {
            return QueryResponse::single(query.clone(), out).with_expander(self.expander.clone());
        }
        execute_radius_stepping(
            self,
            &self.radii.as_spec(),
            self.engine,
            &self.config,
            self.expander.clone(),
            query,
            scratch,
        )
    }

    fn warm_scratch(&self, scratch: &mut SolverScratch) {
        warm_for_engine(scratch, &self.graph, self.engine);
        self.p2p.warm(&self.graph, scratch);
    }
}

/// The radius-stepping `execute` body shared by [`RadiusSteppingSolver`]
/// and [`Preprocessed`]: many-to-many tables fan out row-wise; every other
/// shape is one engine run on `scratch` over `solver`'s graph, with paths
/// finished per `config` and `expander` attached to the response.
fn execute_radius_stepping<S: SsspSolver>(
    solver: &S,
    radii: &RadiiSpec<'_>,
    engine: EngineKind,
    config: &SolverConfig,
    expander: Option<Arc<ShortcutExpander>>,
    query: &Query,
    scratch: &mut SolverScratch,
) -> QueryResponse {
    if query.is_many_to_many() {
        return execute_many_to_many(solver, query).with_expander(expander);
    }
    let g = solver.graph();
    let want_paths = config.wants_paths(query);
    let mut goal_buf = Vec::new();
    let goals = solve_goals(query, &mut goal_buf);
    let cfg = EngineConfig {
        trace: config.wants_trace(query),
        goals,
        // Goal-bounded path requests record parents inline during
        // relaxation; full solves keep the deterministic parallel
        // derivation (applied below by finish_paths).
        record_parents: want_paths && goals.bounded(),
    };
    let out = radius_stepping_with_scratch(g, radii, query.source(), engine, cfg, scratch);
    let result = config.finish_paths(g, query, out);
    QueryResponse::single(query.clone(), result).with_expander(expander)
}

/// Engine-aware scratch warm-up: shared state plus the frontier/substep
/// buffers for the frontier engine, and only the visited bitset for the
/// unweighted engine (which never touches the distance structures — the
/// lean BFS path).
fn warm_for_engine(scratch: &mut SolverScratch, g: &CsrGraph, engine: EngineKind) {
    match engine {
        EngineKind::Frontier => {
            scratch.warm_up(g);
            scratch.warm_engine_buffers(g.num_vertices());
        }
        EngineKind::Unweighted => scratch.warm_up_lean(g),
    }
}

/// [`Preprocessed`] is itself a solver: `execute` runs the frontier engine
/// on the (k, ρ)-graph with the derived radii.
impl SsspSolver for Preprocessed {
    fn name(&self) -> String {
        format!("radius-stepping (k={}, rho={})", self.config.k, self.config.rho)
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn execute(&self, query: &Query, scratch: &mut SolverScratch) -> QueryResponse {
        execute_radius_stepping(
            self,
            &RadiiSpec::PerVertex(&self.radii),
            EngineKind::Frontier,
            &SolverConfig::default(),
            Some(self.expander.clone()),
            query,
            scratch,
        )
    }

    fn warm_scratch(&self, scratch: &mut SolverScratch) {
        warm_for_engine(scratch, &self.graph, EngineKind::Frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_graph::{gen, weights, WeightModel, INF};

    fn grid() -> CsrGraph {
        weights::reweight(&gen::grid2d(9, 9), WeightModel::paper_weighted(), 4)
    }

    fn frontier(g: &CsrGraph, radii: Radii) -> RadiusSteppingSolver<'_> {
        SolverBuilder::new(g)
            .algorithm(Algorithm::RadiusStepping { engine: EngineKind::Frontier, radii })
            .radius_stepping_solver_from_algorithm()
    }

    #[test]
    fn builder_constructs_working_solver() {
        let g = grid();
        let solver = SolverBuilder::new(&g)
            .trace(true)
            .record_parents(true)
            .radius_stepping_solver_from_algorithm();
        let out = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(out.dist()[0], 0);
        assert!(out.stats().trace.is_some(), "trace requested");
        let path = out.extract_path(80).expect("connected grid");
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 80);
    }

    #[test]
    fn preprocessing_replaces_radii_and_graph() {
        let g = grid();
        let solver = SolverBuilder::new(&g)
            .preprocess(PreprocessConfig::new(1, 8))
            .radius_stepping_solver_from_algorithm();
        assert!(solver.name().contains("preprocessed"));
        assert!(solver.graph().num_edges() >= g.num_edges(), "shortcuts added");
        assert!(matches!(solver.radii, Radii::PerVertex(_)));
        let (q, mut scratch) = (Query::single_source(3), SolverScratch::new());
        let direct = frontier(&g, Radii::Infinite).execute(&q, &mut scratch);
        assert_eq!(solver.execute(&q, &mut scratch).dist(), direct.dist());
    }

    #[test]
    fn goal_solve_settles_goal_exactly() {
        let g = grid();
        let solver = frontier(&g, Radii::Zero);
        let mut scratch = SolverScratch::new();
        let full = solver.execute(&Query::single_source(0), &mut scratch);
        let bounded = solver.execute(&Query::point_to_point(0, 40), &mut scratch);
        assert_eq!(bounded.dist()[40], full.dist()[40]);
        assert!(bounded.stats().steps <= full.stats().steps);
        for (b, f) in bounded.dist().iter().zip(full.dist()) {
            assert!(*b >= *f, "goal-bounded entries are upper bounds");
        }
    }

    #[test]
    fn batch_matches_per_source() {
        let g = grid();
        let pre = Preprocessed::build(&g, &PreprocessConfig::new(1, 8));
        let sources = [0u32, 11, 44, 80];
        let batch = QueryBatch::from_sources(&sources).execute(&pre);
        assert_eq!(batch.responses.len(), sources.len());
        let mut scratch = SolverScratch::new();
        for (out, &s) in batch.responses.iter().zip(&sources) {
            assert_eq!(out.dist(), pre.execute(&Query::single_source(s), &mut scratch).dist());
        }
    }

    #[test]
    fn query_batch_dedups_by_full_key_and_orders() {
        let queries = [
            Query::point_to_point(7, 3),
            Query::single_source(7),
            Query::point_to_point(7, 3),
            Query::point_to_point(7, 3).with_paths(), // options matter
            Query::single_source(1),
            Query::single_source(7),
        ];
        let batch = QueryBatch::new(&queries);
        assert_eq!(batch.len(), 6);
        assert_eq!(batch.queries(), &queries);
        assert_eq!(
            batch.unique_queries(),
            &[
                Query::point_to_point(7, 3),
                Query::single_source(7),
                Query::point_to_point(7, 3).with_paths(),
                Query::single_source(1),
            ],
            "first-occurrence order, keyed by shape AND options"
        );
        assert_eq!(batch.deduplicated(), 2);

        let empty = QueryBatch::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.unique_queries(), &[] as &[Query]);

        // from_sources is the all-targets shape.
        let plan = QueryBatch::from_sources(&[7, 3, 7]);
        assert_eq!(plan.unique_queries(), &[Query::single_source(7), Query::single_source(3)]);
    }

    #[test]
    fn batch_execute_reports_aggregates_and_dedup_is_invisible() {
        let g = grid();
        let solver = frontier(&g, Radii::Zero);
        let sources = [5u32, 9, 5, 77, 9, 5];
        let outcome = QueryBatch::from_sources(&sources).execute(&solver);
        assert_eq!(outcome.stats.solves, 6);
        assert_eq!(outcome.stats.unique_solves, 3);
        assert_eq!(outcome.stats.point_to_point, 0);
        assert_eq!(
            outcome.stats.cold_solves + outcome.stats.scratch_reuses,
            outcome.stats.unique_solves
        );
        assert!(
            outcome.stats.cold_solves <= rs_par::num_threads().min(3),
            "at most one cold solve per pool task"
        );
        // Aggregates sum over delivered results (duplicates re-counted).
        let mut scratch = SolverScratch::new();
        let per_source: Vec<QueryResponse> = sources
            .iter()
            .map(|&s| solver.execute(&Query::single_source(s), &mut scratch))
            .collect();
        let steps: usize = per_source.iter().map(|r| r.stats().steps).sum();
        assert_eq!(outcome.stats.steps, steps);
        assert!((outcome.stats.mean_steps() - steps as f64 / 6.0).abs() < 1e-12);
        // Dedup is observationally invisible.
        for (out, reference) in outcome.responses.iter().zip(&per_source) {
            assert_eq!(out.dist(), reference.dist());
        }

        // Empty and singleton batches.
        let empty = QueryBatch::new(&[]).execute(&solver);
        assert!(empty.responses.is_empty());
        assert_eq!(empty.stats, BatchStats::default());
        let single = QueryBatch::from_sources(&[33]).execute(&solver);
        assert_eq!(single.responses.len(), 1);
        let reference = solver.execute(&Query::single_source(33), &mut scratch);
        assert_eq!(single.responses[0].dist(), reference.dist());
        assert_eq!(single.stats.unique_solves, 1);
    }

    #[test]
    fn mixed_batch_counts_goal_bounded_traffic() {
        let g = grid();
        let solver = frontier(&g, Radii::Zero);
        let queries = [
            Query::point_to_point(0, 40),
            Query::single_source(0),
            Query::point_to_point(0, 40), // dedup'd
            Query::point_to_point(5, 80).with_paths(),
        ];
        let outcome = QueryBatch::new(&queries).execute(&solver);
        assert_eq!(outcome.stats.solves, 4);
        assert_eq!(outcome.stats.unique_solves, 3);
        assert_eq!(outcome.stats.point_to_point, 3, "delivered p2p responses");
        assert_eq!(outcome.stats.goals_reached, 3, "grid is connected");
        // Responses line up with their queries and are individually exact.
        let full = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(outcome.responses[0].goal_distance(), Some(full.dist()[40]));
        assert_eq!(outcome.responses[1].dist(), full.dist());
        assert_eq!(outcome.responses[2].dist(), outcome.responses[0].dist(), "clone of unique");
        let path = outcome.responses[3].goal_path().expect("paths requested");
        assert_eq!((path[0], *path.last().unwrap()), (5, 80));
    }

    #[test]
    fn execute_point_to_point_warm_matches_cold() {
        let g = grid();
        let solver = frontier(&g, Radii::Constant(1_500));
        let mut scratch = SolverScratch::new();
        for (i, (s, t)) in [(0u32, 80u32), (80, 0), (40, 13), (0, 80)].into_iter().enumerate() {
            let warm = solver.execute(&Query::point_to_point(s, t), &mut scratch);
            let cold = solver.execute(&Query::point_to_point(s, t), &mut SolverScratch::new());
            assert_eq!(warm.dist(), cold.dist(), "query {i} diverged on a warm scratch");
            assert_eq!(warm.stats().scratch_reused, i > 0);
            let full = solver.execute(&Query::single_source(s), &mut SolverScratch::new());
            assert_eq!(warm.goal_distance(), Some(full.dist()[t as usize]));
        }
    }

    #[test]
    fn reused_scratch_interleaved_matches_fresh() {
        let g = grid();
        let solver = frontier(&g, Radii::Constant(1_500));
        let mut scratch = SolverScratch::new();
        for s in [0u32, 80, 40, 0, 17] {
            let q = Query::single_source(s).with_paths();
            let warm = solver.execute(&q, &mut scratch).into_result();
            let fresh = solver.execute(&q, &mut SolverScratch::new()).into_result();
            assert_eq!(warm.dist, fresh.dist, "source {s}");
            assert_eq!(warm.parent, fresh.parent, "source {s}: parents recorded on both paths");
        }
        assert_eq!(scratch.reuses(), 4);
    }

    #[test]
    fn cache_rebuilds_on_mutated_same_size_graph() {
        // Same vertex AND edge counts, different weights: the old
        // shape-based staleness check accepted this cache; the content
        // hash in the header must reject it.
        let g1 = grid();
        let g2 = rs_graph::weights::reweight(
            &rs_graph::gen::grid2d(9, 9),
            rs_graph::WeightModel::paper_weighted(),
            99, // different weight seed, same topology
        );
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_ne!(g1.content_hash(), g2.content_hash());

        let cfg = PreprocessConfig::new(1, 8);
        let path = std::env::temp_dir().join(format!(
            "rs_hash_cache_{}_{:p}.bin",
            std::process::id(),
            &g1
        ));
        std::fs::remove_file(&path).ok();

        let pre1 = resolve_preprocessed(&g1, &cfg, Some(&path));
        assert_eq!(pre1.input_hash, g1.content_hash());
        assert_eq!(Preprocessed::load(&path).unwrap().input_hash, g1.content_hash());

        // Mutated graph, same shape: must rebuild (and refresh the file).
        let pre2 = resolve_preprocessed(&g2, &cfg, Some(&path));
        assert_eq!(pre2.input_hash, g2.content_hash(), "stale cache served for mutated graph");
        assert_eq!(Preprocessed::load(&path).unwrap().input_hash, g2.content_hash());
        let (q, mut scratch) = (Query::single_source(5), SolverScratch::new());
        let direct = frontier(&g2, Radii::Zero).execute(&q, &mut scratch);
        assert_eq!(pre2.execute(&q, &mut scratch).dist(), direct.dist());

        // Unchanged graph: served from cache (hash matches).
        let pre1_again = resolve_preprocessed(&g2, &cfg, Some(&path));
        assert_eq!(pre1_again.input_hash, g2.content_hash());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn preprocess_cached_roundtrip() {
        let g = grid();
        let cfg = PreprocessConfig::new(2, 10);
        let path = std::env::temp_dir().join(format!(
            "rs_solver_cache_{}_{:p}.bin",
            std::process::id(),
            &g
        ));
        std::fs::remove_file(&path).ok();
        let (q, mut scratch) = (Query::single_source(5), SolverScratch::new());

        // First build: cache miss — builds and persists.
        let first = SolverBuilder::new(&g)
            .preprocess_cached(&path, cfg)
            .radius_stepping_solver_from_algorithm();
        assert!(path.exists(), "cache file must be written on a miss");
        let expect = first.execute(&q, &mut scratch).into_result().dist;
        let fresh = std::fs::read(&path).unwrap();

        // Second build: served from the cache, identical results.
        let cached = SolverBuilder::new(&g)
            .preprocess_cached(&path, cfg)
            .radius_stepping_solver_from_algorithm();
        assert!(cached.name().contains("preprocessed"));
        assert_eq!(cached.execute(&q, &mut scratch).dist(), expect);

        // The cached file round-trips the full preprocessing.
        let loaded = Preprocessed::load(&path).unwrap();
        assert_eq!(loaded.config, cfg);
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());

        // Stale parameters are rebuilt (and the file refreshed), not
        // silently reused.
        let other = PreprocessConfig::new(1, 6);
        let rebuilt = SolverBuilder::new(&g)
            .preprocess_cached(&path, other)
            .radius_stepping_solver_from_algorithm();
        let out = rebuilt.execute(&q, &mut scratch);
        assert_eq!(out.dist(), expect, "distances never depend on the cache");
        assert_eq!(Preprocessed::load(&path).unwrap().config, other, "file refreshed");

        // Garbage, or a fresh file under an old or foreign magic ("RSP4"
        // carried a landmark table; "RSP5" is an rs_shard partition),
        // degrades to a rebuild, never an error — and the rebuild
        // refreshes the file.
        let relabel = |magic: &[u8; 4]| {
            let mut bytes = fresh.clone();
            bytes[..4].copy_from_slice(magic);
            bytes
        };
        for (label, bytes) in [
            ("garbage", b"definitely not a preprocessing".to_vec()),
            ("RSP4", relabel(b"RSP4")),
            ("RSP5", relabel(b"RSP5")),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let recovered = SolverBuilder::new(&g)
                .preprocess_cached(&path, cfg)
                .radius_stepping_solver_from_algorithm();
            assert_eq!(recovered.execute(&q, &mut scratch).dist(), expect, "{label}");
            let refreshed = Preprocessed::load(&path).expect("rebuild rewrites the cache");
            assert_eq!(refreshed.config, cfg, "{label}");
        }

        // A cache written for a different graph (here: different edge
        // count) is rejected and rebuilt, not reused.
        let other_graph =
            rs_graph::weights::reweight(&rs_graph::gen::path(81), WeightModel::paper_weighted(), 2);
        assert_eq!(other_graph.num_vertices(), g.num_vertices(), "same n, different m");
        let cross = SolverBuilder::new(&other_graph)
            .preprocess_cached(&path, cfg)
            .radius_stepping_solver_from_algorithm();
        let direct = frontier(&other_graph, Radii::Zero).execute(&q, &mut scratch);
        let out = cross.execute(&q, &mut scratch);
        assert_eq!(out.dist(), direct.dist(), "stale-graph cache must rebuild");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreachable_goal_terminates() {
        let mut b = rs_graph::EdgeListBuilder::new(4);
        b.add_edge(0, 1, 3);
        let g = b.build();
        let out = frontier(&g, Radii::Zero)
            .execute(&Query::point_to_point(0, 3), &mut SolverScratch::new());
        assert_eq!(out.dist()[3], INF);
    }

    #[test]
    fn infinite_radii_paths_telescope_after_mid_step_exit() {
        let g = weights::reweight(&gen::grid2d(20, 20), WeightModel::paper_weighted(), 4);
        let solver = frontier(&g, Radii::Infinite);
        let mut scratch = SolverScratch::new();
        let full = solver.execute(&Query::single_source(0), &mut scratch);
        let goal = 47u32;
        let trip = solver.execute(&Query::point_to_point(0, goal).with_paths(), &mut scratch);
        assert_eq!(trip.stats().steps, 1);
        assert!(trip.stats().substeps < full.stats().substeps, "the exit fires mid-step");
        assert!(trip.stats().settled < g.num_vertices(), "only the final prefix settles");
        let path = trip.goal_path().expect("goal settled");
        assert_eq!((path[0], *path.last().unwrap()), (0, goal));
        let mut acc = 0u64;
        for w in path.windows(2) {
            acc += g.arc_weight(w[0], w[1]).expect("path edge") as u64;
        }
        assert_eq!(acc, full.dist()[goal as usize], "parents must telescope to the exact goal");
    }

    #[test]
    fn spectrum_points_build_as_radius_stepping() {
        let g = grid();
        let bf = SolverBuilder::new(&g)
            .algorithm(Algorithm::BellmanFord)
            .preprocess(PreprocessConfig::new(1, 8))
            .radius_stepping_solver_from_algorithm();
        assert_eq!((bf.engine, &bf.radii), (EngineKind::Frontier, &Radii::Infinite));
        assert!(bf.expander.is_some(), "shortcuts still apply");
        let out = bf.execute(&Query::single_source(3), &mut SolverScratch::new());
        assert_eq!(out.stats().steps, 1, "r ≡ ∞ survives preprocessing");
        let unit = gen::grid2d(6, 6);
        let bfs = SolverBuilder::new(&unit)
            .algorithm(Algorithm::Bfs)
            .radius_stepping_solver_from_algorithm();
        assert_eq!((bfs.engine, &bfs.radii), (EngineKind::Unweighted, &Radii::Zero));
    }

    #[test]
    fn one_to_many_settles_every_goal_in_one_solve() {
        let g = grid();
        let solver = frontier(&g, Radii::Constant(1_500));
        let full = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        let goals = [80u32, 3, 44, 3]; // duplicates + arbitrary order
        let mut scratch = SolverScratch::new();
        let resp = solver.execute(&Query::one_to_many(0, goals), &mut scratch);
        assert_eq!(scratch.solves(), 1, "k goals must cost exactly one solve");
        assert_eq!(
            resp.goal_distances(),
            goals.iter().map(|&t| Some(full.dist()[t as usize])).collect::<Vec<_>>(),
            "per-goal distances exact, in requested order (duplicates answered)"
        );
        for (v, (&b, &f)) in resp.dist().iter().zip(full.dist()).enumerate() {
            assert!(b >= f, "vertex {v}: goal-bounded entries are upper bounds");
        }
        // An empty goal set is trivially satisfied: source only.
        let trivial = solver.execute(&Query::one_to_many(7, []), &mut scratch);
        assert_eq!(trivial.dist()[7], 0);
        assert!(trivial.goal_distances().is_empty());
        assert_eq!(trivial.stats().settled, 1, "nothing beyond the source settles");
    }

    #[test]
    fn many_to_many_builds_the_distance_table() {
        let g = grid();
        let solver = frontier(&g, Radii::Zero);
        let sources = [0u32, 40, 80];
        let goals = [3u32, 77];
        let mut scratch = SolverScratch::new();
        let resp = solver.execute(&Query::many_to_many(sources, goals), &mut scratch);
        assert_eq!(resp.rows().len(), sources.len());
        let table = resp.distance_table();
        for (i, &s) in sources.iter().enumerate() {
            let full = solver.execute(&Query::single_source(s), &mut scratch);
            for (j, &t) in goals.iter().enumerate() {
                assert_eq!(table[i][j], Some(full.dist()[t as usize]), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn batch_dedup_canonicalises_goal_sets() {
        let queries = [
            Query::one_to_many(0, [3, 7]),
            Query::one_to_many(0, [7, 3]),    // permuted: same slot
            Query::one_to_many(0, [7, 3, 7]), // duplicated goal: same slot
            Query::one_to_many(0, [7]),       // different set: own slot
            Query::many_to_many([1, 2], [9, 4]),
            Query::many_to_many([1, 2], [4, 9]), // permuted goals: same slot
            Query::many_to_many([2, 1], [4, 9]), // source order is row order: own slot
        ];
        let batch = QueryBatch::new(&queries);
        assert_eq!(batch.unique_queries().len(), 4);
        assert_eq!(batch.deduplicated(), 3);
        // Delivered responses keep their *requested* query key.
        let g = grid();
        let solver = frontier(&g, Radii::Zero);
        let outcome = QueryBatch::new(&queries).execute(&solver);
        for (resp, q) in outcome.responses.iter().zip(&queries) {
            assert_eq!(&resp.query, q, "dedup must not rewrite the requested goal order");
        }
        let full = solver.execute(&Query::single_source(0), &mut SolverScratch::new());
        assert_eq!(outcome.responses[1].goal_distances()[0], Some(full.dist()[7]));
        assert_eq!(outcome.stats.one_to_many, 4);
        assert_eq!(outcome.stats.many_to_many, 3);
        // 2 one-to-many uniques (1 row each) + 2 table uniques (2 rows
        // each): the 3 deduplicated requests cost nothing.
        assert_eq!(outcome.stats.executed_solves, 2 + 2 * 2);
    }

    #[test]
    fn streaming_batch_matches_materialised_execution() {
        let g = grid();
        let solver = frontier(&g, Radii::Constant(900));
        let queries = [
            Query::point_to_point(0, 80).with_paths(),
            Query::single_source(5),
            Query::one_to_many(40, [0, 80, 13]),
            Query::point_to_point(0, 80).with_paths(), // dup
        ];
        let materialised = QueryBatch::new(&queries).execute(&solver);
        let mut streamed: Vec<Option<QueryResponse>> = vec![None; queries.len()];
        let stream_stats = QueryBatch::new(&queries).stream(&solver, |slot, resp| {
            streamed[slot] = Some(resp);
        });
        assert_eq!(stream_stats, materialised.stats);
        for (slot, resp) in streamed.into_iter().enumerate() {
            let resp = resp.expect("every slot delivered exactly once");
            assert_eq!(resp.query, materialised.responses[slot].query);
            assert_eq!(resp.dist(), materialised.responses[slot].dist(), "slot {slot}");
            assert_eq!(resp.goal_path(), materialised.responses[slot].goal_path(), "slot {slot}");
        }
    }
}
