//! The server loop: admission → lanes → solver → reply.
//!
//! Front-end and solver are decoupled: [`Server::submit`] does nothing
//! but a cache-aware admission push (microseconds, never a solve), and
//! lane workers — dedicated threads from [`rs_par::scope()`], *not* pool
//! workers — drain their lane's queue, micro-batch what is waiting,
//! serve cache hits, and run the misses through the query plane
//! ([`QueryBatch::stream_bounded`] for a batch, a direct warm-scratch
//! `execute` for a single miss). Replies flow to the caller over the
//! `mpsc::Sender` each request carries.
//!
//! Every buffer on the path is bounded: the admission queues reject when
//! full (retry hint attached), the batch response channel blocks solver
//! workers when the reply path falls behind, and the reply channel's
//! bound (if the caller picks a `sync_channel`) back-pressures the lane
//! workers themselves. Nothing in the loop can accumulate unboundedly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rs_core::{
    BatchStats, InvalidQuery, Query, QueryBatch, QueryResponse, SolverScratch, SsspSolver,
};
use rs_ds::LatencyHistogram;

use crate::cache::{CacheStats, ResponseCache};
use crate::lane::{LaneConfig, LaneSnapshot, Shape};
use crate::queue::{BoundedQueue, PushError};

/// Server tuning: one [`LaneConfig`] per shape plus the shared cache and
/// stream bounds. All fields are public — construct with
/// `ServerConfig { cache_capacity: 0, ..Default::default() }` style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Lane for full single-source solves (analytics traffic).
    pub single_source: LaneConfig,
    /// Lane for point-to-point lookups (interactive traffic).
    pub point_to_point: LaneConfig,
    /// Lane for one-to-many fan-outs.
    pub one_to_many: LaneConfig,
    /// Lane for many-to-many tables (the expensive shape: few workers,
    /// short queue, so tables cannot crowd out the rest).
    pub many_to_many: LaneConfig,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Response-channel bound for batched misses; 0 means
    /// [`QueryBatch::default_stream_capacity`].
    pub stream_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            single_source: LaneConfig::new(64, 1, 8),
            point_to_point: LaneConfig::new(256, 2, 32),
            one_to_many: LaneConfig::new(128, 2, 16),
            many_to_many: LaneConfig::new(16, 1, 2),
            cache_capacity: 1024,
            stream_capacity: 0,
        }
    }
}

impl ServerConfig {
    /// The lane configuration for `shape`.
    pub fn lane(&self, shape: Shape) -> LaneConfig {
        match shape {
            Shape::SingleSource => self.single_source,
            Shape::PointToPoint => self.point_to_point,
            Shape::OneToMany => self.one_to_many,
            Shape::ManyToMany => self.many_to_many,
        }
    }

    /// Same configuration for every lane — handy in tests.
    pub fn uniform(lane: LaneConfig, cache_capacity: usize) -> Self {
        ServerConfig {
            single_source: lane,
            point_to_point: lane,
            one_to_many: lane,
            many_to_many: lane,
            cache_capacity,
            stream_capacity: 0,
        }
    }
}

/// One answered request, delivered on the `Sender` the submit carried.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The ticket [`Server::submit`] returned.
    pub id: u64,
    /// The response. Cache hits share one `Arc` across all their
    /// requesters; the carried [`QueryResponse::query`] is then the
    /// *canonical* form of the request (sorted, deduplicated goals) —
    /// distances, tables, and paths are identical to a fresh solve.
    pub response: Arc<QueryResponse>,
    /// True when served from the response cache (no solve ran).
    pub cached: bool,
    /// Submit→reply latency in microseconds.
    pub latency_us: u64,
}

/// Admission refusal: the query named a vertex the graph does not have,
/// the lane's queue was full, or the server had shut down. A full lane
/// carries a retry hint derived from the lane's observed service rate.
#[derive(Debug, Clone, Copy)]
pub struct Rejection {
    /// The saturated lane.
    pub shape: Shape,
    /// True when refused because the server is shutting down (retrying
    /// is then pointless).
    pub closed: bool,
    /// Set when refused because the query itself is invalid ([`Query::validate`]
    /// failed); retrying the same query is then pointless too.
    pub invalid: Option<InvalidQuery>,
    /// Requests buffered in the lane at refusal time.
    pub queued: usize,
    /// Suggested back-off before retrying, in microseconds: the queue it
    /// would wait behind divided by the lane's *observed drain rate* over
    /// a recent window of completion timestamps, clamped to 100 µs ..= 0.5 s
    /// (`RETRY_MIN_US` ..= `RETRY_MAX_US`). A lane with too few recent
    /// completions to estimate a rate (idle, or just started) hands out
    /// the clamp floor — retry soon, rather than a hint derived from
    /// stale latency quantiles. Zero for an invalid query.
    pub retry_after_us: u64,
}

/// Completion timestamps retained per lane for the drain-rate estimate.
const RATE_WINDOW: usize = 128;
/// Retry-hint clamp floor (µs): also the idle-lane answer.
const RETRY_MIN_US: u64 = 100;
/// Retry-hint clamp ceiling (µs): half a second — beyond that the caller
/// should be load-shedding, not sleeping on a hint.
const RETRY_MAX_US: u64 = 500_000;

/// Derives a [`Rejection::retry_after_us`] hint from observed lane
/// throughput: `completions` holds the wall-clock times of the lane's
/// most recent completions (oldest first, at most [`RATE_WINDOW`]); the
/// average inter-completion gap over the window ending at `now` is the
/// lane's current per-request drain time, and the hint is that gap times
/// the `queued` requests a retry would wait behind (plus itself).
/// Measuring the window against `now` (not the last completion) keeps the
/// estimate honest for a lane that *was* fast and has stalled: the gap
/// grows with the stall. Pure so the idle/saturated cases unit-test
/// without a running server.
fn retry_hint(queued: usize, completions: &VecDeque<Instant>, now: Instant) -> u64 {
    if completions.len() < 2 {
        return RETRY_MIN_US;
    }
    let span_us = completions
        .front()
        .map(|oldest| now.saturating_duration_since(*oldest).as_micros() as u64)
        .unwrap_or(0);
    let per_request_us = span_us / completions.len() as u64;
    per_request_us.saturating_mul(queued as u64 + 1).clamp(RETRY_MIN_US, RETRY_MAX_US)
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(err) = self.invalid {
            write!(f, "{} query refused: {err}", self.shape.name())
        } else if self.closed {
            write!(f, "{} lane closed (server shutting down)", self.shape.name())
        } else {
            write!(
                f,
                "{} lane saturated ({} queued); retry in ~{}µs",
                self.shape.name(),
                self.queued,
                self.retry_after_us
            )
        }
    }
}

/// A submitted request, queued in its lane.
struct Request {
    id: u64,
    query: Query,
    submitted: Instant,
    reply: Sender<Reply>,
}

/// Mutable per-lane telemetry (one short lock per reply).
#[derive(Default)]
struct Telemetry {
    latency: LatencyHistogram,
    stats: BatchStats,
    /// Wall-clock completion times, oldest first, capped at
    /// [`RATE_WINDOW`] — the drain-rate window behind [`retry_hint`].
    completions: VecDeque<Instant>,
}

struct Lane {
    shape: Shape,
    config: LaneConfig,
    queue: BoundedQueue<Request>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    telemetry: Mutex<Telemetry>,
}

impl Lane {
    fn new(shape: Shape, config: LaneConfig) -> Self {
        Lane {
            shape,
            config,
            queue: BoundedQueue::new(config.queue_depth),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            telemetry: Mutex::new(Telemetry::default()),
        }
    }

    fn snapshot(&self) -> LaneSnapshot {
        let telemetry = self.telemetry.lock().unwrap();
        LaneSnapshot {
            shape: self.shape,
            config: self.config,
            admitted: self.admitted.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            latency: telemetry.latency.clone(),
            stats: telemetry.stats.clone(),
        }
    }
}

/// Whole-server statistics snapshot ([`Server::stats`]): the per-lane
/// ledgers plus cache counters and the rolled-up [`BatchStats`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One snapshot per lane, in [`Shape::ALL`] order.
    pub lanes: Vec<LaneSnapshot>,
    /// Response-cache counters.
    pub cache: CacheStats,
    /// All lanes' query-plane ledgers merged: `totals.solves` is every
    /// request answered, `totals.executed_solves` every physical solve
    /// row — the gap is what caching + dedup saved.
    pub totals: BatchStats,
}

impl ServerStats {
    /// The snapshot for one lane.
    pub fn lane(&self, shape: Shape) -> &LaneSnapshot {
        &self.lanes[shape as usize]
    }

    /// Requests answered across all lanes.
    pub fn completed(&self) -> u64 {
        self.lanes.iter().map(|l| l.completed).sum()
    }

    /// Requests refused at admission across all lanes.
    pub fn rejected(&self) -> u64 {
        self.lanes.iter().map(|l| l.rejected).sum()
    }

    /// Compact human-readable rendering (the `rs-serve` report).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "lane            admitted rejected completed cache_hits     p50     p95     p99 (µs)\n",
        );
        for lane in &self.lanes {
            let (p50, p95, p99) = lane.latency_percentiles();
            out.push_str(&format!(
                "{:<15} {:>8} {:>8} {:>9} {:>10} {:>7} {:>7} {:>7}\n",
                lane.shape.name(),
                lane.admitted,
                lane.rejected,
                lane.completed,
                lane.cache_hits,
                p50,
                p95,
                p99
            ));
        }
        out.push_str(&format!(
            "cache: {} hits / {} misses (rate {:.3}), {} evictions, {} entries, epoch {}\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.evictions,
            self.cache.entries,
            self.cache.epoch
        ));
        out.push_str(&format!(
            "solves: {} requested, {} executed, {} scratch-warm, {} cold\n",
            self.totals.solves,
            self.totals.executed_solves,
            self.totals.scratch_reuses,
            self.totals.cold_solves
        ));
        out
    }
}

/// The server handle [`serve`] passes to its caller closure: submit
/// requests, invalidate the cache, snapshot statistics. All methods are
/// `&self` — share it freely across front-end threads.
pub struct Server<'s> {
    solver: &'s dyn SsspSolver,
    lanes: Vec<Lane>,
    cache: ResponseCache,
    cache_enabled: bool,
    stream_capacity: usize,
    next_id: AtomicU64,
}

impl<'s> Server<'s> {
    fn new(solver: &'s dyn SsspSolver, config: &ServerConfig) -> Self {
        Server {
            solver,
            lanes: Shape::ALL.iter().map(|&s| Lane::new(s, config.lane(s))).collect(),
            cache: ResponseCache::new(config.cache_capacity.max(1)),
            cache_enabled: config.cache_capacity > 0,
            stream_capacity: if config.stream_capacity == 0 {
                QueryBatch::default_stream_capacity()
            } else {
                config.stream_capacity
            },
            next_id: AtomicU64::new(0),
        }
    }

    /// Admits `query` into its shape's lane. On success the returned
    /// ticket matches the eventual [`Reply::id`] on `reply`; on refusal
    /// the [`Rejection`] says why, and for a full lane when to retry. A
    /// query naming a vertex outside the solver's graph is refused here,
    /// so it never reaches (and panics) a lane worker. Never solves,
    /// never blocks.
    pub fn submit(&self, query: Query, reply: Sender<Reply>) -> Result<u64, Rejection> {
        let lane = &self.lanes[Shape::of(&query) as usize];
        if let Err(err) = query.validate(self.solver.graph()) {
            lane.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(Rejection {
                shape: lane.shape,
                closed: false,
                invalid: Some(err),
                queued: lane.queue.len(),
                retry_after_us: 0,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let request = Request { id, query, submitted: Instant::now(), reply };
        match lane.queue.try_push(request) {
            Ok(()) => {
                lane.admitted.fetch_add(1, Ordering::SeqCst);
                Ok(id)
            }
            Err(err) => {
                lane.rejected.fetch_add(1, Ordering::SeqCst);
                let closed = matches!(err, PushError::Closed(_));
                let queued = lane.queue.len();
                let retry_after_us =
                    retry_hint(queued, &lane.telemetry.lock().unwrap().completions, Instant::now());
                Err(Rejection { shape: lane.shape, closed, invalid: None, queued, retry_after_us })
            }
        }
    }

    /// Invalidates every cached response (O(1) epoch bump) — the hook a
    /// weight update calls before swapping graph data. Returns the new
    /// epoch.
    pub fn invalidate_epoch(&self) -> u64 {
        self.cache.invalidate_epoch()
    }

    /// The response cache (counters, epoch).
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// A consistent-enough statistics snapshot (each lane's ledger is
    /// internally consistent; lanes are read in sequence).
    pub fn stats(&self) -> ServerStats {
        let lanes: Vec<LaneSnapshot> = self.lanes.iter().map(Lane::snapshot).collect();
        let mut totals = BatchStats::default();
        for lane in &lanes {
            totals.merge(&lane.stats);
        }
        ServerStats { lanes, cache: self.cache.stats(), totals }
    }

    /// Closes every lane: subsequent submits are refused, queued
    /// requests drain, workers exit. Called by [`serve`] when the caller
    /// closure returns.
    fn shutdown(&self) {
        for lane in &self.lanes {
            lane.queue.close();
        }
    }

    /// One lane worker: blocking pop, micro-batch drain, serve.
    fn run_worker(&self, lane: &Lane) {
        let mut scratch = SolverScratch::new();
        self.solver.warm_scratch(&mut scratch);
        while let Some(first) = lane.queue.pop() {
            let mut requests = vec![first];
            while requests.len() < lane.config.batch_max.max(1) {
                match lane.queue.try_pop() {
                    Some(r) => requests.push(r),
                    None => break,
                }
            }
            self.process(lane, requests, &mut scratch);
        }
    }

    /// Serves one micro-batch: cache pass, then solve the misses.
    fn process(&self, lane: &Lane, requests: Vec<Request>, scratch: &mut SolverScratch) {
        let mut misses = Vec::with_capacity(requests.len());
        for request in requests {
            match self.cache_enabled.then(|| self.cache.get(&request.query)).flatten() {
                Some(response) => {
                    {
                        let mut telemetry = lane.telemetry.lock().unwrap();
                        telemetry.stats.solves += 1;
                        telemetry.stats.absorb_delivered(&response);
                    }
                    lane.cache_hits.fetch_add(1, Ordering::SeqCst);
                    self.finish(lane, request, response, true);
                }
                None => misses.push(request),
            }
        }
        if misses.is_empty() {
            return;
        }
        // The epoch is read before solving: an invalidation racing these
        // solves tags their cache entries stale, so they can never be
        // served after the bump.
        let epoch = self.cache.epoch();
        if misses.len() == 1 {
            // Single miss: solve directly on this worker's long-lived
            // scratch — no batch machinery, no channel.
            let request = misses.pop().expect("one miss");
            let response = Arc::new(self.solver.execute(&request.query, scratch));
            if self.cache_enabled {
                self.cache.insert(&request.query, Arc::clone(&response), epoch);
            }
            {
                let mut telemetry = lane.telemetry.lock().unwrap();
                telemetry.stats.solves += 1;
                telemetry.stats.unique_solves += 1;
                telemetry.stats.absorb_unique(&response);
                telemetry.stats.absorb_delivered(&response);
            }
            self.finish(lane, request, response, false);
        } else {
            // A real micro-batch: shared dedup + bounded streamed
            // delivery through the query plane.
            let queries: Vec<Query> = misses.iter().map(|r| r.query.clone()).collect();
            let batch = QueryBatch::new(&queries);
            let mut slots: Vec<Option<Request>> = misses.into_iter().map(Some).collect();
            let stats =
                batch.stream_bounded(self.solver, self.stream_capacity, |slot, response| {
                    let request = slots[slot].take().expect("each slot delivered once");
                    let response = Arc::new(response);
                    if self.cache_enabled {
                        self.cache.insert(&request.query, Arc::clone(&response), epoch);
                    }
                    self.finish(lane, request, response, false);
                });
            lane.telemetry.lock().unwrap().stats.merge(&stats);
        }
    }

    /// Records latency + completion and sends the reply (a hung-up
    /// requester is ignored — the work is already done).
    fn finish(&self, lane: &Lane, request: Request, response: Arc<QueryResponse>, cached: bool) {
        let latency_us = request.submitted.elapsed().as_micros() as u64;
        {
            let mut telemetry = lane.telemetry.lock().unwrap();
            telemetry.latency.record(latency_us);
            telemetry.completions.push_back(Instant::now());
            if telemetry.completions.len() > RATE_WINDOW {
                telemetry.completions.pop_front();
            }
        }
        lane.completed.fetch_add(1, Ordering::SeqCst);
        let _ = request.reply.send(Reply { id: request.id, response, cached, latency_us });
    }
}

/// Runs a server over `solver` for the duration of `f`: lane workers
/// spawn on dedicated threads ([`rs_par::scope()`] — never pool workers,
/// which must stay free for the solves themselves), `f` drives traffic
/// through the [`Server`] handle, and when it returns the lanes close,
/// drain, and join. Returns `f`'s result plus the final statistics.
///
/// The solver is borrowed, not `'static`: a server can wrap a solver
/// built over a graph on the caller's stack, same as every other layer
/// of the workspace.
pub fn serve<R>(
    solver: &dyn SsspSolver,
    config: &ServerConfig,
    f: impl FnOnce(&Server<'_>) -> R,
) -> (R, ServerStats) {
    let server = Server::new(solver, config);
    let result = rs_par::scope(|s| {
        for lane in &server.lanes {
            for _ in 0..lane.config.workers.max(1) {
                s.spawn(|| server.run_worker(lane));
            }
        }
        let out = f(&server);
        server.shutdown();
        out
    });
    let stats = server.stats();
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A completion ring whose entries end `last_gap_us` before `now`,
    /// spaced `gap_us` apart (oldest first).
    fn ring(count: usize, gap_us: u64, last_gap_us: u64, now: Instant) -> VecDeque<Instant> {
        (0..count)
            .map(|i| {
                let back = last_gap_us + gap_us * (count - 1 - i) as u64;
                now - Duration::from_micros(back)
            })
            .collect()
    }

    #[test]
    fn idle_lane_gets_the_clamp_floor() {
        let now = Instant::now();
        assert_eq!(retry_hint(50, &VecDeque::new(), now), RETRY_MIN_US);
        let one = ring(1, 0, 10_000_000, now);
        assert_eq!(retry_hint(50, &one, now), RETRY_MIN_US, "one stale completion is no rate");
    }

    #[test]
    fn saturated_lane_hint_tracks_drain_rate_and_queue_depth() {
        let now = Instant::now();
        // 128 completions, 100µs apart, the last one just now: the lane
        // drains ~1 request per 100µs.
        let completions = ring(RATE_WINDOW, 100, 0, now);
        let shallow = retry_hint(8, &completions, now);
        let deep = retry_hint(64, &completions, now);
        // ~99µs/req × 9 ≈ 0.9ms; ~99µs/req × 65 ≈ 6.4ms.
        assert!((500..2_000).contains(&shallow), "shallow queue hint {shallow}µs");
        assert!((4_000..10_000).contains(&deep), "deep queue hint {deep}µs");
        assert!(deep > shallow, "a deeper queue must hint a longer back-off");
    }

    #[test]
    fn stalled_lane_hint_grows_with_the_stall_and_clamps() {
        let now = Instant::now();
        // Burst of completions that ended 2s ago: the window span against
        // `now` is dominated by the stall, so the hint hits the ceiling
        // instead of replaying the burst-era rate.
        let completions = ring(RATE_WINDOW, 100, 2_000_000, now);
        assert_eq!(retry_hint(64, &completions, now), RETRY_MAX_US);
    }

    #[test]
    fn hint_clamps_to_the_floor_for_a_fast_lane_and_tiny_queue() {
        let now = Instant::now();
        // 1µs per request, nothing queued: raw estimate is ~1µs — the
        // floor keeps the hint meaningful.
        let completions = ring(RATE_WINDOW, 1, 0, now);
        assert_eq!(retry_hint(0, &completions, now), RETRY_MIN_US);
    }
}
