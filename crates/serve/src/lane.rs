//! Admission lanes: per-shape quotas, queues, and SLO telemetry.
//!
//! Mixed traffic has mixed service times — a point-to-point lookup is
//! microseconds on a warm scratch, a many-to-many table is a full fan-out
//! over the compute pool. One shared queue would let a burst of tables
//! starve the cheap interactive traffic behind them (head-of-line
//! blocking). The server therefore admits each request into the **lane**
//! for its query shape: an independently bounded queue drained by the
//! lane's own workers, so each shape's concurrency quota, queue depth,
//! and latency distribution are its own.

use rs_core::{BatchStats, Query, QueryShape};
use rs_ds::LatencyHistogram;

/// The four query shapes — the lane key. `repr` doubles as the lane
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Shape {
    /// Full SSSP from one source.
    SingleSource = 0,
    /// One source, one goal.
    PointToPoint = 1,
    /// One source, a goal list.
    OneToMany = 2,
    /// A sources × goals distance table.
    ManyToMany = 3,
}

impl Shape {
    /// Number of shapes / lanes.
    pub const COUNT: usize = 4;

    /// All shapes, in lane-index order.
    pub const ALL: [Shape; Shape::COUNT] =
        [Shape::SingleSource, Shape::PointToPoint, Shape::OneToMany, Shape::ManyToMany];

    /// The lane a query is admitted to.
    pub fn of(query: &Query) -> Shape {
        match &query.shape {
            QueryShape::SingleSource { .. } => Shape::SingleSource,
            QueryShape::PointToPoint { .. } => Shape::PointToPoint,
            QueryShape::OneToMany { .. } => Shape::OneToMany,
            QueryShape::ManyToMany { .. } => Shape::ManyToMany,
        }
    }

    /// Stable lowercase name (JSON keys, log lines).
    pub fn name(self) -> &'static str {
        match self {
            Shape::SingleSource => "single_source",
            Shape::PointToPoint => "point_to_point",
            Shape::OneToMany => "one_to_many",
            Shape::ManyToMany => "many_to_many",
        }
    }
}

/// Per-lane tuning: how much traffic a shape may buffer and how many
/// dedicated workers drain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneConfig {
    /// Admission bound: requests buffered beyond the ones in service.
    /// A full queue rejects (with a retry hint) instead of growing.
    pub queue_depth: usize,
    /// Dedicated worker threads for this lane — the shape's concurrency
    /// quota: each worker answers one request at a time, so at most this
    /// many of the lane's solves run at once. The solves themselves still
    /// fan substeps over the shared compute pool.
    pub workers: usize,
}

impl LaneConfig {
    /// `queue_depth` / `workers` in one literal.
    pub const fn new(queue_depth: usize, workers: usize) -> Self {
        LaneConfig { queue_depth, workers }
    }
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig::new(64, 1)
    }
}

/// One lane's statistics at snapshot time ([`crate::ServerStats`]).
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Which lane.
    pub shape: Shape,
    /// The configuration it ran with.
    pub config: LaneConfig,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests turned away at admission (invalid query, queue full or
    /// server shut down).
    pub rejected: u64,
    /// Requests answered (cache hits + executed).
    pub completed: u64,
    /// Of `completed`, how many were served from the response cache.
    pub cache_hits: u64,
    /// Submit→reply latency distribution, in microseconds.
    pub latency: LatencyHistogram,
    /// The lane's query-plane ledger: `solves` counts requests answered
    /// by a solve *or* the cache (requested work); `executed_solves`
    /// counts physical solve rows — their gap is the work the cache
    /// saved.
    pub stats: BatchStats,
}

impl LaneSnapshot {
    /// p50 / p95 / p99 latency in microseconds (bucket resolution).
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        (self.latency.p50(), self.latency.p95(), self.latency.p99())
    }
}
