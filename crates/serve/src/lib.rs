//! Production serving layer over the radius-stepping query plane.
//!
//! The paper's motivating scenario (§5.4) is a *server*: preprocess a
//! graph once, then answer shortest-path queries from many sources at
//! low latency. Earlier layers built the solver half — unified
//! [`rs_core::Query`] execution on warm, reusable scratch. This crate is
//! the serving half, three pillars on top:
//!
//! * **Backpressure** ([`queue`], [`lane`]) — every buffer between a
//!   front-end and a solver is bounded. Admission queues reject when
//!   full (with a retry hint), and each lane's `workers` count caps how
//!   many of its solves run at once: a worker answers one request at a
//!   time on its own warm scratch. Peak in-flight memory is a
//!   configuration, not a function of load.
//! * **Response cache** ([`cache`]) — epoch-versioned, capacity-bounded,
//!   keyed on [`rs_core::Query::canonical`] so permuted-goal and
//!   duplicate requests share one entry.
//!   [`Server::invalidate_epoch`] is the O(1) choke point a future
//!   `update_weights` calls.
//! * **Admission lanes + SLOs** ([`lane`], [`server`]) — per-shape lanes
//!   with their own queues, worker quotas, and
//!   [`rs_ds::LatencyHistogram`] p50/p95/p99 telemetry, so a burst of
//!   many-to-many tables cannot head-of-line-block interactive
//!   point-to-point traffic. [`ServerStats`] rolls every lane ledger
//!   plus cache counters into one snapshot.
//!
//! Entry point: [`serve`] — scoped, like every parallel construct in the
//! workspace: lane workers live on dedicated threads for exactly the
//! closure's duration, the solver is borrowed rather than `'static`, and
//! shutdown is drain-then-join (every admitted request is answered).
//!
//! ```
//! use rs_baselines::solver::BuildSolver;
//! use rs_core::{Query, SolverBuilder};
//! use rs_serve::{serve, ServerConfig};
//!
//! let g = rs_graph::gen::grid2d(8, 8);
//! let solver = SolverBuilder::new(&g).build();
//! let (ids, stats) = serve(&*solver, &ServerConfig::default(), |server| {
//!     let (tx, rx) = std::sync::mpsc::channel();
//!     let a = server.submit(Query::point_to_point(0, 63), tx.clone()).unwrap();
//!     let b = server.submit(Query::point_to_point(0, 63), tx).unwrap(); // may hit the cache
//!     let first = rx.recv().unwrap();
//!     let second = rx.recv().unwrap();
//!     assert_eq!(first.response.dist()[63], second.response.dist()[63]);
//!     (a, b)
//! });
//! assert_ne!(ids.0, ids.1, "every submit gets its own ticket");
//! assert_eq!(stats.completed(), 2);
//! assert_eq!(stats.cache.hits + stats.cache.misses, 2);
//! ```

pub mod cache;
pub mod lane;
pub mod queue;
pub mod server;

pub use cache::{CacheStats, ResponseCache};
pub use lane::{LaneConfig, LaneSnapshot, Shape};
pub use queue::{BoundedQueue, PushError};
pub use server::{serve, Rejection, Reply, Server, ServerConfig, ServerStats};
