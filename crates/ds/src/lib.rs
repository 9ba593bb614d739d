//! Priority structures for the radius-stepping workspace.
//!
//! The paper leans on two families of structures:
//!
//! * **A decrease-key heap** for sequential Dijkstra: [`DaryHeap`], the
//!   4-ary indexed heap behind the Dijkstra oracle and its point-to-point
//!   kernels. (The truncated-Dijkstra preprocessing, for which Lemma 4.2
//!   specifies a Fibonacci heap, runs on `std::collections::BinaryHeap`
//!   instead; see README's "Reproducing the paper".)
//! * **Ordered sets with split / union / difference** for the efficient
//!   Algorithm-2 engine (§3.3 maintains the fringe in two balanced BSTs
//!   `Q` and `R`): [`Treap`] is a join-based treap with size augmentation
//!   and optionally parallel union/difference, following the join-based
//!   ordered-set line of work the paper cites.
//!
//! [`BucketQueue`] is the cyclic bucket array classic ∆-stepping uses.
//!
//! [`LatencyHistogram`] is serving telemetry rather than an algorithmic
//! structure: a fixed-footprint power-of-two-bucket histogram the server
//! loop uses for per-lane p50/p95/p99 latency SLOs.

pub mod bucket;
pub mod dary;
pub mod histogram;
pub mod treap;

pub use bucket::BucketQueue;
pub use dary::DaryHeap;
pub use histogram::LatencyHistogram;
pub use treap::{Treap, TreapArena};
