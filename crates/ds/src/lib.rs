//! Priority structures for the radius-stepping workspace.
//!
//! * [`DaryHeap`] is the 4-ary indexed decrease-key heap behind the
//!   sequential Dijkstra oracle and its point-to-point kernels. (The
//!   truncated-Dijkstra preprocessing, for which Lemma 4.2 specifies a
//!   Fibonacci heap, runs on `std::collections::BinaryHeap` instead; see
//!   README's "Reproducing the paper".)
//! * [`BucketQueue`] is the cyclic bucket array classic ∆-stepping uses.
//!
//! The radius-stepping engine itself needs no ordered structure: it keeps
//! its fringe as a packed vertex array (Algorithm 1). Algorithm 2's two
//! balanced BSTs are not implemented; README's "Substitutions" says why.
//!
//! [`LatencyHistogram`] is serving telemetry rather than an algorithmic
//! structure: a fixed-footprint power-of-two-bucket histogram the server
//! loop uses for per-lane p50/p95/p99 latency SLOs.

pub mod bucket;
pub mod dary;
pub mod histogram;

pub use bucket::BucketQueue;
pub use dary::DaryHeap;
pub use histogram::LatencyHistogram;
