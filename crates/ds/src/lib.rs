//! Priority structures for the radius-stepping workspace.
//!
//! * [`DaryHeap`] is the 4-ary indexed decrease-key heap behind the
//!   sequential Dijkstra oracle and its point-to-point kernels. (The
//!   truncated-Dijkstra preprocessing, for which Lemma 4.2 specifies a
//!   Fibonacci heap, runs on `std::collections::BinaryHeap` instead; see
//!   README's "Reproducing the paper".)
//!
//! The radius-stepping engine itself needs no ordered structure: it keeps
//! its fringe as a packed vertex array (Algorithm 1), and ∆-stepping as a
//! solver is that engine at `r ≡ ∆`. The cyclic bucket queue of classic
//! ∆-stepping lives next to its one user, `rs_baselines::delta_stepping`.
//! Algorithm 2's two balanced BSTs are not implemented; README's
//! "Substitutions" says why.
//!
//! [`LatencyHistogram`] is serving telemetry rather than an algorithmic
//! structure: a fixed-footprint power-of-two-bucket histogram the server
//! loop uses for per-lane p50/p95/p99 latency SLOs.

pub mod dary;
pub mod histogram;

pub use dary::DaryHeap;
pub use histogram::LatencyHistogram;
