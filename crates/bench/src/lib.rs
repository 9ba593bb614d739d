//! Experiment harness reproducing the paper's evaluation (§5 + Appendix A).
//!
//! Every table and figure has a driver here (README's "Reproducing the
//! paper" section has the index); the `repro` binary runs them and prints
//! paper-style tables plus CSV files. Graphs are scaled-down stand-ins for
//! the paper's datasets (see [`suite`]): the paper's quantities that are
//! *ratios* (reduction factors, added-edge factors, steps-vs-ρ slopes) are
//! the reproduction targets, not absolute step counts at million-vertex
//! scale.
//!
//! ```text
//! cargo run --release -p rs_bench --bin repro -- --all --scale 16
//! ```

pub mod experiments;
pub mod paper;
pub mod suite;
pub mod table;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rs_graph::VertexId;

/// Deterministically samples `count` distinct source vertices.
pub fn sample_sources(n: usize, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = count.min(n);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.random_range(0..n as VertexId));
    }
    picked.into_iter().collect()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_distinct_and_deterministic() {
        let a = sample_sources(100, 10, 7);
        let b = sample_sources(100, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(a.iter().all(|&v| v < 100));
    }

    #[test]
    fn sources_clamped_to_n() {
        assert_eq!(sample_sources(3, 10, 1).len(), 3);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
