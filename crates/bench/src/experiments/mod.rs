//! One driver per paper table/figure; README's "Reproducing the paper"
//! section has the index.

pub mod bounds;
pub mod fig2;
pub mod p2p;
pub mod queries;
pub mod shard;
pub mod shortcuts;
pub mod steps;
pub mod substeps;
pub mod table1;

use std::path::PathBuf;

/// Shared experiment configuration (set from the `repro` CLI).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Divides the paper's vertex counts (32 → ~34k-vertex road networks;
    /// 1 → paper scale).
    pub scale_denom: usize,
    /// Sample sources per graph (paper: 1000; scaled default: 5).
    pub sources: usize,
    /// Where CSV outputs land.
    pub out_dir: PathBuf,
    /// Source-sampling seed.
    pub seed: u64,
    /// Sustained-load window for the `queries` experiment, in seconds
    /// (`--duration`).
    pub sustain_secs: f64,
    /// Open-loop target arrival rate for the sustained-load window, in
    /// requests/second (`--rate`).
    pub sustain_rate: f64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale_denom: 32,
            sources: 5,
            out_dir: PathBuf::from("results"),
            seed: 0x5eed,
            sustain_secs: 2.0,
            sustain_rate: 3_000.0,
        }
    }
}

impl ExpConfig {
    /// A tiny configuration for tests and criterion benches.
    pub fn tiny() -> Self {
        ExpConfig {
            scale_denom: 1024,
            sources: 2,
            sustain_secs: 0.4,
            sustain_rate: 1_500.0,
            ..Default::default()
        }
    }

    /// Largest ρ that is meaningful for a graph of `n` vertices: beyond
    /// `n/4` the "ball" covers most of the graph and the paper's regime
    /// (ρ ≪ n) no longer holds, so those rows are skipped.
    pub fn rho_usable(&self, rho: usize, n: usize) -> bool {
        rho <= n / 4
    }
}
