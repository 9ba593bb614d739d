//! Small helpers shared by the workloads: a uniform vertex draw, a stable
//! hash for query streams and answers, and exact sample quantiles.

use rand::rngs::StdRng;
use rand::RngExt;
use rs_core::solver::{Query, QueryShape};
use rs_graph::{Dist, VertexId};

/// A vertex drawn uniformly from `0..n`.
pub fn vertex(rng: &mut StdRng, n: usize) -> VertexId {
    rng.random_range(0..n) as VertexId
}

/// FNV-1a over 64-bit words: stable across runs and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of one distance array (the compact answer digest of a full solve).
pub fn hash_dists(dist: &[Dist]) -> u64 {
    let mut h = Fnv::default();
    h.word(dist.len() as u64);
    for &d in dist {
        h.word(d);
    }
    h.finish()
}

/// The byte encoding a query stream is hashed and compared by: per query
/// a shape tag, then its sources, then its goals, each list
/// length-prefixed.
pub fn encode_stream(queries: &[Query]) -> Vec<u8> {
    let mut out = Vec::new();
    for q in queries {
        out.push(match q.shape {
            QueryShape::SingleSource { .. } => 0,
            QueryShape::PointToPoint { .. } => 1,
            QueryShape::OneToMany { .. } => 2,
            QueryShape::ManyToMany { .. } => 3,
        });
        for list in [q.sources(), q.goals()] {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for v in list {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// FNV-1a of a stream's byte encoding.
pub fn stream_hash(queries: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for chunk in encode_stream(queries).chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(w));
    }
    h.finish()
}

/// Exact quantiles of a sample: sorts once, then interpolates linearly
/// between the two closest ranks. An empty sample reads 0 everywhere.
#[derive(Debug, Clone, Default)]
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let v = &self.0;
        match v.len() {
            0 => 0.0,
            1 => v[0],
            n => {
                let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Seconds → milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds → microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = Sample::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 2.5);
        assert_eq!(Sample::default().quantile(0.5), 0.0);
    }
}
