//! Graph serialisation: a fast binary format for caching generated
//! suites between experiment runs and embedding a graph in a saved
//! preprocessing.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::CsrGraph;

const BIN_MAGIC: &[u8; 4] = b"RSG1";

/// Writes `g` in the fast binary format.
pub fn write_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_binary_to(g, &mut w)?;
    w.flush()
}

/// Writer-based form of [`write_binary`], for embedding a graph inside a
/// larger file (e.g. a saved preprocessing).
pub fn write_binary_to<W: Write>(g: &CsrGraph, w: &mut W) -> io::Result<()> {
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_arcs() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    for &wt in g.raw_weights() {
        w.write_all(&wt.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`].
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    read_binary_from(&mut BufReader::new(File::open(path)?))
}

/// Reader-based form of [`read_binary`].
///
/// Rejects with [`io::ErrorKind::InvalidData`], never a panic, any file
/// that does not describe a graph this workspace could have built:
/// malformed offsets, an out-of-range target, a zero weight, or arcs that
/// break [`CsrGraph::check_invariants`] (unsorted or duplicate neighbours,
/// self-loops, a missing or differently weighted reverse arc).
pub fn read_binary_from<R: Read>(r: &mut R) -> io::Result<CsrGraph> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(bad("bad magic".into()));
    }
    let mut u64buf = [0u8; 8];
    let mut read_u64 = |r: &mut R| -> io::Result<u64> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let n = read_u64(r)? as usize;
    let arcs = read_u64(r)? as usize;
    // Header counts are untrusted: cap the up-front reservations and let a
    // short file end the reads with `UnexpectedEof`.
    let mut offsets = Vec::with_capacity(n.saturating_add(1).min(1 << 20));
    for _ in 0..=n {
        offsets.push(read_u64(r)? as usize);
    }
    let mut u32buf = [0u8; 4];
    let mut targets = Vec::with_capacity(arcs.min(1 << 20));
    for _ in 0..arcs {
        r.read_exact(&mut u32buf)?;
        targets.push(u32::from_le_bytes(u32buf));
    }
    let mut weights = Vec::with_capacity(arcs.min(1 << 20));
    for _ in 0..arcs {
        r.read_exact(&mut u32buf)?;
        weights.push(u32::from_le_bytes(u32buf));
    }
    // The checks `from_parts` would panic on, as errors.
    if offsets[0] != 0 || offsets[n] != arcs || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("malformed offsets".into()));
    }
    if let Some(&t) = targets.iter().find(|&&t| t as usize >= n) {
        return Err(bad(format!("target {t} out of range for {n} vertices")));
    }
    if weights.contains(&0) {
        return Err(bad("zero edge weight".into()));
    }
    let g = CsrGraph::from_parts(offsets, targets, weights);
    g.check_invariants().map_err(bad)?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, weights, WeightModel};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rs_graph_io_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn binary_roundtrip() {
        let g = weights::reweight(&gen::scale_free(300, 3, 1), WeightModel::paper_weighted(), 9);
        let path = temp_path("roundtrip.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, g2);
    }

    /// Hand-writes a binary file from raw parts, bypassing `CsrGraph`.
    fn raw_binary(n: u64, offsets: &[u64], targets: &[u32], weights: &[u32]) -> Vec<u8> {
        let mut bytes = BIN_MAGIC.to_vec();
        bytes.extend(n.to_le_bytes());
        bytes.extend((targets.len() as u64).to_le_bytes());
        offsets.iter().for_each(|o| bytes.extend(o.to_le_bytes()));
        targets.iter().for_each(|t| bytes.extend(t.to_le_bytes()));
        weights.iter().for_each(|w| bytes.extend(w.to_le_bytes()));
        bytes
    }

    #[test]
    fn binary_rejects_graphs_no_builder_makes() {
        let cases: [(&str, Vec<u8>); 8] = [
            ("valid edge", raw_binary(2, &[0, 1, 2], &[1, 0], &[3, 3])),
            ("target out of range", raw_binary(2, &[0, 1, 2], &[1, 7], &[3, 3])),
            ("offsets past the arcs", raw_binary(2, &[0, 1, 5], &[1, 0], &[3, 3])),
            ("decreasing offsets", raw_binary(2, &[0, 2, 1], &[1, 0], &[3, 3])),
            ("zero weight", raw_binary(2, &[0, 1, 2], &[1, 0], &[0, 0])),
            ("asymmetric arc", raw_binary(2, &[0, 1, 1], &[1], &[4])),
            ("self-loop", raw_binary(2, &[0, 1, 1], &[0], &[4])),
            ("unsorted neighbours", raw_binary(3, &[0, 2, 3, 4], &[2, 1, 0, 0], &[1; 4])),
        ];
        let path = temp_path("invalid.bin");
        for (label, bytes) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = read_binary(&path).map(|g| g.num_arcs());
            if label == "valid edge" {
                assert_eq!(err.unwrap(), 2, "{label}");
            } else {
                assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData, "{label}");
            }
        }
        // A header claiming 2^40 vertices reserves little and fails on
        // the short read instead.
        std::fs::write(&path, raw_binary(1 << 40, &[0], &[], &[])).unwrap();
        assert_eq!(read_binary(&path).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = temp_path("badmagic.bin");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
