//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-layer self time computed from them.
//!
//! A span has a name, the layer it times, start and end (nanoseconds since
//! the tracer's epoch), its parent span and a request id. A disabled
//! tracer records nothing, so untraced runs pay one branch per call site.
//! Spans stay in memory and are written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

/// A span recorder. Spans measured on other threads (a reply's receipt)
/// are added afterwards with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_epoch(enabled, Instant::now())
    }

    pub fn with_epoch(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, layer: &'static str, request: u64) -> usize {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, layer, start_ns: now, end_ns: now, parent, request });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`).
    pub fn close(&mut self, id: usize) {
        if !self.enabled || id == NO_PARENT {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, layer, request);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (e.g. a reply's due → receipt
    /// interval) under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: usize,
    ) -> usize {
        if !self.enabled {
            return NO_PARENT;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, layer, start_ns, end_ns, parent, request });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in seconds: each span's duration minus
    /// the part of its interval its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array (one object per line).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == NO_PARENT { -1 } else { sp.parent as i64 };
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                sp.name, sp.layer, sp.start_ns, sp.end_ns, sp.request
            );
            s.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::with_epoch(true, t0);
        let root = tr.record("root", "a", 0, at(0), at(10), NO_PARENT);
        tr.record("kid", "b", 0, at(2), at(5), root);
        tr.record("kid", "b", 0, at(4), at(6), root);
        let by = tr.self_time_by_layer();
        assert!((by["a"] - 0.006).abs() < 1e-9, "{by:?}");
        assert!((by["b"] - 0.005).abs() < 1e-9, "{by:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.time("x", "a", 0, || 3);
        assert_eq!(v, 3);
        assert!(tr.spans().is_empty());
    }
}
