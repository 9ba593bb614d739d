//! Reusable per-solve scratch state for batch workloads.
//!
//! The paper's motivating use case (§5.4) runs SSSP "from multiple
//! sources" over one preprocessed graph; a serving system runs it from
//! millions. Allocating a fresh tentative-distance array, membership
//! bitsets, frontier buffers, a heap and a bucket queue for every source is
//! exactly the cost that dominates small queries — so [`SolverScratch`]
//! owns all of it once and every solver re-enters through
//! [`crate::solver::SsspSolver::execute`].
//!
//! Reset costs per solve, after warmup:
//!
//! * the tentative-distance array is an [`EpochMinArray`] — epoch-based
//!   reset, **O(1)** (stale entries read as `∞` until overwritten), not an
//!   `O(n)` refill;
//! * membership bitsets are cleared wordwise (64 vertices per word, a
//!   memset 64× denser than the distance array they shadow);
//! * vertex buffers are `clear()`ed (length reset, capacity kept);
//! * heaps and the bucket queue are `clear()`ed through the `rs_ds`
//!   capacity-preserving contract.
//!
//! Nothing about a previous solve can leak into the next one: the epoch
//! advance plus the wordwise clears restore every structure to its initial
//! logical state, and the conformance suite interleaves solvers on one
//! scratch to prove it bit-identical with fresh-solver runs.
//!
//! What is *not* reused is the result itself: every
//! [`crate::SsspResult`] owns its `dist` vector, so one `O(n)` output copy
//! per solve is inherent to the API. The "no per-source distance-array
//! allocation" guarantee is about the *working* arrays, and is surfaced as
//! [`crate::StepStats::scratch_reused`] plus the [`SolverScratch::solves`]
//! / [`SolverScratch::reuses`] counters.
//!
//! The epoch encoding caps finite distances at 2⁴⁸ − 1
//! ([`rs_par::epoch::MAX_STORABLE`]); with `u32` edge weights this allows
//! shortest paths of ~65 000 maximum-weight hops, far beyond every graph
//! in the workspace, and debug builds assert the cap.

use rs_ds::{BucketQueue, DaryHeap};
use rs_graph::{CsrGraph, Dist, VertexId};
use rs_par::{AtomicBitset, EpochMinArray};

/// One successful relaxation recorded for inline parent derivation:
/// `(vertex, candidate distance, relaxing predecessor)`. A claim is applied
/// (`parent[v] = u`) only when the candidate still equals `dist[v]` at the
/// end of the substep that produced it — i.e. when `u` turned out to be the
/// winning writer.
pub type ParentClaim = (VertexId, Dist, VertexId);

/// Release-mode guard for the epoch encoding's 48-bit finite range: every
/// solver that stores tentative distances in the scratch's
/// [`EpochMinArray`] calls this with the graph's
/// [`CsrGraph::distance_bound`] before solving. Without it, a graph whose
/// distances could exceed 2⁴⁸ − 1 would silently drop relaxations (the
/// write-min treats over-range candidates as `∞`) and report wrong
/// results; failing loudly here turns that into a panic. The bound is
/// `n · L + 1`, i.e. ~65 000 maximum-`u32`-weight hops — far beyond every
/// graph in the workspace.
pub fn assert_distance_range(g: &CsrGraph) {
    assert!(
        g.distance_bound() <= rs_par::epoch::MAX_STORABLE,
        "graph distance bound {} exceeds the scratch epoch array's 48-bit range {}; \
         rescale the weights",
        g.distance_bound(),
        rs_par::epoch::MAX_STORABLE,
    );
}

/// Borrowed per-solve working state, produced by [`SolverScratch::view`].
///
/// The atomic pieces are shared references (they are written concurrently
/// inside substeps); the plain buffers are exclusive.
pub struct ScratchView<'a> {
    /// Tentative distances, logically all-`∞` at view time (epoch-reset).
    pub dist: &'a EpochMinArray,
    /// Settled / visited flags, cleared at view time.
    pub settled: &'a AtomicBitset,
    /// Engine-specific membership flags, cleared at view time.
    pub mark_a: &'a AtomicBitset,
    /// Engine-specific membership flags, cleared at view time.
    pub mark_b: &'a AtomicBitset,
    /// Engine-specific membership flags, cleared at view time.
    pub mark_c: &'a AtomicBitset,
    /// Reusable vertex buffer (emptied at view time, capacity kept).
    pub verts_a: &'a mut Vec<VertexId>,
    /// Reusable vertex buffer (emptied at view time, capacity kept).
    pub verts_b: &'a mut Vec<VertexId>,
    /// Reusable vertex buffer (emptied at view time, capacity kept) — the
    /// engines' per-step `dirty` set, hoisted out of the substep loop.
    pub verts_c: &'a mut Vec<VertexId>,
    /// Reusable vertex buffer (emptied at view time, capacity kept) — the
    /// engines' per-substep `next_dirty` set.
    pub verts_d: &'a mut Vec<VertexId>,
    /// Reusable vertex buffer (emptied at view time, capacity kept) — the
    /// frontier engine's per-step fringe additions.
    pub verts_e: &'a mut Vec<VertexId>,
    /// Reusable `(vertex, distance)` buffer (emptied at view time) — the
    /// synchronous-substep snapshot, hoisted out of the substep loop.
    pub pairs: &'a mut Vec<(VertexId, Dist)>,
    /// Reusable [`ParentClaim`] buffer (emptied at view time) — inline
    /// parent recording for goal-bounded `want_paths` queries.
    pub claims: &'a mut Vec<ParentClaim>,
}

/// The reverse half of a bidirectional point-to-point solve, produced by
/// [`SolverScratch::view_bidir`] next to the ordinary [`ScratchView`]. Kept
/// out of [`SolverScratch::view`] so forward-only solvers never materialise
/// (or pay the reset of) a second distance array.
pub struct ReverseScratch<'a> {
    /// Reverse tentative distances (from the goal over the transposed
    /// graph), logically all-`∞` at view time (epoch-reset).
    pub dist: &'a EpochMinArray,
    /// Reverse settled flags, cleared at view time.
    pub settled: &'a AtomicBitset,
}

/// Reusable working state for any [`crate::solver::SsspSolver`].
///
/// Protocol (what every [`crate::solver::SsspSolver::execute`]
/// implementation does):
///
/// 1. [`SolverScratch::begin`] with the graph's vertex count;
/// 2. borrow what the algorithm needs — [`SolverScratch::view`] for the
///    atomic arrays/buffers, [`SolverScratch::checkout_heap`] /
///    [`SolverScratch::checkout_bucket`] for the owned structures (returned
///    with the matching `return_*` call);
/// 3. [`SolverScratch::finish`], whose return value — `true` iff the solve
///    ran entirely on pre-allocated state — lands in
///    [`crate::StepStats::scratch_reused`].
///
/// A scratch adapts to whatever is thrown at it: bigger graphs or a
/// different algorithm family trigger one reallocation (a "cold" solve)
/// and everything after runs warm.
#[derive(Debug, Default)]
pub struct SolverScratch {
    n: usize,
    in_solve: bool,
    allocated: bool,
    solves: u64,
    reuses: u64,
    dist: EpochMinArray,
    settled: AtomicBitset,
    mark_a: AtomicBitset,
    mark_b: AtomicBitset,
    mark_c: AtomicBitset,
    verts_a: Vec<VertexId>,
    verts_b: Vec<VertexId>,
    verts_c: Vec<VertexId>,
    verts_d: Vec<VertexId>,
    verts_e: Vec<VertexId>,
    pairs: Vec<(VertexId, Dist)>,
    claims: Vec<ParentClaim>,
    dist_rev: EpochMinArray,
    mark_d: AtomicBitset,
    heap: Option<DaryHeap>,
    heap_rev: Option<DaryHeap>,
    bucket: Option<BucketQueue>,
}

impl SolverScratch {
    /// An empty scratch; structures materialise on first use.
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Pre-sizes the shared working structures for graphs of `g`'s vertex
    /// count — the tentative-distance epoch array and all bitsets — so a
    /// latency-critical *first* query runs
    /// without the cold allocation spike and reports
    /// [`crate::StepStats::scratch_reused`] `= true`. The batch layer
    /// calls this (through `SsspSolver::warm_scratch`) when creating
    /// per-worker scratches; algorithm-specific structures — the
    /// engines' frontier/substep buffers
    /// ([`SolverScratch::warm_engine_buffers`]), the heap, the bucket
    /// queue — are warmed by the solvers' own
    /// `warm_scratch` overrides (or sized on first use), so a Dijkstra or
    /// ∆-stepping worker never pays for buffers only the engines read.
    pub fn warm_up(&mut self, g: &CsrGraph) {
        self.begin(g.num_vertices());
        let _ = self.view();
        // Warming is not a solve: undo begin()'s bookkeeping.
        self.in_solve = false;
        self.solves -= 1;
    }

    /// The lean counterpart of [`SolverScratch::warm_up`]: pre-sizes only
    /// the visited bitset — all that the unweighted engine
    /// ([`SolverScratch::visited_set`]) ever touches — so its per-worker
    /// scratches skip the 16-bytes-per-vertex distance structures
    /// entirely.
    pub fn warm_up_lean(&mut self, g: &CsrGraph) {
        self.begin(g.num_vertices());
        let _ = self.visited_set();
        self.in_solve = false;
        self.solves -= 1;
    }

    /// Reserves full-`n` capacity in every engine-side vertex/pair/claim
    /// buffer — the engine half of [`SolverScratch::warm_up`], called by
    /// the radius-stepping solvers' `warm_scratch`. The vertex sets are
    /// bounded by `n`, so this covers them outright; the claims
    /// log can exceed `n` in one substep on dense graphs (one entry per
    /// *successful* relaxation), in which case it grows once to its
    /// high-water capacity and stays there — amortised growth the scratch
    /// counters deliberately do not flag (like all `Vec` capacity growth
    /// here; the counters track the O(n) structures and the checked-out
    /// heap/bucket).
    pub fn warm_engine_buffers(&mut self, n: usize) {
        fn to_capacity<T>(v: &mut Vec<T>, n: usize) {
            v.reserve(n.saturating_sub(v.len()));
        }
        to_capacity(&mut self.verts_a, n);
        to_capacity(&mut self.verts_b, n);
        to_capacity(&mut self.verts_c, n);
        to_capacity(&mut self.verts_d, n);
        to_capacity(&mut self.verts_e, n);
        to_capacity(&mut self.pairs, n);
        to_capacity(&mut self.claims, n);
    }

    /// Opens a solve over `n` vertices. Must precede any borrow.
    pub fn begin(&mut self, n: usize) {
        debug_assert!(!self.in_solve, "begin() without finish()");
        self.n = n;
        self.in_solve = true;
        self.allocated = false;
        self.solves += 1;
    }

    /// Closes the solve; returns `true` iff no scratch-managed allocation
    /// happened since [`SolverScratch::begin`] (the value of
    /// [`crate::StepStats::scratch_reused`]).
    pub fn finish(&mut self) -> bool {
        debug_assert!(self.in_solve, "finish() without begin()");
        self.in_solve = false;
        let reused = !self.allocated;
        self.reuses += u64::from(reused);
        reused
    }

    /// Solves opened so far (counts the one in flight).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Solves that completed without any scratch-managed allocation.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Materialises and resets only the settled/visited bitset — the lean
    /// path for solvers that need nothing else (the unweighted engine,
    /// i.e. BFS), so a BFS-only scratch never pays for the 16-bytes-per-
    /// vertex distance structures of [`SolverScratch::view`].
    pub fn visited_set(&mut self) -> &AtomicBitset {
        debug_assert!(self.in_solve, "visited_set() outside begin()/finish()");
        if self.settled.len() < self.n {
            self.settled = AtomicBitset::new(self.n);
            self.allocated = true;
        } else {
            self.settled.clear_all();
        }
        &self.settled
    }

    /// Materialises and resets the shared working state for this solve.
    /// Call at most once per [`SolverScratch::begin`] (each call resets).
    pub fn view(&mut self) -> ScratchView<'_> {
        self.reset_forward();
        ScratchView {
            dist: &self.dist,
            settled: &self.settled,
            mark_a: &self.mark_a,
            mark_b: &self.mark_b,
            mark_c: &self.mark_c,
            verts_a: &mut self.verts_a,
            verts_b: &mut self.verts_b,
            verts_c: &mut self.verts_c,
            verts_d: &mut self.verts_d,
            verts_e: &mut self.verts_e,
            pairs: &mut self.pairs,
            claims: &mut self.claims,
        }
    }

    /// Materialises and resets the working state of a bidirectional
    /// point-to-point solve: the ordinary forward [`ScratchView`] plus the
    /// reverse distance array and settled bitset. Same contract as
    /// [`SolverScratch::view`] (at most once per `begin`, each call
    /// resets); the two halves borrow disjoint fields.
    pub fn view_bidir(&mut self) -> (ScratchView<'_>, ReverseScratch<'_>) {
        self.reset_forward();
        let n = self.n;
        self.allocated |= self.dist_rev.ensure(n);
        self.dist_rev.advance();
        if self.mark_d.len() < n {
            self.mark_d = AtomicBitset::new(n);
            self.allocated = true;
        } else {
            self.mark_d.clear_all();
        }
        (
            ScratchView {
                dist: &self.dist,
                settled: &self.settled,
                mark_a: &self.mark_a,
                mark_b: &self.mark_b,
                mark_c: &self.mark_c,
                verts_a: &mut self.verts_a,
                verts_b: &mut self.verts_b,
                verts_c: &mut self.verts_c,
                verts_d: &mut self.verts_d,
                verts_e: &mut self.verts_e,
                pairs: &mut self.pairs,
                claims: &mut self.claims,
            },
            ReverseScratch { dist: &self.dist_rev, settled: &self.mark_d },
        )
    }

    /// The shared reset behind [`SolverScratch::view`] /
    /// [`SolverScratch::view_bidir`].
    fn reset_forward(&mut self) {
        debug_assert!(self.in_solve, "view() outside begin()/finish()");
        let n = self.n;
        self.allocated |= self.dist.ensure(n);
        self.dist.advance();
        for bits in [&mut self.settled, &mut self.mark_a, &mut self.mark_b, &mut self.mark_c] {
            if bits.len() < n {
                *bits = AtomicBitset::new(n);
                self.allocated = true;
            } else {
                bits.clear_all();
            }
        }
        self.verts_a.clear();
        self.verts_b.clear();
        self.verts_c.clear();
        self.verts_d.clear();
        self.verts_e.clear();
        self.pairs.clear();
        self.claims.clear();
    }

    /// Pre-sizes the reverse distance array and settled bitset (plus the
    /// forward structures, like [`SolverScratch::warm_up`]) so a solver
    /// configured for bidirectional point-to-point runs its first warm
    /// query allocation-free.
    pub fn warm_up_bidir(&mut self, g: &CsrGraph) {
        self.begin(g.num_vertices());
        let _ = self.view_bidir();
        // Warming is not a solve: undo begin()'s bookkeeping.
        self.in_solve = false;
        self.solves -= 1;
    }

    /// Checks out a cleared heap covering the current vertex count,
    /// reusing the cached one when its capacity fits. Return it with
    /// [`SolverScratch::return_heap`] so the next solve can reuse it.
    pub fn checkout_heap(&mut self) -> DaryHeap {
        debug_assert!(self.in_solve, "checkout_heap() outside begin()/finish()");
        checkout_slot(&mut self.heap, self.n, &mut self.allocated)
    }

    /// Returns a heap checked out with [`SolverScratch::checkout_heap`].
    pub fn return_heap(&mut self, heap: DaryHeap) {
        self.heap = Some(heap);
    }

    /// Checks out the second cleared heap — the reverse frontier of a
    /// bidirectional solve, cached in its own slot so both directions run
    /// warm. Return it with [`SolverScratch::return_heap_rev`].
    pub fn checkout_heap_rev(&mut self) -> DaryHeap {
        debug_assert!(self.in_solve, "checkout_heap_rev() outside begin()/finish()");
        checkout_slot(&mut self.heap_rev, self.n, &mut self.allocated)
    }

    /// Returns a heap checked out with
    /// [`SolverScratch::checkout_heap_rev`].
    pub fn return_heap_rev(&mut self, heap: DaryHeap) {
        self.heap_rev = Some(heap);
    }

    /// Checks out a cleared ∆-stepping bucket queue compatible with
    /// `(current n, delta, max_weight)`, reusing the cached one when it
    /// fits. Return it with [`SolverScratch::return_bucket`].
    pub fn checkout_bucket(&mut self, delta: u64, max_weight: u64) -> BucketQueue {
        debug_assert!(self.in_solve, "checkout_bucket() outside begin()/finish()");
        match self.bucket.take() {
            Some(mut q) if q.fits(self.n, delta, max_weight) => {
                q.clear();
                q
            }
            _ => {
                self.allocated = true;
                BucketQueue::new(self.n, delta, max_weight)
            }
        }
    }

    /// Returns a bucket queue checked out with
    /// [`SolverScratch::checkout_bucket`].
    pub fn return_bucket(&mut self, queue: BucketQueue) {
        self.bucket = Some(queue);
    }

    /// Pre-sizes the cached heap slot for graphs of `n` vertices without
    /// opening a solve — the heap half of [`SolverScratch::warm_up`],
    /// called by the `warm_scratch` of solvers that run a heap-based
    /// kernel (Dijkstra, and the point-to-point kernels).
    pub fn warm_heap(&mut self, n: usize) {
        warm_slot(&mut self.heap, n);
    }

    /// Pre-sizes the reverse heap slot — the bidirectional counterpart of
    /// [`SolverScratch::warm_heap`].
    pub fn warm_heap_rev(&mut self, n: usize) {
        warm_slot(&mut self.heap_rev, n);
    }

    /// Pre-sizes the cached bucket queue without opening a solve — the
    /// ∆-stepping half of [`SolverScratch::warm_up`].
    pub fn warm_bucket(&mut self, n: usize, delta: u64, max_weight: u64) {
        let queue = match self.bucket.take() {
            Some(q) if q.fits(n, delta, max_weight) => q,
            _ => BucketQueue::new(n, delta, max_weight),
        };
        self.bucket = Some(queue);
    }
}

/// Takes the heap out of `slot`, cleared, if it covers `n` items; else
/// allocates a fresh one and flags the solve cold.
fn checkout_slot(slot: &mut Option<DaryHeap>, n: usize, allocated: &mut bool) -> DaryHeap {
    match slot.take() {
        Some(mut h) if h.capacity() >= n => {
            h.clear();
            h
        }
        _ => {
            *allocated = true;
            DaryHeap::with_capacity(n)
        }
    }
}

/// Leaves a heap covering `n` items in `slot`.
fn warm_slot(slot: &mut Option<DaryHeap>, n: usize) {
    if slot.as_ref().is_none_or(|h| h.capacity() < n) {
        *slot = Some(DaryHeap::with_capacity(n));
    }
}

/// How many idle scratches a [`ScratchPool`] retains by default: enough
/// for every pool worker on any machine this workspace targets, small
/// enough that a burst never pins more than a few dozen working sets.
pub const DEFAULT_POOL_RETAIN: usize = 32;

/// A concurrent free-list of [`SolverScratch`] instances.
///
/// [`crate::execute_many_to_many`] fans table rows over the compute pool
/// with one scratch per pool task; before pooling, every *table* paid
/// that creation (and warm-up allocation) again even when an identical
/// table had just run. The pool closes the loop: [`ScratchPool::checkout`]
/// hands out a previously-used scratch when one is idle (its structures
/// already sized — the solver's `warm_scratch` then verifies fit in O(1)
/// per structure), and the [`PooledScratch`] guard returns it on drop.
/// At most [`ScratchPool::retain`] idle scratches are kept; returns
/// beyond that are dropped, bounding idle memory.
///
/// Counters: [`ScratchPool::created`] increments only when a checkout
/// finds the free list empty — under a steady stream of tables it
/// stabilises at the peak task concurrency, which is the observable
/// "repeated tables stop allocating" guarantee the serving layer tests.
pub struct ScratchPool {
    free: std::sync::Mutex<Vec<SolverScratch>>,
    retain: usize,
    created: std::sync::atomic::AtomicU64,
    reused: std::sync::atomic::AtomicU64,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl ScratchPool {
    /// An empty pool retaining up to [`DEFAULT_POOL_RETAIN`] idle
    /// scratches. `const`, so a pool can live in a `static`.
    pub const fn new() -> Self {
        ScratchPool::with_retain(DEFAULT_POOL_RETAIN)
    }

    /// An empty pool retaining up to `retain` idle scratches (0 disables
    /// reuse entirely — every checkout creates, every return drops).
    pub const fn with_retain(retain: usize) -> Self {
        ScratchPool {
            free: std::sync::Mutex::new(Vec::new()),
            retain,
            created: std::sync::atomic::AtomicU64::new(0),
            reused: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Takes a scratch from the free list, or creates one if none is
    /// idle. The guard returns it automatically on drop.
    pub fn checkout(&self) -> PooledScratch<'_> {
        use std::sync::atomic::Ordering;
        let recycled = self.free.lock().unwrap().pop();
        let scratch = match recycled {
            Some(s) => {
                // ORDERING: created/reused are advisory telemetry counters
                // — nothing is published through them and readers only want
                // eventually-consistent totals.
                self.reused.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                // ORDERING: advisory telemetry (see above).
                self.created.fetch_add(1, Ordering::Relaxed);
                SolverScratch::new()
            }
        };
        PooledScratch { scratch: Some(scratch), pool: self }
    }

    /// Scratches created because the free list was empty at checkout.
    pub fn created(&self) -> u64 {
        // ORDERING: advisory telemetry read (see checkout).
        self.created.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Checkouts served from the free list.
    pub fn reused(&self) -> u64 {
        // ORDERING: advisory telemetry read (see checkout).
        self.reused.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Idle scratches currently retained.
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap().len()
    }

    /// The retention cap this pool was built with.
    pub fn retain(&self) -> usize {
        self.retain
    }

    fn put_back(&self, scratch: SolverScratch) {
        let mut free = self.free.lock().unwrap();
        if free.len() < self.retain {
            free.push(scratch);
        }
        // else: drop — the pool never holds more than `retain` working sets.
    }
}

/// Checkout guard for [`ScratchPool`]: derefs to [`SolverScratch`] and
/// returns the scratch to its pool on drop (subject to the retention
/// cap). A panicking solve drops the guard mid-solve; the scratch goes
/// back dirty, which is safe — `begin` resets all logical state.
pub struct PooledScratch<'p> {
    scratch: Option<SolverScratch>,
    pool: &'p ScratchPool,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = SolverScratch;
    fn deref(&self) -> &SolverScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut SolverScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.put_back(scratch);
        }
    }
}

/// The process-wide pool behind [`crate::execute_many_to_many`]: every
/// table query in the process draws its per-task scratches here, so
/// repeated tables — a serving workload's steady state — stop creating
/// scratches once the pool has seen the peak task concurrency.
pub fn global_scratch_pool() -> &'static ScratchPool {
    static POOL: ScratchPool = ScratchPool::new();
    &POOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm() {
        let mut s = SolverScratch::new();
        s.begin(100);
        let view = s.view();
        view.dist.store(3, 7);
        assert!(view.settled.set(5));
        view.verts_a.push(9);
        assert!(!s.finish(), "first solve allocates");
        assert_eq!((s.solves(), s.reuses()), (1, 0));

        s.begin(100);
        let view = s.view();
        assert_eq!(view.dist.load(3), u64::MAX, "epoch reset");
        assert!(!view.settled.get(5), "bitset cleared");
        assert!(view.verts_a.is_empty(), "buffer emptied");
        assert!(s.finish(), "second solve reuses everything");
        assert_eq!((s.solves(), s.reuses()), (2, 1));

        // A smaller graph also runs warm.
        s.begin(10);
        let _ = s.view();
        assert!(s.finish());

        // A bigger graph reallocates once, then runs warm again.
        s.begin(1000);
        let _ = s.view();
        assert!(!s.finish());
        s.begin(1000);
        let _ = s.view();
        assert!(s.finish());
    }

    #[test]
    fn visited_set_is_lean_and_cleared() {
        let mut s = SolverScratch::new();
        s.begin(100);
        assert!(s.visited_set().set(7));
        assert!(!s.finish(), "first solve allocates the bitset");
        s.begin(100);
        assert!(!s.visited_set().get(7), "cleared per solve");
        assert!(s.finish(), "bitset-only reuse is warm");
    }

    #[test]
    fn bidir_view_cold_then_warm() {
        let mut s = SolverScratch::new();
        s.begin(80);
        {
            let (view, rev) = s.view_bidir();
            view.dist.store(1, 5);
            rev.dist.store(2, 9);
            assert!(rev.settled.set(3));
        }
        assert!(!s.finish(), "first bidir solve allocates");

        s.begin(80);
        {
            let (view, rev) = s.view_bidir();
            assert_eq!(view.dist.load(1), u64::MAX, "forward epoch reset");
            assert_eq!(rev.dist.load(2), u64::MAX, "reverse epoch reset");
            assert!(!rev.settled.get(3), "reverse bitset cleared");
        }
        assert!(s.finish(), "second bidir solve reuses everything");

        // A plain forward view never pays for the reverse structures.
        s.begin(80);
        let _ = s.view();
        assert!(s.finish());
    }

    #[test]
    fn warm_up_bidir_makes_first_solve_warm() {
        let g = rs_graph::gen::grid2d(8, 8);
        let mut s = SolverScratch::new();
        s.warm_up_bidir(&g);
        s.warm_heap(g.num_vertices());
        s.warm_heap_rev(g.num_vertices());
        assert_eq!(s.solves(), 0, "warming is not a solve");
        s.begin(g.num_vertices());
        let hf = s.checkout_heap();
        let hr = s.checkout_heap_rev();
        s.return_heap(hf);
        s.return_heap_rev(hr);
        let _ = s.view_bidir();
        assert!(s.finish(), "first bidir query after warm-up must not allocate");
    }

    #[test]
    fn distance_range_guard_accepts_normal_graphs() {
        let g = rs_graph::gen::grid2d(10, 10);
        assert_distance_range(&g);
    }

    #[test]
    #[should_panic(expected = "48-bit range")]
    fn distance_range_guard_rejects_oversized_bounds() {
        // n · L + 1 ≈ 3.0e14 > 2^48 − 1 ≈ 2.8e14: distances on this graph
        // could overflow the epoch encoding, so solvers must refuse it
        // loudly instead of silently dropping relaxations in release.
        let mut b = rs_graph::EdgeListBuilder::new(70_000);
        b.add_edge(0, 1, u32::MAX);
        assert_distance_range(&b.build());
    }

    #[test]
    fn heap_slot_reuse() {
        let mut s = SolverScratch::new();
        s.begin(50);
        let mut h = s.checkout_heap();
        h.push_or_decrease(1, 10);
        s.return_heap(h);
        assert!(!s.finish(), "cold: heap allocated");

        s.begin(50);
        let h = s.checkout_heap();
        assert!(h.is_empty(), "checked-out heap is cleared");
        assert_eq!(h.capacity(), 50);
        s.return_heap(h);
        assert!(s.finish(), "warm: heap reused");
    }

    #[test]
    fn warm_up_makes_first_solve_warm() {
        let g = rs_graph::gen::grid2d(20, 20);
        let mut s = SolverScratch::new();
        s.warm_up(&g);
        assert_eq!(s.solves(), 0, "warming is not a solve");
        s.begin(g.num_vertices());
        let view = s.view();
        view.verts_c.push(7);
        view.pairs.push((1, 2));
        assert!(s.finish(), "first query after warm_up must not allocate");
        assert_eq!((s.solves(), s.reuses()), (1, 1));
    }

    #[test]
    fn warm_heap_and_bucket_prewarm_slots() {
        let mut s = SolverScratch::new();
        s.warm_heap(64);
        s.begin(64);
        let h = s.checkout_heap();
        s.return_heap(h);
        assert!(s.finish(), "prewarmed heap checkout is warm");

        s.warm_bucket(64, 5, 100);
        s.begin(64);
        let q = s.checkout_bucket(5, 100);
        s.return_bucket(q);
        assert!(s.finish(), "prewarmed bucket checkout is warm");
    }

    #[test]
    fn bucket_reuse_keyed_on_parameters() {
        let mut s = SolverScratch::new();
        s.begin(40);
        let q = s.checkout_bucket(5, 100);
        s.return_bucket(q);
        assert!(!s.finish());

        s.begin(40);
        let mut q = s.checkout_bucket(5, 100);
        assert!(q.is_empty());
        q.insert_or_decrease(3, 12);
        s.return_bucket(q);
        assert!(s.finish(), "same parameters reuse the queue");

        s.begin(40);
        let q = s.checkout_bucket(7, 100);
        s.return_bucket(q);
        assert!(!s.finish(), "different delta reallocates");
    }

    #[test]
    fn pool_reuses_returned_scratches() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.checkout();
            a.begin(64);
            let _ = a.view();
            a.finish();
        } // returned on drop
        assert_eq!((pool.created(), pool.reused(), pool.idle()), (1, 0, 1));

        {
            let mut b = pool.checkout();
            // The recycled scratch still has its structures: a same-size
            // solve runs warm straight out of the pool.
            b.begin(64);
            let _ = b.view();
            assert!(b.finish(), "pooled scratch is pre-sized");
        }
        assert_eq!((pool.created(), pool.reused(), pool.idle()), (1, 1, 1));
    }

    #[test]
    fn pool_creates_under_concurrent_checkout() {
        let pool = ScratchPool::new();
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.created(), 2, "no idle scratch: both created");
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.reused(), 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_retention_cap_bounds_idle_memory() {
        let pool = ScratchPool::with_retain(2);
        let guards: Vec<_> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.created(), 5);
        drop(guards);
        assert_eq!(pool.idle(), 2, "returns beyond the cap are dropped");

        let zero = ScratchPool::with_retain(0);
        drop(zero.checkout());
        assert_eq!(zero.idle(), 0, "retain 0 disables pooling");
        drop(zero.checkout());
        assert_eq!(zero.created(), 2);
        assert_eq!(zero.reused(), 0);
    }

    #[test]
    fn pool_checkout_is_thread_safe() {
        let pool = ScratchPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 0..50 {
                        let mut g = pool.checkout();
                        g.begin(32);
                        let _ = g.view();
                        g.finish();
                        drop(g);
                        let _ = round;
                    }
                });
            }
        });
        assert_eq!(pool.created() + pool.reused(), 200);
        assert!(pool.created() <= 4, "at most one creation per concurrent thread");
        assert!(pool.idle() <= 4);
    }
}
