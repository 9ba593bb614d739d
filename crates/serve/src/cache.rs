//! Epoch-versioned response cache keyed on canonical queries.
//!
//! The query plane already has a canonical form — [`Query::canonical`]
//! sorts and dedups goal lists so permuted requests share a
//! `QueryBatch` dedup slot — and the cache reuses it as the *cache key*:
//! two requests that would dedup inside one batch hit the same cache
//! entry, whenever they arrive.
//! `want_paths` / `want_trace` stay part of the key (they change what the
//! response carries), so a cached hit is always **bit-identical** to a
//! fresh solve of the same request.
//!
//! Entries carry the **epoch** current when their solve *started*. A
//! weight update calls [`ResponseCache::invalidate_epoch`], which bumps
//! the epoch counter in O(1); stale entries then fail the epoch check on
//! lookup and are removed lazily. This is the choke point a future
//! `update_weights` needs: results computed against the old graph can
//! never be served after the bump, including solves that were in flight
//! across it (they carry the pre-bump epoch).
//!
//! Capacity is enforced per shard with **segmented LRU** (two-segment,
//! scan-resistant): a new entry lands in a *probation* segment and is
//! promoted to a *protected* segment on its first re-hit; eviction takes
//! the probation LRU first, so a burst of one-shot queries (a cold scan)
//! churns only probation while the proven-hot working set rides it out
//! in protected. Protected overflow demotes its LRU back to probation
//! rather than evicting, giving hot entries a second chance. Recency is
//! tracked with intrusive-free queues of `(key, stamp)` records — an
//! entry's current stamp names its one live record; superseded records
//! are skipped lazily and compacted in bulk. Shards keep lane workers
//! from serialising on one map lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rs_core::{Query, QueryResponse};

/// Number of independently locked map shards (power of two).
const SHARDS: usize = 16;

/// Which SLRU segment an entry currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// First residence; evicted first. New inserts land here.
    Probation,
    /// Re-hit at least once; only demoted (never evicted) while any
    /// probation entry remains.
    Protected,
}

struct Entry {
    response: Arc<QueryResponse>,
    epoch: u64,
    segment: Segment,
    /// Names this entry's live recency record: a queue record
    /// `(key, stamp)` is current iff it matches the entry's segment and
    /// stamp. Touches re-stamp, turning older records into lazy tombstones.
    stamp: u64,
}

/// One lock's worth of cache: the entry map plus the two SLRU recency
/// queues. All methods run under the shard mutex.
#[derive(Default)]
struct Shard {
    map: HashMap<Query, Entry>,
    probation: VecDeque<(Query, u64)>,
    protected: VecDeque<(Query, u64)>,
    /// Live entries currently in [`Segment::Protected`].
    protected_len: usize,
}

impl Shard {
    fn record_is_live(&self, key: &Query, stamp: u64, segment: Segment) -> bool {
        self.map.get(key).is_some_and(|e| e.stamp == stamp && e.segment == segment)
    }

    /// Removes `key` keeping the protected count consistent. Queue
    /// records for it become tombstones, skipped lazily.
    fn remove_entry(&mut self, key: &Query) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        if entry.segment == Segment::Protected {
            self.protected_len -= 1;
        }
        Some(entry)
    }

    /// Evicts one live entry: probation LRU first, protected LRU only
    /// when probation is empty. Returns false on an empty shard.
    fn evict_one(&mut self) -> bool {
        while let Some((key, stamp)) = self.probation.pop_front() {
            if self.record_is_live(&key, stamp, Segment::Probation) {
                self.map.remove(&key);
                return true;
            }
        }
        while let Some((key, stamp)) = self.protected.pop_front() {
            if self.record_is_live(&key, stamp, Segment::Protected) {
                self.map.remove(&key);
                self.protected_len -= 1;
                return true;
            }
        }
        false
    }

    /// Demotes protected LRUs to probation until the segment fits its
    /// cap — second chance instead of eviction.
    fn demote_overflow(&mut self, protected_cap: usize, clock: &AtomicU64) {
        while self.protected_len > protected_cap {
            let Some((key, stamp)) = self.protected.pop_front() else { break };
            if !self.record_is_live(&key, stamp, Segment::Protected) {
                continue;
            }
            // ORDERING: recency stamps are advisory (they only order
            // evictions approximately); entry data is mutex-protected.
            let demoted = clock.fetch_add(1, Ordering::Relaxed);
            if let Some(e) = self.map.get_mut(&key) {
                e.segment = Segment::Probation;
                e.stamp = demoted;
            }
            self.protected_len -= 1;
            self.probation.push_back((key, demoted));
        }
    }

    /// Drops superseded queue records once they dominate the live set,
    /// bounding queue memory at O(map size) amortised.
    fn maybe_compact(&mut self) {
        if self.probation.len() + self.protected.len() <= 8 * self.map.len() + 32 {
            return;
        }
        let map = &self.map;
        self.probation.retain(|(k, s)| {
            map.get(k).is_some_and(|e| e.stamp == *s && e.segment == Segment::Probation)
        });
        self.protected.retain(|(k, s)| {
            map.get(k).is_some_and(|e| e.stamp == *s && e.segment == Segment::Protected)
        });
    }
}

/// Counter snapshot from [`ResponseCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (current epoch).
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Live entries removed to make room (capacity pressure).
    pub evictions: u64,
    /// Stale-epoch entries removed lazily on lookup or insert.
    pub expired: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The current epoch (starts at 0, bumped per invalidation).
    pub epoch: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Concurrent response cache: canonical-[`Query`] keys, epoch
/// invalidation, bounded capacity with scan-resistant segmented-LRU
/// eviction.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard (total capacity / SHARDS, at least 1).
    shard_capacity: usize,
    /// Max protected entries per shard (the rest stays probation so a
    /// scan always has something cheaper to evict than the hot set).
    protected_cap: usize,
    epoch: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
}

impl ResponseCache {
    /// A cache holding up to `capacity` responses (rounded up to a
    /// multiple of the shard count; `capacity == 0` still allows one
    /// entry per shard — use admission-side logic to disable caching).
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARDS).max(1);
        ResponseCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            // 4/5 protected is the classic SLRU split; a 1-entry shard
            // gets cap 0 and degenerates to plain LRU.
            protected_cap: shard_capacity * 4 / 5,
            epoch: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Total entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// The current epoch. Capture it **before** starting a solve and pass
    /// it to [`ResponseCache::insert`], so a solve in flight across an
    /// invalidation can never publish a stale result.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn shard_of(&self, key: &Query) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up the canonical form of `query`; returns the cached
    /// response only if its epoch is current. A stale entry is removed on
    /// the spot. A hit touches the entry: probation promotes to
    /// protected (demoting the protected LRU on overflow), protected
    /// refreshes its recency.
    pub fn get(&self, query: &Query) -> Option<Arc<QueryResponse>> {
        let key = query.canonical();
        let epoch = self.epoch();
        rs_par::model::yield_point();
        let mut shard = self.shard_of(&key).lock().unwrap();
        let touched = match shard.map.get_mut(&key) {
            Some(entry) if entry.epoch == epoch => {
                // ORDERING: clock and the hit/miss/expired counters are
                // advisory (SLRU recency, telemetry); the entry data itself
                // is protected by the shard mutex, and staleness safety
                // rests on the SeqCst epoch read above, not on these.
                let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                entry.stamp = stamp;
                let promoted = entry.segment == Segment::Probation && self.protected_cap > 0;
                if promoted {
                    entry.segment = Segment::Protected;
                }
                Some((Arc::clone(&entry.response), entry.segment, stamp, promoted))
            }
            _ => None,
        };
        match touched {
            Some((response, segment, stamp, promoted)) => {
                match segment {
                    Segment::Protected => {
                        shard.protected.push_back((key, stamp));
                        if promoted {
                            shard.protected_len += 1;
                            shard.demote_overflow(self.protected_cap, &self.clock);
                        }
                    }
                    Segment::Probation => shard.probation.push_back((key, stamp)),
                }
                shard.maybe_compact();
                drop(shard);
                // ORDERING: advisory telemetry (see above).
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(response)
            }
            None => {
                let expired = shard.remove_entry(&key).is_some();
                drop(shard);
                if expired {
                    // ORDERING: advisory telemetry (see the hit path above).
                    self.expired.fetch_add(1, Ordering::Relaxed);
                }
                // ORDERING: advisory telemetry (see the hit path above).
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `response` under the canonical form of `query`, tagged
    /// with `solve_epoch` (the epoch read before the solve started). A
    /// post-invalidation insert of a pre-invalidation solve is accepted
    /// but tagged stale, so it can never be served. A new key enters the
    /// probation segment; a refresh of a resident key keeps its segment.
    /// When the shard is full, the probation LRU makes room (stale
    /// entries are purged first and counted as expirations, not
    /// evictions; the protected segment is only tapped once probation is
    /// empty).
    pub fn insert(&self, query: &Query, response: Arc<QueryResponse>, solve_epoch: u64) {
        let key = query.canonical();
        rs_par::model::yield_point();
        let mut shard = self.shard_of(&key).lock().unwrap();
        if !shard.map.contains_key(&key) && shard.map.len() >= self.shard_capacity {
            let epoch = self.epoch();
            let stale: Vec<Query> = shard
                .map
                .iter()
                .filter(|(_, e)| e.epoch != epoch)
                .map(|(k, _)| k.clone())
                .collect();
            if stale.is_empty() {
                while shard.map.len() >= self.shard_capacity {
                    if !shard.evict_one() {
                        break;
                    }
                    // ORDERING: advisory telemetry (see get).
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                // ORDERING: advisory telemetry (see get).
                self.expired.fetch_add(stale.len() as u64, Ordering::Relaxed);
                for k in stale {
                    shard.remove_entry(&k);
                }
            }
        }
        // ORDERING: recency stamp only orders evictions approximately;
        // exactness is not part of the cache contract.
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        rs_par::model::yield_point();
        let segment = match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.response = response;
                entry.epoch = solve_epoch;
                entry.stamp = stamp;
                entry.segment
            }
            None => {
                shard.map.insert(
                    key.clone(),
                    Entry { response, epoch: solve_epoch, segment: Segment::Probation, stamp },
                );
                Segment::Probation
            }
        };
        match segment {
            Segment::Probation => shard.probation.push_back((key, stamp)),
            Segment::Protected => shard.protected.push_back((key, stamp)),
        }
        shard.maybe_compact();
    }

    /// Invalidates every cached response in O(1) by bumping the epoch:
    /// the hook a weight update calls. Stale entries are removed lazily.
    /// Returns the new epoch.
    pub fn invalidate_epoch(&self) -> u64 {
        rs_par::model::yield_point();
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Entries currently resident (including not-yet-purged stale ones).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ORDERING: advisory telemetry snapshot; counters are
            // independent and eventually consistent (see get).
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            entries: self.len(),
            epoch: self.epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_core::{SsspResult, StepStats};

    fn response(q: &Query) -> Arc<QueryResponse> {
        Arc::new(QueryResponse::single(q.clone(), SsspResult::new(vec![0], StepStats::default())))
    }

    /// Distinct canonical keys: point-to-point pairs never collide for
    /// distinct `i`.
    fn key(i: u32) -> Query {
        Query::point_to_point(i, i + 1)
    }

    /// The headline SLRU property at serving scale: a hot working set
    /// that was re-hit (promoted to protected) survives a cold scan of
    /// twice the cache's capacity in one-shot queries, and residency
    /// never exceeds capacity.
    #[test]
    fn scan_resistance_at_100k_entries() {
        const CAPACITY: usize = 100_000;
        const HOT: u32 = 2_000;
        const SCAN: u32 = 200_000;
        let cache = ResponseCache::new(CAPACITY);
        let epoch = cache.epoch();

        // Establish the hot set and prove it hot (one re-hit promotes).
        for i in 0..HOT {
            let q = key(i);
            cache.insert(&q, response(&q), epoch);
        }
        for i in 0..HOT {
            assert!(cache.get(&key(i)).is_some(), "hot entry {i} must be resident");
        }

        // Cold scan: 2× capacity of one-shot keys, never re-touched.
        for i in 0..SCAN {
            let q = key(HOT + i);
            cache.insert(&q, response(&q), epoch);
            debug_assert!(cache.len() <= cache.capacity());
        }

        assert!(cache.len() <= cache.capacity(), "residency bound violated");
        let survivors = (0..HOT).filter(|&i| cache.get(&key(i)).is_some()).count();
        assert_eq!(
            survivors, HOT as usize,
            "protected hot set must ride out a cold scan untouched"
        );
        let stats = cache.stats();
        assert!(stats.evictions > 0, "the scan must have evicted probation entries");
        assert_eq!(stats.expired, 0, "no epoch churn in this test");
    }

    /// Protected overflow demotes (second chance) instead of evicting:
    /// with a protected segment smaller than the promoted set, old hot
    /// entries fall back to probation and only then age out.
    #[test]
    fn protected_overflow_demotes_to_probation() {
        // One shard's worth: capacity 16 → shard sizes vary, so drive a
        // single logical shard by using the full cache and checking only
        // aggregate behaviour.
        let cache = ResponseCache::new(16 * SHARDS);
        let epoch = cache.epoch();
        // Promote 20× protected_cap entries; demotion must keep the
        // protected count bounded (indirectly: everything stays
        // resident until capacity pressure, nothing panics, and the
        // cache still answers).
        for i in 0..(20 * 16) as u32 {
            let q = key(i);
            cache.insert(&q, response(&q), epoch);
            assert!(cache.get(&q).is_some(), "immediate re-hit must succeed");
        }
        assert!(cache.len() <= cache.capacity());
        let stats = cache.stats();
        assert_eq!(stats.hits, 20 * 16);
    }

    /// A refresh of a resident key keeps its segment; a stale-epoch
    /// entry is purged before any live eviction happens.
    #[test]
    fn stale_entries_expire_before_live_evictions() {
        let cache = ResponseCache::new(1); // one entry per shard
        let old = cache.epoch();
        // Fill a few shards at the old epoch.
        for i in 0..64 {
            let q = key(i);
            cache.insert(&q, response(&q), old);
        }
        let new = cache.invalidate_epoch();
        assert_eq!(new, old + 1);
        // Inserting at the new epoch purges stale co-residents instead
        // of evicting them; once a shard holds only new-epoch entries,
        // further room-making is ordinary eviction (so compare deltas
        // and bound the sum, rather than expecting zero evictions).
        let before = cache.stats();
        for i in 64..128 {
            let q = key(i);
            cache.insert(&q, response(&q), new);
        }
        let stats = cache.stats();
        let expired_delta = stats.expired - before.expired;
        let evictions_delta = stats.evictions - before.evictions;
        assert!(expired_delta > 0, "full shards with stale residents must purge, not evict");
        assert!(
            expired_delta + evictions_delta <= 64,
            "each insert makes room at most once (expired {expired_delta} + evicted {evictions_delta})"
        );
        assert!(cache.len() <= cache.capacity());
        // Old-epoch entries can never be served.
        for i in 0..64 {
            assert!(cache.get(&key(i)).is_none());
        }
    }
}
