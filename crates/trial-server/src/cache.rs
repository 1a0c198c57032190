//! LRU caches for query results, keyed by `(store, epoch, kind, text)`.
//!
//! A repeat of a query against the *same epoch* of a store skips
//! parse + plan + evaluate entirely and serves the rendered JSON fragment
//! from memory. Because the epoch is part of the key, a `/load` (which bumps
//! the store's epoch) invalidates every cached result for that store without
//! any explicit eviction pass — stale entries simply stop being reachable
//! and age out of the LRU order.
//!
//! Two caches share the same LRU core:
//!
//! * [`QueryCache`] — exact-key fragments: the whole rendered response for
//!   one `(limit, threads, order, topk)` combination. `/explain?analyze=1`
//!   bypasses it both ways: an analyze run always executes.
//! * [`PrefixCache`] — **prefix-closed ordered results**: an ordered query's
//!   rows under a fixed `(store, epoch, text, threads, order)` are the same
//!   rows for every limit, just cut at a different length, so one cached
//!   prefix of `k` rendered rows serves *every* `?limit=L` with `L ≤ k` by
//!   slicing (and every limit at all once the prefix is known complete).
//!   Deeper evaluations replace shallower entries, never the reverse.
//!
//! Hit/miss counters for both (the prefix cache's hits surface as
//! `hits_prefix`) are exposed on `/healthz`, which is how the integration
//! tests (and operators) observe cache behaviour.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the cached text answers — `/query` results and `/explain` plans are
/// cached independently even for identical query text. Path expressions get
/// their own kinds: a path text like `a/b` lives in a different grammar than
/// TriAL text, so the two namespaces must never share an entry even when the
/// bytes coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// An evaluated result set (`/query`).
    Query,
    /// A rendered physical plan (`/explain`).
    Explain,
    /// An evaluated path-query result set (`/path`).
    Path,
    /// A rendered path-query plan (`/explain?path=1`).
    PathExplain,
}

/// Cache key: store name + store epoch + endpoint kind + exact query text +
/// effective result limit + evaluation shape (threads, order, top-k).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the store.
    pub store: String,
    /// Epoch of the snapshot the result was computed against.
    pub epoch: u64,
    /// Which endpoint produced the value.
    pub kind: QueryKind,
    /// The query text, byte-for-byte (no normalisation).
    pub text: String,
    /// The `?limit=` the fragment was rendered with — the triple list is
    /// truncated at render time, so different limits are different results
    /// (0 for `/explain`, which has no limit).
    pub limit: u64,
    /// The effective evaluation parallelism: `/explain` plans carry
    /// `[parallel×N]` tags and `/query` stats report morsel counts, so
    /// fragments rendered at different degrees must not share an entry.
    pub threads: u64,
    /// The requested `?order=` permutation (`"spo"`/`"pos"`/`"osp"`), or
    /// `None`: ordered fragments render rows in a different sequence (and
    /// ordered explains show different scan permutations / sort breakers),
    /// so they must not share an entry with unordered ones.
    pub order: Option<&'static str>,
    /// The requested `?topk=` bound, or `None`: a top-k fragment is a
    /// different result than a limit-truncated one.
    pub topk: Option<u64>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    stamp: u64,
}

/// The shared LRU core: a map plus an amortised recency queue. Not
/// thread-safe by itself — both caches wrap it in a `Mutex`.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Recency queue of `(key, stamp)`; an entry is current only if its
    /// stamp matches the map's. Touches push fresh pairs and leave stale
    /// ones to be skipped at eviction (amortised O(1), no linked list).
    order: VecDeque<(K, u64)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new() -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let value = match self.map.get_mut(key) {
            Some(slot) => {
                slot.stamp = tick;
                Some(slot.value.clone())
            }
            None => return None,
        };
        self.order.push_back((key.clone(), tick));
        self.compact();
        value
    }

    /// Peeks at `key` without touching recency (used for replace-if-longer
    /// decisions that must not promote the entry they might evict).
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Inserts (or refreshes) `key → value`, evicting the least recently
    /// used entries if the map is over `capacity`.
    fn insert(&mut self, key: K, value: V, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(key.clone(), Slot { value, stamp: tick });
        self.order.push_back((key, tick));
        while self.map.len() > capacity {
            match self.order.pop_front() {
                Some((victim, stamp)) => {
                    let current = self.map.get(&victim).map(|s| s.stamp) == Some(stamp);
                    if current {
                        self.map.remove(&victim);
                    }
                }
                None => break,
            }
        }
        self.compact();
    }

    /// Drops stale recency pairs when the queue outgrows the map (bounded
    /// memory even under a workload of pure cache hits).
    fn compact(&mut self) {
        if self.order.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.order
                .retain(|(k, stamp)| map.get(k).map(|s| s.stamp) == Some(*stamp));
        }
    }
}

/// A thread-safe LRU cache of rendered JSON fragments.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<Lru<CacheKey, Arc<String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` entries. Capacity 0
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            inner: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<String>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let value = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key);
        match value {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → value`, evicting the least recently
    /// used entries if the cache is over capacity.
    pub fn insert(&self, key: CacheKey, value: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, value, self.capacity);
    }

    /// Cache hits since startup.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since startup.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Key for the prefix-closed ordered cache. **No limit**: that is the whole
/// point — one entry serves every limit up to its depth. Top-k results and
/// explains never reach this cache (a top-k set is not a prefix of anything).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrefixKey {
    /// Registry name of the store.
    pub store: String,
    /// Epoch of the snapshot the rows were computed against.
    pub epoch: u64,
    /// The query grammar the text belongs to ([`QueryKind::Query`] or
    /// [`QueryKind::Path`]) — probed before parsing, so without it a path
    /// text could slice a TriAL prefix whose bytes happen to match.
    pub kind: QueryKind,
    /// The query text, byte-for-byte.
    pub text: String,
    /// Evaluation parallelism (stats embedded in served fragments differ).
    pub threads: u64,
    /// The order the rows stream in (`"spo"`/`"pos"`/`"osp"`).
    pub order: &'static str,
}

/// A cached ordered result prefix: the first [`PrefixEntry::len`] rows of
/// the ordered result, rendered as `["s","p","o"]` JSON arrays in one
/// comma-separated body, with the end offset of each row so that any
/// shorter prefix is a slice of the body.
#[derive(Debug)]
pub struct PrefixEntry {
    /// The rendered rows in the order's key order, comma-separated.
    pub body: String,
    /// `ends[i]` is the offset in `body` just past row `i`.
    pub ends: Vec<u32>,
    /// `false` when more rows exist beyond these (the prefix is proper);
    /// `true` means the rows are the **complete** result, serving any limit.
    pub complete: bool,
    /// Rendered work counters of the evaluation that produced the prefix
    /// (served verbatim on prefix hits, like exact-cache hits serve their
    /// original stats).
    pub stats: String,
}

impl PrefixEntry {
    /// The number of rows held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no row is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The first `n` rows (at most [`PrefixEntry::len`]), comma-separated.
    pub fn rows(&self, n: usize) -> &str {
        match n.min(self.len()) {
            0 => "",
            n => &self.body[..self.ends[n - 1] as usize],
        }
    }

    /// `true` when this entry can answer `?limit=limit` by slicing.
    pub fn covers(&self, limit: usize) -> bool {
        self.complete || self.len() >= limit
    }
}

/// A thread-safe LRU of prefix-closed ordered results.
#[derive(Debug)]
pub struct PrefixCache {
    capacity: usize,
    inner: Mutex<Lru<PrefixKey, Arc<PrefixEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PrefixCache {
    /// Creates a cache holding at most `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> Self {
        PrefixCache {
            capacity,
            inner: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up an entry deep enough to serve `limit` rows. An entry that is
    /// too shallow counts as a miss (the caller will evaluate deeper and
    /// [`PrefixCache::offer`] the longer prefix back).
    pub fn get_covering(&self, key: &PrefixKey, limit: usize) -> Option<Arc<PrefixEntry>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let covering = matches!(inner.peek(key), Some(entry) if entry.covers(limit));
        let value = if covering { inner.get(key) } else { None };
        drop(inner);
        match value {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Offers a freshly evaluated prefix. Kept only if it is **deeper** than
    /// the current entry (or completes it) — prefix-closure means a longer
    /// prefix strictly subsumes a shorter one, so replacement only ever goes
    /// deeper and a shallow re-evaluation can never clobber a deep prefix.
    pub fn offer(&self, key: PrefixKey, entry: Arc<PrefixEntry>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let keep = match inner.peek(&key) {
            Some(current) => !current.complete && (entry.complete || entry.len() > current.len()),
            None => true,
        };
        if keep {
            inner.insert(key, entry, self.capacity);
        }
    }

    /// Prefix-cache hits since startup (`hits_prefix` on `/healthz`).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Prefix-cache misses (including too-shallow entries) since startup.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Current number of cached prefixes.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(store: &str, epoch: u64, text: &str) -> CacheKey {
        CacheKey {
            store: store.into(),
            epoch,
            kind: QueryKind::Query,
            text: text.into(),
            limit: 100,
            threads: 1,
            order: None,
            topk: None,
        }
    }

    fn val(s: &str) -> Arc<String> {
        Arc::new(s.to_owned())
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = QueryCache::new(4);
        assert!(cache.get(&key("s", 1, "E")).is_none());
        cache.insert(key("s", 1, "E"), val("r"));
        assert_eq!(cache.get(&key("s", 1, "E")).unwrap().as_str(), "r");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let cache = QueryCache::new(4);
        cache.insert(key("s", 1, "E"), val("old"));
        // Same store and text, new epoch: different key, so a miss.
        assert!(cache.get(&key("s", 2, "E")).is_none());
        // The old epoch's entry is still present until evicted.
        assert!(cache.get(&key("s", 1, "E")).is_some());
        // Explain and Query results do not collide.
        let explain = CacheKey {
            kind: QueryKind::Explain,
            ..key("s", 1, "E")
        };
        assert!(cache.get(&explain).is_none());
        // Neither do renderings with different ?limit= values.
        let other_limit = CacheKey {
            limit: 1,
            ..key("s", 1, "E")
        };
        assert!(cache.get(&other_limit).is_none());
        // Nor fragments evaluated at a different parallel degree.
        let other_threads = CacheKey {
            threads: 4,
            ..key("s", 1, "E")
        };
        assert!(cache.get(&other_threads).is_none());
        // Ordered and top-k renderings are their own entries too.
        let ordered = CacheKey {
            order: Some("pos"),
            ..key("s", 1, "E")
        };
        assert!(cache.get(&ordered).is_none());
        let topk = CacheKey {
            topk: Some(5),
            ..key("s", 1, "E")
        };
        assert!(cache.get(&topk).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.insert(key("s", 1, "a"), val("1"));
        cache.insert(key("s", 1, "b"), val("2"));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get(&key("s", 1, "a")).is_some());
        cache.insert(key("s", 1, "c"), val("3"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("s", 1, "a")).is_some());
        assert!(cache.get(&key("s", 1, "b")).is_none());
        assert!(cache.get(&key("s", 1, "c")).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        cache.insert(key("s", 1, "a"), val("1"));
        assert!(cache.get(&key("s", 1, "a")).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
        assert_eq!(cache.misses(), 1); // the lookup still counts as a miss
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let cache = QueryCache::new(2);
        cache.insert(key("s", 1, "a"), val("1"));
        for _ in 0..10_000 {
            assert!(cache.get(&key("s", 1, "a")).is_some());
        }
        let inner = cache.inner.lock().unwrap();
        assert!(inner.order.len() <= inner.map.len() * 4 + 17);
    }

    fn pkey(text: &str, epoch: u64) -> PrefixKey {
        PrefixKey {
            store: "s".into(),
            epoch,
            kind: QueryKind::Query,
            text: text.into(),
            threads: 1,
            order: "pos",
        }
    }

    fn prefix(rows: usize, complete: bool) -> Arc<PrefixEntry> {
        let mut body = String::new();
        let mut ends = Vec::new();
        for i in 0..rows {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{i}]"));
            ends.push(body.len() as u32);
        }
        Arc::new(PrefixEntry {
            body,
            ends,
            complete,
            stats: "{}".into(),
        })
    }

    #[test]
    fn a_prefix_is_a_slice_of_the_body() {
        let entry = prefix(12, false);
        assert_eq!(entry.len(), 12);
        assert_eq!(entry.rows(0), "");
        assert_eq!(entry.rows(1), "[0]");
        assert_eq!(entry.rows(3), "[0],[1],[2]");
        assert_eq!(entry.rows(12), entry.body);
        // Past the end: every row there is.
        assert_eq!(entry.rows(13), entry.body);
        assert!(prefix(0, true).is_empty());
    }

    #[test]
    fn a_deep_prefix_serves_every_shallower_limit() {
        let cache = PrefixCache::new(4);
        assert!(cache.get_covering(&pkey("E", 1), 10).is_none());
        cache.offer(pkey("E", 1), prefix(100, false));
        // Any limit ≤ 100 slices out of the entry; 101 is too deep.
        for limit in [1, 50, 100] {
            let entry = cache.get_covering(&pkey("E", 1), limit).unwrap();
            assert!(entry.len() >= limit);
        }
        assert!(cache.get_covering(&pkey("E", 1), 101).is_none());
        // A *complete* prefix covers any limit at all.
        cache.offer(pkey("E", 1), prefix(100, true));
        assert!(cache.get_covering(&pkey("E", 1), 100_000).is_some());
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn replacement_only_goes_deeper() {
        let cache = PrefixCache::new(4);
        cache.offer(pkey("E", 1), prefix(50, false));
        // A shallower re-evaluation must not clobber the deeper prefix.
        cache.offer(pkey("E", 1), prefix(10, false));
        assert_eq!(cache.get_covering(&pkey("E", 1), 50).unwrap().len(), 50);
        // Deeper replaces; complete replaces deeper; nothing replaces
        // complete (it already serves everything).
        cache.offer(pkey("E", 1), prefix(80, false));
        assert_eq!(cache.get_covering(&pkey("E", 1), 60).unwrap().len(), 80);
        cache.offer(pkey("E", 1), prefix(80, true));
        cache.offer(pkey("E", 1), prefix(200, false));
        let entry = cache.get_covering(&pkey("E", 1), 1).unwrap();
        assert!(entry.complete);
        assert_eq!(entry.len(), 80);
    }

    #[test]
    fn prefix_entries_are_epoch_scoped_and_lru_bounded() {
        let cache = PrefixCache::new(2);
        cache.offer(pkey("E", 1), prefix(10, true));
        assert!(cache.get_covering(&pkey("E", 2), 5).is_none());
        cache.offer(pkey("a", 1), prefix(10, true));
        cache.offer(pkey("b", 1), prefix(10, true));
        assert_eq!(cache.len(), 2);
        let disabled = PrefixCache::new(0);
        disabled.offer(pkey("E", 1), prefix(10, true));
        assert!(disabled.get_covering(&pkey("E", 1), 1).is_none());
        assert!(disabled.is_empty());
    }
}
