//! The result cache: one LRU of prefix-closed answers, keyed by
//! `(store, epoch, kind, text)` and the evaluation shape.
//!
//! A repeat of a query against the *same epoch* of a store skips
//! parse + plan + evaluate entirely and serves the rendered rows from
//! memory. Because the epoch is part of the key, a `/load` (which bumps
//! the store's epoch) invalidates every cached result for that store without
//! any explicit eviction pass — stale entries simply stop being reachable
//! and age out of the LRU order.
//!
//! **Every entry is prefix-closed.** A response is a deterministic stream
//! of rows cut at `?limit=`, so the rows served at limit `L` are the first
//! `L` rows served at any larger limit — unordered, ordered, top-k and
//! `/path` results alike. The limit is therefore not part of the key: one
//! cached prefix of `k` rendered rows serves *every* `?limit=L` with
//! `L ≤ k` by slicing (and every limit at all once the prefix is known
//! complete). Deeper evaluations replace shallower entries, never the
//! reverse. An `/explain` plan is cached as a complete entry whose body is
//! the rendered plan; its plan limit rides in the key text instead.
//! `/explain?analyze=1` and the count-only `?limit=0` bypass the cache both
//! ways.
//!
//! Hit/miss counters are exposed on `/healthz`, which is how the
//! integration tests (and operators) observe cache behaviour.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Cache key: store name + store epoch + endpoint kind + query text +
/// evaluation shape (threads, order, top-k). **No limit**: one entry serves
/// every limit up to its depth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the store.
    pub store: String,
    /// Epoch of the snapshot the result was computed against.
    pub epoch: u64,
    /// Which endpoint produced the value.
    pub kind: QueryKind,
    /// The query text, byte-for-byte (no normalisation), preceded by the
    /// knobs that change the answer but are not fields here (the path
    /// knobs, an explain's plan limit).
    pub text: String,
    /// The effective evaluation parallelism: `/explain` plans carry
    /// `[parallel×N]` tags and `/query` stats report morsel counts, so
    /// answers rendered at different degrees must not share an entry.
    pub threads: u64,
    /// The requested `?order=` permutation (`"spo"`/`"pos"`/`"osp"`), or
    /// `None`: ordered answers list rows in a different sequence (and
    /// ordered explains show different scan permutations / sort breakers),
    /// so they must not share an entry with unordered ones.
    pub order: Option<&'static str>,
    /// The requested `?topk=` bound, or `None`: a top-k answer is a
    /// different result than a limit-truncated one.
    pub topk: Option<u64>,
}

/// A cached answer: the first [`Entry::len`] rows of a result, rendered as
/// `["s","p","o"]` JSON arrays in one comma-separated body, with the end
/// offset of each row so that any shorter prefix is a slice of the body.
/// An explain's entry holds the rendered plan as its body and no rows.
#[derive(Debug)]
pub struct Entry {
    /// The rendered rows in delivery order, comma-separated (or the
    /// rendered plan of an explain).
    pub body: String,
    /// `ends[i]` is the offset in `body` just past row `i`.
    pub ends: Vec<u32>,
    /// `false` when more rows exist beyond these (the prefix is proper);
    /// `true` means the rows are the **complete** result, serving any limit.
    pub complete: bool,
    /// Rendered work counters of the evaluation that produced the rows
    /// (served verbatim on every hit).
    pub stats: String,
}

impl Entry {
    /// A complete entry without row offsets: an explain's rendered plan,
    /// or a count-only answer's stats.
    pub fn whole(body: String, stats: String) -> Entry {
        Entry {
            body,
            ends: Vec::new(),
            complete: true,
            stats,
        }
    }

    /// The number of rows held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no row is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The first `n` rows (at most [`Entry::len`]), comma-separated.
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

#[derive(Debug)]
struct Slot {
    entry: Arc<Entry>,
    stamp: u64,
}

/// The LRU core: a map plus an amortised recency queue, behind the
/// cache's `Mutex`.
#[derive(Debug, Default)]
struct Lru {
    map: HashMap<CacheKey, Slot>,
    /// Recency queue of `(key, stamp)`; an entry is current only if its
    /// stamp matches the map's. Touches push fresh pairs and leave stale
    /// ones to be skipped at eviction (amortised O(1), no linked list).
    order: VecDeque<(CacheKey, u64)>,
    tick: u64,
}

impl Lru {
    /// Looks up `key` and, if its entry covers `limit`, refreshes its
    /// recency and returns it.
    fn get_covering(&mut self, key: &CacheKey, limit: usize) -> Option<Arc<Entry>> {
        let slot = self.map.get_mut(key).filter(|s| s.entry.covers(limit))?;
        self.tick += 1;
        slot.stamp = self.tick;
        let entry = Arc::clone(&slot.entry);
        self.order.push_back((key.clone(), self.tick));
        self.compact();
        Some(entry)
    }

    /// Inserts (or refreshes) `key → entry`, evicting the least recently
    /// used entries if the map is over `capacity`.
    fn insert(&mut self, key: CacheKey, entry: Arc<Entry>, capacity: usize) {
        self.tick += 1;
        let stamp = self.tick;
        self.map.insert(key.clone(), Slot { entry, stamp });
        self.order.push_back((key, stamp));
        while self.map.len() > capacity {
            let Some((victim, stamp)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&victim).map(|s| s.stamp) == Some(stamp) {
                self.map.remove(&victim);
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

/// A thread-safe LRU of prefix-closed answers holding at most `capacity`
/// entries of every kind together.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries. Capacity 0
    /// disables caching (every lookup misses, offers are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up an entry deep enough to serve `limit` rows, counting a hit
    /// or a miss. An entry that is too shallow counts as a miss (the caller
    /// will evaluate deeper and [`ResultCache::offer`] the longer prefix
    /// back).
    pub fn get_covering(&self, key: &CacheKey, limit: usize) -> Option<Arc<Entry>> {
        let entry = if self.capacity == 0 {
            None
        } else {
            self.lock().get_covering(key, limit)
        };
        let counter = if entry.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Offers a freshly evaluated answer. Kept only if it is **deeper**
    /// than the current entry (or completes it) — prefix-closure means a
    /// longer prefix strictly subsumes a shorter one, so replacement only
    /// ever goes deeper and a shallow re-evaluation can never clobber a
    /// deep prefix.
    pub fn offer(&self, key: CacheKey, entry: Arc<Entry>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        let keep = match inner.map.get(&key) {
            Some(current) => {
                !current.entry.complete && (entry.complete || entry.len() > current.entry.len())
            }
            None => true,
        };
        if keep {
            inner.insert(key, entry, self.capacity);
        }
    }

    /// Cache hits since startup.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (including too-shallow entries) since startup.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn key(store: &str, epoch: u64, text: &str) -> CacheKey {
        CacheKey {
            store: store.into(),
            epoch,
            kind: QueryKind::Query,
            text: text.into(),
            threads: 1,
            order: None,
            topk: None,
        }
    }

    fn prefix(rows: usize, complete: bool) -> Arc<Entry> {
        let mut body = String::new();
        let mut ends = Vec::new();
        for i in 0..rows {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{i}]"));
            ends.push(body.len() as u32);
        }
        Arc::new(Entry {
            body,
            ends,
            complete,
            stats: "{}".into(),
        })
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = ResultCache::new(4);
        assert!(cache.get_covering(&key("s", 1, "E"), 1).is_none());
        cache.offer(key("s", 1, "E"), prefix(1, true));
        assert_eq!(
            cache.get_covering(&key("s", 1, "E"), 1).unwrap().body,
            "[0]"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let cache = ResultCache::new(8);
        cache.offer(key("s", 1, "E"), prefix(3, true));
        // Same store and text, new epoch: different key, so a miss.
        assert!(cache.get_covering(&key("s", 2, "E"), 1).is_none());
        // The old epoch's entry is still present until evicted.
        assert!(cache.get_covering(&key("s", 1, "E"), 1).is_some());
        // Explain and Query results do not collide.
        let explain = CacheKey {
            kind: QueryKind::Explain,
            ..key("s", 1, "E")
        };
        assert!(cache.get_covering(&explain, 1).is_none());
        // Nor answers evaluated at a different parallel degree.
        let other_threads = CacheKey {
            threads: 4,
            ..key("s", 1, "E")
        };
        assert!(cache.get_covering(&other_threads, 1).is_none());
        // Ordered and top-k answers are their own entries too.
        let ordered = CacheKey {
            order: Some("pos"),
            ..key("s", 1, "E")
        };
        assert!(cache.get_covering(&ordered, 1).is_none());
        let topk = CacheKey {
            topk: Some(5),
            ..key("s", 1, "E")
        };
        assert!(cache.get_covering(&topk, 1).is_none());
        // Different limits share the one entry: it serves every limit.
        for limit in [0, 1, 3, 1_000] {
            assert!(cache.get_covering(&key("s", 1, "E"), limit).is_some());
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.offer(key("s", 1, "a"), prefix(1, true));
        cache.offer(key("s", 1, "b"), prefix(1, true));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get_covering(&key("s", 1, "a"), 1).is_some());
        cache.offer(key("s", 1, "c"), prefix(1, true));
        assert_eq!(cache.len(), 2);
        assert!(cache.get_covering(&key("s", 1, "a"), 1).is_some());
        assert!(cache.get_covering(&key("s", 1, "b"), 1).is_none());
        assert!(cache.get_covering(&key("s", 1, "c"), 1).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        cache.offer(key("s", 1, "a"), prefix(1, true));
        assert!(cache.get_covering(&key("s", 1, "a"), 1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
        assert_eq!(cache.misses(), 1); // the lookup still counts as a miss
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let cache = ResultCache::new(2);
        cache.offer(key("s", 1, "a"), prefix(1, true));
        for _ in 0..10_000 {
            assert!(cache.get_covering(&key("s", 1, "a"), 1).is_some());
        }
        let inner = cache.lock();
        assert!(inner.order.len() <= inner.map.len() * 4 + 17);
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
        let cache = ResultCache::new(4);
        assert!(cache.get_covering(&key("s", 1, "E"), 10).is_none());
        cache.offer(key("s", 1, "E"), prefix(100, false));
        // Any limit ≤ 100 slices out of the entry; 101 is too deep.
        for limit in [1, 50, 100] {
            let entry = cache.get_covering(&key("s", 1, "E"), limit).unwrap();
            assert!(entry.len() >= limit);
        }
        assert!(cache.get_covering(&key("s", 1, "E"), 101).is_none());
        // A *complete* prefix covers any limit at all.
        cache.offer(key("s", 1, "E"), prefix(100, true));
        assert!(cache.get_covering(&key("s", 1, "E"), 100_000).is_some());
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn replacement_only_goes_deeper() {
        let cache = ResultCache::new(4);
        cache.offer(key("s", 1, "E"), prefix(50, false));
        // A shallower re-evaluation must not clobber the deeper prefix.
        cache.offer(key("s", 1, "E"), prefix(10, false));
        let entry = cache.get_covering(&key("s", 1, "E"), 50).unwrap();
        assert_eq!(entry.len(), 50);
        // Deeper replaces; complete replaces deeper; nothing replaces
        // complete (it already serves everything).
        cache.offer(key("s", 1, "E"), prefix(80, false));
        let entry = cache.get_covering(&key("s", 1, "E"), 60).unwrap();
        assert_eq!(entry.len(), 80);
        cache.offer(key("s", 1, "E"), prefix(80, true));
        cache.offer(key("s", 1, "E"), prefix(200, false));
        let entry = cache.get_covering(&key("s", 1, "E"), 1).unwrap();
        assert!(entry.complete);
        assert_eq!(entry.len(), 80);
    }

    #[test]
    fn entries_are_epoch_scoped_and_lru_bounded() {
        let cache = ResultCache::new(2);
        cache.offer(key("s", 1, "E"), prefix(10, true));
        assert!(cache.get_covering(&key("s", 2, "E"), 5).is_none());
        cache.offer(key("s", 1, "a"), prefix(10, true));
        cache.offer(key("s", 1, "b"), prefix(10, true));
        assert_eq!(cache.len(), 2);
    }
}
