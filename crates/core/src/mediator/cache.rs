//! The compiled-query cache: one entry per query text, with clock
//! (second-chance) eviction, and an index of the compiled shapes those
//! entries share.

use crate::query::{CompiledQuery, Template};
use rel::sql::SelectStmt;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// A compiled shape (`query::lift`), shared by every cached text of it.
#[derive(Debug)]
pub(super) struct CachedShape {
    // The key the shape index holds it under.
    pub(super) key: Arc<str>,
    pub(super) ask: bool,
    pub(super) template: Template,
}

// One cached text: its shape, and the shape's SQL with this text's
// constants bound. Cloning the `Arc` is all a hit costs; an answer keeps
// the shape's compilation alive to render rows.
#[derive(Debug)]
pub(super) struct CachedQuery {
    pub(super) shape: Arc<CachedShape>,
    pub(super) sql: SelectStmt,
    // The dictionary's size when binding found a text constant missing
    // from it and bound NULL. A grown dictionary may hold the string
    // now, so the entry then binds again instead of answering.
    pub(super) absent_at: Option<u64>,
}

impl CachedQuery {
    pub(super) fn compiled(&self) -> &Arc<CompiledQuery> {
        &self.shape.template.compiled
    }

    fn is_current(&self) -> bool {
        self.absent_at
            .is_none_or(|symbols| symbols == rel::dictionary_stats().symbols)
    }
}

// One cache slot: the entry plus its second-chance bit.
#[derive(Debug)]
struct CacheSlot {
    query: Arc<CachedQuery>,
    referenced: bool,
}

// A shape in the index: the number of cached texts of it, and the
// statement of one evicted text, which the next binding of the shape
// overwrites instead of copying the template's (and the evicted one
// being freed).
#[derive(Debug)]
struct IndexedShape {
    shape: Arc<CachedShape>,
    texts: usize,
    spare: Option<SelectStmt>,
}

// Default number of cached texts (repeated endpoint workloads use a
// handful of query shapes; the bound only guards degenerate clients).
const QUERY_CACHE_CAPACITY: usize = 256;

// Compiled-query cache with clock (second-chance) eviction: a hit sets
// the slot's referenced bit — O(1), no timestamps, no ordered scan. On
// a miss at capacity the clock hand sweeps the ring: referenced slots
// get their bit cleared and a second chance, the first unreferenced
// slot is evicted — O(1) amortized (each sweep step clears a bit some
// hit set). Hot entries keep their bits set and survive capacity
// pressure from one-off queries, which never get referenced and evict
// first. A shape stays indexed exactly as long as a cached text refers
// to it, so the one capacity bounds both.
#[derive(Debug)]
pub(super) struct QueryCache {
    entries: HashMap<Arc<str>, CacheSlot>,
    // Clock ring: every cached text exactly once, insertion order.
    ring: VecDeque<Arc<str>>,
    // Shape key → the shape's entry in the index.
    shapes: HashMap<Arc<str>, IndexedShape>,
    capacity: usize,
    // Monotonic observability counters: their one store, which a
    // transport's `/status` and `/metrics` read via
    // `Mediator::query_cache_stats`.
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl QueryCache {
    pub(super) fn new() -> Self {
        QueryCache {
            entries: HashMap::new(),
            ring: VecDeque::new(),
            shapes: HashMap::new(),
            capacity: QUERY_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    // The entry of exactly this text. A miss is not counted: the shape
    // probe that follows it counts.
    pub(super) fn get(&mut self, text: &str) -> Option<Arc<CachedQuery>> {
        let slot = self.entries.get_mut(text)?;
        if !slot.query.is_current() {
            return None;
        }
        slot.referenced = true;
        let query = Arc::clone(&slot.query);
        self.hits += 1;
        Some(query)
    }

    // The compiled shape under `key`, with a statement of it to bind
    // into if one is spare; a miss means a compile.
    pub(super) fn shape(&mut self, key: &str) -> Option<(Arc<CachedShape>, Option<SelectStmt>)> {
        let shape = self
            .shapes
            .get_mut(key)
            .map(|indexed| (Arc::clone(&indexed.shape), indexed.spare.take()));
        if shape.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        shape
    }

    // Cache `query` for `text`. Returns what the cache let go of, for
    // the caller to drop after releasing the cache's lock.
    pub(super) fn admit(&mut self, text: &str, query: Arc<CachedQuery>) -> Vec<Arc<CachedQuery>> {
        if let Some(slot) = self.entries.get_mut(text) {
            // Two threads resolved the same text concurrently, or an
            // entry bound again; keep the newer. One text has one shape.
            slot.referenced = true;
            return vec![std::mem::replace(&mut slot.query, query)];
        }
        // The loop (not a single eviction) lets a lowered capacity
        // converge from a larger high-water size.
        let mut evicted = Vec::new();
        while self.entries.len() >= self.capacity {
            evicted.extend(self.evict_one());
        }
        self.shapes
            .entry(Arc::clone(&query.shape.key))
            .or_insert_with(|| IndexedShape {
                shape: Arc::clone(&query.shape),
                texts: 0,
                spare: None,
            })
            .texts += 1;
        let text: Arc<str> = Arc::from(text);
        self.ring.push_back(Arc::clone(&text));
        self.entries.insert(
            text,
            CacheSlot {
                query,
                referenced: false,
            },
        );
        evicted
    }

    // Evict the clock hand's next victim. Returns it, unless its
    // statement became its shape's spare.
    fn evict_one(&mut self) -> Option<Arc<CachedQuery>> {
        while let Some(text) = self.ring.pop_front() {
            let Entry::Occupied(mut slot) = self.entries.entry(text) else {
                continue;
            };
            if slot.get().referenced {
                slot.get_mut().referenced = false;
                self.ring.push_back(Arc::clone(slot.key()));
                continue;
            }
            let query = slot.remove().query;
            self.evictions += 1;
            let key = &*query.shape.key;
            let indexed = self
                .shapes
                .get_mut(key)
                .expect("a cached text's shape is indexed");
            indexed.texts -= 1;
            if indexed.texts == 0 {
                self.shapes.remove(key);
                return Some(query);
            }
            if indexed.spare.is_some() || !Arc::ptr_eq(&query.shape, &indexed.shape) {
                return Some(query);
            }
            // Kept as the spare, unless a running query still holds it.
            return match Arc::try_unwrap(query) {
                Ok(evicted) => {
                    indexed.spare = Some(evicted.sql);
                    None
                }
                Err(query) => Some(query),
            };
        }
        None
    }

    pub(super) fn contains(&self, text: &str) -> bool {
        self.entries.contains_key(text)
    }

    pub(super) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    pub(super) fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            entries: self.entries.len(),
            shapes: self.shapes.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// Point-in-time view of the compiled-query cache, for observability
/// (e.g. a server's status endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Cached query texts right now.
    pub entries: usize,
    /// Compiled shapes those texts share right now.
    pub shapes: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Lookups answered without compiling: the text was cached, or
    /// another text of its shape was.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries the clock hand evicted under capacity pressure.
    pub evictions: u64,
}

#[cfg(test)]
mod tests {
    use crate::testutil::fixture_mediator as mediator;

    #[test]
    fn clock_cache_evicts_unreferenced_entries_first() {
        let m = mediator();
        m.set_query_cache_capacity(3);
        let hot = "SELECT ?x WHERE { ?x a foaf:Person . }";
        m.select(hot).unwrap();
        for year in [2001, 2002, 2003, 2004, 2005] {
            let cold = format!("SELECT ?p WHERE {{ ?p ont:pubYear \"{year}\" . }}");
            m.select(&cold).unwrap();
            m.select(hot).unwrap(); // keep the hot bit set
        }
        assert!(m.cached_query_count() <= 3);
        assert!(m.is_query_cached(hot), "hot entry evicted by the clock");
        assert!(!m.is_query_cached("SELECT ?p WHERE { ?p ont:pubYear \"2001\" . }"));
        // The newest cold entry survived, and the hot one still answers.
        assert!(m.is_query_cached("SELECT ?p WHERE { ?p ont:pubYear \"2005\" . }"));
        assert_eq!(m.select(hot).unwrap().len(), 2);
    }

    #[test]
    fn cache_capacity_can_shrink_after_the_fact() {
        let m = mediator();
        m.set_query_cache_capacity(4);
        for year in [2001, 2002, 2003, 2004] {
            m.select(&format!(
                "SELECT ?p WHERE {{ ?p ont:pubYear \"{year}\" . }}"
            ))
            .unwrap();
        }
        assert_eq!(m.cached_query_count(), 4);
        m.set_query_cache_capacity(2);
        m.select("SELECT ?p WHERE { ?p ont:pubYear \"2010\" . }")
            .unwrap();
        assert_eq!(m.cached_query_count(), 2);
    }

    #[test]
    fn texts_of_one_shape_compile_once_and_the_shape_lives_while_they_do() {
        let m = mediator();
        m.set_query_cache_capacity(2);
        let q = |year: u32| format!("SELECT ?p WHERE {{ ?p ont:pubYear \"{year}\" . }}");
        for year in [2001, 2009, 2010] {
            m.select(&q(year)).unwrap();
        }
        let stats = m.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1), "{stats:?}");
        assert_eq!((stats.entries, stats.shapes), (2, 1));
        // Only texts that ran are cached, shape or not.
        assert!(!m.is_query_cached(&q(2001)) && m.is_query_cached(&q(2010)));
        assert!(!m.is_query_cached(&q(2011)));
        // A second shape; then two texts of it evict the first's last
        // texts, and with them the first shape.
        for year in [2001, 2002, 2003] {
            m.select(&format!(
                "SELECT ?t WHERE {{ ?p ont:pubYear \"{year}\" ; dc:title ?t . }}"
            ))
            .unwrap();
        }
        let stats = m.query_cache_stats();
        assert_eq!((stats.entries, stats.shapes), (2, 1), "{stats:?}");
        assert_eq!(stats.misses, 2);
        m.select(&q(2009)).unwrap();
        assert_eq!(
            m.query_cache_stats().misses,
            3,
            "evicted shape compiles again"
        );
    }
}
