//! The compiled-query cache: parse+compile results per query text,
//! with clock (second-chance) eviction.

use crate::query::CompiledQuery;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// A parse+compile result cached per query text. Cloning is an `Arc`
// clone; a SELECT's answer keeps its compilation alive to render rows.
#[derive(Debug, Clone)]
pub(super) enum CachedQuery {
    Select(Arc<CompiledQuery>),
    Ask(Arc<CompiledQuery>),
}

impl CachedQuery {
    pub(super) fn compiled(&self) -> &CompiledQuery {
        match self {
            CachedQuery::Select(c) | CachedQuery::Ask(c) => c,
        }
    }
}

// One cache slot: the shared compilation plus its second-chance bit.
#[derive(Debug)]
struct CacheSlot {
    compiled: CachedQuery,
    referenced: bool,
}

// Default number of cached texts (repeated endpoint workloads use a
// handful of query shapes; the bound only guards degenerate clients).
const QUERY_CACHE_CAPACITY: usize = 256;

// Compiled-query cache with clock (second-chance) eviction: a hit sets
// the slot's referenced bit — O(1), no timestamps, no ordered scan. On
// a miss at capacity the clock hand sweeps the ring: referenced slots
// get their bit cleared and a second chance, the first unreferenced
// slot is evicted — O(1) amortized (each sweep step clears a bit some
// hit set), against the old O(capacity) min-scan per eviction. Hot
// entries keep their bits set and survive capacity pressure from
// one-off queries, which never get referenced and evict first.
#[derive(Debug)]
pub(super) struct QueryCache {
    entries: HashMap<String, CacheSlot>,
    // Clock ring: every cached text exactly once, insertion order.
    ring: VecDeque<String>,
    capacity: usize,
    // Monotonic observability counters (surfaced by a transport's
    // status endpoint via `Mediator::query_cache_stats`).
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl QueryCache {
    pub(super) fn new() -> Self {
        QueryCache {
            entries: HashMap::new(),
            ring: VecDeque::new(),
            capacity: QUERY_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub(super) fn get(&mut self, text: &str) -> Option<CachedQuery> {
        let Some(slot) = self.entries.get_mut(text) else {
            self.misses += 1;
            super::metrics().cache_misses.inc();
            return None;
        };
        self.hits += 1;
        super::metrics().cache_hits.inc();
        slot.referenced = true;
        Some(slot.compiled.clone())
    }

    pub(super) fn admit(&mut self, text: &str, compiled: CachedQuery) {
        if let Some(slot) = self.entries.get_mut(text) {
            // Two threads compiled the same text concurrently; keep one.
            slot.compiled = compiled;
            slot.referenced = true;
            return;
        }
        // The loop (not a single eviction) lets a lowered capacity
        // converge from a larger high-water size.
        while self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.entries.insert(
            text.to_owned(),
            CacheSlot {
                compiled,
                referenced: false,
            },
        );
        self.ring.push_back(text.to_owned());
    }

    fn evict_one(&mut self) {
        while let Some(text) = self.ring.pop_front() {
            let Some(slot) = self.entries.get_mut(&text) else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                self.ring.push_back(text);
            } else {
                self.entries.remove(&text);
                self.evictions += 1;
                super::metrics().cache_evictions.inc();
                return;
            }
        }
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
    /// Configured capacity.
    pub capacity: usize,
    /// Lookups that found a cached compilation.
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
}
