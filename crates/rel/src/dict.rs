//! The database-wide string dictionary: every text value the engine
//! stores or compares is interned exactly once and referenced by a
//! fixed-width [`Sym`].
//!
//! Interning turns the hot paths that used to hash, compare, and clone
//! heap `String`s — equality residuals, hash-join keys, secondary-index
//! probes, redo logging — into integer operations: two `Sym`s are
//! equal iff their strings are equal, so `Value::Text` equality and
//! hashing never touch string bytes, and building an index key out of a
//! text value is a 4-byte copy instead of an allocation.
//!
//! The dictionary is **process-global and append-only**. Globality is
//! what makes the integer-equality invariant hold across every
//! `Database`, published version, writer's clone and differential-test
//! twin in the process: the same string always resolves to the same
//! `Sym`, so byte-identity suites keep comparing raw values. Append-only means
//! symbols are never re-numbered or freed (refcount/epoch GC is
//! deferred — see ARCHITECTURE.md); resolved `&'static str`s are
//! therefore stable for the process lifetime, which is what lets the
//! serialization edges (SQL printer, RDF literals, wire formats) borrow
//! out of the dictionary instead of cloning.
//!
//! Durable id spaces are a separate concern: on-disk WAL/snapshot
//! encodings must not depend on process intern order, so `dur` keeps
//! its own dense *persistent* id space versioned alongside the heap
//! (snapshots embed the id → string table, commit units carry deltas)
//! and maps persistent ids to `Sym`s at recovery time.
//!
//! # Storage
//!
//! Resolution is lock-free: symbol ids index into a chunk table of
//! append-only arrays (chunk `k` holds `1024 << k` slots), so
//! `Sym::as_str` is two loads and no lock. Interning new strings takes
//! a mutex, but only the *first* occurrence of a string ever pays it —
//! repeat interning is one hash-map probe under the same lock, and the
//! engine's hot paths hold `Sym`s already.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

/// An interned string: a fixed-width handle into the process-global
/// dictionary. Equality and hashing are integer operations on the id;
/// two `Sym`s are equal iff the strings they intern are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s`, returning its stable symbol (the existing one if the
    /// string was seen before).
    pub fn intern(s: &str) -> Sym {
        DICT.intern(s)
    }

    /// The symbol of `s` if it was ever interned, without interning it.
    /// A string that has no symbol equals no stored text, so a read can
    /// answer from this without growing the dictionary.
    pub fn lookup(s: &str) -> Option<Sym> {
        DICT.lookup(s)
    }

    /// The interned string. Lock-free; the reference is valid for the
    /// process lifetime (the dictionary is append-only).
    pub fn as_str(self) -> &'static str {
        DICT.resolve(self.0)
    }

    /// The raw dictionary id (diagnostics and tests; on-disk formats
    /// use their own persistent id space, never this value).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({} {:?})", self.0, self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Point-in-time dictionary counters (surfaced on a server's
/// `/status`). Process-global, like the dictionary itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictionaryStats {
    /// Distinct strings interned.
    pub symbols: u64,
    /// Total bytes of interned string data (each distinct string
    /// counted once).
    pub string_bytes: u64,
    /// Intern calls answered by an existing symbol.
    pub hits: u64,
    /// String bytes those hits did *not* re-allocate — the heap the
    /// dictionary saved versus one-`String`-per-value storage.
    pub bytes_saved: u64,
}

/// Current dictionary counters.
pub fn dictionary_stats() -> DictionaryStats {
    DICT.stats()
}

// Chunked append-only storage: chunk k holds FIRST_CHUNK << k slots,
// so 27 chunks cover every u32 id. Chunks are allocated lazily under
// the intern lock; readers only ever follow a chunk pointer published
// (Release) before any id inside it escaped the lock.
const FIRST_CHUNK_LOG2: u32 = 10;
const NUM_CHUNKS: usize = (33 - FIRST_CHUNK_LOG2) as usize;

// id → (chunk, offset). Chunk k spans ids
// [FIRST_CHUNK*(2^k - 1), FIRST_CHUNK*(2^(k+1) - 1)).
fn locate(id: u32) -> (usize, usize) {
    let shifted = (id >> FIRST_CHUNK_LOG2) + 1;
    let chunk = shifted.ilog2() as usize;
    let start = ((1u64 << chunk) - 1) << FIRST_CHUNK_LOG2;
    (chunk, (id as u64 - start) as usize)
}

fn chunk_len(chunk: usize) -> usize {
    1usize << (FIRST_CHUNK_LOG2 as usize + chunk)
}

struct Dictionary {
    // Intern side: string → id, plus the append cursor. The map keys
    // borrow the leaked interned strings, so each string is stored
    // once. (`Option` because `HashMap::new` is not const.)
    map: Mutex<Option<HashMap<&'static str, u32>>>,
    // Resolve side: chunk pointers, each to a leaked boxed slice of
    // `&'static str` slots. Written only under the map lock.
    chunks: [AtomicPtr<&'static str>; NUM_CHUNKS],
    symbols: AtomicU64,
    string_bytes: AtomicU64,
    hits: AtomicU64,
    bytes_saved: AtomicU64,
}

static DICT: Dictionary = Dictionary {
    map: Mutex::new(None),
    chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; NUM_CHUNKS],
    symbols: AtomicU64::new(0),
    string_bytes: AtomicU64::new(0),
    hits: AtomicU64::new(0),
    bytes_saved: AtomicU64::new(0),
};

impl Dictionary {
    fn intern(&self, s: &str) -> Sym {
        let mut guard = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let map = guard.get_or_insert_with(HashMap::new);
        if let Some(&id) = map.get(s) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_saved
                .fetch_add(s.len() as u64, Ordering::Relaxed);
            return Sym(id);
        }
        let id = u32::try_from(map.len()).expect("dictionary full (2^32 symbols)");
        // Leak: append-only interner, GC deferred by design. The leaked
        // allocation is the single copy every Value/serialization
        // borrows from.
        let stored: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (chunk, offset) = locate(id);
        let mut base = self.chunks[chunk].load(Ordering::Acquire);
        if base.is_null() {
            // First id landing in this chunk: allocate and publish it.
            // Only this thread can be here (the map lock serializes
            // interning), so the store cannot race another writer.
            let slots: Box<[&'static str]> = vec![""; chunk_len(chunk)].into_boxed_slice();
            base = Box::leak(slots).as_mut_ptr();
            self.chunks[chunk].store(base, Ordering::Release);
        }
        // SAFETY: `offset < chunk_len(chunk)` by construction of
        // `locate`; the slot is written exactly once (ids are never
        // reused) while holding the map lock, and no reader dereferences
        // this id before `Sym(id)` escapes the lock — the release of
        // the lock (or the channel the Sym travels through) orders the
        // write before any read.
        unsafe { *base.add(offset) = stored };
        map.insert(stored, id);
        self.symbols.fetch_add(1, Ordering::Relaxed);
        self.string_bytes
            .fetch_add(stored.len() as u64, Ordering::Relaxed);
        Sym(id)
    }

    fn lookup(&self, s: &str) -> Option<Sym> {
        let guard = self.map.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref()?.get(s).map(|&id| Sym(id))
    }

    fn resolve(&self, id: u32) -> &'static str {
        let (chunk, offset) = locate(id);
        let base = self.chunks[chunk].load(Ordering::Acquire);
        assert!(!base.is_null(), "Sym({id}) resolved before being interned");
        // SAFETY: `Sym`s are only constructed by `intern`, which wrote
        // slot `offset` before the id escaped; the Acquire load above
        // pairs with the Release publication of the chunk.
        unsafe { *base.add(offset) }
    }

    fn stats(&self) -> DictionaryStats {
        DictionaryStats {
            symbols: self.symbols.load(Ordering::Relaxed),
            string_bytes: self.string_bytes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_symbol() {
        let a = Sym::intern("dict-test-alpha");
        let b = Sym::intern("dict-test-alpha");
        let c = Sym::intern("dict-test-beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "dict-test-alpha");
        assert_eq!(c.as_str(), "dict-test-beta");
    }

    #[test]
    fn resolution_is_stable_under_growth() {
        let first = Sym::intern("dict-test-stable");
        let before = first.as_str() as *const str;
        // Push the dictionary across at least one chunk boundary.
        for i in 0..3000 {
            Sym::intern(&format!("dict-test-growth-{i}"));
        }
        assert_eq!(first.as_str() as *const str, before, "resolution moved");
        assert_eq!(Sym::intern("dict-test-stable"), first);
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert!(locate(u32::MAX).0 < NUM_CHUNKS);
        // Every id maps inside its chunk.
        for id in [0u32, 1023, 1024, 3071, 3072, 1 << 20, u32::MAX] {
            let (chunk, offset) = locate(id);
            assert!(offset < chunk_len(chunk), "id {id}");
        }
    }

    #[test]
    fn empty_string_interns() {
        let e = Sym::intern("");
        assert_eq!(e.as_str(), "");
        assert_eq!(Sym::intern(""), e);
    }

    #[test]
    fn lookup_finds_interned_strings_and_interns_nothing() {
        let known = Sym::intern("dict-test-lookup-known");
        assert_eq!(Sym::lookup("dict-test-lookup-known"), Some(known));
        // A second lookup still misses: the first interned nothing.
        assert_eq!(Sym::lookup("dict-test-lookup-never-interned"), None);
        assert_eq!(Sym::lookup("dict-test-lookup-never-interned"), None);
    }

    #[test]
    fn stats_count_hits_and_bytes() {
        let before = dictionary_stats();
        Sym::intern("dict-test-stats-unique-string");
        Sym::intern("dict-test-stats-unique-string");
        let after = dictionary_stats();
        assert!(after.symbols > before.symbols);
        assert!(after.hits > before.hits);
        assert!(after.string_bytes > before.string_bytes);
        assert!(after.bytes_saved > before.bytes_saved);
    }

    #[test]
    fn concurrent_intern_resolve() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..500 {
                        // Half shared strings (contended interning of the
                        // same key), half thread-unique.
                        let shared = Sym::intern(&format!("dict-test-shared-{i}"));
                        assert_eq!(shared.as_str(), format!("dict-test-shared-{i}"));
                        let own = Sym::intern(&format!("dict-test-own-{t}-{i}"));
                        assert_eq!(own.as_str(), format!("dict-test-own-{t}-{i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Shared strings resolved to one symbol across threads.
        let a = Sym::intern("dict-test-shared-0");
        let b = Sym::intern("dict-test-shared-0");
        assert_eq!(a, b);
    }
}
