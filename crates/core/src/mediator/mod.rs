//! The concurrent mediator core (paper §6, grown up).
//!
//! The paper's prototype is an HTTP endpoint — inherently concurrent.
//! This module is the shareable core such a transport needs: a
//! [`Mediator`] is an `Arc`-shared handle over one database + mapping,
//! handing out
//!
//! * [`ReadSession`]s — cheap (`Arc` clone), `Send + Sync`, answering
//!   `SELECT`/`ASK`/`DESCRIBE`/materialization through `&self`; any
//!   number run in parallel, and each query sees a consistent snapshot
//!   (writers are exclusive, so no torn or partial write is ever
//!   observable);
//! * [`WriteTxn`]s — exclusive write transactions over the live
//!   database. Each SPARQL/Update operation inside a transaction is
//!   atomic: a rejected operation is undone by restoring a snapshot of
//!   the persistent tables (O(tables + indexes)), and the transaction
//!   stays usable. The update pipeline
//!   translates `INSERT DATA` / `DELETE DATA` before taking the lock,
//!   against a pinned version, and under it only validates what that
//!   translation read (see `txn`).
//!
//! **MVCC snapshot reads.** Reads never take the writer's lock.
//! Committed state is one immutable *current version*: every commit
//! that changed anything publishes an [`Arc`]-shared
//! [`DatabaseVersion`] — a persistent-structure clone of the live
//! database (see [`rel::pmap`]), tagged with the commit's WAL sequence
//! number — in place of the one before. A query pins the current
//! version with one `Arc` clone and runs entirely against that
//! snapshot: a long SELECT no longer blocks commits, a bulk commit no
//! longer stalls every reader, and each query still sees one consistent
//! committed state. A replaced version is freed when its last reader
//! drops its pin. Only a commit, a replica's apply or a replica's base
//! install publishes: the index set is the schema's (PK, UNIQUE and FK
//! columns), so nothing on the read path builds an index or republishes
//! a version.
//!
//! Who locks what: the schema and mapping are immutable after
//! construction (validated once); the *live* database — touched only
//! by writers, and by a writer only to validate and execute, never to
//! run Algorithm 1 for DATA operations — sits behind a [`Mutex`] no
//! read takes; the current version sits behind an
//! [`std::sync::RwLock`] held only for the instants of pinning (an
//! `Arc` clone) and publishing (an `Arc` swap); the compiled-query
//! cache sits behind its own [`Mutex`] so cache bookkeeping never
//! blocks on data access. Lock order is live → chain; no code path
//! takes them in the other order. Compilation depends only on the
//! schema and mapping, so cached entries never go stale as data changes
//! (an entry that bound a string the dictionary lacked binds again once
//! the dictionary grows; see `cache`).
//!
//! The pieces, one file each: `versions` (the current version and its
//! guard),
//! `cache` (compiled-query cache), `session` ([`ReadSession`] and the
//! one query pipeline), `txn` ([`WriteTxn`] and the one update-script
//! pipeline), `durable` (WAL, checkpoint and replica wiring).

mod cache;
mod durable;
mod session;
mod txn;
mod versions;

pub use cache::QueryCacheStats;
pub use session::{CacheProbe, QueryExplain, QueryProfile, QueryRun, QueryStop, ReadSession};
pub use txn::{ScriptError, UpdateOutcome, UpdateProfile, WriteTxn};
pub use versions::{DatabaseReadGuard, DatabaseVersion};

use crate::error::{OntoError, OntoResult};
use cache::QueryCache;
use r3m::Mapping;
use rdf::namespace::PrefixMap;
use rel::Database;
use sparql::Solutions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use versions::VersionChain;

// Process-global query/transaction latency histograms. The obs
// registry is process-wide (like the string dictionary), so these
// aggregate over every mediator in the process; counts and occupancy
// live only in the per-instance `*_stats()` structs.
struct CoreMetrics {
    parse: &'static obs::Histogram,
    plan: &'static obs::Histogram,
    execute: &'static obs::Histogram,
    commit: &'static obs::Histogram,
}

fn metrics() -> &'static CoreMetrics {
    static METRICS: std::sync::OnceLock<CoreMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = obs::registry();
        CoreMetrics {
            parse: registry.latency_histogram(
                "ontoaccess_query_parse_seconds",
                "Wall time parsing SPARQL query text (text misses only)",
            ),
            plan: registry.latency_histogram(
                "ontoaccess_query_plan_seconds",
                "Wall time compiling a parsed query to SQL",
            ),
            execute: registry.latency_histogram(
                "ontoaccess_query_execute_seconds",
                "Wall time executing a compiled query against a pinned snapshot",
            ),
            commit: registry.latency_histogram(
                "ontoaccess_txn_commit_seconds",
                "Wall time of WriteTxn::commit (WAL append + publish + group fsync)",
            ),
        }
    })
}

/// Point-in-time view of the mediator's concurrency machinery, for
/// observability (the server's `/status` endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyStats {
    /// Sequence number of the current published version (the WAL commit
    /// unit it corresponds to, on a durable mediator).
    pub current_version: u64,
    /// Versions alive: the current one plus those readers still pin.
    pub versions_retained: usize,
    /// [`ReadSession`]s currently alive.
    pub read_sessions_live: usize,
    /// Write transactions begun (each acquires the write lock once).
    pub write_lock_waits: u64,
    /// Total microseconds writers spent waiting to acquire the write
    /// lock.
    pub write_lock_wait_micros: u64,
    /// `INSERT DATA` / `DELETE DATA` operations translated before the
    /// write lock whose read set no longer held under it (or whose
    /// pinned translation failed), and which were therefore translated
    /// again under the lock.
    pub write_retranslations: u64,
}

#[derive(Debug)]
struct MediatorCore {
    // The live database, touched only by writers (WriteTxn, checkpoint,
    // replica apply). Readers never lock it.
    live: Mutex<Database>,
    // The current version — what every read pins.
    chain: VersionChain,
    mapping: Mapping,
    prefixes: PrefixMap,
    cache: Mutex<QueryCache>,
    // When present, every committed WriteTxn is appended to the
    // write-ahead log and fsynced (group commit) before the commit
    // call returns; `None` keeps the mediator purely in-memory.
    durability: Option<dur::Durability>,
    // `Some(leader)` marks this mediator as a read replica: local
    // writes are refused (the one-durable-writer topology) and
    // committed state arrives exclusively through
    // [`Mediator::apply_replicated`].
    replica_of: Option<String>,
    // Live ReadSession counter: every session clones this token, so
    // strong_count - 1 = sessions alive (drop-glue observability).
    session_token: Arc<()>,
    // Writer-contention counters (surfaced by `/status`).
    write_lock_waits: AtomicU64,
    write_lock_wait_micros: AtomicU64,
    write_retranslations: AtomicU64,
}

impl MediatorCore {
    // Poisoning is recoverable here by construction: a panicking
    // writer's WriteTxn rolls its transaction back in Drop *before*
    // the guard is released, so the database behind a poisoned lock is
    // always in a consistent committed state — one crashed worker must
    // not brick the mediator for every other session.
    fn lock_live(&self) -> MutexGuard<'_, Database> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_cache(&self) -> MutexGuard<'_, QueryCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Shared handle to one mediator core. Cloning is an `Arc` clone: all
/// clones, [`ReadSession`]s, and [`WriteTxn`]s observe the same
/// database, mapping, and query cache.
#[derive(Debug, Clone)]
pub struct Mediator {
    core: Arc<MediatorCore>,
}

impl Mediator {
    /// Create an in-memory mediator, validating the mapping against the
    /// schema. Committed state lives only in RAM; see
    /// [`Mediator::with_durability`] / [`Mediator::open_durable`] for
    /// the persistent variants.
    pub fn new(db: Database, mapping: Mapping) -> OntoResult<Self> {
        Self::build(db, mapping, None, None, None)
    }

    fn build(
        db: Database,
        mapping: Mapping,
        durability: Option<dur::Durability>,
        replica_of: Option<String>,
        initial_seq: Option<u64>,
    ) -> OntoResult<Self> {
        r3m::validate_strict(&mapping, db.schema()).map_err(|issue| OntoError::Unsupported {
            message: format!("mapping rejected: {issue}"),
        })?;
        let mut prefixes = PrefixMap::common();
        if let Some(prefix) = &mapping.uri_prefix {
            prefixes.insert("ex", prefix.clone());
        }
        // The initial version's sequence number is the last recovered
        // WAL commit unit (0 on a fresh directory or in memory), so the
        // next commit's version id lines up with its WAL seq and a
        // reopened mediator resumes the same numbering. A replica's
        // numbering starts at its bootstrap snapshot's sequence.
        let initial_seq = initial_seq
            .unwrap_or_else(|| durability.as_ref().map_or(0, |d| d.stats().last_commit_seq));
        Ok(Mediator {
            core: Arc::new(MediatorCore {
                chain: VersionChain::new(initial_seq, db.clone()),
                live: Mutex::new(db),
                mapping,
                prefixes,
                cache: Mutex::new(QueryCache::new()),
                durability,
                replica_of,
                session_token: Arc::new(()),
                write_lock_waits: AtomicU64::new(0),
                write_lock_wait_micros: AtomicU64::new(0),
                write_retranslations: AtomicU64::new(0),
            }),
        })
    }

    /// String-dictionary counters. The dictionary is process-global
    /// (every mediator in this process interns into the same table),
    /// so the numbers describe the process, not one database.
    pub fn dictionary_stats(&self) -> rel::DictionaryStats {
        rel::dictionary_stats()
    }

    /// A read session: cheap, `Send + Sync`, queries through `&self`.
    /// Each query pins the newest published version at its start and
    /// runs entirely against that snapshot, without ever taking the
    /// writer's lock.
    pub fn read(&self) -> ReadSession {
        ReadSession {
            core: Arc::clone(&self.core),
            _token: Arc::clone(&self.core.session_token),
        }
    }

    /// Point-in-time concurrency counters: the published version id,
    /// versions alive, live read sessions, and how long writers
    /// have waited to acquire the write lock (surfaced by the server's
    /// `/status` endpoint).
    pub fn concurrency_stats(&self) -> ConcurrencyStats {
        let (current_version, versions_retained) = self.core.chain.extent();
        ConcurrencyStats {
            current_version,
            versions_retained,
            read_sessions_live: Arc::strong_count(&self.core.session_token) - 1,
            write_lock_waits: self.core.write_lock_waits.load(Ordering::Relaxed),
            write_lock_wait_micros: self.core.write_lock_wait_micros.load(Ordering::Relaxed),
            write_retranslations: self.core.write_retranslations.load(Ordering::Relaxed),
        }
    }

    /// The mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.core.mapping
    }

    /// Prefixes used for parsing requests and rendering output
    /// (the common vocabularies plus `ex:` for the instance namespace).
    pub fn prefixes(&self) -> &PrefixMap {
        &self.core.prefixes
    }

    /// Pin the newest published version for reading. The guard owns its
    /// snapshot — holding it never blocks writers, and it can safely
    /// live across write calls (it simply keeps seeing its pinned
    /// state).
    pub fn database(&self) -> DatabaseReadGuard {
        DatabaseReadGuard {
            version: self.core.chain.current(),
        }
    }

    /// Execute a SELECT given as text against the newest published
    /// version — a one-shot [`ReadSession::select`]. Every other read
    /// goes through [`Mediator::read`].
    pub fn select(&self, text: &str) -> OntoResult<Solutions> {
        self.read().select(text)
    }

    /// Number of query texts currently cached.
    pub fn cached_query_count(&self) -> usize {
        self.core.lock_cache().stats().entries
    }

    /// Whether `text` itself is currently cached: a text this mediator
    /// has run. Another cached text of the same shape does not count.
    pub fn is_query_cached(&self, text: &str) -> bool {
        self.core.lock_cache().contains(text)
    }

    /// Point-in-time compiled-query cache statistics (texts, shapes,
    /// capacity, hit/miss/eviction counters since construction).
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.core.lock_cache().stats()
    }

    /// Set the compiled-query cache capacity (≥ 1). Nothing is evicted
    /// immediately; a cache above the new capacity shrinks to it as
    /// later misses evict. Production deployments size this to their
    /// distinct-query working set.
    pub fn set_query_cache_capacity(&self, capacity: usize) {
        self.core.lock_cache().set_capacity(capacity);
    }
}

// Compile-time proof that the handles cross threads: a transport can
// share one Mediator and hand a ReadSession to every worker.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mediator>();
    assert_send_sync::<ReadSession>();
    assert_send_sync::<DatabaseReadGuard>();
};
