//! The MVCC version chain: the one current committed snapshot reads
//! pin, and the guard that holds one.

use crate::error::{OntoError, OntoResult};
use rel::Database;
use std::ops::Deref;
use std::sync::{Arc, RwLock};

/// One published committed state of the database: the immutable
/// snapshot a read pins, tagged with the commit sequence that produced
/// it (the WAL commit unit on a durable mediator). Only a commit, a
/// replica's apply or a replica's base install creates one.
#[derive(Debug)]
pub struct DatabaseVersion {
    pub(super) seq: u64,
    pub(super) db: Database,
    // Clone of the chain's token: strong_count - 1 = versions alive.
    _alive: Arc<()>,
}

impl DatabaseVersion {
    /// The commit sequence this version corresponds to.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

// The current version. A reader's pin is an `Arc` clone of it, taken
// under the read lock; a publish swaps in the next one under the write
// lock. A replaced version lives on only while readers pin it. Nothing
// else is ever acquired while either lock is held.
#[derive(Debug)]
pub(super) struct VersionChain {
    current: RwLock<Arc<DatabaseVersion>>,
    alive: Arc<()>,
}

impl VersionChain {
    pub(super) fn new(seq: u64, db: Database) -> Self {
        let alive = Arc::new(());
        VersionChain {
            current: RwLock::new(Arc::new(DatabaseVersion {
                seq,
                db,
                _alive: Arc::clone(&alive),
            })),
            alive,
        }
    }

    // Pin the current version: one Arc clone under the read lock — the
    // entirety of what a read shares with writers.
    pub(super) fn current(&self) -> Arc<DatabaseVersion> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    // Publish `db` as the current version: under `seq` when a WAL (or
    // the leader) handed one out, under the next sequence number
    // otherwise (in-memory commits). Callers hold the writer mutex, so
    // publishes happen in commit order; a `seq` at or below the
    // current one — a leader's unit or snapshot out of order — is
    // refused and publishes nothing. The replaced version is dropped
    // after the lock is released, so a reader never waits on its
    // memory being freed.
    pub(super) fn publish(&self, db: Database, seq: Option<u64>) -> OntoResult<()> {
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        let seq = seq.unwrap_or(current.seq + 1);
        if seq <= current.seq {
            return Err(OntoError::Storage {
                message: format!(
                    "commit {seq} does not follow the current version {}; nothing published",
                    current.seq
                ),
            });
        }
        let version = Arc::new(DatabaseVersion {
            seq,
            db,
            _alive: Arc::clone(&self.alive),
        });
        let replaced = std::mem::replace(&mut *current, version);
        drop(current);
        drop(replaced);
        Ok(())
    }

    // (current sequence, versions alive: the current one plus those
    // readers pin), for `/status`.
    pub(super) fn extent(&self) -> (u64, usize) {
        let seq = self.current().seq;
        (seq, Arc::strong_count(&self.alive) - 1)
    }
}

/// Pinned read access to one published database version.
///
/// Owns an `Arc` to its version — not a lock guard: holding one never
/// blocks writers, and every read through it (`Deref` to [`Database`])
/// sees the same committed snapshot. Obtained from
/// [`Mediator::database`](super::Mediator::database) /
/// [`ReadSession::database`](super::ReadSession::database), which pin
/// the current version at call time. Dropping the guard releases the
/// version; a version a commit has replaced is freed as soon as its
/// last guard drops.
// No `Clone` derive: `guard.clone()` must keep deref-cloning the
// `Database` (call sites snapshot the heap that way); re-pinning is
// cheap anyway.
#[derive(Debug)]
pub struct DatabaseReadGuard {
    pub(super) version: Arc<DatabaseVersion>,
}

impl Deref for DatabaseReadGuard {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.version.db
    }
}

impl DatabaseReadGuard {
    /// Commit sequence of the pinned version.
    pub fn version_seq(&self) -> u64 {
        self.version.seq
    }
}
