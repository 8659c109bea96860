//! The MVCC version chain: the immutable committed snapshots reads pin,
//! and the guards that hold one.

use crate::error::{OntoError, OntoResult};
use rel::Database;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, MutexGuard, RwLock, RwLockReadGuard, Weak};

/// One published committed state of the database: the immutable
/// snapshot a read pins, tagged with the commit sequence that produced
/// it (the WAL commit unit on a durable mediator).
#[derive(Debug)]
pub struct DatabaseVersion {
    pub(super) seq: u64,
    pub(super) db: Database,
}

impl DatabaseVersion {
    /// The commit sequence this version corresponds to.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

// How many published versions the chain retains (beyond any still
// pinned by live guards, which keep their version alive through their
// `Arc` regardless). Bounds both time-travel depth and the memory the
// chain itself can hold onto.
const RETAINED_VERSIONS: usize = 32;

// The chain of retained versions, oldest → newest; the back is the
// current version. Never empty: construction publishes the initial
// state. Sequence numbers are strictly increasing along the deque.
// Read-locked for the instant of an Arc clone, write-locked for the
// instant of a publish. Lock order: live → chain (never the reverse).
#[derive(Debug)]
pub(super) struct VersionChain {
    versions: RwLock<VecDeque<Arc<DatabaseVersion>>>,
}

impl VersionChain {
    pub(super) fn new(seq: u64, db: Database) -> Self {
        VersionChain {
            versions: RwLock::new(VecDeque::from([Arc::new(DatabaseVersion { seq, db })])),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, VecDeque<Arc<DatabaseVersion>>> {
        self.versions.read().unwrap_or_else(|e| e.into_inner())
    }

    // Pin the newest published version: one Arc clone under the read
    // lock — the entirety of what a read shares with writers.
    pub(super) fn current(&self) -> Arc<DatabaseVersion> {
        Arc::clone(self.read().back().expect("chain is never empty"))
    }

    // Publish `db` as a new version, retiring versions beyond the
    // retention window: under `seq` when a WAL (or the leader) handed
    // one out, under the next sequence number otherwise (in-memory
    // commits and the raw test guard). Callers hold the live lock, so
    // publishes happen in commit order and seqs stay monotone.
    pub(super) fn publish(&self, db: Database, seq: Option<u64>) {
        let mut versions = self.versions.write().unwrap_or_else(|e| e.into_inner());
        let newest = versions.back().expect("chain is never empty").seq;
        let seq = seq.unwrap_or(newest + 1);
        debug_assert!(newest < seq, "versions publish in commit order");
        versions.push_back(Arc::new(DatabaseVersion { seq, db }));
        while versions.len() > RETAINED_VERSIONS {
            versions.pop_front();
        }
    }

    // Replace the current version with an index-only variant (same
    // rows, same seq): admission-time join-index provisioning must not
    // mutate the published snapshot in place, so it rebuilds against
    // the live database and swaps the result in here.
    pub(super) fn republish_current(&self, db: Database) {
        let mut versions = self.versions.write().unwrap_or_else(|e| e.into_inner());
        let seq = versions.pop_back().expect("chain is never empty").seq;
        versions.push_back(Arc::new(DatabaseVersion { seq, db }));
    }

    // The retained version for time travel: the newest version with
    // `version.seq <= seq` (a commit may leave no version of its own
    // only when it changed nothing).
    pub(super) fn at(&self, seq: u64) -> OntoResult<Arc<DatabaseVersion>> {
        let versions = self.read();
        let newest = versions.back().expect("chain is never empty").seq;
        if seq > newest {
            return Err(OntoError::Unsupported {
                message: format!("cannot read as of commit {seq}: the current version is {newest}"),
            });
        }
        match versions.iter().rev().find(|v| v.seq <= seq) {
            Some(version) => Ok(Arc::clone(version)),
            None => {
                let oldest = versions.front().expect("chain is never empty").seq;
                Err(OntoError::Unsupported {
                    message: format!(
                        "version {seq} has been retired (retained window: {oldest}..={newest})"
                    ),
                })
            }
        }
    }

    // (current sequence, versions retained), for `/status`.
    pub(super) fn extent(&self) -> (u64, usize) {
        let versions = self.read();
        (
            versions.back().expect("chain is never empty").seq,
            versions.len(),
        )
    }

    pub(super) fn weak(&self, seq: u64) -> Option<Weak<DatabaseVersion>> {
        self.read()
            .iter()
            .find(|v| v.seq == seq)
            .map(Arc::downgrade)
    }
}

/// Pinned read access to one published database version.
///
/// Owns an `Arc` to its version — not a lock guard: holding one never
/// blocks writers, and every read through it (`Deref` to [`Database`])
/// sees the same committed snapshot. Obtained from
/// [`Mediator::database`](super::Mediator::database) /
/// [`ReadSession::database`](super::ReadSession::database), which pin
/// the newest version at call time, or from a time-travel session.
/// Dropping the guard releases the version; a version past the
/// retention window is freed as soon as its last guard drops.
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

/// Exclusive write guard over the mediator's live database (test
/// support — see
/// [`Mediator::database_mut_for_tests`](super::Mediator::database_mut_for_tests)).
/// On drop the (possibly mutated) live state is published as a new
/// version, so later reads observe the raw edits.
#[derive(Debug)]
pub struct DatabaseWriteGuard<'a> {
    pub(super) chain: &'a VersionChain,
    pub(super) db: MutexGuard<'a, Database>,
}

impl Deref for DatabaseWriteGuard<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.db
    }
}

impl DerefMut for DatabaseWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        &mut self.db
    }
}

impl Drop for DatabaseWriteGuard<'_> {
    fn drop(&mut self) {
        // Raw edits bypass the WAL, so this version id does not
        // correspond to a WAL commit unit — acceptable for a
        // doc-hidden test hook, fatal anywhere else.
        self.chain.publish(self.db.clone(), None);
    }
}
