//! Durability and replication wiring: the persistent and replica
//! constructors, the replication follower/leader entry points, and the
//! checkpoint — everything on [`Mediator`] that talks to [`dur`].

use super::Mediator;
use crate::error::{OntoError, OntoResult};
use r3m::Mapping;
use rel::Database;

const NOT_A_LEADER: &str = "replication requires a durable leader (no data directory here)";

impl Mediator {
    /// Create a mediator whose commits are persisted through an open
    /// [`dur::Durability`] handle: every [`WriteTxn::commit`](super::WriteTxn::commit) appends
    /// the transaction's logical operations to the write-ahead log and
    /// fsyncs (group commit) before returning. The database should be
    /// the one the handle's recovery produced
    /// ([`dur::Durability::open`]) — [`Mediator::open_durable`] wires
    /// the two steps together.
    pub fn with_durability(
        db: Database,
        mapping: Mapping,
        durability: dur::Durability,
    ) -> OntoResult<Self> {
        Self::build(db, mapping, Some(durability), None, None)
    }

    /// Create a read-replica mediator: `db` is the state bootstrapped
    /// from the leader's snapshot at commit `applied_seq`, and `leader`
    /// is the address local writes are redirected to. The replica is
    /// in-memory (its durability lives on the leader); committed state
    /// advances only through [`Mediator::apply_replicated`], and every
    /// write entry point fails with [`OntoError::ReadOnlyReplica`].
    pub fn new_replica(
        db: Database,
        mapping: Mapping,
        leader: impl Into<String>,
        applied_seq: u64,
    ) -> OntoResult<Self> {
        Self::build(db, mapping, None, Some(leader.into()), Some(applied_seq))
    }

    /// Open (or create) a durable data directory and serve the
    /// recovered state: load the newest valid snapshot, replay the
    /// committed WAL suffix, truncate any torn tail, and return a
    /// mediator whose commits append to that WAL. `initial` provides
    /// the schema and, for a fresh directory, the base data (which is
    /// immediately checkpointed as snapshot 0).
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        initial: Database,
        mapping: Mapping,
    ) -> OntoResult<(Self, dur::RecoveryReport)> {
        let opened = dur::Durability::open(dir, initial)?;
        let mediator = Self::with_durability(opened.db, mapping, opened.durability)?;
        Ok((mediator, opened.report))
    }

    /// Whether commits are persisted to a data directory.
    pub fn is_durable(&self) -> bool {
        self.core.durability.is_some()
    }

    /// Durability counters (`None` for an in-memory mediator).
    pub fn durability_stats(&self) -> Option<dur::DurabilityStats> {
        self.core.durability.as_ref().map(dur::Durability::stats)
    }

    /// The leader address when this mediator is a read replica.
    pub fn replica_of(&self) -> Option<&str> {
        self.core.replica_of.as_deref()
    }

    // A replica accepts no local writes; the guard sits on the two
    // update entry points every transport route funnels through.
    pub(super) fn ensure_writable(&self) -> OntoResult<()> {
        match &self.core.replica_of {
            Some(leader) => Err(OntoError::ReadOnlyReplica {
                leader: leader.clone(),
            }),
            None => Ok(()),
        }
    }

    // The durability handle, or `Unsupported` with `message` on an
    // in-memory mediator.
    fn durability_or(&self, message: &str) -> OntoResult<&dur::Durability> {
        self.core
            .durability
            .as_ref()
            .ok_or_else(|| OntoError::Unsupported {
                message: message.into(),
            })
    }

    /// Apply one replicated commit unit (replication follower path):
    /// replay the leader's logical operations, borrowed from the decoded
    /// unit, onto a clone of the current version and publish it under
    /// the leader's commit sequence, so replica reads are ordinary
    /// pinned MVCC snapshots with leader-aligned version ids. The caller
    /// (the replicator) feeds units in sequence order and skips
    /// already-applied sequences; a unit at or below the current
    /// version is refused. The unit applies whole or not at all: a
    /// rejected operation drops the clone, and nothing is published.
    pub fn apply_replicated(&self, unit: &dur::wal::CommitUnit) -> OntoResult<()> {
        let _writer = self.core.exclude_writers();
        let mut db = self.core.chain.current().db.clone();
        unit.ops().try_for_each(|op| db.apply_logical(op))?;
        self.core.chain.publish(db, Some(unit.seq))
    }

    /// Replace a replica's state wholesale with a fresh bootstrap
    /// snapshot at commit `seq` (re-bootstrap after the leader's
    /// checkpoint truncated WAL history this replica had not applied
    /// yet). Already-pinned read sessions keep their old versions;
    /// new reads see the snapshot. A `seq` at or below the current
    /// version is refused, and nothing changes.
    pub fn install_replica_base(&self, db: Database, seq: u64) -> OntoResult<()> {
        let _writer = self.core.exclude_writers();
        self.core.chain.publish(db, Some(seq))
    }

    /// Current WAL coordinate for replication (`None` without
    /// durability).
    pub fn wal_position(&self) -> Option<dur::WalPosition> {
        self.core
            .durability
            .as_ref()
            .map(dur::Durability::wal_position)
    }

    /// Serve durable WAL bytes to a replication follower (leader side;
    /// see [`dur::Durability::fetch_wal`]). [`OntoError::Unsupported`]
    /// without durability — an in-memory endpoint (including a replica)
    /// has no log to ship.
    pub fn fetch_wal(
        &self,
        from: u64,
        epoch: u64,
        timeout: std::time::Duration,
    ) -> OntoResult<dur::WalFetch> {
        Ok(self
            .durability_or(NOT_A_LEADER)?
            .fetch_wal(from, epoch, timeout)?)
    }

    /// The newest snapshot's raw bytes for follower bootstrap (leader
    /// side). [`OntoError::Unsupported`] without durability.
    pub fn latest_snapshot_bytes(&self) -> OntoResult<(u64, Vec<u8>)> {
        Ok(self.durability_or(NOT_A_LEADER)?.latest_snapshot_bytes()?)
    }

    /// Checkpoint: durably snapshot the current committed state and
    /// truncate the write-ahead log, so recovery starts from this point
    /// (the server's `POST /snapshot` admin operation). Returns the
    /// snapshot's commit sequence. Blocks writers for the duration
    /// (holds the writer mutex — the durability layer requires that no
    /// commit lands between serialization and WAL truncation). A commit
    /// appends and publishes under that mutex, so the current version
    /// covers every unit appended so far. Readers proceed on their
    /// pinned versions throughout. Fails with
    /// [`OntoError::Unsupported`] on an in-memory mediator.
    pub fn checkpoint(&self) -> OntoResult<u64> {
        let durability =
            self.durability_or("mediator has no durability configured (no data directory)")?;
        let _writer = self.core.exclude_writers();
        Ok(durability.checkpoint(&self.core.chain.current().db)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{endpoint_fixture, fixture_db_with_rows, fixture_mediator as mediator};

    fn scratch_dir() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontoaccess-mediator-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_mediator(dir: &std::path::Path) -> (Mediator, dur::RecoveryReport) {
        let (db, mapping) = fixture_db_with_rows();
        Mediator::open_durable(dir, db, mapping).unwrap()
    }

    #[test]
    fn durable_commits_survive_reopen() {
        let dir = scratch_dir();
        {
            let (m, report) = durable_mediator(&dir);
            assert_eq!(report.commits_replayed, 0);
            assert!(m.is_durable());
            m.execute_update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }")
                .unwrap();
            let mut txn = m.write();
            txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
                .unwrap();
            txn.update(
                "INSERT DATA { ex:author9 foaf:family_name \"Glinz\" ; ont:team ex:team9 . }",
            )
            .unwrap();
            txn.commit().unwrap();
            let stats = m.durability_stats().unwrap();
            assert_eq!(stats.commits_appended, 2, "one unit per transaction");
        }
        let (reopened, report) = durable_mediator(&dir);
        assert_eq!(report.commits_replayed, 2);
        assert_eq!(reopened.database().row_count("author").unwrap(), 4);
        assert_eq!(reopened.database().row_count("team").unwrap(), 3);
        assert_eq!(
            reopened
                .select("SELECT ?x WHERE { ?x foaf:family_name \"Gall\" . }")
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolled_back_and_rejected_work_is_never_logged() {
        let dir = scratch_dir();
        {
            let (m, _) = durable_mediator(&dir);
            // A rejected operation rolls its transaction back: the
            // commit is refused, and neither operation reaches the log.
            let mut txn = m.write();
            txn.update("INSERT DATA { ex:team10 foaf:name \"T10\" . }")
                .unwrap();
            let err = txn
                .update("INSERT DATA { ex:author8 ont:team ex:team424242 . }")
                .unwrap_err();
            assert!(matches!(err, OntoError::DanglingObject { .. }));
            assert!(txn.commit().is_err());
            // A fully rolled-back transaction logs nothing at all.
            let mut txn = m.write();
            txn.update("INSERT DATA { ex:team10 foaf:name \"T10\" . }")
                .unwrap();
            txn.rollback().unwrap();
            assert_eq!(m.durability_stats().unwrap().commits_appended, 0);
            m.execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
                .unwrap();
            assert_eq!(m.durability_stats().unwrap().commits_appended, 1);
        }
        let (reopened, _) = durable_mediator(&dir);
        assert_eq!(reopened.database().row_count("team").unwrap(), 3);
        assert_eq!(reopened.database().row_count("author").unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers_from_snapshot() {
        let dir = scratch_dir();
        {
            let (m, _) = durable_mediator(&dir);
            m.execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
                .unwrap();
            let wal_before = m.durability_stats().unwrap().wal_bytes;
            let seq = m.checkpoint().unwrap();
            let stats = m.durability_stats().unwrap();
            assert!(stats.wal_bytes < wal_before, "checkpoint truncates the log");
            assert_eq!(stats.last_snapshot_seq, Some(seq));
            // Post-checkpoint commits land in the fresh log suffix.
            m.execute_update("INSERT DATA { ex:team10 foaf:name \"T10\" . }")
                .unwrap();
        }
        let (reopened, report) = durable_mediator(&dir);
        assert_eq!(report.snapshot_seq, Some(1));
        assert_eq!(report.commits_replayed, 1);
        assert_eq!(reopened.database().row_count("team").unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_and_checkpoints_make_progress() {
        // Regression guard for the checkpoint/group-fsync lock
        // ordering: checkpoints claim the sync token while holding the
        // append lock, committers fsync without ever holding both — a
        // deadlock here hangs this test (and CI kills it).
        let dir = scratch_dir();
        let (m, _) = durable_mediator(&dir);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = m.clone();
                scope.spawn(move || {
                    for i in 0..20u64 {
                        let id = 930_000 + t * 1_000 + i;
                        m.execute_update(&format!(
                            "INSERT DATA {{ ex:author{id} foaf:family_name \"C{id}\" . }}"
                        ))
                        .unwrap();
                    }
                });
            }
            for _ in 0..10 {
                m.checkpoint().unwrap();
            }
        });
        m.checkpoint().unwrap();
        assert_eq!(m.database().row_count("author").unwrap(), 2 + 80);
        // Everything was committed durably: a reopen sees all of it.
        drop(m);
        let (reopened, _) = durable_mediator(&dir);
        assert_eq!(reopened.database().row_count("author").unwrap(), 2 + 80);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_durability_is_unsupported() {
        let m = mediator();
        assert!(!m.is_durable());
        assert!(m.durability_stats().is_none());
        assert!(matches!(m.checkpoint(), Err(OntoError::Unsupported { .. })));
    }

    #[test]
    fn rejected_replicated_unit_leaves_the_live_database_untouched() {
        let (db, mapping) = fixture_db_with_rows();
        let replica = Mediator::new_replica(db, mapping, "127.0.0.1:7878", 0).unwrap();
        let heap = |db: &Database| -> Vec<(rel::RowId, Vec<rel::Value>)> {
            db.scan("team")
                .unwrap()
                .map(|(id, row)| (id, row.clone()))
                .collect()
        };
        let (before, free, mut row) = {
            let db = replica.database();
            let row = db.row("team", 0).unwrap().unwrap().clone();
            (heap(&db), db.next_row_id("team").unwrap(), row)
        };
        row[0] = rel::Value::Int(424_242);
        row[2] = rel::Value::text("RT");
        // A CRC-valid unit: a valid insert, then one at an occupied row.
        let bytes = dur::wal::encode_commit_unit(
            1,
            &[
                rel::LogicalOp::Insert {
                    table: "team",
                    row_id: free,
                    row: &row,
                },
                rel::LogicalOp::Insert {
                    table: "team",
                    row_id: 0,
                    row: &row,
                },
            ],
            &mut dur::codec::DictTable::new(),
            None,
        );
        let units = dur::wal::scan_records(&bytes, &mut dur::codec::DictTable::new()).units;
        assert_eq!(units.len(), 1);
        assert!(replica.apply_replicated(&units[0]).is_err());
        assert_eq!(heap(&replica.database()), before);
        assert_eq!(replica.concurrency_stats().current_version, 0);
    }

    #[test]
    fn replica_base_at_or_below_the_current_version_is_refused() {
        let (db, mapping) = fixture_db_with_rows();
        let replica = Mediator::new_replica(db, mapping, "127.0.0.1:7878", 5).unwrap();
        let (empty, _) = endpoint_fixture();
        for seq in [5, 4, 0] {
            let err = replica
                .install_replica_base(empty.clone(), seq)
                .unwrap_err();
            assert!(matches!(err, OntoError::Storage { .. }), "{err}");
            assert_eq!(replica.concurrency_stats().current_version, 5);
            assert_eq!(replica.database().row_count("team").unwrap(), 2);
        }
    }

    #[test]
    fn replica_applies_leader_wal_and_redirects_writes() {
        let dir = scratch_dir();
        let (leader, _) = durable_mediator(&dir);
        leader
            .execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();

        // Bootstrap exactly as a follower would: snapshot bytes decoded
        // against the local schema (fingerprint checked), dictionary
        // adopted, replica numbered from the snapshot's sequence.
        let (snap_seq, snap_bytes) = leader.latest_snapshot_bytes().unwrap();
        let (db, mapping) = fixture_db_with_rows();
        let (decoded_seq, base, mut dict) =
            dur::snapshot::decode_snapshot(&snap_bytes, db.schema()).unwrap();
        assert_eq!(decoded_seq, snap_seq);
        let replica = Mediator::new_replica(base, mapping, "127.0.0.1:7878", snap_seq).unwrap();
        assert_eq!(replica.replica_of(), Some("127.0.0.1:7878"));
        assert_eq!(replica.concurrency_stats().current_version, snap_seq);

        // Tail the leader's WAL once and apply every unit past the
        // snapshot.
        let position = leader.wal_position().unwrap();
        let fetched = leader
            .fetch_wal(
                dur::wal::WAL_MAGIC.len() as u64,
                position.epoch,
                std::time::Duration::ZERO,
            )
            .unwrap();
        let dur::WalFetch::Data { bytes, .. } = fetched else {
            panic!("leader has committed units to ship");
        };
        for unit in dur::wal::scan_records(&bytes, &mut dict).units {
            if unit.seq > snap_seq {
                replica.apply_replicated(&unit).unwrap();
            }
        }
        assert_eq!(
            replica.concurrency_stats().current_version,
            leader.concurrency_stats().current_version
        );
        assert_eq!(replica.database().row_count("team").unwrap(), 3);

        // Local writes are refused with the leader's address, on every
        // entry point a transport routes through.
        let err = replica
            .execute_update("INSERT DATA { ex:team10 foaf:name \"X\" . }")
            .unwrap_err();
        assert!(
            matches!(&err, OntoError::ReadOnlyReplica { leader } if leader == "127.0.0.1:7878")
        );
        assert!(err.hint().unwrap().contains("127.0.0.1:7878"));
        let err = replica
            .execute_script("INSERT DATA { ex:team10 foaf:name \"X\" . }", true)
            .unwrap_err();
        assert!(matches!(err.error, OntoError::ReadOnlyReplica { .. }));
        let (_, result) =
            replica.execute_update_with_feedback("INSERT DATA { ex:team10 foaf:name \"X\" . }");
        assert!(matches!(result, Err(OntoError::ReadOnlyReplica { .. })));
        // A replica has no durability of its own: checkpoint and WAL
        // serving are unsupported (a cascading follower gets a 501).
        assert!(matches!(
            replica.checkpoint(),
            Err(OntoError::Unsupported { .. })
        ));
        assert!(matches!(
            replica.fetch_wal(8, 0, std::time::Duration::ZERO),
            Err(OntoError::Unsupported { .. })
        ));
        assert!(replica.wal_position().is_none());

        // Re-bootstrap path: install a fresh base wholesale.
        let (snap_seq2, snap_bytes2) = {
            leader.checkpoint().unwrap();
            leader
                .execute_update("INSERT DATA { ex:team11 foaf:name \"Y\" . }")
                .unwrap();
            leader.checkpoint().unwrap();
            leader.latest_snapshot_bytes().unwrap()
        };
        let (_, base2, _) = dur::snapshot::decode_snapshot(&snap_bytes2, db.schema()).unwrap();
        replica.install_replica_base(base2, snap_seq2).unwrap();
        assert_eq!(replica.concurrency_stats().current_version, snap_seq2);
        assert_eq!(replica.database().row_count("team").unwrap(), 4);
        drop(leader);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
