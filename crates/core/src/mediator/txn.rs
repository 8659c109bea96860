//! The write side: [`WriteTxn`] and the one update-script pipeline
//! (parse → per-operation savepoint → commit) every write goes through.

use super::{metrics, Mediator, MediatorCore};
use crate::error::{OntoError, OntoResult};
use crate::feedback::Feedback;
use crate::modify::ModifyReport;
use rel::sql::Statement;
use rel::Database;
use sparql::UpdateOp;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// Result of a successful update.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Operation kind (`INSERT DATA`, `DELETE DATA`, `MODIFY`).
    pub operation: String,
    /// SQL statements executed, in execution order — one per
    /// table-level group on the set-based write path.
    pub statements: Vec<Statement>,
    /// Number of statement groups executed (0 = request was a no-op).
    pub statements_executed: usize,
    /// Total rows inserted/updated/deleted across all groups.
    pub rows_affected: usize,
    /// MODIFY-specific artifacts (Algorithm 2's intermediate steps).
    pub modify: Option<ModifyReport>,
}

/// Failure of a multi-operation update request.
#[derive(Debug, Clone)]
pub struct ScriptError {
    /// Zero-based index of the failing operation.
    pub operation_index: usize,
    /// Outcomes of the operations that completed before the failure
    /// (already rolled back when the script ran atomically).
    pub completed: Vec<UpdateOutcome>,
    /// The failing operation's error.
    pub error: OntoError,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "operation {} of the update request failed: {}",
            self.operation_index + 1,
            self.error
        )
    }
}

impl std::error::Error for ScriptError {}

/// Per-stage wall times of an update script — accumulated on every
/// write, printed by the server's `?profile=1` on `POST /update` as its
/// `X-Profile` header. Each stage is the sum over the script's
/// operations (and, non-atomically, its transactions).
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateProfile {
    /// Wall time parsing the update script.
    pub parse: Duration,
    /// Wall time translating triples to SQL statements (Algorithms
    /// 1/2; a MODIFY translates per matched binding inside its
    /// execution, so all of it is accounted to `execute`).
    pub translate: Duration,
    /// Wall time dependency-sorting translated statements.
    pub sort: Duration,
    /// Wall time executing statements against the live database.
    pub execute: Duration,
    /// Wall time encoding and writing commit units to the WAL (zero on
    /// an in-memory mediator).
    pub wal_append: Duration,
    /// Wall time blocked on the covering group fsync (zero on an
    /// in-memory mediator).
    pub fsync: Duration,
    /// Operations the script executed.
    pub operations: usize,
}

impl UpdateProfile {
    // Fold one transaction's stage times into the script's totals.
    fn absorb(&mut self, txn: UpdateProfile) {
        self.translate += txn.translate;
        self.sort += txn.sort;
        self.execute += txn.execute;
        self.wal_append += txn.wal_append;
        self.fsync += txn.fsync;
    }
}

/// An exclusive write transaction over the mediator's live database.
///
/// Obtained from [`Mediator::write`]; holds the live-database lock for
/// its whole lifetime, so writers serialize — but readers never see the
/// lock: they keep answering from published versions, and observe this
/// transaction's effects only after [`WriteTxn::commit`] publishes a
/// new version, so intermediate states are unobservable. Each
/// [`WriteTxn::update_op`] runs as a savepoint scope: on rejection the
/// operation's changes are undone at O(rows touched) cost and the
/// transaction remains usable. Dropping the transaction without
/// [`WriteTxn::commit`] rolls everything back.
#[derive(Debug)]
pub struct WriteTxn<'a> {
    core: &'a MediatorCore,
    db: MutexGuard<'a, Database>,
    open: bool,
    // Stage times of the work done in this transaction so far.
    stages: UpdateProfile,
}

impl WriteTxn<'_> {
    /// Execute a SPARQL/Update given as text inside this transaction.
    pub fn update(&mut self, text: &str) -> OntoResult<UpdateOutcome> {
        let op = sparql::parse_update_with_prefixes(text, self.core.prefixes.clone())?;
        self.update_op(&op)
    }

    /// Execute a parsed SPARQL/Update operation inside this transaction,
    /// as a savepoint scope: a rejected operation is fully undone while
    /// earlier operations — and the transaction — survive.
    pub fn update_op(&mut self, op: &UpdateOp) -> OntoResult<UpdateOutcome> {
        let sp = self.db.savepoint("operation")?;
        match crate::modify::run_update_op(&mut self.db, &self.core.mapping, op, &mut self.stages) {
            Ok(outcome) => {
                self.db.release_savepoint(sp)?;
                Ok(outcome)
            }
            Err(e) => {
                // ROLLBACK TO keeps the mark (SQL); release it so the
                // stack does not grow with each rejected operation.
                self.db.rollback_to_savepoint(sp)?;
                self.db.release_savepoint(sp)?;
                Err(e)
            }
        }
    }

    /// The transaction's view of the database, including its own
    /// uncommitted changes.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Commit: keep every operation's changes, publish them as a new
    /// database version, and release the lock.
    ///
    /// Publication is the commit's visibility point: an O(tables +
    /// indexes) persistent-structure clone of the live database is
    /// pushed onto the version chain (tagged with the WAL commit
    /// sequence on a durable mediator), and the next query to pin a
    /// snapshot sees it. A transaction that changed nothing publishes
    /// nothing — version ids stay aligned with WAL commit units.
    ///
    /// On a durable mediator the commit is write-ahead logged first —
    /// the transaction's logical operations are appended to the WAL
    /// *before* the in-memory commit (a failed append rolls the whole
    /// transaction back, so memory never diverges from what the log can
    /// reproduce), the new version is published, the live-database lock
    /// is released, and only then does the call block on the group
    /// fsync. Concurrent committers share one fsync: the next writer
    /// can append while this one waits.
    pub fn commit(self) -> OntoResult<()> {
        self.commit_staged().map(drop)
    }

    // The commit itself, answering the transaction's stage times with
    // the durability stages (WAL append, group-fsync wait) filled in.
    fn commit_staged(mut self) -> OntoResult<UpdateProfile> {
        let span = obs::trace::span("txn.commit");
        self.open = false;
        let mut stages = self.stages;
        let changed = self.db.txn_has_changes()?;
        let Some(durability) = &self.core.durability else {
            self.db.commit()?;
            if changed {
                self.core.chain.publish(self.db.clone(), None);
            }
            metrics().commit.observe_duration(span.finish());
            return Ok(stages);
        };
        if !changed {
            // Read-only or fully rolled-back transaction: nothing to
            // make durable, nothing to publish.
            self.db.commit()?;
            return Ok(stages);
        }
        let ops = self.db.txn_ops()?;
        // Stamp the active trace's id into the commit unit so a
        // replica's apply links back to this request.
        let trace_id = obs::trace::current_trace_id();
        let append_started = Instant::now();
        let seq = match durability.append_commit(&ops, trace_id.as_deref()) {
            Ok(seq) => seq,
            Err(e) => {
                // The log could not take the commit unit; undo the
                // in-memory changes so the acknowledged state and the
                // recoverable state stay identical.
                self.db.rollback()?;
                return Err(e.into());
            }
        };
        stages.wal_append = append_started.elapsed();
        self.db.commit()?;
        self.core.chain.publish(self.db.clone(), Some(seq));
        // Release the live database (the next writer proceeds) before
        // waiting on the fsync — this is what lets concurrent
        // committers amortize one fsync. The reference outlives `self`
        // (it borrows from the mediator core, not the guard).
        let durability: &dur::Durability = durability;
        drop(self);
        let fsync_started = Instant::now();
        durability.sync_to(seq)?;
        stages.fsync = fsync_started.elapsed();
        span.attr_u64("seq", seq);
        metrics().commit.observe_duration(span.finish());
        Ok(stages)
    }

    /// Roll back: undo every operation's changes and release the lock.
    pub fn rollback(mut self) -> OntoResult<()> {
        self.open = false;
        self.db.rollback()?;
        Ok(())
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        if self.open {
            // Abandoned transaction (early return, panic unwinding):
            // leave the database as if it never happened.
            let _ = self.db.rollback();
        }
    }
}

impl Mediator {
    /// Begin an exclusive write transaction. Blocks until the prior
    /// writer released the live database; readers are unaffected — they
    /// keep answering from published versions, and observe this
    /// transaction only once [`WriteTxn::commit`] publishes it (which
    /// is exactly why they can never observe a torn write).
    pub fn write(&self) -> WriteTxn<'_> {
        let start = Instant::now();
        let mut db = self.core.lock_live();
        let waited = start.elapsed();
        self.core.write_lock_waits.fetch_add(1, Ordering::Relaxed);
        self.core
            .write_lock_wait_micros
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
        db.begin()
            .expect("no transaction can be open outside a WriteTxn");
        WriteTxn {
            core: &self.core,
            db,
            open: true,
            stages: UpdateProfile::default(),
        }
    }

    /// Execute a SPARQL/Update given as text, as its own transaction
    /// (one operation = one transaction, §5.1).
    pub fn execute_update(&self, text: &str) -> OntoResult<UpdateOutcome> {
        let op = sparql::parse_update_with_prefixes(text, self.core.prefixes.clone())?;
        self.execute_update_op(&op)
    }

    /// Execute a parsed SPARQL/Update operation, as its own transaction.
    /// On a read replica this fails with [`OntoError::ReadOnlyReplica`]
    /// naming the leader — send the update there.
    pub fn execute_update_op(&self, op: &UpdateOp) -> OntoResult<UpdateOutcome> {
        self.ensure_writable()?;
        let mut txn = self.write();
        match txn.update_op(op) {
            Ok(outcome) => {
                txn.commit()?;
                Ok(outcome)
            }
            Err(e) => {
                txn.rollback()?;
                Err(e)
            }
        }
    }

    /// Execute a SPARQL 1.1 style update request — one or more
    /// operations separated by `;` — returning the outcomes and where
    /// the wall time went.
    ///
    /// Each operation is one atomicity unit (the paper's §5.1), run as a
    /// savepoint scope; `atomic_script` additionally makes the *whole
    /// request* all-or-nothing by running every operation inside one
    /// write transaction — on any failure the transaction rolls back
    /// and the error reports the failing operation's index. Non-atomic
    /// scripts commit per operation, letting readers interleave between
    /// operations.
    pub fn execute_script(
        &self,
        text: &str,
        atomic_script: bool,
    ) -> Result<(Vec<UpdateOutcome>, UpdateProfile), ScriptError> {
        let fail = |operation_index, completed, error| ScriptError {
            operation_index,
            completed,
            error,
        };
        self.ensure_writable()
            .map_err(|error| fail(0, Vec::new(), error))?;
        let parse_span = obs::trace::span("update.parse");
        let ops = sparql::parse_update_script(text, self.core.prefixes.clone())
            .map_err(|e| fail(0, Vec::new(), e.into()))?;
        let mut profile = UpdateProfile {
            parse: parse_span.finish(),
            operations: ops.len(),
            ..UpdateProfile::default()
        };
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut open: Option<WriteTxn<'_>> = None;
        for (i, op) in ops.iter().enumerate() {
            let txn = open.get_or_insert_with(|| self.write());
            match txn.update_op(op) {
                Ok(outcome) => outcomes.push(outcome),
                Err(error) => {
                    let rollback = open.take().map(WriteTxn::rollback);
                    debug_assert!(
                        matches!(rollback, Some(Ok(()))),
                        "rollback of an open txn cannot fail"
                    );
                    return Err(fail(i, outcomes, error));
                }
            }
            if !atomic_script || i + 1 == ops.len() {
                let txn = open.take().expect("opened above");
                match txn.commit_staged() {
                    Ok(stages) => profile.absorb(stages),
                    Err(error) => {
                        // A failed commit rolled its transaction back:
                        // all of an atomic script, else this operation.
                        outcomes.truncate(if atomic_script { 0 } else { i });
                        return Err(fail(i, outcomes, error));
                    }
                }
            }
        }
        Ok((outcomes, profile))
    }

    /// Execute an update and convert the result into a feedback document
    /// (what the HTTP endpoint would send back). The request text is
    /// parsed exactly once — the parsed operation both names the
    /// feedback and executes.
    pub fn execute_update_with_feedback(
        &self,
        text: &str,
    ) -> (Feedback, OntoResult<UpdateOutcome>) {
        let op = match sparql::parse_update_with_prefixes(text, self.core.prefixes.clone()) {
            Ok(op) => op,
            Err(e) => {
                let error: OntoError = e.into();
                let feedback = Feedback::Rejection {
                    operation: "unparsed".to_owned(),
                    error: error.clone(),
                };
                return (feedback, Err(error));
            }
        };
        let operation = op.name().to_owned();
        let result = self.execute_update_op(&op);
        let feedback = match &result {
            Ok(outcome) => Feedback::Success {
                operation: outcome.operation.clone(),
                statements: outcome.statements_executed,
                rows: outcome.rows_affected,
            },
            Err(error) => Feedback::Rejection {
                operation,
                error: error.clone(),
            },
        };
        (feedback, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_mediator as mediator;

    #[test]
    fn write_txn_commits_operations_atomically() {
        let m = mediator();
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        txn.update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . }")
            .unwrap();
        // Uncommitted changes are visible inside the transaction…
        assert_eq!(txn.database().row_count("team").unwrap(), 3);
        txn.commit().unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 3);
        assert_eq!(m.database().row_count("author").unwrap(), 3);
    }

    #[test]
    fn rejected_operation_keeps_transaction_usable() {
        let m = mediator();
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        // Dangling team → rejected, undone via its savepoint.
        let err = txn
            .update("INSERT DATA { ex:author8 ont:team ex:team424242 . }")
            .unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }));
        // The transaction continues; the first operation survives.
        txn.update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . }")
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 3);
        assert_eq!(m.database().row_count("author").unwrap(), 3);
    }

    #[test]
    fn dropped_transaction_rolls_back() {
        let m = mediator();
        {
            let mut txn = m.write();
            txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
                .unwrap();
            // No commit: dropped here.
        }
        assert_eq!(m.database().row_count("team").unwrap(), 2);
        // And the lock was released — later writes proceed.
        m.execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 3);
    }

    #[test]
    fn explicit_rollback_undoes_all_operations() {
        let m = mediator();
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        txn.update("INSERT DATA { ex:team10 foaf:name \"T10\" . }")
            .unwrap();
        txn.rollback().unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 2);
    }

    #[test]
    fn atomic_script_is_one_transaction() {
        let m = mediator();
        let before = m.read().materialize().unwrap();
        let version = m.concurrency_stats().current_version;
        let err = m
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 ont:team ex:team424242 . }",
                true,
            )
            .unwrap_err();
        assert_eq!(err.operation_index, 1);
        assert_eq!(err.completed.len(), 1);
        assert_eq!(m.read().materialize().unwrap(), before);
        // Committed whole, an atomic script publishes one version.
        let (outcomes, profile) = m
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . }",
                true,
            )
            .unwrap();
        assert_eq!((outcomes.len(), profile.operations), (2, 2));
        assert_eq!(m.concurrency_stats().current_version, version + 1);
    }

    #[test]
    fn non_atomic_script_commits_per_operation() {
        let m = mediator();
        let version = m.concurrency_stats().current_version;
        let err = m
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:team10 foaf:name \"T10\" . } ;\n\
                 INSERT DATA { ex:author8 ont:team ex:team424242 . }",
                false,
            )
            .unwrap_err();
        assert_eq!(err.operation_index, 2);
        assert_eq!(err.completed.len(), 2);
        // The two operations before the rejected one each committed.
        assert_eq!(m.concurrency_stats().current_version, version + 2);
        assert_eq!(m.database().row_count("team").unwrap(), 4);
    }
}
