//! The write side: [`WriteTxn`] and the one update-script pipeline
//! every write goes through: parse → translate against a pinned version
//! → take the write lock → per operation, validate and execute (or
//! translate again) → commit.
//!
//! Algorithm 1 reads the database only through a few per-key lookups
//! (see [`crate::translate::reads`]). So `INSERT DATA` and `DELETE DATA`
//! translate, and their statements FK-sort, *before* the write lock,
//! against the newest published version (one `Arc` clone), recording
//! every answer they took as a read set. Under the lock, right before
//! each operation executes, its read set is asked again against the
//! transaction's own clone — after the script's earlier operations, so
//! a later operation is checked against the state the earlier ones
//! left. If every lookup answers the same, the statements are exactly
//! what translating under the lock would produce and run as they are;
//! if one differs, or the pinned translation failed, the operation
//! translates again under the lock with the same translator
//! ([`WriteTxn::update_op`], counted in `write_retranslations`). A
//! `MODIFY` always takes that path: its read set is its WHERE result.

use super::{metrics, DatabaseVersion, Mediator, MediatorCore};
use crate::error::{OntoError, OntoResult};
use crate::feedback::Feedback;
use crate::modify::{data_outcome, ModifyReport};
use crate::translate::delete::translate_delete_data_reading;
use crate::translate::insert::translate_insert_data_reading;
use crate::translate::reads::ReadSet;
use crate::translate::{execute_timed, sort_timed, TranslateOptions};
use r3m::Mapping;
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
    /// 1/2): INSERT/DELETE DATA before the write lock against a pinned
    /// version, plus any translation again under it; a MODIFY
    /// translates per matched binding inside its execution, so all of
    /// it is accounted to `execute`.
    pub translate: Duration,
    /// Wall time dependency-sorting translated statements.
    pub sort: Duration,
    /// Wall time executing statements against the transaction's clone.
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

/// An exclusive write transaction: a private clone of the current
/// version.
///
/// Obtained from [`Mediator::write`]; holds the writer mutex for its
/// whole lifetime, so writers serialize — but readers never see the
/// mutex: they keep answering from published versions, and observe
/// this transaction's effects only after [`WriteTxn::commit`] publishes
/// its clone as the new version, so intermediate states are
/// unobservable.
///
/// The transaction is the one rollback point of its operations: when
/// an operation is rejected, the whole transaction has been rolled back
/// (PostgreSQL's aborted-transaction rule), and every later
/// [`WriteTxn::update`], [`WriteTxn::update_op`] and
/// [`WriteTxn::commit`] is refused with an error naming that rejection;
/// [`WriteTxn::rollback`] then answers `Ok`. Dropping the transaction
/// without [`WriteTxn::commit`] — a rollback, an early return, a panic
/// — drops its clone, and the current version never saw it.
#[derive(Debug)]
pub struct WriteTxn<'a> {
    core: &'a MediatorCore,
    // Only the holder publishes, so the version `db` was cloned from
    // stays current until this transaction commits.
    writer: MutexGuard<'a, ()>,
    db: Database,
    // `Ok` while the transaction takes work; once a rejected operation
    // has rolled it back, that rejection.
    open: Result<(), String>,
    // Stage times of the work done in this transaction so far.
    stages: UpdateProfile,
}

impl WriteTxn<'_> {
    /// Execute a SPARQL/Update given as text inside this transaction,
    /// as [`WriteTxn::update_op`] does; text that does not parse is a
    /// rejection too.
    pub fn update(&mut self, text: &str) -> OntoResult<UpdateOutcome> {
        self.guarded(|txn| {
            let op = sparql::parse_update_with_prefixes(text, txn.core.prefixes.clone())?;
            txn.run(&op)
        })
    }

    /// Execute a parsed SPARQL/Update operation inside this transaction.
    /// The operation translates here, under the write lock, and runs in
    /// the transaction with no scope of its own: if it is rejected, the
    /// whole transaction — earlier operations included — has been
    /// rolled back, and the transaction takes no more work.
    pub fn update_op(&mut self, op: &UpdateOp) -> OntoResult<UpdateOutcome> {
        self.guarded(|txn| txn.run(op))
    }

    // Execute an operation translated before the lock. Its statements
    // run as they are if its read set still holds against this
    // transaction's view; otherwise — or if the pinned translation
    // failed — the operation translates again here. A rejection rolls
    // the transaction back, as in `update_op`.
    fn apply(&mut self, op: &UpdateOp, prepared: Prepared<'_>) -> OntoResult<UpdateOutcome> {
        self.guarded(|txn| txn.run_prepared(op, prepared))
    }

    // Run `work` if the transaction still takes work; if it fails, roll
    // the transaction back — a fresh clone of the current version, still
    // its base, replaces the written one — and remember why.
    fn guarded(
        &mut self,
        work: impl FnOnce(&mut Self) -> OntoResult<UpdateOutcome>,
    ) -> OntoResult<UpdateOutcome> {
        self.ensure_open()?;
        let result = work(self);
        if let Err(error) = &result {
            self.db = self.core.chain.current().db.clone();
            self.open = Err(error.to_string());
        }
        result
    }

    // The refusal of a transaction a rejected operation rolled back.
    fn ensure_open(&self) -> OntoResult<()> {
        match &self.open {
            Ok(()) => Ok(()),
            Err(rejection) => Err(OntoError::Database(rel::RelError::Transaction {
                message: format!(
                    "the transaction was rolled back by an earlier rejected operation: \
                     {rejection}"
                ),
            })),
        }
    }

    // Translate `op` under the lock and execute it.
    fn run(&mut self, op: &UpdateOp) -> OntoResult<UpdateOutcome> {
        crate::modify::run_update_op(&mut self.db, &self.core.mapping, op, &mut self.stages)
    }

    fn run_prepared(&mut self, op: &UpdateOp, prepared: Prepared<'_>) -> OntoResult<UpdateOutcome> {
        let Prepared::Data {
            translated,
            translate,
            sort,
        } = prepared
        else {
            return self.run(op);
        };
        self.stages.translate += translate;
        self.stages.sort += sort;
        if let Ok((statements, reads)) = translated {
            let span = obs::trace::span("update.validate");
            let (probes, holds) = reads.holds(&self.db)?;
            span.attr_u64("probes", probes as u64);
            span.attr_bool("stale", !holds);
            span.finish();
            if holds {
                let (report, execute) = execute_timed(&mut self.db, statements)?;
                self.stages.execute += execute;
                return Ok(data_outcome(op.name(), report));
            }
        }
        self.core
            .write_retranslations
            .fetch_add(1, Ordering::Relaxed);
        self.run(op)
    }

    /// The transaction's view of the database, including its own
    /// uncommitted changes.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Commit: keep every operation's changes, publish them as a new
    /// database version, and release the lock. Refused, with nothing
    /// logged or published, after a rejected operation rolled the
    /// transaction back.
    ///
    /// Publication is the commit's visibility point: the transaction's
    /// clone becomes the current version (tagged with the WAL commit
    /// sequence on a durable mediator), and the next query to pin a
    /// snapshot sees it. A transaction that changed nothing publishes
    /// nothing — version ids stay aligned with WAL commit units.
    ///
    /// On a durable mediator the commit is write-ahead logged first —
    /// the transaction's logical operations are appended to the WAL
    /// *before* the clone is published (a failed append publishes
    /// nothing, so memory never diverges from what the log can
    /// reproduce), then the writer mutex is released, and only then
    /// does the call block on the group fsync. Concurrent committers
    /// share one fsync: the next writer can append while this one
    /// waits.
    pub fn commit(self) -> OntoResult<()> {
        self.commit_staged().map(drop)
    }

    // The commit itself, answering the transaction's stage times with
    // the durability stages (WAL append, group-fsync wait) filled in.
    fn commit_staged(self) -> OntoResult<UpdateProfile> {
        self.ensure_open()?;
        let span = obs::trace::span("txn.commit");
        let WriteTxn {
            core,
            writer,
            mut db,
            mut stages,
            ..
        } = self;
        let changed = db.txn_has_changes()?;
        let Some(durability) = &core.durability else {
            db.commit()?;
            if changed {
                core.chain.publish(db, None)?;
            }
            metrics().commit.observe_duration(span.finish());
            return Ok(stages);
        };
        if !changed {
            // Read-only transaction: nothing to make durable, nothing to
            // publish.
            return Ok(stages);
        }
        // Views of the redo log: the encoder reads the rows in place.
        // Stamp the active trace's id into the commit unit so a
        // replica's apply links back to this request. If the log cannot
        // take the unit, nothing was published: the acknowledged state
        // and the recoverable state stay identical.
        let trace_id = obs::trace::current_trace_id();
        let append_started = Instant::now();
        let seq = durability.append_commit(&db.txn_ops()?, trace_id.as_deref())?;
        stages.wal_append = append_started.elapsed();
        db.commit()?;
        core.chain.publish(db, Some(seq))?;
        // Let the next writer proceed before waiting on the fsync —
        // this is what lets concurrent committers amortize one fsync.
        drop(writer);
        let fsync_started = Instant::now();
        durability.sync_to(seq)?;
        stages.fsync = fsync_started.elapsed();
        span.attr_u64("seq", seq);
        metrics().commit.observe_duration(span.finish());
        Ok(stages)
    }

    /// Roll back: drop the transaction's clone, with every operation's
    /// changes, and release the writer mutex. Always answers `Ok`,
    /// after a rejected operation too.
    pub fn rollback(self) -> OntoResult<()> {
        Ok(())
    }
}

// One operation translated before the write lock, against a pinned
// version. INSERT DATA and DELETE DATA carry their FK-sorted statements
// and the read set they rest on (or why the pinned translation failed),
// with the stage times it took; a MODIFY carries nothing and translates
// under the lock.
enum Prepared<'a> {
    Data {
        translated: OntoResult<(Vec<Statement>, ReadSet<'a>)>,
        translate: Duration,
        sort: Duration,
    },
    Modify,
}

impl<'a> Prepared<'a> {
    // Algorithm 1's steps 1-5 for `op` against `pinned`, outside any
    // lock.
    fn translate(mapping: &'a Mapping, pinned: &'a DatabaseVersion, op: &'a UpdateOp) -> Self {
        let (UpdateOp::InsertData { triples } | UpdateOp::DeleteData { triples }) = op else {
            return Prepared::Modify;
        };
        let mut reads = ReadSet::new(&pinned.db);
        let span = obs::trace::span("update.translate");
        span.attr_u64("pinned_seq", pinned.seq);
        let statements = if matches!(op, UpdateOp::InsertData { .. }) {
            translate_insert_data_reading(&mut reads, mapping, triples, TranslateOptions::default())
        } else {
            translate_delete_data_reading(&mut reads, mapping, triples)
        };
        let translate = span.finish();
        let (translated, sort) =
            match statements.and_then(|statements| sort_timed(pinned.db.schema(), statements)) {
                Ok((sorted, sort)) => (Ok((sorted, reads)), sort),
                Err(error) => (Err(error), Duration::ZERO),
            };
        Prepared::Data {
            translated,
            translate,
            sort,
        }
    }
}

impl Mediator {
    /// Begin an exclusive write transaction on a clone of the current
    /// version. Blocks until the prior writer released the writer
    /// mutex; readers are unaffected — they keep answering from
    /// published versions, and observe this transaction only once
    /// [`WriteTxn::commit`] publishes it (which is exactly why they can
    /// never observe a torn write).
    pub fn write(&self) -> WriteTxn<'_> {
        let span = obs::trace::span("txn.lock_wait");
        let writer = self.core.exclude_writers();
        let waited = span.finish();
        self.core.write_lock_waits.fetch_add(1, Ordering::Relaxed);
        self.core
            .write_lock_wait_micros
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
        let mut db = self.core.chain.current().db.clone();
        db.begin()
            .expect("a published version has no open transaction");
        WriteTxn {
            core: &self.core,
            writer,
            db,
            open: Ok(()),
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
        let mut outcomes = Vec::with_capacity(1);
        self.transact(std::slice::from_ref(op), &mut outcomes)
            .map_err(|(_, error)| error)?;
        Ok(outcomes.pop().expect("one operation, one outcome"))
    }

    // One write transaction over `ops`: pin the newest version and
    // translate every operation against it before taking the lock, then
    // under the lock apply each in order and commit. A rejected
    // operation has rolled the transaction back, and the error carries
    // its index within `ops`; the outcomes pushed before it stay,
    // unless the commit itself failed.
    fn transact(
        &self,
        ops: &[UpdateOp],
        outcomes: &mut Vec<UpdateOutcome>,
    ) -> Result<UpdateProfile, (usize, OntoError)> {
        let pinned = self.core.chain.current();
        let prepared: Vec<Prepared<'_>> = ops
            .iter()
            .map(|op| Prepared::translate(&self.core.mapping, &pinned, op))
            .collect();
        let before = outcomes.len();
        let mut txn = self.write();
        for (i, (op, prepared)) in ops.iter().zip(prepared).enumerate() {
            let outcome = txn.apply(op, prepared).map_err(|error| (i, error))?;
            outcomes.push(outcome);
        }
        txn.commit_staged().map_err(|error| {
            // A failed commit rolled the whole transaction back.
            outcomes.truncate(before);
            (ops.len() - 1, error)
        })
    }

    /// Execute a SPARQL 1.1 style update request — one or more
    /// operations separated by `;` — returning the outcomes and where
    /// the wall time went.
    ///
    /// A write transaction is the one rollback point. `atomic_script`
    /// runs every operation inside one, so the *whole request* is
    /// all-or-nothing: on any failure the transaction rolls back and
    /// the error reports the failing operation's index. A non-atomic
    /// script runs each operation as its own transaction (the paper's
    /// §5.1), committing per operation and letting readers interleave
    /// between operations.
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
        // An atomic script is one transaction, otherwise every operation
        // is its own.
        let per_txn = if atomic_script { ops.len().max(1) } else { 1 };
        for (n, txn_ops) in ops.chunks(per_txn).enumerate() {
            match self.transact(txn_ops, &mut outcomes) {
                Ok(stages) => profile.absorb(stages),
                Err((i, error)) => return Err(fail(n * per_txn + i, outcomes, error)),
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
    use crate::testutil::{fixture_mediator as mediator, render};
    use rel::{RelError, RowId, Value};

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
    fn rejected_operation_rolls_back_the_transaction() {
        let m = mediator();
        let version = m.concurrency_stats().current_version;
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        // Dangling team → rejected, and the transaction rolled back.
        let err = txn
            .update("INSERT DATA { ex:author8 ont:team ex:team424242 . }")
            .unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }));
        // The first operation went with it.
        assert_eq!(txn.database().row_count("team").unwrap(), 2);
        txn.rollback().unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 2);
        assert_eq!(m.database().row_count("author").unwrap(), 2);
        assert_eq!(m.concurrency_stats().current_version, version);
    }

    const DANGLING_MODIFY: &str = "MODIFY DELETE { ?x foaf:mbox ?m . } \
                                   INSERT { ?x ont:team ex:team987654321 . } \
                                   WHERE { ?x foaf:mbox ?m . }";

    #[test]
    fn operation_rejected_after_writing_is_undone_with_its_transaction() {
        let m = mediator();
        let before = heap(&m.database());
        let mut txn = m.write();
        // The delete round nulls every mbox, then the insert round
        // dangles: the transaction's rollback puts the emails back.
        let err = txn.update(DANGLING_MODIFY).unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }), "{err}");
        assert_eq!(heap(txn.database()), before);
        txn.rollback().unwrap();
        assert_eq!(heap(&m.database()), before);
        assert_eq!(
            m.select("SELECT ?x WHERE { ?x foaf:mbox ?m . }")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn a_rejected_transaction_refuses_further_work_until_it_ends() {
        let m = mediator();
        let before = heap(&m.database());
        let version = m.concurrency_stats().current_version;
        let refused = |error: &OntoError, rejection: &OntoError| {
            assert!(
                matches!(error, OntoError::Database(RelError::Transaction { .. })),
                "{error}"
            );
            assert!(
                error.to_string().contains(&rejection.to_string()),
                "{error}"
            );
        };
        // A MODIFY whose delete round wrote and whose insert round
        // dangles, after an INSERT DATA that succeeded.
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        let err = txn.update(DANGLING_MODIFY).unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }), "{err}");
        assert_eq!(heap(txn.database()), before);
        // Nothing more reaches the transaction's clone, and nothing
        // commits.
        refused(
            &txn.update("INSERT DATA { ex:team10 foaf:name \"T10\" . }")
                .unwrap_err(),
            &err,
        );
        assert_eq!(heap(txn.database()), before);
        refused(&txn.commit().unwrap_err(), &err);
        assert_eq!(heap(&m.database()), before);
        assert_eq!(m.concurrency_stats().current_version, version);
        // Rolling back a rejected transaction answers Ok.
        let insert = parse_script(&m, "INSERT DATA { ex:team10 foaf:name \"T10\" . }");
        let mut txn = m.write();
        let err = txn.update(DANGLING_MODIFY).unwrap_err();
        refused(&txn.update_op(&insert[0]).unwrap_err(), &err);
        txn.rollback().unwrap();
        assert_eq!(heap(&m.database()), before);
        // The next write proceeds.
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(m.database().row_count("team").unwrap(), 3);
        assert_eq!(m.concurrency_stats().current_version, version + 1);
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
    fn a_writer_that_panics_mid_transaction_leaves_the_mediator_intact() {
        let m = mediator();
        let before = heap(&m.database());
        let version = m.concurrency_stats().current_version;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = m.write();
            txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
                .unwrap();
            panic!("writer dies mid-transaction");
        }));
        assert!(unwound.is_err());
        assert_eq!(heap(&m.database()), before);
        assert_eq!(m.concurrency_stats().current_version, version);
        // The unwind poisoned the writer mutex; the next writer still
        // proceeds, and its commit publishes exactly one version.
        let mut txn = m.write();
        txn.update("INSERT DATA { ex:team9 foaf:name \"T9\" . }")
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(m.concurrency_stats().current_version, version + 1);
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

    // Every table's (row id, row) stream: heap equality.
    fn heap(db: &Database) -> Vec<Vec<(RowId, Vec<Value>)>> {
        db.schema()
            .tables()
            .map(|table| {
                db.scan(&table.name)
                    .unwrap()
                    .map(|(id, row)| (id, row.clone()))
                    .collect()
            })
            .collect()
    }

    fn parse_script(m: &Mediator, text: &str) -> Vec<UpdateOp> {
        sparql::parse_update_script(text, m.core.prefixes.clone()).unwrap()
    }

    // The interleaving a concurrent writer produces: `text` translates
    // against the current version, `between` commits, then the
    // prepared operations apply in one transaction.
    fn prepare_commit_apply(
        m: &Mediator,
        text: &str,
        between: &str,
    ) -> OntoResult<Vec<UpdateOutcome>> {
        let ops = parse_script(m, text);
        let pinned = m.core.chain.current();
        let prepared: Vec<Prepared<'_>> = ops
            .iter()
            .map(|op| Prepared::translate(&m.core.mapping, &pinned, op))
            .collect();
        m.execute_update(between).unwrap();
        let mut txn = m.write();
        let mut outcomes = Vec::new();
        for (op, prepared) in ops.iter().zip(prepared) {
            outcomes.push(txn.apply(op, prepared)?);
        }
        txn.commit()?;
        Ok(outcomes)
    }

    // The serialized order on a fresh mediator: `between`, then `text`
    // translated under the lock.
    fn serialized(text: &str, between: &str) -> (Mediator, OntoResult<Vec<UpdateOutcome>>) {
        let m = mediator();
        m.execute_update(between).unwrap();
        let ops = parse_script(&m, text);
        let mut txn = m.write();
        let result: OntoResult<Vec<_>> = ops.iter().map(|op| txn.update_op(op)).collect();
        match &result {
            Ok(_) => txn.commit().unwrap(),
            Err(_) => txn.rollback().unwrap(),
        }
        (m, result)
    }

    // Run the interleaving and check it against the serialized order:
    // the same statements or the same error, the same heap, and whether
    // the prepared translation had to be redone.
    fn assert_serializes(
        text: &str,
        between: &str,
        retranslated: bool,
    ) -> OntoResult<Vec<UpdateOutcome>> {
        let m = mediator();
        let got = prepare_commit_apply(&m, text, between);
        assert_eq!(
            m.concurrency_stats().write_retranslations,
            u64::from(retranslated),
            "retranslation count: {text}"
        );
        let (reference, want) = serialized(text, between);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                let sql = |outcomes: &[UpdateOutcome]| -> Vec<Vec<String>> {
                    outcomes.iter().map(|o| render(&o.statements)).collect()
                };
                assert_eq!(sql(got), sql(want), "statements differ: {text}");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            _ => panic!("outcomes differ: {got:?} vs serialized {want:?}"),
        }
        assert_eq!(heap(&m.database()), heap(&reference.database()), "{text}");
        got
    }

    const GALL_IN_TEAM4: &str =
        "INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team4 . }";

    #[test]
    fn prepared_translation_runs_as_is_while_its_reads_hold() {
        // The version moved, but nothing the insert read did.
        let outcomes = assert_serializes(
            GALL_IN_TEAM4,
            "INSERT DATA { ex:team9 foaf:name \"T9\" . }",
            false,
        )
        .unwrap();
        assert_eq!(outcomes[0].rows_affected, 1);
    }

    #[test]
    fn fk_target_deleted_before_apply_is_a_dangling_object() {
        let err = assert_serializes(
            GALL_IN_TEAM4,
            "DELETE DATA { ex:team4 a foaf:Group ; \
             foaf:name \"Database Technology\" ; ont:teamCode \"DBTG\" . }",
            true,
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }), "{err}");
    }

    #[test]
    fn subject_inserted_before_apply_fills_nulls_or_conflicts() {
        let text = "INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; \
                    foaf:firstName \"Harald\" . }";
        // Translated as an INSERT, applied as the fill-NULL UPDATE.
        let outcomes = assert_serializes(
            text,
            "INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }",
            true,
        )
        .unwrap();
        assert_eq!(
            render(&outcomes[0].statements),
            vec!["UPDATE author SET firstname = 'Harald' WHERE id = 8;"]
        );
        let err = assert_serializes(
            text,
            "INSERT DATA { ex:author8 foaf:family_name \"Other\" . }",
            true,
        )
        .unwrap_err();
        assert!(
            matches!(err, OntoError::AttributeAlreadySet { .. }),
            "{err}"
        );
    }

    #[test]
    fn row_image_changed_before_delete_data_is_triple_not_present() {
        let err = assert_serializes(
            "DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
            "MODIFY DELETE { ex:author6 foaf:mbox ?m . } \
             INSERT { ex:author6 foaf:mbox <mailto:new@ifi.uzh.ch> . } \
             WHERE { ex:author6 foaf:mbox ?m . }",
            true,
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }), "{err}");
    }

    #[test]
    fn link_removed_before_delete_data_is_triple_not_present() {
        let err = assert_serializes(
            "DELETE DATA { ex:pub1 dc:creator ex:author6 . }",
            "DELETE DATA { ex:pub1 dc:creator ex:author6 . }",
            true,
        )
        .unwrap_err();
        assert!(matches!(err, OntoError::TripleNotPresent { .. }), "{err}");
    }

    #[test]
    fn script_operation_on_an_earlier_ones_entity_translates_again() {
        // Against the pinned version the second operation's team does
        // not exist yet; under the lock the first operation made it.
        let text = "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                    INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . }";
        let m = mediator();
        let (outcomes, _) = m.execute_script(text, true).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(m.concurrency_stats().write_retranslations, 1);
        let reference = mediator();
        let mut txn = reference.write();
        for op in parse_script(&reference, text) {
            txn.update_op(&op).unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(heap(&m.database()), heap(&reference.database()));
    }
}
