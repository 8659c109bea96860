//! Algorithm 2 (paper §5.2): translating `MODIFY` to SQL DML.
//!
//! `MODIFY` has no direct SQL counterpart, so the paper translates it in
//! stages: (1) split into DELETE/INSERT templates and the WHERE clause;
//! (2) turn the WHERE clause into a SPARQL SELECT; (3) translate that
//! SELECT to SQL ([`crate::query`]) and run it on the relational data;
//! (4) per result binding, instantiate one `DELETE DATA` and one
//! `INSERT DATA`; (5) translate and execute those via Algorithm 1.
//!
//! The §5.2 optimization is applied: when a deletion has a matching
//! insertion (same subject and predicate, object differs), the delete is
//! redundant — the insert translates to an `UPDATE` overwriting the
//! value directly.

use crate::error::{OntoError, OntoResult};
use crate::mediator::{UpdateOutcome, UpdateProfile};
use crate::translate::delete::{translate_delete_data, translate_delete_data_per_row};
use crate::translate::insert::{translate_insert_data, translate_insert_data_per_row};
use crate::translate::{
    atomically, execute_sorted, execute_sorted_reference, execute_sorted_timed, ExecutionReport,
    TranslateOptions,
};
use r3m::Mapping;
use rdf::{Iri, Term, Triple};
use rel::Database;
use sparql::{
    instantiate_all, GroupPattern, Projection, SelectQuery, Solutions, TriplePattern, UpdateOp,
};
use std::collections::BTreeSet;

/// Algorithm 2's intermediate artifacts for one `MODIFY`, the ones the
/// paper shows: the SELECT and the per-binding DATA operations of
/// Listing 12. The executed SQL is the [`ExecutionReport`] beside it.
#[derive(Debug, Clone, Default)]
pub struct ModifyReport {
    /// SQL text of the translated SELECT (step 3).
    pub select_sql: String,
    /// Number of bindings the SELECT returned (step 4 iterates these).
    pub bindings: usize,
    /// Instantiated `DELETE DATA` triples after the redundancy
    /// optimization (across all bindings).
    pub delete_data: Vec<Triple>,
    /// Instantiated `INSERT DATA` triples (across all bindings).
    pub insert_data: Vec<Triple>,
    /// Deletions dropped by the §5.2 optimization.
    pub optimized_away: Vec<Triple>,
}

/// Execute a `MODIFY` against the database through the set-based write
/// pipeline (grouped statements), answering Algorithm 2's artifacts and
/// the executed SQL — on the batched path one statement per table-level
/// group, not per binding. Inside an open transaction both DATA rounds
/// run there, and a failure in either leaves the rollback to the
/// caller; on a bare database they run in a transaction of their own,
/// so a failure in the insert round also undoes the delete round.
pub fn execute_modify(
    db: &mut Database,
    mapping: &Mapping,
    delete: &[TriplePattern],
    insert: &[TriplePattern],
    pattern: &GroupPattern,
) -> OntoResult<(ModifyReport, ExecutionReport)> {
    atomically(db, |db| {
        execute_modify_impl(db, mapping, delete, insert, pattern, true)
    })
}

/// Reference variant of [`execute_modify`]: identical Algorithm 2, but
/// steps 5-6 emit and execute one statement per row through the seed's
/// per-statement sort — the baseline of the batched-vs-per-row
/// differential tests and the `bulk_update` benchmark.
pub fn execute_modify_reference(
    db: &mut Database,
    mapping: &Mapping,
    delete: &[TriplePattern],
    insert: &[TriplePattern],
    pattern: &GroupPattern,
) -> OntoResult<(ModifyReport, ExecutionReport)> {
    atomically(db, |db| {
        execute_modify_impl(db, mapping, delete, insert, pattern, false)
    })
}

fn execute_modify_impl(
    db: &mut Database,
    mapping: &Mapping,
    delete: &[TriplePattern],
    insert: &[TriplePattern],
    pattern: &GroupPattern,
    batched: bool,
) -> OntoResult<(ModifyReport, ExecutionReport)> {
    let mut report = ModifyReport::default();

    // Steps 1-3: WHERE → SELECT → SQL → bindings.
    let select = select_from_where(pattern);
    let compiled = crate::query::compile_select(db, mapping, &select)?;
    report.select_sql = compiled.sql.to_string();
    let solutions: Solutions = crate::query::run_compiled(db, &compiled)?;
    report.bindings = solutions.len();

    // Step 4: instantiate the templates per binding.
    let deletions = instantiate_all(delete, &solutions.bindings, pattern)
        .map_err(|e| OntoError::Unsupported { message: e.message })?;
    let insertions = instantiate_all(insert, &solutions.bindings, pattern)
        .map_err(|e| OntoError::Unsupported { message: e.message })?;

    // §5.2 optimization: drop deletions whose (subject, predicate) also
    // appears among the insertions — with a different object (the
    // insert overwrites the value directly) or the same one (the delete
    // is undone by the reassertion). One (subject, predicate) lookup
    // per deletion instead of a scan over all insertions.
    let inserted_sp: BTreeSet<(&Term, &Iri)> = insertions
        .iter()
        .map(|i| (&i.subject, &i.predicate))
        .collect();
    let mut kept_deletions = Vec::new();
    for d in deletions {
        let redundant = inserted_sp.contains(&(&d.subject, &d.predicate));
        if redundant {
            report.optimized_away.push(d);
        } else {
            kept_deletions.push(d);
        }
    }
    drop(inserted_sp);
    report.delete_data = kept_deletions.clone();
    report.insert_data = insertions.clone();

    // Step 5: translate + execute via Algorithm 1. Deletions first, then
    // insertions (member submission semantics); inserts may overwrite
    // attributes whose delete was optimized away. Both rounds run in
    // the one transaction, so the whole MODIFY is all-or-nothing.
    let mut executed = ExecutionReport::default();
    if !kept_deletions.is_empty() {
        let stmts = if batched {
            translate_delete_data(db, mapping, &kept_deletions)?
        } else {
            translate_delete_data_per_row(db, mapping, &kept_deletions)?
        };
        let round = if batched {
            execute_sorted(db, stmts)?
        } else {
            execute_sorted_reference(db, stmts)?
        };
        executed.statements.extend(round.statements);
        executed.rows_affected += round.rows_affected;
    }
    if !insertions.is_empty() {
        let options = TranslateOptions {
            allow_overwrite: true,
        };
        let stmts = if batched {
            translate_insert_data(db, mapping, &insertions, options)?
        } else {
            translate_insert_data_per_row(db, mapping, &insertions, options)?
        };
        let round = if batched {
            execute_sorted(db, stmts)?
        } else {
            execute_sorted_reference(db, stmts)?
        };
        executed.statements.extend(round.statements);
        executed.rows_affected += round.rows_affected;
    }
    Ok((report, executed))
}

/// Step 2 — build the SELECT query from the WHERE clause ("used to
/// create a SPARQL SELECT query that retrieves the data needed for the
/// DELETE and INSERT templates").
pub fn select_from_where(pattern: &GroupPattern) -> SelectQuery {
    SelectQuery {
        distinct: true,
        projection: Projection::Star,
        pattern: pattern.clone(),
        limit: None,
    }
}

/// Convenience: run any update operation through the right algorithm
/// (set-based pipeline). Inside an open transaction it runs there, and
/// on failure the caller rolls the transaction back; on a bare database
/// it runs in a transaction of its own, so a rejected operation leaves
/// the database unchanged.
pub fn execute_update_op(
    db: &mut Database,
    mapping: &Mapping,
    op: &UpdateOp,
) -> OntoResult<ExecutionReport> {
    let outcome = atomically(db, |db| {
        run_update_op(db, mapping, op, &mut UpdateProfile::default())
    })?;
    Ok(ExecutionReport {
        statements: outcome.statements,
        rows_affected: outcome.rows_affected,
    })
}

// The one INSERT DATA / DELETE DATA / MODIFY dispatch (Algorithm 1 / 2)
// behind [`execute_update_op`] and `WriteTxn::update_op`, adding the
// operation's stage times to `stages`. It runs in the caller's open
// transaction and opens no scope of its own: a rejected operation may
// have written, and the caller rolls the whole transaction back.
pub(crate) fn run_update_op(
    db: &mut Database,
    mapping: &Mapping,
    op: &UpdateOp,
    stages: &mut UpdateProfile,
) -> OntoResult<UpdateOutcome> {
    let (operation, stmts) = match op {
        UpdateOp::InsertData { triples } => {
            let span = obs::trace::span("update.translate");
            let stmts = translate_insert_data(db, mapping, triples, TranslateOptions::default())?;
            stages.translate += span.finish();
            ("INSERT DATA", stmts)
        }
        UpdateOp::DeleteData { triples } => {
            let span = obs::trace::span("update.translate");
            let stmts = translate_delete_data(db, mapping, triples)?;
            stages.translate += span.finish();
            ("DELETE DATA", stmts)
        }
        UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } => {
            // Translation happens inside per matched binding, so the
            // whole operation is accounted to the execute stage.
            let span = obs::trace::span("update.execute");
            let (report, executed) = execute_modify(db, mapping, delete, insert, pattern)?;
            if span.armed() {
                span.attr_u64("statements", executed.statements.len() as u64);
                span.attr_u64("rows_affected", executed.rows_affected as u64);
            }
            stages.execute += span.finish();
            return Ok(UpdateOutcome {
                modify: Some(report),
                ..data_outcome("MODIFY", executed)
            });
        }
    };
    let (executed, sort, execute) = execute_sorted_timed(db, stmts)?;
    stages.sort += sort;
    stages.execute += execute;
    Ok(data_outcome(operation, executed))
}

// The outcome of an executed `INSERT DATA` / `DELETE DATA`.
pub(crate) fn data_outcome(operation: &str, executed: ExecutionReport) -> UpdateOutcome {
    UpdateOutcome {
        operation: operation.into(),
        statements_executed: executed.statements.len(),
        rows_affected: executed.rows_affected,
        statements: executed.statements,
        modify: None,
    }
}

/// Reference counterpart of [`execute_update_op`]: the per-row emission
/// through the seed's statement-pair sort, end to end, with the same
/// transaction rule.
pub fn execute_update_op_reference(
    db: &mut Database,
    mapping: &Mapping,
    op: &UpdateOp,
) -> OntoResult<ExecutionReport> {
    atomically(db, |db| match op {
        UpdateOp::InsertData { triples } => {
            let stmts =
                translate_insert_data_per_row(db, mapping, triples, TranslateOptions::default())?;
            execute_sorted_reference(db, stmts)
        }
        UpdateOp::DeleteData { triples } => {
            let stmts = translate_delete_data_per_row(db, mapping, triples)?;
            execute_sorted_reference(db, stmts)
        }
        UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } => execute_modify_reference(db, mapping, delete, insert, pattern)
            .map(|(_, executed)| executed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture_db_with_rows, parse_update, render};
    use rdf::Term;
    use rel::Value;

    fn run(db: &mut Database, mapping: &Mapping, text: &str) -> (ModifyReport, ExecutionReport) {
        let op = parse_update(text);
        let UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } = op
        else {
            panic!("expected MODIFY")
        };
        execute_modify(db, mapping, &delete, &insert, &pattern).unwrap()
    }

    fn email_of(db: &Database, id: i64) -> Value {
        let rid = db.find_by_pk("author", &[Value::Int(id)]).unwrap().unwrap();
        let table = db.schema().table("author").unwrap();
        db.row("author", rid).unwrap().unwrap()[table.column_index("email").unwrap()]
    }

    #[test]
    fn listing_11_replaces_email() {
        let (mut db, mapping) = fixture_db_with_rows();
        let (report, executed) = run(
            &mut db,
            &mapping,
            "MODIFY
             DELETE { ?x foaf:mbox ?mbox . }
             INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
             WHERE {
               ?x rdf:type foaf:Person ;
                  foaf:firstName \"Matthias\" ;
                  foaf:family_name \"Hert\" ;
                  foaf:mbox ?mbox .
             }",
        );
        assert_eq!(report.bindings, 1);
        // The optimization removed the redundant delete (§5.2).
        assert_eq!(report.optimized_away.len(), 1);
        assert!(report.delete_data.is_empty());
        assert_eq!(report.insert_data.len(), 1);
        assert_eq!(
            render(&executed.statements),
            vec!["UPDATE author SET email = 'hert@example.com' WHERE id = 6;"]
        );
        assert_eq!(email_of(&db, 6), Value::text("hert@example.com"));
    }

    #[test]
    fn generated_data_ops_match_listing_12_shape() {
        // Without the optimization the intermediate operations are the
        // paper's Listing 12; verify them via the report before the
        // optimization filters (insert side + optimized delete).
        let (mut db, mapping) = fixture_db_with_rows();
        let (report, _) = run(
            &mut db,
            &mapping,
            "MODIFY
             DELETE { ?x foaf:mbox ?mbox . }
             INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
             WHERE { ?x foaf:firstName \"Matthias\" ; foaf:mbox ?mbox . }",
        );
        let author6 = Term::iri("http://example.org/db/author6");
        assert_eq!(
            report.optimized_away,
            vec![rdf::Triple::new(
                author6.clone(),
                rdf::namespace::foaf::mbox(),
                Term::iri("mailto:hert@ifi.uzh.ch"),
            )]
        );
        assert_eq!(
            report.insert_data,
            vec![rdf::Triple::new(
                author6,
                rdf::namespace::foaf::mbox(),
                Term::iri("mailto:hert@example.com"),
            )]
        );
    }

    #[test]
    fn modify_with_no_bindings_is_a_noop() {
        let (mut db, mapping) = fixture_db_with_rows();
        let before = db.clone();
        let (report, executed) = run(
            &mut db,
            &mapping,
            "MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { } \
             WHERE { ?x foaf:family_name \"Nobody\" ; foaf:mbox ?m . }",
        );
        assert_eq!(report.bindings, 0);
        assert!(executed.statements.is_empty());
        assert_eq!(
            crate::materialize::materialize(&db, &mapping).unwrap(),
            crate::materialize::materialize(&before, &mapping).unwrap()
        );
    }

    #[test]
    fn pure_delete_modify() {
        let (mut db, mapping) = fixture_db_with_rows();
        let (report, executed) = run(
            &mut db,
            &mapping,
            "MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { } \
             WHERE { ?x foaf:family_name \"Hert\" ; foaf:mbox ?m . }",
        );
        assert_eq!(report.bindings, 1);
        assert_eq!(
            render(&executed.statements),
            vec!["UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"]
        );
        assert_eq!(email_of(&db, 6), Value::Null);
    }

    #[test]
    fn pure_insert_modify() {
        let (mut db, mapping) = fixture_db_with_rows();
        // Give every person without a title the title 'Dr'.
        let (report, executed) = run(
            &mut db,
            &mapping,
            "INSERT { ?x foaf:title \"Dr\" . } \
             WHERE { ?x foaf:family_name \"Reif\" . }",
        );
        assert_eq!(report.bindings, 1);
        assert_eq!(
            render(&executed.statements),
            vec!["UPDATE author SET title = 'Dr' WHERE id = 7;"]
        );
    }

    #[test]
    fn multi_binding_modify_updates_every_match() {
        let (mut db, mapping) = fixture_db_with_rows();
        let (report, executed) = run(
            &mut db,
            &mapping,
            "MODIFY DELETE { ?x ont:team ?t . } INSERT { } \
             WHERE { ?x ont:team ?t . }",
        );
        assert_eq!(report.bindings, 2);
        // Both bindings share one shape → one grouped statement that
        // touches two rows.
        assert_eq!(executed.statements.len(), 1);
        assert_eq!(executed.rows_affected, 2);
        assert_eq!(
            render(&executed.statements),
            vec![
                "UPDATE author BY (id, team) SET (team) \
             VALUES (6, 5, NULL), (7, 5, NULL);"
            ]
        );
        for id in [6, 7] {
            let rid = db.find_by_pk("author", &[Value::Int(id)]).unwrap().unwrap();
            let table = db.schema().table("author").unwrap();
            assert_eq!(
                db.row("author", rid).unwrap().unwrap()[table.column_index("team").unwrap()],
                Value::Null
            );
        }
    }

    #[test]
    fn select_sql_is_reported() {
        let (mut db, mapping) = fixture_db_with_rows();
        let (report, _) = run(
            &mut db,
            &mapping,
            "MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { } \
             WHERE { ?x foaf:mbox ?m . }",
        );
        assert!(report.select_sql.starts_with("SELECT DISTINCT"));
        assert!(report.select_sql.contains("FROM author"));
    }

    #[test]
    fn failing_insert_leaves_database_unchanged() {
        let (mut db, mapping) = fixture_db_with_rows();
        let before = db.clone();
        let op = parse_update(
            // The inserted team does not exist → DanglingObject.
            "MODIFY DELETE { } INSERT { ?x ont:team ex:team99 . } \
             WHERE { ?x foaf:family_name \"Reif\" . }",
        );
        let UpdateOp::Modify {
            delete,
            insert,
            pattern,
        } = op
        else {
            panic!()
        };
        let err = execute_modify(&mut db, &mapping, &delete, &insert, &pattern).unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }));
        assert_eq!(
            crate::materialize::materialize(&db, &mapping).unwrap(),
            crate::materialize::materialize(&before, &mapping).unwrap()
        );
    }

    #[test]
    fn modify_replacing_fk_object() {
        let (mut db, mapping) = fixture_db_with_rows();
        // Move Hert from team5 to team4.
        let (_, executed) = run(
            &mut db,
            &mapping,
            "MODIFY DELETE { ?x ont:team ?t . } INSERT { ?x ont:team ex:team4 . } \
             WHERE { ?x foaf:family_name \"Hert\" ; ont:team ?t . }",
        );
        assert_eq!(
            render(&executed.statements),
            vec!["UPDATE author SET team = 4 WHERE id = 6;"]
        );
    }
}
