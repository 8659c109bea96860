//! Algorithm 1 (paper §5.1): translating the triples of `INSERT DATA` /
//! `DELETE DATA` operations to SQL DML.
//!
//! The six steps of the paper's Algorithm 1 map to this module as:
//!
//! 1. `groupTriples`   → [`group_by_subject`]
//! 2. `identifyTable`  → [`identify`] (via the R3M URI patterns)
//! 3. `check`          → inside [`insert`] / [`delete`] (constraint
//!    screening against the mapping-recorded constraints)
//! 4. `generateSQL`    → inside [`insert`] / [`delete`]
//! 5. `sortSQL`        → [`sort`] (topological sort along FK edges)
//! 6. `executeSQL`     → [`execute_sorted`] (one transaction per
//!    SPARQL/Update operation)
//!
//! Steps 1–4 read the database only through a [`reads::ReadSet`], which
//! records every answer; step 5 reads only the schema. So steps 1–5 can
//! run against a pinned version outside the write lock, and step 6
//! reuses their statements whenever the read set still holds.

pub mod delete;
pub mod insert;
pub mod reads;
pub mod sort;

use crate::convert::{Codec, Text};
use crate::error::{OntoError, OntoResult};
use r3m::{AttributeMap, LinkTableMap, Mapping, TableMap};
use rdf::{Iri, Term, Triple};
use rel::sql::{BulkRow, BulkUpdateStmt, DeleteStmt, Expr, InsertStmt, Statement, UpdateStmt};
use rel::{Database, IndexKey, Schema, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Options modulating translation.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslateOptions {
    /// Allow `INSERT DATA` to overwrite an attribute that already holds
    /// a different value. Off by default (a second value for a
    /// single-valued attribute is an error); Algorithm 2 switches it on
    /// for inserts whose matching delete was optimized away (§5.2).
    pub allow_overwrite: bool,
}

/// Step 1 — group triples by subject: "these triples all represent data
/// about the same entity and therefore target the same table".
/// Deterministic subject order (term order); within a group, request
/// order. The groups borrow the request's triples.
pub fn group_by_subject(triples: &[Triple]) -> Vec<(&Term, Vec<&Triple>)> {
    let mut groups: BTreeMap<&Term, Vec<&Triple>> = BTreeMap::new();
    for t in triples {
        groups.entry(&t.subject).or_default().push(t);
    }
    groups.into_iter().collect()
}

/// A subject identified against the mapping: its table and the key
/// values extracted from the URI (typed per the schema).
#[derive(Debug, Clone)]
pub struct IdentifiedSubject<'a> {
    /// The subject's instance IRI.
    pub uri: &'a Iri,
    /// Table map the URI pattern resolved to.
    pub table_map: &'a TableMap,
    /// `(attribute, value)` pairs extracted from the URI, converted to
    /// the column types.
    pub key: Vec<(&'a str, Value)>,
}

impl IdentifiedSubject<'_> {
    /// Values of the table's primary key columns, in PK declaration
    /// order (what `find_by_pk` expects).
    pub fn pk_values(&self, table: &rel::Table) -> OntoResult<Vec<Value>> {
        let mut out = Vec::with_capacity(table.primary_key.len());
        for pk in &table.primary_key {
            let value = self
                .key
                .iter()
                .find(|(attr, _)| *attr == pk.as_str())
                .map(|(_, v)| *v)
                .ok_or_else(|| OntoError::Unsupported {
                    message: format!(
                        "uriPattern of table {:?} does not expose primary key attribute {pk:?}",
                        table.name
                    ),
                })?;
            out.push(value);
        }
        Ok(out)
    }
}

/// Step 2 — identify the table affected by a subject group "through the
/// URI of their subject", extracting key attribute values (e.g.
/// `…/author1` → table `author`, `id = 1`).
pub fn identify<'a>(
    schema: &Schema,
    mapping: &'a Mapping,
    subject: &'a Term,
) -> OntoResult<IdentifiedSubject<'a>> {
    let uri = match subject {
        Term::Iri(iri) => iri,
        Term::Blank(b) => {
            return Err(OntoError::BlankNodeSubject {
                label: b.label().to_owned(),
            })
        }
        Term::Literal(_) => {
            return Err(OntoError::UnknownSubject {
                subject: subject.clone(),
            })
        }
    };
    let (table_map, raw_values) =
        mapping
            .identify(uri)
            .ok_or_else(|| OntoError::UnknownSubject {
                subject: subject.clone(),
            })?;
    let table = schema.table(&table_map.table_name)?;
    let mut key = Vec::with_capacity(raw_values.len());
    for (attr, raw) in raw_values {
        let codec = Codec::key(mapping, table_map, table, attr)?;
        key.push((attr, codec.decode_slot(raw, subject, Text::Intern)?));
    }
    Ok(IdentifiedSubject {
        uri,
        table_map,
        key,
    })
}

/// The table maps that a link table's subject and object attributes
/// reference.
pub(crate) fn link_ends<'m>(
    mapping: &'m Mapping,
    link: &LinkTableMap,
) -> OntoResult<[&'m TableMap; 2]> {
    let end = |attr: &AttributeMap| {
        attr.foreign_key_target()
            .and_then(|id| mapping.table_by_id(id))
            .ok_or_else(|| OntoError::Unsupported {
                message: format!(
                    "link table {:?}: attribute {:?} references no table map",
                    link.table_name, attr.attribute_name
                ),
            })
    };
    Ok([end(&link.subject_attribute)?, end(&link.object_attribute)?])
}

/// Find the row a subject denotes, if present.
pub fn find_row(
    db: &Database,
    identified: &IdentifiedSubject<'_>,
) -> OntoResult<Option<rel::RowId>> {
    let table = db.schema().table(&identified.table_map.table_name)?;
    let pk = identified.pk_values(table)?;
    Ok(db.find_by_pk(&table.name, &pk)?)
}

// ----------------------------------------------------------------------
// Row plans: the neutral output of steps 3+4, before emission
// ----------------------------------------------------------------------

/// One row-level effect of Algorithm 1, produced per subject group
/// before any SQL is rendered. Table and column names borrow from the
/// schema and the mapping; emission copies them once per statement. The
/// grouped (default) emission folds all plans of one (table,
/// column-shape) into one set-based statement; the per-row reference
/// emission maps each plan to the classic single-row statement the seed
/// pipeline produced — both from the same plans, so the two paths are
/// semantically identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOp<'a> {
    /// A new row.
    Insert {
        /// Target table.
        table: &'a str,
        /// Supplied columns, in schema order.
        columns: Vec<&'a str>,
        /// Values, parallel to `columns`.
        values: Vec<Value>,
    },
    /// Assignments to the row(s) matching `key` with SQL equality. The
    /// key lists the primary-key pairs first, then any guard pairs (the
    /// paper's Listing-18 current-value equality).
    Update {
        /// Target table.
        table: &'a str,
        /// `(column, value)` equality pairs identifying the row.
        key: Vec<(&'a str, Value)>,
        /// `(column, value)` assignments.
        sets: Vec<(&'a str, Value)>,
    },
    /// Removal of the row(s) matching `key`.
    Delete {
        /// Target table.
        table: &'a str,
        /// `(column, value)` equality pairs identifying the row.
        key: Vec<(&'a str, Value)>,
    },
}

// `k1 = v1 AND k2 = v2 …` over a plan key.
fn key_predicate(key: &[(&str, Value)]) -> Expr {
    Expr::conjunction(
        key.iter()
            .map(|&(column, value)| Expr::eq(Expr::col(column), Expr::Value(value)))
            .collect(),
    )
    .expect("plan keys are non-empty")
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|&name| name.to_owned()).collect()
}

impl RowOp<'_> {
    // The classic single-row statement (the seed's emission, verbatim).
    fn into_single_statement(self) -> Statement {
        match self {
            RowOp::Insert {
                table,
                columns,
                values,
            } => Statement::Insert(InsertStmt::single(table, owned(&columns), values)),
            RowOp::Update { table, key, sets } => Statement::Update(UpdateStmt {
                table: table.to_owned(),
                assignments: sets
                    .into_iter()
                    .map(|(column, value)| (column.to_owned(), Expr::Value(value)))
                    .collect(),
                where_clause: Some(key_predicate(&key)),
            }),
            RowOp::Delete { table, key } => Statement::Delete(DeleteStmt {
                table: table.to_owned(),
                where_clause: Some(key_predicate(&key)),
            }),
        }
    }
}

/// Per-row reference emission: one statement per plan, exactly the
/// statement stream the pre-batching pipeline produced.
pub fn emit_per_row(plans: Vec<RowOp<'_>>) -> Vec<Statement> {
    plans
        .into_iter()
        .map(RowOp::into_single_statement)
        .collect()
}

// Shape keys for update/delete grouping (inserts group by per-table
// runs instead — see [`emit_grouped`]). Deletes additionally fix every
// key column but the last (link-table deletes share the subject side),
// so the varying tail column can fold into one `IN (…)` list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Shape<'a> {
    Update(&'a str, Vec<&'a str>, Vec<&'a str>),
    Delete(&'a str, Vec<&'a str>, Vec<IndexKey>),
}

enum Group<'a> {
    Insert {
        table: &'a str,
        columns: Vec<&'a str>,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: &'a str,
        key_columns: Vec<&'a str>,
        set_columns: Vec<&'a str>,
        rows: Vec<BulkRow>,
    },
    Delete {
        table: &'a str,
        prefix: Vec<(&'a str, Value)>,
        tail_column: &'a str,
        tail_values: Vec<Value>,
    },
}

/// Grouped emission: one statement per (table, column-shape), in
/// first-appearance order. Single-plan groups render as the classic
/// single-row statements (the paper's listing shapes); larger groups
/// become multi-row `INSERT`, grouped `UPDATE … BY …`, or `DELETE …
/// IN (…)`. Inserts into and deletes from self-referencing tables are
/// never grouped, preserving the FK sort's cycle detection.
///
/// Inserts fold **runs** per table: a shape change within one table
/// closes that table's open group, so rows of one table always execute
/// in plan order and the physical heap (row ids, auto-increment
/// values) stays byte-identical to the per-row reference emission.
/// Updates and deletes group across the whole plan list — they create
/// no row ids, touch each row at most once per round, and removal
/// order cannot change the final state.
pub fn emit_grouped(schema: &Schema, plans: Vec<RowOp<'_>>) -> Vec<Statement> {
    let mut groups: Vec<Group<'_>> = Vec::new();
    let mut index: HashMap<Shape<'_>, usize> = HashMap::new();
    // Per table: the trailing (still open) insert group.
    let mut open_insert: HashMap<&str, usize> = HashMap::new();
    let self_references = |table: &str| {
        schema
            .table(table)
            .is_ok_and(|t| t.foreign_keys.iter().any(|fk| fk.ref_table == table))
    };
    for plan in plans {
        match plan {
            RowOp::Insert {
                table,
                columns,
                values,
            } => {
                if self_references(table) {
                    groups.push(Group::Insert {
                        table,
                        columns,
                        rows: vec![values],
                    });
                    continue;
                }
                if let Some(&at) = open_insert.get(table) {
                    let Group::Insert {
                        columns: open_columns,
                        rows,
                        ..
                    } = &mut groups[at]
                    else {
                        unreachable!("open_insert points at an insert group")
                    };
                    if *open_columns == columns {
                        rows.push(values);
                        continue;
                    }
                }
                open_insert.insert(table, groups.len());
                groups.push(Group::Insert {
                    table,
                    columns,
                    rows: vec![values],
                });
            }
            RowOp::Update { table, key, sets } => {
                let key_columns: Vec<&str> = key.iter().map(|&(c, _)| c).collect();
                let set_columns: Vec<&str> = sets.iter().map(|&(c, _)| c).collect();
                let row = BulkRow {
                    key: key.into_iter().map(|(_, v)| v).collect(),
                    set: sets.into_iter().map(|(_, v)| v).collect(),
                };
                let shape = Shape::Update(table, key_columns, set_columns);
                match index.get(&shape) {
                    Some(&at) => {
                        let Group::Update { rows, .. } = &mut groups[at] else {
                            unreachable!("shape key fixes the variant")
                        };
                        rows.push(row);
                    }
                    None => {
                        let Shape::Update(_, key_columns, set_columns) = &shape else {
                            unreachable!("built above")
                        };
                        groups.push(Group::Update {
                            table,
                            key_columns: key_columns.clone(),
                            set_columns: set_columns.clone(),
                            rows: vec![row],
                        });
                        index.insert(shape, groups.len() - 1);
                    }
                }
            }
            RowOp::Delete { table, mut key } => {
                let (tail_column, tail_value) = key.pop().expect("plan keys are non-empty");
                if self_references(table) {
                    groups.push(Group::Delete {
                        table,
                        prefix: key,
                        tail_column,
                        tail_values: vec![tail_value],
                    });
                    continue;
                }
                let columns: Vec<&str> = key
                    .iter()
                    .map(|&(c, _)| c)
                    .chain(std::iter::once(tail_column))
                    .collect();
                let prefix_keys: Vec<IndexKey> = key.iter().map(|(_, v)| v.index_key()).collect();
                let shape = Shape::Delete(table, columns, prefix_keys);
                match index.get(&shape) {
                    Some(&at) => {
                        let Group::Delete { tail_values, .. } = &mut groups[at] else {
                            unreachable!("shape key fixes the variant")
                        };
                        tail_values.push(tail_value);
                    }
                    None => {
                        index.insert(shape, groups.len());
                        groups.push(Group::Delete {
                            table,
                            prefix: key,
                            tail_column,
                            tail_values: vec![tail_value],
                        });
                    }
                }
            }
        }
    }
    groups
        .into_iter()
        .map(|group| match group {
            Group::Insert {
                table,
                columns,
                rows,
            } => Statement::Insert(InsertStmt {
                table: table.to_owned(),
                columns: owned(&columns),
                rows,
            }),
            Group::Update {
                table,
                key_columns,
                set_columns,
                mut rows,
            } => {
                if rows.len() == 1 {
                    let row = rows.remove(0);
                    RowOp::Update {
                        table,
                        key: key_columns.into_iter().zip(row.key).collect(),
                        sets: set_columns.into_iter().zip(row.set).collect(),
                    }
                    .into_single_statement()
                } else {
                    Statement::BulkUpdate(BulkUpdateStmt {
                        table: table.to_owned(),
                        key_columns: owned(&key_columns),
                        set_columns: owned(&set_columns),
                        rows,
                    })
                }
            }
            Group::Delete {
                table,
                prefix,
                tail_column,
                mut tail_values,
            } => {
                if tail_values.len() == 1 {
                    let mut key = prefix;
                    key.push((tail_column, tail_values.remove(0)));
                    RowOp::Delete { table, key }.into_single_statement()
                } else {
                    let mut conjuncts: Vec<Expr> = prefix
                        .iter()
                        .map(|&(column, value)| Expr::eq(Expr::col(column), Expr::Value(value)))
                        .collect();
                    conjuncts.push(Expr::col_in_values(tail_column, tail_values));
                    Statement::Delete(DeleteStmt {
                        table: table.to_owned(),
                        where_clause: Expr::conjunction(conjuncts),
                    })
                }
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Execution (steps 5+6)
// ----------------------------------------------------------------------

/// What one sorted execution did: the statements in execution order
/// (one per table-level group on the batched path) plus the total row
/// count they affected — the group-level accounting the endpoint and
/// the feedback protocol report.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Statements in execution order.
    pub statements: Vec<Statement>,
    /// Rows inserted, updated, or deleted across all statements.
    pub rows_affected: usize,
}

/// Steps 5+6 — sort the collected statements by FK dependencies
/// (table-level groups) and execute them. Inside an open transaction
/// they run there, and on failure the caller rolls the transaction
/// back; on a bare database they run in a transaction of their own, so
/// on any failure the database is unchanged.
pub fn execute_sorted(
    db: &mut Database,
    statements: Vec<Statement>,
) -> OntoResult<ExecutionReport> {
    execute_sorted_timed(db, statements).map(|(report, _, _)| report)
}

/// [`execute_sorted`] with the sort and execute stage wall times
/// returned alongside the report. Each stage is timed by its trace span
/// (`update.sort`, `update.execute`), so the returned durations are the
/// ones `/trace/<id>` shows.
pub fn execute_sorted_timed(
    db: &mut Database,
    statements: Vec<Statement>,
) -> OntoResult<(ExecutionReport, Duration, Duration)> {
    atomically(db, |db| {
        let (sorted, sort) = sort_timed(db.schema(), statements)?;
        let (report, execute) = execute_timed(db, sorted)?;
        Ok((report, sort, execute))
    })
}

/// Step 5 alone, timed by its `update.sort` span. The sort reads only
/// the schema, so it can run against any version of the database.
pub fn sort_timed(
    schema: &Schema,
    statements: Vec<Statement>,
) -> OntoResult<(Vec<Statement>, Duration)> {
    let span = obs::trace::span("update.sort");
    let sorted = sort::sort_statements(schema, statements)?;
    Ok((sorted, span.finish()))
}

// Step 6 alone: execute already-sorted statements in the caller's open
// transaction, timed by its `update.execute` span.
pub(crate) fn execute_timed(
    db: &mut Database,
    sorted: Vec<Statement>,
) -> OntoResult<(ExecutionReport, Duration)> {
    let span = obs::trace::span("update.execute");
    let report = run_statements(db, sorted)?;
    if span.armed() {
        span.attr_u64("statements", report.statements.len() as u64);
        span.attr_u64("rows_affected", report.rows_affected as u64);
    }
    Ok((report, span.finish()))
}

/// Reference variant of [`execute_sorted`] for the per-row statement
/// stream: the seed's statement-pair sort, then one engine call per
/// single-row statement. Kept as the differential-test and benchmark
/// baseline, mirroring `execute_select_reference` on the read side.
pub fn execute_sorted_reference(
    db: &mut Database,
    statements: Vec<Statement>,
) -> OntoResult<ExecutionReport> {
    atomically(db, |db| {
        let sorted = sort::sort_statements_reference(db.schema(), statements)?;
        run_statements(db, sorted)
    })
}

fn run_statements(db: &mut Database, sorted: Vec<Statement>) -> OntoResult<ExecutionReport> {
    let mut rows_affected = 0;
    for stmt in &sorted {
        rows_affected += rel::sql::execute(db, stmt)?.affected();
    }
    Ok(ExecutionReport {
        statements: sorted,
        rows_affected,
    })
}

// A write's one rollback point is its transaction. Inside an open one
// `work` runs there, and the caller owns the rollback; on a bare
// database `work` runs in a transaction of its own, committed on
// success and rolled back on failure.
pub(crate) fn atomically<T>(
    db: &mut Database,
    work: impl FnOnce(&mut Database) -> OntoResult<T>,
) -> OntoResult<T> {
    if db.in_transaction() {
        return work(db);
    }
    db.begin()?;
    match work(db) {
        Ok(value) => {
            db.commit()?;
            Ok(value)
        }
        Err(e) => {
            db.rollback()?;
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{endpoint_fixture, parse_update};

    #[test]
    fn grouping_is_by_subject_and_deterministic() {
        let (_, mapping) = endpoint_fixture();
        let _ = &mapping;
        let op = parse_update(
            "INSERT DATA {
               ex:team5 foaf:name \"SE\" .
               ex:author6 foaf:family_name \"Hert\" ; foaf:title \"Mr\" .
               ex:team5 ont:teamCode \"SEAL\" .
             }",
        );
        let sparql::UpdateOp::InsertData { triples } = op else {
            panic!()
        };
        let groups = group_by_subject(&triples);
        assert_eq!(groups.len(), 2);
        // Term order: author6 < team5.
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].1.len(), 2);
    }

    #[test]
    fn identify_extracts_typed_key() {
        let (db, mapping) = endpoint_fixture();
        let subject = Term::iri("http://example.org/db/author1");
        let identified = identify(db.schema(), &mapping, &subject).unwrap();
        assert_eq!(identified.table_map.table_name, "author");
        assert_eq!(identified.key, vec![("id", Value::Int(1))]);
    }

    #[test]
    fn identify_rejects_unknown_pattern() {
        let (db, mapping) = endpoint_fixture();
        let subject = Term::iri("http://example.org/db/wizard9");
        assert!(matches!(
            identify(db.schema(), &mapping, &subject),
            Err(OntoError::UnknownSubject { .. })
        ));
    }

    #[test]
    fn identify_rejects_blank_nodes() {
        let (db, mapping) = endpoint_fixture();
        assert!(matches!(
            identify(db.schema(), &mapping, &Term::blank("b0")),
            Err(OntoError::BlankNodeSubject { .. })
        ));
    }

    #[test]
    fn identify_rejects_non_numeric_key_for_integer_pk() {
        let (db, mapping) = endpoint_fixture();
        let subject = Term::iri("http://example.org/db/authorXY");
        assert!(matches!(
            identify(db.schema(), &mapping, &subject),
            Err(OntoError::ValueIncompatible { .. })
        ));
    }
}
