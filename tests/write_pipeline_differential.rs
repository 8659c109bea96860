//! Differential tests for the set-based write pipeline: on randomized
//! database states and update workloads, the batched path (grouped
//! statements through the table-level sort and the bulk engine entry
//! points) must leave the database byte-identical to the per-row
//! reference path (one statement per row through the seed's
//! statement-pair sort) — including when an operation fails mid-batch
//! and rolls back, and including the secondary indexes, which the
//! planner-vs-reference query harness exercises on the final states.

use proptest::prelude::*;
use sparql_update_rdb::fixtures;
use sparql_update_rdb::fixtures::diff::{
    assert_heaps_identical, assert_indexes_consistent, assert_planner_matches_reference,
};
use sparql_update_rdb::ontoaccess;
use sparql_update_rdb::rdf::namespace::PrefixMap;
use sparql_update_rdb::rel::{self, Database, Value};
use sparql_update_rdb::sparql;

// ----------------------------------------------------------------------
// Workload generation
// ----------------------------------------------------------------------

fn parse_op(text: &str) -> sparql::UpdateOp {
    sparql::parse_update_with_prefixes(text, PrefixMap::common()).unwrap()
}

// A deterministic mixed update workload over the populated database's
// id space: inserts (fresh and complete datasets), pure-insert and
// overwrite MODIFYs, null-update MODIFYs, whole-row-delete MODIFYs
// (which hit RESTRICT mid-batch when teams are referenced), and DELETE
// DATA requests that may reject (absent triples). Rejections are part
// of the differential contract: both paths must fail identically and
// leave their databases untouched.
fn workload_ops(team: i64, k: usize) -> Vec<String> {
    let team_uri = format!("ex:team{team}");
    let base = 800_000 + 10 * k as i64;
    vec![
        fixtures::workload::insert_author(500_000 + k as i64, k % 5, Some(team)),
        fixtures::workload::insert_complete_dataset(600_000 + k as i64),
        // Mixed column shapes within one table: the middle subject
        // breaks the insert run, which must not reorder physical rows.
        fixtures::workload::with_prefixes(&format!(
            "INSERT DATA {{
               ex:team{a} foaf:name \"Ta{k}\" ; ont:teamCode \"Ka{k}\" .
               ex:team{b} foaf:name \"Tb{k}\" .
               ex:team{c} foaf:name \"Tc{k}\" ; ont:teamCode \"Kc{k}\" .
             }}",
            a = base,
            b = base + 1,
            c = base + 2,
        )),
        fixtures::workload::with_prefixes(&format!(
            "INSERT {{ ?x foaf:title \"Dr\" . }} WHERE {{ ?x ont:team {team_uri} . }}"
        )),
        fixtures::workload::with_prefixes(&format!(
            "MODIFY DELETE {{ ?x foaf:mbox ?m . }} \
             INSERT {{ ?x foaf:mbox <mailto:all@new.org> . }} \
             WHERE {{ ?x ont:team {team_uri} ; foaf:mbox ?m . }}"
        )),
        fixtures::workload::with_prefixes(
            "MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { } \
             WHERE { ?x foaf:mbox ?m . }",
        ),
        fixtures::workload::delete_author_email(1000 + k as i64),
        fixtures::workload::with_prefixes(
            "MODIFY DELETE { ?t a foaf:Group ; foaf:name ?n ; ont:teamCode ?c . } \
             INSERT { } WHERE { ?t foaf:name ?n ; ont:teamCode ?c . }",
        ),
    ]
}

// Run one op through both pipelines and check the differential
// contract. Returns whether the op succeeded.
fn run_differential(
    batched: &mut Database,
    reference: &mut Database,
    mapping: &sparql_update_rdb::r3m::Mapping,
    text: &str,
) -> bool {
    let op = parse_op(text);
    let result_batched = ontoaccess::execute_update_op(batched, mapping, &op);
    let result_reference = ontoaccess::execute_update_op_reference(reference, mapping, &op);
    match (&result_batched, &result_reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.rows_affected, b.rows_affected,
                "row accounting differs: {text}"
            );
            assert!(
                a.statements.len() <= b.statements.len(),
                "batching produced more statements than per-row: {text}"
            );
            true
        }
        (Err(ea), Err(eb)) => {
            assert_eq!(
                std::mem::discriminant(ea),
                std::mem::discriminant(eb),
                "error kinds differ: {text}: batched={ea}, reference={eb}"
            );
            // Engine failures all surface as OntoError::Database — the
            // inner kinds must agree too, or a divergence in failure
            // cause would slip through the outer discriminant.
            if let (ontoaccess::OntoError::Database(ra), ontoaccess::OntoError::Database(rb)) =
                (ea, eb)
            {
                assert_eq!(
                    std::mem::discriminant(ra),
                    std::mem::discriminant(rb),
                    "engine error kinds differ: {text}: batched={ra}, reference={rb}"
                );
            }
            // A rejected MODIFY may have committed its delete round at
            // this layer (the endpoint's scratch copy makes whole
            // operations atomic) — but batched and reference must agree
            // exactly on what was kept, which the caller's heap/index
            // comparison verifies.
            false
        }
        (Ok(_), Err(e)) => panic!("batched succeeded, reference failed ({e}): {text}"),
        (Err(e), Ok(_)) => panic!("batched failed ({e}), reference succeeded: {text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched ≡ per-row over randomized database states and a mixed
    /// update workload, including rejected operations, with heap,
    /// index, and planner-level equality after every step.
    #[test]
    fn batched_write_path_matches_per_row_reference(
        n in 2usize..25,
        seed in 0u64..500,
        team_index in 0usize..4,
    ) {
        let mut batched = fixtures::data::populated_database(n, seed);
        let mut reference = batched.clone();
        let mapping = fixtures::mapping();
        let team = fixtures::data::ID_BASE + (team_index % (n / 10).max(2)) as i64;
        for (k, text) in workload_ops(team, n).iter().enumerate() {
            run_differential(&mut batched, &mut reference, &mapping, text);
            assert_heaps_identical(&batched, &reference, &format!("op {k}: {text}"));
            assert_indexes_consistent(&batched, &format!("op {k} (batched)"));
            assert_indexes_consistent(&reference, &format!("op {k} (reference)"));
        }
        assert_planner_matches_reference(&batched, "workload");
    }
}

/// Mixed column shapes within one table must not reorder its physical
/// rows: insert grouping folds per-table *runs*, so row ids and
/// auto-increment values stay byte-identical to the per-row reference
/// even when a middle subject carries extra attributes.
#[test]
fn mixed_insert_shapes_keep_the_heap_byte_identical() {
    let mut batched = fixtures::data::populated_database(5, 3);
    let mut reference = batched.clone();
    let mapping = fixtures::mapping();
    // Shapes: [id, name, code] / [id, name] / [id, name, code] — the
    // middle subject breaks the run.
    let op = parse_op(&fixtures::workload::with_prefixes(
        "INSERT DATA {
           ex:team900 foaf:name \"A\" ; ont:teamCode \"CA\" .
           ex:team901 foaf:name \"B\" .
           ex:team902 foaf:name \"C\" ; ont:teamCode \"CC\" .
         }",
    ));
    let a = ontoaccess::execute_update_op(&mut batched, &mapping, &op).unwrap();
    let b = ontoaccess::execute_update_op_reference(&mut reference, &mapping, &op).unwrap();
    assert_eq!(a.rows_affected, b.rows_affected);
    assert_heaps_identical(&batched, &reference, "mixed insert shapes");
    assert_indexes_consistent(&batched, "mixed insert shapes");
}

// ----------------------------------------------------------------------
// Fan-out: statements per (table, column shape), not per row
// ----------------------------------------------------------------------

// The three fan-outs of a bulk write over `populated_database(n, _)`: an
// INSERT DATA of `n` fresh authors of one column shape, a MODIFY matching
// every author, and a MODIFY deleting every publication whole
// (attributes, type and authorship).
fn fan_outs(n: usize) -> [(&'static str, String); 3] {
    let mut authors = String::from("INSERT DATA {\n");
    for id in 700_000..700_000 + n as i64 {
        authors.push_str(&format!(
            "ex:author{id} foaf:family_name \"Last{id}\" ; foaf:firstName \"First{id}\" .\n"
        ));
    }
    authors.push('}');
    [
        ("insert_data", fixtures::workload::with_prefixes(&authors)),
        (
            "modify",
            fixtures::workload::with_prefixes(
                "INSERT { ?x foaf:title \"Dr\" . } WHERE { ?x a foaf:Person . }",
            ),
        ),
        (
            "modify_delete",
            fixtures::workload::with_prefixes(
                "MODIFY DELETE { ?p a foaf:Document ; dc:title ?t ; ont:pubYear ?y ; \
                   ont:pubType ?ty ; dc:publisher ?pb ; dc:creator ?a . } \
                 INSERT { } \
                 WHERE { ?p dc:title ?t ; ont:pubYear ?y ; ont:pubType ?ty ; \
                   dc:publisher ?pb ; dc:creator ?a . }",
            ),
        ),
    ]
}

/// The batched path runs one statement per (table, column shape), so a
/// fan-out executes as many statements at N = 1 000 as at N = 10 while
/// the rows it touches grow with N. Link-table deletes are the one
/// exception: their key's leading column is fixed per statement, so they
/// fold per subject — one statement per publication for its authorship
/// rows.
#[test]
fn fan_out_statement_count_does_not_grow_with_the_bindings() {
    let mapping = fixtures::mapping();
    let is_link = |table: &str| mapping.link_tables.iter().any(|l| l.table_name == table);
    let run = |n: usize| {
        let base = fixtures::data::populated_database(n, 7);
        fan_outs(n).map(|(name, text)| {
            let mut db = base.clone();
            let outcome = ontoaccess::execute_update_op(&mut db, &mapping, &parse_op(&text))
                .unwrap_or_else(|e| panic!("{name} at N = {n}: {e}"));
            let tables: Vec<&str> = outcome
                .statements
                .iter()
                .filter_map(|s| s.target_table())
                .collect();
            let links = tables.iter().filter(|t| is_link(t)).count();
            assert_eq!(
                links,
                if name == "modify_delete" { n } else { 0 },
                "{name} at N = {n}: one link delete per publication"
            );
            (name, tables.len() - links, outcome.rows_affected)
        })
    };
    for ((name, statements_10, rows_10), (_, statements_1k, rows_1k)) in
        run(10).into_iter().zip(run(1_000))
    {
        assert_eq!(
            statements_10, statements_1k,
            "{name}: the statement count grows with the bindings"
        );
        assert!(
            rows_1k > rows_10,
            "{name}: {rows_1k} rows at N = 1 000, {rows_10} at N = 10"
        );
    }
}

// ----------------------------------------------------------------------
// Bulk-write atomicity: a failing k-th row of a grouped statement
// ----------------------------------------------------------------------

/// A MODIFY whose grouped DELETE's second row violates RESTRICT (team 5
/// is still referenced by its authors) must leave the database
/// byte-identical to the pre-MODIFY state — heap, indexes, and planner
/// behaviour included — even though the group's first row (team 4,
/// unreferenced) deleted successfully before the violation.
#[test]
fn failing_row_mid_group_leaves_database_byte_identical() {
    let mediator = fixtures::mediator_with_sample_data();
    let before = mediator.database().clone();
    let err = mediator
        .execute_update(
            "MODIFY DELETE { ?t a foaf:Group ; foaf:name ?n ; ont:teamCode ?c . } \
             INSERT { } WHERE { ?t foaf:name ?n ; ont:teamCode ?c . }",
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            ontoaccess::OntoError::Database(rel::RelError::RestrictViolation { .. })
        ),
        "expected a RESTRICT violation, got: {err}"
    );
    let after = mediator.database().clone();
    assert_heaps_identical(&before, &after, "post-rollback");
    assert_indexes_consistent(&after, "post-rollback");
    assert_planner_matches_reference(&after, "rollback");
}

/// Same contract at the raw statement level: a multi-row INSERT whose
/// third row violates the primary key must roll back rows one and two,
/// indexes included.
#[test]
fn failing_row_mid_multi_row_insert_rolls_back_cleanly() {
    let mut db = fixtures::database();
    fixtures::seed_paper_rows(&mut db);
    let before = db.clone();
    let stmt =
        rel::sql::parse("INSERT INTO team (id, name) VALUES (10, 'A'), (11, 'B'), (4, 'dup');")
            .unwrap();
    let err = ontoaccess::execute_sorted(&mut db, vec![stmt]).unwrap_err();
    assert!(matches!(
        err,
        ontoaccess::OntoError::Database(rel::RelError::PrimaryKeyViolation { .. })
    ));
    assert_heaps_identical(&before, &db, "post-rollback");
    assert_indexes_consistent(&db, "post-rollback");
}

/// The grouped UPDATE rolls back the same way when a CHECK constraint
/// rejects a row mid-group.
#[test]
fn failing_row_mid_bulk_update_rolls_back_cleanly() {
    use sparql_update_rdb::rel::{Column, Schema, SqlType, Table};
    let mut schema = Schema::new();
    schema
        .add_table(
            Table::builder("publication")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("title", SqlType::Varchar).not_null())
                .column(Column::new("year", SqlType::Integer))
                .primary_key(&["id"])
                .check("year_range", "year >= 1900 AND year <= 2100")
                .build(),
        )
        .unwrap();
    let mut db = Database::new(schema).unwrap();
    for (id, year) in [(1, 2000i64), (2, 2005)] {
        db.insert(
            "publication",
            &[
                ("id".to_owned(), Value::Int(id)),
                ("title".to_owned(), Value::text(format!("P{id}"))),
                ("year".to_owned(), Value::Int(year)),
            ],
        )
        .unwrap();
    }
    let before = db.clone();
    let stmt =
        rel::sql::parse("UPDATE publication BY (id) SET (year) VALUES (1, 2050), (2, 2150);")
            .unwrap();
    let err = ontoaccess::execute_sorted(&mut db, vec![stmt]).unwrap_err();
    assert!(matches!(
        err,
        ontoaccess::OntoError::Database(rel::RelError::CheckViolation { .. })
    ));
    assert_heaps_identical(&before, &db, "post-rollback");
    assert_indexes_consistent(&db, "post-rollback");
}
