//! Step 5 of Algorithm 1 — sorting the generated SQL statements
//! "according to the foreign key relationships among the affected
//! tables" (§5.1).
//!
//! RDBs check referential integrity *during* a transaction, so executing
//! the statements of one SPARQL/Update operation in the wrong order
//! fails even though some order succeeds. Ordering rules (edges are
//! "must run before"):
//!
//! * `INSERT` into a referenced table → before `INSERT`/`UPDATE` on a
//!   referencing table (parents first);
//! * `DELETE`/`UPDATE` on a referencing table → before `DELETE` from a
//!   referenced table (children first).
//!
//! The rules only inspect a statement's kind and target table, so the
//! sort operates on **table-level classes**: all statements of one
//! (kind, table) share one node in the dependency graph, and the edge
//! graph is quadratic in the number of *classes*, not statements. After
//! the set-based write pipeline groups statements per (table, shape),
//! classes and statements coincide; the per-row reference path keeps
//! the seed's statement-pair sort ([`sort_statements_reference`]) as
//! the semantic baseline, and both produce identical output: a stable
//! topological order (statements keep their request order wherever the
//! constraints allow).

use crate::error::{OntoError, OntoResult};
use rel::sql::Statement;
use rel::Schema;
use std::collections::BinaryHeap;

// A statement's dependency class: DML kind + target table. The grouped
// `UPDATE … BY …` is an update; SELECT (never emitted here) stays
// unrelated to everything, as in the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Update,
    Delete,
    Select,
}

fn kind(stmt: &Statement) -> Kind {
    match stmt {
        Statement::Insert(_) => Kind::Insert,
        Statement::Update(_) | Statement::BulkUpdate(_) => Kind::Update,
        Statement::Delete(_) => Kind::Delete,
        Statement::Select(_) => Kind::Select,
    }
}

// Must every statement of class `a` run before every statement of class
// `b`? (The rule set of the seed's statement-pair `must_precede`.)
fn class_must_precede(schema: &Schema, a: (Kind, &str), b: (Kind, &str)) -> bool {
    let ((ka, ta), (kb, tb)) = (a, b);
    if ka == Kind::Select || kb == Kind::Select {
        return false;
    }
    match (ka, kb) {
        // Parent INSERT before dependent INSERT/UPDATE.
        (Kind::Insert, Kind::Insert | Kind::Update) => references(schema, tb, ta),
        // Child DELETE/UPDATE before parent DELETE.
        (Kind::Delete | Kind::Update, Kind::Delete) => references(schema, ta, tb),
        _ => false,
    }
}

/// Sort statements along FK dependencies, class-level. Errors on
/// dependency cycles (self-referencing tables touched by several
/// same-kind statements in one operation — outside the paper's scope).
pub fn sort_statements(schema: &Schema, statements: Vec<Statement>) -> OntoResult<Vec<Statement>> {
    let n = statements.len();
    if n <= 1 {
        return Ok(statements);
    }
    // Classes in first-appearance order; members kept in request order.
    let mut classes: Vec<(Kind, String)> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut class_of = Vec::with_capacity(n);
    for (i, stmt) in statements.iter().enumerate() {
        let key = (kind(stmt), stmt.target_table().unwrap_or("").to_owned());
        let class = match classes.iter().position(|c| *c == key) {
            Some(c) => c,
            None => {
                classes.push(key);
                members.push(Vec::new());
                classes.len() - 1
            }
        };
        members[class].push(i);
        class_of.push(class);
    }
    let c = classes.len();
    // preds[b] = classes that must fully run before class b.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); c];
    let mut pending: Vec<usize> = vec![0; c];
    for a in 0..c {
        for b in 0..c {
            // A class is ordered against itself only when it holds
            // several statements (the seed's pairwise check skips the
            // lone-statement case) — and then only a cycle can result.
            if a == b && members[a].len() <= 1 {
                continue;
            }
            let ca = (classes[a].0, classes[a].1.as_str());
            let cb = (classes[b].0, classes[b].1.as_str());
            if class_must_precede(schema, ca, cb) {
                preds[b].push(a);
                pending[b] += 1;
            }
        }
    }
    // Stable emission: repeatedly take the lowest-index statement whose
    // prerequisite classes are fully emitted — exactly the seed's
    // statement-level Kahn, driven per class. Ready classes sit in a
    // min-heap keyed by their next member's index.
    let mut remaining: Vec<usize> = members.iter().map(Vec::len).collect();
    let mut cursor: Vec<usize> = vec![0; c];
    let mut heap: BinaryHeap<std::cmp::Reverse<(usize, usize)>> = BinaryHeap::new();
    for class in 0..c {
        if pending[class] == 0 {
            heap.push(std::cmp::Reverse((members[class][0], class)));
        }
    }
    let mut order = Vec::with_capacity(n);
    // succs, for releasing classes as their predecessors complete.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); c];
    for (b, ps) in preds.iter().enumerate() {
        for &a in ps {
            succs[a].push(b);
        }
    }
    while let Some(std::cmp::Reverse((index, class))) = heap.pop() {
        order.push(index);
        cursor[class] += 1;
        remaining[class] -= 1;
        if remaining[class] == 0 {
            for &b in &succs[class] {
                pending[b] -= 1;
                if pending[b] == 0 {
                    heap.push(std::cmp::Reverse((members[b][cursor[b]], b)));
                }
            }
        } else {
            heap.push(std::cmp::Reverse((members[class][cursor[class]], class)));
        }
    }
    if order.len() != n {
        return Err(OntoError::Unsupported {
            message: "cyclic foreign-key dependency among generated statements".into(),
        });
    }
    let mut slots: Vec<Option<Statement>> = statements.into_iter().map(Some).collect();
    Ok(order
        .into_iter()
        .map(|i| slots[i].take().expect("each index emitted once"))
        .collect())
}

/// The seed's statement-pair sort, kept verbatim as the reference for
/// the per-row write path (differential tests and the `bulk_update`
/// bench baseline): quadratic in the number of *statements*.
pub fn sort_statements_reference(
    schema: &Schema,
    statements: Vec<Statement>,
) -> OntoResult<Vec<Statement>> {
    let n = statements.len();
    if n <= 1 {
        return Ok(statements);
    }
    // edges[b] contains a ⇒ a must run before b.
    let mut before: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, a) in statements.iter().enumerate() {
        for (j, b) in statements.iter().enumerate() {
            if i == j {
                continue;
            }
            if must_precede(schema, a, b) {
                before[j].push(i);
            }
        }
    }
    // Stable Kahn: repeatedly take the lowest-index statement whose
    // prerequisites are all emitted.
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let next = (0..n).find(|&j| !emitted[j] && before[j].iter().all(|&i| emitted[i]));
        match next {
            Some(j) => {
                emitted[j] = true;
                order.push(j);
            }
            None => {
                return Err(OntoError::Unsupported {
                    message: "cyclic foreign-key dependency among generated statements".into(),
                })
            }
        }
    }
    let mut slots: Vec<Option<Statement>> = statements.into_iter().map(Some).collect();
    Ok(order
        .into_iter()
        .map(|i| slots[i].take().expect("each index emitted once"))
        .collect())
}

// Does `a` have to run before `b`?
fn must_precede(schema: &Schema, a: &Statement, b: &Statement) -> bool {
    let (Some(ta), Some(tb)) = (a.target_table(), b.target_table()) else {
        return false;
    };
    class_must_precede(schema, (kind(a), ta), (kind(b), tb))
}

// Does `from` declare a foreign key to `to`?
fn references(schema: &Schema, from: &str, to: &str) -> bool {
    schema.referenced_tables(from).contains(&to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_db_with_rows;
    use rel::sql::parse;

    fn stmts(texts: &[&str]) -> Vec<Statement> {
        texts.iter().map(|t| parse(t).unwrap()).collect()
    }

    fn rendered(statements: &[Statement]) -> Vec<String> {
        statements.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn listing_15_order_constraints_hold() {
        // The paper's Listing 16 shows team/pubtype/publisher before
        // publication before author? No — author references team;
        // publication references pubtype+publisher; the link table
        // references both publication and author. Verify exactly those
        // precedence constraints.
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "INSERT INTO publication_author (publication, author) VALUES (12, 6);",
            "INSERT INTO publication (id, title, year, type, publisher) VALUES (12, 'R', 2009, 4, 3);",
            "INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 5);",
            "INSERT INTO team (id, name, code) VALUES (5, 'SE', 'SEAL');",
            "INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');",
            "INSERT INTO publisher (id, name) VALUES (3, 'Springer');",
        ]);
        let sorted = sort_statements(db.schema(), input).unwrap();
        let pos = |table: &str| {
            sorted
                .iter()
                .position(|s| s.target_table() == Some(table))
                .unwrap()
        };
        assert!(pos("team") < pos("author"));
        assert!(pos("pubtype") < pos("publication"));
        assert!(pos("publisher") < pos("publication"));
        assert!(pos("publication") < pos("publication_author"));
        assert!(pos("author") < pos("publication_author"));
    }

    #[test]
    fn deletes_sorted_children_first() {
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "DELETE FROM team WHERE id = 5;",
            "DELETE FROM author WHERE id = 6;",
            "DELETE FROM publication_author WHERE publication = 1 AND author = 6;",
        ]);
        let sorted = sort_statements(db.schema(), input).unwrap();
        let tables: Vec<_> = sorted.iter().map(|s| s.target_table().unwrap()).collect();
        assert_eq!(tables, vec!["publication_author", "author", "team"]);
    }

    #[test]
    fn update_nulling_fk_runs_before_parent_delete() {
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "DELETE FROM team WHERE id = 5;",
            "UPDATE author SET team = NULL WHERE id = 6 AND team = 5;",
        ]);
        let sorted = sort_statements(db.schema(), input).unwrap();
        assert!(matches!(sorted[0], Statement::Update(_)));
        assert!(matches!(sorted[1], Statement::Delete(_)));
    }

    #[test]
    fn bulk_update_participates_in_the_sort_as_an_update() {
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "DELETE FROM team WHERE id = 5;",
            "UPDATE author BY (id) SET (team) VALUES (6, NULL), (7, NULL);",
        ]);
        let sorted = sort_statements(db.schema(), input).unwrap();
        assert!(matches!(sorted[0], Statement::BulkUpdate(_)));
        assert!(matches!(sorted[1], Statement::Delete(_)));
    }

    #[test]
    fn parent_insert_runs_before_fk_filling_update() {
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "UPDATE author SET team = 7 WHERE id = 6;",
            "INSERT INTO team (id, name) VALUES (7, 'New');",
        ]);
        let sorted = sort_statements(db.schema(), input).unwrap();
        assert!(matches!(sorted[0], Statement::Insert(_)));
    }

    #[test]
    fn unrelated_statements_keep_request_order() {
        let (db, _) = fixture_db_with_rows();
        let input = stmts(&[
            "INSERT INTO team (id) VALUES (8);",
            "INSERT INTO publisher (id) VALUES (9);",
            "INSERT INTO pubtype (id) VALUES (10);",
        ]);
        let before = rendered(&input);
        let sorted = sort_statements(db.schema(), input).unwrap();
        assert_eq!(rendered(&sorted), before);
    }

    #[test]
    fn empty_and_singleton_pass_through() {
        let (db, _) = fixture_db_with_rows();
        assert!(sort_statements(db.schema(), vec![]).unwrap().is_empty());
        let one = stmts(&["DELETE FROM team WHERE id = 1;"]);
        assert_eq!(sort_statements(db.schema(), one).unwrap().len(), 1);
    }

    #[test]
    fn sorted_order_executes_where_request_order_fails() {
        // End-to-end demonstration of why the sort exists.
        let (mut db, _) = fixture_db_with_rows();
        let wrong_order = stmts(&[
            "INSERT INTO author (id, lastname, team) VALUES (20, 'X', 9);",
            "INSERT INTO team (id, name) VALUES (9, 'T9');",
        ]);
        // Executing verbatim fails on the FK check.
        let mut probe = db.clone();
        assert!(rel::sql::execute(&mut probe, &wrong_order[0]).is_err());
        // Through the sort it succeeds.
        let sorted = sort_statements(db.schema(), wrong_order).unwrap();
        db.begin().unwrap();
        for stmt in &sorted {
            rel::sql::execute(&mut db, stmt).unwrap();
        }
        db.commit().unwrap();
    }

    #[test]
    fn class_sort_matches_reference_sort() {
        // The table-level class sort and the seed's statement-pair sort
        // must order every workload identically.
        let (db, _) = fixture_db_with_rows();
        let workloads: Vec<Vec<&str>> = vec![
            vec![
                "INSERT INTO publication_author (publication, author) VALUES (12, 6);",
                "INSERT INTO publication (id, title, year, type, publisher) VALUES (12, 'R', 2009, 4, 3);",
                "INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 5);",
                "INSERT INTO team (id, name, code) VALUES (5, 'SE', 'SEAL');",
                "INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');",
                "INSERT INTO publisher (id, name) VALUES (3, 'Springer');",
            ],
            vec![
                "DELETE FROM team WHERE id = 5;",
                "DELETE FROM author WHERE id = 6;",
                "UPDATE author SET team = NULL WHERE id = 7;",
                "DELETE FROM publication_author WHERE publication = 1 AND author = 6;",
                "INSERT INTO team (id) VALUES (9);",
                "UPDATE publication SET year = 2010 WHERE id = 1;",
            ],
            vec![
                "INSERT INTO author (id, lastname) VALUES (21, 'A');",
                "INSERT INTO author (id, lastname) VALUES (22, 'B');",
                "INSERT INTO team (id) VALUES (9);",
                "DELETE FROM author WHERE id = 6;",
                "INSERT INTO author (id, lastname) VALUES (23, 'C');",
                "DELETE FROM team WHERE id = 4;",
            ],
        ];
        for texts in workloads {
            let input = stmts(&texts);
            let fast = sort_statements(db.schema(), input.clone()).unwrap();
            let reference = sort_statements_reference(db.schema(), input).unwrap();
            assert_eq!(rendered(&fast), rendered(&reference), "input: {texts:?}");
        }
    }

    #[test]
    fn self_referencing_cycles_still_detected() {
        use rel::{Column, Database, Schema, SqlType, Table};
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("node")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("parent", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("parent", "node", "id")
                    .build(),
            )
            .unwrap();
        let db = Database::new(schema).unwrap();
        // Two inserts into a self-referencing table: unsortable (as in
        // the seed), for the class sort and the reference alike.
        let input = stmts(&[
            "INSERT INTO node (id) VALUES (1);",
            "INSERT INTO node (id, parent) VALUES (2, 1);",
        ]);
        assert!(sort_statements(db.schema(), input.clone()).is_err());
        assert!(sort_statements_reference(db.schema(), input).is_err());
        // A single insert passes.
        let one = stmts(&["INSERT INTO node (id) VALUES (1);"]);
        assert_eq!(sort_statements(db.schema(), one).unwrap().len(), 1);
    }
}
