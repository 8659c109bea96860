//! Property-based tests over the whole stack (proptest).
//!
//! The headline property is the paper's implicit correctness claim:
//! translating a SPARQL/Update through SQL and applying the same update
//! to a native triple store *commute with materialization* — provided
//! the update asserts `rdf:type` for newly created entities (row
//! creation entails the type triple in the relational view).

use proptest::prelude::*;
use rdf::{Graph, Literal, Term, Triple};
use sparql_update_rdb::fixtures;
use sparql_update_rdb::ontoaccess::Mediator;

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9]{0,11}"
}

fn email_local_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,7}"
}

/// One randomly generated "create author" request (always includes the
/// type triple and the NOT NULL lastname).
#[derive(Debug, Clone)]
struct AuthorSpec {
    id: i64,
    lastname: String,
    firstname: Option<String>,
    title: Option<String>,
    email: Option<String>,
    team: bool, // attach to team 5 (exists in sample data)
}

fn author_spec() -> impl Strategy<Value = AuthorSpec> {
    (
        100i64..100_000,
        name_strategy(),
        proptest::option::of(name_strategy()),
        proptest::option::of(name_strategy()),
        proptest::option::of(email_local_strategy()),
        any::<bool>(),
    )
        .prop_map(|(id, lastname, firstname, title, email, team)| AuthorSpec {
            id,
            lastname,
            firstname,
            title,
            email,
            team,
        })
}

fn insert_request(spec: &AuthorSpec) -> String {
    let mut lines = vec![
        format!("ex:author{} a foaf:Person", spec.id),
        format!("    foaf:family_name \"{}\"", spec.lastname),
    ];
    if let Some(f) = &spec.firstname {
        lines.push(format!("    foaf:firstName \"{f}\""));
    }
    if let Some(t) = &spec.title {
        lines.push(format!("    foaf:title \"{t}\""));
    }
    if let Some(e) = &spec.email {
        lines.push(format!("    foaf:mbox <mailto:{e}@example.org>"));
    }
    if spec.team {
        lines.push("    ont:team ex:team5".to_owned());
    }
    format!("INSERT DATA {{\n{} .\n}}", lines.join(" ;\n"))
}

fn apply_native(mediator: &Mediator, graph: &mut Graph, request: &str) {
    let op = sparql::parse_update_with_prefixes(request, mediator.prefixes().clone())
        .expect("request parses");
    sparql::apply(graph, &op).expect("native application succeeds");
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert-through-SQL and native insert agree on the resulting RDF
    /// view, for arbitrary generated author data.
    #[test]
    fn insert_commutes_with_materialization(spec in author_spec()) {
        let mediator = fixtures::mediator_with_sample_data();
        let mut native = mediator.read().materialize().unwrap();
        let request = insert_request(&spec);
        mediator.execute_update(&request).expect("generated insert is valid");
        apply_native(&mediator, &mut native, &request);
        prop_assert_eq!(mediator.read().materialize().unwrap(), native);
    }

    /// Inserting then deleting the optional attributes returns the RDF
    /// view to the bare state — and never touches other entities.
    #[test]
    fn delete_undoes_optional_inserts(spec in author_spec()) {
        let mediator = fixtures::mediator_with_sample_data();
        // Bare author first.
        let bare = AuthorSpec { firstname: None, title: None, email: None, team: false, ..spec.clone() };
        mediator.execute_update(&insert_request(&bare)).unwrap();
        let bare_view = mediator.read().materialize().unwrap();
        // Add optional attributes, then delete exactly them.
        let mut adds = Vec::new();
        if let Some(f) = &spec.firstname {
            adds.push(format!("foaf:firstName \"{f}\""));
        }
        if let Some(t) = &spec.title {
            adds.push(format!("foaf:title \"{t}\""));
        }
        if let Some(e) = &spec.email {
            adds.push(format!("foaf:mbox <mailto:{e}@example.org>"));
        }
        if adds.is_empty() {
            prop_assert_eq!(mediator.read().materialize().unwrap(), bare_view);
            return Ok(());
        }
        let body = adds.join(" ; ");
        mediator.execute_update(&format!("INSERT DATA {{ ex:author{} {body} . }}", spec.id)).unwrap();
        mediator.execute_update(&format!("DELETE DATA {{ ex:author{} {body} . }}", spec.id)).unwrap();
        prop_assert_eq!(mediator.read().materialize().unwrap(), bare_view);
    }

    /// Rejected updates leave the database bit-for-bit unchanged
    /// (atomicity at the operation level), for arbitrary — often
    /// invalid — requests.
    #[test]
    fn rejection_is_atomic(
        spec in author_spec(),
        break_lastname in any::<bool>(),
        dangling_team in any::<bool>(),
    ) {
        let mediator = fixtures::mediator_with_sample_data();
        let before = mediator.read().materialize().unwrap();
        let mut lines = vec![format!("ex:author{} a foaf:Person", spec.id)];
        if !break_lastname {
            lines.push(format!("    foaf:family_name \"{}\"", spec.lastname));
        }
        if dangling_team {
            lines.push("    ont:team ex:team424242".to_owned());
        }
        let request = format!("INSERT DATA {{\n{} .\n}}", lines.join(" ;\n"));
        match mediator.execute_update(&request) {
            Ok(_) => {
                prop_assert!(!break_lastname && !dangling_team);
            }
            Err(_) => {
                prop_assert_eq!(mediator.read().materialize().unwrap(), before);
            }
        }
    }

    /// MODIFY replacing the email equals native MODIFY semantics.
    #[test]
    fn modify_commutes_with_materialization(local in email_local_strategy()) {
        let mediator = fixtures::mediator_with_sample_data();
        let mut native = mediator.read().materialize().unwrap();
        let request = format!(
            "MODIFY DELETE {{ ?x foaf:mbox ?m . }} \
             INSERT {{ ?x foaf:mbox <mailto:{local}@example.org> . }} \
             WHERE {{ ?x foaf:family_name \"Hert\" ; foaf:mbox ?m . }}"
        );
        mediator.execute_update(&request).expect("modify is valid");
        apply_native(&mediator, &mut native, &request);
        prop_assert_eq!(mediator.read().materialize().unwrap(), native);
    }

    /// SPARQL-over-SQL equals SPARQL-over-materialized-graph on random
    /// database states.
    #[test]
    fn query_translation_agrees_with_native(seed in 0u64..1000, n in 5usize..40) {
        let db = fixtures::data::populated_database(n, seed);
        let graph = ontoaccess::materialize(&db, &fixtures::mapping()).unwrap();
        let mediator = Mediator::new(db, fixtures::mapping()).unwrap();
        for q in [
            fixtures::workload::select_authors_with_team(),
            fixtures::workload::select_publications_with_authors(),
            fixtures::workload::select_recent_publications(2000),
        ] {
            let mut relational = mediator.select(&q).unwrap();
            let query = sparql::parse_query_with_prefixes(&q, mediator.prefixes().clone()).unwrap();
            let sparql::Query::Select(select) = query else { panic!() };
            let mut native = sparql::evaluate_select(&graph, &select);
            relational.bindings.sort();
            native.bindings.sort();
            prop_assert_eq!(relational.bindings, native.bindings);
        }
    }

    /// URI patterns: generate then match is the identity on key values.
    #[test]
    fn uri_pattern_roundtrip(id in 0i64..1_000_000) {
        let mapping = fixtures::mapping();
        for table in &mapping.tables {
            let uri = mapping
                .instance_uri(table, &|_| Some(id.to_string().into()))
                .unwrap();
            let (found, values) = mapping.identify(&uri).unwrap();
            prop_assert_eq!(&found.table_name, &table.table_name);
            let id = id.to_string();
            prop_assert_eq!(values, vec![("id", id.as_str())]);
        }
    }

    /// Turtle round-trips arbitrary graphs built from safe generators.
    #[test]
    fn turtle_roundtrip(triples in proptest::collection::vec(triple_strategy(), 0..30)) {
        let graph: Graph = triples.into_iter().collect();
        let text = rdf::turtle::write(&graph, &rdf::PrefixMap::common());
        let parsed = rdf::turtle::parse(&text).unwrap();
        prop_assert_eq!(parsed, graph);
    }

    /// N-Triples round-trips the same graphs.
    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(triple_strategy(), 0..30)) {
        let graph: Graph = triples.into_iter().collect();
        let text = rdf::ntriples::write(&graph);
        let parsed = rdf::ntriples::parse(&text).unwrap();
        prop_assert_eq!(parsed, graph);
    }

    /// The SQL printer/parser round-trip on generated statements.
    #[test]
    fn sql_roundtrip(stmt in sql_statement_strategy()) {
        let text = stmt.to_string();
        let reparsed = rel::sql::parse(&text).unwrap();
        prop_assert_eq!(reparsed, stmt);
    }

    /// Dictionary ids are stable: the symbol interned for a string
    /// before any storage work resolves to the same string and
    /// re-interns to the same id after (a) a rolled-back transaction
    /// whose update carried the string and (b) a full snapshot+WAL
    /// recovery of a durable mediator that committed it.
    #[test]
    fn dictionary_ids_survive_rollback_and_recovery(
        names in proptest::collection::vec(name_strategy(), 1..4),
    ) {
        use sparql_update_rdb::fixtures::diff;
        use sparql_update_rdb::rel::{Sym, Value};

        // Pin every string's id up front.
        let pinned: Vec<(Sym, &str)> =
            names.iter().map(|s| (Sym::intern(s), s.as_str())).collect();

        let dir = fixtures::scratch_dir("dict-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = fixtures::database();
        fixtures::seed_paper_rows(&mut db);
        let mediator = Mediator::open_durable(&dir, db, fixtures::mapping())
            .unwrap()
            .0;

        // (a) Rolled-back work: a two-operation atomic script whose
        // second operation dangles, so the first (which interns the
        // string into a stored row) is fully undone and logs nothing.
        let commits_before = mediator.durability_stats().unwrap().commits_appended;
        for (k, name) in names.iter().enumerate() {
            let script = fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:team{id} foaf:name \"{name}\" . }} ;\n\
                 INSERT DATA {{ ex:author{id} ont:team ex:team555555 . }}",
                id = 910_000 + k,
            ));
            prop_assert!(mediator.execute_script(&script, true).is_err());
        }
        prop_assert_eq!(
            mediator.durability_stats().unwrap().commits_appended,
            commits_before,
            "rolled-back scripts must log nothing"
        );
        for (sym, s) in &pinned {
            prop_assert_eq!(sym.as_str(), *s);
            prop_assert_eq!(Sym::intern(s), *sym);
        }

        // (b) Committed work, then recovery from disk.
        for (k, name) in names.iter().enumerate() {
            let insert = fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:team{id} foaf:name \"{name}\" . }}",
                id = 920_000 + k,
            ));
            mediator.execute_update(&insert).unwrap();
        }
        let before = mediator.database().clone();
        drop(mediator);
        let recovered = Mediator::open_durable(&dir, fixtures::database(), fixtures::mapping())
            .unwrap()
            .0;
        let after = recovered.database();
        diff::assert_heaps_identical(&before, &after, "dictionary recovery");
        // Every recovered text cell resolves to a string that interns
        // right back to the same id (resolve∘intern is the identity).
        for table in after.schema().tables() {
            for (_, row) in after.scan(&table.name).unwrap() {
                for value in row {
                    if let Value::Text(sym) = value {
                        prop_assert_eq!(Sym::intern(sym.as_str()), *sym);
                    }
                }
            }
        }
        drop(after);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----------------------------------------------------------------------
// Generator helpers for the round-trip properties
// ----------------------------------------------------------------------

fn iri_strategy() -> impl Strategy<Value = Term> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| Term::iri(&format!("http://example.org/gen/{s}")))
}

fn literal_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Plain strings including escapes.
        "[ -~]{0,16}".prop_map(|s| Term::Literal(Literal::plain(s))),
        any::<i64>().prop_map(|i| Term::Literal(Literal::integer(i))),
        any::<bool>().prop_map(|b| Term::Literal(Literal::boolean(b))),
        ("[a-z]{1,6}", "[a-z]{2}").prop_map(|(s, tag)| Term::Literal(Literal::lang(s, tag))),
    ]
}

fn triple_strategy() -> impl Strategy<Value = Triple> {
    (
        iri_strategy(),
        "[a-z][a-z0-9]{0,8}",
        prop_oneof![iri_strategy(), literal_strategy()],
    )
        .prop_map(|(s, p, o)| {
            Triple::new(
                s,
                rdf::Iri::parse(format!("http://example.org/prop/{p}")).unwrap(),
                o,
            )
        })
}

fn sql_value_strategy() -> impl Strategy<Value = rel::Value> {
    prop_oneof![
        Just(rel::Value::Null),
        any::<i64>().prop_map(rel::Value::Int),
        "[ -~]{0,12}".prop_map(rel::Value::text),
        any::<bool>().prop_map(rel::Value::Bool),
    ]
}

fn identifier_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,9}".prop_filter("not a keyword", |s| {
        !matches!(
            s.to_ascii_uppercase().as_str(),
            "INSERT"
                | "INTO"
                | "VALUES"
                | "UPDATE"
                | "SET"
                | "DELETE"
                | "FROM"
                | "SELECT"
                | "DISTINCT"
                | "WHERE"
                | "AND"
                | "OR"
                | "NOT"
                | "IS"
                | "NULL"
                | "TRUE"
                | "FALSE"
                | "AS"
        )
    })
}

fn sql_statement_strategy() -> impl Strategy<Value = rel::sql::Statement> {
    use rel::sql::{BulkRow, BulkUpdateStmt, DeleteStmt, Expr, InsertStmt, Statement, UpdateStmt};
    let insert = (
        identifier_strategy(),
        proptest::collection::vec((identifier_strategy(), sql_value_strategy()), 1..6),
        proptest::collection::vec(sql_value_strategy(), 0..8),
    )
        .prop_map(|(table, pairs, extra)| {
            // Deduplicate column names to keep the statement well formed.
            let mut seen = std::collections::BTreeSet::new();
            let pairs: Vec<_> = pairs
                .into_iter()
                .filter(|(c, _)| seen.insert(c.clone()))
                .collect();
            // First row from the pairs; further rows (multi-row VALUES)
            // recycle the extra values to the same width.
            let columns: Vec<String> = pairs.iter().map(|(c, _)| c.clone()).collect();
            let first: Vec<rel::Value> = pairs.into_iter().map(|(_, v)| v).collect();
            let width = columns.len();
            let mut rows = vec![first];
            for chunk in extra.chunks(width) {
                if chunk.len() == width {
                    rows.push(chunk.to_vec());
                }
            }
            Statement::Insert(InsertStmt {
                table,
                columns,
                rows,
            })
        });
    let update = (
        identifier_strategy(),
        identifier_strategy(),
        sql_value_strategy(),
        identifier_strategy(),
        sql_value_strategy(),
    )
        .prop_map(|(table, set_col, set_val, where_col, where_val)| {
            Statement::Update(UpdateStmt {
                table,
                assignments: vec![(set_col, Expr::Value(set_val))],
                where_clause: Some(Expr::eq(Expr::col(&where_col), Expr::Value(where_val))),
            })
        });
    let bulk_update = (
        identifier_strategy(),
        identifier_strategy(),
        identifier_strategy(),
        proptest::collection::vec((sql_value_strategy(), sql_value_strategy()), 1..5),
    )
        .prop_map(|(table, key_col, set_col, tuples)| {
            Statement::BulkUpdate(BulkUpdateStmt {
                table,
                key_columns: vec![key_col],
                set_columns: vec![set_col],
                rows: tuples
                    .into_iter()
                    .map(|(k, s)| BulkRow {
                        key: vec![k],
                        set: vec![s],
                    })
                    .collect(),
            })
        });
    let delete = (
        identifier_strategy(),
        identifier_strategy(),
        sql_value_strategy(),
    )
        .prop_map(|(table, col, val)| {
            Statement::Delete(DeleteStmt {
                table,
                where_clause: Some(Expr::eq(Expr::col(&col), Expr::Value(val))),
            })
        });
    let delete_in = (
        identifier_strategy(),
        identifier_strategy(),
        proptest::collection::vec(sql_value_strategy(), 1..6),
        any::<bool>(),
    )
        .prop_map(|(table, col, vals, negated)| {
            Statement::Delete(DeleteStmt {
                table,
                where_clause: Some(rel::sql::Expr::InList {
                    expr: Box::new(Expr::col(&col)),
                    list: vals.into_iter().map(Expr::Value).collect(),
                    negated,
                }),
            })
        });
    prop_oneof![insert, update, bulk_update, delete, delete_in]
}
