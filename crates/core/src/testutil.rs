//! Shared test helpers over the publication use case (test builds only).

#![cfg(test)]

use r3m::Mapping;
use rdf::namespace::PrefixMap;
use rdf::Triple;
use rel::sql::Statement;
use rel::{Database, Value};
use sparql::UpdateOp;

/// Empty Figure-1 database plus the Table-1 mapping.
pub fn endpoint_fixture() -> (Database, Mapping) {
    (crate::usecase::database(), crate::usecase::mapping())
}

/// A shared in-memory mediator over [`fixture_db_with_rows`].
pub fn fixture_mediator() -> crate::Mediator {
    let (db, mapping) = fixture_db_with_rows();
    crate::Mediator::new(db, mapping).unwrap()
}

/// Database preloaded with the rows the paper's examples assume:
/// teams 4 (DBTG) and 5 (SEAL), authors 6 (Hert, team 5, with mbox) and
/// 7 (Reif, team 5), pubtype 4, publisher 3, publication 1 authored by
/// author 6.
pub fn fixture_db_with_rows() -> (Database, Mapping) {
    let (mut db, mapping) = endpoint_fixture();
    let a = |name: &str, v: Value| (name.to_owned(), v);
    db.insert(
        "team",
        &[
            a("id", Value::Int(4)),
            a("name", Value::text("Database Technology")),
            a("code", Value::text("DBTG")),
        ],
    )
    .unwrap();
    db.insert(
        "team",
        &[
            a("id", Value::Int(5)),
            a("name", Value::text("Software Engineering")),
            a("code", Value::text("SEAL")),
        ],
    )
    .unwrap();
    db.insert(
        "author",
        &[
            a("id", Value::Int(6)),
            a("title", Value::text("Mr")),
            a("firstname", Value::text("Matthias")),
            a("lastname", Value::text("Hert")),
            a("email", Value::text("hert@ifi.uzh.ch")),
            a("team", Value::Int(5)),
        ],
    )
    .unwrap();
    db.insert(
        "author",
        &[
            a("id", Value::Int(7)),
            a("firstname", Value::text("Gerald")),
            a("lastname", Value::text("Reif")),
            a("team", Value::Int(5)),
        ],
    )
    .unwrap();
    db.insert(
        "pubtype",
        &[
            a("id", Value::Int(4)),
            a("type", Value::text("inproceedings")),
        ],
    )
    .unwrap();
    db.insert(
        "publisher",
        &[a("id", Value::Int(3)), a("name", Value::text("Springer"))],
    )
    .unwrap();
    db.insert(
        "publication",
        &[
            a("id", Value::Int(1)),
            a(
                "title",
                Value::text("Relational Databases as Semantic Web Endpoints"),
            ),
            a("year", Value::Int(2009)),
            a("type", Value::Int(4)),
            a("publisher", Value::Int(3)),
        ],
    )
    .unwrap();
    db.insert(
        "publication_author",
        &[a("publication", Value::Int(1)), a("author", Value::Int(6))],
    )
    .unwrap();
    (db, mapping)
}

/// Database holding only the two teams — the state the paper's
/// Listing 9 (insert author6 with `ont:team ex:team5`) assumes.
pub fn fixture_db_teams_only() -> (Database, Mapping) {
    let (mut db, mapping) = endpoint_fixture();
    let a = |name: &str, v: Value| (name.to_owned(), v);
    db.insert(
        "team",
        &[
            a("id", Value::Int(5)),
            a("name", Value::text("Software Engineering")),
            a("code", Value::text("SEAL")),
        ],
    )
    .unwrap();
    (db, mapping)
}

/// Parse a SPARQL/Update with the use case prefixes (`ex:`, `foaf:`,
/// `dc:`, `ont:`, …) preloaded.
pub fn parse_update(body: &str) -> UpdateOp {
    let mut prefixes = PrefixMap::common();
    prefixes.insert("ex", crate::usecase::URI_PREFIX);
    sparql::parse_update_with_prefixes(body, prefixes).expect("test update parses")
}

/// Parse a SPARQL query with the use case prefixes preloaded.
pub fn parse_query(body: &str) -> sparql::Query {
    let mut prefixes = PrefixMap::common();
    prefixes.insert("ex", crate::usecase::URI_PREFIX);
    sparql::parse_query_with_prefixes(body, prefixes).expect("test query parses")
}

/// Extract the triples of an `INSERT DATA`.
pub fn insert_data(op: &UpdateOp) -> Vec<Triple> {
    match op {
        UpdateOp::InsertData { triples } => triples.clone(),
        other => panic!("expected INSERT DATA, got {}", other.name()),
    }
}

/// Extract the triples of a `DELETE DATA`.
pub fn delete_data(op: &UpdateOp) -> Vec<Triple> {
    match op {
        UpdateOp::DeleteData { triples } => triples.clone(),
        other => panic!("expected DELETE DATA, got {}", other.name()),
    }
}

/// Render statements as SQL text.
pub fn render(statements: &[Statement]) -> Vec<String> {
    statements.iter().map(|s| s.to_string()).collect()
}
