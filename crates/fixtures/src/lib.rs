//! Fixtures for the OntoAccess reproduction: the paper's publication use
//! case plus synthetic data and workload generators for tests, examples,
//! and benchmarks.
//!
//! The schema (Figure 1), domain ontology (Figure 2), and R3M mapping
//! (Table 1) live in [`ontoaccess::usecase`] and are re-exported here;
//! this crate adds the sample rows the paper's examples assume
//! ([`seed_paper_rows`]), scalable synthetic population ([`data`]), and
//! SPARQL/Update workload generation ([`workload`]).

#![warn(missing_docs)]

pub mod data;
pub mod diff;
pub mod http_probe;
pub mod prom;
pub mod workload;

pub use ontoaccess::usecase::{database, mapping, ontology, schema, MAP_NS, URI_PREFIX};

use ontoaccess::Mediator;
use rel::{Database, Value};

/// A shared mediator over an empty Figure-1 database.
pub fn mediator() -> Mediator {
    Mediator::new(database(), mapping()).expect("use case mapping is valid")
}

/// A shared mediator preloaded with the rows the paper's worked
/// examples assume (teams 4/5, authors 6/7, pubtype 4, publisher 3,
/// publication 1 authored by author 6).
pub fn mediator_with_sample_data() -> Mediator {
    let mut db = database();
    seed_paper_rows(&mut db);
    Mediator::new(db, mapping()).expect("use case mapping is valid")
}

/// A durable mediator over `dir`: on a fresh directory the paper's
/// sample rows are the base state; on reopen the recovered state wins.
pub fn durable_mediator_with_sample_data(dir: &std::path::Path) -> (Mediator, dur::RecoveryReport) {
    let mut db = database();
    seed_paper_rows(&mut db);
    Mediator::open_durable(dir, db, mapping()).expect("data dir opens")
}

/// A unique empty scratch directory under the system temp dir (label +
/// pid + counter — no timestamps, so parallel test binaries and
/// repeated runs cannot collide with themselves). The caller removes it
/// when done.
pub fn scratch_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ontoaccess-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Insert the sample rows of the paper's running examples.
pub fn seed_paper_rows(db: &mut Database) {
    let a = |name: &str, v: Value| (name.to_owned(), v);
    db.insert(
        "team",
        &[
            a("id", Value::Int(4)),
            a("name", Value::text("Database Technology")),
            a("code", Value::text("DBTG")),
        ],
    )
    .expect("fresh ids");
    db.insert(
        "team",
        &[
            a("id", Value::Int(5)),
            a("name", Value::text("Software Engineering")),
            a("code", Value::text("SEAL")),
        ],
    )
    .expect("fresh ids");
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
    .expect("fresh ids");
    db.insert(
        "author",
        &[
            a("id", Value::Int(7)),
            a("firstname", Value::text("Gerald")),
            a("lastname", Value::text("Reif")),
            a("team", Value::Int(5)),
        ],
    )
    .expect("fresh ids");
    db.insert(
        "pubtype",
        &[
            a("id", Value::Int(4)),
            a("type", Value::text("inproceedings")),
        ],
    )
    .expect("fresh ids");
    db.insert(
        "publisher",
        &[a("id", Value::Int(3)), a("name", Value::text("Springer"))],
    )
    .expect("fresh ids");
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
    .expect("fresh ids");
    db.insert(
        "publication_author",
        &[a("publication", Value::Int(1)), a("author", Value::Int(6))],
    )
    .expect("fresh ids");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_endpoint_answers_queries() {
        let m = mediator_with_sample_data();
        let sols = m.select("SELECT ?x WHERE { ?x a foaf:Person . }").unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn empty_endpoint_has_empty_view() {
        assert!(mediator().read().materialize().unwrap().is_empty());
    }

    #[test]
    fn seeded_counts() {
        let db = mediator_with_sample_data().database();
        assert_eq!(db.row_count("team").unwrap(), 2);
        assert_eq!(db.row_count("author").unwrap(), 2);
        assert_eq!(db.row_count("publication").unwrap(), 1);
        assert_eq!(db.row_count("publication_author").unwrap(), 1);
    }
}
