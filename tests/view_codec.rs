//! The one cell ⇄ term codec, end to end. Every triple of the
//! materialized view is recognized by the read path (an ASK for it
//! answers true) and by the write path (DELETE DATA of the whole view
//! is accepted and empties the database). An IRI that is not the
//! rendering of a key (`ex:author06` for `ex:author6`) denotes no row
//! on either path.

use sparql_update_rdb::fixtures;
use sparql_update_rdb::ontoaccess::{Mediator, OntoError};
use sparql_update_rdb::sparql::QueryOutcome;

fn populated(publications: usize, seed: u64) -> Mediator {
    let db = fixtures::data::populated_database(publications, seed);
    Mediator::new(db, fixtures::mapping()).expect("use case mapping is valid")
}

#[test]
fn every_triple_of_the_view_answers_its_own_ask() {
    for seed in [1, 2] {
        let mediator = populated(12, seed);
        let session = mediator.read();
        let view = session.materialize().unwrap();
        assert!(view.len() > 50, "a populated view: {} triples", view.len());
        for triple in view.iter() {
            let text = format!("ASK {{ {triple} }}");
            assert_eq!(
                session.execute_query(&text).unwrap(),
                QueryOutcome::Boolean(true),
                "{text}"
            );
        }
    }
}

#[test]
fn deleting_the_whole_view_empties_the_database() {
    for seed in [1, 2] {
        let mediator = populated(12, seed);
        let view = mediator.read().materialize().unwrap();
        let body: String = view.iter().map(|t| format!("{t}\n")).collect();
        mediator
            .execute_update(&format!("DELETE DATA {{\n{body}}}"))
            .expect("every triple of the view is present");
        let rest = mediator.read().materialize().unwrap();
        assert!(rest.is_empty(), "left behind:\n{rest:?}");
    }
}

#[test]
fn an_iri_that_is_not_a_keys_rendering_denotes_no_row() {
    let mediator = fixtures::mediator_with_sample_data();
    let before = mediator.read().materialize().unwrap();
    for request in [
        // Would be stored as row 9, whose subject is ex:author9.
        r#"INSERT DATA { ex:author09 foaf:family_name "Gall" . }"#,
        r#"INSERT DATA { <http://example.org/db/author+9> foaf:family_name "Gall" . }"#,
        // Would null author6's title through an IRI the view lacks.
        r#"DELETE DATA { ex:author06 foaf:title "Mr" . }"#,
    ] {
        let err = mediator.execute_update(request).unwrap_err();
        assert!(
            matches!(err, OntoError::ValueIncompatible { .. }),
            "{request}: {err}"
        );
    }
    assert_eq!(mediator.read().materialize().unwrap(), before);
    // A read rejects the alias as it rejects `ex:authorXY`.
    let err = mediator
        .read()
        .select("SELECT ?n WHERE { ex:author06 foaf:family_name ?n . }")
        .unwrap_err();
    assert!(matches!(err, OntoError::ValueIncompatible { .. }), "{err}");
    assert_eq!(
        mediator
            .read()
            .select("SELECT ?n WHERE { ex:author6 foaf:family_name ?n . }")
            .unwrap()
            .len(),
        1
    );
}
