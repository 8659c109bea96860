//! Feedback protocol scenario (paper §3/§8): the constraints of the
//! relational schema surface as *semantically rich* rejections. Each
//! invalid request below is refused before touching the database, with a
//! machine-readable RDF feedback document naming the violated
//! constraint, the affected table/attribute, and a repair hint.
//!
//! Run with: `cargo run --example feedback_protocol`

use sparql_update_rdb::fixtures;

fn main() {
    let mediator = fixtures::mediator_with_sample_data();

    let invalid_requests = [
        (
            "Missing NOT NULL property (author without lastname)",
            r#"INSERT DATA { ex:author9 foaf:firstName "Ada" . }"#,
        ),
        (
            "Dangling foreign key (team 99 does not exist)",
            r#"INSERT DATA { ex:author9 foaf:family_name "Lovelace" ; ont:team ex:team99 . }"#,
        ),
        (
            "Type error (publication year is not an integer)",
            r#"INSERT DATA { ex:pub9 dc:title "T" ; ont:pubYear "next spring" . }"#,
        ),
        (
            "Unknown property for the table (teams have no mailbox)",
            r#"INSERT DATA { ex:team8 foaf:name "T8" ; foaf:mbox <mailto:t@x.ch> . }"#,
        ),
        (
            "Unmapped subject URI",
            r#"INSERT DATA { ex:wizard1 foaf:name "Gandalf" . }"#,
        ),
        (
            "Deleting a required value (lastname is NOT NULL)",
            r#"DELETE DATA { ex:author6 foaf:family_name "Hert" . }"#,
        ),
        (
            "Deleting a triple that is not present",
            r#"DELETE DATA { ex:author6 foaf:mbox <mailto:wrong@example.org> . }"#,
        ),
        (
            "Second value for a single-valued attribute",
            r#"INSERT DATA { ex:author6 foaf:family_name "Other" . }"#,
        ),
    ];

    for (label, request) in invalid_requests {
        println!("=== {label} ===");
        println!("{request}");
        let (feedback, result) = mediator.execute_update_with_feedback(request);
        assert!(result.is_err(), "request is meant to be rejected");
        println!("--- feedback document (Turtle):");
        println!("{}", feedback.to_turtle());
    }

    // And one success, for contrast.
    println!("=== Valid request ===");
    let (feedback, result) = mediator.execute_update_with_feedback(
        r#"INSERT DATA { ex:author9 foaf:family_name "Lovelace" . }"#,
    );
    assert!(result.is_ok());
    println!("{}", feedback.to_turtle());

    // Nothing from the rejected requests leaked into the database: a
    // read session over the same mediator sees the live state without
    // copying anything.
    let gandalf = mediator
        .read()
        .select("SELECT ?x WHERE { ?x foaf:name \"Gandalf\" . }")
        .expect("query succeeds");
    assert!(gandalf.is_empty());
    println!("database state verified: no partial effects from rejected requests");
}
