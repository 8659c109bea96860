//! RDF-view scenario: OntoAccess vs. a native triple store, side by
//! side. The same SPARQL/Update stream is applied to (a) the mediator
//! over the relational database and (b) an in-memory native triple
//! store seeded with the materialized RDF view. After every operation
//! the two views are compared — the semantic-equivalence property the
//! translation is built on (and the paper's §3 framing of OntoAccess as
//! a constrained alternative to a native store).
//!
//! Run with: `cargo run --example rdf_view`

use sparql_update_rdb::fixtures;
use sparql_update_rdb::rdf;
use sparql_update_rdb::sparql;

fn main() {
    let mediator = fixtures::mediator_with_sample_data();
    let mut native = mediator
        .read()
        .materialize()
        .expect("materialization succeeds");
    println!(
        "start: RDF view holds {} triples across {} tables",
        native.len(),
        mediator.database().schema().len()
    );

    let updates = [
        // New team with explicit typing (the relational view entails
        // rdf:type triples, so equivalent native updates assert them).
        r#"INSERT DATA { ex:team9 a foaf:Group ; foaf:name "Data Systems" ; ont:teamCode "DS" . }"#,
        // New author joining that team.
        r#"INSERT DATA { ex:author9 a foaf:Person ; foaf:family_name "Gall" ;
             foaf:firstName "Harald" ; ont:team ex:team9 . }"#,
        // Authorship for the existing sample publication.
        r#"INSERT DATA { ex:pub1 dc:creator ex:author9 . }"#,
        // Email replacement via MODIFY (Listing 11 shape).
        r#"MODIFY
           DELETE { ?x foaf:mbox ?m . }
           INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
           WHERE  { ?x foaf:family_name "Hert" ; foaf:mbox ?m . }"#,
        // Remove an optional attribute.
        r#"DELETE DATA { ex:author6 foaf:title "Mr" . }"#,
    ];

    for (i, update) in updates.iter().enumerate() {
        mediator.execute_update(update).expect("valid update");
        let op = sparql::parse_update_with_prefixes(update, mediator.prefixes().clone())
            .expect("parses");
        sparql::apply(&mut native, &op).expect("native update succeeds");

        let materialized = mediator
            .read()
            .materialize()
            .expect("materialization succeeds");
        assert_eq!(
            materialized, native,
            "the two views diverged after update {i}"
        );
        println!(
            "update {}: views agree ({} triples)",
            i + 1,
            materialized.len()
        );
    }

    println!("\nfinal RDF view (N-Triples, excerpt):");
    let dump = rdf::ntriples::write(&native);
    for line in dump.lines().take(12) {
        println!("    {line}");
    }
    println!("    … {} triples total", native.len());

    // The native store accepts updates the mediator must reject — the
    // conceptual gap of §3 in one picture.
    let invalid = r#"INSERT DATA { ex:author10 foaf:firstName "NoLastName" . }"#;
    let op =
        sparql::parse_update_with_prefixes(invalid, mediator.prefixes().clone()).expect("parses");
    let mut free_store = native.clone();
    sparql::apply(&mut free_store, &op).expect("native store takes anything");
    let rejected = mediator.execute_update(invalid).is_err();
    println!(
        "\nconstraint gap: native store accepted the lastname-less author, \
         mediator rejected it: {rejected}"
    );
}
