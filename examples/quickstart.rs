//! Quickstart: stand up the OntoAccess mediator over the paper's
//! publication database and run the paper's own example requests
//! (Listings 9, 13, 17), printing the SQL each one translates to.
//!
//! Run with: `cargo run --example quickstart`

use sparql_update_rdb::fixtures;

fn main() {
    // Figure 1 schema + Table 1 mapping; team 5 ("Software Engineering")
    // is among the preloaded sample rows, as Listing 9 assumes. We first
    // remove the preloaded author6 so Listing 9 inserts a fresh entity.
    let mediator = fixtures::mediator_with_sample_data();
    mediator
        .execute_update(
            r#"DELETE DATA {
                 ex:author6 a foaf:Person ;
                   foaf:title "Mr" ;
                   foaf:firstName "Matthias" ;
                   foaf:family_name "Hert" ;
                   foaf:mbox <mailto:hert@ifi.uzh.ch> ;
                   ont:team ex:team5 .
                 ex:pub1 dc:creator ex:author6 .
               }"#,
        )
        .expect("clearing the sample author succeeds");

    let requests = [
        (
            "Listing 9 — INSERT DATA for a new author",
            r#"INSERT DATA {
                 ex:author6 foaf:title "Mr" ;
                   foaf:firstName "Matthias" ;
                   foaf:family_name "Hert" ;
                   foaf:mbox <mailto:hert@ifi.uzh.ch> ;
                   ont:team ex:team5 .
               }"#,
        ),
        (
            "Listing 13 — INSERT DATA for a new team",
            r#"INSERT DATA {
                 ex:team14 foaf:name "Database Technology II" ;
                   ont:teamCode "DBTG2" .
               }"#,
        ),
        (
            "Listing 17 — DELETE DATA removing the email",
            r#"DELETE DATA {
                 ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> .
               }"#,
        ),
    ];

    for (label, request) in requests {
        println!("=== {label} ===");
        println!("{}", request.trim());
        match mediator.execute_update(request) {
            Ok(outcome) => {
                println!(
                    "--- translated SQL ({} statement(s)):",
                    outcome.statements_executed
                );
                for stmt in &outcome.statements {
                    println!("    {stmt}");
                }
            }
            Err(e) => println!("--- rejected: {e}"),
        }
        println!();
    }

    // Read back through the SPARQL interface.
    println!("=== SELECT — who is in team SEAL? ===");
    let solutions = mediator
        .select("SELECT ?name WHERE { ?x ont:team ex:team5 ; foaf:family_name ?name . }")
        .expect("query succeeds");
    for binding in &solutions.bindings {
        println!("    {}", binding["name"]);
    }

    println!("\n=== RDF view of the whole database (Turtle) ===");
    let graph = mediator
        .read()
        .materialize()
        .expect("materialization succeeds");
    println!("{}", rdf::turtle::write(&graph, mediator.prefixes()));
}
