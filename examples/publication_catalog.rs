//! Publication catalog scenario: the enterprise-integration story the
//! paper's introduction motivates. A Semantic Web client maintains a
//! publication catalog — complete-dataset inserts spanning all six
//! tables (Listing 15 → Listing 16, with FK-ordered SQL), cross-entity
//! queries, and a MODIFY-based correction — while the data stays in the
//! relational database for existing SQL applications.
//!
//! Run with: `cargo run --example publication_catalog`

use sparql_update_rdb::fixtures;

fn main() {
    let mediator = fixtures::mediator();

    // One atomic INSERT DATA covering publication + author + team +
    // pubtype + publisher + authorship (the paper's Listing 15).
    println!("=== Complete dataset insert (Listing 15 shape) ===");
    let listing_15 = r#"INSERT DATA {
        ex:pub12 dc:title "Relational Databases as Semantic Web Endpoints" ;
          ont:pubYear "2009" ;
          ont:pubType ex:pubtype4 ;
          dc:publisher ex:publisher3 ;
          dc:creator ex:author6 .

        ex:author6 foaf:title "Mr" ;
          foaf:firstName "Matthias" ;
          foaf:family_name "Hert" ;
          foaf:mbox <mailto:hert@ifi.uzh.ch> ;
          ont:team ex:team5 .

        ex:team5 foaf:name "Software Engineering" ;
          ont:teamCode "SEAL" .

        ex:pubtype4 ont:type "inproceedings" .

        ex:publisher3 ont:name "Springer" .
    }"#;
    let outcome = mediator.execute_update(listing_15).expect("valid insert");
    println!(
        "executed {} SQL statements, FK-sorted:",
        outcome.statements_executed
    );
    for stmt in &outcome.statements {
        println!("    {stmt}");
    }

    // Grow the catalog with generated entries.
    for base in [20, 21, 22] {
        mediator
            .execute_update(&fixtures::workload::insert_complete_dataset(base))
            .expect("generated dataset inserts are valid");
    }
    let db = mediator.database();
    println!(
        "\ncatalog now holds {} publications, {} authors, {} authorship links",
        db.row_count("publication").unwrap(),
        db.row_count("author").unwrap(),
        db.row_count("publication_author").unwrap(),
    );

    // Cross-entity query: publications with their creators' last names.
    println!("\n=== Catalog listing (publication ↔ creator join) ===");
    let solutions = mediator
        .select(
            "SELECT ?title ?last WHERE { \
               ?p dc:title ?title ; dc:creator ?a . \
               ?a foaf:family_name ?last . }",
        )
        .expect("join query succeeds");
    for binding in &solutions.bindings {
        println!("    {} — {}", binding["title"], binding["last"]);
    }

    // A correction via MODIFY: Springer was wrong for pub20; re-point it
    // at publisher 21 (created by the generated dataset for base 21).
    println!("\n=== MODIFY — move pub20 to a different publisher ===");
    let outcome = mediator
        .execute_update(
            r#"MODIFY
               DELETE { ex:pub20 dc:publisher ?pub . }
               INSERT { ex:pub20 dc:publisher ex:publisher21 . }
               WHERE  { ex:pub20 dc:publisher ?pub . }"#,
        )
        .expect("modify succeeds");
    let report = outcome.modify.expect("MODIFY report");
    println!("WHERE clause translated to: {}", report.select_sql);
    println!("bindings: {}", report.bindings);
    for stmt in &outcome.statements {
        println!("    {stmt}");
    }

    // Year-filtered query.
    println!("\n=== Publications since 2009 ===");
    let solutions = mediator
        .select("SELECT ?p ?y WHERE { ?p ont:pubYear ?y . FILTER (?y >= 2009) }")
        .expect("filter query succeeds");
    println!("    {} result(s)", solutions.len());
}
