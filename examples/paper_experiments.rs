//! Regenerate every figure, table, and listing of the paper's
//! evaluation, printing paper-expected vs. generated output side by
//! side. `tests/paper_listings.rs` asserts the same listings.
//!
//! Run with: `cargo run --release --example paper_experiments [-- FILTER]`
//! where FILTER is an optional experiment id (`fig1`, `fig2`, `table1`,
//! `mapping`, `l9`, `l13`, `l15`, `l17`, `l11`, `branches`). Without a
//! filter all experiments run.

use sparql_update_rdb::fixtures;
use sparql_update_rdb::ontoaccess::Mediator;
use sparql_update_rdb::r3m;
use sparql_update_rdb::rdf;
use sparql_update_rdb::rdf::namespace::{rdf_type, PrefixMap};
use sparql_update_rdb::rdf::Term;

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let want = |id: &str| filter.as_deref().is_none_or(|f| f == id);

    if want("fig1") {
        figure_1();
    }
    if want("fig2") {
        figure_2();
    }
    if want("table1") {
        table_1();
    }
    if want("mapping") {
        mapping_listings();
    }
    if want("l9") {
        listing_9();
    }
    if want("l13") {
        listing_13();
    }
    if want("l15") {
        listing_15();
    }
    if want("l17") {
        listing_17();
    }
    if want("l11") {
        listing_11();
    }
    if want("branches") {
        state_dependent_branches();
    }
}

fn heading(id: &str, title: &str) {
    println!("\n================================================================");
    println!("[{id}] {title}");
    println!("================================================================");
}

fn run_and_print(mediator: &Mediator, request: &str) -> Vec<String> {
    println!("-- request:");
    for line in request.trim().lines() {
        println!("   {}", line.trim());
    }
    match mediator.execute_update(request) {
        Ok(outcome) => {
            println!(
                "-- generated SQL ({} statement(s)):",
                outcome.statements_executed
            );
            let rendered: Vec<String> = outcome.statements.iter().map(|s| s.to_string()).collect();
            for stmt in &rendered {
                println!("   {stmt}");
            }
            if let Some(report) = &outcome.modify {
                println!("-- Algorithm 2 internals:");
                println!("   SELECT: {}", report.select_sql);
                println!("   bindings: {}", report.bindings);
                for t in &report.optimized_away {
                    println!("   optimized-away DELETE DATA: {t}");
                }
                for t in &report.insert_data {
                    println!("   INSERT DATA: {t}");
                }
            }
            rendered
        }
        Err(e) => {
            println!("-- rejected: {e}");
            Vec::new()
        }
    }
}

/// Figure 1 — the relational schema, printed as DDL.
fn figure_1() {
    heading("fig1", "Figure 1: RDB schema of the publication use case");
    println!("{}", fixtures::schema());
    println!(
        "(reconciliations: pubtype.type is VARCHAR per Listing 16; author \
         column order follows Listing 10; publication_author.id is \
         AUTO_INCREMENT so Listing 16's id-less insert succeeds)"
    );
}

/// Figure 2 — the domain ontology, grouped per class.
fn figure_2() {
    heading("fig2", "Figure 2: domain ontology (FOAF + DC + ONT)");
    let ontology = fixtures::ontology();
    let prefixes = PrefixMap::common();
    use rdf::namespace::{owl, rdfs};
    let classes = ontology.subjects_with(&rdf_type(), &Term::Iri(owl::Class()));
    for class in classes {
        let class_iri = class.as_iri().expect("classes are IRIs");
        println!("class {}", rdf::turtle::render_iri(class_iri, &prefixes));
        for prop in ontology.subjects_with(&rdfs::domain(), &class) {
            let prop_iri = prop.as_iri().expect("properties are IRIs");
            let range = ontology
                .object(&prop, &rdfs::range())
                .expect("every property has a range");
            let kind = ontology
                .object(&prop, &rdf_type())
                .expect("every property is typed");
            let kind = match kind.as_iri() {
                Some(iri) if iri == &owl::ObjectProperty() => "object",
                _ => "data",
            };
            println!(
                "    {:<22} → {:<18} ({kind})",
                rdf::turtle::render_iri(prop_iri, &prefixes),
                rdf::turtle::render_term(&range, &prefixes),
            );
        }
        println!();
    }
}

/// Table 1 — regenerate the mapping overview from the live mapping.
fn table_1() {
    heading("table1", "Table 1: use case mapping overview");
    let mapping = fixtures::mapping();
    let prefixes = PrefixMap::common();
    println!("{:<44} {:<12} → property", "table → class", "attribute");
    println!("{}", "-".repeat(76));
    for table in &mapping.tables {
        let class = rdf::turtle::render_iri(&table.class, &prefixes);
        let mut first = true;
        for attr in &table.attributes {
            let Some(p) = &attr.property else { continue };
            let left = if first {
                format!("{} → {}", table.table_name, class)
            } else {
                String::new()
            };
            first = false;
            println!(
                "{:<44} {:<12} → {}",
                left,
                attr.attribute_name,
                rdf::turtle::render_iri(p.property(), &prefixes)
            );
        }
        if first {
            println!("{} → {}", table.table_name, class);
        }
    }
    for link in &mapping.link_tables {
        println!(
            "{:<44} {:<12} → {}",
            format!("{} → –", link.table_name),
            "–",
            rdf::turtle::render_iri(&link.property, &prefixes)
        );
    }
}

/// Listings 1-5 — the mapping's own RDF representation.
fn mapping_listings() {
    heading("mapping", "Listings 1-5: the R3M mapping document (Turtle)");
    let text = r3m::to_turtle(&fixtures::mapping());
    println!("{text}");
    // Round-trip sanity.
    let reloaded = r3m::from_turtle(&text).expect("document reloads");
    let mut original = fixtures::mapping();
    original.normalize();
    assert_eq!(reloaded, original, "serialized mapping round-trips");
    println!("(round-trip verified: parse(serialize(mapping)) == mapping)");
}

fn listing_9() {
    heading("l9", "Listing 9 → Listing 10: INSERT DATA for author6");
    let mediator = fixtures::mediator();
    mediator
        .execute_update(
            r#"INSERT DATA { ex:team5 foaf:name "Software Engineering" ; ont:teamCode "SEAL" . }"#,
        )
        .expect("seed team 5");
    let generated = run_and_print(
        &mediator,
        r#"INSERT DATA {
             ex:author6 foaf:title "Mr" ;
               foaf:firstName "Matthias" ;
               foaf:family_name "Hert" ;
               foaf:mbox <mailto:hert@ifi.uzh.ch> ;
               ont:team ex:team5 .
           }"#,
    );
    let expected = "INSERT INTO author (id, title, firstname, lastname, email, team) \
                    VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);";
    println!("-- paper (Listing 10):\n   {expected}");
    println!("-- match: {}", generated == vec![expected.to_owned()]);
}

fn listing_13() {
    heading("l13", "Listing 13 → Listing 14: INSERT DATA for team4");
    let mediator = fixtures::mediator();
    let generated = run_and_print(
        &mediator,
        r#"INSERT DATA {
             ex:team4 foaf:name "Database Technology" ;
               ont:teamCode "DBTG" .
           }"#,
    );
    let expected = "INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG');";
    println!("-- paper (Listing 14):\n   {expected}");
    println!("-- match: {}", generated == vec![expected.to_owned()]);
}

fn listing_15() {
    heading(
        "l15",
        "Listing 15 → Listing 16: complete dataset, FK-sorted",
    );
    let mediator = fixtures::mediator();
    let generated = run_and_print(
        &mediator,
        r#"INSERT DATA {
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
           }"#,
    );
    println!("-- paper (Listing 16) shows the same 6 statements; any order");
    println!("   satisfying the FK precedences is correct. checking precedences:");
    let pos = |needle: &str| generated.iter().position(|s| s.starts_with(needle));
    let checks = [
        (
            "team before author",
            "INSERT INTO team",
            "INSERT INTO author",
        ),
        (
            "pubtype before publication",
            "INSERT INTO pubtype",
            "INSERT INTO publication ",
        ),
        (
            "publisher before publication",
            "INSERT INTO publisher",
            "INSERT INTO publication ",
        ),
        (
            "publication before link",
            "INSERT INTO publication ",
            "INSERT INTO publication_author",
        ),
        (
            "author before link",
            "INSERT INTO author",
            "INSERT INTO publication_author",
        ),
    ];
    for (label, a, b) in checks {
        let ok = match (pos(a), pos(b)) {
            (Some(x), Some(y)) => x < y,
            _ => false,
        };
        println!("   {label}: {ok}");
    }
}

fn listing_17() {
    heading(
        "l17",
        "Listing 17 → Listing 18: DELETE DATA removing the email",
    );
    let mediator = fixtures::mediator_with_sample_data();
    let generated = run_and_print(
        &mediator,
        r#"DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }"#,
    );
    let expected = "UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';";
    println!("-- paper (Listing 18):\n   {expected}");
    println!("-- match: {}", generated == vec![expected.to_owned()]);
}

fn listing_11() {
    heading("l11", "Listing 11 → Listing 12: MODIFY replacing the email");
    let mediator = fixtures::mediator_with_sample_data();
    run_and_print(
        &mediator,
        r#"MODIFY
           DELETE { ?x foaf:mbox ?mbox . }
           INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
           WHERE {
             ?x rdf:type foaf:Person ;
                foaf:firstName "Matthias" ;
                foaf:family_name "Hert" ;
                foaf:mbox ?mbox .
           }"#,
    );
    println!(
        "-- paper (Listing 12): one DELETE DATA + one INSERT DATA for the\n\
         \x20  binding (x = ex:author6, mbox = <mailto:hert@ifi.uzh.ch>);\n\
         \x20  the delete is then optimized away per §5.2."
    );
}

fn state_dependent_branches() {
    heading(
        "branches",
        "§5.1 state-dependent translation: INSERT→UPDATE and DELETE→DELETE branches",
    );
    let mediator = fixtures::mediator();
    println!("\n(a) first INSERT DATA creates the row:");
    run_and_print(
        &mediator,
        r#"INSERT DATA { ex:author9 foaf:family_name "Gall" . }"#,
    );
    println!("\n(b) second INSERT DATA on the same subject becomes UPDATE:");
    run_and_print(
        &mediator,
        r#"INSERT DATA { ex:author9 foaf:firstName "Harald" ;
             foaf:mbox <mailto:gall@ifi.uzh.ch> . }"#,
    );
    println!("\n(c) DELETE DATA of a subset becomes UPDATE … = NULL:");
    run_and_print(
        &mediator,
        r#"DELETE DATA { ex:author9 foaf:mbox <mailto:gall@ifi.uzh.ch> . }"#,
    );
    println!("\n(d) DELETE DATA of all remaining data becomes DELETE FROM:");
    run_and_print(
        &mediator,
        r#"DELETE DATA { ex:author9 a foaf:Person ;
             foaf:family_name "Gall" ; foaf:firstName "Harald" . }"#,
    );
}
