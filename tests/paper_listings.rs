//! End-to-end reproduction of every worked example in the paper
//! (Listings 9-18): each SPARQL/Update request is sent through the full
//! mediator stack and the generated SQL is compared against the paper's
//! listings.

use sparql_update_rdb::fixtures;
use sparql_update_rdb::ontoaccess::Mediator;

fn sql(outcome: &sparql_update_rdb::ontoaccess::UpdateOutcome) -> Vec<String> {
    outcome.statements.iter().map(|s| s.to_string()).collect()
}

/// A mediator with team 5 present (what Listings 9/15 assume) but no
/// author 6 yet.
fn teams_only_mediator() -> Mediator {
    let mediator = fixtures::mediator();
    mediator
        .execute_update(
            r#"INSERT DATA { ex:team5 foaf:name "Software Engineering" ; ont:teamCode "SEAL" . }"#,
        )
        .expect("seeding team 5");
    mediator
}

#[test]
fn listing_9_to_listing_10() {
    let mediator = teams_only_mediator();
    let outcome = mediator
        .execute_update(
            r#"INSERT DATA {
                 ex:author6 foaf:title "Mr" ;
                   foaf:firstName "Matthias" ;
                   foaf:family_name "Hert" ;
                   foaf:mbox <mailto:hert@ifi.uzh.ch> ;
                   ont:team ex:team5 .
               }"#,
        )
        .expect("Listing 9 is valid");
    assert_eq!(
        sql(&outcome),
        vec![
            "INSERT INTO author (id, title, firstname, lastname, email, team) \
             VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);"
        ]
    );
}

#[test]
fn listing_13_to_listing_14() {
    let mediator = fixtures::mediator();
    let outcome = mediator
        .execute_update(
            r#"INSERT DATA {
                 ex:team4 foaf:name "Database Technology" ;
                   ont:teamCode "DBTG" .
               }"#,
        )
        .expect("Listing 13 is valid");
    assert_eq!(
        sql(&outcome),
        vec!["INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG');"]
    );
}

#[test]
fn listing_15_to_listing_16() {
    // The complete dataset: six INSERTs whose execution order must
    // respect every FK edge. The paper's Listing 16 shows one valid
    // topological order; we assert the same statements and the same
    // precedence constraints.
    let mediator = fixtures::mediator();
    let outcome = mediator
        .execute_update(
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
        )
        .expect("Listing 15 is valid");
    let statements = sql(&outcome);
    assert_eq!(statements.len(), 6);

    // Same statements as Listing 16 (as a set).
    let expected = [
        "INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');",
        "INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');",
        "INSERT INTO publisher (id, name) VALUES (3, 'Springer');",
        "INSERT INTO publication (id, title, year, type, publisher) \
         VALUES (12, 'Relational Databases as Semantic Web Endpoints', 2009, 4, 3);",
        "INSERT INTO author (id, title, firstname, lastname, email, team) \
         VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);",
        "INSERT INTO publication_author (publication, author) VALUES (12, 6);",
    ];
    for e in expected {
        assert!(statements.contains(&e.to_owned()), "missing: {e}");
    }

    // Precedence constraints of the FK sort.
    let pos = |needle: &str| {
        statements
            .iter()
            .position(|s| s.starts_with(needle))
            .unwrap_or_else(|| panic!("no statement starting with {needle}"))
    };
    assert!(pos("INSERT INTO team") < pos("INSERT INTO author"));
    assert!(pos("INSERT INTO pubtype") < pos("INSERT INTO publication"));
    assert!(pos("INSERT INTO publisher") < pos("INSERT INTO publication"));
    assert!(pos("INSERT INTO publication ") < pos("INSERT INTO publication_author"));
    assert!(pos("INSERT INTO author") < pos("INSERT INTO publication_author"));

    // And the data actually landed.
    assert_eq!(mediator.database().row_count("publication").unwrap(), 1);
    assert_eq!(
        mediator.database().row_count("publication_author").unwrap(),
        1
    );
}

#[test]
fn listing_17_to_listing_18() {
    let mediator = fixtures::mediator_with_sample_data();
    let outcome = mediator
        .execute_update(r#"DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }"#)
        .expect("Listing 17 is valid");
    assert_eq!(
        sql(&outcome),
        vec!["UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"]
    );
}

#[test]
fn listing_11_to_listing_12() {
    // MODIFY replacing the email address; Algorithm 2 produces the
    // Listing 12 intermediate operations (here surfaced in the report:
    // the delete side is recognized as redundant by the §5.2
    // optimization) and executes the corresponding SQL.
    let mediator = fixtures::mediator_with_sample_data();
    let outcome = mediator
        .execute_update(
            r#"MODIFY
               DELETE { ?x foaf:mbox ?mbox . }
               INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
               WHERE {
                 ?x rdf:type foaf:Person ;
                    foaf:firstName "Matthias" ;
                    foaf:family_name "Hert" ;
                    foaf:mbox ?mbox .
               }"#,
        )
        .expect("Listing 11 is valid");
    let report = outcome.modify.as_ref().expect("MODIFY report");
    assert_eq!(report.bindings, 1);

    // Listing 12's DELETE DATA triple (optimized away) …
    assert_eq!(report.optimized_away.len(), 1);
    let deleted = &report.optimized_away[0];
    assert_eq!(
        deleted.to_string(),
        "<http://example.org/db/author6> <http://xmlns.com/foaf/0.1/mbox> \
         <mailto:hert@ifi.uzh.ch> ."
    );
    // … and its INSERT DATA counterpart.
    assert_eq!(report.insert_data.len(), 1);
    assert_eq!(
        report.insert_data[0].to_string(),
        "<http://example.org/db/author6> <http://xmlns.com/foaf/0.1/mbox> \
         <mailto:hert@example.com> ."
    );
    assert_eq!(
        sql(&outcome),
        vec!["UPDATE author SET email = 'hert@example.com' WHERE id = 6;"]
    );
}

#[test]
fn second_insert_becomes_update_as_in_section_5_1() {
    let mediator = fixtures::mediator();
    let first = mediator
        .execute_update(r#"INSERT DATA { ex:author9 foaf:family_name "Gall" . }"#)
        .unwrap();
    assert!(sql(&first)[0].starts_with("INSERT INTO author"));
    let second = mediator
        .execute_update(
            r#"INSERT DATA { ex:author9 foaf:firstName "Harald" ;
                 foaf:mbox <mailto:gall@ifi.uzh.ch> . }"#,
        )
        .unwrap();
    assert_eq!(
        sql(&second),
        vec!["UPDATE author SET firstname = 'Harald', email = 'gall@ifi.uzh.ch' WHERE id = 9;"]
    );
}

#[test]
fn delete_of_all_remaining_data_becomes_row_delete_as_in_section_5_1() {
    let mediator = fixtures::mediator();
    mediator
        .execute_update(r#"INSERT DATA { ex:team4 foaf:name "DB" ; ont:teamCode "DBTG" . }"#)
        .unwrap();
    let outcome = mediator
        .execute_update(
            r#"DELETE DATA { ex:team4 a foaf:Group ; foaf:name "DB" ; ont:teamCode "DBTG" . }"#,
        )
        .unwrap();
    assert_eq!(sql(&outcome), vec!["DELETE FROM team WHERE id = 4;"]);
    assert_eq!(mediator.database().row_count("team").unwrap(), 0);
}

#[test]
fn table_1_mapping_overview_regenerates() {
    // Table 1: every table → class and attribute → property pair.
    let mapping = fixtures::mapping();
    let rows: Vec<(String, String)> = mapping
        .tables
        .iter()
        .map(|t| (t.table_name.clone(), t.class.local_name().to_owned()))
        .collect();
    assert!(rows.contains(&("publication".into(), "Document".into())));
    assert!(rows.contains(&("publisher".into(), "Publisher".into())));
    assert!(rows.contains(&("pubtype".into(), "PubType".into())));
    assert!(rows.contains(&("author".into(), "Person".into())));
    assert!(rows.contains(&("team".into(), "Group".into())));
    assert_eq!(mapping.link_tables[0].property.local_name(), "creator");
}
