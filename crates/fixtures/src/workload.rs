//! SPARQL/Update and SPARQL query workload generation.
//!
//! Produces request *texts* (what a client would POST to the endpoint),
//! parameterized and deterministic per seed — the input side of the
//! differential tests and the examples.

use crate::data::ID_BASE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PREFIXES: &str = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                        PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                        PREFIX dc: <http://purl.org/dc/elements/1.1/>\n\
                        PREFIX ont: <http://example.org/ontology#>\n\
                        PREFIX ex: <http://example.org/db/>\n";

/// Prepend the use case prefixes to a request body.
pub fn with_prefixes(body: &str) -> String {
    format!("{PREFIXES}{body}")
}

/// An `INSERT DATA` creating one new author with `extra_properties`
/// optional attributes (0..=4: title, firstname, email, team) — scales
/// the per-subject triple count of Algorithm 1.
pub fn insert_author(id: i64, extra_properties: usize, team: Option<i64>) -> String {
    let mut lines = vec![format!("ex:author{id} foaf:family_name \"Last{id}\"")];
    if extra_properties >= 1 {
        lines.push(format!("    foaf:firstName \"First{id}\""));
    }
    if extra_properties >= 2 {
        lines.push("    foaf:title \"Dr\"".to_string());
    }
    if extra_properties >= 3 {
        lines.push(format!("    foaf:mbox <mailto:author{id}@example.org>"));
    }
    if extra_properties >= 4 {
        if let Some(team) = team {
            lines.push(format!("    ont:team ex:team{team}"));
        }
    }
    with_prefixes(&format!("INSERT DATA {{\n{} .\n}}", lines.join(" ;\n")))
}

/// The paper's Listing 15 shape at parameterized id offsets: one
/// operation inserting a complete dataset (team, pubtype, publisher,
/// author, publication, authorship) whose statements must be FK-sorted.
pub fn insert_complete_dataset(base: i64) -> String {
    with_prefixes(&format!(
        "INSERT DATA {{\n\
           ex:pub{base} dc:title \"Publication {base}\" ;\n\
             ont:pubYear \"2009\" ;\n\
             ont:pubType ex:pubtype{base} ;\n\
             dc:publisher ex:publisher{base} ;\n\
             dc:creator ex:author{base} .\n\
           ex:author{base} foaf:title \"Mr\" ;\n\
             foaf:firstName \"First{base}\" ;\n\
             foaf:family_name \"Last{base}\" ;\n\
             foaf:mbox <mailto:a{base}@example.org> ;\n\
             ont:team ex:team{base} .\n\
           ex:team{base} foaf:name \"Team {base}\" ;\n\
             ont:teamCode \"T{base}\" .\n\
           ex:pubtype{base} ont:type \"inproceedings\" .\n\
           ex:publisher{base} ont:name \"Publisher {base}\" .\n\
         }}"
    ))
}

/// A `DELETE DATA` removing one author's email (Listing 17 shape).
pub fn delete_author_email(id: i64) -> String {
    with_prefixes(&format!(
        "DELETE DATA {{ ex:author{id} foaf:mbox <mailto:author{id}@example.org> . }}"
    ))
}

/// A `MODIFY` replacing one author's email (Listing 11 shape).
pub fn modify_author_email(id: i64) -> String {
    with_prefixes(&format!(
        "MODIFY\n\
         DELETE {{ ?x foaf:mbox ?mbox . }}\n\
         INSERT {{ ?x foaf:mbox <mailto:new{id}@example.org> . }}\n\
         WHERE {{\n\
           ?x rdf:type foaf:Person ;\n\
              foaf:firstName \"First{id}\" ;\n\
              foaf:family_name \"Last{id}\" ;\n\
              foaf:mbox ?mbox .\n\
         }}"
    ))
}

/// A `MODIFY` whose WHERE clause matches *every* author of a team —
/// scales the binding count of Algorithm 2.
pub fn modify_team_members(team: i64, new_title: &str) -> String {
    with_prefixes(&format!(
        "MODIFY\n\
         DELETE {{ ?x foaf:title ?t . }}\n\
         INSERT {{ ?x foaf:title \"{new_title}\" . }}\n\
         WHERE {{ ?x ont:team ex:team{team} ; foaf:title ?t . }}"
    ))
}

/// A SELECT joining authors to teams (two-table join query).
pub fn select_authors_with_team() -> String {
    with_prefixes(
        "SELECT ?x ?code WHERE { ?x a foaf:Person ; ont:team ?t . ?t ont:teamCode ?code . }",
    )
}

/// A SELECT over the link table (three-table join query).
pub fn select_publications_with_authors() -> String {
    with_prefixes("SELECT ?p ?last WHERE { ?p dc:creator ?a . ?a foaf:family_name ?last . }")
}

/// A SELECT with a numeric FILTER.
pub fn select_recent_publications(min_year: i64) -> String {
    with_prefixes(&format!(
        "SELECT ?p ?y WHERE {{ ?p ont:pubYear ?y . FILTER (?y >= {min_year}) }}"
    ))
}

/// A randomized mixed update workload over the id space of a database
/// populated by [`crate::data::populate`]: ~60% inserts of new authors,
/// ~20% deletes of generated emails, ~20% email MODIFYs. Deterministic
/// per seed; inserted ids do not collide with generated ones.
pub fn mixed_updates(count: usize, existing_authors: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_new_id = 1_000_000; // far above generator ids
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let roll: f64 = rng.gen();
        if roll < 0.6 || existing_authors == 0 {
            let id = next_new_id;
            next_new_id += 1;
            out.push(insert_author(id, rng.gen_range(0..4), None));
        } else if roll < 0.8 {
            let id = ID_BASE + rng.gen_range(0..existing_authors) as i64;
            out.push(delete_author_email(id));
        } else {
            let id = ID_BASE + rng.gen_range(0..existing_authors) as i64;
            out.push(modify_author_email(id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::namespace::PrefixMap;

    fn parses(text: &str) {
        sparql::parse_update_with_prefixes(text, PrefixMap::common())
            .unwrap_or_else(|e| panic!("workload text must parse: {e}\n{text}"));
    }

    #[test]
    fn generated_updates_parse() {
        parses(&insert_author(1, 4, Some(2)));
        parses(&insert_author(1, 0, None));
        parses(&insert_complete_dataset(500));
        parses(&delete_author_email(3));
        parses(&modify_author_email(3));
        parses(&modify_team_members(2, "Prof"));
    }

    #[test]
    fn generated_queries_parse() {
        for q in [
            select_authors_with_team(),
            select_publications_with_authors(),
            select_recent_publications(2000),
        ] {
            sparql::parse_query_with_prefixes(&q, PrefixMap::common()).unwrap();
        }
    }

    #[test]
    fn mixed_workload_is_deterministic_and_parses() {
        let w1 = mixed_updates(50, 100, 9);
        let w2 = mixed_updates(50, 100, 9);
        assert_eq!(w1, w2);
        for u in &w1 {
            parses(u);
        }
    }

    #[test]
    fn mixed_workload_executes_against_populated_endpoint() {
        let mut db = crate::database();
        let spec = crate::data::Spec {
            authors: 20,
            ..crate::data::Spec::scaled(20)
        };
        crate::data::populate(&mut db, &spec, 1);
        let mediator = ontoaccess::Mediator::new(db, crate::mapping()).unwrap();
        let mut ok = 0;
        let mut rejected = 0;
        for update in mixed_updates(30, 20, 2) {
            match mediator.execute_update(&update) {
                Ok(_) => ok += 1,
                // Deletes/modifies may target authors without email —
                // legitimate rejections, still exercising the checker.
                Err(_) => rejected += 1,
            }
        }
        assert!(
            ok > 0,
            "some updates must succeed (got {rejected} rejections)"
        );
    }
}
