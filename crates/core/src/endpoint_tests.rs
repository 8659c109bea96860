//! The paper's §6 endpoint contract, request by request, through
//! [`Mediator`]'s one-shot API: an update answers with SQL and a
//! feedback document or is rejected whole; queries, the query cache,
//! scripts, DESCRIBE and CHECK constraints behave as a client sees them.

use crate::error::OntoError;
use crate::Mediator;

mod tests {
    use super::*;
    use crate::testutil::{fixture_db_with_rows, fixture_mediator as mediator};
    use rdf::Term;

    #[test]
    fn full_insert_query_delete_cycle() {
        let m = mediator();
        let outcome = m
            .execute_update(
                "INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; \
                 foaf:firstName \"Harald\" . }",
            )
            .unwrap();
        assert_eq!(outcome.statements_executed, 1);

        let sols = m
            .select("SELECT ?x WHERE { ?x foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols.bindings[0]["x"],
            Term::iri("http://example.org/db/author8")
        );

        m.execute_update("DELETE DATA { ex:author8 foaf:firstName \"Harald\" . }")
            .unwrap();
        let sols = m
            .select("SELECT ?n WHERE { ex:author8 foaf:firstName ?n . }")
            .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn rejected_update_produces_rejection_feedback() {
        let m = mediator();
        let (feedback, result) = m.execute_update_with_feedback(
            "INSERT DATA { ex:author9 foaf:firstName \"No Lastname\" . }",
        );
        assert!(result.is_err());
        assert!(!feedback.is_success());
        let text = feedback.to_turtle();
        assert!(text.contains("MissingRequiredProperty"));
    }

    #[test]
    fn successful_update_produces_confirmation_feedback() {
        let m = mediator();
        let (feedback, result) =
            m.execute_update_with_feedback("INSERT DATA { ex:team9 foaf:name \"T9\" . }");
        assert!(result.is_ok());
        assert!(feedback.is_success());
        assert!(feedback.to_turtle().contains("fb:Confirmation"));
    }

    #[test]
    fn parse_error_is_reported() {
        let m = mediator();
        let err = m.execute_update("INSERT GARBAGE").unwrap_err();
        assert!(matches!(err, OntoError::Parse { .. }));
    }

    #[test]
    fn parse_error_feedback_without_double_parse() {
        let m = mediator();
        let (feedback, result) = m.execute_update_with_feedback("INSERT GARBAGE");
        assert!(matches!(result, Err(OntoError::Parse { .. })));
        assert!(!feedback.is_success());
    }

    #[test]
    fn modify_through_endpoint_is_atomic() {
        let m = mediator();
        let before = m.read().materialize().unwrap();
        // Second binding fails (dangling team) → nothing changes, even
        // though the first binding alone would have succeeded.
        let err = m
            .execute_update(
                "MODIFY DELETE { } INSERT { ?x ont:team ex:team99 . } \
                 WHERE { ?x a foaf:Person . }",
            )
            .unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }));
        assert_eq!(m.read().materialize().unwrap(), before);
    }

    #[test]
    fn query_cache_hits_and_stays_fresh_across_updates() {
        let m = mediator();
        let q = "SELECT ?x WHERE { ?x a foaf:Person . }";
        assert_eq!(m.cached_query_count(), 0);
        assert_eq!(m.select(q).unwrap().len(), 2);
        assert_eq!(m.cached_query_count(), 1);
        // Cached compilation re-executes against fresh data.
        m.execute_update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(m.select(q).unwrap().len(), 3);
        assert_eq!(m.cached_query_count(), 1);
        // ASK goes through the same cache.
        m.read()
            .execute_query("ASK { ?x foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(m.cached_query_count(), 2);
        // Unparseable/uncompilable texts are not cached.
        assert!(m.read().execute_query("SELECT nonsense").is_err());
        assert_eq!(m.cached_query_count(), 2);
    }

    #[test]
    fn ask_through_endpoint() {
        let m = mediator();
        let outcome = m
            .read()
            .execute_query("ASK { ?x foaf:family_name \"Hert\" . }")
            .unwrap();
        assert_eq!(outcome, sparql::QueryOutcome::Boolean(true));
    }

    #[test]
    fn script_executes_multiple_operations() {
        let m = mediator();
        let (outcomes, _) = m
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . } ;\n\
                 DELETE DATA { ex:author8 ont:team ex:team9 . }",
                false,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(m.database().row_count("team").unwrap(), 3);
    }

    #[test]
    fn endpoint_rejects_inconsistent_mapping() {
        let (db, mut mapping) = fixture_db_with_rows();
        mapping.tables[0].table_name = "ghost".into();
        assert!(Mediator::new(db, mapping).is_err());
    }

    #[test]
    fn materialization_tracks_updates() {
        let m = mediator();
        let before = m.read().materialize().unwrap().len();
        m.execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" ; ont:teamCode \"T\" . }")
            .unwrap();
        let after = m.read().materialize().unwrap().len();
        assert_eq!(after, before + 3); // type + name + code
    }

    #[test]
    fn update_equivalence_with_native_store() {
        // The paper's core semantic claim, end to end: updating through
        // OntoAccess then materializing equals materializing then
        // updating a native triple store.
        // Note: creating a row *entails* its rdf:type triple in the
        // relational view, so exact commutation requires the request to
        // assert the type explicitly (the conceptual gap of §3).
        let m = mediator();
        let mut native = m.read().materialize().unwrap();
        let updates = [
            "INSERT DATA { ex:team9 a foaf:Group ; foaf:name \"T9\" . }",
            "INSERT DATA { ex:author8 a foaf:Person ; foaf:family_name \"Gall\" ; ont:team ex:team9 . }",
            "DELETE DATA { ex:author6 foaf:title \"Mr\" . }",
            "MODIFY DELETE { ?x foaf:mbox ?m . } \
             INSERT { ?x foaf:mbox <mailto:new@uzh.ch> . } \
             WHERE { ?x foaf:family_name \"Hert\" ; foaf:mbox ?m . }",
        ];
        for update in updates {
            m.execute_update(update).unwrap();
            let op = sparql::parse_update_with_prefixes(update, m.prefixes().clone()).unwrap();
            sparql::apply(&mut native, &op).unwrap();
            assert_eq!(
                m.read().materialize().unwrap(),
                native,
                "divergence after: {update}"
            );
        }
    }
}

mod check_constraint_tests {
    use super::*;
    use r3m::ConstraintInfo;
    use rel::{Column, Schema, SqlType, Table};

    // A schema with a CHECK on publication.year, plus a mapping that
    // records it — exercising the §8 "assertions" extension end to end.
    fn mediator_with_check() -> Mediator {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("publication")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("title", SqlType::Varchar).not_null())
                    .column(Column::new("year", SqlType::Integer))
                    .primary_key(&["id"])
                    .check("year_range", "year >= 1900 AND year <= 2100")
                    .build(),
            )
            .unwrap();
        let mut mapping = crate::usecase::mapping();
        mapping.tables.retain(|t| t.table_name == "publication");
        mapping.link_tables.clear();
        let publication = &mut mapping.tables[0];
        publication
            .attributes
            .retain(|a| ["id", "title", "year"].contains(&a.attribute_name.as_str()));
        publication
            .attributes
            .iter_mut()
            .find(|a| a.attribute_name == "year")
            .unwrap()
            .constraints = vec![ConstraintInfo::Check {
            name: "year_range".into(),
            predicate: "year >= 1900 AND year <= 2100".into(),
        }];
        // year is nullable in this cut-down schema.
        Mediator::new(rel::Database::new(schema).unwrap(), mapping).unwrap()
    }

    #[test]
    fn check_violation_is_rejected_with_feedback() {
        let m = mediator_with_check();
        m.execute_update("INSERT DATA { ex:pub1 dc:title \"ok\" ; ont:pubYear \"2009\" . }")
            .unwrap();
        let (feedback, result) = m.execute_update_with_feedback(
            "INSERT DATA { ex:pub2 dc:title \"bad\" ; ont:pubYear \"1492\" . }",
        );
        let err = result.unwrap_err();
        assert!(matches!(
            err,
            OntoError::Database(rel::RelError::CheckViolation { ref name, .. })
                if name == "year_range"
        ));
        assert!(feedback.to_turtle().contains("DatabaseError"));
        // Atomicity: the violating row is absent.
        assert_eq!(m.database().row_count("publication").unwrap(), 1);
    }

    #[test]
    fn check_violation_on_update_path() {
        let m = mediator_with_check();
        m.execute_update("INSERT DATA { ex:pub1 dc:title \"ok\" ; ont:pubYear \"2000\" . }")
            .unwrap();
        let err = m
            .execute_update(
                "MODIFY DELETE { ex:pub1 ont:pubYear ?y . } \
                 INSERT { ex:pub1 ont:pubYear \"9999\" . } \
                 WHERE { ex:pub1 ont:pubYear ?y . }",
            )
            .unwrap_err();
        assert!(matches!(
            err,
            OntoError::Database(rel::RelError::CheckViolation { .. })
        ));
    }
}

mod describe_tests {
    use super::*;
    use crate::testutil::fixture_mediator as mediator;
    use rdf::namespace::{dc, foaf, rdf_type};
    use rdf::Term;

    #[test]
    fn describe_author_includes_attributes_and_links() {
        let m = mediator();
        let uri = rdf::Iri::parse("http://example.org/db/author6").unwrap();
        let g = m.read().describe(&uri).unwrap();
        let author6 = Term::Iri(uri);
        assert_eq!(
            g.object(&author6, &rdf_type()),
            Some(Term::Iri(foaf::Person()))
        );
        assert_eq!(
            g.object(&author6, &foaf::family_name()),
            Some(Term::plain("Hert"))
        );
        // Link triple with author6 in object position.
        assert!(g.contains(&rdf::Triple::new(
            Term::iri("http://example.org/db/pub1"),
            dc::creator(),
            author6,
        )));
        // But not the whole database.
        assert!(g
            .triples_for_subject(&Term::iri("http://example.org/db/team4"))
            .is_empty());
    }

    #[test]
    fn describe_publication_includes_creator_links_as_subject() {
        let m = mediator();
        let uri = rdf::Iri::parse("http://example.org/db/pub1").unwrap();
        let g = m.read().describe(&uri).unwrap();
        assert!(g.contains(&rdf::Triple::new(
            Term::Iri(uri),
            dc::creator(),
            Term::iri("http://example.org/db/author6"),
        )));
    }

    #[test]
    fn describe_absent_row_is_empty() {
        let m = mediator();
        let uri = rdf::Iri::parse("http://example.org/db/author999").unwrap();
        assert!(m.read().describe(&uri).unwrap().is_empty());
    }

    #[test]
    fn describe_unmapped_uri_is_error() {
        let m = mediator();
        let uri = rdf::Iri::parse("http://example.org/db/wizard1").unwrap();
        assert!(matches!(
            m.read().describe(&uri),
            Err(OntoError::UnknownSubject { .. })
        ));
    }
}
