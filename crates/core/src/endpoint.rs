//! The OntoAccess mediator facade (paper §6) — compatibility wrapper.
//!
//! The paper's prototype is an HTTP endpoint: requests are parsed,
//! translated, executed, and answered with an RDF feedback document.
//! The concurrent core of that endpoint lives in [`crate::mediator`]:
//! a shared [`Mediator`] handing out [`crate::mediator::ReadSession`]s
//! and [`crate::mediator::WriteTxn`]s. This type is the original
//! single-owner facade, kept so existing callers migrate mechanically —
//! every method delegates to a privately held [`Mediator`]. New code
//! (and anything that serves concurrent traffic) should construct a
//! [`Mediator`] directly.

use crate::error::OntoResult;
use crate::feedback::Feedback;
use crate::mediator::{DatabaseReadGuard, DatabaseWriteGuard, Mediator};
pub use crate::mediator::{ScriptError, UpdateOutcome};
use r3m::Mapping;
use rdf::namespace::PrefixMap;
use rdf::Graph;
use rel::Database;
use sparql::{Solutions, UpdateOp};

/// The mediator facade: a database + an R3M mapping + the translation
/// machinery, owned by one caller. A thin wrapper over [`Mediator`];
/// use [`Endpoint::mediator`] to share the same state concurrently.
#[derive(Debug)]
pub struct Endpoint {
    mediator: Mediator,
}

impl Endpoint {
    /// Create an endpoint, validating the mapping against the schema.
    pub fn new(db: Database, mapping: Mapping) -> OntoResult<Self> {
        Ok(Endpoint {
            mediator: Mediator::new(db, mapping)?,
        })
    }

    /// Create an endpoint over a durable data directory (see
    /// [`Mediator::open_durable`]): recover the committed state, then
    /// persist every later update through the directory's write-ahead
    /// log. `base` builds the base state and runs only for a directory
    /// without a snapshot ([`dur::Durability::open_with`]); `schema`
    /// reads an existing one. Returns the endpoint and what recovery
    /// found.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        schema: &rel::Schema,
        base: impl FnOnce() -> Database,
        mapping: Mapping,
    ) -> OntoResult<(Self, dur::RecoveryReport)> {
        let opened = dur::Durability::open_with(dir, schema, base)?;
        let mediator = Mediator::with_durability(opened.db, mapping, opened.durability)?;
        Ok((Endpoint { mediator }, opened.report))
    }

    /// The shared mediator behind this endpoint. Clones of the returned
    /// handle (and its read sessions / write transactions) observe the
    /// same database and query cache as this endpoint.
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    /// Consume the endpoint, returning its mediator.
    pub fn into_mediator(self) -> Mediator {
        self.mediator
    }

    /// The underlying database (read access): a pinned snapshot of the
    /// newest published version. Holding the guard never blocks
    /// writers; it simply keeps seeing its pinned state.
    pub fn database(&self) -> DatabaseReadGuard {
        self.mediator.database()
    }

    #[doc(hidden)]
    /// Raw mutable database access, **bypassing the mediator** (no
    /// mapping validation, no translation). Test support only — see
    /// [`Mediator::database_mut_for_tests`].
    pub fn database_mut_for_tests(&mut self) -> DatabaseWriteGuard<'_> {
        self.mediator.database_mut_for_tests()
    }

    /// The mapping.
    pub fn mapping(&self) -> &Mapping {
        self.mediator.mapping()
    }

    /// Prefixes used for parsing requests and rendering output
    /// (the common vocabularies plus `ex:` for the instance namespace).
    pub fn prefixes(&self) -> &PrefixMap {
        self.mediator.prefixes()
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Execute a SPARQL/Update given as text (one transaction).
    pub fn execute_update(&mut self, text: &str) -> OntoResult<UpdateOutcome> {
        self.mediator.execute_update(text)
    }

    /// Execute a parsed SPARQL/Update operation (one transaction).
    pub fn execute_update_op(&mut self, op: &UpdateOp) -> OntoResult<UpdateOutcome> {
        self.mediator.execute_update_op(op)
    }

    /// Execute a SPARQL 1.1 style update request: one or more operations
    /// separated by `;`.
    ///
    /// Each operation is one transaction (the paper's §5.1 atomicity
    /// unit); `atomic_script` additionally makes the *whole request*
    /// all-or-nothing — on any failure earlier operations are undone and
    /// the error reports the failing operation's index.
    pub fn execute_script(
        &mut self,
        text: &str,
        atomic_script: bool,
    ) -> Result<Vec<UpdateOutcome>, ScriptError> {
        self.mediator
            .execute_script(text, atomic_script)
            .map(|(outcomes, _)| outcomes)
    }

    /// Execute an update and convert the result into a feedback document
    /// (what the HTTP endpoint would send back).
    pub fn execute_update_with_feedback(
        &mut self,
        text: &str,
    ) -> (Feedback, OntoResult<UpdateOutcome>) {
        self.mediator.execute_update_with_feedback(text)
    }

    // ------------------------------------------------------------------
    // Queries (read-only: `&self`)
    // ------------------------------------------------------------------

    /// Execute a SPARQL query given as text. Compiled queries are
    /// cached per query text with clock (second-chance) eviction:
    /// repeated requests skip parsing and translation and go straight
    /// to the planner, and hot entries survive capacity pressure from
    /// one-off queries.
    pub fn execute_query(&self, text: &str) -> OntoResult<sparql::QueryOutcome> {
        self.mediator.read().execute_query(text)
    }

    /// Number of compiled queries currently cached.
    pub fn cached_query_count(&self) -> usize {
        self.mediator.cached_query_count()
    }

    /// Whether `text` currently has a cached compilation.
    pub fn is_query_cached(&self, text: &str) -> bool {
        self.mediator.is_query_cached(text)
    }

    /// Set the compiled-query cache capacity (≥ 1). Nothing is evicted
    /// immediately; a cache above the new capacity shrinks to it as
    /// later misses evict.
    pub fn set_query_cache_capacity(&mut self, capacity: usize) {
        self.mediator.set_query_cache_capacity(capacity);
    }

    /// Execute a SELECT given as text.
    pub fn select(&self, text: &str) -> OntoResult<Solutions> {
        self.mediator.select(text)
    }

    /// Materialize the database's full RDF view.
    pub fn materialize(&self) -> OntoResult<Graph> {
        self.mediator.read().materialize()
    }

    /// Describe one instance URI: the triples of its row plus its
    /// link-table triples (in either role). The D2R-style
    /// "dereferenceable URI" read the paper's related work describes
    /// (§2), here over the live database.
    pub fn describe(&self, uri: &rdf::Iri) -> OntoResult<Graph> {
        self.mediator.read().describe(uri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OntoError;
    use crate::testutil::fixture_db_with_rows;
    use rdf::namespace::foaf;
    use rdf::Term;

    fn endpoint() -> Endpoint {
        let (db, mapping) = fixture_db_with_rows();
        Endpoint::new(db, mapping).unwrap()
    }

    #[test]
    fn full_insert_query_delete_cycle() {
        let mut ep = endpoint();
        let outcome = ep
            .execute_update(
                "INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; \
                 foaf:firstName \"Harald\" . }",
            )
            .unwrap();
        assert_eq!(outcome.statements_executed, 1);

        let sols = ep
            .select("SELECT ?x WHERE { ?x foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols.bindings[0]["x"],
            Term::iri("http://example.org/db/author8")
        );

        ep.execute_update("DELETE DATA { ex:author8 foaf:firstName \"Harald\" . }")
            .unwrap();
        let sols = ep
            .select("SELECT ?n WHERE { ex:author8 foaf:firstName ?n . }")
            .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn rejected_update_produces_rejection_feedback() {
        let mut ep = endpoint();
        let (feedback, result) = ep.execute_update_with_feedback(
            "INSERT DATA { ex:author9 foaf:firstName \"No Lastname\" . }",
        );
        assert!(result.is_err());
        assert!(!feedback.is_success());
        let text = feedback.to_turtle();
        assert!(text.contains("MissingRequiredProperty"));
    }

    #[test]
    fn successful_update_produces_confirmation_feedback() {
        let mut ep = endpoint();
        let (feedback, result) =
            ep.execute_update_with_feedback("INSERT DATA { ex:team9 foaf:name \"T9\" . }");
        assert!(result.is_ok());
        assert!(feedback.is_success());
        assert!(feedback.to_turtle().contains("fb:Confirmation"));
    }

    #[test]
    fn parse_error_is_reported() {
        let mut ep = endpoint();
        let err = ep.execute_update("INSERT GARBAGE").unwrap_err();
        assert!(matches!(err, OntoError::Parse { .. }));
    }

    #[test]
    fn parse_error_feedback_without_double_parse() {
        let mut ep = endpoint();
        let (feedback, result) = ep.execute_update_with_feedback("INSERT GARBAGE");
        assert!(matches!(result, Err(OntoError::Parse { .. })));
        assert!(!feedback.is_success());
    }

    #[test]
    fn modify_through_endpoint_is_atomic() {
        let mut ep = endpoint();
        let before = ep.materialize().unwrap();
        // Second binding fails (dangling team) → nothing changes, even
        // though the first binding alone would have succeeded.
        let err = ep
            .execute_update(
                "MODIFY DELETE { } INSERT { ?x ont:team ex:team99 . } \
                 WHERE { ?x a foaf:Person . }",
            )
            .unwrap_err();
        assert!(matches!(err, OntoError::DanglingObject { .. }));
        assert_eq!(ep.materialize().unwrap(), before);
    }

    #[test]
    fn query_cache_hits_and_stays_fresh_across_updates() {
        let mut ep = endpoint();
        let q = "SELECT ?x WHERE { ?x a foaf:Person . }";
        assert_eq!(ep.cached_query_count(), 0);
        assert_eq!(ep.select(q).unwrap().len(), 2);
        assert_eq!(ep.cached_query_count(), 1);
        // Cached compilation re-executes against fresh data.
        ep.execute_update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(ep.select(q).unwrap().len(), 3);
        assert_eq!(ep.cached_query_count(), 1);
        // ASK goes through the same cache.
        ep.execute_query("ASK { ?x foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(ep.cached_query_count(), 2);
        // Unparseable/uncompilable texts are not cached.
        assert!(ep.execute_query("SELECT nonsense").is_err());
        assert_eq!(ep.cached_query_count(), 2);
    }

    #[test]
    fn query_cache_evicts_cold_and_keeps_hot_entries() {
        let mut ep = endpoint();
        ep.set_query_cache_capacity(3);
        let hot = "SELECT ?x WHERE { ?x a foaf:Person . }";
        ep.select(hot).unwrap();
        // Fill the cache with one-off queries while re-touching the hot
        // entry between each, so its referenced bit stays set and the
        // clock always finds a colder victim.
        for year in [2001, 2002, 2003, 2004, 2005] {
            let cold = format!("SELECT ?p WHERE {{ ?p ont:pubYear \"{year}\" . }}");
            ep.select(&cold).unwrap();
            ep.select(hot).unwrap();
        }
        assert!(ep.cached_query_count() <= 3);
        assert!(ep.is_query_cached(hot), "hot entry evicted by the clock");
        // The most recent cold query survived; the oldest did not.
        assert!(ep.is_query_cached("SELECT ?p WHERE { ?p ont:pubYear \"2005\" . }"));
        assert!(!ep.is_query_cached("SELECT ?p WHERE { ?p ont:pubYear \"2001\" . }"));
        // Evicted entries recompile and still answer correctly.
        assert_eq!(ep.select(hot).unwrap().len(), 2);
        // Lowering the capacity converges on the next miss: the cache
        // shrinks below the old high-water size instead of pinning it.
        ep.set_query_cache_capacity(2);
        ep.select("SELECT ?p WHERE { ?p ont:pubYear \"2010\" . }")
            .unwrap();
        assert_eq!(ep.cached_query_count(), 2);
    }

    #[test]
    fn ask_through_endpoint() {
        let ep = endpoint();
        let outcome = ep
            .execute_query("ASK { ?x foaf:family_name \"Hert\" . }")
            .unwrap();
        assert_eq!(outcome, sparql::QueryOutcome::Boolean(true));
    }

    #[test]
    fn script_executes_multiple_operations() {
        let mut ep = endpoint();
        let outcomes = ep
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 foaf:family_name \"Gall\" ; ont:team ex:team9 . } ;\n\
                 DELETE DATA { ex:author8 ont:team ex:team9 . }",
                false,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(ep.database().row_count("team").unwrap(), 3);
    }

    #[test]
    fn atomic_script_rolls_back_earlier_operations() {
        let mut ep = endpoint();
        let before = ep.materialize().unwrap();
        let err = ep
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 ont:team ex:team424242 . }",
                true,
            )
            .unwrap_err();
        assert_eq!(err.operation_index, 1);
        assert_eq!(err.completed.len(), 1);
        assert_eq!(ep.materialize().unwrap(), before);
    }

    #[test]
    fn non_atomic_script_keeps_earlier_operations() {
        let mut ep = endpoint();
        let err = ep
            .execute_script(
                "INSERT DATA { ex:team9 foaf:name \"T9\" . } ;\n\
                 INSERT DATA { ex:author8 ont:team ex:team424242 . }",
                false,
            )
            .unwrap_err();
        assert_eq!(err.operation_index, 1);
        assert_eq!(ep.database().row_count("team").unwrap(), 3);
    }

    #[test]
    fn endpoint_rejects_inconsistent_mapping() {
        let (db, mut mapping) = fixture_db_with_rows();
        mapping.tables[0].table_name = "ghost".into();
        assert!(Endpoint::new(db, mapping).is_err());
    }

    #[test]
    fn materialization_tracks_updates() {
        let mut ep = endpoint();
        let before = ep.materialize().unwrap().len();
        ep.execute_update("INSERT DATA { ex:team9 foaf:name \"T9\" ; ont:teamCode \"T\" . }")
            .unwrap();
        let after = ep.materialize().unwrap().len();
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
        let mut ep = endpoint();
        let mut native = ep.materialize().unwrap();
        let updates = [
            "INSERT DATA { ex:team9 a foaf:Group ; foaf:name \"T9\" . }",
            "INSERT DATA { ex:author8 a foaf:Person ; foaf:family_name \"Gall\" ; ont:team ex:team9 . }",
            "DELETE DATA { ex:author6 foaf:title \"Mr\" . }",
            "MODIFY DELETE { ?x foaf:mbox ?m . } \
             INSERT { ?x foaf:mbox <mailto:new@uzh.ch> . } \
             WHERE { ?x foaf:family_name \"Hert\" ; foaf:mbox ?m . }",
        ];
        for update in updates {
            ep.execute_update(update).unwrap();
            let op = sparql::parse_update_with_prefixes(update, ep.prefixes().clone()).unwrap();
            sparql::apply(&mut native, &op).unwrap();
            assert_eq!(
                ep.materialize().unwrap(),
                native,
                "divergence after: {update}"
            );
        }
        let _ = foaf::name();
    }
}

#[cfg(test)]
mod check_constraint_tests {
    use super::*;
    use crate::error::OntoError;
    use r3m::ConstraintInfo;
    use rel::{Column, Schema, SqlType, Table};

    // A schema with a CHECK on publication.year, plus a mapping that
    // records it — exercising the §8 "assertions" extension end to end.
    fn endpoint_with_check() -> Endpoint {
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
        Endpoint::new(rel::Database::new(schema).unwrap(), mapping).unwrap()
    }

    #[test]
    fn check_violation_is_rejected_with_feedback() {
        let mut ep = endpoint_with_check();
        ep.execute_update("INSERT DATA { ex:pub1 dc:title \"ok\" ; ont:pubYear \"2009\" . }")
            .unwrap();
        let (feedback, result) = ep.execute_update_with_feedback(
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
        assert_eq!(ep.database().row_count("publication").unwrap(), 1);
    }

    #[test]
    fn check_violation_on_update_path() {
        let mut ep = endpoint_with_check();
        ep.execute_update("INSERT DATA { ex:pub1 dc:title \"ok\" ; ont:pubYear \"2000\" . }")
            .unwrap();
        let err = ep
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

#[cfg(test)]
mod describe_tests {
    use super::*;
    use crate::error::OntoError;
    use crate::testutil::fixture_db_with_rows;
    use rdf::namespace::{dc, foaf, rdf_type};
    use rdf::Term;

    fn endpoint() -> Endpoint {
        let (db, mapping) = fixture_db_with_rows();
        Endpoint::new(db, mapping).unwrap()
    }

    #[test]
    fn describe_author_includes_attributes_and_links() {
        let ep = endpoint();
        let uri = rdf::Iri::parse("http://example.org/db/author6").unwrap();
        let g = ep.describe(&uri).unwrap();
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
        let ep = endpoint();
        let uri = rdf::Iri::parse("http://example.org/db/pub1").unwrap();
        let g = ep.describe(&uri).unwrap();
        assert!(g.contains(&rdf::Triple::new(
            Term::Iri(uri),
            dc::creator(),
            Term::iri("http://example.org/db/author6"),
        )));
    }

    #[test]
    fn describe_absent_row_is_empty() {
        let ep = endpoint();
        let uri = rdf::Iri::parse("http://example.org/db/author999").unwrap();
        assert!(ep.describe(&uri).unwrap().is_empty());
    }

    #[test]
    fn describe_unmapped_uri_is_error() {
        let ep = endpoint();
        let uri = rdf::Iri::parse("http://example.org/db/wizard1").unwrap();
        assert!(matches!(
            ep.describe(&uri),
            Err(OntoError::UnknownSubject { .. })
        ));
    }
}
