//! The read side: [`ReadSession`] and the one query pipeline every
//! surface goes through — plain execution, `?profile=1` and
//! `?explain=1` are views of the same [`QueryRun`] record.

use super::cache::{CachedQuery, CachedShape};
use super::versions::{DatabaseReadGuard, DatabaseVersion};
use super::{metrics, MediatorCore};
use crate::error::{OntoError, OntoResult};
use crate::query::{compile_template, QueryAnswer, Shape, SolutionRows};
use rdf::namespace::PrefixMap;
use rdf::Graph;
use rel::sql::SelectPlan;
use rel::Database;
use sparql::{Query, QueryOutcome, Solutions};
use std::sync::Arc;
use std::time::Duration;

/// A read session over a shared [`Mediator`](super::Mediator): `Send +
/// Sync`, cloneable, all queries through `&self` — hand one to each
/// server worker.
///
/// Each query pins the newest published version at its start (one
/// `Arc` clone) and executes entirely against that snapshot: it sees
/// either all of a transaction's effects or none, and never waits on a
/// writer. The session does **not** pin one snapshot across queries —
/// two queries may observe different committed states if a writer
/// commits between them (read-committed, the paper's §5.1 unit), but
/// the versions a session observes only ever move forward. Use
/// [`ReadSession::database`] to hold one snapshot across several raw
/// reads.
#[derive(Debug, Clone)]
pub struct ReadSession {
    pub(super) core: Arc<MediatorCore>,
    // Clone of the core's session token (live-session accounting).
    pub(super) _token: Arc<()>,
}

/// Where [`ReadSession::run_query`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStop {
    /// Resolve the plan — cache lookup; parse, bind or compile, and
    /// admit on a miss — but never run it, so no row data is touched
    /// (`?explain=1`).
    Plan,
    /// Run the plan against the pinned snapshot.
    Execute,
}

/// Which probe of the compiled-query cache answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheProbe {
    /// The exact text was cached: no parse, no bind, no compile.
    Text,
    /// Another text of the same shape was cached: parse and bind this
    /// text's constants, no compile.
    Shape,
    /// Neither: parse, compile, bind.
    Compile,
}

impl CacheProbe {
    /// `"text"`, `"shape"` or `"compile"`.
    pub fn name(self) -> &'static str {
        match self {
            CacheProbe::Text => "text",
            CacheProbe::Shape => "shape",
            CacheProbe::Compile => "compile",
        }
    }

    /// Whether the cache answered without compiling.
    pub fn is_hit(self) -> bool {
        self != CacheProbe::Compile
    }
}

/// The record of one trip through the read pipeline: what was pinned,
/// which cache probe answered, the join plan resolved against the
/// pinned snapshot, how long each stage took, and the outcome when the
/// plan ran. [`QueryRun::profile`] and [`QueryRun::explain`] are
/// projections of the record, so every surface reports the plan the
/// executor ran.
#[derive(Debug)]
pub struct QueryRun {
    /// Which cache probe answered (parse and bind are zero on a text
    /// hit, plan is zero on any hit).
    pub cache: CacheProbe,
    /// Wall time parsing the query text.
    pub parse: Duration,
    /// Wall time compiling to SQL.
    pub plan: Duration,
    /// Wall time binding the text's constants into its shape's SQL.
    pub bind: Duration,
    /// Wall time planning the joins against the snapshot and executing
    /// them (zero at [`QueryStop::Plan`]).
    pub execute: Duration,
    /// The answer, present exactly when the run reached
    /// [`QueryStop::Execute`]: the join's rows, not yet rendered.
    pub outcome: Option<QueryAnswer>,
    /// The join plan of the bound SQL against the pinned snapshot — at
    /// [`QueryStop::Execute`], the plan the executor ran.
    pub joins: SelectPlan,
    version: Arc<DatabaseVersion>,
    query: Arc<CachedQuery>,
}

/// Per-stage wall times and join plan of one executed query — what the
/// server's `?profile=1` returns in its `X-Profile` header.
#[derive(Debug, Clone)]
pub struct QueryProfile<'r> {
    /// Which cache probe answered.
    pub cache: CacheProbe,
    /// Wall time parsing the query text, in microseconds.
    pub parse_micros: u64,
    /// Wall time compiling to SQL, in microseconds.
    pub plan_micros: u64,
    /// Wall time binding the text's constants, in microseconds.
    pub bind_micros: u64,
    /// Wall time planning and executing the joins, in microseconds.
    pub execute_micros: u64,
    /// Commit sequence of the snapshot the query answered from.
    pub version_seq: u64,
    /// Result rows (for ASK: 1 when true, 0 when false).
    pub rows: usize,
    /// The plan the executor ran.
    pub joins: &'r SelectPlan,
}

/// The plan of a query described *without executing it* — the server's
/// `?explain=1` body. It is the plan an execution against the same
/// snapshot runs, so it matches that run's [`QueryProfile`].
#[derive(Debug, Clone)]
pub struct QueryExplain<'r> {
    /// Which cache probe answered.
    pub cache: CacheProbe,
    /// Query form: `"select"` or `"ask"`.
    pub form: &'static str,
    /// Commit sequence of the snapshot the plan was resolved against.
    pub version_seq: u64,
    /// The plan, level by level in join order.
    pub joins: &'r SelectPlan,
}

// One trace span per join level of the plan the executor is about to
// run, carrying its access path and row estimate. Gated on an active
// trace so an untraced run pays nothing.
fn trace_join_spans(plan: &SelectPlan) {
    if !obs::trace::is_active() {
        return;
    }
    for level in &plan.levels {
        let span = obs::trace::span("query.join");
        span.attr_str("table", &level.table);
        span.attr_str("alias", &level.alias);
        span.attr_str("access", level.access.name());
        span.attr_u64("estimate", level.estimate);
    }
}

impl QueryRun {
    /// Commit sequence of the snapshot the run pinned.
    pub fn version_seq(&self) -> u64 {
        self.version.seq
    }

    /// Stage timings plus the executed plan (`?profile=1`).
    pub fn profile(&self) -> QueryProfile<'_> {
        QueryProfile {
            cache: self.cache,
            parse_micros: self.parse.as_micros() as u64,
            plan_micros: self.plan.as_micros() as u64,
            bind_micros: self.bind.as_micros() as u64,
            execute_micros: self.execute.as_micros() as u64,
            version_seq: self.version.seq,
            rows: self.outcome.as_ref().map_or(0, QueryAnswer::rows),
            joins: &self.joins,
        }
    }

    /// The chosen plan (`?explain=1`).
    pub fn explain(&self) -> QueryExplain<'_> {
        QueryExplain {
            cache: self.cache,
            form: if self.query.shape.ask {
                "ask"
            } else {
                "select"
            },
            version_seq: self.version.seq,
            joins: &self.joins,
        }
    }
}

// A text resolved to its cache entry, with the stages it took.
struct Resolved {
    query: Arc<CachedQuery>,
    cache: CacheProbe,
    parse: Duration,
    plan: Duration,
    bind: Duration,
}

impl MediatorCore {
    // Resolve `text` to its cache entry. A text miss parses and lifts
    // the constants; a shape miss compiles the text into its shape's
    // template. Either way the text's constants are bound into a copy of
    // the shape's SQL, and the result is admitted.
    fn resolve(&self, db: &Database, text: &str) -> OntoResult<Resolved> {
        if let Some(query) = self.lock_cache().get(text) {
            return Ok(Resolved {
                query,
                cache: CacheProbe::Text,
                parse: Duration::ZERO,
                plan: Duration::ZERO,
                bind: Duration::ZERO,
            });
        }
        let parse_span = obs::trace::span("query.parse");
        let parsed: Query = sparql::parse_query_with_prefixes(text, self.prefixes.clone())?;
        let parse = parse_span.finish();
        metrics().parse.observe_duration(parse);
        let lifted = crate::query::lift(&self.mapping, &parsed);
        let cached = self.lock_cache().shape(&lifted.key);
        let (shape, spare, cache, plan) = match cached {
            Some((shape, spare)) => (shape, spare, CacheProbe::Shape, Duration::ZERO),
            None => {
                let plan_span = obs::trace::span("query.plan");
                let shape = self.compile(db, &parsed, &lifted)?;
                let plan = plan_span.finish();
                metrics().plan.observe_duration(plan);
                (shape, None, CacheProbe::Compile, plan)
            }
        };
        let bind_span = obs::trace::span("query.bind");
        // Read before binding: a string interned after this may have
        // been missed, and then the count has moved.
        let symbols = rel::dictionary_stats().symbols;
        let (sql, absent) = shape.template.bind(&lifted, spare)?;
        let bind = bind_span.finish();
        let query = Arc::new(CachedQuery {
            shape,
            sql,
            absent_at: absent.then_some(symbols),
        });
        let admit_span = obs::trace::span("query.cache_admit");
        let evicted = self.lock_cache().admit(text, Arc::clone(&query));
        // Freed here, after the cache's lock is released.
        drop(evicted);
        drop(admit_span);
        Ok(Resolved {
            query,
            cache,
            parse,
            plan,
            bind,
        })
    }

    // Compile `parsed` into the template of its shape `lifted`. A pure
    // read of the snapshot `db`: it never takes the writer mutex.
    fn compile(
        &self,
        db: &Database,
        parsed: &Query,
        lifted: &Shape,
    ) -> OntoResult<Arc<CachedShape>> {
        let (template, ask) = match parsed {
            Query::Select(select) => (compile_template(db, &self.mapping, select, lifted)?, false),
            Query::Ask(ask) => {
                let select = crate::query::ask_to_select(ask);
                (compile_template(db, &self.mapping, &select, lifted)?, true)
            }
        };
        Ok(Arc::new(CachedShape {
            key: Arc::from(lifted.key.as_str()),
            ask,
            template,
        }))
    }
}

impl ReadSession {
    /// The query pipeline: pin a snapshot, resolve the text through the
    /// mediator-wide compiled-query cache (the text's own entry; else
    /// parse and bind the constants into its shape's SQL, compiling the
    /// shape first if it is not cached), and — unless `stop` is
    /// [`QueryStop::Plan`] — run the plan against the snapshot. Every
    /// stage is timed by its trace span, so the record's durations, the
    /// stage histograms and `/trace/<id>` report the same readings.
    pub fn run_query(&self, text: &str, stop: QueryStop) -> OntoResult<QueryRun> {
        let version = self.core.chain.current();
        let Resolved {
            query,
            cache,
            parse,
            plan,
            bind,
        } = self.core.resolve(&version.db, text)?;
        let db = &version.db;
        let (joins, outcome, execute) = match stop {
            QueryStop::Plan => (rel::sql::plan_select(db, &query.sql)?, None, Duration::ZERO),
            QueryStop::Execute => {
                let span = obs::trace::span("query.execute");
                let joins = rel::sql::plan_select(db, &query.sql)?;
                trace_join_spans(&joins);
                let compiled = query.compiled();
                let rows = rel::sql::execute_plan(db, &joins, compiled.limit)?;
                let outcome = if query.shape.ask {
                    QueryAnswer::Boolean(!rows.is_empty())
                } else {
                    QueryAnswer::Solutions(SolutionRows::new(Arc::clone(compiled), rows))
                };
                if span.armed() {
                    span.attr_u64("version_seq", version.seq);
                    span.attr_u64("rows", outcome.rows() as u64);
                }
                let execute = span.finish();
                metrics().execute.observe_duration(execute);
                (joins, Some(outcome), execute)
            }
        };
        Ok(QueryRun {
            cache,
            parse,
            plan,
            bind,
            execute,
            outcome,
            joins,
            version,
            query,
        })
    }

    /// Execute a SPARQL query given as text. Compiled queries are cached
    /// in the mediator-wide cache, per text and per shape: a repeated
    /// text — from any session — goes straight to the planner, and a
    /// new text of a cached shape binds its constants instead of
    /// compiling.
    pub fn execute_query(&self, text: &str) -> OntoResult<QueryOutcome> {
        let run = self.run_query(text, QueryStop::Execute)?;
        run.outcome
            .expect("QueryStop::Execute runs the plan")
            .to_outcome()
    }

    /// Execute a SELECT given as text.
    pub fn select(&self, text: &str) -> OntoResult<Solutions> {
        match self.execute_query(text)? {
            QueryOutcome::Solutions(s) => Ok(s),
            QueryOutcome::Boolean(_) => Err(OntoError::Unsupported {
                message: "expected a SELECT query".into(),
            }),
        }
    }

    /// Materialize the database's full RDF view.
    pub fn materialize(&self) -> OntoResult<Graph> {
        crate::materialize::materialize(&self.core.chain.current().db, &self.core.mapping)
    }

    /// Describe one instance URI: the triples of its row plus its
    /// link-table triples (in either role). The D2R-style
    /// "dereferenceable URI" read the paper's related work describes
    /// (§2), here over the session's snapshot.
    pub fn describe(&self, uri: &rdf::Iri) -> OntoResult<Graph> {
        crate::materialize::describe(&self.core.chain.current().db, &self.core.mapping, uri)
    }

    /// Pin this session's snapshot: the current version. The guard owns
    /// its snapshot — holding it never blocks writers.
    pub fn database(&self) -> DatabaseReadGuard {
        DatabaseReadGuard {
            version: self.core.chain.current(),
        }
    }

    /// Prefixes used for parsing requests and rendering output.
    pub fn prefixes(&self) -> &PrefixMap {
        &self.core.prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixture_mediator as mediator;
    use rel::sql::Access;

    #[test]
    fn read_sessions_share_one_cache_and_database() {
        let m = mediator();
        let r1 = m.read();
        let r2 = m.read();
        let q = "SELECT ?x WHERE { ?x a foaf:Person . }";
        assert_eq!(r1.select(q).unwrap().len(), 2);
        // r2 hits the compilation r1 admitted.
        assert_eq!(m.cached_query_count(), 1);
        assert_eq!(r2.select(q).unwrap().len(), 2);
        assert_eq!(m.cached_query_count(), 1);
        // A write through the mediator is visible to both sessions.
        m.execute_update("INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }")
            .unwrap();
        assert_eq!(r1.select(q).unwrap().len(), 3);
        assert_eq!(r2.select(q).unwrap().len(), 3);
    }

    #[test]
    fn one_run_record_feeds_execution_profile_and_explain() {
        let m = mediator();
        let session = m.read();
        let q =
            "SELECT ?n ?c WHERE { ?x foaf:family_name ?n ; ont:team ?t . ?t ont:teamCode ?c . }";
        // Plan-only: compiles and admits, never runs.
        let planned = session.run_query(q, QueryStop::Plan).unwrap();
        assert_eq!(planned.cache, CacheProbe::Compile);
        assert!(planned.outcome.is_none());
        assert_eq!(planned.execute, Duration::ZERO);
        assert!(m.is_query_cached(q));
        let explain = planned.explain();
        assert_eq!(explain.form, "select");
        assert_eq!(explain.joins.levels.len(), 2);
        // Execution: a cache hit on the admitted plan.
        let ran = session.run_query(q, QueryStop::Execute).unwrap();
        assert_eq!(ran.cache, CacheProbe::Text);
        assert_eq!([ran.parse, ran.plan, ran.bind], [Duration::ZERO; 3]);
        let profile = ran.profile();
        assert_eq!(profile.rows, 2);
        assert_eq!(profile.execute_micros, ran.execute.as_micros() as u64);
        assert_eq!(profile.version_seq, ran.version_seq());
        // Both projections render the plan the executor ran, and an
        // unexecuted plan over the same snapshot is that same plan.
        let explain = ran.explain();
        assert!(std::ptr::eq(profile.joins, explain.joins));
        assert_eq!(explain.joins, &planned.joins);
        assert_eq!(explain.joins.join_keys(), 1);
        // Two authors over two teams: probing the team PK costs what a
        // hash table over the teams would, and a tie goes to the probe.
        let access: Vec<&str> = explain
            .joins
            .levels
            .iter()
            .map(|l| l.access.name())
            .collect();
        assert_eq!(access, ["scan", "index_loop"]);
    }

    #[test]
    fn a_new_text_of_a_cached_shape_binds_instead_of_compiling() {
        let m = mediator();
        let session = m.read();
        let q =
            |author: u32| format!("SELECT ?n WHERE {{ ex:author{author} foaf:family_name ?n }}");
        let first = session.run_query(&q(6), QueryStop::Execute).unwrap();
        assert_eq!(first.cache, CacheProbe::Compile);
        let second = session.run_query(&q(7), QueryStop::Execute).unwrap();
        assert_eq!(second.cache, CacheProbe::Shape);
        assert!(second.cache.is_hit());
        assert_eq!(second.plan, Duration::ZERO);
        let name = |run: &QueryRun| match run.outcome.as_ref().unwrap().to_outcome().unwrap() {
            QueryOutcome::Solutions(s) => s.bindings[0]["n"].to_string(),
            other => panic!("{other:?}"),
        };
        assert_eq!(
            (name(&first), name(&second)),
            ("\"Hert\"".into(), "\"Reif\"".into())
        );
        // Each text keeps its own bound statement.
        let again = session.run_query(&q(6), QueryStop::Execute).unwrap();
        assert_eq!(
            (again.cache, name(&again)),
            (CacheProbe::Text, "\"Hert\"".into())
        );
        let stats = m.query_cache_stats();
        assert_eq!((stats.entries, stats.shapes, stats.misses), (2, 1, 1));
        // A constant that fails to bind fails as compiling it does.
        let bad = session.run_query(
            "SELECT ?n WHERE { ex:authorXY foaf:family_name ?n }",
            QueryStop::Execute,
        );
        let fresh = mediator().select("SELECT ?n WHERE { ex:authorXY foaf:family_name ?n }");
        assert_eq!(bad.unwrap_err().to_string(), fresh.unwrap_err().to_string());
    }

    #[test]
    fn a_string_the_dictionary_lacks_matches_nothing_until_it_is_stored() {
        let m = mediator();
        let absent = "session-test-absent-family-name";
        let q = format!("SELECT ?x WHERE {{ ?x foaf:family_name \"{absent}\" }}");
        assert!(m.select(&q).unwrap().is_empty());
        assert_eq!(
            rel::Sym::lookup(absent),
            None,
            "a read interned its literal"
        );
        // Once a write stores the string, the cached text answers it.
        m.execute_update(&format!(
            "INSERT DATA {{ ex:author8 foaf:family_name \"{absent}\" . }}"
        ))
        .unwrap();
        assert_eq!(m.select(&q).unwrap().len(), 1);
        assert_eq!(
            m.read().run_query(&q, QueryStop::Plan).unwrap().cache,
            CacheProbe::Text
        );
    }

    #[test]
    fn an_absent_literal_matches_no_null_whatever_the_access_path() {
        // author7 has no title: a NULL the absent string must not match.
        // NULL probes no index entry, so it restricts its table to no
        // row, ahead of a key restriction too.
        let m = mediator();
        let title = "\"session-test-absent-title\"";
        for subject in ["?x", "ex:author7"] {
            let q = format!("SELECT * WHERE {{ {subject} foaf:title {title} }}");
            let run = m.read().run_query(&q, QueryStop::Execute).unwrap();
            assert_eq!(run.outcome.unwrap().rows(), 0, "{q}");
            let access = &run.joins.levels[0].access;
            assert!(
                matches!(access, Access::Restricted { column, ids } if column == "title" && ids.is_empty()),
                "{q}: {access:?}"
            );
        }
        let present = "ASK { ex:author6 foaf:title \"Mr\" }";
        assert_eq!(
            m.read().execute_query(present).unwrap(),
            QueryOutcome::Boolean(true)
        );
    }
}
