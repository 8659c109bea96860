//! The read side: [`ReadSession`] and the one query pipeline every
//! surface goes through — plain execution, `?profile=1` and
//! `?explain=1` are views of the same [`QueryRun`] record.

use super::cache::CachedQuery;
use super::versions::{DatabaseReadGuard, DatabaseVersion};
use super::{metrics, MediatorCore};
use crate::error::{OntoError, OntoResult};
use crate::query::{QueryAnswer, SolutionRows};
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
/// the versions a session observes only ever move forward. Sessions
/// from [`Mediator::read_at`](super::Mediator::read_at) *are* pinned:
/// every query answers as of their fixed commit. Use
/// [`ReadSession::database`] to hold one snapshot across several raw
/// reads.
#[derive(Debug, Clone)]
pub struct ReadSession {
    pub(super) core: Arc<MediatorCore>,
    // `Some` = time-travel session fixed to this version.
    pub(super) pinned: Option<Arc<DatabaseVersion>>,
    // Clone of the core's session token (live-session accounting).
    pub(super) _token: Arc<()>,
}

/// Where [`ReadSession::run_query`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStop {
    /// Resolve the plan — cache lookup, compile and admit on a miss —
    /// but never run it, so no row data is touched (`?explain=1`).
    Plan,
    /// Run the plan against the pinned snapshot.
    Execute,
}

/// The record of one trip through the read pipeline: what was pinned,
/// whether the compilation was cached, the join plan resolved against
/// the pinned snapshot, how long each stage took, and the outcome when
/// the plan ran. [`QueryRun::profile`] and [`QueryRun::explain`] are
/// projections of the record, so every surface reports the plan the
/// executor ran.
#[derive(Debug)]
pub struct QueryRun {
    /// Whether the compilation came from the query cache (parse and
    /// plan are zero on a hit).
    pub cache_hit: bool,
    /// Wall time parsing the query text.
    pub parse: Duration,
    /// Wall time compiling to SQL and provisioning join indexes.
    pub plan: Duration,
    /// Wall time planning the joins against the snapshot and executing
    /// them (zero at [`QueryStop::Plan`]).
    pub execute: Duration,
    /// The answer, present exactly when the run reached
    /// [`QueryStop::Execute`]: the join's rows, not yet rendered.
    pub outcome: Option<QueryAnswer>,
    /// The join plan of the compiled SQL against the pinned snapshot —
    /// at [`QueryStop::Execute`], the plan the executor ran.
    pub joins: SelectPlan,
    version: Arc<DatabaseVersion>,
    compiled: CachedQuery,
}

/// Per-stage wall times and join plan of one executed query — what the
/// server's `?profile=1` returns in its `X-Profile` header.
#[derive(Debug, Clone)]
pub struct QueryProfile<'r> {
    /// Whether the compilation came from the query cache (parse and
    /// plan times are 0 on a hit).
    pub cache_hit: bool,
    /// Wall time parsing the query text, in microseconds.
    pub parse_micros: u64,
    /// Wall time compiling to SQL and provisioning join indexes, in
    /// microseconds.
    pub plan_micros: u64,
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
    /// Whether the compilation came from the query cache.
    pub cache_hit: bool,
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
            cache_hit: self.cache_hit,
            parse_micros: self.parse.as_micros() as u64,
            plan_micros: self.plan.as_micros() as u64,
            execute_micros: self.execute.as_micros() as u64,
            version_seq: self.version.seq,
            rows: self.outcome.as_ref().map_or(0, QueryAnswer::rows),
            joins: &self.joins,
        }
    }

    /// The chosen plan (`?explain=1`).
    pub fn explain(&self) -> QueryExplain<'_> {
        QueryExplain {
            cache_hit: self.cache_hit,
            form: match &self.compiled {
                CachedQuery::Select(_) => "select",
                CachedQuery::Ask(_) => "ask",
            },
            version_seq: self.version.seq,
            joins: &self.joins,
        }
    }
}

impl MediatorCore {
    // Compile `text` against `db` (a pinned snapshot) and admit it to
    // the cache, returning the parse and plan stage times alongside. If
    // the plan wants join indexes the snapshot lacks, they are
    // provisioned on the *live* database and republished as an
    // index-only replacement of the current version — never by mutating
    // a published snapshot. The caller's pinned snapshot keeps running
    // without them (the planner falls back to hash joins).
    fn compile_and_admit(
        &self,
        db: &Database,
        text: &str,
    ) -> OntoResult<(CachedQuery, Duration, Duration)> {
        let parse_span = obs::trace::span("query.parse");
        let query: Query = sparql::parse_query_with_prefixes(text, self.prefixes.clone())?;
        let parse = parse_span.finish();
        let plan_span = obs::trace::span("query.plan");
        let compiled =
            match &query {
                Query::Select(select) => CachedQuery::Select(Arc::new(
                    crate::query::compile_select(db, &self.mapping, select)?,
                )),
                Query::Ask(ask) => CachedQuery::Ask(Arc::new(crate::query::compile_select(
                    db,
                    &self.mapping,
                    &crate::query::ask_to_select(ask),
                )?)),
            };
        // Decide against the snapshot whether provisioning has any work
        // to do: most queries have no join targets (or all targets
        // already indexed), and they must not stall behind an open
        // WriteTxn for a no-op pass.
        let needs_indexes = compiled
            .compiled()
            .join_index_targets
            .iter()
            .any(|(table, column)| !db.supports_index_probe(table, column).unwrap_or(false));
        if needs_indexes {
            let mut live = self.lock_live();
            crate::query::ensure_join_indexes(&mut live, compiled.compiled())?;
            self.chain.republish_current(live.clone());
        }
        let plan = plan_span.finish();
        metrics().parse.observe_duration(parse);
        metrics().plan.observe_duration(plan);
        let admit_span = obs::trace::span("query.cache_admit");
        self.lock_cache().admit(text, compiled.clone());
        drop(admit_span);
        Ok((compiled, parse, plan))
    }
}

impl ReadSession {
    // This session's snapshot: the newest published version, or the
    // fixed version of a time-travel session.
    fn version(&self) -> Arc<DatabaseVersion> {
        match &self.pinned {
            Some(version) => Arc::clone(version),
            None => self.core.chain.current(),
        }
    }

    /// The query pipeline: pin a snapshot, look the text up in the
    /// mediator-wide compiled-query cache (clock eviction; a miss
    /// parses, compiles and admits), and — unless `stop` is
    /// [`QueryStop::Plan`] — run the plan against the snapshot. Every
    /// stage is timed by its trace span, so the record's durations, the
    /// stage histograms and `/trace/<id>` report the same readings.
    pub fn run_query(&self, text: &str, stop: QueryStop) -> OntoResult<QueryRun> {
        let version = self.version();
        let cached = self.core.lock_cache().get(text);
        let cache_hit = cached.is_some();
        let (compiled, parse, plan) = match cached {
            Some(compiled) => (compiled, Duration::ZERO, Duration::ZERO),
            None => self.core.compile_and_admit(&version.db, text)?,
        };
        let db = &version.db;
        let sql = &compiled.compiled().sql;
        let (joins, outcome, execute) = match stop {
            QueryStop::Plan => (rel::sql::plan_select(db, sql)?, None, Duration::ZERO),
            QueryStop::Execute => {
                let span = obs::trace::span("query.execute");
                let joins = rel::sql::plan_select(db, sql)?;
                trace_join_spans(&joins);
                let rows = rel::sql::execute_plan(db, &joins, compiled.compiled().limit)?;
                let outcome = match &compiled {
                    CachedQuery::Select(select) => {
                        QueryAnswer::Solutions(SolutionRows::new(Arc::clone(select), rows.rows))
                    }
                    CachedQuery::Ask(_) => QueryAnswer::Boolean(!rows.is_empty()),
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
            cache_hit,
            parse,
            plan,
            execute,
            outcome,
            joins,
            version,
            compiled,
        })
    }

    /// Execute a SPARQL query given as text. Compiled queries are cached
    /// per query text in the mediator-wide cache: repeated requests —
    /// from any session — skip parsing and translation and go straight
    /// to the planner.
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
        crate::materialize::materialize(&self.version().db, &self.core.mapping)
    }

    /// Describe one instance URI: the triples of its row plus its
    /// link-table triples (in either role). The D2R-style
    /// "dereferenceable URI" read the paper's related work describes
    /// (§2), here over the session's snapshot.
    pub fn describe(&self, uri: &rdf::Iri) -> OntoResult<Graph> {
        crate::materialize::describe(&self.version().db, &self.core.mapping, uri)
    }

    /// Pin this session's snapshot: the newest published version, or
    /// the fixed version of a time-travel session. The guard owns its
    /// snapshot — holding it never blocks writers.
    pub fn database(&self) -> DatabaseReadGuard {
        DatabaseReadGuard {
            version: self.version(),
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
        assert!(!planned.cache_hit);
        assert!(planned.outcome.is_none());
        assert_eq!(planned.execute, Duration::ZERO);
        assert!(m.is_query_cached(q));
        let explain = planned.explain();
        assert_eq!(explain.form, "select");
        assert_eq!(explain.joins.levels.len(), 2);
        // Execution: a cache hit on the admitted plan.
        let ran = session.run_query(q, QueryStop::Execute).unwrap();
        assert!(ran.cache_hit);
        assert_eq!((ran.parse, ran.plan), (Duration::ZERO, Duration::ZERO));
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
}
