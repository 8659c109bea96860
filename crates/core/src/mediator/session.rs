//! The read side: [`ReadSession`] and the one query pipeline every
//! surface goes through — plain execution, `?profile=1` and
//! `?explain=1` are views of the same [`QueryRun`] record.

use super::cache::CachedQuery;
use super::versions::{DatabaseReadGuard, DatabaseVersion};
use super::{metrics, MediatorCore};
use crate::error::{OntoError, OntoResult};
use crate::query::CompiledQuery;
use rdf::namespace::PrefixMap;
use rdf::Graph;
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
/// whether the compilation was cached, how long each stage took, and
/// the outcome when the plan ran. [`QueryRun::profile`] and
/// [`QueryRun::explain`] are projections computed on demand, so a plain
/// execution never pays for the plan summary.
#[derive(Debug)]
pub struct QueryRun {
    /// Whether the compilation came from the query cache (parse and
    /// plan are zero on a hit).
    pub cache_hit: bool,
    /// Wall time parsing the query text.
    pub parse: Duration,
    /// Wall time compiling to SQL and provisioning join indexes.
    pub plan: Duration,
    /// Wall time executing the compiled plan (zero at
    /// [`QueryStop::Plan`]).
    pub execute: Duration,
    /// The result, present exactly when the run reached
    /// [`QueryStop::Execute`].
    pub outcome: Option<QueryOutcome>,
    version: Arc<DatabaseVersion>,
    compiled: Arc<CachedQuery>,
}

/// One join in a query's chosen plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Table of the indexed (probe) side.
    pub table: String,
    /// Join column on that table.
    pub column: String,
    /// `"index_probe"` when the pinned snapshot carries the join
    /// index, `"hash_join"` when the executor falls back to building a
    /// hash table (e.g. a snapshot pinned before provisioning).
    pub strategy: &'static str,
}

/// Per-stage wall times and plan summary of one executed query — what
/// the server's `?profile=1` returns in its `X-Profile` header.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Whether the compilation came from the query cache (parse and
    /// plan times are 0 on a hit).
    pub cache_hit: bool,
    /// Wall time parsing the query text, in microseconds.
    pub parse_micros: u64,
    /// Wall time compiling to SQL and provisioning join indexes, in
    /// microseconds.
    pub plan_micros: u64,
    /// Wall time executing the compiled plan, in microseconds.
    pub execute_micros: u64,
    /// Commit sequence of the snapshot the query answered from.
    pub version_seq: u64,
    /// Result rows (for ASK: 1 when true, 0 when false).
    pub rows: usize,
    /// Join strategy per join-index target of the plan.
    pub joins: Vec<JoinPlan>,
    /// Equi-join key pairs in the compiled SQL.
    pub join_keys: usize,
    /// Residual WHERE conjuncts beyond the join keys — the filters the
    /// executor evaluates per candidate row.
    pub residual_conjuncts: usize,
}

/// The chosen plan of a query described *without executing it* — the
/// server's `?explain=1` body. The same [`QueryRun`] projection code
/// fills this and [`QueryProfile`], so EXPLAIN matches what an
/// execution of the same query against the same snapshot reports.
#[derive(Debug, Clone)]
pub struct QueryExplain {
    /// Whether the compilation came from the query cache.
    pub cache_hit: bool,
    /// Query form: `"select"` or `"ask"`.
    pub form: &'static str,
    /// Commit sequence of the snapshot the plan was resolved against.
    pub version_seq: u64,
    /// Join strategy per join-index target of the plan, in join order.
    pub joins: Vec<JoinPlan>,
    /// Equi-join key pairs in the compiled SQL.
    pub join_keys: usize,
    /// Total AND-leaf conjuncts of the WHERE clause.
    pub conjuncts: usize,
    /// Residual conjuncts beyond the join keys — evaluated per
    /// candidate row at execution time.
    pub residual_conjuncts: usize,
}

// The per-target strategy summary shared by `?profile=1`, `?explain=1`,
// and the per-join trace spans: one computation, so every surface
// reports the identical plan for the same snapshot + cache state.
fn join_plans(db: &Database, plan: &CompiledQuery) -> Vec<JoinPlan> {
    plan.join_index_targets
        .iter()
        .map(|(table, column)| JoinPlan {
            table: table.clone(),
            column: column.clone(),
            strategy: if db.supports_index_probe(table, column).unwrap_or(false) {
                "index_probe"
            } else {
                "hash_join"
            },
        })
        .collect()
}

// One trace span per join step of the plan, carrying the index-vs-hash
// choice and the probe-side row count. Gated on an active trace: the
// strategy probe is not free and must cost nothing untraced.
fn trace_join_spans(db: &Database, plan: &CompiledQuery) {
    if !obs::trace::is_active() {
        return;
    }
    for join in join_plans(db, plan) {
        let span = obs::trace::span("query.join");
        span.attr_str("table", &join.table);
        span.attr_str("column", &join.column);
        span.attr_str("strategy", join.strategy);
        if let Ok(rows) = db.row_count(&join.table) {
            span.attr_u64("rows", rows as u64);
        }
    }
}

// AND-leaf conjuncts of a WHERE tree: `a AND (b AND c)` counts 3.
fn count_and_leaves(expr: &rel::sql::Expr) -> usize {
    match expr {
        rel::sql::Expr::Binary {
            op: rel::sql::BinOp::And,
            left,
            right,
        } => count_and_leaves(left) + count_and_leaves(right),
        _ => 1,
    }
}

impl QueryRun {
    /// Commit sequence of the snapshot the run pinned.
    pub fn version_seq(&self) -> u64 {
        self.version.seq
    }

    // Result rows (for ASK: 1 when true, 0 when false; 0 when the plan
    // never ran).
    fn rows(&self) -> usize {
        match &self.outcome {
            Some(QueryOutcome::Solutions(s)) => s.len(),
            Some(QueryOutcome::Boolean(b)) => usize::from(*b),
            None => 0,
        }
    }

    // The plan summary both projections report: join strategies against
    // the pinned snapshot and the WHERE clause's AND-leaf count.
    fn plan_summary(&self) -> (&CompiledQuery, Vec<JoinPlan>, usize) {
        let plan = self.compiled.compiled();
        let conjuncts = plan.sql.where_clause.as_ref().map_or(0, count_and_leaves);
        (plan, join_plans(&self.version.db, plan), conjuncts)
    }

    /// Stage timings plus plan summary (`?profile=1`).
    pub fn profile(&self) -> QueryProfile {
        let (plan, joins, conjuncts) = self.plan_summary();
        QueryProfile {
            cache_hit: self.cache_hit,
            parse_micros: self.parse.as_micros() as u64,
            plan_micros: self.plan.as_micros() as u64,
            execute_micros: self.execute.as_micros() as u64,
            version_seq: self.version.seq,
            rows: self.rows(),
            joins,
            join_keys: plan.join_keys.len(),
            residual_conjuncts: conjuncts.saturating_sub(plan.join_keys.len()),
        }
    }

    /// The chosen plan (`?explain=1`).
    pub fn explain(&self) -> QueryExplain {
        let (plan, joins, conjuncts) = self.plan_summary();
        QueryExplain {
            cache_hit: self.cache_hit,
            form: match &*self.compiled {
                CachedQuery::Select(_) => "select",
                CachedQuery::Ask(_) => "ask",
            },
            version_seq: self.version.seq,
            joins,
            join_keys: plan.join_keys.len(),
            conjuncts,
            residual_conjuncts: conjuncts.saturating_sub(plan.join_keys.len()),
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
    ) -> OntoResult<(Arc<CachedQuery>, Duration, Duration)> {
        let parse_span = obs::trace::span("query.parse");
        let query: Query = sparql::parse_query_with_prefixes(text, self.prefixes.clone())?;
        let parse = parse_span.finish();
        let plan_span = obs::trace::span("query.plan");
        let compiled = match &query {
            Query::Select(select) => {
                CachedQuery::Select(crate::query::compile_select(db, &self.mapping, select)?)
            }
            Query::Ask(ask) => CachedQuery::Ask(crate::query::compile_select(
                db,
                &self.mapping,
                &crate::query::ask_to_select(ask),
            )?),
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
        let compiled = Arc::new(compiled);
        let admit_span = obs::trace::span("query.cache_admit");
        self.lock_cache().admit(text, Arc::clone(&compiled));
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
        let mut run = QueryRun {
            cache_hit,
            parse,
            plan,
            execute: Duration::ZERO,
            outcome: None,
            version,
            compiled,
        };
        if stop == QueryStop::Execute {
            let span = obs::trace::span("query.execute");
            let db = &run.version.db;
            trace_join_spans(db, run.compiled.compiled());
            let solutions = crate::query::run_compiled(db, run.compiled.compiled())?;
            run.outcome = Some(match &*run.compiled {
                CachedQuery::Select(_) => QueryOutcome::Solutions(solutions),
                CachedQuery::Ask(_) => QueryOutcome::Boolean(!solutions.is_empty()),
            });
            if span.armed() {
                span.attr_u64("version_seq", run.version.seq);
                span.attr_u64("rows", run.rows() as u64);
            }
            run.execute = span.finish();
            metrics().execute.observe_duration(run.execute);
        }
        Ok(run)
    }

    /// Execute a SPARQL query given as text. Compiled queries are cached
    /// per query text in the mediator-wide cache: repeated requests —
    /// from any session — skip parsing and translation and go straight
    /// to the planner.
    pub fn execute_query(&self, text: &str) -> OntoResult<QueryOutcome> {
        let run = self.run_query(text, QueryStop::Execute)?;
        Ok(run.outcome.expect("QueryStop::Execute runs the plan"))
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
        assert!(explain.conjuncts >= explain.join_keys);
        // Execution: a cache hit on the admitted plan.
        let ran = session.run_query(q, QueryStop::Execute).unwrap();
        assert!(ran.cache_hit);
        assert_eq!((ran.parse, ran.plan), (Duration::ZERO, Duration::ZERO));
        let profile = ran.profile();
        assert_eq!(profile.rows, 2);
        assert_eq!(profile.execute_micros, ran.execute.as_micros() as u64);
        assert_eq!(profile.version_seq, ran.version_seq());
        // Both projections summarize the same plan over the same
        // snapshot (the fresh pin carries the provisioned indexes).
        let explain = ran.explain();
        assert_eq!(profile.joins, explain.joins);
        assert_eq!(profile.join_keys, explain.join_keys);
        assert_eq!(profile.residual_conjuncts, explain.residual_conjuncts);
        assert!(explain.joins.iter().all(|j| j.strategy == "index_probe"));
    }
}
