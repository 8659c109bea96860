//! Request routing and the SPARQL Protocol endpoint handlers.
//!
//! | Method + path       | Operation |
//! |---------------------|-----------|
//! | `GET /sparql?query=`| SPARQL query (also `POST` with a `application/sparql-query` body or an urlencoded form) |
//! | `POST /update`      | SPARQL/Update; the response body is the paper's §6 RDF feedback document (Turtle) |
//! | `GET /describe?uri=`| Concise description of one instance URI (graph response) |
//! | `GET /dump`         | The database's full RDF view (graph response) |
//! | `GET /status`       | Version, uptime, row counts, query-cache, concurrency, durability, replication and server counters (JSON) |
//! | `GET /metrics`      | Prometheus text exposition (`text/plain; version=0.0.4`) of every layer's metrics |
//! | `POST /snapshot`    | Admin checkpoint: snapshot the committed state, truncate the WAL (durable servers only) |
//! | `GET /wal`          | Replication: committed WAL bytes from `from=` (absolute offset), long-polling when caught up (durable leaders only) |
//! | `GET /snapshot/latest` | Replication: the newest snapshot file, for replica bootstrap (durable leaders only) |
//! | `GET /traces`       | Index of retained traces (tail-sampled: error/slow priority + a sampled ring) |
//! | `GET /trace/<id>`   | Span tree of one retained trace, keyed by its request id (JSON) |
//!
//! Two query-string switches ride on `/sparql`: `?profile=1` executes
//! and attaches stage timings plus the chosen join plan as an
//! `X-Profile` header; `?explain=1` answers the chosen plan as JSON
//! **without executing**. `/update` honors `?profile=1` the same way
//! (translate/sort/execute/WAL-append/fsync stage timings).
//!
//! Queries execute on the worker's shared [`ReadSession`]; updates
//! serialize through the mediator's write transaction. Mediator
//! rejections map to statuses via [`crate::error_map`]; the update
//! endpoint keeps the RDF feedback document as its error body, the
//! query endpoints answer machine-readable JSON errors.

use crate::error_map::{error_body, protocol_error_body, status_for, ERROR_CONTENT_TYPE};
use crate::http::{Request, Response};
use crate::json::{json_array, JsonObject};
use crate::metrics::HttpMetrics;
use crate::wire;
use obs::trace::{AttrValue, Trace};
use ontoaccess::feedback::Feedback;
use ontoaccess::mediator::{
    Mediator, QueryExplain, QueryProfile, QueryStop, ReadSession, UpdateProfile,
};
use ontoaccess::{OntoError, OntoResult, QueryAnswer};
use rel::sql::SelectPlan;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Media type of a SPARQL query sent as a raw POST body.
pub const SPARQL_QUERY: &str = "application/sparql-query";
/// Media type of a SPARQL/Update sent as a raw POST body.
pub const SPARQL_UPDATE: &str = "application/sparql-update";
const FORM: &str = "application/x-www-form-urlencoded";

// Everything a handler can reach: the shared mediator (writes, admin)
// and the HTTP layer's metrics. Read sessions are per worker and passed
// alongside.
pub(crate) struct AppContext {
    pub mediator: Mediator,
    pub started: Instant,
    pub workers: usize,
    pub queue_capacity: usize,
    pub replication: Option<repl::ReplicationStatus>,
    pub metrics: HttpMetrics,
    /// Requests at or above this handler wall time are classified slow.
    pub slow_query: Duration,
}

pub(crate) fn handle_request(
    ctx: &AppContext,
    session: &ReadSession,
    request: &Request,
    queue_wait: Option<Duration>,
) -> Response {
    let started = Instant::now();
    let request_id = request_id_for(request);
    ctx.metrics.requests.inc();
    ctx.metrics.in_flight.add(1);
    // The request's trace, keyed by its id: every span the layers
    // below emit on this thread (parse, plan, join steps, WAL append,
    // fsync wait, …) parents into this root.
    let trace = obs::trace::start(&request_id, "request");
    trace.attr_str("method", &request.method);
    trace.attr_str("path", &request.path);
    if let Some(wait) = queue_wait {
        // Present only on a connection's first request: how long the
        // accepted socket sat in the pool queue before a worker ran.
        trace.attr_u64(
            "queue_wait_micros",
            wait.as_micros().min(u64::MAX as u128) as u64,
        );
    }
    // HEAD is answered like GET everywhere GET is allowed; the
    // connection layer suppresses the body bytes while keeping the
    // Content-Length a GET would have produced (RFC 9110 §9.3.2).
    let method = if request.method == "HEAD" {
        "GET"
    } else {
        request.method.as_str()
    };
    let response = match (method, request.path.as_str()) {
        ("GET", "/") => usage(),
        ("GET", "/sparql") => query_from_get(ctx, session, request, &trace),
        ("POST", "/sparql") => query_from_post(ctx, session, request, &trace),
        ("POST", "/update") => update(ctx, request),
        ("GET", "/describe") => describe(session, request),
        ("GET", "/dump") => dump(session, request),
        ("GET", "/status") => status(ctx),
        ("GET", "/metrics") => metrics_exposition(ctx),
        ("POST", "/snapshot") => snapshot(ctx),
        ("GET", "/wal") => wal(ctx, request),
        ("GET", "/snapshot/latest") => snapshot_latest(ctx),
        ("GET", "/traces") => traces_index(),
        ("GET", path) if path.starts_with("/trace/") => trace_detail(path),
        (_, "/sparql") => method_not_allowed("GET, HEAD, POST"),
        (_, "/update") | (_, "/snapshot") => method_not_allowed("POST"),
        (_, "/describe")
        | (_, "/dump")
        | (_, "/status")
        | (_, "/")
        | (_, "/metrics")
        | (_, "/wal")
        | (_, "/snapshot/latest")
        | (_, "/traces") => method_not_allowed("GET, HEAD"),
        (_, path) if path.starts_with("/trace/") => method_not_allowed("GET, HEAD"),
        _ => Response::new(
            404,
            ERROR_CONTENT_TYPE,
            protocol_error_body(404, &format!("no such endpoint {:?}", request.path)),
        ),
    };
    ctx.metrics.in_flight.sub(1);
    let elapsed = started.elapsed();
    // Tail-sample classification happens here, where the outcome is
    // known: failed and slow requests become priority traces. This is
    // the one slow decision; `/status` lists the slow queries from the
    // trace store.
    trace.attr_u64("status", u64::from(response.status));
    if response.status >= 400 {
        obs::trace::mark_error();
    }
    let slow = elapsed >= ctx.slow_query;
    if slow {
        obs::trace::mark_slow();
    }
    trace.finish();
    ctx.metrics
        .endpoint(endpoint_series(&request.path))
        .observe_duration(elapsed);
    let (level, message) = if slow {
        (obs::Level::Warn, "slow request")
    } else {
        (obs::Level::Info, "request")
    };
    obs::log(
        level,
        "http",
        message,
        &[
            ("id", &request_id),
            ("method", &request.method),
            ("path", &request.path),
            ("status", &response.status),
            ("micros", &elapsed.as_micros()),
        ],
    );
    attach_request_id(response, &request_id)
}

// The per-path `/trace/<id>` suffix would mint one latency series per
// trace id; collapse it onto a single "/trace" series.
fn endpoint_series(path: &str) -> &str {
    if path.starts_with("/trace/") {
        "/trace"
    } else {
        path
    }
}

// Accept a sane inbound `X-Request-Id` (so a caller's trace id flows
// through), otherwise mint one.
fn request_id_for(request: &Request) -> String {
    match request.header("x-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= 64
                && id
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.')) =>
        {
            id.to_owned()
        }
        _ => obs::next_request_id(),
    }
}

/// Echo the request id on the response, and stitch it into JSON error
/// documents so a client-reported failure is greppable in the server
/// log (`{"request_id":…,"error":…}`).
pub(crate) fn attach_request_id(mut response: Response, request_id: &str) -> Response {
    if response.status >= 400
        && response.content_type.as_deref() == Some(ERROR_CONTENT_TYPE)
        && response.body.first() == Some(&b'{')
    {
        let prefix = JsonObject::new().str("request_id", request_id).finish();
        let mut body = Vec::with_capacity(prefix.len() + response.body.len());
        // `{"request_id":"…"` + `,` + the original body minus its `{`.
        body.extend_from_slice(&prefix.as_bytes()[..prefix.len() - 1]);
        body.push(b',');
        body.extend_from_slice(&response.body[1..]);
        response.body = body;
    }
    response.with_header("X-Request-Id", request_id)
}

fn usage() -> Response {
    Response::new(
        200,
        "text/plain; charset=utf-8",
        "OntoAccess SPARQL 1.1 Protocol endpoint\n\
         \n\
         GET  /sparql?query=...   SPARQL query (SELECT/ASK)\n\
         POST /sparql             query as application/sparql-query or form\n\
         POST /update             SPARQL/Update as application/sparql-update or form\n\
         GET  /describe?uri=...   describe one instance URI\n\
         GET  /dump               full RDF view (Turtle / N-Triples)\n\
         GET  /status             version, row counts, cache, durability and replication statistics (JSON)\n\
         GET  /metrics            Prometheus text exposition of all server metrics\n\
         POST /snapshot           admin checkpoint: snapshot state, truncate the WAL\n\
         GET  /wal?from=&epoch=   replication: committed WAL bytes from an absolute offset (long-poll)\n\
         GET  /snapshot/latest    replication: the newest snapshot file for replica bootstrap\n\
         GET  /traces             index of retained traces (tail-sampled)\n\
         GET  /trace/<request-id> span tree of one retained trace (JSON)\n\
         \n\
         /sparql switches: ?profile=1 (X-Profile stage timings + join plan), ?explain=1 (plan JSON, no execution)\n\
         /update switches: ?profile=1 (X-Profile update stage timings)\n",
    )
}

fn method_not_allowed(allow: &str) -> Response {
    Response::new(
        405,
        ERROR_CONTENT_TYPE,
        protocol_error_body(405, &format!("method not allowed; allowed: {allow}")),
    )
    .with_header("Allow", allow)
}

// ----------------------------------------------------------------------
// Queries
// ----------------------------------------------------------------------

fn query_from_get(
    ctx: &AppContext,
    session: &ReadSession,
    request: &Request,
    trace: &Trace,
) -> Response {
    match request.param("query") {
        Some(text) => run_query(ctx, session, text, request, trace),
        None => Response::new(
            400,
            ERROR_CONTENT_TYPE,
            protocol_error_body(400, "missing required parameter \"query\""),
        ),
    }
}

fn query_from_post(
    ctx: &AppContext,
    session: &ReadSession,
    request: &Request,
    trace: &Trace,
) -> Response {
    let text = match request.content_type().as_deref() {
        Some(SPARQL_QUERY) => String::from_utf8_lossy(&request.body).into_owned(),
        Some(FORM) => {
            let form = request.form_params();
            match form.into_iter().find(|(k, _)| k == "query") {
                Some((_, v)) => v,
                None => {
                    return Response::new(
                        400,
                        ERROR_CONTENT_TYPE,
                        protocol_error_body(400, "missing required form field \"query\""),
                    )
                }
            }
        }
        other => {
            return Response::new(
                415,
                ERROR_CONTENT_TYPE,
                protocol_error_body(
                    415,
                    &format!(
                        "unsupported content type {:?}; use {SPARQL_QUERY} or {FORM}",
                        other.unwrap_or("none")
                    ),
                ),
            )
        }
    };
    run_query(ctx, session, &text, request, trace)
}

// Longest query text a request's trace keeps; the tail is elided.
const QUERY_ATTR_CHARS: usize = 200;

// The query text as the root span's `query` attribute: at most
// [`QUERY_ATTR_CHARS`] characters, then `…`.
fn query_attr(text: &str) -> Cow<'_, str> {
    match text.char_indices().nth(QUERY_ATTR_CHARS) {
        Some((cut, _)) => Cow::Owned(format!("{}…", &text[..cut])),
        None => Cow::Borrowed(text),
    }
}

fn run_query(
    ctx: &AppContext,
    session: &ReadSession,
    text: &str,
    request: &Request,
    trace: &Trace,
) -> Response {
    trace.attr_str("query", &query_attr(text));
    // `?explain=1`: describe the chosen plan without executing it. The
    // body is always JSON (there is no result set to negotiate).
    if request.param("explain").is_some_and(|v| v == "1") {
        ctx.metrics.queries.inc();
        return match session.run_query(text, QueryStop::Plan) {
            Ok(run) => Response::new(200, wire::JSON, explain_json(&run.explain())),
            Err(error) => mediator_error(&error),
        };
    }
    let Some((content_type, format)) = wire::negotiate_results(request.header("accept")) else {
        return not_acceptable(
            "results",
            &[wire::SPARQL_RESULTS_JSON, wire::SPARQL_RESULTS_XML],
        );
    };
    ctx.metrics.queries.inc();
    // The body is complete before the first byte is sent: a cell that
    // fails to render fails the request, never truncates a 200.
    let result = session.run_query(text, QueryStop::Execute).and_then(|run| {
        let answer = run
            .outcome
            .as_ref()
            .expect("QueryStop::Execute runs the plan");
        let body = results_body(answer, format)?;
        Ok((run, body))
    });
    match result {
        Ok((run, body)) => {
            let response = Response::new(200, content_type, body);
            // `?profile=1` prints what every run records anyway.
            if request.param("profile").is_some_and(|v| v == "1") {
                response.with_header("X-Profile", &profile_json(&run.profile()))
            } else {
                response
            }
        }
        Err(error) => mediator_error(&error),
    }
}

// The results document, written straight from the answer's rows. The
// `wire.serialize` span records how many solutions and bytes it took.
fn results_body(answer: &QueryAnswer, format: wire::ResultsFormat) -> OntoResult<String> {
    let span = obs::trace::span("wire.serialize");
    let body = match (answer, format) {
        (QueryAnswer::Solutions(rows), wire::ResultsFormat::Json) => wire::rows_to_json(rows)?,
        (QueryAnswer::Solutions(rows), wire::ResultsFormat::Xml) => wire::rows_to_xml(rows)?,
        (QueryAnswer::Boolean(b), wire::ResultsFormat::Json) => wire::boolean_to_json(*b),
        (QueryAnswer::Boolean(b), wire::ResultsFormat::Xml) => wire::boolean_to_xml(*b),
    };
    if span.armed() {
        span.attr_u64("rows", answer.rows() as u64);
        span.attr_u64("bytes", body.len() as u64);
    }
    Ok(body)
}

// The joins array shared *byte for byte* by `?profile=1` and
// `?explain=1`: one entry per level of the [`SelectPlan`] the executor
// runs, in join order. (No `rows` key: explain never executes.)
fn join_plan_json(plan: &SelectPlan) -> String {
    json_array(plan.levels.iter().map(|level| {
        JsonObject::new()
            .str("table", &level.table)
            .str("alias", &level.alias)
            .str("access", level.access.name())
            .u64("estimate", level.estimate)
            .finish()
    }))
}

// The `X-Profile` trailer: the executed plan and per-stage wall times,
// one line of JSON so it survives as a header.
fn profile_json(profile: &QueryProfile) -> String {
    JsonObject::new()
        .bool("cache_hit", profile.cache.is_hit())
        .str("cache", profile.cache.name())
        .u64("parse_micros", profile.parse_micros)
        .u64("plan_micros", profile.plan_micros)
        .u64("bind_micros", profile.bind_micros)
        .u64("execute_micros", profile.execute_micros)
        .u64("version_seq", profile.version_seq)
        .u64("rows", profile.rows as u64)
        .raw("joins", &join_plan_json(profile.joins))
        .u64("join_keys", profile.joins.join_keys() as u64)
        .u64(
            "residual_conjuncts",
            profile.joins.residual_conjuncts() as u64,
        )
        .finish()
}

// The `?explain=1` body: the plan the executor *would* run — join
// order, access paths and estimates, conjunct classification, snapshot
// coordinates — without executing it.
fn explain_json(explain: &QueryExplain) -> String {
    let joins = explain.joins;
    JsonObject::new()
        .bool("cache_hit", explain.cache.is_hit())
        .str("cache", explain.cache.name())
        .str("form", explain.form)
        .u64("version_seq", explain.version_seq)
        .raw("joins", &join_plan_json(joins))
        .u64("join_keys", joins.join_keys() as u64)
        .u64(
            "conjuncts",
            (joins.join_keys() + joins.residual_conjuncts()) as u64,
        )
        .u64("residual_conjuncts", joins.residual_conjuncts() as u64)
        .finish()
}

// ----------------------------------------------------------------------
// Updates
// ----------------------------------------------------------------------

fn update(ctx: &AppContext, request: &Request) -> Response {
    let text = match request.content_type().as_deref() {
        Some(SPARQL_UPDATE) => String::from_utf8_lossy(&request.body).into_owned(),
        Some(FORM) => {
            let form = request.form_params();
            match form.into_iter().find(|(k, _)| k == "update") {
                Some((_, v)) => v,
                None => {
                    return Response::new(
                        400,
                        ERROR_CONTENT_TYPE,
                        protocol_error_body(400, "missing required form field \"update\""),
                    )
                }
            }
        }
        other => {
            return Response::new(
                415,
                ERROR_CONTENT_TYPE,
                protocol_error_body(
                    415,
                    &format!(
                        "unsupported content type {:?}; use {SPARQL_UPDATE} or {FORM}",
                        other.unwrap_or("none")
                    ),
                ),
            )
        }
    };
    ctx.metrics.updates.inc();
    // A request may carry several operations separated by `;`
    // (SPARQL 1.1 update request); the whole request is executed as
    // one atomic write transaction, and the answer is the paper's §6
    // feedback document either way. Every script records its stage
    // times; `?profile=1` prints them as an `X-Profile` header
    // alongside the unchanged feedback body.
    let profiled = request.param("profile").is_some_and(|v| v == "1");
    let (status, feedback, profile) = match ctx.mediator.execute_script(&text, true) {
        Ok((outcomes, profile)) => {
            let operation = match outcomes.as_slice() {
                [only] => only.operation.clone(),
                many => format!("UPDATE SCRIPT ({} operations)", many.len()),
            };
            let statements: usize = outcomes.iter().map(|o| o.statements_executed).sum();
            let rows: usize = outcomes.iter().map(|o| o.rows_affected).sum();
            (
                200,
                Feedback::Success {
                    operation,
                    statements,
                    rows,
                },
                profiled.then_some(profile),
            )
        }
        Err(script_error) => {
            let operation = if script_error.completed.is_empty()
                && matches!(script_error.error, OntoError::Parse { .. })
            {
                "unparsed".to_owned()
            } else {
                format!("operation {}", script_error.operation_index + 1)
            };
            (
                status_for(&script_error.error),
                Feedback::Rejection {
                    operation,
                    error: script_error.error,
                },
                None,
            )
        }
    };
    let response = Response::new(status, wire::TURTLE, feedback.to_turtle());
    match profile {
        Some(p) => response.with_header("X-Profile", &update_profile_json(&p)),
        None => response,
    }
}

// The update `X-Profile` trailer: where a write's wall time went, from
// parse through the covering group fsync.
fn update_profile_json(profile: &UpdateProfile) -> String {
    let micros = |stage: Duration| stage.as_micros() as u64;
    JsonObject::new()
        .u64("parse_micros", micros(profile.parse))
        .u64("translate_micros", micros(profile.translate))
        .u64("sort_micros", micros(profile.sort))
        .u64("execute_micros", micros(profile.execute))
        .u64("wal_append_micros", micros(profile.wal_append))
        .u64("fsync_micros", micros(profile.fsync))
        .u64("operations", profile.operations as u64)
        .finish()
}

// ----------------------------------------------------------------------
// Graph endpoints
// ----------------------------------------------------------------------

fn describe(session: &ReadSession, request: &Request) -> Response {
    let Some(uri) = request.param("uri") else {
        return Response::new(
            400,
            ERROR_CONTENT_TYPE,
            protocol_error_body(400, "missing required parameter \"uri\""),
        );
    };
    let iri = match rdf::Iri::parse(uri) {
        Ok(iri) => iri,
        Err(e) => {
            return Response::new(
                400,
                ERROR_CONTENT_TYPE,
                protocol_error_body(400, &format!("invalid uri parameter: {e}")),
            )
        }
    };
    // Negotiate before touching the database: an unacceptable Accept
    // header must not pay for the (potentially O(database)) read.
    let Some(format) = negotiate_graph_format(request) else {
        return not_acceptable("graph", &[wire::TURTLE, wire::NTRIPLES]);
    };
    match session.describe(&iri) {
        Ok(graph) => graph_response(&graph, session, format),
        Err(error) => mediator_error(&error),
    }
}

fn dump(session: &ReadSession, request: &Request) -> Response {
    let Some(format) = negotiate_graph_format(request) else {
        return not_acceptable("graph", &[wire::TURTLE, wire::NTRIPLES]);
    };
    match session.materialize() {
        Ok(graph) => graph_response(&graph, session, format),
        Err(error) => mediator_error(&error),
    }
}

fn negotiate_graph_format(request: &Request) -> Option<(&'static str, wire::GraphFormat)> {
    wire::negotiate_graph(request.header("accept"))
}

fn graph_response(
    graph: &rdf::Graph,
    session: &ReadSession,
    (content_type, format): (&'static str, wire::GraphFormat),
) -> Response {
    let body = match format {
        wire::GraphFormat::Turtle => wire::graph_to_turtle(graph, session.prefixes()),
        wire::GraphFormat::NTriples => wire::graph_to_ntriples(graph),
    };
    Response::new(200, content_type, body)
}

// ----------------------------------------------------------------------
// Status
// ----------------------------------------------------------------------

fn status(ctx: &AppContext) -> Response {
    let mut tables = String::from("{");
    {
        let db = ctx.mediator.database();
        let mut first = true;
        for table in db.schema().tables() {
            if !first {
                tables.push(',');
            }
            first = false;
            tables.push_str(&wire::json_string(&table.name));
            tables.push(':');
            tables.push_str(&db.row_count(&table.name).unwrap_or(0).to_string());
        }
    }
    tables.push('}');
    let cache = ctx.mediator.query_cache_stats();
    let dict = ctx.mediator.dictionary_stats();
    let conc = ctx.mediator.concurrency_stats();
    let metrics = &ctx.metrics;
    // A view of the trace store, oldest first: the retained slow traces
    // that carry a `query` attribute, i.e. the slow `/sparql` requests.
    let mut traces = obs::trace::store().index();
    traces.reverse();
    let slow_queries = json_array(traces.iter().filter(|t| t.slow).filter_map(|record| {
        let query = record
            .spans
            .first()?
            .attrs
            .iter()
            .find_map(|attr| match attr {
                ("query", AttrValue::Str(query)) => Some(query),
                _ => None,
            })?;
        Some(
            JsonObject::new()
                .str("query", query)
                .u64("micros", record.duration_micros)
                .str("request_id", &record.trace_id)
                .bool("trace_retained", true)
                .u64("at_unix_ms", record.started_unix_ms)
                .finish(),
        )
    }));
    let body = JsonObject::new()
        .str("version", env!("CARGO_PKG_VERSION"))
        .u64("uptime_seconds", ctx.started.elapsed().as_secs())
        .raw("tables", &tables)
        .raw(
            "query_cache",
            &JsonObject::new()
                .u64("entries", cache.entries as u64)
                .u64("shapes", cache.shapes as u64)
                .u64("capacity", cache.capacity as u64)
                .u64("hits", cache.hits)
                .u64("misses", cache.misses)
                .u64("evictions", cache.evictions)
                .finish(),
        )
        .raw(
            "dictionary",
            &JsonObject::new()
                .u64("symbols", dict.symbols)
                .u64("string_bytes", dict.string_bytes)
                .u64("hits", dict.hits)
                .u64("bytes_saved", dict.bytes_saved)
                .finish(),
        )
        .raw(
            "concurrency",
            &JsonObject::new()
                .u64("current_version", conc.current_version)
                .u64("versions_retained", conc.versions_retained as u64)
                .u64("read_sessions_live", conc.read_sessions_live as u64)
                .u64("write_lock_waits", conc.write_lock_waits)
                .u64("write_lock_wait_micros", conc.write_lock_wait_micros)
                .u64("write_retranslations", conc.write_retranslations)
                .finish(),
        )
        .raw("durability", &durability_json(ctx))
        .raw("replication", &replication_json(ctx))
        .raw(
            "server",
            &JsonObject::new()
                .u64("workers", ctx.workers as u64)
                .u64("queue_capacity", ctx.queue_capacity as u64)
                .u64("requests", metrics.requests.get())
                .u64("queries", metrics.queries.get())
                .u64("updates", metrics.updates.get())
                .u64("snapshots", metrics.snapshots.get())
                .u64("overload_rejections", metrics.overload_rejections.get())
                .finish(),
        )
        .raw("slow_queries", &slow_queries)
        .finish();
    Response::new(200, wire::JSON, body)
}

// ----------------------------------------------------------------------
// Metrics exposition
// ----------------------------------------------------------------------

/// Content type of the Prometheus text exposition format.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

// `GET /metrics`: the process-global registry (counters and histograms
// accumulated on the hot paths), then this server's point-in-time state
// read from the mediator's and replicator's `*_stats()` at scrape time.
// Nothing sampled is written back to the registry, so one server's
// families never show on another's scrape.
fn metrics_exposition(ctx: &AppContext) -> Response {
    let mut out = obs::registry().render();
    obs::render_sampled(
        &mut out,
        "ontoaccess_build_info",
        "Constant 1, labeled with the server version",
        "gauge",
        Some(("version", env!("CARGO_PKG_VERSION"))),
        1,
    );
    let mut family = |kind: &str, name: &str, help: &str, value: u64| {
        obs::render_sampled(&mut out, name, help, kind, None, value)
    };
    let uptime = ctx.started.elapsed().as_secs();
    family(
        "gauge",
        "ontoaccess_uptime_seconds",
        "Seconds since server start",
        uptime,
    );
    let cache = ctx.mediator.query_cache_stats();
    family(
        "gauge",
        "ontoaccess_query_cache_entries",
        "Compiled queries currently cached",
        cache.entries as u64,
    );
    family(
        "gauge",
        "ontoaccess_query_cache_shapes",
        "Compiled query shapes the cached queries share",
        cache.shapes as u64,
    );
    family(
        "gauge",
        "ontoaccess_query_cache_capacity",
        "Query cache capacity (entries)",
        cache.capacity as u64,
    );
    family(
        "counter",
        "ontoaccess_query_cache_hits_total",
        "Compiled-query cache lookups answered without compiling (text or shape hit)",
        cache.hits,
    );
    family(
        "counter",
        "ontoaccess_query_cache_misses_total",
        "Compiled-query cache lookups that had to compile",
        cache.misses,
    );
    family(
        "counter",
        "ontoaccess_query_cache_evictions_total",
        "Compiled-query cache entries evicted under capacity pressure",
        cache.evictions,
    );
    let dict = ctx.mediator.dictionary_stats();
    family(
        "gauge",
        "ontoaccess_dictionary_symbols",
        "Interned strings in the process-global dictionary",
        dict.symbols,
    );
    family(
        "gauge",
        "ontoaccess_dictionary_string_bytes",
        "Bytes of unique string payload held by the dictionary",
        dict.string_bytes,
    );
    family(
        "gauge",
        "ontoaccess_dictionary_bytes_saved",
        "Bytes avoided by interning repeated strings",
        dict.bytes_saved,
    );
    let conc = ctx.mediator.concurrency_stats();
    family(
        "gauge",
        "ontoaccess_mvcc_current_version",
        "Sequence number of the currently published database version",
        conc.current_version,
    );
    family(
        "gauge",
        "ontoaccess_mvcc_versions_retained",
        "Database versions retained for live readers",
        conc.versions_retained as u64,
    );
    family(
        "gauge",
        "ontoaccess_mvcc_read_sessions",
        "Read sessions currently live",
        conc.read_sessions_live as u64,
    );
    family(
        "counter",
        "ontoaccess_write_lock_waits_total",
        "Write-lock acquisitions (one per write transaction)",
        conc.write_lock_waits,
    );
    family(
        "counter",
        "ontoaccess_write_retranslations_total",
        "Update operations translated before the write lock that were translated again under it",
        conc.write_retranslations,
    );
    if let Some(d) = ctx.mediator.durability_stats() {
        family(
            "gauge",
            "ontoaccess_wal_size_bytes",
            "Durable WAL size in bytes",
            d.wal_bytes,
        );
        family(
            "gauge",
            "ontoaccess_wal_last_commit_seq",
            "Sequence number of the last durably committed unit",
            d.last_commit_seq,
        );
        family(
            "gauge",
            "ontoaccess_wal_poisoned",
            "1 when the WAL refused further appends after a fault",
            u64::from(d.poisoned),
        );
    }
    if let Some(status) = &ctx.replication {
        let snap = status.snapshot();
        family(
            "gauge",
            "ontoaccess_repl_applied_seq",
            "Last WAL commit unit applied by this replica",
            snap.applied_seq,
        );
        family(
            "gauge",
            "ontoaccess_repl_leader_seq",
            "Leader's durable commit frontier as last observed",
            snap.leader_seq,
        );
        family(
            "gauge",
            "ontoaccess_repl_lag_units",
            "Commit units the replica trails the leader by",
            snap.lag_units,
        );
        family(
            "gauge",
            "ontoaccess_repl_lag_bytes",
            "WAL bytes the replica trails the leader by",
            snap.lag_bytes,
        );
        family(
            "counter",
            "ontoaccess_repl_reconnects_total",
            "Times the follower lost its leader connection and began reconnecting",
            snap.reconnects,
        );
    }
    Response::new(200, METRICS_CONTENT_TYPE, out)
}

// The `/status` replication object: a follower reports its replicator
// handle's view; a durable leader reports itself caught up with its
// own commit frontier; anything else is a standalone server.
fn replication_json(ctx: &AppContext) -> String {
    if let Some(status) = &ctx.replication {
        let snap = status.snapshot();
        return JsonObject::new()
            .str("role", "replica")
            .str("leader", &snap.leader)
            .str("state", snap.state.as_str())
            .u64("applied_seq", snap.applied_seq)
            .u64("leader_seq", snap.leader_seq)
            .u64("lag_units", snap.lag_units)
            .u64("lag_bytes", snap.lag_bytes)
            .opt_u64("last_contact_ms", snap.last_contact_ms)
            .u64("reconnects", snap.reconnects)
            .opt_str("last_error", snap.last_error.as_deref())
            .finish();
    }
    match ctx.mediator.durability_stats() {
        Some(d) => JsonObject::new()
            .str("role", "leader")
            .u64("applied_seq", d.last_commit_seq)
            .u64("leader_seq", d.last_commit_seq)
            .u64("lag_units", 0)
            .u64("lag_bytes", 0)
            .finish(),
        None => JsonObject::new().str("role", "standalone").finish(),
    }
}

// The `/status` durability object: counters when a data directory is
// configured, `{"enabled":false}` otherwise.
fn durability_json(ctx: &AppContext) -> String {
    match ctx.mediator.durability_stats() {
        Some(d) => JsonObject::new()
            .bool("enabled", true)
            .u64("wal_bytes", d.wal_bytes)
            .u64("commits_appended", d.commits_appended)
            .u64("wal_syncs", d.wal_syncs)
            .u64("records_replayed", d.records_replayed)
            .u64("rows_replayed", d.rows_replayed)
            .opt_u64("last_snapshot", d.last_snapshot_seq)
            .u64("last_commit_seq", d.last_commit_seq)
            .bool("poisoned", d.poisoned)
            .finish(),
        None => JsonObject::new().bool("enabled", false).finish(),
    }
}

// ----------------------------------------------------------------------
// Admin checkpoint
// ----------------------------------------------------------------------

// `POST /snapshot`: durably materialize the committed state and
// truncate the WAL. Answers 501 (Unsupported) when the server runs
// without a data directory.
fn snapshot(ctx: &AppContext) -> Response {
    match ctx.mediator.checkpoint() {
        Ok(seq) => {
            ctx.metrics.snapshots.inc();
            let wal_bytes = ctx.mediator.durability_stats().map_or(0, |d| d.wal_bytes);
            Response::new(
                200,
                wire::JSON,
                JsonObject::new()
                    .u64("snapshot_seq", seq)
                    .u64("wal_bytes", wal_bytes)
                    .finish(),
            )
        }
        Err(error) => mediator_error(&error),
    }
}

// ----------------------------------------------------------------------
// Replication (leader side)
// ----------------------------------------------------------------------

/// Media type of the raw WAL/snapshot byte streams.
const OCTET_STREAM: &str = "application/octet-stream";

// Replication coordinates travel as headers on every `/wal` answer, so
// a follower can track the leader's frontier even from an empty
// (caught-up) response.
fn with_position(response: Response, position: &dur::WalPosition) -> Response {
    let response = response
        .with_header("X-Wal-Epoch", &position.epoch.to_string())
        .with_header("X-Wal-Size", &position.durable_bytes.to_string())
        .with_header("X-Leader-Seq", &position.durable_seq.to_string());
    match position.snapshot_seq {
        Some(seq) => response.with_header("X-Snapshot-Seq", &seq.to_string()),
        None => response,
    }
}

// `GET /wal?from=&epoch=&timeout_ms=`: committed WAL bytes starting at
// the absolute offset `from`, provided the follower's `epoch` still
// names the current WAL generation. Caught-up requests long-poll up to
// `timeout_ms` (capped); a stale epoch or out-of-range offset answers
// `409` with the new coordinates in the headers. `501` when this
// server has no WAL to ship (not durable, or itself a replica).
fn wal(ctx: &AppContext, request: &Request) -> Response {
    let (from, epoch) = match (
        request.param("from").and_then(|v| v.parse::<u64>().ok()),
        request.param("epoch").and_then(|v| v.parse::<u64>().ok()),
    ) {
        (Some(from), Some(epoch)) => (from, epoch),
        _ => {
            return Response::new(
                400,
                ERROR_CONTENT_TYPE,
                protocol_error_body(
                    400,
                    "missing or invalid required parameters \"from\" and \"epoch\" (u64)",
                ),
            )
        }
    };
    // The long poll parks one worker; the cap keeps a malicious
    // timeout from parking it for good.
    let timeout_ms = request
        .param("timeout_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .min(25_000);
    match ctx
        .mediator
        .fetch_wal(from, epoch, Duration::from_millis(timeout_ms))
    {
        Ok(dur::WalFetch::Data { bytes, position }) => {
            with_position(Response::new(200, OCTET_STREAM, bytes), &position)
        }
        Ok(dur::WalFetch::CaughtUp { position }) => {
            with_position(Response::new(200, OCTET_STREAM, Vec::new()), &position)
        }
        Ok(dur::WalFetch::Reposition { position }) => with_position(
            Response::new(
                409,
                ERROR_CONTENT_TYPE,
                JsonObject::new()
                    .bool("reposition", true)
                    .u64("epoch", position.epoch)
                    .u64("durable_bytes", position.durable_bytes)
                    .finish(),
            ),
            &position,
        ),
        Err(error) => mediator_error(&error),
    }
}

// `GET /snapshot/latest`: the newest snapshot file, verbatim, for
// replica bootstrap. The WAL epoch always equals the newest snapshot's
// seq, so the same value is served under both header names.
fn snapshot_latest(ctx: &AppContext) -> Response {
    match ctx.mediator.latest_snapshot_bytes() {
        Ok((seq, bytes)) => Response::new(200, OCTET_STREAM, bytes)
            .with_header("X-Snapshot-Seq", &seq.to_string())
            .with_header("X-Wal-Epoch", &seq.to_string()),
        Err(error) => mediator_error(&error),
    }
}

// ----------------------------------------------------------------------
// Traces
// ----------------------------------------------------------------------

// `GET /traces`: the retained-trace index, newest first, with the
// store's occupancy and its memory-bound canary. Entry summaries only;
// follow `trace_id` to `/trace/<id>` for the span tree.
fn traces_index() -> Response {
    let store = obs::trace::store();
    let (priority, sampled) = store.counts();
    let (priority_capacity, sampled_capacity) = store.capacities();
    let traces = json_array(store.index().into_iter().map(|record| {
        JsonObject::new()
            .str("trace_id", &record.trace_id)
            .str("root", record.root)
            .u64("started_unix_ms", record.started_unix_ms)
            .u64("duration_micros", record.duration_micros)
            .bool("error", record.error)
            .bool("slow", record.slow)
            .u64("spans", record.spans.len() as u64)
            .finish()
    }));
    let body = JsonObject::new()
        .u64("priority", priority as u64)
        .u64("sampled", sampled as u64)
        .u64("priority_capacity", priority_capacity as u64)
        .u64("sampled_capacity", sampled_capacity as u64)
        .u64("spans_held", store.spans_held())
        .raw("traces", &traces)
        .finish();
    Response::new(200, wire::JSON, body)
}

// `GET /trace/<request-id>`: the span tree of one retained trace. A
// miss is a plain 404 — the id may never have been traced, or its
// trace was ring-sampled away (only error/slow traces are pinned).
fn trace_detail(path: &str) -> Response {
    let id = &path["/trace/".len()..];
    match obs::trace::store().get(id) {
        Some(record) => Response::new(200, wire::JSON, trace_json(&record)),
        None => Response::new(
            404,
            ERROR_CONTENT_TYPE,
            protocol_error_body(
                404,
                &format!("no retained trace {id:?} (traces are tail-sampled; see /traces)"),
            ),
        ),
    }
}

// One trace as JSON: the record header plus its spans in recording
// order. The tree is encoded by `parent` span ids (`null` on the
// root); offsets are microseconds from the trace start.
fn trace_json(record: &obs::trace::TraceRecord) -> String {
    let spans = json_array(record.spans.iter().map(|span| {
        JsonObject::new()
            .u64("id", u64::from(span.id))
            .opt_u64("parent", span.parent.map(u64::from))
            .str("name", span.name)
            .u64("start_micros", span.start_micros)
            .u64("end_micros", span.end_micros)
            .raw("attrs", &span_attrs_json(&span.attrs))
            .finish()
    }));
    JsonObject::new()
        .str("trace_id", &record.trace_id)
        .str("root", record.root)
        .u64("started_unix_ms", record.started_unix_ms)
        .u64("duration_micros", record.duration_micros)
        .bool("error", record.error)
        .bool("slow", record.slow)
        .u64("spans_dropped", record.spans_dropped)
        .raw("spans", &spans)
        .finish()
}

fn span_attrs_json(attrs: &[(&'static str, obs::trace::AttrValue)]) -> String {
    let mut object = JsonObject::new();
    for (key, value) in attrs {
        object = match value {
            obs::trace::AttrValue::U64(v) => object.u64(key, *v),
            obs::trace::AttrValue::Str(v) => object.str(key, v),
            obs::trace::AttrValue::Bool(v) => object.bool(key, *v),
        };
    }
    object.finish()
}

// ----------------------------------------------------------------------
// Shared error shapes
// ----------------------------------------------------------------------

fn mediator_error(error: &OntoError) -> Response {
    Response::new(status_for(error), ERROR_CONTENT_TYPE, error_body(error))
}

fn not_acceptable(kind: &str, offers: &[&str]) -> Response {
    Response::new(
        406,
        ERROR_CONTENT_TYPE,
        protocol_error_body(
            406,
            &format!(
                "no acceptable {kind} representation; offered: {}",
                offers.join(", ")
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_attr_keeps_200_chars_then_elides() {
        let long = "é".repeat(QUERY_ATTR_CHARS + 50);
        let kept = query_attr(&long);
        assert_eq!(kept.chars().count(), QUERY_ATTR_CHARS + 1);
        assert!(kept.ends_with('…'));
        let exact = "x".repeat(QUERY_ATTR_CHARS);
        assert!(matches!(query_attr(&exact), Cow::Borrowed(text) if text == exact));
    }
}
