//! Observability integration tests: the `/metrics` Prometheus
//! exposition (validated with the fixtures' format checker), per-query
//! profiling (`?profile=1` → `X-Profile`), request-id propagation,
//! the slow-query view of the trace store on `/status`, the trace
//! endpoints (`/trace/<id>`, `/traces`), `?explain=1`, and update
//! profiling.

use fixtures::http_probe::{one_shot, urlencode, ProbeResponse};
use ontoaccess_server::{serve, ServerConfig, ServerHandle};
use std::time::Duration;

fn send(server: &ServerHandle, raw: &str) -> ProbeResponse {
    one_shot(server.addr(), raw).expect("request against the test server")
}

fn get(server: &ServerHandle, target: &str) -> ProbeResponse {
    send(
        server,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn test_server(slow_query_ms: u64) -> ServerHandle {
    serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            keep_alive_timeout: Duration::from_millis(500),
            slow_query_ms,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

const PERSONS: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                       SELECT ?x WHERE { ?x a foaf:Person . }";

const JOIN_QUERY: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                          PREFIX ont: <http://example.org/ontology#>\n\
                          SELECT ?n ?c WHERE { ?x a foaf:Person . \
                          ?x foaf:family_name ?n . ?x ont:team ?t . \
                          ?t ont:teamCode ?c . }";

// ----------------------------------------------------------------------
// /metrics exposition
// ----------------------------------------------------------------------

#[test]
fn metrics_expose_valid_prometheus_text_across_layers() {
    let server = test_server(250);
    // Drive some traffic so the interesting series exist.
    for _ in 0..3 {
        let q = get(&server, &format!("/sparql?query={}", urlencode(PERSONS)));
        assert_eq!(q.status, 200);
    }
    let update = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ont: <http://example.org/ontology#>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:team9 foaf:name \"Obs\" ; ont:teamCode \"OBS\" . }";
    let response = send(
        &server,
        &format!(
            "POST /update HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{update}",
            update.len()
        ),
    );
    assert_eq!(response.status, 200);

    let metrics = get(&server, "/metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = metrics.text();
    let exposition = fixtures::prom::validate(&text)
        .unwrap_or_else(|e| panic!("/metrics must be valid exposition: {e}\n{text}"));

    // One stable name per instrumented layer, histograms included.
    for name in [
        // server
        "ontoaccess_http_requests_total",
        "ontoaccess_http_queries_total",
        "ontoaccess_http_in_flight_requests",
        "ontoaccess_pool_queue_depth",
        // core
        "ontoaccess_query_parse_seconds_count",
        "ontoaccess_query_execute_seconds_sum",
        "ontoaccess_query_cache_hits_total",
        "ontoaccess_txn_commit_seconds_count",
        "ontoaccess_query_cache_entries",
        // sampled gauges
        "ontoaccess_dictionary_symbols",
        "ontoaccess_mvcc_current_version",
        "ontoaccess_build_info",
    ] {
        assert!(exposition.has(name), "missing {name} in:\n{text}");
    }
    // Totals are counters, wherever their one store is.
    for name in [
        "ontoaccess_query_cache_hits_total",
        "ontoaccess_query_cache_misses_total",
        "ontoaccess_query_cache_evictions_total",
        "ontoaccess_write_lock_waits_total",
        "ontoaccess_write_retranslations_total",
        "ontoaccess_http_requests_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} counter\n")),
            "{name} is a counter in:\n{text}"
        );
    }
    // The per-endpoint histogram carries the endpoint label.
    let by_endpoint = exposition.series("ontoaccess_http_request_seconds_count");
    assert!(
        by_endpoint
            .iter()
            .any(|s| s.label("endpoint") == Some("/sparql") && s.value >= 3.0),
        "per-endpoint latency series in:\n{text}"
    );
    server.shutdown();
}

#[test]
fn sampled_state_does_not_leak_between_servers() {
    // Point-in-time state is read from each server's own mediator at
    // scrape time: a durable server's WAL families must not show up on
    // a plain server in the same process.
    let dir = fixtures::scratch_dir("obs-leak");
    let (durable, _) =
        ontoaccess::Mediator::open_durable(&dir, fixtures::database(), fixtures::mapping())
            .expect("open durable mediator");
    let durable = serve(durable, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let plain = test_server(250);
    let durable_text = get(&durable, "/metrics").text();
    assert!(
        durable_text.contains("ontoaccess_wal_size_bytes"),
        "{durable_text}"
    );
    let plain_text = get(&plain, "/metrics").text();
    fixtures::prom::validate(&plain_text).unwrap_or_else(|e| panic!("{e}\n{plain_text}"));
    assert!(
        !plain_text.contains("ontoaccess_wal_size_bytes"),
        "a plain server shows another server's WAL:\n{plain_text}"
    );
    durable.shutdown();
    plain.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------------
// ?profile=1
// ----------------------------------------------------------------------

#[test]
fn profile_param_returns_plan_and_stage_timings() {
    let server = test_server(250);
    let target = format!("/sparql?query={}&profile=1", urlencode(JOIN_QUERY));
    let first = get(&server, &target);
    assert_eq!(first.status, 200);
    let profile = first.header("x-profile").expect("X-Profile on first run");
    assert!(
        profile.contains("\"cache_hit\":false"),
        "first run compiles: {profile}"
    );
    for key in [
        "\"parse_micros\":",
        "\"plan_micros\":",
        "\"execute_micros\":",
        "\"rows\":",
        "\"joins\":[",
        "\"access\":",
        "\"estimate\":",
        "\"join_keys\":",
        "\"residual_conjuncts\":",
    ] {
        assert!(profile.contains(key), "{key} in {profile}");
    }
    // The three-join query plans real join work.
    assert!(
        profile.contains("\"table\":"),
        "join targets named: {profile}"
    );

    let second = get(&server, &target);
    let profile = second.header("x-profile").expect("X-Profile on rerun");
    assert!(
        profile.contains("\"cache_hit\":true"),
        "second run hits the cache: {profile}"
    );
    // A plain query is unaffected.
    let plain = get(&server, &format!("/sparql?query={}", urlencode(PERSONS)));
    assert_eq!(plain.status, 200);
    assert!(plain.header("x-profile").is_none());
    server.shutdown();
}

#[test]
fn a_new_text_of_a_cached_shape_says_so_and_binds_instead_of_planning() {
    // Threshold 0 retains both traces.
    let server = test_server(0);
    let point = |author: u32| {
        format!(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?n WHERE {{ <http://example.org/db/author{author}> foaf:family_name ?n . }}"
        )
    };
    let mut profiles = Vec::new();
    for (author, id) in [(6, "shape-first"), (7, "shape-second")] {
        let response = send(
            &server,
            &format!(
                "GET /sparql?query={}&profile=1 HTTP/1.1\r\nHost: t\r\n\
                 X-Request-Id: {id}\r\nConnection: close\r\n\r\n",
                urlencode(&point(author))
            ),
        );
        assert_eq!(response.status, 200);
        profiles.push(response.header("x-profile").expect("X-Profile").to_owned());
    }
    assert!(
        profiles[0].contains("\"cache\":\"compile\""),
        "{}",
        profiles[0]
    );
    let second = &profiles[1];
    for key in [
        "\"cache_hit\":true",
        "\"cache\":\"shape\"",
        "\"plan_micros\":0",
    ] {
        assert!(second.contains(key), "{key} in {second}");
    }
    // The second trace binds and never plans; its bind stage is the
    // span's duration.
    let trace = get(&server, "/trace/shape-second").text();
    let (bind, _) = span_of(&trace, "query.bind");
    assert!(
        u64_after(second, "\"bind_micros\":").abs_diff(bind) <= 1,
        "{second} {trace}"
    );
    assert!(!trace.contains("\"name\":\"query.plan\""), "{trace}");
    // The explain surface reports the probe too, and /status the shape.
    let explained = get(
        &server,
        &format!("/sparql?query={}&explain=1", urlencode(&point(5))),
    );
    assert!(
        explained.text().contains("\"cache\":\"shape\""),
        "{}",
        explained.text()
    );
    let status = get(&server, "/status").text();
    assert!(status.contains("\"shapes\":1"), "{status}");
    server.shutdown();
}

// ----------------------------------------------------------------------
// X-Request-Id
// ----------------------------------------------------------------------

#[test]
fn request_ids_are_echoed_or_generated_and_attached_to_errors() {
    let server = test_server(250);
    // Inbound ids within the allowed alphabet flow through.
    let response = send(
        &server,
        "GET /status HTTP/1.1\r\nHost: t\r\nX-Request-Id: trace-42.a\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response.header("x-request-id"), Some("trace-42.a"));
    // Absent (or unusable) ids get a generated one.
    let response = get(&server, "/status");
    let generated = response.header("x-request-id").expect("generated id");
    assert!(!generated.is_empty());
    let response = send(
        &server,
        "GET /status HTTP/1.1\r\nHost: t\r\nX-Request-Id: bad id!\r\nConnection: close\r\n\r\n",
    );
    let replaced = response.header("x-request-id").expect("replacement id");
    assert_ne!(replaced, "bad id!");
    // JSON error bodies lead with the request id.
    let error = send(
        &server,
        "GET /nowhere HTTP/1.1\r\nHost: t\r\nX-Request-Id: err-7\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(error.status, 404);
    assert_eq!(error.header("x-request-id"), Some("err-7"));
    let text = error.text();
    assert!(
        text.starts_with("{\"request_id\":\"err-7\","),
        "id leads the error body: {text}"
    );
    assert!(text.contains("\"error\":{"), "error object kept: {text}");
    server.shutdown();
}

// ----------------------------------------------------------------------
// Slow queries: a view of the trace store
// ----------------------------------------------------------------------

// The `slow_queries` entry of `/status` naming `request_id`.
fn slow_entry<'a>(status: &'a str, request_id: &str) -> Option<&'a str> {
    let at = status.find(&format!("\"request_id\":\"{request_id}\""))?;
    let start = status[..at].rfind("{\"query\":")?;
    Some(&status[start..at + status[at..].find('}')? + 1])
}

#[test]
fn slow_ring_entries_link_to_retained_traces() {
    // Threshold 0: the query is "slow", so its trace is pinned to the
    // priority ring and `/status` lists it by request id.
    let server = test_server(0);
    let response = send(
        &server,
        &format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\
             X-Request-Id: slow-link-1\r\nConnection: close\r\n\r\n",
            urlencode(PERSONS)
        ),
    );
    assert_eq!(response.status, 200);
    let status = get(&server, "/status").text();
    let entry = slow_entry(&status, "slow-link-1")
        .unwrap_or_else(|| panic!("entry names the request id: {status}"));
    for key in ["\"micros\":", "\"trace_retained\":true", "\"at_unix_ms\":"] {
        assert!(entry.contains(key), "{key} in {entry}");
    }
    // The id resolves on the trace endpoint.
    let trace = get(&server, "/trace/slow-link-1");
    assert_eq!(trace.status, 200);
    assert!(trace.text().contains("\"trace_id\":\"slow-link-1\""));
    server.shutdown();
}

#[test]
fn slow_query_log_is_bounded_and_surfaced_on_status() {
    // Threshold 0: every query is "slow". The list is bounded by the
    // trace store's priority ring, which every test in this binary
    // shares, so no exact count is asserted.
    let server = test_server(0);
    for i in 0..40 {
        let query = format!(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?x{i} WHERE {{ ?x{i} a foaf:Person . }}"
        );
        let response = get(&server, &format!("/sparql?query={}", urlencode(&query)));
        assert_eq!(response.status, 200);
    }
    // Read through a server whose own requests are not slow, so the
    // lookups below do not evict what they look up.
    let reader = test_server(250);
    let status = get(&reader, "/status");
    assert_eq!(status.status, 200);
    let text = status.text();
    let capacity = u64_after(&get(&reader, "/traces").text(), "\"priority_capacity\":");
    let ids: Vec<&str> = text
        .split("\"request_id\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    assert!(
        !ids.is_empty() && ids.len() as u64 <= capacity,
        "{} entries, priority capacity {capacity}: {text}",
        ids.len()
    );
    assert!(text.contains("?x39"), "newest retained: {text}");
    for id in ids {
        if get(&reader, &format!("/trace/{id}")).status != 200 {
            // Another test's slow traffic evicted it since: then the
            // view no longer lists it either.
            let now = get(&reader, "/status").text();
            assert!(slow_entry(&now, id).is_none(), "{id} listed, not retained");
        }
    }
    reader.shutdown();
    server.shutdown();
}

#[test]
fn posted_slow_query_text_is_on_status_and_in_its_trace() {
    let server = test_server(0);
    let query = "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?posted WHERE { ?posted a foaf:Person . }";
    let response = send(
        &server,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\
             X-Request-Id: slow-post-1\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    );
    assert_eq!(response.status, 200);
    let attr = format!("\"query\":\"{query}\"");
    let status = get(&server, "/status").text();
    let entry = slow_entry(&status, "slow-post-1").unwrap_or_else(|| panic!("{status}"));
    assert!(entry.contains(&attr), "{entry}");
    // The entry is the root span's attribute, read back.
    let trace = get(&server, "/trace/slow-post-1").text();
    let root = &trace[trace.find("\"name\":\"request\"").expect("root span")..];
    assert!(root.contains("\"attrs\":{\"method\":\"POST\""), "{trace}");
    assert!(root.contains(&attr), "{trace}");
    server.shutdown();
}

#[test]
fn a_slow_status_request_is_retained_but_not_a_slow_query() {
    let server = test_server(0);
    let slow = send(
        &server,
        "GET /status HTTP/1.1\r\nHost: t\r\nX-Request-Id: slow-status-1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(slow.status, 200);
    let trace = get(&server, "/trace/slow-status-1").text();
    assert!(trace.contains("\"slow\":true"), "{trace}");
    let status = get(&server, "/status").text();
    assert!(!status.contains("slow-status-1"), "{status}");
    server.shutdown();
}

// ----------------------------------------------------------------------
// Trace endpoints
// ----------------------------------------------------------------------

#[test]
fn trace_endpoint_returns_the_span_tree_of_a_slow_query() {
    // Threshold 0: the request is tail-classified slow, so its trace
    // lands in the priority ring and `/trace/<id>` must resolve it.
    let server = test_server(0);
    let response = send(
        &server,
        &format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\
             X-Request-Id: traced-join-1\r\nConnection: close\r\n\r\n",
            urlencode(JOIN_QUERY)
        ),
    );
    assert_eq!(response.status, 200);

    let trace = get(&server, "/trace/traced-join-1");
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("content-type"), Some("application/json"));
    let text = trace.text();
    // Record header: keyed by the request id, classified slow.
    assert!(text.contains("\"trace_id\":\"traced-join-1\""), "{text}");
    assert!(text.contains("\"root\":\"request\""), "{text}");
    assert!(text.contains("\"slow\":true"), "{text}");
    // The span tree crosses the server layer into core: the root
    // request span parents the query pipeline, joins included.
    for span in [
        "\"name\":\"query.parse\"",
        "\"name\":\"query.plan\"",
        "\"name\":\"query.execute\"",
        "\"name\":\"query.join\"",
    ] {
        assert!(text.contains(span), "{span} in {text}");
    }
    assert!(
        text.contains("\"parent\":null") && text.contains("\"parent\":0"),
        "root is parentless, top-level spans parent to it: {text}"
    );
    // Every join span is one plan level: its access path and estimate.
    let joins: Vec<&str> = text
        .split("\"name\":\"query.join\"")
        .skip(1)
        .map(|span| &span[..span.find('}').expect("attrs close")])
        .collect();
    assert!(!joins.is_empty(), "{text}");
    for span in joins {
        for key in ["\"access\":", "\"estimate\":"] {
            assert!(span.contains(key), "{key} in join span {span}");
        }
    }

    // The index lists it, with store occupancy and the span canary.
    let index = get(&server, "/traces");
    assert_eq!(index.status, 200);
    let text = index.text();
    assert!(text.contains("\"trace_id\":\"traced-join-1\""), "{text}");
    for key in [
        "\"priority\":",
        "\"sampled\":",
        "\"spans_held\":",
        "\"traces\":[",
    ] {
        assert!(text.contains(key), "{key} in {text}");
    }

    // Unknown ids answer a JSON 404.
    let missing = get(&server, "/trace/never-seen");
    assert_eq!(missing.status, 404);
    server.shutdown();
}

// The first unsigned integer after `key` in `text`.
fn u64_after(text: &str, key: &str) -> u64 {
    let digits = &text[text.find(key).unwrap_or_else(|| panic!("{key} in {text}")) + key.len()..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
    digits[..end].parse().unwrap()
}

// `(duration_micros, attrs object)` of the first span called `name` in
// a `/trace/<id>` body.
fn span_of<'a>(trace: &'a str, name: &str) -> (u64, &'a str) {
    let span = &trace[trace
        .find(&format!("\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("span {name} in {trace}"))..];
    let duration = u64_after(span, "\"end_micros\":") - u64_after(span, "\"start_micros\":");
    let attrs = &span[span.find("\"attrs\":").unwrap()..];
    (duration, &attrs[..=attrs.find('}').unwrap()])
}

#[test]
fn profiled_request_records_the_same_trace_as_a_plain_one() {
    // Threshold 0 pins both traces to the priority ring.
    let server = test_server(0);
    let traced_get = |target: &str, id: &str| {
        let response = send(
            &server,
            &format!(
                "GET {target} HTTP/1.1\r\nHost: t\r\nX-Request-Id: {id}\r\nConnection: close\r\n\r\n"
            ),
        );
        assert_eq!(response.status, 200);
        let trace = get(&server, &format!("/trace/{id}"));
        assert_eq!(trace.status, 200);
        (response, trace.text())
    };
    let target = format!("/sparql?query={}", urlencode(JOIN_QUERY));
    // Profiled first, so its trace has the cache-miss stages too.
    let (profiled, profiled_trace) = traced_get(&format!("{target}&profile=1"), "drift-profiled");
    let (_, plain_trace) = traced_get(&target, "drift-plain");

    // One pipeline: `?profile=1` cannot lose span attributes.
    let (_, profiled_attrs) = span_of(&profiled_trace, "query.execute");
    let (_, plain_attrs) = span_of(&plain_trace, "query.execute");
    assert_eq!(profiled_attrs, plain_attrs);
    for key in ["\"version_seq\":", "\"rows\":"] {
        assert!(profiled_attrs.contains(key), "{key} in {profiled_attrs}");
    }

    // One clock: each X-Profile stage is its span's duration (start and
    // end offsets truncate to whole micros independently, hence ±1).
    let profile = profiled.header("x-profile").expect("X-Profile");
    for stage in ["parse", "plan", "bind", "execute"] {
        let reported = u64_after(profile, &format!("\"{stage}_micros\":"));
        let (recorded, _) = span_of(&profiled_trace, &format!("query.{stage}"));
        assert!(
            reported.abs_diff(recorded) <= 1,
            "{stage}: X-Profile {reported} vs span {recorded}"
        );
    }
    server.shutdown();
}

#[test]
fn serializer_span_records_the_rows_and_bytes_it_wrote() {
    let server = test_server(0);
    for (accept, id) in [
        ("application/sparql-results+json", "serialize-json"),
        ("application/sparql-results+xml", "serialize-xml"),
    ] {
        let response = send(
            &server,
            &format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\n\
                 X-Request-Id: {id}\r\nConnection: close\r\n\r\n",
                urlencode(JOIN_QUERY)
            ),
        );
        assert_eq!(response.status, 200);
        let trace = get(&server, &format!("/trace/{id}")).text();
        let (_, attrs) = span_of(&trace, "wire.serialize");
        let rows = u64_after(attrs, "\"rows\":");
        // The same rows the executor returned, one binding each in the
        // body, and exactly the body's bytes.
        let (_, executed) = span_of(&trace, "query.execute");
        assert_eq!(rows, u64_after(executed, "\"rows\":"), "{trace}");
        let text = response.text();
        let bindings = text.matches("\"n\":{").count() + text.matches("<result>").count();
        assert_eq!(rows, bindings as u64, "{text}");
        assert_eq!(rows, 2);
        assert_eq!(u64_after(attrs, "\"bytes\":"), response.body.len() as u64);
        // A child of the request root, beside the query stages.
        let name_at = trace.find("\"name\":\"wire.serialize\"").unwrap();
        let span = &trace[trace[..name_at].rfind("{\"id\":").unwrap()..];
        assert_eq!(u64_after(span, "\"parent\":"), 0, "{span}");
    }
    server.shutdown();
}

// ----------------------------------------------------------------------
// ?explain=1
// ----------------------------------------------------------------------

#[test]
fn explain_matches_the_profiled_join_plan_without_executing() {
    let server = test_server(250);
    let profile_target = format!("/sparql?query={}&profile=1", urlencode(JOIN_QUERY));
    // First run compiles against a snapshot pinned before the join
    // indexes were provisioned; the steady state (cache hit, fresh
    // pin) is what EXPLAIN must match byte for byte.
    assert_eq!(get(&server, &profile_target).status, 200);
    let profiled = get(&server, &profile_target);
    assert_eq!(profiled.status, 200);
    let profile = profiled.header("x-profile").expect("X-Profile").to_owned();

    let explained = get(
        &server,
        &format!("/sparql?query={}&explain=1", urlencode(JOIN_QUERY)),
    );
    assert_eq!(explained.status, 200);
    assert_eq!(explained.header("content-type"), Some("application/json"));
    let body = explained.text();
    assert!(body.contains("\"form\":\"select\""), "{body}");
    assert!(body.contains("\"cache_hit\":true"), "{body}");
    for key in [
        "\"version_seq\":",
        "\"join_keys\":",
        "\"conjuncts\":",
        "\"residual_conjuncts\":",
    ] {
        assert!(body.contains(key), "{key} in {body}");
    }
    // No execution: EXPLAIN reports the plan, never row data.
    assert!(
        !body.contains("\"rows\""),
        "explain must not execute: {body}"
    );

    // The joins array — join order, index selections — is the same
    // bytes on both surfaces (shared renderer over the shared plan
    // computation).
    let joins_of = |s: &str| {
        let start = s.find("\"joins\":[").expect("joins array");
        let end = s[start..].find(']').expect("closed array");
        s[start..start + end + 1].to_owned()
    };
    assert_eq!(
        joins_of(&body),
        joins_of(&profile),
        "explain joins must be byte-identical to the profiled plan"
    );
    server.shutdown();
}

#[test]
fn explain_starts_a_constant_join_from_the_constant() {
    // The benchmark's join shape over generated data: the constant
    // publication leads and every other level is an index probe — no
    // scan of the teams, no hash table over the link table.
    let db = fixtures::data::populated_database(200, 7);
    let server = serve(
        ontoaccess::Mediator::new(db, fixtures::mapping()).expect("mapping is valid"),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let query = fixtures::workload::with_prefixes(&format!(
        "SELECT ?last ?code WHERE {{ ex:pub{} dc:creator ?a . \
         ?a foaf:family_name ?last ; ont:team ?t . ?t ont:teamCode ?code }}",
        fixtures::data::ID_BASE + 3
    ));
    let explained = get(
        &server,
        &format!("/sparql?query={}&explain=1", urlencode(&query)),
    );
    assert_eq!(explained.status, 200);
    let body = explained.text();
    let joins = &body[body.find("\"joins\":[").expect("joins array")..];
    let levels: Vec<&str> = joins[..joins.find(']').expect("closed array")]
        .split("},{")
        .collect();
    assert_eq!(levels.len(), 4, "{body}");
    for key in ["\"table\":\"publication\"", "\"access\":\"restricted\""] {
        assert!(levels[0].contains(key), "level 0 has {key}: {body}");
    }
    assert!(!body.contains("\"hash_join\""), "{body}");
    assert!(
        !body.contains("\"rows\""),
        "explain must not execute: {body}"
    );
    server.shutdown();
}

// ----------------------------------------------------------------------
// Update ?profile=1
// ----------------------------------------------------------------------

#[test]
fn update_profile_param_returns_stage_timings() {
    let server = test_server(250);
    let update = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ont: <http://example.org/ontology#>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:team8 foaf:name \"Profiled\" ; ont:teamCode \"PRF\" . }";
    let response = send(
        &server,
        &format!(
            "POST /update?profile=1 HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{update}",
            update.len()
        ),
    );
    assert_eq!(response.status, 200);
    let profile = response.header("x-profile").expect("X-Profile on update");
    for key in [
        "\"parse_micros\":",
        "\"translate_micros\":",
        "\"sort_micros\":",
        "\"execute_micros\":",
        "\"wal_append_micros\":",
        "\"fsync_micros\":",
        "\"operations\":1",
    ] {
        assert!(profile.contains(key), "{key} in {profile}");
    }
    // The feedback document still answers the body.
    assert!(
        response.text().contains("Confirmation"),
        "feedback body kept"
    );

    // A plain update is unaffected.
    let update2 = update.replace("team8", "team7").replace("PRF", "PR7");
    let plain = send(
        &server,
        &format!(
            "POST /update HTTP/1.1\r\nHost: t\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{update2}",
            update2.len()
        ),
    );
    assert_eq!(plain.status, 200);
    assert!(plain.header("x-profile").is_none());
    server.shutdown();
}
