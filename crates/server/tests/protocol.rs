//! SPARQL Protocol integration tests over loopback: a real server on
//! an ephemeral port, the shared raw-socket probe client
//! ([`fixtures::http_probe`]), and one test per protocol behavior —
//! request forms, content negotiation, error statuses, limits, and
//! keep-alive.

use fixtures::http_probe::{one_shot, urlencode, ProbeConn, ProbeResponse};
use ontoaccess_server::{serve, wire, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::time::Duration;

fn connect(server: &ServerHandle) -> ProbeConn {
    ProbeConn::connect(server.addr()).expect("connect to test server")
}

// One-shot request; `raw` must include the blank line and any body.
fn send(server: &ServerHandle, raw: &str) -> ProbeResponse {
    one_shot(server.addr(), raw).expect("request against the test server")
}

fn get(server: &ServerHandle, target: &str, accept: Option<&str>) -> ProbeResponse {
    let accept_line = accept
        .map(|a| format!("Accept: {a}\r\n"))
        .unwrap_or_default();
    send(
        server,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\n{accept_line}Connection: close\r\n\r\n"),
    )
}

fn post(server: &ServerHandle, target: &str, content_type: &str, body: &str) -> ProbeResponse {
    send(
        server,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn test_server() -> ServerHandle {
    serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

const PERSONS: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                       SELECT ?x WHERE { ?x a foaf:Person . }";

// ----------------------------------------------------------------------
// Queries
// ----------------------------------------------------------------------

#[test]
fn get_query_answers_sparql_json() {
    let server = test_server();
    let response = get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        None,
    );
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("application/sparql-results+json")
    );
    let text = response.text();
    assert!(text.contains("\"vars\":[\"x\"]"), "head in {text}");
    assert!(text.contains("http://example.org/db/author6"));
    assert!(text.contains("http://example.org/db/author7"));
    server.shutdown();
}

#[test]
fn accept_header_switches_to_xml_results() {
    let server = test_server();
    let response = get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        Some("application/sparql-results+xml"),
    );
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("application/sparql-results+xml")
    );
    assert!(response
        .text()
        .contains("<uri>http://example.org/db/author6</uri>"));
    server.shutdown();
}

#[test]
fn post_query_as_raw_body_and_as_form() {
    let server = test_server();
    let raw = post(&server, "/sparql", "application/sparql-query", PERSONS);
    assert_eq!(raw.status, 200);
    assert!(raw.text().contains("author6"));
    let form = post(
        &server,
        "/sparql",
        "application/x-www-form-urlencoded",
        &format!("query={}", urlencode(PERSONS)),
    );
    assert_eq!(form.status, 200);
    assert!(form.text().contains("author6"));
    server.shutdown();
}

#[test]
fn ask_query_answers_boolean_documents() {
    let server = test_server();
    let ask = "PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x a foaf:Person . }";
    let json = get(&server, &format!("/sparql?query={}", urlencode(ask)), None);
    assert_eq!(json.text(), "{\"head\":{},\"boolean\":true}");
    let xml = get(
        &server,
        &format!("/sparql?query={}", urlencode(ask)),
        Some("text/xml"),
    );
    assert!(xml.text().contains("<boolean>true</boolean>"));
    server.shutdown();
}

#[test]
fn query_protocol_errors() {
    let server = test_server();
    // Missing parameter.
    assert_eq!(get(&server, "/sparql", None).status, 400);
    // Unparseable query → mediator parse error → 400 with JSON body.
    let bad = get(
        &server,
        &format!("/sparql?query={}", urlencode("NONSENSE")),
        None,
    );
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("\"code\":\"ParseError\""));
    // Unsupported POST content type.
    assert_eq!(post(&server, "/sparql", "text/csv", "x").status, 415);
    // No acceptable representation.
    let unacceptable = get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        Some("image/png"),
    );
    assert_eq!(unacceptable.status, 406);
    server.shutdown();
}

// ----------------------------------------------------------------------
// Updates
// ----------------------------------------------------------------------

const INSERT_GALL: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                           PREFIX ex: <http://example.org/db/>\n\
                           INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }";

#[test]
fn update_answers_rdf_feedback_and_takes_effect() {
    let server = test_server();
    let response = post(&server, "/update", "application/sparql-update", INSERT_GALL);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("text/turtle"));
    let feedback = response.text();
    assert!(feedback.contains("fb:Confirmation"), "feedback: {feedback}");
    assert!(feedback.contains("INSERT DATA"));
    assert!(feedback.contains("fb:rowsAffected"));
    // The §6 feedback document is valid RDF.
    assert!(!rdf::turtle::parse(&feedback).unwrap().is_empty());
    // And the write is visible to a subsequent query.
    let check = get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        None,
    );
    assert!(check.text().contains("author8"));
    server.shutdown();
}

#[test]
fn update_as_form_field_works() {
    let server = test_server();
    let response = post(
        &server,
        "/update",
        "application/x-www-form-urlencoded",
        &format!("update={}", urlencode(INSERT_GALL)),
    );
    assert_eq!(response.status, 200);
    assert!(response.text().contains("fb:Confirmation"));
    server.shutdown();
}

#[test]
fn rejected_update_maps_status_and_keeps_feedback_body() {
    let server = test_server();
    // Dangling object → 409 Conflict, RDF rejection document.
    let dangling = "PREFIX ont: <http://example.org/ontology#>\n\
                    PREFIX ex: <http://example.org/db/>\n\
                    INSERT DATA { ex:author6 ont:team ex:team424242 . }";
    let response = post(&server, "/update", "application/sparql-update", dangling);
    assert_eq!(response.status, 409);
    assert_eq!(response.header("content-type"), Some("text/turtle"));
    let feedback = response.text();
    assert!(feedback.contains("fb:Rejection"));
    assert!(feedback.contains("DanglingObject"));
    // Parse failure → 400.
    let parse = post(
        &server,
        "/update",
        "application/sparql-update",
        "NOT SPARQL",
    );
    assert_eq!(parse.status, 400);
    assert!(parse.text().contains("fb:Rejection"));
    // Unknown property → 422.
    let unknown = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                   PREFIX ex: <http://example.org/db/>\n\
                   INSERT DATA { ex:author6 foaf:nick \"h\" . }";
    let response = post(&server, "/update", "application/sparql-update", unknown);
    assert_eq!(response.status, 422);
    server.shutdown();
}

#[test]
fn multi_operation_update_script_is_atomic() {
    let server = test_server();
    let script = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ont: <http://example.org/ontology#>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:team9 foaf:name \"T9\" ; ont:teamCode \"C9\" . } ;\n\
                  INSERT DATA { ex:author6 ont:team ex:team424242 . }";
    let response = post(&server, "/update", "application/sparql-update", script);
    assert_eq!(response.status, 409, "second operation fails the script");
    // The first operation rolled back with it.
    let q = "PREFIX ont: <http://example.org/ontology#>\n\
             SELECT ?t WHERE { ?t ont:teamCode \"C9\" . }";
    let check = get(&server, &format!("/sparql?query={}", urlencode(q)), None);
    assert!(check.text().contains("\"bindings\":[]"), "{}", check.text());
    server.shutdown();
}

// ----------------------------------------------------------------------
// Graph endpoints and status
// ----------------------------------------------------------------------

#[test]
fn describe_negotiates_turtle_and_ntriples() {
    let server = test_server();
    let uri = "http://example.org/db/author6";
    let turtle = get(&server, &format!("/describe?uri={}", urlencode(uri)), None);
    assert_eq!(turtle.status, 200);
    assert_eq!(turtle.header("content-type"), Some("text/turtle"));
    assert!(!rdf::turtle::parse(&turtle.text()).unwrap().is_empty());
    let nt = get(
        &server,
        &format!("/describe?uri={}", urlencode(uri)),
        Some("application/n-triples"),
    );
    assert_eq!(nt.header("content-type"), Some("application/n-triples"));
    assert!(!rdf::ntriples::parse(&nt.text()).unwrap().is_empty());
    // Unmapped URI → 422; invalid URI → 400.
    assert_eq!(
        get(
            &server,
            &format!("/describe?uri={}", urlencode("http://elsewhere.org/x")),
            None
        )
        .status,
        422
    );
    assert_eq!(
        get(
            &server,
            &format!("/describe?uri={}", urlencode("not a uri")),
            None
        )
        .status,
        400
    );
    server.shutdown();
}

#[test]
fn dump_returns_the_full_rdf_view() {
    let server = test_server();
    let response = get(&server, "/dump", None);
    assert_eq!(response.status, 200);
    let graph = rdf::turtle::parse(&response.text()).unwrap();
    let mediator = fixtures::mediator_with_sample_data();
    assert_eq!(graph, mediator.read().materialize().unwrap());
    server.shutdown();
}

#[test]
fn status_reports_tables_cache_and_counters() {
    let server = test_server();
    get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        None,
    );
    let response = get(&server, "/status", None);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("application/json"));
    let text = response.text();
    assert!(text.contains("\"author\":2"), "{text}");
    assert!(text.contains("\"query_cache\""));
    assert!(text.contains("\"misses\":1"));
    assert!(text.contains("\"queries\":1"));
    // The version and durability state are always reported; this
    // server runs in memory.
    assert!(
        text.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "{text}"
    );
    assert!(text.contains("\"uptime_seconds\":"), "{text}");
    assert!(
        text.contains("\"durability\":{\"enabled\":false}"),
        "{text}"
    );
    // Dictionary counters: the fixture interns text values, so the
    // process-global symbol count is non-zero by the time /status runs.
    assert!(text.contains("\"dictionary\":{\"symbols\":"), "{text}");
    assert!(text.contains("\"bytes_saved\":"), "{text}");
    let symbols: u64 = text
        .split("\"dictionary\":{\"symbols\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("symbols counter is a number");
    assert!(symbols > 0, "{text}");
    server.shutdown();
}

#[test]
fn status_reports_concurrency_object() {
    let server = test_server();
    // Fresh in-memory server: version 0, only the initial version
    // retained, no writers yet.
    let text = get(&server, "/status", None).text();
    assert!(
        text.contains("\"concurrency\":{\"current_version\":0,\"versions_retained\":1,"),
        "{text}"
    );
    assert!(text.contains("\"read_sessions_live\":"), "{text}");
    assert!(text.contains("\"write_lock_waits\":0"), "{text}");
    assert!(text.contains("\"write_lock_wait_micros\":"), "{text}");
    assert!(text.contains("\"write_retranslations\":0"), "{text}");
    // One committed update publishes one new version: the current
    // version advances and the chain retains both, and the write-lock
    // acquisition shows up in the wait counters.
    let insert = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }";
    assert_eq!(
        post(&server, "/update", "application/sparql-update", insert).status,
        200
    );
    let text = get(&server, "/status", None).text();
    assert!(
        text.contains("\"concurrency\":{\"current_version\":1,\"versions_retained\":2,"),
        "{text}"
    );
    assert!(text.contains("\"write_lock_waits\":1"), "{text}");
    // Nothing raced the insert: its pinned translation held.
    assert!(text.contains("\"write_retranslations\":0"), "{text}");
    server.shutdown();
}

#[test]
fn snapshot_endpoint_requires_durability() {
    let server = test_server();
    let response = post(&server, "/snapshot", "text/plain", "");
    assert_eq!(response.status, 501, "{}", response.text());
    assert!(response.text().contains("\"code\":\"Unsupported\""));
    // Wrong method is routed, not 404.
    assert_eq!(get(&server, "/snapshot", None).status, 405);
    server.shutdown();
}

#[test]
fn snapshot_endpoint_checkpoints_a_durable_server() {
    let dir = fixtures::scratch_dir("server-snapshot");
    let (mediator, _) = fixtures::durable_mediator_with_sample_data(&dir);
    let server = serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let insert = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:author8 foaf:family_name \"Gall\" . }";
    assert_eq!(
        post(&server, "/update", "application/sparql-update", insert).status,
        200
    );
    // Durable counters are live before the checkpoint…
    let status = get(&server, "/status", None).text();
    assert!(status.contains("\"enabled\":true"), "{status}");
    assert!(status.contains("\"commits_appended\":1"), "{status}");
    // …the checkpoint truncates the WAL and reports its sequence…
    let response = post(&server, "/snapshot", "text/plain", "");
    assert_eq!(response.status, 200, "{}", response.text());
    let text = response.text();
    assert!(text.contains("\"snapshot_seq\":1"), "{text}");
    // …and /status reflects it.
    let status = get(&server, "/status", None).text();
    assert!(status.contains("\"last_snapshot\":1"), "{status}");
    assert!(status.contains("\"snapshots\":1"), "{status}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Routing and HTTP-level behavior
// ----------------------------------------------------------------------

#[test]
fn unknown_paths_and_methods() {
    let server = test_server();
    assert_eq!(get(&server, "/nope", None).status, 404);
    let put = send(
        &server,
        "PUT /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(put.status, 405);
    assert_eq!(put.header("allow"), Some("GET, HEAD, POST"));
    let del = send(
        &server,
        "DELETE /update HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(del.status, 405);
    server.shutdown();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_body_bytes: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let response = post(
        &server,
        "/update",
        "application/sparql-update",
        &"x".repeat(65),
    );
    assert_eq!(response.status, 413);
    server.shutdown();
}

#[test]
fn oversized_head_is_rejected_with_431() {
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_head_bytes: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let response = send(
        &server,
        &format!(
            "GET /status HTTP/1.1\r\nHost: t\r\nX-Filler: {}\r\nConnection: close\r\n\r\n",
            "f".repeat(512)
        ),
    );
    assert_eq!(response.status, 431);
    server.shutdown();
}

#[test]
fn head_request_sends_headers_without_body() {
    let server = test_server();
    let mut conn = connect(&server);
    // HEAD then GET on one keep-alive connection: if the HEAD response
    // leaked body bytes the GET response would desynchronize.
    conn.stream()
        .write_all(b"HEAD /status HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 2048];
    // Read only the head: the blank line must be the end of the data.
    std::thread::sleep(Duration::from_millis(200));
    conn.stream()
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    loop {
        match conn.stream().read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(
        text.ends_with("\r\n\r\n"),
        "HEAD response leaked body bytes: {text}"
    );
    let declared: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(declared > 0, "HEAD keeps the GET Content-Length");
    // The connection is still usable for a normal GET.
    conn.stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = conn
        .send("GET /status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().contains("\"query_cache\""));
    server.shutdown();
}

#[test]
fn conflicting_framing_headers_are_rejected() {
    let server = test_server();
    // Differing duplicate Content-Length → 400 (anti-smuggling).
    let conflicting = send(
        &server,
        "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n\
         Content-Length: 4\r\nContent-Length: 2\r\nConnection: close\r\n\r\nabcd",
    );
    assert_eq!(conflicting.status, 400);
    // A chunked Transfer-Encoding hidden behind an identity one → 501.
    let smuggled = send(
        &server,
        "POST /update HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: identity\r\n\
         Transfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nabcd",
    );
    assert_eq!(smuggled.status, 501);
    // Non-DIGIT Content-Length (Rust's parse would take "+4") → 400.
    let plus = send(
        &server,
        "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n\
         Content-Length: +4\r\nConnection: close\r\n\r\nabcd",
    );
    assert_eq!(plus.status, 400);
    server.shutdown();
}

#[test]
fn crlf_flood_cannot_pin_a_worker() {
    let server = test_server();
    let mut conn = connect(&server);
    // Skipped pre-request CRLFs count against the head limit (16 KiB
    // default): a pure-CRLF stream is answered 431, not read forever.
    conn.stream().write_all(&b"\r\n".repeat(10 * 1024)).unwrap();
    let response = conn.read_response().unwrap();
    assert_eq!(response.status, 431);
    server.shutdown();
}

#[test]
fn a_body_of_less_than_signs_is_a_400_and_the_worker_serves_on() {
    // One worker: the request after the flood is served by the worker
    // that read it. 4 MiB is the default body limit.
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let flood = "<".repeat(4 * 1024 * 1024);
    let response = post(&server, "/update", "application/sparql-update", &flood);
    assert_eq!(response.status, 400, "{}", response.text());
    let response = get(
        &server,
        &format!("/sparql?query={}", urlencode(PERSONS)),
        None,
    );
    assert_eq!(response.status, 200);
    server.shutdown();
}

#[test]
fn chunked_transfer_encoding_is_501() {
    let server = test_server();
    let response = send(
        &server,
        "POST /update HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(response.status, 501);
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = test_server();
    let mut conn = connect(&server);
    for i in 0..3 {
        let target = format!("/sparql?query={}", urlencode(PERSONS));
        let response = conn
            .send(&format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
            .unwrap();
        assert_eq!(response.status, 200, "request {i} on the same connection");
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    // A stray CRLF between requests is skipped (RFC 9112 §2.2), not
    // treated as a malformed request line.
    let response = conn
        .send("\r\nGET /status HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert_eq!(response.status, 200, "stray CRLF must not kill keep-alive");
    // HTTP/1.0 without keep-alive closes.
    let response = send(&server, "GET /status HTTP/1.0\r\n\r\n");
    assert_eq!(response.header("connection"), Some("close"));
    server.shutdown();
}

#[test]
fn overload_answers_503_with_retry_after() {
    // One worker, a queue of one: park the worker on an idle
    // connection, fill the queue with a second, and the third must be
    // rejected at accept time.
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            keep_alive_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let _parked = connect(&server); // worker blocks reading this one
    std::thread::sleep(Duration::from_millis(150));
    let _queued = connect(&server); // fills the queue
    std::thread::sleep(Duration::from_millis(150));
    let mut rejected = connect(&server);
    let response = rejected.read_response().unwrap(); // 503 written at accept
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    // Free the worker and the queue slot, then read the counter where
    // an operator would: the `/status` server object. Until the worker
    // has seen both connections close the queue may still be full, and
    // each probe answered 503 meanwhile is one more rejection.
    drop((_parked, _queued));
    let mut rejected_probes = 0;
    let status = loop {
        let response = get(&server, "/status", None);
        if response.status != 503 {
            break response.text();
        }
        rejected_probes += 1;
        std::thread::sleep(Duration::from_millis(20));
    };
    let counted = format!("\"overload_rejections\":{}}}", 1 + rejected_probes);
    assert!(status.contains(&counted), "{counted} in {status}");
    server.shutdown();
}

#[test]
fn bad_request_line_is_400_and_expect_continue_is_honored() {
    let server = test_server();
    let bad = send(&server, "GARBAGE\r\n\r\n");
    assert_eq!(bad.status, 400);
    // Expect: 100-continue → interim response, then the real one.
    let mut conn = connect(&server);
    let body = format!("query={}", urlencode(PERSONS));
    conn.stream()
        .write_all(
            format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\n\
                 Content-Length: {}\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut interim = [0u8; 25];
    conn.stream().read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    let response = conn.send(&body).unwrap();
    assert_eq!(response.status, 200);
    server.shutdown();
}

// ----------------------------------------------------------------------
// Result bodies
// ----------------------------------------------------------------------

// A server over the sample data after `edit` changed the database
// directly, plus the mediator it serves (for expected answers).
fn server_over(edit: impl FnOnce(&mut rel::Database)) -> (ServerHandle, ontoaccess::Mediator) {
    let mediator = fixtures::mediator_with_sample_data();
    edit(&mut mediator.database_mut_for_tests());
    let server = serve(
        mediator.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    (server, mediator)
}

const FAMILY_NAMES: &str = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                            SELECT ?a ?n WHERE { ?a foaf:family_name ?n . }";

#[test]
fn result_larger_than_the_socket_buffers_arrives_intact() {
    // ~8 MB of JSON: more than loopback's send and receive buffers
    // hold, so the response cannot leave in one piece.
    let (server, mediator) = server_over(|db| {
        for i in 0..12 {
            let name = format!("{i:02}{}", "é\"x\\".repeat(100_000));
            db.insert(
                "author",
                &[
                    ("id".to_owned(), rel::Value::Int(100 + i)),
                    ("lastname".to_owned(), rel::Value::text(name)),
                ],
            )
            .unwrap();
        }
    });
    let expected = wire::solutions_to_json(&mediator.select(FAMILY_NAMES).unwrap());
    assert!(expected.len() > 8_000_000, "{} bytes", expected.len());
    let mut conn = connect(&server);
    let target = format!("/sparql?query={}", urlencode(FAMILY_NAMES));
    for _ in 0..2 {
        let response = conn
            .send(&format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body == expected.as_bytes(), "body differs");
    }
    server.shutdown();
}

#[test]
fn head_query_declares_the_get_body_length() {
    let server = test_server();
    let target = format!("/sparql?query={}", urlencode(PERSONS));
    for accept in [
        "application/sparql-results+json",
        "application/sparql-results+xml",
    ] {
        let mut conn = connect(&server);
        conn.stream()
            .write_all(
                format!("HEAD {target} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\n\r\n").as_bytes(),
            )
            .unwrap();
        // Read exactly the head: a HEAD answer ends at its blank line.
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            conn.stream().read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .parse()
            .unwrap();
        // The same connection then answers the GET: the HEAD left no
        // body bytes behind, and the GET body has the declared length.
        let get = conn
            .send(&format!(
                "GET {target} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\n\r\n"
            ))
            .unwrap();
        assert_eq!(get.status, 200);
        assert_eq!(get.body.len(), declared, "{accept}");
        assert!(get.text().contains("author6"));
    }
    server.shutdown();
}

#[test]
fn unrenderable_iri_fails_the_query_with_its_error_not_a_truncated_200() {
    // An email with a space expands to `mailto:hert at uzh.ch`, which is
    // no IRI: the request answers the mediator's error, whichever
    // format was asked for.
    let (server, mediator) = server_over(|db| {
        rel::sql::execute_sql(
            db,
            "UPDATE author SET email = 'hert at uzh.ch' WHERE id = 6;",
        )
        .unwrap();
    });
    let query = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                 SELECT ?a ?m WHERE { ?a foaf:mbox ?m . }";
    let expected = "{\"request_id\":\"bad-iri\",\"error\":{\"code\":\"Unsupported\",\
                    \"status\":501,\"message\":\"unsupported request: invalid IRI \
                    \\\"mailto:hert at uzh.ch\\\": contains whitespace or a forbidden \
                    character\"}}";
    for (accept, suffix) in [
        ("application/sparql-results+json", ""),
        ("application/sparql-results+xml", ""),
        ("application/sparql-results+json", "&profile=1"),
    ] {
        let response = send(
            &server,
            &format!(
                "GET /sparql?query={}{suffix} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\n\
                 X-Request-Id: bad-iri\r\nConnection: close\r\n\r\n",
                urlencode(query)
            ),
        );
        assert_eq!(response.status, 501, "{accept}{suffix}");
        assert_eq!(response.header("content-type"), Some("application/json"));
        assert_eq!(response.text(), expected, "{accept}{suffix}");
    }
    // The library path rejects the same query with the same error.
    let error = mediator.select(query).unwrap_err();
    assert!(
        matches!(error, ontoaccess::OntoError::Unsupported { .. }),
        "{error}"
    );
    server.shutdown();
}
