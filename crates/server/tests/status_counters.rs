//! `/status` over a fresh in-memory server. The request counters it
//! reports are process-wide, so this test is the only one in its
//! binary: no other request can move them.

use fixtures::http_probe::{one_shot, urlencode};
use ontoaccess_server::{serve, ServerConfig};

// The number that follows `key` in the JSON `text`.
fn number_after(text: &str, key: &str) -> u64 {
    text.split(key)
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{key} is followed by a number in {text}"))
}

#[test]
fn status_reports_tables_cache_and_counters() {
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let get = |target: &str| {
        one_shot(
            server.addr(),
            &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
        .expect("request against the test server")
    };
    let persons = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                   SELECT ?x WHERE { ?x a foaf:Person . }";
    assert_eq!(
        get(&format!("/sparql?query={}", urlencode(persons))).status,
        200
    );
    let response = get("/status");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("application/json"));
    let text = response.text();
    assert!(text.contains("\"author\":2"), "{text}");
    assert!(text.contains("\"query_cache\""));
    assert_eq!(number_after(&text, "\"misses\":"), 1, "{text}");
    assert_eq!(number_after(&text, "\"queries\":"), 1, "{text}");
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
    assert!(text.contains("\"bytes_saved\":"), "{text}");
    assert!(
        number_after(&text, "\"dictionary\":{\"symbols\":") > 0,
        "{text}"
    );
    server.shutdown();
}
