//! SPARQL XML answers that XML 1.0 cannot carry.

use fixtures::http_probe::{one_shot, urlencode, ProbeResponse};
use ontoaccess_server::{serve, wire, ServerConfig, ServerHandle};

fn server() -> ServerHandle {
    serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn send(server: &ServerHandle, head: &str, body: &str) -> ProbeResponse {
    let raw = format!(
        "{head}\r\nHost: t\r\nX-Request-Id: ctl\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    one_shot(server.addr(), &raw).expect("request against the test server")
}

// Insert `literal` (SPARQL syntax) as the name of new team `team`; the
// returned function asks for the name in the format it is given.
fn insert_then_ask<'s>(
    server: &'s ServerHandle,
    team: u32,
    literal: &str,
) -> impl Fn(&str) -> ProbeResponse + 's {
    let insert = format!(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         PREFIX ex: <http://example.org/db/>\n\
         INSERT DATA {{ ex:team{team} foaf:name {literal} . }}"
    );
    let response = send(
        server,
        "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update",
        &insert,
    );
    assert_eq!(response.status, 200, "{}", response.text());

    let query = urlencode(&format!(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         PREFIX ex: <http://example.org/db/>\n\
         SELECT ?n WHERE {{ ex:team{team} foaf:name ?n . }}"
    ));
    move |accept: &str| {
        send(
            server,
            &format!("GET /sparql?query={query} HTTP/1.1\r\nAccept: {accept}"),
            "",
        )
    }
}

#[test]
fn a_control_character_fails_the_xml_answer_and_is_escaped_in_json() {
    // XML 1.0 cannot carry U+0001, not even as a character reference:
    // an XML answer holding one fails before any byte is sent, as an
    // unrenderable IRI does. JSON carries it escaped.
    let server = server();
    let ask = insert_then_ask(&server, 77777, "\"Ctl\\u0001Team\"");
    let json = ask(wire::SPARQL_RESULTS_JSON);
    assert_eq!(json.status, 200);
    assert!(
        json.text().contains("\"Ctl\\u0001Team\""),
        "{}",
        json.text()
    );

    let xml = ask(wire::SPARQL_RESULTS_XML);
    assert_eq!(xml.status, 501);
    assert_eq!(xml.header("content-type"), Some("application/json"));
    assert_eq!(
        xml.text(),
        "{\"request_id\":\"ctl\",\"error\":{\"code\":\"Unsupported\",\"status\":501,\
         \"message\":\"unsupported request: \\\"Ctl\\u0001Team\\\" holds a control character \
         XML 1.0 cannot carry; ask for application/sparql-results+json\"}}"
    );
    drop(ask);
    server.shutdown();
}

#[test]
fn a_noncharacter_fails_the_xml_answer_and_is_carried_in_json() {
    // U+FFFE and U+FFFF are outside XML 1.0's Char production: an XML
    // answer holding one is refused before any byte is sent. JSON
    // carries the character as it is.
    let server = server();
    for (i, noncharacter) in ['\u{FFFF}', '\u{FFFE}'].into_iter().enumerate() {
        let ask = insert_then_ask(
            &server,
            77778 + i as u32,
            &format!("\"Non\\u{:04X}char{i}\"", u32::from(noncharacter)),
        );
        let json = ask(wire::SPARQL_RESULTS_JSON);
        assert_eq!(json.status, 200);
        assert!(
            json.text()
                .contains(&format!("\"Non{noncharacter}char{i}\"")),
            "{}",
            json.text()
        );

        let xml = ask(wire::SPARQL_RESULTS_XML);
        assert_eq!(xml.status, 501, "{}", xml.text());
        assert_eq!(xml.header("content-type"), Some("application/json"));
        assert!(
            xml.text().contains(
                "holds the noncharacter U+FFFE or U+FFFF, which XML 1.0 cannot carry; \
                 ask for application/sparql-results+json"
            ),
            "{}",
            xml.text()
        );
    }
    server.shutdown();
}
