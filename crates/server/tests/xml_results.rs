//! A SPARQL XML answer that XML 1.0 cannot carry.

use fixtures::http_probe::{one_shot, urlencode, ProbeResponse};
use ontoaccess_server::{serve, wire, ServerConfig};

#[test]
fn a_control_character_fails_the_xml_answer_and_is_escaped_in_json() {
    // XML 1.0 cannot carry U+0001, not even as a character reference:
    // an XML answer holding one fails before any byte is sent, as an
    // unrenderable IRI does. JSON carries it escaped.
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let send = |head: &str, body: &str| -> ProbeResponse {
        let raw = format!(
            "{head}\r\nHost: t\r\nX-Request-Id: ctl\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
        one_shot(server.addr(), &raw).expect("request against the test server")
    };
    let insert = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                  PREFIX ex: <http://example.org/db/>\n\
                  INSERT DATA { ex:team77777 foaf:name \"Ctl\\u0001Team\" . }";
    let response = send(
        "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update",
        insert,
    );
    assert_eq!(response.status, 200, "{}", response.text());

    let query = urlencode(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         PREFIX ex: <http://example.org/db/>\n\
         SELECT ?n WHERE { ex:team77777 foaf:name ?n . }",
    );
    let ask = |accept: &str| {
        send(
            &format!("GET /sparql?query={query} HTTP/1.1\r\nAccept: {accept}"),
            "",
        )
    };
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
    server.shutdown();
}
