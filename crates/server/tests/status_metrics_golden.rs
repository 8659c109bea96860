//! Golden-file tests for the structure of `/status` and `/metrics` on
//! the three server shapes: a plain in-memory server, a durable leader
//! and a read replica of that leader.
//!
//! Values change from run to run, so both documents are compared with
//! their values masked. `/status` is pinned as its ordered key paths,
//! each with the JSON kind of its value (`number`, `string`, `bool`,
//! `null`, `object`, `array`); array elements share one `[]` path.
//! `/metrics` is pinned from `# HELP ontoaccess_build_info` to the end,
//! every sample value replaced by `<v>`. The registry's own families
//! come before that line and depend on which code paths ran in the
//! process, so they are not pinned.
//!
//! Regenerate the golden files after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p ontoaccess-server --test status_metrics_golden`.

use fixtures::http_probe::{one_shot, ProbeResponse};
use ontoaccess_server::{serve, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

// Compare against the checked-in file, or rewrite it when
// UPDATE_GOLDEN is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from its golden file (run with UPDATE_GOLDEN=1 to regenerate)"
    );
}

fn get(server: &ServerHandle, target: &str) -> ProbeResponse {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let response = one_shot(server.addr(), &raw).expect("request against the test server");
    assert_eq!(response.status, 200, "{target}: {}", response.text());
    response
}

fn update(server: &ServerHandle, body: &str) {
    let raw = format!(
        "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let response = one_shot(server.addr(), &raw).expect("update against the test server");
    assert_eq!(response.status, 200, "{}", response.text());
}

fn insert_author(n: u32) -> String {
    format!(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         PREFIX ex: <http://example.org/db/>\n\
         INSERT DATA {{ ex:author{n} foaf:family_name \"Golden{n}\" . }}"
    )
}

// ----------------------------------------------------------------------
// Masking
// ----------------------------------------------------------------------

// A JSON document's key paths in document order, one `path kind` line
// each. Keys are joined with `.`, array elements share the path `[]`,
// and a path repeated by later array elements is listed once.
fn status_structure(json: &str) -> String {
    let mut lines = Vec::new();
    let mut parser = Flattener {
        bytes: json.as_bytes(),
        at: 0,
    };
    parser.value("", &mut lines);
    parser.skip_ws();
    assert_eq!(parser.at, json.len(), "trailing bytes after the document");
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if !lines[..i].contains(line) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

struct Flattener<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Flattener<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.bytes.get(self.at) == Some(&byte);
        if found {
            self.at += 1;
        }
        found
    }

    fn expect(&mut self, byte: u8) {
        assert!(
            self.eat(byte),
            "expected {:?} at byte {}",
            byte as char,
            self.at
        );
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = Vec::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).unwrap(),
                b'\\' => {
                    out.push(byte);
                    out.push(self.bytes[self.at]);
                    self.at += 1;
                }
                _ => out.push(byte),
            }
        }
    }

    fn value(&mut self, path: &str, lines: &mut Vec<String>) {
        self.skip_ws();
        let kind = match self.bytes[self.at] {
            b'{' => "object",
            b'[' => "array",
            b'"' => "string",
            b't' | b'f' => "bool",
            b'n' => "null",
            _ => "number",
        };
        if !path.is_empty() {
            lines.push(format!("{path} {kind}"));
        }
        let join = |key: &str| {
            if path.is_empty() {
                key.to_owned()
            } else {
                format!("{path}.{key}")
            }
        };
        match kind {
            "object" => {
                self.expect(b'{');
                if self.eat(b'}') {
                    return;
                }
                loop {
                    let key = self.string();
                    self.expect(b':');
                    self.value(&join(&key), lines);
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}');
            }
            "array" => {
                self.expect(b'[');
                if self.eat(b']') {
                    return;
                }
                loop {
                    self.value(&format!("{path}[]"), lines);
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']');
            }
            "string" => {
                self.string();
            }
            _ => {
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
                {
                    self.at += 1;
                }
            }
        }
    }
}

// The exposition from the first sampled family on, each sample's value
// replaced by `<v>`; comment lines stay as they are.
fn metrics_structure(text: &str) -> String {
    let start = text
        .find("# HELP ontoaccess_build_info")
        .expect("the sampled families start with build info");
    let mut out = String::new();
    for line in text[start..].lines() {
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            let (series, _value) = line.rsplit_once(' ').expect("a sample has a value");
            out.push_str(series);
            out.push_str(" <v>");
        }
        out.push('\n');
    }
    out
}

fn assert_documents_golden(server: &ServerHandle, name: &str) {
    let status = get(server, "/status").text();
    assert_golden(&format!("status_{name}.txt"), &status_structure(&status));
    let metrics = get(server, "/metrics").text();
    assert_golden(&format!("metrics_{name}.txt"), &metrics_structure(&metrics));
}

// ----------------------------------------------------------------------
// The three servers
// ----------------------------------------------------------------------

// One test, in order: the trace store is process-global, and the plain
// server's slow query must be the one every later `/status` lists.
#[test]
fn status_and_metrics_structure_match_golden() {
    // Plain: no data directory, no replicator. Every request is slow,
    // so `slow_queries` holds the query below.
    let plain = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            slow_query_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind plain server");
    let query = fixtures::http_probe::urlencode(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         SELECT ?n WHERE { ?x foaf:family_name ?n . }",
    );
    get(&plain, &format!("/sparql?query={query}"));
    update(&plain, &insert_author(70));
    assert_documents_golden(&plain, "plain");
    plain.shutdown();

    // Durable leader with one commit.
    let dir = fixtures::scratch_dir("status-metrics-golden");
    let (mediator, _) = fixtures::durable_mediator_with_sample_data(&dir);
    let leader = serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind leader");
    update(&leader, &insert_author(71));
    assert_documents_golden(&leader, "leader");

    // A replica of that leader, caught up.
    let (mediator, replicator) = repl::Replicator::start(
        leader.addr().to_string(),
        fixtures::database(),
        fixtures::mapping(),
        repl::ReplicatorConfig {
            poll_timeout: Duration::from_millis(500),
            ..repl::ReplicatorConfig::default()
        },
    )
    .expect("bootstrap against live leader");
    let status = replicator.status();
    let replica = serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            replication: Some(status.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind replica");
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.snapshot().applied_seq < 1 {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_documents_golden(&replica, "replica");

    replica.shutdown();
    replicator.stop();
    leader.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
