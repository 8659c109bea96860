//! The HTTP request reader under hostile bytes.
//!
//! A worker reads requests straight off the socket, so a panic in the
//! reader takes the worker down, and a reader that buffers what its
//! limits refuse lets one client hold a worker's memory. These tests
//! feed [`Connection::read_request`], over a loopback pair, every
//! truncation of a GET with a query string, a POST with a body and a
//! pipelined pair, plus seeded random byte flips, insertions and
//! deletions of them and of a header flood. The client sends the input
//! and closes its side; each read must then come back as a request or a
//! typed [`HttpError`], never a panic, and the reader's buffer must stay
//! within its [`Limits`] plus one read.

use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{Shutdown, TcpListener};

// Small limits, so that mutations cross them both ways.
const LIMITS: Limits = Limits {
    max_head_bytes: 512,
    max_body_bytes: 128,
};

const GET: &[u8] = b"GET /sparql?query=SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20a%20\
    %3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D&profile=1 HTTP/1.1\r\n\
    Host: t\r\nAccept: application/sparql-results+xml;q=0.9, */*\r\n\r\n";

const POST: &[u8] = b"POST /update HTTP/1.1\r\nHost: t\r\n\
    Content-Type: application/sparql-update\r\nContent-Length: 58\r\n\
    Expect: 100-continue\r\n\r\n\
    INSERT DATA { <http://example.org/db/team9> <p> \"Zo\xc3\xab\" . }";

// Bytes worth inserting: the head's structure, line breaks, digits and
// a multi-byte UTF-8 character.
const INTERESTING: &[u8] = b":; \t\r\n0123456789-+%?&=/\x00\xc3\xa9\xe6\x97\xa5";

fn pipelined() -> Vec<u8> {
    [GET, POST, b"\r\n", GET].concat()
}

// A request line followed by header lines well past the head limit and
// longer than one read.
fn flood() -> Vec<u8> {
    let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
    while bytes.len() < 3 * READ_CHUNK {
        bytes.extend_from_slice(b"X-Pad: 0123456789abcdef0123456789abcdef\r\n");
    }
    bytes.extend_from_slice(b"\r\n");
    bytes
}

// Send `input` over a fresh loopback connection, close the client's
// side, and read requests until the reader stops.
fn survives(listener: &TcpListener, input: &[u8]) {
    let mut client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    client.write_all(input).expect("send the input");
    client
        .shutdown(Shutdown::Write)
        .expect("close the client's side");
    let mut conn = Connection::new(stream, LIMITS);
    conn.set_read_timeout(Duration::from_secs(5))
        .expect("read timeout");
    // Every request consumes at least its request line.
    for _ in 0..=input.len() {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| conn.read_request()))
                .unwrap_or_else(|_| panic!("read_request panicked on {:?}", input.escape_ascii()));
        assert!(
            conn.buf.len() <= LIMITS.max_head_bytes + 4 + LIMITS.max_body_bytes + READ_CHUNK,
            "{} bytes buffered for {:?}",
            conn.buf.len(),
            input.escape_ascii()
        );
        match outcome {
            Ok(Some(request)) => assert!(request.body.len() <= LIMITS.max_body_bytes),
            Ok(None) => return,
            Err(error) => {
                assert!(!error.message().is_empty());
                return;
            }
        }
    }
    panic!("more requests than bytes in {:?}", input.escape_ascii());
}

#[test]
fn seeds_read_as_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let (stream, _) = {
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = listener.accept().unwrap();
        client.write_all(&pipelined()).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        accepted
    };
    let mut conn = Connection::new(stream, LIMITS);
    let mut read = Vec::new();
    while let Some(request) = conn.read_request().expect("well-formed requests") {
        read.push((request.method, request.path, request.body.len()));
    }
    assert_eq!(
        read,
        [
            ("GET".to_owned(), "/sparql".to_owned(), 0),
            ("POST".to_owned(), "/update".to_owned(), 58),
            ("GET".to_owned(), "/sparql".to_owned(), 0),
        ]
    );
}

#[test]
fn every_truncation_reads_or_fails_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    for seed in [GET.to_vec(), POST.to_vec(), pipelined()] {
        for end in 0..=seed.len() {
            survives(&listener, &seed[..end]);
        }
    }
    // The flood is answered 431 wherever it is cut past the limit.
    let flood = flood();
    for end in (0..=flood.len()).step_by(499) {
        survives(&listener, &flood[..end]);
    }
}

#[test]
fn mutated_inputs_read_or_fail_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let seeds = [GET.to_vec(), POST.to_vec(), pipelined(), flood()];
    let mut rng = StdRng::seed_from_u64(38);
    for case in 0..600 {
        let mut bytes = seeds[case % seeds.len()].clone();
        for _ in 0..rng.gen_range(1..8usize) {
            let at = rng.gen_range(0..bytes.len() + 1);
            match rng.gen_range(0..3u32) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                1 => bytes.insert(at, INTERESTING[rng.gen_range(0..INTERESTING.len())]),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        survives(&listener, &bytes);
    }
}
