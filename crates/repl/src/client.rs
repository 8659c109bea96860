//! A minimal blocking HTTP/1.1 client for leader traffic.
//!
//! Deliberately not built on the server's parser (the follower should
//! observe the wire independently) and deliberately tiny: the leader's
//! replication endpoints always answer with an explicit
//! `Content-Length`, so framing is by length only. The connection is
//! kept alive across polls; any I/O or framing error drops it, and the
//! next request reconnects.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

// Largest response head accepted: the server's own request-head limit.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP response.
#[derive(Debug)]
pub struct LeaderResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl LeaderResponse {
    /// First header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A header parsed as `u64`.
    pub fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name).and_then(|v| v.parse().ok())
    }
}

/// Keep-alive connection to the leader's HTTP endpoint. Reconnects
/// lazily on the next request after any failure.
#[derive(Debug)]
pub struct LeaderClient {
    leader: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl LeaderClient {
    /// A client for `leader` (a `host:port` address). No connection is
    /// made until the first request.
    pub fn new(leader: impl Into<String>) -> LeaderClient {
        LeaderClient {
            leader: leader.into(),
            stream: None,
            buf: Vec::new(),
        }
    }

    /// The leader address this client talks to.
    pub fn leader(&self) -> &str {
        &self.leader
    }

    /// Drop the current connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    /// `GET path` with the given read timeout (must exceed any
    /// server-side long-poll the path performs). On error the
    /// connection is dropped so the next call starts fresh. A fresh
    /// request id is minted for the call; use
    /// [`LeaderClient::get_with_request_id`] to choose it.
    pub fn get(&mut self, path: &str, read_timeout: Duration) -> std::io::Result<LeaderResponse> {
        self.get_with_request_id(path, read_timeout, &obs::next_request_id())
    }

    /// [`LeaderClient::get`] with an explicit request id, sent as
    /// `X-Request-Id` so the leader's access log, error bodies, and
    /// traces stitch to the follower call that caused them.
    pub fn get_with_request_id(
        &mut self,
        path: &str,
        read_timeout: Duration,
        request_id: &str,
    ) -> std::io::Result<LeaderResponse> {
        let result = self.get_inner(path, read_timeout, request_id);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    fn get_inner(
        &mut self,
        path: &str,
        read_timeout: Duration,
        request_id: &str,
    ) -> std::io::Result<LeaderResponse> {
        if self.stream.is_none() {
            let addr = self.leader.to_socket_addrs()?.next().ok_or_else(|| {
                bad(&format!(
                    "leader address {:?} resolves to nothing",
                    self.leader
                ))
            })?;
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.set_read_timeout(Some(read_timeout))?;
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nX-Request-Id: {request_id}\r\nConnection: keep-alive\r\n\r\n",
            self.leader
        );
        stream.write_all(request.as_bytes())?;

        let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "leader closed");
        let mut chunk = [0u8; 16 * 1024];
        // `scanned` resumes the terminator search where the last pass
        // stopped; a head past the bound fails instead of buffering on.
        let mut scanned = 0usize;
        let head_end = loop {
            let start = scanned.saturating_sub(3);
            if let Some(pos) = self.buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
                break start + pos;
            }
            scanned = self.buf.len();
            if scanned > MAX_HEAD_BYTES {
                return Err(bad("response head exceeds 16 KiB"));
            }
            match stream.read(&mut chunk)? {
                0 => return Err(eof()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(bad("response head exceeds 16 KiB"));
        }
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        while self.buf.len() < head_end + 4 + content_length {
            match stream.read(&mut chunk)? {
                0 => return Err(eof()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let body = self.buf[head_end + 4..head_end + 4 + content_length].to_vec();
        self.buf.drain(..head_end + 4 + content_length);
        Ok(LeaderResponse {
            status,
            headers,
            body,
        })
    }
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    // A one-connection canned server: answers every request on the
    // first accepted connection with the given responses, in order.
    fn canned(responses: Vec<String>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut discard = [0u8; 4096];
            for response in responses {
                // Read (and ignore) one request head.
                let _ = std::io::Read::read(&mut stream, &mut discard);
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn parses_status_headers_and_body_over_keep_alive() {
        let (addr, server) = canned(vec![
            "HTTP/1.1 200 OK\r\nX-Wal-Epoch: 7\r\nContent-Length: 5\r\n\r\nhello".into(),
            "HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\n\r\n{}".into(),
        ]);
        let mut client = LeaderClient::new(addr.to_string());
        let first = client.get("/wal", Duration::from_secs(2)).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.header_u64("x-wal-epoch"), Some(7));
        assert_eq!(first.body, b"hello");
        let second = client.get("/wal", Duration::from_secs(2)).unwrap();
        assert_eq!(second.status, 409);
        assert_eq!(second.body, b"{}");
        server.join().unwrap();
    }

    #[test]
    fn oversized_response_head_fails_at_the_bound() {
        // A head with no blank line, four times the bound: the client
        // must give up once the bound is passed, not buffer until the
        // peer closes.
        let (addr, server) = canned(vec![
            "HTTP/1.1 200 OK\r\nX-Pad: ".to_owned() + &"a".repeat(4 * MAX_HEAD_BYTES),
        ]);
        let mut client = LeaderClient::new(addr.to_string());
        let error = client.get("/wal", Duration::from_secs(2)).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
        // The peer's write may fail once the client hangs up.
        let _ = server.join();
    }

    #[test]
    fn request_id_header_reaches_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = [0u8; 4096];
            let n = std::io::Read::read(&mut stream, &mut head).unwrap();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            String::from_utf8_lossy(&head[..n]).into_owned()
        });
        let mut client = LeaderClient::new(addr.to_string());
        let response = client
            .get_with_request_id("/wal", Duration::from_secs(2), "follower-7-cafe")
            .unwrap();
        assert_eq!(response.status, 200);
        let head = server.join().unwrap();
        assert!(
            head.contains("X-Request-Id: follower-7-cafe\r\n"),
            "request head must carry the id, got: {head}"
        );
    }

    #[test]
    fn connection_error_surfaces_and_resets() {
        // Nothing listens on this port (bound then dropped).
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let mut client = LeaderClient::new(addr.to_string());
        assert!(client.get("/wal", Duration::from_millis(500)).is_err());
        // The client is reusable after the failure (it just fails again
        // here, but without panicking on stale state).
        assert!(client.get("/wal", Duration::from_millis(500)).is_err());
    }
}
