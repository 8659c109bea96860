//! The staged replay: where a request's time goes, layer by layer.
//!
//! The first requests of a workload's seeded streams are replayed on
//! one thread, in-process, through the layers' public functions in the
//! order the server calls them. Every call is wrapped in a span (name,
//! start, end, parent, request) kept in memory and written out when the
//! replay is over. The product is not instrumented for this: all spans
//! are recorded here, around the calls into each layer.
//!
//! Some work runs twice so that it can be timed both whole and in
//! parts (`core.session_query` is the session's whole read path,
//! `core.run_compiled` contains `rel.select`); `path_us` adds up only
//! the stages a served request passes through once.

use crate::gen::{self, Class, Prepared, Spec};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::spec::{Workload, CLIENTS};
use ontoaccess::feedback::Feedback;
use ontoaccess::translate::delete::translate_delete_data;
use ontoaccess::translate::insert::translate_insert_data;
use ontoaccess::{CompiledQuery, Mediator, TranslateOptions};
use ontoaccess_server::http::{self, Connection, Limits, Response};
use ontoaccess_server::wire;
use sparql::{Query, UpdateOp};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is the id of the request's root span,
/// `None` on the root itself; spans of one request share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    request: u32,
    root: Option<u32>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.root,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    fn begin_request(&mut self, request: u32) {
        self.request = request;
        self.root = None;
        let now = self.now_ns();
        self.root = Some(self.push("request", now, now));
    }

    fn end_request(&mut self) {
        let now = self.now_ns();
        let root = self.root.take().expect("a request is open");
        self.spans[root as usize].end_ns = now;
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        self.push(name, start, end);
        value
    }

    // A stage the callee timed itself (`execute_sorted_timed` returns
    // its two stage times): recorded back to back from `start_ns`.
    fn record(&mut self, name: &'static str, start_ns: u64, duration: Duration) -> u64 {
        let end = start_ns + duration.as_nanos() as u64;
        self.push(name, start_ns, end);
        end
    }
}

/// What the replay observed.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    pub failures: Vec<String>,
    /// Per request: its class and the stages a served request passes
    /// once, summed.
    pub path_us: Vec<(Class, f64)>,
    pub wire_bytes: Vec<f64>,
    pub rows_out: Vec<f64>,
    pub dml_statements: Vec<f64>,
    pub dml_rows: Vec<f64>,
    pub wal_bytes: Vec<f64>,
    pub snapshot_s: f64,
    pub snapshot_bytes: u64,
    pub recover_s: f64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

impl Replay {
    /// Requests replayed.
    pub fn requests(&self) -> usize {
        self.path_us.len()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Per request that has all of them: duration of `whole` minus the
    /// durations of `parts`, floored at zero.
    pub fn difference_us(&self, whole: &str, parts: &[&str]) -> Vec<f64> {
        let by_request = |name: &str| -> BTreeMap<u32, f64> {
            let mut sums = BTreeMap::new();
            for span in self.spans.iter().filter(|s| s.name == name) {
                *sums.entry(span.request).or_insert(0.0) += span.micros();
            }
            sums
        };
        let parts: Vec<BTreeMap<u32, f64>> = parts.iter().map(|p| by_request(p)).collect();
        by_request(whole)
            .into_iter()
            .filter_map(|(request, whole)| {
                let mut rest = whole;
                for part in &parts {
                    rest -= part.get(&request)?;
                }
                Some(rest.max(0.0))
            })
            .collect()
    }

    pub fn to_json(&self, workload: Workload, seed: u64) -> Json {
        Json::obj()
            .with("workload", workload.name())
            .with("seed", seed)
            .with("requests", self.requests())
            .with(
                "spans",
                self.spans
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .with("id", u64::from(s.id))
                            .with(
                                "parent",
                                s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                            )
                            .with("request", u64::from(s.request))
                            .with("name", s.name)
                            .with("start_ns", s.start_ns)
                            .with("end_ns", s.end_ns)
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// The order the replay takes requests in: round robin over the
/// connections' streams, so each connection's subsequence is the head
/// of the stream it sends end to end. Returns `(connection, index into
/// that stream's table)`.
pub fn replay_order(
    workload: Workload,
    seed: u64,
    dataset: &Spec,
    n: usize,
) -> (Vec<gen::Stream>, Vec<(usize, usize)>) {
    let mut streams: Vec<gen::Stream> = (0..CLIENTS)
        .map(|c| gen::stream(workload, c, seed, dataset))
        .collect();
    let order = (0..n)
        .map(|k| (k % CLIENTS, streams[k % CLIENTS].next_index()))
        .collect();
    (streams, order)
}

// A connected loopback pair: the server side wrapped in the product's
// HTTP connection, the client side written by the replay and drained by
// a helper thread (a 250 KB response does not fit the socket buffers,
// and the replay itself must not block on its own response).
struct Loopback {
    client: TcpStream,
    server: Connection,
    drain: std::thread::JoinHandle<()>,
}

impl Loopback {
    fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        client.set_nodelay(true)?;
        let (server, _) = listener.accept()?;
        server.set_nodelay(true)?;
        let mut reader = client.try_clone()?;
        let drain = std::thread::spawn(move || {
            let mut sink = [0u8; 64 * 1024];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        });
        Ok(Loopback {
            client,
            server: Connection::new(server, Limits::default()),
            drain,
        })
    }

    fn close(self) {
        drop(self.server);
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        let _ = self.drain.join();
    }
}

fn snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("snapshot"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Replay up to `max_requests` requests of `workload`, stopping early
/// once `max_seconds` have passed. `dir` is a fresh scratch directory
/// for the write-ahead log; it is removed afterwards.
pub fn run(
    workload: Workload,
    seed: u64,
    dataset: &Spec,
    oracle: &Oracle,
    dir: &Path,
    max_requests: usize,
    max_seconds: f64,
) -> Result<Replay, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (mut streams, order) = replay_order(workload, seed, dataset, max_requests);
    for stream in &mut streams {
        oracle.expect(stream)?;
    }
    let mapping = fixtures::mapping();
    let mediator =
        Mediator::new(oracle.mediator.database().clone(), mapping.clone()).map_err(|e| err(&e))?;
    let session = mediator.read();
    let prefixes = mediator.prefixes().clone();

    // The staged database and its real write-ahead log.
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let opened =
        dur::Durability::open(dir, oracle.mediator.database().clone()).map_err(|e| err(&e))?;
    let mut replay = Replay {
        snapshot_s: started.elapsed().as_secs_f64(),
        snapshot_bytes: snapshot_bytes(dir),
        ..Replay::default()
    };
    let (mut db, durability) = (opened.db, opened.durability);

    let mut compiled: HashMap<String, CompiledQuery> = HashMap::new();
    let mut loopback = Loopback::open().map_err(|e| err(&e))?;
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        request: 0,
        root: None,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(max_seconds);

    for (n, (connection, index)) in order.into_iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let prepared: &Prepared = &streams[connection].table[index];
        loopback
            .client
            .write_all(prepared.wire.as_bytes())
            .map_err(|e| err(&e))?;
        tracer.begin_request(n as u32);
        let first_span = tracer.spans.len();
        let request = tracer
            .timed("server.http_read", || loopback.server.read_request())
            .map_err(|e| e.message())?
            .ok_or("the loopback pair closed")?;

        let response = match prepared.class {
            Class::Read => {
                let text = request.param("query").ok_or("no query parameter")?;
                let hit = mediator.is_query_cached(text);
                tracer
                    .timed("core.session_query", || session.execute_query(text))
                    .map_err(|e| err(&e))?;
                if !hit {
                    let query = tracer
                        .timed("sparql.parse_query", || {
                            sparql::parse_query_with_prefixes(text, prefixes.clone())
                        })
                        .map_err(|e| err(&e))?;
                    let Query::Select(select) = query else {
                        return Err(format!("not a SELECT: {text}"));
                    };
                    // Compilation includes provisioning the join
                    // indexes, as on the server's cache-admission path.
                    let plan = tracer
                        .timed("core.compile", || {
                            let plan = ontoaccess::compile_select(&db, &mapping, &select)?;
                            ontoaccess::ensure_join_indexes(&mut db, &plan)?;
                            Ok::<_, ontoaccess::OntoError>(plan)
                        })
                        .map_err(|e| err(&e))?;
                    compiled.insert(text.to_owned(), plan);
                }
                let plan = &compiled[text];
                // Conversion is what `run_compiled` does beyond the
                // select; the select alone runs second, on warm caches,
                // so the difference errs towards conversion.
                let solutions = tracer
                    .timed("core.run_compiled", || ontoaccess::run_compiled(&db, plan))
                    .map_err(|e| err(&e))?;
                let rows = tracer
                    .timed("rel.select", || rel::sql::execute_select(&db, &plan.sql))
                    .map_err(|e| err(&e))?;
                let body = tracer.timed("server.wire_json", || wire::solutions_to_json(&solutions));
                replay.rows_out.push(rows.rows.len() as f64);
                replay.wire_bytes.push(body.len() as f64);
                if body.as_bytes() != prepared.expected {
                    replay
                        .failures
                        .push(format!("replay answered {:?} wrongly", prepared.text));
                }
                Response::new(200, wire::SPARQL_RESULTS_JSON, body)
            }
            Class::Write => {
                let text = String::from_utf8_lossy(&request.body).into_owned();
                let ops = tracer
                    .timed("sparql.parse_update", || {
                        sparql::parse_update_script(&text, prefixes.clone())
                    })
                    .map_err(|e| err(&e))?;
                db.begin().map_err(|e| err(&e))?;
                let (mut statements, mut rows) = (0, 0);
                for op in &ops {
                    let translated = match op {
                        UpdateOp::InsertData { triples } => {
                            Some(tracer.timed("core.translate", || {
                                translate_insert_data(
                                    &db,
                                    &mapping,
                                    triples,
                                    TranslateOptions::default(),
                                )
                            }))
                        }
                        UpdateOp::DeleteData { triples } => {
                            Some(tracer.timed("core.translate", || {
                                translate_delete_data(&db, &mapping, triples)
                            }))
                        }
                        UpdateOp::Modify { .. } => None,
                    };
                    let report = match translated {
                        Some(stmts) => {
                            let start = tracer.now_ns();
                            let (report, sort, dml) = ontoaccess::execute_sorted_timed(
                                &mut db,
                                stmts.map_err(|e| err(&e))?,
                            )
                            .map_err(|e| err(&e))?;
                            let mid = tracer.record("core.sort", start, sort);
                            tracer.record("rel.dml", mid, dml);
                            report
                        }
                        None => tracer
                            .timed("core.modify", || {
                                ontoaccess::execute_update_op(&mut db, &mapping, op)
                            })
                            .map_err(|e| err(&e))?,
                    };
                    statements += report.statements.len();
                    rows += report.rows_affected;
                }
                let logical = db.txn_ops().map_err(|e| err(&e))?;
                let wal_before = durability.stats().wal_bytes;
                let seq = tracer
                    .timed("dur.append", || durability.append_commit(&logical, None))
                    .map_err(|e| err(&e))?;
                db.commit().map_err(|e| err(&e))?;
                // The MVCC publish, measured where the product does it:
                // the same operations committed on an in-memory mediator.
                let mut txn = mediator.write();
                for op in &ops {
                    txn.update_op(op).map_err(|e| err(&e))?;
                }
                tracer
                    .timed("core.txn_commit", || txn.commit())
                    .map_err(|e| err(&e))?;
                tracer
                    .timed("dur.fsync", || durability.sync_to(seq))
                    .map_err(|e| err(&e))?;
                replay
                    .wal_bytes
                    .push((durability.stats().wal_bytes - wal_before) as f64);
                replay.dml_statements.push(statements as f64);
                replay.dml_rows.push(rows as f64);
                let feedback = Feedback::Success {
                    operation: "replayed".into(),
                    statements,
                    rows,
                };
                Response::new(200, wire::TURTLE, feedback.to_turtle())
            }
        };
        tracer
            .timed("server.http_write", || {
                http::write_response(loopback.server.stream(), &response, true, false)
            })
            .map_err(|e| err(&e))?;
        tracer.end_request();

        let on_path = |name: &str| !matches!(name, "request" | "core.session_query" | "rel.select");
        replay.path_us.push((
            prepared.class,
            tracer.spans[first_span..]
                .iter()
                .filter(|s| on_path(s.name))
                .map(Span::micros)
                .sum(),
        ));
    }
    loopback.close();
    replay.spans = tracer.spans;

    // Recovery of what the replay committed: snapshot 0 plus the log.
    drop(durability);
    let started = Instant::now();
    let reopened = dur::Durability::open(dir, fixtures::database()).map_err(|e| err(&e))?;
    replay.recover_s = started.elapsed().as_secs_f64();
    for table in ["author", "publication", "publication_author"] {
        if reopened.db.row_count(table).ok() != db.row_count(table).ok() {
            replay
                .failures
                .push(format!("recovery lost rows of {table}"));
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SMOKE_PUBLICATIONS;

    #[test]
    fn replay_takes_the_head_of_every_end_to_end_stream() {
        let dataset = Spec::scaled(SMOKE_PUBLICATIONS);
        for workload in Workload::ALL {
            let (streams, order) = replay_order(workload, 9, &dataset, 2000);
            for connection in 0..CLIENTS {
                let mut fresh = gen::stream(workload, connection, 9, &dataset);
                let replayed: Vec<&str> = order
                    .iter()
                    .filter(|(c, _)| *c == connection)
                    .map(|(c, i)| streams[*c].table[*i].wire.as_str())
                    .collect();
                assert_eq!(replayed.len(), 2000 / CLIENTS);
                for wire in replayed {
                    let index = fresh.next_index();
                    assert_eq!(wire, fresh.table[index].wire, "{workload:?}");
                }
            }
        }
    }

    fn replay(workload: Workload, requests: usize) -> Replay {
        let dataset = Spec::scaled(SMOKE_PUBLICATIONS);
        let oracle = Oracle::build(&dataset, 3);
        let dir = fixtures::scratch_dir(&format!("loopbench-replay-{}", workload.name()));
        let replay = run(workload, 3, &dataset, &oracle, &dir, requests, 60.0).unwrap();
        assert_eq!(replay.failures, Vec::<String>::new());
        assert_eq!(replay.requests(), requests);
        replay
    }

    #[test]
    fn spans_nest_under_their_request_and_cover_the_read_path() {
        let replay = replay(Workload::ReadCold, 40);
        let roots: Vec<&Span> = replay
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .collect();
        assert_eq!(roots.len(), 40);
        for span in replay.spans.iter().filter(|s| s.name != "request") {
            let root = &replay.spans[span.parent.unwrap() as usize];
            assert_eq!((root.name, root.request), ("request", span.request));
            assert!(root.start_ns <= span.start_ns && span.end_ns <= root.end_ns);
        }
        for stage in [
            "server.http_read",
            "core.session_query",
            "rel.select",
            "server.http_write",
        ] {
            assert_eq!(replay.durations_us(stage).len(), 40, "{stage}");
        }
        // A text new to the cache is parsed and compiled, and most are.
        let compiled = replay.durations_us("core.compile").len();
        assert_eq!(replay.durations_us("sparql.parse_query").len(), compiled);
        assert!((30..=40).contains(&compiled), "{compiled} compilations");
        assert_eq!(
            replay
                .difference_us("core.run_compiled", &["rel.select"])
                .len(),
            40
        );
        assert!(replay.rows_out.iter().all(|&rows| rows == 1.0));
    }

    #[test]
    fn write_replays_are_steady_state_and_recoverable() {
        // A whole number of cycles leaves the tables as they were
        // (`run` compares the recovered row counts with the live ones).
        let small = replay(Workload::WriteSmall, 3 * 2 * 4);
        assert_eq!(small.durations_us("core.modify").len(), 8);
        assert_eq!(small.durations_us("dur.fsync").len(), 24);
        assert!(small.wal_bytes.iter().all(|&bytes| bytes > 0.0));
        let bulk = replay(Workload::WriteBulk, 2 * (gen::BULK_LIVE + gen::BULK_SLOTS));
        assert_eq!(
            bulk.durations_us("rel.dml").len(),
            2 * (gen::BULK_LIVE + 2 * gen::BULK_SLOTS)
        );
        assert!(bulk.recover_s > 0.0 && bulk.snapshot_bytes > 0);
    }
}
