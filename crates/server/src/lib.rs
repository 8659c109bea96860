//! SPARQL 1.1 Protocol server over the OntoAccess [`Mediator`]
//! (paper §6: the prototype "exposes the translator behind an HTTP
//! endpoint" — this crate is that endpoint, grown production-shaped).
//!
//! Std-only by construction: `std::net::TcpListener` plus a fixed
//! thread pool — no async runtime, no external dependencies — matching
//! the workspace's offline-shim approach. The layering:
//!
//! * [`http`] — incremental HTTP/1.1 request parser and response
//!   writer with keep-alive, pipelining, and head/body size limits;
//! * [`wire`] — W3C SPARQL JSON/XML results and Turtle/N-Triples
//!   graph serialization, plus `Accept` negotiation;
//! * [`router`] — the protocol endpoints (`/sparql`, `/update`,
//!   `/describe`, `/dump`, `/status`);
//! * [`error_map`] — the exhaustive [`ontoaccess::OntoError`] → HTTP
//!   status mapping and JSON error bodies;
//! * [`pool`] (private) — bounded accept queue between one acceptor
//!   and the worker pool, with 503 on overload and a connection
//!   registry for graceful shutdown.
//!
//! Concurrency model: every worker owns a [`ReadSession`], so queries
//! from different connections run in parallel under the database read
//! lock; updates serialize through the mediator's exclusive write
//! transaction. This is PR 3's session model driven by real sockets.
//!
//! ```no_run
//! use ontoaccess_server::{serve, ServerConfig};
//!
//! let mediator = /* build a Mediator */
//! #   ontoaccess::Mediator::new(
//! #       ontoaccess::usecase::database(),
//! #       ontoaccess::usecase::mapping(),
//! #   ).unwrap();
//! let handle = serve(mediator, "127.0.0.1:7878", ServerConfig::default()).unwrap();
//! println!("listening on http://{}/", handle.addr());
//! handle.join(); // serve until the process is killed
//! ```

#![warn(missing_docs)]
// The result writers pass the mediator's `OntoError` through unboxed,
// as `ontoaccess` itself does: its rich payload is the error body.
#![allow(clippy::result_large_err)]

pub mod error_map;
mod facts;
pub mod http;
mod json;
mod metrics;
mod pool;
pub mod router;
pub mod wire;

use crate::http::{Connection, Limits, Response};
use crate::pool::{ConnQueue, ConnRegistry};
use crate::router::AppContext;
use ontoaccess::mediator::{Mediator, ReadSession};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving requests (each holds one `ReadSession`).
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the
    /// acceptor answers `503` (backpressure instead of queue growth).
    pub queue_capacity: usize,
    /// Maximum request-head size in bytes (`431` beyond).
    pub max_head_bytes: usize,
    /// Maximum request-body size in bytes (`413` beyond).
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection may park a worker before
    /// it is closed.
    pub keep_alive_timeout: Duration,
    /// When this server fronts a read replica: the replicator's
    /// progress handle, surfaced under `/status`. `None` on leaders
    /// and plain standalone servers.
    pub replication: Option<repl::ReplicationStatus>,
    /// Requests whose handler wall time reaches this many milliseconds
    /// are classified slow: their traces join the trace store's priority
    /// ring, and the slow `/sparql` ones are listed on `/status`
    /// (`slow_queries`). `0` classifies every request slow.
    pub slow_query_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            keep_alive_timeout: Duration::from_secs(5),
            replication: None,
            slow_query_ms: 250,
        }
    }
}

impl ServerConfig {
    fn limits(&self) -> Limits {
        Limits {
            max_head_bytes: self.max_head_bytes,
            max_body_bytes: self.max_body_bytes,
        }
    }
}

/// Bind `addr` and serve `mediator` until [`ServerHandle::shutdown`].
///
/// Port 0 binds an ephemeral port; the actual address is
/// [`ServerHandle::addr`].
pub fn serve<A: ToSocketAddrs>(
    mediator: Mediator,
    addr: A,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let queue = Arc::new(ConnQueue::new(config.queue_capacity));
    let registry = Arc::new(ConnRegistry::default());
    let shutdown_flag = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(AppContext {
        mediator,
        started: Instant::now(),
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity.max(1),
        replication: config.replication.clone(),
        metrics: metrics::HttpMetrics::new(),
        slow_query: Duration::from_millis(config.slow_query_ms),
    });

    let mut workers = Vec::with_capacity(ctx.workers);
    for i in 0..ctx.workers {
        let queue = Arc::clone(&queue);
        let registry = Arc::clone(&registry);
        let ctx = Arc::clone(&ctx);
        let limits = config.limits();
        let idle = config.keep_alive_timeout;
        workers.push(
            std::thread::Builder::new()
                .name(format!("ontoaccess-worker-{i}"))
                .spawn(move || worker_loop(&queue, &registry, &ctx, limits, idle))?,
        );
    }
    let acceptor = {
        let queue = Arc::clone(&queue);
        let rejections = ctx.metrics.overload_rejections;
        let flag = Arc::clone(&shutdown_flag);
        std::thread::Builder::new()
            .name("ontoaccess-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &queue, rejections, &flag))?
    };

    Ok(ServerHandle {
        addr,
        shutdown_flag,
        queue,
        registry,
        acceptor: Some(acceptor),
        workers,
    })
}

/// A running server: its address and shutdown control.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown_flag: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    registry: Arc<ConnRegistry>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// queued, let in-flight requests finish and their responses
    /// flush, close idle keep-alive connections, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Block until the server stops (it only stops via
    /// [`ServerHandle::shutdown`], so for a foreground server this
    /// means "serve until the process is killed").
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn shutdown_impl(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return; // already shut down
        };
        // 1. Stop the acceptor: raise the flag, then poke the blocking
        //    accept() with a throwaway connection. An unspecified bind
        //    address is poked on its own family's loopback.
        self.shutdown_flag.store(true, Ordering::SeqCst);
        let poke_ip = match self.addr.ip() {
            ip if !ip.is_unspecified() => ip,
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        };
        let poke_addr = SocketAddr::new(poke_ip, self.addr.port());
        let _ = TcpStream::connect_timeout(&poke_addr, Duration::from_secs(1));
        let _ = acceptor.join();
        // 2. Close the queue (workers drain what is already accepted)
        //    and unblock workers parked in keep-alive reads.
        self.queue.close();
        self.registry.shutdown_reads();
        // 3. Wait for every worker to finish its in-flight work.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ----------------------------------------------------------------------
// Acceptor
// ----------------------------------------------------------------------

fn acceptor_loop(
    listener: &TcpListener,
    queue: &ConnQueue,
    rejections: &obs::Counter,
    shutdown: &AtomicBool,
) {
    for incoming in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = incoming else { continue };
        if let Err(stream) = queue.push(stream) {
            // Overload: reject inline rather than queue without bound.
            rejections.inc();
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let response = router::attach_request_id(
                Response::new(
                    503,
                    error_map::ERROR_CONTENT_TYPE,
                    error_map::protocol_error_body(503, "server overloaded; retry shortly"),
                )
                .with_header("Retry-After", "1"),
                &obs::next_request_id(),
            );
            let mut stream = stream;
            let _ = http::write_response(&mut stream, &response, false, false);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

// ----------------------------------------------------------------------
// Workers
// ----------------------------------------------------------------------

fn worker_loop(
    queue: &ConnQueue,
    registry: &ConnRegistry,
    ctx: &AppContext,
    limits: Limits,
    idle: Duration,
) {
    let session = ctx.mediator.read();
    while let Some((stream, queue_wait)) = queue.pop() {
        let _ = stream.set_nodelay(true);
        // A panicking handler must not take the worker down with it:
        // the connection is dropped, the next one is served. (Mediator
        // state stays consistent — a panicked WriteTxn rolls back in
        // its Drop.)
        let _ = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(stream, queue_wait, registry, ctx, &session, limits, idle);
        }));
    }
}

fn serve_connection(
    stream: TcpStream,
    queue_wait: Duration,
    registry: &ConnRegistry,
    ctx: &AppContext,
    session: &ReadSession,
    limits: Limits,
    idle: Duration,
) {
    let mut conn = Connection::new(stream, limits);
    // The pool wait belongs to the first request on the connection;
    // keep-alive successors never queued.
    let mut queue_wait = Some(queue_wait);
    loop {
        let closing = registry.closing();
        // While draining, don't let a silent client park the worker:
        // read with a short timeout and close after the response.
        let timeout = if closing {
            idle.min(Duration::from_millis(200))
        } else {
            idle
        };
        let _ = conn.set_read_timeout(timeout);
        // Park-registration makes this blocking read interruptible by
        // shutdown; skipped while draining (the short timeout bounds
        // the wait instead).
        let ticket = (!closing).then(|| registry.register(conn.stream_ref()));
        let read = conn.read_request();
        if let Some(ticket) = ticket {
            registry.deregister(ticket);
        }
        match read {
            // Peer closed between requests, or idle timeout: done.
            Ok(None) => return,
            Ok(Some(request)) => {
                let response = router::handle_request(ctx, session, &request, queue_wait.take());
                let keep_alive = request.wants_keep_alive() && !registry.closing();
                let head_only = request.method == "HEAD";
                if http::write_response(conn.stream(), &response, keep_alive, head_only).is_err() {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            Err(error) => {
                if let Some(status) = error.status() {
                    let response = router::attach_request_id(
                        Response::new(
                            status,
                            error_map::ERROR_CONTENT_TYPE,
                            error_map::protocol_error_body(status, &error.message()),
                        ),
                        &obs::next_request_id(),
                    );
                    let _ = http::write_response(conn.stream(), &response, false, false);
                }
                return;
            }
        }
    }
}
