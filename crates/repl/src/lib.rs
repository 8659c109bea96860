//! Replication: WAL shipping from one durable leader to read replicas.
//!
//! The paper's mediator is a single-writer system — every update
//! funnels through one [`ontoaccess::Mediator`] so the semantic checks
//! of Algorithm 1 see a consistent database. This crate scales *reads*
//! without giving that up: one **leader** owns the data directory and
//! the write path; any number of **followers** bootstrap from the
//! leader's newest snapshot and then tail its write-ahead log over
//! HTTP, replaying each committed transaction through the same
//! [`rel::Database::apply_logical`] path recovery uses. A follower is therefore
//! byte-identical to a leader that crashed and recovered at the same
//! commit — replication *is* continuous remote recovery.
//!
//! # Protocol
//!
//! Two leader endpoints (served by `ontoaccess-server`):
//!
//! * `GET /snapshot/latest` — the newest snapshot file, verbatim.
//!   Headers carry its commit seq and the current WAL epoch.
//! * `GET /wal?from=<abs-offset>&epoch=<e>&timeout_ms=<t>` — committed
//!   WAL bytes starting at the absolute file offset `from`. Only
//!   fsync-acknowledged bytes are ever served (never the torn tail), so
//!   whatever a follower applies is durable on the leader. When the
//!   follower is caught up the leader parks the request (long-poll)
//!   until new bytes commit or the timeout lapses. A checkpoint
//!   truncates the WAL and bumps its **epoch**; requests carrying a
//!   stale epoch are answered `409` with the new coordinates, and the
//!   follower either adopts them (its applied state already covers the
//!   new snapshot) or re-bootstraps.
//!
//! # Divergence contract
//!
//! A follower never silently diverges. Network errors are retried with
//! capped exponential backoff; everything that could make the replica's
//! state differ from the leader's — a snapshot that fails its schema
//! fingerprint or CRC, a WAL suffix that does not scan as commit
//! units, a replay error — is a hard failure: the tail thread stops in
//! the `failed` state and keeps the last consistent version serving.

// `OntoResult` is the workspace-wide error surface; its size is core's
// concern (core allows the same lint), not worth boxing at this layer.
#![allow(clippy::result_large_err)]

pub mod client;

pub use client::{LeaderClient, LeaderResponse};

use dur::codec::DictTable;
use dur::wal::WAL_MAGIC;
use ontoaccess::{Mediator, OntoError, OntoResult};
use r3m::Mapping;
use rel::{Database, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Replicator`].
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Long-poll timeout sent to the leader's `/wal` endpoint. The
    /// client-side read timeout is this plus a fixed margin.
    pub poll_timeout: Duration,
    /// First reconnect delay after a network error.
    pub backoff_initial: Duration,
    /// Reconnect delay cap (doubling backoff saturates here).
    pub backoff_max: Duration,
    /// How long the initial bootstrap keeps retrying before
    /// [`Replicator::start`] gives up and returns an error.
    pub bootstrap_timeout: Duration,
    /// Test hook: sleep this long before applying each commit unit,
    /// so tests can observe a lagging follower deterministically.
    /// Zero (the default) applies at full speed.
    pub throttle_apply: Duration,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        ReplicatorConfig {
            poll_timeout: Duration::from_secs(10),
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            bootstrap_timeout: Duration::from_secs(30),
            throttle_apply: Duration::ZERO,
        }
    }
}

/// Lifecycle state of the tail thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplState {
    /// Fetching and decoding the leader's snapshot.
    Bootstrapping,
    /// Connected and applying (or caught up and long-polling).
    Streaming,
    /// Lost the leader; retrying with backoff. Reads keep serving the
    /// last applied version.
    Reconnecting,
    /// Hard error (corruption, fingerprint mismatch, replay failure):
    /// replication stopped rather than risk divergence. The replica
    /// keeps serving its last consistent version.
    Failed,
    /// Shut down via [`Replicator::stop`].
    Stopped,
}

impl ReplState {
    /// Stable lowercase name for wire formats.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplState::Bootstrapping => "bootstrapping",
            ReplState::Streaming => "streaming",
            ReplState::Reconnecting => "reconnecting",
            ReplState::Failed => "failed",
            ReplState::Stopped => "stopped",
        }
    }
}

#[derive(Debug)]
struct StatusInner {
    leader: String,
    applied_seq: AtomicU64,
    leader_seq: AtomicU64,
    /// Leader's durable WAL extent (absolute bytes) from the last
    /// contact.
    leader_wal_bytes: AtomicU64,
    /// Absolute offset up to which this follower has consumed the WAL.
    applied_bytes: AtomicU64,
    reconnects: AtomicU64,
    slow: Mutex<SlowStatus>,
}

#[derive(Debug)]
struct SlowStatus {
    state: ReplState,
    last_contact: Option<Instant>,
    last_error: Option<String>,
}

/// Shared, cheaply clonable view of a replicator's progress. The
/// server embeds one in `/status`; tests poll it for convergence.
#[derive(Debug, Clone)]
pub struct ReplicationStatus {
    inner: Arc<StatusInner>,
}

/// Point-in-time copy of everything [`ReplicationStatus`] tracks.
#[derive(Debug, Clone)]
pub struct ReplicationSnapshot {
    /// Leader address this follower replicates from.
    pub leader: String,
    /// Tail-thread state.
    pub state: ReplState,
    /// Highest commit seq applied locally.
    pub applied_seq: u64,
    /// Leader's last known commit seq.
    pub leader_seq: u64,
    /// Commits the leader has durably logged but we have not applied.
    pub lag_units: u64,
    /// Durable WAL bytes we have not yet consumed.
    pub lag_bytes: u64,
    /// Milliseconds since the last successful leader response, if any.
    pub last_contact_ms: Option<u64>,
    /// Times the connection was re-established after a failure.
    pub reconnects: u64,
    /// Last error message (transient or fatal), if any.
    pub last_error: Option<String>,
}

impl ReplicationStatus {
    fn new(leader: String) -> ReplicationStatus {
        ReplicationStatus {
            inner: Arc::new(StatusInner {
                leader,
                applied_seq: AtomicU64::new(0),
                leader_seq: AtomicU64::new(0),
                leader_wal_bytes: AtomicU64::new(0),
                applied_bytes: AtomicU64::new(WAL_MAGIC.len() as u64),
                reconnects: AtomicU64::new(0),
                slow: Mutex::new(SlowStatus {
                    state: ReplState::Bootstrapping,
                    last_contact: None,
                    last_error: None,
                }),
            }),
        }
    }

    /// Snapshot every tracked quantity at once.
    pub fn snapshot(&self) -> ReplicationSnapshot {
        let (state, last_contact_ms, last_error) = {
            let slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
            (
                slow.state,
                slow.last_contact
                    .map(|t| t.elapsed().as_millis().min(u64::MAX as u128) as u64),
                slow.last_error.clone(),
            )
        };
        let applied_seq = self.inner.applied_seq.load(Ordering::Acquire);
        let leader_seq = self.inner.leader_seq.load(Ordering::Acquire);
        let applied_bytes = self.inner.applied_bytes.load(Ordering::Acquire);
        let leader_wal_bytes = self.inner.leader_wal_bytes.load(Ordering::Acquire);
        ReplicationSnapshot {
            leader: self.inner.leader.clone(),
            state,
            applied_seq,
            leader_seq,
            lag_units: leader_seq.saturating_sub(applied_seq),
            lag_bytes: leader_wal_bytes.saturating_sub(applied_bytes),
            last_contact_ms,
            reconnects: self.inner.reconnects.load(Ordering::Acquire),
            last_error,
        }
    }

    /// Leader address this follower replicates from.
    pub fn leader(&self) -> &str {
        &self.inner.leader
    }

    fn set_state(&self, state: ReplState) {
        let mut slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        // A hard failure is terminal (except for explicit stop).
        if slow.state != ReplState::Failed || state == ReplState::Stopped {
            slow.state = state;
        }
    }

    fn note_error(&self, message: String) {
        let mut slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.last_error = Some(message);
    }

    fn fail(&self, message: String) {
        let mut slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.state = ReplState::Failed;
        slow.last_error = Some(message);
    }

    fn touch_contact(&self) {
        let mut slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
        slow.last_contact = Some(Instant::now());
    }
}

/// Interruptible sleep: `stop()` wakes every sleeper immediately.
#[derive(Debug, Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    fn set(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }

    fn is_set(&self) -> bool {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sleep up to `d`; returns `true` if stop was signalled.
    fn sleep(&self, d: Duration) -> bool {
        let deadline = Instant::now() + d;
        let mut stopped = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(stopped, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            stopped = guard;
        }
        true
    }
}

/// Handle to a running replication tail. Keep it alive for as long as
/// the replica should follow the leader; [`Replicator::stop`] (or
/// dropping it) ends the tail.
#[derive(Debug)]
pub struct Replicator {
    status: ReplicationStatus,
    stop: Arc<StopSignal>,
    thread: Option<JoinHandle<()>>,
}

impl Replicator {
    /// Bootstrap a read replica of `leader` and start tailing its WAL.
    ///
    /// `initial` supplies the schema the leader's snapshots must match
    /// (its data is discarded — the snapshot's rows win); `mapping` is
    /// the same R3M mapping the leader serves. Blocks until the
    /// bootstrap snapshot is fetched, verified, and installed (retrying
    /// network errors up to `config.bootstrap_timeout`), then spawns
    /// the tail thread and returns the read-only [`Mediator`] plus
    /// this handle.
    pub fn start(
        leader: impl Into<String>,
        initial: Database,
        mapping: Mapping,
        config: ReplicatorConfig,
    ) -> OntoResult<(Mediator, Replicator)> {
        let leader = leader.into();
        let schema = initial.schema().clone();
        let status = ReplicationStatus::new(leader.clone());
        let stop = Arc::new(StopSignal::default());
        let mut client = LeaderClient::new(leader.clone());

        // Synchronous bootstrap with backoff: the caller gets either a
        // consistent replica or an error, never a half-installed one.
        let deadline = Instant::now() + config.bootstrap_timeout;
        let mut backoff = config.backoff_initial;
        let (snap_seq, db, dict) = loop {
            match fetch_snapshot(&mut client, &schema) {
                Ok(bootstrap) => break bootstrap,
                Err(TailError::Fatal(message)) => {
                    return Err(OntoError::Storage {
                        message: format!("bootstrap from {leader} failed: {message}"),
                    });
                }
                Err(TailError::Retryable(message)) => {
                    if Instant::now() + backoff >= deadline {
                        return Err(OntoError::Storage {
                            message: format!(
                                "bootstrap from {leader} timed out after {:?}: {message}",
                                config.bootstrap_timeout
                            ),
                        });
                    }
                    status.note_error(message);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.backoff_max);
                }
            }
        };

        let mediator = Mediator::new_replica(db, mapping, leader, snap_seq)?;
        status.inner.applied_seq.store(snap_seq, Ordering::Release);
        status.inner.leader_seq.store(snap_seq, Ordering::Release);
        status.set_state(ReplState::Streaming);

        let tail = Tail {
            mediator: mediator.clone(),
            client,
            schema,
            status: status.clone(),
            stop: Arc::clone(&stop),
            config,
            dict,
            // Epoch invariant: the leader's WAL epoch always equals its
            // newest snapshot's seq, so the bootstrap snapshot tells us
            // the epoch to tail under.
            epoch: snap_seq,
            applied: snap_seq,
            consumed_edge: WAL_MAGIC.len() as u64,
            buffer: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name("repl-tail".into())
            .spawn(move || tail.run())
            .map_err(|e| OntoError::Storage {
                message: format!("cannot spawn replication thread: {e}"),
            })?;

        Ok((
            mediator,
            Replicator {
                status,
                stop,
                thread: Some(thread),
            },
        ))
    }

    /// The shared progress handle (clone it into server config).
    pub fn status(&self) -> ReplicationStatus {
        self.status.clone()
    }

    /// Signal the tail thread and wait for it to exit. Waits at most
    /// one long-poll round trip.
    pub fn stop(mut self) {
        self.stop.set();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.status.set_state(ReplState::Stopped);
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        // Signal but do not join: dropping must not block for a
        // long-poll round trip. The detached thread exits on its own.
        self.stop.set();
    }
}

/// Errors inside the tail loop, split by the divergence contract:
/// retryable faults back off and reconnect, fatal ones stop the tail.
enum TailError {
    Retryable(String),
    Fatal(String),
}

// Process-global fetch round-trip histogram. Lag and reconnects live in
// [`ReplicationStatus`]; the server's `/metrics` reads them at scrape.
fn fetch_rtt() -> &'static obs::Histogram {
    static FETCH_RTT: std::sync::OnceLock<&'static obs::Histogram> = std::sync::OnceLock::new();
    FETCH_RTT.get_or_init(|| {
        obs::registry().latency_histogram(
            "ontoaccess_repl_fetch_seconds",
            "Round-trip time of follower WAL fetches (includes leader long-poll wait)",
        )
    })
}

/// Fetch and verify the leader's newest snapshot.
fn fetch_snapshot(
    client: &mut LeaderClient,
    schema: &Schema,
) -> Result<(u64, Database, DictTable), TailError> {
    let response = client
        .get("/snapshot/latest", Duration::from_secs(30))
        .map_err(|e| TailError::Retryable(format!("snapshot fetch: {e}")))?;
    match response.status {
        200 => {
            // Fingerprint or CRC mismatch is fatal: applying a foreign
            // snapshot is exactly the silent divergence we refuse.
            let (seq, db, dict) = dur::snapshot::decode_snapshot(&response.body, schema)
                .map_err(|e| TailError::Fatal(format!("snapshot rejected: {e}")))?;
            Ok((seq, db, dict))
        }
        501 => Err(TailError::Fatal(
            "leader serves no snapshots (not durable, or itself a replica)".into(),
        )),
        status => Err(TailError::Retryable(format!(
            "snapshot fetch: leader answered {status}"
        ))),
    }
}

/// The tail thread's whole mutable state.
struct Tail {
    mediator: Mediator,
    client: LeaderClient,
    schema: Schema,
    status: ReplicationStatus,
    stop: Arc<StopSignal>,
    config: ReplicatorConfig,
    /// Live dictionary, kept in lockstep with the leader's via the
    /// deltas each scanned unit carries.
    dict: DictTable,
    /// WAL epoch (== the leader snapshot seq we bootstrapped from).
    epoch: u64,
    /// Highest commit seq applied locally.
    applied: u64,
    /// Absolute offset of the first unconsumed WAL byte (everything
    /// before it has been applied and dropped).
    consumed_edge: u64,
    /// Fetched-but-unconsumed bytes starting at `consumed_edge` — a
    /// fetch chunk may end mid-unit, so the tail is carried over.
    buffer: Vec<u8>,
}

impl Tail {
    // Terminal failure: log the replication coordinates (the operator's
    // starting point for diagnosis) and latch the failed state.
    fn fail(&self, message: String) {
        let offset = self.consumed_edge + self.buffer.len() as u64;
        obs::log(
            obs::Level::Error,
            "repl",
            "replication failed",
            &[
                ("leader", &self.client.leader()),
                ("epoch", &self.epoch),
                ("offset", &offset),
                ("error", &message),
            ],
        );
        self.status.fail(message);
    }

    fn run(mut self) {
        let mut backoff = self.config.backoff_initial;
        let mut connected = true;
        let read_margin = Duration::from_secs(10);
        loop {
            if self.stop.is_set() {
                return;
            }
            let from = self.consumed_edge + self.buffer.len() as u64;
            let path = format!(
                "/wal?from={from}&epoch={}&timeout_ms={}",
                self.epoch,
                self.config.poll_timeout.as_millis()
            );
            // Each fetch runs under its own trace, keyed by the request
            // id the leader also sees (`X-Request-Id` on the wire), so
            // leader-side logs stitch to the follower poll that caused
            // them. Only data-carrying fetches are worth a store slot;
            // caught-up polls and connection errors are discarded
            // (logged and counted elsewhere).
            let request_id = obs::next_request_id();
            let fetch_trace = obs::trace::start(&request_id, "repl.fetch");
            fetch_trace.attr_str("leader", self.client.leader());
            fetch_trace.attr_u64("epoch", self.epoch);
            fetch_trace.attr_u64("from", from);
            let fetch_started = Instant::now();
            let response = match self.client.get_with_request_id(
                &path,
                self.config.poll_timeout + read_margin,
                &request_id,
            ) {
                Ok(response) => {
                    fetch_rtt().observe_duration(fetch_started.elapsed());
                    response
                }
                Err(e) => {
                    fetch_trace.discard();
                    if connected {
                        self.status.inner.reconnects.fetch_add(1, Ordering::AcqRel);
                        connected = false;
                    }
                    obs::log(
                        obs::Level::Warn,
                        "repl",
                        "leader unreachable, reconnecting",
                        &[
                            ("leader", &self.client.leader()),
                            ("epoch", &self.epoch),
                            ("offset", &from),
                            ("error", &e),
                        ],
                    );
                    self.status.set_state(ReplState::Reconnecting);
                    self.status.note_error(format!("leader unreachable: {e}"));
                    if self.stop.sleep(backoff) {
                        return;
                    }
                    backoff = (backoff * 2).min(self.config.backoff_max);
                    continue;
                }
            };
            self.status.touch_contact();
            fetch_trace.attr_u64("status", response.status as u64);
            fetch_trace.attr_u64("bytes", response.body.len() as u64);
            if response.status == 200 && !response.body.is_empty() {
                fetch_trace.finish();
            } else {
                fetch_trace.discard();
            }
            match response.status {
                200 => {
                    connected = true;
                    backoff = self.config.backoff_initial;
                    self.status.set_state(ReplState::Streaming);
                    if let Err(fatal) = self.ingest(&response) {
                        self.fail(fatal);
                        return;
                    }
                }
                409 => {
                    // Reposition: a checkpoint truncated the WAL. If our
                    // applied state already covers the new snapshot we
                    // just adopt the new coordinates; otherwise we fell
                    // behind the truncation and must re-bootstrap.
                    connected = true;
                    backoff = self.config.backoff_initial;
                    let new_epoch = response.header_u64("x-wal-epoch");
                    let snapshot_seq = response.header_u64("x-snapshot-seq");
                    match (new_epoch, snapshot_seq) {
                        (Some(epoch), Some(snap)) if self.applied >= snap => {
                            self.epoch = epoch;
                            self.consumed_edge = WAL_MAGIC.len() as u64;
                            self.buffer.clear();
                            self.status
                                .inner
                                .applied_bytes
                                .store(self.consumed_edge, Ordering::Release);
                        }
                        _ => match self.rebootstrap() {
                            Ok(()) => {}
                            Err(TailError::Fatal(message)) => {
                                self.fail(message);
                                return;
                            }
                            Err(TailError::Retryable(message)) => {
                                self.status.note_error(message);
                                if self.stop.sleep(backoff) {
                                    return;
                                }
                                backoff = (backoff * 2).min(self.config.backoff_max);
                            }
                        },
                    }
                }
                501 => {
                    // The leader has no WAL to ship — it is not durable
                    // (or itself a replica). That cannot heal by retry.
                    self.fail(
                        "leader does not ship a WAL (not durable, or itself a replica)".into(),
                    );
                    return;
                }
                status => {
                    // Transient server-side condition (overload, restart
                    // in progress): back off like a network error.
                    self.status
                        .note_error(format!("wal fetch: leader answered {status}"));
                    if self.stop.sleep(backoff) {
                        return;
                    }
                    backoff = (backoff * 2).min(self.config.backoff_max);
                }
            }
        }
    }

    /// Consume one successful `/wal` response: buffer the bytes, scan
    /// complete commit units, apply the new ones, and drop what was
    /// consumed. Returns the fatal-failure message on divergence.
    fn ingest(&mut self, response: &LeaderResponse) -> Result<(), String> {
        if let Some(seq) = response.header_u64("x-leader-seq") {
            self.status.inner.leader_seq.store(seq, Ordering::Release);
        }
        let leader_extent = response.header_u64("x-wal-size");
        if let Some(extent) = leader_extent {
            self.status
                .inner
                .leader_wal_bytes
                .store(extent, Ordering::Release);
        }
        if response.body.is_empty() {
            return Ok(()); // caught up; the long poll timed out
        }
        self.buffer.extend_from_slice(&response.body);

        // Scan the whole buffer each round. The scan rolls torn units'
        // dictionary deltas back, so re-scanning a carried-over tail
        // leaves `dict` exactly at the committed frontier.
        let scan = dur::wal::scan_records(&self.buffer, &mut self.dict);
        let consumed = (scan.durable_end - WAL_MAGIC.len() as u64) as usize;
        for unit in &scan.units {
            if self.stop.is_set() {
                return Ok(());
            }
            if unit.seq <= self.applied {
                continue; // already covered by the bootstrap snapshot
            }
            if !self.config.throttle_apply.is_zero() && self.stop.sleep(self.config.throttle_apply)
            {
                return Ok(());
            }
            // A unit stamped with a trace id gets an apply trace under
            // the *same* key, so `GET /trace/<request-id>` on this
            // replica links the leader-side write to its local apply —
            // the cross-node half of the trace.
            let apply_trace = unit.trace_id.as_deref().map(|id| {
                let trace = obs::trace::start(id, "repl.apply");
                trace.attr_u64("leader_seq", unit.seq);
                trace.attr_u64("epoch", self.epoch);
                trace.attr_str("leader", self.client.leader());
                trace.attr_u64("ops", unit.ops().count() as u64);
                trace
            });
            if let Err(e) = self.mediator.apply_replicated(unit) {
                // Drop glue submits the trace as an error trace
                // (priority retention) on the way out.
                obs::trace::mark_error();
                return Err(format!("replay of commit {} failed: {e}", unit.seq));
            }
            drop(apply_trace);
            self.applied = unit.seq;
            self.status
                .inner
                .applied_seq
                .store(unit.seq, Ordering::Release);
        }
        self.buffer.drain(..consumed);
        self.consumed_edge += consumed as u64;
        self.status
            .inner
            .applied_bytes
            .store(self.consumed_edge, Ordering::Release);

        // A leftover tail is normal while a unit is split across fetch
        // chunks — but if the leader says we already hold every durable
        // byte and the tail still does not scan, the stream is corrupt.
        if !self.buffer.is_empty()
            && leader_extent == Some(self.consumed_edge + self.buffer.len() as u64)
        {
            return Err(format!(
                "wal stream corrupt at offset {}: {} durable byte(s) do not scan as commit units",
                self.consumed_edge,
                self.buffer.len()
            ));
        }
        Ok(())
    }

    /// Full re-bootstrap after falling behind a checkpoint: fetch the
    /// newest snapshot and swap it in wholesale.
    fn rebootstrap(&mut self) -> Result<(), TailError> {
        let (snap_seq, db, dict) = fetch_snapshot(&mut self.client, &self.schema)?;
        if snap_seq <= self.applied {
            // The snapshot does not advance us (raced another
            // checkpoint, or the 409 was spurious); adopt coordinates
            // on the next poll instead of regressing the version chain.
            return Ok(());
        }
        self.mediator
            .install_replica_base(db, snap_seq)
            .map_err(|e| TailError::Fatal(format!("installing snapshot {snap_seq}: {e}")))?;
        self.dict = dict;
        self.epoch = snap_seq;
        self.applied = snap_seq;
        self.consumed_edge = WAL_MAGIC.len() as u64;
        self.buffer.clear();
        self.status
            .inner
            .applied_seq
            .store(snap_seq, Ordering::Release);
        self.status
            .inner
            .applied_bytes
            .store(self.consumed_edge, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_snapshot_reports_lag_and_state() {
        let status = ReplicationStatus::new("127.0.0.1:9999".into());
        status.inner.applied_seq.store(3, Ordering::Release);
        status.inner.leader_seq.store(7, Ordering::Release);
        status.inner.applied_bytes.store(100, Ordering::Release);
        status.inner.leader_wal_bytes.store(450, Ordering::Release);
        status.touch_contact();
        let snap = status.snapshot();
        assert_eq!(snap.leader, "127.0.0.1:9999");
        assert_eq!(snap.state, ReplState::Bootstrapping);
        assert_eq!(snap.lag_units, 4);
        assert_eq!(snap.lag_bytes, 350);
        assert!(snap.last_contact_ms.is_some());
        assert_eq!(snap.reconnects, 0);
    }

    #[test]
    fn failed_state_is_terminal_except_for_stop() {
        let status = ReplicationStatus::new("x".into());
        status.fail("boom".into());
        status.set_state(ReplState::Streaming);
        assert_eq!(status.snapshot().state, ReplState::Failed);
        assert_eq!(status.snapshot().last_error.as_deref(), Some("boom"));
        status.set_state(ReplState::Stopped);
        assert_eq!(status.snapshot().state, ReplState::Stopped);
    }

    #[test]
    fn stop_signal_interrupts_sleep() {
        let signal = Arc::new(StopSignal::default());
        let waker = Arc::clone(&signal);
        let start = Instant::now();
        let sleeper = std::thread::spawn(move || signal.sleep(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        waker.set();
        assert!(sleeper.join().unwrap());
        assert!(start.elapsed() < Duration::from_secs(5));
        // Already-stopped signal returns immediately.
        assert!(waker.sleep(Duration::from_secs(30)));
    }

    #[test]
    fn bootstrap_against_dead_leader_times_out() {
        // Bound then dropped: nothing listens here.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ReplicatorConfig {
            bootstrap_timeout: Duration::from_millis(300),
            backoff_initial: Duration::from_millis(50),
            ..ReplicatorConfig::default()
        };
        let err = Replicator::start(
            addr.to_string(),
            fixtures::database(),
            fixtures::mapping(),
            config,
        )
        .expect_err("bootstrap must fail without a leader");
        assert!(err.to_string().contains("timed out"), "{err}");
    }
}
