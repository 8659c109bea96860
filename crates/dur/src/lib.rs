//! Durability subsystem for the OntoAccess reproduction: a write-ahead
//! log of logical row operations, full-database snapshots, and crash
//! recovery — std-only, like the rest of the workspace (the build
//! environment has no registry access).
//!
//! The design follows the ledger shape of production RDF stores: an
//! append-only log of committed operations ([`wal`]) plus periodically
//! materialized snapshots ([`snapshot`]), with recovery defined as
//! *newest valid snapshot + committed WAL suffix* and a torn tail
//! truncated. The unit logged is the **logical** row operation stream a
//! committed `rel` transaction actually applied
//! ([`rel::Database::txn_ops`], a view of its redo log): inserts carry
//! their assigned row ids, so replay reproduces the pre-crash heap,
//! indexes, and row-id allocators byte-identically.
//!
//! # Commit protocol (group commit)
//!
//! A committer appends its commit unit with [`Durability::append_commit`]
//! *before* acknowledging (while still holding the database write lock,
//! so log order equals commit order), then waits on
//! [`Durability::sync_to`]. The wait is a group commit: one `fsync`
//! covers every record appended before it started, so concurrent
//! committers piggyback on whichever fsync is in flight instead of
//! issuing their own — commit throughput under multi-writer load is
//! bounded by fsync *rate*, not fsync rate × writers.
//!
//! # Crash contract
//!
//! * An acknowledged commit (one whose `sync_to` returned) survives any
//!   later crash.
//! * An unacknowledged commit either survives whole or is dropped whole
//!   (its `BEGIN…COMMIT` bracketing decides; a torn suffix is truncated
//!   on recovery).
//! * A crash during checkpoint leaves the previous snapshot
//!   authoritative (write-temporary + rename).
//! * If a WAL write or fsync ever fails, the handle poisons itself:
//!   further durable commits are refused until a restart re-runs
//!   recovery — the in-memory database is never allowed to silently
//!   diverge from what the log can reproduce.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod snapshot;
pub mod wal;

pub use error::{DurError, DurResult};

use crate::codec::DictTable;
use crate::error::IoContext;
use rel::{Database, LogicalOp, Schema};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Largest byte span one [`Durability::fetch_wal`] call returns. A
/// chunk boundary may split a commit unit; followers keep the torn
/// tail buffered and complete it with the next fetch.
pub const MAX_WAL_CHUNK: u64 = 4 << 20;

// Sentinel for "no snapshot yet" in the atomic last-snapshot slot.
const NO_SNAPSHOT: u64 = u64::MAX;

// Process-global durability metrics (handles resolved once; hot paths
// touch only relaxed atomics — see `obs`).
struct DurMetrics {
    append: &'static obs::Histogram,
    fsync: &'static obs::Histogram,
    group_units: &'static obs::Histogram,
    checkpoint: &'static obs::Histogram,
}

fn metrics() -> &'static DurMetrics {
    static METRICS: std::sync::OnceLock<DurMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = obs::registry();
        DurMetrics {
            append: registry.latency_histogram(
                "ontoaccess_wal_append_seconds",
                "Time to encode and write one commit unit to the WAL",
            ),
            fsync: registry.latency_histogram(
                "ontoaccess_wal_fsync_seconds",
                "Duration of each WAL fsync (group commit)",
            ),
            group_units: registry.sized_histogram(
                "ontoaccess_wal_group_commit_units",
                "Commit units made durable per fsync",
                obs::COUNT_BUCKETS,
            ),
            checkpoint: registry.latency_histogram(
                "ontoaccess_checkpoint_seconds",
                "Duration of each checkpoint (snapshot write + WAL truncation)",
            ),
        }
    })
}

// Append-side state: the next commit sequence, the current log size,
// and the persistent-id dictionary table. Guarded by one mutex so
// records are framed into the file atomically and in sequence order —
// which also serializes pid assignment, keeping pids dense in commit
// order.
#[derive(Debug)]
struct AppendState {
    next_seq: u64,
    wal_bytes: u64,
    dict: DictTable,
}

// Sync-side state for group commit.
#[derive(Debug)]
struct SyncState {
    // Highest sequence known durable (fsynced, or covered by a
    // checkpointed snapshot).
    synced_seq: u64,
    // WAL byte extent known durable — replication serves exactly
    // [0, durable_bytes): fsynced whole commit units, never the tail a
    // crash could tear. Checkpoint clamps it back to the magic length
    // (under this mutex, together with the epoch store) the moment the
    // snapshot makes the log's content obsolete.
    durable_bytes: u64,
    // Whether some thread is currently inside fsync (or checkpoint
    // holds the token while truncating).
    sync_running: bool,
}

/// A coordinate in the leader's WAL, as served to replication
/// followers.
///
/// `epoch` identifies one *content lifetime* of the log file: it is the
/// sequence of the newest snapshot (or [`u64::MAX`] before the first
/// one), which changes exactly when a checkpoint truncates away content
/// a follower might still be reading — and is stable across leader
/// restarts, so follower offsets survive a leader crash. A byte offset
/// is only meaningful together with the epoch it was observed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Content lifetime of the WAL file (raw last-snapshot slot).
    pub epoch: u64,
    /// Bytes of the file (magic included) that are durable.
    pub durable_bytes: u64,
    /// Highest durable commit sequence.
    pub durable_seq: u64,
    /// Sequence of the newest snapshot, if any.
    pub snapshot_seq: Option<u64>,
}

/// Outcome of a follower's [`Durability::fetch_wal`] poll.
#[derive(Debug)]
pub enum WalFetch {
    /// Durable bytes starting exactly at the requested offset.
    Data {
        /// The bytes (whole span is durable; may end mid-unit when the
        /// chunk cap splits one).
        bytes: Vec<u8>,
        /// Position after the read (epoch verified unchanged).
        position: WalPosition,
    },
    /// The follower is at the durable edge and nothing new arrived
    /// within the timeout.
    CaughtUp {
        /// Current position.
        position: WalPosition,
    },
    /// The requested coordinate is not servable — the epoch changed
    /// (checkpoint truncation) or the offset is out of range. The
    /// follower must restart from the returned position: offset
    /// [`wal::WAL_MAGIC`]`.len()` in the new epoch if its applied
    /// sequence covers the snapshot, else a fresh snapshot bootstrap.
    Reposition {
        /// Current position.
        position: WalPosition,
    },
}

/// What recovery found and did while opening a data directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery started from (`None` = fresh
    /// directory or no usable snapshot; recovery started from the
    /// caller's initial database).
    pub snapshot_seq: Option<u64>,
    /// Committed transactions replayed from the WAL suffix.
    pub commits_replayed: u64,
    /// Logical row operations replayed.
    pub rows_replayed: u64,
    /// Bytes of torn/uncommitted WAL tail truncated.
    pub truncated_bytes: u64,
}

/// Point-in-time durability counters (surfaced on a server's `/status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current WAL file size in bytes.
    pub wal_bytes: u64,
    /// Commit units appended since open.
    pub commits_appended: u64,
    /// `fsync` calls issued since open — under concurrent writers this
    /// stays below `commits_appended` (group commit).
    pub wal_syncs: u64,
    /// Committed transactions replayed at open.
    pub records_replayed: u64,
    /// Logical row operations replayed at open.
    pub rows_replayed: u64,
    /// Sequence of the newest snapshot on disk.
    pub last_snapshot_seq: Option<u64>,
    /// Highest commit sequence appended so far.
    pub last_commit_seq: u64,
    /// Whether an I/O failure poisoned the handle (writes refused).
    pub poisoned: bool,
}

/// Handle to one durable data directory: the open WAL plus checkpoint
/// state. `Send + Sync`; one handle serves every committer.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal_file: File,
    append: Mutex<AppendState>,
    sync: Mutex<SyncState>,
    synced: Condvar,
    poisoned: AtomicBool,
    commits_appended: AtomicU64,
    wal_syncs: AtomicU64,
    last_snapshot_seq: AtomicU64,
    // Recovery facts, fixed at open.
    commits_replayed: u64,
    rows_replayed: u64,
}

/// Result of [`Durability::open`]: the recovered database, the live
/// durability handle, and what recovery did.
#[derive(Debug)]
pub struct Opened {
    /// The recovered database (newest valid snapshot + committed WAL
    /// suffix).
    pub db: Database,
    /// The durability handle for the directory.
    pub durability: Durability,
    /// What recovery found.
    pub report: RecoveryReport,
}

impl Durability {
    /// Open (or create) a data directory and recover its durable state.
    ///
    /// `initial` provides the schema and — for a fresh directory — the
    /// base data: on first open the initial database is immediately
    /// checkpointed as `snapshot-0`, so the boot-time base state
    /// survives restarts too. On later opens `initial`'s *data* is
    /// ignored; the newest snapshot plus the committed WAL suffix win,
    /// and any torn WAL tail is truncated. A snapshot written for a
    /// different schema is a hard [`DurError::SchemaMismatch`], and a
    /// corrupt newest snapshot is a hard [`DurError::Corrupt`] (the WAL
    /// was truncated against it, so no older state can substitute).
    pub fn open(dir: impl AsRef<Path>, initial: Database) -> DurResult<Opened> {
        let schema = initial.schema().clone();
        Self::open_with(dir, &schema, || initial)
    }

    /// [`Durability::open`] with the base state built on demand: `base`
    /// runs only when the directory holds no snapshot — the one case in
    /// which its data is used — so reopening an existing directory never
    /// pays for building a database it would discard. `schema` decodes
    /// an existing snapshot and must be `base`'s schema.
    pub fn open_with(
        dir: impl AsRef<Path>,
        schema: &Schema,
        base: impl FnOnce() -> Database,
    ) -> DurResult<Opened> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).io_context(format!("create data dir {}", dir.display()))?;

        // 1. The newest snapshot is authoritative. Corruption there is
        //    a *hard* error, not a fallback: checkpoints truncate the
        //    WAL against the snapshot they write, so recovering from
        //    anything older would silently resurrect a stale state.
        //    (Snapshots are written temp + fsync + rename, so a crashed
        //    checkpoint never leaves a half-written file under the
        //    final name — a corrupt one means bit rot or tampering.)
        let mut recovered: Option<(u64, Database, DictTable)> = None;
        if let Some((seq, path)) = snapshot::list_snapshots(&dir)?.into_iter().next() {
            let bytes = std::fs::read(&path).io_context(format!("read {}", path.display()))?;
            let (snapshot_seq, db, dict) = snapshot::decode_snapshot(&bytes, schema)?;
            debug_assert_eq!(snapshot_seq, seq, "file name vs content");
            recovered = Some((snapshot_seq, db, dict));
        }
        let snapshot_seq = recovered.as_ref().map(|(seq, ..)| *seq);
        let (base_seq, mut db, mut dict) =
            recovered.unwrap_or_else(|| (0, base(), DictTable::new()));

        // 2. The WAL: open for appending, scan, replay the committed
        //    suffix, truncate anything torn.
        let wal_path = dir.join(WAL_FILE);
        let wal_file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&wal_path)
            .io_context(format!("open {}", wal_path.display()))?;
        let bytes = std::fs::read(&wal_path).io_context(format!("read {}", wal_path.display()))?;

        let mut next_seq = base_seq + 1;
        let mut commits_replayed = 0u64;
        let mut rows_replayed = 0u64;
        let mut truncated_bytes = 0u64;
        let mut wal_bytes = wal::WAL_MAGIC.len() as u64;
        let mut wal_was_empty = true;

        if bytes.len() < wal::WAL_MAGIC.len() {
            // Fresh file, or a crash tore the very first header write:
            // (re)initialize.
            if !bytes.is_empty() {
                truncated_bytes = bytes.len() as u64;
                wal_file.set_len(0).io_context("truncate torn wal header")?;
            }
            (&wal_file)
                .write_all(wal::WAL_MAGIC)
                .io_context("write wal magic")?;
            wal_file.sync_data().io_context("fsync wal magic")?;
        } else if &bytes[..wal::WAL_MAGIC.len()] != wal::WAL_MAGIC {
            // Not our file — refuse to clobber it.
            return Err(DurError::Corrupt {
                message: format!("{} is not an OntoAccess WAL", wal_path.display()),
            });
        } else {
            wal_was_empty = bytes.len() == wal::WAL_MAGIC.len();
            // The scan extends the snapshot-seeded dictionary table
            // with each committed unit's delta (and rolls torn units'
            // deltas back), so afterwards `dict` is exactly the
            // writer's table as of the durable prefix.
            let scan = wal::scan_records(&bytes[wal::WAL_MAGIC.len()..], &mut dict);
            for unit in &scan.units {
                // Units at or below the snapshot's sequence are already
                // materialized (a crash between snapshot rename and WAL
                // truncation leaves them behind harmlessly).
                if unit.seq > base_seq {
                    for op in unit.ops() {
                        db.apply_logical(op)?;
                        rows_replayed += 1;
                    }
                    commits_replayed += 1;
                }
                next_seq = next_seq.max(unit.seq + 1);
            }
            if bytes.len() as u64 > scan.durable_end {
                truncated_bytes = bytes.len() as u64 - scan.durable_end;
                wal_file
                    .set_len(scan.durable_end)
                    .io_context("truncate torn wal tail")?;
                wal_file.sync_data().io_context("fsync wal truncation")?;
            }
            wal_bytes = scan.durable_end;
        }

        // 3. First boot of a truly fresh directory: checkpoint the base
        //    state as snapshot-0 so it survives restarts.
        let mut last_snapshot = snapshot_seq;
        if snapshot_seq.is_none() && wal_was_empty {
            snapshot::write_snapshot(&dir, 0, &db, &mut dict)?;
            last_snapshot = Some(0);
        }

        let synced_seq = next_seq - 1; // everything on disk is durable
        let durability = Durability {
            dir,
            wal_file,
            append: Mutex::new(AppendState {
                next_seq,
                wal_bytes,
                dict,
            }),
            sync: Mutex::new(SyncState {
                synced_seq,
                durable_bytes: wal_bytes,
                sync_running: false,
            }),
            synced: Condvar::new(),
            poisoned: AtomicBool::new(false),
            commits_appended: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            last_snapshot_seq: AtomicU64::new(last_snapshot.unwrap_or(NO_SNAPSHOT)),
            commits_replayed,
            rows_replayed,
        };
        Ok(Opened {
            db,
            durability,
            report: RecoveryReport {
                snapshot_seq,
                commits_replayed,
                rows_replayed,
                truncated_bytes,
            },
        })
    }

    /// The data directory this handle persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one transaction's logical operations as a commit unit and
    /// return its sequence. The unit is *written* but not yet durable —
    /// call [`Durability::sync_to`] with the returned sequence before
    /// acknowledging the commit. Callers append while still holding the
    /// database write lock so log order equals commit order.
    ///
    /// On a write failure the handle poisons itself and the caller must
    /// roll the transaction back: the log may be torn beyond the last
    /// durable commit, so accepting further writes would diverge.
    ///
    /// `trace_id` — the originating request's trace id, if the commit
    /// happens under an active trace — is stamped into the unit's
    /// `BEGIN` record so replicas can link their apply back to it.
    pub fn append_commit(&self, ops: &[LogicalOp<'_>], trace_id: Option<&str>) -> DurResult<u64> {
        let span = obs::trace::span("wal.append");
        let mut append = self.append.lock().unwrap_or_else(|e| e.into_inner());
        // Checked under the append lock: a committer that was blocked
        // on the lock while another's write failed must not append
        // after the torn prefix (its unit would be structurally
        // unreachable to recovery).
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(DurError::Poisoned);
        }
        let started = Instant::now();
        let seq = append.next_seq;
        let dict_mark = append.dict.len();
        let unit = wal::encode_commit_unit(seq, ops, &mut append.dict, trace_id);
        match (&self.wal_file).write_all(&unit) {
            Ok(()) => {
                append.next_seq += 1;
                append.wal_bytes += unit.len() as u64;
                self.commits_appended.fetch_add(1, Ordering::Relaxed);
                metrics().append.observe_duration(started.elapsed());
                span.attr_u64("seq", seq);
                span.attr_u64("bytes", unit.len() as u64);
                Ok(seq)
            }
            Err(source) => {
                // The unit never (fully) reached the log, so the pids
                // it assigned must not be considered taken — recovery
                // will not see them. (The poison refuses further writes
                // anyway; this keeps the table honest for stats.)
                append.dict.truncate(dict_mark);
                self.poisoned.store(true, Ordering::SeqCst);
                Err(DurError::Io {
                    context: "append commit unit to wal".into(),
                    source,
                })
            }
        }
    }

    /// Block until commit `seq` is durable (group commit): if an fsync
    /// covering `seq` is already in flight, wait for it; otherwise run
    /// one fsync that covers every record appended so far and wake all
    /// waiters it satisfied.
    pub fn sync_to(&self, seq: u64) -> DurResult<()> {
        // Covers the whole wait — piggybacking on a running fsync
        // included — so the span length is the group-commit latency the
        // committer actually paid. `group` (commits the fsync newly
        // covered) is attached only by the committer that ran it.
        let span = obs::trace::span("wal.fsync_wait");
        span.attr_u64("seq", seq);
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return Err(DurError::Poisoned);
            }
            // Read the fsync target *before* claiming the sync token:
            // everything appended up to here is on record before the
            // fsync starts, so it is a safe (conservative) cover claim
            // — and never taking the append lock while holding the
            // token keeps checkpoint (which holds the append lock and
            // waits for the token) deadlock-free against this path.
            let (target, target_bytes) = {
                let append = self.append.lock().unwrap_or_else(|e| e.into_inner());
                (append.next_seq - 1, append.wal_bytes)
            };
            let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
            if sync.synced_seq >= seq {
                return Ok(());
            }
            if sync.sync_running {
                // Piggyback: the running fsync may cover us; re-check
                // when it finishes.
                let _unused = self.synced.wait(sync).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            sync.sync_running = true;
            drop(sync);
            let fsync_started = Instant::now();
            let result = self.wal_file.sync_data();
            let fsync_elapsed = fsync_started.elapsed();
            let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
            sync.sync_running = false;
            match result {
                Ok(()) => {
                    metrics().fsync.observe_duration(fsync_elapsed);
                    // Commits newly covered by this fsync — the group
                    // size the amortization claim is about.
                    let group = target.saturating_sub(sync.synced_seq);
                    if group > 0 {
                        metrics().group_units.observe(group);
                        span.attr_u64("group", group);
                    }
                    sync.synced_seq = sync.synced_seq.max(target);
                    // Captured together with `target` under the append
                    // lock, so the extent is exactly the whole units the
                    // fsync covered. (After a checkpoint clamped the
                    // extent, the early `synced_seq >= seq` return above
                    // guarantees no stale pre-truncation capture reaches
                    // this line.)
                    sync.durable_bytes = sync.durable_bytes.max(target_bytes);
                    self.wal_syncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.poisoned.store(true, Ordering::SeqCst);
                }
            }
            drop(sync);
            self.synced.notify_all();
            // Loop: on success the next pass observes synced_seq ≥ seq;
            // on failure it observes the poison.
        }
    }

    /// Checkpoint: durably write a snapshot of `db` covering every
    /// commit appended so far, then truncate the WAL — recovery after
    /// this point is "load the snapshot, replay an (initially empty)
    /// suffix". Returns the snapshot's sequence.
    ///
    /// The caller must exclude committers for the duration, and `db`
    /// must hold every unit appended so far: no commit may be appended
    /// between serialization and WAL truncation. The mediator holds its
    /// writer mutex, under which every commit appends and publishes.
    pub fn checkpoint(&self, db: &Database) -> DurResult<u64> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(DurError::Poisoned);
        }
        let checkpoint_started = Instant::now();
        let span = obs::trace::span("wal.checkpoint");
        let mut append = self.append.lock().unwrap_or_else(|e| e.into_inner());
        // Claim the sync token so no fsync races the truncation.
        {
            let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
            while sync.sync_running {
                sync = self.synced.wait(sync).unwrap_or_else(|e| e.into_inner());
            }
            sync.sync_running = true;
        }
        let seq = append.next_seq - 1;
        // Stage 1: write the snapshot. A failure here is a clean abort
        // — the WAL is untouched and stays authoritative. The snapshot
        // embeds the live dictionary table (under the append lock, so
        // no unit can extend it mid-serialization). Pids freshly
        // assigned *during* serialization are durable only if the
        // snapshot landed; on failure they must be rolled back, or a
        // later commit unit would reference pids no durable delta
        // declares.
        let dict_mark = append.dict.len();
        let snapshot_written =
            snapshot::write_snapshot(&self.dir, seq, db, &mut append.dict).map(|_| ());
        if snapshot_written.is_err() {
            append.dict.truncate(dict_mark);
        }
        let snapshot_ok = snapshot_written.is_ok();
        let result = match snapshot_written {
            Err(e) => Err(e),
            Ok(()) => {
                // The renamed snapshot is authoritative from here on.
                // Epoch store and durable-extent clamp happen in one
                // sync-mutex critical section so a replication read can
                // never observe the new epoch paired with the old
                // extent (and serve soon-to-be-truncated bytes under
                // the new epoch's coordinates).
                {
                    let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
                    self.last_snapshot_seq.store(seq, Ordering::Relaxed);
                    sync.durable_bytes = wal::WAL_MAGIC.len() as u64;
                }
                self.remove_stale_snapshots(seq);
                // Stage 2: empty the WAL. A failure here leaves the
                // file in an unknown state (set_len may or may not
                // have taken effect), so the handle poisons itself —
                // the documented contract for any WAL write/fsync
                // fault — and recovery on restart sorts it out (old
                // units at or below `seq` are skipped as
                // snapshot-covered).
                let truncated = self
                    .wal_file
                    .set_len(wal::WAL_MAGIC.len() as u64)
                    .io_context("truncate wal after checkpoint")
                    .and_then(|()| self.wal_file.sync_data().io_context("fsync wal truncation"));
                match truncated {
                    Ok(()) => {
                        append.wal_bytes = wal::WAL_MAGIC.len() as u64;
                        Ok(())
                    }
                    Err(e) => {
                        self.poisoned.store(true, Ordering::SeqCst);
                        Err(e)
                    }
                }
            }
        };
        {
            let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
            sync.sync_running = false;
            if snapshot_ok {
                // The snapshot covers every appended commit; committers
                // still waiting on an fsync are satisfied by it (even
                // when the WAL truncation afterwards failed).
                sync.synced_seq = sync.synced_seq.max(seq);
            }
        }
        self.synced.notify_all();
        drop(append);
        if result.is_ok() {
            metrics()
                .checkpoint
                .observe_duration(checkpoint_started.elapsed());
            span.attr_u64("seq", seq);
        }
        result.map(|()| seq)
    }

    /// The current WAL coordinate (epoch + durable extent). All epoch
    /// stores happen under the sync mutex, so the pair read here is
    /// coherent.
    pub fn wal_position(&self) -> WalPosition {
        let sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
        self.position_locked(&sync)
    }

    // Position from an already-held sync guard.
    fn position_locked(&self, sync: &SyncState) -> WalPosition {
        let snap = self.last_snapshot_seq.load(Ordering::Relaxed);
        WalPosition {
            epoch: snap,
            durable_bytes: sync.durable_bytes,
            durable_seq: sync.synced_seq,
            snapshot_seq: (snap != NO_SNAPSHOT).then_some(snap),
        }
    }

    /// Serve durable WAL bytes to a replication follower.
    ///
    /// `from` is an absolute file offset (magic included) previously
    /// learned under `epoch`. Returns [`WalFetch::Data`] with up to
    /// [`MAX_WAL_CHUNK`] bytes starting at `from`; [`WalFetch::CaughtUp`]
    /// when `from` is the durable edge and nothing new became durable
    /// within `timeout` (the long-poll); or [`WalFetch::Reposition`]
    /// when the coordinate is not servable — the epoch changed under a
    /// checkpoint truncation, or the offset is out of range. Bytes are
    /// read through a fresh read-only handle and the epoch is
    /// re-checked *after* the read, so data returned under an epoch is
    /// guaranteed to be that epoch's content.
    pub fn fetch_wal(&self, from: u64, epoch: u64, timeout: Duration) -> DurResult<WalFetch> {
        let magic = wal::WAL_MAGIC.len() as u64;
        let deadline = Instant::now() + timeout;
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return Err(DurError::Poisoned);
            }
            let position = self.wal_position();
            if position.epoch != epoch || from < magic || from > position.durable_bytes {
                return Ok(WalFetch::Reposition { position });
            }
            if from == position.durable_bytes {
                // Caught up: park on the group-commit condvar until the
                // durable extent moves, the epoch changes, or time runs
                // out.
                let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if self.poisoned.load(Ordering::SeqCst) {
                        return Err(DurError::Poisoned);
                    }
                    let now = self.position_locked(&sync);
                    if now.epoch != epoch || now.durable_bytes != from {
                        break; // re-evaluate on the outer loop
                    }
                    let Some(remaining) = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                    else {
                        return Ok(WalFetch::CaughtUp { position: now });
                    };
                    sync = self
                        .synced
                        .wait_timeout(sync, remaining)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                continue;
            }
            // Data available. Read through a fresh handle: the shared
            // append handle's cursor belongs to writers.
            let end = position.durable_bytes.min(from + MAX_WAL_CHUNK);
            let mut bytes = vec![0u8; (end - from) as usize];
            let read = File::open(self.dir.join(WAL_FILE))
                .and_then(|mut file| {
                    file.seek(SeekFrom::Start(from))?;
                    file.read_exact(&mut bytes)
                })
                .io_context("read wal for replication");
            // Epoch re-check after the read: a checkpoint stores the new
            // epoch *before* truncating, so any truncation that could
            // have corrupted this read is visible here.
            let after = self.wal_position();
            if after.epoch != epoch {
                return Ok(WalFetch::Reposition { position: after });
            }
            read?; // unchanged epoch ⇒ durable bytes were readable
            return Ok(WalFetch::Data {
                bytes,
                position: after,
            });
        }
    }

    /// The newest snapshot on disk, as raw bytes, for follower
    /// bootstrap (decode with [`snapshot::decode_snapshot`], which
    /// verifies the schema fingerprint and the checksum). Retries if a
    /// concurrent checkpoint deletes the file mid-read — the listing
    /// only ever moves forward.
    pub fn latest_snapshot_bytes(&self) -> DurResult<(u64, Vec<u8>)> {
        loop {
            let Some((seq, path)) = snapshot::list_snapshots(&self.dir)?.into_iter().next() else {
                return Err(DurError::Corrupt {
                    message: format!("no snapshot in {}", self.dir.display()),
                });
            };
            match std::fs::read(&path) {
                Ok(bytes) => return Ok((seq, bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(source) => {
                    return Err(DurError::Io {
                        context: format!("read {}", path.display()),
                        source,
                    })
                }
            }
        }
    }

    // Best-effort cleanup of snapshots older than `keep` and stray
    // temporaries — recovery only ever needs the newest valid snapshot.
    fn remove_stale_snapshots(&self, keep: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = snapshot::parse_snapshot_name(name).is_some_and(|seq| seq < keep)
                || name.ends_with(".snap.tmp");
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> DurabilityStats {
        let (wal_bytes, last_commit_seq) = {
            let append = self.append.lock().unwrap_or_else(|e| e.into_inner());
            (append.wal_bytes, append.next_seq - 1)
        };
        let last_snapshot = self.last_snapshot_seq.load(Ordering::Relaxed);
        DurabilityStats {
            wal_bytes,
            commits_appended: self.commits_appended.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            records_replayed: self.commits_replayed,
            rows_replayed: self.rows_replayed,
            last_snapshot_seq: (last_snapshot != NO_SNAPSHOT).then_some(last_snapshot),
            last_commit_seq,
            poisoned: self.poisoned.load(Ordering::SeqCst),
        }
    }

    /// Convenience for tests and diagnostics: the WAL file path.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

// One handle is shared by every committer and the checkpoint endpoint.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Durability>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rel::{Column, Schema, SqlType, Table, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn schema() -> Schema {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
    }

    fn fresh_db() -> Database {
        Database::new(schema()).unwrap()
    }

    fn scratch() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dur-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    // Run one committed transaction inserting `id` and persist it.
    fn commit_insert(db: &mut Database, durability: &Durability, id: i64) {
        db.begin().unwrap();
        db.insert("team", &[("id".to_owned(), Value::Int(id))])
            .unwrap();
        let ops = db.txn_ops().unwrap();
        let seq = durability.append_commit(&ops, None).unwrap();
        db.commit().unwrap();
        durability.sync_to(seq).unwrap();
    }

    #[test]
    fn fresh_dir_reopens_to_the_same_state() {
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        assert_eq!(opened.report.commits_replayed, 0);
        for id in 1..=3 {
            commit_insert(&mut db, &durability, id);
        }
        drop(durability);

        let reopened = Durability::open(&dir, fresh_db()).unwrap();
        assert_eq!(reopened.report.commits_replayed, 3);
        assert_eq!(reopened.report.snapshot_seq, Some(0));
        assert_eq!(reopened.db.row_count("team").unwrap(), 3);
        let a: Vec<_> = db.scan("team").unwrap().collect();
        let b: Vec<_> = reopened.db.scan("team").unwrap().collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_unit_with_a_short_update_row_fails_open_with_an_error() {
        let dir = scratch();
        drop(Durability::open(&dir, fresh_db()).unwrap());
        // Checksums vouch for the bytes, not for the rows they hold:
        // a well-framed unit whose update row misses a column.
        let full = [Value::Int(1), Value::text("A")];
        let short = [Value::Int(1)];
        let unit = wal::encode_commit_unit(
            1,
            &[
                LogicalOp::Insert {
                    table: "team",
                    row_id: 0,
                    row: &full,
                },
                LogicalOp::Update {
                    table: "team",
                    row_id: 0,
                    row: &short,
                },
            ],
            &mut DictTable::new(),
            None,
        );
        let mut wal = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        wal.write_all(&unit).unwrap();
        drop(wal);
        let err = Durability::open(&dir, fresh_db()).unwrap_err();
        assert!(
            matches!(err, DurError::Engine(rel::RelError::Execution { .. })),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn base_state_is_built_only_for_a_directory_without_a_snapshot() {
        let dir = scratch();
        let built = std::cell::Cell::new(0);
        let base = || {
            built.set(built.get() + 1);
            let mut db = fresh_db();
            db.insert("team", &[("id".to_owned(), Value::Int(7))])
                .unwrap();
            db
        };
        let opened = Durability::open_with(&dir, &schema(), base).unwrap();
        assert_eq!(built.get(), 1, "a fresh directory needs its base");
        let mut db = opened.db;
        commit_insert(&mut db, &opened.durability, 8);
        drop(opened.durability);

        let untouchable = || -> Database { panic!("a directory with a snapshot needs no base") };
        let lazily = Durability::open_with(&dir, &schema(), untouchable).unwrap();
        let eagerly = Durability::open(&dir, fresh_db()).unwrap();
        assert_eq!(built.get(), 1);
        assert_eq!(lazily.report, eagerly.report);
        assert_eq!(lazily.report.snapshot_seq, Some(0));
        let rows = |db: &Database| {
            db.scan("team")
                .unwrap()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&lazily.db), rows(&db));
        assert_eq!(rows(&eagerly.db), rows(&db));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_it() {
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        for id in 1..=2 {
            commit_insert(&mut db, &durability, id);
        }
        let seq = durability.checkpoint(&db).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(
            durability.stats().wal_bytes,
            wal::WAL_MAGIC.len() as u64,
            "wal truncated by checkpoint"
        );
        commit_insert(&mut db, &durability, 3);
        drop(durability);

        let reopened = Durability::open(&dir, fresh_db()).unwrap();
        assert_eq!(reopened.report.snapshot_seq, Some(2));
        assert_eq!(reopened.report.commits_replayed, 1);
        assert_eq!(reopened.db.row_count("team").unwrap(), 3);
        // The stale snapshot-0 was cleaned up.
        assert_eq!(
            snapshot::list_snapshots(&dir).unwrap().len(),
            1,
            "only the newest snapshot remains"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_wal_file_is_refused() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"definitely not a wal file").unwrap();
        assert!(matches!(
            Durability::open(&dir, fresh_db()),
            Err(DurError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_change_is_a_hard_error() {
        let dir = scratch();
        drop(Durability::open(&dir, fresh_db()).unwrap());
        let mut other = Schema::new();
        other
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("renamed", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            Durability::open(&dir, Database::new(other).unwrap()),
            Err(DurError::SchemaMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_covers_later_waiters() {
        // Not a true concurrency test (those live in the workspace
        // suites); proves the bookkeeping: one sync_to covers every
        // commit appended before it.
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        let mut seqs = Vec::new();
        for id in 1..=4 {
            db.begin().unwrap();
            db.insert("team", &[("id".to_owned(), Value::Int(id))])
                .unwrap();
            let ops = db.txn_ops().unwrap();
            seqs.push(durability.append_commit(&ops, None).unwrap());
            db.commit().unwrap();
        }
        durability.sync_to(*seqs.last().unwrap()).unwrap();
        for seq in seqs {
            durability.sync_to(seq).unwrap(); // all already covered
        }
        assert_eq!(durability.stats().wal_syncs, 1);
        assert_eq!(durability.stats().commits_appended, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_wal_round_trips_committed_units() {
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        for id in 1..=3 {
            commit_insert(&mut db, &durability, id);
        }

        // Bootstrap exactly as a follower would: newest snapshot bytes,
        // decoded (fingerprint + checksum checked), dictionary adopted.
        let (snap_seq, snap_bytes) = durability.latest_snapshot_bytes().unwrap();
        assert_eq!(snap_seq, 0, "fresh dir checkpoints the base as snapshot-0");
        let (decoded_seq, mut replica, mut dict) =
            snapshot::decode_snapshot(&snap_bytes, db.schema()).unwrap();
        assert_eq!(decoded_seq, 0);

        let position = durability.wal_position();
        assert_eq!(position.epoch, 0);
        assert_eq!(position.durable_seq, 3);
        let fetched = durability
            .fetch_wal(wal::WAL_MAGIC.len() as u64, position.epoch, Duration::ZERO)
            .unwrap();
        let WalFetch::Data { bytes, position } = fetched else {
            panic!("expected data, got {fetched:?}");
        };
        assert_eq!(
            wal::WAL_MAGIC.len() as u64 + bytes.len() as u64,
            position.durable_bytes,
            "everything durable arrives in one small fetch"
        );
        let scan = wal::scan_records(&bytes, &mut dict);
        assert_eq!(scan.units.len(), 3);
        for unit in &scan.units {
            for op in unit.ops() {
                replica.apply_logical(op).unwrap();
            }
        }
        let a: Vec<_> = db.scan("team").unwrap().collect();
        let b: Vec<_> = replica.scan("team").unwrap().collect();
        assert_eq!(a, b, "replayed follower equals the leader heap");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_wal_serves_only_synced_bytes() {
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        let edge = durability.wal_position().durable_bytes;

        // Appended but not fsynced: the durable edge must not move.
        db.begin().unwrap();
        db.insert("team", &[("id".to_owned(), Value::Int(1))])
            .unwrap();
        let ops = db.txn_ops().unwrap();
        let seq = durability.append_commit(&ops, None).unwrap();
        db.commit().unwrap();
        let fetched = durability
            .fetch_wal(edge, 0, Duration::from_millis(5))
            .unwrap();
        assert!(
            matches!(fetched, WalFetch::CaughtUp { position } if position.durable_bytes == edge),
            "unsynced bytes must not be served"
        );

        durability.sync_to(seq).unwrap();
        let fetched = durability.fetch_wal(edge, 0, Duration::ZERO).unwrap();
        assert!(
            matches!(&fetched, WalFetch::Data { bytes, .. } if !bytes.is_empty()),
            "after fsync the same poll returns data: {fetched:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_wal_repositions_across_checkpoint_and_range_errors() {
        let dir = scratch();
        let opened = Durability::open(&dir, fresh_db()).unwrap();
        let mut db = opened.db;
        let durability = opened.durability;
        for id in 1..=2 {
            commit_insert(&mut db, &durability, id);
        }
        let before = durability.wal_position();

        // Offsets outside [magic, durable] are never served.
        for bad in [0u64, before.durable_bytes + 1] {
            assert!(matches!(
                durability
                    .fetch_wal(bad, before.epoch, Duration::ZERO)
                    .unwrap(),
                WalFetch::Reposition { .. }
            ));
        }

        // A checkpoint truncates the log: the old coordinate becomes a
        // reposition pointing at the new epoch's empty log.
        durability.checkpoint(&db).unwrap();
        let fetched = durability
            .fetch_wal(before.durable_bytes, before.epoch, Duration::ZERO)
            .unwrap();
        let WalFetch::Reposition { position } = fetched else {
            panic!("stale epoch must reposition, got {fetched:?}");
        };
        assert_eq!(position.epoch, 2);
        assert_eq!(position.snapshot_seq, Some(2));
        assert_eq!(position.durable_bytes, wal::WAL_MAGIC.len() as u64);

        // The new coordinate long-polls clean.
        assert!(matches!(
            durability
                .fetch_wal(
                    position.durable_bytes,
                    position.epoch,
                    Duration::from_millis(5)
                )
                .unwrap(),
            WalFetch::CaughtUp { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
