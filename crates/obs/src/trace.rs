//! Request tracing: explicit span handles assembled into per-request
//! traces, stored in a bounded tail-sampled trace store.
//!
//! # Span model
//!
//! A **trace** is one request's tree of **spans** — named, timed
//! sections with a parent link and typed attributes. The trace is
//! keyed by the request id (`X-Request-Id` on the HTTP layer), so the
//! id a client saw is the handle an operator queries
//! (`GET /trace/<request-id>`).
//!
//! Context propagation is thread-local: [`start`] installs the trace
//! on the current thread, [`span`] opens a child of the innermost open
//! span, and dropping the guard closes it. Layers never pass a context
//! object — the server starts the trace, and core/dur code running on
//! the same thread (the request handler is synchronous end to end)
//! emits spans against it. Code running without an active trace pays
//! one clock reading and one thread-local probe and records nothing, so
//! instrumented library paths stay cheap outside a traced request. A
//! span is also its stage's stopwatch: [`Span::finish`] returns the
//! elapsed time from the same reading that closes the record, so a
//! stage is timed once and every surface reports that value.
//! Cross-node propagation is
//! explicit instead: a leader write stamps its trace id into the WAL
//! commit unit, and the follower's apply starts a *new* local trace
//! under that id, linking the two stores by key.
//!
//! # Tail-based retention
//!
//! Traces are classified when they **finish** (tail sampling — the
//! decision sees the outcome, not the first span): error and
//! slow-marked traces go to a priority ring that only error/slow
//! traces can evict; everything else goes to a sampled ring that churns
//! under load. Both rings are bounded, spans per trace are bounded
//! ([`MAX_SPANS_PER_TRACE`], overflow counted in `spans_dropped`), so
//! the store's memory is bounded by construction — [`TraceStore::spans_held`]
//! is the auditable canary.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Span identifier, unique within its trace (0 is the root).
pub type SpanId = u32;

/// Typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, sequence numbers, micros).
    U64(u64),
    /// Short string (strategy names, ids).
    Str(String),
    /// Flag.
    Bool(bool),
}

/// One recorded span: timing relative to the trace start (monotonic
/// clock), parent link, and attributes.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Identifier within the trace (root is 0).
    pub id: SpanId,
    /// Parent span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Static span name (`"query.execute"`, `"wal.append"`, …).
    pub name: &'static str,
    /// Start offset from the trace start, microseconds.
    pub start_micros: u64,
    /// End offset from the trace start, microseconds (`0` while open;
    /// finished traces close every span).
    pub end_micros: u64,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Hard per-trace span bound: spans beyond it are counted in
/// `spans_dropped` instead of stored, so one pathological request
/// cannot balloon the store.
pub const MAX_SPANS_PER_TRACE: usize = 256;

// The trace being assembled on this thread. Single-owner by
// construction (context is thread-local), so no lock is needed.
struct ActiveTrace {
    id: String,
    root: &'static str,
    started: Instant,
    started_unix_ms: u64,
    spans: Vec<SpanRecord>,
    // Innermost-open-span stack; new spans parent to the top.
    stack: Vec<SpanId>,
    error: bool,
    slow: bool,
    dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Begin a trace on this thread, keyed by `trace_id`, with a root span
/// named `root`. Returns an inert guard (nothing records) when a trace
/// is already active on this thread.
/// Dropping (or [`Trace::finish`]ing) the guard closes the root span
/// and submits the trace to the global [`store`].
pub fn start(trace_id: &str, root: &'static str) -> Trace {
    let armed = ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        if active.is_some() {
            return false; // nested starts are inert, the outer trace owns the thread
        }
        *active = Some(ActiveTrace {
            id: trace_id.to_owned(),
            root,
            started: Instant::now(),
            started_unix_ms: now_unix_ms(),
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                name: root,
                start_micros: 0,
                end_micros: 0,
                attrs: Vec::new(),
            }],
            stack: vec![0],
            error: false,
            slow: false,
            dropped: 0,
        });
        true
    });
    Trace { armed }
}

/// Guard for one in-progress trace (see [`start`]).
#[derive(Debug)]
pub struct Trace {
    armed: bool,
}

impl Trace {
    /// Whether this guard actually records (false when another trace
    /// already owned the thread).
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Attach an integer attribute to the root span.
    pub fn attr_u64(&self, key: &'static str, value: u64) {
        self.root_attr(key, AttrValue::U64(value));
    }

    /// Attach a string attribute to the root span.
    pub fn attr_str(&self, key: &'static str, value: &str) {
        self.root_attr(key, AttrValue::Str(value.to_owned()));
    }

    fn root_attr(&self, key: &'static str, value: AttrValue) {
        if !self.armed {
            return;
        }
        ACTIVE.with(|active| {
            if let Some(trace) = active.borrow_mut().as_mut() {
                trace.spans[0].attrs.push((key, value));
            }
        });
    }

    /// Finish the trace and submit it to the global [`store`]. Returns
    /// whether the store retained it (always true for armed traces —
    /// both retention classes are rings, entries are only evicted by
    /// *later* traces).
    pub fn finish(mut self) -> bool {
        self.finish_inner(true)
    }

    /// Drop the trace without submitting it (e.g. a replication fetch
    /// round that carried no data and is not worth a store slot).
    pub fn discard(mut self) {
        self.finish_inner(false);
    }

    fn finish_inner(&mut self, submit: bool) -> bool {
        if !self.armed {
            return false;
        }
        self.armed = false;
        let Some(mut trace) = ACTIVE.with(|active| active.borrow_mut().take()) else {
            return false;
        };
        let duration_micros = micros(trace.started.elapsed());
        // Close every span still open (defensive: guards normally close
        // their own spans before the trace ends).
        for span in &mut trace.spans {
            if span.end_micros == 0 && !(span.id == 0 && duration_micros == 0) {
                span.end_micros = duration_micros;
            }
        }
        if !submit {
            return false;
        }
        store().insert(TraceRecord {
            trace_id: trace.id,
            root: trace.root,
            started_unix_ms: trace.started_unix_ms,
            duration_micros,
            error: trace.error,
            slow: trace.slow,
            spans_dropped: trace.dropped,
            spans: trace.spans,
        });
        true
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        self.finish_inner(true);
    }
}

/// Whether a trace is active on this thread (spans would record).
pub fn is_active() -> bool {
    ACTIVE.with(|active| active.borrow().is_some())
}

/// The id of the trace active on this thread, if any — what a write
/// path stamps into cross-node metadata (the WAL commit unit).
pub fn current_trace_id() -> Option<String> {
    ACTIVE.with(|active| active.borrow().as_ref().map(|t| t.id.clone()))
}

/// Mark the active trace as an error trace (always retained).
pub fn mark_error() {
    ACTIVE.with(|active| {
        if let Some(trace) = active.borrow_mut().as_mut() {
            trace.error = true;
        }
    });
}

/// Mark the active trace as slow (always retained).
pub fn mark_slow() {
    ACTIVE.with(|active| {
        if let Some(trace) = active.borrow_mut().as_mut() {
            trace.slow = true;
        }
    });
}

/// Open a span named `name` as a child of the innermost open span of
/// this thread's trace. The guard is the stage's only clock: it reads
/// [`Instant::now`] once here and once at [`Span::finish`] (or drop).
/// Without an active trace (or past the per-trace span bound) nothing
/// records, but [`Span::finish`] still answers the elapsed time.
pub fn span(name: &'static str) -> Span {
    let started = Instant::now();
    let id = ACTIVE.with(|active| {
        let mut active = active.borrow_mut();
        let trace = active.as_mut()?;
        if trace.spans.len() >= MAX_SPANS_PER_TRACE {
            trace.dropped += 1;
            return None;
        }
        let id = trace.spans.len() as SpanId;
        let parent = trace.stack.last().copied();
        trace.spans.push(SpanRecord {
            id,
            parent,
            name,
            start_micros: micros(started.saturating_duration_since(trace.started)),
            end_micros: 0,
            attrs: Vec::new(),
        });
        trace.stack.push(id);
        Some(id)
    });
    Span { id, started }
}

fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u64::MAX as u128) as u64
}

/// Guard for one open span (see [`span`]).
#[derive(Debug)]
pub struct Span {
    id: Option<SpanId>,
    started: Instant,
}

impl Span {
    /// Whether this guard actually records.
    pub fn armed(&self) -> bool {
        self.id.is_some()
    }

    /// Attach an integer attribute.
    pub fn attr_u64(&self, key: &'static str, value: u64) {
        self.attr(key, AttrValue::U64(value));
    }

    /// Attach a string attribute.
    pub fn attr_str(&self, key: &'static str, value: &str) {
        self.attr(key, AttrValue::Str(value.to_owned()));
    }

    /// Attach a boolean attribute.
    pub fn attr_bool(&self, key: &'static str, value: bool) {
        self.attr(key, AttrValue::Bool(value));
    }

    fn attr(&self, key: &'static str, value: AttrValue) {
        let Some(id) = self.id else { return };
        ACTIVE.with(|active| {
            if let Some(trace) = active.borrow_mut().as_mut() {
                if let Some(span) = trace.spans.get_mut(id as usize) {
                    span.attrs.push((key, value));
                }
            }
        });
    }

    /// Close the span and return the wall time since it was opened.
    /// The record's end offset is its start plus the returned duration,
    /// so a histogram or profile fed this value reports what the trace
    /// shows. Works armed or not: the time is real outside a trace.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.close(elapsed);
        elapsed
    }

    fn close(&mut self, elapsed: Duration) {
        let Some(id) = self.id.take() else { return };
        ACTIVE.with(|active| {
            let mut active = active.borrow_mut();
            let Some(trace) = active.as_mut() else { return };
            let start = self.started.saturating_duration_since(trace.started);
            if let Some(span) = trace.spans.get_mut(id as usize) {
                span.end_micros = micros(start + elapsed);
            }
            // Guards close innermost-first in straight-line code; the
            // retain is defensive against a guard outliving a sibling.
            trace.stack.retain(|&open| open != id);
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id.is_some() {
            self.close(self.started.elapsed());
        }
    }
}

// ----------------------------------------------------------------------
// Trace store
// ----------------------------------------------------------------------

/// One finished, retained trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request id that keys the trace.
    pub trace_id: String,
    /// Root span name.
    pub root: &'static str,
    /// Wall-clock start (Unix milliseconds).
    pub started_unix_ms: u64,
    /// Total trace wall time, microseconds.
    pub duration_micros: u64,
    /// Error-class trace (tail-sampling priority).
    pub error: bool,
    /// Slow-class trace (tail-sampling priority).
    pub slow: bool,
    /// Spans dropped past [`MAX_SPANS_PER_TRACE`].
    pub spans_dropped: u64,
    /// The recorded spans, ids dense from 0 (the root).
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// Whether tail sampling classifies this trace as priority
    /// (error or slow — kept over sampled traffic).
    pub fn is_priority(&self) -> bool {
        self.error || self.slow
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    // Two retention classes, each FIFO-bounded: a sampled trace can
    // never evict a priority one.
    priority: VecDeque<Arc<TraceRecord>>,
    sampled: VecDeque<Arc<TraceRecord>>,
    by_id: HashMap<String, Arc<TraceRecord>>,
}

/// Bounded, tail-sampled trace store: error/slow traces in a priority
/// ring, everything else ring-sampled. Lookup by trace id.
#[derive(Debug)]
pub struct TraceStore {
    priority_cap: usize,
    sampled_cap: usize,
    inner: Mutex<StoreInner>,
    // Spans currently held across both rings — the memory-bound canary
    // concurrency tests audit (must never exceed
    // (priority_cap + sampled_cap) * MAX_SPANS_PER_TRACE).
    spans_held: AtomicU64,
}

/// Default capacity of the priority (error/slow) ring.
pub const DEFAULT_PRIORITY_TRACES: usize = 64;
/// Default capacity of the sampled ring.
pub const DEFAULT_SAMPLED_TRACES: usize = 64;

/// The process-global trace store — where [`Trace::finish`] submits.
pub fn store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| TraceStore::new(DEFAULT_PRIORITY_TRACES, DEFAULT_SAMPLED_TRACES))
}

impl TraceStore {
    /// A store retaining up to `priority_cap` error/slow traces and
    /// `sampled_cap` ring-sampled ones.
    pub fn new(priority_cap: usize, sampled_cap: usize) -> TraceStore {
        TraceStore {
            priority_cap: priority_cap.max(1),
            sampled_cap: sampled_cap.max(1),
            inner: Mutex::new(StoreInner::default()),
            spans_held: AtomicU64::new(0),
        }
    }

    /// Insert a finished trace, evicting within its retention class.
    /// A re-used trace id replaces the previous record.
    pub fn insert(&self, record: TraceRecord) {
        let record = Arc::new(record);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut held_delta = record.spans.len() as i64;
        if let Some(previous) = inner.by_id.remove(&record.trace_id) {
            held_delta -= previous.spans.len() as i64;
            let drop_same = |ring: &mut VecDeque<Arc<TraceRecord>>| {
                ring.retain(|t| !Arc::ptr_eq(t, &previous));
            };
            drop_same(&mut inner.priority);
            drop_same(&mut inner.sampled);
        }
        inner
            .by_id
            .insert(record.trace_id.clone(), Arc::clone(&record));
        let (ring, cap) = if record.is_priority() {
            (&mut inner.priority, self.priority_cap)
        } else {
            (&mut inner.sampled, self.sampled_cap)
        };
        ring.push_back(record);
        let mut evicted = Vec::new();
        while ring.len() > cap {
            if let Some(old) = ring.pop_front() {
                held_delta -= old.spans.len() as i64;
                evicted.push(old);
            }
        }
        for old in evicted {
            // Only unmap ids still pointing at the evicted record (the
            // id may have been re-inserted above).
            if inner
                .by_id
                .get(&old.trace_id)
                .is_some_and(|current| Arc::ptr_eq(current, &old))
            {
                inner.by_id.remove(&old.trace_id);
            }
        }
        drop(inner);
        if held_delta >= 0 {
            self.spans_held
                .fetch_add(held_delta as u64, Ordering::Relaxed);
        } else {
            self.spans_held
                .fetch_sub(held_delta.unsigned_abs(), Ordering::Relaxed);
        }
    }

    /// Look one trace up by its id.
    pub fn get(&self, trace_id: &str) -> Option<Arc<TraceRecord>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_id
            .get(trace_id)
            .cloned()
    }

    /// Whether a trace with this id is currently retained.
    pub fn contains(&self, trace_id: &str) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_id
            .contains_key(trace_id)
    }

    /// Every retained trace, newest first (priority and sampled
    /// interleaved by start time).
    pub fn index(&self) -> Vec<Arc<TraceRecord>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<Arc<TraceRecord>> = inner
            .priority
            .iter()
            .chain(inner.sampled.iter())
            .cloned()
            .collect();
        all.sort_by_key(|record| std::cmp::Reverse(record.started_unix_ms));
        all
    }

    /// Retained trace counts: `(priority, sampled)`.
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.priority.len(), inner.sampled.len())
    }

    /// Ring capacities: `(priority, sampled)`.
    pub fn capacities(&self) -> (usize, usize) {
        (self.priority_cap, self.sampled_cap)
    }

    /// Spans currently held across both rings — the memory-bound
    /// canary (see the concurrency tests).
    pub fn spans_held(&self) -> u64 {
        self.spans_held.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace context is thread-local but the store is process-wide:
    // each test runs its trace on a dedicated thread, under an id of
    // its own.
    fn on_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("test thread")
    }

    fn make_record(id: &str, priority: bool, spans: usize) -> TraceRecord {
        TraceRecord {
            trace_id: id.to_owned(),
            root: "test",
            started_unix_ms: 1,
            duration_micros: 10,
            error: priority,
            slow: false,
            spans_dropped: 0,
            spans: (0..spans as u32)
                .map(|i| SpanRecord {
                    id: i,
                    parent: (i > 0).then(|| i - 1),
                    name: "s",
                    start_micros: 0,
                    end_micros: 1,
                    attrs: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn spans_nest_and_parent_links_hold() {
        on_thread(|| {
            let trace = start("t-nest", "root");
            assert!(trace.armed());
            {
                let a = span("a");
                a.attr_u64("n", 7);
                {
                    let b = span("b");
                    b.attr_str("k", "v");
                }
            }
            let c = span("c");
            drop(c);
            assert_eq!(current_trace_id().as_deref(), Some("t-nest"));
            assert!(trace.finish());
            let record = store().get("t-nest").expect("retained");
            assert_eq!(record.spans.len(), 4);
            let by_name = |n: &str| record.spans.iter().find(|s| s.name == n).unwrap();
            assert_eq!(by_name("a").parent, Some(0));
            assert_eq!(by_name("b").parent, Some(by_name("a").id));
            assert_eq!(by_name("c").parent, Some(0));
            assert!(by_name("a").attrs.contains(&("n", AttrValue::U64(7))));
        });
    }

    #[test]
    fn finish_returns_the_duration_the_record_shows() {
        on_thread(|| {
            let trace = start("t-finish", "root");
            let stage = span("stage");
            std::thread::sleep(Duration::from_millis(2));
            let elapsed = stage.finish();
            trace.finish();
            let record = store().get("t-finish").expect("retained");
            let stage = record.spans.iter().find(|s| s.name == "stage").unwrap();
            let recorded = stage.end_micros - stage.start_micros;
            assert!(elapsed >= Duration::from_millis(2));
            // Start and end are truncated to whole micros independently.
            assert!(
                recorded.abs_diff(micros(elapsed)) <= 1,
                "{recorded} vs {elapsed:?}"
            );
        });
    }

    #[test]
    fn spans_without_a_trace_are_inert() {
        on_thread(|| {
            assert!(!is_active());
            let s = span("orphan");
            assert!(!s.armed());
            s.attr_u64("ignored", 1);
            assert_eq!(current_trace_id(), None);
            // …but still a working stopwatch.
            std::thread::sleep(Duration::from_millis(1));
            assert!(s.finish() >= Duration::from_millis(1));
        });
    }

    #[test]
    fn nested_start_is_inert_and_outer_survives() {
        on_thread(|| {
            let outer = start("t-outer", "root");
            let inner = start("t-inner", "root");
            assert!(!inner.armed());
            drop(inner);
            assert!(is_active(), "inner drop must not tear the outer trace down");
            assert_eq!(current_trace_id().as_deref(), Some("t-outer"));
            outer.finish();
            assert!(store().contains("t-outer"));
            assert!(!store().contains("t-inner"));
        });
    }

    #[test]
    fn discard_submits_nothing() {
        on_thread(|| {
            let trace = start("t-discard", "root");
            span("work");
            trace.discard();
            assert!(!store().contains("t-discard"));
            assert!(!is_active());
        });
    }

    #[test]
    fn eviction_respects_tail_sampling_priority() {
        let store = TraceStore::new(2, 2);
        for i in 0..2 {
            store.insert(make_record(&format!("p{i}"), true, 3));
        }
        for i in 0..5 {
            store.insert(make_record(&format!("s{i}"), false, 3));
        }
        // Sampled churn never touched the priority ring…
        assert!(store.contains("p0") && store.contains("p1"));
        // …and the sampled ring kept only the newest two.
        let (priority, sampled) = store.counts();
        assert_eq!((priority, sampled), (2, 2));
        assert!(!store.contains("s0") && !store.contains("s2"));
        assert!(store.contains("s3") && store.contains("s4"));
        // A third priority trace evicts the *oldest priority* trace.
        store.insert(make_record("p2", true, 3));
        assert!(!store.contains("p0"));
        assert!(store.contains("p1") && store.contains("p2"));
        // The canary counts exactly the held spans.
        assert_eq!(store.spans_held(), 4 * 3);
    }

    #[test]
    fn reused_id_replaces_and_keeps_the_canary_exact() {
        let store = TraceStore::new(4, 4);
        store.insert(make_record("dup", false, 5));
        store.insert(make_record("dup", false, 2));
        assert_eq!(store.counts(), (0, 1));
        assert_eq!(store.spans_held(), 2);
        assert_eq!(store.get("dup").unwrap().spans.len(), 2);
    }

    #[test]
    fn span_bound_drops_overflow_but_counts_it() {
        on_thread(|| {
            let trace = start("t-bound", "root");
            for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
                span("s");
            }
            trace.finish();
            let record = store().get("t-bound").expect("retained");
            assert_eq!(record.spans.len(), MAX_SPANS_PER_TRACE);
            assert_eq!(record.spans_dropped as usize, 11);
        });
    }
}
