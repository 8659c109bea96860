//! Observability: a lock-free metrics registry with Prometheus text
//! exposition, plus a structured-logging facade emitting logfmt lines
//! to stderr.
//!
//! # Metrics
//!
//! One process-global [`Registry`] (the same pattern as `rel`'s
//! process-global string dictionary) hands out `&'static` handles to
//! three metric kinds:
//!
//! * [`Counter`] — monotonic `u64`;
//! * [`Gauge`] — settable `u64`;
//! * [`Histogram`] — fixed exponential buckets over `u64` samples
//!   (latencies are recorded in microseconds and exposed in seconds),
//!   with `_bucket`/`_sum`/`_count` exposition and p50/p95/p99
//!   extraction via [`Histogram::quantile`].
//!
//! Registration takes a mutex once per call site; the returned handle
//! is a leaked `&'static`, so hot paths touch only relaxed atomics.
//! Call sites cache handles in `OnceLock` statics or per-instance
//! structs. Exposition order is registration order, so `/metrics`
//! output is stable across scrapes.
//!
//! State that already lives in a per-instance struct (cache occupancy,
//! WAL frontier, …) is not copied into the registry: the exposition
//! handler appends it at scrape time with [`render_sampled`].
//!
//! # Logging
//!
//! [`log`] writes one logfmt line (`ts=… level=… target=… msg=… k=v`)
//! to stderr when `level` passes the process-wide filter. The filter
//! defaults to **off**, and is raised via [`set_log_filter_str`]
//! (the CLI's `--log-level`) or the `ONTOACCESS_LOG` environment
//! variable (`error|warn|info|debug`).

#![warn(missing_docs)]

pub mod trace;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ----------------------------------------------------------------------
// Metric kinds
// ----------------------------------------------------------------------

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (e.g. entering an in-flight section).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        // fetch_update never underflows even under races.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Latency histogram bucket upper bounds, in microseconds: 10µs to
/// 2.5s in a 1–2.5–5 decade ladder (plus the implicit +Inf bucket).
pub const LATENCY_BUCKETS_MICROS: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 2_500_000,
];

/// Bucket upper bounds for small-count distributions (group-commit
/// batch sizes and the like).
pub const COUNT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// A fixed-bucket cumulative histogram over `u64` samples.
///
/// Buckets are chosen at registration; samples land in the first
/// bucket whose upper bound is `>= sample` (the last slot is +Inf).
/// `scale` converts raw sample units to exposition units — latency
/// histograms record microseconds and expose seconds (`scale = 1e-6`).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    scale: f64,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &'static [u64], scale: f64) -> Histogram {
        Histogram {
            bounds,
            scale,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one raw sample.
    pub fn observe(&self, raw: u64) {
        let slot = self.bounds.partition_point(|&bound| bound < raw);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(raw, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration (microsecond resolution; use with
    /// seconds-scaled histograms).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of raw samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in **raw** units by
    /// linear interpolation inside the winning bucket. Returns 0 with
    /// no samples; +Inf-bucket samples clamp to the largest bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (slot, &count) in counts.iter().enumerate() {
            let next = cumulative + count;
            if (next as f64) >= target && count > 0 {
                let upper = self
                    .bounds
                    .get(slot)
                    .copied()
                    .unwrap_or(*self.bounds.last().expect("bounds are non-empty"));
                let lower = if slot == 0 { 0 } else { self.bounds[slot - 1] };
                let within = (target - cumulative as f64) / count as f64;
                return lower as f64 + within * (upper - lower) as f64;
            }
            cumulative = next;
        }
        *self.bounds.last().expect("bounds are non-empty") as f64
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

// Holds only leaked 'static references, so it is freely copyable out
// of the registry lock.
#[derive(Debug, Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    /// Rendered label pair (`key="value"`), if the series is labeled.
    label: Option<String>,
    handle: Handle,
}

/// The process-global metric registry: named handles plus Prometheus
/// text exposition. Obtain it via [`registry`].
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// Register (or look up) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        match self.entry(name, help, None, || {
            Handle::Counter(Box::leak(Box::new(Counter::default())))
        }) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        match self.entry(name, help, None, || {
            Handle::Gauge(Box::leak(Box::new(Gauge::default())))
        }) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    /// Register (or look up) a latency histogram (microsecond samples,
    /// exposed in seconds, [`LATENCY_BUCKETS_MICROS`] bounds).
    pub fn latency_histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        self.histogram_with(name, help, None, LATENCY_BUCKETS_MICROS, 1e-6)
    }

    /// Register (or look up) a labeled latency histogram.
    pub fn latency_histogram_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        label: (&str, &str),
    ) -> &'static Histogram {
        self.histogram_with(name, help, Some(label), LATENCY_BUCKETS_MICROS, 1e-6)
    }

    /// Register (or look up) a unit-less histogram over custom bounds
    /// (e.g. [`COUNT_BUCKETS`] for batch sizes).
    pub fn sized_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &'static [u64],
    ) -> &'static Histogram {
        self.histogram_with(name, help, None, bounds, 1.0)
    }

    fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&str, &str)>,
        bounds: &'static [u64],
        scale: f64,
    ) -> &'static Histogram {
        match self.entry(name, help, label, || {
            Handle::Histogram(Box::leak(Box::new(Histogram::new(bounds, scale))))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    fn entry(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&str, &str)>,
        create: impl FnOnce() -> Handle,
    ) -> Handle {
        let label = label.map(|(key, value)| format!("{key}=\"{}\"", escape_label(value)));
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = entries.iter().find(|e| e.name == name && e.label == label) {
            return existing.handle;
        }
        let handle = create();
        entries.push(Entry {
            name,
            help,
            label,
            handle,
        });
        handle
    }

    /// Render every registered metric in Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` per metric name,
    /// one sample line per series, histograms as cumulative
    /// `_bucket{le=…}` plus `_sum` and `_count`.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(4096);
        let mut done: Vec<&str> = Vec::new();
        for entry in entries.iter() {
            if done.contains(&entry.name) {
                continue;
            }
            done.push(entry.name);
            let kind = match entry.handle {
                Handle::Counter(_) => "counter",
                Handle::Gauge(_) => "gauge",
                Handle::Histogram(_) => "histogram",
            };
            render_header(&mut out, entry.name, entry.help, kind);
            // All series of this name, in registration order.
            for series in entries.iter().filter(|e| e.name == entry.name) {
                render_series(&mut out, series);
            }
        }
        out
    }
}

/// Append one family the registry does not hold: `# HELP`, `# TYPE`
/// (`"counter"` or `"gauge"`) and a single sample, optionally labeled
/// `{key="value"}`. The value is read from its one store at scrape
/// time, so the registry keeps no copy to drift or leak between
/// servers.
pub fn render_sampled(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    label: Option<(&str, &str)>,
    value: u64,
) {
    render_header(out, name, help, kind);
    render_sample(out, name, None, label, value as f64);
}

fn render_header(out: &mut String, name: &str, help: &str, kind: &str) {
    for (line, detail) in [("# HELP ", help), ("# TYPE ", kind)] {
        out.push_str(line);
        out.push_str(name);
        out.push(' ');
        out.push_str(detail);
        out.push('\n');
    }
}

fn render_series(out: &mut String, series: &Entry) {
    let label = series.label.as_deref();
    match series.handle {
        Handle::Counter(c) => render_sample(out, series.name, label, None, c.get() as f64),
        Handle::Gauge(g) => render_sample(out, series.name, label, None, g.get() as f64),
        Handle::Histogram(h) => {
            let mut cumulative = 0u64;
            for (slot, bound) in h.bounds.iter().enumerate() {
                cumulative += h.buckets[slot].load(Ordering::Relaxed);
                let le = format_number(*bound as f64 * h.scale);
                render_sample(
                    out,
                    &format!("{}_bucket", series.name),
                    label,
                    Some(("le", &le)),
                    cumulative as f64,
                );
            }
            cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
            render_sample(
                out,
                &format!("{}_bucket", series.name),
                label,
                Some(("le", "+Inf")),
                cumulative as f64,
            );
            render_sample(
                out,
                &format!("{}_sum", series.name),
                label,
                None,
                h.sum() as f64 * h.scale,
            );
            render_sample(
                out,
                &format!("{}_count", series.name),
                label,
                None,
                h.count() as f64,
            );
        }
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    label: Option<&str>,
    extra: Option<(&str, &str)>,
    value: f64,
) {
    out.push_str(name);
    if label.is_some() || extra.is_some() {
        out.push('{');
        if let Some(label) = label {
            out.push_str(label);
            if extra.is_some() {
                out.push(',');
            }
        }
        if let Some((key, value)) = extra {
            out.push_str(key);
            out.push_str("=\"");
            out.push_str(&escape_label(value));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_number(value));
    out.push('\n');
}

// Stable decimal rendering: integers without a fraction, fractions via
// the shortest `f64` Display (Rust's Display round-trips).
fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Request ids
// ----------------------------------------------------------------------

/// Generate a process-unique request id: wall-clock millis, the
/// process id, and a monotonic counter — unique across restarts
/// without any randomness dependency.
pub fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{millis:x}-{:x}-{n:x}", std::process::id())
}

// ----------------------------------------------------------------------
// Structured logging
// ----------------------------------------------------------------------

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or divergence-risking conditions.
    Error = 1,
    /// Degraded but self-healing conditions (reconnects, overload).
    Warn = 2,
    /// Request-level operational events.
    Info = 3,
    /// Per-stage detail.
    Debug = 4,
}

impl Level {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

// 0 = off; 1..=4 = Level. u8::MAX = "not initialized yet".
static LOG_FILTER: AtomicU8 = AtomicU8::new(u8::MAX);

fn parse_filter(s: &str) -> Option<u8> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Some(0),
        "error" => Some(Level::Error as u8),
        "warn" | "warning" => Some(Level::Warn as u8),
        "info" => Some(Level::Info as u8),
        "debug" | "trace" => Some(Level::Debug as u8),
        _ => None,
    }
}

fn log_filter() -> u8 {
    let current = LOG_FILTER.load(Ordering::Relaxed);
    if current != u8::MAX {
        return current;
    }
    // First use: adopt ONTOACCESS_LOG, defaulting to off. Racing
    // initializers agree on the same value.
    let from_env = std::env::var("ONTOACCESS_LOG")
        .ok()
        .and_then(|v| parse_filter(&v))
        .unwrap_or(0);
    LOG_FILTER.store(from_env, Ordering::Relaxed);
    from_env
}

/// Set the log filter from its textual form
/// (`off|error|warn|info|debug`); overrides `ONTOACCESS_LOG`.
pub fn set_log_filter_str(s: &str) -> Result<(), String> {
    match parse_filter(s) {
        Some(filter) => {
            LOG_FILTER.store(filter, Ordering::Relaxed);
            Ok(())
        }
        None => Err(format!(
            "unknown log level {s:?} (expected off, error, warn, info, or debug)"
        )),
    }
}

/// Whether a line at `level` would currently be emitted — guard any
/// log call whose field rendering is not free.
pub fn log_enabled(level: Level) -> bool {
    (level as u8) <= log_filter()
}

/// Emit one logfmt line to stderr:
/// `ts=<unix-millis> level=<l> target=<t> msg=<m> k=v …`
/// Values containing spaces, quotes, or `=` are quoted and escaped.
/// A no-op when `level` does not pass the filter.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, &dyn std::fmt::Display)]) {
    if !log_enabled(level) {
        return;
    }
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut line = String::with_capacity(128);
    line.push_str(&format!("ts={millis} level={} target=", level.as_str()));
    push_logfmt_value(&mut line, target);
    line.push_str(" msg=");
    push_logfmt_value(&mut line, message);
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        push_logfmt_value(&mut line, &value.to_string());
    }
    // One write per line keeps concurrent lines unmangled.
    eprintln!("{line}");
}

fn push_logfmt_value(out: &mut String, value: &str) {
    let needs_quoting = value.is_empty()
        || value
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '=' || c == '\\');
    if !needs_quoting {
        out.push_str(value);
        return;
    }
    out.push('"');
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000], 1.0);
        for v in [5, 5, 5, 5, 50, 50, 50, 500, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 6170);
        // 4 ≤10, 3 ≤100, 2 ≤1000, 1 +Inf.
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.0 && p50 <= 100.0, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 1000.0, "p99 = {p99}");
        assert_eq!(Histogram::new(&[10], 1.0).quantile(0.5), 0.0);
    }

    #[test]
    fn registry_dedupes_by_name_and_label() {
        let registry = registry();
        let a = registry.counter("obs_test_total", "test counter");
        let b = registry.counter("obs_test_total", "test counter");
        assert!(std::ptr::eq(a, b), "same name returns the same handle");
        let labeled = |v| registry.latency_histogram_labeled("obs_test_seconds", "test", ("k", v));
        assert!(std::ptr::eq(labeled("v"), labeled("v")));
        assert!(
            !std::ptr::eq(labeled("v"), labeled("w")),
            "labels are distinct series"
        );
        a.inc();
        assert!(registry.render().contains("obs_test_total"));
    }

    #[test]
    fn render_is_valid_exposition_shape() {
        let registry = registry();
        let h = registry.latency_histogram("obs_test_render_seconds", "render test");
        h.observe(120);
        let text = registry.render();
        assert!(text.contains("# TYPE obs_test_render_seconds histogram"));
        assert!(text.contains("obs_test_render_seconds_bucket{le=\"+Inf\"}"));
        assert!(text.contains("obs_test_render_seconds_count"));
        assert!(text.contains("obs_test_render_seconds_sum"));
        // Bucket for 250µs bound carries the 120µs sample.
        assert!(text.contains("obs_test_render_seconds_bucket{le=\"0.00025\"}"));
    }

    #[test]
    fn sampled_family_renders_help_type_and_one_sample() {
        let mut out = String::new();
        render_sampled(
            &mut out,
            "obs_test_info",
            "info",
            "gauge",
            Some(("v", "1\"2")),
            1,
        );
        render_sampled(&mut out, "obs_test_total", "total", "counter", None, 7);
        assert_eq!(
            out,
            "# HELP obs_test_info info\n# TYPE obs_test_info gauge\nobs_test_info{v=\"1\\\"2\"} 1\n\
             # HELP obs_test_total total\n# TYPE obs_test_total counter\nobs_test_total 7\n"
        );
    }

    #[test]
    fn logfmt_quotes_what_needs_quoting() {
        let mut out = String::new();
        push_logfmt_value(&mut out, "plain");
        assert_eq!(out, "plain");
        out.clear();
        push_logfmt_value(&mut out, "two words \"quoted\"");
        assert_eq!(out, "\"two words \\\"quoted\\\"\"");
        out.clear();
        push_logfmt_value(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn filter_parses_and_rejects() {
        assert_eq!(parse_filter("warn"), Some(2));
        assert_eq!(parse_filter("OFF"), Some(0));
        assert_eq!(parse_filter("verbose"), None);
        assert!(set_log_filter_str("nope").is_err());
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
    }
}
