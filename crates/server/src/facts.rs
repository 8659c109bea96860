//! The facts a server exposes about itself: one ordered list, rendered
//! as `/status` and as `/metrics`.
//!
//! Each fact holds its place in the `/status` document (a section and a
//! key) and its value. A fact that is exported also holds the
//! Prometheus family `/metrics` renders it as: name, kind and HELP,
//! declared next to its key. Facts without a family (`tables`,
//! `slow_queries`, a replica's leader address, …) are `/status`-only;
//! the server's request counters live in the [`obs`] registry and are
//! exported by its own render.
//!
//! The list is built once per request and reads each stats source once,
//! so two sections fed by one source (`durability.last_commit_seq` and a
//! leader's `replication.leader_seq`) agree within one document.

use crate::http::Response;
use crate::json::{json_array, JsonObject};
use crate::router::{AppContext, METRICS_CONTENT_TYPE};
use crate::wire;
use obs::trace::AttrValue;

enum Value {
    U64(u64),
    Bool(bool),
    Str(String),
    OptU64(Option<u64>),
    OptStr(Option<String>),
    /// Already-rendered JSON (an object or an array); never exported.
    Json(String),
}

struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
}

struct Fact {
    /// The `/status` object the fact sits in; `""` for the top level.
    section: &'static str,
    key: &'static str,
    value: Value,
    family: Option<Family>,
}

/// `GET /status`: top-level facts as fields, each section as one
/// nested object.
pub(crate) fn status(ctx: &AppContext) -> Response {
    let mut top = JsonObject::new();
    let mut facts = Facts::of(ctx).list.into_iter().peekable();
    while let Some(fact) = facts.next() {
        if fact.section.is_empty() {
            top = fact.field(top);
            continue;
        }
        let mut section = fact.field(JsonObject::new());
        while let Some(next) = facts.next_if(|next| next.section == fact.section) {
            section = next.field(section);
        }
        top = top.raw(fact.section, &section.finish());
    }
    Response::new(200, wire::JSON, top.finish())
}

/// `GET /metrics`: the process-global registry (counters and histograms
/// accumulated on the hot paths), then each exported fact, sampled now.
/// Nothing sampled is written back to the registry, so one server's
/// facts never show on another's scrape.
pub(crate) fn metrics_exposition(ctx: &AppContext) -> Response {
    let mut out = obs::registry().render();
    for fact in Facts::of(ctx).list {
        let Some(family) = fact.family else {
            continue;
        };
        let (label, value) = match &fact.value {
            Value::U64(value) => (None, *value),
            Value::Bool(flag) => (None, u64::from(*flag)),
            // An info family: the string is a label on a constant 1.
            Value::Str(text) => (Some((fact.key, text.as_str())), 1),
            _ => unreachable!("{} is not a sample", family.name),
        };
        obs::render_sampled(
            &mut out,
            family.name,
            family.help,
            family.kind,
            label,
            value,
        );
    }
    Response::new(200, METRICS_CONTENT_TYPE, out)
}

/// The ordered fact list. Build it with the value methods (each adds a
/// fact under the current section), export the fact just added with
/// [`Facts::gauge`] or [`Facts::counter`].
#[derive(Default)]
struct Facts {
    list: Vec<Fact>,
    section: &'static str,
}

impl Facts {
    /// Every fact the server behind `ctx` exposes, in `/status` order:
    /// one per line, its family (if exported) indented beneath it.
    #[rustfmt::skip]
    fn of(ctx: &AppContext) -> Facts {
        let mediator = &ctx.mediator;
        let cache = mediator.query_cache_stats();
        let dict = mediator.dictionary_stats();
        let conc = mediator.concurrency_stats();
        let durability = mediator.durability_stats();
        let replica = ctx.replication.as_ref().map(|status| status.snapshot());
        let http = &ctx.metrics;

        let facts = Facts::default()
            .str("version", env!("CARGO_PKG_VERSION"))
                .gauge("ontoaccess_build_info", "Constant 1, labeled with the server version")
            .u64("uptime_seconds", ctx.started.elapsed().as_secs())
                .gauge("ontoaccess_uptime_seconds", "Seconds since server start")
            .json("tables", tables(ctx))
            .section("query_cache")
            .u64("entries", cache.entries as u64)
                .gauge("ontoaccess_query_cache_entries", "Compiled queries currently cached")
            .u64("shapes", cache.shapes as u64)
                .gauge("ontoaccess_query_cache_shapes", "Compiled query shapes the cached queries share")
            .u64("capacity", cache.capacity as u64)
                .gauge("ontoaccess_query_cache_capacity", "Query cache capacity (entries)")
            .u64("hits", cache.hits)
                .counter("ontoaccess_query_cache_hits_total", "Compiled-query cache lookups answered without compiling (text or shape hit)")
            .u64("misses", cache.misses)
                .counter("ontoaccess_query_cache_misses_total", "Compiled-query cache lookups that had to compile")
            .u64("evictions", cache.evictions)
                .counter("ontoaccess_query_cache_evictions_total", "Compiled-query cache entries evicted under capacity pressure")
            .section("dictionary")
            .u64("symbols", dict.symbols)
                .gauge("ontoaccess_dictionary_symbols", "Interned strings in the process-global dictionary")
            .u64("string_bytes", dict.string_bytes)
                .gauge("ontoaccess_dictionary_string_bytes", "Bytes of unique string payload held by the dictionary")
            .u64("hits", dict.hits)
            .u64("bytes_saved", dict.bytes_saved)
                .gauge("ontoaccess_dictionary_bytes_saved", "Bytes avoided by interning repeated strings")
            .section("concurrency")
            .u64("current_version", conc.current_version)
                .gauge("ontoaccess_mvcc_current_version", "Sequence number of the currently published database version")
            .u64("versions_retained", conc.versions_retained as u64)
                .gauge("ontoaccess_mvcc_versions_retained", "Database versions retained for live readers")
            .u64("read_sessions_live", conc.read_sessions_live as u64)
                .gauge("ontoaccess_mvcc_read_sessions", "Read sessions currently live")
            .u64("write_lock_waits", conc.write_lock_waits)
                .counter("ontoaccess_write_lock_waits_total", "Write-lock acquisitions (one per write transaction)")
            .u64("write_lock_wait_micros", conc.write_lock_wait_micros)
            .u64("write_retranslations", conc.write_retranslations)
                .counter("ontoaccess_write_retranslations_total", "Update operations translated before the write lock that were translated again under it")
            .section("durability");

        let facts = match &durability {
            Some(d) => facts
                .bool("enabled", true)
                .u64("wal_bytes", d.wal_bytes)
                    .gauge("ontoaccess_wal_size_bytes", "Appended WAL size in bytes")
                .u64("commits_appended", d.commits_appended)
                .u64("wal_syncs", d.wal_syncs)
                .u64("records_replayed", d.records_replayed)
                .u64("rows_replayed", d.rows_replayed)
                .opt_u64("last_snapshot", d.last_snapshot_seq)
                .u64("last_commit_seq", d.last_commit_seq)
                    .gauge("ontoaccess_wal_last_commit_seq", "Sequence number of the last appended commit unit")
                .bool("poisoned", d.poisoned)
                    .gauge("ontoaccess_wal_poisoned", "1 when the WAL refused further appends after a fault"),
            None => facts.bool("enabled", false),
        }
        .section("replication");

        // A follower reports its replicator's view; a durable leader
        // reports itself caught up with its own commit frontier;
        // anything else is a standalone server.
        let facts = match (replica, &durability) {
            (Some(snap), _) => facts
                .str("role", "replica")
                .str("leader", &snap.leader)
                .str("state", snap.state.as_str())
                .u64("applied_seq", snap.applied_seq)
                    .gauge("ontoaccess_repl_applied_seq", "Last WAL commit unit applied by this replica")
                .u64("leader_seq", snap.leader_seq)
                    .gauge("ontoaccess_repl_leader_seq", "Leader's durable commit frontier as last observed")
                .u64("lag_units", snap.lag_units)
                    .gauge("ontoaccess_repl_lag_units", "Commit units the replica trails the leader by")
                .u64("lag_bytes", snap.lag_bytes)
                    .gauge("ontoaccess_repl_lag_bytes", "WAL bytes the replica trails the leader by")
                .opt_u64("last_contact_ms", snap.last_contact_ms)
                .u64("reconnects", snap.reconnects)
                    .counter("ontoaccess_repl_reconnects_total", "Times the follower lost its leader connection and began reconnecting")
                .opt_str("last_error", snap.last_error),
            (None, Some(d)) => facts
                .str("role", "leader")
                .u64("applied_seq", d.last_commit_seq)
                .u64("leader_seq", d.last_commit_seq)
                .u64("lag_units", 0)
                .u64("lag_bytes", 0),
            (None, None) => facts.str("role", "standalone"),
        };

        facts
            .section("server")
            .u64("workers", ctx.workers as u64)
            .u64("queue_capacity", ctx.queue_capacity as u64)
            .u64("requests", http.requests.get())
            .u64("queries", http.queries.get())
            .u64("updates", http.updates.get())
            .u64("snapshots", http.snapshots.get())
            .u64("overload_rejections", http.overload_rejections.get())
            .section("")
            .json("slow_queries", slow_queries())
    }

    /// Later facts go into the `/status` object `name` (`""`: the top
    /// level).
    fn section(mut self, name: &'static str) -> Self {
        self.section = name;
        self
    }

    fn push(mut self, key: &'static str, value: Value) -> Self {
        self.list.push(Fact {
            section: self.section,
            key,
            value,
            family: None,
        });
        self
    }

    fn u64(self, key: &'static str, value: u64) -> Self {
        self.push(key, Value::U64(value))
    }

    fn bool(self, key: &'static str, value: bool) -> Self {
        self.push(key, Value::Bool(value))
    }

    fn str(self, key: &'static str, value: &str) -> Self {
        self.push(key, Value::Str(value.to_owned()))
    }

    fn opt_u64(self, key: &'static str, value: Option<u64>) -> Self {
        self.push(key, Value::OptU64(value))
    }

    fn opt_str(self, key: &'static str, value: Option<String>) -> Self {
        self.push(key, Value::OptStr(value))
    }

    fn json(self, key: &'static str, value: String) -> Self {
        self.push(key, Value::Json(value))
    }

    fn gauge(self, name: &'static str, help: &'static str) -> Self {
        self.export(name, "gauge", help)
    }

    fn counter(self, name: &'static str, help: &'static str) -> Self {
        self.export(name, "counter", help)
    }

    // Export the fact added last as the family `name`.
    fn export(mut self, name: &'static str, kind: &'static str, help: &'static str) -> Self {
        let fact = self.list.last_mut().expect("a fact to export");
        fact.family = Some(Family { name, kind, help });
        self
    }
}

impl Fact {
    // This fact as a field of `object`.
    fn field(&self, object: JsonObject) -> JsonObject {
        match &self.value {
            Value::U64(value) => object.u64(self.key, *value),
            Value::Bool(value) => object.bool(self.key, *value),
            Value::Str(value) => object.str(self.key, value),
            Value::OptU64(value) => object.opt_u64(self.key, *value),
            Value::OptStr(value) => object.opt_str(self.key, value.as_deref()),
            Value::Json(value) => object.raw(self.key, value),
        }
    }
}

// Row count per table, in schema order.
fn tables(ctx: &AppContext) -> String {
    let db = ctx.mediator.database();
    let mut tables = JsonObject::new();
    for table in db.schema().tables() {
        tables = tables.u64(&table.name, db.row_count(&table.name).unwrap_or(0) as u64);
    }
    tables.finish()
}

// A view of the trace store, oldest first: the retained slow traces
// that carry a `query` attribute, i.e. the slow `/sparql` requests.
fn slow_queries() -> String {
    let mut traces = obs::trace::store().index();
    traces.reverse();
    json_array(traces.iter().filter(|t| t.slow).filter_map(|record| {
        let query = record
            .spans
            .first()?
            .attrs
            .iter()
            .find_map(|attr| match attr {
                ("query", AttrValue::Str(query)) => Some(query),
                _ => None,
            })?;
        Some(
            JsonObject::new()
                .str("query", query)
                .u64("micros", record.duration_micros)
                .str("request_id", &record.trace_id)
                .bool("trace_retained", true)
                .u64("at_unix_ms", record.started_unix_ms)
                .finish(),
        )
    }))
}
