//! What the benchmark measures: the workloads, the metrics and their
//! bounds. `BENCHMARK.json` restates the names, units and bounds; a test
//! keeps the two from drifting apart.

/// Closed-loop client connections. Two, the sandbox's core count: a
/// SPARQL client waits for its reply, and more connections than cores
/// would measure the scheduler.
pub const CLIENTS: usize = 2;
/// `--workers` of the server under test: one per client connection (a
/// keep-alive connection pins its worker).
pub const WORKERS: usize = 2;
/// Ticks the measured window is cut into. Rates and the median latency
/// are computed per tick and reported as the better quartile of the
/// ticks (see `stats::better_quartile`).
pub const TICKS: usize = 20;
/// Ticks merged into one slice for the tail latency, which needs more
/// samples than a tick holds; the tail is the median of the slices.
pub const TICKS_PER_SLICE: usize = 4;
/// `--populate` scale of a full run: publications; authors are half,
/// teams a tenth, publishers a twentieth, plus two authorship links per
/// publication. Populating is super-linear in this number (5 000 takes
/// ~0.4 s, 10 000 ~2.5 s), and the driver's time cap pays for it four
/// times per run, which is what keeps it at 5 000.
pub const PUBLICATIONS: usize = 5000;
/// Scale of `--smoke` runs and of the crate's own tests.
pub const SMOKE_PUBLICATIONS: usize = 600;
/// Requests of each workload's stream the staged replay covers at most.
pub const REPLAY_REQUESTS: usize = 2000;
/// Every n-th response body is compared byte for byte (all are checked
/// for status and length).
pub const FULL_COMPARE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadPoint,
    ReadCold,
    ReadJoin,
    ReadScan,
    WriteSmall,
    WriteBulk,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::ReadPoint,
        Workload::ReadCold,
        Workload::ReadJoin,
        Workload::ReadScan,
        Workload::WriteSmall,
        Workload::WriteBulk,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadPoint => "read_point",
            Workload::ReadCold => "read_cold",
            Workload::ReadJoin => "read_join",
            Workload::ReadScan => "read_scan",
            Workload::WriteSmall => "write_small",
            Workload::WriteBulk => "write_bulk",
            Workload::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (restated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadPoint => {
                "1-row lookup over 128 cached query texts: fixed per-request cost of the server's http, pool and socket path"
            }
            Workload::ReadCold => {
                "same lookup over every author, far more texts than the 256-entry query cache: parse, compile and cache admission on each request"
            }
            Workload::ReadJoin => {
                "4-table join from a constant publication over 64 cached texts: the rel join executor and its join order"
            }
            Workload::ReadScan => {
                "one pubtype's publications, a quarter of the table per answer: result conversion and JSON serialisation"
            }
            Workload::WriteSmall => {
                "INSERT DATA, MODIFY, DELETE DATA of one author, one commit each over a bounded id pool: WAL append and group fsync"
            }
            Workload::WriteBulk => {
                "atomic scripts replacing a 40-entity batch (~200 triples) over a bounded ring: translate, FK sort and rel DML"
            }
            Workload::Mixed => {
                "each connection sends one read_join query, then one write_small insert, modify, delete: MVCC publish, cache republish and CPU sharing"
            }
        }
    }

    /// Whether set-up sends every query text once, so the measured
    /// window starts with the texts compiled and cached.
    pub fn primes_cache(self) -> bool {
        matches!(
            self,
            Workload::ReadPoint | Workload::ReadJoin | Workload::ReadScan | Workload::Mixed
        )
    }

    pub fn has_writes(self) -> bool {
        matches!(
            self,
            Workload::WriteSmall | Workload::WriteBulk | Workload::Mixed
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload. Latencies are
/// those of the workload's only request class; on `mixed` they are the
/// reads' (a quarter of its requests), and the writes' latencies are
/// per-layer metrics there (`e2e.write_stream_*`).
///
/// The tail latency is not among them. On this two-core sandbox its
/// run-to-run spread stayed between 10 % and 18 % whatever the window,
/// and the issue's rule for such a metric is to report it without a
/// bound: it is the per-layer metric `e2e.p95_us`.
pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "cpu_us_per_req",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "rss_after_setup_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// The per-layer metrics, named `<crate>.<what>`. A traced run reports
/// all of them; a layer off the workload's path reads 0.
pub const PER_LAYER: [LayerMetric; 51] = [
    layer("server.http_read_us", "us", "lower"),
    layer("server.http_write_us", "us", "lower"),
    layer("server.residual_us", "us", "lower"),
    layer("server.handler_us", "us", "lower"),
    layer("server.queue_wait_us", "us", "lower"),
    layer("server.overload_rejects", "count", "lower"),
    layer("server.wire_json_us", "us", "lower"),
    layer("server.wire_bytes", "B", "lower"),
    layer("sparql.parse_query_us", "us", "lower"),
    layer("sparql.parse_update_us", "us", "lower"),
    layer("core.compile_us", "us", "lower"),
    layer("core.cache_admit_us", "us", "lower"),
    layer("core.cache_hit_ratio", "ratio", "higher"),
    layer("core.cache_evictions", "count", "lower"),
    layer("core.session_query_us", "us", "lower"),
    layer("core.convert_us", "us", "lower"),
    layer("core.translate_us", "us", "lower"),
    layer("core.modify_us", "us", "lower"),
    layer("core.sort_us", "us", "lower"),
    layer("core.txn_commit_us", "us", "lower"),
    layer("core.write_lock_wait_us", "us", "lower"),
    layer("core.versions_retained", "count", "lower"),
    layer("rel.select_us", "us", "lower"),
    layer("rel.rows_out", "count", "lower"),
    layer("rel.dml_us", "us", "lower"),
    layer("rel.dml_statements", "count", "lower"),
    layer("rel.dml_rows", "count", "lower"),
    layer("rel.populate_s", "s", "lower"),
    layer("rel.dict_symbols", "count", "lower"),
    layer("rel.dict_bytes", "B", "lower"),
    layer("rel.dict_growth", "count", "lower"),
    layer("dur.append_us", "us", "lower"),
    layer("dur.fsync_us", "us", "lower"),
    layer("dur.commits_per_fsync", "ratio", "higher"),
    layer("dur.wal_bytes_per_commit", "B", "lower"),
    layer("dur.snapshot_s", "s", "lower"),
    layer("dur.snapshot_bytes", "B", "lower"),
    layer("dur.recover_s", "s", "lower"),
    layer("proc.rss_end_mb", "MB", "lower"),
    layer("proc.rss_growth_mb", "MB", "lower"),
    layer("e2e.p50_us", "us", "lower"),
    layer("e2e.p95_us", "us", "lower"),
    layer("e2e.write_stream_p50_us", "us", "lower"),
    layer("e2e.write_stream_p95_us", "us", "lower"),
    layer("e2e.write_stream_rps", "1/s", "higher"),
    layer("e2e.wal_bytes_per_commit", "B", "lower"),
    layer("bench.tick_spread_pct", "%", "lower"),
    layer("bench.client_cpu_us_per_req", "us", "lower"),
    layer("bench.samples_read", "count", "higher"),
    layer("bench.samples_write", "count", "higher"),
    layer("bench.replayed_requests", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    // BENCHMARK.json sits outside the crate, at the root of the repo.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_restates_the_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn benchmark_json_restates_the_metrics() {
        let doc = benchmark_json();
        let listed: Vec<EndToEndMetric> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound"),
                )
            })
            .map(|(name, unit, better, bound)| {
                let ours = END_TO_END.iter().find(|m| m.name == name).expect(name);
                assert_eq!((ours.unit, ours.better), (unit, better));
                assert_eq!(bound.and_then(Json::as_f64), Some(ours.bound));
                *ours
            })
            .collect();
        assert_eq!(listed, END_TO_END);
        let layers: Vec<(&str, &str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect();
        assert_eq!(layers, ours);
    }
}
