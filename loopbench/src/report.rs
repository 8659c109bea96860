//! Orchestration and output: what an invocation runs, the metric values
//! it derives, and the documents it prints.

use crate::child::{self, LiveChildren};
use crate::e2e::{self, Config, Outcome};
use crate::gen::{Class, Spec};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::replay::{self, Replay};
use crate::spec::{
    Workload, END_TO_END, PER_LAYER, PUBLICATIONS, REPLAY_REQUESTS, SMOKE_PUBLICATIONS,
};
use crate::stats;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The driver's contract: one workload, one JSON line.
    Driver {
        trace: bool,
    },
    Run,
    Trace,
    Selfcheck,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    pub mode: Mode,
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Seconds one workload measures (window plus, when tracing, the
    /// replay: a traced run splits them evenly).
    pub measure_s: f64,
    pub smoke: bool,
}

impl Invocation {
    pub fn parse(args: &[String]) -> Result<Invocation, String> {
        let (mode, flags) = match args.first().map(String::as_str) {
            Some("run") => (Some(Mode::Run), &args[1..]),
            Some("trace") => (Some(Mode::Trace), &args[1..]),
            Some("selfcheck") => (Some(Mode::Selfcheck), &args[1..]),
            _ => (None, args),
        };
        let mut invocation = Invocation {
            mode: mode.unwrap_or(Mode::Driver { trace: false }),
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            measure_s: 10.0,
            smoke: false,
        };
        let mut named = false;
        let mut flags = flags.iter();
        while let Some(flag) = flags.next() {
            let mut value = |what: &str| {
                flags
                    .next()
                    .ok_or_else(|| format!("{flag} needs {what}"))
                    .map(String::as_str)
            };
            match (flag.as_str(), mode) {
                ("--workload", _) => {
                    let name = value("a workload name")?;
                    invocation.workloads =
                        vec![Workload::from_name(name)
                            .ok_or(format!("unknown workload {name:?}"))?];
                    named = true;
                }
                ("--seed", _) => {
                    let seed = value("a number")?;
                    invocation.seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
                }
                ("--seconds", None) | ("--measure-s", Some(_)) => {
                    let seconds = value("seconds")?;
                    invocation.measure_s = seconds
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or(format!("bad duration {seconds:?}"))?;
                }
                ("--trace", None) => {
                    invocation.mode = Mode::Driver {
                        trace: match value("0 or 1")? {
                            "0" => false,
                            "1" => true,
                            other => return Err(format!("bad --trace {other:?}")),
                        },
                    };
                }
                ("--smoke", Some(_)) => invocation.smoke = true,
                (other, _) => return Err(format!("unknown argument {other:?}")),
            }
        }
        if mode.is_none() && !named {
            return Err("--workload is required".into());
        }
        Ok(invocation)
    }
}

// A workload that takes three times what it should is stuck: kill the
// servers and fail loudly instead of hanging the caller.
struct Watchdog {
    deadline: Arc<Mutex<Option<Instant>>>,
}

impl Watchdog {
    fn start(live: LiveChildren) -> Watchdog {
        let deadline = Arc::new(Mutex::new(None::<Instant>));
        let watched = Arc::clone(&deadline);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            let expired = watched
                .lock()
                .expect("no holder panics")
                .is_some_and(|d| Instant::now() > d);
            if expired {
                eprintln!("loopbench: wall-clock cap exceeded, killing the server and giving up");
                for pid in live.lock().expect("no holder panics").iter() {
                    let _ = std::process::Command::new("kill")
                        .args(["-9", &pid.to_string()])
                        .status();
                }
                std::process::exit(4);
            }
        });
        Watchdog { deadline }
    }

    fn arm(&self, expected: Duration) {
        *self.deadline.lock().expect("no holder panics") = Some(Instant::now() + expected * 3);
    }

    fn disarm(&self) {
        *self.deadline.lock().expect("no holder panics") = None;
    }
}

/// The end-to-end metrics of one run, in `END_TO_END` order.
pub fn end_to_end_values(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "throughput_rps" => outcome.throughput_rps,
                "p50_us" => outcome.reported.p50_us,
                "cpu_us_per_req" => outcome.cpu_us_per_req,
                "setup_s" => outcome.setup_s,
                "rss_after_setup_mb" => outcome.rss_after_setup_mb,
                other => unreachable!("no value for end-to-end metric {other}"),
            };
            (metric.name, value)
        })
        .collect()
}

// Growth of a `/status` counter over the measured window.
fn delta(outcome: &Outcome, path: &str) -> f64 {
    e2e::number(&outcome.status_after, path) - e2e::number(&outcome.status_before, path)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced run, in `PER_LAYER` order.
///
/// A stage's time is the median of its spans times the share of the
/// class's requests it occurs on, so a stage off the common path (a
/// compile on a cache miss of a cached workload) weighs what it costs a
/// typical request, and a stage that runs twice per request counts
/// twice.
pub fn per_layer_values(
    workload: Workload,
    outcome: &Outcome,
    replay: &Replay,
    oracle: &Oracle,
) -> Vec<(&'static str, f64)> {
    let requests_of = |class: Option<Class>| {
        replay
            .path_us
            .iter()
            .filter(|(c, _)| class.is_none_or(|class| *c == class))
            .count() as f64
    };
    let stage = |span: &str, class: Option<Class>| {
        let durations = replay.durations_us(span);
        stats::median(&durations).unwrap_or(0.0) * ratio(durations.len() as f64, requests_of(class))
    };
    let (read, write) = (Some(Class::Read), Some(Class::Write));
    let median = |values: &[f64]| stats::median(values).unwrap_or(0.0);
    let reported = Class::reported_on(workload);
    let path: Vec<f64> = replay
        .path_us
        .iter()
        .filter(|(class, _)| *class == reported)
        .map(|(_, us)| *us)
        .collect();
    let status_after = |path: &str| e2e::number(&outcome.status_after, path);
    let write_stream = outcome.write_stream.as_ref();
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "server.http_read_us" => stage("server.http_read", None),
                "server.http_write_us" => stage("server.http_write", None),
                "server.residual_us" => outcome.reported.p50_us - median(&path),
                "server.handler_us" => match reported {
                    Class::Read => outcome.handler_us.0,
                    Class::Write => outcome.handler_us.1,
                },
                "server.queue_wait_us" => outcome.queue_wait_us,
                "server.overload_rejects" => delta(outcome, "server.overload_rejections"),
                "server.wire_json_us" => stage("server.wire_json", read),
                "server.wire_bytes" => median(&replay.wire_bytes),
                "sparql.parse_query_us" => stage("sparql.parse_query", read),
                "sparql.parse_update_us" => stage("sparql.parse_update", write),
                "core.compile_us" => stage("core.compile", read),
                // What a cache miss costs the session beyond parsing,
                // compiling and running: lookup, admission, eviction.
                "core.cache_admit_us" => {
                    let beyond = replay.difference_us(
                        "core.session_query",
                        &["sparql.parse_query", "core.compile", "core.run_compiled"],
                    );
                    median(&beyond) * ratio(beyond.len() as f64, requests_of(read))
                }
                "core.cache_hit_ratio" => {
                    let hits = delta(outcome, "query_cache.hits");
                    ratio(hits, hits + delta(outcome, "query_cache.misses"))
                }
                "core.cache_evictions" => delta(outcome, "query_cache.evictions"),
                "core.session_query_us" => stage("core.session_query", read),
                "core.convert_us" => {
                    median(&replay.difference_us("core.run_compiled", &["rel.select"]))
                }
                "core.translate_us" => stage("core.translate", write),
                "core.modify_us" => stage("core.modify", write),
                "core.sort_us" => stage("core.sort", write),
                "core.txn_commit_us" => stage("core.txn_commit", write),
                "core.write_lock_wait_us" => ratio(
                    delta(outcome, "concurrency.write_lock_wait_micros"),
                    delta(outcome, "concurrency.write_lock_waits"),
                ),
                "core.versions_retained" => status_after("concurrency.versions_retained"),
                "rel.select_us" => stage("rel.select", read),
                "rel.rows_out" => median(&replay.rows_out),
                "rel.dml_us" => stage("rel.dml", write),
                "rel.dml_statements" => median(&replay.dml_statements),
                "rel.dml_rows" => median(&replay.dml_rows),
                "rel.populate_s" => oracle.populate_s,
                "rel.dict_symbols" => status_after("dictionary.symbols"),
                "rel.dict_bytes" => status_after("dictionary.string_bytes"),
                "rel.dict_growth" => delta(outcome, "dictionary.symbols"),
                "dur.append_us" => stage("dur.append", write),
                "dur.fsync_us" => stage("dur.fsync", write),
                "dur.commits_per_fsync" => ratio(
                    delta(outcome, "durability.commits_appended"),
                    delta(outcome, "durability.wal_syncs"),
                ),
                "dur.wal_bytes_per_commit" => median(&replay.wal_bytes),
                "dur.snapshot_s" => replay.snapshot_s,
                "dur.snapshot_bytes" => replay.snapshot_bytes as f64,
                "dur.recover_s" => replay.recover_s,
                "proc.rss_end_mb" => outcome.rss_end_mb,
                "proc.rss_growth_mb" => outcome.rss_end_mb - outcome.rss_start_mb,
                "e2e.p50_us" => outcome.reported.p50_us,
                "e2e.p95_us" => outcome.reported.tail_us,
                "e2e.write_stream_p50_us" => write_stream.map_or(0.0, |w| w.p50_us),
                "e2e.write_stream_p95_us" => write_stream.map_or(0.0, |w| w.tail_us),
                "e2e.write_stream_rps" => write_stream.map_or(0.0, |w| w.rps),
                "e2e.wal_bytes_per_commit" => outcome.wal_bytes_per_commit,
                "bench.tick_spread_pct" => outcome.tick_spread_pct,
                "bench.client_cpu_us_per_req" => outcome.client_cpu_us_per_req,
                "bench.samples_read" => outcome.samples_read as f64,
                "bench.samples_write" => outcome.samples_write as f64,
                "bench.replayed_requests" => replay.requests() as f64,
                other => unreachable!("no value for per-layer metric {other}"),
            };
            (metric.name, value)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .expect("a metric of the spec")
}

fn numbers(values: &[f64]) -> Json {
    values
        .iter()
        .map(|v| Json::from(*v))
        .collect::<Vec<_>>()
        .into()
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    let mut object = Json::obj();
    for (name, value) in values {
        object.set(
            name,
            Json::obj()
                .with("value", *value)
                .with("unit", unit_of(name)),
        );
    }
    object
}

/// One workload's part of the report.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub outcome: Outcome,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Present on traced runs.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    pub replay_failures: Vec<String>,
}

impl WorkloadReport {
    /// Nothing failed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self
                .end_to_end
                .iter()
                .chain(self.per_layer.iter().flatten())
                .all(|(_, value)| value.is_finite())
    }

    /// Failed, refused or wrongly answered operations, replay included.
    pub fn failed(&self) -> u64 {
        self.outcome.failed + self.replay_failures.len() as u64
    }

    fn to_json(&self) -> Json {
        let o = &self.outcome;
        let mut doc = Json::obj()
            .with("workload", self.workload.name())
            .with("why", self.workload.why())
            .with("correct", self.correct())
            .with("attempted", o.attempted)
            .with("failed", self.failed())
            .with(
                "failures",
                o.failures
                    .iter()
                    .chain(&self.replay_failures)
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("end_to_end", metrics_json(&self.end_to_end))
            .with("samples", o.reported.samples)
            .with("p95_us", o.reported.tail_us)
            .with("tail_percentile", o.reported.tail_pct)
            .with("setup_runs_s", numbers(&o.setup_runs_s))
            .with(
                "ticks",
                Json::obj()
                    .with("rps", numbers(&o.tick_rps))
                    .with("cpu_us_per_req", numbers(&o.tick_cpu_us))
                    .with("p50_us", numbers(&o.reported.tick_p50_us)),
            )
            .with("slice_p95_us", numbers(&o.reported.slice_tail_us))
            .with("tick_spread_pct", o.tick_spread_pct)
            .with("client_cpu_us_per_req", o.client_cpu_us_per_req)
            .with("wal_bytes_per_commit", o.wal_bytes_per_commit)
            .with("rss_start_mb", o.rss_start_mb)
            .with("rss_end_mb", o.rss_end_mb);
        if let Some(restart_s) = o.restart_s {
            doc.set("restart_after_kill_s", restart_s);
        }
        if let Some(w) = &o.write_stream {
            doc.set(
                "write_stream",
                Json::obj()
                    .with("samples", w.samples)
                    .with("rps", w.rps)
                    .with("p50_us", w.p50_us)
                    .with("p95_us", w.tail_us)
                    .with("tail_percentile", w.tail_pct),
            );
        }
        if let Some(layers) = &self.per_layer {
            doc.set("per_layer", metrics_json(layers));
        }
        doc
    }

    fn print_named(&self) {
        let o = &self.outcome;
        eprintln!(
            "{}: attempted {} failed {}; {} samples, p{} {:.3} us",
            self.workload.name(),
            o.attempted,
            o.failed,
            o.reported.samples,
            o.reported.tail_pct,
            o.reported.tail_us
        );
        for (name, value) in self
            .end_to_end
            .iter()
            .chain(self.per_layer.iter().flatten())
        {
            eprintln!("  {name:<32} {value:>14.3} {}", unit_of(name));
        }
        for failure in o.failures.iter().chain(&self.replay_failures) {
            eprintln!("  FAILED: {failure}");
        }
    }
}

struct Session {
    root: PathBuf,
    config: Config,
    watchdog: Watchdog,
    seed: u64,
    oracle: Oracle,
}

impl Session {
    fn open(invocation: &Invocation) -> Result<Session, String> {
        let root = child::repo_root();
        let out_dir = out_dir(&root);
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let binary = child::build_server_binary(&root)?;
        let live: LiveChildren = Arc::default();
        let publications = if invocation.smoke {
            SMOKE_PUBLICATIONS
        } else {
            PUBLICATIONS
        };
        let config = Config {
            binary,
            out_dir,
            publications,
            measure_s: if invocation.smoke {
                1.0
            } else {
                invocation.measure_s
            },
            warmup_s: if invocation.smoke { 0.2 } else { 1.0 },
            setups: if invocation.smoke { 1 } else { 5 },
            live: Arc::clone(&live),
        };
        Ok(Session {
            oracle: Oracle::build(&Spec::scaled(publications), invocation.seed),
            root,
            config,
            watchdog: Watchdog::start(live),
            seed: invocation.seed,
        })
    }

    // One workload, end to end; traced runs split the time between a
    // window (for the counters and the residual) and the replay.
    fn measure(&self, workload: Workload, trace: bool) -> Result<WorkloadReport, String> {
        let mut config = self.config.clone();
        if trace {
            config.measure_s /= 2.0;
            config.setups = 1;
        }
        self.watchdog.arm(Duration::from_secs_f64(
            20.0 + self.config.measure_s + config.warmup_s + 3.0 * config.setups as f64,
        ));
        let outcome = e2e::run(&config, workload, self.seed, &self.oracle)?;
        let mut report = WorkloadReport {
            workload,
            end_to_end: end_to_end_values(&outcome),
            outcome,
            per_layer: None,
            replay_failures: Vec::new(),
        };
        if trace {
            let dir = config.out_dir.join(format!(
                "data-replay-{}-{}",
                workload.name(),
                std::process::id()
            ));
            let replay = replay::run(
                workload,
                self.seed,
                &Spec::scaled(config.publications),
                &self.oracle,
                &dir,
                REPLAY_REQUESTS,
                config.measure_s,
            )?;
            let trace_file = config
                .out_dir
                .join(format!("trace-{}.json", workload.name()));
            std::fs::write(&trace_file, replay.to_json(workload, self.seed).to_string())
                .map_err(|e| format!("{}: {e}", trace_file.display()))?;
            report.per_layer = Some(per_layer_values(
                workload,
                &report.outcome,
                &replay,
                &self.oracle,
            ));
            report.replay_failures = replay.failures;
        }
        self.watchdog.disarm();
        Ok(report)
    }

    fn environment(&self) -> Json {
        let command = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .current_dir(&self.root)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".into())
        };
        Json::obj()
            .with("commit", command("git", &["rev-parse", "HEAD"]))
            .with(
                "nproc",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            )
            .with("rustc", command("rustc", &["-V"]))
            .with("seed", self.seed)
            .with("clients", crate::spec::CLIENTS)
            .with("workers", crate::spec::WORKERS)
            .with(
                "loop",
                "closed: each connection sends its next request after the reply",
            )
            .with("publications", self.config.publications)
            .with("measure_s", self.config.measure_s)
            .with("warmup_s", self.config.warmup_s)
            .with("ticks", crate::spec::TICKS)
            .with("ticks_per_slice", crate::spec::TICKS_PER_SLICE)
            .with("setups", self.config.setups)
            .with(
                "flush_policy",
                "product default: every commit waits for a group fsync (sync_data) of the WAL",
            )
            .with(
                "data_dir_filesystem",
                child::filesystem_of(&self.config.out_dir),
            )
    }

    fn document(&self, kind: &str, reports: &[WorkloadReport]) -> Json {
        Json::obj()
            .with("benchmark", "loopbench")
            .with("kind", kind)
            .with("claim", Json::Null)
            .with("environment", self.environment())
            .with(
                "workloads",
                reports
                    .iter()
                    .map(WorkloadReport::to_json)
                    .collect::<Vec<_>>(),
            )
    }

    fn save(&self, name: &str, document: &Json) -> Result<(), String> {
        let path = self.config.out_dir.join(name);
        std::fs::write(&path, format!("{document}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The driver's result line.
pub fn driver_line(report: &WorkloadReport, trace: bool) -> Json {
    let values = if trace {
        report.per_layer.as_deref().unwrap_or_default()
    } else {
        &report.end_to_end
    };
    Json::obj()
        .with("correct", report.correct())
        .with("attempted", report.outcome.attempted.max(1))
        .with("failed", report.failed())
        .with("metrics", metrics_json(values))
}

fn selfcheck(session: &Session, workloads: &[Workload]) -> Result<bool, String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let reports = workloads
            .iter()
            .map(|w| session.measure(*w, false))
            .collect::<Result<Vec<_>, _>>()?;
        sets.push(reports);
    }
    let mut within = sets.iter().flatten().all(WorkloadReport::correct);
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (first, second) in sets[0].iter().zip(&sets[1]) {
        for ((name, a), (_, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect(name)
                .bound;
            let gap = (a - b).abs() / a.abs();
            let ok = gap <= bound;
            within &= ok;
            println!(
                "{:<12} {:<20} {:>14.3} {:>14.3} {:>7.2}% {:>7.2}%{}",
                first.workload.name(),
                name,
                a,
                b,
                gap * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
            rows.push(
                Json::obj()
                    .with("workload", first.workload.name())
                    .with("metric", *name)
                    .with("first", *a)
                    .with("second", *b)
                    .with("gap", gap)
                    .with("bound", bound)
                    .with("within", ok),
            );
        }
    }
    for report in sets.iter().flatten().filter(|r| !r.correct()) {
        report.print_named();
    }
    session.save(
        "selfcheck.json",
        &session
            .document("selfcheck", &sets[0])
            .with(
                "second",
                sets[1]
                    .iter()
                    .map(WorkloadReport::to_json)
                    .collect::<Vec<_>>(),
            )
            .with("comparison", rows),
    )?;
    Ok(within)
}

/// Run what `invocation` asks for. `Ok(false)`: it ran, but something
/// was wrong (a failed or wrongly answered request, a gap beyond its
/// bound).
pub fn execute(invocation: &Invocation) -> Result<bool, String> {
    let session = Session::open(invocation)?;
    match invocation.mode {
        Mode::Driver { trace } => {
            let workload = invocation.workloads[0];
            let report = session.measure(workload, trace)?;
            report.print_named();
            session.save(
                &format!(
                    "{}-seed{}-trace{}.json",
                    workload.name(),
                    session.seed,
                    u8::from(trace)
                ),
                &session.document(
                    if trace { "trace" } else { "run" },
                    std::slice::from_ref(&report),
                ),
            )?;
            println!("{}", driver_line(&report, trace));
            Ok(report.correct())
        }
        Mode::Run | Mode::Trace => {
            let trace = invocation.mode == Mode::Trace;
            let reports = invocation
                .workloads
                .iter()
                .map(|w| {
                    let report = session.measure(*w, trace)?;
                    report.print_named();
                    Ok(report)
                })
                .collect::<Result<Vec<_>, String>>()?;
            let kind = if trace { "trace" } else { "run" };
            let document = session.document(kind, &reports);
            session.save(&format!("{kind}-seed{}.json", session.seed), &document)?;
            println!("{document}");
            Ok(reports.iter().all(WorkloadReport::correct))
        }
        Mode::Selfcheck => selfcheck(&session, &invocation.workloads),
    }
}

/// Where reports, traces and data directories go.
pub fn out_dir(root: &Path) -> PathBuf {
    root.join("loopbench/out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let invocation = Invocation::parse(&args(
            "--workload read_join --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(invocation.mode, Mode::Driver { trace: true });
        assert_eq!(invocation.workloads, vec![Workload::ReadJoin]);
        assert_eq!((invocation.seed, invocation.measure_s), (7, 10.0));
        assert!(Invocation::parse(&args("--seed 7 --seconds 10 --trace 0")).is_err());
        assert!(Invocation::parse(&args("--workload nope --seed 7")).is_err());
        assert!(Invocation::parse(&args("--workload mixed --trace 2")).is_err());
    }

    #[test]
    fn parses_the_subcommands() {
        let invocation = Invocation::parse(&args("run --seed 3 --measure-s 4 --smoke")).unwrap();
        assert_eq!(invocation.mode, Mode::Run);
        assert_eq!(invocation.workloads.len(), Workload::ALL.len());
        assert!(invocation.smoke);
        assert_eq!(
            Invocation::parse(&args("selfcheck --workload mixed"))
                .unwrap()
                .workloads,
            vec![Workload::Mixed]
        );
        assert!(Invocation::parse(&args("run --seconds 4")).is_err());
        assert!(Invocation::parse(&args("trace --trace 1")).is_err());
    }
}
