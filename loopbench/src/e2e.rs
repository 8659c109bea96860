//! The end-to-end run: the shipped binary as a child process, driven
//! over loopback HTTP by a closed loop of keep-alive connections.
//!
//! Per run: set the server up (several times, for a steady `setup_s`),
//! warm up untimed, then measure one window cut into ticks. Every
//! timing is computed per tick and reported as the better quartile of
//! the ticks (see `stats`). Every response is checked; write workloads
//! are checked again through the ledger of what they acknowledged.

use crate::child::{self, LiveChildren, Server};
use crate::gen::{self, Class, Ledger, Prepared, Spec, Stream};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::spec::{Workload, CLIENTS, FULL_COMPARE_EVERY, TICKS, TICKS_PER_SLICE};
use crate::stats::{self, SliceLatency};
use fixtures::http_probe::{ProbeConn, ProbeResponse};
use std::path::PathBuf;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How one invocation runs its workloads.
#[derive(Debug, Clone)]
pub struct Config {
    pub binary: PathBuf,
    /// Scratch for data directories and reports (`loopbench/out`).
    pub out_dir: PathBuf,
    pub publications: usize,
    pub measure_s: f64,
    pub warmup_s: f64,
    /// Times the server is set up; `setup_s` is the median.
    pub setups: usize,
    pub live: LiveChildren,
}

/// Latency summary of one request class over the window.
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// Median latency of each tick; `p50_us` is their better quartile,
    /// `rps` that of the ticks' completion counts.
    pub tick_p50_us: Vec<f64>,
    /// Tail latency of each slice of [`TICKS_PER_SLICE`] ticks;
    /// `tail_us` is their median.
    pub slice_tail_us: Vec<f64>,
    pub samples: usize,
    pub rps: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// Lowest percentile any slice had to fall back to (95 when every
    /// slice had ten samples beyond it).
    pub tail_pct: usize,
}

/// Everything one end-to-end run observed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub throughput_rps: f64,
    /// Completed requests per second and server CPU per request, tick
    /// by tick (the reported values are their better quartiles).
    pub tick_rps: Vec<f64>,
    pub tick_cpu_us: Vec<f64>,
    /// The reported class: the workload's only one, reads on `mixed`.
    pub reported: ClassSummary,
    /// The write stream of `mixed`.
    pub write_stream: Option<ClassSummary>,
    pub cpu_us_per_req: f64,
    pub setup_s: f64,
    pub setup_runs_s: Vec<f64>,
    pub rss_after_setup_mb: f64,
    /// Resident set at the start and at the end of the window.
    pub rss_start_mb: f64,
    pub rss_end_mb: f64,
    pub tick_spread_pct: f64,
    pub client_cpu_us_per_req: f64,
    pub samples_read: usize,
    pub samples_write: usize,
    pub wal_bytes_per_commit: f64,
    /// Seconds from `kill -9` restart to a served connection
    /// (`write_small` only).
    pub restart_s: Option<f64>,
    pub status_before: Json,
    pub status_after: Json,
    /// Mean handler wall time of the workload's endpoints over the
    /// window, from the server's own histograms: (`/sparql`, `/update`).
    pub handler_us: (f64, f64),
    /// Mean pool wait of the connections accepted so far.
    pub queue_wait_us: f64,
}

struct ClientOut {
    /// Latencies (ns) of the requests completed inside each tick, reads
    /// and writes apart.
    reads: Vec<Vec<u64>>,
    writes: Vec<Vec<u64>>,
    attempted: u64,
    failures: Vec<String>,
    /// Writes acknowledged with success, warm-up included: the position
    /// the ledger is checked at.
    acked_writes: usize,
    scrapes: Vec<Scrape>,
}

#[derive(Debug, Clone)]
struct Scrape {
    status: Json,
    sparql: (f64, f64),
    update: (f64, f64),
    queue_wait: (f64, f64),
}

fn scrape(conn: &mut ProbeConn) -> Result<Scrape, String> {
    let metrics = child::metrics(conn)?;
    let endpoint = |path: &str| {
        child::histogram(
            &metrics,
            "ontoaccess_http_request_seconds",
            &format!("{{endpoint=\"{path}\"}}"),
        )
    };
    Ok(Scrape {
        status: child::status(conn)?,
        sparql: endpoint("/sparql")?,
        update: endpoint("/update")?,
        queue_wait: child::histogram(&metrics, "ontoaccess_pool_queue_wait_seconds", "")?,
    })
}

/// Whether `response` is the right answer to `request`. `n` numbers the
/// connection's requests: every [`FULL_COMPARE_EVERY`]-th read body is
/// compared byte for byte, the others by status and length.
pub fn check(request: &Prepared, response: &ProbeResponse, n: u64) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!(
            "status {} for {:?}: {}",
            response.status,
            request.text,
            response.text().chars().take(300).collect::<String>()
        ));
    }
    match request.class {
        Class::Read => {
            if response.body.len() != request.expected.len()
                || (n.is_multiple_of(FULL_COMPARE_EVERY) && response.body != request.expected)
            {
                return Err(format!(
                    "wrong answer for {:?}: got {} bytes, expected {}",
                    request.text,
                    response.body.len(),
                    request.expected.len()
                ));
            }
        }
        Class::Write => {
            if !response.text().contains("fb:Confirmation") {
                return Err(format!("no confirmation for {:?}", request.text));
            }
        }
    }
    Ok(())
}

impl ClientOut {
    fn ticks(&self, class: Class) -> &[Vec<u64>] {
        match class {
            Class::Read => &self.reads,
            Class::Write => &self.writes,
        }
    }

    fn ticks_mut(&mut self, class: Class) -> &mut [Vec<u64>] {
        match class {
            Class::Read => &mut self.reads,
            Class::Write => &mut self.writes,
        }
    }
}

// Send the stream's next request and check the answer. `Err` means the
// connection is unusable.
fn exchange(
    conn: &mut ProbeConn,
    stream: &mut Stream,
    out: &mut ClientOut,
) -> Result<(Class, Duration), ()> {
    let index = stream.next_index();
    let request = &stream.table[index];
    out.attempted += 1;
    let started = Instant::now();
    let response = conn.send(&request.wire);
    let latency = started.elapsed();
    match response {
        Ok(response) => match check(request, &response, out.attempted) {
            Ok(()) => out.acked_writes += usize::from(request.class == Class::Write),
            Err(failure) => out.failures.push(failure),
        },
        Err(e) => {
            out.failures
                .push(format!("i/o error on {:?}: {e}", request.text));
            return Err(());
        }
    }
    Ok((request.class, latency))
}

struct Phases<'a> {
    barrier: &'a Barrier,
    window_start: &'a OnceLock<Instant>,
    warmup: Duration,
    window: Duration,
}

// One client connection's life: warm up, measure, and (connection 0)
// scrape the server's counters on either side of the window. The
// scrapes ride on a client connection because both workers are pinned
// by the two keep-alive connections: a third would wait for one to go.
fn client(
    mut conn: ProbeConn,
    mut stream: Stream,
    scrapes: bool,
    phases: &Phases<'_>,
) -> (ClientOut, ProbeConn) {
    let mut out = ClientOut {
        reads: vec![Vec::new(); TICKS],
        writes: vec![Vec::new(); TICKS],
        attempted: 0,
        failures: Vec::new(),
        acked_writes: 0,
        scrapes: Vec::new(),
    };
    let mut alive = true;
    phases.barrier.wait();
    let warm_until = Instant::now() + phases.warmup;
    while alive && Instant::now() < warm_until {
        alive = exchange(&mut conn, &mut stream, &mut out).is_ok();
    }
    phases.barrier.wait();
    let take_scrape = |conn: &mut ProbeConn, out: &mut ClientOut| {
        if scrapes {
            match scrape(conn) {
                Ok(scrape) => out.scrapes.push(scrape),
                Err(e) => out.failures.push(e),
            }
        }
    };
    if alive {
        take_scrape(&mut conn, &mut out);
    }
    phases.barrier.wait();
    // The coordinator stamps the window start between these two waits.
    phases.barrier.wait();
    let start = *phases
        .window_start
        .get()
        .expect("stamped before the last wait");
    let tick = phases.window / TICKS as u32;
    while alive && start.elapsed() < phases.window {
        match exchange(&mut conn, &mut stream, &mut out) {
            Ok((class, latency)) => {
                // A request belongs to the tick it completed in; one
                // that outlives the window is checked but not timed.
                let index = (start.elapsed().as_nanos() / tick.as_nanos()) as usize;
                if let Some(bucket) = out.ticks_mut(class).get_mut(index) {
                    bucket.push(latency.as_nanos() as u64);
                }
            }
            Err(()) => alive = false,
        }
    }
    phases.barrier.wait();
    if alive {
        take_scrape(&mut conn, &mut out);
    }
    (out, conn)
}

struct Ready {
    server: Server,
    conns: Vec<ProbeConn>,
    data_dir: PathBuf,
    setup_s: f64,
    rss_mb: f64,
    /// Priming requests sent (they are checked like any other).
    primed: u64,
}

// Spawn → bound address printed → connections open → hot query texts
// primed: the time until the server answers the workload at full speed.
fn set_up(
    config: &Config,
    workload: Workload,
    seed: u64,
    streams: &[Stream],
    attempt: usize,
    failures: &mut Vec<String>,
) -> Result<Ready, String> {
    let data_dir = config.out_dir.join(format!(
        "data-{}-{}-{attempt}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let started = Instant::now();
    let server = Server::spawn(
        &config.binary,
        &data_dir,
        config.publications,
        seed,
        &config.live,
    )?;
    let mut conns = (0..CLIENTS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut primed = 0;
    if workload.primes_cache() {
        let reads = streams[0].table.iter().filter(|r| r.class == Class::Read);
        for (n, request) in reads.enumerate() {
            primed += 1;
            let response = conns[0]
                .send(&request.wire)
                .map_err(|e| format!("priming {:?}: {e}", request.text))?;
            // Primed answers are all compared in full.
            if let Err(failure) = check(request, &response, n as u64 * FULL_COMPARE_EVERY) {
                failures.push(failure);
            }
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    let rss_mb = server.rss_mb();
    Ok(Ready {
        server,
        conns,
        data_dir,
        setup_s,
        rss_mb,
        primed,
    })
}

/// The number at `path` of a `/status` document (NaN when absent, so a
/// missing counter fails the report instead of reading as 0).
pub fn number(status: &Json, path: &str) -> f64 {
    status.path(path).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Rows of a SPARQL JSON result whose first variable is `var`.
pub fn count_rows(body: &[u8], var: &str) -> usize {
    let needle = format!("{{\"{var}\":{{");
    body.windows(needle.len())
        .filter(|w| *w == needle.as_bytes())
        .count()
}

fn probe(conn: &mut ProbeConn, text: String) -> Result<Vec<u8>, String> {
    let request = Prepared::read(text);
    let response = conn.send(&request.wire).map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {} for {:?}", response.status, request.text));
    }
    Ok(response.body)
}

/// Check that the database holds exactly what the acknowledged writes
/// left: the in-progress entity of each stream in its last acknowledged
/// state, everything else of the pools gone, table sizes to the row.
/// Returns one line per mismatch.
pub fn verify_ledger(
    conn: &mut ProbeConn,
    oracle: &Oracle,
    ledgers: &[(&Ledger, usize)],
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    let mut extra_authors = 0usize;
    let mut extra_batches = 0usize;
    for (ledger, acked) in ledgers {
        match ledger {
            Ledger::None => {}
            Ledger::Small { ids } => {
                let position = (acked / 3) % ids.len();
                let mut expect_mbox = |id: i64, mbox: Option<String>| -> Result<(), String> {
                    let bindings = mbox.map_or(String::new(), |m| {
                        format!("{{\"m\":{{\"type\":\"uri\",\"value\":\"{m}\"}}}}")
                    });
                    let expected =
                        format!("{{\"head\":{{\"vars\":[\"m\"]}},\"results\":{{\"bindings\":[{bindings}]}}}}");
                    let got = probe(conn, gen::mbox_query(id))?;
                    if got != expected.as_bytes() {
                        mismatches.push(format!(
                            "author{id}: expected {expected}, got {}",
                            String::from_utf8_lossy(&got)
                        ));
                    }
                    Ok(())
                };
                let phase = acked % 3;
                expect_mbox(
                    ids[position],
                    (phase > 0).then(|| gen::small_mbox(ids[position], phase == 2)),
                )?;
                extra_authors += usize::from(phase > 0);
                if *acked >= 3 {
                    let previous = ids[(position + ids.len() - 1) % ids.len()];
                    expect_mbox(previous, None)?;
                }
            }
            Ledger::Bulk { slot_first_pub } => {
                let live: Vec<usize> = (acked.saturating_sub(gen::BULK_LIVE)..*acked)
                    .map(|i| i % gen::BULK_SLOTS)
                    .collect();
                extra_batches += live.len();
                for (slot, first_pub) in slot_first_pub.iter().enumerate() {
                    let expected = if live.contains(&slot) { 2 } else { 0 };
                    let got = count_rows(&probe(conn, gen::creators_query(*first_pub))?, "a");
                    if got != expected {
                        mismatches.push(format!(
                            "pub{first_pub} (slot {slot}): {got} creators, expected {expected}"
                        ));
                    }
                }
            }
        }
    }
    let status = child::status(conn)?;
    let base = oracle.mediator.database();
    let extra_entities = extra_batches * gen::BULK_BATCH;
    for (table, extra) in [
        ("author", extra_authors + extra_entities),
        ("publication", extra_entities),
        ("publication_author", 2 * extra_entities),
    ] {
        let expected = base.row_count(table).map_err(|e| e.to_string())? + extra;
        let got = number(&status, &format!("tables.{table}"));
        if got != expected as f64 {
            mismatches.push(format!("table {table}: {got} rows, expected {expected}"));
        }
    }
    Ok(mismatches)
}

// Merge the connections' ticks of one class and reduce them: rate and
// median latency per tick, tail latency per slice of ticks.
fn reduce(outs: &[ClientOut], class: Class, tick_s: f64) -> Option<ClassSummary> {
    let merged = |ticks: std::ops::Range<usize>| -> Vec<u64> {
        outs.iter()
            .flat_map(|o| o.ticks(class)[ticks.clone()].iter().flatten().copied())
            .collect()
    };
    let ticks: Vec<SliceLatency> = (0..TICKS)
        .filter_map(|k| stats::slice_latency(&mut merged(k..k + 1)))
        .collect();
    let slices: Vec<SliceLatency> = (0..TICKS)
        .step_by(TICKS_PER_SLICE)
        .filter_map(|k| stats::slice_latency(&mut merged(k..k + TICKS_PER_SLICE)))
        .collect();
    if ticks.len() < TICKS {
        return None;
    }
    let counts: Vec<f64> = ticks.iter().map(|t| t.samples as f64).collect();
    let tick_p50_us: Vec<f64> = ticks.iter().map(|t| t.p50_us).collect();
    let slice_tail_us: Vec<f64> = slices.iter().map(|s| s.tail_us).collect();
    Some(ClassSummary {
        samples: counts.iter().sum::<f64>() as usize,
        rps: stats::better_quartile(&counts, true)? / tick_s,
        p50_us: stats::better_quartile(&tick_p50_us, false)?,
        tail_us: stats::median(&slice_tail_us)?,
        tail_pct: slices.iter().map(|s| s.tail_pct).min()?,
        tick_p50_us,
        slice_tail_us,
    })
}

/// Run one workload end to end. `Err` is a harness failure (the server
/// did not start, a scrape was refused); wrong or failed responses are
/// counted in the outcome instead.
pub fn run(
    config: &Config,
    workload: Workload,
    seed: u64,
    oracle: &Oracle,
) -> Result<Outcome, String> {
    let dataset = Spec::scaled(config.publications);
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| gen::stream(workload, c, seed, &dataset))
        .collect();
    for stream in &mut streams {
        oracle.expect(stream)?;
    }
    std::fs::create_dir_all(&config.out_dir).map_err(|e| e.to_string())?;

    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut setup_runs_s = Vec::new();
    let mut rss_runs_mb = Vec::new();
    let mut ready = None;
    for attempt in 0..config.setups.max(1) {
        if let Some(Ready {
            server, data_dir, ..
        }) = ready.take()
        {
            server.kill();
            let _ = std::fs::remove_dir_all(data_dir);
        }
        let up = set_up(config, workload, seed, &streams, attempt, &mut failures)?;
        setup_runs_s.push(up.setup_s);
        rss_runs_mb.push(up.rss_mb);
        attempted += up.primed;
        ready = Some(up);
    }
    let Ready {
        mut server,
        conns,
        data_dir,
        ..
    } = ready.expect("at least one set-up");

    let window = Duration::from_secs_f64(config.measure_s);
    let tick_s = config.measure_s / TICKS as f64;
    let barrier = Barrier::new(CLIENTS + 1);
    let window_start = OnceLock::new();
    let phases = Phases {
        barrier: &barrier,
        window_start: &window_start,
        warmup: Duration::from_secs_f64(config.warmup_s),
        window,
    };
    let ledgers: Vec<Ledger> = streams.iter().map(|s| s.ledger.clone()).collect();
    // CPU seconds of the server and of this process at the window's
    // start and at the end of every tick.
    let mut cpu_marks: Vec<(f64, f64)> = Vec::with_capacity(TICKS + 1);
    let mut rss_start_mb = f64::NAN;
    let (mut outs, mut conns): (Vec<ClientOut>, Vec<ProbeConn>) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                let phases = &phases;
                scope.spawn(move || client(conn, stream, c == 0, phases))
            })
            .collect();
        barrier.wait(); // warm-up begins
        barrier.wait(); // warm-up over, connection 0 scrapes
        barrier.wait(); // everyone is ready
        let start = Instant::now();
        window_start.set(start).expect("stamped once");
        rss_start_mb = server.rss_mb();
        cpu_marks.push((server.cpu_seconds(), child::cpu_seconds_of("self")));
        barrier.wait(); // go
        for k in 1..=TICKS {
            std::thread::sleep((window * k as u32 / TICKS as u32).saturating_sub(start.elapsed()));
            cpu_marks.push((server.cpu_seconds(), child::cpu_seconds_of("self")));
        }
        barrier.wait(); // window over, connection 0 scrapes
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .unzip()
    });
    let rss_end_mb = server.rss_mb();
    for out in &mut outs {
        attempted += out.attempted;
        failures.append(&mut out.failures);
    }

    // The ledger, first on the running server, then (write_small) on a
    // server restarted after kill -9 from the same data directory.
    let acked: Vec<(&Ledger, usize)> = ledgers
        .iter()
        .zip(outs.iter().map(|o| o.acked_writes))
        .collect();
    let mut restart_s = None;
    if workload.has_writes() {
        failures.extend(verify_ledger(&mut conns[0], oracle, &acked)?);
    }
    drop(conns);
    if workload == Workload::WriteSmall {
        server.kill();
        let started = Instant::now();
        server = Server::spawn(
            &config.binary,
            &data_dir,
            config.publications,
            seed,
            &config.live,
        )?;
        let mut conn = server.connect()?;
        child::status(&mut conn)?;
        restart_s = Some(started.elapsed().as_secs_f64());
        failures.extend(
            verify_ledger(&mut conn, oracle, &acked)?
                .into_iter()
                .map(|m| format!("after kill -9 and restart: {m}")),
        );
    }
    server.kill();
    let _ = std::fs::remove_dir_all(&data_dir);

    let scrapes = std::mem::take(&mut outs[0].scrapes);
    let [before, after] = <[Scrape; 2]>::try_from(scrapes)
        .map_err(|_| "the server's counters could not be scraped around the window".to_owned())?;

    let reported = reduce(&outs, Class::reported_on(workload), tick_s)
        .ok_or("a tick of the window completed no request")?;
    let write_stream = (workload == Workload::Mixed)
        .then(|| reduce(&outs, Class::Write, tick_s))
        .flatten();
    let completed: Vec<f64> = (0..TICKS)
        .map(|k| {
            outs.iter()
                .map(|o| o.reads[k].len() + o.writes[k].len())
                .sum::<usize>() as f64
        })
        .collect();
    let better = |values: &[f64], higher_is_better: bool| {
        stats::better_quartile(values, higher_is_better).expect("twenty ticks")
    };
    let throughputs: Vec<f64> = completed.iter().map(|n| n / tick_s).collect();
    // CPU microseconds per completed request, tick by tick.
    let cpu_us = |of: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        (0..TICKS)
            .map(|k| (of(&cpu_marks[k + 1]) - of(&cpu_marks[k])) * 1e6 / completed[k])
            .collect()
    };
    let tick_cpu_us = cpu_us(|mark| mark.0);
    let delta = |a: (f64, f64), b: (f64, f64)| {
        let count = b.1 - a.1;
        if count > 0.0 {
            (b.0 - a.0) / count * 1e6
        } else {
            0.0
        }
    };
    let commits = number(&after.status, "durability.commits_appended")
        - number(&before.status, "durability.commits_appended");
    let samples_of = |class: Class| {
        outs.iter()
            .flat_map(|o| o.ticks(class).iter().map(Vec::len))
            .sum()
    };
    let failed = failures.len() as u64;
    failures.truncate(20);
    Ok(Outcome {
        attempted,
        failed,
        failures,
        throughput_rps: better(&throughputs, true),
        reported,
        write_stream,
        cpu_us_per_req: better(&tick_cpu_us, false),
        tick_cpu_us,
        setup_s: stats::median(&setup_runs_s).expect("at least one set-up"),
        setup_runs_s,
        rss_after_setup_mb: stats::median(&rss_runs_mb).expect("at least one set-up"),
        rss_start_mb,
        rss_end_mb,
        tick_spread_pct: stats::spread(&throughputs).unwrap_or(f64::NAN) * 100.0,
        tick_rps: throughputs,
        client_cpu_us_per_req: better(&cpu_us(|mark| mark.1), false),
        samples_read: samples_of(Class::Read),
        samples_write: samples_of(Class::Write),
        wal_bytes_per_commit: if commits > 0.0 {
            (number(&after.status, "durability.wal_bytes")
                - number(&before.status, "durability.wal_bytes"))
                / commits
        } else {
            0.0
        },
        restart_s,
        handler_us: (
            delta(before.sparql, after.sparql),
            delta(before.update, after.update),
        ),
        queue_wait_us: delta((0.0, 0.0), after.queue_wait),
        status_before: before.status,
        status_after: after.status,
    })
}
