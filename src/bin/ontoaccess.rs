//! `ontoaccess` — the mediator as a console *or* an HTTP server.
//!
//! Like the paper's prototype, the engine is reachable over HTTP:
//! `--serve <addr>` boots the SPARQL 1.1 Protocol server of
//! `crates/server` over the same mediator. Without `--serve`, the
//! binary is an interactive console: type a SPARQL/Update operation or
//! a SPARQL query (end it with an empty line); the console prints the
//! generated SQL and the RDF feedback document, or the solution table
//! for queries.
//!
//! ```text
//! cargo run --bin ontoaccess-cli            # console, paper's sample data
//! cargo run --bin ontoaccess-cli -- --empty # empty Figure 1 database
//! cargo run --bin ontoaccess-cli -- --populate 200 --seed 7
//! cargo run --bin ontoaccess-cli -- --serve 127.0.0.1:7878 --workers 8
//! cargo run --bin ontoaccess-cli -- --data-dir ./data --serve 127.0.0.1:7878
//! cargo run --bin ontoaccess-cli -- --serve 127.0.0.1:7879 --replicate-from 127.0.0.1:7878
//! ```
//!
//! `--log-level LEVEL` (error/warn/info/debug/off, or `target=level`
//! pairs; env `ONTOACCESS_LOG` works too) turns on logfmt structured
//! logs on stderr. `--slow-query-ms N` sets the slow-request threshold
//! (default 250, `0` = every request): slow traces are retained, and
//! the slow queries among them are listed under `/status`.
//!
//! `--data-dir DIR` makes committed updates durable: the directory
//! holds a write-ahead log plus snapshots, and booting on an existing
//! directory recovers the committed state (newest snapshot + WAL
//! replay, torn tail truncated). It works with and without `--serve`;
//! the `--empty`/`--populate` flags only decide the *base* state of a
//! fresh directory and are ignored once one exists.
//!
//! In server mode, query with any HTTP client:
//!
//! ```text
//! curl 'http://127.0.0.1:7878/sparql?query=SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20a%20%3Chttp://xmlns.com/foaf/0.1/Person%3E%20%7D'
//! curl -X POST http://127.0.0.1:7878/update \
//!      -H 'Content-Type: application/sparql-update' --data-binary @update.ru
//! ```
//!
//! Console commands: `.help`, `.dump` (RDF view as Turtle), `.tables`
//! (row counts), `.sql <select>` (a raw SQL SELECT against the current
//! version), `.quit`.

use std::io::{BufRead, Write};

use sparql_update_rdb::dur;
use sparql_update_rdb::fixtures;
use sparql_update_rdb::obs;
use sparql_update_rdb::ontoaccess::Mediator;
use sparql_update_rdb::ontoaccess_server::{serve, ServerConfig};
use sparql_update_rdb::rdf;
use sparql_update_rdb::repl;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options::parse(&args);
    if let Some(leader) = &options.replicate_from {
        run_replica(leader, &options);
        return;
    }
    let mediator = build_mediator(&options);
    if let Some(addr) = &options.serve {
        run_server(mediator, addr, &options);
        return;
    }
    println!("OntoAccess console — publication database ready.");
    println!("Enter SPARQL/Update or SPARQL queries (finish with an empty line).");
    println!("Commands: .help .dump .tables .sql <stmt> .quit");

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("> ");
        std::io::stdout().flush().ok();
        let Some(request) = read_request(&mut lines) else {
            return;
        };
        let trimmed = request.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(command) = trimmed.strip_prefix('.') {
            if !run_command(&mediator, command) {
                return;
            }
            continue;
        }
        dispatch(&mediator, trimmed);
    }
}

// Parsed command line.
struct Options {
    empty: bool,
    populate: Option<usize>,
    seed: u64,
    serve: Option<String>,
    workers: usize,
    data_dir: Option<String>,
    replicate_from: Option<String>,
    slow_query_ms: u64,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut options = Options {
            empty: false,
            populate: None,
            seed: 42,
            serve: None,
            workers: 4,
            data_dir: None,
            replicate_from: None,
            slow_query_ms: ServerConfig::default().slow_query_ms,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--empty" => options.empty = true,
                "--populate" => {
                    options.populate = Some(number(&mut iter, arg, "a publication count (usize)"))
                }
                "--seed" => options.seed = number(&mut iter, arg, "a seed (u64)"),
                "--serve" => {
                    let addr = value(&mut iter, arg, "an address, e.g. --serve 127.0.0.1:7878");
                    options.serve = Some(addr.to_owned());
                }
                "--workers" => options.workers = number(&mut iter, arg, "a worker count (usize)"),
                "--data-dir" => {
                    let dir = value(&mut iter, arg, "a directory, e.g. --data-dir ./data");
                    options.data_dir = Some(dir.to_owned());
                }
                "--replicate-from" => {
                    let leader = value(
                        &mut iter,
                        arg,
                        "the leader address, e.g. --replicate-from 127.0.0.1:7878",
                    );
                    options.replicate_from = Some(leader.to_owned());
                }
                "--log-level" => {
                    let level = value(&mut iter, arg, "a level: error, warn, info, debug or off");
                    if let Err(e) = obs::set_log_filter_str(level) {
                        eprintln!("--log-level: {e}");
                        std::process::exit(2);
                    }
                }
                "--slow-query-ms" => {
                    options.slow_query_ms =
                        number(&mut iter, arg, "a threshold in milliseconds (u64)")
                }
                other => {
                    eprintln!(
                        "unknown argument {other:?} (supported: --empty, --populate N, \
                         --seed S, --serve ADDR, --workers N, --data-dir DIR, \
                         --replicate-from ADDR, --log-level LEVEL, --slow-query-ms N)"
                    );
                    std::process::exit(2);
                }
            }
        }
        if options.replicate_from.is_some() {
            if options.serve.is_none() {
                eprintln!("--replicate-from requires --serve (a replica only serves HTTP reads)");
                std::process::exit(2);
            }
            if options.data_dir.is_some() {
                eprintln!(
                    "--replicate-from conflicts with --data-dir: a replica's state \
                     comes from the leader, not a local data directory"
                );
                std::process::exit(2);
            }
        }
        options
    }
}

// The value after `flag`; a missing one exits 2.
fn value<'a>(args: &mut std::slice::Iter<'a, String>, flag: &str, what: &str) -> &'a str {
    let Some(value) = args.next() else {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    };
    value
}

// The value after a numeric flag; a missing or malformed one exits 2.
fn number<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> T {
    let value = value(args, flag, what);
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs {what}, got {value:?}");
        std::process::exit(2)
    })
}

fn build_mediator(options: &Options) -> Mediator {
    let base_db = || {
        if let Some(n) = options.populate {
            fixtures::data::populated_database(n, options.seed)
        } else if options.empty {
            fixtures::database()
        } else {
            let mut db = fixtures::database();
            fixtures::seed_paper_rows(&mut db);
            db
        }
    };
    let Some(dir) = &options.data_dir else {
        return Mediator::new(base_db(), fixtures::mapping()).expect("use case mapping is valid");
    };
    // Durable boot: open-or-recover the data directory. The base
    // database only matters on a fresh directory (it becomes
    // snapshot 0), so it is built only there; afterwards the recovered
    // state wins.
    let opened = match dur::Durability::open_with(dir, &fixtures::schema(), base_db) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("cannot open data dir {dir}: {e}");
            std::process::exit(1);
        }
    };
    let report = &opened.report;
    let snapshot = report
        .snapshot_seq
        .map_or_else(|| "none".to_owned(), |seq| seq.to_string());
    println!(
        "data dir {dir}: snapshot {snapshot}, {} commit(s) replayed, \
         {} row op(s), {} torn byte(s) truncated",
        report.commits_replayed, report.rows_replayed, report.truncated_bytes
    );
    Mediator::with_durability(opened.db, fixtures::mapping(), opened.durability)
        .expect("use case mapping is valid")
}

// `--replicate-from`: bootstrap a read replica from the leader's
// newest snapshot, tail its WAL, and serve read-only SPARQL. Updates
// sent here answer 409 naming the leader.
fn run_replica(leader: &str, options: &Options) {
    let addr = options
        .serve
        .as_deref()
        .expect("checked during argument parsing");
    println!("bootstrapping replica of {leader} ...");
    std::io::stdout().flush().ok();
    let (mediator, replicator) = match repl::Replicator::start(
        leader,
        fixtures::database(),
        fixtures::mapping(),
        repl::ReplicatorConfig::default(),
    ) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("cannot replicate from {leader}: {e}");
            std::process::exit(1);
        }
    };
    let snap = replicator.status().snapshot();
    println!("replica bootstrapped at commit seq {}", snap.applied_seq);
    let config = ServerConfig {
        workers: options.workers.max(1),
        replication: Some(replicator.status()),
        slow_query_ms: options.slow_query_ms,
        ..ServerConfig::default()
    };
    let handle = match serve(mediator, addr, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on http://{}/", handle.addr());
    println!(
        "endpoints: /sparql /describe /dump /status /metrics (read-only replica) — Ctrl-C stops"
    );
    std::io::stdout().flush().ok();
    handle.join();
    replicator.stop();
}

// `--serve`: boot the SPARQL 1.1 Protocol server and run foreground.
fn run_server(mediator: Mediator, addr: &str, options: &Options) {
    let config = ServerConfig {
        workers: options.workers.max(1),
        slow_query_ms: options.slow_query_ms,
        ..ServerConfig::default()
    };
    let handle = match serve(mediator, addr, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The bound address line is machine-readable on purpose: scripts
    // (and the CI smoke step) bind port 0 and scrape the real port.
    println!("listening on http://{}/", handle.addr());
    println!("endpoints: /sparql /update /describe /dump /status /metrics — Ctrl-C stops");
    std::io::stdout().flush().ok();
    handle.join();
}

// Read lines until an empty line; single-line `.command`s return
// immediately.
fn read_request(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Option<String> {
    let mut buffer = String::new();
    loop {
        match lines.next() {
            None => {
                return if buffer.trim().is_empty() {
                    None
                } else {
                    Some(buffer)
                }
            }
            Some(Err(_)) => return None,
            Some(Ok(line)) => {
                if buffer.trim().is_empty() && line.trim().starts_with('.') {
                    return Some(line);
                }
                if line.trim().is_empty() {
                    return Some(buffer);
                }
                buffer.push_str(&line);
                buffer.push('\n');
            }
        }
    }
}

fn run_command(mediator: &Mediator, command: &str) -> bool {
    let (name, rest) = command
        .split_once(char::is_whitespace)
        .unwrap_or((command, ""));
    match name {
        "quit" | "exit" | "q" => return false,
        "help" => {
            println!(".dump         print the database's RDF view as Turtle");
            println!(".tables       print row counts per table");
            println!(".sql <stmt>   .sql runs a SELECT on the current version");
            println!(".quit         leave the console");
            println!("anything else is parsed as SPARQL/Update or SPARQL.");
        }
        "dump" => match mediator.read().materialize() {
            Ok(graph) => println!("{}", rdf::turtle::write(&graph, mediator.prefixes())),
            Err(e) => println!("error: {e}"),
        },
        "tables" => {
            let db = mediator.database();
            for table in db.schema().tables() {
                println!(
                    "{:<24} {:>6} rows",
                    table.name,
                    db.row_count(&table.name).unwrap_or(0)
                );
            }
        }
        // Raw SQL reads the current version. Every change goes through
        // SPARQL/Update, so it is logged, replicated and published under
        // its own commit.
        "sql" => match rel::sql::parse(rest) {
            Ok(rel::sql::Statement::Select(stmt)) => {
                match rel::sql::execute_select(&mediator.database(), &stmt) {
                    Ok(rs) => print_result_set(&rs),
                    Err(e) => println!("error: {e}"),
                }
            }
            Ok(_) => println!(
                "refused: .sql runs a SELECT only; change data with SPARQL/Update, \
                 which the write-ahead log and replicas see"
            ),
            Err(e) => println!("error: {e}"),
        },
        other => println!("unknown command .{other} — try .help"),
    }
    true
}

fn dispatch(mediator: &Mediator, request: &str) {
    if first_word_is_query(request) {
        match mediator.read().execute_query(request) {
            Ok(sparql::QueryOutcome::Boolean(b)) => println!("ASK → {b}"),
            Ok(sparql::QueryOutcome::Solutions(solutions)) => {
                println!(
                    "{} solution(s) over ?{}",
                    solutions.len(),
                    solutions.variables.join(" ?")
                );
                for binding in &solutions.bindings {
                    let row: Vec<String> = solutions
                        .variables
                        .iter()
                        .map(|v| {
                            binding
                                .get(v)
                                .map(|t| rdf::turtle::render_term(t, mediator.prefixes()))
                                .unwrap_or_else(|| "—".into())
                        })
                        .collect();
                    println!("    {}", row.join("  |  "));
                }
            }
            Err(e) => println!("error: {e}"),
        }
    } else {
        let (feedback, result) = mediator.execute_update_with_feedback(request);
        if let Ok(outcome) = &result {
            println!("-- SQL executed:");
            for stmt in &outcome.statements {
                println!("    {stmt}");
            }
        }
        println!("-- feedback:");
        println!("{}", feedback.to_turtle());
    }
}

// Queries may start with PREFIX lines; look for the first keyword.
fn first_word_is_query(request: &str) -> bool {
    for line in request.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty()
            || trimmed.to_ascii_uppercase().starts_with("PREFIX")
            || trimmed.to_ascii_uppercase().starts_with("BASE")
        {
            continue;
        }
        let upper = trimmed.to_ascii_uppercase();
        return upper.starts_with("SELECT") || upper.starts_with("ASK");
    }
    false
}

fn print_result_set(rs: &rel::sql::ResultSet) {
    println!("{}", rs.columns.join(" | "));
    for row in &rs.rows {
        let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", rendered.join(" | "));
    }
    println!("({} row(s))", rs.rows.len());
}
