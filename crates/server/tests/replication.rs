//! Protocol tests for the replication endpoints and `/status` objects,
//! on both sides of the topology: a durable leader shipping its WAL
//! over `GET /wal` + `GET /snapshot/latest`, and a follower serving
//! read-only SPARQL while tailing it.

use fixtures::http_probe::{one_shot, ProbeResponse};
use ontoaccess_server::{serve, ServerConfig, ServerHandle};
use std::time::{Duration, Instant};

fn send(server: &ServerHandle, raw: &str) -> ProbeResponse {
    one_shot(server.addr(), raw).expect("request against the test server")
}

fn get(server: &ServerHandle, target: &str) -> ProbeResponse {
    send(
        server,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(server: &ServerHandle, target: &str, content_type: &str, body: &str) -> ProbeResponse {
    send(
        server,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn durable_leader(dir: &std::path::Path) -> ServerHandle {
    let (mediator, _) = fixtures::durable_mediator_with_sample_data(dir);
    serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn insert_author(n: u32) -> String {
    format!(
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
         PREFIX ex: <http://example.org/db/>\n\
         INSERT DATA {{ ex:author{n} foaf:family_name \"Replicated{n}\" . }}"
    )
}

// ----------------------------------------------------------------------
// Leader side
// ----------------------------------------------------------------------

#[test]
fn wal_endpoint_ships_committed_bytes_with_coordinates() {
    let dir = fixtures::scratch_dir("repl-wal-endpoint");
    let server = durable_leader(&dir);
    assert_eq!(
        post(
            &server,
            "/update",
            "application/sparql-update",
            &insert_author(40)
        )
        .status,
        200
    );
    // Fresh directory: snapshot 0 exists, so the epoch is 0 and the
    // stream starts right after the magic.
    let response = get(&server, "/wal?from=8&epoch=0&timeout_ms=0");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        response.header("content-type"),
        Some("application/octet-stream")
    );
    assert!(!response.body.is_empty(), "one commit must be on the wire");
    assert_eq!(response.header("x-wal-epoch"), Some("0"));
    assert_eq!(response.header("x-leader-seq"), Some("1"));
    assert_eq!(response.header("x-snapshot-seq"), Some("0"));
    let durable: u64 = response.header("x-wal-size").unwrap().parse().unwrap();
    assert_eq!(durable, 8 + response.body.len() as u64);

    // Caught up: an empty 200 with the same coordinates (zero timeout
    // returns immediately instead of long-polling).
    let caught_up = get(
        &server,
        &format!("/wal?from={durable}&epoch=0&timeout_ms=0"),
    );
    assert_eq!(caught_up.status, 200);
    assert!(caught_up.body.is_empty());
    assert_eq!(
        caught_up.header("x-wal-size"),
        Some(durable.to_string().as_str())
    );

    // A caught-up request with a timeout long-polls until new bytes
    // commit: write from a second connection while the poll parks.
    let writer = std::thread::spawn({
        let addr = server.addr();
        move || {
            std::thread::sleep(Duration::from_millis(150));
            let body = insert_author(41);
            one_shot(
                addr,
                &format!(
                    "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                ),
            )
        }
    });
    let woken = get(
        &server,
        &format!("/wal?from={durable}&epoch=0&timeout_ms=5000"),
    );
    writer.join().unwrap().expect("concurrent write");
    assert_eq!(woken.status, 200);
    assert!(
        !woken.body.is_empty(),
        "long poll must wake on the new commit"
    );
    assert_eq!(woken.header("x-leader-seq"), Some("2"));

    // Wrong epoch and out-of-range offsets answer 409 with the real
    // coordinates.
    let stale = get(&server, "/wal?from=8&epoch=999&timeout_ms=0");
    assert_eq!(stale.status, 409, "{}", stale.text());
    assert!(stale.text().contains("\"reposition\":true"));
    assert_eq!(stale.header("x-wal-epoch"), Some("0"));
    let beyond = get(&server, "/wal?from=999999&epoch=0&timeout_ms=0");
    assert_eq!(beyond.status, 409);

    // Missing/invalid parameters are a client error, wrong method 405.
    assert_eq!(get(&server, "/wal").status, 400);
    assert_eq!(get(&server, "/wal?from=x&epoch=0").status, 400);
    assert_eq!(post(&server, "/wal", "text/plain", "").status, 405);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_latest_serves_decodable_bootstrap_bytes() {
    let dir = fixtures::scratch_dir("repl-snapshot-endpoint");
    let server = durable_leader(&dir);
    assert_eq!(
        post(
            &server,
            "/update",
            "application/sparql-update",
            &insert_author(42)
        )
        .status,
        200
    );
    // Checkpoint so the newest snapshot includes the write.
    assert_eq!(post(&server, "/snapshot", "text/plain", "").status, 200);
    let response = get(&server, "/snapshot/latest");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-snapshot-seq"), Some("1"));
    assert_eq!(response.header("x-wal-epoch"), Some("1"));
    let schema = fixtures::database().schema().clone();
    let (seq, db, _dict) =
        dur::snapshot::decode_snapshot(&response.body, &schema).expect("snapshot decodes");
    assert_eq!(seq, 1);
    // The sample data seeds authors 6 and 7; author 42 is our write.
    assert_eq!(db.row_count("author").unwrap(), 3);
    assert_eq!(
        post(&server, "/snapshot/latest", "text/plain", "").status,
        405
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replication_endpoints_need_a_durable_leader() {
    let server = serve(
        fixtures::mediator_with_sample_data(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let wal = get(&server, "/wal?from=8&epoch=0&timeout_ms=0");
    assert_eq!(wal.status, 501, "{}", wal.text());
    assert_eq!(get(&server, "/snapshot/latest").status, 501);
    // And the status object calls the server standalone.
    assert!(get(&server, "/status")
        .text()
        .contains("\"role\":\"standalone\""));
    server.shutdown();
}

#[test]
fn leader_status_reports_its_commit_frontier() {
    let dir = fixtures::scratch_dir("repl-leader-status");
    let server = durable_leader(&dir);
    assert_eq!(
        post(
            &server,
            "/update",
            "application/sparql-update",
            &insert_author(43)
        )
        .status,
        200
    );
    let status = get(&server, "/status").text();
    assert!(status.contains("\"role\":\"leader\""), "{status}");
    assert!(status.contains("\"applied_seq\":1"), "{status}");
    assert!(status.contains("\"lag_units\":0"), "{status}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Follower side
// ----------------------------------------------------------------------

fn wait_for_lag_zero(status: &repl::ReplicationStatus, leader_seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = status.snapshot();
        if snap.applied_seq >= leader_seq {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at {snap:?} waiting for seq {leader_seq}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn follower_serves_reads_refuses_writes_and_reports_status() {
    let dir = fixtures::scratch_dir("repl-follower");
    let leader = durable_leader(&dir);
    assert_eq!(
        post(
            &leader,
            "/update",
            "application/sparql-update",
            &insert_author(50)
        )
        .status,
        200
    );

    let (mediator, replicator) = repl::Replicator::start(
        leader.addr().to_string(),
        fixtures::database(),
        fixtures::mapping(),
        repl::ReplicatorConfig {
            poll_timeout: Duration::from_millis(500),
            ..repl::ReplicatorConfig::default()
        },
    )
    .expect("bootstrap against live leader");
    let status = replicator.status();
    let follower = serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            replication: Some(status.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind follower port");
    wait_for_lag_zero(&status, 1);

    // The replicated row answers on the follower's query endpoint.
    let query = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
                 SELECT ?n WHERE { ?x foaf:family_name ?n . }";
    let solutions = get(
        &follower,
        &format!("/sparql?query={}", fixtures::http_probe::urlencode(query)),
    );
    assert_eq!(solutions.status, 200);
    assert!(
        solutions.text().contains("Replicated50"),
        "{}",
        solutions.text()
    );

    // Writes answer 409 and name the leader.
    let rejected = post(
        &follower,
        "/update",
        "application/sparql-update",
        &insert_author(51),
    );
    assert_eq!(rejected.status, 409, "{}", rejected.text());
    assert!(
        rejected.text().contains("read replica"),
        "{}",
        rejected.text()
    );
    assert!(
        rejected.text().contains(&leader.addr().to_string()),
        "{}",
        rejected.text()
    );

    // Admin checkpoint and WAL shipping are a leader's business: the
    // follower has no WAL of its own (501, cascading replication is
    // refused rather than silently wrong).
    assert_eq!(post(&follower, "/snapshot", "text/plain", "").status, 501);
    assert_eq!(
        get(&follower, "/wal?from=8&epoch=0&timeout_ms=0").status,
        501
    );

    // The follower's status object reports the replica role.
    let follower_status = get(&follower, "/status").text();
    assert!(
        follower_status.contains("\"role\":\"replica\""),
        "{follower_status}"
    );
    assert!(
        follower_status.contains(&format!("\"leader\":\"{}\"", leader.addr())),
        "{follower_status}"
    );
    assert!(
        follower_status.contains("\"state\":\"streaming\""),
        "{follower_status}"
    );
    assert!(
        follower_status.contains("\"applied_seq\":1"),
        "{follower_status}"
    );
    assert!(
        follower_status.contains("\"lag_units\":0"),
        "{follower_status}"
    );

    // New leader writes keep flowing.
    assert_eq!(
        post(
            &leader,
            "/update",
            "application/sparql-update",
            &insert_author(52)
        )
        .status,
        200
    );
    wait_for_lag_zero(&status, 2);
    let solutions = get(
        &follower,
        &format!("/sparql?query={}", fixtures::http_probe::urlencode(query)),
    );
    assert!(
        solutions.text().contains("Replicated52"),
        "{}",
        solutions.text()
    );

    // Kill the leader: the follower keeps serving its last consistent
    // version and reports the reconnect attempts.
    leader.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.snapshot().reconnects == 0 {
        assert!(Instant::now() < deadline, "no reconnect attempt recorded");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stale = get(
        &follower,
        &format!("/sparql?query={}", fixtures::http_probe::urlencode(query)),
    );
    assert_eq!(stale.status, 200);
    assert!(stale.text().contains("Replicated52"), "{}", stale.text());
    let follower_status = get(&follower, "/status").text();
    assert!(
        follower_status.contains("\"state\":\"reconnecting\""),
        "{follower_status}"
    );

    follower.shutdown();
    replicator.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Cross-node tracing
// ----------------------------------------------------------------------

// The tracing acceptance path: a slow leader write produces one trace
// whose span tree crosses server → core → dur, its id rides the WAL
// commit unit to the follower, and the follower's apply trace under
// the *same* id names the matching leader seq.
//
// In production the two stores live in two processes; here both ends
// share the process-global store, where a same-id insert replaces. So
// the leader's span tree is verified *before* the replicator starts,
// and the apply trace (which then takes the id over) after.
#[test]
fn slow_leader_write_traces_across_layers_and_links_the_follower_apply() {
    let dir = fixtures::scratch_dir("repl-trace-xnode");
    let (mediator, _) = fixtures::durable_mediator_with_sample_data(&dir);
    let leader = serve(
        mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            // Threshold 0: the write is tail-classified slow, pinning
            // its trace to the priority ring.
            slow_query_ms: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");

    // One request id for the whole topology.
    let update = insert_author(60);
    let response = send(
        &leader,
        &format!(
            "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n\
             X-Request-Id: xnode-write-60\r\nContent-Length: {}\r\nConnection: close\r\n\r\n\
             {update}",
            update.len()
        ),
    );
    assert_eq!(response.status, 200, "{}", response.text());

    // Leader: the retained trace's span tree crosses every layer — the
    // server's request root, core's update pipeline and commit, dur's
    // WAL append and group-fsync wait.
    let leader_trace = get(&leader, "/trace/xnode-write-60");
    assert_eq!(leader_trace.status, 200, "{}", leader_trace.text());
    let text = leader_trace.text();
    assert!(text.contains("\"trace_id\":\"xnode-write-60\""), "{text}");
    assert!(text.contains("\"root\":\"request\""), "{text}");
    assert!(text.contains("\"slow\":true"), "{text}");
    for span in [
        "\"name\":\"update.parse\"",
        "\"name\":\"update.translate\"",
        "\"name\":\"txn.lock_wait\"",
        "\"name\":\"update.validate\"",
        "\"name\":\"txn.commit\"",
        "\"name\":\"wal.append\"",
        "\"name\":\"wal.fsync_wait\"",
    ] {
        assert!(text.contains(span), "{span} in {text}");
    }
    // The insert translated before the lock against the initial
    // version, and its read set still held under it.
    assert!(text.contains("\"pinned_seq\":0"), "{text}");
    assert!(text.contains("\"stale\":false"), "{text}");
    assert!(
        text.contains("\"seq\":1"),
        "the commit seq rides the WAL spans: {text}"
    );

    // Bootstrap the follower: it tails the WAL, meets the commit unit
    // stamped with the write's trace id, and applies it under an apply
    // trace keyed by that id.
    let (follower_mediator, replicator) = repl::Replicator::start(
        leader.addr().to_string(),
        fixtures::database(),
        fixtures::mapping(),
        repl::ReplicatorConfig {
            poll_timeout: Duration::from_millis(500),
            ..repl::ReplicatorConfig::default()
        },
    )
    .expect("bootstrap against live leader");
    let status = replicator.status();
    let follower = serve(
        follower_mediator,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            replication: Some(status.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind follower port");
    wait_for_lag_zero(&status, 1);

    // Follower: the apply trace under the same id links back to the
    // leader write, and its leader_seq matches the commit.
    let follower_trace = get(&follower, "/trace/xnode-write-60");
    assert_eq!(follower_trace.status, 200, "{}", follower_trace.text());
    let text = follower_trace.text();
    assert!(text.contains("\"trace_id\":\"xnode-write-60\""), "{text}");
    assert!(text.contains("\"root\":\"repl.apply\""), "{text}");
    assert!(text.contains("\"leader_seq\":1"), "{text}");
    assert!(
        text.contains(&format!("\"leader\":\"{}\"", leader.addr())),
        "{text}"
    );

    follower.shutdown();
    leader.shutdown();
    replicator.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
