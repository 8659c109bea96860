//! Replication differential suite: a real leader server under a
//! randomized write storm (rejected updates, explicit rollbacks, and
//! mid-storm checkpoints that truncate the WAL), with followers
//! attaching at arbitrary points. The contract: every follower that
//! reports itself caught up holds a **byte-identical** heap to the
//! leader — replication is continuous remote recovery, so the same
//! differential that validates crash recovery validates the wire.

use sparql_update_rdb::fixtures;
use sparql_update_rdb::fixtures::diff::{assert_heaps_identical, assert_index_set_is_schemas};
use sparql_update_rdb::ontoaccess::Mediator;
use sparql_update_rdb::ontoaccess_server::{serve, ServerConfig, ServerHandle};
use sparql_update_rdb::rdf::namespace::PrefixMap;
use sparql_update_rdb::repl::{ReplState, ReplicationStatus, Replicator, ReplicatorConfig};
use sparql_update_rdb::sparql;
use std::time::{Duration, Instant};

fn durable_leader(dir: &std::path::Path, n: usize, seed: u64) -> (Mediator, ServerHandle) {
    let initial = fixtures::data::populated_database(n, seed);
    let (mediator, _) = Mediator::open_durable(dir, initial, fixtures::mapping()).unwrap();
    let server = serve(
        mediator.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral leader port");
    (mediator, server)
}

fn attach_follower(leader: &ServerHandle, throttle: Duration) -> (Mediator, Replicator) {
    Replicator::start(
        leader.addr().to_string(),
        fixtures::database(),
        fixtures::mapping(),
        ReplicatorConfig {
            poll_timeout: Duration::from_millis(300),
            backoff_initial: Duration::from_millis(20),
            throttle_apply: throttle,
            ..ReplicatorConfig::default()
        },
    )
    .expect("bootstrap against live leader")
}

fn wait_until_applied(status: &ReplicationStatus, target_seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = status.snapshot();
        assert_ne!(
            snap.state,
            ReplState::Failed,
            "follower failed: {:?}",
            snap.last_error
        );
        if snap.applied_seq >= target_seq {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower stuck at {snap:?}, want seq {target_seq}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

// The storm: randomized committed updates, every 7th-with-offset-3
// turned into an applied-then-rolled-back transaction (published to
// nobody), rejections surfaced by `mixed_updates` left in, and a
// checkpoint — WAL truncation + epoch bump — every `checkpoint_every`
// writes. Returns the number of committed transactions.
fn run_storm(mediator: &Mediator, writes: usize, n: usize, seed: u64, checkpoint_every: usize) {
    for (k, text) in fixtures::workload::mixed_updates(writes, n, seed)
        .iter()
        .enumerate()
    {
        if k % 7 == 3 {
            let op = sparql::parse_update_with_prefixes(text, PrefixMap::common()).unwrap();
            let mut txn = mediator.write();
            let _ = txn.update_op(&op);
            txn.rollback().unwrap();
            continue;
        }
        // Rejected updates answer Err and publish nothing; that is part
        // of the storm on purpose — the WAL must carry only commits.
        let _ = mediator.execute_update(text);
        if checkpoint_every != 0 && k % checkpoint_every == checkpoint_every - 1 {
            mediator.checkpoint().unwrap();
        }
    }
}

/// Followers attaching before and during the storm both converge to a
/// byte-identical heap, across mid-storm WAL truncations.
#[test]
fn followers_converge_byte_identically_under_write_storm() {
    let dir = fixtures::scratch_dir("repl-diff-storm");
    let n = 24;
    let (leader, server) = durable_leader(&dir, n, 7);

    // Follower A attaches to the quiet leader (bootstraps snapshot 0).
    let (mediator_a, replicator_a) = attach_follower(&server, Duration::ZERO);

    // First half of the storm, with a checkpoint every 25 writes.
    run_storm(&leader, 60, n, 99, 25);

    // Follower B attaches at an arbitrary mid-storm point: its
    // bootstrap snapshot is whatever the last checkpoint produced, and
    // the rest arrives over the wire.
    let (mediator_b, replicator_b) = attach_follower(&server, Duration::ZERO);

    // Second half, different seed so the mix differs.
    run_storm(&leader, 60, n, 1234, 25);

    let target = leader.concurrency_stats().current_version;
    assert!(target > 0, "storm must have committed something");
    wait_until_applied(&replicator_a.status(), target);
    wait_until_applied(&replicator_b.status(), target);

    assert_heaps_identical(&mediator_a.database(), &leader.database(), "follower A");
    assert_heaps_identical(&mediator_b.database(), &leader.database(), "follower B");
    // The index set is the schema's on every node, so one state plans
    // (and orders its answers) alike on each.
    for node in [&leader, &mediator_a, &mediator_b] {
        assert_index_set_is_schemas(&node.database());
    }
    // Leader-aligned version numbering: both followers publish the
    // leader's commit sequence numbers, not a private counter.
    assert_eq!(mediator_a.concurrency_stats().current_version, target);
    assert_eq!(mediator_b.concurrency_stats().current_version, target);

    server.shutdown();
    replicator_a.stop();
    replicator_b.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A throttled follower falls behind the leader's checkpoints (its WAL
/// coordinates get truncated away) and must recover through the
/// reposition path — adopting the new epoch or re-bootstrapping from
/// the newest snapshot — without diverging.
#[test]
fn lagging_follower_survives_wal_truncation() {
    let dir = fixtures::scratch_dir("repl-diff-truncate");
    let n = 16;
    let (leader, server) = durable_leader(&dir, n, 3);

    // Throttle each apply so the follower is guaranteed to lag while
    // the leader checkpoints aggressively (every 10 writes).
    let (mediator, replicator) = attach_follower(&server, Duration::from_millis(5));
    run_storm(&leader, 80, n, 555, 10);

    let target = leader.concurrency_stats().current_version;
    wait_until_applied(&replicator.status(), target);
    assert_heaps_identical(
        &mediator.database(),
        &leader.database(),
        "throttled follower after truncations",
    );

    server.shutdown();
    replicator.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A follower killed mid-apply loses nothing the leader still has: a
/// fresh replicator bootstraps from the leader's newest snapshot and
/// reconverges to the byte-identical heap.
#[test]
fn follower_killed_mid_apply_reconverges_on_restart() {
    let dir = fixtures::scratch_dir("repl-diff-restart");
    let n = 16;
    let (leader, server) = durable_leader(&dir, n, 11);

    // Slow follower so the kill lands mid-apply with real lag.
    let (mediator_old, replicator_old) = attach_follower(&server, Duration::from_millis(5));
    run_storm(&leader, 50, n, 777, 0);
    let killed_at = replicator_old.status().snapshot().applied_seq;
    replicator_old.stop(); // "kill": the tail thread is gone for good
    let target = leader.concurrency_stats().current_version;
    assert!(
        killed_at < target,
        "kill must land mid-apply (applied {killed_at}, leader at {target})"
    );
    drop(mediator_old);

    // Restart: a brand-new replicator (fresh bootstrap, no state
    // carried over) reconverges.
    let (mediator_new, replicator_new) = attach_follower(&server, Duration::ZERO);
    wait_until_applied(&replicator_new.status(), target);
    assert_heaps_identical(
        &mediator_new.database(),
        &leader.database(),
        "restarted follower",
    );

    server.shutdown();
    replicator_new.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
