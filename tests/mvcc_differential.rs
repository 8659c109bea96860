//! MVCC snapshot-isolation differential suite.
//!
//! The contract under test: every read observes exactly the database
//! state of *some* committed version — serialized execution of the
//! same write sequence against a reference `Database` must reproduce,
//! byte for byte, the heap each reader pins — and version sequence
//! numbers never run backwards within a session. Plus the lifecycle
//! edges: rollbacks publish nothing, a durable reopen resumes the
//! version numbering from the WAL, a pinned guard keeps its version
//! through later commits, and dropping the last pin of a replaced
//! version frees it promptly (the drop-glue / memory audit).

use sparql_update_rdb::fixtures;
use sparql_update_rdb::fixtures::diff::assert_heaps_identical;
use sparql_update_rdb::ontoaccess::{self, Mediator, QueryAnswer, QueryStop};
use sparql_update_rdb::rdf::namespace::PrefixMap;
use sparql_update_rdb::sparql::{self, Query, Solutions};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn parse_op(text: &str) -> sparql::UpdateOp {
    sparql::parse_update_with_prefixes(text, PrefixMap::common()).unwrap()
}

// Row-order-insensitive comparison: the live path runs a cached plan
// compiled against an earlier snapshot, so join order — and therefore row order — may differ
// from a fresh reference compilation while the solution *set* must not.
fn sorted_rows(solutions: &Solutions) -> Vec<String> {
    let mut rows: Vec<String> = solutions
        .bindings
        .iter()
        .map(|binding| format!("{binding:?}"))
        .collect();
    rows.sort();
    rows
}

/// The core differential: a randomized write storm (including no-op
/// updates, rejected updates, and explicit mid-storm rollbacks) against
/// concurrent snapshot readers. A serialized reference execution
/// records the committed state at every published sequence number;
/// each reader guard must match the reference at its pinned sequence
/// exactly — both the raw heap and query results — and sequences must
/// be monotone per session.
#[test]
fn snapshot_reads_match_serialized_reference_under_storm() {
    const WRITES: usize = 120;
    const READERS: usize = 2;
    let n = 30;
    let initial = fixtures::data::populated_database(n, 7);
    let mediator = Mediator::new(initial.clone(), fixtures::mapping()).unwrap();
    let mapping = fixtures::mapping();

    let base_seq = mediator.concurrency_stats().current_version;
    // seq → the committed state published under that sequence number.
    // The writer inserts the expected next entry *before* committing,
    // so a reader can never pin a version whose reference is missing.
    let references = Mutex::new(BTreeMap::from([(base_seq, initial.clone())]));
    let done = AtomicBool::new(false);

    let query = fixtures::workload::with_prefixes("SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }");
    let parsed_query = match sparql::parse_query_with_prefixes(&query, PrefixMap::common()) {
        Ok(Query::Select(select)) => select,
        other => panic!("fixture query must be a SELECT: {other:?}"),
    };

    std::thread::scope(|scope| {
        let mediator = &mediator;
        let references = &references;
        let done = &done;
        let query = &query;
        let parsed_query = &parsed_query;
        let mapping = &mapping;

        let mut handles = Vec::new();
        for reader_id in 0..READERS {
            let session = mediator.read();
            handles.push(scope.spawn(move || {
                let mut last_seq = 0u64;
                let mut iterations = 0usize;
                while !done.load(Ordering::Relaxed) || iterations == 0 {
                    let guard = session.database();
                    let seq = guard.version_seq();
                    assert!(
                        seq >= last_seq,
                        "reader {reader_id}: version went backwards ({last_seq} -> {seq})"
                    );
                    let reference = references
                        .lock()
                        .unwrap()
                        .get(&seq)
                        .unwrap_or_else(|| panic!("no reference recorded for seq {seq}"))
                        .clone();
                    // The pinned heap is exactly the committed state…
                    assert_heaps_identical(
                        &guard,
                        &reference,
                        &format!("reader {reader_id} pinned seq {seq}"),
                    );
                    // …and a query equals serialized execution over the
                    // version its run pinned (the same or a later one).
                    let run = session.run_query(query, QueryStop::Execute).unwrap();
                    let run_seq = run.version_seq();
                    assert!(run_seq >= seq, "reader {reader_id}: {seq} -> {run_seq}");
                    last_seq = run_seq;
                    let reference = references.lock().unwrap()[&run_seq].clone();
                    let Some(QueryAnswer::Solutions(rows)) = &run.outcome else {
                        panic!("SELECT executed to solutions");
                    };
                    let live = rows.to_solutions().unwrap();
                    let expected =
                        ontoaccess::execute_select(&reference, mapping, parsed_query).unwrap();
                    assert_eq!(live.variables, expected.variables);
                    assert_eq!(
                        sorted_rows(&live),
                        sorted_rows(&expected),
                        "reader {reader_id}: query over seq {run_seq} diverged from reference"
                    );
                    iterations += 1;
                }
                iterations
            }));
        }

        // The storm, on this thread: randomized committed updates with
        // every 7th turned into an applied-then-rolled-back transaction.
        let mut reference = initial;
        for (k, text) in fixtures::workload::mixed_updates(WRITES, n, 99)
            .iter()
            .enumerate()
        {
            let op = parse_op(text);
            if k % 7 == 3 {
                let before = mediator.concurrency_stats().current_version;
                let mut txn = mediator.write();
                let _ = txn.update_op(&op);
                txn.rollback().unwrap();
                assert_eq!(
                    mediator.concurrency_stats().current_version,
                    before,
                    "rollback published a version: {text}"
                );
                continue;
            }
            // Serialized reference execution on a scratch copy; record
            // it under the sequence the commit would publish. (If the
            // update is rejected or a no-op nothing is published and
            // the provisional entry is simply overwritten by the next
            // committed write — the sequence never becomes pinnable
            // before then.)
            let expected_seq = mediator.concurrency_stats().current_version + 1;
            let mut scratch = reference.clone();
            let reference_result = ontoaccess::execute_update_op(&mut scratch, mapping, &op);
            if reference_result.is_ok() {
                references
                    .lock()
                    .unwrap()
                    .insert(expected_seq, scratch.clone());
            }
            let live_result = mediator.execute_update_op(&op);
            assert_eq!(
                live_result.is_ok(),
                reference_result.is_ok(),
                "live and reference outcomes diverged: {text}"
            );
            if reference_result.is_ok() {
                reference = scratch;
            }
        }
        done.store(true, Ordering::Relaxed);
        for handle in handles {
            assert!(handle.join().unwrap() > 0, "reader never ran");
        }

        // The final published state is the serialized reference state.
        assert_heaps_identical(&mediator.database(), &reference, "final state");
    });
}

/// A pinned guard keeps its version: later commits replace the current
/// version but cannot move the guard's, and the replaced version stays
/// alive exactly as long as the guard does.
#[test]
fn a_pinned_guard_keeps_its_version_across_later_commits() {
    let mediator = fixtures::mediator();
    for i in 0..2i64 {
        mediator
            .execute_update(&fixtures::workload::insert_author(2_000_000 + i, 1, None))
            .unwrap();
    }
    let pinned = mediator.database();
    let reference = pinned.clone();
    assert_eq!(pinned.version_seq(), 2);

    // Later commits advance the mediator but not the pinned guard.
    for i in 2..8i64 {
        mediator
            .execute_update(&fixtures::workload::insert_author(2_000_000 + i, 1, None))
            .unwrap();
    }
    assert_eq!(mediator.concurrency_stats().current_version, 8);
    assert_eq!(pinned.version_seq(), 2);
    assert_heaps_identical(&pinned, &reference, "pinned seq 2 after commits");
    assert_eq!(mediator.database().row_count("author").unwrap(), 8);
    assert_eq!(mediator.concurrency_stats().versions_retained, 2);
}

/// Durable reopen: version numbering is the WAL commit sequence, so a
/// recovered mediator resumes exactly where the previous process
/// stopped — same current version, same state, and the next commit
/// takes the next sequence number.
#[test]
fn durable_reopen_resumes_version_numbering() {
    let dir = fixtures::scratch_dir("mvcc-reopen");
    let expected = {
        let (mediator, _) = fixtures::durable_mediator_with_sample_data(&dir);
        assert_eq!(mediator.concurrency_stats().current_version, 0);
        for i in 0..3i64 {
            mediator
                .execute_update(&fixtures::workload::insert_author(2_100_000 + i, 1, None))
                .unwrap();
        }
        assert_eq!(mediator.concurrency_stats().current_version, 3);
        mediator.database().clone()
    };

    let (mediator, _) = fixtures::durable_mediator_with_sample_data(&dir);
    assert_eq!(
        mediator.concurrency_stats().current_version,
        3,
        "reopen must resume the WAL commit sequence"
    );
    assert_heaps_identical(&mediator.database(), &expected, "recovered state");
    assert_eq!(mediator.database().version_seq(), 3);
    // The next commit continues the numbering.
    mediator
        .execute_update(&fixtures::workload::insert_author(2_100_900, 1, None))
        .unwrap();
    assert_eq!(mediator.concurrency_stats().current_version, 4);
    drop(mediator);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drop glue / memory audit: a pinned guard is the only thing keeping
/// a replaced version alive — dropping it frees the version at once
/// (the versions-alive count falls back to 1, and each version holds
/// one clone of the count's token) — and a storm of short-lived
/// sessions leaves the live-session count at its baseline.
#[test]
fn read_session_drop_releases_versions_promptly() {
    let mediator = fixtures::mediator();
    assert_eq!(mediator.concurrency_stats().read_sessions_live, 0);
    assert_eq!(mediator.concurrency_stats().versions_retained, 1);

    mediator
        .execute_update(&fixtures::workload::insert_author(2_200_000, 1, None))
        .unwrap();
    let session = mediator.read();
    let guard = session.database();
    assert_eq!(guard.version_seq(), 1);
    assert_eq!(mediator.concurrency_stats().read_sessions_live, 1);

    // Replace seq 1: the chain no longer holds it, but the guard must.
    for i in 1..41i64 {
        mediator
            .execute_update(&fixtures::workload::insert_author(2_200_000 + i, 1, None))
            .unwrap();
    }
    assert_eq!(
        mediator.concurrency_stats().versions_retained,
        2,
        "the current version plus the one the guard pins"
    );
    assert_eq!(guard.version_seq(), 1);
    drop(guard);
    assert_eq!(
        mediator.concurrency_stats().versions_retained,
        1,
        "dropping the last pin must free the replaced version"
    );
    drop(session);
    assert_eq!(mediator.concurrency_stats().read_sessions_live, 0);

    // A storm of short-lived sessions (create, query, drop) must return
    // the live count to baseline — nothing accumulates.
    let query = fixtures::workload::with_prefixes("SELECT ?x WHERE { ?x foaf:mbox ?m . }");
    for _ in 0..1000 {
        let session = mediator.read();
        let _ = session.select(&query).unwrap();
    }
    assert_eq!(mediator.concurrency_stats().read_sessions_live, 0);
}
