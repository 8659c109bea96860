//! Concurrency contract of the mediator API.
//!
//! 1. Smoke: N reader threads issue cached and uncached queries while a
//!    writer commits MODIFYs (and abandons some transactions) — readers
//!    must never observe a torn or partial write, only complete
//!    committed states.
//! 2. Property: the write path, whose transaction is its one rollback
//!    point, must leave the database byte-for-byte identical to the old
//!    clone-and-swap semantics (run the op on a scratch clone, swap on
//!    success, discard on failure) — including for operations that fail
//!    mid-way, reusing the `write_pipeline_differential` harness
//!    assertions.
//! 3. Storm: writers race INSERT/DELETE DATA scripts over shared
//!    subjects and FK targets, so operations translated before the
//!    write lock go stale under it — every logged version must be the
//!    serialized application of exactly one acknowledged request to
//!    its predecessor.
//! 4. No read waits on a writer: a new query shape compiles and answers
//!    while a write transaction holds the live lock.

use proptest::prelude::*;
use sparql_update_rdb::dur;
use sparql_update_rdb::fixtures;
use sparql_update_rdb::fixtures::diff::{
    assert_heaps_identical, assert_index_set_is_schemas, assert_indexes_consistent,
};
use sparql_update_rdb::ontoaccess::{
    self, CacheProbe, Mediator, OntoError, QueryAnswer, QueryStop, ReadSession,
};
use sparql_update_rdb::r3m::Mapping;
use sparql_update_rdb::rdf::namespace::PrefixMap;
use sparql_update_rdb::rel::{self, Database, RowId, Value};
use sparql_update_rdb::sparql;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

// The handles must cross threads: this is the compile-time acceptance
// check (a transport hands one ReadSession to each worker).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mediator>();
    assert_send_sync::<ReadSession>();
};

fn parse_op(text: &str) -> sparql::UpdateOp {
    sparql::parse_update_with_prefixes(text, PrefixMap::common()).unwrap()
}

// A mediator whose authors all carry the title `"State0"`.
fn mediator_with_titled_authors(authors: usize) -> Mediator {
    let mediator = fixtures::mediator();
    let mut txn = mediator.write();
    txn.update(&fixtures::workload::with_prefixes(
        "INSERT DATA { ex:team1 foaf:name \"T1\" . }",
    ))
    .unwrap();
    for i in 0..authors {
        txn.update(&fixtures::workload::with_prefixes(&format!(
            "INSERT DATA {{ ex:author{id} foaf:family_name \"Last{id}\" ; \
             foaf:title \"State0\" ; ont:team ex:team1 . }}",
            id = 100 + i
        )))
        .unwrap();
    }
    txn.commit().unwrap();
    mediator
}

/// The concurrent smoke test: 4 readers × (1 cached + 1 uncached query
/// per iteration) against a writer that alternates committed
/// all-author MODIFYs with rolled-back transactions. Every reader
/// result must be a complete, uniform state — `authors` rows, all with
/// the same title, and never the title only rolled-back transactions
/// wrote.
#[test]
fn readers_never_observe_torn_or_uncommitted_writes() {
    const AUTHORS: usize = 20;
    const WRITER_ROUNDS: usize = 25;
    const READERS: usize = 4;

    let mediator = mediator_with_titled_authors(AUTHORS);
    let done = AtomicBool::new(false);
    let titles_query =
        fixtures::workload::with_prefixes("SELECT ?t WHERE { ?x a foaf:Person ; foaf:title ?t . }");

    std::thread::scope(|scope| {
        let mediator = &mediator;
        let done = &done;
        let titles_query = &titles_query;

        let mut handles = Vec::new();
        for reader_id in 0..READERS {
            let session = mediator.read();
            handles.push(scope.spawn(move || {
                let mut iterations = 0usize;
                while !done.load(Ordering::Relaxed) || iterations == 0 {
                    // Cached query: all readers share one compilation.
                    let sols = session.select(titles_query).unwrap();
                    assert_eq!(
                        sols.len(),
                        AUTHORS,
                        "reader {reader_id} saw a partial state"
                    );
                    let titles: Vec<String> =
                        sols.bindings.iter().map(|b| b["t"].to_string()).collect();
                    assert!(
                        titles.iter().all(|t| t == &titles[0]),
                        "reader {reader_id} observed a torn MODIFY: {titles:?}"
                    );
                    assert!(
                        !titles[0].contains("Tentative"),
                        "reader {reader_id} observed an uncommitted transaction"
                    );
                    // Uncached query: unique text exercises the
                    // compile → admit path (and the clock cache) under
                    // concurrency.
                    let uncached = fixtures::workload::with_prefixes(&format!(
                        "SELECT ?x WHERE {{ ?x foaf:title \"Probe{reader_id}x{iterations}\" . }}"
                    ));
                    assert!(session.select(&uncached).unwrap().is_empty());
                    iterations += 1;
                }
                iterations
            }));
        }

        // The writer: committed state flips plus abandoned transactions.
        for round in 1..=WRITER_ROUNDS {
            let modify = |title: &str| {
                fixtures::workload::with_prefixes(&format!(
                    "MODIFY DELETE {{ ?x foaf:title ?t . }} \
                     INSERT {{ ?x foaf:title \"{title}\" . }} \
                     WHERE {{ ?x a foaf:Person ; foaf:title ?t . }}"
                ))
            };
            // A transaction that writes and is dropped without commit:
            // its state must be invisible to every reader.
            {
                let mut txn = mediator.write();
                txn.update(&modify(&format!("Tentative{round}"))).unwrap();
                txn.rollback().unwrap();
            }
            // The committed flip.
            mediator
                .execute_update(&modify(&format!("State{round}")))
                .unwrap();
        }
        done.store(true, Ordering::Relaxed);

        for handle in handles {
            let iterations = handle.join().unwrap();
            assert!(iterations > 0, "reader never ran");
        }
    });

    // Final state: the last committed flip, fully applied.
    let sols = mediator.select(&titles_query).unwrap();
    assert_eq!(sols.len(), AUTHORS);
    assert!(sols.bindings.iter().all(|b| b["t"]
        .to_string()
        .contains(&format!("State{WRITER_ROUNDS}"))));
}

// ----------------------------------------------------------------------
// Transaction rollback ≡ clone-and-swap (the seed's atomicity recipe)
// ----------------------------------------------------------------------

// The mixed workload of the write-pipeline harness, plus the shapes
// that specifically stress rollback after a partial write: a MODIFY
// whose *insert round* fails after its delete round succeeded, and a
// mid-group RESTRICT failure.
fn workload_ops(team: i64, k: usize) -> Vec<String> {
    let team_uri = format!("ex:team{team}");
    let base = 800_000 + 10 * k as i64;
    vec![
        fixtures::workload::insert_author(500_000 + k as i64, k % 5, Some(team)),
        fixtures::workload::insert_complete_dataset(600_000 + k as i64),
        fixtures::workload::with_prefixes(&format!(
            "INSERT DATA {{
               ex:team{a} foaf:name \"Ta{k}\" ; ont:teamCode \"Ka{k}\" .
               ex:team{b} foaf:name \"Tb{k}\" .
               ex:team{c} foaf:name \"Tc{k}\" ; ont:teamCode \"Kc{k}\" .
             }}",
            a = base,
            b = base + 1,
            c = base + 2,
        )),
        fixtures::workload::with_prefixes(&format!(
            "INSERT {{ ?x foaf:title \"Dr\" . }} WHERE {{ ?x ont:team {team_uri} . }}"
        )),
        fixtures::workload::with_prefixes(&format!(
            "MODIFY DELETE {{ ?x foaf:mbox ?m . }} \
             INSERT {{ ?x foaf:mbox <mailto:all@new.org> . }} \
             WHERE {{ ?x ont:team {team_uri} ; foaf:mbox ?m . }}"
        )),
        // Delete round succeeds (emails nulled), insert round dangles →
        // the transaction's rollback must undo the delete round too.
        fixtures::workload::with_prefixes(
            "MODIFY DELETE { ?x foaf:mbox ?m . } \
             INSERT { ?x ont:team ex:team987654321 . } \
             WHERE { ?x foaf:mbox ?m . }",
        ),
        fixtures::workload::delete_author_email(1000 + k as i64),
        // Whole-team deletes: RESTRICT fires mid-group when a team is
        // still referenced.
        fixtures::workload::with_prefixes(
            "MODIFY DELETE { ?t a foaf:Group ; foaf:name ?n ; ont:teamCode ?c . } \
             INSERT { } WHERE { ?t foaf:name ?n ; ont:teamCode ?c . }",
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On randomized database states and a mixed workload including
    /// rejected operations, the live write path (the mediator's
    /// transaction, rolled back whole on a rejection) must leave the
    /// database byte-for-byte identical — heap and indexes — to the
    /// clone-and-swap reference the seed endpoint used for atomicity.
    /// (The name is older than the one rollback point per transaction.)
    #[test]
    fn savepoint_rollback_equals_clone_and_swap(
        n in 2usize..20,
        seed in 0u64..300,
        team_index in 0usize..4,
    ) {
        let initial = fixtures::data::populated_database(n, seed);
        let mediator = Mediator::new(initial.clone(), fixtures::mapping()).unwrap();
        let mut reference = initial;
        let mapping = fixtures::mapping();
        let team = fixtures::data::ID_BASE + (team_index % (n / 10).max(2)) as i64;
        for (k, text) in workload_ops(team, n).iter().enumerate() {
            let op = parse_op(text);
            // Clone-and-swap reference: scratch copy, adopt on success.
            let reference_result = {
                let mut scratch = reference.clone();
                match ontoaccess::execute_update_op(&mut scratch, &mapping, &op) {
                    Ok(report) => {
                        reference = scratch;
                        Ok(report)
                    }
                    Err(e) => Err(e),
                }
            };
            // Live path: one transaction on the shared database.
            let live_result = mediator.execute_update_op(&op);
            match (&live_result, &reference_result) {
                (Ok(live), Ok(reference)) => {
                    assert_eq!(
                        live.rows_affected, reference.rows_affected,
                        "row accounting differs: {text}"
                    );
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        std::mem::discriminant(ea),
                        std::mem::discriminant(eb),
                        "error kinds differ: {text}: live={ea}, reference={eb}"
                    );
                    if let (OntoError::Database(ra), OntoError::Database(rb)) = (ea, eb) {
                        assert_eq!(
                            std::mem::discriminant(ra),
                            std::mem::discriminant(rb),
                            "engine error kinds differ: {text}: live={ra}, reference={rb}"
                        );
                    }
                }
                (Ok(_), Err(e)) => panic!("live succeeded, reference failed ({e}): {text}"),
                (Err(e), Ok(_)) => panic!("live failed ({e}), reference succeeded: {text}"),
            }
            let live = mediator.database().clone();
            assert_heaps_identical(&live, &reference, &format!("op {k}: {text}"));
            assert_indexes_consistent(&live, &format!("op {k} (live)"));
        }
    }

    /// Atomic scripts: rolling back a failing script's transaction must
    /// equal never having run it (the seed restored a snapshot).
    #[test]
    fn atomic_script_rollback_equals_snapshot_restore(
        n in 2usize..15,
        seed in 0u64..200,
    ) {
        let initial = fixtures::data::populated_database(n, seed);
        let mediator = Mediator::new(initial.clone(), fixtures::mapping()).unwrap();
        // Two good operations, then one that dangles.
        let script = fixtures::workload::with_prefixes(
            "INSERT DATA { ex:team900000 foaf:name \"S1\" . } ;\n\
             INSERT DATA { ex:author900000 foaf:family_name \"S\" ; ont:team ex:team900000 . } ;\n\
             INSERT DATA { ex:author900001 ont:team ex:team987654321 . }",
        );
        let err = mediator.execute_script(&script, true).unwrap_err();
        assert_eq!(err.operation_index, 2);
        assert_eq!(err.completed.len(), 2);
        let live = mediator.database().clone();
        assert_heaps_identical(&live, &initial, "atomic script rollback");
        assert_indexes_consistent(&live, "atomic script rollback");
    }
}

/// A rejected atomic script whose first operation executed leaves the
/// heap of a mediator that never saw it. The first operation is a
/// MODIFY joining on a column the schema does not index: it runs as a
/// hash join and builds no index. One more commit on both mediators
/// publishes the live database, so rows a broken rollback left behind
/// would show in the published heap.
#[test]
fn rejected_atomic_script_leaves_the_heap_of_a_mediator_that_never_saw_it() {
    let initial = fixtures::data::populated_database(6, 3);
    let untouched = Mediator::new(initial.clone(), fixtures::mapping()).unwrap();
    let mediator = Mediator::new(initial, fixtures::mapping()).unwrap();
    let script = fixtures::workload::with_prefixes(
        "MODIFY DELETE { } INSERT { ?a foaf:title \"Dr\" . } \
         WHERE { ?a foaf:family_name ?n . ?b foaf:family_name ?n . } ;\n\
         INSERT DATA { ex:author900001 ont:team ex:team987654321 . }",
    );
    let err = mediator.execute_script(&script, true).unwrap_err();
    assert_eq!(err.operation_index, 1);
    assert_eq!(err.completed.len(), 1);
    assert!(err.completed[0].rows_affected > 0, "the MODIFY wrote rows");
    let next = fixtures::workload::with_prefixes("INSERT DATA { ex:team900002 foaf:name \"N\" . }");
    for m in [&mediator, &untouched] {
        m.execute_update(&next).unwrap();
    }
    let live = mediator.database();
    assert_heaps_identical(&live, &untouched.database(), "rejected atomic script");
    assert!(!live.supports_index_probe("author", "lastname").unwrap());
    assert_index_set_is_schemas(&live);
    assert_indexes_consistent(&live, "rejected atomic script");
}

/// No read waits on a writer. With a write transaction open (it holds
/// the live database's lock), a never-seen query shape that joins on a
/// column the schema does not index compiles and answers within 5 s,
/// and its answer is the reference executor's.
#[test]
fn a_new_shape_compiles_while_a_write_transaction_is_open() {
    let mediator = Mediator::new(
        fixtures::data::populated_database(40, 5),
        fixtures::mapping(),
    )
    .unwrap();
    let text = fixtures::workload::with_prefixes(
        "SELECT ?a ?b WHERE { ?a foaf:family_name ?n . ?b foaf:family_name ?n . }",
    );
    let txn = mediator.write();
    let (answered, answer) = std::sync::mpsc::channel();
    let reader = mediator.read();
    let query = text.clone();
    let handle = std::thread::spawn(move || {
        let _ = answered.send(reader.run_query(&query, QueryStop::Execute));
    });
    let run = answer
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("the read waited on the open write transaction")
        .unwrap();
    txn.rollback().unwrap();
    handle.join().unwrap();
    assert_eq!(run.cache, CacheProbe::Compile);
    let Some(QueryAnswer::Solutions(rows)) = &run.outcome else {
        panic!("a SELECT answers solutions")
    };

    let db = mediator.database();
    let sparql::Query::Select(select) =
        sparql::parse_query_with_prefixes(&text, PrefixMap::common()).unwrap()
    else {
        panic!("a SELECT")
    };
    let compiled = ontoaccess::compile_select(&db, mediator.mapping(), &select).unwrap();
    let reference = rel::sql::execute_select_reference(&db, &compiled.sql).unwrap();
    assert!(!reference.rows.is_empty());
    let answered = rel::sql::ResultSet {
        columns: reference.columns.clone(),
        rows: rows.rows().map(<[_]>::to_vec).collect(),
    };
    assert_eq!(answered.canonical(), reference.canonical());
}

// ----------------------------------------------------------------------
// Writers racing over shared subjects ≡ some serial order
// ----------------------------------------------------------------------

const STORM_TEAMS: u64 = 3;
const STORM_AUTHORS: u64 = 5;

// A small deterministic generator (xorshift64*), one per thread and
// round.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

// What an acknowledged storm request did to its writer's authors.
enum Mine {
    Created(u64, String, u64),
    Dropped(u64),
    Unchanged,
}

// The next request of one storm writer, with what it does to the
// authors the writer created (their family names and teams) once
// acknowledged. Every acknowledged request changes the database:
//
// * create: make team k (a no-op if it exists), then author a under it
//   with a family name unique to the request — op 2 is rejected if a
//   exists, and translates against a version where k may be absent;
// * unlink: null author a's team if it is k;
// * drop team: delete team k whole — RESTRICT rejects it while
//   referenced;
// * drop author: delete an author this writer created, with or without
//   the team it was created under (only its creator knows its name).
fn storm_request(
    draw: &mut Draw,
    unique: u64,
    mine: &BTreeMap<u64, (String, u64)>,
) -> (String, Mine) {
    let (a, k) = (
        900 + draw.below(STORM_AUTHORS),
        900 + draw.below(STORM_TEAMS),
    );
    let body = match draw.below(4) {
        1 => format!("DELETE DATA {{ ex:author{a} ont:team ex:team{k} . }}"),
        2 => format!("DELETE DATA {{ ex:team{k} a foaf:Group ; foaf:name \"N{k}\" . }}"),
        3 if !mine.is_empty() => {
            let nth = draw.below(mine.len() as u64) as usize;
            let (a, (name, k)) = mine.iter().nth(nth).expect("in range");
            let team = if draw.below(2) == 0 {
                format!("; ont:team ex:team{k} ")
            } else {
                String::new()
            };
            let body = format!(
                "DELETE DATA {{ ex:author{a} a foaf:Person ; foaf:family_name \"{name}\" {team}. }}"
            );
            return (fixtures::workload::with_prefixes(&body), Mine::Dropped(*a));
        }
        _ => {
            let name = format!("L{unique}");
            let body = format!(
                "INSERT DATA {{ ex:team{k} foaf:name \"N{k}\" . }} ;\n\
                 INSERT DATA {{ ex:author{a} foaf:family_name \"{name}\" ; ont:team ex:team{k} . }}"
            );
            return (
                fixtures::workload::with_prefixes(&body),
                Mine::Created(a, name, k),
            );
        }
    };
    (fixtures::workload::with_prefixes(&body), Mine::Unchanged)
}

// The serialized application of one script: its operations, in order,
// in one transaction on `db`, rolled back whole if one is rejected.
// Answers whether the script was accepted.
fn apply_script(db: &mut Database, mapping: &Mapping, text: &str) -> bool {
    let ops = sparql::parse_update_script(text, PrefixMap::common()).unwrap();
    db.begin().unwrap();
    for op in &ops {
        if ontoaccess::execute_update_op(db, mapping, op).is_err() {
            db.rollback().unwrap();
            return false;
        }
    }
    db.commit().unwrap();
    true
}

fn same_heap(a: &Database, b: &Database) -> bool {
    let rows = |db: &Database, table: &str| -> Vec<(RowId, Vec<Value>)> {
        db.scan(table)
            .unwrap()
            .map(|(id, row)| (id, row.clone()))
            .collect()
    };
    a.schema()
        .tables()
        .all(|table| rows(a, &table.name) == rows(b, &table.name))
}

// The committed units of the write-ahead log in `dir`, decoded with
// the dictionary of its newest snapshot (no checkpoint runs after the
// base one, so the log holds every commit since).
fn logged_units(mediator: &Mediator, dir: &std::path::Path) -> Vec<dur::wal::CommitUnit> {
    let (_, snapshot) = mediator.latest_snapshot_bytes().unwrap();
    let (_, _, mut dict) =
        dur::snapshot::decode_snapshot(&snapshot, mediator.database().schema()).unwrap();
    let wal = std::fs::read(dir.join(dur::WAL_FILE)).unwrap();
    dur::wal::scan_records(&wal[dur::wal::WAL_MAGIC.len()..], &mut dict).units
}

/// Four writers send atomic INSERT/DELETE DATA scripts over five
/// authors and three teams to a durable mediator. Each round's history
/// is rebuilt from the log: its units, folded in seq order onto the
/// heap pinned at the start of the round. Walking them, each folded
/// version must be heap-identical to the serialized application of the
/// next unused acknowledged request of exactly one writer to its
/// predecessor; every acknowledged request is used exactly once,
/// rejected requests log nothing, and the last fold is the published
/// heap. The storm must have exercised the revalidation path
/// (`write_retranslations > 0`).
#[test]
fn racing_writers_publish_only_serializable_versions() {
    const WRITERS: usize = 4;
    const REQUESTS: u64 = 7;
    const ROUNDS: u64 = 8;
    let dir = fixtures::scratch_dir("racing-writers");
    let (mediator, _) =
        Mediator::open_durable(&dir, fixtures::database(), fixtures::mapping()).unwrap();
    let mapping = fixtures::mapping();
    let mut mine: Vec<BTreeMap<u64, (String, u64)>> = vec![BTreeMap::new(); WRITERS];
    let mut acknowledged_total = 0;
    for round in 0..ROUNDS {
        let pinned = mediator.database();
        let base = pinned.version_seq();
        let acknowledged: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = mine
                .iter_mut()
                .enumerate()
                .map(|(writer, mine)| {
                    let mediator = &mediator;
                    scope.spawn(move || {
                        let mut draw = Draw(
                            (round * 16 + writer as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        let mut acknowledged = Vec::new();
                        for i in 0..REQUESTS {
                            let unique = (round * WRITERS as u64 + writer as u64) * 100 + i;
                            let (text, effect) = storm_request(&mut draw, unique, mine);
                            if mediator.execute_script(&text, true).is_err() {
                                continue;
                            }
                            match effect {
                                Mine::Created(a, name, k) => {
                                    mine.insert(a, (name, k));
                                }
                                Mine::Dropped(a) => {
                                    mine.remove(&a);
                                }
                                Mine::Unchanged => {}
                            }
                            acknowledged.push(text);
                        }
                        acknowledged
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let end = mediator.concurrency_stats().current_version;
        let count: usize = acknowledged.iter().map(Vec::len).sum();
        acknowledged_total += count;
        assert_eq!(
            end - base,
            count as u64,
            "round {round}: each acknowledged request publishes one version, a rejected one none"
        );
        let units: Vec<_> = logged_units(&mediator, &dir)
            .into_iter()
            .filter(|unit| unit.seq > base)
            .collect();
        assert_eq!(
            units.iter().map(|unit| unit.seq).collect::<Vec<_>>(),
            (base + 1..=end).collect::<Vec<_>>(),
            "round {round}: one logged unit per published version"
        );
        let mut next = [0; WRITERS];
        let mut after: Database = pinned.clone();
        for unit in &units {
            let seq = unit.seq;
            let before = after.clone();
            unit.ops()
                .try_for_each(|op| after.apply_logical(op))
                .unwrap();
            let matched = (0..WRITERS).find_map(|writer| {
                let text = acknowledged[writer].get(next[writer])?;
                let mut db = before.clone();
                (apply_script(&mut db, &mapping, text) && same_heap(&db, &after))
                    .then_some((writer, db))
            });
            let Some((writer, serialized)) = matched else {
                panic!(
                    "round {round}: version {seq} is no acknowledged request applied to {}",
                    seq - 1
                );
            };
            assert_heaps_identical(
                &after,
                &serialized,
                &format!("round {round}, version {seq}"),
            );
            next[writer] += 1;
        }
        for (writer, used) in next.iter().enumerate() {
            assert_eq!(
                *used,
                acknowledged[writer].len(),
                "round {round}: writer {writer}'s acknowledged requests each publish once"
            );
        }
        assert_heaps_identical(
            &after,
            &mediator.database(),
            &format!("round {round}: the last fold is the published heap"),
        );
    }
    assert!(acknowledged_total > 0, "the storm acknowledged nothing");
    assert!(
        mediator.concurrency_stats().write_retranslations > 0,
        "the storm never took the revalidation path"
    );
    drop(mediator);
    std::fs::remove_dir_all(&dir).unwrap();
}
