//! Crash-recovery differential tests for the durability subsystem.
//!
//! The contract under test (ISSUE 5 acceptance): for randomized update
//! workloads against a durable mediator, killing the process at an
//! **arbitrary WAL byte prefix** and recovering must yield a heap +
//! index state byte-identical (via [`fixtures::diff`]) to the
//! in-memory reference state after exactly the commits the prefix
//! fully contains — never a torn half-transaction, never a lost
//! acknowledged commit, and with the row-id allocators positioned so
//! post-recovery inserts behave exactly like the un-crashed run.
//!
//! The "kill" is simulated precisely: the workload runs once against a
//! real durable mediator while the reference run clones the in-memory
//! database after every commit; then, for many byte prefixes of the
//! final WAL, a fresh directory gets the snapshot plus the truncated
//! log, and recovery's result is compared against the reference state
//! indexed by how many commits the prefix holds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparql_update_rdb::dur::{self, Durability};
use sparql_update_rdb::fixtures::{self, diff};
use sparql_update_rdb::ontoaccess::Mediator;
use sparql_update_rdb::rel::Database;
use std::path::Path;

fn base_db() -> Database {
    let mut db = fixtures::database();
    fixtures::seed_paper_rows(&mut db);
    db
}

fn durable_mediator(dir: &Path) -> Mediator {
    Mediator::open_durable(dir, base_db(), fixtures::mapping())
        .expect("data dir opens")
        .0
}

// Heaps, indexes and row-id allocators must all agree, and the
// recovered index set is the schema's.
fn assert_states_identical(reference: &Database, recovered: &Database, context: &str) {
    diff::assert_heaps_identical(reference, recovered, context);
    diff::assert_indexes_consistent(recovered, context);
    diff::assert_index_set_is_schemas(recovered);
    for table in reference.schema().tables() {
        assert_eq!(
            reference.next_row_id(&table.name).unwrap(),
            recovered.next_row_id(&table.name).unwrap(),
            "row-id allocator differs for {}: {context}",
            table.name
        );
    }
}

// Build a fresh directory holding `dir`'s snapshots plus the first
// `cut` bytes of its WAL — the disk state a kill at that write position
// leaves behind.
fn dir_with_wal_prefix(src: &Path, wal: &[u8], cut: usize) -> std::path::PathBuf {
    let dst = fixtures::scratch_dir("recovery-cut");
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".snap")) {
            std::fs::copy(entry.path(), dst.join(name)).unwrap();
        }
    }
    std::fs::write(dst.join(dur::WAL_FILE), &wal[..cut]).unwrap();
    dst
}

// ----------------------------------------------------------------------
// Randomized workload
// ----------------------------------------------------------------------

// One update request; some are deliberately rejectable (dangling
// references, absent triples, already-set attributes) — rejected and
// rolled-back work must never reach the log.
enum Step {
    Single(String),
    AtomicScript(String),
}

fn random_step(rng: &mut StdRng, k: usize, inserted: &mut Vec<i64>) -> Step {
    let fresh = 900_000 + k as i64;
    let team = if rng.gen_bool(0.5) { 4 } else { 5 };
    match rng.gen_range(0..10usize) {
        0 | 1 => {
            inserted.push(fresh);
            Step::Single(fixtures::workload::insert_author(
                fresh,
                rng.gen_range(0..5),
                Some(team),
            ))
        }
        2 => Step::Single(fixtures::workload::insert_complete_dataset(fresh)),
        3 => Step::Single(fixtures::workload::modify_team_members(
            team,
            &format!("T{k}"),
        )),
        4 => {
            // Often rejected: the author may not exist or have no email.
            let id = inserted
                .get(rng.gen_range(0..inserted.len().max(1)))
                .copied()
                .unwrap_or(fresh);
            Step::Single(fixtures::workload::delete_author_email(id))
        }
        5 => {
            // Rejected (dangling team): must leave no trace in the log.
            Step::Single(fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:author{fresh} foaf:family_name \"L{k}\" ; \
                 ont:team ex:team424242 . }}"
            )))
        }
        6 => {
            // Rejected on repeat (attribute already set) once the same
            // author id was inserted before.
            let id = inserted.first().copied().unwrap_or(fresh);
            Step::Single(fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:author{id} foaf:family_name \"Other{k}\" . }}"
            )))
        }
        7 => {
            // Null-update MODIFY for a known author's email.
            let id = inserted.last().copied().unwrap_or(fresh);
            Step::Single(fixtures::workload::with_prefixes(&format!(
                "MODIFY DELETE {{ ex:author{id} foaf:mbox ?m . }} INSERT {{ }} \
                 WHERE {{ ex:author{id} foaf:mbox ?m . }}"
            )))
        }
        8 => {
            // Multi-operation atomic script: one commit unit.
            inserted.push(fresh);
            Step::AtomicScript(fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:team{fresh} foaf:name \"S{k}\" . }} ;\n\
                 INSERT DATA {{ ex:author{fresh} foaf:family_name \"Script{k}\" ; \
                 ont:team ex:team{fresh} . }}"
            )))
        }
        _ => {
            // Atomic script whose second operation fails: the whole
            // request must roll back and log nothing.
            Step::AtomicScript(fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:team{fresh} foaf:name \"F{k}\" . }} ;\n\
                 INSERT DATA {{ ex:author{fresh} ont:team ex:team555555 . }}"
            )))
        }
    }
}

// The reference side of one workload run: the in-memory database state
// after every commit that reached the log, and the WAL byte size at
// each of those points (`wal_marks[i]` = log size once `states[i]` was
// durable — commit-unit boundaries, used to pick interesting cuts).
struct ReferenceRun {
    states: Vec<Database>,
    wal_marks: Vec<u64>,
}

// Run the workload against the durable mediator, capturing the
// in-memory reference state after every commit that reached the log.
fn run_workload(mediator: &Mediator, seed: u64, steps: usize) -> ReferenceRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = Vec::new();
    let mut states = vec![mediator.database().clone()];
    let mut wal_marks = vec![mediator.durability_stats().unwrap().wal_bytes];
    let mut commits = mediator.durability_stats().unwrap().commits_appended;
    for k in 0..steps {
        match random_step(&mut rng, k, &mut inserted) {
            Step::Single(text) => {
                let _ = mediator.execute_update(&text);
            }
            Step::AtomicScript(text) => {
                let _ = mediator.execute_script(&text, true);
            }
        }
        let stats = mediator.durability_stats().unwrap();
        assert!(
            stats.commits_appended <= commits + 1,
            "one request must append at most one commit unit"
        );
        if stats.commits_appended > commits {
            commits = stats.commits_appended;
            states.push(mediator.database().clone());
            wal_marks.push(stats.wal_bytes);
        }
    }
    assert!(
        states.len() > steps / 3,
        "workload degenerated: only {} commits in {steps} steps",
        states.len() - 1
    );
    ReferenceRun { states, wal_marks }
}

// For every chosen WAL byte prefix: recover and compare against the
// reference state holding exactly the prefix's commits. `run` must
// describe the *current* log (its `states[0]` is the state the
// snapshot in `src` covers, so a prefix replaying `k` commits must
// equal `states[k]`); `run.wal_marks` are the commit-unit boundaries.
fn check_prefixes(src: &Path, run: &ReferenceRun) {
    let states = &run.states;
    let wal = std::fs::read(src.join(dur::WAL_FILE)).unwrap();
    let magic = dur::wal::WAL_MAGIC.len();
    // Cut candidates: every commit-unit boundary, every byte of the
    // last two units, a stride across the rest, and both ends.
    let tail_start = run.wal_marks[run.wal_marks.len().saturating_sub(3)] as usize;
    let mut cuts: Vec<usize> = (magic..=wal.len())
        .filter(|cut| cut % 11 == 0 || *cut >= tail_start)
        .collect();
    cuts.push(magic);
    cuts.push(wal.len());
    cuts.extend(run.wal_marks.iter().map(|&m| m as usize));
    cuts.retain(|&cut| cut >= magic && cut <= wal.len());
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let sub = dir_with_wal_prefix(src, &wal, cut);
        let opened = Durability::open(&sub, base_db())
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let k = opened.report.commits_replayed as usize;
        assert!(
            k < states.len(),
            "prefix at {cut} claims more commits ({k}) than ever ran"
        );
        assert_states_identical(
            &states[k],
            &opened.db,
            &format!("wal prefix of {cut} bytes → {k} commit(s)"),
        );
        drop(opened);
        std::fs::remove_dir_all(&sub).unwrap();
    }
}

#[test]
fn kill_at_arbitrary_wal_prefix_recovers_the_committed_prefix_state() {
    for seed in [7u64, 23] {
        let dir = fixtures::scratch_dir("recovery-diff");
        let mediator = durable_mediator(&dir);
        let run = run_workload(&mediator, seed, 36);
        drop(mediator);
        check_prefixes(&dir, &run);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn kill_after_mid_workload_checkpoint_recovers_snapshot_plus_suffix() {
    let dir = fixtures::scratch_dir("recovery-ckpt");
    let mediator = durable_mediator(&dir);
    let before = run_workload(&mediator, 99, 18);
    let checkpoint_commits = before.states.len() - 1;
    let seq = mediator.checkpoint().unwrap();
    assert_eq!(seq as usize, checkpoint_commits, "seq counts commits");
    // More commits after the checkpoint land in the truncated log; the
    // post-checkpoint run's reference states index the new log directly
    // (its states[0] is exactly what the snapshot covers).
    let after = run_workload(&mediator, 100, 18);
    drop(mediator);
    check_prefixes(&dir, &after);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_mediator_continues_exactly_like_the_uncrashed_run() {
    // After a full recovery, the next updates (including auto-increment
    // allocation in the link table) must behave byte-identically to
    // simply continuing on the reference state.
    let dir = fixtures::scratch_dir("recovery-continue");
    let mediator = durable_mediator(&dir);
    let run = run_workload(&mediator, 41, 24);
    drop(mediator);

    let recovered = durable_mediator(&dir); // full-WAL recovery
    let reference = Mediator::new(run.states.last().unwrap().clone(), fixtures::mapping()).unwrap();
    // insert_complete_dataset exercises publication_author's
    // auto-increment surrogate key.
    let canary = fixtures::workload::insert_complete_dataset(999_999);
    recovered.execute_update(&canary).unwrap();
    reference.execute_update(&canary).unwrap();
    assert_states_identical(
        &reference.database().clone(),
        &recovered.database().clone(),
        "post-recovery canary insert",
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------------------
// Torn / corrupt tails (ISSUE satellite)
// ----------------------------------------------------------------------

#[test]
fn torn_tail_is_truncated_at_every_byte_offset_of_the_final_record() {
    let dir = fixtures::scratch_dir("torn-tail");
    let mediator = durable_mediator(&dir);
    let mut states = vec![mediator.database().clone()];
    let mut boundary = 0u64;
    for (i, name) in ["Ada", "Grace", "Edsger"].iter().enumerate() {
        if i == 2 {
            boundary = mediator.durability_stats().unwrap().wal_bytes;
        }
        mediator
            .execute_update(&fixtures::workload::with_prefixes(&format!(
                "INSERT DATA {{ ex:author{} foaf:family_name \"{name}\" . }}",
                910_000 + i
            )))
            .unwrap();
        states.push(mediator.database().clone());
    }
    drop(mediator);
    let wal = std::fs::read(dir.join(dur::WAL_FILE)).unwrap();
    let boundary = boundary as usize;
    assert!(boundary > 0 && boundary < wal.len());

    // Truncation inside the final commit unit: every byte offset.
    for cut in boundary..wal.len() {
        let sub = dir_with_wal_prefix(&dir, &wal, cut);
        let opened = Durability::open(&sub, base_db()).unwrap();
        assert_eq!(
            opened.report.commits_replayed, 2,
            "cut at {cut}: complete records kept, torn suffix dropped"
        );
        assert_states_identical(&states[2], &opened.db, &format!("torn cut at {cut}"));
        // Recovery physically truncated the torn suffix.
        let len = std::fs::metadata(sub.join(dur::WAL_FILE)).unwrap().len();
        assert_eq!(len as usize, boundary, "cut at {cut}");
        assert_eq!(opened.report.truncated_bytes as usize, cut - boundary);
        drop(opened);
        std::fs::remove_dir_all(&sub).unwrap();
    }

    // Bit flips anywhere in the final unit (checksum or payload): the
    // damaged unit is dropped whole, everything before it survives.
    for flip_at in boundary..wal.len() {
        let mut damaged = wal.clone();
        damaged[flip_at] ^= 0x01;
        let sub = dir_with_wal_prefix(&dir, &damaged, damaged.len());
        let opened = Durability::open(&sub, base_db()).unwrap();
        assert_eq!(
            opened.report.commits_replayed, 2,
            "flip at {flip_at}: damaged record dropped"
        );
        assert_states_identical(&states[2], &opened.db, &format!("flip at {flip_at}"));
        drop(opened);
        std::fs::remove_dir_all(&sub).unwrap();
    }

    // The undamaged log still recovers everything.
    let opened = Durability::open(&dir, base_db()).unwrap();
    assert_eq!(opened.report.commits_replayed, 3);
    assert_states_identical(&states[3], &opened.db, "undamaged log");
    drop(opened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_authoritative_snapshot_fails_loudly_instead_of_resurrecting_stale_state() {
    let dir = fixtures::scratch_dir("corrupt-snapshot");
    let mediator = durable_mediator(&dir);
    mediator
        .execute_update(&fixtures::workload::insert_author(920_000, 2, None))
        .unwrap();
    mediator.checkpoint().unwrap();
    drop(mediator);
    // Flip one byte in the middle of the (now only) snapshot.
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".snap")))
        .expect("checkpoint left a snapshot")
        .path();
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snapshot, &bytes).unwrap();
    assert!(
        matches!(
            Durability::open(&dir, base_db()),
            Err(dur::DurError::Corrupt { .. })
        ),
        "checkpointed WAL was truncated against this snapshot; recovery must not \
         silently fall back to an older state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
