//! Golden-file test for the write-ahead log format: fixed commit units
//! are encoded and compared byte for byte with a checked-in WAL file,
//! which is then scanned back and recovered into a fresh database.
//!
//! The byte file pins the on-disk format (`OAWAL002`): it may change
//! only together with a bump of `WAL_MAGIC`. Regenerate it after such a
//! bump with `UPDATE_GOLDEN=1 cargo test -p dur --test wal_golden`.

use dur::codec::DictTable;
use dur::wal::{encode_commit_unit, scan_records, WAL_MAGIC};
use dur::Durability;
use rel::{Column, Database, LogicalOp, Schema, SqlType, Table, Value};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wal_units.bin")
}

fn schema() -> Schema {
    let mut schema = Schema::new();
    schema
        .add_table(
            Table::builder("team")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("code", SqlType::Varchar))
                .column(Column::new("active", SqlType::Boolean))
                .primary_key(&["id"])
                .build(),
        )
        .unwrap();
    schema
        .add_table(
            Table::builder("author")
                .column(Column::new("id", SqlType::Integer).not_null())
                .column(Column::new("name", SqlType::Varchar))
                .column(Column::new("team", SqlType::Integer))
                .column(Column::new("score", SqlType::Double))
                .primary_key(&["id"])
                .foreign_key("team", "team", "id")
                .build(),
        )
        .unwrap();
    schema
}

// One logical op as the test owns it; `view` lends it to the encoder.
enum Op {
    Insert(&'static str, u64, Vec<Value>),
    Update(&'static str, u64, Vec<Value>),
    Delete(&'static str, u64),
}

impl Op {
    fn view(&self) -> LogicalOp<'_> {
        match self {
            Op::Insert(table, row_id, row) => LogicalOp::Insert {
                table,
                row_id: *row_id,
                row,
            },
            Op::Update(table, row_id, row) => LogicalOp::Update {
                table,
                row_id: *row_id,
                row,
            },
            Op::Delete(table, row_id) => LogicalOp::Delete {
                table,
                row_id: *row_id,
            },
        }
    }
}

fn views(ops: &[Op]) -> Vec<LogicalOp<'_>> {
    ops.iter().map(Op::view).collect()
}

fn team(id: i64, code: &str, active: bool) -> Vec<Value> {
    vec![Value::Int(id), Value::text(code), Value::Bool(active)]
}

fn author(id: i64, name: &str, team: Option<i64>, score: f64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::text(name),
        team.map_or(Value::Null, Value::Int),
        Value::Double(score),
    ]
}

// The fixed commit units: (seq, trace id, ops).
fn units() -> Vec<(u64, Option<&'static str>, Vec<Op>)> {
    vec![
        // An insert run across two tables, then an update and a
        // delete; a traced BEGIN.
        (
            1,
            Some("golden-trace-1"),
            vec![
                Op::Insert("team", 0, team(1, "Alpha", true)),
                Op::Insert("team", 1, team(2, "Beta", false)),
                Op::Insert("author", 0, author(10, "Ann", Some(1), 1.5)),
                Op::Insert("author", 1, author(11, "Bob", Some(2), -0.25)),
                Op::Update("team", 0, team(1, "Gamma", true)),
                Op::Delete("author", 1),
            ],
        ),
        // A dictionary delta holding a string twice ("Rep" crosses the
        // log once) next to one the previous unit already assigned
        // ("Alpha": no delta entry); an untraced BEGIN.
        (
            2,
            None,
            vec![
                Op::Insert("team", 2, team(3, "Rep", true)),
                Op::Insert("author", 2, author(12, "Rep", Some(3), 0.0)),
                Op::Insert("author", 3, author(13, "Alpha", None, 2.0)),
            ],
        ),
    ]
}

fn encode_all() -> Vec<u8> {
    let mut dict = DictTable::new();
    let mut bytes = WAL_MAGIC.to_vec();
    for (seq, trace, ops) in units() {
        bytes.extend_from_slice(&encode_commit_unit(seq, &views(&ops), &mut dict, trace));
    }
    bytes
}

#[test]
fn encoded_units_match_the_golden_wal() {
    let actual = encode_all();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "the WAL encoding diverged from its golden bytes"
    );
}

#[test]
fn golden_wal_scans_back_to_the_same_units() {
    let bytes = std::fs::read(golden_path()).unwrap();
    assert_eq!(&bytes[..WAL_MAGIC.len()], WAL_MAGIC);
    let mut dict = DictTable::new();
    let scan = scan_records(&bytes[WAL_MAGIC.len()..], &mut dict);
    assert_eq!(scan.durable_end, bytes.len() as u64);
    // "Alpha", "Beta", "Ann", "Bob", "Gamma", then "Rep" once.
    assert_eq!(dict.len(), 6);
    let expected = units();
    assert_eq!(scan.units.len(), expected.len());
    for (unit, (seq, trace, ops)) in scan.units.iter().zip(&expected) {
        assert_eq!(unit.seq, *seq);
        assert_eq!(unit.trace_id.as_deref(), *trace);
        assert_eq!(unit.ops().collect::<Vec<_>>(), views(ops));
    }
}

#[test]
fn golden_wal_recovers_into_a_fresh_database() {
    let dir = std::env::temp_dir().join(format!("dur-wal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(golden_path(), dir.join(dur::WAL_FILE)).unwrap();

    let opened = Durability::open(&dir, Database::new(schema()).unwrap()).unwrap();
    assert_eq!(opened.report.commits_replayed, 2);
    assert_eq!(opened.report.rows_replayed, 9);
    assert_eq!(opened.report.truncated_bytes, 0);
    let db = opened.db;
    let rows = |table: &str| -> Vec<(u64, Vec<Value>)> {
        db.scan(table)
            .unwrap()
            .map(|(id, row)| (id, row.clone()))
            .collect()
    };
    assert_eq!(
        rows("team"),
        vec![
            (0, team(1, "Gamma", true)),
            (1, team(2, "Beta", false)),
            (2, team(3, "Rep", true)),
        ]
    );
    assert_eq!(
        rows("author"),
        vec![
            (0, author(10, "Ann", Some(1), 1.5)),
            (2, author(12, "Rep", Some(3), 0.0)),
            (3, author(13, "Alpha", None, 2.0)),
        ]
    );
    assert_eq!(db.find_by_pk("team", &[Value::Int(1)]).unwrap(), Some(0));
    assert_eq!(db.find_by_pk("author", &[Value::Int(11)]).unwrap(), None);
    assert_eq!(db.next_row_id("author").unwrap(), 4);
    drop(opened.durability);
    // Recovery left the golden bytes alone: nothing was torn.
    assert_eq!(
        std::fs::read(dir.join(dur::WAL_FILE)).unwrap(),
        std::fs::read(golden_path()).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
