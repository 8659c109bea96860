//! Snapshot format: a full materialization of the [`rel::Database`]
//! heap — every table's `(row id, values)` stream, its row-id
//! allocator, and its secondary-index column set — checksummed and
//! stamped with the commit sequence it covers plus a schema
//! fingerprint. The index set is the schema's, so loading checks the
//! listed columns and builds nothing from the list.
//!
//! ```text
//! file := MAGIC seq:u64 fingerprint:u64
//!         n_syms:u32 str*               (dictionary: pid → string)
//!         n_tables:u32 table* crc32:u32
//! table := name:str next_row_id:u64
//!          n_secondary:u32 column:str*
//!          n_rows:u64 (row_id:u64 row)*
//! ```
//!
//! Text cells inside rows are persistent dictionary ids; the embedded
//! dictionary section is the *full* live pid table at checkpoint time
//! (not just the strings the heap references), because WAL units
//! written after the checkpoint extend the writer's table from its
//! current end — recovery must resume the pid space exactly where the
//! writer left it.
//!
//! Snapshots are written to a temporary name, fsynced, and renamed into
//! place, so a crash mid-checkpoint leaves the previous snapshot
//! authoritative. Loading rebuilds the database through the same
//! replay entry points recovery uses, so a loaded snapshot is
//! byte-identical (heap, indexes, and row-id allocators) to the
//! database that was serialized.
//!
//! The auto-increment counters the engine exposes are derived state —
//! `max(column) + 1` over the stored rows (see
//! `rel::Database`'s allocator notes) — so capturing the heap captures
//! them; the explicit `next_row_id` per table covers the one allocator
//! that is *not* derivable when a table's newest rows were deleted.

use crate::codec::{crc32, put_row, put_str, put_u32, put_u64, Cursor, DictTable};
use crate::error::{DurError, DurResult, IoContext};
use rel::{Database, LogicalOp, Schema};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Snapshot file magic + format version (bumped to 02 when snapshots
/// grew the embedded dictionary table).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"OASNAP02";

/// Name of the snapshot covering commit `seq`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.snap")
}

/// Parse a snapshot file name back into its commit sequence.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

// ----------------------------------------------------------------------
// Schema fingerprint
// ----------------------------------------------------------------------

// FNV-1a 64 over a canonical rendering of the schema. Stability matters
// more than speed here: the fingerprint decides whether a snapshot may
// be loaded at all.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Fingerprint of a schema: two schemas fingerprint equal iff their
/// canonical renderings (tables, columns, types, constraints) are
/// identical. `Schema`'s table map is ordered, so the rendering is
/// deterministic.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    // Value-encoding generation: bumped when the cell format changed
    // (text cells became dictionary pids), so a fingerprint match
    // guarantees the row payloads decode, not just the schema.
    fnv1a(&mut hash, b"VDICT1");
    for table in schema.tables() {
        fnv1a(&mut hash, b"T");
        fnv1a(&mut hash, table.name.as_bytes());
        for column in &table.columns {
            fnv1a(&mut hash, b"C");
            fnv1a(&mut hash, column.name.as_bytes());
            fnv1a(&mut hash, column.ty.to_string().as_bytes());
            fnv1a(
                &mut hash,
                &[
                    u8::from(column.not_null),
                    u8::from(column.unique),
                    u8::from(column.auto_increment),
                ],
            );
            if let Some(default) = &column.default {
                fnv1a(&mut hash, b"D");
                fnv1a(&mut hash, default.to_string().as_bytes());
            }
        }
        for pk in &table.primary_key {
            fnv1a(&mut hash, b"P");
            fnv1a(&mut hash, pk.as_bytes());
        }
        for fk in &table.foreign_keys {
            fnv1a(&mut hash, b"F");
            fnv1a(&mut hash, fk.column.as_bytes());
            fnv1a(&mut hash, fk.ref_table.as_bytes());
            fnv1a(&mut hash, fk.ref_column.as_bytes());
        }
        for check in &table.checks {
            fnv1a(&mut hash, b"K");
            fnv1a(&mut hash, check.name.as_bytes());
            fnv1a(&mut hash, check.predicate.to_string().as_bytes());
        }
    }
    hash
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

/// Serialize `db` as the snapshot covering commit `seq`.
///
/// `dict` is the live persistent-id table; heap strings it has not yet
/// assigned (possible on the very first checkpoint, whose base data
/// never crossed the WAL) get pids here, and the snapshot embeds the
/// full table.
pub fn encode_snapshot(seq: u64, db: &Database, dict: &mut DictTable) -> Vec<u8> {
    // Encode the tables first: pid assignment happens while rows are
    // serialized, and the embedded dictionary must precede them.
    let tables: Vec<_> = db.schema().tables().map(|t| t.name.clone()).collect();
    let mut body = Vec::new();
    put_u32(&mut body, tables.len() as u32);
    for table in &tables {
        put_str(&mut body, table);
        put_u64(&mut body, db.next_row_id(table).expect("schema table"));
        let secondary = db.secondary_index_columns(table).expect("schema table");
        put_u32(&mut body, secondary.len() as u32);
        for column in &secondary {
            put_str(&mut body, column);
        }
        put_u64(&mut body, db.row_count(table).expect("schema table") as u64);
        for (row_id, row) in db.scan(table).expect("schema table") {
            put_u64(&mut body, row_id);
            put_row(&mut body, row, dict);
        }
    }

    let mut out = Vec::with_capacity(body.len() + 64);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut out, seq);
    put_u64(&mut out, schema_fingerprint(db.schema()));
    put_u32(&mut out, dict.len());
    for s in dict.strings_since(0) {
        put_str(&mut out, s);
    }
    out.extend_from_slice(&body);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode a snapshot against the booting `schema`, returning the
/// sequence it covers, the rebuilt database, and the persistent-id
/// table it embeds (which the caller seeds the live table from before
/// scanning the WAL). Fails with [`DurError::SchemaMismatch`] when the
/// snapshot was written for a different schema and
/// [`DurError::Corrupt`] on any structural or checksum damage.
pub fn decode_snapshot(data: &[u8], schema: &Schema) -> DurResult<(u64, Database, DictTable)> {
    if data.len() < SNAPSHOT_MAGIC.len() + 4 || &data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(DurError::Corrupt {
            message: "snapshot magic missing".into(),
        });
    }
    let (body, trailer) = data.split_at(data.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(DurError::Corrupt {
            message: "snapshot checksum mismatch".into(),
        });
    }
    let mut cursor = Cursor::new(&body[SNAPSHOT_MAGIC.len()..], "snapshot");
    let seq = cursor.take_u64()?;
    let fingerprint = cursor.take_u64()?;
    let expected = schema_fingerprint(schema);
    if fingerprint != expected {
        return Err(DurError::SchemaMismatch {
            expected,
            found: fingerprint,
        });
    }
    let mut dict = DictTable::new();
    let n_syms = cursor.take_u32()?;
    for _ in 0..n_syms {
        let s = cursor.take_str()?;
        dict.push_str(&s);
    }
    let mut db = Database::new(schema.clone())?;
    let n_tables = cursor.take_u32()?;
    for _ in 0..n_tables {
        let table = cursor.take_str()?;
        let next_row_id = cursor.take_u64()?;
        // The index set is the schema's, so the list is checked, not
        // built. A listed column the schema does not index came from an
        // older binary that built indexes at run time: an index is
        // derived state, so it is skipped.
        let n_secondary = cursor.take_u32()?;
        for _ in 0..n_secondary {
            let column = cursor.take_str()?;
            if schema.table(&table)?.column(&column).is_none() {
                return Err(rel::RelError::NoSuchColumn { table, column }.into());
            }
        }
        let n_rows = cursor.take_u64()?;
        for _ in 0..n_rows {
            let row_id = cursor.take_u64()?;
            let row = cursor.take_row(&dict)?;
            db.apply_logical(LogicalOp::Insert {
                table: &table,
                row_id,
                row: &row,
            })?;
        }
        db.set_next_row_id(&table, next_row_id)?;
    }
    if !cursor.is_exhausted() {
        return Err(DurError::Corrupt {
            message: format!("snapshot carries {} trailing byte(s)", cursor.remaining()),
        });
    }
    Ok((seq, db, dict))
}

// ----------------------------------------------------------------------
// File I/O
// ----------------------------------------------------------------------

/// Durably write the snapshot covering `seq` into `dir`
/// (write-to-temporary, fsync, rename, fsync directory) and return its
/// final path.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    db: &Database,
    dict: &mut DictTable,
) -> DurResult<PathBuf> {
    let bytes = encode_snapshot(seq, db, dict);
    let final_path = dir.join(snapshot_file_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(seq)));
    {
        let mut file = std::fs::File::create(&tmp_path)
            .io_context(format!("create {}", tmp_path.display()))?;
        file.write_all(&bytes)
            .io_context(format!("write {}", tmp_path.display()))?;
        file.sync_all()
            .io_context(format!("fsync {}", tmp_path.display()))?;
    }
    std::fs::rename(&tmp_path, &final_path)
        .io_context(format!("rename {} into place", final_path.display()))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// fsync a directory so a rename within it is durable. Best-effort on
/// platforms where directories cannot be opened for sync.
pub fn sync_dir(dir: &Path) -> DurResult<()> {
    match std::fs::File::open(dir) {
        Ok(handle) => handle
            .sync_all()
            .io_context(format!("fsync directory {}", dir.display())),
        Err(_) => Ok(()),
    }
}

/// Snapshot files present in `dir`, newest (highest sequence) first.
pub fn list_snapshots(dir: &Path) -> DurResult<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = std::fs::read_dir(dir).io_context(format!("list data dir {}", dir.display()))?;
    for entry in entries {
        let entry = entry.io_context("read data dir entry")?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_snapshot_name(name) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel::{Column, SqlType, Table, Value};

    fn sample_db() -> Database {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("author")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("team", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("team", "team", "id")
                    .build(),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        let a = |n: &str, v: Value| (n.to_owned(), v);
        db.insert(
            "team",
            &[a("id", Value::Int(1)), a("name", Value::text("A"))],
        )
        .unwrap();
        db.insert(
            "author",
            &[a("id", Value::Int(10)), a("team", Value::Int(1))],
        )
        .unwrap();
        db
    }

    // `bytes` with `column` appended to `table`'s secondary-index list,
    // checksum refreshed: what a binary that built indexes at run time
    // wrote.
    fn listing_extra_index(bytes: &[u8], table: &str, column: &str) -> Vec<u8> {
        let mut header = Vec::new();
        put_str(&mut header, table);
        // The last occurrence: `author`, the first table, lists its
        // `team` column.
        let at = bytes
            .windows(header.len())
            .rposition(|w| w == header.as_slice())
            .expect("table header present")
            + header.len()
            + 8;
        let listed = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut out = bytes[..at].to_vec();
        put_u32(&mut out, listed + 1);
        let mut rest = at + 4;
        for _ in 0..listed {
            let len = u32::from_le_bytes(bytes[rest..rest + 4].try_into().unwrap()) as usize;
            rest += 4 + len;
        }
        out.extend_from_slice(&bytes[at + 4..rest]);
        put_str(&mut out, column);
        out.extend_from_slice(&bytes[rest..bytes.len() - 4]);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    #[test]
    fn a_listed_index_is_checked_against_the_schema_not_built() {
        let db = sample_db();
        let bytes = encode_snapshot(7, &db, &mut DictTable::new());
        // A column the schema does not index is skipped.
        let older = listing_extra_index(&bytes, "team", "name");
        let (_, loaded, _) = decode_snapshot(&older, db.schema()).unwrap();
        assert!(loaded.secondary_index_columns("team").unwrap().is_empty());
        assert_eq!(encode_snapshot(7, &loaded, &mut DictTable::new()), bytes);
        // A name that is not a column of the table is an error.
        let bogus = listing_extra_index(&bytes, "author", "bogus");
        assert!(matches!(
            decode_snapshot(&bogus, db.schema()),
            Err(DurError::Engine(rel::RelError::NoSuchColumn { .. }))
        ));
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let db = sample_db();
        let bytes = encode_snapshot(42, &db, &mut DictTable::new());
        let (seq, loaded, dict) = decode_snapshot(&bytes, db.schema()).unwrap();
        assert_eq!(seq, 42);
        for table in ["team", "author"] {
            let a: Vec<_> = db.scan(table).unwrap().collect();
            let b: Vec<_> = loaded.scan(table).unwrap().collect();
            assert_eq!(a, b);
            assert_eq!(
                db.next_row_id(table).unwrap(),
                loaded.next_row_id(table).unwrap()
            );
            assert_eq!(
                db.secondary_index_columns(table).unwrap(),
                loaded.secondary_index_columns(table).unwrap()
            );
        }
        // Re-encoding the loaded database is bit-identical: pids are
        // assigned in deterministic scan order.
        assert_eq!(encode_snapshot(42, &loaded, &mut DictTable::new()), bytes);
        // Re-encoding against the *decoded* table is also identical —
        // the live writer path after recovery.
        let mut resumed = dict.clone();
        assert_eq!(encode_snapshot(42, &loaded, &mut resumed), bytes);
    }

    #[test]
    fn snapshot_embeds_the_full_live_table() {
        // Pids assigned by WAL traffic whose strings no longer appear
        // in the heap must survive a checkpoint: later WAL units extend
        // the table from the writer's end.
        let db = sample_db();
        let mut dict = DictTable::new();
        dict.push_str("deleted-from-heap");
        let bytes = encode_snapshot(1, &db, &mut dict);
        let (_, _, decoded) = decode_snapshot(&bytes, db.schema()).unwrap();
        assert_eq!(decoded.len(), dict.len());
        assert_eq!(decoded.sym_at(0), dict.sym_at(0));
    }

    #[test]
    fn snapshot_preserves_row_id_allocator_after_tail_delete() {
        let mut db = sample_db();
        let rid = db.find_by_pk("author", &[Value::Int(10)]).unwrap().unwrap();
        db.delete_row("author", rid).unwrap();
        let bytes = encode_snapshot(1, &db, &mut DictTable::new());
        let (_, loaded, _) = decode_snapshot(&bytes, db.schema()).unwrap();
        assert_eq!(
            db.next_row_id("author").unwrap(),
            loaded.next_row_id("author").unwrap()
        );
    }

    #[test]
    fn corruption_and_schema_change_are_rejected() {
        let db = sample_db();
        let bytes = encode_snapshot(1, &db, &mut DictTable::new());
        // Any flipped byte fails the checksum (or the magic).
        for at in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            assert!(matches!(
                decode_snapshot(&bad, db.schema()),
                Err(DurError::Corrupt { .. })
            ));
        }
        // A schema with one more column must not load the snapshot.
        let mut other = Schema::new();
        other
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .column(Column::new("extra", SqlType::Integer))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        assert!(matches!(
            decode_snapshot(&bytes, &other),
            Err(DurError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_names_round_trip() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(0)), Some(0));
        assert_eq!(
            parse_snapshot_name(&snapshot_file_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_snapshot_name("wal.log"), None);
        assert_eq!(parse_snapshot_name("snapshot-x.snap"), None);
    }
}
