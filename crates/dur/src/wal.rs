//! The write-ahead log format: an append-only stream of checksummed,
//! length-prefixed records over *logical* row operations.
//!
//! ```text
//! file   := MAGIC record*
//! record := len:u32  crc32(payload):u32  payload[len]
//! payload:= BEGIN seq:u64 [trace:str]   (trace: originating request's
//!                                        trace id, optional)
//!         | OPS   seq:u64 delta group*  (insert/update/delete batches)
//!         | COMMIT seq:u64
//! delta  := base:u32 n_new:u32 str*     (strings this unit first
//!                                        assigned persistent ids
//!                                        base..base+n_new)
//! group  := kind:u8 table:str rows…     (consecutive ops of one kind
//!                                        and table, batched; TEXT cell
//!                                        = dictionary pid:u32)
//! ```
//!
//! Text cells inside rows are fixed-width persistent dictionary ids
//! ([`crate::codec::DictTable`]): each string crosses the log once — in
//! the delta of the first commit unit that stores it — and every later
//! occurrence costs 4 bytes. The delta carries its explicit `base` so a
//! scan can both *rebuild* the table (applied units extend it exactly at
//! `base == len`) and *verify* units already covered by a snapshot
//! (`base + n_new ≤ len` must re-state the same strings); any mismatch
//! is treated like structural corruption and ends the scan.
//!
//! One committed transaction is one *commit unit*: `BEGIN seq`, one
//! `OPS seq` record carrying every logical operation the transaction
//! applied (the views of its redo log that [`rel::Database::txn_ops`]
//! lends, which the encoder reads directly; a rolled-back transaction
//! never reaches the log), and `COMMIT seq` — written with a single
//! `write(2)` so a torn tail is always a suffix of one unit.
//! An atomic update script commits once, so it logs as one unit.
//!
//! Recovery applies only operations bracketed by a matching
//! `BEGIN…COMMIT`; a unit whose `COMMIT` never made it to disk (torn
//! write, crash between write and fsync) is dropped and the file is
//! truncated back to the end of the last committed unit. Checksums make
//! "dropped" safe: any partial or bit-flipped record fails its CRC and
//! terminates the scan *before* the damage can be applied.

use crate::codec::{crc32, put_row, put_str, put_u32, put_u64, Cursor, DictTable};
use crate::error::{DurError, DurResult};
use rel::{LogicalOp, RowId, Value};

/// WAL file magic + format version (bumped to 002 when text cells
/// became dictionary pids).
pub const WAL_MAGIC: &[u8; 8] = b"OAWAL002";

const KIND_BEGIN: u8 = 1;
const KIND_OPS: u8 = 2;
const KIND_COMMIT: u8 = 3;

const GROUP_INSERT: u8 = 1;
const GROUP_UPDATE: u8 = 2;
const GROUP_DELETE: u8 = 3;

// Sanity bound on one record: a single commit unit's OPS record holds
// one transaction's operations, and transactions are bounded by memory
// long before this.
const MAX_RECORD_BYTES: u32 = 1 << 30;

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

fn marker(kind: u8, seq: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.push(kind);
    put_u64(&mut payload, seq);
    payload
}

// Batch tag of one logical op.
fn group_kind<'a>(op: &LogicalOp<'a>) -> (u8, &'a str) {
    match op {
        LogicalOp::Insert { table, .. } => (GROUP_INSERT, table),
        LogicalOp::Update { table, .. } => (GROUP_UPDATE, table),
        LogicalOp::Delete { table, .. } => (GROUP_DELETE, table),
    }
}

/// Encode one committed transaction as a complete commit unit
/// (`BEGIN`, `OPS`, `COMMIT`), ready to append in a single write.
/// Consecutive operations of one kind against one table are folded
/// into a batch so the table name is stored once per run — the
/// set-based write pipeline produces exactly such runs.
///
/// `dict` is the live persistent-id table; strings first seen by this
/// unit are assigned the next dense pids and written into the unit's
/// delta section. On a failed append the caller must undo those
/// assignments ([`DictTable::truncate`] back to the pre-call length).
///
/// `trace_id` is the originating request's trace id, stamped into the
/// `BEGIN` record so a replica's apply can link back to the leader-side
/// trace. `None` encodes the bare legacy `BEGIN` (9 bytes), which old
/// logs hold and this decoder still accepts.
pub fn encode_commit_unit(
    seq: u64,
    ops: &[LogicalOp<'_>],
    dict: &mut DictTable,
    trace_id: Option<&str>,
) -> Vec<u8> {
    // Consecutive ops of one kind against one table form a batch.
    let batches = || ops.chunk_by(|a, b| group_kind(a) == group_kind(b));

    // Encode the row groups first: pid assignment happens here, and the
    // delta of newly assigned strings must precede the rows on disk.
    let base = dict.len();
    let mut body = Vec::new();
    put_u32(&mut body, batches().count() as u32);
    for batch in batches() {
        let (kind, table) = group_kind(&batch[0]);
        body.push(kind);
        put_str(&mut body, table);
        put_u32(&mut body, batch.len() as u32);
        for op in batch {
            match op {
                LogicalOp::Insert { row_id, row, .. } | LogicalOp::Update { row_id, row, .. } => {
                    put_u64(&mut body, *row_id);
                    put_row(&mut body, row, dict);
                }
                LogicalOp::Delete { row_id, .. } => {
                    put_u64(&mut body, *row_id);
                }
            }
        }
    }

    let mut payload = Vec::with_capacity(body.len() + 32);
    payload.push(KIND_OPS);
    put_u64(&mut payload, seq);
    put_u32(&mut payload, base);
    put_u32(&mut payload, dict.len() - base);
    for s in dict.strings_since(base) {
        put_str(&mut payload, s);
    }
    payload.extend_from_slice(&body);

    let mut begin = marker(KIND_BEGIN, seq);
    if let Some(trace) = trace_id {
        put_str(&mut begin, trace);
    }

    let mut out = Vec::with_capacity(payload.len() + begin.len() + 42);
    push_record(&mut out, &begin);
    push_record(&mut out, &payload);
    push_record(&mut out, &marker(KIND_COMMIT, seq));
    out
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

// One decoded record.
enum Record {
    Begin(u64, Option<String>),
    Ops(u64, Vec<OpGroup>),
    Commit(u64),
}

// One decoded batch, in the shape it has on disk: consecutive
// operations of one kind against one table, which is named once. A
// delete's row is empty. Decode checks `kind` with each row, so a
// batch that holds rows is of one of the three kinds.
struct OpGroup {
    kind: u8,
    table: String,
    rows: Vec<(RowId, Vec<Value>)>,
}

fn decode_payload(payload: &[u8], dict: &mut DictTable) -> DurResult<Record> {
    let mut cursor = Cursor::new(payload, "wal record");
    let kind = cursor.take_u8()?;
    let seq = cursor.take_u64()?;
    let record = match kind {
        KIND_BEGIN => {
            // The trace id is optional: legacy records end right after
            // the seq, traced records carry one trailing string.
            let trace_id = if cursor.is_exhausted() {
                None
            } else {
                Some(cursor.take_str()?)
            };
            Record::Begin(seq, trace_id)
        }
        KIND_COMMIT => Record::Commit(seq),
        KIND_OPS => {
            // Dictionary delta: strings this unit assigned pids
            // base..base+n_new. A unit already covered by a snapshot
            // re-states pids the snapshot table holds — verify them;
            // a fresh unit must extend the table exactly at its end.
            let base = cursor.take_u32()?;
            let n_new = cursor.take_u32()?;
            if base > dict.len() {
                return Err(DurError::Corrupt {
                    message: format!(
                        "wal record delta starts at pid {base} beyond table of {}",
                        dict.len()
                    ),
                });
            }
            for i in 0..n_new {
                let s = cursor.take_str()?;
                let pid = base + i;
                match dict.sym_at(pid) {
                    Some(known) if known.as_str() == s => {}
                    Some(known) => {
                        return Err(DurError::Corrupt {
                            message: format!(
                                "wal record delta re-states pid {pid} as {s:?}, table holds {:?}",
                                known.as_str()
                            ),
                        })
                    }
                    None => dict.push_str(&s),
                }
            }
            let n_groups = cursor.take_u32()?;
            let mut groups = Vec::new();
            for _ in 0..n_groups {
                let kind = cursor.take_u8()?;
                let table = cursor.take_str()?;
                let n_rows = cursor.take_u32()?;
                let mut rows = Vec::new();
                for _ in 0..n_rows {
                    let row_id: RowId = cursor.take_u64()?;
                    let row = match kind {
                        GROUP_INSERT | GROUP_UPDATE => cursor.take_row(dict)?,
                        GROUP_DELETE => Vec::new(),
                        other => {
                            return Err(DurError::Corrupt {
                                message: format!("wal record holds unknown batch kind {other}"),
                            })
                        }
                    };
                    rows.push((row_id, row));
                }
                groups.push(OpGroup { kind, table, rows });
            }
            Record::Ops(seq, groups)
        }
        other => {
            return Err(DurError::Corrupt {
                message: format!("wal record holds unknown record kind {other}"),
            })
        }
    };
    if !cursor.is_exhausted() {
        return Err(DurError::Corrupt {
            message: format!("wal record carries {} trailing byte(s)", cursor.remaining()),
        });
    }
    Ok(record)
}

/// One fully committed transaction recovered from the log, kept in the
/// log's grouped shape.
pub struct CommitUnit {
    /// The commit sequence number.
    pub seq: u64,
    /// Trace id of the request that wrote the unit, if it was traced —
    /// the cross-node link a replica's apply span attaches to.
    pub trace_id: Option<String>,
    groups: Vec<OpGroup>,
}

impl CommitUnit {
    /// The transaction's logical operations, in application order,
    /// borrowed from the decoded unit — the view
    /// [`rel::Database::apply_logical`] replays.
    pub fn ops(&self) -> impl Iterator<Item = LogicalOp<'_>> {
        self.groups.iter().flat_map(|group| {
            let table = group.table.as_str();
            group
                .rows
                .iter()
                .map(move |&(row_id, ref row)| match group.kind {
                    GROUP_INSERT => LogicalOp::Insert { table, row_id, row },
                    GROUP_UPDATE => LogicalOp::Update { table, row_id, row },
                    _ => LogicalOp::Delete { table, row_id },
                })
        })
    }
}

/// Result of scanning a WAL byte stream (everything after the magic).
pub struct WalScan {
    /// Fully committed units, in log order.
    pub units: Vec<CommitUnit>,
    /// Absolute file offset (magic included) one past the last
    /// committed unit — everything beyond is a torn or uncommitted
    /// tail the caller must truncate.
    pub durable_end: u64,
}

/// Scan the record stream (the file content *after* [`WAL_MAGIC`]),
/// extending `dict` with each unit's dictionary delta as it decodes.
///
/// The scan is prefix-greedy and never fails: any malformed, torn, or
/// checksum-failing record — or a complete record that breaks the
/// `BEGIN → OPS → COMMIT` bracketing — ends the scan at the last fully
/// committed unit. That torn-tail tolerance is the crash contract; a
/// *clean* log simply scans to its end. On return `dict` holds exactly
/// the assignments of the committed units (a torn unit's delta, applied
/// while decoding its OPS record, is rolled back), so the caller can
/// adopt it as the live table for subsequent appends.
pub fn scan_records(data: &[u8], dict: &mut DictTable) -> WalScan {
    let mut units = Vec::new();
    let mut durable_end = WAL_MAGIC.len() as u64;
    let mut durable_dict_len = dict.len();
    let mut pos = 0usize;
    // The unit being assembled: (seq, trace id, groups once the OPS
    // record arrived).
    let mut pending: Option<(u64, Option<String>, Option<Vec<OpGroup>>)> = None;

    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || data.len() - pos - 8 < len as usize {
            break; // torn length prefix or torn payload
        }
        let payload = &data[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break; // bit rot or torn write inside the payload
        }
        let Ok(record) = decode_payload(payload, dict) else {
            break; // structurally invalid payload
        };
        pos += 8 + len as usize;
        match record {
            Record::Begin(seq, trace_id) => {
                // A BEGIN while a unit is pending means the previous
                // unit never committed; drop it and start over.
                pending = Some((seq, trace_id, None));
            }
            Record::Ops(seq, groups) => match &mut pending {
                Some((begin_seq, _, slot)) if *begin_seq == seq && slot.is_none() => {
                    *slot = Some(groups);
                }
                _ => break, // OPS without its BEGIN: bracketing broken
            },
            Record::Commit(seq) => match pending.take() {
                Some((begin_seq, trace_id, Some(groups))) if begin_seq == seq => {
                    units.push(CommitUnit {
                        seq,
                        trace_id,
                        groups,
                    });
                    durable_end = WAL_MAGIC.len() as u64 + pos as u64;
                    durable_dict_len = dict.len();
                }
                _ => break, // COMMIT without BEGIN+OPS: bracketing broken
            },
        }
    }
    // The table must describe the durable prefix only: an OPS record
    // whose COMMIT never made it extended the table while decoding, and
    // those pids will be reassigned by future appends.
    dict.truncate(durable_dict_len);
    WalScan { units, durable_end }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> [Vec<Value>; 3] {
        [
            vec![Value::Int(1), Value::text("A"), Value::Null],
            vec![Value::Int(2), Value::Null, Value::Null],
            vec![Value::Int(1), Value::text("B"), Value::Null],
        ]
    }

    fn sample_ops(rows: &[Vec<Value>; 3]) -> Vec<LogicalOp<'_>> {
        vec![
            LogicalOp::Insert {
                table: "team",
                row_id: 0,
                row: &rows[0],
            },
            LogicalOp::Insert {
                table: "team",
                row_id: 1,
                row: &rows[1],
            },
            LogicalOp::Update {
                table: "team",
                row_id: 0,
                row: &rows[2],
            },
            LogicalOp::Delete {
                table: "team",
                row_id: 1,
            },
        ]
    }

    #[test]
    fn commit_units_round_trip() {
        let rows = sample_rows();
        let mut wdict = DictTable::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_commit_unit(
            1,
            &sample_ops(&rows),
            &mut wdict,
            Some("abc-1-req"),
        ));
        stream.extend_from_slice(&encode_commit_unit(
            2,
            &sample_ops(&rows)[..1],
            &mut wdict,
            None,
        ));
        let mut rdict = DictTable::new();
        let scan = scan_records(&stream, &mut rdict);
        assert_eq!(scan.units.len(), 2);
        assert_eq!(scan.units[0].seq, 1);
        let ops: Vec<Vec<LogicalOp>> = scan.units.iter().map(|u| u.ops().collect()).collect();
        assert_eq!(ops[0], sample_ops(&rows));
        assert_eq!(ops[1], sample_ops(&rows)[..1]);
        assert_eq!(
            scan.durable_end,
            WAL_MAGIC.len() as u64 + stream.len() as u64
        );
        // The reader rebuilt the writer's pid table exactly.
        assert_eq!(rdict.len(), wdict.len());
        for pid in 0..wdict.len() {
            assert_eq!(rdict.sym_at(pid), wdict.sym_at(pid));
        }
    }

    #[test]
    fn repeated_strings_cross_the_log_once() {
        let rows = sample_rows();
        let mut dict = DictTable::new();
        let first = encode_commit_unit(1, &sample_ops(&rows), &mut dict, None);
        // A later unit reusing the same strings carries an empty delta
        // and fixed-width pid cells — far smaller than the first.
        let second = encode_commit_unit(2, &sample_ops(&rows), &mut dict, None);
        assert!(second.len() < first.len());
        assert_eq!(dict.len(), 2); // "A" and "B", once each
    }

    #[test]
    fn torn_tail_at_every_byte_keeps_complete_units() {
        let rows = sample_rows();
        let mut wdict = DictTable::new();
        let first = encode_commit_unit(1, &sample_ops(&rows), &mut wdict, None);
        let second = encode_commit_unit(2, &sample_ops(&rows), &mut wdict, None);
        let mut stream = first.clone();
        stream.extend_from_slice(&second);
        let intact_end = WAL_MAGIC.len() as u64 + first.len() as u64;
        for cut in first.len()..stream.len() {
            let mut rdict = DictTable::new();
            let scan = scan_records(&stream[..cut], &mut rdict);
            assert_eq!(scan.units.len(), 1, "cut at {cut}");
            assert_eq!(scan.durable_end, intact_end, "cut at {cut}");
            // Only the surviving unit's delta remains in the table.
            assert_eq!(rdict.len(), 2, "cut at {cut}");
        }
        // The uncut stream holds both.
        assert_eq!(scan_records(&stream, &mut DictTable::new()).units.len(), 2);
    }

    #[test]
    fn flipped_byte_drops_the_damaged_suffix() {
        let rows = sample_rows();
        let mut wdict = DictTable::new();
        let first = encode_commit_unit(1, &sample_ops(&rows), &mut wdict, None);
        let second = encode_commit_unit(2, &sample_ops(&rows), &mut wdict, None);
        let mut stream = first.clone();
        stream.extend_from_slice(&second);
        for flip_at in first.len()..stream.len() {
            let mut corrupted = stream.clone();
            corrupted[flip_at] ^= 0xFF;
            let scan = scan_records(&corrupted, &mut DictTable::new());
            assert_eq!(scan.units.len(), 1, "flip at {flip_at}");
            assert_eq!(scan.units[0].seq, 1);
        }
    }

    #[test]
    fn unit_without_commit_is_not_applied() {
        let rows = sample_rows();
        let full = encode_commit_unit(1, &sample_ops(&rows), &mut DictTable::new(), None);
        // Chop off the trailing COMMIT record (17 bytes: 8 header + 9
        // payload) — a complete BEGIN+OPS prefix, yet uncommitted.
        let chopped = &full[..full.len() - 17];
        let mut rdict = DictTable::new();
        let scan = scan_records(chopped, &mut rdict);
        assert!(scan.units.is_empty());
        assert_eq!(scan.durable_end, WAL_MAGIC.len() as u64);
        // The uncommitted unit's delta was rolled back with it.
        assert!(rdict.is_empty());
    }

    #[test]
    fn snapshot_covered_units_verify_against_a_seeded_table() {
        let rows = sample_rows();
        // A crash between snapshot rename and WAL truncation leaves
        // units behind whose deltas the snapshot table already covers:
        // the scan must verify, not re-extend.
        let mut wdict = DictTable::new();
        let stream = encode_commit_unit(1, &sample_ops(&rows), &mut wdict, None);
        let mut seeded = wdict.clone(); // what the snapshot would embed
        let scan = scan_records(&stream, &mut seeded);
        assert_eq!(scan.units.len(), 1);
        assert_eq!(seeded.len(), wdict.len());
        // A seeded table that *disagrees* ends the scan (corrupt tail).
        let mut wrong = DictTable::new();
        wrong.push_str("not-A");
        wrong.push_str("not-B");
        assert!(scan_records(&stream, &mut wrong).units.is_empty());
    }

    #[test]
    fn empty_transaction_encodes_and_scans() {
        let unit = encode_commit_unit(7, &[], &mut DictTable::new(), None);
        let scan = scan_records(&unit, &mut DictTable::new());
        assert_eq!(scan.units.len(), 1);
        assert_eq!(scan.units[0].ops().count(), 0);
    }
}
