//! The database: schema + storage + transactional row operations with
//! immediate constraint checking.
//!
//! The paper's Algorithm 1 (§5.1) relies on a specific RDB behaviour:
//! *"existing RDB systems check constraints such as referential integrity
//! already during a transaction"*. This engine reproduces that — every
//! row operation checks all constraints immediately, so the order in
//! which translated statements execute matters, exactly as in the paper.

use crate::error::{RelError, RelResult};
use crate::schema::{Schema, Table};
use crate::storage::{EqIndex, RowId, TableData};
use crate::value::{IndexKey, SqlType, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

// Outcome of converting an equality-probe value into an index key for a
// column of a given type.
enum ProbeKey {
    /// Exact-match key for the column's index.
    Key(IndexKey),
    /// SQL equality can never hold (NULL probe or incompatible types).
    NoMatch,
    /// Index keys cannot express SQL equality for this column (DOUBLE
    /// columns may store Int values whose keys differ from equal
    /// doubles').
    Unsupported,
}

fn probe_key(ty: SqlType, value: &Value) -> ProbeKey {
    match (ty, value) {
        (SqlType::Double, _) => ProbeKey::Unsupported,
        (_, Value::Null) => ProbeKey::NoMatch,
        (SqlType::Integer, Value::Int(i)) => ProbeKey::Key(IndexKey::Int(*i)),
        (SqlType::Integer, Value::Double(d)) => {
            // 2.0 = 2 holds in SQL; 2.5 matches no integer. Above 2^53
            // a double aliases several sql_eq-equal integers (eval
            // casts Int to f64), so exact-key lookup is unsound there —
            // fall back to scanning.
            if d.abs() >= 9_007_199_254_740_992.0 {
                ProbeKey::Unsupported
            } else if d.fract() == 0.0 {
                ProbeKey::Key(IndexKey::Int(*d as i64))
            } else {
                ProbeKey::NoMatch
            }
        }
        (SqlType::Varchar, Value::Text(s)) => ProbeKey::Key(IndexKey::Text(*s)),
        (SqlType::Boolean, Value::Bool(b)) => ProbeKey::Key(IndexKey::Bool(*b)),
        // Remaining combinations compare unequal-typed non-null values:
        // SQL equality is FALSE.
        _ => ProbeKey::NoMatch,
    }
}

// Whether `column` is the table's whole (single-column) primary key.
fn single_column_pk(table: &Table, column: &str) -> bool {
    table.primary_key.len() == 1 && table.primary_key[0] == column
}

// Equality probes on one column: its type and the index answering
// them (see `Database::column_probe`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnProbe<'a> {
    ty: SqlType,
    index: Option<EqIndex<'a>>,
}

impl<'a> ColumnProbe<'a> {
    // [`Database::index_probe_ids`] of one value: `None` when the index
    // cannot answer it.
    pub(crate) fn ids(&self, value: &Value) -> Option<ProbeIds<'a>> {
        match probe_key(self.ty, value) {
            ProbeKey::Unsupported => None,
            ProbeKey::NoMatch => Some(ProbeIds::Many(&[])),
            ProbeKey::Key(key) => self.index.map(|index| index.ids(&key)),
        }
    }
}

/// Matching row ids of an index probe, borrowed from the index (see
/// [`Database::index_probe_ids`]).
#[derive(Debug, Clone, Copy)]
pub enum ProbeIds<'a> {
    /// Answered by a PK or UNIQUE index: at most one row.
    Unique(Option<RowId>),
    /// Answered by a secondary index: ascending id list.
    Many(&'a [RowId]),
}

impl ProbeIds<'_> {
    // The ids as one ascending slice.
    pub(crate) fn as_slice(&self) -> &[RowId] {
        match self {
            ProbeIds::Unique(id) => id.as_slice(),
            ProbeIds::Many(ids) => ids,
        }
    }
}

// The slot of `column` in the rows of `t`.
pub(crate) fn column_slot(t: &Table, column: &str) -> RelResult<usize> {
    t.column_index(column)
        .ok_or_else(|| RelError::NoSuchColumn {
            table: t.name.clone(),
            column: column.to_owned(),
        })
}

// The slots of the columns a `statement` assigns. A repeated column
// would make later values silently win; reject it instead of picking
// one (real RDBs error here too).
pub(crate) fn assigned_slots<'n>(
    t: &Table,
    columns: impl IntoIterator<Item = &'n String>,
    statement: &str,
) -> RelResult<Vec<usize>> {
    let columns = columns.into_iter();
    let mut slots = Vec::with_capacity(columns.size_hint().0);
    for name in columns {
        let slot = column_slot(t, name)?;
        if slots.contains(&slot) {
            return Err(RelError::Execution {
                message: format!("{statement} {:?} names column {name:?} twice", t.name),
            });
        }
        slots.push(slot);
    }
    Ok(slots)
}

/// Redo-log entry: one row operation the open transaction applied, kept
/// for the commit-time [`LogicalOp`] stream durability appends to its
/// write-ahead log.
#[derive(Debug, Clone)]
enum RedoOp {
    Insert {
        table: String,
        row_id: RowId,
        row: Vec<Value>,
    },
    Update {
        table: String,
        row_id: RowId,
        row: Vec<Value>,
    },
    Delete {
        table: String,
        row_id: RowId,
    },
}

impl RedoOp {
    // The owned entry of an applied operation.
    fn of(op: LogicalOp<'_>) -> Self {
        match op {
            LogicalOp::Insert { table, row_id, row } => RedoOp::Insert {
                table: table.to_owned(),
                row_id,
                row: row.to_vec(),
            },
            LogicalOp::Update { table, row_id, row } => RedoOp::Update {
                table: table.to_owned(),
                row_id,
                row: row.to_vec(),
            },
            LogicalOp::Delete { table, row_id } => RedoOp::Delete {
                table: table.to_owned(),
                row_id,
            },
        }
    }

    // The view of this log entry, borrowed from it.
    fn view(&self) -> LogicalOp<'_> {
        match self {
            RedoOp::Insert { table, row_id, row } => LogicalOp::Insert {
                table,
                row_id: *row_id,
                row,
            },
            RedoOp::Update { table, row_id, row } => LogicalOp::Update {
                table,
                row_id: *row_id,
                row,
            },
            RedoOp::Delete { table, row_id } => LogicalOp::Delete {
                table,
                row_id: *row_id,
            },
        }
    }
}

/// One logical row operation a committed transaction applied, in
/// application order.
///
/// This is the redo form a durability layer persists: replaying the
/// stream with [`Database::apply_logical`] against the pre-transaction
/// state reproduces the post-commit heap and indexes byte-identically
/// (row ids included). It is a view: [`Database::txn_ops`] borrows it
/// from the transaction's redo log, a decoded WAL unit from its own
/// rows, so the stream is never copied into a second owned shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogicalOp<'a> {
    /// A row was inserted under `row_id` with the given values.
    Insert {
        /// Target table.
        table: &'a str,
        /// The id storage assigned.
        row_id: RowId,
        /// Full row values in column order.
        row: &'a [Value],
    },
    /// The row `row_id` now holds the given values.
    Update {
        /// Target table.
        table: &'a str,
        /// The updated row's id.
        row_id: RowId,
        /// Full new row values in column order.
        row: &'a [Value],
    },
    /// The row `row_id` was deleted.
    Delete {
        /// Target table.
        table: &'a str,
        /// The deleted row's id.
        row_id: RowId,
    },
}

// Every table's storage, by name, behind one `Arc`: a snapshot — a
// published version or a rollback point — is one reference-count bump,
// and the first write after it copies the map, which is
// O(tables + indexes) `Arc` bumps (see [`crate::storage`]).
type Tables = Arc<BTreeMap<String, TableData>>;

fn no_open_transaction() -> RelError {
    RelError::Transaction {
        message: "no open transaction".into(),
    }
}

/// An in-memory relational database.
///
/// Row operations ([`Database::insert`], [`Database::update_row`],
/// [`Database::delete_row`]) enforce every declared constraint before
/// mutating storage. A rollback point is a clone you keep: cloning is
/// one reference-count bump per table map, writes to the clone never
/// reach the original, and putting the kept clone back — or dropping
/// the written one — undoes everything, heap, indexes and row-id
/// allocators alike. That gives the paper's §5.1 atomicity ("within
/// the context of one database transaction").
/// [`Database::begin`]/[`Database::commit`] bracket the redo log
/// [`Database::txn_ops`] reads, the logical row operations a
/// durability layer persists.
#[derive(Debug, Clone)]
pub struct Database {
    // Arc-shared: the schema is immutable after validation, and sharing
    // it keeps `Database::clone` — the per-commit version publish — at
    // two reference-count bumps instead of a deep schema copy.
    schema: Arc<Schema>,
    data: Tables,
    // The open transaction's redo log: the row operations applied since
    // `begin`, in order. `None` outside a transaction.
    txn: Option<Vec<RedoOp>>,
}

impl Database {
    /// Create a database for a validated schema.
    pub fn new(schema: Schema) -> RelResult<Self> {
        schema.validate()?;
        let data = schema
            .tables()
            .map(|t| (t.name.clone(), TableData::for_table(t)))
            .collect();
        Ok(Database {
            schema: Arc::new(schema),
            data: Arc::new(data),
            txn: None,
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    // The shared schema, for a statement that reads table definitions
    // while it mutates rows: a reference-count bump, never a copy.
    pub(crate) fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> RelResult<usize> {
        self.schema.table(table)?;
        Ok(self.data[table].len())
    }

    /// Iterate `(row_id, row)` of `table`.
    pub fn scan(&self, table: &str) -> RelResult<impl Iterator<Item = (RowId, &Vec<Value>)>> {
        self.schema.table(table)?;
        Ok(self.data[table].scan())
    }

    /// Fetch one row by id.
    pub fn row(&self, table: &str, row_id: RowId) -> RelResult<Option<&Vec<Value>>> {
        self.schema.table(table)?;
        Ok(self.data[table].row(row_id))
    }

    /// Whether equality lookups on `table.column` can be answered from
    /// an index (single-column PK, UNIQUE, or secondary hash index) with
    /// SQL equality semantics. DOUBLE columns are excluded: they may
    /// store integer values, whose index keys differ from the equal
    /// doubles'.
    pub fn supports_index_probe(&self, table: &str, column: &str) -> RelResult<bool> {
        Ok(self.index_distinct_keys(table, column)?.is_some())
    }

    /// Distinct non-NULL keys of the index answering equality probes on
    /// `table.column` — the planner's fan-out statistic (rows ÷ distinct
    /// keys). A single-column PK counts every row as its own key.
    /// `None` exactly when [`Database::supports_index_probe`] is false.
    /// O(1): storage maintains every count.
    pub fn index_distinct_keys(&self, table: &str, column: &str) -> RelResult<Option<usize>> {
        let t = self.schema.table(table)?;
        let Some(col) = t.column(column) else {
            return Ok(None);
        };
        if col.ty == crate::value::SqlType::Double {
            return Ok(None);
        }
        let data = &self.data[table];
        if single_column_pk(t, column) {
            return Ok(Some(data.len()));
        }
        Ok(data.index_key_count(column))
    }

    /// Row ids whose `column` equals `value` under SQL equality,
    /// answered from the best available index (ascending row-id order).
    /// `Ok(None)` means no index covers the column (callers fall back to
    /// a scan); `Ok(Some(vec![]))` means the lookup ran and matched
    /// nothing — including `value` being NULL, which equals no row.
    pub fn index_probe(
        &self,
        table: &str,
        column: &str,
        value: &Value,
    ) -> RelResult<Option<Vec<RowId>>> {
        Ok(self
            .index_probe_ids(table, column, value)?
            .map(|ids| ids.as_slice().to_vec()))
    }

    /// Borrowed-result variant of [`Database::index_probe`] for hot
    /// paths (the planner's index nested loop calls this once per outer
    /// row): same semantics, ids borrowed from the index instead of
    /// collected. Probing a VARCHAR column still clones the text to
    /// build its index key; Integer/Boolean probes — the shapes the
    /// SPARQL translation emits — do not allocate.
    pub fn index_probe_ids(
        &self,
        table: &str,
        column: &str,
        value: &Value,
    ) -> RelResult<Option<ProbeIds<'_>>> {
        Ok(self.column_probe(table, column)?.ids(value))
    }

    // The index answering equality probes on `table.column`, resolved
    // once for any number of probes.
    pub(crate) fn column_probe(&self, table: &str, column: &str) -> RelResult<ColumnProbe<'_>> {
        let t = self.schema.table(table)?;
        Ok(self.slot_probe(t, column_slot(t, column)?))
    }

    // `column_probe` of column `slot` of `t`, a table of this database.
    pub(crate) fn slot_probe(&self, t: &Table, slot: usize) -> ColumnProbe<'_> {
        let column = &t.columns[slot];
        ColumnProbe {
            ty: column.ty,
            index: self.data[&t.name].eq_index(t, &column.name),
        }
    }

    // The storage of `table`, for a reader that resolves it once and
    // then fetches rows by id.
    pub(crate) fn table_data(&self, table: &str) -> RelResult<&TableData> {
        self.schema.table(table)?;
        Ok(&self.data[table])
    }

    /// Find a row by primary key values (in PK column order).
    pub fn find_by_pk(&self, table: &str, key: &[Value]) -> RelResult<Option<RowId>> {
        let t = self.schema.table(table)?;
        if key.len() != t.primary_key.len() {
            return Err(RelError::Execution {
                message: format!(
                    "primary key of {table} has {} column(s), {} value(s) given",
                    t.primary_key.len(),
                    key.len()
                ),
            });
        }
        let data = &self.data[table];
        Ok(match key {
            [only] => data.find_by_pk(&[only.index_key()]),
            _ => data.find_by_pk(&key.iter().map(Value::index_key).collect::<Vec<_>>()),
        })
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction: start its redo log. There is no nested
    /// scope, and no rollback here — keep a clone for that. Errors if
    /// one is already open.
    pub fn begin(&mut self) -> RelResult<()> {
        if self.txn.is_some() {
            return Err(RelError::Transaction {
                message: "transaction already open".into(),
            });
        }
        self.txn = Some(Vec::new());
        Ok(())
    }

    /// Commit the open transaction: end its redo log.
    pub fn commit(&mut self) -> RelResult<()> {
        self.txn.take().map(drop).ok_or_else(no_open_transaction)
    }

    /// The logical row operations the open transaction has applied so
    /// far, in application order, borrowed from its redo log. The log
    /// only grows until the transaction ends, so at commit this is
    /// exactly what a durability layer must replay. A durability layer
    /// appends these to its log *before* it publishes the database, so
    /// a failed append leaves nothing to undo.
    pub fn txn_ops(&self) -> RelResult<Vec<LogicalOp<'_>>> {
        Ok(self.redo_log()?.iter().map(RedoOp::view).collect())
    }

    /// Whether the open transaction has applied any row operation
    /// (inspects the redo log's length). Errors if no transaction is
    /// open.
    pub fn txn_has_changes(&self) -> RelResult<bool> {
        Ok(!self.redo_log()?.is_empty())
    }

    // The redo log; the error is built only when there is none, so
    // the commit path allocates nothing for it.
    fn redo_log(&self) -> RelResult<&[RedoOp]> {
        self.txn.as_deref().ok_or_else(no_open_transaction)
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    // The storage of `table` for writing. The first write after a
    // snapshot copies the table map (see `Tables`).
    fn table_mut(&mut self, table: &str) -> &mut TableData {
        Arc::make_mut(&mut self.data)
            .get_mut(table)
            .expect("schema table has storage")
    }

    fn log(&mut self, op: RedoOp) {
        if let Some(log) = &mut self.txn {
            log.push(op);
        }
    }

    // ------------------------------------------------------------------
    // Durability support: logical replay and snapshot access
    // ------------------------------------------------------------------

    /// Re-apply one committed logical operation, **bypassing constraint
    /// checking** and forcing the recorded row id. Recovery support:
    /// the operation was constraint-checked when it originally ran, so
    /// replaying the commit stream of [`Database::txn_ops`] against the
    /// pre-transaction state reproduces the post-commit heap and
    /// indexes byte-identically. Replayed inserts advance the table's
    /// row-id allocator past the recorded id, so rows inserted after
    /// recovery get the same ids the un-crashed run would have
    /// assigned.
    ///
    /// Not constraint-checked — never feed this user input. Only the
    /// shape the storage relies on is checked, before anything changes:
    /// a row must fill its table's columns, an insert must land on a
    /// free row id, and an update or delete on a stored one.
    pub fn apply_logical(&mut self, op: LogicalOp<'_>) -> RelResult<()> {
        let schema = self.shared_schema();
        let (table, row_id) = match op {
            LogicalOp::Insert { table, row_id, .. }
            | LogicalOp::Update { table, row_id, .. }
            | LogicalOp::Delete { table, row_id } => (table, row_id),
        };
        let t = schema.table(table)?;
        let data = self.table_mut(table);
        let replay_error = |message: String| RelError::Execution {
            message: format!("replayed {message} in {table}"),
        };
        if let LogicalOp::Insert { row, .. } | LogicalOp::Update { row, .. } = op {
            if row.len() != t.columns.len() {
                return Err(replay_error(format!(
                    "row {row_id} has {} value(s) for {} column(s)",
                    row.len(),
                    t.columns.len()
                )));
            }
        }
        match op {
            LogicalOp::Insert { row, .. } => {
                if data.row(row_id).is_some() {
                    return Err(replay_error(format!("insert at occupied row {row_id}")));
                }
                data.insert_at_unchecked(t, row_id, row.to_vec());
            }
            LogicalOp::Update { row, .. } => {
                data.update_unchecked(t, row_id, row.to_vec())
                    .ok_or_else(|| replay_error(format!("update of missing row {row_id}")))?;
            }
            LogicalOp::Delete { .. } => {
                data.delete_unchecked(t, row_id)
                    .ok_or_else(|| replay_error(format!("delete of missing row {row_id}")))?;
            }
        }
        if self.txn.is_some() {
            self.log(RedoOp::of(op));
        }
        Ok(())
    }

    /// The id the next insert into `table` will be assigned (snapshot
    /// state: deletes at the tail leave it above `max(id) + 1`).
    pub fn next_row_id(&self, table: &str) -> RelResult<RowId> {
        self.schema.table(table)?;
        Ok(self.data[table].next_row_id())
    }

    /// Force `table`'s row-id allocator (snapshot restore support; see
    /// [`Database::apply_logical`] for the replay counterpart). Never
    /// lowers the allocator below what stored rows require.
    pub fn set_next_row_id(&mut self, table: &str, next: RowId) -> RelResult<()> {
        self.schema.table(table)?;
        self.table_mut(table).set_next_row_id(next);
        Ok(())
    }

    /// Columns of `table` carrying a secondary (non-unique) hash index,
    /// in sorted order: the schema's non-covered, probeable foreign-key
    /// columns (see [`TableData::for_table`]). The set never changes at
    /// run time.
    pub fn secondary_index_columns(&self, table: &str) -> RelResult<Vec<String>> {
        self.schema.table(table)?;
        Ok(self.data[table].secondary_index_columns())
    }

    // ------------------------------------------------------------------
    // Row operations (constraint-checked)
    // ------------------------------------------------------------------

    /// Insert a row given `(column, value)` pairs; omitted columns take
    /// their DEFAULT or NULL. All constraints are checked immediately.
    pub fn insert(&mut self, table: &str, assignments: &[(String, Value)]) -> RelResult<RowId> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        for (name, _) in assignments {
            if t.column_index(name).is_none() {
                return Err(RelError::NoSuchColumn {
                    table: table.to_owned(),
                    column: name.clone(),
                });
            }
        }
        let mut row: Vec<Value> = Vec::with_capacity(t.columns.len());
        for column in &t.columns {
            let assigned = assignments
                .iter()
                .find(|(name, _)| name == &column.name)
                .map(|(_, v)| *v);
            let mut value = match assigned {
                Some(v) => v,
                None => column.default.unwrap_or(Value::Null),
            };
            if value.is_null() && column.auto_increment {
                value = Value::Int(self.next_auto_value(table, &column.name));
            }
            row.push(value);
        }
        self.insert_prepared(t, row)
    }

    /// Bulk entry point: insert many rows sharing one column list (the
    /// multi-row `INSERT … VALUES (…), (…)` of the set-based write
    /// pipeline). The table is resolved and the column list validated
    /// once for the whole group; auto-increment values are allocated
    /// from one batch counter instead of a per-row column scan. Each row
    /// is still constraint-checked immediately, in order, so a failing
    /// row aborts with earlier rows applied — run inside a transaction
    /// (as [`crate::sql::execute`] callers do) for atomicity. Returns
    /// the number of rows inserted.
    pub fn insert_many(
        &mut self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Value>],
    ) -> RelResult<usize> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        let indices = assigned_slots(t, columns, "INSERT into")?;
        // Batch-local auto-increment counters: next value per column,
        // seeded once and advanced past every value this batch assigns
        // — equivalent to recomputing max+1 per row.
        let mut auto_next: BTreeMap<usize, i64> = BTreeMap::new();
        for (i, column) in t.columns.iter().enumerate() {
            if column.auto_increment {
                auto_next.insert(i, self.next_auto_value(table, &column.name));
            }
        }
        for values in rows {
            if values.len() != columns.len() {
                return Err(RelError::Execution {
                    message: format!(
                        "INSERT into {table:?} has {} column(s) but a row with {} value(s)",
                        columns.len(),
                        values.len()
                    ),
                });
            }
            let mut row: Vec<Value> = t
                .columns
                .iter()
                .map(|c| c.default.unwrap_or(Value::Null))
                .collect();
            for (&idx, value) in indices.iter().zip(values) {
                row[idx] = *value;
            }
            for (&idx, next) in &mut auto_next {
                match &row[idx] {
                    Value::Null => {
                        row[idx] = Value::Int(*next);
                        *next += 1;
                    }
                    Value::Int(explicit) => *next = (*next).max(explicit + 1),
                    _ => {} // non-integer: the type check below rejects it
                }
            }
            self.insert_prepared(t, row)?;
        }
        Ok(rows.len())
    }

    // Constraint-check and store one fully materialized row of `t`.
    fn insert_prepared(&mut self, t: &Table, row: Vec<Value>) -> RelResult<RowId> {
        self.check_row_constraints(t, &row, None)?;
        // The redo log needs the inserted values; clone only when a
        // transaction is actually logging.
        let logged = self.txn.is_some().then(|| row.clone());
        let row_id = self.table_mut(&t.name).insert_unchecked(t, row);
        if let Some(row) = logged {
            self.log(RedoOp::Insert {
                table: t.name.clone(),
                row_id,
                row,
            });
        }
        Ok(row_id)
    }

    /// Apply `(column, value)` assignments to an existing row. All
    /// constraints are re-checked, including RESTRICT when a referenced
    /// key changes. The names resolve once, as an UPDATE's SET targets
    /// do: a repeated column is an error.
    pub fn update_row(
        &mut self,
        table: &str,
        row_id: RowId,
        assignments: &[(String, Value)],
    ) -> RelResult<()> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        let columns = assigned_slots(t, assignments.iter().map(|(name, _)| name), "UPDATE")?;
        let values: Vec<Value> = assignments.iter().map(|(_, value)| *value).collect();
        self.update_prepared(t, row_id, &columns, &values)
    }

    // Bulk entry point of UPDATE and the grouped `UPDATE … BY … SET …
    // VALUES`: assign to the `columns` slots of each of `row_ids` the
    // next `columns.len()` of `values`, row after row. The table is
    // resolved once for the whole group; rows are updated in order with
    // the same immediate constraint checking as `update_row`, so a
    // failing row aborts with earlier rows applied — run inside a
    // transaction for atomicity. Returns the number of rows updated.
    // Panics if `values` does not hold one value per column and row.
    pub(crate) fn update_rows(
        &mut self,
        table: &str,
        columns: &[usize],
        row_ids: &[RowId],
        values: &[Value],
    ) -> RelResult<usize> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        let width = columns.len();
        assert_eq!(
            values.len(),
            row_ids.len() * width,
            "one value per column and row"
        );
        for (i, &row_id) in row_ids.iter().enumerate() {
            self.update_prepared(t, row_id, columns, &values[i * width..(i + 1) * width])?;
        }
        Ok(row_ids.len())
    }

    fn update_prepared(
        &mut self,
        t: &Table,
        row_id: RowId,
        columns: &[usize],
        values: &[Value],
    ) -> RelResult<()> {
        let old = self.data[&t.name]
            .row(row_id)
            .ok_or_else(|| RelError::Execution {
                message: format!("no row {row_id} in {}", t.name),
            })?;
        let mut new_row = old.clone();
        for (&slot, value) in columns.iter().zip(values) {
            new_row[slot] = *value;
        }
        if &new_row == old {
            return Ok(());
        }
        // Re-check only what the update can invalidate: columns whose
        // values changed (an unchanged FK still points at a parent that
        // RESTRICT protects; an unchanged key cannot newly collide —
        // any other row taking it would have failed its own check).
        // CHECK constraints span columns and are re-evaluated whole.
        let changed: Vec<usize> = (0..new_row.len())
            .filter(|&i| new_row[i] != old[i])
            .collect();
        self.check_row_constraints_changed(t, &new_row, Some(row_id), &changed)?;
        // If a key other rows reference changes, enforce RESTRICT.
        self.check_restrict_on_key_change(t, old, &new_row)?;
        let logged = self.txn.is_some().then(|| new_row.clone());
        self.table_mut(&t.name).update_unchecked(t, row_id, new_row);
        if let Some(row) = logged {
            self.log(RedoOp::Update {
                table: t.name.clone(),
                row_id,
                row,
            });
        }
        Ok(())
    }

    /// Delete a row. Errors with RESTRICT if other rows reference it.
    pub fn delete_row(&mut self, table: &str, row_id: RowId) -> RelResult<()> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        self.delete_prepared(t, row_id)
    }

    /// Bulk entry point: delete many rows of one table (the rows a
    /// DELETE's WHERE clause matched). The table is resolved once;
    /// rows are deleted in order with the same immediate
    /// RESTRICT checking as [`Database::delete_row`], so a failing row
    /// aborts with earlier rows applied — run inside a transaction for
    /// atomicity. Returns the number of rows deleted.
    pub fn delete_rows(&mut self, table: &str, row_ids: &[RowId]) -> RelResult<usize> {
        let schema = self.shared_schema();
        let t = schema.table(table)?;
        for &row_id in row_ids {
            self.delete_prepared(t, row_id)?;
        }
        Ok(row_ids.len())
    }

    fn delete_prepared(&mut self, t: &Table, row_id: RowId) -> RelResult<()> {
        let row = self.data[&t.name]
            .row(row_id)
            .ok_or_else(|| RelError::Execution {
                message: format!("no row {row_id} in {}", t.name),
            })?;
        self.check_restrict(t, row)?;
        self.table_mut(&t.name)
            .delete_unchecked(t, row_id)
            .expect("row read above");
        self.log(RedoOp::Delete {
            table: t.name.clone(),
            row_id,
        });
        Ok(())
    }

    // Next AUTO_INCREMENT value: max(existing) + 1, starting at 1 —
    // always correct across rollbacks and deletes (a true counter would
    // leak values). When the column is the single-column primary key
    // (the schema's only shape) the max is the ordered PK index's last
    // key, O(log n); any other auto column scans.
    fn next_auto_value(&self, table: &str, column: &str) -> i64 {
        let t = self.schema.table(table).expect("caller verified table");
        if single_column_pk(t, column) {
            return match self.data[table].max_pk() {
                Some([IndexKey::Int(max)]) => max + 1,
                _ => 1,
            };
        }
        let idx = t.column_index(column).expect("caller verified column");
        self.data[table]
            .scan()
            .filter_map(|(_, row)| match &row[idx] {
                Value::Int(i) => Some(*i),
                _ => None,
            })
            .max()
            .map_or(1, |m| m + 1)
    }

    // ------------------------------------------------------------------
    // Constraint checking
    // ------------------------------------------------------------------

    // `exclude` is the row being updated (so it doesn't collide with
    // itself in uniqueness checks).
    fn check_row_constraints(
        &self,
        table: &Table,
        row: &[Value],
        exclude: Option<RowId>,
    ) -> RelResult<()> {
        let all: Vec<usize> = (0..row.len()).collect();
        self.check_row_constraints_changed(table, row, exclude, &all)
    }

    // Constraint check restricted to the columns listed in `changed`
    // (inserts pass every column). Column-local checks (type, NOT NULL,
    // UNIQUE, FK) only fire for changed columns; PK uniqueness only
    // when a key column changed; CHECK predicates span columns and are
    // always re-evaluated whole.
    fn check_row_constraints_changed(
        &self,
        table: &Table,
        row: &[Value],
        exclude: Option<RowId>,
        changed: &[usize],
    ) -> RelResult<()> {
        // Types and NOT NULL.
        for &i in changed {
            let column = &table.columns[i];
            let value = &row[i];
            if value.is_null() {
                if column.not_null || table.is_primary_key(&column.name) {
                    return Err(RelError::NotNullViolation {
                        table: table.name.clone(),
                        column: column.name.clone(),
                    });
                }
                continue;
            }
            if !value.fits(column.ty) {
                return Err(RelError::TypeMismatch {
                    table: table.name.clone(),
                    column: column.name.clone(),
                    expected: column.ty.to_string(),
                    value: *value,
                });
            }
        }
        // Primary key uniqueness.
        let pk_changed = table.primary_key.iter().any(|name| {
            let i = table
                .column_index(name)
                .expect("validated: PK column exists");
            changed.contains(&i)
        });
        if pk_changed {
            let key = TableData::pk_key(table, row);
            if let Some(existing) = self.data[&table.name].find_by_pk(&key) {
                if Some(existing) != exclude {
                    let rendered: Vec<String> = table
                        .primary_key_indices()
                        .iter()
                        .map(|&i| row[i].to_string())
                        .collect();
                    return Err(RelError::PrimaryKeyViolation {
                        table: table.name.clone(),
                        key: format!("({})", rendered.join(", ")),
                    });
                }
            }
        }
        // Unique columns.
        for &i in changed {
            let column = &table.columns[i];
            if column.unique && !row[i].is_null() {
                if let Some(existing) =
                    self.data[&table.name].find_by_unique(&column.name, &row[i].index_key())
                {
                    if Some(existing) != exclude {
                        return Err(RelError::UniqueViolation {
                            table: table.name.clone(),
                            column: column.name.clone(),
                            value: row[i],
                        });
                    }
                }
            }
        }
        // CHECK constraints (NULL result passes, as in SQL).
        for check in &table.checks {
            if let Value::Bool(false) = crate::sql::exec::eval_on_row(&check.predicate, table, row)?
            {
                return Err(RelError::CheckViolation {
                    table: table.name.clone(),
                    name: check.name.clone(),
                    predicate: check.predicate.to_string(),
                });
            }
        }
        // Foreign keys (NULL references are permitted, as in SQL).
        for fk in &table.foreign_keys {
            let i = table
                .column_index(&fk.column)
                .expect("validated schema: FK column exists");
            if !changed.contains(&i) {
                continue;
            }
            let value = &row[i];
            if value.is_null() {
                continue;
            }
            if !self.reference_exists(fk.ref_table.as_str(), fk.ref_column.as_str(), value)? {
                return Err(RelError::ForeignKeyViolation {
                    table: table.name.clone(),
                    column: fk.column.clone(),
                    ref_table: fk.ref_table.clone(),
                    value: *value,
                });
            }
        }
        Ok(())
    }

    fn reference_exists(
        &self,
        ref_table: &str,
        ref_column: &str,
        value: &Value,
    ) -> RelResult<bool> {
        let target = self.schema.table(ref_table)?;
        let data = &self.data[ref_table];
        // Fast path: FK targets the primary key (the use-case shape) …
        if target.primary_key.len() == 1 && target.primary_key[0] == ref_column {
            return Ok(data.find_by_pk(&[value.index_key()]).is_some());
        }
        // … or a unique column with an index.
        if target.column(ref_column).is_some_and(|c| c.unique) {
            return Ok(data
                .find_by_unique(ref_column, &value.index_key())
                .is_some());
        }
        // Schema validation guarantees one of the above.
        unreachable!("FK target is PK or unique (validated)")
    }

    // RESTRICT: nothing may still reference `row` of `table`.
    fn check_restrict(&self, table: &Table, row: &[Value]) -> RelResult<()> {
        for other in self.schema.tables() {
            for fk in &other.foreign_keys {
                if fk.ref_table != table.name {
                    continue;
                }
                let ref_i = table
                    .column_index(&fk.ref_column)
                    .expect("validated schema");
                let referenced_value = &row[ref_i];
                if referenced_value.is_null() {
                    continue;
                }
                let col_i = other.column_index(&fk.column).expect("validated schema");
                // FK columns are auto-indexed, so this is a hash lookup;
                // the scan remains as the fallback for exotic schemas.
                let referencing =
                    match self.index_probe(&other.name, &fk.column, referenced_value)? {
                        Some(ids) => !ids.is_empty(),
                        None => self.data[&other.name]
                            .scan()
                            .any(|(_, r)| r[col_i].sql_eq(referenced_value) == Some(true)),
                    };
                if referencing {
                    return Err(RelError::RestrictViolation {
                        table: table.name.clone(),
                        referencing_table: other.name.clone(),
                        referencing_column: fk.column.clone(),
                        value: *referenced_value,
                    });
                }
            }
        }
        Ok(())
    }

    fn check_restrict_on_key_change(
        &self,
        table: &Table,
        old: &[Value],
        new: &[Value],
    ) -> RelResult<()> {
        // Only keys that can be referenced matter: PK and unique columns.
        let mut changed_referencable = false;
        for (i, column) in table.columns.iter().enumerate() {
            let referencable = table.is_primary_key(&column.name) || column.unique;
            if referencable && old[i] != new[i] {
                changed_referencable = true;
                break;
            }
        }
        if changed_referencable {
            self.check_restrict(table, old)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Table};
    use crate::value::SqlType;

    fn db() -> Database {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("team")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("name", SqlType::Varchar))
                    .column(Column::new("code", SqlType::Varchar).unique())
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        schema
            .add_table(
                Table::builder("author")
                    .column(Column::new("id", SqlType::Integer).not_null())
                    .column(Column::new("lastname", SqlType::Varchar).not_null())
                    .column(Column::new("rank", SqlType::Integer).default_value(Value::Int(0)))
                    .column(Column::new("team", SqlType::Integer))
                    .primary_key(&["id"])
                    .foreign_key("team", "team", "id")
                    .build(),
            )
            .unwrap();
        Database::new(schema).unwrap()
    }

    fn a(name: &str, v: Value) -> (String, Value) {
        (name.to_owned(), v)
    }

    #[test]
    fn insert_applies_defaults_and_nulls() {
        let mut d = db();
        d.insert(
            "team",
            &[a("id", Value::Int(5)), a("name", Value::text("SEAL"))],
        )
        .unwrap();
        let rid = d
            .insert(
                "author",
                &[a("id", Value::Int(1)), a("lastname", Value::text("Hert"))],
            )
            .unwrap();
        let row = d.row("author", rid).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(0)); // default rank
        assert_eq!(row[3], Value::Null); // nullable team
    }

    #[test]
    fn not_null_enforced() {
        let mut d = db();
        let err = d.insert("author", &[a("id", Value::Int(1))]).unwrap_err();
        assert!(
            matches!(err, RelError::NotNullViolation { ref column, .. } if column == "lastname")
        );
    }

    #[test]
    fn pk_is_implicitly_not_null() {
        let mut d = db();
        let err = d
            .insert("author", &[a("lastname", Value::text("x"))])
            .unwrap_err();
        assert!(matches!(err, RelError::NotNullViolation { ref column, .. } if column == "id"));
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(1))]).unwrap();
        let err = d.insert("team", &[a("id", Value::Int(1))]).unwrap_err();
        assert!(matches!(err, RelError::PrimaryKeyViolation { .. }));
    }

    #[test]
    fn unique_enforced_but_ignores_nulls() {
        let mut d = db();
        d.insert(
            "team",
            &[a("id", Value::Int(1)), a("code", Value::text("X"))],
        )
        .unwrap();
        let err = d
            .insert(
                "team",
                &[a("id", Value::Int(2)), a("code", Value::text("X"))],
            )
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
        // Multiple NULLs allowed.
        d.insert("team", &[a("id", Value::Int(3))]).unwrap();
        d.insert("team", &[a("id", Value::Int(4))]).unwrap();
    }

    #[test]
    fn foreign_key_checked_immediately() {
        let mut d = db();
        // Paper §5.1: inserting the author before its team must fail,
        // which is why Algorithm 1 sorts statements.
        let err = d
            .insert(
                "author",
                &[
                    a("id", Value::Int(6)),
                    a("lastname", Value::text("Hert")),
                    a("team", Value::Int(5)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RelError::ForeignKeyViolation { .. }));
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        d.insert(
            "author",
            &[
                a("id", Value::Int(6)),
                a("lastname", Value::text("Hert")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
    }

    #[test]
    fn null_fk_allowed() {
        let mut d = db();
        d.insert(
            "author",
            &[a("id", Value::Int(1)), a("lastname", Value::text("x"))],
        )
        .unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut d = db();
        let err = d
            .insert("team", &[a("id", Value::text("one"))])
            .unwrap_err();
        assert!(matches!(err, RelError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_column_rejected() {
        let mut d = db();
        let err = d
            .insert("team", &[a("id", Value::Int(1)), a("bogus", Value::Int(2))])
            .unwrap_err();
        assert!(matches!(err, RelError::NoSuchColumn { .. }));
    }

    #[test]
    fn update_row_rechecks_constraints() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        let rid = d
            .insert(
                "author",
                &[a("id", Value::Int(1)), a("lastname", Value::text("Hert"))],
            )
            .unwrap();
        // Valid FK update.
        d.update_row("author", rid, &[a("team", Value::Int(5))])
            .unwrap();
        // Invalid FK update.
        let err = d
            .update_row("author", rid, &[a("team", Value::Int(99))])
            .unwrap_err();
        assert!(matches!(err, RelError::ForeignKeyViolation { .. }));
        // NOT NULL update.
        let err = d
            .update_row("author", rid, &[a("lastname", Value::Null)])
            .unwrap_err();
        assert!(matches!(err, RelError::NotNullViolation { .. }));
    }

    #[test]
    fn delete_restricted_while_referenced() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        let team_rid = d.find_by_pk("team", &[Value::Int(5)]).unwrap().unwrap();
        let author_rid = d
            .insert(
                "author",
                &[
                    a("id", Value::Int(1)),
                    a("lastname", Value::text("Hert")),
                    a("team", Value::Int(5)),
                ],
            )
            .unwrap();
        let err = d.delete_row("team", team_rid).unwrap_err();
        assert!(matches!(err, RelError::RestrictViolation { .. }));
        d.delete_row("author", author_rid).unwrap();
        d.delete_row("team", team_rid).unwrap();
        assert_eq!(d.row_count("team").unwrap(), 0);
    }

    #[test]
    fn update_of_referenced_pk_restricted() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        let team_rid = d.find_by_pk("team", &[Value::Int(5)]).unwrap().unwrap();
        d.insert(
            "author",
            &[
                a("id", Value::Int(1)),
                a("lastname", Value::text("Hert")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
        let err = d
            .update_row("team", team_rid, &[a("id", Value::Int(6))])
            .unwrap_err();
        assert!(matches!(err, RelError::RestrictViolation { .. }));
        // Non-key update is fine.
        d.update_row("team", team_rid, &[a("name", Value::text("SE"))])
            .unwrap();
    }

    #[test]
    fn index_probe_resolves_through_pk_unique_and_secondary() {
        let mut d = db();
        d.insert(
            "team",
            &[a("id", Value::Int(5)), a("code", Value::text("SEAL"))],
        )
        .unwrap();
        d.insert(
            "author",
            &[
                a("id", Value::Int(1)),
                a("lastname", Value::text("Hert")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
        d.insert(
            "author",
            &[
                a("id", Value::Int(2)),
                a("lastname", Value::text("Reif")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
        // Single-column PK.
        assert_eq!(
            d.index_probe("team", "id", &Value::Int(5)).unwrap(),
            Some(vec![d
                .find_by_pk("team", &[Value::Int(5)])
                .unwrap()
                .unwrap()])
        );
        // Unique column.
        assert_eq!(
            d.index_probe("team", "code", &Value::text("SEAL"))
                .unwrap()
                .map(|ids| ids.len()),
            Some(1)
        );
        // FK column: auto-indexed secondary, two matches.
        assert_eq!(
            d.index_probe("author", "team", &Value::Int(5))
                .unwrap()
                .map(|ids| ids.len()),
            Some(2)
        );
        // NULL probe matches nothing.
        assert_eq!(
            d.index_probe("author", "team", &Value::Null).unwrap(),
            Some(vec![])
        );
        // Unindexed column: no probe.
        assert_eq!(
            d.index_probe("author", "lastname", &Value::text("Hert"))
                .unwrap(),
            None
        );
        assert!(!d.supports_index_probe("author", "lastname").unwrap());
    }

    #[test]
    fn index_probe_refuses_aliasing_doubles() {
        // Above 2^53 a double compares sql_eq-equal to several distinct
        // integers; exact-key lookup must decline so callers scan.
        let mut d = db();
        let big = (1i64 << 60) + 50;
        d.insert("team", &[a("id", Value::Int(big))]).unwrap();
        let probe = Value::Double((1i64 << 60) as f64);
        assert_eq!(probe.sql_eq(&Value::Int(big)), Some(true));
        assert_eq!(d.index_probe("team", "id", &probe).unwrap(), None);
        // Small integral doubles still probe exactly.
        d.insert("team", &[a("id", Value::Int(2))]).unwrap();
        assert_eq!(
            d.index_probe("team", "id", &Value::Double(2.0))
                .unwrap()
                .map(|ids| ids.len()),
            Some(1)
        );
        // Non-integral doubles match nothing.
        assert_eq!(
            d.index_probe("team", "id", &Value::Double(2.5)).unwrap(),
            Some(vec![])
        );
    }

    #[test]
    fn index_probe_survives_rollback() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        d.insert(
            "author",
            &[
                a("id", Value::Int(1)),
                a("lastname", Value::text("x")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
        // Writes to a clone never reach the kept original.
        let mut scratch = d.clone();
        scratch.begin().unwrap();
        scratch
            .insert(
                "author",
                &[
                    a("id", Value::Int(2)),
                    a("lastname", Value::text("y")),
                    a("team", Value::Int(5)),
                ],
            )
            .unwrap();
        let rid = scratch
            .find_by_pk("author", &[Value::Int(1)])
            .unwrap()
            .unwrap();
        scratch
            .update_row("author", rid, &[a("team", Value::Null)])
            .unwrap();
        drop(scratch);
        let ids = d
            .index_probe("author", "team", &Value::Int(5))
            .unwrap()
            .unwrap();
        assert_eq!(ids, vec![rid]);
    }

    #[test]
    fn rollback_restores_everything() {
        let mut d = db();
        d.insert(
            "team",
            &[a("id", Value::Int(5)), a("name", Value::text("SEAL"))],
        )
        .unwrap();
        let team_rid = d.find_by_pk("team", &[Value::Int(5)]).unwrap().unwrap();
        let teams = d.row_count("team").unwrap();

        // The rollback point is the kept original; the writes go to a
        // clone, which is dropped.
        let mut scratch = d.clone();
        scratch.begin().unwrap();
        scratch.insert("team", &[a("id", Value::Int(6))]).unwrap();
        scratch
            .update_row("team", team_rid, &[a("name", Value::text("DBTG"))])
            .unwrap();
        scratch
            .insert(
                "author",
                &[a("id", Value::Int(1)), a("lastname", Value::text("x"))],
            )
            .unwrap();
        let author_rid = scratch
            .find_by_pk("author", &[Value::Int(1)])
            .unwrap()
            .unwrap();
        scratch.delete_row("author", author_rid).unwrap();
        drop(scratch);

        assert_eq!(d.row_count("team").unwrap(), teams);
        assert_eq!(
            d.row("team", team_rid).unwrap().unwrap()[1],
            Value::text("SEAL")
        );
        assert_eq!(d.row_count("author").unwrap(), 0);
        // PK index restored too: re-inserting id 6 must succeed.
        d.insert("team", &[a("id", Value::Int(6))]).unwrap();
    }

    #[test]
    fn commit_keeps_changes() {
        let mut d = db();
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(1))]).unwrap();
        d.commit().unwrap();
        assert_eq!(d.row_count("team").unwrap(), 1);
    }

    #[test]
    fn nested_begin_rejected() {
        let mut d = db();
        d.begin().unwrap();
        assert!(matches!(d.begin(), Err(RelError::Transaction { .. })));
    }

    #[test]
    fn commit_without_begin_rejected() {
        let mut d = db();
        assert!(matches!(d.commit(), Err(RelError::Transaction { .. })));
        assert!(matches!(d.txn_ops(), Err(RelError::Transaction { .. })));
    }

    #[test]
    fn rollback_restores_indexes() {
        let mut d = db();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        let mut scratch = d.clone();
        scratch.begin().unwrap();
        scratch
            .insert(
                "author",
                &[
                    a("id", Value::Int(1)),
                    a("lastname", Value::text("x")),
                    a("team", Value::Int(5)),
                ],
            )
            .unwrap();
        assert_eq!(
            scratch
                .index_probe("author", "team", &Value::Int(5))
                .unwrap()
                .map(|ids| ids.len()),
            Some(1)
        );
        drop(scratch);
        // The kept original never had the FK secondary index entry.
        assert_eq!(
            d.index_probe("author", "team", &Value::Int(5)).unwrap(),
            Some(vec![])
        );
        // Nor the PK index entry: the id is free.
        d.insert(
            "author",
            &[a("id", Value::Int(1)), a("lastname", Value::text("y"))],
        )
        .unwrap();
        assert_eq!(d.row_count("author").unwrap(), 1);
    }

    #[test]
    fn txn_ops_surfaces_applied_ops_in_order() {
        let mut d = db();
        d.begin().unwrap();
        let rid = d
            .insert(
                "team",
                &[a("id", Value::Int(1)), a("name", Value::text("A"))],
            )
            .unwrap();
        d.update_row("team", rid, &[a("name", Value::text("B"))])
            .unwrap();
        let rid2 = d.insert("team", &[a("id", Value::Int(2))]).unwrap();
        d.delete_row("team", rid2).unwrap();
        assert_eq!(
            d.txn_ops().unwrap(),
            vec![
                LogicalOp::Insert {
                    table: "team",
                    row_id: rid,
                    row: &[Value::Int(1), Value::text("A"), Value::Null],
                },
                LogicalOp::Update {
                    table: "team",
                    row_id: rid,
                    row: &[Value::Int(1), Value::text("B"), Value::Null],
                },
                LogicalOp::Insert {
                    table: "team",
                    row_id: rid2,
                    row: &[Value::Int(2), Value::Null, Value::Null],
                },
                LogicalOp::Delete {
                    table: "team",
                    row_id: rid2,
                },
            ]
        );
        d.commit().unwrap();
    }

    #[test]
    fn txn_ops_excludes_rolled_back_work() {
        let mut d = db();
        let kept = d.clone();
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(2))]).unwrap();
        // Roll back: put the kept clone back, redo log and all.
        d = kept;
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(3))]).unwrap();
        let ids: Vec<Value> = d
            .txn_ops()
            .unwrap()
            .iter()
            .map(|op| match op {
                LogicalOp::Insert { row, .. } => row[0],
                _ => panic!("only inserts expected"),
            })
            .collect();
        assert_eq!(ids, vec![Value::Int(3)]);
        d.commit().unwrap();
    }

    // A team row (id 1, code 'a') committed at row id 0.
    fn one_team() -> Database {
        let mut d = db();
        let rid = d
            .insert(
                "team",
                &[a("id", Value::Int(1)), a("code", Value::text("a"))],
            )
            .unwrap();
        assert_eq!(rid, 0);
        d
    }

    // The row and both its index entries are untouched.
    fn assert_one_team_intact(d: &Database) {
        assert_eq!(
            d.row("team", 0).unwrap().unwrap(),
            &vec![Value::Int(1), Value::Null, Value::text("a")]
        );
        assert_eq!(d.find_by_pk("team", &[Value::Int(1)]).unwrap(), Some(0));
        assert_eq!(d.find_by_pk("team", &[Value::Int(2)]).unwrap(), None);
        assert_eq!(
            d.index_probe("team", "code", &Value::text("a")).unwrap(),
            Some(vec![0])
        );
        assert_eq!(d.next_row_id("team").unwrap(), 1);
    }

    #[test]
    fn replayed_short_update_row_is_an_error_that_changes_nothing() {
        let mut d = one_team();
        let err = d
            .apply_logical(LogicalOp::Update {
                table: "team",
                row_id: 0,
                row: &[Value::Int(1)],
            })
            .unwrap_err();
        assert!(matches!(err, RelError::Execution { .. }), "{err:?}");
        assert_one_team_intact(&d);
    }

    #[test]
    fn replayed_insert_at_an_occupied_row_id_is_an_error_that_changes_nothing() {
        let mut d = one_team();
        let err = d
            .apply_logical(LogicalOp::Insert {
                table: "team",
                row_id: 0,
                row: &[Value::Int(2), Value::Null, Value::text("b")],
            })
            .unwrap_err();
        assert!(matches!(err, RelError::Execution { .. }), "{err:?}");
        assert_one_team_intact(&d);
        assert_eq!(
            d.index_probe("team", "code", &Value::text("b")).unwrap(),
            Some(vec![])
        );
    }

    #[test]
    fn replaying_commit_stream_reproduces_state_byte_identically() {
        let mut live = db();
        let mut replica = db();
        live.begin().unwrap();
        live.insert(
            "team",
            &[a("id", Value::Int(5)), a("name", Value::text("SEAL"))],
        )
        .unwrap();
        live.insert(
            "author",
            &[
                a("id", Value::Int(1)),
                a("lastname", Value::text("Hert")),
                a("team", Value::Int(5)),
            ],
        )
        .unwrap();
        let rid = live
            .find_by_pk("author", &[Value::Int(1)])
            .unwrap()
            .unwrap();
        live.update_row("author", rid, &[a("lastname", Value::text("H."))])
            .unwrap();
        for op in live.txn_ops().unwrap() {
            replica.apply_logical(op).unwrap();
        }
        live.commit().unwrap();
        for table in ["team", "author"] {
            let a: Vec<_> = live.scan(table).unwrap().collect();
            let b: Vec<_> = replica.scan(table).unwrap().collect();
            assert_eq!(a, b, "replayed heap differs in {table}");
            assert_eq!(
                live.next_row_id(table).unwrap(),
                replica.next_row_id(table).unwrap()
            );
        }
        // Index state replayed too.
        assert_eq!(
            replica
                .index_probe("author", "team", &Value::Int(5))
                .unwrap(),
            Some(vec![rid])
        );
    }

    #[test]
    fn rollback_unwinds_row_id_allocation() {
        let mut d = db();
        let r1 = d.insert("team", &[a("id", Value::Int(1))]).unwrap();
        let kept = d.clone();
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(2))]).unwrap();
        d.insert("team", &[a("id", Value::Int(3))]).unwrap();
        d = kept;
        // Rolled-back inserts do not burn ids…
        assert_eq!(d.next_row_id("team").unwrap(), r1 + 1);
        // …and an insert committed before the rolled-back one keeps its
        // id, while the next insert reuses the freed one.
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(4))]).unwrap();
        d.commit().unwrap();
        let before = d.next_row_id("team").unwrap();
        let kept = d.clone();
        d.begin().unwrap();
        d.insert("team", &[a("id", Value::Int(5))]).unwrap();
        d = kept;
        assert_eq!(d.next_row_id("team").unwrap(), before);
        assert_eq!(d.insert("team", &[a("id", Value::Int(6))]).unwrap(), before);
    }

    #[test]
    fn next_row_id_survives_tail_delete_via_setter() {
        let mut d = db();
        let r1 = d.insert("team", &[a("id", Value::Int(1))]).unwrap();
        d.delete_row("team", r1).unwrap();
        // Allocator is past the deleted row…
        assert_eq!(d.next_row_id("team").unwrap(), r1 + 1);
        // …a snapshot restore forces the same position…
        let mut fresh = db();
        fresh.set_next_row_id("team", r1 + 1).unwrap();
        assert_eq!(
            fresh.insert("team", &[a("id", Value::Int(2))]).unwrap(),
            r1 + 1
        );
        // …and the setter never re-issues a live id.
        let mut clamped = db();
        let r = clamped.insert("team", &[a("id", Value::Int(3))]).unwrap();
        clamped.set_next_row_id("team", 0).unwrap();
        assert!(clamped.next_row_id("team").unwrap() > r);
    }

    #[test]
    fn noop_update_succeeds_without_log() {
        let mut d = db();
        d.insert(
            "team",
            &[a("id", Value::Int(1)), a("name", Value::text("A"))],
        )
        .unwrap();
        let rid = d.find_by_pk("team", &[Value::Int(1)]).unwrap().unwrap();
        d.begin().unwrap();
        d.update_row("team", rid, &[a("name", Value::text("A"))])
            .unwrap();
        assert!(!d.txn_has_changes().unwrap());
        d.commit().unwrap();
        assert_eq!(d.row("team", rid).unwrap().unwrap()[1], Value::text("A"));
    }
}

#[cfg(test)]
mod auto_increment_tests {
    use super::*;
    use crate::schema::{Column, Table};
    use crate::value::SqlType;

    fn db() -> Database {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("link")
                    .column(
                        Column::new("id", SqlType::Integer)
                            .not_null()
                            .auto_increment(),
                    )
                    .column(Column::new("x", SqlType::Integer))
                    .primary_key(&["id"])
                    .build(),
            )
            .unwrap();
        Database::new(schema).unwrap()
    }

    #[test]
    fn assigns_sequential_ids_when_omitted() {
        let mut d = db();
        let r1 = d
            .insert("link", &[("x".to_owned(), Value::Int(10))])
            .unwrap();
        let r2 = d
            .insert("link", &[("x".to_owned(), Value::Int(20))])
            .unwrap();
        assert_eq!(d.row("link", r1).unwrap().unwrap()[0], Value::Int(1));
        assert_eq!(d.row("link", r2).unwrap().unwrap()[0], Value::Int(2));
    }

    #[test]
    fn explicit_value_respected_and_counter_follows_max() {
        let mut d = db();
        d.insert("link", &[("id".to_owned(), Value::Int(41))])
            .unwrap();
        let r = d
            .insert("link", &[("x".to_owned(), Value::Int(1))])
            .unwrap();
        assert_eq!(d.row("link", r).unwrap().unwrap()[0], Value::Int(42));
    }

    #[test]
    fn deleting_the_max_row_reuses_its_id() {
        // max+1 read off the PK index, not a counter: the id of a
        // deleted max row is handed out again, as the scan did.
        let mut d = db();
        let x = |v| [("x".to_owned(), Value::Int(v))];
        d.insert("link", &x(1)).unwrap();
        let max = d.insert("link", &x(2)).unwrap();
        d.delete_row("link", max).unwrap();
        let again = d.insert("link", &x(3)).unwrap();
        assert_eq!(d.row("link", again).unwrap().unwrap()[0], Value::Int(2));
        let rows = [vec![Value::Int(4)], vec![Value::Int(5)]];
        d.insert_many("link", &["x".to_owned()], &rows).unwrap();
        let ids: Vec<Value> = d.scan("link").unwrap().map(|(_, row)| row[0]).collect();
        assert_eq!(ids, [1, 2, 3, 4].map(Value::Int));
    }

    #[test]
    fn auto_increment_on_varchar_rejected_by_validation() {
        let mut schema = Schema::new();
        schema
            .add_table(
                Table::builder("bad")
                    .column(Column::new("id", SqlType::Varchar).auto_increment())
                    .build(),
            )
            .unwrap();
        assert!(Database::new(schema).is_err());
    }
}
