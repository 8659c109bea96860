//! Row storage for one table: heap of rows plus primary-key, unique,
//! and secondary (non-unique) indexes.
//!
//! Every map here is a persistent [`PMap`]: cloning a [`TableData`] is
//! O(#indexes) `Arc` clones, which is what makes publishing an immutable
//! database version per commit affordable (see [`crate::pmap`]). The
//! writer mutates its own copy in place; shared nodes are path-copied
//! on first touch, so published snapshots never observe a mutation.
//! The same clone is a transaction's one rollback point: `Database::begin`
//! keeps it, and rollback puts it back.

use crate::database::ProbeIds;
use crate::pmap::PMap;
use crate::schema::Table;
use crate::value::{IndexKey, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a stored row, unique within its table for the lifetime
/// of the database.
pub type RowId = u64;

/// The index answering equality on one column, borrowed from its
/// table's storage (see [`TableData::eq_index`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum EqIndex<'a> {
    Pk(&'a PMap<Vec<IndexKey>, RowId>),
    Unique(&'a PMap<IndexKey, RowId>),
    Secondary(&'a PMap<IndexKey, Arc<Vec<RowId>>>),
}

impl<'a> EqIndex<'a> {
    /// Row ids holding `key` (ascending).
    pub(crate) fn ids(self, key: &IndexKey) -> ProbeIds<'a> {
        match self {
            EqIndex::Pk(index) => ProbeIds::Unique(index.get(std::slice::from_ref(key)).copied()),
            EqIndex::Unique(index) => ProbeIds::Unique(index.get(key).copied()),
            EqIndex::Secondary(index) => {
                ProbeIds::Many(index.get(key).map_or(&[][..], |ids| ids.as_slice()))
            }
        }
    }
}

/// Storage for one table.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    rows: PMap<RowId, Vec<Value>>,
    /// PK values → row id. Empty key vec when the table has no PK.
    pk_index: PMap<Vec<IndexKey>, RowId>,
    /// Per unique column: value → row id (NULLs excluded, as in SQL).
    unique_indexes: HashMap<String, PMap<IndexKey, RowId>>,
    /// Per indexed column: value → row ids (non-unique; NULLs excluded).
    /// The set is fixed by the schema: every declared FK column not
    /// already covered by the PK or a UNIQUE index (see
    /// [`TableData::for_table`]). Id lists are kept in ascending row-id
    /// order so index-backed plans enumerate rows deterministically.
    /// Each list is `Arc`-shared: path-copying a leaf after a publish
    /// shares its untouched lists, and only the list a write touches is
    /// copied.
    secondary_indexes: HashMap<String, PMap<IndexKey, Arc<Vec<RowId>>>>,
    next_row_id: RowId,
}

impl TableData {
    /// Empty storage with unique indexes prepared from the table schema
    /// and secondary indexes on every declared foreign-key column (the
    /// join columns the SPARQL translation produces).
    pub fn for_table(table: &Table) -> Self {
        let mut data = TableData::default();
        for column in &table.columns {
            if column.unique {
                data.unique_indexes.insert(column.name.clone(), PMap::new());
            }
        }
        for fk in &table.foreign_keys {
            let covered = table.column(&fk.column).is_some_and(|c| c.unique)
                || (table.primary_key.len() == 1 && table.primary_key[0] == fk.column);
            // DOUBLE columns are never probed (index keys cannot express
            // SQL equality for them), so indexing one would cost
            // maintenance forever without ever being read.
            let probeable = table
                .column(&fk.column)
                .is_some_and(|c| c.ty != crate::value::SqlType::Double);
            if !covered && probeable {
                data.secondary_indexes
                    .insert(fk.column.clone(), PMap::new());
            }
        }
        data
    }

    /// The index answering SQL equality on `column`: the primary key
    /// when it is the whole key, else the column's unique or secondary
    /// index; `None` when no index covers the column.
    pub(crate) fn eq_index(&self, table: &Table, column: &str) -> Option<EqIndex<'_>> {
        if table.primary_key.len() == 1 && table.primary_key[0] == column {
            return Some(EqIndex::Pk(&self.pk_index));
        }
        if let Some(index) = self.unique_indexes.get(column) {
            return Some(EqIndex::Unique(index));
        }
        self.secondary_indexes.get(column).map(EqIndex::Secondary)
    }

    /// Whether a secondary index exists on `column`.
    pub fn has_index(&self, column: &str) -> bool {
        self.secondary_indexes.contains_key(column)
    }

    /// Row ids holding `key` in the secondary index on `column`
    /// (ascending). `None` when no such index exists; an empty slice
    /// when the index exists but holds no match.
    pub fn lookup_by_index(&self, column: &str, key: &IndexKey) -> Option<&[RowId]> {
        let index = self.secondary_indexes.get(column)?;
        Some(index.get(key).map_or(&[][..], |ids| ids.as_slice()))
    }

    /// Distinct non-NULL keys of the unique or secondary index on
    /// `column`, if one exists — O(1), the map keeps its length.
    pub fn index_key_count(&self, column: &str) -> Option<usize> {
        match self.unique_indexes.get(column) {
            Some(index) => Some(index.len()),
            None => self.secondary_indexes.get(column).map(PMap::len),
        }
    }

    /// The greatest primary key, in key order (`None` when the table is
    /// empty or has no primary key) — O(log n) down the ordered index.
    pub fn max_pk(&self) -> Option<&[IndexKey]> {
        self.pk_index
            .last_key_value()
            .map(|(key, _)| key.as_slice())
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate `(row_id, row)` in insertion (row id) order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows.iter().map(|(id, row)| (*id, row))
    }

    /// Fetch one row.
    pub fn row(&self, row_id: RowId) -> Option<&Vec<Value>> {
        self.rows.get(&row_id)
    }

    /// Row id holding the given primary key, if present.
    pub fn find_by_pk(&self, key: &[IndexKey]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    /// Row id holding `value` in the unique column `column`, if present.
    pub fn find_by_unique(&self, column: &str, key: &IndexKey) -> Option<RowId> {
        self.unique_indexes.get(column)?.get(key).copied()
    }

    /// Store a row that has already passed constraint checking.
    /// Returns the new row id.
    pub fn insert_unchecked(&mut self, table: &Table, row: Vec<Value>) -> RowId {
        let row_id = self.next_row_id;
        self.next_row_id += 1;
        self.index_row(table, row_id, &row);
        self.rows.insert(row_id, row);
        row_id
    }

    /// Store a row under an explicitly recorded id, advancing the
    /// allocator past it (durability replay of a logged insert: the id
    /// must match the original run so recovered state is byte-identical
    /// and later inserts allocate the same ids).
    pub fn insert_at_unchecked(&mut self, table: &Table, row_id: RowId, row: Vec<Value>) {
        self.index_row(table, row_id, &row);
        self.rows.insert(row_id, row);
        self.next_row_id = self.next_row_id.max(row_id + 1);
    }

    /// The id the next [`TableData::insert_unchecked`] will assign.
    pub fn next_row_id(&self) -> RowId {
        self.next_row_id
    }

    /// Force the row-id allocator (snapshot restore). Clamped so it
    /// never re-issues an id a stored row already holds.
    pub fn set_next_row_id(&mut self, next: RowId) {
        let floor = self
            .rows
            .last_key_value()
            .map_or(0, |(max_id, _)| max_id + 1);
        self.next_row_id = next.max(floor);
    }

    /// Columns carrying a secondary index, sorted (snapshot state).
    pub fn secondary_index_columns(&self) -> Vec<String> {
        let mut columns: Vec<String> = self.secondary_indexes.keys().cloned().collect();
        columns.sort();
        columns
    }

    /// Replace a row's values (already constraint-checked), fixing
    /// indexes. Returns the previous values.
    pub fn update_unchecked(
        &mut self,
        table: &Table,
        row_id: RowId,
        new_row: Vec<Value>,
    ) -> Option<Vec<Value>> {
        let old = self.rows.get(&row_id)?.clone();
        self.unindex_row(table, row_id, &old);
        self.index_row(table, row_id, &new_row);
        self.rows.insert(row_id, new_row);
        Some(old)
    }

    /// Remove a row (already constraint-checked), fixing indexes.
    /// Returns the removed values.
    pub fn delete_unchecked(&mut self, table: &Table, row_id: RowId) -> Option<Vec<Value>> {
        let row = self.rows.remove(&row_id)?;
        self.unindex_row(table, row_id, &row);
        Some(row)
    }

    /// Primary-key values of `row` as index keys (empty when no PK).
    pub fn pk_key(table: &Table, row: &[Value]) -> Vec<IndexKey> {
        table
            .primary_key
            .iter()
            .map(|name| {
                let i = table
                    .column_index(name)
                    .expect("validated: PK column exists");
                row[i].index_key()
            })
            .collect()
    }

    fn index_row(&mut self, table: &Table, row_id: RowId, row: &[Value]) {
        if !table.primary_key.is_empty() {
            self.pk_index.insert(Self::pk_key(table, row), row_id);
        }
        for (column, index) in &mut self.unique_indexes {
            let i = table
                .column_index(column)
                .expect("unique index built from schema");
            if !row[i].is_null() {
                index.insert(row[i].index_key(), row_id);
            }
        }
        for (column, index) in &mut self.secondary_indexes {
            let i = table
                .column_index(column)
                .expect("secondary index built from schema");
            if !row[i].is_null() {
                let key = row[i].index_key();
                match index.get_mut(&key) {
                    Some(ids) => {
                        // An update can move a low id under a key
                        // holding higher ones; keep ascending order.
                        let ids = Arc::make_mut(ids);
                        let pos = ids.partition_point(|&id| id < row_id);
                        ids.insert(pos, row_id);
                    }
                    None => {
                        index.insert(key, Arc::new(vec![row_id]));
                    }
                }
            }
        }
    }

    fn unindex_row(&mut self, table: &Table, row_id: RowId, row: &[Value]) {
        if !table.primary_key.is_empty() {
            self.pk_index.remove(&Self::pk_key(table, row));
        }
        for (column, index) in &mut self.unique_indexes {
            let i = table
                .column_index(column)
                .expect("unique index built from schema");
            if !row[i].is_null() {
                index.remove(&row[i].index_key());
            }
        }
        for (column, index) in &mut self.secondary_indexes {
            let i = table
                .column_index(column)
                .expect("secondary index built from schema");
            if row[i].is_null() {
                continue;
            }
            let key = row[i].index_key();
            let now_empty = match index.get_mut(&key) {
                Some(ids) => {
                    let ids = Arc::make_mut(ids);
                    if let Ok(pos) = ids.binary_search(&row_id) {
                        ids.remove(pos);
                    }
                    ids.is_empty()
                }
                None => false,
            };
            if now_empty {
                index.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Table};
    use crate::value::SqlType;

    fn table() -> Table {
        Table::builder("t")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("code", SqlType::Varchar).unique())
            .primary_key(&["id"])
            .build()
    }

    #[test]
    fn insert_and_lookup() {
        let t = table();
        let mut data = TableData::for_table(&t);
        let id = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("A")]);
        assert_eq!(data.len(), 1);
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), Some(id));
        assert_eq!(
            data.find_by_unique("code", &Value::text("A").index_key()),
            Some(id)
        );
    }

    #[test]
    fn update_moves_index_entries() {
        let t = table();
        let mut data = TableData::for_table(&t);
        let id = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("A")]);
        let old = data
            .update_unchecked(&t, id, vec![Value::Int(2), Value::text("B")])
            .unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), None);
        assert_eq!(data.find_by_pk(&[Value::Int(2).index_key()]), Some(id));
        assert_eq!(
            data.find_by_unique("code", &Value::text("A").index_key()),
            None
        );
        assert_eq!(
            data.find_by_unique("code", &Value::text("B").index_key()),
            Some(id)
        );
    }

    #[test]
    fn delete_clears_indexes() {
        let t = table();
        let mut data = TableData::for_table(&t);
        let id = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("A")]);
        let row = data.delete_unchecked(&t, id).unwrap();
        assert_eq!(row[1], Value::text("A"));
        assert!(data.is_empty());
        assert_eq!(data.find_by_pk(&[Value::Int(1).index_key()]), None);
    }

    #[test]
    fn nulls_not_in_unique_index() {
        let t = table();
        let mut data = TableData::for_table(&t);
        data.insert_unchecked(&t, vec![Value::Int(1), Value::Null]);
        data.insert_unchecked(&t, vec![Value::Int(2), Value::Null]);
        assert_eq!(data.len(), 2);
        assert_eq!(data.find_by_unique("code", &Value::Null.index_key()), None);
    }

    // `t` plus a non-unique foreign-key column, which the schema
    // indexes.
    fn referencing() -> Table {
        Table::builder("child")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("code", SqlType::Varchar))
            .primary_key(&["id"])
            .foreign_key("code", "t", "code")
            .build()
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let t = referencing();
        let mut data = TableData::for_table(&t);
        assert!(data.has_index("code"));
        let r1 = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("A")]);
        let r2 = data.insert_unchecked(&t, vec![Value::Int(2), Value::text("A")]);
        assert_eq!(
            data.lookup_by_index("code", &Value::text("A").index_key()),
            Some(&[r1, r2][..])
        );
        data.update_unchecked(&t, r1, vec![Value::Int(1), Value::text("B")])
            .unwrap();
        assert_eq!(
            data.lookup_by_index("code", &Value::text("A").index_key()),
            Some(&[r2][..])
        );
        assert_eq!(
            data.lookup_by_index("code", &Value::text("B").index_key()),
            Some(&[r1][..])
        );
        data.delete_unchecked(&t, r2).unwrap();
        assert_eq!(
            data.lookup_by_index("code", &Value::text("A").index_key()),
            Some(&[][..])
        );
        assert_eq!(
            data.lookup_by_index("absent", &Value::Int(1).index_key()),
            None
        );
    }

    #[test]
    fn secondary_index_skips_nulls() {
        let t = referencing();
        let mut data = TableData::for_table(&t);
        let r1 = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("A")]);
        data.insert_unchecked(&t, vec![Value::Int(2), Value::Null]);
        assert_eq!(
            data.lookup_by_index("code", &Value::text("A").index_key()),
            Some(&[r1][..])
        );
        assert_eq!(
            data.lookup_by_index("code", &Value::Null.index_key()),
            Some(&[][..])
        );
        assert_eq!(data.index_key_count("code"), Some(1));
    }

    #[test]
    fn update_keeps_secondary_index_sorted() {
        let t = referencing();
        let mut data = TableData::for_table(&t);
        let r1 = data.insert_unchecked(&t, vec![Value::Int(1), Value::text("B")]);
        let r2 = data.insert_unchecked(&t, vec![Value::Int(2), Value::text("A")]);
        data.update_unchecked(&t, r1, vec![Value::Int(1), Value::text("A")])
            .unwrap();
        assert_eq!(
            data.lookup_by_index("code", &Value::text("A").index_key()),
            Some(&[r1, r2][..])
        );
    }

    #[test]
    fn fk_columns_are_indexed_automatically() {
        let referencing = Table::builder("child")
            .column(Column::new("id", SqlType::Integer).not_null())
            .column(Column::new("parent", SqlType::Integer))
            .primary_key(&["id"])
            .foreign_key("parent", "t", "id")
            .build();
        let data = TableData::for_table(&referencing);
        assert!(data.has_index("parent"));
    }

    #[test]
    fn scan_in_row_id_order() {
        let t = table();
        let mut data = TableData::for_table(&t);
        data.insert_unchecked(&t, vec![Value::Int(3), Value::Null]);
        data.insert_unchecked(&t, vec![Value::Int(1), Value::Null]);
        let ids: Vec<RowId> = data.scan().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
